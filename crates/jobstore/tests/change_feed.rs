//! The Job Store's change feed against the design it replaced: an
//! append-only log of the jobs each row change touched, with one cursor per
//! reader. Whatever the interleaving of writes, drains, snapshot round
//! trips and recoveries, a reader's drain is exactly the log slice since
//! its previous drain, each job once.

use proptest::prelude::*;
use std::collections::BTreeSet;
use turbine_config::{ConfigLevel, ConfigValue, JobConfig};
use turbine_jobstore::{JobStore, MemWal, StoreReader};
use turbine_types::{JobId, SnapReader, SnapWriter};

const JOBS: u64 = 5;

const READERS: [StoreReader; 4] = [
    StoreReader::Syncer,
    StoreReader::TaskService,
    StoreReader::Checker,
    StoreReader::Standbys,
];

const LEVELS: [ConfigLevel; 4] = [
    ConfigLevel::Base,
    ConfigLevel::Provisioner,
    ConfigLevel::Scaler,
    ConfigLevel::Oncall,
];

/// The old design: every successful row change appends its job, and each
/// reader remembers how far into the log it has read.
#[derive(Default)]
struct Log {
    jobs: Vec<JobId>,
    cursors: [usize; 4],
}

impl Log {
    /// What `reader` has not read yet, each job once, and it now has.
    fn read(&mut self, reader: usize) -> BTreeSet<JobId> {
        let unread = self.jobs[self.cursors[reader]..].iter().copied().collect();
        self.cursors[reader] = self.jobs.len();
        unread
    }
}

fn config(shape: u8) -> ConfigValue {
    let mut value = ConfigValue::empty_map();
    value.insert("task_count", u32::from(shape % 4 + 1).into());
    value
}

/// One public-API write; the job it touched when it succeeded.
fn write(store: &mut JobStore<MemWal>, kind: u8, job: JobId, b: u8) -> Option<JobId> {
    let ok = match kind {
        0 => store
            .create_job(job, JobConfig::stateless("feed", 1, 4).to_value())
            .is_ok(),
        1 => {
            let level = LEVELS[usize::from(b) % LEVELS.len()];
            let version = store.read_level(job, level).map_or(0, |(_, v)| v);
            let value = (!b.is_multiple_of(3)).then(|| config(b));
            store.write_level(job, level, value, version).is_ok()
        }
        2 => store.commit_running(job, config(b)).is_ok(),
        3 => store.clear_running(job).is_ok(),
        _ => store.delete_job(job).is_ok(),
    };
    ok.then_some(job)
}

fn round_trip(store: &JobStore<MemWal>) -> JobStore<MemWal> {
    let mut w = SnapWriter::new();
    w.put(store);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let back = r.get().expect("decode");
    r.expect_end().expect("fully consumed");
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Creates, level writes (set and clear), commits, clears and deletes,
    /// failed ones included, interleaved with per-reader drains, snapshot
    /// round trips and recoveries from the WAL: every drain equals the
    /// deduplicated log slice since that reader's last drain, and the
    /// store's change count is the log's length. A recovery replays the
    /// whole WAL, so every job it ever wrote is pending for every reader.
    #[test]
    fn each_drain_is_the_log_slice_since_that_readers_last_drain(
        steps in prop::collection::vec((0u8..10, 0u8..12, 0u8..12), 1..120),
    ) {
        let mut store = JobStore::new(MemWal::new());
        let mut log = Log::default();
        for (kind, a, b) in steps {
            let job = JobId(u64::from(a) % JOBS);
            match kind {
                0..=4 => log.jobs.extend(write(&mut store, kind, job, b)),
                5 | 6 => {
                    let reader = usize::from(b) % READERS.len();
                    prop_assert_eq!(store.drain_changes(READERS[reader]), log.read(reader));
                }
                7 => store = round_trip(&store),
                8 if b < 4 => {
                    store = JobStore::recover(store.wal().clone()).expect("recover");
                    log.cursors = [0; 4];
                }
                _ => {}
            }
            prop_assert_eq!(store.changelog_len(), log.jobs.len() as u64);
        }
        for (reader, &id) in READERS.iter().enumerate() {
            prop_assert_eq!(store.drain_changes(id), log.read(reader));
        }
    }
}
