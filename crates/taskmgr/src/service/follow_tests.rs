//! The change-following fetch of [`TaskService`] against its oracle: the
//! same service made (through `forget_basis`) to build in full on every
//! fetch, which is what every fetch did before the service followed the
//! Job Store's changes.

use super::*;
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::BTreeMap;
use turbine_types::{Snap, SnapWriter};

const JOBS: u64 = 6;
const SHARDS: u64 = 8;
const TTL: Duration = Duration::from_secs(90);

/// A running job table with the Job Store's change-feed and token rules:
/// one reader's set of the jobs whose rows changed.
#[derive(Default)]
pub(crate) struct FakeTable {
    running: BTreeMap<JobId, JobConfig>,
    tokens: BTreeMap<JobId, u64>,
    changed: BTreeSet<JobId>,
    excluded: BTreeSet<JobId>,
    /// Fetches served (every fetch takes the changed set once).
    pub(crate) fetches: Cell<u32>,
}

impl FakeTable {
    /// The State Syncer commits a running configuration.
    pub(crate) fn commit(&mut self, job: JobId, config: JobConfig) {
        self.running.insert(job, config);
        *self.tokens.entry(job).or_insert(0) += 1;
        self.changed.insert(job);
    }

    /// The running row goes away (job wound down).
    pub(crate) fn clear(&mut self, job: JobId) {
        self.running.remove(&job);
        *self.tokens.entry(job).or_insert(0) += 1;
        self.changed.insert(job);
    }

    /// An expected-level write: fed, running row untouched.
    pub(crate) fn touch(&mut self, job: JobId) {
        self.changed.insert(job);
    }

    /// What a snapshot built now must show: every running job that is not
    /// excluded, with the token of the row it shows.
    fn visible(&self) -> BTreeMap<JobId, u64> {
        self.running
            .keys()
            .filter(|job| !self.excluded.contains(job))
            .map(|&job| (job, self.running_token(job)))
            .collect()
    }
}

impl RunningJobs for FakeTable {
    fn take_changed(&mut self) -> BTreeSet<JobId> {
        self.fetches.set(self.fetches.get() + 1);
        std::mem::take(&mut self.changed)
    }

    fn running_jobs(&self) -> Vec<JobId> {
        self.running.keys().copied().collect()
    }

    fn running_token(&self, job: JobId) -> u64 {
        self.tokens.get(&job).copied().unwrap_or(0)
    }

    fn running_config(&self, job: JobId) -> Option<Arc<JobConfig>> {
        self.running.get(&job).cloned().map(Arc::new)
    }

    fn excluded(&self) -> BTreeSet<JobId> {
        self.excluded.clone()
    }
}

fn encoded(value: &impl Snap) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(value);
    w.into_bytes()
}

/// A service as a blob holds it: its snapshot table, then the service.
fn encoded_service(service: &TaskService) -> Vec<u8> {
    let mut table = SnapshotTable::default();
    service.offer_snapshot(&mut table);
    let mut w = SnapWriter::new();
    w.put(&table);
    service.snap_shared(&mut w, &table);
    w.into_bytes()
}

/// One of the running configurations a job can be committed with:
/// `task_count`, package version and the argument list all vary.
fn config(shape: u8) -> JobConfig {
    let mut config = JobConfig::stateless("tailer", 1 + (shape % 3) as u32, 8);
    config.package.version = 1 + (shape / 3 % 2) as u64;
    if shape >= 6 {
        config.args.push("--shadow={index}/{count}".to_string());
    }
    config
}

/// The change-following service and its full-build twin over one table.
struct Pair {
    table: FakeTable,
    follow: TaskService,
    full: TaskService,
    now: SimTime,
    /// The snapshot `follow` returned last, and what it had to show.
    last: Option<(Arc<TaskSnapshot>, BTreeMap<JobId, u64>)>,
    /// Both services restarted since the last refetch.
    restarted: bool,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            table: FakeTable::default(),
            follow: TaskService::with_ttl(TTL, SHARDS),
            full: TaskService::with_ttl(TTL, SHARDS),
            now: SimTime::ZERO,
            last: None,
            restarted: false,
        }
    }

    fn apply(&mut self, (kind, a, b): (u8, u8, u8)) {
        let job = JobId(a as u64 % JOBS);
        match kind {
            0 | 1 => self.table.commit(job, config(b)),
            2 => self.table.clear(job),
            3 => self.table.touch(job),
            4 if self.table.excluded.contains(&job) => {
                self.table.excluded.remove(&job);
            }
            4 => {
                self.table.excluded.insert(job);
            }
            5 => {
                self.follow.invalidate();
                self.full.invalidate();
            }
            6 | 7 => self.now += TTL,
            8 => self.now += Duration::from_secs(30),
            9 if b < 5 => {
                self.follow.restart();
                self.full.restart();
                self.restarted = true;
            }
            _ => {}
        }
    }

    /// Fetch from both and hold them equal; hold `follow` to returning the
    /// same `Arc` exactly when it had nothing new to show.
    fn fetch(&mut self) -> Result<(), TestCaseError> {
        let fetches = self.table.fetches.get();
        let snap = self.follow.snapshot(self.now, &mut self.table);
        let refetched = self.table.fetches.get() > fetches;
        self.full.forget_basis();
        let oracle = self.full.snapshot(self.now, &mut self.table);
        prop_assert!(
            encoded(snap.as_ref()) == encoded(oracle.as_ref()),
            "snapshots diverged at {}",
            self.now
        );
        prop_assert!(
            encoded_service(&self.follow) == encoded_service(&self.full),
            "services diverged at {}",
            self.now
        );
        if !refetched {
            let (last, _) = self.last.as_ref().expect("the first fetch refetches");
            prop_assert!(Arc::ptr_eq(last, &snap), "served from cache");
            return Ok(());
        }
        let visible = self.table.visible();
        // No basis: a full build, which always makes a new `Arc`.
        if let Some((last, shown)) = self.last.take().filter(|_| !self.restarted) {
            prop_assert_eq!(
                Arc::ptr_eq(&last, &snap),
                shown == visible,
                "same Arc exactly when there is nothing new to show, at {}",
                self.now
            );
        }
        self.restarted = false;
        self.last = Some((snap, visible));
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any interleaving of commits (parallelism, version and argument
    /// edits), clears, expected-only writes, exclusion toggles, expiries,
    /// early fetches, invalidations and restarts: fetch by
    /// fetch, the change-following service and the full-build one encode
    /// to the same bytes, and the former hands out a new `Arc` only when
    /// what it shows changed.
    #[test]
    fn following_the_change_log_equals_building_in_full(
        steps in prop::collection::vec((0u8..10, 0u8..12, 0u8..12), 40..140),
    ) {
        let mut pair = Pair::new();
        for step in steps {
            pair.apply(step);
            pair.fetch()?;
        }
    }
}
