//! Checkpoint storage.
//!
//! Each Turbine task reads one or several disjoint Scribe partitions,
//! maintains its own state and checkpoint, and resumes from its own
//! checkpoint on restart (paper §II). Checkpoints are keyed by
//! `(job, partition)` — *not* by task — which is precisely what makes
//! parallelism changes possible: when the task count changes, the State
//! Syncer re-maps partitions to tasks, and each new task picks up the
//! per-partition offsets it now owns. No offset is lost or duplicated as
//! long as no two active tasks ever own the same partition (the isolation
//! property the complex-sync protocol enforces).
//!
//! Layout: one row per job holding that job's `(partition, offset)` pairs
//! in partition order, the rows in one vector ascending by job. A
//! checkpoint round walks the rows with one cursor ([`CheckpointRows`]) in
//! step with the engine's jobs, which ascend by id as well, so no job is
//! searched for; elsewhere a job's row is one binary search away
//! ([`CheckpointStore::job_mut`]). A job that has committed every
//! partition from 0 up — every job the platform runs — keeps partition `p`
//! at index `p`, so each access is one indexed load. Only committed
//! partitions have a pair ("never committed" is not "committed 0"), and a
//! stray partition id costs one pair, not a vector as long as the id is
//! large. The layout is invisible outside this module: every method means
//! what it meant over one flat `(job, partition) → offset` map, and the
//! [`Snap`](turbine_types::Snap) encoding is that map's, byte for byte.

use turbine_types::{JobId, PartitionId};

/// One job's `(partition, offset)` pairs, ascending by partition.
type Row = Vec<(PartitionId, u64)>;

/// Where `partition`'s pair sits in `row` (`Ok`), or where it would be
/// inserted (`Err`).
fn position(row: &[(PartitionId, u64)], partition: PartitionId) -> Result<usize, usize> {
    // Dense rows (partitions 0..n all committed) hold `p` at index `p`.
    if let Ok(index) = usize::try_from(partition.raw()) {
        if row.get(index).is_some_and(|&(p, _)| p == partition) {
            return Ok(index);
        }
    }
    row.binary_search_by_key(&partition, |&(p, _)| p)
}

/// Durable per-(job, partition) read offsets.
#[derive(Debug, Default, Clone)]
pub struct CheckpointStore {
    /// Ascending by job. A row may be empty (resolved, nothing committed
    /// yet); it then counts for nothing anywhere.
    rows: Vec<(JobId, Row)>,
}

/// One job's checkpoints, resolved once (see [`CheckpointStore::job_mut`]).
/// Every operation behaves exactly like its [`CheckpointStore`] counterpart
/// for the viewed job.
#[derive(Debug)]
pub struct JobCheckpoints<'a> {
    job: JobId,
    row: &'a mut Row,
}

impl JobCheckpoints<'_> {
    /// Offset for `partition`; zero if never committed.
    pub fn get(&self, partition: PartitionId) -> u64 {
        position(self.row, partition).map_or(0, |i| self.row[i].1)
    }

    /// Commit a new offset (see [`CheckpointStore::commit`]).
    pub fn commit(&mut self, partition: PartitionId, offset: u64) {
        match position(self.row, partition) {
            Ok(i) => {
                let slot = &mut self.row[i].1;
                debug_assert!(
                    offset >= *slot,
                    "checkpoint regression for {}/{partition}: {offset} < {slot}",
                    self.job
                );
                if offset > *slot {
                    *slot = offset;
                }
            }
            Err(i) => self.row.insert(i, (partition, offset)),
        }
    }

    /// The durable-sync pass's step for partition `index`, taken after the
    /// pass has stepped through partitions `0..index` of this row: raise
    /// the offset to `offset` if it is higher, or insert the pair where it
    /// belongs if the partition was never committed. Exactly `if offset >=
    /// get(p) { commit(p, offset) }`, without a search: the earlier steps
    /// left partitions `0..index` at indices `0..index`, so partition
    /// `index` is at `index` or missing.
    pub fn raise_next(&mut self, index: usize, offset: u64) {
        debug_assert!(
            index == 0 || self.row.get(index - 1).map(|&(p, _)| p.raw()) == Some(index as u64 - 1),
            "{}: partition {index} stepped out of order",
            self.job
        );
        match self.row.get_mut(index) {
            Some((partition, slot)) if partition.raw() == index as u64 => {
                if offset > *slot {
                    *slot = offset;
                }
            }
            _ => self.row.insert(index, (PartitionId(index as u64), offset)),
        }
    }
}

/// A cursor over the store's rows for callers that visit jobs in
/// ascending order (see [`CheckpointStore::rows`]): each job's row is
/// found by stepping forward from the previous one's, so a pass over the
/// fleet costs one walk of the rows, not a search per job.
#[derive(Debug)]
pub struct CheckpointRows<'a> {
    rows: &'a mut Vec<(JobId, Row)>,
    /// Rows before this index belong to jobs below the last one visited.
    at: usize,
}

impl CheckpointRows<'_> {
    /// `job`'s checkpoints, its row created empty if it has none. A job
    /// below the previous one visited is found by a search instead.
    pub fn job(&mut self, job: JobId) -> JobCheckpoints<'_> {
        if self.at > 0 && self.rows[self.at - 1].0 >= job {
            self.at = self.rows.partition_point(|&(j, _)| j < job);
        }
        while self.rows.get(self.at).is_some_and(|&(j, _)| j < job) {
            self.at += 1;
        }
        if self.rows.get(self.at).is_none_or(|&(j, _)| j != job) {
            self.rows.insert(self.at, (job, Row::new()));
        }
        self.at += 1;
        JobCheckpoints {
            job,
            row: &mut self.rows[self.at - 1].1,
        }
    }
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The job's checkpoints behind one lookup, for callers that touch
    /// many partitions of one job in a row.
    pub fn job_mut(&mut self, job: JobId) -> JobCheckpoints<'_> {
        let at = self.find(job).unwrap_or_else(|at| {
            self.rows.insert(at, (job, Row::new()));
            at
        });
        JobCheckpoints {
            job,
            row: &mut self.rows[at].1,
        }
    }

    /// A cursor for visiting many jobs in ascending order.
    pub fn rows(&mut self) -> CheckpointRows<'_> {
        CheckpointRows {
            rows: &mut self.rows,
            at: 0,
        }
    }

    fn find(&self, job: JobId) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&job, |&(j, _)| j)
    }

    fn row(&self, job: JobId) -> &[(PartitionId, u64)] {
        self.find(job).map_or(&[], |at| self.rows[at].1.as_slice())
    }

    /// Offset for `(job, partition)`; zero if never committed.
    pub fn get(&self, job: JobId, partition: PartitionId) -> u64 {
        let row = self.row(job);
        position(row, partition).map_or(0, |i| row[i].1)
    }

    /// Commit a new offset. Offsets must not move backwards — a regression
    /// means two tasks processed the same data, which is the corruption the
    /// isolation property exists to prevent. Regressions panic in debug
    /// builds and are ignored in release builds.
    pub fn commit(&mut self, job: JobId, partition: PartitionId, offset: u64) {
        self.job_mut(job).commit(partition, offset);
    }

    /// Clamp a checkpoint down to `max_offset` if it currently sits above
    /// it. Returns `Some((from, to))` when a clamp happened.
    ///
    /// This is the one sanctioned exception to [`commit`](Self::commit)'s
    /// forward-only rule: after a WAL torn-tail salvage the Scribe tail can
    /// legitimately move *backwards* past an already-persisted checkpoint,
    /// and a checkpoint beyond the tail makes every subsequent
    /// `Scribe::backlog` read error forever. Moving the checkpoint back to
    /// the tail re-reads the salvage-lost bytes (at-least-once delivery)
    /// instead of wedging the reader.
    pub fn clamp_to(
        &mut self,
        job: JobId,
        partition: PartitionId,
        max_offset: u64,
    ) -> Option<(u64, u64)> {
        let at = self.find(job).ok()?;
        let row = &mut self.rows[at].1;
        let index = position(row, partition).ok()?;
        let slot = &mut row[index].1;
        if *slot > max_offset {
            let from = *slot;
            *slot = max_offset;
            Some((from, max_offset))
        } else {
            None
        }
    }

    /// All checkpoints of one job, sorted by partition.
    pub fn job_checkpoints(&self, job: JobId) -> Vec<(PartitionId, u64)> {
        self.row(job).to_vec()
    }

    /// Sum of offsets of one job across partitions (total bytes ingested).
    pub fn job_total_ingested(&self, job: JobId) -> u64 {
        self.row(job).iter().map(|&(_, o)| o).sum()
    }

    /// Drop all checkpoints of a job (when the job is deleted).
    pub fn remove_job(&mut self, job: JobId) {
        if let Ok(at) = self.find(job) {
            self.rows.remove(at);
        }
    }

    /// Number of stored offsets.
    pub fn len(&self) -> usize {
        self.rows.iter().map(|(_, row)| row.len()).sum()
    }

    /// True if no offsets are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|(_, row)| row.is_empty())
    }
}

// By hand: the per-job rows are written as one flat `((job, partition),
// offset)` map, the stream of the `BTreeMap` this store once was.
impl turbine_types::Snap for CheckpointStore {
    /// The flat map's stream: the pair count, then `((job, partition),
    /// offset)` in key order.
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.u64(self.len() as u64);
        for (job, row) in &self.rows {
            for &(partition, offset) in row {
                w.put(job);
                w.put(&partition);
                w.u64(offset);
            }
        }
    }

    /// Decodes pair by pair into the rows. Like the flat map's decode it
    /// accepts the pairs in any order and lets a repeated key's last value
    /// win.
    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let mut store = CheckpointStore::new();
        let mut rows = store.rows();
        for _ in 0..r.len_prefix("CheckpointStore.offsets")? {
            let job: JobId = r.get()?;
            let partition: PartitionId = r.get()?;
            let offset = r.u64("CheckpointStore.offset")?;
            let row = rows.job(job).row;
            match position(row, partition) {
                Ok(i) => row[i].1 = offset,
                Err(i) => row.insert(i, (partition, offset)),
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const JOB_A: JobId = JobId(1);
    const JOB_B: JobId = JobId(2);

    #[test]
    fn unknown_checkpoints_read_zero() {
        let store = CheckpointStore::new();
        assert_eq!(store.get(JOB_A, PartitionId(0)), 0);
    }

    #[test]
    fn commit_and_read_back() {
        let mut store = CheckpointStore::new();
        store.commit(JOB_A, PartitionId(0), 100);
        store.commit(JOB_A, PartitionId(1), 250);
        store.commit(JOB_B, PartitionId(0), 7);
        assert_eq!(store.get(JOB_A, PartitionId(0)), 100);
        assert_eq!(store.get(JOB_A, PartitionId(1)), 250);
        assert_eq!(store.get(JOB_B, PartitionId(0)), 7);
        assert_eq!(store.job_total_ingested(JOB_A), 350);
    }

    #[test]
    fn job_checkpoints_are_isolated_per_job() {
        let mut store = CheckpointStore::new();
        store.commit(JOB_A, PartitionId(3), 30);
        store.commit(JOB_A, PartitionId(1), 10);
        store.commit(JOB_B, PartitionId(1), 99);
        let cps = store.job_checkpoints(JOB_A);
        assert_eq!(cps, vec![(PartitionId(1), 10), (PartitionId(3), 30)]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "checkpoint regression"))]
    fn regressions_are_rejected() {
        let mut store = CheckpointStore::new();
        store.commit(JOB_A, PartitionId(0), 100);
        store.commit(JOB_A, PartitionId(0), 50);
        // In release builds the regression is ignored:
        assert_eq!(store.get(JOB_A, PartitionId(0)), 100);
    }

    #[test]
    fn clamp_to_rewinds_only_beyond_tail_checkpoints() {
        let mut store = CheckpointStore::new();
        store.commit(JOB_A, PartitionId(0), 100);
        store.commit(JOB_A, PartitionId(1), 40);
        // Partition 0 sits beyond the (post-salvage) tail of 60: clamped.
        assert_eq!(store.clamp_to(JOB_A, PartitionId(0), 60), Some((100, 60)));
        assert_eq!(store.get(JOB_A, PartitionId(0)), 60);
        // Partition 1 is at or below the tail: untouched.
        assert_eq!(store.clamp_to(JOB_A, PartitionId(1), 60), None);
        assert_eq!(store.get(JOB_A, PartitionId(1)), 40);
        // Never-committed checkpoints are not created by clamping.
        assert_eq!(store.clamp_to(JOB_B, PartitionId(0), 60), None);
        assert!(store.job_checkpoints(JOB_B).is_empty());
        // Forward progress resumes normally after a clamp.
        store.commit(JOB_A, PartitionId(0), 80);
        assert_eq!(store.get(JOB_A, PartitionId(0)), 80);
    }

    #[test]
    fn remove_job_drops_only_that_job() {
        let mut store = CheckpointStore::new();
        store.commit(JOB_A, PartitionId(0), 1);
        store.commit(JOB_B, PartitionId(0), 2);
        store.remove_job(JOB_A);
        assert_eq!(store.get(JOB_A, PartitionId(0)), 0);
        assert_eq!(store.get(JOB_B, PartitionId(0)), 2);
        assert_eq!(store.len(), 1);
    }

    /// The layout this store replaced, kept as the model: one flat ordered
    /// map, with every method written the way it was written over it.
    mod flat_model {
        use super::*;
        use proptest::prelude::*;
        use turbine_types::{Snap, SnapReader, SnapWriter};

        #[derive(Default)]
        struct Flat(BTreeMap<(JobId, PartitionId), u64>);

        impl Flat {
            fn job(&self, job: JobId) -> impl Iterator<Item = (PartitionId, u64)> + '_ {
                self.0
                    .range((job, PartitionId(0))..=(job, PartitionId(u64::MAX)))
                    .map(|(&(_, p), &o)| (p, o))
            }

            fn clamp_to(&mut self, key: (JobId, PartitionId), max: u64) -> Option<(u64, u64)> {
                let slot = self.0.get_mut(&key)?;
                (*slot > max).then(|| (std::mem::replace(slot, max), max))
            }
        }

        fn encoded(value: &impl Snap) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.put(value);
            w.into_bytes()
        }

        /// Partition ids as the platform commits them (dense from 0),
        /// with a few far-away ones a dense vector could not hold.
        fn partition(raw: u8) -> PartitionId {
            match raw {
                0..=11 => PartitionId(raw as u64),
                12 => PartitionId(1 << 40),
                13 => PartitionId(u64::MAX - 1),
                _ => PartitionId(u64::MAX),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any sequence of commits (forward only, as `commit` demands),
            /// clamps, row-handle commits, job removals, cursor passes and
            /// reads: every answer equals the flat map's, and so does the
            /// `Snap` encoding after every step — which the new layout also
            /// decodes back to the same encoding.
            #[test]
            fn rows_behave_as_the_flat_map_did(
                ops in prop::collection::vec((0u8..8, 0u64..5, 0u8..15, 0u64..1_000), 0..120),
            ) {
                let mut store = CheckpointStore::new();
                let mut flat = Flat::default();
                for (kind, job, raw, amount) in ops {
                    let job = JobId(job);
                    let p = partition(raw);
                    match kind {
                        0..=2 => {
                            let offset = flat.0.get(&(job, p)).copied().unwrap_or(0) + amount % 7;
                            store.commit(job, p, offset);
                            let slot = flat.0.entry((job, p)).or_insert(0);
                            *slot = offset.max(*slot);
                        }
                        3 => {
                            // One resolved row, several partitions: the
                            // checkpoint round's access pattern.
                            let mut row = store.job_mut(job);
                            for raw in 0..=raw {
                                let p = partition(raw);
                                prop_assert_eq!(
                                    row.get(p),
                                    flat.0.get(&(job, p)).copied().unwrap_or(0)
                                );
                                if amount >= row.get(p) {
                                    row.commit(p, amount);
                                    flat.0.insert((job, p), amount);
                                }
                            }
                        }
                        4 | 5 => prop_assert_eq!(
                            store.clamp_to(job, p, amount),
                            flat.clamp_to((job, p), amount)
                        ),
                        6 if amount % 4 == 0 => {
                            store.remove_job(job);
                            flat.0.retain(|&(j, _), _| j != job);
                        }
                        7 => {
                            // The cursor over jobs `0..=job` in order, each
                            // row stepped through partitions `0..=raw` as
                            // the durable-sync pass steps it.
                            let mut rows = store.rows();
                            for j in 0..=job.raw() {
                                let mut row = rows.job(JobId(j));
                                for index in 0..=(raw as usize).min(11) {
                                    let p = PartitionId(index as u64);
                                    row.raise_next(index, amount);
                                    let slot = flat.0.entry((JobId(j), p)).or_insert(amount);
                                    *slot = amount.max(*slot);
                                }
                            }
                        }
                        _ => {}
                    }
                    prop_assert_eq!(store.get(job, p), flat.0.get(&(job, p)).copied().unwrap_or(0));
                    prop_assert_eq!(store.job_checkpoints(job), flat.job(job).collect::<Vec<_>>());
                    prop_assert_eq!(
                        store.job_total_ingested(job),
                        flat.job(job).map(|(_, o)| o).sum::<u64>()
                    );
                    prop_assert_eq!(store.len(), flat.0.len());
                    prop_assert_eq!(store.is_empty(), flat.0.is_empty());
                    let bytes = encoded(&store);
                    prop_assert!(bytes == encoded(&flat.0), "encodings diverged");
                    let decoded: CheckpointStore =
                        SnapReader::new(&bytes).get().expect("own encoding decodes");
                    prop_assert!(encoded(&decoded) == bytes, "decode lost something");
                }
            }
        }

        /// A blob the flat map wrote decodes into rows that answer and
        /// re-encode identically — also when its pairs arrive unsorted or
        /// repeated, which the map's decode tolerated (last value wins).
        #[test]
        fn decodes_what_the_flat_map_wrote() {
            let mut flat = Flat::default();
            for (job, p, offset) in [(3, 0, 7), (3, 1, 0), (3, 9, 2), (1, 5, 11), (8, 0, 1)] {
                flat.0.insert((JobId(job), PartitionId(p)), offset);
            }
            let blob = encoded(&flat.0);
            let store: CheckpointStore = SnapReader::new(&blob).get().expect("decode");
            assert_eq!(store.len(), 5);
            assert_eq!(store.get(JobId(3), PartitionId(9)), 2);
            assert_eq!(
                store.job_checkpoints(JobId(3)),
                vec![
                    (PartitionId(0), 7),
                    (PartitionId(1), 0),
                    (PartitionId(9), 2)
                ]
            );
            assert_eq!(encoded(&store), blob);

            let mut w = SnapWriter::new();
            w.u64(3);
            for (job, p, offset) in [(2u64, 4u64, 40u64), (2, 1, 10), (2, 4, 44)] {
                w.u64(job);
                w.u64(p);
                w.u64(offset);
            }
            let unsorted = w.into_bytes();
            let store: CheckpointStore = SnapReader::new(&unsorted).get().expect("decode");
            let map: BTreeMap<(JobId, PartitionId), u64> =
                SnapReader::new(&unsorted).get().expect("decode");
            assert_eq!(encoded(&store), encoded(&map));
            assert_eq!(store.get(JobId(2), PartitionId(4)), 44);
        }
    }
}
