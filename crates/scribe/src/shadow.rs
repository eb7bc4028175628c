//! Shadow consumption for warm standbys.
//!
//! A critical job's standby container tails the job's input category
//! alongside the primary so a promotion starts from warm state. The
//! shadow reader is strictly observational: it records how far each
//! partition's tail has advanced but **never** writes the checkpoint
//! store — the primary's checkpoints stay the single source of truth, and
//! the single-writer isolation property (`crates/scribe/src/checkpoint.rs`)
//! is preserved. Any commit attempted through the shadow path is counted
//! as an illegal write and surfaced by the platform's invariant checker.

use std::collections::BTreeMap;
use turbine_types::{JobId, PartitionId};

/// Per-(job, partition) shadow read positions of warm standbys.
#[derive(Debug, Default, Clone)]
pub struct ShadowCursor {
    observed: BTreeMap<(JobId, PartitionId), u64>,
    illegal_commits: u64,
}

impl ShadowCursor {
    /// An empty cursor set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the tail offset a standby's shadow reader has observed.
    /// Observations are monotone: a stale read never moves the cursor
    /// backwards.
    pub fn observe(&mut self, job: JobId, partition: PartitionId, tail: u64) {
        let slot = self.observed.entry((job, partition)).or_insert(0);
        if tail > *slot {
            *slot = tail;
        }
    }

    /// The furthest offset the shadow reader has seen for a partition;
    /// zero if it never observed one.
    pub fn observed(&self, job: JobId, partition: PartitionId) -> u64 {
        self.observed.get(&(job, partition)).copied().unwrap_or(0)
    }

    /// Sum of observed offsets across a job's partitions — how much input
    /// the standby has already seen (its warmth at promotion time).
    pub fn job_observed_total(&self, job: JobId) -> u64 {
        self.observed
            .range((job, PartitionId(0))..=(job, PartitionId(u64::MAX)))
            .map(|(_, &o)| o)
            .sum()
    }

    /// A commit reached the shadow path. This must never happen — the
    /// standby is read-only until promoted — so the attempt is counted and
    /// rejected rather than applied. The invariant checker asserts the
    /// count stays zero.
    pub fn reject_commit(&mut self, _job: JobId, _partition: PartitionId, _offset: u64) {
        self.illegal_commits += 1;
    }

    /// Commits illegally attempted through the shadow path (invariant:
    /// always zero).
    pub fn illegal_commits(&self) -> u64 {
        self.illegal_commits
    }

    /// Drop every cursor of a job (promotion consumed the warmth, the job
    /// was deleted, or its standby registration was cleared).
    pub fn remove_job(&mut self, job: JobId) {
        self.observed.retain(|&(j, _), _| j != job);
    }

    /// Number of tracked cursors.
    pub fn len(&self) -> usize {
        self.observed.len()
    }

    /// True when no cursors are tracked.
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty()
    }
}

turbine_types::snap_struct!(ShadowCursor {
    observed,
    illegal_commits
});

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: JobId = JobId(4);

    #[test]
    fn observations_are_monotone_per_partition() {
        let mut shadow = ShadowCursor::new();
        shadow.observe(JOB, PartitionId(0), 100);
        shadow.observe(JOB, PartitionId(0), 40); // stale read
        shadow.observe(JOB, PartitionId(1), 7);
        assert_eq!(shadow.observed(JOB, PartitionId(0)), 100);
        assert_eq!(shadow.observed(JOB, PartitionId(1)), 7);
        assert_eq!(shadow.job_observed_total(JOB), 107);
        assert_eq!(shadow.observed(JobId(9), PartitionId(0)), 0);
    }

    #[test]
    fn commits_are_rejected_and_counted_never_applied() {
        let mut shadow = ShadowCursor::new();
        shadow.observe(JOB, PartitionId(0), 50);
        shadow.reject_commit(JOB, PartitionId(0), 60);
        assert_eq!(shadow.illegal_commits(), 1);
        // The cursor is untouched: shadow state never advances via commits.
        assert_eq!(shadow.observed(JOB, PartitionId(0)), 50);
    }

    #[test]
    fn remove_job_drops_only_that_job() {
        let mut shadow = ShadowCursor::new();
        shadow.observe(JOB, PartitionId(0), 1);
        shadow.observe(JobId(5), PartitionId(0), 2);
        shadow.remove_job(JOB);
        assert_eq!(shadow.observed(JOB, PartitionId(0)), 0);
        assert_eq!(shadow.observed(JobId(5), PartitionId(0)), 2);
        assert_eq!(shadow.len(), 1);
    }
}
