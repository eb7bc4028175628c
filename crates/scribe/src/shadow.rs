//! Shadow consumption for warm standbys.
//!
//! A critical job's standby container tails the job's input category
//! alongside the primary so a promotion starts from warm state: its tasks
//! start with no restart delay, and a stateful job's next checkpoint
//! redistribution moves no state. The shadow reader is strictly
//! observational: it **never** writes the checkpoint store — the
//! primary's checkpoints stay the single source of truth, and the
//! single-writer isolation property (`crates/scribe/src/checkpoint.rs`) is
//! preserved. Any commit attempted through the shadow path is counted
//! as an illegal write and surfaced by the platform's invariant checker.

use turbine_types::{JobId, PartitionId};

/// The shadow read path of warm standbys: it reads, and counts any commit
/// that reaches it.
#[derive(Debug, Default, Clone)]
pub struct ShadowCursor {
    illegal_commits: u64,
}

impl ShadowCursor {
    /// A shadow path with no commit attempted.
    pub fn new() -> Self {
        Self::default()
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
}

turbine_types::snap_struct!(ShadowCursor { illegal_commits });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_are_rejected_and_counted_never_applied() {
        let mut shadow = ShadowCursor::new();
        shadow.reject_commit(JobId(4), PartitionId(0), 60);
        assert_eq!(shadow.illegal_commits(), 1);
    }
}
