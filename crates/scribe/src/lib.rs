//! Scribe: the persistent message-bus substrate (paper §II, §VI).
//!
//! Facebook's Scribe is a persistent distributed messaging system; data is
//! partitioned into *categories* (cf. Kafka topics), each with a set of
//! partitions. All communication between Turbine jobs goes through Scribe
//! rather than direct network connections, which is what makes tasks
//! independently recoverable: a failed task restores its own state and
//! resumes reading its partitions from its own checkpoint.
//!
//! This implementation models what the control plane observes: per-partition
//! byte offsets (append totals), reader checkpoints, and therefore
//! `total_bytes_lagged` — the numerator of the paper's Eq. 1.

pub mod bus;
pub mod checkpoint;

pub use bus::{CategoryId, CategoryView, Scribe, ScribeError};
pub use checkpoint::{CheckpointRows, CheckpointStore, JobCheckpoints};
