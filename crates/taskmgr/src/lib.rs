//! Turbine Task Management (paper §IV).
//!
//! Two cooperating pieces implement the "where to run" layer:
//!
//! * the **Task Service** expands running job configurations into *task
//!   specs* (applying parallelism and template substitutions) and serves
//!   snapshots of the full spec list, cached for 90 s and brought up to
//!   date from the jobs that changed rather than rendered afresh;
//! * a **local Task Manager** inside every Turbine container periodically
//!   (60 s) fetches the full snapshot, hashes every task to a shard with
//!   MD5, and starts/stops/updates exactly the tasks whose shards it owns
//!   (nothing at all when it is handed the snapshot it already holds).
//!
//! Keeping the *full* task list in every Task Manager is the availability
//! trick of §IV-D: load balancing and fail-over keep working even when the
//! Task Service or the whole Job Management layer is down, because shard
//! movement alone determines which of the known tasks a container must run.

pub mod local;
pub mod mapping;
pub mod md5;
pub mod service;
pub mod snapshot;
pub mod spec;

pub use local::{LocalTaskManager, TaskEvent};
pub use mapping::{shard_of_task, task_partitions};
pub use service::{RunningJobs, TaskService};
pub use snapshot::{SnapshotTable, TaskSnapshot};
pub use spec::TaskSpec;
