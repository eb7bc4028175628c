//! Task specs: everything needed to run one task (paper §IV).

use turbine_config::MemoryEnforcement;
use turbine_types::{PartitionId, Resources, TaskId};

/// A fully rendered task specification. "A Task Spec includes all
/// configurations necessary to run a task, such as package version,
/// arguments, and number of threads" (§IV). Task Managers compare specs to
/// decide whether a running task must be restarted (e.g. after a package
/// release).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// The task this spec describes.
    pub id: TaskId,
    /// Binary package name.
    pub package_name: String,
    /// Binary package version; a version change propagates as a restart.
    pub package_version: u64,
    /// Fully substituted command-line arguments.
    pub args: Vec<String>,
    /// Worker threads.
    pub threads: u32,
    /// Resources reserved for the task.
    pub reserved: Resources,
    /// Where the task persists checkpoints.
    pub checkpoint_dir: String,
    /// Scribe category the task reads.
    pub input_category: String,
    /// The disjoint subset of input partitions this task owns.
    pub partitions: Vec<PartitionId>,
    /// Whether the task maintains application state.
    pub stateful: bool,
    /// Memory enforcement mode.
    pub memory_enforcement: MemoryEnforcement,
}

impl TaskSpec {
    /// Stable string key of the task — the input to the MD5 task→shard
    /// hash, so it must not depend on anything that changes across spec
    /// regenerations (only job id and task index).
    pub fn hash_key(&self) -> String {
        format!("{}", self.id)
    }

    /// True if replacing `old` with `self` requires restarting the task
    /// (any change in what the process would observe at startup).
    pub fn requires_restart(&self, old: &TaskSpec) -> bool {
        self != old
    }
}

turbine_types::snap_struct!(TaskSpec {
    id,
    package_name,
    package_version,
    args,
    threads,
    reserved,
    checkpoint_dir,
    input_category,
    partitions,
    stateful,
    memory_enforcement
});
