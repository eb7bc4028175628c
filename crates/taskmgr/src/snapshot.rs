//! The indexed task-spec snapshot shared by all Task Managers.
//!
//! Every Task Manager keeps the *full* task list (the degraded-mode
//! guarantee of §IV-D). At fleet scale, materializing that list per
//! container would be quadratic, so the Task Service builds one immutable
//! indexed snapshot — task→spec plus shard→tasks, with the MD5 task→shard
//! mapping precomputed — and every Task Manager holds a reference-counted
//! handle to it. Each manager still *has* the full list (its handle keeps
//! the snapshot alive even if the Task Service dies); it just shares the
//! bytes.

use crate::mapping::shard_of_task;
use crate::spec::TaskSpec;
use std::collections::HashMap;
use std::sync::Arc;
use turbine_types::{ShardId, TaskId};

/// An immutable, indexed snapshot of every task spec in the tier.
#[derive(Debug, Default)]
pub struct TaskSnapshot {
    /// Number of shards the tier hashes tasks onto.
    shard_count: u64,
    by_task: HashMap<TaskId, Arc<TaskSpec>>,
    by_shard: HashMap<ShardId, Vec<TaskId>>,
}

impl TaskSnapshot {
    /// Build a snapshot from rendered specs. `shard_cache` memoizes the
    /// MD5 task→shard mapping across snapshot rebuilds (task identity
    /// never changes, so entries are permanent).
    pub fn build(
        specs: Vec<TaskSpec>,
        shard_count: u64,
        shard_cache: &mut HashMap<TaskId, ShardId>,
    ) -> TaskSnapshot {
        assert!(shard_count > 0, "tier must have at least one shard");
        let mut by_task = HashMap::with_capacity(specs.len());
        let mut by_shard: HashMap<ShardId, Vec<TaskId>> = HashMap::new();
        for spec in specs {
            let id = spec.id;
            let shard = memo_shard(shard_cache, id, shard_count);
            by_shard.entry(shard).or_default().push(id);
            by_task.insert(id, Arc::new(spec));
        }
        for tasks in by_shard.values_mut() {
            tasks.sort_unstable();
        }
        TaskSnapshot {
            shard_count,
            by_task,
            by_shard,
        }
    }

    /// A copy of this snapshot without the tasks in `dropped` (all of
    /// which it holds) and with `specs` (none of which it then holds)
    /// added. Every other task shares its `Arc<TaskSpec>` with `self`; the
    /// result is what [`TaskSnapshot::build`] makes of the same list of
    /// specs. This is how the Task Service follows a change to a few jobs
    /// without rendering the fleet again.
    pub(crate) fn patched(
        &self,
        dropped: Vec<TaskId>,
        specs: Vec<TaskSpec>,
        shard_cache: &mut HashMap<TaskId, ShardId>,
    ) -> TaskSnapshot {
        let shard_count = self.shard_count;
        let mut by_task = self.by_task.clone();
        let mut by_shard = self.by_shard.clone();
        for id in dropped {
            by_task.remove(&id);
            let shard = memo_shard(shard_cache, id, shard_count);
            let tasks = by_shard.get_mut(&shard).expect("held task is indexed");
            tasks.retain(|&t| t != id);
            if tasks.is_empty() {
                by_shard.remove(&shard);
            }
        }
        for spec in specs {
            let id = spec.id;
            let tasks = by_shard
                .entry(memo_shard(shard_cache, id, shard_count))
                .or_default();
            tasks.insert(tasks.partition_point(|&t| t < id), id);
            let replaced = by_task.insert(id, Arc::new(spec));
            debug_assert!(replaced.is_none(), "{id} added while still held");
        }
        TaskSnapshot {
            shard_count,
            by_task,
            by_shard,
        }
    }

    /// The tier's shard count this snapshot was hashed against.
    pub fn shard_count(&self) -> u64 {
        self.shard_count
    }

    /// Spec of one task.
    pub fn spec(&self, task: TaskId) -> Option<&Arc<TaskSpec>> {
        self.by_task.get(&task)
    }

    /// Tasks hashed onto one shard, sorted.
    pub fn tasks_of_shard(&self, shard: ShardId) -> &[TaskId] {
        self.by_shard.get(&shard).map_or(&[], Vec::as_slice)
    }

    /// Total number of tasks in the snapshot.
    pub fn len(&self) -> usize {
        self.by_task.len()
    }

    /// True if the snapshot holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.by_task.is_empty()
    }

    /// Iterate all task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = &TaskId> {
        self.by_task.keys()
    }
}

/// The shard `id` hashes onto, computed once per task.
fn memo_shard(cache: &mut HashMap<TaskId, ShardId>, id: TaskId, shard_count: u64) -> ShardId {
    *cache
        .entry(id)
        .or_insert_with(|| shard_of_task(id, shard_count))
}

// By hand: only the specs are stored; the by-task and by-shard indexes
// are rebuilt from them through `TaskSnapshot::build`.
impl turbine_types::Snap for TaskSnapshot {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.u64(self.shard_count);
        // Specs sorted by task id; the shard index is rebuilt from the MD5
        // mapping on decode, which is pure in (task, shard_count).
        let mut specs: Vec<&Arc<TaskSpec>> = self.by_task.values().collect();
        specs.sort_unstable_by_key(|s| s.id);
        w.u64(specs.len() as u64);
        for spec in specs {
            w.put(spec.as_ref());
        }
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let shard_count = r.u64("TaskSnapshot.shard_count")?;
        let len = r.len_prefix("TaskSnapshot.specs")?;
        if shard_count == 0 {
            // Only the never-built placeholder snapshot has no shards.
            if len != 0 {
                return Err(turbine_types::SnapError::Value(
                    "TaskSnapshot with tasks but zero shards",
                ));
            }
            return Ok(TaskSnapshot::default());
        }
        let mut specs = Vec::with_capacity(r.prealloc::<TaskSpec>(len));
        for _ in 0..len {
            specs.push(r.get::<TaskSpec>()?);
        }
        let mut scratch = HashMap::new();
        Ok(TaskSnapshot::build(specs, shard_count, &mut scratch))
    }
}

/// The distinct task snapshots of one blob. The Task Service and every
/// Task Manager hold an `Arc<TaskSnapshot>`; on a converged fleet it is
/// the same allocation everywhere, and a manager whose container was down
/// still holds an older one. A blob stores each distinct allocation once,
/// in the order it was first offered, and each holder stores an index into
/// this table. "Distinct" means another allocation, not another value:
/// identity is what [`crate::LocalTaskManager::refresh`] skips by, so
/// holders that shared a snapshot before the capture share one after the
/// restore, and the restored platform weighs what the captured one did.
#[derive(Debug, Default)]
pub struct SnapshotTable {
    entries: Vec<Arc<TaskSnapshot>>,
}

impl SnapshotTable {
    /// Add `snapshot` unless that very allocation is in the table already.
    /// The table stays as short as the fleet has snapshot generations in
    /// use (one, plus one per batch of unreachable containers), so the
    /// search is a handful of pointer compares.
    pub fn offer(&mut self, snapshot: &Arc<TaskSnapshot>) {
        if self.index_of(snapshot).is_none() {
            self.entries.push(snapshot.clone());
        }
    }

    fn index_of(&self, snapshot: &Arc<TaskSnapshot>) -> Option<usize> {
        self.entries
            .iter()
            .position(|held| Arc::ptr_eq(held, snapshot))
    }

    /// Number of distinct snapshots offered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was offered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Write the index of `snapshot`, which must have been offered.
    pub(crate) fn put_index(
        &self,
        w: &mut turbine_types::SnapWriter,
        snapshot: &Arc<TaskSnapshot>,
    ) {
        let index = self
            .index_of(snapshot)
            .expect("every holder's snapshot is offered before it is encoded");
        w.u64(index as u64);
    }

    /// Read an index and hand out that entry.
    pub(crate) fn get_indexed(
        &self,
        r: &mut turbine_types::SnapReader<'_>,
        what: &'static str,
    ) -> Result<Arc<TaskSnapshot>, turbine_types::SnapError> {
        let index = r.u64(what)?;
        usize::try_from(index)
            .ok()
            .and_then(|i| self.entries.get(i))
            .cloned()
            .ok_or(turbine_types::SnapError::Value(what))
    }
}

// By hand: entries are shared allocations, written through the `Arc` and
// read back into fresh ones that the holders then share by index.
impl turbine_types::Snap for SnapshotTable {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.u64(self.entries.len() as u64);
        for snapshot in &self.entries {
            w.put(snapshot.as_ref());
        }
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let len = r.len_prefix("SnapshotTable.entries")?;
        let mut entries = Vec::with_capacity(r.prealloc::<Arc<TaskSnapshot>>(len));
        for _ in 0..len {
            entries.push(Arc::new(r.get::<TaskSnapshot>()?));
        }
        Ok(SnapshotTable { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::TaskService;
    use turbine_config::JobConfig;
    use turbine_types::JobId;

    #[test]
    fn build_indexes_every_task_exactly_once() {
        let specs = TaskService::generate_specs(JobId(1), &JobConfig::stateless("t", 8, 64));
        let mut cache = HashMap::new();
        let snap = TaskSnapshot::build(specs, 16, &mut cache);
        assert_eq!(snap.len(), 8);
        let total: usize = (0..16).map(|s| snap.tasks_of_shard(ShardId(s)).len()).sum();
        assert_eq!(total, 8, "shard index partitions the tasks");
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn shard_cache_is_reused_across_rebuilds() {
        let specs = TaskService::generate_specs(JobId(1), &JobConfig::stateless("t", 4, 64));
        let mut cache = HashMap::new();
        let snap1 = TaskSnapshot::build(specs.clone(), 16, &mut cache);
        let snap2 = TaskSnapshot::build(specs, 16, &mut cache);
        for id in snap1.task_ids() {
            let s1 = (0..16)
                .map(ShardId)
                .find(|&s| snap1.tasks_of_shard(s).contains(id))
                .expect("assigned");
            assert!(snap2.tasks_of_shard(s1).contains(id), "stable mapping");
        }
    }

    #[test]
    fn empty_snapshot_is_well_behaved() {
        let mut cache = HashMap::new();
        let snap = TaskSnapshot::build(Vec::new(), 4, &mut cache);
        assert!(snap.is_empty());
        assert!(snap.tasks_of_shard(ShardId(0)).is_empty());
        assert!(snap.spec(TaskId::new(JobId(1), 0)).is_none());
    }
}
