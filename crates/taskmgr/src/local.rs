//! The local Task Manager running inside every Turbine container
//! (paper §IV-A1, §IV-A2).
//!
//! Every manager holds the *full* task snapshot, which is what keeps shard
//! movement and fail-over working while the Task Service is down (§IV-D).
//! In memory that is one `Arc<TaskSnapshot>` the fleet shares, handed out
//! by the Task Service; a manager on an unreachable container keeps the one
//! it had. A platform blob keeps that shape: the distinct snapshots are
//! written once into a [`SnapshotTable`] and each manager encodes the index
//! of the one it holds ([`LocalTaskManager::snap_shared`]), so a blob grows
//! with the hosts' own state, not with hosts × tasks, and managers that
//! shared a snapshot before a capture share one after the restore.

use crate::snapshot::{SnapshotTable, TaskSnapshot};
use crate::spec::TaskSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use turbine_types::{ContainerId, Resources, ShardId, TaskId};

/// A lifecycle action the Task Manager performed during reconciliation.
/// The simulator consumes these to start/stop the modelled processes.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskEvent {
    /// The task was started with this spec.
    Started(Arc<TaskSpec>),
    /// The task was stopped.
    Stopped(TaskId),
    /// The task was restarted because its spec changed (package release,
    /// resource change, argument change).
    Restarted(Arc<TaskSpec>),
}

impl TaskEvent {
    /// The task the event concerns.
    pub fn task(&self) -> TaskId {
        match self {
            TaskEvent::Started(s) | TaskEvent::Restarted(s) => s.id,
            TaskEvent::Stopped(id) => *id,
        }
    }
}

/// The per-container Task Manager. It keeps a handle to the **full** task
/// snapshot (not just its own tasks) so that shard movement and fail-over
/// keep working when the Task Service or the Job Management layer is
/// unavailable — the degraded-mode property of §IV-D.
#[derive(Debug)]
pub struct LocalTaskManager {
    container: ContainerId,
    shard_count: u64,
    owned_shards: BTreeSet<ShardId>,
    /// Tasks currently running in this container, with the shard each
    /// belongs to and the spec it was started with.
    running: BTreeMap<TaskId, (ShardId, Arc<TaskSpec>)>,
    /// Latest full indexed snapshot (shared with every other manager).
    snapshot: Arc<TaskSnapshot>,
}

impl LocalTaskManager {
    /// A Task Manager for `container` in a tier of `shard_count` shards.
    pub fn new(container: ContainerId, shard_count: u64) -> Self {
        assert!(shard_count > 0, "tier must have at least one shard");
        LocalTaskManager {
            container,
            shard_count,
            owned_shards: BTreeSet::new(),
            running: BTreeMap::new(),
            snapshot: Arc::new(TaskSnapshot::default()),
        }
    }

    /// The container this manager runs in.
    pub fn container(&self) -> ContainerId {
        self.container
    }

    /// Shards currently owned.
    pub fn owned_shards(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.owned_shards.iter().copied()
    }

    /// Tasks currently running, with their specs.
    pub fn running_tasks(&self) -> impl Iterator<Item = (&TaskId, &Arc<TaskSpec>)> {
        self.running.iter().map(|(id, (_, spec))| (id, spec))
    }

    /// Number of running tasks.
    pub fn task_count(&self) -> usize {
        self.running.len()
    }

    /// True if any running task belongs to `job` — the check the State
    /// Syncer's stop barrier performs.
    pub fn runs_job(&self, job: turbine_types::JobId) -> bool {
        self.running
            .range(TaskId::new(job, 0)..=TaskId::new(job, u32::MAX))
            .next()
            .is_some()
    }

    /// True if `snapshot` is the very snapshot this manager holds (the
    /// same allocation, not an equal one), in which case
    /// [`LocalTaskManager::refresh`] with it does nothing.
    pub fn holds(&self, snapshot: &Arc<TaskSnapshot>) -> bool {
        Arc::ptr_eq(&self.snapshot, snapshot)
    }

    /// Periodic refresh (production: every 60 s): absorb the latest full
    /// snapshot from the Task Service and reconcile the tasks this
    /// container should run. Returns the lifecycle events performed.
    ///
    /// `add_shard` and `drop_shard` reconcile on the spot, so the manager
    /// is always reconciled against the snapshot it holds and the shards
    /// it owns. Being handed the snapshot it already holds therefore
    /// changes nothing, and is answered without walking anything. A
    /// snapshot is immutable, so identity is a sound test; restored
    /// managers share what the captured ones shared.
    pub fn refresh(&mut self, snapshot: Arc<TaskSnapshot>) -> Vec<TaskEvent> {
        debug_assert_eq!(snapshot.shard_count(), self.shard_count);
        if self.holds(&snapshot) {
            return Vec::new();
        }
        self.snapshot = snapshot;
        self.reconcile()
    }

    /// Reconcile running tasks against the cached snapshot and owned
    /// shards (used by `refresh` and by shard movement). Cost is
    /// proportional to the tasks this container runs, not the tier size.
    fn reconcile(&mut self) -> Vec<TaskEvent> {
        let mut events = Vec::new();
        // Stop tasks we should no longer run (deleted jobs, shrunk
        // parallelism, moved shards).
        let to_stop: Vec<TaskId> = self
            .running
            .iter()
            .filter(|(id, (shard, _))| {
                !self.owned_shards.contains(shard) || self.snapshot.spec(**id).is_none()
            })
            .map(|(&id, _)| id)
            .collect();
        for id in to_stop {
            self.running.remove(&id);
            events.push(TaskEvent::Stopped(id));
        }
        // Start missing tasks of owned shards; restart changed ones.
        for &shard in &self.owned_shards {
            for &id in self.snapshot.tasks_of_shard(shard) {
                let spec = self.snapshot.spec(id).expect("indexed").clone();
                match self.running.get(&id) {
                    None => {
                        self.running.insert(id, (shard, spec.clone()));
                        events.push(TaskEvent::Started(spec));
                    }
                    Some((_, current)) if spec.requires_restart(current) => {
                        self.running.insert(id, (shard, spec.clone()));
                        events.push(TaskEvent::Restarted(spec));
                    }
                    Some(_) => {}
                }
            }
        }
        events
    }

    /// Handle `ADD_SHARD`: take ownership and start the shard's tasks from
    /// the cached snapshot (works even if the Task Service is currently
    /// unavailable — the cached snapshot is the degraded-mode source).
    pub fn add_shard(&mut self, shard: ShardId) -> Vec<TaskEvent> {
        self.owned_shards.insert(shard);
        self.reconcile()
    }

    /// Handle `DROP_SHARD`: stop the shard's tasks and release ownership.
    /// Returns the stop events; the Shard Manager treats their completion
    /// as the `SUCCESS` acknowledgement of the protocol.
    pub fn drop_shard(&mut self, shard: ShardId) -> Vec<TaskEvent> {
        self.owned_shards.remove(&shard);
        self.reconcile()
    }

    /// Restart a crashed task if it is still ours. Returns the restart
    /// event, or `None` if the task is no longer desired.
    pub fn restart_crashed(&mut self, task: TaskId) -> Option<TaskEvent> {
        self.running
            .get(&task)
            .map(|(_, spec)| TaskEvent::Restarted(spec.clone()))
    }

    /// The load-aggregator thread's output: per-owned-shard sums of the
    /// per-task resource usage `task_usage` looks up (reported to the
    /// Shard Manager every ~10 min). Tasks without a usage sample
    /// contribute their reservation, so new tasks are not invisible to
    /// balancing.
    pub fn aggregate_shard_loads(
        &self,
        task_usage: impl Fn(TaskId) -> Option<Resources>,
    ) -> Vec<(ShardId, Resources)> {
        let mut loads: BTreeMap<ShardId, Resources> = self
            .owned_shards
            .iter()
            .map(|&s| (s, Resources::ZERO))
            .collect();
        for (id, (shard, spec)) in &self.running {
            let usage = task_usage(*id).unwrap_or(spec.reserved);
            if let Some(slot) = loads.get_mut(shard) {
                *slot += usage;
            }
        }
        loads.into_iter().collect()
    }
}

// A manager is encoded against the blob's `SnapshotTable`: it writes which
// entry it holds, not the entry.
impl LocalTaskManager {
    /// Add the snapshot this manager holds to `table`.
    pub fn offer_snapshot(&self, table: &mut SnapshotTable) {
        table.offer(&self.snapshot);
    }

    /// Encode, with the held snapshot as its index in `table`.
    pub fn snap_shared(&self, w: &mut turbine_types::SnapWriter, table: &SnapshotTable) {
        w.put(&self.container);
        w.u64(self.shard_count);
        w.put(&self.owned_shards);
        table.put_index(w, &self.snapshot);
        w.u64(self.running.len() as u64);
        for (task, (shard, spec)) in &self.running {
            w.put(task);
            w.put(shard);
            w.put(spec.as_ref());
        }
    }

    /// Decode, taking the held snapshot from `table`. A running task whose
    /// spec equals the one that snapshot has for it shares the snapshot's
    /// `Arc<TaskSpec>`, as it does in a manager that started the task from
    /// that snapshot.
    pub fn unsnap_shared(
        r: &mut turbine_types::SnapReader<'_>,
        table: &SnapshotTable,
    ) -> Result<Self, turbine_types::SnapError> {
        let container = r.get()?;
        let shard_count = r.u64("LocalTaskManager.shard_count")?;
        if shard_count == 0 {
            return Err(turbine_types::SnapError::Value(
                "LocalTaskManager.shard_count zero",
            ));
        }
        let owned_shards = r.get()?;
        let snapshot = table.get_indexed(r, "LocalTaskManager.snapshot index")?;
        let len = r.len_prefix("LocalTaskManager.running")?;
        let mut running = BTreeMap::new();
        for _ in 0..len {
            let task: TaskId = r.get()?;
            let shard: ShardId = r.get()?;
            let spec: TaskSpec = r.get()?;
            let spec = match snapshot.spec(task) {
                Some(shared) if **shared == spec => shared.clone(),
                _ => Arc::new(spec),
            };
            running.insert(task, (shard, spec));
        }
        Ok(LocalTaskManager {
            container,
            shard_count,
            owned_shards,
            running,
            snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::shard_of_task;
    use crate::service::TaskService;
    use std::collections::HashMap;
    use turbine_config::JobConfig;
    use turbine_types::JobId;

    const SHARDS: u64 = 8;

    fn snapshot_for(jobs: &[(u64, u32)]) -> Arc<TaskSnapshot> {
        let mut specs = Vec::new();
        for &(job, tasks) in jobs {
            specs.extend(TaskService::generate_specs(
                JobId(job),
                &JobConfig::stateless("tailer", tasks, 64),
            ));
        }
        let mut cache = HashMap::new();
        Arc::new(TaskSnapshot::build(specs, SHARDS, &mut cache))
    }

    fn all_shards(tm: &mut LocalTaskManager) {
        for s in 0..SHARDS {
            tm.add_shard(ShardId(s));
        }
    }

    #[test]
    fn owning_all_shards_runs_all_tasks() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        let events = tm.refresh(snapshot_for(&[(1, 4)]));
        assert_eq!(tm.task_count(), 4);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, TaskEvent::Started(_)))
                .count(),
            4
        );
    }

    #[test]
    fn only_owned_shards_tasks_run() {
        let snap = snapshot_for(&[(1, 8)]);
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        tm.add_shard(ShardId(0));
        tm.refresh(snap.clone());
        for (id, _) in tm.running_tasks() {
            assert_eq!(shard_of_task(*id, SHARDS), ShardId(0));
        }
        // Two managers with complementary shards run complementary tasks.
        let mut tm2 = LocalTaskManager::new(ContainerId(1), SHARDS);
        for s in 1..SHARDS {
            tm2.add_shard(ShardId(s));
        }
        tm2.refresh(snap);
        assert_eq!(tm.task_count() + tm2.task_count(), 8);
    }

    #[test]
    fn add_shard_starts_tasks_from_cached_snapshot() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        tm.refresh(snapshot_for(&[(1, 8)])); // no shards yet: nothing runs
        assert_eq!(tm.task_count(), 0);
        // Task Service goes down; ADD_SHARD still works from the cache.
        let mut started = 0;
        for s in 0..SHARDS {
            started += tm
                .add_shard(ShardId(s))
                .iter()
                .filter(|e| matches!(e, TaskEvent::Started(_)))
                .count();
        }
        assert_eq!(started, 8);
    }

    #[test]
    fn drop_shard_stops_exactly_its_tasks() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snapshot_for(&[(1, 8)]));
        let victim = ShardId(3);
        let victims: Vec<TaskId> = tm
            .running_tasks()
            .filter(|(id, _)| shard_of_task(**id, SHARDS) == victim)
            .map(|(id, _)| *id)
            .collect();
        let events = tm.drop_shard(victim);
        let stopped: Vec<TaskId> = events
            .iter()
            .filter_map(|e| match e {
                TaskEvent::Stopped(id) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(stopped.len(), victims.len());
        for v in victims {
            assert!(stopped.contains(&v));
            assert!(!tm.running.contains_key(&v));
        }
    }

    #[test]
    fn package_release_restarts_tasks() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snapshot_for(&[(1, 4)]));
        let mut config = JobConfig::stateless("tailer", 4, 64);
        config.package.version = 2;
        let mut cache = HashMap::new();
        let snap = Arc::new(TaskSnapshot::build(
            TaskService::generate_specs(JobId(1), &config),
            SHARDS,
            &mut cache,
        ));
        let events = tm.refresh(snap);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, TaskEvent::Restarted(_)))
                .count(),
            4
        );
        assert_eq!(tm.task_count(), 4);
    }

    #[test]
    fn unchanged_snapshot_is_a_noop() {
        let snap = snapshot_for(&[(1, 4)]);
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snap.clone());
        assert!(tm.holds(&snap));
        let events = tm.refresh(snap);
        assert!(events.is_empty(), "no churn without changes: {events:?}");
        // An equal snapshot in another allocation is not the one held: it
        // is reconciled against, and that finds nothing to do either.
        let equal = snapshot_for(&[(1, 4)]);
        assert!(!tm.holds(&equal));
        assert!(tm.refresh(equal).is_empty());
    }

    /// The identity skip against a twin that always reconciles (it is
    /// handed an equal snapshot in a fresh allocation every time): across
    /// shard moves, repeated refreshes and snapshot changes the two
    /// perform the same events and run the same tasks.
    #[test]
    fn skipping_by_identity_equals_always_reconciling() {
        let shapes: [&[(u64, u32)]; 4] = [
            &[(1, 4), (2, 3)],
            &[(1, 4), (2, 3), (3, 5)],
            &[(1, 2), (3, 5)],
            &[],
        ];
        let running = |tm: &LocalTaskManager| -> Vec<(TaskId, Arc<TaskSpec>)> {
            tm.running_tasks().map(|(id, s)| (*id, s.clone())).collect()
        };
        let mut skip = LocalTaskManager::new(ContainerId(0), SHARDS);
        let mut twin = LocalTaskManager::new(ContainerId(0), SHARDS);
        let mut shape = shapes[0];
        let mut served = snapshot_for(shape);
        let mut skipped = 0;
        // A fixed walk through every kind of step, long enough to meet
        // each snapshot with several shard sets.
        for step in 0..240u64 {
            let shard = ShardId(step * 7 % SHARDS);
            let (a, b) = match step % 6 {
                0 | 1 => (skip.add_shard(shard), twin.add_shard(shard)),
                2 => (skip.drop_shard(shard), twin.drop_shard(shard)),
                _ => {
                    if step % 6 == 3 && step % 4 == 1 {
                        shape = shapes[(step / 12 % 4) as usize];
                        served = snapshot_for(shape);
                    }
                    skipped += skip.holds(&served) as u32;
                    (
                        skip.refresh(served.clone()),
                        twin.refresh(snapshot_for(shape)),
                    )
                }
            };
            assert_eq!(a, b, "events diverged at step {step}");
            assert_eq!(running(&skip), running(&twin), "tasks at step {step}");
        }
        assert!(skipped > 60, "the walk takes the skip ({skipped} times)");
    }

    #[test]
    fn deleted_job_tasks_stop_on_refresh() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snapshot_for(&[(1, 4)]));
        let events = tm.refresh(snapshot_for(&[]));
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| matches!(e, TaskEvent::Stopped(_))));
        assert_eq!(tm.task_count(), 0);
    }

    #[test]
    fn parallelism_change_rewrites_task_set() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snapshot_for(&[(1, 8)]));
        assert_eq!(tm.task_count(), 8);
        let events = tm.refresh(snapshot_for(&[(1, 2)]));
        // Tasks 2..8 stop; tasks 0..2 restart (their partition slices and
        // args changed with the new count).
        let stopped = events
            .iter()
            .filter(|e| matches!(e, TaskEvent::Stopped(_)))
            .count();
        let restarted = events
            .iter()
            .filter(|e| matches!(e, TaskEvent::Restarted(_)))
            .count();
        assert_eq!(stopped, 6);
        assert_eq!(restarted, 2);
        assert_eq!(tm.task_count(), 2);
    }

    #[test]
    fn restart_crashed_returns_current_spec() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snapshot_for(&[(1, 2)]));
        let task = *tm.running_tasks().next().expect("task").0;
        match tm.restart_crashed(task) {
            Some(TaskEvent::Restarted(spec)) => assert_eq!(spec.id, task),
            other => panic!("expected restart, got {other:?}"),
        }
        assert!(tm.restart_crashed(TaskId::new(JobId(99), 0)).is_none());
    }

    #[test]
    fn runs_job_scans_only_that_jobs_range() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snapshot_for(&[(1, 2), (7, 2)]));
        assert!(tm.runs_job(JobId(1)));
        assert!(tm.runs_job(JobId(7)));
        assert!(!tm.runs_job(JobId(3)));
    }

    #[test]
    fn load_aggregation_sums_per_shard_and_falls_back_to_reservation() {
        let snap = snapshot_for(&[(1, 8)]);
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snap);
        let mut usage = HashMap::new();
        let sampled_task = *tm.running_tasks().next().expect("task").0;
        usage.insert(sampled_task, Resources::cpu_mem(2.0, 100.0));
        let loads = tm.aggregate_shard_loads(|id| usage.get(&id).copied());
        assert_eq!(loads.len(), SHARDS as usize);
        let total_cpu: f64 = loads.iter().map(|(_, r)| r.cpu).sum();
        // 7 tasks fall back to their 1.0-cpu reservation + 1 sampled at 2.0.
        assert!((total_cpu - 9.0).abs() < 1e-9, "total {total_cpu}");
    }

    fn encoded(tm: &LocalTaskManager, table: &SnapshotTable) -> Vec<u8> {
        let mut w = turbine_types::SnapWriter::new();
        tm.snap_shared(&mut w, table);
        w.into_bytes()
    }

    /// Through bytes and back: the table first, as a blob has it.
    fn decoded_table(table: &SnapshotTable) -> SnapshotTable {
        let mut w = turbine_types::SnapWriter::new();
        w.put(table);
        turbine_types::SnapReader::new(&w.into_bytes())
            .get()
            .expect("table decodes")
    }

    #[test]
    fn managers_that_shared_a_snapshot_share_it_again_after_decode() {
        let (current, older) = (snapshot_for(&[(1, 4), (2, 2)]), snapshot_for(&[(1, 4)]));
        let mut managers = Vec::new();
        for (c, snapshot) in [(0, &current), (1, &current), (2, &older)] {
            let mut tm = LocalTaskManager::new(ContainerId(c), SHARDS);
            all_shards(&mut tm);
            tm.refresh(snapshot.clone());
            managers.push(tm);
        }
        let mut table = SnapshotTable::default();
        for tm in &managers {
            tm.offer_snapshot(&mut table);
        }
        assert_eq!(table.len(), 2, "three holders, two allocations");
        // An equal snapshot elsewhere in memory is another entry.
        let mut with_twin = SnapshotTable::default();
        with_twin.offer(&current);
        with_twin.offer(&snapshot_for(&[(1, 4), (2, 2)]));
        assert_eq!(with_twin.len(), 2);

        let restored_table = decoded_table(&table);
        let restored: Vec<LocalTaskManager> = managers
            .iter()
            .map(|tm| {
                let bytes = encoded(tm, &table);
                let mut r = turbine_types::SnapReader::new(&bytes);
                let back =
                    LocalTaskManager::unsnap_shared(&mut r, &restored_table).expect("decodes");
                r.expect_end().expect("fully consumed");
                assert_eq!(
                    encoded(&back, &restored_table),
                    bytes,
                    "re-encodes to the same bytes"
                );
                back
            })
            .collect();
        assert!(Arc::ptr_eq(&restored[0].snapshot, &restored[1].snapshot));
        assert!(!Arc::ptr_eq(&restored[0].snapshot, &restored[2].snapshot));
        assert_eq!(restored[2].snapshot.len(), 4);
        // Running tasks share their spec with the snapshot they came from.
        for tm in &restored {
            for (id, spec) in tm.running_tasks() {
                assert!(Arc::ptr_eq(spec, tm.snapshot.spec(*id).expect("held")));
            }
        }
    }

    #[test]
    fn a_spec_the_snapshot_has_moved_past_stays_private_after_decode() {
        let mut tm = LocalTaskManager::new(ContainerId(0), SHARDS);
        all_shards(&mut tm);
        tm.refresh(snapshot_for(&[(1, 2), (2, 1)]));
        // The container is unreachable: its shards are gone, the tasks it
        // was last told about are not, and the snapshot it holds is old.
        let mut table = SnapshotTable::default();
        tm.offer_snapshot(&mut table);
        let mut bytes = encoded(&tm, &table);
        // Decoded against a table whose snapshot renders job 1 anew and
        // has dropped job 2: nothing to share, nothing lost.
        let mut other = SnapshotTable::default();
        let mut released = JobConfig::stateless("tailer", 2, 64);
        released.package.version = 9;
        let mut cache = HashMap::new();
        other.offer(&Arc::new(TaskSnapshot::build(
            TaskService::generate_specs(JobId(1), &released),
            SHARDS,
            &mut cache,
        )));
        let back =
            LocalTaskManager::unsnap_shared(&mut turbine_types::SnapReader::new(&bytes), &other)
                .expect("decodes");
        assert_eq!(back.task_count(), 3);
        for (id, spec) in back.running_tasks() {
            assert_eq!(
                spec.package_version, 1,
                "{id} runs what it was started with"
            );
        }

        // An index past the table is refused, whatever it is.
        let index_at = 8 + 8 + 8 + SHARDS as usize * 8;
        assert_eq!(bytes[index_at..index_at + 8], 0u64.to_le_bytes());
        for index in [1u64, 2, u64::MAX] {
            bytes[index_at..index_at + 8].copy_from_slice(&index.to_le_bytes());
            let outcome = LocalTaskManager::unsnap_shared(
                &mut turbine_types::SnapReader::new(&bytes),
                &table,
            );
            assert!(
                matches!(outcome, Err(turbine_types::SnapError::Value(_))),
                "index {index}"
            );
        }
    }
}
