//! The data-plane model: what the stream-processing *engine* does, as seen
//! by the management plane.
//!
//! Turbine manages engines, it does not implement one — but reproducing the
//! paper's evaluation requires tasks that consume partitioned input at a
//! bounded per-thread rate, fall behind when under-provisioned, contend for
//! CPU on overloaded containers, hold memory proportional to their traffic,
//! and OOM when they outgrow their reservation. This module models exactly
//! that, deterministically, against the workload models of
//! [`turbine_workloads`].
//!
//! Storage is arena-backed: task bodies live in stable slots addressed by
//! u32 indices, with an ordered id → slot index on the side. Iteration
//! order (and therefore every floating-point reduction order in the tick)
//! is identical to the previous `BTreeMap<TaskId, ActiveTask>` layout.
//! The engine also keeps sparse-space bookkeeping — a change feed with one
//! reader per consumer ([`EngineFeed`]), a fleet-wide down-task counter,
//! per-job undrained-partition counters, and per-job durability epochs — so
//! quiescence checks, durability syncs, load reports and invariant checks
//! cost O(jobs touched) instead of O(fleet). Every mutation marks a job for
//! both readers. The tick marks the *load-report* reader alone, and only
//! where it rewrote a task's `cpu_usage` or `memory_usage_mb`: load reports
//! read nothing else of a job. The *checker* reader (task set, placement or
//! partition slices moved) is marked by mutations only, since the invariant
//! checker reads nothing a tick writes. Arrivals and consumption mark
//! neither: they move backlog, which neither consumer reads. The feed is
//! stored in a snapshot like the rest of the engine, so a restored engine
//! owes each consumer what the uninterrupted one does.
//!
//! Idle time is skipped at two granularities. Per job, [`Engine::tick`]
//! walks only the tasks of *active* jobs: a job whose walk changed nothing
//! settles and is left out until a mutation or its own inputs can change it
//! again, so a tick costs O(jobs + tasks of busy jobs). Fleet-wide, the
//! drive loop may jump the clock over a whole window when
//! [`Engine::is_quiescent_through`] holds for every job at once.
//!
//! A busy job cannot be skipped, so what it pays per tick is kept to a few
//! memory reads. The tick never looks a job or a task up: runtimes, active
//! set, task index and collected work all ascend by id and are walked in
//! step (see [`Engine::tick`]). What repeats is remembered beside the
//! runtime as derived state that no snapshot holds and any restore may
//! forget: a hint that the job is already marked for load reports, and the
//! current minute's noise factor of its traffic model.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault};
use turbine_config::MemoryEnforcement;
use turbine_scribe::{CheckpointStore, Scribe};
use turbine_taskmgr::TaskSpec;
use turbine_types::{ContainerId, Duration, JobId, PartitionId, Resources, SimTime, TaskId};
use turbine_workloads::{fleet::task_usage, NoiseMemo, TrafficModel};

/// Per-partition byte accounting (kept compact: the hot loop touches every
/// partition of every job each tick).
#[derive(Debug, Clone, Copy, Default)]
struct PartitionState {
    /// Total bytes ever arrived.
    appended: f64,
    /// Total bytes ever consumed (the checkpoint offset).
    consumed: f64,
    /// Bytes already mirrored into the Scribe substrate.
    scribe_synced: f64,
}

/// Runtime state of one job's data plane.
#[derive(Debug)]
pub struct JobRuntime {
    /// Input arrival model.
    pub traffic: TrafficModel,
    /// The *actual* maximum per-thread processing rate (bytes/sec) — the
    /// ground truth the scaler's `P` estimate chases.
    pub true_per_thread_rate: f64,
    /// Average message size, bytes (drives the memory model).
    pub avg_message_bytes: f64,
    /// Whether the job keeps state (extra memory per key).
    pub stateful: bool,
    /// State key cardinality (stateful jobs).
    pub key_cardinality: f64,
    /// Arrival weight per partition (normalized); skewing this simulates
    /// imbalanced input, and the scaler's `RebalanceInput` resets it.
    pub partition_weights: Vec<f64>,
    partitions: Vec<PartitionState>,
    /// Partitions with `appended != consumed` (maintained exactly at every
    /// mutation via before/after equality — never inferred from deltas,
    /// since `x + tiny == x` is possible in f64).
    undrained: usize,
    /// Bumped whenever `appended` or `consumed` may have changed; the
    /// durability sync skips jobs whose epoch it has already flushed.
    durable_epoch: u64,
    /// The epoch [`Engine::sync_durable`] last flushed (`u64::MAX` =
    /// never synced, which forces the first pass so checkpoint entries
    /// are created even for quiescent jobs).
    last_durable_epoch: u64,
    /// The job's category `total_appended` observed at the end of the last
    /// sync (`None` = category was absent). A mismatch forces a full sync:
    /// the durable tail moved underneath us.
    last_category_appended: Option<u64>,
    // Scaler-window accumulators.
    window_arrived: f64,
    window_processed: f64,
    window_per_task: BTreeMap<TaskId, f64>,
    window_ooms: u32,
    /// Hint that saves [`Engine::tick`] a set insert: above the engine's
    /// count of load-report drains exactly when the tick has marked this
    /// job for load reports since the last drain. Below it the job may or
    /// may not be marked (mutation APIs mark without the hint, and a
    /// restored runtime starts unmarked), which only costs the insert.
    /// Derived — not part of the snapshot.
    dirty_mark: u64,
    /// This minute's noise factor of `traffic`, which the tick evaluates
    /// six times a minute. Keyed on the model's noise parameters, so an
    /// edit through [`Engine::job_mut`] cannot read a stale factor.
    /// Derived — not part of the snapshot.
    noise: NoiseMemo,
}

impl JobRuntime {
    /// Total unconsumed bytes (`total_bytes_lagged`).
    pub fn backlog(&self) -> f64 {
        self.partitions
            .iter()
            .map(|p| p.appended - p.consumed)
            .sum()
    }

    /// Total bytes ever arrived.
    pub fn total_arrived(&self) -> f64 {
        self.partitions.iter().map(|p| p.appended).sum()
    }

    /// The arrival rate of the job's input at `now`, bytes/sec:
    /// `traffic.arrival_rate(now)`, without a fresh noise draw when the
    /// tick has already made this minute's.
    pub fn arrival_rate(&self, now: SimTime) -> f64 {
        let mut noise = self.noise;
        self.traffic.arrival_rate_memo(now, &mut noise)
    }

    /// Number of input partitions the job reads.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Unconsumed bytes across a task's partition slice, summed in slice
    /// order.
    fn slice_backlog(&self, slice: &[PartitionId]) -> f64 {
        slice
            .iter()
            .map(|p| {
                let ps = &self.partitions[p.raw() as usize];
                ps.appended - ps.consumed
            })
            .sum()
    }
}

/// One running task as the engine sees it.
#[derive(Debug, Clone)]
pub struct ActiveTask {
    /// Where the task runs.
    pub container: ContainerId,
    /// Worker threads.
    pub threads: u32,
    /// Reserved resources (OOM ceiling under cgroup enforcement).
    pub reserved: Resources,
    /// Partition slice owned.
    pub partitions: Vec<PartitionId>,
    /// Memory enforcement mode.
    pub enforcement: MemoryEnforcement,
    /// When the task was (re)started on this container.
    pub started_at: SimTime,
    /// Task is restarting until this instant (no processing).
    pub down_until: Option<SimTime>,
    /// Throughput multiplier for host-level degradation injection (1.0 =
    /// healthy). Cleared when the task is (re)started elsewhere.
    pub degradation: f64,
    /// Memory usage at the last tick, MB.
    pub memory_usage_mb: f64,
    /// CPU used at the last tick, cores.
    pub cpu_usage: f64,
}

impl ActiveTask {
    /// Memory model: the footprint follows the processed rate (read back
    /// from `cpu_usage`), plus state for stateful jobs.
    fn footprint_mb(&self, rt: &JobRuntime) -> f64 {
        let rate = self.cpu_usage * rt.true_per_thread_rate;
        let mut usage = task_usage(rate, rt.avg_message_bytes, rt.true_per_thread_rate).memory_mb;
        if rt.stateful {
            let tasks_of_job =
                self.partitions.len().max(1) as f64 / rt.partitions.len().max(1) as f64;
            usage += rt.key_cardinality * tasks_of_job * 1.0e-3;
        }
        usage
    }

    /// Head of a task's walk in [`Engine::tick`]: read the restart marker,
    /// clearing it once it has expired.
    fn restart(&mut self, now: SimTime) -> Restart {
        if self.down_until.is_some_and(|until| now < until) {
            let zeroed = self.cpu_usage != 0.0;
            if zeroed {
                self.cpu_usage = 0.0;
            }
            return Restart::Down { zeroed };
        }
        Restart::Up {
            cleared: self.down_until.take().is_some(),
        }
    }

    /// Would a footprint of `usage_mb` get the task OOM-killed?
    fn over_limit(&self, usage_mb: f64) -> bool {
        matches!(
            self.enforcement,
            MemoryEnforcement::Cgroup | MemoryEnforcement::Jvm
        ) && usage_mb > self.reserved.memory_mb
    }
}

/// What a task's restart marker says at the head of its walk.
enum Restart {
    /// Still inside the restart delay: the task does nothing this tick.
    /// `zeroed`: it held a CPU reading, now cleared.
    Down { zeroed: bool },
    /// Running. `cleared`: the marker expired on this very walk.
    Up { cleared: bool },
}

/// Arena storage for active tasks: bodies live in stable u32-addressed
/// slots, the ordered `index` maps ids to slots (so iteration order — and
/// every floating-point reduction order derived from it — matches the
/// former `BTreeMap<TaskId, ActiveTask>` exactly), and freed slots are
/// recycled through the free list.
#[derive(Debug, Default)]
struct TaskArena {
    slots: Vec<Option<ActiveTask>>,
    index: BTreeMap<TaskId, u32>,
    free: Vec<u32>,
}

/// Every possible task id of `job`: its range in the ordered index.
fn job_range(job: JobId) -> std::ops::RangeInclusive<TaskId> {
    TaskId::new(job, 0)..=TaskId::new(job, u32::MAX)
}

impl TaskArena {
    fn insert(&mut self, id: TaskId, task: ActiveTask) -> Option<ActiveTask> {
        if let Some(&slot) = self.index.get(&id) {
            return self.slots[slot as usize].replace(task);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(task);
                s
            }
            None => {
                self.slots.push(Some(task));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id, slot);
        None
    }

    fn remove(&mut self, id: TaskId) -> Option<ActiveTask> {
        let slot = self.index.remove(&id)?;
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    fn get(&self, id: TaskId) -> Option<&ActiveTask> {
        let &slot = self.index.get(&id)?;
        self.slots[slot as usize].as_ref()
    }

    fn get_mut(&mut self, id: TaskId) -> Option<&mut ActiveTask> {
        let &slot = self.index.get(&id)?;
        self.slots[slot as usize].as_mut()
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn iter(&self) -> impl Iterator<Item = (&TaskId, &ActiveTask)> {
        self.index.iter().map(|(id, &slot)| {
            (
                id,
                self.slots[slot as usize].as_ref().expect("indexed slot"),
            )
        })
    }

    fn range_of_job(&self, job: JobId) -> impl Iterator<Item = (&TaskId, &ActiveTask)> {
        self.index.range(job_range(job)).map(|(id, &slot)| {
            (
                id,
                self.slots[slot as usize].as_ref().expect("indexed slot"),
            )
        })
    }
}

/// The tick's walk of a job that has tasks but no runtime (started before
/// `add_job`, or left behind by a racing delete): nothing is processed, but
/// restart markers still expire. Returns whether the walk changed nothing.
/// Only a zeroed `cpu_usage` marks the job for load reports: an expiring
/// marker moves no usage.
fn walk_orphan(
    index: &BTreeMap<TaskId, u32>,
    slots: &mut [Option<ActiveTask>],
    job: JobId,
    now: SimTime,
    down_count: &mut usize,
    feed: &mut EngineFeed,
) -> bool {
    let mut quiet = true;
    for &slot in index.range(job_range(job)).map(|(_, slot)| slot) {
        let task = slots[slot as usize].as_mut().expect("indexed slot");
        match task.restart(now) {
            Restart::Down { zeroed } => {
                if zeroed {
                    feed.mark_for(EngineReader::LoadReport, job);
                }
                quiet = false;
            }
            Restart::Up { cleared: true } => {
                *down_count -= 1;
                quiet = false;
            }
            Restart::Up { cleared: false } => {}
        }
    }
    quiet
}

/// Stats drained by the scaler each round.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Bytes arrived during the window.
    pub arrived: f64,
    /// Bytes processed during the window.
    pub processed: f64,
    /// Bytes processed per task.
    pub per_task: Vec<(TaskId, f64)>,
    /// OOM kills during the window.
    pub ooms: u32,
}

/// Result of one engine tick.
#[derive(Debug, Default)]
pub struct TickOutcome {
    /// Tasks OOM-killed this tick (they restart after the configured
    /// delay).
    pub oom_kills: Vec<TaskId>,
}

turbine_types::change_feed! {
    /// The jobs whose engine state a consumer reads changed since that
    /// consumer's last [`Engine::drain_changes`].
    pub struct EngineFeed<JobId> for EngineReader {
        /// Load reports: the job's task set or a task's `cpu_usage` or
        /// `memory_usage_mb` moved (not its backlog).
        LoadReport => load_report,
        /// The invariant checker: the job's task set, task containers or
        /// partition slices moved, which only mutation APIs do.
        Checker => checker,
    }
}

/// The load-report reader as [`Engine::tick`] marks it: through each
/// runtime's `dirty_mark`, so a job that changes every tick is inserted
/// once per drain, not twice per tick.
struct DirtyJobs<'a> {
    feed: &'a mut EngineFeed,
    /// `Engine::dirty_drains` for the length of the tick.
    drains: u64,
}

impl DirtyJobs<'_> {
    /// `job` changed; `mark` is its runtime's hint.
    fn mark(&mut self, job: JobId, mark: &mut u64) {
        if *mark <= self.drains {
            self.feed.mark_for(EngineReader::LoadReport, job);
            *mark = self.drains + 1;
        }
    }
}

/// Hasher for container-keyed tables. Container ids are dense integers the
/// platform itself hands out, never outside input, so a multiplicative
/// hash is safe and a SipHash round on every probe is not worth paying.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

/// A container-keyed table hashed with [`IdHasher`].
pub(crate) type ContainerMap<V> = HashMap<ContainerId, V, BuildHasherDefault<IdHasher>>;

/// An empty [`ContainerMap`] with room for `containers` entries.
pub(crate) fn container_map<V>(containers: usize) -> ContainerMap<V> {
    HashMap::with_capacity_and_hasher(containers, BuildHasherDefault::default())
}

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-container state of one tick: capacity, and the CPU demand of the
/// tasks walked, which becomes the contention factor between the passes.
/// A container gets a dense index the first time a task on it is walked
/// (the only probe of the caller's map for it), and tasks carry that index
/// into the second pass. Nothing reads the table in iteration order. The
/// index starts with room for every healthy container, so a tick does not
/// grow it probe by probe.
struct ContainerLoads<'a> {
    /// The caller's capacity map, `None` for a container not in it.
    container_cpu: &'a dyn Fn(ContainerId) -> Option<f64>,
    /// `None`: seen, and not a healthy container.
    index: ContainerMap<Option<u32>>,
    /// `(capacity, demand or factor)` per healthy container seen.
    loads: Vec<(f64, f64)>,
}

impl<'a> ContainerLoads<'a> {
    fn new(container_cpu: &'a dyn Fn(ContainerId) -> Option<f64>, healthy: usize) -> Self {
        ContainerLoads {
            container_cpu,
            index: container_map(healthy),
            loads: Vec::new(),
        }
    }

    /// The container's index, if it is healthy.
    fn index_of(&mut self, container: ContainerId) -> Option<u32> {
        *self.index.entry(container).or_insert_with(|| {
            let capacity = (self.container_cpu)(container)?;
            self.loads.push((capacity, 0.0));
            Some((self.loads.len() - 1) as u32)
        })
    }

    /// Add a task's demand, in cores, to its container's sum.
    fn demand(&mut self, load: u32, cores: f64) {
        self.loads[load as usize].1 += cores;
    }

    /// Replace each container's demand by its contention factor.
    fn demand_to_factor(&mut self) {
        for (capacity, load) in &mut self.loads {
            let demand = *load;
            *load = if demand > *capacity && demand > 0.0 {
                *capacity / demand
            } else {
                1.0
            };
        }
    }

    fn factor(&self, load: u32) -> f64 {
        self.loads[load as usize].1
    }
}

/// The data-plane engine.
#[derive(Debug, Default)]
pub struct Engine {
    jobs: BTreeMap<JobId, JobRuntime>,
    tasks: TaskArena,
    /// Tasks currently holding a `down_until` marker (exact counter).
    down_count: usize,
    /// What changed, per consumer: load reports and the invariant checker.
    changes: EngineFeed,
    /// How many times [`Engine::drain_changes`] has drained the load-report
    /// reader: what the runtimes' `dirty_mark` hints are compared with, so
    /// one increment clears them all. Derived — not part of the snapshot.
    dirty_drains: u64,
    /// Jobs (keyed on the task's job id, so tasks without a `JobRuntime`
    /// count too) whose tasks [`Engine::tick`] still walks. Every other
    /// job is *settled*: a tick found it with no arrivals, no backlog, no
    /// restart in flight, not halted, and every task already holding
    /// exactly what the tick computes for it — and nothing has touched it
    /// since. A derived cache — not part of the snapshot; a restored
    /// engine starts with every job active and re-settles on its first
    /// tick.
    active: BTreeSet<JobId>,
}

impl Engine {
    /// An engine with no jobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// A mutation touched `job`: its observable state changed, and its
    /// next tick may no longer be a no-op, so it is walked again.
    fn touch(&mut self, job: JobId) {
        self.changes.mark(job);
        self.active.insert(job);
    }

    /// Register a job's data plane.
    #[allow(clippy::too_many_arguments)] // one call site, each arg distinct
    pub fn add_job(
        &mut self,
        job: JobId,
        traffic: TrafficModel,
        true_per_thread_rate: f64,
        avg_message_bytes: f64,
        partitions: u32,
        stateful: bool,
        key_cardinality: f64,
    ) {
        assert!(partitions > 0);
        assert!(true_per_thread_rate > 0.0);
        self.jobs.insert(
            job,
            JobRuntime {
                traffic,
                true_per_thread_rate,
                avg_message_bytes,
                stateful,
                key_cardinality,
                partition_weights: vec![1.0 / partitions as f64; partitions as usize],
                partitions: vec![PartitionState::default(); partitions as usize],
                undrained: 0,
                durable_epoch: 0,
                last_durable_epoch: u64::MAX,
                last_category_appended: None,
                window_arrived: 0.0,
                window_processed: 0.0,
                window_per_task: BTreeMap::new(),
                window_ooms: 0,
                dirty_mark: 0,
                noise: NoiseMemo::default(),
            },
        );
        self.touch(job);
    }

    /// Remove a job's data plane entirely.
    pub fn remove_job(&mut self, job: JobId) {
        self.jobs.remove(&job);
        let ids: Vec<TaskId> = self
            .tasks
            .index
            .range(job_range(job))
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            if let Some(task) = self.tasks.remove(id) {
                if task.down_until.is_some() {
                    self.down_count -= 1;
                }
            }
        }
        self.touch(job);
    }

    /// Access a job's runtime (e.g. to mutate its traffic model or skew
    /// its partition weights mid-experiment).
    pub fn job_mut(&mut self, job: JobId) -> Option<&mut JobRuntime> {
        self.touch(job);
        self.jobs.get_mut(&job)
    }

    /// Read access to a job's runtime.
    pub fn job(&self, job: JobId) -> Option<&JobRuntime> {
        self.jobs.get(&job)
    }

    /// All jobs registered.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.keys().copied().collect()
    }

    /// Every registered job with its runtime, ascending by id.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, &JobRuntime)> {
        self.jobs.iter().map(|(&job, rt)| (job, rt))
    }

    /// A task started (or restarted) on a container.
    pub fn task_started(
        &mut self,
        spec: &TaskSpec,
        container: ContainerId,
        now: SimTime,
        restart_delay: Duration,
    ) {
        let replaced = self.tasks.insert(
            spec.id,
            ActiveTask {
                container,
                threads: spec.threads,
                reserved: spec.reserved,
                partitions: spec.partitions.clone(),
                enforcement: spec.memory_enforcement,
                started_at: now,
                down_until: Some(now + restart_delay),
                degradation: 1.0,
                memory_usage_mb: 0.0,
                cpu_usage: 0.0,
            },
        );
        if replaced.is_none_or(|t| t.down_until.is_none()) {
            self.down_count += 1;
        }
        self.touch(spec.id.job);
    }

    /// Degrade (or restore) one task's throughput — models a sick host
    /// slowing a single task (§V-D's hardware-issue class). The factor is
    /// cleared when the task restarts on a(nother) container.
    pub fn degrade_task(&mut self, task: TaskId, factor: f64) {
        assert!(factor > 0.0);
        if let Some(t) = self.tasks.get_mut(task) {
            t.degradation = factor;
            self.touch(task.job);
        }
    }

    /// A task stopped on `container`. The container must match the entry:
    /// a stale stop acknowledgement from a previous owner (e.g. a
    /// recovering container whose shards were already failed over) must
    /// not remove the task now running elsewhere.
    pub fn task_stopped(&mut self, task: TaskId, container: ContainerId) {
        if self
            .tasks
            .get(task)
            .is_some_and(|t| t.container == container)
        {
            if let Some(removed) = self.tasks.remove(task) {
                if removed.down_until.is_some() {
                    self.down_count -= 1;
                }
            }
            self.touch(task.job);
        }
    }

    /// Number of active tasks of a job.
    pub fn running_tasks_of(&self, job: JobId) -> usize {
        self.tasks_of_job(job).count()
    }

    /// Total active tasks.
    pub fn total_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Iterate active tasks.
    pub fn tasks(&self) -> impl Iterator<Item = (&TaskId, &ActiveTask)> {
        self.tasks.iter()
    }

    /// Iterate the active tasks of one job (range query on the ordered
    /// task index — O(log n + tasks of the job)).
    pub fn tasks_of_job(&self, job: JobId) -> impl Iterator<Item = (&TaskId, &ActiveTask)> {
        self.tasks.range_of_job(job)
    }

    /// Direct lookup of one active task by id.
    pub fn task(&self, id: TaskId) -> Option<&ActiveTask> {
        self.tasks.get(id)
    }

    /// The `k`-th active task in deterministic (ordered-index) iteration
    /// order, with its container — a single lookup for uniform victim
    /// selection during crash injection.
    pub fn nth_task(&self, k: usize) -> Option<(TaskId, ContainerId)> {
        self.tasks.iter().nth(k).map(|(&id, t)| (id, t.container))
    }

    /// True when the data plane would be a no-op at every instant in
    /// `(after, through]` for *every* job: no task is mid-restart, every
    /// partition is fully drained (a full drain takes the exact `share ==
    /// 1.0` path in [`Engine::tick`], so a drained partition has `appended
    /// == consumed` bit-for-bit), and no job's traffic model delivers
    /// arrivals anywhere in the window. The event-driven scheduler uses
    /// this fleet-wide signal to jump the clock to the next due control
    /// event instead of dense-ticking through idle time. It is the coarser
    /// of the two skips: one busy job defeats it, and then the ticks that
    /// do execute still skip every settled job (see [`Engine::tick`]).
    ///
    /// Restart markers and drained partitions are answered from exact
    /// counters (`down_count`, per-job `undrained`) maintained at every
    /// mutation, so the check is O(jobs) — the per-task and per-partition
    /// scans of the dense layout are gone.
    pub fn is_quiescent_through(&self, after: SimTime, through: SimTime) -> bool {
        self.down_count == 0
            && self
                .jobs
                .values()
                .all(|rt| rt.undrained == 0 && rt.traffic.idle_through(after, through))
    }

    /// Force a task into restart (crash injection, container reboot).
    pub fn knock_down_task(&mut self, task: TaskId, until: SimTime) {
        if let Some(t) = self.tasks.get_mut(task) {
            if t.down_until.is_none() {
                self.down_count += 1;
            }
            t.down_until = Some(until);
            self.touch(task.job);
        }
    }

    /// Number of jobs [`Engine::tick`] currently walks (the rest are
    /// settled). Meaningful after a tick: mutations and a restore only
    /// ever add to it, and the next tick settles whatever it can.
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Every job id the engine knows: registered runtimes plus the jobs of
    /// tasks that have none.
    fn all_job_ids(&self) -> BTreeSet<JobId> {
        let mut ids: BTreeSet<JobId> = self.jobs.keys().copied().collect();
        ids.extend(self.tasks.index.keys().map(|id| id.job));
        ids
    }

    /// Forget everything derived — settlements, dirty hints, noise memos —
    /// forcing the next tick to walk the whole fleet, insert every job it
    /// dirties and draw every noise factor: the oracle the short cuts are
    /// tested against.
    #[cfg(test)]
    fn forget_derived(&mut self) {
        self.active = self.all_job_ids();
        for rt in self.jobs.values_mut() {
            rt.dirty_mark = 0;
            rt.noise = NoiseMemo::default();
        }
    }

    /// Take the jobs marked for `reader` since its last drain; see
    /// [`EngineReader`] for what each reader's marks cover.
    pub fn drain_changes(&mut self, reader: EngineReader) -> BTreeSet<JobId> {
        if reader == EngineReader::LoadReport {
            self.dirty_drains += 1;
        }
        self.changes.drain(reader)
    }

    /// Advance the data plane by `dt` (positive). `container_cpu` supplies
    /// the CPU capacity of each healthy container (tasks on missing
    /// containers do not run); `paused` jobs receive arrivals but process
    /// nothing.
    ///
    /// Only the tasks of active jobs are walked. Skipping a settled job is
    /// exact: it has no arrivals, no backlog, and no task mid-restart, so
    /// each of its tasks would add `+ 0.0` to its container's demand (the
    /// sum's bits do not move) and recompute the `cpu_usage` and
    /// `memory_usage_mb` it already holds — both are functions of task and
    /// job fields only a mutation API can change, and those re-activate the
    /// job. A dead container cannot disturb it either: that path only
    /// zeroes a `cpu_usage` that is already zero.
    ///
    /// Two ordered passes, no per-job look-up. The first walks the
    /// runtimes in step with the active set, both ascending by `JobId`: a
    /// job takes its arrivals and, if it is active or its own inputs hold
    /// it (traffic arriving, or processing halted), has its tasks walked by
    /// index range, i.e. in `TaskId` order. An active id with no runtime
    /// (orphan tasks) is walked where the runtimes step over it, so it
    /// keeps its place in that order. One job's
    /// arrivals touch nothing another job's walk reads, so doing them job
    /// by job instead of fleet-wide first changes no value. The second pass
    /// takes the collected work, still ascending by job, against a second
    /// cursor over the runtimes. Every f64 reduction (per-container demand,
    /// per-task backlog) therefore sees its terms in the order of a full
    /// `TaskId`-ordered walk.
    ///
    /// A job is marked for load reports only where the tick rewrites a
    /// task's `cpu_usage` or `memory_usage_mb` with a different value (the
    /// processing, halted, restart and dead-container paths alike). Its
    /// arrivals and consumption move backlog alone and mark nothing.
    pub fn tick<S: BuildHasher>(
        &mut self,
        now: SimTime,
        dt: Duration,
        container_cpu: &HashMap<ContainerId, f64, S>,
        paused: &dyn Fn(JobId) -> bool,
    ) -> TickOutcome {
        let capacity = |container| container_cpu.get(&container).copied();
        self.tick_with(now, dt, &capacity, container_cpu.len(), paused)
    }

    /// [`Engine::tick`] against a capacity lookup over `healthy`
    /// containers. Not generic, so it is compiled once, beside the helpers
    /// its per-task loops inline, whatever map type the caller holds.
    fn tick_with(
        &mut self,
        now: SimTime,
        dt: Duration,
        container_cpu: &dyn Fn(ContainerId) -> Option<f64>,
        healthy: usize,
        paused: &dyn Fn(JobId) -> bool,
    ) -> TickOutcome {
        let dt_secs = dt.as_secs_f64();
        let Engine {
            jobs,
            tasks,
            down_count,
            changes,
            dirty_drains,
            active,
        } = self;
        let mut dirty = DirtyJobs {
            feed: changes,
            drains: *dirty_drains,
        };

        // Pass 1: arrivals, then per-task desired work and per-container
        // CPU demand.
        struct Work {
            id: TaskId,
            slot: u32,
            /// Index of the task's job in `walked`.
            walk: u32,
            /// Index of the task's container in `loads`.
            load: u32,
            desired: f64, // bytes the task wants to process this tick
        }
        // Per walked job: did every task take the normal processing path
        // with nothing changed (so far)?
        let mut walked: Vec<(JobId, bool)> = Vec::with_capacity(active.len());
        let mut works: Vec<Work> = Vec::new();
        let mut loads = ContainerLoads::new(container_cpu, healthy);
        // Settled jobs this tick's inputs re-activate; they join `active`
        // once it is no longer being iterated.
        let mut woken: Vec<JobId> = Vec::new();
        let mut listed = active.iter().copied().peekable();
        let TaskArena { slots, index, .. } = tasks;
        // One cursor over the task index serves every walked job: while
        // consecutive jobs are walked it runs straight on, and only tasks
        // of settled jobs in between cost a new descent.
        let mut cursor = index.range(..).peekable();
        for (&job, rt) in jobs.iter_mut() {
            // Active ids the runtimes step over are orphans.
            while let Some(&orphan) = listed.peek().filter(|&&id| id < job) {
                let quiet = walk_orphan(index, slots, orphan, now, down_count, dirty.feed);
                walked.push((orphan, quiet));
                listed.next();
            }
            let was_active = listed.peek() == Some(&job);
            if was_active {
                listed.next();
            }
            let rate = rt.traffic.arrival_rate_memo(now, &mut rt.noise);
            // Did a task's usage reading move in this pass?
            let mut dirtied = false;
            if rate > 0.0 {
                let amount = rate * dt_secs;
                rt.window_arrived += amount;
                for (p, w) in rt.partitions.iter_mut().zip(&rt.partition_weights) {
                    let was_drained = p.appended == p.consumed;
                    p.appended += amount * w;
                    if was_drained && p.appended != p.consumed {
                        rt.undrained += 1;
                    }
                }
                rt.durable_epoch += 1;
            }
            // Processing halted (paused / consumer disabled) pins memory at
            // the idle floor, so it holds the job as arrivals do.
            let halted = paused(job) || rt.traffic.consumer_disabled(now);
            let mut quiet = !(rate > 0.0 || halted);
            if !was_active {
                if quiet {
                    continue; // settled, and nothing of its own wakes it
                }
                woken.push(job);
            }
            if cursor.peek().is_some_and(|(id, _)| id.job < job) {
                cursor = index.range(TaskId::new(job, 0)..).peekable();
            }
            while let Some((&id, &slot)) = cursor.next_if(|(id, _)| id.job == job) {
                let task = slots[slot as usize].as_mut().expect("indexed slot");
                match task.restart(now) {
                    Restart::Down { zeroed } => {
                        dirtied |= zeroed;
                        quiet = false;
                        continue;
                    }
                    Restart::Up { cleared: true } => {
                        *down_count -= 1;
                        quiet = false;
                    }
                    Restart::Up { cleared: false } => {}
                }
                if halted {
                    let memory = task.memory_usage_mb.max(400.0);
                    if task.cpu_usage != 0.0 || task.memory_usage_mb != memory {
                        task.cpu_usage = 0.0;
                        task.memory_usage_mb = memory;
                        dirtied = true;
                    }
                    continue;
                }
                let Some(load) = loads.index_of(task.container) else {
                    // Host dead: task is effectively down. Hosts return
                    // without an engine call, so the task is at rest only
                    // if the normal path would then find nothing to
                    // rewrite and nothing to kill.
                    if task.cpu_usage != 0.0 {
                        task.cpu_usage = 0.0;
                        dirtied = true;
                        quiet = false;
                    } else {
                        let usage = task.footprint_mb(rt);
                        quiet &= task.memory_usage_mb == usage && !task.over_limit(usage);
                    }
                    continue;
                };
                let capacity =
                    rt.true_per_thread_rate * task.threads as f64 * dt_secs * task.degradation;
                let desired = rt.slice_backlog(&task.partitions).min(capacity);
                loads.demand(load, desired / (rt.true_per_thread_rate * dt_secs));
                works.push(Work {
                    id,
                    slot,
                    walk: walked.len() as u32,
                    load,
                    desired,
                });
            }
            if dirtied {
                dirty.mark(job, &mut rt.dirty_mark);
            }
            walked.push((job, quiet));
        }
        for orphan in listed {
            let quiet = walk_orphan(index, slots, orphan, now, down_count, dirty.feed);
            walked.push((orphan, quiet));
        }
        active.extend(woken);

        // Contention factors per container.
        loads.demand_to_factor();

        // Pass 2: processing + memory + OOM. `works` ascends by job, and
        // every job in it has a runtime.
        let mut outcome = TickOutcome::default();
        let mut runtimes = jobs.iter_mut();
        let mut current = runtimes.next();
        for work in works {
            let job = work.id.job;
            while current.as_ref().is_some_and(|entry| *entry.0 != job) {
                current = runtimes.next();
            }
            let rt = &mut *current.as_mut().expect("collected above").1;
            let task = slots[work.slot as usize].as_mut().expect("collected above");
            let mut to_process = work.desired * loads.factor(work.load);
            let cpu_usage = to_process / (rt.true_per_thread_rate * dt_secs);
            // `usage_moved` dirties the job; `consumed` only keeps it
            // awake.
            let mut usage_moved = false;
            let mut consumed = false;
            if task.cpu_usage != cpu_usage {
                task.cpu_usage = cpu_usage;
                usage_moved = true;
            }
            if to_process > 0.0 {
                // Consume proportionally to per-partition backlog. The
                // slice is summed again rather than carried over from pass
                // 1: an earlier task of the job may have consumed from a
                // shared partition since (overlap is reported by the
                // invariant checker, not prevented).
                let slice_backlog = rt.slice_backlog(&task.partitions);
                if slice_backlog > 0.0 {
                    to_process = to_process.min(slice_backlog);
                    let share = to_process / slice_backlog;
                    for p in &task.partitions {
                        let ps = &mut rt.partitions[p.raw() as usize];
                        let was_drained = ps.appended == ps.consumed;
                        ps.consumed += (ps.appended - ps.consumed) * share;
                        if !was_drained && ps.appended == ps.consumed {
                            rt.undrained -= 1;
                        }
                    }
                    rt.window_processed += to_process;
                    *rt.window_per_task.entry(work.id).or_default() += to_process;
                    rt.durable_epoch += 1;
                    consumed = true;
                }
            }
            let usage = task.footprint_mb(rt);
            if task.memory_usage_mb != usage {
                task.memory_usage_mb = usage;
                usage_moved = true;
            }
            if usage_moved {
                dirty.mark(job, &mut rt.dirty_mark);
            }
            let oom = task.over_limit(usage);
            if oom {
                outcome.oom_kills.push(work.id);
                rt.window_ooms += 1;
            }
            if usage_moved || consumed || oom {
                walked[work.walk as usize].1 = false;
            }
        }

        // Settle every walked job that came through untouched and has
        // nothing left to drain.
        for (job, quiet) in walked {
            if quiet && jobs.get(&job).is_none_or(|rt| rt.undrained == 0) {
                active.remove(&job);
            }
        }
        outcome
    }

    /// Drain and reset the scaler-window accumulators for one job.
    pub fn drain_window(&mut self, job: JobId) -> WindowStats {
        let Some(rt) = self.jobs.get_mut(&job) else {
            return WindowStats::default();
        };
        let stats = WindowStats {
            arrived: rt.window_arrived,
            processed: rt.window_processed,
            per_task: rt.window_per_task.iter().map(|(&t, &v)| (t, v)).collect(),
            ooms: rt.window_ooms,
        };
        rt.window_arrived = 0.0;
        rt.window_processed = 0.0;
        rt.window_per_task.clear();
        rt.window_ooms = 0;
        stats
    }

    /// Mirror accumulated arrivals into the Scribe substrate and commit
    /// consumed offsets to the checkpoint store. Called on the checkpoint
    /// cadence — tasks checkpoint periodically, not per record.
    ///
    /// Incremental: a job is skipped when its durability epoch has not
    /// moved since the last flush *and* its category's total-appended
    /// counter is unchanged (no other writer touched the durable tail).
    /// Skipping is exact: with both unchanged, every partition's mirror
    /// delta is a sub-byte fraction (no append) and the checkpoint commit
    /// would either not fire or rewrite its current value (a no-op — the
    /// first-ever sync, which creates the checkpoint entries, is forced by
    /// the `u64::MAX` epoch sentinel). A torn-tail salvage between rounds
    /// only lowers the tail, which lowers the commit target below the
    /// persisted checkpoint — also a no-op. The full per-partition path
    /// remains the crash-recovery oracle and runs whenever in doubt.
    pub fn sync_durable<'c>(
        &mut self,
        now: SimTime,
        scribe: &mut Scribe,
        checkpoints: &mut CheckpointStore,
        category_of: &dyn Fn(JobId) -> &'c str,
    ) {
        for (&job, rt) in &mut self.jobs {
            let epoch_clean = rt.last_durable_epoch == rt.durable_epoch;
            match scribe.category_view(category_of(job)) {
                Ok(mut view) => {
                    if epoch_clean && rt.last_category_appended == Some(view.total_appended()) {
                        continue;
                    }
                    let mut offsets = checkpoints.job_mut(job);
                    for (i, p) in rt.partitions.iter_mut().enumerate() {
                        let partition = PartitionId(i as u64);
                        let delta = p.appended - p.scribe_synced;
                        if delta >= 1.0 {
                            let _ = view.append_bytes(partition, delta as u64, now);
                            p.scribe_synced += delta.floor();
                        }
                        // Commit the consumed offset, capped at the durable
                        // tail: a checkpoint must name a readable position.
                        // After a WAL torn-tail salvage the tail can sit
                        // *below* both the engine's consumed counter and
                        // the last persisted checkpoint — never move the
                        // checkpoint backwards here (recovery clamps it
                        // explicitly, with a trace event) and never
                        // re-advance it past the tail.
                        let tail = view.tail_offset(partition).unwrap_or(0);
                        let target = (p.consumed as u64).min(tail);
                        if target >= offsets.get(partition) {
                            offsets.commit(partition, target);
                        }
                    }
                    rt.last_category_appended = Some(view.total_appended());
                }
                Err(_) => {
                    // No such category: appends are dropped but the mirror
                    // cursor still advances, and checkpoints commit against
                    // an implicit zero tail — exactly the legacy behavior.
                    if epoch_clean && rt.last_category_appended.is_none() {
                        continue;
                    }
                    let mut offsets = checkpoints.job_mut(job);
                    for (i, p) in rt.partitions.iter_mut().enumerate() {
                        let partition = PartitionId(i as u64);
                        let delta = p.appended - p.scribe_synced;
                        if delta >= 1.0 {
                            p.scribe_synced += delta.floor();
                        }
                        if offsets.get(partition) == 0 {
                            offsets.commit(partition, 0);
                        }
                    }
                    rt.last_category_appended = None;
                }
            }
            rt.last_durable_epoch = rt.durable_epoch;
        }
    }
}

use turbine_types::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(PartitionState {
    appended,
    consumed,
    scribe_synced
});

snap_struct!(JobRuntime {
    traffic, true_per_thread_rate, avg_message_bytes, stateful, key_cardinality,
    partition_weights, partitions: Vec<PartitionState>, durable_epoch, last_durable_epoch,
    last_category_appended, window_arrived, window_processed, window_per_task, window_ooms
} derived {
    // The exact count of partitions with `appended != consumed`; f64
    // round-trips are bit-exact, so recomputing it reproduces the
    // maintained counter.
    undrained: partitions.iter().filter(|p| p.appended != p.consumed).count(),
    dirty_mark: 0,
    noise: NoiseMemo::default(),
}
check |rt| !rt.partitions.is_empty() && rt.partition_weights.len() == rt.partitions.len()
    => "JobRuntime partition shape mismatch"
check |rt| rt.true_per_thread_rate.is_finite() && rt.true_per_thread_rate > 0.0
    => "JobRuntime per-thread rate not positive");

snap_struct!(ActiveTask {
    container,
    threads,
    reserved,
    partitions,
    enforcement,
    started_at,
    down_until,
    degradation,
    memory_usage_mb,
    cpu_usage
});

// By hand: the task arena is written as ordered (id, task) pairs and
// rebuilt densely, and the down count and active set are recounted.
impl Snap for Engine {
    fn snap(&self, w: &mut SnapWriter) {
        w.put(&self.jobs);
        w.u64(self.tasks.len() as u64);
        for (id, task) in self.tasks.iter() {
            w.put(id);
            w.put(task);
        }
        w.put(&self.changes);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let jobs: BTreeMap<JobId, JobRuntime> = r.get()?;
        let count = r.len_prefix("Engine.tasks")?;
        let mut tasks = TaskArena::default();
        let mut down_count = 0;
        for _ in 0..count {
            let id: TaskId = r.get()?;
            let task: ActiveTask = r.get()?;
            if task.down_until.is_some() {
                down_count += 1;
            }
            if tasks.insert(id, task).is_some() {
                return Err(SnapError::Value("Engine duplicate task id"));
            }
        }
        let mut engine = Engine {
            jobs,
            tasks,
            down_count,
            changes: r.get()?,
            dirty_drains: 0,
            active: BTreeSet::new(),
        };
        // Settlements are not captured: walk everything once and let the
        // first tick re-derive them.
        engine.active = engine.all_job_ids();
        Ok(engine)
    }
}

#[cfg(test)]
mod settle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_config::JobConfig;
    use turbine_taskmgr::TaskService;

    const JOB: JobId = JobId(1);
    const C0: ContainerId = ContainerId(0);

    fn engine_with_job(rate: f64, task_count: u32) -> (Engine, Vec<TaskSpec>) {
        let mut engine = Engine::new();
        engine.add_job(JOB, TrafficModel::flat(rate), 1.0e6, 256.0, 16, false, 0.0);
        let config = JobConfig::stateless("t", task_count, 16);
        let specs = TaskService::generate_specs(JOB, &config);
        for spec in &specs {
            engine.task_started(spec, C0, SimTime::ZERO, Duration::ZERO);
        }
        (engine, specs)
    }

    fn caps(cpu: f64) -> HashMap<ContainerId, f64> {
        HashMap::from([(C0, cpu)])
    }

    fn run_ticks(engine: &mut Engine, ticks: u64, cpu: f64) -> SimTime {
        let dt = Duration::from_secs(10);
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            now += dt;
            engine.tick(now, dt, &caps(cpu), &|_| false);
        }
        now
    }

    #[test]
    fn sufficient_capacity_keeps_up() {
        let (mut engine, _) = engine_with_job(1.0e6, 2);
        run_ticks(&mut engine, 30, 64.0);
        let backlog = engine.job(JOB).expect("job").backlog();
        // 2 tasks × 1 MB/s can absorb 1 MB/s: backlog stays ~one tick.
        assert!(backlog < 1.1e7, "backlog {backlog}");
        let stats = engine.drain_window(JOB);
        assert!((stats.processed / stats.arrived) > 0.95);
        assert_eq!(stats.per_task.len(), 2);
    }

    #[test]
    fn undersized_job_builds_backlog() {
        let (mut engine, _) = engine_with_job(4.0e6, 2); // capacity 2 MB/s
        run_ticks(&mut engine, 30, 64.0);
        let backlog = engine.job(JOB).expect("job").backlog();
        // Deficit 2 MB/s over 300 s = 600 MB.
        assert!(backlog > 5.5e8, "backlog {backlog}");
        let stats = engine.drain_window(JOB);
        assert!(stats.processed < stats.arrived * 0.6);
    }

    #[test]
    fn container_contention_slows_all_tenants() {
        let (mut engine, _) = engine_with_job(4.0e6, 4); // wants 4 cores
        run_ticks(&mut engine, 10, 1.0); // container only has 1 core
        let stats = engine.drain_window(JOB);
        let ratio = stats.processed / stats.arrived;
        assert!(ratio < 0.35, "contention should cap throughput: {ratio}");
    }

    #[test]
    fn paused_jobs_accumulate_without_processing() {
        let (mut engine, _) = engine_with_job(1.0e6, 2);
        let dt = Duration::from_secs(10);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += dt;
            engine.tick(now, dt, &caps(64.0), &|_| true);
        }
        let stats = engine.drain_window(JOB);
        assert_eq!(stats.processed, 0.0);
        assert!(engine.job(JOB).expect("job").backlog() >= 1.0e7 * 0.99);
    }

    #[test]
    fn dead_container_stops_processing() {
        let (mut engine, _) = engine_with_job(1.0e6, 2);
        let dt = Duration::from_secs(10);
        engine.tick(SimTime::ZERO + dt, dt, &HashMap::new(), &|_| false);
        let stats = engine.drain_window(JOB);
        assert_eq!(stats.processed, 0.0);
    }

    #[test]
    fn skewed_partitions_create_imbalanced_per_task_rates() {
        let (mut engine, _) = engine_with_job(2.0e6, 2);
        {
            let rt = engine.job_mut(JOB).expect("job");
            // All traffic into the first task's slice (partitions 0..8).
            let mut weights = vec![0.0; 16];
            for w in weights.iter_mut().take(8) {
                *w = 1.0 / 8.0;
            }
            rt.partition_weights = weights;
        }
        run_ticks(&mut engine, 10, 64.0);
        let stats = engine.drain_window(JOB);
        let rates: Vec<f64> = stats.per_task.iter().map(|&(_, v)| v).collect();
        assert!(rates[0] > 0.0);
        // Task 1 (partitions 8..16) sees nothing.
        assert!(stats.per_task.len() == 1 || rates[1] == 0.0, "{stats:?}");
    }

    #[test]
    fn cgroup_task_ooms_when_over_reserved() {
        let mut engine = Engine::new();
        engine.add_job(JOB, TrafficModel::flat(4.0e6), 1.0e6, 4096.0, 4, false, 0.0);
        let mut config = JobConfig::stateless("t", 1, 4);
        config.memory_enforcement = turbine_config::MemoryEnforcement::Cgroup;
        config.task_resources = Resources::cpu_mem(8.0, 410.0); // tight memory
        let specs = TaskService::generate_specs(JOB, &config);
        engine.task_started(&specs[0], C0, SimTime::ZERO, Duration::ZERO);
        let dt = Duration::from_secs(10);
        let outcome = engine.tick(SimTime::ZERO + dt, dt, &caps(64.0), &|_| false);
        assert_eq!(outcome.oom_kills, vec![specs[0].id]);
        assert_eq!(engine.drain_window(JOB).ooms, 1);
    }

    #[test]
    fn soft_limit_task_never_oom_kills() {
        let mut engine = Engine::new();
        engine.add_job(JOB, TrafficModel::flat(4.0e6), 1.0e6, 4096.0, 4, false, 0.0);
        let mut config = JobConfig::stateless("t", 1, 4);
        config.task_resources = Resources::cpu_mem(8.0, 410.0);
        let specs = TaskService::generate_specs(JOB, &config);
        engine.task_started(&specs[0], C0, SimTime::ZERO, Duration::ZERO);
        let dt = Duration::from_secs(10);
        let outcome = engine.tick(SimTime::ZERO + dt, dt, &caps(64.0), &|_| false);
        assert!(outcome.oom_kills.is_empty());
    }

    #[test]
    fn restart_delay_suppresses_processing() {
        let mut engine = Engine::new();
        engine.add_job(JOB, TrafficModel::flat(1.0e6), 1.0e6, 256.0, 4, false, 0.0);
        let specs = TaskService::generate_specs(JOB, &JobConfig::stateless("t", 1, 4));
        engine.task_started(&specs[0], C0, SimTime::ZERO, Duration::from_secs(60));
        let dt = Duration::from_secs(10);
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            now += dt;
            engine.tick(now, dt, &caps(64.0), &|_| false);
        }
        assert_eq!(engine.drain_window(JOB).processed, 0.0, "still restarting");
        for _ in 0..5 {
            now += dt;
            engine.tick(now, dt, &caps(64.0), &|_| false);
        }
        assert!(engine.drain_window(JOB).processed > 0.0, "restarted");
    }

    #[test]
    fn durable_sync_mirrors_scribe_and_checkpoints() {
        let (mut engine, specs) = engine_with_job(1.0e6, 2);
        let now = run_ticks(&mut engine, 6, 64.0);
        let mut scribe = Scribe::new();
        scribe.create_category("cat", 16).expect("create");
        let mut checkpoints = CheckpointStore::new();
        engine.sync_durable(now, &mut scribe, &mut checkpoints, &|_| "cat");
        let total: u64 = (0..16)
            .map(|p| scribe.tail_offset("cat", PartitionId(p)).expect("tail"))
            .sum();
        // 60 s at 1 MB/s = 60 MB arrived.
        assert!((total as f64 - 6.0e7).abs() < 1.0e6, "total {total}");
        assert!(checkpoints.job_total_ingested(JOB) > 0);
        let _ = specs;
    }

    #[test]
    fn repeated_syncs_on_a_quiet_job_are_skipped_and_exact() {
        let (mut engine, _) = engine_with_job(1.0e6, 2);
        let now = run_ticks(&mut engine, 6, 64.0);
        let mut scribe = Scribe::new();
        scribe.create_category("cat", 16).expect("create");
        let mut checkpoints = CheckpointStore::new();
        let cat = |_| "cat";
        engine.sync_durable(now, &mut scribe, &mut checkpoints, &cat);
        let tails: Vec<u64> = (0..16)
            .map(|p| scribe.tail_offset("cat", PartitionId(p)).expect("tail"))
            .collect();
        let offsets: Vec<u64> = (0..16)
            .map(|p| checkpoints.get(JOB, PartitionId(p)))
            .collect();
        let entries = checkpoints.len();
        // No ticks in between: the second sync must change nothing (it is
        // skipped via the epoch, but a full replay would also be a no-op).
        engine.sync_durable(now, &mut scribe, &mut checkpoints, &cat);
        let tails2: Vec<u64> = (0..16)
            .map(|p| scribe.tail_offset("cat", PartitionId(p)).expect("tail"))
            .collect();
        let offsets2: Vec<u64> = (0..16)
            .map(|p| checkpoints.get(JOB, PartitionId(p)))
            .collect();
        assert_eq!(tails, tails2);
        assert_eq!(offsets, offsets2);
        assert_eq!(entries, checkpoints.len());
        // New arrivals re-arm the sync.
        let dt = Duration::from_secs(10);
        engine.tick(now + dt, dt, &caps(64.0), &|_| false);
        engine.sync_durable(now + dt, &mut scribe, &mut checkpoints, &cat);
        let total: u64 = (0..16)
            .map(|p| scribe.tail_offset("cat", PartitionId(p)).expect("tail"))
            .sum();
        assert!(total > tails.iter().sum::<u64>(), "sync resumed after tick");
    }

    #[test]
    fn dirty_set_tracks_mutations_and_settles_when_quiet() {
        let (mut engine, specs) = engine_with_job(0.0, 2);
        assert_eq!(
            engine
                .drain_changes(EngineReader::LoadReport)
                .into_iter()
                .collect::<Vec<_>>(),
            [JOB]
        );
        assert!(engine.drain_changes(EngineReader::LoadReport).is_empty());
        let dt = Duration::from_secs(10);
        let mut now = SimTime::ZERO;
        now += dt;
        // First tick: the restarted tasks' memory readings rise from zero
        // to the idle footprint — dirty.
        engine.tick(now, dt, &caps(64.0), &|_| false);
        assert!(engine
            .drain_changes(EngineReader::LoadReport)
            .contains(&JOB));
        // Zero-rate traffic, settled usage: subsequent ticks are clean.
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| false);
        assert!(engine.drain_changes(EngineReader::LoadReport).is_empty());
        // Explicit mutations mark again.
        engine.knock_down_task(specs[0].id, now + dt);
        assert!(engine
            .drain_changes(EngineReader::LoadReport)
            .contains(&JOB));
    }

    #[test]
    fn backlog_alone_leaves_the_dirty_set_empty() {
        // 4 MB/s into two 1 MB/s tasks: the backlog grows every tick.
        let (mut engine, specs) = engine_with_job(4.0e6, 2);
        let dirty = |engine: &mut Engine| {
            engine
                .drain_changes(EngineReader::LoadReport)
                .into_iter()
                .collect::<Vec<_>>()
        };
        assert_eq!(dirty(&mut engine), [JOB], "the task starts");
        let dt = Duration::from_secs(10);
        let mut now = SimTime::ZERO;
        let mut tick = |engine: &mut Engine, cpu: f64| {
            now += dt;
            engine.tick(now, dt, &caps(cpu), &|_| false);
        };
        tick(&mut engine, 64.0);
        assert_eq!(dirty(&mut engine), [JOB], "both tasks start processing");
        for _ in 0..3 {
            let backlog = engine.job(JOB).expect("job").backlog();
            tick(&mut engine, 64.0);
            assert!(engine.job(JOB).expect("job").backlog() > backlog);
            assert!(dirty(&mut engine).is_empty(), "usage held: not dirty");
            assert_eq!(engine.active_jobs(), 1, "yet still walked");
        }
        // One core for two busy tasks halves each one's usage: no mutation,
        // and the job is dirty once, then holds again.
        tick(&mut engine, 1.0);
        assert_eq!(dirty(&mut engine), [JOB], "contention moved usage");
        tick(&mut engine, 1.0);
        assert!(dirty(&mut engine).is_empty());
        engine.degrade_task(specs[0].id, 0.5);
        assert_eq!(dirty(&mut engine), [JOB], "a mutation marks it");
    }

    #[test]
    fn only_mutations_reshape_a_job() {
        // 4 MB/s into two 1 MB/s tasks: the backlog grows every tick, and
        // usage moves on the first tick only (the tasks start processing at
        // capacity and stay there). The dirty set follows usage, not
        // backlog, so it holds the job after the first tick and not after
        // the others; the checker's reader never does.
        let (mut engine, specs) = engine_with_job(4.0e6, 2);
        let for_checker = |engine: &mut Engine| {
            engine
                .drain_changes(EngineReader::Checker)
                .into_iter()
                .collect::<Vec<_>>()
        };
        assert_eq!(for_checker(&mut engine), [JOB]);
        let dt = Duration::from_secs(10);
        let mut now = SimTime::ZERO;
        for i in 0..5 {
            now += dt;
            engine.tick(now, dt, &caps(64.0), &|_| false);
            assert_eq!(
                engine
                    .drain_changes(EngineReader::LoadReport)
                    .contains(&JOB),
                i == 0,
                "dirty exactly when usage moved (tick {i})"
            );
            assert!(
                for_checker(&mut engine).is_empty(),
                "a tick reshapes nothing"
            );
        }
        let other = JobId(2);
        engine.add_job(
            other,
            TrafficModel::flat(1.0e6),
            1.0e6,
            256.0,
            4,
            false,
            0.0,
        );
        assert_eq!(for_checker(&mut engine), [other]);
        engine.job_mut(JOB).expect("job").partition_weights[0] = 0.0;
        assert_eq!(for_checker(&mut engine), [JOB]);
        engine.degrade_task(specs[0].id, 0.5);
        assert_eq!(for_checker(&mut engine), [JOB]);
        engine.knock_down_task(specs[0].id, now + dt);
        assert_eq!(for_checker(&mut engine), [JOB]);
        // A stale stop from a container that does not own the task is no
        // mutation.
        engine.task_stopped(specs[1].id, ContainerId(9));
        assert!(for_checker(&mut engine).is_empty());
        engine.task_stopped(specs[1].id, C0);
        assert_eq!(for_checker(&mut engine), [JOB]);
        engine.task_started(&specs[1], ContainerId(3), now, dt);
        assert_eq!(for_checker(&mut engine), [JOB]);
        engine.remove_job(other);
        assert_eq!(for_checker(&mut engine), [other]);
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| false);
        assert!(for_checker(&mut engine).is_empty());
    }

    #[test]
    fn quiescence_requires_drained_partitions_and_idle_traffic() {
        let (mut engine, specs) = engine_with_job(0.0, 2);
        let t0 = SimTime::ZERO;
        let later = t0 + Duration::from_mins(10);
        // Fresh tasks are mid-restart (down_until set): not quiescent.
        assert!(!engine.is_quiescent_through(t0, later));
        let dt = Duration::from_secs(10);
        engine.tick(t0 + dt, dt, &caps(64.0), &|_| false);
        // Zero-rate traffic, nothing appended, restarts cleared: quiescent.
        assert!(engine.is_quiescent_through(t0 + dt, later));
        // Direct lookups agree with iteration order.
        assert_eq!(engine.task(specs[0].id).map(|t| t.container), Some(C0));
        assert_eq!(engine.nth_task(0).map(|(id, _)| id), Some(specs[0].id));
        assert_eq!(engine.nth_task(2), None);
    }

    #[test]
    fn backlog_blocks_quiescence_until_fully_drained() {
        // 4 MB/s into 2 × 1 MB/s tasks: backlog builds every tick.
        let (mut engine, _) = engine_with_job(4.0e6, 2);
        let dt = Duration::from_secs(10);
        let mut now = SimTime::ZERO;
        // Build backlog, then cut arrivals via an input outage and drain.
        now += dt;
        engine.tick(now, dt, &caps(64.0), &|_| false);
        engine.job_mut(JOB).expect("job").traffic =
            TrafficModel::flat(4.0e6).with_event(turbine_workloads::TrafficEvent {
                start: now,
                end: SimTime::ZERO + Duration::from_hours(2),
                kind: turbine_workloads::TrafficEventKind::InputOutage,
            });
        let horizon = now + Duration::from_mins(5);
        assert!(
            !engine.is_quiescent_through(now, horizon),
            "undrained backlog must block quiescence"
        );
        for _ in 0..6 {
            now += dt;
            engine.tick(now, dt, &caps(64.0), &|_| false);
        }
        assert!(
            engine.job(JOB).expect("job").backlog() == 0.0,
            "full drain must hit the exact share == 1.0 path"
        );
        assert!(engine.is_quiescent_through(now, now + Duration::from_mins(5)));
    }

    #[test]
    fn arena_slots_are_recycled_across_restarts() {
        let (mut engine, specs) = engine_with_job(1.0e6, 2);
        assert_eq!(engine.total_tasks(), 2);
        engine.task_stopped(specs[0].id, C0);
        assert_eq!(engine.total_tasks(), 1);
        // Stale stop from a non-owning container is ignored.
        engine.task_stopped(specs[1].id, ContainerId(9));
        assert_eq!(engine.total_tasks(), 1);
        engine.task_started(&specs[0], ContainerId(3), SimTime::ZERO, Duration::ZERO);
        assert_eq!(engine.total_tasks(), 2);
        assert_eq!(
            engine.task(specs[0].id).map(|t| t.container),
            Some(ContainerId(3))
        );
        // Iteration order stays id-ordered regardless of slot recycling.
        let ids: Vec<TaskId> = engine.tasks().map(|(&id, _)| id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn remove_job_clears_tasks() {
        let (mut engine, _) = engine_with_job(1.0e6, 2);
        assert_eq!(engine.total_tasks(), 2);
        engine.remove_job(JOB);
        assert_eq!(engine.total_tasks(), 0);
        assert!(engine.job(JOB).is_none());
    }
}
