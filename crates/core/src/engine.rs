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
//! Bytes are integers, as Scribe counts them (the control plane observes
//! Scribe only through byte counts): each partition's appended, consumed
//! and mirrored bytes and the scaler window are `u64`. A tick's arrivals
//! are `⌊rate·dt⌋`, split over the partitions by prefix floors of the
//! cumulative weights, so the parts sum to the tick exactly and a flat rate
//! splits the same way every tick; a drain of a whole slice sets `consumed`
//! to `appended`, and a partial one floors each partition's share and hands
//! out the remainder a byte at a time. CPU and memory gauges, contention
//! factors and the scaler's [`WindowStats`] stay `f64`, read from the
//! integers. N ticks of the same amounts therefore equal one step of N
//! times them, which is what lets a steady job advance in closed form.
//!
//! The hot state lies in a few contiguous, id-ordered blocks, so a tick
//! streams memory instead of chasing one heap object per job or task. Job
//! runtimes sit in a vector ascending by `JobId`, and every job's partition
//! columns (appended, consumed, synced, running weight: 32 B each) in one
//! slab, the job holding its run of it. Task bodies sit in an arena whose slots
//! follow `TaskId` order, with an ordered id → slot index on the side, and
//! every task's partition slice in a second slab. Each task's bytes for the
//! scaler window are an accumulator in its own slot. Holes left by removals
//! and runs laid out of id order are reclaimed by re-laying a block in id
//! order once they outnumber the entries in place (`Layout`), so the
//! blocks stay ordered at an amortised O(1) per mutation. Iteration order
//! (and therefore the order of the one floating-point sum in the tick, each
//! container's CPU demand) is `TaskId` order, as it has always been.
//!
//! The engine also keeps sparse-space bookkeeping — a change feed with one
//! reader per consumer ([`EngineFeed`]), a fleet-wide down-task counter,
//! per-job undrained-partition counters, and per-job durability epochs — so
//! quiescence checks, durability syncs, load reports and invariant checks
//! cost O(jobs touched) instead of O(fleet). Every mutation marks a job for
//! every reader. The tick marks the *load-report* reader only where it
//! rewrote a task's `cpu_usage` or `memory_usage_mb`: load reports read
//! nothing else of a job. It marks the *scaler* reader for a job it
//! settles with something in its scaler window: the tick writes only the
//! windows of jobs it walks or skips as lazy, and the scaler round finds
//! those in [`Engine::walked_jobs`] and the settled ones in its reader. The
//! *checker* reader (task set, placement or partition slices moved) is
//! marked by mutations only, since the invariant checker reads nothing a
//! tick writes. The feed is stored in a snapshot like the rest of the
//! engine, so a restored engine owes each consumer what the uninterrupted
//! one does.
//!
//! Work is proportional to change at three granularities. Per job,
//! [`Engine::tick`] visits only *active* jobs. A job whose walk changed
//! nothing *settles*; a job whose walk changed only its byte counters, and
//! whose next walk would change them by the same amounts, goes *lazy*: it
//! keeps an anchor tick, and every reader adds the skipped ticks' amounts.
//! Both are walked again when something they depend on may move — a
//! mutation, a change to whether they are halted, a cluster change, or
//! their traffic's next event edge, which a wake queue holds — so a tick
//! costs O(jobs it walks + wakes due). Fleet-wide, the drive loop may jump
//! the clock over a whole window when [`Engine::is_quiescent_through`]
//! holds for every job at once.
//!
//! A busy job that is not steady cannot be skipped, so what it pays per
//! tick is kept to a few memory reads. The tick never looks a task up:
//! the active jobs, task index and collected work all ascend by id and are
//! walked in step (see [`Engine::tick`]), and the buffers it fills are kept
//! between ticks, so a steady tick allocates nothing. What repeats is
//! remembered as derived state that no snapshot holds and any restore may
//! forget: whether the job is settled or lazy and when it wakes (in the
//! engine's sets and maps), and beside the runtime a hint that it is
//! already marked for load reports and the current minute's noise factor
//! of its traffic model.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasher;
use std::ops::{Deref, Range};
pub use turbine_autoscaler::RunningTask;
use turbine_config::MemoryEnforcement;
use turbine_scribe::{CategoryId, CategoryView, CheckpointStore, Scribe};
use turbine_taskmgr::TaskSpec;
use turbine_types::{
    id_map, ContainerId, Duration, IdMap, JobId, PartitionId, Resources, SimTime, TaskId,
};
use turbine_workloads::{fleet::task_usage, NoiseMemo, TrafficModel};

/// One input partition's columns, side by side: the arrival pass reads the
/// cumulative weight and writes `appended`, the processing pass reads both
/// counters and writes `consumed`. Bytes are integers, as Scribe counts
/// them.
#[derive(Debug, Clone, Copy, Default)]
struct PartitionCol {
    /// Total bytes ever arrived.
    appended: u64,
    /// Total bytes ever consumed (the checkpoint offset).
    consumed: u64,
    /// Bytes already mirrored into the Scribe substrate.
    scribe_synced: u64,
    /// The arrival weights (normalized) of the job's partitions up to and
    /// including this one, summed in partition order: where the tick's
    /// [`Split`] cuts. Skewing the weights simulates imbalanced input, and
    /// the scaler's `RebalanceInput` resets them. Kept summed, so the split
    /// of a tick's arrivals has no chain of additions to wait on.
    cum: f64,
}

/// Lay `weights` into `cols` as their running sums.
fn set_weights(cols: &mut [PartitionCol], weights: impl IntoIterator<Item = f64>) {
    let mut cum = 0.0;
    for (col, weight) in cols.iter_mut().zip(weights) {
        cum += weight;
        col.cum = cum;
    }
}

/// Where one owner's run lies in a [`Slab`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// How far a block of entries has drifted from id order. Entries are laid
/// at the end; one laid for an id below some live owner's is a *stray*,
/// and one no live owner holds any more is *dead*. Once the two together
/// outnumber the entries in place, the block is re-laid in id order. A
/// re-lay moves fewer entries than twice those laid or freed since the one
/// before, so the cost is amortised O(1) per mutation.
#[derive(Debug, Default)]
struct Layout {
    dead: usize,
    /// Laid out of order since the last re-lay (some may since be dead).
    strays: usize,
    /// Entries moved by re-lays, ever: what the amortisation test reads.
    #[cfg(test)]
    relaid: u64,
}

impl Layout {
    fn laid(&mut self, entries: usize, in_order: bool) {
        if !in_order {
            self.strays += entries;
        }
    }

    fn freed(&mut self, entries: usize) {
        self.dead += entries;
    }

    /// Whether a block of `len` entries is due a re-lay.
    fn crowded(&self, len: usize) -> bool {
        let misplaced = self.dead + self.strays;
        misplaced > len.saturating_sub(misplaced)
    }

    /// The block was just re-laid, moving `moved` entries.
    fn relay_done(&mut self, moved: usize) {
        self.dead = 0;
        self.strays = 0;
        #[cfg(test)]
        {
            self.relaid += moved as u64;
        }
        #[cfg(not(test))]
        let _ = moved;
    }
}

/// Runs of `T`, one per owner, laid end to end in one vector; each owner
/// holds the [`Span`] of its run.
#[derive(Debug)]
struct Slab<T> {
    items: Vec<T>,
    layout: Layout,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            items: Vec::new(),
            layout: Layout::default(),
        }
    }
}

impl<T: Copy> Slab<T> {
    fn get(&self, span: Span) -> &[T] {
        &self.items[span.range()]
    }

    fn get_mut(&mut self, span: Span) -> &mut [T] {
        &mut self.items[span.range()]
    }

    /// Lay a run at the end. `in_order`: no live owner's id is above the
    /// new owner's.
    fn push(&mut self, run: impl IntoIterator<Item = T>, in_order: bool) -> Span {
        let start = self.items.len();
        self.items.extend(run);
        let len = self.items.len() - start;
        self.layout.laid(len, in_order);
        Span {
            start: start as u32,
            len: len as u32,
        }
    }

    fn free(&mut self, span: Span) {
        self.layout.freed(span.len as usize);
    }

    fn crowded(&self) -> bool {
        self.layout.crowded(self.items.len())
    }

    /// Re-lay the slab: `spans` yields every live owner's span in id
    /// order, and each is pointed at its run's new place.
    fn relay<'a>(&mut self, spans: impl Iterator<Item = &'a mut Span>) {
        let mut laid = Vec::with_capacity(self.items.len() - self.layout.dead);
        for span in spans {
            let start = laid.len() as u32;
            laid.extend_from_slice(&self.items[span.range()]);
            span.start = start;
        }
        self.layout.relay_done(laid.len());
        self.items = laid;
    }
}

/// Runtime state of one job's data plane. Its partition columns live in
/// the engine's column slab; [`Engine::job`] reads the two together.
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
    /// The job's run of partition columns.
    cols: Span,
    /// Partitions with `appended != consumed`.
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
    /// The job's input category in the bus [`Engine::sync_durable`] is
    /// handed, as [`Engine::bind_category`] bound it (`None`: unbound).
    category: Option<CategoryId>,
    // Scaler-window accumulators. A running task's bytes are in its slot.
    window_arrived: u64,
    window_processed: u64,
    /// Window bytes of tasks that stopped mid-window, ascending by id. A
    /// task that starts again under the same id takes its bytes back.
    window_departed: Vec<(TaskId, u64)>,
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

/// A job the tick skips because each tick would only add the same bytes
/// to its counters (see [`Engine::tick`]). Its stored counters are current
/// at tick `anchor`; `n` ticks later each reader adds `n` times the
/// per-tick amounts.
#[derive(Debug, Clone, Copy)]
struct Lazy {
    /// The engine's tick count at which the stored counters are current.
    anchor: u64,
    /// Bytes arriving per tick, split over the partitions as the tick
    /// splits them. The job consumes them in the same tick: every partition
    /// is drained again, and each task adds its `step` to its window.
    arrived: u64,
    /// Durability epochs per tick.
    epochs: u64,
}

impl JobRuntime {
    /// The arrival rate of the job's input at `now`, bytes/sec:
    /// `traffic.arrival_rate(now)`, without a fresh noise draw when the
    /// tick has already made this minute's.
    pub fn arrival_rate(&self, now: SimTime) -> f64 {
        let mut noise = self.noise;
        self.traffic.arrival_rate_memo(now, &mut noise)
    }

    /// Number of input partitions the job reads.
    pub fn partition_count(&self) -> usize {
        self.cols.len as usize
    }

    /// The job's input category, as [`Engine::bind_category`] bound it
    /// (`None`: unbound).
    pub fn category(&self) -> Option<CategoryId> {
        self.category
    }

    /// Keep a departing task's window bytes until the window drains.
    fn keep_window(&mut self, task: TaskId, bytes: u64) {
        let at = self.window_departed.partition_point(|&(id, _)| id < task);
        self.window_departed.insert(at, (task, bytes));
    }

    /// A departed task's window bytes, if it left some this window.
    fn resume_window(&mut self, task: TaskId) -> Option<u64> {
        let at = self
            .window_departed
            .binary_search_by_key(&task, |&(id, _)| id)
            .ok()?;
        Some(self.window_departed.remove(at).1)
    }
}

/// A job's runtime read together with its partition columns.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    runtime: &'a JobRuntime,
    cols: &'a [PartitionCol],
    /// Bytes arrived in the ticks that skipped a lazy job since its
    /// anchor. It consumed them as they came, so its backlog holds.
    lazy_arrived: u64,
}

impl Deref for JobView<'_> {
    type Target = JobRuntime;

    fn deref(&self) -> &JobRuntime {
        self.runtime
    }
}

impl JobView<'_> {
    /// Total unconsumed bytes (`total_bytes_lagged`).
    pub fn backlog(&self) -> f64 {
        self.cols
            .iter()
            .map(|p| p.appended - p.consumed)
            .sum::<u64>() as f64
    }

    /// Total bytes ever arrived.
    pub fn total_arrived(&self) -> f64 {
        (self.cols.iter().map(|p| p.appended).sum::<u64>() + self.lazy_arrived) as f64
    }
}

/// Unconsumed bytes across a task's partition slice.
fn slice_backlog(cols: &[PartitionCol], slice: &[PartitionId]) -> u64 {
    slice
        .iter()
        .map(|p| {
            let ps = &cols[p.raw() as usize];
            ps.appended - ps.consumed
        })
        .sum()
}

/// `bytes` as an `f64`. Through `i64`, which is one instruction where the
/// unsigned conversion is several; the two agree below 2⁶³ bytes.
fn real(bytes: u64) -> f64 {
    bytes as i64 as f64
}

/// `⌊x⌋` bytes, saturating at 0 for a negative or NaN `x`: `x as u64`
/// below 2⁶³ bytes, through `i64` for the reason [`real`] gives.
fn floor_bytes(x: f64) -> u64 {
    (x as i64).max(0) as u64
}

/// A tick's `bytes` of arrivals split over a job's partitions by prefix
/// floors of the cumulative weights: partition `p` takes
/// `⌊bytes·W_p⌋ − ⌊bytes·W_{p−1}⌋`, where `W_p` sums the weights through
/// `p` (the column's `cum`) and the last `W` is 1. The parts sum to
/// `bytes` exactly, without a sort, and the same weights split the same
/// bytes the same way every tick. Fed the partitions in order, one call
/// each.
struct Split {
    bytes: u64,
    /// `bytes`, as the multiplier of the cumulative weight.
    scale: f64,
    /// `⌊bytes·W⌋` so far.
    cut: u64,
}

impl Split {
    fn new(bytes: u64) -> Split {
        Split {
            bytes,
            scale: real(bytes),
            cut: 0,
        }
    }

    /// The part of the partition whose cumulative weight is `cum`; `last`
    /// for the job's last partition.
    fn next(&mut self, cum: f64, last: bool) -> u64 {
        let cut = if last {
            self.bytes
        } else {
            // A negative or NaN prefix cuts nothing, and one past 1 cuts
            // everything.
            floor_bytes(self.scale * cum).min(self.bytes).max(self.cut)
        };
        let part = cut - self.cut;
        self.cut = cut;
        part
    }
}

/// Consume `bytes` of a slice whose backlog is `backlog` (`bytes <=
/// backlog`), keeping `undrained` exact. All of it: every partition is
/// drained. Part of it: each partition gives the floor of its share, and
/// the remainder is handed out one byte at a time, in slice order.
fn consume(
    cols: &mut [PartitionCol],
    slice: &[PartitionId],
    bytes: u64,
    backlog: u64,
    undrained: &mut usize,
) {
    if bytes == backlog {
        for p in slice {
            let ps = &mut cols[p.raw() as usize];
            if ps.appended != ps.consumed {
                ps.consumed = ps.appended;
                *undrained -= 1;
            }
        }
        return;
    }
    // `share < 1`, so no floor exceeds its partition's backlog.
    let share = real(bytes) / real(backlog);
    let mut left = bytes;
    for p in slice {
        let ps = &mut cols[p.raw() as usize];
        let held = ps.appended - ps.consumed;
        let give = floor_bytes(real(held) * share).min(left);
        ps.consumed += give;
        left -= give;
        if give == held && held > 0 {
            *undrained -= 1;
        }
    }
    while left > 0 {
        let before = left;
        for p in slice {
            if left == 0 {
                break;
            }
            let ps = &mut cols[p.raw() as usize];
            if ps.appended != ps.consumed {
                ps.consumed += 1;
                left -= 1;
                if ps.appended == ps.consumed {
                    *undrained -= 1;
                }
            }
        }
        if left == before {
            break; // a slice that lists a partition twice overstates its backlog
        }
    }
}

/// The registered jobs, ascending by id: ids and runtimes side by side,
/// their partition columns in one slab. A job added above every id is
/// pushed; the rare one added below shifts the runtimes after it, and so
/// does a removal.
#[derive(Debug, Default)]
struct JobTable {
    ids: Vec<JobId>,
    runtimes: Vec<JobRuntime>,
    cols: Slab<PartitionCol>,
}

impl JobTable {
    fn get(&self, job: JobId) -> Option<&JobRuntime> {
        let at = self.ids.binary_search(&job).ok()?;
        Some(&self.runtimes[at])
    }

    fn get_mut(&mut self, job: JobId) -> Option<&mut JobRuntime> {
        let at = self.ids.binary_search(&job).ok()?;
        Some(&mut self.runtimes[at])
    }

    /// The `at`-th job as a reader sees it: `lazy_arrived` is what it
    /// took in the ticks that skipped it.
    fn view(&self, at: usize, lazy_arrived: u64) -> JobView<'_> {
        let runtime = &self.runtimes[at];
        JobView {
            runtime,
            cols: self.cols.get(runtime.cols),
            lazy_arrived,
        }
    }

    fn relay_if_crowded(&mut self) {
        if self.cols.crowded() {
            self.relay();
        }
    }

    fn relay(&mut self) {
        self.cols
            .relay(self.runtimes.iter_mut().map(|rt| &mut rt.cols));
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
    /// The task's run of the slice slab: its partition slice, read through
    /// [`Engine::partitions_of`].
    slice: Span,
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
    /// Bytes processed this scaler window (0: nothing yet; a tick adds
    /// only what it processed, never 0).
    window: u64,
    /// Bytes consumed on the task's last walk through the processing path:
    /// what each tick that skips its lazy job adds to `window`. Derived —
    /// not part of the snapshot.
    step: u64,
}

impl ActiveTask {
    /// Memory model: the footprint follows the processed rate (read back
    /// from `cpu_usage`), plus state for stateful jobs.
    fn footprint_mb(&self, rt: &JobRuntime) -> f64 {
        let rate = self.cpu_usage * rt.true_per_thread_rate;
        let mut usage = task_usage(rate, rt.avg_message_bytes, rt.true_per_thread_rate).memory_mb;
        if rt.stateful {
            let tasks_of_job =
                (self.slice.len as usize).max(1) as f64 / rt.partition_count().max(1) as f64;
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

/// Arena storage for active tasks: bodies live in u32-addressed slots that
/// follow `TaskId` order once re-laid, the ordered `index` maps ids to
/// slots (so iteration order — and every floating-point reduction order
/// derived from it — is `TaskId` order), and partition slices live in one
/// slab. A new task takes a slot at the end; a removed one leaves a hole.
#[derive(Debug, Default)]
struct TaskArena {
    slots: Vec<Option<ActiveTask>>,
    index: BTreeMap<TaskId, u32>,
    layout: Layout,
    slices: Slab<PartitionId>,
}

/// Every possible task id of `job`: its range in the ordered index.
fn job_range(job: JobId) -> std::ops::RangeInclusive<TaskId> {
    TaskId::new(job, 0)..=TaskId::new(job, u32::MAX)
}

impl TaskArena {
    /// Start `id` (or replace its body) with `partitions` as its slice. A
    /// replacement keeps its slot, and its slice's run when the length
    /// holds.
    fn insert(
        &mut self,
        id: TaskId,
        mut task: ActiveTask,
        partitions: &[PartitionId],
    ) -> Option<ActiveTask> {
        let in_order = self
            .index
            .last_key_value()
            .is_none_or(|(&last, _)| id >= last);
        if let Some(&slot) = self.index.get(&id) {
            let old = self.slots[slot as usize].as_ref().expect("indexed slot");
            task.slice = if old.slice.len as usize == partitions.len() {
                let kept = old.slice;
                self.slices.get_mut(kept).copy_from_slice(partitions);
                kept
            } else {
                let freed = old.slice;
                self.slices.free(freed);
                self.slices.push(partitions.iter().copied(), in_order)
            };
            let replaced = self.slots[slot as usize].replace(task);
            self.relay_if_crowded();
            return replaced;
        }
        task.slice = self.slices.push(partitions.iter().copied(), in_order);
        self.slots.push(Some(task));
        self.layout.laid(1, in_order);
        self.index.insert(id, (self.slots.len() - 1) as u32);
        self.relay_if_crowded();
        None
    }

    fn remove(&mut self, id: TaskId) -> Option<ActiveTask> {
        let slot = self.index.remove(&id)?;
        let task = self.slots[slot as usize].take().expect("indexed slot");
        self.layout.freed(1);
        self.slices.free(task.slice);
        self.relay_if_crowded();
        Some(task)
    }

    /// Re-lay slots and slices once either has drifted.
    fn relay_if_crowded(&mut self) {
        if self.layout.crowded(self.slots.len()) || self.slices.crowded() {
            self.relay();
        }
    }

    /// Re-lay slots and slices in id order.
    fn relay(&mut self) {
        let mut laid = Vec::with_capacity(self.index.len());
        for slot in self.index.values_mut() {
            laid.push(self.slots[*slot as usize].take());
            *slot = (laid.len() - 1) as u32;
        }
        self.layout.relay_done(laid.len());
        self.slots = laid;
        self.slices.relay(
            self.slots
                .iter_mut()
                .map(|task| &mut task.as_mut().expect("laid slot").slice),
        );
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

    /// Forget the window bytes of every running task of `job`.
    fn clear_windows(&mut self, job: JobId) {
        for (_, &slot) in self.index.range(job_range(job)) {
            self.slots[slot as usize]
                .as_mut()
                .expect("indexed slot")
                .window = 0;
        }
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
    work: &mut TickWork,
) -> bool {
    let mut quiet = true;
    for &slot in index.range(job_range(job)).map(|(_, slot)| slot) {
        work.tasks += 1;
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

/// Whether `job`'s scaler window holds anything: bytes or OOM kills of the
/// job, bytes of a task that left, or bytes of one of its running tasks.
fn holds_window(
    rt: &JobRuntime,
    index: &BTreeMap<TaskId, u32>,
    slots: &[Option<ActiveTask>],
    job: JobId,
) -> bool {
    rt.window_arrived != 0
        || rt.window_processed != 0
        || rt.window_ooms != 0
        || !rt.window_departed.is_empty()
        || index
            .range(job_range(job))
            .any(|(_, &slot)| slots[slot as usize].as_ref().expect("indexed slot").window > 0)
}

/// Whether no container that one of `job`'s tasks runs on can contend,
/// judged against the capacities of this tick's `loads`.
fn uncontendable(
    job: JobId,
    index: &BTreeMap<TaskId, u32>,
    slots: &[Option<ActiveTask>],
    loads: &ContainerLoads,
    shares: &ContainerMap<ContainerShare>,
) -> bool {
    index.range(job_range(job)).all(|(_, &slot)| {
        let container = slots[slot as usize]
            .as_ref()
            .expect("indexed slot")
            .container;
        loads.capacity_of(container).is_some_and(|capacity| {
            shares
                .get(&container)
                .is_some_and(|share| share.uncontendable(capacity))
        })
    })
}

/// One job's scaler window as [`Engine::drain_window`] hands it over: the
/// caller keeps it between rounds and the drain refills it, so a steady
/// round allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Bytes arrived during the window.
    pub arrived: f64,
    /// Bytes processed during the window.
    pub processed: f64,
    /// Bytes processed per task, ascending by id: the running tasks' and
    /// those of tasks that left mid-window.
    pub per_task: Vec<(TaskId, f64)>,
    /// The job's running tasks, ascending by id.
    pub running: Vec<RunningTask>,
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
        /// The scaler round, beside the jobs the tick still walks: the
        /// job's scaler window may hold something. A mutation may have
        /// written it, or ticks that walked the job before it settled; a
        /// tick writes only the windows of jobs it walks. A job neither
        /// marked nor walked has an empty window, so a round that only
        /// discards windows drains those two kinds of job alone.
        Scaler => scaler,
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

/// A container-keyed table.
pub(crate) type ContainerMap<V> = IdMap<ContainerId, V>;

/// An empty [`ContainerMap`] with room for `containers` entries.
pub(crate) fn container_map<V>(containers: usize) -> ContainerMap<V> {
    id_map(containers)
}

/// Per-container state of one tick: capacity, and the CPU demand of the
/// tasks walked, which becomes the contention factor between the passes.
/// A container gets a dense index the first time a task on it is walked
/// (the only probe of the caller's map for it), and tasks carry that index
/// into the second pass. Nothing reads the table in iteration order. The
/// index keeps room for every healthy container, so a tick does not grow
/// it probe by probe.
#[derive(Debug, Default)]
struct ContainerLoads {
    /// `None`: seen, and not a healthy container.
    index: ContainerMap<Option<u32>>,
    /// `(capacity, demand or factor)` per healthy container seen.
    loads: Vec<(f64, f64)>,
}

impl ContainerLoads {
    /// Empty the table for a tick over `healthy` containers.
    fn reset(&mut self, healthy: usize) {
        self.index.clear();
        self.index.reserve(healthy);
        self.loads.clear();
    }

    /// The container's index, if `container_cpu` (the caller's capacity
    /// map) has it, i.e. it is healthy.
    fn index_of(
        &mut self,
        container: ContainerId,
        container_cpu: &dyn Fn(ContainerId) -> Option<f64>,
    ) -> Option<u32> {
        *self.index.entry(container).or_insert_with(|| {
            let capacity = container_cpu(container)?;
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

    /// The capacity of a healthy container this tick has seen.
    fn capacity_of(&self, container: ContainerId) -> Option<f64> {
        let load = (*self.index.get(&container)?)?;
        Some(self.loads[load as usize].0)
    }
}

/// A task's desired work, collected by the tick's first pass.
#[derive(Debug, Clone, Copy)]
struct Work {
    /// The task's index within its job.
    index: u32,
    slot: u32,
    /// Index of the task's runtime.
    runtime: u32,
    /// Index of the task's job in `walked`.
    walk: u32,
    /// Index of the task's container in the loads.
    load: u32,
    /// Bytes the task wants to process this tick.
    desired: u64,
}

/// A job the tick walked.
#[derive(Debug, Clone, Copy)]
struct Walked {
    job: JobId,
    /// Index of its runtime; `None` for an orphan.
    runtime: Option<u32>,
    /// Did every task take the normal processing path with nothing changed
    /// (so far)?
    quiet: bool,
    /// Did the walk change nothing but byte counters (so far): every task
    /// up, none on a dead container, no usage reading moved, no OOM?
    steady: bool,
    /// Was every partition drained before its arrivals?
    drained: bool,
    /// Did its traffic have a rate (which bumps its durability epoch)?
    rated: bool,
    /// Was its processing halted (so its tasks took no processing path)?
    halted: bool,
}

/// What [`Engine::tick`] fills and empties every tick, kept between ticks
/// so a steady tick allocates nothing. Derived — not part of the snapshot.
#[derive(Debug, Default)]
struct TickScratch {
    works: Vec<Work>,
    walked: Vec<Walked>,
    loads: ContainerLoads,
}

/// What one [`Engine::tick`] visited: exact counts, not timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickWork {
    /// Registered jobs whose runtime it visited.
    pub runtimes: usize,
    /// Tasks it walked (orphans' included).
    pub tasks: usize,
}

/// Units of [`ContainerShare::threads`]: 2⁻¹⁶ of a core.
const SHARE_UNITS: f64 = 65_536.0;

/// A task's `threads × degradation` in [`SHARE_UNITS`], rounded up: no
/// less than any CPU demand the tick computes for it.
fn share_units(threads: u32, degradation: f64) -> u64 {
    (threads as f64 * degradation * SHARE_UNITS).ceil() as u64
}

/// One container's tasks, kept at every mutation, as the lazy-span
/// predicate reads them.
#[derive(Debug, Clone, Copy, Default)]
struct ContainerShare {
    /// Tasks on it.
    tasks: u32,
    /// The sum of their [`share_units`].
    threads: u64,
    /// Tasks of lazy jobs that consume on it.
    lazy: u32,
    /// Its CPU capacity when a lazy job's task last went on it.
    capacity: f64,
}

impl ContainerShare {
    /// Whether its tasks cannot contend on `capacity` cores, whatever each
    /// one demands: the sum of their `threads × degradation` fits, with a
    /// margin that absorbs the rounding of the tick's demand sum.
    fn uncontendable(&self, capacity: f64) -> bool {
        self.threads as f64 / SHARE_UNITS * (1.0 + 1.0e-9) <= capacity
    }
}

/// Bring a lazy job's stored counters up to tick `ticks`: each tick
/// skipped since its anchor adds its per-tick amounts once.
fn catch_up(
    ticks: u64,
    job: JobId,
    lazy: &mut Lazy,
    rt: &mut JobRuntime,
    cols: &mut Slab<PartitionCol>,
    tasks: &mut TaskArena,
) {
    let n = ticks - lazy.anchor;
    lazy.anchor = ticks;
    rt.durable_epoch += n * lazy.epochs;
    if n == 0 || lazy.arrived == 0 {
        return;
    }
    let job_cols = cols.get_mut(rt.cols);
    let mut split = Split::new(lazy.arrived);
    let last = job_cols.len() - 1;
    for (i, p) in job_cols.iter_mut().enumerate() {
        p.appended += n * split.next(p.cum, i == last);
        p.consumed = p.appended;
    }
    rt.window_arrived += n * lazy.arrived;
    rt.window_processed += n * lazy.arrived;
    for (_, &slot) in tasks.index.range(job_range(job)) {
        let task = tasks.slots[slot as usize].as_mut().expect("indexed slot");
        task.window += n * task.step;
    }
}

/// The data-plane engine.
#[derive(Debug, Default)]
pub struct Engine {
    jobs: JobTable,
    tasks: TaskArena,
    /// Tasks currently holding a `down_until` marker (exact counter).
    down_count: usize,
    /// What changed, per consumer: load reports, the invariant checker and
    /// the scaler round.
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
    /// Jobs the tick skips as *lazy*: a walk changed only their byte
    /// counters, and the next would change them by the same amounts (see
    /// [`Engine::tick`]). Derived, like `active`.
    lazy: BTreeMap<JobId, Lazy>,
    /// The tick length the lazy jobs' per-tick amounts were taken at.
    lazy_dt: Duration,
    /// When settled and lazy jobs are due to be walked again: at their
    /// traffic's next edge, or at the next tick for a job
    /// [`Engine::wake`] was called for. Derived.
    wakes: BTreeSet<(SimTime, JobId)>,
    /// Each queued job's entry in `wakes`.
    queued: BTreeMap<JobId, SimTime>,
    /// Ticks run: the clock of the lazy jobs' anchors. Derived.
    ticks: u64,
    /// Each container's tasks, for the lazy-span predicate. Derived, and
    /// recounted on restore.
    shares: ContainerMap<ContainerShare>,
    /// What the last tick visited.
    last_tick: TickWork,
    scratch: TickScratch,
    /// Forget everything derived before every tick: the reference a
    /// platform-level test drives beside the engine it checks.
    #[cfg(test)]
    pub(crate) walk_every_job: bool,
}

impl Engine {
    /// An engine with no jobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// A mutation is about to touch `job`: its observable state changes,
    /// and its next tick may no longer be a no-op, so it is walked again.
    /// Called before the mutation, so a lazy job's counters are brought up
    /// to date under the amounts it was skipped with.
    fn touch(&mut self, job: JobId) {
        self.changes.mark(job);
        self.walk_again(job);
    }

    /// Put `job` in the walk now: out of the wake queue, and a lazy job's
    /// counters brought up to date.
    fn walk_again(&mut self, job: JobId) {
        if let Some(wake) = self.queued.remove(&job) {
            self.wakes.remove(&(wake, job));
        }
        self.end_lazy(job);
        self.active.insert(job);
    }

    /// Stop skipping `job`, if it is lazy.
    fn end_lazy(&mut self, job: JobId) {
        let Some(mut lazy) = self.lazy.remove(&job) else {
            return;
        };
        let at = self
            .jobs
            .ids
            .binary_search(&job)
            .expect("a lazy job is registered");
        let rt = &mut self.jobs.runtimes[at];
        catch_up(
            self.ticks,
            job,
            &mut lazy,
            rt,
            &mut self.jobs.cols,
            &mut self.tasks,
        );
        if lazy.arrived > 0 {
            for (_, task) in self.tasks.range_of_job(job) {
                if let Some(share) = self.shares.get_mut(&task.container) {
                    share.lazy -= 1;
                }
            }
        }
    }

    /// Walk every lazy job again.
    fn wake_lazy(&mut self) {
        while let Some((&job, _)) = self.lazy.first_key_value() {
            self.walk_again(job);
        }
    }

    /// Something [`Engine::tick`] reads about `job` besides its own state
    /// may have changed: whether it is halted (paused, stopped for capacity,
    /// its input stalled: the platform's halt setter calls this), or its
    /// category. A settled or lazy job is walked again at the next tick;
    /// one the tick walks anyway needs nothing.
    pub(crate) fn wake(&mut self, job: JobId) {
        if self.active.contains(&job) {
            return;
        }
        if self.jobs.ids.binary_search(&job).is_ok() {
            if let Some(queued) = self.queued.insert(job, SimTime::ZERO) {
                self.wakes.remove(&(queued, job));
            }
            self.wakes.insert((SimTime::ZERO, job));
        }
    }

    /// The capacities handed to [`Engine::tick`] may have changed (a
    /// cluster change): every lazy job is walked again, since whether its
    /// containers can contend was judged against the old ones.
    pub fn containers_changed(&mut self) {
        self.wake_lazy();
    }

    /// `task` joins its container's share. A container that can now
    /// contend wakes every lazy job: one of them may run on it.
    fn share_join(&mut self, task: &ActiveTask) {
        let share = self.shares.entry(task.container).or_default();
        share.tasks += 1;
        share.threads += share_units(task.threads, task.degradation);
        if share.lazy > 0 && !share.uncontendable(share.capacity) {
            self.wake_lazy();
        }
    }

    /// `task` leaves its container's share.
    fn share_leave(&mut self, task: &ActiveTask) {
        if let Some(share) = self.shares.get_mut(&task.container) {
            share.tasks -= 1;
            share.threads -= share_units(task.threads, task.degradation);
            if share.tasks == 0 {
                self.shares.remove(&task.container);
            }
        }
    }

    /// What the last [`Engine::tick`] visited.
    pub fn last_tick_work(&self) -> TickWork {
        self.last_tick
    }

    /// Register a job's data plane. Registering an id again starts it
    /// afresh: new columns, an empty window.
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
        self.touch(job);
        let weight = 1.0 / partitions as f64;
        let jobs = &mut self.jobs;
        let at = jobs.ids.binary_search(&job);
        let in_order = match at {
            Ok(at) => at + 1 == jobs.ids.len(),
            Err(at) => at == jobs.ids.len(),
        };
        let cols = jobs.cols.push(
            std::iter::repeat_n(PartitionCol::default(), partitions as usize),
            in_order,
        );
        set_weights(
            jobs.cols.get_mut(cols),
            std::iter::repeat_n(weight, partitions as usize),
        );
        let runtime = JobRuntime {
            traffic,
            true_per_thread_rate,
            avg_message_bytes,
            stateful,
            key_cardinality,
            cols,
            undrained: 0,
            durable_epoch: 0,
            last_durable_epoch: u64::MAX,
            last_category_appended: None,
            category: None,
            window_arrived: 0,
            window_processed: 0,
            window_departed: Vec::new(),
            window_ooms: 0,
            dirty_mark: 0,
            noise: NoiseMemo::default(),
        };
        match at {
            Ok(at) => {
                let old = std::mem::replace(&mut jobs.runtimes[at], runtime);
                jobs.cols.free(old.cols);
                self.tasks.clear_windows(job);
            }
            Err(at) => {
                jobs.ids.insert(at, job);
                jobs.runtimes.insert(at, runtime);
            }
        }
        self.jobs.relay_if_crowded();
    }

    /// Bind a registered job to its input category in the bus
    /// [`Engine::sync_durable`] is handed: the category its arrivals are
    /// mirrored into and its checkpoints are capped by. An unregistered
    /// job binds nothing.
    pub fn bind_category(&mut self, job: JobId, category: CategoryId) {
        if let Some(rt) = self.jobs.get_mut(job) {
            rt.category = Some(category);
            self.wake(job);
        }
    }

    /// Remove a job's data plane entirely.
    pub fn remove_job(&mut self, job: JobId) {
        self.touch(job);
        if let Ok(at) = self.jobs.ids.binary_search(&job) {
            self.jobs.ids.remove(at);
            let runtime = self.jobs.runtimes.remove(at);
            self.jobs.cols.free(runtime.cols);
            self.jobs.relay_if_crowded();
        }
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
                self.share_leave(&task);
            }
        }
    }

    /// Access a job's runtime (e.g. to mutate its traffic model
    /// mid-experiment).
    pub fn job_mut(&mut self, job: JobId) -> Option<&mut JobRuntime> {
        self.touch(job);
        self.jobs.get_mut(job)
    }

    /// Set a job's per-partition arrival weights (imbalance injection, or
    /// the scaler's `RebalanceInput`). Panics unless there is one weight
    /// per partition.
    pub fn set_partition_weights(&mut self, job: JobId, weights: &[f64]) {
        self.touch(job);
        let Some(&JobRuntime { cols, .. }) = self.jobs.get(job) else {
            return;
        };
        let cols = self.jobs.cols.get_mut(cols);
        assert_eq!(
            weights.len(),
            cols.len(),
            "{job}: {} weights for {} partitions",
            weights.len(),
            cols.len()
        );
        set_weights(cols, weights.iter().copied());
    }

    /// Read access to a job's runtime and partitions.
    pub fn job(&self, job: JobId) -> Option<JobView<'_>> {
        let at = self.jobs.ids.binary_search(&job).ok()?;
        Some(self.view(at))
    }

    /// All jobs registered.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.jobs.ids.clone()
    }

    /// Every registered job with its runtime, ascending by id.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, JobView<'_>)> {
        // The lazy jobs ascend by id too: one cursor finds them.
        let mut lazy = self.lazy.iter().peekable();
        (0..self.jobs.ids.len()).map(move |at| {
            let job = self.jobs.ids[at];
            while lazy.next_if(|&(&id, _)| id < job).is_some() {}
            let arrived = lazy
                .next_if(|&(&id, _)| id == job)
                .map_or(0, |(_, lazy)| (self.ticks - lazy.anchor) * lazy.arrived);
            (job, self.jobs.view(at, arrived))
        })
    }

    /// A task started (or restarted) on a container. When its job is
    /// registered, the task's slice must lie inside the job's partitions.
    pub fn task_started(
        &mut self,
        spec: &TaskSpec,
        container: ContainerId,
        now: SimTime,
        restart_delay: Duration,
    ) {
        let job = spec.id.job;
        if let Some(rt) = self.jobs.get(job) {
            let count = rt.partition_count();
            let needed = spec.partitions.iter().map(|p| p.raw() + 1).max();
            assert!(
                needed.is_none_or(|needed| needed <= count as u64),
                "{job}: task {}'s slice needs {} partitions, the job has {count}",
                spec.id.index,
                needed.unwrap_or(0),
            );
        }
        self.touch(job);
        // A restarted task keeps its window bytes, and one that left this
        // window takes back what it had.
        let window = match self.tasks.get(spec.id) {
            Some(running) => running.window,
            None => self
                .jobs
                .get_mut(job)
                .and_then(|rt| rt.resume_window(spec.id))
                .unwrap_or(0),
        };
        let task = ActiveTask {
            container,
            threads: spec.threads,
            reserved: spec.reserved,
            slice: Span::default(),
            enforcement: spec.memory_enforcement,
            started_at: now,
            down_until: Some(now + restart_delay),
            degradation: 1.0,
            memory_usage_mb: 0.0,
            cpu_usage: 0.0,
            window,
            step: 0,
        };
        if let Some(running) = self.tasks.get(spec.id).cloned() {
            self.share_leave(&running);
        }
        self.share_join(&task);
        let replaced = self.tasks.insert(spec.id, task, &spec.partitions);
        if replaced.is_none_or(|t| t.down_until.is_none()) {
            self.down_count += 1;
        }
    }

    /// Degrade (or restore) one task's throughput — models a sick host
    /// slowing a single task (§V-D's hardware-issue class). The factor is
    /// cleared when the task restarts on a(nother) container.
    pub fn degrade_task(&mut self, task: TaskId, factor: f64) {
        assert!(factor > 0.0);
        let Some(old) = self.tasks.get(task).cloned() else {
            return;
        };
        self.touch(task.job);
        self.share_leave(&old);
        let t = self.tasks.get_mut(task).expect("looked up above");
        t.degradation = factor;
        let degraded = t.clone();
        self.share_join(&degraded);
    }

    /// A task stopped on `container`. The container must match the entry:
    /// a stale stop acknowledgement from a previous owner (e.g. a
    /// recovering container whose shards were already failed over) must
    /// not remove the task now running elsewhere. Its window bytes stay
    /// with its job until the window drains.
    pub fn task_stopped(&mut self, task: TaskId, container: ContainerId) {
        if self
            .tasks
            .get(task)
            .is_some_and(|t| t.container == container)
        {
            self.touch(task.job);
            if let Some(removed) = self.tasks.remove(task) {
                if removed.down_until.is_some() {
                    self.down_count -= 1;
                }
                self.share_leave(&removed);
                if let (bytes @ 1.., Some(rt)) = (removed.window, self.jobs.get_mut(task.job)) {
                    rt.keep_window(task, bytes);
                }
            }
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

    /// The partition slice of one of this engine's active tasks.
    pub fn partitions_of(&self, task: &ActiveTask) -> &[PartitionId] {
        self.tasks.slices.get(task.slice)
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
                .runtimes
                .iter()
                .all(|rt| rt.undrained == 0 && rt.traffic.idle_through(after, through))
    }

    /// Force a task into restart (crash injection, container reboot).
    pub fn knock_down_task(&mut self, task: TaskId, until: SimTime) {
        if self.tasks.get(task).is_some() {
            self.touch(task.job);
            let t = self.tasks.get_mut(task).expect("looked up above");
            if t.down_until.is_none() {
                self.down_count += 1;
            }
            t.down_until = Some(until);
        }
    }

    /// Number of jobs that are not settled: those [`Engine::tick`] walks
    /// and the lazy ones, whose every tick it derives. Meaningful after a
    /// tick: mutations and a restore only ever add to it, and the next
    /// tick settles whatever it can.
    pub fn active_jobs(&self) -> usize {
        self.active.len() + self.lazy.len()
    }

    /// The jobs that are not settled, ascending: with the jobs marked for
    /// [`EngineReader::Scaler`], every job whose scaler window may hold
    /// something.
    pub fn walked_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        let mut active = self.active.iter().copied().peekable();
        let mut lazy = self.lazy.keys().copied().peekable();
        std::iter::from_fn(move || match (active.peek(), lazy.peek()) {
            (Some(a), Some(l)) if l < a => lazy.next(),
            (Some(_), _) => active.next(),
            (None, _) => lazy.next(),
        })
    }

    /// Mark every job the engine knows active (registered runtimes plus
    /// the jobs of tasks that have none), with nothing lazy and nothing
    /// queued.
    fn activate_all(&mut self) {
        self.wake_lazy();
        self.wakes.clear();
        self.queued.clear();
        self.active = self.jobs.ids.iter().copied().collect();
        self.active.extend(self.tasks.index.keys().map(|id| id.job));
    }

    /// Forget everything derived — settlements, lazy spans, dirty hints,
    /// noise memos — forcing the next tick to walk the whole fleet, insert
    /// every job it dirties and draw every noise factor: the oracle the
    /// short cuts are tested against.
    #[cfg(test)]
    pub(crate) fn forget_derived(&mut self) {
        self.activate_all();
        for rt in &mut self.jobs.runtimes {
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

    /// Mark every registered job for `reader` alone, as if each had just
    /// changed: what the full-scan reference hands it.
    pub fn refeed(&mut self, reader: EngineReader) {
        for &job in &self.jobs.ids {
            self.changes.mark_for(reader, job);
        }
    }

    /// Advance the data plane by `dt` (positive). `container_cpu` supplies
    /// the CPU capacity of each healthy container (tasks on missing
    /// containers do not run); `is_halted` jobs (paused mid-sync, stopped
    /// for capacity, or stalled) receive arrivals but process nothing.
    ///
    /// Only the tasks of active jobs are walked, and only active jobs are
    /// visited at all. Two kinds of job are skipped, each exactly:
    ///
    /// - A *settled* job has no arrivals, no backlog, no task mid-restart
    ///   and is not halted, so each of its tasks would add `+ 0.0` to its
    ///   container's demand (the sum's bits do not move) and recompute the
    ///   `cpu_usage` and `memory_usage_mb` it already holds — both are
    ///   functions of task and job fields only a mutation API can change,
    ///   and those walk the job again. A dead container cannot disturb it
    ///   either: that path only zeroes a `cpu_usage` that is already zero.
    /// - A *lazy* job's last walk changed only its byte counters: its
    ///   traffic is steady until its next event edge, every task is up and
    ///   on a live container, every partition was drained before the
    ///   arrivals and after the processing, no usage reading moved, nothing
    ///   was OOM-killed, and (if anything arrived) each of its containers is
    ///   *uncontendable* — the `threads × degradation` of every task on it
    ///   fits its CPU, so every task there runs at a contention factor of
    ///   exactly 1 whether or not the job's demand is summed. Every later
    ///   tick would therefore repeat that walk's arrivals, consumption,
    ///   window bytes and durability epochs and change nothing else. The
    ///   job keeps `(anchor tick, counters at anchor)`, and every reader
    ///   ([`Engine::job`], [`Engine::drain_window`], [`Engine::sync_durable`],
    ///   the snapshot) adds `n` times the per-tick amounts for the `n` ticks
    ///   since its anchor.
    ///
    /// Such a job is walked again when something it depends on may move:
    /// a mutation API (through `touch`, which brings a lazy job's counters
    /// up to date first), a change to whether it is halted (`wake`), a
    /// cluster change ([`Engine::containers_changed`]) or another tick
    /// length, a task joining a container of a lazy job that then could
    /// contend, and its traffic model's next event edge, kept in the wake
    /// queue. A tick visits the jobs it walks and the wakes that are due,
    /// nothing else.
    ///
    /// Two ordered passes, no per-job look-up. The first walks the active
    /// jobs ascending by `JobId`, each finding its runtime by a forward
    /// search: a job takes its arrivals and has its tasks walked by index
    /// range, i.e. in `TaskId` order. An active id with no runtime (orphan
    /// tasks) is walked where it falls, so it keeps its place in that
    /// order. One job's arrivals touch nothing another job's walk reads, so
    /// doing them job by job instead of fleet-wide first changes no value.
    /// The second pass takes the collected work, still ascending by job,
    /// each item naming its runtime. Bytes are integers, so the only sum
    /// with an order is each container's f64 CPU demand, and it sees its
    /// terms in the order of a full `TaskId`-ordered walk (a lazy job's
    /// tasks sit only on containers whose factor is 1 either way).
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
        is_halted: &dyn Fn(JobId) -> bool,
    ) -> TickOutcome {
        let capacity = |container| container_cpu.get(&container).copied();
        self.tick_with(now, dt, &capacity, container_cpu.len(), is_halted)
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
        is_halted: &dyn Fn(JobId) -> bool,
    ) -> TickOutcome {
        #[cfg(test)]
        if self.walk_every_job {
            self.forget_derived();
        }
        if dt != self.lazy_dt {
            // The lazy jobs' per-tick amounts were taken at another length.
            self.wake_lazy();
            self.lazy_dt = dt;
        }
        while self.wakes.first().is_some_and(|&(wake, _)| wake <= now) {
            let (_, job) = self.wakes.pop_first().expect("a due wake");
            self.queued.remove(&job);
            self.walk_again(job);
        }
        self.ticks += 1;
        let dt_secs = dt.as_secs_f64();
        let Engine {
            jobs,
            tasks,
            down_count,
            changes,
            dirty_drains,
            active,
            lazy,
            wakes,
            queued,
            ticks,
            shares,
            last_tick,
            scratch,
            ..
        } = self;
        let JobTable {
            ids,
            runtimes,
            cols,
        } = jobs;
        let TaskArena {
            slots,
            index,
            slices,
            ..
        } = tasks;
        let TickScratch {
            works,
            walked,
            loads,
        } = scratch;
        works.clear();
        walked.clear();
        loads.reset(healthy);
        let mut dirty = DirtyJobs {
            feed: changes,
            drains: *dirty_drains,
        };
        let mut work = TickWork::default();

        // Pass 1: arrivals, then per-task desired work and per-container
        // CPU demand.
        // One cursor over the task index serves every walked job: while
        // consecutive jobs are walked it runs straight on, and only tasks
        // of skipped jobs in between cost a new descent.
        let mut cursor = index.range(..).peekable();
        // Every runtime below `from` belongs to a job already passed.
        let mut from = 0;
        for &job in active.iter() {
            if ids.get(from) != Some(&job) {
                from += ids[from..].partition_point(|&id| id < job);
            }
            if ids.get(from) != Some(&job) {
                let quiet = walk_orphan(index, slots, job, now, down_count, dirty.feed, &mut work);
                walked.push(Walked {
                    job,
                    runtime: None,
                    quiet,
                    steady: false,
                    drained: true,
                    rated: false,
                    halted: false,
                });
                continue;
            }
            let runtime = from;
            from += 1;
            work.runtimes += 1;
            let rt = &mut runtimes[runtime];
            let job_cols = cols.get_mut(rt.cols);
            let drained = rt.undrained == 0;
            let rate = rt.traffic.arrival_rate_memo(now, &mut rt.noise);
            // Did a task's usage reading move in this pass?
            let mut dirtied = false;
            if rate > 0.0 {
                let arrived = floor_bytes(rate * dt_secs);
                rt.window_arrived += arrived;
                let mut split = Split::new(arrived);
                let last = job_cols.len() - 1;
                for (i, p) in job_cols.iter_mut().enumerate() {
                    let part = split.next(p.cum, i == last);
                    if part > 0 {
                        if p.appended == p.consumed {
                            rt.undrained += 1;
                        }
                        p.appended += part;
                    }
                }
                rt.durable_epoch += 1;
            }
            // Processing halted (by the platform or its consumer) pins memory
            // at the idle floor, so it holds the job as arrivals do.
            let halted = is_halted(job) || rt.traffic.consumer_disabled(now);
            let mut quiet = !(rate > 0.0 || halted);
            let mut steady = true;
            if cursor.peek().is_some_and(|(id, _)| id.job < job) {
                cursor = index.range(TaskId::new(job, 0)..).peekable();
            }
            while let Some((&id, &slot)) = cursor.next_if(|(id, _)| id.job == job) {
                work.tasks += 1;
                let task = slots[slot as usize].as_mut().expect("indexed slot");
                match task.restart(now) {
                    Restart::Down { zeroed } => {
                        dirtied |= zeroed;
                        quiet = false;
                        steady = false;
                        continue;
                    }
                    Restart::Up { cleared: true } => {
                        *down_count -= 1;
                        quiet = false;
                        steady = false;
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
                let Some(load) = loads.index_of(task.container, container_cpu) else {
                    // Host dead: task is effectively down. Hosts return
                    // without an engine call, so the task is at rest only
                    // if the normal path would then find nothing to
                    // rewrite and nothing to kill.
                    steady = false;
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
                let desired =
                    slice_backlog(job_cols, slices.get(task.slice)).min(floor_bytes(capacity));
                loads.demand(load, real(desired) / (rt.true_per_thread_rate * dt_secs));
                works.push(Work {
                    index: id.index,
                    slot,
                    runtime: runtime as u32,
                    walk: walked.len() as u32,
                    load,
                    desired,
                });
            }
            if dirtied {
                dirty.mark(job, &mut rt.dirty_mark);
            }
            walked.push(Walked {
                job,
                runtime: Some(runtime as u32),
                quiet,
                steady: steady && !dirtied,
                drained,
                rated: rate > 0.0,
                halted,
            });
        }

        // Contention factors per container.
        loads.demand_to_factor();

        // Pass 2: processing + memory + OOM. `works` ascends by job, and
        // every job in it has a runtime.
        let mut outcome = TickOutcome::default();
        for work in works.iter() {
            let rt = &mut runtimes[work.runtime as usize];
            let job_cols = cols.get_mut(rt.cols);
            let task = slots[work.slot as usize].as_mut().expect("collected above");
            let slice = slices.get(task.slice);
            let mut to_process = floor_bytes(real(work.desired) * loads.factor(work.load));
            let cpu_usage = real(to_process) / (rt.true_per_thread_rate * dt_secs);
            // `usage_moved` dirties the job; `consumed` only keeps it
            // awake.
            let mut usage_moved = false;
            let mut consumed = false;
            if task.cpu_usage != cpu_usage {
                task.cpu_usage = cpu_usage;
                usage_moved = true;
            }
            task.step = 0;
            if to_process > 0 {
                // Consume proportionally to per-partition backlog. The
                // slice is summed again rather than carried over from pass
                // 1: an earlier task of the job may have consumed from a
                // shared partition since (overlap is reported by the
                // invariant checker, not prevented).
                let slice_backlog = slice_backlog(job_cols, slice);
                if slice_backlog > 0 {
                    to_process = to_process.min(slice_backlog);
                    consume(
                        job_cols,
                        slice,
                        to_process,
                        slice_backlog,
                        &mut rt.undrained,
                    );
                    rt.window_processed += to_process;
                    task.window += to_process;
                    task.step = to_process;
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
                dirty.mark(ids[work.runtime as usize], &mut rt.dirty_mark);
            }
            let oom = task.over_limit(usage);
            if oom {
                outcome
                    .oom_kills
                    .push(TaskId::new(ids[work.runtime as usize], work.index));
                rt.window_ooms += 1;
            }
            if usage_moved || consumed || oom {
                let walk = &mut walked[work.walk as usize];
                walk.quiet = false;
                walk.steady &= !(usage_moved || oom);
            }
        }

        // Settle every walked job that came through untouched and has
        // nothing left to drain, and leave every steady one lazy. If earlier
        // walks left something in a settling job's scaler window, the scaler
        // round, which no longer finds the job among the walked ones, is
        // told. An empty window is not: a restored engine re-settles every
        // settled job, and marking those would make its feed differ from
        // the uninterrupted one's.
        for walk in walked.iter() {
            let Some(runtime) = walk.runtime else {
                if walk.quiet {
                    active.remove(&walk.job);
                }
                continue;
            };
            if !(walk.quiet || walk.steady && walk.drained) {
                continue;
            }
            let rt = &mut runtimes[runtime as usize];
            if rt.undrained != 0 {
                continue;
            }
            let wake = if walk.quiet {
                if holds_window(rt, index, slots, walk.job) {
                    dirty.feed.mark_for(EngineReader::Scaler, walk.job);
                }
                // Nothing of its own wakes it before its traffic may move.
                if rt.traffic.steady_at(now) {
                    rt.traffic.next_edge(now)
                } else {
                    Some(now + Duration::from_millis(1))
                }
            } else if rt.traffic.steady_at(now) {
                // What each of its tasks consumed, and so what arrived: a
                // steady job that is not halted walked every task through
                // the processing path.
                let steps = index
                    .range(job_range(walk.job))
                    .map(|(_, &slot)| slots[slot as usize].as_ref().expect("indexed slot").step)
                    .filter(|_| !walk.halted);
                let arrived: u64 = steps.clone().sum();
                if arrived > 0 && !uncontendable(walk.job, index, slots, loads, shares) {
                    continue;
                }
                if arrived > 0 {
                    for (_, &slot) in index.range(job_range(walk.job)) {
                        let container = slots[slot as usize]
                            .as_ref()
                            .expect("indexed slot")
                            .container;
                        let share = shares
                            .get_mut(&container)
                            .expect("a walked task's container");
                        share.lazy += 1;
                        share.capacity = loads.capacity_of(container).expect("a live container");
                    }
                }
                let consuming = steps.clone().filter(|&step| step > 0).count() as u64;
                lazy.insert(
                    walk.job,
                    Lazy {
                        anchor: *ticks,
                        arrived,
                        epochs: walk.rated as u64 + consuming,
                    },
                );
                rt.traffic.next_edge(now)
            } else {
                continue;
            };
            active.remove(&walk.job);
            if let Some(wake) = wake {
                queued.insert(walk.job, wake);
                wakes.insert((wake, walk.job));
            }
        }
        // A walk of the whole fleet (the first tick, or the first after a
        // restore) sizes the scratch for every task. Once the walks are
        // down to a fraction of that, give the room back: it would
        // otherwise be held for the engine's lifetime.
        if works.capacity() > 4 * works.len().max(1024) {
            works.shrink_to(2 * works.len());
        }
        if walked.capacity() > 4 * walked.len().max(1024) {
            walked.shrink_to(2 * walked.len());
        }
        *last_tick = work;
        outcome
    }

    /// The ticks `job` has been skipped as lazy since its anchor, with its
    /// lazy record (`(0, None)` for any other job).
    fn skipped(&self, job: JobId) -> (u64, Option<&Lazy>) {
        self.lazy
            .get(&job)
            .map_or((0, None), |lazy| (self.ticks - lazy.anchor, Some(lazy)))
    }

    /// The `at`-th job as its readers see it.
    fn view(&self, at: usize) -> JobView<'_> {
        let (n, lazy) = self.skipped(self.jobs.ids[at]);
        self.jobs.view(at, n * lazy.map_or(0, |lazy| lazy.arrived))
    }

    /// A job's window entries, ascending by task id: its running tasks'
    /// and those of tasks that left mid-window. A running task of a lazy
    /// job adds its step for each tick skipped.
    fn window_entries<'a>(
        &'a self,
        job: JobId,
        rt: &'a JobRuntime,
    ) -> impl Iterator<Item = (TaskId, u64)> + 'a {
        let n = match self.skipped(job) {
            (n, Some(lazy)) if lazy.arrived > 0 => n,
            _ => 0,
        };
        let mut running = self
            .tasks
            .range_of_job(job)
            .filter_map(move |(&id, task)| {
                let window = task.window + n * task.step;
                (window > 0).then_some((id, window))
            })
            .peekable();
        let mut departed = rt.window_departed.iter().copied().peekable();
        std::iter::from_fn(move || match (running.peek(), departed.peek()) {
            (Some(a), Some(b)) if b.0 < a.0 => departed.next(),
            (Some(_), _) => running.next(),
            (None, _) => departed.next(),
        })
    }

    /// Drain and reset the scaler-window accumulators for one job into
    /// `into`, in one walk of the job's task range, and hand back the
    /// job's runtime so the caller need not look it up again. An
    /// unregistered job drains nothing (and its tasks keep their bytes):
    /// `into` is left empty and the answer is `None`.
    pub fn drain_window(&mut self, job: JobId, into: &mut WindowStats) -> Option<JobView<'_>> {
        into.per_task.clear();
        into.running.clear();
        let Ok(at) = self.jobs.ids.binary_search(&job) else {
            (into.arrived, into.processed, into.ooms) = (0.0, 0.0, 0);
            return None;
        };
        let rt = &mut self.jobs.runtimes[at];
        if let Some(lazy) = self.lazy.get_mut(&job) {
            catch_up(
                self.ticks,
                job,
                lazy,
                rt,
                &mut self.jobs.cols,
                &mut self.tasks,
            );
        }
        into.arrived = std::mem::take(&mut rt.window_arrived) as f64;
        into.processed = std::mem::take(&mut rt.window_processed) as f64;
        into.ooms = std::mem::take(&mut rt.window_ooms);
        let mut departed = rt.window_departed.drain(..).peekable();
        let TaskArena { index, slots, .. } = &mut self.tasks;
        for (&id, &slot) in index.range(job_range(job)) {
            let task = slots[slot as usize].as_mut().expect("indexed slot");
            into.per_task.extend(std::iter::from_fn(|| {
                departed
                    .next_if(|&(left, _)| left < id)
                    .map(|(left, bytes)| (left, bytes as f64))
            }));
            let window = std::mem::take(&mut task.window);
            if window > 0 {
                into.per_task.push((id, window as f64));
            }
            into.running.push(RunningTask {
                id,
                processed: window as f64,
                memory_mb: task.memory_usage_mb,
                started_at: task.started_at,
            });
        }
        into.per_task
            .extend(departed.map(|(left, bytes)| (left, bytes as f64)));
        Some(self.view(at))
    }

    /// Mirror accumulated arrivals into the Scribe substrate and commit
    /// consumed offsets to the checkpoint store. Called on the checkpoint
    /// cadence — tasks checkpoint periodically, not per record.
    ///
    /// Each partition is an exact integer copy: the bytes arrived since the
    /// last sync are mirrored, and the consumed offset, capped at the
    /// durable tail, is committed.
    ///
    /// Incremental: a job is skipped when its durability epoch has not
    /// moved since the last flush *and* its category's total-appended
    /// counter is unchanged (no other writer touched the durable tail).
    /// Skipping is exact: with both unchanged, no partition has a byte to
    /// mirror and the checkpoint commit would either not fire or rewrite
    /// its current value (a no-op — the first-ever sync, which creates the
    /// checkpoint entries, is forced by the `u64::MAX` epoch sentinel). A torn-tail salvage between rounds
    /// only lowers the tail, which lowers the commit target below the
    /// persisted checkpoint — also a no-op. The full per-partition path
    /// remains the crash-recovery oracle and runs whenever in doubt.
    ///
    /// One pass, no search per job: the checkpoint rows ascend by job like
    /// the runtimes and are walked in step; each job finds its category by
    /// the id it is bound to; and each partition is one step that indexes
    /// its column, its category partition and its checkpoint pair. The ids
    /// are the bus's, so an engine is synced against the bus its ids came
    /// from (or one restored from it).
    pub fn sync_durable(&mut self, scribe: &mut Scribe, checkpoints: &mut CheckpointStore) {
        let JobTable {
            ids,
            runtimes,
            cols,
        } = &mut self.jobs;
        for (&job, lazy) in &mut self.lazy {
            let at = ids.binary_search(&job).expect("a lazy job is registered");
            catch_up(
                self.ticks,
                job,
                lazy,
                &mut runtimes[at],
                cols,
                &mut self.tasks,
            );
        }
        // The rows ascend by job like the runtimes: one cursor finds them.
        let mut rows = checkpoints.rows();
        for (&job, rt) in ids.iter().zip(runtimes.iter_mut()) {
            let mut category = rt.category.map(|id| scribe.view(id));
            let appended = category.as_ref().map(CategoryView::total_appended);
            if rt.last_durable_epoch == rt.durable_epoch && rt.last_category_appended == appended {
                continue;
            }
            let mut offsets = rows.job(job);
            for (i, p) in cols.get_mut(rt.cols).iter_mut().enumerate() {
                let bytes = p.appended - p.scribe_synced;
                p.scribe_synced = p.appended;
                // With no category, or no such partition in it, appends are
                // dropped but the mirror cursor still advances, and the
                // checkpoint commits against a tail of 0.
                let tail = category
                    .as_mut()
                    .map_or(0, |view| view.append_then_tail(i, bytes));
                // Commit the consumed offset, capped at the durable tail: a
                // checkpoint must name a readable position. After a WAL
                // torn-tail salvage the tail can sit *below* both the
                // engine's consumed counter and the last persisted
                // checkpoint — never move the checkpoint backwards here
                // (recovery clamps it explicitly, with a trace event) and
                // never re-advance it past the tail.
                offsets.raise_next(i, p.consumed.min(tail));
            }
            rt.last_category_appended = category.map(|view| view.total_appended());
            rt.last_durable_epoch = rt.durable_epoch;
        }
    }
}

use turbine_types::{Snap, SnapError, SnapReader, SnapWriter};

// By hand, in the stream the engine had when each job and task was a heap
// object of its own: the jobs as an ordered map of runtimes (each field in
// turn, its weights (as running sums) and partition states as two
// vectors, its window as an ordered map of task bytes), then the tasks as
// ordered (id, task) pairs with their slices inline, then the feed. A
// lazy job's counters are
// written as its readers derive them, so the stream is the one a walk of
// every tick leaves. Decoding lays every block in id order and recounts
// what is derived.
impl Snap for Engine {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.jobs.ids.len() as u64);
        for (job, view) in self.jobs() {
            let rt = view.runtime;
            w.put(&job);
            w.put(&rt.traffic);
            w.put(&rt.true_per_thread_rate);
            w.put(&rt.avg_message_bytes);
            w.put(&rt.stateful);
            w.put(&rt.key_cardinality);
            w.u64(view.cols.len() as u64);
            for col in view.cols {
                w.put(&col.cum);
            }
            let (n, lazy) = self.skipped(job);
            let (arrived, epochs) = lazy.map_or((0, 0), |lazy| (lazy.arrived, lazy.epochs));
            w.u64(view.cols.len() as u64);
            let mut split = Split::new(arrived);
            let last = view.cols.len() - 1;
            for (i, col) in view.cols.iter().enumerate() {
                let part = split.next(col.cum, i == last);
                // Skipped ticks drained what they brought.
                let appended = col.appended + n * part;
                let consumed = if n * arrived > 0 {
                    appended
                } else {
                    col.consumed
                };
                w.put(&appended);
                w.put(&consumed);
                w.put(&col.scribe_synced);
            }
            w.put(&(rt.durable_epoch + n * epochs));
            w.put(&rt.last_durable_epoch);
            w.put(&rt.last_category_appended);
            w.put(&rt.category);
            w.put(&(rt.window_arrived + n * arrived));
            w.put(&(rt.window_processed + n * arrived));
            w.u64(self.window_entries(job, rt).count() as u64);
            for (task, bytes) in self.window_entries(job, rt) {
                w.put(&task);
                w.put(&bytes);
            }
            w.put(&rt.window_ooms);
        }
        w.u64(self.tasks.len() as u64);
        for (id, task) in self.tasks.iter() {
            w.put(id);
            w.put(&task.container);
            w.put(&task.threads);
            w.put(&task.reserved);
            let slice = self.partitions_of(task);
            w.u64(slice.len() as u64);
            for partition in slice {
                w.put(partition);
            }
            w.put(&task.enforcement);
            w.put(&task.started_at);
            w.put(&task.down_until);
            w.put(&task.degradation);
            w.put(&task.memory_usage_mb);
            w.put(&task.cpu_usage);
        }
        w.put(&self.changes);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut engine = Engine::default();
        // (runtime index, task, bytes), placed once the tasks are known.
        let mut windows: Vec<(usize, TaskId, u64)> = Vec::new();
        let jobs = r.len_prefix("map length")?;
        for at in 0..jobs {
            let job: JobId = r.get()?;
            if engine.jobs.ids.last().is_some_and(|&last| last >= job) {
                return Err(SnapError::Value("Engine jobs out of order"));
            }
            let traffic = r.get()?;
            let true_per_thread_rate: f64 = r.get()?;
            let avg_message_bytes = r.get()?;
            let stateful = r.get()?;
            let key_cardinality = r.get()?;
            let cols = &mut engine.jobs.cols;
            let start = cols.items.len();
            let weights = r.len_prefix("vec length")?;
            for _ in 0..weights {
                let cum = r.get()?;
                cols.items.push(PartitionCol {
                    cum,
                    ..PartitionCol::default()
                });
            }
            let partitions = r.len_prefix("vec length")?;
            for i in 0..partitions {
                let (appended, consumed, scribe_synced) = (r.get()?, r.get()?, r.get()?);
                if let Some(col) = cols.items[start..].get_mut(i) {
                    col.appended = appended;
                    col.consumed = consumed;
                    col.scribe_synced = scribe_synced;
                }
            }
            let durable_epoch = r.get()?;
            let last_durable_epoch = r.get()?;
            let last_category_appended = r.get()?;
            let category = r.get()?;
            let window_arrived = r.get()?;
            let window_processed = r.get()?;
            let entries = r.len_prefix("map length")?;
            for _ in 0..entries {
                let task: TaskId = r.get()?;
                let bytes = r.get()?;
                if task.job != job {
                    return Err(SnapError::Value("Engine window entry of another job"));
                }
                if windows
                    .last()
                    .is_some_and(|&(last_at, last, _)| last_at == at && last >= task)
                {
                    return Err(SnapError::Value("Engine window entries out of order"));
                }
                windows.push((at, task, bytes));
            }
            let window_ooms = r.get()?;
            if partitions == 0 || partitions != weights {
                return Err(SnapError::Value("JobRuntime partition shape mismatch"));
            }
            if !(true_per_thread_rate.is_finite() && true_per_thread_rate > 0.0) {
                return Err(SnapError::Value("JobRuntime per-thread rate not positive"));
            }
            let cols = Span {
                start: start as u32,
                len: partitions as u32,
            };
            let undrained = engine
                .jobs
                .cols
                .get(cols)
                .iter()
                .filter(|p| p.appended != p.consumed)
                .count();
            engine.jobs.ids.push(job);
            engine.jobs.runtimes.push(JobRuntime {
                traffic,
                true_per_thread_rate,
                avg_message_bytes,
                stateful,
                key_cardinality,
                cols,
                undrained,
                durable_epoch,
                last_durable_epoch,
                last_category_appended,
                category,
                window_arrived,
                window_processed,
                window_departed: Vec::new(),
                window_ooms,
                dirty_mark: 0,
                noise: NoiseMemo::default(),
            });
        }
        let count = r.len_prefix("Engine.tasks")?;
        let mut slice: Vec<PartitionId> = Vec::new();
        for _ in 0..count {
            let id: TaskId = r.get()?;
            let container = r.get()?;
            let threads = r.get()?;
            let reserved = r.get()?;
            let len = r.len_prefix("vec length")?;
            slice.clear();
            for _ in 0..len {
                slice.push(r.get()?);
            }
            let task = ActiveTask {
                container,
                threads,
                reserved,
                slice: Span::default(),
                enforcement: r.get()?,
                started_at: r.get()?,
                down_until: r.get()?,
                degradation: r.get()?,
                memory_usage_mb: r.get()?,
                cpu_usage: r.get()?,
                window: 0,
                step: 0,
            };
            if task.down_until.is_some() {
                engine.down_count += 1;
            }
            if engine.tasks.insert(id, task, &slice).is_some() {
                return Err(SnapError::Value("Engine duplicate task id"));
            }
        }
        for (at, task, bytes) in windows {
            match engine.tasks.get_mut(task) {
                Some(running) => running.window = bytes,
                None => engine.jobs.runtimes[at].window_departed.push((task, bytes)),
            }
        }
        engine.changes = r.get()?;
        // Decoding grows each block by doubling. Give back the spare room:
        // a restore is when two platforms are alive at once.
        engine.jobs.ids.shrink_to_fit();
        engine.jobs.runtimes.shrink_to_fit();
        engine.jobs.cols.items.shrink_to_fit();
        engine.tasks.slots.shrink_to_fit();
        engine.tasks.slices.items.shrink_to_fit();
        for (_, task) in engine.tasks.iter() {
            let share = engine.shares.entry(task.container).or_default();
            share.tasks += 1;
            share.threads += share_units(task.threads, task.degradation);
        }
        // Settlements and lazy spans are not captured: walk everything once
        // and let the first tick re-derive them.
        engine.activate_all();
        Ok(engine)
    }
}

#[cfg(test)]
impl Engine {
    /// Whether the next tick walks `job` as things stand (it is neither
    /// settled nor lazy).
    pub(crate) fn walks(&self, job: JobId) -> bool {
        self.active.contains(&job)
    }

    /// [`Engine::drain_window`] into fresh buffers.
    fn drained(&mut self, job: JobId) -> WindowStats {
        let mut stats = WindowStats::default();
        self.drain_window(job, &mut stats);
        stats
    }
}

#[cfg(test)]
mod durable_tests;

#[cfg(test)]
mod layout_tests;

#[cfg(test)]
mod settle_tests;

#[cfg(test)]
mod tests;
