//! The event-driven control plane: a typed event taxonomy, a component
//! handler table, and the drive loops.
//!
//! Instead of polling every component's [`Periodic`] on every dense tick,
//! the platform keeps one pending [`ControlEvent`] per component in a
//! [`turbine_sim::EventQueue`] and advances the clock from event to event.
//! Each handler reschedules its own next firing; fault windows enqueue
//! their activation/clear edges as wake events. Between events the data
//! plane advances in bounded steps: dense-stepping (one engine tick per
//! `config.tick`) while any job has backlog, a task is mid-restart, a
//! fault is active, or crash injection is armed — and sparse-jumping the
//! clock straight to the next due event when the fleet is quiescent.
//! That jump is the coarse skip; the ticks that do execute skip every
//! settled job on their own (see [`Engine::tick`]), so one busy job no
//! longer makes the whole fleet pay for each of them.
//!
//! # Determinism contract
//!
//! The event-driven loop reproduces the dense-tick reference stepper
//! bit-for-bit:
//!
//! * **Grid.** Control events execute on the dense tick grid: an event due
//!   at `d` executes at the first multiple of `config.tick` that is ≥ `d`
//!   (and ≥ one tick — the dense loop never executes instant 0), exactly
//!   where `fire_if_due` would have caught it.
//! * **Same-instant order.** Events landing on the same instant dispatch
//!   in the fixed component-table order below — the same order the dense
//!   `step()` consulted the components in.
//! * **Cadence arithmetic.** Each component's own [`Periodic`] remains the
//!   source of truth for due times in both modes, so missed-slot
//!   collapsing behaves identically.
//! * **Quiescent jumps.** A sparse jump lands with a single engine tick at
//!   the target instant. Idle engine ticks are idempotent after the first
//!   (no arrivals, no backlog, no restarts in flight — enforced by
//!   [`Engine::is_quiescent_through`]), so skipping the intermediate ones
//!   cannot change any observable state. Jumps are disabled outright
//!   while crash injection is armed (every dense tick draws from the RNG
//!   stream) or any fault is active.

use super::{Turbine, TurbineConfig, RESTART_DELAY};
use crate::engine::EngineReader;
use crate::invariants::InvariantView;
use std::collections::BTreeSet;
use turbine_jobstore::StoreReader;
use turbine_sim::{EventQueue, Fault, Periodic};
use turbine_trace::{Component as TraceComponent, TraceData};
use turbine_types::{Duration, JobId, SimTime};

/// A typed control-plane event. Periodic component rounds carry no
/// payload — the component table maps each variant to its handler —
/// while the wake variants only pin an instant to the execution grid so
/// the loop stops there (their work happens in the pre-event data-plane
/// step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlEvent {
    /// Task Manager heartbeats + proactive reboots, followed by the Shard
    /// Manager fail-over check.
    Heartbeat,
    /// Task Manager snapshot refresh from the Task Service.
    TmRefresh,
    /// State Syncer reconciliation round.
    SyncRound,
    /// Auto Scaler evaluation round.
    ScalerRound,
    /// Task Manager load reports to the Shard Manager.
    LoadReport,
    /// Cluster-wide shard rebalance.
    Rebalance,
    /// Capacity Manager evaluation round.
    CapacityRound,
    /// Scribe/checkpoint durability sync.
    Checkpoint,
    /// Metric sampling.
    MetricsSample,
    /// Wake event pinning a scheduled fault-window edge (activation or
    /// expiry) to the grid; the chaos engine applies the edge in the
    /// data-plane step at that instant.
    FaultEdge,
    /// Wake event pinning the end of a task's restart delay to the grid
    /// so an otherwise-idle fleet re-evaluates promptly.
    TaskRestartDue,
}

/// How [`Turbine::drive_until`] advances the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveMode {
    /// Event-queue scheduling with sparse jumps over quiescent spans (the
    /// default used by [`Turbine::run_for`] / [`Turbine::run_until`]).
    EventDriven,
    /// The pre-refactor reference: one `fire_if_due` poll of every
    /// component per dense tick. Kept as the equivalence oracle for tests
    /// and scheduler benchmarks: a reference selector, not a deployment
    /// option.
    DenseTick,
    /// The event-driven schedule with every job, invariant scope and Task
    /// Manager container marked changed at each executed instant, so each
    /// change-driven round — State Syncer, load reports, invariant check —
    /// does the full scan through its one body. A reference selector, not
    /// stored in a snapshot: `tests/tests/sparse_equivalence.rs`, the
    /// platform's `invariant_tests` and `scale_soak`'s reference leg drive
    /// it, and compare it with [`DriveMode::EventDriven`].
    FullScan,
}

/// One periodic control-plane component: its event tag, cadence, phase,
/// gate (fault conditions that skip a due round — the `Periodic` slot is
/// consumed either way, exactly as in the dense stepper), and handler.
pub(crate) struct ControlComponent {
    /// Display name (validation errors, docs).
    pub(crate) name: &'static str,
    /// Name of the `TurbineConfig` field holding the cadence.
    pub(crate) cadence_name: &'static str,
    /// Event variant this component owns.
    pub(crate) event: ControlEvent,
    /// The component's tag in the decision trace (span records, latency
    /// histograms).
    pub(crate) trace: TraceComponent,
    /// Cadence from the configuration.
    pub(crate) cadence: fn(&TurbineConfig) -> Duration,
    /// First-firing phase offset from the configuration.
    pub(crate) phase: fn(&TurbineConfig) -> Duration,
    /// Whether a due round actually runs right now.
    pub(crate) gate: fn(&Turbine) -> bool,
    /// The round handler.
    pub(crate) run: fn(&mut Turbine),
}

fn always(_: &Turbine) -> bool {
    true
}

/// The component table. **Order is the same-instant dispatch order** and
/// matches the order the dense `step()` consulted the components in —
/// changing it changes simulation outcomes. New control loops register
/// here (an event variant, a cadence, a handler) instead of editing a
/// monolithic step function.
const COMPONENTS: &[ControlComponent] = &[
    ControlComponent {
        name: "heartbeat",
        cadence_name: "heartbeat_interval",
        event: ControlEvent::Heartbeat,
        trace: TraceComponent::Heartbeat,
        cadence: |c| c.heartbeat_interval,
        // Heartbeats start at time zero (first delivery one tick in).
        phase: |_| Duration::ZERO,
        gate: always,
        run: |t| {
            t.heartbeat_round();
            t.failover_check();
        },
    },
    ControlComponent {
        name: "task-manager refresh",
        cadence_name: "tm_refresh_interval",
        event: ControlEvent::TmRefresh,
        trace: TraceComponent::TmRefresh,
        cadence: |c| c.tm_refresh_interval,
        phase: |c| c.tm_refresh_interval,
        // While the Task Service (or the Job Store behind it) is down,
        // refreshes fail and Task Managers keep serving from their cached
        // snapshot (§II degraded mode).
        gate: |t| {
            !t.faults.is_active(&Fault::TaskServiceDown)
                && !t.faults.is_active(&Fault::JobStoreDown)
        },
        run: Turbine::tm_refresh_round,
    },
    ControlComponent {
        name: "state syncer",
        cadence_name: "sync_interval",
        event: ControlEvent::SyncRound,
        trace: TraceComponent::StateSyncer,
        cadence: |c| c.sync_interval,
        phase: |c| c.sync_interval,
        // Skipped while the syncer process is crashed or its backing Job
        // Store is unreachable; the expected-vs-running diff persists in
        // the store, so skipped rounds lose nothing.
        gate: |t| {
            !t.faults.is_active(&Fault::SyncerCrash) && !t.faults.is_active(&Fault::JobStoreDown)
        },
        run: Turbine::syncer_round,
    },
    ControlComponent {
        name: "auto scaler",
        cadence_name: "scaler_interval",
        event: ControlEvent::ScalerRound,
        trace: TraceComponent::AutoScaler,
        cadence: |c| c.scaler_interval,
        phase: |c| c.scaler_interval,
        // Scaler decisions are writes to the Job Store's scaler level, so
        // an unavailable store pauses scaling.
        gate: |t| !t.faults.is_active(&Fault::JobStoreDown),
        run: Turbine::scaler_round,
    },
    ControlComponent {
        name: "load report",
        cadence_name: "load_report_interval",
        event: ControlEvent::LoadReport,
        trace: TraceComponent::LoadReport,
        cadence: |c| c.load_report_interval,
        phase: |c| c.load_report_interval,
        gate: always,
        run: Turbine::load_report_round,
    },
    ControlComponent {
        name: "rebalance",
        cadence_name: "rebalance_interval",
        event: ControlEvent::Rebalance,
        trace: TraceComponent::Rebalance,
        cadence: |c| c.rebalance_interval,
        phase: |c| c.rebalance_interval,
        gate: |t| t.config.load_balancing_enabled,
        run: Turbine::rebalance_round,
    },
    ControlComponent {
        name: "capacity manager",
        cadence_name: "capacity_interval",
        event: ControlEvent::CapacityRound,
        trace: TraceComponent::CapacityManager,
        cadence: |c| c.capacity_interval,
        phase: |c| c.capacity_interval,
        gate: always,
        run: Turbine::capacity_round,
    },
    ControlComponent {
        name: "checkpoint sync",
        cadence_name: "checkpoint_interval",
        event: ControlEvent::Checkpoint,
        trace: TraceComponent::Checkpoint,
        cadence: |c| c.checkpoint_interval,
        phase: |c| c.checkpoint_interval,
        gate: always,
        run: Turbine::checkpoint_round,
    },
    ControlComponent {
        name: "metrics",
        cadence_name: "metrics_interval",
        event: ControlEvent::MetricsSample,
        trace: TraceComponent::Metrics,
        cadence: |c| c.metrics_interval,
        phase: |c| c.metrics_interval,
        gate: always,
        run: Turbine::metrics_round,
    },
];

/// The component table (shared with config validation).
pub(crate) fn components() -> &'static [ControlComponent] {
    COMPONENTS
}

/// Per-component schedule state plus the event queue.
#[derive(Debug)]
pub(crate) struct ControlSchedule {
    /// The pending control events, time-ordered with FIFO tie-breaking.
    queue: EventQueue<ControlEvent>,
    /// One cadence tracker per table entry — the source of truth for due
    /// times in both drive modes.
    periodics: Vec<Periodic>,
    /// Execution instant of the queued event per component (`None` =
    /// nothing queued). Lets the dispatcher recognise its own fresh event
    /// and ignore stale ones.
    queued: Vec<Option<SimTime>>,
}

impl ControlSchedule {
    /// Pending control events (the ODS `control_queue_depth` gauge).
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn new(config: &TurbineConfig) -> Self {
        ControlSchedule {
            queue: EventQueue::new(),
            periodics: COMPONENTS
                .iter()
                .map(|c| Periodic::with_phase((c.cadence)(config), (c.phase)(config)))
                .collect(),
            queued: vec![None; COMPONENTS.len()],
        }
    }
}

/// First multiple of `tick` that is ≥ `at`.
fn grid_ceil(at: SimTime, tick: Duration) -> SimTime {
    let ms = at.as_millis();
    let tick_ms = tick.as_millis();
    let rem = ms % tick_ms;
    if rem == 0 {
        at
    } else {
        SimTime::from_millis(ms + (tick_ms - rem))
    }
}

impl Turbine {
    /// Advance the simulation to absolute time `end` under an explicit
    /// drive mode. Every mode executes work only at multiples of
    /// `config.tick` and finishes at the first grid instant ≥ `end` (the
    /// dense loop has always overshot a non-aligned `end` to the grid).
    pub fn drive_until(&mut self, end: SimTime, mode: DriveMode) {
        match mode {
            DriveMode::DenseTick => self.drive_dense(end),
            DriveMode::EventDriven => self.drive_event(end, false),
            DriveMode::FullScan => self.drive_event(end, true),
        }
    }

    /// The full-scan reference's input, as if everything had changed:
    /// every expected ∪ running job for every reader of the Job Store's
    /// feed, every invariant scope, every Task Manager's container for a
    /// load report. Nothing else: every engine job has a store row, and a
    /// cluster change rescans standby isolation too.
    fn mark_everything_changed(&mut self) {
        self.jobs.store_mut().refeed_all();
        self.pending_dirty.distributed = true;
        self.pending_dirty.cluster = true;
        self.pending_dirty.quarantine = true;
        self.load_dirty_containers
            .extend(self.task_managers.keys().copied());
    }

    /// The pre-refactor dense stepper: every component polled via
    /// `fire_if_due` on every tick. Reference oracle for equivalence
    /// tests and the scheduler benchmark.
    fn drive_dense(&mut self, end: SimTime) {
        while self.now < end {
            self.now += self.config.tick;
            self.data_plane_tick(false);
            self.control_instant();
            self.check_invariants();
        }
    }

    /// Event-driven drive: hop from control event to control event,
    /// advancing the data plane densely or sparsely in between; with
    /// `full_scan`, mark everything changed at each executed instant.
    fn drive_event(&mut self, end: SimTime, full_scan: bool) {
        let tick = self.config.tick;
        let final_instant = grid_ceil(end, tick);
        self.arm_components();
        while self.now < final_instant {
            // Next stop: the earliest pending event, capped at the end of
            // this drive (events beyond it stay queued for the next call).
            let target = match self.sched.queue.peek_time() {
                Some(at) if at <= final_instant => at,
                _ => final_instant,
            };
            debug_assert!(
                target > self.now,
                "events at or before now are always drained"
            );
            self.advance_data_plane(target);
            if full_scan {
                self.mark_everything_changed();
            }
            let mut popped: Vec<(SimTime, ControlEvent)> = Vec::new();
            while let Some(entry) = self.sched.queue.pop_until(self.now) {
                popped.push(entry);
            }
            // Dispatch in canonical component-table order — never in pop
            // order — so same-instant rounds keep the dense sequence.
            // Wake events (FaultEdge, TaskRestartDue) carry no handler:
            // they only forced `target` onto this instant.
            for (i, component) in COMPONENTS.iter().enumerate() {
                let fresh = popped
                    .iter()
                    .any(|&(at, ev)| ev == component.event && self.sched.queued[i] == Some(at));
                if fresh {
                    self.sched.queued[i] = None;
                    let due = self.sched.periodics[i].fire_if_due(self.now);
                    if due && (component.gate)(self) {
                        self.dispatch_component(i);
                    }
                    self.arm_component(i);
                }
            }
            self.check_invariants();
        }
    }

    /// Ensure every periodic component has exactly one pending event, and
    /// drop leftovers from a previous dense drive (their instants are in
    /// the past; the periodics already advanced beyond them).
    fn arm_components(&mut self) {
        while self.sched.queue.pop_until(self.now).is_some() {}
        for i in 0..COMPONENTS.len() {
            match self.sched.queued[i] {
                Some(at) if at > self.now => {}
                _ => {
                    self.sched.queued[i] = None;
                    self.arm_component(i);
                }
            }
        }
    }

    /// Queue component `i`'s next firing: its `Periodic` due time rounded
    /// up to the execution grid, and strictly in the future (the dense
    /// loop never executes instant zero, and re-arming at the current
    /// instant must not re-fire it).
    fn arm_component(&mut self, i: usize) {
        debug_assert!(self.sched.queued[i].is_none());
        let due = self.sched.periodics[i].next_due();
        let exec = grid_ceil(due, self.config.tick).max(self.now + self.config.tick);
        self.sched.queue.schedule(exec, COMPONENTS[i].event);
        self.sched.queued[i] = Some(exec);
    }

    /// Enqueue wake events for a fault window's edges so the event loop
    /// lands on the grid instants where the chaos engine will apply them.
    pub(crate) fn schedule_fault_edges(&mut self, from: SimTime, until: Option<SimTime>) {
        let tick = self.config.tick;
        let floor = self.now + tick;
        self.sched
            .queue
            .schedule(grid_ceil(from, tick).max(floor), ControlEvent::FaultEdge);
        if let Some(until) = until {
            self.sched
                .queue
                .schedule(grid_ceil(until, tick).max(floor), ControlEvent::FaultEdge);
        }
    }

    /// Enqueue a wake for the end of a restart delay (event mode only —
    /// the dense stepper re-evaluates every tick anyway and never drains
    /// the queue).
    fn schedule_restart_wake(&mut self, until: SimTime) {
        let tick = self.config.tick;
        let exec = grid_ceil(until, tick).max(self.now + tick);
        self.sched
            .queue
            .schedule(exec, ControlEvent::TaskRestartDue);
    }

    /// Advance the data plane to `target` (a grid instant): sparse-jump
    /// when provably quiescent, dense-step otherwise.
    fn advance_data_plane(&mut self, target: SimTime) {
        let tick = self.config.tick;
        if self.can_sparse_jump(target) {
            // Jump, then run the single landing tick: the first idle tick
            // after a state change still updates per-task cpu/memory
            // readings; the ones skipped in between were idempotent.
            self.now = target;
            self.data_plane_tick(true);
        } else {
            while self.now < target {
                self.now += tick;
                self.data_plane_tick(true);
            }
        }
        debug_assert!(self.now == target);
    }

    /// May the clock jump straight from `self.now` to `target`? Only when
    /// the skipped ticks are provably no-ops: no crash-injection RNG
    /// draws, no active fault (scheduled edges inside the window are
    /// impossible — they have wake events, which bound `target`), and a
    /// fully quiescent data plane across the window.
    fn can_sparse_jump(&self, target: SimTime) -> bool {
        target.as_millis() > self.now.as_millis() + self.config.tick.as_millis()
            && self.crash_mtbf.is_none()
            && !self.faults.any_active()
            && self.engine.is_quiescent_through(self.now, target)
    }

    /// One dense poll of every component, in table order (the reference
    /// stepper's control phase). `fire_if_due` runs before the gate, so a
    /// gated-off round still consumes its slot — identical in both modes.
    fn control_instant(&mut self) {
        for (i, component) in COMPONENTS.iter().enumerate() {
            let due = self.sched.periodics[i].fire_if_due(self.now);
            if due && (component.gate)(self) {
                self.dispatch_component(i);
            }
        }
    }

    /// Run component `i`'s round inside a trace span. Shared by both drive
    /// modes, so the decision trace (and its digest) is identical whether
    /// the round was reached by a dense poll or a queued event. The span
    /// is lazy — an uneventful round leaves no trace record — while the
    /// wall-clock cost of every round feeds the component's latency
    /// histogram (latencies never enter the digest).
    fn dispatch_component(&mut self, i: usize) {
        let component = &COMPONENTS[i];
        let timer = std::time::Instant::now();
        self.trace.begin_round(self.now, component.trace);
        (component.run)(self);
        self.trace
            .end_round(component.trace, timer.elapsed().as_nanos() as u64);
    }

    /// One data-plane tick at `self.now`: fault-window edges first, then
    /// the engine (arrivals, processing, contention, OOM kills), then
    /// random crash injection. This is everything the dense stepper did
    /// per tick outside the periodic control loops.
    fn data_plane_tick(&mut self, schedule_wakes: bool) {
        let now = self.now;
        self.metrics.ticks_executed.incr();
        let timer = std::time::Instant::now();
        self.trace.begin_round(now, TraceComponent::DataPlane);

        // Chaos engine first: cross the edges of any scheduled fault
        // windows and apply their side effects before anything else
        // observes the world.
        let transitions = self.faults.advance(now);
        for t in transitions {
            self.apply_fault_transition(t);
        }

        // Data plane. Jobs whose input category is stalled receive
        // arrivals but process nothing — the dependency-failure shape the
        // root-causer must recognize. Built from the active stalls, so it
        // costs nothing while no fault is active.
        let stalled_categories: Vec<&str> = self
            .faults
            .active()
            .filter_map(|fault| match fault {
                Fault::ScribeStall(category) => Some(category.as_str()),
                _ => None,
            })
            .collect();
        let stalled: BTreeSet<JobId> = if stalled_categories.is_empty() {
            BTreeSet::new()
        } else {
            self.categories
                .iter()
                .filter(|(_, category)| stalled_categories.contains(&category.as_str()))
                .map(|(&job, _)| job)
                .collect()
        };
        let generation = self.cluster.generation();
        let container_cpu =
            match &mut self.container_cpu {
                Some((built_at, map)) if *built_at == generation => &*map,
                cache => {
                    let cluster = &self.cluster;
                    let healthy = cluster.healthy_containers();
                    let mut map = crate::engine::container_map(healthy.len());
                    map.extend(healthy.into_iter().filter_map(|c| {
                        cluster.container_capacity(c).ok().map(|cap| (c, cap.cpu))
                    }));
                    &cache.insert((generation, map)).1
                }
            };
        let paused = &self.paused;
        let stopped = &self.capacity_stopped;
        let outcome = self
            .engine
            .tick(now, self.config.tick, container_cpu, &|job| {
                paused.contains(&job) || stopped.contains(&job) || stalled.contains(&job)
            });
        for task in outcome.oom_kills {
            self.metrics.oom_kills.incr();
            self.metrics.task_restarts.incr();
            if let Some(container) = self.engine.task(task).map(|t| t.container) {
                self.trace
                    .emit(now, TraceData::OomRestart { task, container });
            }
            let until = now + RESTART_DELAY;
            self.engine.knock_down_task(task, until);
            if schedule_wakes {
                self.schedule_restart_wake(until);
            }
        }

        // Random crash injection (when enabled): pick victims with
        // per-tick probability tick/mtbf across the fleet, restart them
        // via their Task Manager (the paper's "restart tasks upon
        // crashes"). The victim is resolved with a single ordered-map
        // lookup on the engine.
        if let Some(mtbf) = self.crash_mtbf {
            let p_crash = self.config.tick.as_secs_f64() / mtbf.as_secs_f64();
            if self.rng.chance(p_crash.min(1.0)) && self.engine.total_tasks() > 0 {
                let k = self.rng.uniform_usize(0, self.engine.total_tasks());
                let (victim, container) = self.engine.nth_task(k).expect("k < total_tasks");
                let event = self
                    .task_managers
                    .get_mut(&container)
                    .and_then(|tm| tm.restart_crashed(victim));
                if let Some(event) = event {
                    self.handle_task_events(container, &[event]);
                    if schedule_wakes {
                        self.schedule_restart_wake(now + RESTART_DELAY);
                    }
                }
            }
        }
        self.trace
            .end_round(TraceComponent::DataPlane, timer.elapsed().as_nanos() as u64);
    }

    /// Evaluate the continuous invariants over the current state (no-op
    /// unless enabled). Runs at every executed instant in both modes.
    fn check_invariants(&mut self) {
        // One job set: what both change feeds hold for the checker (drained
        // with checking off too, so they stay bounded) and what the control
        // loops marked. The check walks only these.
        let mut dirty_jobs = self.engine.drain_changes(EngineReader::Checker);
        dirty_jobs.append(&mut self.jobs.store_mut().drain_changes(StoreReader::Checker));
        let Some(mut checker) = self.invariants.take() else {
            return;
        };
        dirty_jobs.append(&mut self.pending_dirty.jobs);
        let dirty = crate::invariants::DirtyInput {
            jobs: &dirty_jobs,
            distributed_changed: std::mem::take(&mut self.pending_dirty.distributed),
            cluster_changed: std::mem::take(&mut self.pending_dirty.cluster),
            quarantine_changed: std::mem::take(&mut self.pending_dirty.quarantine),
            standby_changed: std::mem::take(&mut self.pending_dirty.standby),
        };
        // Containers whose local state is authoritative: healthy host
        // and an intact Shard Manager connection. A dead or partitioned
        // container legitimately holds stale state until it rejoins.
        self.refresh_live_containers();
        let live_containers = &self.live_containers.as_ref().expect("refreshed").1;
        let quiet_since = (!self.faults.any_active())
            .then(|| self.faults.last_transition().unwrap_or(SimTime::ZERO));
        let view = InvariantView {
            now: self.now,
            cluster: &self.cluster,
            engine: &self.engine,
            task_managers: &self.task_managers,
            shard_manager: &self.shard_manager,
            jobs: &self.jobs,
            syncer: &self.syncer,
            paused: &self.paused,
            capacity_stopped: &self.capacity_stopped,
            live_containers,
            quiet_since,
            shadow: &self.shadow,
            fresh_promotions: &self.fresh_promotions,
            fresh_revivals: &self.fresh_revivals,
        };
        checker.check(&view, &dirty);
        self.fresh_promotions.clear();
        self.fresh_revivals.clear();
        self.invariants = Some(checker);
    }
}

use turbine_types::{snap_enum, snap_struct};

snap_enum!(ControlEvent {
    0 => Heartbeat, 1 => TmRefresh, 2 => SyncRound, 3 => ScalerRound, 4 => LoadReport,
    5 => Rebalance, 6 => CapacityRound, 7 => Checkpoint, 8 => MetricsSample, 9 => FaultEdge,
    10 => TaskRestartDue,
});

snap_struct!(ControlSchedule { queue, periodics, queued }
    check |s| s.periodics.len() == COMPONENTS.len() && s.queued.len() == COMPONENTS.len()
        => "ControlSchedule component count mismatch");
