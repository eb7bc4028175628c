//! The Turbine platform: all control-plane components wired together and
//! driven in simulated time.
//!
//! Production cadences (paper values) are the defaults: State Syncer every
//! 30 s, Task Manager refresh every 60 s, load reports every 10 min,
//! cluster-wide rebalance every 30 min.
//!
//! The protocol values no deployment varies are constants, each beside the
//! code that reads it:
//!
//! * `TASK_SERVICE_TTL` — the Task Service snapshot cache lives 90 s
//!   (paper);
//! * `CONNECTION_TIMEOUT` — a container whose connection to the Shard
//!   Manager is lost reboots itself after 40 s, before the Shard Manager's
//!   60 s fail-over ([`turbine_shardmgr::FAILOVER_INTERVAL`]) hands its
//!   shards to another container (paper; checked at compile time);
//! * `CONTAINER_FRACTION` — each host hands 80 % of its resources to its
//!   Turbine container;
//! * `RESTART_DELAY` — a (re)started task is down for 10 s;
//! * the decision trace keeps [`turbine_trace::DEFAULT_TRACE_CAPACITY`]
//!   records (its digest covers evicted records too).
//!
//! The platform is organised as focused submodules:
//!
//! * [`mod@self`] — configuration, construction, and the public API
//!   surface (provisioning, status, interventions);
//! * `scheduler` — the event-driven control plane: the [`ControlEvent`]
//!   taxonomy, the component handler table, and the two drive loops
//!   (event-driven, and the dense-tick reference stepper);
//! * `control_loops` — the per-event component handlers (heartbeats, TM
//!   refresh, sync rounds, scaling, metrics, ...);
//! * `faults` — chaos-engine fault scheduling and transition side effects.

#[cfg(test)]
mod alloc_tests;
mod control_loops;
mod faults;
#[cfg(test)]
mod invariant_tests;
#[cfg(test)]
mod lazy_tests;
mod ods;
mod scheduler;
#[cfg(test)]
mod standby_tests;

pub use scheduler::{ControlEvent, DriveMode};

use crate::engine::{ContainerMap, Engine, WindowStats};
use crate::invariants::{Inbox, InvariantChecker, InvariantConfig, Violation};
use crate::metrics::PlatformMetrics;
use scheduler::ControlSchedule;
use std::collections::{BTreeMap, BTreeSet};
use turbine_autoscaler::{AutoScaler, JobMetrics, ScalerConfig};
use turbine_cluster::Cluster;
use turbine_config::{ConfigLevel, ConfigValue, JobConfig, ResiliencyClass};
use turbine_jobstore::{JobService, JobStore, MemWal, StoreReader};
use turbine_scribe::{CheckpointStore, Scribe, ScribeError};
use turbine_shardmgr::{ShardManager, ShardManagerConfig, FAILOVER_INTERVAL};
use turbine_sim::{FaultInjector, SimRng};
use turbine_statesyncer::{StateSyncer, SyncerConfig};
use turbine_taskmgr::{LocalTaskManager, SnapshotTable, TaskService};
use turbine_trace::TraceBuffer;
use turbine_types::{ContainerId, Duration, Fnv1a, HostId, JobId, Resources, SimTime};
use turbine_workloads::TrafficModel;

/// Fraction of each host handed to its Turbine container.
const CONTAINER_FRACTION: f64 = 0.8;

/// Task Service snapshot cache TTL (paper: 90 s).
const TASK_SERVICE_TTL: Duration = Duration::from_secs(90);

/// Proactive connection timeout after which a disconnected container
/// reboots itself (paper: 40 s — before the 60 s fail-over).
pub(crate) const CONNECTION_TIMEOUT: Duration = Duration::from_secs(40);

const _: () = assert!(CONNECTION_TIMEOUT.as_millis() < FAILOVER_INTERVAL.as_millis());

/// Downtime a task suffers when (re)started.
pub(crate) const RESTART_DELAY: Duration = Duration::from_secs(10);

/// Platform configuration. Defaults are the paper's production values.
#[derive(Debug, Clone)]
pub struct TurbineConfig {
    /// Simulation tick: the data-plane integration step, and the grid on
    /// which control events execute. Must not exceed any control cadence
    /// below — validated at construction.
    pub tick: Duration,
    /// Shards in the tier.
    pub shard_count: u64,
    /// State Syncer round interval (paper: 30 s).
    pub sync_interval: Duration,
    /// Task Manager snapshot refresh interval (paper: 60 s).
    pub tm_refresh_interval: Duration,
    /// Heartbeat interval from Task Managers to the Shard Manager.
    pub heartbeat_interval: Duration,
    /// Load-report interval from Task Managers (paper: every 10 min).
    pub load_report_interval: Duration,
    /// Shard Manager rebalance interval (paper: 30 min for most tiers).
    pub rebalance_interval: Duration,
    /// Auto Scaler evaluation interval.
    pub scaler_interval: Duration,
    /// Capacity Manager evaluation interval.
    pub capacity_interval: Duration,
    /// Metric sampling interval.
    pub metrics_interval: Duration,
    /// Checkpoint/Scribe durability sync interval.
    pub checkpoint_interval: Duration,
    /// Bandwidth at which stateful jobs' state is moved during complex
    /// synchronizations, bytes/sec. Stateless jobs redistribute instantly
    /// (checkpoints are per-partition; nothing moves).
    pub state_move_bandwidth: f64,
    /// State Syncer tunables.
    pub syncer: SyncerConfig,
    /// Auto Scaler tunables.
    pub scaler: ScalerConfig,
    /// Shard Manager tunables.
    pub shardmgr: ShardManagerConfig,
    /// Master switch for the Auto Scaler (ablations).
    pub scaler_enabled: bool,
    /// Master switch for load-balancing rebalances (ablations; fail-over
    /// stays on).
    pub load_balancing_enabled: bool,
}

impl Default for TurbineConfig {
    fn default() -> Self {
        TurbineConfig {
            tick: Duration::from_secs(10),
            shard_count: 1024,
            sync_interval: Duration::from_secs(30),
            tm_refresh_interval: Duration::from_secs(60),
            heartbeat_interval: Duration::from_secs(10),
            load_report_interval: Duration::from_mins(10),
            rebalance_interval: Duration::from_mins(30),
            scaler_interval: Duration::from_mins(2),
            capacity_interval: Duration::from_mins(5),
            metrics_interval: Duration::from_mins(1),
            checkpoint_interval: Duration::from_secs(60),
            state_move_bandwidth: 256.0e6,
            syncer: SyncerConfig::default(),
            scaler: ScalerConfig::default(),
            shardmgr: ShardManagerConfig::default(),
            scaler_enabled: true,
            load_balancing_enabled: true,
        }
    }
}

impl TurbineConfig {
    /// Validate the configuration. The tick is the grid on which control
    /// events execute: a tick longer than a component's cadence would
    /// silently skip rounds (the `Periodic` scheduler collapses missed
    /// slots into a single firing), so every cadence must be at least one
    /// tick long. The State Syncer's tunables are checked by
    /// [`SyncerConfig::validate`].
    pub fn validate(&self) -> Result<(), String> {
        self.syncer.validate()?;
        if self.tick.is_zero() {
            return Err("tick must be positive".to_string());
        }
        for component in scheduler::components() {
            let cadence = (component.cadence)(self);
            if cadence < self.tick {
                return Err(format!(
                    "tick ({}) must not exceed {} ({}): {} rounds would be \
                     silently skipped",
                    self.tick, component.cadence_name, cadence, component.name,
                ));
            }
        }
        Ok(())
    }
}

/// Point-in-time status of one job, for experiments and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Task count in the merged expected configuration.
    pub expected_tasks: u32,
    /// Task count in the running configuration (0 if not yet started).
    pub running_config_tasks: u32,
    /// Tasks actually executing in containers.
    pub running_tasks: usize,
    /// Current backlog in bytes.
    pub backlog_bytes: f64,
    /// Whether the job is paused for a complex synchronization.
    pub paused: bool,
    /// Whether the State Syncer quarantined the job.
    pub quarantined: bool,
}

/// A bit-exact summary of observable platform state, for cross-run and
/// cross-scheduler comparisons (backlogs are captured as raw `f64` bits,
/// so two fingerprints are equal iff the runs match bit-for-bit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformFingerprint {
    /// Simulated time of the snapshot, milliseconds.
    pub now_ms: u64,
    /// Lifecycle counters: task starts, stops, restarts, shard moves,
    /// fail-overs, OOM kills, scaling actions, alerts, standby promotions.
    pub counters: [u64; 9],
    /// Per job: (raw id, running tasks, backlog-bytes `f64` bits).
    pub jobs: Vec<(u64, usize, u64)>,
    /// FNV digest of the chaos-engine fault timeline.
    pub fault_digest: u64,
    /// Number of fault transitions logged.
    pub fault_transitions: usize,
    /// FNV digest of the per-tier SLO recovery records (time, job, tier,
    /// duration, path of every closed outage).
    pub slo_digest: u64,
    /// Number of recovery records in the SLO log.
    pub recoveries: usize,
}

/// A container lost to the platform: its Shard Manager connection is
/// severed, its host is down, or both. Its entry in [`Turbine::lost`]
/// lasts from the first cause until neither holds, so an outage is dated
/// from the first cause (§IV-C). A container is
/// [reachable](Turbine::reachable) exactly when it has no entry: every
/// severance and every host failure or recovery goes through the
/// platform, which keeps the table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Loss {
    /// When the first cause began: the onset of the outages it causes.
    pub(crate) since: SimTime,
    /// The severed connection, while it is one of the causes.
    pub(crate) severed: Option<Severance>,
}

/// A severed Shard Manager connection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Severance {
    /// When it was severed: the proactive timeout runs from here.
    pub(crate) at: SimTime,
    /// Whether the container already rebooted itself after the timeout.
    pub(crate) rebooted: bool,
}

/// Why a job is halted: it takes arrivals but processes nothing. Written
/// only through [`set_halt`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Halt {
    /// The State Syncer paused the job for a complex synchronization.
    pub(crate) paused: bool,
    /// When the paused job's state move completes, once one has started.
    pub(crate) state_move: Option<SimTime>,
    /// The Capacity Manager stopped the job.
    pub(crate) stopped: bool,
    /// A `ScribeStall` of the job's input category is active.
    pub(crate) stalled: bool,
}

impl Halt {
    /// Whether the job's tasks are taken out of the Task Service snapshot:
    /// a pause or a stop ends them, a stall leaves them running.
    pub(crate) fn stops_tasks(&self) -> bool {
        self.paused || self.stopped
    }
}

/// Edit `job`'s halt record and return it as it was. The state move goes
/// with its pause and the entry with its last cause; the engine walks the
/// job again when whether it is halted at all flips.
pub(crate) fn set_halt(
    halts: &mut BTreeMap<JobId, Halt>,
    engine: &mut Engine,
    job: JobId,
    edit: impl FnOnce(&mut Halt),
) -> Halt {
    let was = halts.remove(&job);
    let mut halt = was.unwrap_or_default();
    edit(&mut halt);
    halt.state_move = halt.state_move.filter(|_| halt.paused);
    if halt.stops_tasks() || halt.stalled {
        halts.insert(job, halt);
    }
    if was.is_some() != halts.contains_key(&job) {
        engine.wake(job);
    }
    was.unwrap_or_default()
}

/// One open fault-attributed outage of a job. Opened only at the three
/// causal sites (proactive reboot drop, standard fail-over, standby
/// promotion); closed by the SLO check once the job is back at its running
/// configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutageState {
    /// Fault onset this outage is measured from.
    pub(crate) since: SimTime,
    /// Whether a warm-standby promotion (fast path) handled the outage.
    pub(crate) fast: bool,
}

/// The Turbine platform.
pub struct Turbine {
    pub(crate) config: TurbineConfig,
    pub(crate) now: SimTime,
    /// The cluster substrate (public for experiment scripting).
    pub cluster: Cluster,
    /// The Scribe substrate (public for inspection).
    pub scribe: Scribe,
    /// Recorded metrics (public for experiment output).
    pub metrics: PlatformMetrics,
    pub(crate) jobs: JobService<MemWal>,
    pub(crate) syncer: StateSyncer,
    pub(crate) task_service: TaskService,
    pub(crate) shard_manager: ShardManager,
    pub(crate) task_managers: BTreeMap<ContainerId, LocalTaskManager>,
    pub(crate) scaler: AutoScaler,
    pub(crate) checkpoints: CheckpointStore,
    pub(crate) engine: Engine,
    /// CPU capacity of every healthy container, as the engine tick takes
    /// it, with the [`Cluster::generation`] it was built at. A derived
    /// cache (not in the snapshot): rebuilt when the generation moves.
    pub(crate) container_cpu: Option<(u64, ContainerMap<f64>)>,
    /// Every halted job, with why.
    pub(crate) halts: BTreeMap<JobId, Halt>,
    /// Mean time between random task crashes; `None` disables injection.
    pub(crate) crash_mtbf: Option<Duration>,
    pub(crate) rng: SimRng,
    /// Every container lost to a severed connection or a failed host: the
    /// containers that do not heartbeat, and whose local state the
    /// invariant checker does not trust.
    pub(crate) lost: BTreeMap<ContainerId, Loss>,
    /// Open fault-attributed outages per job (SLO accounting).
    pub(crate) outages: BTreeMap<JobId, OutageState>,
    /// The chaos engine: scheduled/active cross-component faults.
    pub(crate) faults: FaultInjector,
    /// The causal decision trace.
    pub(crate) trace: TraceBuffer,
    /// Continuous invariant checking (enabled for chaos runs). The
    /// control loops tell it what they change through
    /// [`Turbine::tell_checker`].
    pub(crate) invariants: Option<InvariantChecker>,
    /// Containers whose ownership or task set changed since the last
    /// load-report round.
    pub(crate) load_dirty_containers: BTreeSet<ContainerId>,
    /// Task Managers that reconciled in a refresh round (the rest were
    /// handed the snapshot they already held). This and
    /// `standbys_examined` count work, not state: the first refresh after
    /// a restore reconciles everyone, so a restored run counts more than
    /// an uninterrupted one. They are therefore kept out of the snapshot,
    /// the fingerprint and the ODS registry, and start from zero after a
    /// restore.
    pub(crate) tm_managers_reconciled: u64,
    /// Standby registrations checked plus placements attempted by the
    /// fail-over check's standby upkeep.
    pub(crate) standbys_examined: u64,
    /// Scaler windows the scaler round drained: every engine job's while
    /// the scaler is enabled, the marked and the walked jobs' while it is
    /// disabled.
    pub(crate) scaler_windows_drained: u64,
    /// The control-plane schedule: per-component cadences plus the event
    /// queue the event-driven drive loop runs on.
    pub(crate) sched: ControlSchedule,
    pub(crate) last_scaler_drain: SimTime,
    /// What the scaler round refills for every job, kept between rounds.
    pub(crate) scaler_scratch: ScalerScratch,
    /// The ODS metrics plane: registry, alert engine, and id caches.
    pub(crate) ods: ods::OdsState,
}

/// The buffers the scaler round fills for each job in turn — its drained
/// window and its metrics — and the jobs a disabled round drains, kept
/// between rounds so a steady round allocates nothing. Derived — not part
/// of the snapshot.
#[derive(Debug, Default)]
pub(crate) struct ScalerScratch {
    pub(crate) drained: WindowStats,
    pub(crate) metrics: JobMetrics,
    pub(crate) jobs: Vec<JobId>,
}

impl Turbine {
    /// A platform with no hosts or jobs yet. Panics on an invalid
    /// configuration — use [`Turbine::try_new`] to handle the error.
    pub fn new(config: TurbineConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid TurbineConfig: {e}"))
    }

    /// A platform with no hosts or jobs yet, or a descriptive error if
    /// the configuration is invalid (e.g. a tick longer than a control
    /// cadence, which would silently skip rounds).
    pub fn try_new(config: TurbineConfig) -> Result<Self, String> {
        config.validate()?;
        let mut task_service = TaskService::with_ttl(TASK_SERVICE_TTL, config.shard_count);
        task_service.invalidate();
        let mut shard_manager = ShardManager::new(config.shardmgr);
        shard_manager.ensure_shards(config.shard_count);
        Ok(Turbine {
            now: SimTime::ZERO,
            cluster: Cluster::new(),
            scribe: Scribe::new(),
            metrics: PlatformMetrics::default(),
            jobs: JobService::new(JobStore::new(MemWal::new())),
            syncer: StateSyncer::new(config.syncer),
            task_service,
            shard_manager,
            task_managers: BTreeMap::new(),
            scaler: AutoScaler::new(config.scaler),
            checkpoints: CheckpointStore::new(),
            engine: Engine::new(),
            container_cpu: None,
            halts: BTreeMap::new(),
            crash_mtbf: None,
            rng: SimRng::seeded(0x0C2A_54E5),
            lost: BTreeMap::new(),
            outages: BTreeMap::new(),
            faults: FaultInjector::new(),
            trace: TraceBuffer::default(),
            invariants: None,
            load_dirty_containers: BTreeSet::new(),
            tm_managers_reconciled: 0,
            standbys_examined: 0,
            scaler_windows_drained: 0,
            sched: ControlSchedule::new(&config),
            last_scaler_drain: SimTime::ZERO,
            scaler_scratch: ScalerScratch::default(),
            ods: ods::OdsState::default(),
            config,
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration in effect.
    pub fn config(&self) -> &TurbineConfig {
        &self.config
    }

    /// Read access to the Shard Manager (tests, invariant checks).
    pub fn shard_manager(&self) -> &ShardManager {
        &self.shard_manager
    }

    /// Read access to the per-container local Task Managers.
    pub fn task_managers(&self) -> &BTreeMap<ContainerId, LocalTaskManager> {
        &self.task_managers
    }

    /// Read access to the State Syncer.
    pub fn state_syncer(&self) -> &StateSyncer {
        &self.syncer
    }

    /// Read access to the data-plane engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Read access to the Auto Scaler.
    pub fn auto_scaler(&self) -> &AutoScaler {
        &self.scaler
    }

    /// Task Managers that had to reconcile in a refresh round, summed
    /// since construction or restore. A converged fleet adds nothing: every
    /// manager is handed the snapshot it already holds. This and the
    /// counters below measure work done, so a restored run and an
    /// uninterrupted one disagree on them; they are in neither the
    /// snapshot, the fingerprint nor the ODS registry.
    pub fn tm_managers_reconciled(&self) -> u64 {
        self.tm_managers_reconciled
    }

    /// Jobs the Task Service rendered specs for: the whole fleet on a full
    /// build, only the changed jobs afterwards.
    pub fn tm_jobs_rendered(&self) -> u64 {
        self.task_service.jobs_rendered()
    }

    /// Standby registrations checked plus placements attempted by the
    /// fail-over check.
    pub fn standbys_examined(&self) -> u64 {
        self.standbys_examined
    }

    /// Scaler windows the scaler round drained, summed since construction
    /// or restore. An enabled scaler drains every engine job's window each
    /// round; a disabled one only those of the jobs the engine marked for
    /// it or still walks, which on a converged fleet are the busy jobs.
    pub fn scaler_windows_drained(&self) -> u64 {
        self.scaler_windows_drained
    }

    /// Add `n` hosts, allocate one Turbine container on each, register the
    /// containers with the Shard Manager, and start a local Task Manager
    /// in each. Returns the host ids.
    pub fn add_hosts(&mut self, n: usize, capacity: Resources) -> Vec<HostId> {
        let hosts = self.cluster.add_hosts(n, capacity);
        for &host in &hosts {
            let cap = capacity.scale(CONTAINER_FRACTION);
            let container = self
                .cluster
                .allocate_container(host, cap)
                .expect("fresh host has capacity");
            self.shard_manager
                .register_container(container, cap, self.now);
            self.task_managers.insert(
                container,
                LocalTaskManager::new(container, self.config.shard_count),
            );
            self.container_changed(container);
        }
        self.cluster_changed();
        // Fast initial scheduling: place shards on the new containers now
        // rather than waiting for the next periodic rebalance.
        let result = self.shard_manager.rebalance();
        self.apply_movements(&result.moves);
        hosts
    }

    /// Provision a stateless job with its data-plane model. Creates the
    /// input Scribe category, registers the job with the Job Service, and
    /// hands its runtime to the engine. Tasks start once the State Syncer
    /// commits the first running configuration and Task Managers pick up
    /// the specs (1–2 minutes of simulated time).
    pub fn provision_job(
        &mut self,
        job: JobId,
        config: JobConfig,
        traffic: TrafficModel,
        true_per_thread_rate: f64,
        avg_message_bytes: f64,
    ) -> Result<(), String> {
        self.provision_job_inner(
            job,
            config,
            traffic,
            true_per_thread_rate,
            avg_message_bytes,
            0.0,
        )
    }

    /// Provision a stateful job (aggregation/join) with a state key
    /// cardinality driving its memory model.
    pub fn provision_stateful_job(
        &mut self,
        job: JobId,
        mut config: JobConfig,
        traffic: TrafficModel,
        true_per_thread_rate: f64,
        avg_message_bytes: f64,
        key_cardinality: f64,
    ) -> Result<(), String> {
        config.stateful = true;
        self.provision_job_inner(
            job,
            config,
            traffic,
            true_per_thread_rate,
            avg_message_bytes,
            key_cardinality,
        )
    }

    fn provision_job_inner(
        &mut self,
        job: JobId,
        config: JobConfig,
        traffic: TrafficModel,
        true_per_thread_rate: f64,
        avg_message_bytes: f64,
        key_cardinality: f64,
    ) -> Result<(), String> {
        if self.job_store_down() {
            return Err("job store unavailable".to_string());
        }
        // Nothing is created until the Job Store has accepted the job, so a
        // refused provision leaves no category behind and re-points no
        // live job's name.
        let category = &config.input_category;
        if self.scribe.has_category(category) {
            return Err(ScribeError::CategoryExists(category.clone()).to_string());
        }
        self.jobs
            .provision(job, &config)
            .map_err(|e| e.to_string())?;
        let category = self
            .scribe
            .create_category(category, config.input_partitions)
            .expect("the name is free and the partition count validated");
        self.engine.add_job(
            job,
            traffic,
            true_per_thread_rate,
            avg_message_bytes,
            config.input_partitions,
            config.stateful,
            key_cardinality,
        );
        self.engine.bind_category(job, category);
        // The category may be stalled already.
        let stalled = self.input_stalled(job);
        set_halt(&mut self.halts, &mut self.engine, job, |h| {
            h.stalled = stalled
        });
        self.task_service.invalidate();
        Ok(())
    }

    /// Request deletion of a job; the State Syncer winds it down.
    pub fn delete_job(&mut self, job: JobId) -> Result<(), String> {
        if self.job_store_down() {
            return Err("job store unavailable".to_string());
        }
        self.jobs
            .store_mut()
            .delete_job(job)
            .map_err(|e| e.to_string())
    }

    /// Status snapshot of one job.
    pub fn job_status(&self, job: JobId) -> Option<JobStatus> {
        let expected_tasks = self
            .jobs
            .expected_typed(job)
            .map(|c| c.task_count)
            .unwrap_or(0);
        let running_config_tasks = self
            .jobs
            .running_typed(job)
            .map(|c| c.task_count)
            .unwrap_or(0);
        let runtime = self.engine.job(job)?;
        Some(JobStatus {
            expected_tasks,
            running_config_tasks,
            running_tasks: self.engine.running_tasks_of(job),
            backlog_bytes: runtime.backlog(),
            paused: self.halts.get(&job).is_some_and(|h| h.paused),
            quarantined: self.syncer.is_quarantined(job),
        })
    }

    /// The Job Service (operator interventions write Oncall-level configs
    /// through it).
    pub fn job_service_mut(&mut self) -> &mut JobService<MemWal> {
        &mut self.jobs
    }

    /// Where every active task currently runs — for placement-quality
    /// analyses (Fig. 6c's tasks-per-host spread).
    pub fn task_placements(&self) -> Vec<(turbine_types::TaskId, ContainerId)> {
        self.engine
            .tasks()
            .map(|(&id, task)| (id, task.container))
            .collect()
    }

    /// All jobs known to the data plane.
    pub fn job_ids(&self) -> Vec<JobId> {
        self.engine.job_ids()
    }

    /// A job's configured lag SLO in seconds, if its config decodes.
    pub fn job_slo_secs(&self, job: JobId) -> Option<f64> {
        self.jobs.expected_typed(job).ok().map(|c| c.slo_lag_secs)
    }

    /// Current arrival rate of a job's input, bytes/sec.
    pub fn job_arrival_rate(&self, job: JobId) -> Option<f64> {
        self.engine.job(job).map(|rt| rt.arrival_rate(self.now))
    }

    /// Mutate a job's traffic model mid-experiment (storms, spikes).
    pub fn with_job_traffic(&mut self, job: JobId, f: impl FnOnce(&mut TrafficModel)) {
        if let Some(rt) = self.engine.job_mut(job) {
            f(&mut rt.traffic);
        }
    }

    /// Degrade (or restore) a job's true per-thread processing rate —
    /// models dependency failures and slow sinks, where adding capacity
    /// does not help (the paper's "untriaged problems", §V-D).
    pub fn with_job_true_rate(&mut self, job: JobId, rate: f64) {
        assert!(rate > 0.0);
        if let Some(rt) = self.engine.job_mut(job) {
            rt.true_per_thread_rate = rate;
        }
    }

    /// Skew a job's partition arrival weights (imbalance injection).
    pub fn skew_job_input(&mut self, job: JobId, weights: Vec<f64>) {
        self.engine.set_partition_weights(job, &weights);
    }

    /// Enable/disable the load balancer (fail-over stays active).
    pub fn set_load_balancing(&mut self, enabled: bool) {
        self.config.load_balancing_enabled = enabled;
    }

    /// Enable/disable the Auto Scaler.
    pub fn set_scaler_enabled(&mut self, enabled: bool) {
        self.config.scaler_enabled = enabled;
    }

    /// Oncall intervention: pin a field at the Oncall level. A write that
    /// changes `input.partitions` is refused: the job's Scribe category and
    /// data plane are sized once, at provision.
    pub fn oncall_set(&mut self, job: JobId, path: &str, value: ConfigValue) -> Result<(), String> {
        if self.job_store_down() {
            return Err("job store unavailable".to_string());
        }
        if path == "input.partitions" {
            if let Some(rt) = self.engine.job(job) {
                let provisioned = rt.partition_count();
                if value != ConfigValue::Int(provisioned as i64) {
                    return Err(format!(
                        "{job}: input.partitions is fixed at provision ({provisioned})"
                    ));
                }
            }
        }
        self.jobs
            .set_level_field(job, ConfigLevel::Oncall, path, value)
            .map_err(|e| e.to_string())
    }

    /// Oncall intervention: clear all Oncall overrides for a job.
    pub fn oncall_clear(&mut self, job: JobId) -> Result<(), String> {
        if self.job_store_down() {
            return Err("job store unavailable".to_string());
        }
        self.jobs
            .clear_level(job, ConfigLevel::Oncall)
            .map_err(|e| e.to_string())
    }

    /// Inject host-level degradation on one task (it processes at
    /// `factor` of its normal throughput until it is restarted on another
    /// container) — the hardware-issue class of §V-D, for experiments.
    pub fn degrade_task(&mut self, task: turbine_types::TaskId, factor: f64) {
        self.engine.degrade_task(task, factor);
    }

    /// Root-cause diagnoses recorded so far (typed cause, mitigation,
    /// rationale, and the trace link into the causal chain).
    pub fn diagnoses(&self) -> &[crate::metrics::DiagnosisRecord] {
        &self.metrics.diagnoses
    }

    /// The causal decision trace: every consequential control-plane
    /// decision of this run, with cause links back to the span or event
    /// that triggered it.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Enable random task crashes with the given fleet-wide mean time
    /// between crashes (chaos testing; `None` disables). Crashed tasks are
    /// restarted by their local Task Manager — the paper's §IV goal 3.
    pub fn set_crash_mtbf(&mut self, mtbf: Option<Duration>) {
        self.crash_mtbf = mtbf;
    }

    /// The Scribe input category a job consumes, if provisioned.
    pub fn job_category(&self, job: JobId) -> Option<&str> {
        self.scribe.name(self.engine.job(job)?.category()?)
    }

    /// A job's resiliency tier from its expected configuration; `Standard`
    /// when the config is missing or undecodable.
    pub fn job_resiliency(&self, job: JobId) -> ResiliencyClass {
        self.jobs
            .expected_typed(job)
            .map(|c| c.resiliency)
            .unwrap_or_default()
    }

    /// The container a task currently runs in, if it is active.
    pub fn task_container(&self, task: turbine_types::TaskId) -> Option<ContainerId> {
        self.engine.task(task).map(|t| t.container)
    }

    /// The durable per-(job, partition) read offsets (tests, tooling).
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.checkpoints
    }

    /// The warm-standby container registered for a job, if any (critical
    /// jobs only; placed by the Shard Manager once the job is running).
    pub fn standby_of(&self, job: JobId) -> Option<ContainerId> {
        self.shard_manager.standby_of(job)
    }

    /// Durable backlog of a job: bytes between each partition's persisted
    /// checkpoint and the Scribe tail, summed across partitions. This is
    /// the restart-from-checkpoint read a new task performs, so an `Err`
    /// here means a checkpoint is unreadable (e.g. beyond the tail) — the
    /// condition [`clamp_recovered_checkpoints`](Self) repairs after a
    /// syncer restart.
    pub fn durable_backlog(&self, job: JobId) -> Result<u64, String> {
        let Some((category, partitions)) = self
            .engine
            .job(job)
            .and_then(|rt| Some((rt.category()?, rt.partition_count())))
        else {
            return Ok(0);
        };
        // Partitions Scribe has never seen an append for have no durable
        // bytes yet and are skipped inside the batched read.
        let cursors = (0..partitions).map(|i| {
            let partition = turbine_types::PartitionId(i as u64);
            (partition, self.checkpoints.get(job, partition))
        });
        self.scribe
            .backlog(category, cursors)
            .map_err(|(p, e)| format!("{job}/p{}: {e}", p.raw()))
    }

    /// Turn on continuous invariant checking: every executed instant from
    /// now on is evaluated against the platform's safety and convergence
    /// invariants.
    pub fn enable_invariant_checks(&mut self, config: InvariantConfig) {
        // A fresh checker has seen nothing: its first check covers every
        // scope, and the Job Store's refeed hands it every job.
        self.invariants = Some(InvariantChecker::new(config));
        self.jobs.store_mut().refeed(StoreReader::Checker);
    }

    /// Tell the invariant checker what changed; a no-op while checking is
    /// off. Marks are conservative: the safe direction is a wasted rescan,
    /// never a missed one.
    pub(crate) fn tell_checker(&mut self, mark: impl FnOnce(&mut Inbox)) {
        if let Some(checker) = &mut self.invariants {
            mark(checker.inbox());
        }
    }

    /// `container`'s ownership or task set changed: it re-reports its
    /// loads, and the distributed scope is rescanned.
    pub(crate) fn container_changed(&mut self, container: ContainerId) {
        self.load_dirty_containers.insert(container);
        self.tell_checker(|inbox| inbox.distributed = true);
    }

    /// Hosts were added, failed or recovered.
    pub(crate) fn cluster_changed(&mut self) {
        self.tell_checker(|inbox| {
            inbox.cluster = true;
            inbox.distributed = true;
        });
    }

    /// Whether `container` is reachable: its host is healthy and its Shard
    /// Manager connection is not severed.
    pub(crate) fn reachable(&self, container: ContainerId) -> bool {
        !self.lost.contains_key(&container)
    }

    /// Violations recorded so far (empty when checking is disabled).
    pub fn invariant_violations(&self) -> &[Violation] {
        self.invariants
            .as_ref()
            .map(|c| c.violations())
            .unwrap_or(&[])
    }

    /// The invariant checker, when enabled.
    pub fn invariant_checker(&self) -> Option<&InvariantChecker> {
        self.invariants.as_ref()
    }

    /// Advance the simulation by `span` on the event-driven scheduler.
    pub fn run_for(&mut self, span: Duration) {
        self.drive_for(span, DriveMode::EventDriven);
    }

    /// Advance the simulation to absolute time `end` on the event-driven
    /// scheduler.
    pub fn run_until(&mut self, end: SimTime) {
        self.drive_until(end, DriveMode::EventDriven);
    }

    /// Advance the simulation by `span` under an explicit drive mode
    /// (equivalence tests and scheduler benchmarks). A platform instance
    /// should be driven in one mode for its whole lifetime.
    pub fn drive_for(&mut self, span: Duration, mode: DriveMode) {
        let end = self.now + span;
        self.drive_until(end, mode);
    }

    /// A bit-exact summary of observable platform state — counters, per-
    /// job running tasks and backlog bits, and the fault-timeline digest.
    /// Two runs of the same scenario match iff their fingerprints do.
    pub fn fingerprint(&self) -> PlatformFingerprint {
        let mut slo_digest = Fnv1a::new();
        for r in &self.metrics.recoveries {
            slo_digest.write(&r.at.as_millis().to_le_bytes());
            slo_digest.write(&r.job.0.to_le_bytes());
            slo_digest.write(r.tier.as_str().as_bytes());
            slo_digest.write(&r.ms.to_le_bytes());
            slo_digest.write(&[r.fast as u8]);
        }
        PlatformFingerprint {
            now_ms: self.now.as_millis(),
            counters: [
                self.metrics.task_starts.get(),
                self.metrics.task_stops.get(),
                self.metrics.task_restarts.get(),
                self.metrics.shard_moves.get(),
                self.metrics.failovers.get(),
                self.metrics.oom_kills.get(),
                self.metrics.scaling_actions.get(),
                self.metrics.alerts.get(),
                self.metrics.standby_promotions.get(),
            ],
            jobs: self
                .engine
                .jobs()
                .map(|(j, rt)| (j.0, self.engine.running_tasks_of(j), rt.backlog().to_bits()))
                .collect(),
            fault_digest: self.faults.log_digest(),
            fault_transitions: self.faults.log().len(),
            slo_digest: slo_digest.finish(),
            recoveries: self.metrics.recoveries.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot support: bit-exact serialization of the whole platform.
// ---------------------------------------------------------------------------

use turbine_types::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(TurbineConfig {
    tick, shard_count, sync_interval, tm_refresh_interval, heartbeat_interval,
    load_report_interval, rebalance_interval, scaler_interval, capacity_interval,
    metrics_interval, checkpoint_interval, state_move_bandwidth, syncer, scaler, shardmgr,
    scaler_enabled, load_balancing_enabled
}
// The tick-vs-cadence rules enforced at construction apply to decoded
// configs too: a corrupt blob must not yield a platform that silently
// skips control rounds.
check |c| c.validate().is_ok() => "TurbineConfig failed validation");

snap_struct!(Loss { since, severed }
check |l| l.severed.is_none_or(|s| l.since <= s.at) => "Loss dated after its severance");

snap_struct!(Severance { at, rebooted });

snap_struct!(Halt { paused, state_move, stopped, stalled }
check |h| h.stops_tasks() || h.stalled => "Halt with no cause"
check |h| h.paused || h.state_move.is_none() => "Halt state move outside a pause");

snap_struct!(OutageState { since, fast });

/// Write one field of the platform stream: itself, or through the
/// function its list entry names.
macro_rules! put_field {
    ($w:ident, $table:ident, $value:expr) => {
        $w.put($value)
    };
    ($w:ident, $table:ident, $value:expr, $put:path) => {
        $put($value, $w, &$table)
    };
}

macro_rules! get_field {
    ($r:ident, $table:ident) => {
        $r.get()?
    };
    ($r:ident, $table:ident, $get:path) => {
        $get($r, &$table)?
    };
}

/// [`turbine_types::snap_struct!`] for the platform: the one list of what
/// a blob holds, in stream order, drives the encoder, the per-field size
/// table, the decoder and the derived defaults. Two things the general
/// form has no place for: every field's encoded size is reported under its
/// name, and the Task Service and the Task Managers share task snapshots,
/// so the blob's [`SnapshotTable`] is written once at `table`, ahead of its
/// holders, and a `via (encode, decode)` field goes through functions that
/// take it (the holders write indices into it). A `check` holds between
/// fields of the decoded platform, as `snap_struct!`'s does within one.
macro_rules! turbine_stream {
    (
        $($head:ident),* ;
        table $table_name:ident ;
        $($tail:ident $(via ($put:path, $get:path))?),* ;
        derived { $($derived:ident : $rebuild:expr),* $(,)? }
        $(check |$v:ident| $ok:expr => $what:literal;)*
    ) => {
        impl Turbine {
            /// Encode every snapshotted field in stream order, telling
            /// `field` each one's name and encoded size.
            fn snap_fields(&self, w: &mut SnapWriter, mut field: impl FnMut(&'static str, usize)) {
                // Exhaustive: a field the list does not name stops the build.
                let Turbine { $($head: _,)* $($tail: _,)* $($derived: _,)* } = self;
                let mut table = SnapshotTable::default();
                self.task_service.offer_snapshot(&mut table);
                for manager in self.task_managers.values() {
                    manager.offer_snapshot(&mut table);
                }
                let mut from = w.len();
                let mut done = |w: &SnapWriter, name| {
                    field(name, w.len() - from);
                    from = w.len();
                };
                $(w.put(&self.$head); done(w, stringify!($head));)*
                w.put(&table);
                done(w, stringify!($table_name));
                $(put_field!(w, table, &self.$tail $(, $put)?); done(w, stringify!($tail));)*
            }
        }

        impl Snap for Turbine {
            fn snap(&self, w: &mut SnapWriter) {
                self.snap_fields(w, |_, _| {});
            }

            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                $(let $head = r.get()?;)*
                let table: SnapshotTable = r.get()?;
                $(let $tail = get_field!(r, table $(, $get)?);)*
                $(let $derived = $rebuild;)*
                let platform = Turbine { $($head,)* $($tail,)* $($derived,)* };
                $(
                    let $v = &platform;
                    if !($ok) {
                        return Err(SnapError::Value($what));
                    }
                )*
                Ok(platform)
            }
        }
    };
}

turbine_stream! {
    config, now, cluster, scribe, metrics, jobs, syncer;
    table task_snapshots;
    task_service via (TaskService::snap_shared, TaskService::unsnap_shared),
    shard_manager,
    task_managers via (snap_managers, unsnap_managers),
    scaler, checkpoints, engine, halts, crash_mtbf,
    rng, lost,
    outages, faults, trace, invariants, load_dirty_containers,
    sched, last_scaler_drain, ods;
    // Caches and cost counters: rebuilt or restarted, never stored.
    derived {
        container_cpu: None,
        tm_managers_reconciled: 0,
        standbys_examined: 0,
        scaler_windows_drained: 0,
        scaler_scratch: ScalerScratch::default(),
    }
    check |t| t.engine.jobs().all(|(_, rt)| rt.category().is_none_or(|id| t.scribe.name(id).is_some()))
        => "Engine job bound to a category the bus lacks";
    // A container is lost exactly when it is unreachable.
    check |t| t.task_managers.keys().all(|&c| t.cluster.is_container_healthy(c) || t.lost.contains_key(&c))
        && t.lost.iter().all(|(&c, l)| l.severed.is_some() || !t.cluster.is_container_healthy(c))
        => "Turbine lost table disagrees with the cluster";
    // A job has the stall cause exactly while its input category is stalled.
    check |t| t.halts.iter().all(|(&job, h)| !h.stalled || t.engine.job(job).is_some())
        && t.engine.jobs().all(|(job, _)| t.input_stalled(job) == t.halts.get(&job).is_some_and(|h| h.stalled))
        => "Turbine halts disagree with the active stalls";
}

type TaskManagers = BTreeMap<ContainerId, LocalTaskManager>;

fn snap_managers(managers: &TaskManagers, w: &mut SnapWriter, table: &SnapshotTable) {
    w.u64(managers.len() as u64);
    for manager in managers.values() {
        manager.snap_shared(w, table);
    }
}

fn unsnap_managers(
    r: &mut SnapReader<'_>,
    table: &SnapshotTable,
) -> Result<TaskManagers, SnapError> {
    let mut managers = BTreeMap::new();
    for _ in 0..r.len_prefix("Turbine.task_managers")? {
        let manager = LocalTaskManager::unsnap_shared(r, table)?;
        managers.insert(manager.container(), manager);
    }
    Ok(managers)
}

impl Turbine {
    /// Encoded size of every field of this platform's snapshot stream, in
    /// stream order: where a blob's bytes are.
    pub fn snap_field_bytes(&self) -> Vec<(&'static str, usize)> {
        let mut table = Vec::new();
        self.snap_fields(&mut SnapWriter::new(), |name, bytes| {
            table.push((name, bytes))
        });
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job has a record exactly while a cause holds, and a state move
    /// only while its pause does, whatever other cause outlives the pause.
    #[test]
    fn a_halt_record_lasts_as_long_as_its_causes() {
        let (mut halts, mut engine) = (BTreeMap::new(), Engine::new());
        let job = JobId(1);
        let at = SimTime::ZERO + Duration::from_mins(7);
        set_halt(&mut halts, &mut engine, job, |h| h.paused = true);
        set_halt(&mut halts, &mut engine, job, |h| h.state_move = Some(at));
        let was = set_halt(&mut halts, &mut engine, job, |h| h.stalled = true);
        assert_eq!(
            (was.paused, was.state_move, was.stalled),
            (true, Some(at), false)
        );
        // The pause ends under the stall: its state move goes with it.
        set_halt(&mut halts, &mut engine, job, |h| h.paused = false);
        let stalled = Halt {
            stalled: true,
            ..Halt::default()
        };
        assert_eq!(halts[&job], stalled);
        // A move without a pause cannot be written down.
        set_halt(&mut halts, &mut engine, job, |h| h.state_move = Some(at));
        assert_eq!(halts[&job], stalled);
        set_halt(&mut halts, &mut engine, job, |h| h.stalled = false);
        assert!(halts.is_empty());
    }
}
