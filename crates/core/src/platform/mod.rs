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

mod control_loops;
mod faults;
#[cfg(test)]
mod invariant_tests;
mod ods;
mod scheduler;

pub use scheduler::{ControlEvent, DriveMode};

use crate::engine::{ContainerMap, Engine};
use crate::invariants::{InvariantChecker, InvariantConfig, Violation};
use crate::metrics::PlatformMetrics;
use scheduler::ControlSchedule;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use turbine_autoscaler::{AutoScaler, CapacityManager, ScalerConfig};
use turbine_cluster::Cluster;
use turbine_config::{ConfigLevel, ConfigValue, JobConfig, ResiliencyClass};
use turbine_jobstore::{JobService, JobStore, MemWal, StoreReader};
use turbine_scribe::{CheckpointStore, Scribe, ShadowCursor};
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

/// Accumulated change knowledge between invariant checks. Every control
/// loop that mutates checker-visible state marks the scope it touched;
/// the sparse invariant check drains this into a
/// [`crate::invariants::DirtyInput`]. Flags are conservative: a set flag
/// only means "may have changed", and anything uncertain must set its
/// flag (the safe direction is a wasted rescan, never a missed one).
#[derive(Debug, Default)]
pub(crate) struct PendingDirty {
    /// Jobs whose checker-visible state (pause/stop marks, quarantine
    /// membership) may have changed. The jobs whose engine tasks or store
    /// rows changed join at the check, from the checker's readers of the
    /// two change feeds.
    pub(crate) jobs: BTreeSet<JobId>,
    /// Task-manager ownership or the live-container set may have changed.
    pub(crate) distributed: bool,
    /// Cluster hosts or capacities may have changed.
    pub(crate) cluster: bool,
    /// The quarantine set or its failure counts may have changed.
    pub(crate) quarantine: bool,
    /// Standby registrations or standby-relevant placement may have
    /// changed.
    pub(crate) standby: bool,
}

impl PendingDirty {
    /// Everything dirty: the state a fresh (or freshly re-enabled)
    /// checker starts from, so its first sparse pass covers the world.
    pub(crate) fn all(jobs: impl IntoIterator<Item = JobId>) -> Self {
        PendingDirty {
            jobs: jobs.into_iter().collect(),
            distributed: true,
            cluster: true,
            quarantine: true,
            standby: true,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct SeveredState {
    pub(crate) at: SimTime,
    pub(crate) rebooted: bool,
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
    pub(crate) capacity: CapacityManager,
    pub(crate) checkpoints: CheckpointStore,
    pub(crate) engine: Engine,
    /// CPU capacity of every healthy container, as the engine tick takes
    /// it, with the [`Cluster::generation`] it was built at. A derived
    /// cache (not in the snapshot): rebuilt when the generation moves.
    pub(crate) container_cpu: Option<(u64, ContainerMap<f64>)>,
    /// The containers that heartbeat and whose local state the invariant
    /// checker trusts, ascending: a Task Manager, a healthy host, no
    /// severed connection. Built at the [`Cluster::generation`] it carries
    /// and dropped whenever a connection is severed or restored; a derived
    /// cache (not in the snapshot). Task Managers are only ever added in
    /// [`Turbine::add_hosts`], which moves the generation.
    pub(crate) live_containers: Option<(u64, Vec<ContainerId>)>,
    pub(crate) paused: BTreeSet<JobId>,
    pub(crate) capacity_stopped: BTreeSet<JobId>,
    /// In-flight state moves for stateful complex syncs: job → completion
    /// time.
    pub(crate) state_moves: HashMap<JobId, SimTime>,
    /// Mean time between random task crashes; `None` disables injection.
    pub(crate) crash_mtbf: Option<Duration>,
    pub(crate) rng: SimRng,
    /// Per-job release tracking for the root-causer:
    /// (current version, previous version, changed at).
    pub(crate) releases: HashMap<JobId, (u64, u64, SimTime)>,
    /// Start of the ongoing lag episode per job.
    pub(crate) lag_since: HashMap<JobId, SimTime>,
    /// Last diagnosis time per job (debounce).
    pub(crate) last_diagnosis: HashMap<JobId, SimTime>,
    pub(crate) severed: HashMap<ContainerId, SeveredState>,
    pub(crate) categories: BTreeMap<JobId, String>,
    /// Shadow read positions of warm standbys (critical jobs only).
    pub(crate) shadow: ShadowCursor,
    /// Open fault-attributed outages per job (SLO accounting).
    pub(crate) outages: BTreeMap<JobId, OutageState>,
    /// When each container's current connectivity loss began — fault onset
    /// for backdating outage starts. Cleared on restore/recovery.
    pub(crate) container_down_since: BTreeMap<ContainerId, SimTime>,
    /// Promotions since the last invariant check (recorded only while
    /// invariant checking is enabled; drained every checked instant).
    pub(crate) fresh_promotions: Vec<(JobId, ContainerId)>,
    /// Revived containers since the last invariant check, with the number
    /// of shards still mapped to them at revival time (invariants only).
    pub(crate) fresh_revivals: Vec<(ContainerId, usize)>,
    /// The chaos engine: scheduled/active cross-component faults.
    pub(crate) faults: FaultInjector,
    /// The causal decision trace.
    pub(crate) trace: TraceBuffer,
    /// Continuous invariant checking (enabled for chaos runs).
    pub(crate) invariants: Option<InvariantChecker>,
    /// Change scopes accumulated since the last invariant check (sparse
    /// data plane). The engine and the Job Store feed the checker their
    /// own.
    pub(crate) pending_dirty: PendingDirty,
    /// Containers whose ownership or task set changed since the last
    /// load-report round.
    pub(crate) load_dirty_containers: BTreeSet<ContainerId>,
    /// Per-job resiliency tier, maintained from the Job Store's changes
    /// so per-round consumers (standby coverage) never re-decode every job
    /// config in the fleet.
    pub(crate) resiliency_cache: BTreeMap<JobId, ResiliencyClass>,
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
    /// Containers the heartbeat filter examined while rebuilding
    /// `live_containers`.
    pub(crate) heartbeat_filtered: u64,
    /// The control-plane schedule: per-component cadences plus the event
    /// queue the event-driven drive loop runs on.
    pub(crate) sched: ControlSchedule,
    pub(crate) last_scaler_drain: SimTime,
    /// The ODS metrics plane: registry, alert engine, and id caches.
    pub(crate) ods: ods::OdsState,
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
        let mut capacity = CapacityManager::default();
        capacity.register_cluster("primary", Resources::ZERO);
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
            capacity,
            checkpoints: CheckpointStore::new(),
            engine: Engine::new(),
            container_cpu: None,
            live_containers: None,
            paused: BTreeSet::new(),
            capacity_stopped: BTreeSet::new(),
            state_moves: HashMap::new(),
            crash_mtbf: None,
            rng: SimRng::seeded(0x0C2A_54E5),
            releases: HashMap::new(),
            lag_since: HashMap::new(),
            last_diagnosis: HashMap::new(),
            severed: HashMap::new(),
            categories: BTreeMap::new(),
            shadow: ShadowCursor::new(),
            outages: BTreeMap::new(),
            container_down_since: BTreeMap::new(),
            fresh_promotions: Vec::new(),
            fresh_revivals: Vec::new(),
            faults: FaultInjector::new(),
            trace: TraceBuffer::default(),
            invariants: None,
            pending_dirty: PendingDirty::all([]),
            load_dirty_containers: BTreeSet::new(),
            resiliency_cache: BTreeMap::new(),
            tm_managers_reconciled: 0,
            standbys_examined: 0,
            heartbeat_filtered: 0,
            sched: ControlSchedule::new(&config),
            last_scaler_drain: SimTime::ZERO,
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
    /// manager is handed the snapshot it already holds. This and the two
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

    /// Containers the heartbeat filter (Task Manager, healthy host,
    /// connection intact) examined, summed since construction or restore.
    /// The heartbeat round and the invariant checker share its list, which
    /// is re-derived over the whole fleet after a cluster mutation or a
    /// severed or restored connection, and not otherwise.
    pub fn heartbeat_containers_filtered(&self) -> u64 {
        self.heartbeat_filtered
    }

    /// Jobs currently paused for a complex synchronization.
    pub fn paused_jobs(&self) -> &BTreeSet<JobId> {
        &self.paused
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
            self.load_dirty_containers.insert(container);
        }
        self.pending_dirty.cluster = true;
        self.pending_dirty.distributed = true;
        self.capacity
            .register_cluster("primary", self.cluster.total_healthy_capacity());
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
        self.scribe
            .create_category(&config.input_category, config.input_partitions)
            .map_err(|e| e.to_string())?;
        self.categories.insert(job, config.input_category.clone());
        let stateful = config.stateful;
        let partitions = config.input_partitions;
        self.jobs
            .provision(job, &config)
            .map_err(|e| e.to_string())?;
        self.engine.add_job(
            job,
            traffic,
            true_per_thread_rate,
            avg_message_bytes,
            partitions,
            stateful,
            key_cardinality,
        );
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
            paused: self.paused.contains(&job),
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
        self.categories.get(&job).map(String::as_str)
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

    /// The shadow cursors of warm standbys (tests, invariant checks).
    pub fn shadow_cursor(&self) -> &ShadowCursor {
        &self.shadow
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
        let Some(category) = self.categories.get(&job) else {
            return Ok(0);
        };
        let n_partitions = self
            .engine
            .job(job)
            .map(|rt| rt.partition_count())
            .unwrap_or(0);
        // One category lookup for the whole job; partitions Scribe has
        // never seen an append for have no durable bytes yet and are
        // skipped inside the batched read.
        let cursors = (0..n_partitions).map(|i| {
            let partition = turbine_types::PartitionId(i as u64);
            (partition, self.checkpoints.get(job, partition))
        });
        self.scribe
            .category_backlog(category, cursors)
            .map_err(|(p, e)| format!("{job}/p{}: {e}", p.raw()))
    }

    /// Turn on continuous invariant checking: every executed instant from
    /// now on is evaluated against the platform's safety and convergence
    /// invariants.
    pub fn enable_invariant_checks(&mut self, config: InvariantConfig) {
        self.invariants = Some(InvariantChecker::new(config));
        // A fresh checker has seen nothing, so its first sparse check
        // must treat the whole current world as dirty.
        self.pending_dirty = PendingDirty::all(self.engine.job_ids());
        self.jobs.store_mut().refeed(StoreReader::Checker);
    }

    /// Bring the per-job resiliency cache up to date with the Job Store:
    /// only jobs whose rows changed since the last call are re-decoded.
    pub(crate) fn refresh_resiliency_cache(&mut self) {
        for job in self.jobs.store_mut().drain_changes(StoreReader::Standbys) {
            if self.jobs.store().has_job(job) {
                let tier = self.job_resiliency(job);
                self.resiliency_cache.insert(job, tier);
            } else {
                self.resiliency_cache.remove(&job);
            }
        }
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

snap_struct!(PendingDirty {
    jobs,
    distributed,
    cluster,
    quarantine,
    standby
});

snap_struct!(SeveredState { at, rebooted });

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
/// take it (the holders write indices into it).
macro_rules! turbine_stream {
    (
        $($head:ident),* ;
        table $table_name:ident ;
        $($tail:ident $(via ($put:path, $get:path))?),* ;
        derived { $($derived:ident : $rebuild:expr),* $(,)? }
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
                Ok(Turbine { $($head,)* $($tail,)* $($derived,)* })
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
    scaler, capacity, checkpoints, engine, paused, capacity_stopped, state_moves, crash_mtbf,
    rng, releases, lag_since, last_diagnosis, severed, categories, shadow,
    outages, container_down_since, fresh_promotions, fresh_revivals, faults, trace,
    invariants, pending_dirty, load_dirty_containers, resiliency_cache, sched,
    last_scaler_drain, ods;
    // Caches and cost counters: rebuilt or restarted, never stored.
    derived {
        container_cpu: None,
        live_containers: None,
        tm_managers_reconciled: 0,
        standbys_examined: 0,
        heartbeat_filtered: 0,
    }
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
