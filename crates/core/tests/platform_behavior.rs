//! End-to-end behaviour of the assembled platform: provisioning flow,
//! update propagation, scaling, fail-over, and the §IV-C connection
//! protocol, all at production cadences in simulated time.

use turbine::{MetricKey, Turbine, TurbineConfig};
use turbine_config::{ConfigValue, JobConfig};
use turbine_ods::REGISTRY_SERIES_CAPACITY;
use turbine_types::{Duration, JobId, Resources, TimeSeries};
use turbine_workloads::TrafficModel;

fn host_caps() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

/// A series of the metrics registry, if it was ever published.
fn series(t: &Turbine, key: MetricKey) -> Option<&TimeSeries> {
    t.ods_registry().series_by_key(&key)
}

/// The latest sample of a platform series.
fn latest(t: &Turbine, name: &str) -> Option<f64> {
    series(t, MetricKey::platform(name)).and_then(TimeSeries::last)
}

fn small_platform() -> Turbine {
    let mut config = TurbineConfig::default();
    config.scaler.min_action_gap = Duration::from_mins(2);
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_caps());
    t
}

#[test]
fn end_to_end_scheduling_within_two_minutes() {
    let mut t = small_platform();
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("fast_start", 4, 16),
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    // Paper §IV-D: overall end-to-end scheduling is 1-2 minutes.
    t.run_for(Duration::from_mins(2));
    let status = t.job_status(job).expect("status");
    assert_eq!(status.running_tasks, 4, "{status:?}");
    assert_eq!(status.running_config_tasks, 4);
}

#[test]
fn healthy_job_keeps_up_and_meets_slo() {
    let mut t = small_platform();
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("steady", 4, 16),
        TrafficModel::flat(2.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(30));
    let status = t.job_status(job).expect("status");
    // Backlog bounded to roughly one tick of data.
    assert!(
        status.backlog_bytes < 2.0e6 * 30.0,
        "backlog {}",
        status.backlog_bytes
    );
    assert_eq!(latest(&t, "slo_ok_fraction"), Some(1.0));
}

#[test]
fn package_release_propagates_as_simple_sync() {
    let mut t = small_platform();
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("release", 4, 16),
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(3));
    let restarts_before = t.metrics.task_restarts.get();

    // Provisioner-level release of version 2.
    t.job_service_mut()
        .set_level_field(
            job,
            turbine_config::ConfigLevel::Provisioner,
            "package.version",
            ConfigValue::Int(2),
        )
        .expect("release");
    // Cache TTL (90 s) + sync round (30 s) + TM refresh (60 s): within
    // ~4 minutes every task restarted on the new version.
    t.run_for(Duration::from_mins(4));
    let restarts = t.metrics.task_restarts.get() - restarts_before;
    assert_eq!(restarts, 4, "all four tasks restart exactly once");
    let status = t.job_status(job).expect("status");
    assert_eq!(status.running_tasks, 4);
}

#[test]
fn parallelism_change_runs_complex_sync_with_bounded_downtime() {
    let mut t = small_platform();
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("resize", 4, 64),
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(3));

    t.oncall_set(job, "task_count", ConfigValue::Int(8))
        .expect("oncall resize");
    // Observe the pause phase (old tasks stopped) then the new layout.
    let mut saw_pause = false;
    let mut settled_at = None;
    let start = t.now();
    for _ in 0..60 {
        t.run_for(Duration::from_secs(30));
        let status = t.job_status(job).expect("status");
        if status.paused {
            saw_pause = true;
        }
        if status.running_tasks == 8 && !status.paused {
            settled_at = Some(t.now());
            break;
        }
    }
    assert!(saw_pause, "complex sync must pass through the stop phase");
    let settled = settled_at.expect("new parallelism must settle");
    // Stop propagation (≤90s cache + 60s refresh) + sync + restart: well
    // under 10 minutes end to end.
    assert!(
        settled.since(start) <= Duration::from_mins(10),
        "took {}",
        settled.since(start)
    );
    // No data was lost or duplicated: backlog drains afterwards.
    t.run_for(Duration::from_mins(10));
    let status = t.job_status(job).expect("status");
    assert!(status.backlog_bytes < 1.0e6 * 60.0, "{status:?}");
}

#[test]
fn scaler_rescues_an_undersized_job() {
    let mut config = TurbineConfig::default();
    config.scaler.min_action_gap = Duration::from_mins(2);
    let mut t = Turbine::new(config);
    t.add_hosts(8, host_caps());
    let job = JobId(1);
    let mut jc = JobConfig::stateless("undersized", 2, 64);
    jc.max_task_count = 64;
    // 8 MB/s of input against 2 tasks × 1 MB/s: hopeless without scaling.
    t.provision_job(job, jc, TrafficModel::flat(8.0e6), 1.0e6, 256.0)
        .expect("provision");
    t.run_for(Duration::from_hours(2));
    let status = t.job_status(job).expect("status");
    // Vertical-first (§V-E): the scaler may satisfy demand by growing
    // threads per task rather than the task count — what matters is that
    // total capacity (tasks × threads) now covers the 8 MB/s input.
    let cfg = t.job_service_mut().expected_typed(job).expect("config");
    let total_threads = cfg.task_count * cfg.threads_per_task;
    assert!(
        total_threads >= 8,
        "scaler must grow capacity to sustain input: {cfg:?} {status:?}"
    );
    // And the job eventually keeps up (lag below 90 s SLO at 8 MB/s).
    assert!(
        status.backlog_bytes < 8.0e6 * 90.0,
        "backlog {} bytes",
        status.backlog_bytes
    );
    assert!(t.metrics.scaling_actions.get() > 0);
}

#[test]
fn scaler_disabled_job_stays_backlogged() {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(8, host_caps());
    let job = JobId(1);
    let mut jc = JobConfig::stateless("stuck", 2, 64);
    jc.max_task_count = 64;
    t.provision_job(job, jc, TrafficModel::flat(8.0e6), 1.0e6, 256.0)
        .expect("provision");
    t.run_for(Duration::from_hours(2));
    let status = t.job_status(job).expect("status");
    assert_eq!(status.running_config_tasks, 2, "no scaling happened");
    // Deficit ≈ 6 MB/s × 2 h ≈ 43 GB.
    assert!(status.backlog_bytes > 2.0e10, "{status:?}");
}

#[test]
fn host_failure_fails_tasks_over_within_two_minutes() {
    let mut t = small_platform();
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("failover", 8, 32),
        TrafficModel::flat(2.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(5));
    assert_eq!(t.job_status(job).expect("status").running_tasks, 8);

    let victim = t.cluster.hosts()[0];
    t.fail_host(victim).expect("fail");
    // Paper §IV-D: fail-overs start after 60 s; average task downtime
    // under 2 minutes. Allow one extra refresh for the restart itself.
    t.run_for(Duration::from_mins(3));
    let status = t.job_status(job).expect("status");
    assert_eq!(status.running_tasks, 8, "{status:?}");
    assert!(t.metrics.failovers.get() >= 1);
    // All tasks now run on healthy containers only.
    let healthy = t.cluster.healthy_containers();
    for c in t.cluster.containers_on(victim).expect("containers") {
        assert!(!healthy.contains(&c));
    }
}

#[test]
fn short_disconnect_keeps_shards_long_disconnect_fails_over() {
    let mut t = small_platform();
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("netsplit", 8, 32),
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(5));
    let container = t.cluster.healthy_containers()[0];

    // Short split: restored before the 60 s fail-over.
    let failovers_before = t.metrics.failovers.get();
    t.sever_connection(container);
    t.run_for(Duration::from_secs(50));
    t.restore_connection(container);
    t.run_for(Duration::from_mins(2));
    assert_eq!(
        t.metrics.failovers.get(),
        failovers_before,
        "no fail-over on a short split"
    );
    assert_eq!(t.job_status(job).expect("status").running_tasks, 8);

    // Long split: the Shard Manager fails the container over and the
    // rebooted container comes back empty.
    t.sever_connection(container);
    t.run_for(Duration::from_mins(3));
    assert!(t.metrics.failovers.get() > failovers_before);
    t.restore_connection(container);
    t.run_for(Duration::from_mins(2));
    let status = t.job_status(job).expect("status");
    assert_eq!(status.running_tasks, 8, "{status:?}");
}

#[test]
fn deleted_job_winds_down_completely() {
    let mut t = small_platform();
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("doomed", 4, 16),
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(3));
    assert_eq!(t.job_status(job).expect("status").running_tasks, 4);

    t.delete_job(job).expect("delete");
    t.run_for(Duration::from_mins(5));
    assert!(t.job_status(job).is_none(), "engine state cleared");
    assert_eq!(latest(&t, "task_count"), Some(0.0), "no tasks left running");
}

#[test]
fn imbalanced_input_is_rebalanced_by_the_scaler() {
    let mut config = TurbineConfig::default();
    config.scaler.min_action_gap = Duration::from_mins(2);
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_caps());
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("skewed", 4, 16),
        TrafficModel::flat(3.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(3));
    // All traffic into the first task's slice: it cannot keep up alone.
    let mut weights = vec![0.0; 16];
    for w in weights.iter_mut().take(4) {
        *w = 0.25;
    }
    t.skew_job_input(job, weights);
    t.run_for(Duration::from_mins(30));
    // The scaler's RebalanceInput resolver must have evened the weights
    // out again, and the job recovered.
    let status = t.job_status(job).expect("status");
    assert!(
        status.backlog_bytes < 3.0e6 * 90.0,
        "rebalance should restore health: {status:?}"
    );
}

#[test]
fn run_is_deterministic() {
    let build = || {
        let mut t = small_platform();
        t.provision_job(
            JobId(1),
            JobConfig::stateless("det", 4, 16),
            TrafficModel::diurnal(2.0e6, 0.3, 42),
            1.0e6,
            256.0,
        )
        .expect("provision");
        t.run_for(Duration::from_hours(2));
        (
            t.metrics.task_starts.get(),
            t.metrics.task_stops.get(),
            t.metrics.shard_moves.get(),
            t.job_status(JobId(1)).expect("status").backlog_bytes,
        )
    };
    assert_eq!(build(), build());
}

#[test]
fn stateful_resize_moves_state_before_committing() {
    // A stateful aggregation with 10M keys ≈ 10 GB of state moved at
    // 16 MB/s: the redistribution takes ~10 sim minutes, during which the
    // job stays paused — and then completes.
    let mut config = TurbineConfig::default();
    config.syncer.max_inflight_rounds = 40; // budget for the long move
    config.state_move_bandwidth = 16.0e6;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_caps());
    let job = JobId(1);
    let mut jc = JobConfig::stateless("agg", 4, 64);
    jc.task_resources = Resources::cpu_mem(1.0, 4096.0);
    t.provision_stateful_job(job, jc, TrafficModel::flat(1.0e6), 1.0e6, 256.0, 1.0e7)
        .expect("provision");
    t.run_for(Duration::from_mins(3));
    assert_eq!(t.job_status(job).expect("status").running_tasks, 4);

    t.oncall_set(job, "task_count", turbine_config::ConfigValue::Int(8))
        .expect("resize");
    // Collect how long the job stays paused through the resize.
    let mut paused_secs = 0u64;
    let mut settled = false;
    for _ in 0..80 {
        t.run_for(Duration::from_secs(30));
        let status = t.job_status(job).expect("status");
        if status.paused {
            paused_secs += 30;
        }
        if status.running_tasks == 8 && !status.paused {
            settled = true;
            break;
        }
    }
    assert!(settled, "stateful resize must complete");
    // The pause covers at least the ~6.5 min state move (plus stop/start
    // propagation) — far longer than a stateless resize.
    assert!(
        paused_secs >= 360,
        "state move must take real time, paused only {paused_secs}s"
    );
    assert!(!t.job_status(job).expect("status").quarantined);
}

#[test]
fn stateless_resize_is_much_faster_than_stateful() {
    let resize_duration = |stateful: bool| {
        let mut config = TurbineConfig::default();
        config.syncer.max_inflight_rounds = 40;
        config.state_move_bandwidth = 16.0e6;
        let mut t = Turbine::new(config);
        t.add_hosts(4, host_caps());
        let job = JobId(1);
        let mut jc = JobConfig::stateless("cmp", 4, 64);
        jc.task_resources = Resources::cpu_mem(1.0, 4096.0);
        if stateful {
            t.provision_stateful_job(job, jc, TrafficModel::flat(1.0e6), 1.0e6, 256.0, 1.0e7)
                .expect("provision");
        } else {
            t.provision_job(job, jc, TrafficModel::flat(1.0e6), 1.0e6, 256.0)
                .expect("provision");
        }
        t.run_for(Duration::from_mins(3));
        t.oncall_set(job, "task_count", turbine_config::ConfigValue::Int(8))
            .expect("resize");
        let start = t.now();
        for _ in 0..80 {
            t.run_for(Duration::from_secs(30));
            let status = t.job_status(job).expect("status");
            if status.running_tasks == 8 && !status.paused {
                return t.now().since(start);
            }
        }
        panic!("resize never settled (stateful={stateful})");
    };
    let stateless = resize_duration(false);
    let stateful = resize_duration(true);
    assert!(
        stateful.as_millis() > stateless.as_millis() + Duration::from_mins(5).as_millis(),
        "stateful {stateful} vs stateless {stateless}"
    );
}

#[test]
fn random_crashes_are_absorbed_by_task_restarts() {
    let mut config = TurbineConfig::default();
    config.scaler.min_action_gap = Duration::from_mins(2);
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_caps());
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("crashy", 8, 32),
        TrafficModel::flat(4.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(5));
    // One crash somewhere in the fleet every ~2 minutes, for an hour.
    t.set_crash_mtbf(Some(Duration::from_mins(2)));
    let restarts_before = t.metrics.task_restarts.get();
    t.run_for(Duration::from_hours(1));
    let crashes = t.metrics.task_restarts.get() - restarts_before;
    assert!(
        crashes >= 10,
        "injection must actually crash tasks: {crashes}"
    );
    // Every crash was absorbed: full task set running, SLO kept.
    let status = t.job_status(job).expect("status");
    assert_eq!(status.running_tasks, 8, "{status:?}");
    assert!(
        status.backlog_bytes < 4.0e6 * 90.0,
        "crash-restart churn must not break the SLO: {status:?}"
    );
    // Disabling stops the injection.
    t.set_crash_mtbf(None);
    let stable_from = t.metrics.task_restarts.get();
    t.run_for(Duration::from_mins(20));
    assert_eq!(t.metrics.task_restarts.get(), stable_from);
}

#[test]
fn root_causer_moves_a_task_off_a_sick_host() {
    let mut config = TurbineConfig::default();
    config.scaler.min_action_gap = Duration::from_mins(2);
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_caps());
    let job = JobId(1);
    // 8 tasks comfortably sized (each sees 0.75 MB/s of the 6 MB/s input).
    t.provision_job(
        job,
        JobConfig::stateless("sick_host", 8, 32),
        TrafficModel::flat(6.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(10));
    assert!(t.diagnoses().is_empty(), "healthy fleet needs no diagnosis");

    // One task's host goes bad: it processes at 2% speed. Capacity
    // estimates still say the job has plenty (7.98 task-equivalents for
    // 6 MB/s), so the scaler will not scale — this is an untriaged
    // problem with a single-task anomaly.
    let victim = *t
        .task_placements()
        .first()
        .map(|(id, _)| id)
        .expect("tasks running");
    let container_before = t
        .task_placements()
        .iter()
        .find(|(id, _)| *id == victim)
        .map(|(_, c)| *c)
        .expect("placed");
    t.degrade_task(victim, 0.02);

    t.run_for(Duration::from_mins(30));
    // The root-causer diagnosed a hardware issue and moved the task.
    assert!(
        !t.diagnoses().is_empty(),
        "untriaged lag must produce a diagnosis"
    );
    let diagnosis = &t.diagnoses()[0];
    assert_eq!(diagnosis.job, job);
    assert!(
        matches!(
            diagnosis.cause,
            turbine_autoscaler::RootCause::HardwareIssue { .. }
        ),
        "expected a hardware diagnosis, got: {:?}",
        diagnosis.cause
    );
    assert!(
        diagnosis.rationale.contains("bad host"),
        "expected a hardware rationale, got: {}",
        diagnosis.rationale
    );
    assert!(
        matches!(
            t.trace().get(diagnosis.trace).map(|e| &e.data),
            Some(turbine::TraceData::Diagnosis { .. })
        ),
        "diagnosis must link into the decision trace"
    );
    let container_after = t
        .task_placements()
        .iter()
        .find(|(id, _)| *id == victim)
        .map(|(_, c)| *c)
        .expect("still placed");
    assert_ne!(
        container_after, container_before,
        "mitigation must move the task"
    );
    // The restart on the new container cleared the degradation: the job
    // drains its backlog and returns to health.
    t.run_for(Duration::from_mins(30));
    let status = t.job_status(job).expect("status");
    assert!(
        status.backlog_bytes < 6.0e6 * 90.0,
        "job must recover after the move: {status:?}"
    );
}

/// Task Manager refresh costs what changed, not the fleet: once a fleet
/// has converged, a hundred refresh rounds render no job and reconcile no
/// manager, and one oncall write renders exactly the job it names. A
/// critical job's standby is still examined every fail-over check.
#[test]
fn converged_fleet_refreshes_without_rendering_or_reconciling() {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(6, host_caps());
    for j in 1..=8u64 {
        let mut job = JobConfig::stateless(&format!("steady_{j}"), 3, 16);
        if j == 8 {
            job.resiliency = turbine_config::ResiliencyClass::Critical;
        }
        t.provision_job(JobId(j), job, TrafficModel::flat(1.0e6), 1.0e6, 256.0)
            .expect("provision");
    }
    // First sync, first full build, everyone reconciles, standby placed.
    t.run_for(Duration::from_mins(5));
    assert_eq!(t.tm_jobs_rendered(), 8, "one full build of eight jobs");
    assert_eq!(t.tm_managers_reconciled(), 6, "each manager once");
    assert!(t.standby_of(JobId(8)).is_some());

    let examined = t.standbys_examined();
    t.run_for(Duration::from_mins(100));
    assert_eq!(t.tm_jobs_rendered(), 8, "100 rounds, nothing rendered");
    assert_eq!(
        t.tm_managers_reconciled(),
        6,
        "100 rounds, nobody reconciled"
    );
    assert_eq!(
        t.standbys_examined() - examined,
        600,
        "one registration, every 10 s fail-over check"
    );

    // Pin one job's package version: the syncer commits it, the next
    // fetch renders that job alone, and every manager sees a new snapshot.
    t.oncall_set(JobId(3), "package.version", ConfigValue::Int(7))
        .expect("oncall");
    t.run_for(Duration::from_mins(5));
    assert_eq!(t.tm_jobs_rendered(), 9, "exactly the job that changed");
    assert_eq!(t.tm_managers_reconciled(), 12, "one new snapshot");
    assert_eq!(t.metrics.task_restarts.get(), 3, "its three tasks");
}

/// A host band is published from its own samples only: hosts that report
/// no memory capacity give a CPU band and no memory band, not a memory
/// band of zeros that no host reported.
#[test]
fn a_band_without_samples_records_nothing() {
    let mut t = Turbine::new(TurbineConfig::default());
    t.add_hosts(2, Resources::new(56.0, 0.0, 1e6, 1000.0));
    t.run_for(Duration::from_mins(3));
    let samples = |name: &str| series(&t, MetricKey::platform(name)).map_or(0, TimeSeries::len);
    assert!(samples("host_cpu_p50") > 0);
    assert_eq!(samples("host_memory_p50"), 0);
}

/// The registry keeps the history the figures plot: platform series stay
/// exact past the registry capacity (and equal the copy the benchmark
/// adapter reads), a watched job's series too, and only an unwatched job's
/// series compacts.
#[test]
fn the_registry_keeps_the_history_the_figures_read() {
    let mut t = small_platform();
    let (watched, unwatched) = (JobId(1), JobId(2));
    for job in [watched, unwatched] {
        t.provision_job(
            job,
            JobConfig::stateless(&format!("flat_{}", job.raw()), 2, 8),
            TrafficModel::flat(1.0e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
    }
    t.watch_job(watched);
    t.run_for(Duration::from_mins(REGISTRY_SERIES_CAPACITY as u64 + 20));

    let registry = series(&t, MetricKey::platform("task_count")).expect("published");
    assert!(registry.len() > REGISTRY_SERIES_CAPACITY);
    assert!(registry.points().eq(t.metrics.task_count.points()));
    assert_eq!(registry.buckets(), t.metrics.task_count.buckets());
    let lag = |job: JobId| series(&t, MetricKey::job(job.raw(), "lag_secs")).expect("published");
    assert!(lag(watched).buckets().is_empty(), "watched: exact");
    assert!(!lag(unwatched).buckets().is_empty(), "unwatched: compacted");
}
