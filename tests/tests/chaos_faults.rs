//! Chaos-engine integration tests: one scenario per fault point, each
//! demonstrating the degraded behavior *during* the fault and convergence
//! after it clears, with the invariant checker running on every tick.
//!
//! Fault points (ISSUE: deterministic chaos engine):
//! - Task Service outage → Task Managers serve their cached snapshot (§II)
//! - Job Store unavailability → writes fail, sync/scaling pause (§III-A)
//! - dropped heartbeats → proactive fail-over fires, but not for
//!   transient drops (§IV-C)
//! - State Syncer crash mid-complex-sync → restart resumes from the
//!   persisted expected-vs-running diff (§III-B)
//! - Scribe category read stall → root-causer dependency-failure class

use turbine::{Fault, InvariantConfig, Turbine, TurbineConfig};
use turbine_config::{ConfigValue, JobConfig};
use turbine_types::{Duration, JobId, Resources};
use turbine_workloads::TrafficModel;

fn host_shape() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

/// Assert the run accumulated zero invariant violations so far.
fn assert_clean(t: &Turbine) {
    assert!(
        t.invariant_violations().is_empty(),
        "invariant violations: {:?}",
        t.invariant_violations()
    );
}

fn provision_stateless(t: &mut Turbine, id: u64, name: &str, tasks: u32, rate: f64) {
    let mut jc = JobConfig::stateless(name, tasks, 32);
    jc.max_task_count = 64;
    t.provision_job(JobId(id), jc, TrafficModel::flat(rate), 1.0e6, 256.0)
        .expect("provision");
}

#[test]
fn task_service_outage_serves_cached_snapshots_and_defers_new_jobs() {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision_stateless(&mut t, 1, "cached_a", 4, 2.0e6);
    provision_stateless(&mut t, 2, "cached_b", 2, 1.0e6);
    t.run_for(Duration::from_mins(60));
    let before: Vec<usize> = (1..=2)
        .map(|i| t.job_status(JobId(i)).expect("status").running_tasks)
        .collect();
    assert_eq!(before, vec![4, 2]);

    // Task Service down. Existing jobs keep running off the cached
    // snapshot; a job provisioned during the outage is accepted by the
    // Job Store but its tasks cannot start until the service returns.
    t.inject_fault(Fault::TaskServiceDown, None);
    provision_stateless(&mut t, 3, "newcomer", 3, 1.0e6);
    t.run_for(Duration::from_mins(10));
    for (i, &was) in before.iter().enumerate() {
        let status = t.job_status(JobId(i as u64 + 1)).expect("status");
        assert_eq!(
            status.running_tasks, was,
            "degraded mode lost tasks: {status:?}"
        );
    }
    let newcomer = t.job_status(JobId(3)).expect("status");
    assert_eq!(
        newcomer.running_tasks, 0,
        "started during outage: {newcomer:?}"
    );
    assert!(newcomer.expected_tasks > 0);

    // Clearance invalidates the stale snapshot; the deferred job starts.
    t.clear_fault(&Fault::TaskServiceDown);
    t.run_for(Duration::from_mins(5));
    let newcomer = t.job_status(JobId(3)).expect("status");
    assert_eq!(newcomer.running_tasks, 3, "{newcomer:?}");
    assert_clean(&t);
}

#[test]
fn job_store_outage_blocks_writes_until_it_returns() {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision_stateless(&mut t, 1, "steady", 4, 2.0e6);
    t.run_for(Duration::from_mins(30));

    t.inject_fault(Fault::JobStoreDown, Some(Duration::from_mins(10)));
    t.run_for(Duration::from_mins(1));
    // Writes fail while the store is down...
    let err = t
        .oncall_set(JobId(1), "task_count", ConfigValue::Int(6))
        .expect_err("oncall write must fail");
    assert!(err.contains("job store unavailable"), "{err}");
    let mut jc = JobConfig::stateless("rejected", 2, 32);
    jc.max_task_count = 64;
    let err = t
        .provision_job(JobId(9), jc, TrafficModel::flat(1.0e6), 1.0e6, 256.0)
        .expect_err("provision must fail");
    assert!(err.contains("job store unavailable"), "{err}");
    // ...but the data plane keeps running on cached state.
    t.run_for(Duration::from_mins(5));
    assert_eq!(t.job_status(JobId(1)).expect("status").running_tasks, 4);

    // The fault window expires on its own; writes and sync resume.
    t.run_for(Duration::from_mins(10));
    t.oncall_set(JobId(1), "task_count", ConfigValue::Int(6))
        .expect("store is back");
    t.run_for(Duration::from_mins(5));
    assert_eq!(t.job_status(JobId(1)).expect("status").running_tasks, 6);
    assert_clean(&t);
}

#[test]
fn transient_heartbeat_drop_does_not_trigger_failover() {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    config.load_balancing_enabled = false;
    let mut t = Turbine::new(config);
    let hosts = t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision_stateless(&mut t, 1, "steady", 8, 4.0e6);
    t.run_for(Duration::from_mins(30));
    let placements_before = t.task_placements();
    assert_eq!(t.metrics.failovers.get(), 0);

    // One missed heartbeat (15 s < the 40 s connection timeout and the
    // 60 s fail-over interval): the Shard Manager must not react.
    let victim = t.cluster.containers_on(hosts[0]).expect("containers")[0];
    t.inject_fault(Fault::HeartbeatLoss(victim), Some(Duration::from_secs(15)));
    t.run_for(Duration::from_mins(5));

    assert_eq!(
        t.metrics.failovers.get(),
        0,
        "fail-over flapped on a transient drop"
    );
    assert_eq!(
        t.task_placements(),
        placements_before,
        "shards moved needlessly"
    );
    assert_eq!(t.job_status(JobId(1)).expect("status").running_tasks, 8);
    assert_clean(&t);
}

#[test]
fn sustained_heartbeat_loss_fails_over_without_duplicating_shards() {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    config.load_balancing_enabled = false;
    let mut t = Turbine::new(config);
    let hosts = t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision_stateless(&mut t, 1, "steady", 8, 4.0e6);
    t.run_for(Duration::from_mins(30));
    let victim = t.cluster.containers_on(hosts[0]).expect("containers")[0];

    // Sustained loss: past the 40 s proactive connection timeout the
    // container reboots itself; past the fail-over interval the Shard
    // Manager reassigns its shards. The job must keep running elsewhere.
    t.inject_fault(Fault::HeartbeatLoss(victim), Some(Duration::from_mins(3)));
    t.run_for(Duration::from_mins(2) + Duration::from_secs(30));
    assert!(
        t.metrics.failovers.get() >= 1,
        "proactive fail-over never fired"
    );
    let during = t.job_status(JobId(1)).expect("status");
    assert_eq!(
        during.running_tasks, 8,
        "tasks lost during fail-over: {during:?}"
    );
    let tm = &t.task_managers()[&victim];
    assert_eq!(
        tm.owned_shards().count(),
        0,
        "rebooted container kept shards"
    );

    // The fault clears (container reconnects empty) and the cluster
    // settles with every shard owned exactly once.
    t.run_for(Duration::from_mins(10));
    let mut owners = std::collections::BTreeMap::new();
    for (&container, tm) in t.task_managers() {
        for shard in tm.owned_shards() {
            if let Some(other) = owners.insert(shard, container) {
                panic!("{shard} owned by both {other} and {container}");
            }
        }
    }
    assert_eq!(t.job_status(JobId(1)).expect("status").running_tasks, 8);
    assert_clean(&t);
}

#[test]
fn syncer_crash_mid_complex_sync_resumes_after_restart() {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    // 1e8 keys ≈ 100 GB of state ≈ 390 s of state movement at the
    // configured bandwidth: the complex sync comfortably outlives the
    // crash we inject into the middle of it.
    let mut jc = JobConfig::stateless("stateful", 4, 32);
    jc.max_task_count = 16;
    t.provision_stateful_job(JobId(1), jc, TrafficModel::flat(2.0e6), 1.0e6, 256.0, 1.0e8)
        .expect("provision");
    t.run_for(Duration::from_mins(30));
    assert_eq!(t.job_status(JobId(1)).expect("status").running_tasks, 4);

    // A parallelism change on a stateful job forces a complex sync:
    // stop everything, move state, restart with the new task count.
    t.oncall_set(JobId(1), "task_count", ConfigValue::Int(8))
        .expect("resize");
    t.run_for(Duration::from_mins(3));
    let mid = t.job_status(JobId(1)).expect("status");
    assert!(mid.paused, "complex sync should be in flight: {mid:?}");

    // Crash the syncer mid-sync. While it is down nothing moves; the
    // expected-vs-running diff persisted in the Job Store is the
    // recovery log.
    t.inject_fault(Fault::SyncerCrash, Some(Duration::from_mins(5)));
    t.run_for(Duration::from_mins(4));
    let down = t.job_status(JobId(1)).expect("status");
    assert!(
        down.paused,
        "nothing should progress while crashed: {down:?}"
    );

    // The restarted syncer re-derives the in-flight sync and completes it.
    t.run_for(Duration::from_mins(15));
    let after = t.job_status(JobId(1)).expect("status");
    assert!(!after.paused, "{after:?}");
    assert_eq!(after.running_tasks, 8, "{after:?}");
    assert!(!after.quarantined, "{after:?}");
    assert_clean(&t);
}

/// A 4-task stateful job with 1e8 keys (≈ 390 s of state to move), run
/// until it is up, with the invariant checker on.
fn stateful_job_up() -> Turbine {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    let mut jc = JobConfig::stateless("stateful", 4, 32);
    jc.max_task_count = 16;
    t.provision_stateful_job(JobId(1), jc, TrafficModel::flat(2.0e6), 1.0e6, 256.0, 1.0e8)
        .expect("provision");
    t.run_for(Duration::from_mins(30));
    assert_eq!(t.job_status(JobId(1)).expect("status").running_tasks, 4);
    t
}

/// Resize the job to 8 tasks and run 3 minutes into the state move.
fn resize_to_8_mid_move(t: &mut Turbine) {
    t.oncall_set(JobId(1), "task_count", ConfigValue::Int(8))
        .expect("resize");
    t.run_for(Duration::from_mins(3));
    let mid = t.job_status(JobId(1)).expect("status");
    assert!(mid.paused, "the state move should be in flight: {mid:?}");
}

#[test]
fn a_complex_sync_reverted_mid_move_resumes_the_job() {
    let mut t = stateful_job_up();
    resize_to_8_mid_move(&mut t);
    // The oncall reverts the resize: expected is back at running, so no
    // sync commits, yet the job must not stay paused.
    t.oncall_clear(JobId(1)).expect("revert");
    t.run_for(Duration::from_mins(5));
    let after = t.job_status(JobId(1)).expect("status");
    assert!(!after.paused, "{after:?}");
    assert_eq!(after.running_tasks, 4, "{after:?}");
    // Past the convergence window, the backlog of the pause drained.
    t.run_for(Duration::from_mins(150));
    let settled = t.job_status(JobId(1)).expect("status");
    assert_eq!(settled.running_tasks, 4, "{settled:?}");
    assert!(settled.backlog_bytes < 2.0e6 * 120.0, "{settled:?}");
    assert_clean(&t);
}

#[test]
fn a_pause_lifted_mid_move_leaves_no_state_move() {
    let mut t = stateful_job_up();
    resize_to_8_mid_move(&mut t);
    // The revert comes with a simple edit: that sync commits and lifts
    // the pause before the move is done.
    t.oncall_clear(JobId(1)).expect("revert");
    t.oncall_set(JobId(1), "slo_lag_secs", ConfigValue::Float(120.0))
        .expect("edit");
    t.run_for(Duration::from_mins(30));
    let between = t.job_status(JobId(1)).expect("status");
    assert_eq!(
        (between.paused, between.running_tasks),
        (false, 4),
        "{between:?}"
    );
    // The next resize moves the state afresh: the job stays paused for
    // the whole move, as the first resize does.
    t.oncall_set(JobId(1), "task_count", ConfigValue::Int(8))
        .expect("resize");
    let tick = t.config().tick;
    let mut paused_ms = 0;
    let mut done = false;
    for _ in 0..120 {
        t.run_for(tick);
        let status = t.job_status(JobId(1)).expect("status");
        if status.paused {
            paused_ms += tick.as_millis();
        } else if status.running_tasks == 8 {
            done = true;
            break;
        }
    }
    assert!(done, "the resize never completed");
    assert!(
        paused_ms >= 390_000,
        "paused only {paused_ms} ms for a 390 s state move"
    );
    assert_clean(&t);
}

#[test]
fn scribe_stall_is_diagnosed_as_dependency_failure_and_drains_after() {
    // Scaler on: the root-causer triages the lag the scaler refuses to
    // fix. max_task_count == task_count so the stall cannot be "solved"
    // by scaling and must be classified instead.
    let mut t = Turbine::new(TurbineConfig::default());
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    let mut jc = JobConfig::stateless("stalled", 4, 16);
    jc.max_task_count = 4;
    t.provision_job(JobId(1), jc, TrafficModel::flat(2.0e6), 1.0e6, 256.0)
        .expect("provision");
    t.run_for(Duration::from_hours(2));
    let category = t.job_category(JobId(1)).expect("category").to_string();

    // Reads from the input category stall: arrivals continue, processing
    // drops to zero — the dependency-failure shape.
    t.inject_fault(Fault::ScribeStall(category), Some(Duration::from_mins(30)));
    t.run_for(Duration::from_mins(40));
    let diagnosed = t.diagnoses().iter().any(|d| {
        d.job == JobId(1) && matches!(d.cause, turbine_autoscaler::RootCause::DependencyFailure)
    });
    assert!(
        diagnosed,
        "no dependency-failure diagnosis; got {:?}",
        t.diagnoses()
    );

    // After the stall clears the backlog drains back down.
    t.run_for(Duration::from_hours(2));
    let status = t.job_status(JobId(1)).expect("status");
    assert_eq!(status.running_tasks, 4, "{status:?}");
    assert!(
        status.backlog_bytes < 2.0e6 * 120.0,
        "backlog never drained: {status:?}"
    );
    assert_clean(&t);
}

#[test]
fn maintenance_window_host_recovery_restores_every_task() {
    // Regression for the maintenance-window loss: two hosts fail in a
    // staggered window, recover, and every job must converge back to its
    // full task count with the invariant checker watching throughout.
    let mut config = TurbineConfig::default();
    config.scaler_enabled = true;
    config.load_balancing_enabled = true;
    let mut t = Turbine::new(config);
    let hosts = t.add_hosts(8, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());

    let jobs = [
        ("events", 8u32, 64u32, 6.0f64, 0.25f64, 10u64, 0.0f64),
        ("metrics", 4, 32, 3.0, 0.25, 11, 0.0),
        ("sessions", 4, 64, 2.0, 0.0, 12, 2_000_000.0),
    ];
    for (i, &(name, tasks, partitions, rate, diurnal, seed, keys)) in jobs.iter().enumerate() {
        let id = JobId(i as u64 + 1);
        let mut jc = JobConfig::stateless(name, tasks, partitions);
        jc.max_task_count = 64;
        let traffic = TrafficModel::diurnal(rate * 1.0e6, diurnal, seed);
        if keys > 0.0 {
            t.provision_stateful_job(id, jc, traffic, 1.0e6, 256.0, keys)
                .expect("provision");
        } else {
            t.provision_job(id, jc, traffic, 1.0e6, 256.0)
                .expect("provision");
        }
    }

    t.run_for(Duration::from_mins(60));
    t.fail_host(hosts[0]).expect("fail");
    t.run_for(Duration::from_mins(5));
    t.fail_host(hosts[1]).expect("fail");
    t.run_for(Duration::from_mins(55));
    t.recover_host(hosts[0]).expect("recover");
    t.run_for(Duration::from_mins(5));
    t.recover_host(hosts[1]).expect("recover");
    t.run_for(Duration::from_mins(115));

    for i in 0..jobs.len() as u64 {
        let status = t.job_status(JobId(i + 1)).expect("status");
        assert!(!status.quarantined, "{status:?}");
        assert_eq!(
            status.running_tasks,
            status.running_config_tasks as usize,
            "job {} did not converge: {status:?}",
            i + 1
        );
        assert!(status.running_tasks > 0, "{status:?}");
    }
    assert_clean(&t);
}

#[test]
fn torn_tail_salvage_clamps_recovered_checkpoints() {
    use turbine_types::PartitionId;

    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision_stateless(&mut t, 1, "salvaged", 4, 2.0e6);
    // Run long enough for several checkpoint-cadence syncs to land.
    t.run_for(Duration::from_mins(30));
    let job = JobId(1);
    let backlog_before = t.durable_backlog(job).expect("readable before salvage");
    let category = t.job_category(job).expect("category").to_string();

    // WAL torn-tail salvage: every partition's durable tail rewinds to
    // zero, stranding the persisted checkpoints beyond the new tails.
    let id = t.scribe.category_id(&category).expect("category");
    let partitions = t.scribe.tails(id).count();
    let mut lost = 0;
    for p in 0..partitions {
        lost += t
            .scribe
            .salvage_tail(&category, PartitionId(p as u64), 0)
            .expect("salvage");
    }
    assert!(lost > 0, "nothing was salvaged; test is vacuous");
    assert!(
        t.durable_backlog(job).is_err(),
        "stranded checkpoints must be visible as unreadable"
    );

    // The syncer crashes and restarts: its recovery path must clamp the
    // recovered checkpoints back to the tails and trace each clamp.
    t.inject_fault(Fault::SyncerCrash, None);
    t.clear_fault(&Fault::SyncerCrash);
    t.durable_backlog(job)
        .expect("checkpoints must be readable after recovery clamps them");
    let clamps = t
        .trace()
        .events()
        .filter(|e| e.data.kind() == "checkpoint_clamp")
        .count();
    assert!(clamps > 0, "clamping must surface trace events");

    // And the wedge must not recur: later checkpoint rounds re-commit
    // from the engine's consumed counters, which now exceed the salvaged
    // tails — commits must stay capped at the tail.
    t.run_for(Duration::from_mins(30));
    let backlog_after = t.durable_backlog(job).expect("still readable");
    let _ = (backlog_before, backlog_after);
    assert_clean(&t);
}
