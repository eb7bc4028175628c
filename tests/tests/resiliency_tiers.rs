//! Resiliency-tier integration tests: warm-standby fail-over for critical
//! jobs and per-tier SLO accounting, with the invariant checker on every
//! tick and every scenario driven under both the dense-tick reference and
//! the event-driven scheduler (fingerprints must match bit-for-bit).
//!
//! Timing contract exercised here (10 s tick, 20 s standby grace, 40 s
//! connection timeout, 60 s fail-over interval, 10 s restart delay):
//! a sustained heartbeat loss starting at T promotes a critical job's
//! warm standby at T+10s (last beat was T-10s, so the grace period has
//! elapsed by the next round) with a warm start, while a standard job
//! waits for the container to be declared dead at T+50s plus a cold
//! 10 s restart — 10 s vs 60 s of downtime.

use turbine::{
    recovery_budget, DriveMode, Fault, FaultPlan, InvariantConfig, RecoveryRecord, Turbine,
    TurbineConfig,
};
use turbine_config::{ConfigValue, JobConfig, ResiliencyClass};
use turbine_types::{ContainerId, Duration, JobId, Resources, TaskId};
use turbine_workloads::TrafficModel;

fn host_shape() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

fn assert_clean(t: &Turbine) {
    assert!(
        t.invariant_violations().is_empty(),
        "invariant violations: {:?}",
        t.invariant_violations()
    );
}

fn provision(t: &mut Turbine, id: u64, name: &str, tier: ResiliencyClass) {
    let mut jc = JobConfig::stateless(name, 2, 32);
    jc.max_task_count = 64;
    jc.resiliency = tier;
    t.provision_job(JobId(id), jc, TrafficModel::flat(1.0e6), 1.0e6, 256.0)
        .expect("provision");
}

fn first_recovery(t: &Turbine, job: JobId) -> Option<&RecoveryRecord> {
    t.metrics.recoveries.iter().find(|r| r.job == job)
}

/// Sever the primary containers of a critical and a standard job with the
/// same scheduled fault plan; return the driven platform.
fn tiered_pair(mode: DriveMode) -> Turbine {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision(&mut t, 1, "tier_crit", ResiliencyClass::Critical);
    provision(&mut t, 2, "tier_std", ResiliencyClass::Standard);
    t.drive_for(Duration::from_mins(5), mode);

    let c_crit = t
        .task_container(TaskId::new(JobId(1), 0))
        .expect("critical task placed");
    let c_std = t
        .task_container(TaskId::new(JobId(2), 0))
        .expect("standard task placed");
    let from = t.now() + Duration::from_mins(1);
    let until = Some(from + Duration::from_mins(3));
    t.schedule_fault(FaultPlan {
        fault: Fault::HeartbeatLoss(c_crit),
        from,
        until,
    });
    if c_std != c_crit {
        t.schedule_fault(FaultPlan {
            fault: Fault::HeartbeatLoss(c_std),
            from,
            until,
        });
    }
    t.drive_for(Duration::from_mins(10), mode);
    t
}

#[test]
fn critical_recovers_within_budget_and_5x_faster_than_standard() {
    let t = tiered_pair(DriveMode::EventDriven);

    let crit = first_recovery(&t, JobId(1)).expect("critical job recovered");
    assert!(crit.fast, "critical must take the warm-standby fast path");
    assert_eq!(crit.tier, ResiliencyClass::Critical);
    assert!(
        crit.ms <= recovery_budget(ResiliencyClass::Critical).as_millis(),
        "critical recovery {}ms over budget",
        crit.ms
    );

    let std = first_recovery(&t, JobId(2)).expect("standard job recovered");
    assert!(!std.fast, "standard rides the full-sync path");
    assert_eq!(std.tier, ResiliencyClass::Standard);
    assert!(
        std.ms <= recovery_budget(ResiliencyClass::Standard).as_millis(),
        "standard recovery {}ms over budget",
        std.ms
    );

    assert!(
        std.ms >= 5 * crit.ms,
        "fast path must be at least 5x faster: critical {}ms vs standard {}ms",
        crit.ms,
        std.ms
    );

    // Both jobs back at strength; standby coverage restored after the
    // promotion consumed the old registration.
    for id in [1u64, 2] {
        let status = t.job_status(JobId(id)).expect("status");
        assert_eq!(status.running_tasks, 2, "job {id}: {status:?}");
    }
    assert!(
        t.standby_of(JobId(1)).is_some(),
        "critical job must get a fresh standby after promotion"
    );
    assert!(
        t.standby_of(JobId(2)).is_none(),
        "standard jobs never get standbys"
    );
    assert_clean(&t);
}

#[test]
fn tiered_pair_is_mode_equivalent() {
    let dense = tiered_pair(DriveMode::DenseTick);
    let event = tiered_pair(DriveMode::EventDriven);
    assert_eq!(
        dense.fingerprint(),
        event.fingerprint(),
        "dense and event-driven runs must match bit-for-bit"
    );
    assert_clean(&dense);
    assert_clean(&event);
}

/// Kill the standby's whole host in the window between the primary's
/// sever and the promotion round: the fast path must refuse the dead
/// standby and degrade to the standard fail-over, and no replacement
/// standby may be promoted cold mid-outage.
fn standby_host_dies_mid_promotion(mode: DriveMode) -> Turbine {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision(&mut t, 1, "crit_solo", ResiliencyClass::Critical);
    t.drive_for(Duration::from_mins(5), mode);

    let standby = t.standby_of(JobId(1)).expect("standby placed after settle");
    let standby_host = t.cluster.host_of(standby).expect("standby has a host");
    let c_prim = t
        .task_container(TaskId::new(JobId(1), 0))
        .expect("primary placed");
    let from = t.now() + Duration::from_mins(1);
    t.schedule_fault(FaultPlan {
        fault: Fault::HeartbeatLoss(c_prim),
        from,
        until: Some(from + Duration::from_mins(3)),
    });
    // Drive exactly to the sever instant, then take the standby's host
    // down before the next control round can promote it.
    t.drive_for(Duration::from_mins(1), mode);
    t.fail_host(standby_host).expect("fail standby host");
    t.drive_for(Duration::from_mins(10), mode);
    t.recover_host(standby_host).expect("recover standby host");
    t.drive_for(Duration::from_mins(2), mode);
    t
}

#[test]
fn standby_host_death_mid_promotion_degrades_to_standard_path() {
    let t = standby_host_dies_mid_promotion(DriveMode::EventDriven);

    let rec = first_recovery(&t, JobId(1)).expect("job recovered");
    assert!(
        !rec.fast,
        "dead standby must not be promoted; the job degrades to the standard path"
    );
    assert!(
        rec.ms <= recovery_budget(ResiliencyClass::Standard).as_millis(),
        "degraded recovery {}ms must still land within the standard budget",
        rec.ms
    );
    let status = t.job_status(JobId(1)).expect("status");
    assert_eq!(status.running_tasks, 2, "{status:?}");
    assert!(
        t.standby_of(JobId(1)).is_some(),
        "standby coverage must be restored after the outage closes"
    );
    assert_clean(&t);
}

#[test]
fn standby_host_death_is_mode_equivalent() {
    let dense = standby_host_dies_mid_promotion(DriveMode::DenseTick);
    let event = standby_host_dies_mid_promotion(DriveMode::EventDriven);
    assert_eq!(dense.fingerprint(), event.fingerprint());
    assert_clean(&dense);
    assert_clean(&event);
}

/// Sever primary and standby at the same instant (double fault): the
/// promotion round finds the standby severed, drops it, and the job rides
/// the standard path.
fn double_fault(mode: DriveMode) -> Turbine {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision(&mut t, 1, "crit_double", ResiliencyClass::Critical);
    t.drive_for(Duration::from_mins(5), mode);

    // Sever the primary and the standby *as currently registered* in the
    // same instant — the registration can migrate between control rounds,
    // so the pair must be read at the moment the fault lands.
    let standby = t.standby_of(JobId(1)).expect("standby placed after settle");
    let c_prim = t
        .task_container(TaskId::new(JobId(1), 0))
        .expect("primary placed");
    for container in [c_prim, standby] {
        t.inject_fault(
            Fault::HeartbeatLoss(container),
            Some(Duration::from_mins(3)),
        );
    }
    t.drive_for(Duration::from_mins(10), mode);
    t
}

#[test]
fn double_fault_degrades_to_standard_path() {
    let t = double_fault(DriveMode::EventDriven);

    let rec = first_recovery(&t, JobId(1)).expect("job recovered");
    assert!(!rec.fast, "severed standby must not be promoted");
    assert_eq!(rec.tier, ResiliencyClass::Critical);
    assert!(
        rec.ms <= recovery_budget(ResiliencyClass::Standard).as_millis(),
        "double-fault recovery {}ms must still land within the standard budget",
        rec.ms
    );
    let status = t.job_status(JobId(1)).expect("status");
    assert_eq!(status.running_tasks, 2, "{status:?}");
    assert_clean(&t);
}

#[test]
fn double_fault_is_mode_equivalent() {
    let dense = double_fault(DriveMode::DenseTick);
    let event = double_fault(DriveMode::EventDriven);
    assert_eq!(dense.fingerprint(), event.fingerprint());
    assert_clean(&dense);
    assert_clean(&event);
}

/// Two containers whose connections dropped 10 s apart reboot at the same
/// beat, and one job runs tasks on both. Its outage is measured from the
/// earlier loss on every platform: the reboots are handled in container
/// order and the job's onset is the earliest of theirs, whatever order a
/// platform would have met them in.
#[test]
fn containers_rebooting_at_one_beat_date_the_outage_from_the_earliest_loss() {
    let recovery_ms = || {
        let mut config = TurbineConfig::default();
        config.heartbeat_interval = Duration::from_secs(20);
        let mut t = Turbine::new(config);
        let hosts = t.add_hosts(3, host_shape());
        let mut jc = JobConfig::stateless("twelve", 12, 32);
        jc.max_task_count = 64;
        t.provision_job(JobId(1), jc, TrafficModel::flat(1.0e6), 1.0e6, 256.0)
            .expect("provision");
        let container = |t: &Turbine, host| t.cluster.containers_on(host).expect("host")[0];
        for (host, at_secs) in [(hosts[0], 310), (hosts[1], 320)] {
            t.run_until(turbine_types::SimTime::ZERO + Duration::from_secs(at_secs));
            let c = container(&t, host);
            assert!(
                t.task_managers()[&c].runs_job(JobId(1)),
                "{c} runs a task of the job"
            );
            t.sever_connection(c);
        }
        t.run_for(Duration::from_mins(5));
        first_recovery(&t, JobId(1)).expect("recovered").ms
    };
    for _ in 0..16 {
        assert_eq!(recovery_ms(), 90_000, "310 s loss to the 400 s recovery");
    }
}

/// Drop a container's connection and fail its host 10 s apart, in the
/// order given, then clear the first cause 10 s later. The container is
/// still lost to the other cause, so the outage its fail-over opens is
/// dated from the first loss at 300 s; returns that onset in ms.
fn onset_of_a_loss_with_two_causes(host_first: bool) -> u64 {
    let at = |secs| turbine_types::SimTime::ZERO + Duration::from_secs(secs);
    let mut t = Turbine::new(TurbineConfig::default());
    t.add_hosts(3, host_shape());
    provision(&mut t, 1, "two_causes", ResiliencyClass::Standard);
    t.run_until(at(300));
    let c = t
        .task_container(TaskId::new(JobId(1), 0))
        .expect("task placed");
    let host = t.cluster.host_of(c).expect("container has a host");
    if host_first {
        t.fail_host(host).expect("fail host");
        t.run_until(at(310));
        t.sever_connection(c);
        t.run_until(at(320));
        t.recover_host(host).expect("recover host");
    } else {
        t.sever_connection(c);
        t.run_until(at(310));
        t.fail_host(host).expect("fail host");
        t.run_until(at(320));
        t.restore_connection(c);
    }
    t.run_for(Duration::from_mins(5));
    let rec = first_recovery(&t, JobId(1)).expect("job recovered");
    rec.at.as_millis() - rec.ms
}

#[test]
fn a_restored_connection_keeps_the_onset_while_the_host_is_down() {
    assert_eq!(onset_of_a_loss_with_two_causes(false), 300_000);
}

#[test]
fn a_recovered_host_keeps_the_onset_while_the_connection_is_severed() {
    assert_eq!(onset_of_a_loss_with_two_causes(true), 300_000);
}

/// Whether any task runs in `container`.
fn busy(t: &Turbine, container: ContainerId) -> bool {
    t.task_placements().iter().any(|&(_, c)| c == container)
}

/// A critical job of two tasks beside a filler job whose tasks keep each
/// of the three containers busy, converged: the standby had no idle
/// container to go to.
fn standby_on_a_busy_fleet() -> Turbine {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    let mut t = Turbine::new(config);
    t.add_hosts(3, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision(&mut t, 1, "crit_busy", ResiliencyClass::Critical);
    provision(&mut t, 2, "filler", ResiliencyClass::Standard);
    t.oncall_set(JobId(2), "task_count", ConfigValue::Int(24))
        .expect("oncall");
    t.drive_for(Duration::from_mins(5), DriveMode::EventDriven);
    let standby = t.standby_of(JobId(1)).expect("standby placed");
    assert!(busy(&t, standby), "the filler leaves no container idle");
    t
}

/// A standby that shares a container with other jobs' primaries moves at
/// the next fail-over check once an idle container off the job's hosts
/// appears.
#[test]
fn a_busy_standby_moves_to_an_idle_container_at_the_next_failover_check() {
    let mut t = standby_on_a_busy_fleet();
    let standby = t.standby_of(JobId(1));
    let host = t.add_hosts(1, host_shape())[0];
    let idle = t.cluster.containers_on(host).expect("a host")[0];
    assert!(!busy(&t, idle), "the new container runs nothing yet");
    assert_eq!(
        t.standby_of(JobId(1)),
        standby,
        "nothing moves before the check"
    );
    let beat = t.config().heartbeat_interval;
    t.drive_for(beat, DriveMode::EventDriven);
    assert!(!busy(&t, idle));
    assert_eq!(t.standby_of(JobId(1)), Some(idle));
    assert_clean(&t);
}

/// A primary task that starts on the host of its job's standby drops the
/// registration at that instant: the invariant checker, which checks
/// every executed instant, never sees a standby share a host with a
/// primary. Beats a minute apart leave the instants between them to the
/// eviction alone.
#[test]
fn a_primary_starting_on_its_standby_host_drops_the_registration_at_that_instant() {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = false;
    config.heartbeat_interval = Duration::from_mins(1);
    let mut t = Turbine::new(config);
    t.add_hosts(4, host_shape());
    t.enable_invariant_checks(InvariantConfig::default());
    provision(&mut t, 1, "crit_grow", ResiliencyClass::Critical);
    t.drive_for(Duration::from_mins(5), DriveMode::EventDriven);
    let standby = t.standby_of(JobId(1)).expect("standby placed");
    let host = t.cluster.host_of(standby).expect("standby has a host");
    let on_its_host = |t: &Turbine| {
        t.task_placements()
            .iter()
            .any(|&(id, c)| id.job == JobId(1) && t.cluster.host_of(c) == Ok(host))
    };
    assert!(!on_its_host(&t));

    // Grow the job until a primary lands on the standby's host.
    t.oncall_set(JobId(1), "task_count", ConfigValue::Int(32))
        .expect("oncall");
    let tick = t.config().tick;
    let mut landed = None;
    for _ in 0..60 {
        t.drive_for(tick, DriveMode::EventDriven);
        if on_its_host(&t) {
            landed = Some(t.now());
            break;
        }
    }
    let at = landed.expect("a primary reached the standby's host");
    assert_ne!(t.standby_of(JobId(1)), Some(standby), "dropped at {at}");
    t.drive_for(Duration::from_mins(2), DriveMode::EventDriven);
    assert_clean(&t);
}
