//! Engine mutations reach the sparse invariant check. A violation or a
//! divergence planted through the engine alone — no Task Manager, no Job
//! Store write, no control-loop mark — must be caught at the very next
//! executed instant, on the production path and under the
//! `DriveMode::FullScan` reference, and on a copy restored from the stream
//! in between, with the full-scan audit run at every check and agreeing.
//! So must what was planted before checking was turned on.

use super::*;
use turbine_types::TaskId;

/// Two flat stateless jobs of two tasks over eight partitions each on
/// three hosts, the scaler off so nothing but the test reshapes them.
fn fleet() -> Turbine {
    let mut t = Turbine::new(TurbineConfig {
        scaler_enabled: false,
        ..TurbineConfig::default()
    });
    t.add_hosts(3, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
    for j in 1..=2 {
        t.provision_job(JobId(j), config(j), TrafficModel::flat(1.0e6), 1.0e6, 256.0)
            .expect("provision");
    }
    t
}

/// [`fleet`] converged, checked at every instant with an audit at every
/// check.
fn converged(mode: DriveMode) -> Turbine {
    let mut t = fleet();
    t.enable_invariant_checks(InvariantConfig { audit_interval: 1 });
    t.drive_for(Duration::from_mins(10), mode);
    for j in 1..=2 {
        assert_eq!(t.engine.running_tasks_of(JobId(j)), 2, "converged");
    }
    assert!(t.invariant_violations().is_empty());
    t
}

fn config(job: u64) -> JobConfig {
    JobConfig::stateless(&format!("planted_{job}"), 2, 8)
}

/// A platform decoded from `t`'s stream.
fn restored(t: &Turbine) -> Turbine {
    let mut w = SnapWriter::new();
    t.snap(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let copy = r.get().expect("decode");
    r.expect_end().expect("the whole stream");
    copy
}

/// A third task of `job` on task 0's partition slice and container, started
/// through the engine alone.
fn plant_overlap(t: &mut Turbine, job: JobId) {
    let specs = TaskService::generate_specs(job, &config(job.0));
    let sibling = t.engine.task(specs[0].id).expect("running").container;
    let mut planted = specs[1].clone();
    planted.id = TaskId::new(job, 7);
    planted.partitions = specs[0].partitions.clone();
    t.engine
        .task_started(&planted, sibling, t.now, RESTART_DELAY);
}

/// Run one executed instant; the violations it recorded.
fn step(t: &mut Turbine, mode: DriveMode) -> Vec<Violation> {
    let before = t.invariant_violations().len();
    t.drive_for(t.config.tick, mode);
    t.invariant_violations()[before..].to_vec()
}

#[test]
fn a_violation_planted_through_the_engine_is_caught_at_its_instant() {
    for mode in [DriveMode::EventDriven, DriveMode::FullScan] {
        let mut t = converged(mode);
        plant_overlap(&mut t, JobId(1));
        let mut copy = restored(&t);
        for p in [&mut t, &mut copy] {
            let at = p.now + p.config.tick;
            let fresh = step(p, mode);
            assert!(
                fresh
                    .iter()
                    .any(|v| v.invariant == "single-partition-ownership" && v.at == at),
                "{mode:?}: overlap not caught at {at}: {fresh:?}"
            );
            let checker = p.invariant_checker().expect("enabled");
            assert!(checker.audit_rounds() > 0);
            assert_eq!(checker.audit_mismatches(), 0, "{mode:?}");
        }
        assert_eq!(t.invariant_violations(), copy.invariant_violations());

        // One of job 2's tasks stops through the engine: fewer tasks run
        // than its running configuration calls for.
        let victim = TaskService::generate_specs(JobId(2), &config(2))[0].id;
        let container = t.engine.task(victim).expect("running").container;
        for p in [&mut t, &mut copy] {
            p.engine.task_stopped(victim, container);
            let at = p.now + p.config.tick;
            step(p, mode);
            let checker = p.invariant_checker().expect("enabled");
            assert_eq!(checker.diverged_since(JobId(2)), Some(at), "{mode:?}");
            assert_eq!(checker.audit_mismatches(), 0, "{mode:?}");
        }
    }
}

/// A checker turned on mid-run has seen nothing, so its first check covers
/// every job and every scope. Planted while checking is off and left for
/// an instant, so that no change feed still holds them: an overlap in job
/// 1 and a shard that a second Task Manager runs behind the Shard
/// Manager's back. Planted right after checking is turned on: an overlap
/// in job 2. All three are caught at the next instant.
#[test]
fn checks_enabled_mid_run_catch_what_was_planted_before_and_after() {
    for mode in [DriveMode::EventDriven, DriveMode::FullScan] {
        let mut t = fleet();
        t.drive_for(Duration::from_mins(10), mode);
        assert!(t.invariant_checker().is_none());
        plant_overlap(&mut t, JobId(1));
        let task = TaskService::generate_specs(JobId(1), &config(1))[0].id;
        let owner = t.engine.task(task).expect("running").container;
        let intruder = *t
            .task_managers
            .keys()
            .find(|&&c| c != owner)
            .expect("3 hosts");
        let shard = turbine_taskmgr::shard_of_task(task, t.config.shard_count);
        let started = t
            .task_managers
            .get_mut(&intruder)
            .expect("listed")
            .add_shard(shard);
        assert!(!started.is_empty(), "the intruder runs the shard's tasks");
        assert!(step(&mut t, mode).is_empty(), "checking is off");

        t.enable_invariant_checks(InvariantConfig { audit_interval: 1 });
        plant_overlap(&mut t, JobId(2));
        let at = t.now + t.config.tick;
        let fresh = step(&mut t, mode);
        for (invariant, needle) in [
            ("single-partition-ownership", "job-1 "),
            ("single-partition-ownership", "job-2 "),
            ("single-shard-ownership", ""),
            ("single-task-ownership", ""),
        ] {
            assert!(
                fresh
                    .iter()
                    .any(|v| v.invariant == invariant && v.detail.contains(needle) && v.at == at),
                "{mode:?}: {invariant} {needle:?} not caught at {at}: {fresh:?}"
            );
        }
        let checker = t.invariant_checker().expect("enabled");
        assert_eq!(checker.audit_rounds(), 1);
        assert_eq!(checker.audit_mismatches(), 0, "{mode:?}");
    }
}

/// A primary task planted through the engine on a critical job's warm
/// standby is caught at its instant. It bypasses the eviction a started
/// task triggers, so the registration goes at the next heartbeat round:
/// the planted task makes the standby busy while another host's container
/// is idle, and the fail-over check moves the standby there.
/// Heartbeats every minute leave the instants between for the check to
/// see the conflict first; the audit agrees at every check.
#[test]
fn a_primary_on_its_standby_is_caught_then_cleared_with_the_registration() {
    for mode in [DriveMode::EventDriven, DriveMode::DenseTick] {
        let mut t = Turbine::new(TurbineConfig {
            scaler_enabled: false,
            heartbeat_interval: Duration::from_mins(1),
            ..TurbineConfig::default()
        });
        t.add_hosts(4, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
        let mut critical = config(1);
        critical.resiliency = ResiliencyClass::Critical;
        t.provision_job(JobId(1), critical, TrafficModel::flat(1.0e6), 1.0e6, 256.0)
            .expect("provision");
        t.enable_invariant_checks(InvariantConfig { audit_interval: 1 });
        t.drive_for(Duration::from_mins(10), mode);
        let standby = t.standby_of(JobId(1)).expect("placed");

        let mut planted = TaskService::generate_specs(JobId(1), &config(1))[0].clone();
        planted.id = TaskId::new(JobId(1), 7);
        t.engine
            .task_started(&planted, standby, t.now, RESTART_DELAY);
        let at = t.now + t.config.tick;
        let fresh = step(&mut t, mode);
        assert!(
            fresh
                .iter()
                .any(|v| v.invariant == "standby-isolated" && v.at == at),
            "{mode:?}: conflict not caught at {at}: {fresh:?}"
        );
        t.drive_for(t.config.heartbeat_interval, mode);
        assert_ne!(t.standby_of(JobId(1)), Some(standby), "dropped");
        let checker = t.invariant_checker().expect("enabled");
        assert_eq!(checker.audit_mismatches(), 0, "{mode:?}");
    }
}
