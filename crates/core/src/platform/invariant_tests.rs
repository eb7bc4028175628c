//! Engine mutations reach the sparse invariant check. A violation or a
//! divergence planted through the engine alone — no Task Manager, no Job
//! Store write, no control-loop mark — must be caught at the very next
//! executed instant, on the production path and under the
//! `DriveMode::FullScan` reference, and on a copy restored from the stream
//! in between, with the full-scan audit run at every check and agreeing.

use super::*;
use turbine_types::TaskId;

/// Two flat stateless jobs of two tasks over eight partitions each,
/// converged, the scaler off so nothing but the test reshapes them.
fn converged(mode: DriveMode) -> Turbine {
    let mut t = Turbine::new(TurbineConfig {
        scaler_enabled: false,
        ..TurbineConfig::default()
    });
    t.add_hosts(3, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
    for j in 1..=2 {
        t.provision_job(JobId(j), config(j), TrafficModel::flat(1.0e6), 1.0e6, 256.0)
            .expect("provision");
    }
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
        let job = JobId(1);
        // A third task of job 1 on task 0's partition slice and container.
        let specs = TaskService::generate_specs(job, &config(1));
        let sibling = t.engine.task(specs[0].id).expect("running").container;
        let mut planted = specs[1].clone();
        planted.id = TaskId::new(job, 7);
        planted.partitions = specs[0].partitions.clone();
        t.engine
            .task_started(&planted, sibling, t.now, RESTART_DELAY);
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
