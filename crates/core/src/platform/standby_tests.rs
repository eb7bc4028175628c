//! A warm standby and an idle container on one of its job's primary
//! hosts. Every public way to add capacity gives a host one Task Manager,
//! so a primary host has no idle container; this fleet puts a second Task
//! Manager on a host the way `Turbine::add_hosts` puts the first.

use super::*;

/// A critical job of one task beside a filler job of 24 tasks on three
/// hosts: every container runs a primary, the standby's too.
#[test]
fn a_busy_standby_stays_when_the_only_idle_container_is_on_a_primary_host() {
    let shape = Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0);
    let mut t = Turbine::new(TurbineConfig {
        scaler_enabled: false,
        ..TurbineConfig::default()
    });
    t.add_hosts(3, shape);
    t.enable_invariant_checks(InvariantConfig::default());
    let mut critical = JobConfig::stateless("crit_one", 1, 32);
    critical.resiliency = ResiliencyClass::Critical;
    let filler = JobConfig::stateless("filler", 24, 32);
    for (id, config) in [(1, critical), (2, filler)] {
        t.provision_job(JobId(id), config, TrafficModel::flat(1.0e6), 1.0e6, 256.0)
            .expect("provision");
    }
    t.run_for(Duration::from_mins(5));
    let busy = |t: &Turbine, c: ContainerId| t.engine.tasks().any(|(_, task)| task.container == c);
    let standby = t.standby_of(JobId(1)).expect("placed");
    assert!(
        t.task_managers.keys().all(|&c| busy(&t, c)),
        "no idle container"
    );

    let (_, primary) = t.engine.tasks_of_job(JobId(1)).next().expect("a primary");
    let host = t.cluster.host_of(primary.container).expect("a host");
    let cap = shape.scale(0.1);
    let idle = t.cluster.allocate_container(host, cap).expect("room");
    t.shard_manager.register_container(idle, cap, t.now);
    let manager = LocalTaskManager::new(idle, t.config.shard_count);
    t.task_managers.insert(idle, manager);
    t.container_changed(idle);
    t.cluster_changed();

    for _ in 0..3 {
        t.run_for(t.config.heartbeat_interval);
        assert!(!busy(&t, idle), "the new container stays idle");
        assert_eq!(t.standby_of(JobId(1)), Some(standby), "no move onto {host}");
    }
    assert!(t.invariant_violations().is_empty());
}
