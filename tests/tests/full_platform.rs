//! Whole-platform scenario tests: the three management layers working
//! together under compound conditions (scaling + failures + deletions +
//! capacity pressure), plus end-to-end determinism.

use turbine::{Turbine, TurbineConfig};
use turbine_config::{ConfigValue, JobConfig};
use turbine_types::{Duration, JobId, Priority, Resources};
use turbine_workloads::TrafficModel;

fn hosts() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0)
}

#[test]
fn compound_chaos_keeps_every_job_running() {
    let mut config = TurbineConfig::default();
    config.scaler.min_action_gap = Duration::from_mins(2);
    let mut t = Turbine::new(config);
    t.add_hosts(8, hosts());

    for i in 0..12u64 {
        let mut jc = JobConfig::stateless(&format!("job_{i}"), 2, 64);
        jc.max_task_count = 64;
        t.provision_job(
            JobId(i + 1),
            jc,
            TrafficModel::diurnal(2.0e6 * (1 + i % 3) as f64, 0.3, i),
            1.0e6,
            256.0,
        )
        .expect("provision");
    }
    t.run_for(Duration::from_mins(10));

    // Chaos: host failure + recovery, connection splits, an oncall resize,
    // and a deletion — interleaved with normal operation.
    let victim = t.cluster.hosts()[2];
    t.fail_host(victim).expect("fail");
    t.run_for(Duration::from_mins(5));
    t.recover_host(victim).expect("recover");

    let split = t.cluster.healthy_containers()[1];
    t.sever_connection(split);
    t.run_for(Duration::from_mins(2));
    t.restore_connection(split);

    t.oncall_set(JobId(3), "task_count", ConfigValue::Int(16))
        .expect("resize");
    t.delete_job(JobId(12)).expect("delete");

    t.run_for(Duration::from_mins(30));

    // Every surviving job runs its expected task count; the deleted one is
    // gone; nothing is quarantined.
    for i in 0..11u64 {
        let job = JobId(i + 1);
        let status = t.job_status(job).expect("status");
        assert!(!status.quarantined, "{job} quarantined: {status:?}");
        assert_eq!(
            status.running_tasks, status.running_config_tasks as usize,
            "{job}: {status:?}"
        );
        assert!(status.running_tasks > 0, "{job} lost its tasks: {status:?}");
    }
    assert_eq!(t.job_status(JobId(3)).expect("status").running_tasks, 16);
    assert!(t.job_status(JobId(12)).is_none());
}

#[test]
fn capacity_pressure_protects_privileged_jobs() {
    let mut config = TurbineConfig::default();
    config.capacity_interval = Duration::from_mins(1);
    let mut t = Turbine::new(config);
    // A deliberately tiny cluster: 2 hosts.
    t.add_hosts(2, hosts());

    // A privileged job and several low-priority hogs that reserve most of
    // the cluster.
    let mut privileged = JobConfig::stateless("vip", 4, 64);
    privileged.priority = Priority::Privileged;
    privileged.task_resources = Resources::cpu_mem(2.0, 2048.0);
    t.provision_job(
        JobId(1),
        privileged,
        TrafficModel::flat(4.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    for i in 0..5u64 {
        let mut hog = JobConfig::stateless(&format!("hog_{i}"), 8, 64);
        hog.priority = Priority::Low;
        hog.task_resources = Resources::cpu_mem(2.5, 4096.0);
        t.provision_job(JobId(10 + i), hog, TrafficModel::flat(2.0e6), 1.0e6, 256.0)
            .expect("provision");
    }
    t.run_for(Duration::from_mins(20));

    // Reserved: 4*2 + 5*8*2.5 = 108 cores on ~112 total ⇒ critical. The
    // Capacity Manager must stop low-priority jobs; the privileged job
    // must keep all its tasks.
    let vip = t.job_status(JobId(1)).expect("status");
    assert_eq!(vip.running_tasks, 4, "{vip:?}");
    let stopped_hogs = (0..5u64)
        .filter(|i| t.job_status(JobId(10 + i)).expect("status").running_tasks == 0)
        .count();
    assert!(stopped_hogs >= 1, "some low-priority job must be stopped");
}

#[test]
fn whole_platform_run_is_bit_for_bit_deterministic() {
    let run = || {
        let mut config = TurbineConfig::default();
        config.scaler.min_action_gap = Duration::from_mins(2);
        let mut t = Turbine::new(config);
        t.add_hosts(6, hosts());
        for i in 0..8u64 {
            t.provision_job(
                JobId(i + 1),
                JobConfig::stateless(&format!("d_{i}"), 2, 32),
                TrafficModel::diurnal(3.0e6, 0.4, i * 7 + 1),
                1.0e6,
                256.0,
            )
            .expect("provision");
        }
        t.run_for(Duration::from_mins(30));
        t.fail_host(t.cluster.hosts()[1]).expect("fail");
        t.run_for(Duration::from_hours(2));
        let mut fingerprint = vec![
            t.metrics.task_starts.get() as f64,
            t.metrics.task_stops.get() as f64,
            t.metrics.task_restarts.get() as f64,
            t.metrics.shard_moves.get() as f64,
            t.metrics.scaling_actions.get() as f64,
        ];
        for i in 0..8u64 {
            fingerprint.push(t.job_status(JobId(i + 1)).expect("status").backlog_bytes);
        }
        fingerprint
    };
    assert_eq!(run(), run());
}

#[test]
fn scribe_and_checkpoints_account_for_every_byte() {
    let mut t = Turbine::new(TurbineConfig::default());
    t.add_hosts(4, hosts());
    let job = JobId(1);
    t.provision_job(
        job,
        JobConfig::stateless("audited", 4, 16),
        TrafficModel::flat(2.0e6),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(30));

    // Data conservation: bytes in Scribe == bytes processed + backlog
    // (within one durability-sync interval of slack).
    let appended: u64 = (0..16)
        .map(|p| {
            t.scribe
                .tail_offset("audited_input", turbine_types::PartitionId(p))
                .expect("tail")
        })
        .sum();
    let status = t.job_status(job).expect("status");
    let expected_total = 2.0e6 * t.now().as_secs_f64();
    assert!(
        (appended as f64 - expected_total).abs() < 2.0e6 * 90.0,
        "scribe accounted {appended} vs expected {expected_total}"
    );
    assert!(status.backlog_bytes < 2.0e6 * 30.0, "{status:?}");
}

#[test]
fn a_refused_invalid_config_leaves_no_category_behind() {
    let mut t = Turbine::new(TurbineConfig::default());
    t.add_hosts(2, hosts());
    let job = JobId(1);
    let invalid = JobConfig::stateless("c", 0, 4);
    assert!(t
        .provision_job(job, invalid, TrafficModel::flat(1.0e6), 1.0e6, 256.0)
        .is_err());
    assert_eq!(t.job_category(job), None, "no job, so no category of it");
    assert!(!t.scribe.has_category("c_input"));
    // The name is still free: a valid retry under it is accepted and runs.
    t.provision_job(
        job,
        JobConfig::stateless("c", 2, 4),
        TrafficModel::flat(1.0e6),
        1.0e6,
        256.0,
    )
    .expect("the retry under the same name");
    t.run_for(Duration::from_mins(10));
    assert_eq!(t.job_category(job), Some("c_input"));
    assert_eq!(t.job_status(job).expect("status").running_tasks, 2);
    assert!(t.checkpoints().job_total_ingested(job) > 0);
}

#[test]
fn a_refused_duplicate_job_id_does_not_repoint_the_live_job() {
    let mut t = Turbine::new(TurbineConfig::default());
    t.add_hosts(2, hosts());
    let job = JobId(1);
    let rate = 1.5e6;
    t.provision_job(
        job,
        JobConfig::stateless("live", 2, 4),
        TrafficModel::flat(rate),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.run_for(Duration::from_mins(10));
    let before = t.checkpoints().job_total_ingested(job);
    assert!(before > 0);
    assert!(t
        .provision_job(
            job,
            JobConfig::stateless("other", 2, 4),
            TrafficModel::flat(rate),
            1.0e6,
            256.0,
        )
        .is_err());
    assert_eq!(t.job_category(job), Some("live_input"));
    assert!(!t.scribe.has_category("other_input"));
    // The live job's checkpoints keep following its own input.
    t.run_for(Duration::from_mins(10));
    let gained = t.checkpoints().job_total_ingested(job) - before;
    let expected = rate * 600.0;
    assert!(
        (gained as f64 - expected).abs() < rate * 90.0,
        "ingested {gained} B in 10 minutes of {rate} B/s"
    );
}
