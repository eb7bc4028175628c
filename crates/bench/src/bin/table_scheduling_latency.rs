//! Scheduling & synchronization latency claims (paper §III-B, §IV-D,
//! §VI-A text) — the "table" of headline numbers.
//!
//! * placing 100 K shards onto thousands of containers takes < 2 s;
//! * simple synchronization of tens of thousands of jobs completes within
//!   seconds (batched);
//! * end-to-end scheduling of a new job is 1–2 minutes;
//! * a global stream-processing engine push restarting every task
//!   completes within 5 minutes;
//! * after a host failure, fail-over starts within 60 s and average task
//!   downtime stays under 2 minutes.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin table_scheduling_latency
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use turbine::{Turbine, TurbineConfig};
use turbine_bench::{exit_code, platform_latest, scuba_host, verdict};
use turbine_config::{ConfigLevel, ConfigValue, JobConfig};
use turbine_jobstore::{JobService, JobStore, MemWal};
use turbine_shardmgr::{compute_placement, PlacementConfig, PlacementInput};
use turbine_statesyncer::{Redistribute, StateSyncer, SyncEnvironment};
use turbine_types::{ContainerId, Duration, JobId, Resources, ShardId};
use turbine_workloads::TrafficModel;

struct NoopEnv;
impl SyncEnvironment for NoopEnv {
    fn request_stop(&mut self, _job: JobId) {}
    fn all_stopped(&mut self, _job: JobId) -> bool {
        true
    }
    fn redistribute_checkpoints(
        &mut self,
        _job: JobId,
        _o: u32,
        _n: u32,
    ) -> Result<Redistribute, String> {
        Ok(Redistribute::Done)
    }
}

fn main() -> ExitCode {
    let mut holds = true;
    // ---- 1. Placement of 100K shards onto 3000 containers (wall clock).
    let shards: Vec<(ShardId, Resources)> = (0..100_000u64)
        .map(|i| {
            (
                ShardId(i),
                Resources::cpu_mem(0.1 + (i % 17) as f64 * 0.05, 200.0 + (i % 23) as f64 * 40.0),
            )
        })
        .collect();
    let containers: Vec<(ContainerId, Resources)> = (0..3_000u64)
        .map(|i| (ContainerId(i), Resources::cpu_mem(45.0, 210_000.0)))
        .collect();
    let start = Instant::now();
    let placement = compute_placement(
        PlacementInput {
            shards: &shards,
            containers: &containers,
            current: &HashMap::new(),
        },
        PlacementConfig::default(),
    );
    let cold = start.elapsed();
    let start = Instant::now();
    let warm = compute_placement(
        PlacementInput {
            shards: &shards,
            containers: &containers,
            current: &placement.assignment,
        },
        PlacementConfig::default(),
    );
    let warm_elapsed = start.elapsed();
    holds &= verdict(
        "placement of 100K shards onto 3000 containers",
        "< 2 s",
        &format!(
            "{:.0} ms cold / {:.0} ms warm ({} moves)",
            cold.as_secs_f64() * 1e3,
            warm_elapsed.as_secs_f64() * 1e3,
            warm.stats.moved
        ),
        cold.as_secs_f64() < 2.0,
    );

    // ---- 2. Simple synchronization of 50K jobs in one batched round.
    let mut service = JobService::new(JobStore::new(MemWal::new()));
    let n_jobs = 50_000u64;
    for i in 0..n_jobs {
        service
            .provision(JobId(i), &JobConfig::stateless(&format!("job{i}"), 2, 8))
            .expect("provision");
    }
    let mut syncer = StateSyncer::default();
    syncer.run_round(&mut service, &mut NoopEnv); // initial starts
    for i in 0..n_jobs {
        service
            .set_level_field(
                JobId(i),
                ConfigLevel::Provisioner,
                "package.version",
                ConfigValue::Int(2),
            )
            .expect("release");
    }
    let start = Instant::now();
    let report = syncer.run_round(&mut service, &mut NoopEnv);
    let sync_elapsed = start.elapsed();
    holds &= verdict(
        "simple sync of 50K jobs (global package release)",
        "tens of thousands of jobs within seconds",
        &format!(
            "{} jobs in {:.2} s",
            report.simple.len(),
            sync_elapsed.as_secs_f64()
        ),
        report.simple.len() == n_jobs as usize && sync_elapsed.as_secs_f64() < 10.0,
    );

    // ---- 3-5: simulated-time latencies on a live platform.
    let mut turbine = Turbine::new(TurbineConfig::default());
    turbine.add_hosts(8, scuba_host());
    for i in 0..40u64 {
        turbine
            .provision_job(
                JobId(i + 1),
                JobConfig::stateless(&format!("svc_{i}"), 4, 16),
                TrafficModel::flat(1.0e6),
                1.0e6,
                256.0,
            )
            .expect("provision");
    }
    turbine.run_for(Duration::from_mins(5));

    // 3. End-to-end scheduling of a newly provisioned job.
    let new_job = JobId(999);
    turbine
        .provision_job(
            new_job,
            JobConfig::stateless("newcomer", 4, 16),
            TrafficModel::flat(1.0e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
    let t0 = turbine.now();
    let mut scheduled_in = None;
    for _ in 0..30 {
        turbine.run_for(Duration::from_secs(10));
        if turbine.job_status(new_job).expect("status").running_tasks == 4 {
            scheduled_in = Some(turbine.now().since(t0));
            break;
        }
    }
    let scheduled_in = scheduled_in.expect("job must schedule");
    holds &= verdict(
        "end-to-end scheduling of a new job",
        "1-2 minutes on average",
        &format!("{scheduled_in}"),
        scheduled_in <= Duration::from_mins(3),
    );

    // 4. Global engine push: bump every job's package version.
    let restarts_before = turbine.metrics.task_restarts.get();
    let total_tasks = platform_latest(&turbine, "task_count") as u64;
    for i in 0..40u64 {
        turbine
            .job_service_mut()
            .set_level_field(
                JobId(i + 1),
                ConfigLevel::Provisioner,
                "package.version",
                ConfigValue::Int(2),
            )
            .expect("release");
    }
    let t0 = turbine.now();
    let mut pushed_in = None;
    for _ in 0..60 {
        turbine.run_for(Duration::from_secs(10));
        if turbine.metrics.task_restarts.get() - restarts_before >= total_tasks - 4 {
            pushed_in = Some(turbine.now().since(t0));
            break;
        }
    }
    let pushed_in = pushed_in.expect("push must complete");
    holds &= verdict(
        "global engine push (restart every task)",
        "within 5 minutes",
        &format!("{} tasks in {pushed_in}", total_tasks - 4),
        pushed_in <= Duration::from_mins(5),
    );

    // 5. Task downtime after a host failure — count only tasks placed on
    // *healthy* containers (tasks on the dead host are down even though
    // the dead Task Manager still believes it runs them).
    turbine.run_for(Duration::from_mins(3));
    let healthy_tasks = |t: &Turbine| {
        let healthy: std::collections::HashSet<_> =
            t.cluster.healthy_containers().into_iter().collect();
        t.task_placements()
            .iter()
            .filter(|(_, c)| healthy.contains(c))
            .count()
    };
    let victim = turbine.cluster.hosts()[0];
    let tasks_before_fail = healthy_tasks(&turbine);
    turbine.fail_host(victim).expect("fail");
    assert!(
        healthy_tasks(&turbine) < tasks_before_fail,
        "victim hosted tasks"
    );
    let t0 = turbine.now();
    let mut recovered_in = None;
    for _ in 0..60 {
        turbine.run_for(Duration::from_secs(10));
        if healthy_tasks(&turbine) >= tasks_before_fail {
            recovered_in = Some(turbine.now().since(t0));
            break;
        }
    }
    let recovered_in = recovered_in.expect("failover must recover");
    holds &= verdict(
        "task downtime after host failure",
        "fail-over starts after 60 s; average downtime < 2 min",
        &format!("all tasks back after {recovered_in}"),
        recovered_in <= Duration::from_mins(3),
    );
    exit_code(holds)
}
