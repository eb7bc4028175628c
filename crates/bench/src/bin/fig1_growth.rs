//! Figure 1 — growth of the Scuba Tailer service over one year: traffic
//! volume roughly doubles, and the managed task count tracks it.
//!
//! The paper plots production telemetry over 12 months. Simulating a year
//! tick-by-tick is wasteful; instead we snapshot one steady-state day per
//! month with the fleet's traffic grown by the yearly-doubling trend, let
//! the Auto Scaler size the fleet each month, and report the same two
//! series (traffic volume, task count).
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin fig1_growth
//! ```

use std::process::ExitCode;
use turbine::Turbine;
use turbine_bench::{experiment_config, platform_latest, provision_fleet, scuba_host};
use turbine_types::Duration;
use turbine_workloads::{synthesize_fleet, FleetConfig};

fn main() -> ExitCode {
    let mut holds = true;
    let growth_per_day = 2f64.ln() / 365.0; // doubles in a year
    println!("{:>6}  {:>16}  {:>10}", "month", "traffic_gb_s", "tasks");

    let mut first: Option<(f64, f64)> = None;
    let mut last = (0.0, 0.0);
    let mut base_total = 0.0;
    for month in 0..=12u64 {
        // Service growth is dominated by adoption: new Scuba tables mean
        // new tailer jobs. Traffic doubles over the year through a mix of
        // fleet growth (most of it) and per-job growth.
        let factor = (growth_per_day * 30.4 * month as f64).exp();
        let job_growth = factor.powf(0.8);
        let per_job_growth = factor / job_growth;
        let mut fleet = synthesize_fleet(&FleetConfig {
            jobs: (400.0 * job_growth) as usize,
            seed: 0xF161,
            ..FleetConfig::default()
        });
        for job in &mut fleet {
            job.traffic.base_rate *= per_job_growth;
        }
        // Heavy-tailed draws make the fleet total noisy; normalize so the
        // aggregate follows the yearly-doubling trend exactly (Fig. 1's
        // x-axis is the trend, not sampling noise).
        let total: f64 = fleet.iter().map(|j| j.traffic.base_rate).sum();
        if month == 0 {
            base_total = total;
        }
        let norm = base_total * factor / total;
        for job in &mut fleet {
            job.traffic.base_rate *= norm;
        }

        let mut config = experiment_config();
        config.scaler.downscale_stability = Duration::from_hours(1);
        let mut turbine = Turbine::new(config);
        turbine.add_hosts(48, scuba_host());
        provision_fleet(&mut turbine, &fleet, |job, cfg| {
            // Initial sizing is last month's; the scaler adapts.
            cfg.max_task_count = (job.input_partitions).min(256);
        });
        // Let the platform settle into steady state for this month.
        turbine.run_for(Duration::from_hours(4));

        let traffic = platform_latest(&turbine, "cluster_traffic_bps") / 1.0e9;
        let tasks = platform_latest(&turbine, "task_count");
        println!("{month:>6}  {traffic:>16.3}  {tasks:>10.0}");
        if first.is_none() {
            first = Some((traffic, tasks));
        }
        last = (traffic, tasks);
    }

    let (t0, n0) = first.expect("month 0 ran");
    let traffic_ratio = last.0 / t0;
    let task_ratio = last.1 / n0;
    println!();
    holds &= turbine_bench::verdict(
        "traffic doubles over the year",
        "~2x",
        &format!("{traffic_ratio:.2}x"),
        (1.7..2.4).contains(&traffic_ratio),
    );
    holds &= turbine_bench::verdict(
        "task count tracks traffic growth",
        "task count grows alongside traffic (Fig. 1)",
        &format!("{task_ratio:.2}x tasks for {traffic_ratio:.2}x traffic"),
        task_ratio > 1.3 && task_ratio < traffic_ratio * 1.5,
    );
    turbine_bench::exit_code(holds)
}
