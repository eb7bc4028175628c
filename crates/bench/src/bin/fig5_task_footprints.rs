//! Figure 5 — CPU and memory usage of Scuba Tailer tasks.
//!
//! Paper: CDFs over ~120 K tasks; (a) over 80 % of tasks consume less than
//! one CPU thread, a small percentage need over four; (b) every task
//! consumes at least ~400 MB and over 99 % consume less than 2 GB.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin fig5_task_footprints
//! ```

use std::process::ExitCode;
use turbine_types::Cdf;
use turbine_workloads::{synthesize_fleet, FleetConfig};

fn main() -> ExitCode {
    let mut holds = true;
    // Enough jobs to reach the paper's ~120 K task scale.
    let fleet = synthesize_fleet(&FleetConfig {
        jobs: 60_000,
        seed: 0xF1605,
        ..FleetConfig::default()
    });
    let mut cpu = Vec::new();
    let mut mem = Vec::new();
    for job in &fleet {
        for _ in 0..job.initial_task_count {
            cpu.push(job.expected_task_usage.cpu);
            mem.push(job.expected_task_usage.memory_mb);
        }
    }
    println!(
        "synthesized {} tasks across {} jobs\n",
        cpu.len(),
        fleet.len()
    );

    let cpu_cdf = Cdf::from_samples(&cpu);
    let mem_cdf = Cdf::from_samples(&mem);

    println!("## Fig 5(a): CDF of per-task CPU usage (cores)");
    println!("{:>8}  {:>8}", "cores", "cdf");
    for x in [0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0] {
        println!("{x:>8.2}  {:>8.4}", cpu_cdf.fraction_at_or_below(x));
    }
    println!();
    println!("## Fig 5(b): CDF of per-task memory usage (GB)");
    println!("{:>8}  {:>8}", "gb", "cdf");
    for x in [0.25, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0, 10.0] {
        println!(
            "{x:>8.2}  {:>8.4}",
            mem_cdf.fraction_at_or_below(x * 1024.0)
        );
    }
    println!();

    let under_one = cpu_cdf.fraction_at_or_below(1.0);
    let over_four = 1.0 - cpu_cdf.fraction_at_or_below(4.0);
    let mem_floor = mem_cdf.quantile(0.001).unwrap_or(0.0);
    let under_2gb = mem_cdf.fraction_at_or_below(2048.0);
    holds &= turbine_bench::verdict(
        "tasks under one CPU",
        "> 80%",
        &format!("{:.1}%", under_one * 100.0),
        under_one > 0.8,
    );
    holds &= turbine_bench::verdict(
        "tasks over four CPUs",
        "a small percentage",
        &format!("{:.2}%", over_four * 100.0),
        over_four > 0.0 && over_four < 0.05,
    );
    holds &= turbine_bench::verdict(
        "per-task memory floor",
        "~400 MB (binary + metric sidecar)",
        &format!("{mem_floor:.0} MB"),
        mem_floor >= 390.0,
    );
    holds &= turbine_bench::verdict(
        "tasks under 2 GB memory",
        "over 99%",
        &format!("{:.2}%", under_2gb * 100.0),
        under_2gb > 0.99,
    );
    turbine_bench::exit_code(holds)
}
