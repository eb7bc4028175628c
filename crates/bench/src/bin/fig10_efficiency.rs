//! Figure 10 — resource efficiency from launching the Auto Scaler.
//!
//! Paper: when auto scaling launched in one Scuba Tailer cluster, overall
//! task count dropped from ~120 K to ~43 K (≈ 2.8×), saving ~22 % of CPU
//! and ~51 % of memory; the Capacity Manager then reclaimed the savings.
//! Without a scaler, jobs must be over-provisioned for peak + headroom.
//!
//! We provision the fleet the way the pre-scaler era did — task counts and
//! memory reserves sized for worst-case peaks — then enable the scaler and
//! measure the footprint after it converges.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin fig10_efficiency
//! ```

use std::process::ExitCode;
use turbine::Turbine;
use turbine_bench::{
    exit_code, experiment_config, platform_latest, platform_rows, print_table, provision_fleet,
    scuba_host, verdict,
};
use turbine_types::Duration;
use turbine_workloads::{synthesize_fleet, FleetConfig};

fn main() -> ExitCode {
    let mut holds = true;
    let mut config = experiment_config();
    // Single-threaded tailers: reclaim happens via task count + memory.
    config.scaler.vertical_limit.cpu = 1.0;
    config.scaler.downscale_stability = Duration::from_hours(2);
    config.scaler.patterns.min_history_days = 1;
    config.scaler_enabled = false; // pre-rollout era
    let mut turbine = Turbine::new(config);
    let hosts = 110;
    turbine.add_hosts(hosts, scuba_host());

    let fleet = synthesize_fleet(&FleetConfig {
        jobs: 1_600,
        seed: 0xF1610,
        ..FleetConfig::default()
    });
    provision_fleet(&mut turbine, &fleet, |job, cfg| {
        // Pre-scaler over-provisioning: ~3x the steady-need task count
        // (hand-sized for peak), with per-task reservations covering each
        // (smaller) task's share plus margin. The memory cost of the extra
        // tasks is dominated by the ~400 MB per-task floor — which is
        // exactly why consolidation saves so much memory (Fig. 10).
        let count = (job.initial_task_count * 3)
            .min(cfg.input_partitions)
            .min(cfg.max_task_count);
        let usage = turbine_workloads::fleet::task_usage(
            job.traffic.base_rate / count as f64,
            job.avg_message_bytes,
            1.0e6,
        );
        cfg.task_count = count;
        cfg.task_resources.cpu = (usage.cpu * 1.5).max(0.25);
        cfg.task_resources.memory_mb = (usage.memory_mb * 1.25).max(500.0);
    });

    eprintln!("day 0-1: running over-provisioned, scaler disabled...");
    turbine.run_for(Duration::from_days(1));
    let tasks_before = platform_latest(&turbine, "task_count");
    let cpu_before = platform_latest(&turbine, "reserved_cpu_cores");
    let mem_before = platform_latest(&turbine, "reserved_memory_mb");

    eprintln!("day 1: auto scaler rollout...");
    turbine.set_scaler_enabled(true);
    turbine.run_for(Duration::from_days(2));
    let tasks_after = platform_latest(&turbine, "task_count");
    let cpu_after = platform_latest(&turbine, "reserved_cpu_cores");
    let mem_after = platform_latest(&turbine, "reserved_memory_mb");

    let every = Duration::from_hours(4);
    print_table(
        "Fig 10: fleet footprint through the scaler rollout (at day 1)",
        &[
            ("task_count", platform_rows(&turbine, "task_count", every)),
            (
                "reserved_cpu",
                platform_rows(&turbine, "reserved_cpu_cores", every),
            ),
            (
                "reserved_mem_gb",
                platform_rows(&turbine, "reserved_memory_mb", every)
                    .into_iter()
                    .map(|(h, v)| (h, v / 1024.0))
                    .collect(),
            ),
            ("slo_ok", platform_rows(&turbine, "slo_ok_fraction", every)),
        ],
    );

    let task_drop = tasks_before / tasks_after.max(1.0);
    let cpu_saving = (1.0 - cpu_after / cpu_before) * 100.0;
    let mem_saving = (1.0 - mem_after / mem_before) * 100.0;
    holds &= verdict(
        "task count drops sharply after rollout",
        "~120K -> ~43K (2.8x fewer)",
        &format!("{tasks_before:.0} -> {tasks_after:.0} ({task_drop:.1}x fewer)"),
        task_drop > 1.8,
    );
    holds &= verdict(
        "CPU reservation saving",
        "~22%",
        &format!("{cpu_saving:.0}%"),
        (10.0..60.0).contains(&cpu_saving),
    );
    holds &= verdict(
        "memory reservation saving",
        "~51%",
        &format!("{mem_saving:.0}%"),
        (30.0..70.0).contains(&mem_saving),
    );
    holds &= verdict(
        "jobs stay healthy after the reclaim",
        "SLOs maintained",
        &format!(
            "slo_ok = {:.3}",
            platform_latest(&turbine, "slo_ok_fraction")
        ),
        platform_latest(&turbine, "slo_ok_fraction") > 0.97,
    );
    exit_code(holds)
}
