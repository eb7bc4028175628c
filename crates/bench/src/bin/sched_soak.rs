//! Scheduler soak — wall-clock comparison of the dense-tick reference
//! stepper against the event-driven control plane on a quiescent-heavy
//! scenario.
//!
//! The scenario is built to look like a real off-peak tier: flat
//! pipelines that burst for 30 minutes at the start of every 8-hour
//! window and sit fully drained behind an input outage the rest of the
//! time, with control cadences spread out (heartbeats every minute, no
//! sub-minute loops). The dense stepper still executes every 10 s tick;
//! the event-driven scheduler sparse-jumps the quiet spans and only
//! executes the instants where a control round fires. Both runs must
//! produce bit-for-bit identical platform fingerprints, and the
//! event-driven run must execute at least 3x fewer data-plane ticks — a
//! simulated count, so the gate repeats exactly. Wall clock is reported
//! but not gated: a drained job settles out of the engine tick, so a
//! dense tick over a quiet fleet costs almost nothing and the two modes
//! finish this ~25 ms workload within timer noise of each other.
//!
//! Results go to stdout and `BENCH_sched.json`.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin sched_soak             # 48 h
//! cargo run --release -p turbine-bench --bin sched_soak -- --hours 24
//! ```

use std::time::Instant;
use turbine::{DriveMode, PlatformFingerprint, Turbine, TurbineConfig};
use turbine_bench::{scuba_host, Args, MAX_HOURS};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, SimTime};
use turbine_workloads::{TrafficEvent, TrafficEventKind, TrafficModel};

/// Flat traffic that is live only during a 30-minute burst at the start
/// of every 8-hour window; input outages cover everything else (plus the
/// tail past `total`, so the final span is quiet too).
fn bursty_traffic(rate: f64, total: Duration) -> TrafficModel {
    let mut model = TrafficModel::flat(rate);
    let burst = Duration::from_mins(30);
    let window_hours = 8u64;
    let windows = (total.as_secs_f64() / (window_hours as f64 * 3600.0)).ceil() as u64;
    for i in 0..windows {
        let quiet_from = SimTime::ZERO + Duration::from_hours(window_hours * i) + burst;
        // The last quiet span stretches past `total` so the tail stays
        // quiet even after the drive loop overshoots to the tick grid.
        let quiet_until = if i + 1 == windows {
            SimTime::ZERO + total + Duration::from_hours(1)
        } else {
            SimTime::ZERO + Duration::from_hours(window_hours * (i + 1))
        };
        model = model.with_event(TrafficEvent {
            start: quiet_from,
            end: quiet_until,
            kind: TrafficEventKind::InputOutage,
        });
    }
    model
}

fn build_platform(total: Duration) -> Turbine {
    let mut config = TurbineConfig::default();
    // A small off-peak tier: few shards, and no control loop firing more
    // often than every few minutes — the 10 s tick grid is
    // overwhelmingly idle instants that only the dense stepper pays for.
    config.shard_count = 256;
    config.heartbeat_interval = Duration::from_mins(10);
    config.sync_interval = Duration::from_mins(15);
    config.tm_refresh_interval = Duration::from_mins(15);
    config.checkpoint_interval = Duration::from_mins(15);
    config.scaler_interval = Duration::from_mins(30);
    config.metrics_interval = Duration::from_mins(30);
    config.capacity_interval = Duration::from_hours(1);
    config.load_report_interval = Duration::from_hours(1);
    config.rebalance_interval = Duration::from_hours(1);
    // The scenario is about scheduler overhead, not elasticity: pin the
    // parallelism so the quiet spans stay task-stable.
    config.scaler_enabled = false;
    let mut turbine = Turbine::new(config);
    turbine.add_hosts(16, scuba_host());
    for i in 0..8u64 {
        turbine
            .provision_job(
                JobId(i + 1),
                JobConfig::stateless(&format!("sched_pipeline_{i}"), 4, 32),
                bursty_traffic(2.0e6, total),
                1.0e6,
                256.0,
            )
            .expect("provision");
    }
    turbine
}

fn run(total: Duration, mode: DriveMode) -> (PlatformFingerprint, f64, u64) {
    let mut turbine = build_platform(total);
    let started = Instant::now();
    turbine.drive_for(total, mode);
    let wall_ms = started.elapsed().as_secs_f64() * 1.0e3;
    let ticks = turbine.metrics.ticks_executed.get();
    (turbine.fingerprint(), wall_ms, ticks)
}

fn main() {
    let args = Args::from_env("usage: sched_soak [--hours H]", &["--hours"]);
    let hours = args.value("--hours", 0, MAX_HOURS).unwrap_or(48);
    let total = Duration::from_hours(hours);

    eprintln!("sched soak: {hours} simulated hours, dense-tick reference...");
    let (dense_fp, dense_ms, dense_ticks) = run(total, DriveMode::DenseTick);
    eprintln!("event-driven...");
    let (event_fp, event_ms, event_ticks) = run(total, DriveMode::EventDriven);

    let matches = dense_fp == event_fp;
    let speedup = dense_ms / event_ms.max(1.0e-3);
    let tick_ratio = dense_ticks as f64 / event_ticks.max(1) as f64;
    println!("## sched soak ({hours} h quiescent-heavy, 10 s tick)");
    println!("  dense-tick : {dense_ms:9.1} ms wall, {dense_ticks} data-plane ticks");
    println!("  event-drive: {event_ms:9.1} ms wall, {event_ticks} data-plane ticks");
    println!("  speedup    : {speedup:9.2}x wall, {tick_ratio:.2}x fewer ticks");
    println!("  fingerprint: {event_fp:?}");

    let json = format!(
        "{{\n  \"bench\": \"sched_soak\",\n  \"sim_hours\": {hours},\n  \
         \"dense_wall_ms\": {dense_ms:.3},\n  \"event_wall_ms\": {event_ms:.3},\n  \
         \"speedup\": {speedup:.3},\n  \"dense_ticks\": {dense_ticks},\n  \
         \"event_ticks\": {event_ticks},\n  \"tick_ratio\": {tick_ratio:.3},\n  \
         \"fingerprint_match\": {matches},\n  \
         \"counters\": {:?},\n  \"now_ms\": {}\n}}\n",
        event_fp.counters, event_fp.now_ms
    );
    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");
    print!("{json}");

    if !matches {
        eprintln!("SCHEDULER DIVERGENCE: dense fingerprint {dense_fp:?} vs event {event_fp:?}");
        std::process::exit(1);
    }
    if tick_ratio < 3.0 {
        eprintln!(
            "TICK REDUCTION BELOW TARGET: {tick_ratio:.2}x < 3x on a quiescent-heavy scenario"
        );
        std::process::exit(1);
    }
}
