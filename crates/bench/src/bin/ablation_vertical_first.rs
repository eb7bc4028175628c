//! Ablation: vertical-first scaling vs horizontal-only (paper §V-E).
//!
//! Vertical scaling (more threads per task) propagates as a *simple* sync
//! — tasks restart once, no checkpoint redistribution, no stop-the-world
//! pause — while horizontal scaling is a *complex* sync that stops the
//! whole job first. The paper caps vertical growth at a fraction of a
//! container (1/5) to keep tasks movable, and prefers it until that limit.
//! This ablation measures what that preference buys: downtime, sync
//! complexity, and recovery speed under a ramping load.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin ablation_vertical_first
//! ```

use std::process::ExitCode;
use turbine::{Turbine, TurbineConfig};
use turbine_bench::{exit_code, scuba_host, verdict};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, SimTime};
use turbine_workloads::{TrafficEvent, TrafficEventKind, TrafficModel};

struct Outcome {
    label: &'static str,
    violation_minutes: u64,
    restarts: u64,
    stops: u64,
    final_tasks: u32,
    final_threads: u32,
}

fn run(vertical_cpu_limit: f64) -> Outcome {
    let mut config = TurbineConfig::default();
    config.scaler.min_action_gap = Duration::from_mins(2);
    config.scaler.vertical_limit.cpu = vertical_cpu_limit;
    let mut t = Turbine::new(config);
    t.add_hosts(12, scuba_host());
    let job = JobId(1);
    let mut jc = JobConfig::stateless("ramping", 4, 256);
    jc.max_task_count = 256;
    // Load ramps 4x over two hours starting at minute 30.
    let ramp = TrafficEvent {
        start: SimTime::ZERO + Duration::from_mins(30),
        end: SimTime::ZERO + Duration::from_hours(6),
        kind: TrafficEventKind::RampedMultiplier {
            peak: 4.0,
            ramp_mins: 120,
        },
    };
    t.provision_job(
        job,
        jc,
        TrafficModel::flat(4.0e6).with_event(ramp),
        1.0e6,
        256.0,
    )
    .expect("provision");

    let mut violation_minutes = 0;
    for _ in 0..300u64 {
        t.run_for(Duration::from_mins(1));
        let rate = t.job_arrival_rate(job).expect("rate");
        if t.job_status(job).expect("status").backlog_bytes > rate * 90.0 {
            violation_minutes += 1;
        }
    }
    let cfg = t.job_service_mut().expected_typed(job).expect("config");
    Outcome {
        label: if vertical_cpu_limit > 1.0 {
            "vertical-first"
        } else {
            "horizontal-only"
        },
        violation_minutes,
        restarts: t.metrics.task_restarts.get(),
        stops: t.metrics.task_stops.get(),
        final_tasks: cfg.task_count,
        final_threads: cfg.threads_per_task,
    }
}

fn main() -> ExitCode {
    let mut holds = true;
    // Horizontal-only: 1-core tasks, every capacity change is a complex
    // sync. Vertical-first: tasks may grow to 8 cores before splitting.
    let horizontal = run(1.0);
    let vertical = run(8.0);

    println!(
        "{:<16} {:>14} {:>9} {:>7} {:>7} {:>9}",
        "policy", "slo_viol_min", "restarts", "stops", "tasks", "threads"
    );
    for o in [&horizontal, &vertical] {
        println!(
            "{:<16} {:>14} {:>9} {:>7} {:>7} {:>9}",
            o.label, o.violation_minutes, o.restarts, o.stops, o.final_tasks, o.final_threads
        );
    }
    println!();

    holds &= verdict(
        "vertical-first needs fewer task stops (no complex syncs)",
        "parallelism changes require stopping all tasks first; vertical does not",
        &format!(
            "stops: horizontal-only = {}, vertical-first = {}",
            horizontal.stops, vertical.stops
        ),
        vertical.stops < horizontal.stops,
    );
    holds &= verdict(
        "vertical-first tracks a 4x ramp with less SLO damage",
        "simple syncs keep the job processing through every resize",
        &format!(
            "violation minutes: horizontal-only = {}, vertical-first = {}",
            horizontal.violation_minutes, vertical.violation_minutes
        ),
        vertical.violation_minutes <= horizontal.violation_minutes,
    );
    holds &= verdict(
        "vertical-first keeps the task count small",
        "tasks stay fine-grained but fewer of them move around",
        &format!(
            "final layout: horizontal-only = {}x{}, vertical-first = {}x{}",
            horizontal.final_tasks,
            horizontal.final_threads,
            vertical.final_tasks,
            vertical.final_threads
        ),
        vertical.final_tasks < horizontal.final_tasks && vertical.final_threads > 1,
    );
    exit_code(holds)
}
