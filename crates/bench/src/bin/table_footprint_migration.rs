//! The migration footprint claim (paper §VI-A): "Before Turbine, each
//! Scuba Tailer task ran in a separate Tupperware container. The migration
//! to Turbine resulted in a ~33 % footprint reduction thanks to Turbine's
//! better use of the fragmented resources within each container."
//!
//! We synthesize the Fig. 5 fleet and cost it both ways:
//!
//! * **one-task-per-container**: every task gets its own container whose
//!   allocation is its reservation rounded up to the cluster manager's
//!   allocation quanta, plus per-container agent overhead — the
//!   fragmentation Turbine eliminates;
//! * **Turbine**: tasks are packed into shared Turbine containers with the
//!   standard balancing headroom.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin table_footprint_migration
//! ```

use std::process::ExitCode;
use turbine_bench::{exit_code, verdict};
use turbine_types::Resources;
use turbine_workloads::{synthesize_fleet, FleetConfig};

/// Tupperware-style allocation quanta for standalone containers.
const CPU_QUANTUM: f64 = 0.5;
const MEM_QUANTUM_MB: f64 = 512.0;
/// Per-container agent/runtime overhead.
const AGENT_OVERHEAD_MB: f64 = 96.0;
/// Turbine's balancing headroom (shared containers).
const TURBINE_HEADROOM: f64 = 0.15;

fn round_up(v: f64, quantum: f64) -> f64 {
    (v / quantum).ceil() * quantum
}

fn main() -> ExitCode {
    let fleet = synthesize_fleet(&FleetConfig {
        jobs: 40_000,
        seed: 0xF1611,
        ..FleetConfig::default()
    });

    let mut tasks = 0u64;
    let mut standalone = Resources::ZERO;
    let mut packed_usage = Resources::ZERO;
    for job in &fleet {
        // Reservation = expected usage + the same 1.3x margin both eras
        // used per task.
        let reservation = job.expected_task_usage.scale(1.3);
        for _ in 0..job.initial_task_count {
            tasks += 1;
            // One container per task: quantized + agent overhead.
            standalone.cpu += round_up(reservation.cpu.max(0.1), CPU_QUANTUM);
            standalone.memory_mb +=
                round_up(reservation.memory_mb + AGENT_OVERHEAD_MB, MEM_QUANTUM_MB);
            // Turbine: tasks share containers; the fleet costs its summed
            // reservation plus the balancing headroom.
            packed_usage += reservation;
        }
    }
    let turbine_footprint = packed_usage.scale(1.0 / (1.0 - TURBINE_HEADROOM));

    println!("fleet: {} jobs, {tasks} tasks\n", fleet.len());
    println!(
        "{:<28} {:>14} {:>16}",
        "deployment", "cpu (cores)", "memory (GB)"
    );
    println!(
        "{:<28} {:>14.0} {:>16.0}",
        "one container per task",
        standalone.cpu,
        standalone.memory_mb / 1024.0
    );
    println!(
        "{:<28} {:>14.0} {:>16.0}",
        "turbine (shared containers)",
        turbine_footprint.cpu,
        turbine_footprint.memory_mb / 1024.0
    );
    println!();

    // Footprint as the dominant of the two dimensions against the Scuba
    // host shape (56 cores / 256 GB): how many hosts each era needs.
    let host = Resources::new(56.0, 256.0 * 1024.0, 0.0, 0.0);
    let hosts_standalone = (standalone.cpu / host.cpu).max(standalone.memory_mb / host.memory_mb);
    let hosts_turbine =
        (turbine_footprint.cpu / host.cpu).max(turbine_footprint.memory_mb / host.memory_mb);
    let reduction = (1.0 - hosts_turbine / hosts_standalone) * 100.0;
    println!("hosts needed: {hosts_standalone:.0} standalone vs {hosts_turbine:.0} under Turbine");
    exit_code(verdict(
        "footprint reduction from the Turbine migration",
        "~33%",
        &format!("{reduction:.0}%"),
        (20.0..50.0).contains(&reduction),
    ))
}
