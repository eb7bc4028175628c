//! Backlog recovery (paper §VI-B1, Fig. 8): a tailer job is disabled for
//! days by an application problem; when re-enabled, the Auto Scaler sizes
//! it to chew through the accumulated backlog — first to the default
//! 32-task cap, then to 128 after the operator lifts the cap at the
//! Oncall level.
//!
//! ```sh
//! cargo run --release -p turbine-examples --bin backlog_recovery
//! ```

use turbine::{Turbine, TurbineConfig};
use turbine_config::{ConfigValue, JobConfig};
use turbine_types::{Duration, JobId, Resources, SimTime};
use turbine_workloads::{TrafficEvent, TrafficEventKind, TrafficModel};

fn main() {
    let mut config = TurbineConfig::default();
    config.scaler.downscale_stability = Duration::from_hours(6);
    // Scuba tailers are single-threaded: the scaler can only add tasks,
    // so the default 32-task cap genuinely limits recovery speed.
    config.scaler.vertical_limit.cpu = 1.0;
    let mut turbine = Turbine::new(config);
    turbine.add_hosts(24, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));

    // The application is broken from hour 2 to hour 50 (2 days): input
    // keeps arriving at 8 MB/s but nothing is consumed.
    let job = JobId(1);
    let outage = TrafficEvent {
        start: SimTime::ZERO + Duration::from_hours(2),
        end: SimTime::ZERO + Duration::from_hours(50),
        kind: TrafficEventKind::ConsumerDisabled,
    };
    let mut jc = JobConfig::stateless("backlogged_tailer", 8, 256);
    jc.max_task_count = 32; // the default cap for unprivileged tailers
    turbine
        .provision_job(
            job,
            jc,
            TrafficModel::flat(8.0e6).with_event(outage),
            1.0e6,
            256.0,
        )
        .expect("provision");

    println!("hour  tasks  backlog_gb");
    let mut lifted = false;
    for hour in 1..=120u64 {
        turbine.run_for(Duration::from_hours(1));
        let status = turbine.job_status(job).expect("status");
        if hour % 4 == 0 || (50..56).contains(&hour) {
            println!(
                "{hour:>4}  {:>5}  {:>10.2}",
                status.running_tasks,
                status.backlog_bytes / 1.0e9
            );
        }
        // Six hours after recovery begins, the operator notices the job
        // pinned at the 32-task cap and lifts it (Fig. 8's cap removal).
        if !lifted && hour >= 56 {
            turbine
                .oncall_set(job, "max_task_count", ConfigValue::Int(128))
                .expect("lift cap");
            lifted = true;
            println!("      -- oncall lifts max_task_count to 128 --");
        }
        if lifted && status.backlog_bytes < 8.0e6 * 90.0 {
            println!("      -- backlog drained at hour {hour} --");
            break;
        }
    }

    let status = turbine.job_status(job).expect("status");
    println!();
    println!(
        "final: {} tasks, {:.2} GB backlog, {} scaling actions",
        status.running_tasks,
        status.backlog_bytes / 1.0e9,
        turbine.metrics.scaling_actions.get(),
    );
}
