//! Quickstart: provision one streaming job on a small cluster, let the
//! platform schedule it, and watch it process in real (simulated) time.
//!
//! ```sh
//! cargo run --release -p turbine-examples --bin quickstart
//! ```

use turbine::{MetricKey, Turbine, TurbineConfig};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, Resources};
use turbine_workloads::TrafficModel;

fn main() {
    // A four-host cluster: 56 cores / 256 GB per machine, like the Scuba
    // Tailer fleet in the paper.
    let mut turbine = Turbine::new(TurbineConfig::default());
    turbine.add_hosts(4, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));

    // One stateless tailer job: 4 tasks over 16 input partitions,
    // consuming a steady 3 MB/s with a 90-second lag SLO.
    let job = JobId(1);
    turbine
        .provision_job(
            job,
            JobConfig::stateless("quickstart_tailer", 4, 16),
            TrafficModel::flat(3.0e6),
            1.0e6, // each worker thread sustains 1 MB/s
            256.0, // average message size in bytes
        )
        .expect("provision");

    println!("minute  running_tasks  backlog_mb  lag_s");
    for minute in 1..=15u64 {
        turbine.run_for(Duration::from_mins(1));
        let status = turbine.job_status(job).expect("job exists");
        let lag = status.backlog_bytes / 3.0e6;
        println!(
            "{minute:>6}  {:>13}  {:>10.1}  {lag:>5.1}",
            status.running_tasks,
            status.backlog_bytes / 1.0e6,
        );
    }

    let status = turbine.job_status(job).expect("job exists");
    println!();
    println!(
        "after 15 minutes: {} tasks running, {:.1} MB backlog, SLO ok = {}",
        status.running_tasks,
        status.backlog_bytes / 1.0e6,
        turbine
            .ods_registry()
            .series_by_key(&MetricKey::platform("slo_ok_fraction"))
            .and_then(|series| series.last())
            == Some(1.0),
    );
    println!(
        "lifecycle: {} task starts, {} shard moves, {} scaling actions",
        turbine.metrics.task_starts.get(),
        turbine.metrics.shard_moves.get(),
        turbine.metrics.scaling_actions.get(),
    );
}
