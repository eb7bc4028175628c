//! Figure 8 — backlog recovery with and without the Auto Scaler.
//!
//! Paper: a Scuba tailer job was disabled for five days (application
//! problem), accumulating terabytes of backlog. In `cluster1` the Auto
//! Scaler scaled it 16 → 32 tasks (the default cap), the operator lifted
//! the cap, the scaler jumped to 128 tasks and redistributed traffic; in
//! `cluster2` (no scaler) the same backlog was processed with a manual bump
//! to 128 tasks but uneven traffic distribution — taking over two days,
//! ~8× slower.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin fig8_backlog_recovery
//! ```

use std::process::ExitCode;
use turbine::{Turbine, TurbineConfig};
use turbine_bench::{downsample, exit_code, print_table, scuba_host, verdict};
use turbine_config::{ConfigValue, JobConfig};
use turbine_types::{Duration, JobId, SimTime};
use turbine_workloads::{TrafficEvent, TrafficEventKind, TrafficModel};

const RATE: f64 = 8.0e6; // 8 MB/s input
const OUTAGE_DAYS: u64 = 5;

fn outage() -> TrafficEvent {
    TrafficEvent {
        start: SimTime::ZERO + Duration::from_hours(2),
        end: SimTime::ZERO + Duration::from_hours(2 + OUTAGE_DAYS * 24),
        kind: TrafficEventKind::ConsumerDisabled,
    }
}

fn platform(scaler_enabled: bool) -> (Turbine, JobId) {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = scaler_enabled;
    config.scaler.vertical_limit.cpu = 1.0; // single-threaded tailer tasks
    config.scaler.downscale_stability = Duration::from_hours(12);
    let mut t = Turbine::new(config);
    t.add_hosts(24, scuba_host());
    let job = JobId(1);
    let mut jc = JobConfig::stateless("backlogged_tailer", 16, 256);
    jc.max_task_count = 32; // default cap for unprivileged tailers
    t.provision_job(
        job,
        jc,
        TrafficModel::flat(RATE).with_event(outage()),
        1.0e6,
        256.0,
    )
    .expect("provision");
    t.metrics.watch_job(job);
    (t, job)
}

fn main() -> ExitCode {
    let mut holds = true;
    // cluster1: Auto Scaler available. The operator lifts the 32-task cap
    // six hours into the recovery.
    let (mut cluster1, job1) = platform(true);
    // cluster2: no Auto Scaler; the operator manually sets 128 tasks at
    // the same moment but the traffic distribution stays uneven (skewed
    // partition weights), so per-task utilization is poor.
    let (mut cluster2, job2) = platform(false);
    // Skew: 10% of partitions carry 90% of traffic.
    let mut weights = vec![0.1 / 230.0; 256];
    for w in weights.iter_mut().take(26) {
        *w = 0.9 / 26.0;
    }
    cluster2.skew_job_input(job2, weights);

    let recovery_start = SimTime::ZERO + Duration::from_hours(2 + OUTAGE_DAYS * 24);
    let cap_lift_at = recovery_start + Duration::from_hours(6);
    let horizon = recovery_start + Duration::from_days(4);

    eprintln!("simulating {OUTAGE_DAYS} days of outage + up to 4 days of recovery...");
    let mut lifted = false;
    let mut recovered1: Option<SimTime> = None;
    let mut recovered2: Option<SimTime> = None;
    while cluster1.now() < horizon && (recovered1.is_none() || recovered2.is_none()) {
        cluster1.run_for(Duration::from_mins(30));
        cluster2.run_for(Duration::from_mins(30));
        if !lifted && cluster1.now() >= cap_lift_at {
            cluster1
                .oncall_set(job1, "max_task_count", ConfigValue::Int(128))
                .expect("lift cap");
            cluster2
                .oncall_set(job2, "task_count", ConfigValue::Int(128))
                .expect("manual bump");
            cluster2
                .oncall_set(job2, "max_task_count", ConfigValue::Int(128))
                .expect("manual cap");
            lifted = true;
            eprintln!(
                "{}: cap lifted on cluster1; manual 128 tasks on cluster2",
                cluster1.now()
            );
        }
        let slo_budget = RATE * 90.0;
        if recovered1.is_none()
            && cluster1.now() > recovery_start
            && cluster1.job_status(job1).expect("status").backlog_bytes < slo_budget
        {
            recovered1 = Some(cluster1.now());
        }
        if recovered2.is_none()
            && cluster2.now() > recovery_start
            && cluster2.job_status(job2).expect("status").backlog_bytes < slo_budget
        {
            recovered2 = Some(cluster2.now());
        }
    }

    let every = Duration::from_hours(6);
    let lag_tb = |t: &Turbine, job: JobId| {
        downsample(&t.metrics.watched_job_lag[&job], every)
            .into_iter()
            .map(|(h, lag_secs)| (h, lag_secs * RATE / 1.0e12))
            .collect::<Vec<_>>()
    };
    print_table(
        "Fig 8: backlog (TB) over time",
        &[
            ("cluster1_w_as", lag_tb(&cluster1, job1)),
            ("cluster2_wo_as", lag_tb(&cluster2, job2)),
            (
                "c1_tasks",
                downsample(&cluster1.metrics.watched_job_tasks[&job1], every),
            ),
            (
                "c2_tasks",
                downsample(&cluster2.metrics.watched_job_tasks[&job2], every),
            ),
        ],
    );

    let t1 = recovered1.map(|t| t.since(recovery_start).as_hours_f64());
    let t2 = recovered2.map(|t| t.since(recovery_start).as_hours_f64());
    let t1v = t1.unwrap_or(f64::INFINITY);
    let t2v = t2.unwrap_or(96.0); // did not finish within the horizon
    holds &= verdict(
        "auto-scaled cluster recovers the backlog much faster",
        "~8x faster (over two days vs a fraction of a day)",
        &format!(
            "cluster1 = {:.1} h, cluster2 = {} h -> {:.1}x",
            t1v,
            t2.map_or("[>96]".to_string(), |v| format!("{v:.1}")),
            t2v / t1v
        ),
        t2v / t1v > 3.0,
    );
    // Over the whole run: the maximum survives the series' compaction.
    let peak_tasks1 = cluster1.metrics.watched_job_tasks[&job1]
        .max_in_window(SimTime::ZERO, cluster1.now() + Duration::from_secs(1))
        .unwrap_or(0.0);
    holds &= verdict(
        "scaler ramps 16 -> 32 (cap) -> 128 after the lift",
        "task count reaches 128",
        &format!("peak tasks = {peak_tasks1:.0}"),
        (96.0..=128.0).contains(&peak_tasks1),
    );
    exit_code(holds)
}
