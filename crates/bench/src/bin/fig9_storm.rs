//! Figure 9 — cluster-level scaling during a disaster-recovery storm.
//!
//! Paper: a storm drill redirects traffic into the cluster (~1000 jobs) on
//! the morning of Day 2; cluster traffic peaks ~16 % above the previous
//! (non-storm) day, while total task count rises only ~8 % — vertical-first
//! scaling plus the preactive analyzer (which absorbs the *predictable*
//! Day-1 diurnal swing without churn) mean only the unexpected delta costs
//! tasks. ~99.9 % of jobs stay within their SLOs throughout; after the
//! storm the count returns to normal.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin fig9_storm
//! ```

use std::process::ExitCode;
use turbine::Turbine;
use turbine_bench::{downsample, exit_code, experiment_config, print_table, scuba_host, verdict};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, SimTime};
use turbine_workloads::{TrafficEvent, TrafficEventKind, TrafficModel};

fn main() -> ExitCode {
    let mut holds = true;
    let mut config = experiment_config();
    config.scaler.vertical_limit.cpu = 2.0;
    // Preactive suppression needs history covering the diurnal cycle;
    // within a 2-day experiment we let it engage after one day and look
    // half a day ahead (production uses 14 days / x hours).
    config.scaler.patterns.min_history_days = 1;
    // A full-day lookahead pins capacity at the rolling daily peak: the
    // predictable diurnal swing causes no churn, so only the storm's
    // unexpected delta costs tasks (the paper's Day-1-vs-Day-2 contrast).
    config.scaler.patterns.lookahead = Duration::from_hours(24);
    config.scaler.downscale_stability = Duration::from_hours(4);
    // Run the fleet a little hotter than the library default so that the
    // +16% storm actually crosses the pre-emptive trigger (0.7 target
    // utilization x 1.16 = 0.81): the absorbed-by-headroom fraction vs
    // new-tasks fraction is what Fig. 9 is about.
    config.scaler.preemptive_units = 0.95;
    config.scaler.target_units = 0.85;
    let mut turbine = Turbine::new(config);
    turbine.add_hosts(72, scuba_host());

    // Heterogeneous diurnal jobs. Day 0 is a warm-up (the paper's fleet
    // had weeks of history; cold-start sizing would pollute the Day-1
    // baseline); Day 1 is the baseline; the storm hits Day 2, 08:00-20:00.
    let jobs = 120u64;
    let storm = TrafficEvent {
        start: SimTime::ZERO + Duration::from_hours(48 + 8),
        end: SimTime::ZERO + Duration::from_hours(48 + 20),
        kind: TrafficEventKind::RampedMultiplier {
            peak: 1.16,
            ramp_mins: 120,
        },
    };
    for i in 0..jobs {
        let base = 4.0e6 * (1.0 + (i % 7) as f64);
        let mut jc = JobConfig::stateless(&format!("pipeline_{i}"), 4, 256);
        jc.max_task_count = 256;
        turbine
            .provision_job(
                JobId(i + 1),
                jc,
                TrafficModel::diurnal(base, 0.3, i).with_event(storm),
                1.0e6,
                256.0,
            )
            .expect("provision");
    }

    eprintln!("running 68 hours: warm-up day, baseline day, +16% storm on day 2 (08:00-20:00)...");
    let mut slo_worst_during_storm = 1.0f64;
    let mut day1_peak = (0.0f64, 0.0f64);
    let mut day2_peak = (0.0f64, 0.0f64);
    let mut post_storm_tasks = 0.0;
    for hour in 1..=68u64 {
        turbine.run_for(Duration::from_hours(1));
        let traffic = turbine.metrics.cluster_traffic.last().unwrap_or(0.0);
        let tasks = turbine.metrics.task_count.last().unwrap_or(0.0);
        if (34..48).contains(&hour) {
            day1_peak = (day1_peak.0.max(traffic), day1_peak.1.max(tasks));
        }
        if (56..68).contains(&hour) {
            day2_peak = (day2_peak.0.max(traffic), day2_peak.1.max(tasks));
            slo_worst_during_storm =
                slo_worst_during_storm.min(turbine.metrics.slo_ok_fraction.last().unwrap_or(0.0));
        }
        if hour == 68 {
            post_storm_tasks = tasks;
        }
    }

    let every = Duration::from_hours(2);
    print_table(
        "Fig 9: cluster traffic (GB/s) and task count through the storm",
        &[
            (
                "traffic_gb_s",
                downsample(&turbine.metrics.cluster_traffic, every)
                    .into_iter()
                    .map(|(h, v)| (h, v / 1.0e9))
                    .collect(),
            ),
            ("task_count", downsample(&turbine.metrics.task_count, every)),
            (
                "slo_ok",
                downsample(&turbine.metrics.slo_ok_fraction, every),
            ),
        ],
    );

    let traffic_growth = (day2_peak.0 / day1_peak.0 - 1.0) * 100.0;
    let task_growth = (day2_peak.1 / day1_peak.1 - 1.0) * 100.0;
    holds &= verdict(
        "storm raises peak traffic",
        "~+16% over the previous day's peak",
        &format!("+{traffic_growth:.1}%"),
        (10.0..25.0).contains(&traffic_growth),
    );
    holds &= verdict(
        "task count grows by much less than traffic",
        "~+8% tasks for +16% traffic (vertical-first + headroom)",
        &format!("+{task_growth:.1}% tasks"),
        task_growth > 0.0 && task_growth < traffic_growth,
    );
    holds &= verdict(
        "jobs stay within SLO through the storm",
        "~99.9% of jobs in SLO",
        &format!("worst in-storm SLO fraction = {slo_worst_during_storm:.3}"),
        slo_worst_during_storm > 0.95,
    );
    holds &= verdict(
        "task count returns toward normal after the storm",
        "total task count dropped to a normal level",
        &format!(
            "{post_storm_tasks:.0} tasks at h68 vs {:.0} at the storm peak",
            day2_peak.1
        ),
        post_storm_tasks <= day2_peak.1,
    );
    exit_code(holds)
}
