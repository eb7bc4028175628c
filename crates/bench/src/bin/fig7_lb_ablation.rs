//! Figure 7 — the load balancer's contribution, via ablation.
//!
//! Paper (test cluster shadowing production traffic): the load balancer is
//! disabled at hour 6 → traffic spikes in some jobs cause spiky CPU on
//! some hosts (p95 rises away from p50); fail-over is manually triggered on
//! a few machines at hour 14 → utilization becomes imbalanced, jobs on hot
//! hosts lag and crash; the balancer is re-enabled at hour 20 → host
//! resource consumption returns to normal very quickly.
//!
//! ```sh
//! cargo run --release -p turbine-bench --bin fig7_lb_ablation
//! ```

use std::process::ExitCode;
use turbine::Turbine;
use turbine_bench::{
    exit_code, experiment_config, platform_latest, platform_rows, print_table, provision_fleet,
    scuba_host, verdict,
};
use turbine_types::{Duration, SimTime};
use turbine_workloads::{synthesize_fleet, FleetConfig, TrafficEvent, TrafficEventKind};

fn main() -> ExitCode {
    let mut holds = true;
    let hosts = 24usize;
    let jobs = hosts * 110;
    let mut config = experiment_config();
    config.shard_count = (hosts as u64) * 64;
    // Rebalance often enough for a 24 h experiment to show the contrast.
    config.rebalance_interval = Duration::from_mins(15);
    let mut turbine = Turbine::new(config);
    turbine.add_hosts(hosts, scuba_host());

    let mut fleet = synthesize_fleet(&FleetConfig {
        jobs,
        seed: 0xF167,
        ..FleetConfig::default()
    });
    // Traffic spikes in the input of some jobs while the balancer is off
    // (hours 7-18): 4% of jobs spike to 6x their normal traffic.
    for (i, job) in fleet.iter_mut().enumerate() {
        if i % 25 == 0 {
            job.traffic.events.push(TrafficEvent {
                start: SimTime::ZERO + Duration::from_hours(7),
                end: SimTime::ZERO + Duration::from_hours(18),
                kind: TrafficEventKind::Multiplier(6.0),
            });
        }
    }
    provision_fleet(&mut turbine, &fleet, |_, _| {});

    eprintln!("running 24 hours: LB off at h6, failover at h14, LB on at h20...");
    let mut spread_before_disable = 0.0;
    let mut spread_during_outage = 0.0f64;
    let mut spread_after_reenable = 0.0;
    for hour in 1..=24u64 {
        turbine.run_for(Duration::from_hours(1));
        let p95 = platform_latest(&turbine, "host_cpu_p95");
        let p50 = platform_latest(&turbine, "host_cpu_p50");
        match hour {
            6 => {
                spread_before_disable = p95 - p50;
                turbine.set_load_balancing(false);
                eprintln!("hour 6: load balancer disabled");
            }
            14 => {
                // Mimic maintenance: take a few machines down, then bring
                // them back 30 minutes later.
                let victims: Vec<_> = turbine.cluster.hosts()[0..3].to_vec();
                for &h in &victims {
                    turbine.fail_host(h).expect("fail host");
                }
                turbine.run_for(Duration::from_mins(30));
                for &h in &victims {
                    turbine.recover_host(h).expect("recover host");
                }
                eprintln!("hour 14: triggered fail-over on 3 machines");
            }
            15..=19 => {
                spread_during_outage = spread_during_outage.max(p95 - p50);
            }
            20 => {
                turbine.set_load_balancing(true);
                eprintln!("hour 20: load balancer re-enabled");
            }
            24 => {
                spread_after_reenable = p95 - p50;
            }
            _ => {}
        }
    }

    let every = Duration::from_hours(1);
    print_table(
        "Fig 7: host CPU utilization (fraction) through the ablation",
        &[
            ("cpu_p5", platform_rows(&turbine, "host_cpu_p5", every)),
            ("cpu_p50", platform_rows(&turbine, "host_cpu_p50", every)),
            ("cpu_p95", platform_rows(&turbine, "host_cpu_p95", every)),
        ],
    );

    holds &= verdict(
        "without LB, spikes + failover imbalance the cluster",
        "p95 CPU pulls away from p50 after hour 6/14",
        &format!(
            "p95-p50 spread: {spread_before_disable:.3} before, {spread_during_outage:.3} during"
        ),
        spread_during_outage > spread_before_disable * 1.8,
    );
    holds &= verdict(
        "re-enabling LB restores balance quickly",
        "host utilization back to normal levels",
        &format!("p95-p50 spread {spread_after_reenable:.3} by hour 24"),
        spread_after_reenable < spread_during_outage * 0.65,
    );
    exit_code(holds)
}
