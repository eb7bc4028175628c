//! Shared utilities for the experiment binaries that regenerate every
//! table and figure of the paper's evaluation (see EXPERIMENTS.md for the
//! index and DESIGN.md for the substitutions).
//!
//! Each figure has its own binary under `src/bin/`. The binaries print
//! the same rows/series the paper reports, plus a `paper vs measured`
//! summary line per headline claim, and exit non-zero if any claim
//! diverged. Per-layer timings are the repo benchmark's probes
//! (`benchmark/`).

pub mod soak;

use std::process::ExitCode;
use turbine::{Turbine, TurbineConfig};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, Resources, TimeSeries};
use turbine_workloads::SyntheticJob;

/// The host shape used throughout the paper's Scuba Tailer evaluation:
/// 256 GB of memory and 56 cores.
pub fn scuba_host() -> Resources {
    Resources::new(56.0, 256.0 * 1024.0, 2.0e6, 1000.0)
}

/// Provision a synthesized fleet onto a platform. Returns the job ids.
pub fn provision_fleet(
    turbine: &mut Turbine,
    fleet: &[SyntheticJob],
    configure: impl Fn(&SyntheticJob, &mut JobConfig),
) -> Vec<JobId> {
    fleet
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let id = JobId(i as u64 + 1);
            let mut config =
                JobConfig::stateless(&job.name, job.initial_task_count, job.input_partitions);
            config.task_resources = job.expected_task_usage.scale(1.3);
            config.task_resources.cpu = config.task_resources.cpu.max(0.25);
            configure(job, &mut config);
            turbine
                .provision_job(
                    id,
                    config,
                    job.traffic.clone(),
                    1.0e6,
                    job.avg_message_bytes,
                )
                .expect("fleet job provisions");
            id
        })
        .collect()
}

/// Down-sample a time series to one value per `every` (first sample of a
/// slot wins), returning (hours, value) pairs — the rows the figures
/// print. Covers the whole run: history a long series has compacted is
/// read from its buckets (a bucket's last value at its end), the exact
/// tail after it.
pub fn downsample(series: &TimeSeries, every: Duration) -> Vec<(f64, f64)> {
    let mut rows = Vec::new();
    let mut next_slot = 0u64;
    let compacted = series.buckets().iter().map(|b| (b.end, b.last));
    for (at, value) in compacted.chain(series.points()) {
        let slot = at.as_millis() / every.as_millis();
        if slot >= next_slot {
            rows.push((at.as_hours_f64(), value));
            next_slot = slot + 1;
        }
    }
    rows
}

/// Align several series on the slots of the first and print a table.
pub fn print_table(title: &str, columns: &[(&str, Vec<(f64, f64)>)]) {
    println!("## {title}");
    print!("{:>8}", "hour");
    for (name, _) in columns {
        print!("  {name:>12}");
    }
    println!();
    let rows = columns.first().map_or(0, |(_, c)| c.len());
    for i in 0..rows {
        let hour = columns[0].1[i].0;
        print!("{hour:>8.1}");
        for (_, col) in columns {
            match col.get(i) {
                Some(&(_, v)) => print!("  {v:>12.3}"),
                None => print!("  {:>12}", "-"),
            }
        }
        println!();
    }
    println!();
}

/// Print one `paper vs measured` conclusion row and hand `holds` back, so
/// a binary can fold its verdicts into its exit status.
#[must_use]
pub fn verdict(claim: &str, paper: &str, measured: &str, holds: bool) -> bool {
    println!(
        "[{}] {claim}: paper = {paper}, measured = {measured}",
        if holds { "OK" } else { "DIVERGES" }
    );
    holds
}

/// The exit status of a figure binary: failure if any verdict diverged
/// (what `ci.sh` gates on; the measured values carry wall-clock).
pub fn exit_code(all_verdicts_hold: bool) -> ExitCode {
    if all_verdicts_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A platform config tuned for fleet-scale experiment runs: identical
/// control cadences to production, with experiment-friendly scaler
/// stability windows (the paper's 24 h window would hide behaviour in
/// short runs; experiments that need the production value override it).
pub fn experiment_config() -> TurbineConfig {
    let mut config = TurbineConfig::default();
    config.scaler.downscale_stability = Duration::from_hours(4);
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::SimTime;

    #[test]
    fn downsample_keeps_one_row_per_slot() {
        let mut ts = TimeSeries::new();
        for m in 0..180 {
            ts.record(SimTime::ZERO + Duration::from_mins(m), m as f64);
        }
        let rows = downsample(&ts, Duration::from_hours(1));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 0.0);
        assert_eq!(rows[1].1, 60.0);

        // A series long enough to have compacted its older half still
        // yields a row for every slot, from the first hour on.
        let mut long = TimeSeries::new();
        let hours = 2 * turbine_types::DEFAULT_SERIES_CAPACITY as u64 / 60;
        for m in 0..hours * 60 {
            long.record(SimTime::ZERO + Duration::from_mins(m), m as f64);
        }
        assert!(!long.buckets().is_empty(), "compacted");
        let rows = downsample(&long, Duration::from_hours(1));
        assert_eq!(rows.len() as u64, hours);
        for (slot, &(hour, value)) in rows.iter().enumerate() {
            assert_eq!(hour.floor(), slot as f64, "one row per hour, in order");
            assert!(
                (value / 60.0).floor() == slot as f64,
                "a value of that hour"
            );
        }
    }

    #[test]
    fn provision_fleet_creates_all_jobs() {
        let mut turbine = Turbine::new(TurbineConfig::default());
        turbine.add_hosts(4, scuba_host());
        let fleet = turbine_workloads::synthesize_fleet(&turbine_workloads::FleetConfig {
            jobs: 10,
            ..Default::default()
        });
        let ids = provision_fleet(&mut turbine, &fleet, |_, _| {});
        assert_eq!(ids.len(), 10);
        turbine.run_for(Duration::from_mins(3));
        for id in ids {
            assert!(turbine.job_status(id).expect("status").running_tasks > 0);
        }
    }
}
