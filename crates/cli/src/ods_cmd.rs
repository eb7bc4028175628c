//! `turbinesim metrics` and `turbinesim top`: ODS registry export and the
//! live operator console.
//!
//! Both subcommands ride the same [`drive_scenario`] loop the other
//! subcommands use. `metrics` runs the scenario to completion and dumps
//! every registry series (and every alert incident) as JSONL or a
//! Prometheus-style text exposition; `top` renders a console frame every
//! refresh interval while the scenario runs, ending on the final state.

use crate::runner::drive_scenario;
use crate::scenario::Scenario;
use std::fmt::Write as _;
use turbine::{MetricKey, Turbine};
use turbine_types::JobId;

/// Output format for `turbinesim metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// One JSON object per line: every series, then every incident.
    Jsonl,
    /// Prometheus-style text exposition of each series' latest sample.
    Prom,
}

impl MetricsFormat {
    /// Parse trailing `--jsonl` / `--prom` flags (default: JSONL).
    pub fn parse(flags: &[String]) -> Result<MetricsFormat, String> {
        let mut format = MetricsFormat::Jsonl;
        for flag in flags {
            match flag.as_str() {
                "--jsonl" => format = MetricsFormat::Jsonl,
                "--prom" => format = MetricsFormat::Prom,
                other => return Err(format!("unknown metrics flag '{other}'")),
            }
        }
        Ok(format)
    }
}

/// Run the scenario to completion and export the ODS registry plus the
/// full incident log in the requested format.
pub fn metrics_report(scenario: &Scenario, format: MetricsFormat) -> String {
    let (turbine, _) = drive_scenario(scenario, |_, _| {});
    match format {
        MetricsFormat::Jsonl => {
            turbine_ods::export::to_jsonl(turbine.ods_registry(), turbine.incidents())
        }
        MetricsFormat::Prom => {
            turbine_ods::export::to_prom(turbine.ods_registry(), turbine.incidents())
        }
    }
}

/// Drive the scenario, handing a rendered console frame to `sink` every
/// `refresh_mins` minutes of simulated time (plus a final frame).
pub fn run_top(scenario: &Scenario, refresh_mins: u64, mut sink: impl FnMut(&str)) {
    let refresh = refresh_mins.max(1);
    let total_mins = (scenario.duration_hours * 60.0).ceil() as u64;
    drive_scenario(scenario, |turbine, minute| {
        if minute % refresh == 0 || minute == total_mins {
            sink(&top_frame(scenario, turbine, minute));
        }
    });
}

/// Render one `turbinesim top` frame: a per-job table (tier, tasks, lag,
/// backlog) followed by the fleet-health dashboard, which carries the
/// active-incident list and per-tier SLO accounting.
pub fn top_frame(scenario: &Scenario, turbine: &Turbine, minute: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "turbinesim top — {} (minute {minute} of {})",
        turbine.now(),
        (scenario.duration_hours * 60.0).ceil() as u64,
    );
    let _ = writeln!(
        out,
        "{:<24} {:>11} {:>6} {:>9} {:>11}",
        "job", "tier", "tasks", "lag_s", "backlog_mb"
    );
    for (i, job) in scenario.jobs.iter().enumerate() {
        // Same deterministic numbering the runner provisions with.
        let id = JobId(i as u64 + 1);
        let Some(status) = turbine.job_status(id) else {
            let _ = writeln!(
                out,
                "{:<24} {:>11} {:>6} {:>9} {:>11}",
                format!("{} (deleted)", job.name),
                "-",
                0,
                "-",
                "-"
            );
            continue;
        };
        let rate = turbine.job_arrival_rate(id).unwrap_or(0.0).max(1.0);
        let _ = writeln!(
            out,
            "{:<24} {:>11} {:>6} {:>9.1} {:>11.1}",
            job.name,
            job.resiliency.as_str(),
            status.running_tasks,
            status.backlog_bytes / rate,
            status.backlog_bytes / 1.0e6,
        );
    }
    // Jobs the data-plane tick still walks, as last sampled by the
    // metrics round.
    if let Some(active) = turbine
        .ods_registry()
        .series_by_key(&MetricKey::platform("engine_active_jobs"))
        .and_then(|series| series.last())
    {
        let total = turbine.job_ids().len();
        let _ = writeln!(
            out,
            "engine: {active:.0} of {total} jobs active, {:.0} settled",
            (total as f64 - active).max(0.0),
        );
    }
    // What the change-proportional control rounds did do, since the start
    // of the run (or the restore it resumed from).
    let _ = writeln!(
        out,
        "control: {} jobs rendered, {} managers reconciled, {} standbys examined",
        turbine.tm_jobs_rendered(),
        turbine.tm_managers_reconciled(),
        turbine.standbys_examined(),
    );
    out.push('\n');
    out.push_str(&turbine::fleet_health(turbine).render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::parse(
            r#"{
              "hosts": 3, "duration_hours": 1.0,
              "jobs": [
                {"name": "a", "tasks": 2, "partitions": 16, "rate_mbps": 2.0, "seed": 1},
                {"name": "b", "tasks": 1, "partitions": 8, "rate_mbps": 0.5, "seed": 2}
              ]
            }"#,
        )
        .expect("parse")
    }

    #[test]
    fn metrics_jsonl_lists_platform_and_job_series() {
        let report = metrics_report(&tiny(), MetricsFormat::Jsonl);
        assert!(
            report.contains(r#""key":"platform/cluster_traffic_bps""#),
            "{report}"
        );
        assert!(report.contains(r#""key":"job/1/lag_secs""#), "{report}");
        // Every line is a JSON object.
        for line in report.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        // The registry holds simulated state only, so a second run of the
        // same scenario reports the same text.
        assert!(
            report == metrics_report(&tiny(), MetricsFormat::Jsonl),
            "two runs of one scenario reported different metrics"
        );
    }

    #[test]
    fn metrics_prom_exposes_gauges() {
        let report = metrics_report(&tiny(), MetricsFormat::Prom);
        assert!(report.contains("turbine_cluster_traffic_bps "), "{report}");
        assert!(
            report.contains(r#"turbine_incidents_active{severity="critical"}"#),
            "{report}"
        );
    }

    #[test]
    fn metrics_formats_parse_and_reject_unknown_flags() {
        assert_eq!(MetricsFormat::parse(&[]), Ok(MetricsFormat::Jsonl));
        assert_eq!(
            MetricsFormat::parse(&["--prom".to_string()]),
            Ok(MetricsFormat::Prom)
        );
        assert!(MetricsFormat::parse(&["--xml".to_string()]).is_err());
    }

    #[test]
    fn top_renders_a_frame_per_refresh_interval() {
        let mut frames = Vec::new();
        run_top(&tiny(), 15, |frame| frames.push(frame.to_string()));
        assert_eq!(frames.len(), 4, "15-min frames over 1 h");
        let last = frames.last().expect("frames");
        assert!(last.contains("turbinesim top"), "{last}");
        assert!(last.contains("job"), "{last}");
        assert!(last.lines().any(|l| l.starts_with("a ")), "{last}");
        assert!(last.contains("engine: 2 of 2 jobs active"), "{last}");
        assert!(
            last.contains(" managers reconciled, 0 standbys examined"),
            "{last}"
        );
        assert!(last.contains("fleet:"), "{last}");
    }
}
