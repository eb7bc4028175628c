//! Fleet-health reporting (paper §VII).
//!
//! "A significant part of large-scale distributed systems is about
//! operations at scale: scalable monitoring, alerting, and diagnosis.
//! Aside from job level monitoring and alert dashboards, Turbine has
//! several tools to report the percentage of tasks not running, lagging,
//! or unhealthy." This module is that reporting surface: a point-in-time
//! [`FleetHealth`] snapshot with per-job drill-down, renderable as the
//! text dashboard operators read.

use crate::metrics::recovery_budget;
use crate::platform::Turbine;
use std::fmt::Write as _;
use turbine_config::ResiliencyClass;
use turbine_types::JobId;

/// Why a job shows up in the unhealthy drill-down.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthIssue {
    /// Fewer tasks running than the running configuration demands.
    TasksNotRunning {
        /// Tasks the running config expects.
        expected: u32,
        /// Tasks actually executing.
        running: usize,
    },
    /// `time_lagged` above the job's SLO threshold.
    Lagging {
        /// Estimated lag in seconds.
        lag_secs: f64,
        /// The SLO threshold.
        slo_secs: f64,
    },
    /// The State Syncer quarantined the job (repeated update failures).
    Quarantined,
    /// The job is mid-complex-sync (paused); expected to be transient.
    Paused,
}

impl std::fmt::Display for HealthIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthIssue::TasksNotRunning { expected, running } => {
                write!(f, "{running}/{expected} tasks running")
            }
            HealthIssue::Lagging { lag_secs, slo_secs } => {
                write!(f, "lagging {lag_secs:.0}s (SLO {slo_secs:.0}s)")
            }
            HealthIssue::Quarantined => f.write_str("quarantined by the state syncer"),
            HealthIssue::Paused => f.write_str("paused for a complex sync"),
        }
    }
}

/// Per-resiliency-tier SLO accounting: how often jobs of the tier went
/// down to faults, how fast they came back, and how that compares with
/// the tier's recovery budget.
#[derive(Debug, Clone)]
pub struct TierSlo {
    /// The tier.
    pub tier: ResiliencyClass,
    /// Jobs currently configured in this tier.
    pub jobs: usize,
    /// Fault-attributed outages that closed.
    pub recoveries: usize,
    /// Of those, recoveries via the warm-standby fast path.
    pub fast_recoveries: usize,
    /// Median recovery time, ms (0 with no samples).
    pub p50_ms: u64,
    /// 99th-percentile recovery time, ms (0 with no samples).
    pub p99_ms: u64,
    /// Accumulated fault-attributed downtime, ms.
    pub downtime_ms: u64,
    /// The tier's recovery budget, ms.
    pub budget_ms: u64,
}

impl TierSlo {
    /// True when the tier's observed p99 recovery stays within budget
    /// (vacuously true with no samples).
    pub fn within_budget(&self) -> bool {
        self.recoveries == 0 || self.p99_ms <= self.budget_ms
    }
}

/// A point-in-time fleet health snapshot.
#[derive(Debug, Clone)]
pub struct FleetHealth {
    /// Total jobs in the fleet.
    pub total_jobs: usize,
    /// Total tasks the running configurations demand.
    pub expected_tasks: u64,
    /// Tasks actually executing.
    pub running_tasks: u64,
    /// Fraction of expected tasks that are running.
    pub tasks_running_fraction: f64,
    /// Fraction of jobs within their lag SLO.
    pub jobs_within_slo_fraction: f64,
    /// Jobs with issues, with every issue listed (a job may have several).
    pub unhealthy: Vec<(JobId, Vec<HealthIssue>)>,
    /// Per unhealthy job: the most recent decisions the control plane took
    /// about it, newest first, rendered from the causal trace ("what has
    /// the platform already tried?").
    pub recent_decisions: Vec<(JobId, Vec<String>)>,
    /// Per-tier SLO accounting, in tier order (best-effort → critical).
    pub tier_slo: Vec<TierSlo>,
    /// Active (unresolved) ODS alert incidents, rendered one per line as
    /// `[severity] rule: message`. Empty when alerting is quiet.
    pub active_incidents: Vec<String>,
}

impl FleetHealth {
    /// Render the operator dashboard as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} jobs | tasks running {:.1}% ({}/{}) | jobs in SLO {:.1}%",
            self.total_jobs,
            self.tasks_running_fraction * 100.0,
            self.running_tasks,
            self.expected_tasks,
            self.jobs_within_slo_fraction * 100.0,
        );
        if self.unhealthy.is_empty() {
            let _ = writeln!(out, "all green");
        } else {
            let _ = writeln!(out, "unhealthy jobs ({}):", self.unhealthy.len());
            for (job, issues) in &self.unhealthy {
                let descriptions: Vec<String> = issues.iter().map(|i| i.to_string()).collect();
                let _ = writeln!(out, "  {job}: {}", descriptions.join("; "));
                if let Some((_, decisions)) = self.recent_decisions.iter().find(|(j, _)| j == job) {
                    if !decisions.is_empty() {
                        let _ = writeln!(out, "    recent decisions:");
                        for line in decisions {
                            let _ = writeln!(out, "      {line}");
                        }
                    }
                }
            }
        }
        if !self.active_incidents.is_empty() {
            let _ = writeln!(out, "active incidents ({}):", self.active_incidents.len());
            for line in &self.active_incidents {
                let _ = writeln!(out, "  {line}");
            }
        }
        for t in &self.tier_slo {
            if t.jobs == 0 && t.recoveries == 0 {
                continue;
            }
            let verdict = if t.within_budget() {
                "ok"
            } else {
                "OVER BUDGET"
            };
            let _ = writeln!(
                out,
                "tier {}: {} job(s) | {} recover(ies), {} fast | p50 {}ms p99 {}ms \
                 (budget {}ms, {verdict}) | downtime {}ms",
                t.tier.as_str(),
                t.jobs,
                t.recoveries,
                t.fast_recoveries,
                t.p50_ms,
                t.p99_ms,
                t.budget_ms,
                t.downtime_ms,
            );
        }
        out
    }
}

/// Build the per-tier SLO accounting table from a platform's metrics.
pub fn tier_slo_table(turbine: &Turbine) -> Vec<TierSlo> {
    ResiliencyClass::ALL
        .iter()
        .map(|&tier| {
            let jobs = turbine
                .job_ids()
                .into_iter()
                .filter(|&j| turbine.job_resiliency(j) == tier)
                .count();
            // Percentiles come from the metrics' insert-sorted per-tier
            // vector: a rank lookup, not a per-render rebuild and sort of
            // every recovery sample (identical nearest-rank results).
            let samples_ms = turbine.metrics.tier_recovery_sorted(tier);
            let fast = turbine
                .metrics
                .recoveries
                .iter()
                .filter(|r| r.tier == tier && r.fast)
                .count();
            TierSlo {
                tier,
                jobs,
                recoveries: samples_ms.len(),
                fast_recoveries: fast,
                p50_ms: turbine
                    .metrics
                    .tier_recovery_quantile(tier, 0.50)
                    .unwrap_or(0),
                p99_ms: turbine
                    .metrics
                    .tier_recovery_quantile(tier, 0.99)
                    .unwrap_or(0),
                downtime_ms: turbine.metrics.tier_downtime_ms(tier).unwrap_or(0),
                budget_ms: recovery_budget(tier).as_millis(),
            }
        })
        .collect()
}

/// Decisions shown per unhealthy job in the dashboard drill-down.
const RECENT_DECISIONS_PER_JOB: usize = 3;

/// Build the fleet-health snapshot from a platform.
pub fn fleet_health(turbine: &Turbine) -> FleetHealth {
    let mut total_jobs = 0usize;
    let mut expected_tasks = 0u64;
    let mut running_tasks = 0u64;
    let mut jobs_in_slo = 0usize;
    let mut unhealthy = Vec::new();

    for job in turbine.job_ids() {
        let Some(status) = turbine.job_status(job) else {
            continue;
        };
        total_jobs += 1;
        expected_tasks += u64::from(status.running_config_tasks);
        running_tasks += status.running_tasks as u64;

        let mut issues = Vec::new();
        if status.quarantined {
            issues.push(HealthIssue::Quarantined);
        }
        if status.paused {
            issues.push(HealthIssue::Paused);
        } else if status.running_tasks < status.running_config_tasks as usize {
            issues.push(HealthIssue::TasksNotRunning {
                expected: status.running_config_tasks,
                running: status.running_tasks,
            });
        }
        let slo = turbine.job_slo_secs(job).unwrap_or(90.0);
        let rate = turbine.job_arrival_rate(job).unwrap_or(0.0).max(1.0);
        let lag_secs = status.backlog_bytes / rate;
        if lag_secs <= slo {
            jobs_in_slo += 1;
        } else {
            issues.push(HealthIssue::Lagging {
                lag_secs,
                slo_secs: slo,
            });
        }
        if !issues.is_empty() {
            unhealthy.push((job, issues));
        }
    }

    let recent_decisions: Vec<(JobId, Vec<String>)> = unhealthy
        .iter()
        .map(|(job, _)| {
            let lines: Vec<String> = turbine
                .trace()
                .decisions_for(*job, RECENT_DECISIONS_PER_JOB)
                .iter()
                .map(|e| format!("[{}] {}", e.at, e.data.summary()))
                .collect();
            (*job, lines)
        })
        .filter(|(_, lines)| !lines.is_empty())
        .collect();

    FleetHealth {
        total_jobs,
        expected_tasks,
        running_tasks,
        tasks_running_fraction: if expected_tasks == 0 {
            1.0
        } else {
            running_tasks as f64 / expected_tasks as f64
        },
        jobs_within_slo_fraction: if total_jobs == 0 {
            1.0
        } else {
            jobs_in_slo as f64 / total_jobs as f64
        },
        unhealthy,
        recent_decisions,
        tier_slo: tier_slo_table(turbine),
        active_incidents: turbine
            .incidents()
            .iter()
            .filter(|i| i.is_active())
            .map(|i| format!("[{}] {}: {}", i.severity, i.rule, i.message))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::TurbineConfig;
    use turbine_config::JobConfig;
    use turbine_types::{Duration, Resources};
    use turbine_workloads::TrafficModel;

    fn platform() -> Turbine {
        let mut t = Turbine::new(TurbineConfig::default());
        t.add_hosts(4, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
        t
    }

    #[test]
    fn healthy_fleet_is_all_green() {
        let mut t = platform();
        t.provision_job(
            JobId(1),
            JobConfig::stateless("ok", 4, 16),
            TrafficModel::flat(2.0e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
        t.run_for(Duration::from_mins(10));
        let health = fleet_health(&t);
        assert!(health.unhealthy.is_empty(), "{}", health.render());
        assert_eq!(health.total_jobs, 1);
        assert_eq!(health.running_tasks, 4);
        assert!((health.tasks_running_fraction - 1.0).abs() < 1e-12);
        assert!(health.render().contains("all green"));
    }

    #[test]
    fn dead_host_shows_tasks_not_running_and_lag() {
        let mut config = TurbineConfig::default();
        config.scaler_enabled = false;
        let mut t = Turbine::new(config);
        t.add_hosts(2, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
        t.provision_job(
            JobId(1),
            JobConfig::stateless("hurt", 8, 32),
            TrafficModel::flat(4.0e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
        t.run_for(Duration::from_mins(5));
        // Fail BOTH hosts: nothing can fail over, tasks stay down.
        for host in t.cluster.hosts() {
            t.fail_host(host).expect("fail");
        }
        t.run_for(Duration::from_mins(10));
        let health = fleet_health(&t);
        assert!(!health.unhealthy.is_empty());
        let (_, issues) = &health.unhealthy[0];
        assert!(
            issues
                .iter()
                .any(|i| matches!(i, HealthIssue::Lagging { .. })),
            "{issues:?}"
        );
        let rendered = health.render();
        assert!(rendered.contains("unhealthy jobs"), "{rendered}");
    }

    #[test]
    fn empty_fleet_is_vacuously_green() {
        let t = platform();
        let health = fleet_health(&t);
        assert!(health.unhealthy.is_empty());
        assert_eq!(health.total_jobs, 0);
        assert_eq!(health.tasks_running_fraction, 1.0);
    }

    /// Every [`HealthIssue`] variant renders its drill-down text, and the
    /// recent-decisions panel prints under the job it belongs to.
    #[test]
    fn render_shows_every_issue_variant_and_recent_decisions() {
        let health = FleetHealth {
            total_jobs: 4,
            expected_tasks: 32,
            running_tasks: 20,
            tasks_running_fraction: 20.0 / 32.0,
            jobs_within_slo_fraction: 0.75,
            unhealthy: vec![
                (
                    JobId(1),
                    vec![HealthIssue::TasksNotRunning {
                        expected: 8,
                        running: 5,
                    }],
                ),
                (
                    JobId(2),
                    vec![HealthIssue::Lagging {
                        lag_secs: 240.0,
                        slo_secs: 90.0,
                    }],
                ),
                (JobId(3), vec![HealthIssue::Quarantined]),
                (JobId(4), vec![HealthIssue::Paused]),
            ],
            recent_decisions: vec![(
                JobId(2),
                vec![
                    "[t+1.00h] scaled job 2: horizontal(tasks=12, mem=600MB)".to_string(),
                    "[t+30.00m] diagnosed job 2: unknown -> alert_and_wait".to_string(),
                ],
            )],
            tier_slo: vec![
                TierSlo {
                    tier: ResiliencyClass::Critical,
                    jobs: 1,
                    recoveries: 3,
                    fast_recoveries: 3,
                    p50_ms: 10_000,
                    p99_ms: 20_000,
                    downtime_ms: 40_000,
                    budget_ms: 30_000,
                },
                TierSlo {
                    tier: ResiliencyClass::Standard,
                    jobs: 2,
                    recoveries: 1,
                    fast_recoveries: 0,
                    p50_ms: 70_000,
                    p99_ms: 170_000,
                    downtime_ms: 170_000,
                    budget_ms: 150_000,
                },
            ],
            active_incidents: vec!["[critical] lag-slo-2: job 2 lag 240s above SLO 90s".to_string()],
        };
        let rendered = health.render();
        assert!(rendered.contains("unhealthy jobs (4):"), "{rendered}");
        assert!(rendered.contains("tier critical: 1 job(s)"), "{rendered}");
        assert!(
            rendered.contains("p99 20000ms (budget 30000ms, ok)"),
            "{rendered}"
        );
        assert!(rendered.contains("tier standard: 2 job(s)"), "{rendered}");
        assert!(rendered.contains("OVER BUDGET"), "{rendered}");
        assert!(rendered.contains("5/8 tasks running"), "{rendered}");
        assert!(rendered.contains("lagging 240s (SLO 90s)"), "{rendered}");
        assert!(
            rendered.contains("quarantined by the state syncer"),
            "{rendered}"
        );
        assert!(rendered.contains("paused for a complex sync"), "{rendered}");
        assert!(rendered.contains("active incidents (1):"), "{rendered}");
        assert!(
            rendered.contains("[critical] lag-slo-2: job 2 lag 240s above SLO 90s"),
            "{rendered}"
        );
        // The decisions panel appears once, under job 2 only.
        assert_eq!(rendered.matches("recent decisions:").count(), 1);
        assert!(
            rendered.contains("[t+1.00h] scaled job 2: horizontal(tasks=12, mem=600MB)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("[t+30.00m] diagnosed job 2: unknown -> alert_and_wait"),
            "{rendered}"
        );
    }

    /// An end-to-end snapshot of a struggling platform carries trace-derived
    /// decision lines for the unhealthy job.
    #[test]
    fn fleet_health_populates_decisions_from_the_trace() {
        let mut config = TurbineConfig::default();
        config.scaler_enabled = false;
        let mut t = Turbine::new(config);
        t.add_hosts(2, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
        t.provision_job(
            JobId(1),
            JobConfig::stateless("hurt", 8, 32),
            TrafficModel::flat(4.0e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
        t.run_for(Duration::from_mins(5));
        for host in t.cluster.hosts() {
            t.fail_host(host).expect("fail");
        }
        t.run_for(Duration::from_mins(10));
        let health = fleet_health(&t);
        assert!(!health.unhealthy.is_empty());
        // With tracing on (default), decision lines either exist for the
        // unhealthy job or the job genuinely saw no decision yet — but the
        // panel must never list a job with zero lines.
        for (_, lines) in &health.recent_decisions {
            assert!(!lines.is_empty());
        }
    }
}
