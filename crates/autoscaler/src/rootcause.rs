//! The auto root-causer.
//!
//! Untriaged problems (§V-D) are lag symptoms the scaler must not "fix"
//! with more resources. The paper enumerates their typical causes and
//! remedies — hardware issues (single-task anomaly; a move usually
//! resolves it), bad user updates (lag right after a release; more
//! resources or a rollback), dependency failures and system bugs (nothing
//! the scaler can do) — and names an *auto root-causer* as the kind of
//! service the decoupled architecture was built to accept (§I, §IX).
//! This module is that service: a rule-based classifier over the same
//! job metrics the scaler sees, producing a diagnosis and a safe
//! mitigation.

use crate::symptoms::JobMetrics;
use turbine_types::{Duration, SimTime, TaskId};

/// A classified root cause for an untriaged lag.
#[derive(Debug, Clone, PartialEq)]
pub enum RootCause {
    /// One task is anomalously slow while its siblings are healthy —
    /// typically a bad host. Moving the task usually resolves it.
    HardwareIssue {
        /// The anomalous task.
        task: TaskId,
    },
    /// The lag began right after a package release: likely a bad user
    /// update.
    BadUserUpdate {
        /// The version whose rollout coincided with the lag.
        suspect_version: u64,
        /// The version to roll back to.
        previous_version: u64,
    },
    /// Processing collapsed across *all* tasks with no recent change:
    /// a dependency failure or system bug. Scaling would amplify load on
    /// the struggling dependency.
    DependencyFailure,
    /// No rule matched; a human must look.
    Unknown,
}

impl RootCause {
    /// Stable snake_case label (trace records, alert routing).
    pub fn label(&self) -> &'static str {
        match self {
            RootCause::HardwareIssue { .. } => "hardware_issue",
            RootCause::BadUserUpdate { .. } => "bad_user_update",
            RootCause::DependencyFailure => "dependency_failure",
            RootCause::Unknown => "unknown",
        }
    }
}

/// The safe mitigation for a diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub enum Mitigation {
    /// Move the task to another host (automated; low risk).
    MoveTask(TaskId),
    /// Recommend rolling back to the given version (operator action —
    /// automation must not revert user intent on its own).
    RecommendRollback(u64),
    /// Alert and wait; adding resources would not help.
    AlertAndWait,
}

impl Mitigation {
    /// Short stable description (trace records, runbooks).
    pub fn describe(&self) -> String {
        match self {
            Mitigation::MoveTask(task) => format!("move_task({task})"),
            Mitigation::RecommendRollback(v) => format!("recommend_rollback(v{v})"),
            Mitigation::AlertAndWait => "alert_and_wait".to_string(),
        }
    }
}

/// A task counts as anomalous when its rate is below this fraction of the
/// median sibling rate.
const ANOMALY_RATIO: f64 = 0.2;

/// A release within this window before the lag began is a suspect.
const UPDATE_WINDOW: Duration = Duration::from_mins(30);

/// Fleet-wide collapse: observed per-thread throughput below this fraction
/// of the expected `P`.
const COLLAPSE_RATIO: f64 = 0.5;

/// Everything the root-causer looks at for one diagnosis.
#[derive(Debug, Clone)]
pub struct DiagnosisInput<'a> {
    /// The job's metrics this round.
    pub metrics: &'a JobMetrics,
    /// The anomalous task [`hardware_anomaly`] found this round, if any.
    pub hardware: Option<TaskId>,
    /// The scaler's current per-thread max-throughput estimate `P`.
    pub expected_per_thread: f64,
    /// The job's last release: current version, previous version, and
    /// when the version changed; `None` for a job never released.
    pub last_release: Option<(u64, u64, SimTime)>,
    /// When the ongoing lag episode began.
    pub lag_since: SimTime,
    /// Now.
    pub now: SimTime,
}

/// What the root-causer makes of one job's scaler round
/// ([`AutoScaler::triage`](crate::AutoScaler::triage)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Triage {
    /// Withhold the scaler's action: the diagnosis moves a task, and
    /// scaling around a sick host would both waste capacity and mask it.
    pub suppress_action: bool,
    /// The diagnosis to record and apply, when the root-causer ran.
    pub diagnosis: Option<Diagnosis>,
}

/// A diagnosis: cause, mitigation, human-readable rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// The classified cause.
    pub cause: RootCause,
    /// The recommended (or automated) mitigation.
    pub mitigation: Mitigation,
    /// One-line rationale for the runbook.
    pub rationale: String,
}

/// Rule 1's test, which the scaler's triage runs once per round on *every*
/// lagging job (the paper's root-causer is an independent service watching
/// symptoms, not a fallback of the scaler): exactly one task far below the
/// median of its siblings, with the siblings healthy. A single dead task
/// itself raises the rate CV somewhat, so the gate is generous (0.8); truly
/// imbalanced *input* (one task receiving most of the data) produces a
/// much higher CV and stays the scaler's RebalanceInput territory.
pub fn hardware_anomaly(metrics: &JobMetrics, per_task_rates: &[(TaskId, f64)]) -> Option<TaskId> {
    if per_task_rates.len() < 3 || metrics.imbalance_cv() >= 0.8 {
        return None;
    }
    let mut rates: Vec<f64> = per_task_rates.iter().map(|&(_, r)| r).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are not NaN"));
    let median = rates[rates.len() / 2];
    if median <= 0.0 {
        return None;
    }
    let anomalous: Vec<TaskId> = per_task_rates
        .iter()
        .filter(|&&(_, r)| r < median * ANOMALY_RATIO)
        .map(|&(t, _)| t)
        .collect();
    (anomalous.len() == 1).then(|| anomalous[0])
}

/// Classify one untriaged lag.
pub fn diagnose(input: &DiagnosisInput<'_>) -> Diagnosis {
    // Rule 1 — hardware issue.
    if let Some(task) = input.hardware {
        return Diagnosis {
            cause: RootCause::HardwareIssue { task },
            mitigation: Mitigation::MoveTask(task),
            rationale: format!(
                "{task} processes <{:.0}% of the sibling median with balanced input: likely a bad host; moving it usually resolves this",
                ANOMALY_RATIO * 100.0
            ),
        };
    }

    // Rule 2 — bad user update: the lag began within the window after a
    // release.
    let lag_since = input.lag_since;
    if let Some((version, previous, released_at)) = input
        .last_release
        .filter(|&(_, _, at)| lag_since >= at && lag_since.since(at) <= UPDATE_WINDOW)
    {
        return Diagnosis {
            cause: RootCause::BadUserUpdate {
                suspect_version: version,
                previous_version: previous,
            },
            mitigation: Mitigation::RecommendRollback(previous),
            rationale: format!(
                "lag began {} after the v{version} release: suspect the update; more resources may help temporarily, rollback to v{previous} if not",
                lag_since.since(released_at)
            ),
        };
    }

    // Rule 3 — dependency failure: everyone is slow relative to the known
    // max throughput, and nothing changed. A *complete* stall (zero
    // processing while input keeps arriving — e.g. the input Scribe
    // category stops serving reads) is the extreme of the same shape; zero
    // throughput with zero input is just an idle job.
    let n = input.metrics.task_count.max(1) as f64;
    let k = input.metrics.threads_per_task.max(1) as f64;
    let observed_per_thread = input.metrics.processing_rate / (n * k);
    let total_stall = input.metrics.processing_rate <= 0.0 && input.metrics.input_rate > 0.0;
    if input.expected_per_thread > 0.0
        && observed_per_thread < input.expected_per_thread * COLLAPSE_RATIO
        && (input.metrics.processing_rate > 0.0 || total_stall)
    {
        return Diagnosis {
            cause: RootCause::DependencyFailure,
            mitigation: Mitigation::AlertAndWait,
            rationale: format!(
                "all tasks process at {:.0}% of the known per-thread max with no recent change: dependency failure or system bug; scaling would amplify downstream load",
                observed_per_thread / input.expected_per_thread * 100.0
            ),
        };
    }

    Diagnosis {
        cause: RootCause::Unknown,
        mitigation: Mitigation::AlertAndWait,
        rationale: "no rule matched; operator investigation required".to_string(),
    }
}

turbine_types::snap_enum!(RootCause {
    0 => HardwareIssue { task },
    1 => BadUserUpdate { suspect_version, previous_version },
    2 => DependencyFailure,
    3 => Unknown,
});

turbine_types::snap_enum!(Mitigation { 0 => MoveTask(task), 1 => RecommendRollback(version), 2 => AlertAndWait });

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::{JobId, Resources};

    fn base_metrics(task_count: u32) -> JobMetrics {
        JobMetrics {
            input_rate: 4.0e6,
            processing_rate: 3.0e6,
            total_bytes_lagged: 4.0e6 * 200.0,
            per_task_rates: vec![1.0e6; task_count as usize],
            per_task_memory_mb: vec![500.0; task_count as usize],
            oom_events: 0,
            task_count,
            threads_per_task: 1,
            reserved: Resources::cpu_mem(1.0, 800.0),
            key_cardinality: None,
        }
    }

    fn task(i: u32) -> TaskId {
        TaskId::new(JobId(1), i)
    }

    fn t(mins: u64) -> SimTime {
        SimTime::ZERO + Duration::from_mins(mins)
    }

    /// A job still on the version its first round saw has no release row.
    const NEVER_RELEASED: Option<(u64, u64, SimTime)> = None;

    #[test]
    fn single_slow_task_is_a_hardware_issue() {
        let mut metrics = base_metrics(4);
        metrics.per_task_rates = vec![1.0e6, 1.0e6, 0.05e6, 1.0e6];
        let rates: Vec<(TaskId, f64)> = metrics
            .per_task_rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (task(i as u32), r))
            .collect();
        let d = diagnose(&DiagnosisInput {
            metrics: &metrics,
            hardware: hardware_anomaly(&metrics, &rates),
            expected_per_thread: 1.0e6,
            last_release: NEVER_RELEASED,
            lag_since: t(100),
            now: t(110),
        });
        assert_eq!(d.cause, RootCause::HardwareIssue { task: task(2) });
        assert_eq!(d.mitigation, Mitigation::MoveTask(task(2)));
    }

    #[test]
    fn lag_after_release_blames_the_update() {
        let metrics = base_metrics(4);
        let rates: Vec<(TaskId, f64)> = (0..4).map(|i| (task(i), 0.75e6)).collect();
        let d = diagnose(&DiagnosisInput {
            metrics: &metrics,
            hardware: hardware_anomaly(&metrics, &rates),
            expected_per_thread: 1.0e6,
            last_release: Some((7, 6, t(100))),
            lag_since: t(110),
            now: t(120),
        });
        assert_eq!(
            d.cause,
            RootCause::BadUserUpdate {
                suspect_version: 7,
                previous_version: 6
            }
        );
        assert_eq!(d.mitigation, Mitigation::RecommendRollback(6));
    }

    #[test]
    fn old_release_is_not_blamed() {
        let mut metrics = base_metrics(4);
        metrics.processing_rate = 1.0e6; // collapse: 0.25 per thread
        let rates: Vec<(TaskId, f64)> = (0..4).map(|i| (task(i), 0.25e6)).collect();
        let d = diagnose(&DiagnosisInput {
            metrics: &metrics,
            hardware: hardware_anomaly(&metrics, &rates),
            expected_per_thread: 1.0e6,
            last_release: Some((7, 6, t(10))),
            lag_since: t(300), // hours later
            now: t(310),
        });
        assert_eq!(d.cause, RootCause::DependencyFailure);
        assert_eq!(d.mitigation, Mitigation::AlertAndWait);
    }

    #[test]
    fn fleetwide_collapse_is_a_dependency_failure() {
        let mut metrics = base_metrics(8);
        metrics.processing_rate = 1.6e6; // 0.2 per thread vs P = 1.0
        let rates: Vec<(TaskId, f64)> = (0..8).map(|i| (task(i), 0.2e6)).collect();
        let d = diagnose(&DiagnosisInput {
            metrics: &metrics,
            hardware: hardware_anomaly(&metrics, &rates),
            expected_per_thread: 1.0e6,
            last_release: NEVER_RELEASED,
            lag_since: t(50),
            now: t(60),
        });
        assert_eq!(d.cause, RootCause::DependencyFailure);
    }

    #[test]
    fn total_stall_with_arrivals_is_a_dependency_failure() {
        // Reads from the input category stalled entirely: arrivals
        // continue, processing is zero across the board.
        let mut metrics = base_metrics(4);
        metrics.processing_rate = 0.0;
        let rates: Vec<(TaskId, f64)> = (0..4).map(|i| (task(i), 0.0)).collect();
        let d = diagnose(&DiagnosisInput {
            metrics: &metrics,
            hardware: hardware_anomaly(&metrics, &rates),
            expected_per_thread: 1.0e6,
            last_release: NEVER_RELEASED,
            lag_since: t(50),
            now: t(60),
        });
        assert_eq!(d.cause, RootCause::DependencyFailure);
        assert_eq!(d.mitigation, Mitigation::AlertAndWait);
    }

    #[test]
    fn healthy_looking_lag_is_unknown() {
        let metrics = base_metrics(4); // processing 0.75/thread: above collapse
        let rates: Vec<(TaskId, f64)> = (0..4).map(|i| (task(i), 0.75e6)).collect();
        let d = diagnose(&DiagnosisInput {
            metrics: &metrics,
            hardware: hardware_anomaly(&metrics, &rates),
            expected_per_thread: 1.0e6,
            last_release: NEVER_RELEASED,
            lag_since: t(50),
            now: t(60),
        });
        assert_eq!(d.cause, RootCause::Unknown);
    }

    #[test]
    fn imbalanced_input_is_never_a_hardware_issue() {
        // One task slow because it *receives* 10x the data (high CV):
        // that is the scaler's rebalance territory.
        let mut metrics = base_metrics(4);
        metrics.per_task_rates = vec![3.7e6, 0.1e6, 0.1e6, 0.1e6];
        let rates: Vec<(TaskId, f64)> = metrics
            .per_task_rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (task(i as u32), r))
            .collect();
        let d = diagnose(&DiagnosisInput {
            metrics: &metrics,
            hardware: hardware_anomaly(&metrics, &rates),
            expected_per_thread: 1.0e6,
            last_release: NEVER_RELEASED,
            lag_since: t(40),
            now: t(50),
        });
        assert!(!matches!(d.cause, RootCause::HardwareIssue { .. }), "{d:?}");
    }

    #[test]
    fn two_slow_tasks_do_not_match_the_single_task_rule() {
        let mut metrics = base_metrics(6);
        metrics.per_task_rates = vec![1.0e6, 1.0e6, 0.05e6, 0.05e6, 1.0e6, 1.0e6];
        metrics.processing_rate = 4.1e6;
        let rates: Vec<(TaskId, f64)> = metrics
            .per_task_rates
            .iter()
            .enumerate()
            .map(|(i, &r)| (task(i as u32), r))
            .collect();
        let d = diagnose(&DiagnosisInput {
            metrics: &metrics,
            hardware: hardware_anomaly(&metrics, &rates),
            expected_per_thread: 1.0e6,
            last_release: NEVER_RELEASED,
            lag_since: t(40),
            now: t(50),
        });
        assert!(!matches!(d.cause, RootCause::HardwareIssue { .. }), "{d:?}");
    }
}
