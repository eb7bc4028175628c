//! The Auto Scaler decision engine (paper §V, Algorithm 2 and Fig. 4).
//!
//! [`AutoScaler::evaluate`] runs one scaling round for one job: symptoms
//! are detected, resource estimates computed, and the Plan Generator
//! synthesizes a final decision subject to the §V-B guards:
//!
//! 1. downscaling must never make a healthy job unhealthy (estimates give
//!    the lower bound; the Pattern Analyzer checks history);
//! 2. untriaged problems (enough resources, no imbalance, still lagging)
//!    must not trigger scaling — they raise an operator alert instead;
//! 3. multi-resource adjustments are correlated (more tasks ⇒ less memory
//!    per task for stateful jobs).
//!
//! Vertical scaling is preferred until the per-task footprint reaches the
//! configured cap (typically 1/5 of a container), then horizontal scaling
//! kicks in (§V-E). [`ScalerMode::Reactive`] reproduces the first
//! generation (Dhalion-like) behaviour as the ablation baseline.

use crate::estimator::{estimate_resources, required_task_count, BASE_MEMORY_MB, RECOVERY_TIME};
use crate::patterns::{PatternAnalyzer, PatternConfig, ThroughputModel};
use crate::rootcause::{diagnose, hardware_anomaly, DiagnosisInput, Triage};
use crate::symptoms::{detect, JobMetrics, RunningTask, Symptom};
use std::borrow::Cow;
use turbine_config::JobConfig;
use turbine_types::{Duration, IdMap, JobId, Priority, Resources, SimTime, TaskId};

/// Which generation of the scaler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalerMode {
    /// First generation: purely symptom-driven, no estimates, no pattern
    /// pruning. Kept as the evaluation baseline.
    Reactive,
    /// Second generation: proactive estimates + preactive pattern analysis.
    Full,
}

/// Memory growth factor applied on OOM.
const OOM_MEMORY_FACTOR: f64 = 1.5;

/// Window after a downscale during which an SLO violation is attributed to
/// an overestimated `P`.
const OVERESTIMATE_WINDOW: Duration = Duration::from_hours(1);

/// Bootstrap per-thread throughput used until staging/observation provides
/// a better value (bytes/sec).
const BOOTSTRAP_P: f64 = 1.0e6;

/// Scaler tunables.
#[derive(Debug, Clone, Copy)]
pub struct ScalerConfig {
    /// Generation selector.
    pub mode: ScalerMode,
    /// Pattern analyzer settings.
    pub patterns: PatternConfig,
    /// How long a job must stay symptom-free before downscaling is
    /// considered (the paper observes "no lag detected in a day").
    pub downscale_stability: Duration,
    /// Minimum gap between successive scaling actions on one job.
    pub min_action_gap: Duration,
    /// Per-task resource ceiling for vertical scaling — typically 1/5 of a
    /// Turbine container, keeping tasks fine-grained enough to move.
    pub vertical_limit: Resources,
    /// Proactive pre-emptive upscale trigger: when the estimated CPU
    /// units (Eq. 2) exceed this fraction of capacity, scale up *before*
    /// lag appears. This is what keeps jobs inside their SLOs through
    /// predictable ramps.
    pub preemptive_units: f64,
    /// Utilization targeted by scale-ups and downscales. Together with
    /// `preemptive_units` it forms the hysteresis band that prevents
    /// churn.
    pub target_units: f64,
}

impl Default for ScalerConfig {
    fn default() -> Self {
        ScalerConfig {
            mode: ScalerMode::Full,
            patterns: PatternConfig::default(),
            downscale_stability: Duration::from_hours(24),
            min_action_gap: Duration::from_mins(5),
            vertical_limit: Resources::new(8.0, 10_240.0, 102_400.0, 200.0),
            preemptive_units: 0.85,
            target_units: 0.7,
        }
    }
}

/// A scaling action to apply to a job's Scaler configuration level.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalingAction {
    /// Redistribute input traffic among the existing tasks (the resolver
    /// for imbalanced input; no parallelism change).
    RebalanceInput,
    /// Vertical scaling: change per-task threads/resources without
    /// changing the task count (a *simple* sync).
    Vertical {
        /// New worker-thread count per task.
        threads_per_task: u32,
        /// New per-task resource reservation.
        per_task: Resources,
    },
    /// Horizontal scaling: change the task count (a *complex* sync), with
    /// the correlated per-task resource adjustment.
    Horizontal {
        /// New number of tasks.
        task_count: u32,
        /// New per-task resource reservation (correlated adjustment).
        per_task: Resources,
    },
}

impl ScalingAction {
    /// Short stable description (trace records, runbooks).
    pub fn describe(&self) -> String {
        match self {
            ScalingAction::RebalanceInput => "rebalance_input".to_string(),
            ScalingAction::Vertical {
                threads_per_task,
                per_task,
            } => format!(
                "vertical(threads={threads_per_task}, mem={:.0}MB)",
                per_task.memory_mb
            ),
            ScalingAction::Horizontal {
                task_count,
                per_task,
            } => format!(
                "horizontal(tasks={task_count}, mem={:.0}MB)",
                per_task.memory_mb
            ),
        }
    }
}

/// The outcome of evaluating one job.
#[derive(Debug, Clone)]
pub struct ScalingDecision {
    /// The job evaluated.
    pub job: JobId,
    /// Action to apply, if any.
    pub action: Option<ScalingAction>,
    /// Set when symptoms exist that scaling cannot explain or fix — the
    /// paper's "untriaged problems" that fire operator alerts.
    pub untriaged: Option<String>,
    /// Symptoms observed this round.
    pub symptoms: Vec<Symptom>,
    /// Human-readable rationale (for logs/runbooks). Borrowed when it is a
    /// fixed phrase, so a round allocates only for the reasons it formats.
    pub reason: Cow<'static, str>,
}

/// One lag episode of a job: when it began and how many consecutive
/// rounds have shown it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LagEpisode {
    /// The first lagging round.
    pub since: SimTime,
    /// Consecutive lagging rounds so far; untriaged alerts only fire once
    /// lag persists (start-up catch-up is not an incident).
    pub rounds: u32,
}

/// Per-job persistent scaler state: the scaling bookkeeping and the
/// root-causer's inputs, one record per job.
#[derive(Debug)]
struct JobState {
    throughput: ThroughputModel,
    healthy_since: Option<SimTime>,
    last_action_at: Option<SimTime>,
    last_downscale_at: Option<SimTime>,
    /// The ongoing lag episode; `None` while the job keeps up.
    lag: Option<LagEpisode>,
    /// The package version the job ran at its last round.
    version: u64,
    /// The release row for the bad-update rule: (previous version, changed
    /// at), set only when the version changes — the version a job first
    /// ran is not a release.
    release: Option<(u64, SimTime)>,
    /// When the root-causer last diagnosed the job (its debounce).
    last_diagnosis: Option<SimTime>,
}

/// The Auto Scaler.
#[derive(Debug)]
pub struct AutoScaler {
    config: ScalerConfig,
    patterns: PatternAnalyzer,
    states: IdMap<JobId, JobState>,
    /// When set by the Capacity Manager, only jobs at or above this
    /// priority may scale *up* (cluster under pressure, §V-F).
    priority_floor: Option<Priority>,
}

impl AutoScaler {
    /// A scaler with the given tunables.
    pub fn new(config: ScalerConfig) -> Self {
        AutoScaler {
            patterns: PatternAnalyzer::new(config.patterns),
            config,
            states: IdMap::default(),
            priority_floor: None,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ScalerConfig {
        &self.config
    }

    /// Current `P` estimate for a job (bytes/sec per thread), if known.
    pub fn throughput_estimate(&self, job: JobId) -> Option<f64> {
        self.states.get(&job).map(|s| s.throughput.p())
    }

    /// The job's ongoing lag episode, if it is lagging.
    pub fn lag_episode(&self, job: JobId) -> Option<LagEpisode> {
        self.states.get(&job)?.lag
    }

    /// Set/clear the Capacity Manager's priority floor for scale-ups.
    pub fn set_priority_floor(&mut self, floor: Option<Priority>) {
        self.priority_floor = floor;
    }

    /// Drop everything kept for `job`: its scaling state, its root-cause
    /// record and its workload history. For deleted jobs; ids are never
    /// reused, so nothing the scaler decides later depends on what is
    /// dropped.
    pub fn forget(&mut self, job: JobId) {
        self.states.remove(&job);
        self.patterns.forget(job);
    }

    /// Run one scaling evaluation for `job`.
    pub fn evaluate(
        &mut self,
        job: JobId,
        metrics: &JobMetrics,
        config: &JobConfig,
        now: SimTime,
    ) -> ScalingDecision {
        self.patterns.record(job, now, metrics.input_rate);
        let version = config.package.version;
        let state = self.states.entry(job).or_insert_with(|| JobState {
            throughput: ThroughputModel::new(BOOTSTRAP_P),
            healthy_since: Some(now),
            last_action_at: None,
            last_downscale_at: None,
            lag: None,
            version,
            release: None,
            last_diagnosis: None,
        });
        if state.version != version {
            state.release = Some((state.version, now));
            state.version = version;
        }

        // Continuously refine P upward from observation: a task observed
        // processing faster than P proves P was too small.
        let k = config.threads_per_task.max(1) as f64;
        let n = config.task_count.max(1) as f64;
        if metrics.processing_rate > 0.0 {
            let observed_per_thread = metrics.processing_rate / (n * k);
            state.throughput.record_underestimate(observed_per_thread);
        }

        let symptoms = detect(metrics, config.slo_lag_secs);
        let lagging = symptoms
            .iter()
            .any(|s| matches!(s, Symptom::Lagging { .. }));
        let imbalanced = symptoms
            .iter()
            .any(|s| matches!(s, Symptom::ImbalancedInput { .. }));
        let oom = symptoms.iter().any(|s| {
            matches!(
                s,
                Symptom::OutOfMemory { .. } | Symptom::MemoryPressure { .. }
            )
        });

        // Health bookkeeping for the downscale stability window, the
        // untriaged-alert debounce and the root-causer's lag onset.
        let (since, rounds) = state.lag.map_or((now, 0), |lag| (lag.since, lag.rounds));
        state.lag = lagging.then_some(LagEpisode {
            since,
            rounds: rounds + 1,
        });
        if lagging || oom {
            state.healthy_since = None;
        } else if state.healthy_since.is_none() {
            state.healthy_since = Some(now);
        }

        // Cooldown: at most one action per job per gap.
        let in_cooldown = state
            .last_action_at
            .is_some_and(|at| now.since(at) < self.config.min_action_gap);
        if in_cooldown {
            return ScalingDecision {
                job,
                action: None,
                untriaged: None,
                symptoms,
                reason: "cooldown".into(),
            };
        }

        let decision = match self.config.mode {
            ScalerMode::Reactive => self.evaluate_reactive(
                job, metrics, config, now, lagging, imbalanced, oom, symptoms,
            ),
            ScalerMode::Full => self.evaluate_full(
                job, metrics, config, now, lagging, imbalanced, oom, symptoms,
            ),
        };
        if decision.action.is_some() {
            let state = self.states.get_mut(&job).expect("state created above");
            state.last_action_at = Some(now);
        }
        decision
    }

    /// Generation 1 (Algorithm 2): purely reactive.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_reactive(
        &mut self,
        job: JobId,
        _metrics: &JobMetrics,
        config: &JobConfig,
        now: SimTime,
        lagging: bool,
        imbalanced: bool,
        oom: bool,
        symptoms: Vec<Symptom>,
    ) -> ScalingDecision {
        let state = self.states.get_mut(&job).expect("state exists");
        if lagging {
            if imbalanced && config.task_count > 1 {
                return ScalingDecision {
                    job,
                    action: Some(ScalingAction::RebalanceInput),
                    untriaged: None,
                    symptoms,
                    reason: "reactive: lag + imbalance -> rebalance".into(),
                };
            }
            // Blind doubling: no estimate of how much is actually needed.
            let target = (config.task_count * 2).min(config.max_task_count);
            if target > config.task_count {
                return ScalingDecision {
                    job,
                    action: Some(ScalingAction::Horizontal {
                        task_count: target,
                        per_task: config.task_resources,
                    }),
                    untriaged: None,
                    symptoms,
                    reason: "reactive: lag -> double task count".into(),
                };
            }
            return ScalingDecision {
                job,
                action: None,
                untriaged: Some("lagging at max task count".into()),
                symptoms,
                reason: "reactive: capped".into(),
            };
        }
        if oom {
            let mut per_task = config.task_resources;
            per_task.memory_mb *= OOM_MEMORY_FACTOR;
            return ScalingDecision {
                job,
                action: Some(ScalingAction::Vertical {
                    threads_per_task: config.threads_per_task,
                    per_task,
                }),
                untriaged: None,
                symptoms,
                reason: "reactive: OOM -> grow memory".into(),
            };
        }
        // No symptom for the stability window: shrink slowly (the gen-1
        // convergence problem — no lower-bound estimate, so shrink blindly
        // one step at a time).
        let stable = state
            .healthy_since
            .is_some_and(|since| now.since(since) >= self.config.downscale_stability);
        if stable && config.task_count > 1 {
            let target = (config.task_count as f64 * 0.75).floor().max(1.0) as u32;
            if target < config.task_count {
                state.last_downscale_at = Some(now);
                state.healthy_since = Some(now);
                return ScalingDecision {
                    job,
                    action: Some(ScalingAction::Horizontal {
                        task_count: target,
                        per_task: config.task_resources,
                    }),
                    untriaged: None,
                    symptoms,
                    reason: "reactive: stable -> blind 25% shrink".into(),
                };
            }
        }
        ScalingDecision {
            job,
            action: None,
            untriaged: None,
            symptoms,
            reason: "reactive: healthy".into(),
        }
    }

    /// Generation 2: proactive estimates + preactive pattern pruning.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_full(
        &mut self,
        job: JobId,
        metrics: &JobMetrics,
        config: &JobConfig,
        now: SimTime,
        lagging: bool,
        imbalanced: bool,
        oom: bool,
        symptoms: Vec<Symptom>,
    ) -> ScalingDecision {
        let state = self.states.get_mut(&job).expect("state exists");
        let p = state.throughput.p();
        let k = config.threads_per_task.max(1);
        let n = config.task_count.max(1);
        let estimate = estimate_resources(metrics, p, config.stateful);

        if lagging {
            // An SLO violation shortly after a downscale indicts the P
            // estimate (§V-C): pull P down toward the observed rate.
            if state
                .last_downscale_at
                .is_some_and(|at| now.since(at) <= OVERESTIMATE_WINDOW)
            {
                let observed_per_thread = metrics.input_rate / (n as f64 * k as f64);
                state.throughput.record_overestimate(observed_per_thread);
                state.last_downscale_at = None;
            }

            if imbalanced && n > 1 {
                return ScalingDecision {
                    job,
                    action: Some(ScalingAction::RebalanceInput),
                    untriaged: None,
                    symptoms,
                    reason: "lag + imbalance -> rebalance input".into(),
                };
            }

            // Size the scale-up in one shot: a horizontal resize pauses
            // the job for a few minutes of sync + restart, so the backlog
            // it must recover includes the arrivals of that pause. Without
            // this, each resize chases the backlog the previous resize
            // created and the job creeps up in many small (pausing!)
            // steps.
            let resize_pause_secs = 240.0;
            let needed = required_task_count(
                metrics.input_rate,
                p,
                k,
                metrics.total_bytes_lagged + metrics.input_rate * resize_pause_secs,
                Some(RECOVERY_TIME),
            )
            .max(estimate.recovery_task_count);
            // Recovery-in-progress guard: if capacity already exceeds the
            // arrival rate, the backlog is demonstrably shrinking, *and*
            // the projected drain finishes within the recovery target,
            // the previous Eq.-3 sizing is doing its job — re-scaling now
            // only adds churn (every parallelism change pauses the job
            // and grows the very backlog being drained).
            let capacity_rate = n as f64 * k as f64 * p;
            let surplus = capacity_rate - metrics.input_rate;
            let drain_within_target = surplus > 0.0
                && metrics.total_bytes_lagged / surplus <= RECOVERY_TIME.as_secs_f64() * 1.5;
            if n >= estimate.min_task_count
                && metrics.processing_rate > metrics.input_rate
                && drain_within_target
                && needed > n
            {
                return ScalingDecision {
                    job,
                    action: None,
                    untriaged: None,
                    symptoms,
                    reason:
                        "recovery in progress: backlog drains within target at current capacity"
                            .into(),
                };
            }
            if needed <= n {
                // Plan Generator guard 2: the job already has enough
                // resources by our estimates — scaling would not fix this
                // and may amplify it (dependency failure, app bug, ...).
                // Alert only once the lag persists: a job catching up
                // right after starting is not an incident.
                let persistent = self.states[&job].lag.is_some_and(|lag| lag.rounds >= 3);
                return ScalingDecision {
                    job,
                    action: None,
                    untriaged: persistent.then(|| format!(
                        "lagging with sufficient resources (have {n} tasks, estimate needs {needed}): untriaged"
                    )),
                    symptoms,
                    reason: "untriaged problem: do not scale".into(),
                };
            }

            if self.blocked_by_priority_floor(config) {
                return ScalingDecision {
                    job,
                    action: None,
                    untriaged: None,
                    symptoms,
                    reason: "scale-up suppressed by capacity manager priority floor".into(),
                };
            }
            if let Some((action, reason)) =
                plan_scale_up(&self.config, config, &estimate, needed, "lag")
            {
                return ScalingDecision {
                    job,
                    action: Some(action),
                    untriaged: None,
                    symptoms,
                    reason: reason.into(),
                };
            }
            return ScalingDecision {
                job,
                action: None,
                untriaged: Some(format!(
                    "needs {needed} tasks but max_task_count={}: operator approval required",
                    config.max_task_count
                )),
                symptoms,
                reason: "capped by max_task_count".into(),
            };
        }

        if oom {
            let peak = metrics.peak_task_memory_mb();
            let mut per_task = config.task_resources;
            per_task.memory_mb = (per_task.memory_mb * OOM_MEMORY_FACTOR).max(peak * 1.2);
            if per_task.memory_mb <= self.config.vertical_limit.memory_mb {
                return ScalingDecision {
                    job,
                    action: Some(ScalingAction::Vertical {
                        threads_per_task: k,
                        per_task,
                    }),
                    untriaged: None,
                    symptoms,
                    reason: "OOM -> vertical memory increase".into(),
                };
            }
            // Memory ceiling reached: spread the state across more tasks
            // (correlated: memory per task falls as count rises).
            if self.blocked_by_priority_floor(config) {
                return ScalingDecision {
                    job,
                    action: None,
                    untriaged: None,
                    symptoms,
                    reason: "scale-up suppressed by capacity manager priority floor".into(),
                };
            }
            let target = (n * 2).min(config.max_task_count);
            if target > n {
                let mut per_task = config.task_resources;
                per_task.memory_mb =
                    (per_task.memory_mb * n as f64 / target as f64).max(BASE_MEMORY_MB);
                return ScalingDecision {
                    job,
                    action: Some(ScalingAction::Horizontal {
                        task_count: target,
                        per_task,
                    }),
                    untriaged: None,
                    symptoms,
                    reason: "OOM at memory ceiling -> horizontal + correlated memory cut".into(),
                };
            }
            return ScalingDecision {
                job,
                action: None,
                untriaged: Some("OOM at memory ceiling and max task count".into()),
                symptoms,
                reason: "OOM: capped".into(),
            };
        }

        // Proactive pre-emptive upscale (§V-B): when the estimated CPU
        // units approach saturation, add capacity *before* lag appears, so
        // ramps (diurnal climbs, storm redirects) never violate the SLO.
        let units = crate::estimator::cpu_units_needed(metrics.input_rate, p, k, n, 0.0, None);
        if units > self.config.preemptive_units && !self.blocked_by_priority_floor(config) {
            // Same finite clamp as `required_task_count`: a tiny `p` must
            // not let the `as u32` cast saturate at four billion tasks.
            let raw = (metrics.input_rate / (self.config.target_units * p * k as f64)).ceil();
            let needed = if raw.is_finite() && raw < crate::estimator::MAX_ESTIMATED_TASKS as f64 {
                (raw as u32).max(1)
            } else {
                crate::estimator::MAX_ESTIMATED_TASKS
            };
            if let Some((action, reason)) =
                plan_scale_up(&self.config, config, &estimate, needed, "pre-emptive")
            {
                return ScalingDecision {
                    job,
                    action: Some(action),
                    untriaged: None,
                    symptoms,
                    reason: reason.into(),
                };
            }
        }

        // Healthy: consider reclaiming resources after the stability
        // window (Plan Generator guard 1 + Pattern Analyzer pruning).
        let state = self.states.get_mut(&job).expect("state exists");
        let stable = state
            .healthy_since
            .is_some_and(|since| now.since(since) >= self.config.downscale_stability);
        if stable {
            let n_plain = required_task_count(metrics.input_rate, p, k, 0.0, None);
            if n_plain > n {
                // P must be underestimated (§V-C): fix P, skip the action.
                let observed_per_thread = metrics.input_rate / (n as f64 * k as f64);
                state.throughput.record_underestimate(observed_per_thread);
                return ScalingDecision {
                    job,
                    action: None,
                    untriaged: None,
                    symptoms,
                    reason: "downscale plan exceeded current count: adjusted P, skipped".into(),
                };
            }
            // Horizontal reclaim — down to the same target utilization the
            // pre-emptive upscaler aims for, giving hysteresis instead of
            // churn around the thresholds.
            let n0 = ((metrics.input_rate / (self.config.target_units * p * k as f64)).ceil()
                as u32)
                .max(1)
                .min(n);
            if n0 < n {
                use crate::patterns::PatternVerdict;
                // "Sustains" = would not re-trigger the pre-emptive
                // upscaler within the lookahead window.
                let sustainable = n0 as f64 * k as f64 * p * self.config.preemptive_units;
                // With insufficient history the Plan Generator's estimate
                // guard still applies, but with an extra 25 % margin so an
                // unseen peak does not immediately re-trigger scaling.
                let (target, verdict_note) =
                    match self.patterns.check_downscale(job, now, sustainable) {
                        PatternVerdict::Safe => (n0, "history-safe"),
                        PatternVerdict::InsufficientHistory => {
                            let margin = ((n0 as f64 * 1.25).ceil() as u32).min(n);
                            (margin, "estimate-only, +25% margin")
                        }
                        PatternVerdict::Unsafe => {
                            return ScalingDecision {
                                job,
                                action: None,
                                untriaged: None,
                                symptoms,
                                reason:
                                    "downscale pruned: history shows upcoming load needs capacity"
                                        .into(),
                            };
                        }
                        PatternVerdict::Anomalous => {
                            return ScalingDecision {
                                job,
                                action: None,
                                untriaged: None,
                                symptoms,
                                reason: "downscale skipped: workload anomalous vs history".into(),
                            };
                        }
                    };
                if target < n {
                    let state = self.states.get_mut(&job).expect("state exists");
                    state.last_downscale_at = Some(now);
                    state.healthy_since = Some(now);
                    let mut per_task = estimate.per_task.min(&self.config.vertical_limit);
                    // Reserve the estimated need plus margin — NOT a full
                    // thread: most tailer tasks use well under one core
                    // (Fig. 5a), and fractional reservations are exactly
                    // how consolidation saves CPU (Fig. 10).
                    per_task.cpu =
                        (estimate.per_task.cpu * 1.3).clamp(0.1, self.config.vertical_limit.cpu);
                    return ScalingDecision {
                        job,
                        action: Some(ScalingAction::Horizontal {
                            task_count: target,
                            per_task,
                        }),
                        untriaged: None,
                        symptoms,
                        reason: format!(
                            "stable -> downscale {n} -> {target} tasks ({verdict_note})"
                        )
                        .into(),
                    };
                }
            }
            // Vertical reclaim: memory reserved far above observed peak.
            let peak = metrics.peak_task_memory_mb();
            let floor = BASE_MEMORY_MB;
            if peak > 0.0 && config.task_resources.memory_mb > (peak * 1.5).max(floor) {
                let mut per_task = config.task_resources;
                per_task.memory_mb = (peak * 1.3).max(floor);
                let state = self.states.get_mut(&job).expect("state exists");
                state.healthy_since = Some(now);
                return ScalingDecision {
                    job,
                    action: Some(ScalingAction::Vertical {
                        threads_per_task: k,
                        per_task,
                    }),
                    untriaged: None,
                    symptoms,
                    reason: "stable -> vertical memory reclaim".into(),
                };
            }
        }

        ScalingDecision {
            job,
            action: None,
            untriaged: None,
            symptoms,
            reason: "healthy".into(),
        }
    }

    /// The auto root-causer's view of `job`'s round, called after
    /// [`Self::evaluate`] with the window's running tasks. A lagging job is
    /// diagnosed, at most once per 10 minutes, when the decision left it
    /// untriaged or a stable window (no task (re)started in the last
    /// `interval`, which would look like a sick host) shows a single-task
    /// hardware anomaly; the move is then the mitigation and the action is
    /// withheld. An unstable window's anomaly reaches no rule of
    /// [`diagnose`]: a task restarted mid-window is not a bad host.
    pub fn triage(
        &mut self,
        job: JobId,
        decision: &ScalingDecision,
        metrics: &JobMetrics,
        running: &[RunningTask],
        interval: Duration,
        now: SimTime,
    ) -> Triage {
        let Some((Some(lag), state)) = self.states.get_mut(&job).map(|s| (s.lag, s)) else {
            return Triage::default();
        };
        let rates: Vec<(TaskId, f64)> = running
            .iter()
            .map(|task| (task.id, task.processed / interval.as_secs_f64()))
            .collect();
        let stable = running.iter().all(|task| task.started_at <= now - interval);
        let hardware = hardware_anomaly(metrics, &rates).filter(|_| stable);
        if (hardware.is_none() && decision.untriaged.is_none())
            || state
                .last_diagnosis
                .is_some_and(|at| now.since(at) < Duration::from_mins(10))
        {
            return Triage::default();
        }
        state.last_diagnosis = Some(now);
        Triage {
            suppress_action: hardware.is_some(),
            diagnosis: Some(diagnose(&DiagnosisInput {
                metrics,
                hardware,
                expected_per_thread: state.throughput.p(),
                last_release: state
                    .release
                    .map(|(previous, at)| (state.version, previous, at)),
                lag_since: lag.since,
                now,
            })),
        }
    }

    fn blocked_by_priority_floor(&self, config: &JobConfig) -> bool {
        self.priority_floor
            .is_some_and(|floor| config.priority < floor)
    }
}

/// Plan a capacity increase to `needed` tasks' worth of capacity,
/// vertical-first (§V-E): grow threads per task while the per-task CPU
/// footprint stays under the vertical limit, then go horizontal with the
/// correlated per-task resource adjustment. Returns `None` when already at
/// (or above) the needed capacity and no change would result.
fn plan_scale_up(
    scaler: &ScalerConfig,
    config: &JobConfig,
    estimate: &crate::estimator::ResourceEstimate,
    needed: u32,
    why: &str,
) -> Option<(ScalingAction, String)> {
    let k = config.threads_per_task.max(1);
    let n = config.task_count.max(1);
    let total_threads_needed = needed * k;
    let max_threads_per_task = (scaler.vertical_limit.cpu.floor() as u32).max(1);
    if total_threads_needed.div_ceil(n) <= max_threads_per_task {
        let threads = total_threads_needed.div_ceil(n).max(k);
        if threads > k {
            let mut per_task = config.task_resources;
            per_task.cpu = (threads as f64).min(scaler.vertical_limit.cpu);
            per_task.memory_mb = per_task
                .memory_mb
                .max(estimate.per_task.memory_mb)
                .min(scaler.vertical_limit.memory_mb);
            return Some((
                ScalingAction::Vertical {
                    threads_per_task: threads,
                    per_task,
                },
                format!("{why} -> vertical scale to {threads} threads/task"),
            ));
        }
        return None;
    }
    let target = needed.min(config.max_task_count);
    if target > n {
        let mut per_task = estimate.per_task.min(&scaler.vertical_limit);
        per_task.memory_mb = per_task.memory_mb.max(
            config
                .task_resources
                .memory_mb
                .min(scaler.vertical_limit.memory_mb),
        );
        return Some((
            ScalingAction::Horizontal {
                task_count: target,
                per_task,
            },
            format!("{why} -> horizontal scale {n} -> {target} tasks"),
        ));
    }
    None
}

turbine_types::snap_enum!(ScalerMode { 0 => Reactive, 1 => Full });

turbine_types::snap_struct!(ScalerConfig {
    mode,
    patterns,
    downscale_stability,
    min_action_gap,
    vertical_limit,
    preemptive_units,
    target_units
});

turbine_types::snap_struct!(LagEpisode { since, rounds });

turbine_types::snap_struct!(JobState {
    throughput,
    healthy_since,
    last_action_at,
    last_downscale_at,
    lag,
    version,
    release,
    last_diagnosis
});

turbine_types::snap_struct!(AutoScaler {
    config,
    patterns,
    states,
    priority_floor
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;

    const JOB: JobId = JobId(1);

    fn scaler() -> AutoScaler {
        let mut cfg = ScalerConfig::default();
        cfg.downscale_stability = Duration::from_hours(1);
        cfg.min_action_gap = Duration::ZERO;
        AutoScaler::new(cfg)
    }

    fn job_config(task_count: u32) -> JobConfig {
        let mut c = JobConfig::stateless("tailer", task_count, 256);
        c.max_task_count = 128;
        c.task_resources = Resources::cpu_mem(1.0, 800.0);
        c
    }

    fn healthy_metrics(task_count: u32, input_rate: f64) -> JobMetrics {
        JobMetrics {
            input_rate,
            processing_rate: input_rate,
            total_bytes_lagged: 0.0,
            per_task_rates: vec![input_rate / task_count as f64; task_count as usize],
            per_task_memory_mb: vec![500.0; task_count as usize],
            oom_events: 0,
            task_count,
            threads_per_task: 1,
            reserved: Resources::cpu_mem(1.0, 800.0),
            key_cardinality: None,
        }
    }

    fn t(mins: u64) -> SimTime {
        SimTime::ZERO + Duration::from_mins(mins)
    }

    #[test]
    fn healthy_job_is_left_alone() {
        let mut s = scaler();
        let d = s.evaluate(JOB, &healthy_metrics(4, 2.0e6), &job_config(4), t(0));
        assert!(d.action.is_none());
        assert!(d.untriaged.is_none());
    }

    #[test]
    fn lag_with_insufficient_capacity_scales_up() {
        let mut s = scaler();
        let mut m = healthy_metrics(4, 16.0e6); // needs 16 tasks at P=1MB/s
        m.processing_rate = 4.0e6; // maxed out
        m.total_bytes_lagged = 4.0e6 * 200.0; // 200 s of lag
        let d = s.evaluate(JOB, &m, &job_config(4), t(0));
        match d.action {
            Some(ScalingAction::Vertical {
                threads_per_task, ..
            }) => {
                assert!(threads_per_task > 1, "{d:?}")
            }
            Some(ScalingAction::Horizontal { task_count, .. }) => {
                assert!(task_count > 4, "{d:?}")
            }
            other => panic!("expected scale-up, got {other:?} ({})", d.reason),
        }
    }

    #[test]
    fn vertical_is_preferred_until_the_limit() {
        let mut cfg = ScalerConfig::default();
        cfg.min_action_gap = Duration::ZERO;
        cfg.vertical_limit = Resources::new(4.0, 10_240.0, 102_400.0, 200.0);
        let mut s = AutoScaler::new(cfg);
        // Needs 8 tasks' worth; 4 tasks with up to 4 threads can absorb it.
        let mut m = healthy_metrics(4, 8.0e6);
        m.processing_rate = 4.0e6;
        m.total_bytes_lagged = 4.0e6 * 120.0;
        let d = s.evaluate(JOB, &m, &job_config(4), t(0));
        assert!(
            matches!(d.action, Some(ScalingAction::Vertical { .. })),
            "expected vertical first: {d:?}"
        );
        // A demand beyond the vertical ceiling goes horizontal.
        let mut m = healthy_metrics(4, 64.0e6);
        m.processing_rate = 4.0e6;
        m.total_bytes_lagged = 4.0e6 * 120.0;
        let d = s.evaluate(JOB, &m, &job_config(4), t(10));
        assert!(
            matches!(d.action, Some(ScalingAction::Horizontal { .. })),
            "expected horizontal beyond limit: {d:?}"
        );
    }

    #[test]
    fn imbalance_triggers_rebalance_not_scaling() {
        let mut s = scaler();
        let mut m = healthy_metrics(4, 4.0e6);
        m.per_task_rates = vec![3.7e6, 0.1e6, 0.1e6, 0.1e6];
        m.processing_rate = 4.0e6;
        m.total_bytes_lagged = 4.0e6 * 120.0;
        let d = s.evaluate(JOB, &m, &job_config(4), t(0));
        assert_eq!(d.action, Some(ScalingAction::RebalanceInput), "{d:?}");
    }

    #[test]
    fn lag_with_sufficient_resources_is_untriaged() {
        let mut s = scaler();
        // 4 tasks can do 4 MB/s; input is only 1 MB/s but a dependency
        // failure stalls processing: estimates say capacity is plenty.
        let mut m = healthy_metrics(4, 1.0e6);
        m.processing_rate = 0.1e6;
        m.total_bytes_lagged = 0.1e6 * 1000.0;
        // First rounds: no action, but the alert is debounced (a job
        // catching up after a restart is not an incident).
        let d = s.evaluate(JOB, &m, &job_config(4), t(0));
        assert!(d.action.is_none());
        assert!(d.untriaged.is_none(), "debounced: {d:?}");
        s.evaluate(JOB, &m, &job_config(4), t(1));
        let d = s.evaluate(JOB, &m, &job_config(4), t(2));
        assert!(d.action.is_none());
        assert!(d.untriaged.is_some(), "persistent lag must alert: {d:?}");
    }

    #[test]
    fn oom_grows_memory_vertically() {
        let mut s = scaler();
        let mut m = healthy_metrics(4, 2.0e6);
        m.oom_events = 1;
        m.per_task_memory_mb = vec![790.0; 4];
        let d = s.evaluate(JOB, &m, &job_config(4), t(0));
        match d.action {
            Some(ScalingAction::Vertical { per_task, .. }) => {
                assert!(per_task.memory_mb > 800.0, "{per_task:?}")
            }
            other => panic!("expected vertical memory growth, got {other:?}"),
        }
    }

    #[test]
    fn downscale_requires_stability_and_history() {
        let mut s = scaler();
        let config = job_config(16);
        // 16 tasks for 2 MB/s at P=1MB/s: massively overprovisioned.
        // Feed two days of history at 30 s cadence (coarse: every 10 min).
        let mut now = SimTime::ZERO;
        let mut downscaled_to = None;
        while now < t(3 * 24 * 60) {
            let d = s.evaluate(JOB, &healthy_metrics(16, 2.0e6), &config, now);
            if let Some(ScalingAction::Horizontal { task_count, .. }) = d.action {
                downscaled_to = Some(task_count);
                break;
            }
            now += Duration::from_mins(10);
        }
        let target = downscaled_to.expect("stable overprovisioned job must downscale");
        assert!((2..16).contains(&target), "target {target}");
        // Plan Generator guard: the target still sustains the input.
        assert!(target as f64 * s.throughput_estimate(JOB).expect("p") >= 2.0e6);
    }

    #[test]
    fn early_downscale_is_blocked_without_history() {
        let mut s = scaler();
        // Job stable for only 30 minutes: stability window (1 h) not met.
        let mut d = None;
        for i in 0..6 {
            d = Some(s.evaluate(JOB, &healthy_metrics(16, 2.0e6), &job_config(16), t(i * 5)));
        }
        assert!(d.expect("decision").action.is_none());
    }

    #[test]
    fn slo_violation_after_downscale_adjusts_p_down() {
        let mut s = scaler();
        let config = job_config(8);
        // Converge history then force a downscale state.
        let mut now = SimTime::ZERO;
        while now < t(2 * 24 * 60 + 120) {
            s.evaluate(JOB, &healthy_metrics(8, 2.0e6), &config, now);
            now += Duration::from_mins(10);
        }
        let p_before = s.throughput_estimate(JOB).expect("p");
        // Mark a downscale, then a lag arrives inside the window while the
        // job observably sustains only 0.6 MB/s per thread.
        s.states.get_mut(&JOB).expect("state").last_downscale_at = Some(now);
        let mut m = healthy_metrics(2, 1.2e6);
        m.processing_rate = 0.6e6;
        m.total_bytes_lagged = 0.6e6 * 500.0;
        let mut config2 = job_config(2);
        config2.task_resources = Resources::cpu_mem(1.0, 800.0);
        s.evaluate(JOB, &m, &config2, now + Duration::from_mins(1));
        let p_after = s.throughput_estimate(JOB).expect("p");
        assert!(p_after < p_before, "P must drop: {p_before} -> {p_after}");
    }

    #[test]
    fn priority_floor_suppresses_scale_up_of_low_jobs() {
        let mut s = scaler();
        s.set_priority_floor(Some(Priority::High));
        let mut m = healthy_metrics(4, 64.0e6);
        m.processing_rate = 4.0e6;
        m.total_bytes_lagged = 4.0e6 * 300.0;
        let mut low = job_config(4);
        low.priority = Priority::Normal;
        let d = s.evaluate(JOB, &m, &low, t(0));
        assert!(d.action.is_none(), "{d:?}");
        // Privileged jobs still scale.
        let mut privileged = job_config(4);
        privileged.priority = Priority::Privileged;
        let d = s.evaluate(JobId(2), &m, &privileged, t(0));
        assert!(d.action.is_some(), "{d:?}");
    }

    #[test]
    fn cooldown_suppresses_rapid_consecutive_actions() {
        let mut cfg = ScalerConfig::default();
        cfg.min_action_gap = Duration::from_mins(5);
        let mut s = AutoScaler::new(cfg);
        let mut m = healthy_metrics(1, 64.0e6);
        m.processing_rate = 1.0e6;
        m.total_bytes_lagged = 1.0e6 * 300.0;
        let d1 = s.evaluate(JOB, &m, &job_config(1), t(0));
        assert!(d1.action.is_some());
        let d2 = s.evaluate(JOB, &m, &job_config(1), t(1));
        assert!(d2.action.is_none());
        assert_eq!(d2.reason, "cooldown");
        let d3 = s.evaluate(JOB, &m, &job_config(1), t(6));
        assert!(d3.action.is_some());
    }

    /// Lag with plenty of capacity: a dependency failure, say.
    fn stalled_metrics() -> JobMetrics {
        let mut m = healthy_metrics(4, 1.0e6);
        m.processing_rate = 0.1e6;
        m.total_bytes_lagged = 0.1e6 * 1000.0;
        m
    }

    /// Four running tasks over a 2-minute window, each started at the
    /// given minute; with `slow`, the third is far below its siblings.
    fn window(started: [u64; 4], slow: bool) -> Vec<RunningTask> {
        started
            .iter()
            .enumerate()
            .map(|(i, &at)| RunningTask {
                id: TaskId::new(JOB, i as u32),
                processed: if slow && i == 2 { 1.0e6 } else { 120.0e6 },
                memory_mb: 500.0,
                started_at: t(at),
            })
            .collect()
    }

    const INTERVAL: Duration = Duration::from_mins(2);

    #[test]
    fn the_root_cause_record_follows_the_job_until_forgotten() {
        let mut cfg = ScalerConfig::default();
        cfg.min_action_gap = Duration::from_mins(5);
        let mut s = AutoScaler::new(cfg);
        let mut config = job_config(1);
        config.package.version = 7;
        // Under-provisioned and lagging: the first round scales, the next
        // ones cool down, and the episode counts every one of them.
        let mut lagging = healthy_metrics(1, 64.0e6);
        lagging.processing_rate = 1.0e6;
        lagging.total_bytes_lagged = 1.0e6 * 300.0;
        assert!(s.evaluate(JOB, &lagging, &config, t(0)).action.is_some());
        assert_eq!(
            s.states[&JOB].release, None,
            "the first version is no release"
        );
        for round in 1..3 {
            let d = s.evaluate(JOB, &lagging, &config, t(round));
            assert_eq!(d.reason, "cooldown");
            assert_eq!(
                s.lag_episode(JOB),
                Some(LagEpisode {
                    since: t(0),
                    rounds: round as u32 + 1
                })
            );
        }
        // A release moves the row once; an unchanged version leaves it.
        config.package.version = 8;
        s.evaluate(JOB, &lagging, &config, t(3));
        s.evaluate(JOB, &lagging, &config, t(4));
        assert_eq!(s.states[&JOB].version, 8);
        assert_eq!(s.states[&JOB].release, Some((7, t(3))));
        // Recovery ends the episode; the next lag starts a new one.
        s.evaluate(JOB, &healthy_metrics(1, 0.5e6), &config, t(5));
        assert_eq!(s.lag_episode(JOB), None);
        s.evaluate(JOB, &lagging, &config, t(6));
        assert_eq!(
            s.lag_episode(JOB),
            Some(LagEpisode {
                since: t(6),
                rounds: 1
            })
        );

        // An untriaged lag is diagnosed once per debounce window.
        let stalled = stalled_metrics();
        let config = job_config(4);
        let running = window([0; 4], false);
        let mut diagnosed = Vec::new();
        for minute in (20..40).step_by(2) {
            let d = s.evaluate(JobId(2), &stalled, &config, t(minute));
            let triage = s.triage(JobId(2), &d, &stalled, &running, INTERVAL, t(minute));
            if triage.diagnosis.is_some() {
                diagnosed.push(minute);
            }
        }
        assert_eq!(
            diagnosed,
            [24, 34],
            "persistent from the third round, then every 10 min"
        );
        assert_eq!(s.states[&JobId(2)].last_diagnosis, Some(t(34)));

        for job in [JOB, JobId(2)] {
            s.forget(job);
            assert!(!s.states.contains_key(&job));
            assert_eq!(s.lag_episode(job), None);
            assert_eq!(s.throughput_estimate(job), None);
        }
    }

    #[test]
    fn only_a_stable_window_moves_a_task_in_place_of_scaling() {
        let mut s = scaler();
        let stalled = stalled_metrics();
        let config = job_config(4);
        // Stable window, one slow task: moved, and the action withheld.
        let d = s.evaluate(JOB, &stalled, &config, t(10));
        assert!(d.untriaged.is_none(), "first lagging round: {d:?}");
        let triage = s.triage(JOB, &d, &stalled, &window([0; 4], true), INTERVAL, t(10));
        assert!(triage.suppress_action);
        let diagnosis = triage.diagnosis.expect("diagnosed");
        let slow = TaskId::new(JOB, 2);
        assert_eq!(
            diagnosis.cause,
            crate::RootCause::HardwareIssue { task: slow }
        );
        // A task restarted mid-window looks just as slow, but triggers
        // nothing by itself.
        let job = JobId(2);
        let unstable = |minute| window([0, 0, minute - 1, 0], true);
        for minute in [10, 11] {
            let d = s.evaluate(job, &stalled, &config, t(minute));
            let triage = s.triage(job, &d, &stalled, &unstable(minute), INTERVAL, t(minute));
            assert_eq!(
                triage,
                Triage {
                    suppress_action: false,
                    diagnosis: None
                }
            );
        }
        // Once the lag is untriaged it is diagnosed, but not as a bad
        // host: rule 1 never sees the unstable window's anomaly, and the
        // action is not withheld. Nor as a bad update: the job has run one
        // version since the scaler first saw it.
        let d = s.evaluate(job, &stalled, &config, t(12));
        assert!(d.untriaged.is_some());
        let triage = s.triage(job, &d, &stalled, &unstable(12), INTERVAL, t(12));
        assert!(!triage.suppress_action);
        let cause = triage.diagnosis.expect("diagnosed").cause;
        assert_eq!(cause, crate::RootCause::DependencyFailure);
        // A job keeping up is never triaged.
        let d = s.evaluate(JobId(3), &healthy_metrics(4, 1.0e6), &config, t(10));
        let triage = s.triage(
            JobId(3),
            &d,
            &stalled,
            &window([0; 4], true),
            INTERVAL,
            t(10),
        );
        assert_eq!(triage.diagnosis, None);
    }

    /// The version a job first runs is not a release: a lag from its first
    /// round is not blamed on an update, and one that begins right after a
    /// real release is.
    #[test]
    fn a_job_never_released_is_not_blamed_on_an_update() {
        let mut s = scaler();
        let mut config = job_config(4);
        let diagnose = |s: &mut AutoScaler, config: &JobConfig, minutes: Range<u64>| {
            let stalled = stalled_metrics();
            minutes
                .filter_map(|m| {
                    let d = s.evaluate(JOB, &stalled, config, t(m));
                    let steady = window([0; 4], false);
                    s.triage(JOB, &d, &stalled, &steady, INTERVAL, t(m))
                        .diagnosis
                })
                .last()
                .expect("diagnosed")
                .cause
        };
        assert_eq!(
            diagnose(&mut s, &config, 10..13),
            crate::RootCause::DependencyFailure
        );
        // Recovered, then released: the next lag is the update's.
        s.evaluate(JOB, &healthy_metrics(4, 1.0e6), &config, t(20));
        config.package.version += 1;
        s.evaluate(JOB, &healthy_metrics(4, 1.0e6), &config, t(30));
        assert_eq!(
            diagnose(&mut s, &config, 31..34),
            crate::RootCause::BadUserUpdate {
                suspect_version: 2,
                previous_version: 1
            }
        );
    }

    #[test]
    fn reactive_mode_doubles_blindly_and_shrinks_slowly() {
        let mut cfg = ScalerConfig::default();
        cfg.mode = ScalerMode::Reactive;
        cfg.min_action_gap = Duration::ZERO;
        cfg.downscale_stability = Duration::from_mins(30);
        let mut s = AutoScaler::new(cfg);
        let mut m = healthy_metrics(4, 4.0e6);
        m.processing_rate = 1.0e6;
        m.total_bytes_lagged = 1.0e6 * 200.0;
        let d = s.evaluate(JOB, &m, &job_config(4), t(0));
        assert!(
            matches!(
                d.action,
                Some(ScalingAction::Horizontal { task_count: 8, .. })
            ),
            "{d:?}"
        );
        // Untriaged-style lag *also* triggers blind scaling in gen-1 —
        // the flaw the proactive generation fixes.
        let mut m2 = healthy_metrics(4, 0.5e6);
        m2.processing_rate = 0.05e6;
        m2.total_bytes_lagged = 0.05e6 * 500.0;
        let d = s.evaluate(JobId(3), &m2, &job_config(4), t(0));
        assert!(
            matches!(d.action, Some(ScalingAction::Horizontal { .. })),
            "{d:?}"
        );
    }
}
