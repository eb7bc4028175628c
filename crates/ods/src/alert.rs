//! The declarative alerting engine: JSON-configurable rules over registry
//! series, firing deduplicated incidents.
//!
//! Every rule is evaluated on the metric-sampling grid (the platform calls
//! [`AlertEngine::evaluate`] at the end of each metrics round), so two
//! drive modes that execute the same rounds at the same instants fire
//! bit-for-bit identical incidents. A rule's condition must hold for its
//! `for`-duration before an incident opens; once one opens, the rule is
//! suppressed for `suppress_for` — a flapping signal produces exactly one
//! incident per suppression window instead of a page storm.

use crate::registry::{MetricId, MetricKey, Registry, Scope};
use std::fmt;
use turbine_config::{record, ConfigValue};
use turbine_types::{Duration, SimTime, TimeSeries};

/// How urgent a firing rule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; no action expected.
    Info,
    /// Needs attention this workday.
    Warning,
    /// Page the oncall.
    Critical,
}

impl Severity {
    /// Canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    /// Parse a canonical name (the `Option` return is the point — callers
    /// branch, they don't want a `FromStr` error type).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which side of a threshold fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdOp {
    /// Fire when the latest value is strictly above the threshold.
    Above,
    /// Fire when the latest value is strictly below the threshold.
    Below,
}

/// The condition a rule watches.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Latest value strictly beyond a fixed threshold.
    Threshold {
        /// Comparison direction.
        op: ThresholdOp,
        /// The threshold value.
        value: f64,
    },
    /// The series has never reported, or its newest sample is older than
    /// `stale_for` — a dead exporter or a component that stopped running.
    Absence {
        /// Maximum tolerated sample age.
        stale_for: Duration,
    },
    /// Absolute rate of change over a trailing window exceeds a per-second
    /// budget (traffic cliffs, backlog explosions).
    RateOfChange {
        /// Trailing comparison window.
        window: Duration,
        /// Fire when `|v_now - v_then| / window_secs` strictly exceeds
        /// this.
        per_sec: f64,
    },
    /// SLO burn rate: the increase of a cumulative-milliseconds series
    /// (per-tier downtime) over a trailing window, divided by the tier's
    /// `recovery_budget`-derived allowance. Fires when the budget is
    /// strictly exceeded — burning *exactly* the budget is compliant.
    BurnRate {
        /// Trailing accounting window.
        window: Duration,
        /// Downtime budget for one window, in milliseconds.
        budget_ms: f64,
    },
}

/// One declarative alerting rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Unique rule name (incident dedup key together with the metric).
    pub name: String,
    /// The series the rule watches.
    pub metric: MetricKey,
    /// The watched condition.
    pub kind: RuleKind,
    /// The condition must hold continuously this long before an incident
    /// opens (zero fires on the first true evaluation).
    pub for_duration: Duration,
    /// Incident severity.
    pub severity: Severity,
    /// After an incident opens, no new incident for this rule opens until
    /// this much time has passed — the flap-suppression / dedup window.
    pub suppress_for: Duration,
}

/// One fired (possibly since resolved) incident.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// The rule that fired.
    pub rule: String,
    /// Severity copied from the rule at fire time.
    pub severity: Severity,
    /// The watched series.
    pub metric: MetricKey,
    /// When the incident opened.
    pub opened_at: SimTime,
    /// When the condition cleared, if it has.
    pub resolved_at: Option<SimTime>,
    /// The observed series value at fire time (0 for absence rules).
    pub value: f64,
    /// Human-readable one-liner for consoles and trace records.
    pub message: String,
}

impl Incident {
    /// True while the condition still holds.
    pub fn is_active(&self) -> bool {
        self.resolved_at.is_none()
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct RuleState {
    /// When the condition most recently became (and stayed) true.
    pending_since: Option<SimTime>,
    /// Index of the currently open incident, if any.
    active: Option<usize>,
    /// No new incident opens before this instant.
    suppressed_until: Option<SimTime>,
    /// The rule's series in the registry the engine is evaluated against,
    /// once it is registered (series are registered lazily, so a miss is
    /// looked up again next round). Derived: not in `Snap`, refilled by
    /// the first evaluation after a restore.
    series: Option<MetricId>,
}

/// The alerting engine: rules, per-rule state, and the incident log.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    incidents: Vec<Incident>,
}

impl AlertEngine {
    /// An engine with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install one rule.
    pub fn install(&mut self, rule: AlertRule) {
        self.rules.push(rule);
        self.states.push(RuleState::default());
    }

    /// Install a batch of rules.
    pub fn install_all(&mut self, rules: impl IntoIterator<Item = AlertRule>) {
        for rule in rules {
            self.install(rule);
        }
    }

    /// The installed rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Every incident ever fired, in open order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Incidents whose condition still holds.
    pub fn active(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.iter().filter(|i| i.is_active())
    }

    /// Evaluate every rule against the registry at `now`. Returns the
    /// indices (into [`Self::incidents`]) of incidents opened by this
    /// evaluation, in rule order — the caller emits trace events and
    /// counters from them. Each rule resolves its series id once, so an
    /// engine must always be evaluated against the same registry.
    pub fn evaluate(&mut self, registry: &Registry, now: SimTime) -> Vec<usize> {
        let mut opened = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let state = &mut self.states[i];
            state.series = state.series.or_else(|| registry.lookup(&rule.metric));
            let series = state.series.map(|id| registry.series(id));
            let observed = condition(rule, series, now);
            match observed {
                Some(value) => {
                    let since = *state.pending_since.get_or_insert(now);
                    let held_long_enough = now.since(since) >= rule.for_duration;
                    let suppressed = state.suppressed_until.is_some_and(|until| now < until);
                    if held_long_enough && state.active.is_none() && !suppressed {
                        let idx = self.incidents.len();
                        self.incidents.push(Incident {
                            rule: rule.name.clone(),
                            severity: rule.severity,
                            metric: rule.metric.clone(),
                            opened_at: now,
                            resolved_at: None,
                            value,
                            message: describe(rule, value),
                        });
                        state.active = Some(idx);
                        state.suppressed_until = Some(now + rule.suppress_for);
                        opened.push(idx);
                    }
                }
                None => {
                    state.pending_since = None;
                    if let Some(idx) = state.active.take() {
                        self.incidents[idx].resolved_at = Some(now);
                    }
                }
            }
        }
        opened
    }
}

/// Evaluate a rule's raw condition on its series (`None` while nothing has
/// registered it): `Some(observed_value)` when it holds.
fn condition(rule: &AlertRule, series: Option<&TimeSeries>, now: SimTime) -> Option<f64> {
    match &rule.kind {
        RuleKind::Threshold { op, value } => {
            let v = series?.last()?;
            let fired = match op {
                ThresholdOp::Above => v > *value,
                ThresholdOp::Below => v < *value,
            };
            fired.then_some(v)
        }
        RuleKind::Absence { stale_for } => {
            let last_at = series.and_then(|s| s.last_at());
            match last_at {
                // Never reported (or not even registered): absent.
                None => Some(0.0),
                Some(at) => (now.since(at) > *stale_for).then_some(0.0),
            }
        }
        RuleKind::RateOfChange { window, per_sec } => {
            let series = series?;
            let secs = window.as_secs_f64();
            if secs <= 0.0 {
                return None;
            }
            let v_now = series.last()?;
            // `SimTime - Duration` saturates at the epoch; a window that
            // reaches before the first sample yields no baseline and the
            // rule stays quiet.
            let v_then = series.value_at(now - *window)?;
            let rate = (v_now - v_then).abs() / secs;
            (rate > *per_sec).then_some(rate)
        }
        RuleKind::BurnRate { window, budget_ms } => {
            let series = series?;
            let v_now = series.last()?;
            // Cumulative series start from zero, so a missing baseline
            // (window reaching before the first sample) is a zero baseline.
            let v_then = series.value_at(now - *window).unwrap_or(0.0);
            let burn = (v_now - v_then) / budget_ms;
            (burn > 1.0).then_some(burn)
        }
    }
}

/// One-line incident description.
fn describe(rule: &AlertRule, value: f64) -> String {
    match &rule.kind {
        RuleKind::Threshold { op, value: limit } => {
            let side = match op {
                ThresholdOp::Above => "above",
                ThresholdOp::Below => "below",
            };
            format!("{} = {value:.2}, {side} {limit:.2}", rule.metric)
        }
        RuleKind::Absence { stale_for } => {
            format!("{} absent for over {}", rule.metric, stale_for)
        }
        RuleKind::RateOfChange { per_sec, .. } => {
            format!(
                "{} moving {value:.2}/s (budget {per_sec:.2}/s)",
                rule.metric
            )
        }
        RuleKind::BurnRate { window, .. } => {
            format!("{} burned {value:.2}x budget over {}", rule.metric, window)
        }
    }
}

use turbine_types::{snap_enum, snap_struct};

snap_enum!(Severity { 0 => Info, 1 => Warning, 2 => Critical });

snap_enum!(ThresholdOp { 0 => Above, 1 => Below });

snap_enum!(RuleKind {
    0 => Threshold { op, value },
    1 => Absence { stale_for },
    2 => RateOfChange { window, per_sec },
    3 => BurnRate { window, budget_ms },
});

snap_struct!(AlertRule {
    name,
    metric,
    kind,
    for_duration,
    severity,
    suppress_for
});

snap_struct!(Incident {
    rule,
    severity,
    metric,
    opened_at,
    resolved_at,
    value,
    message
});

snap_struct!(RuleState { pending_since, active, suppressed_until } derived { series: None });

snap_struct!(AlertEngine { rules, states, incidents }
    check |e| e.rules.len() == e.states.len() => "AlertEngine rule/state length mismatch"
    check |e| e.states.iter().all(|s| s.active.is_none_or(|idx| idx < e.incidents.len()))
        => "AlertEngine active incident index out of range");

fn perr(msg: impl Into<String>) -> String {
    format!("invalid alert rule: {}", msg.into())
}

/// Every key the rule grammar understands. Anything else in a rule object
/// is a typo ("sevrity") that would otherwise be silently ignored.
const RULE_KEYS: [&str; 17] = [
    "name",
    "severity",
    "scope",
    "job",
    "host",
    "tier",
    "component",
    "metric",
    "kind",
    "above",
    "below",
    "stale_for_mins",
    "window_mins",
    "per_sec",
    "budget_ms",
    "for_mins",
    "suppress_mins",
];

fn opt_f64(v: &ConfigValue, path: &str) -> Option<f64> {
    v.get_path(path).and_then(|x| x.as_float())
}

/// A whole-minute field, decoded range-checked: a negative count or one
/// whose milliseconds overflow is an error naming the rule and the key.
fn opt_mins(v: &ConfigValue, name: &str, key: &str) -> Result<Option<Duration>, String> {
    record::field(v, key).map_err(|e| perr(format!("'{name}': {e}")))
}

/// Parse an `alerts` array (JSON, via the workspace config parser) into
/// rules. `resolve_job` maps scenario job names to raw job ids.
///
/// Grammar, one object per rule:
///
/// ```json
/// {"name": "billing-lag", "severity": "critical",
///  "scope": "job", "job": "billing", "metric": "lag_secs",
///  "kind": "threshold", "above": 90.0,
///  "for_mins": 2, "suppress_mins": 30}
/// ```
///
/// Scopes: `"platform"` (default), `"job"` (+ `job` name), `"host"`
/// (+ `host` index), `"tier"` (+ `tier` name), `"component"`
/// (+ `component` name). Kinds: `threshold` (`above` or `below`),
/// `absence` (`stale_for_mins`), `rate_of_change` (`window_mins`,
/// `per_sec`), `burn_rate` (`window_mins`, `budget_ms`).
pub fn parse_rules(
    list: &[ConfigValue],
    resolve_job: impl Fn(&str) -> Option<u64>,
) -> Result<Vec<AlertRule>, String> {
    let mut rules = Vec::with_capacity(list.len());
    for rv in list {
        record::check_closed(rv, &RULE_KEYS).map_err(|e| perr(e.to_string()))?;
        let name = rv
            .get_path("name")
            .and_then(|x| x.as_str())
            .ok_or_else(|| perr("missing 'name'"))?
            .to_string();
        let severity = match rv.get_path("severity").and_then(|x| x.as_str()) {
            None => Severity::Warning,
            Some(s) => Severity::from_str(s)
                .ok_or_else(|| perr(format!("'{name}': unknown severity '{s}'")))?,
        };
        let metric_name = rv
            .get_path("metric")
            .and_then(|x| x.as_str())
            .ok_or_else(|| perr(format!("'{name}': missing 'metric'")))?
            .to_string();
        let scope = match rv
            .get_path("scope")
            .and_then(|x| x.as_str())
            .unwrap_or("platform")
        {
            "platform" => Scope::Platform,
            "job" => {
                let job = rv
                    .get_path("job")
                    .and_then(|x| x.as_str())
                    .ok_or_else(|| perr(format!("'{name}': job scope needs a 'job' name")))?;
                let id = resolve_job(job)
                    .ok_or_else(|| perr(format!("'{name}': unknown job '{job}'")))?;
                Scope::Job(id)
            }
            "host" => {
                let host: Option<u64> =
                    record::field(rv, "host").map_err(|e| perr(format!("'{name}': {e}")))?;
                Scope::Host(
                    host.ok_or_else(|| perr(format!("'{name}': host scope needs a 'host' index")))?,
                )
            }
            "tier" => {
                let tier = rv
                    .get_path("tier")
                    .and_then(|x| x.as_str())
                    .ok_or_else(|| perr(format!("'{name}': tier scope needs a 'tier' name")))?;
                Scope::Tier(tier.to_string())
            }
            "component" => {
                let c = rv
                    .get_path("component")
                    .and_then(|x| x.as_str())
                    .ok_or_else(|| {
                        perr(format!(
                            "'{name}': component scope needs a 'component' name"
                        ))
                    })?;
                Scope::Component(c.to_string())
            }
            other => return Err(perr(format!("'{name}': unknown scope '{other}'"))),
        };
        let kind = match rv
            .get_path("kind")
            .and_then(|x| x.as_str())
            .ok_or_else(|| perr(format!("'{name}': missing 'kind'")))?
        {
            "threshold" => match (opt_f64(rv, "above"), opt_f64(rv, "below")) {
                (Some(v), None) => RuleKind::Threshold {
                    op: ThresholdOp::Above,
                    value: v,
                },
                (None, Some(v)) => RuleKind::Threshold {
                    op: ThresholdOp::Below,
                    value: v,
                },
                _ => {
                    return Err(perr(format!(
                        "'{name}': threshold needs exactly one of 'above'/'below'"
                    )))
                }
            },
            "absence" => RuleKind::Absence {
                stale_for: opt_mins(rv, &name, "stale_for_mins")?
                    .ok_or_else(|| perr(format!("'{name}': absence needs 'stale_for_mins'")))?,
            },
            "rate_of_change" => RuleKind::RateOfChange {
                window: opt_mins(rv, &name, "window_mins")?
                    .ok_or_else(|| perr(format!("'{name}': rate_of_change needs 'window_mins'")))?,
                per_sec: opt_f64(rv, "per_sec")
                    .ok_or_else(|| perr(format!("'{name}': rate_of_change needs 'per_sec'")))?,
            },
            "burn_rate" => {
                let budget_ms = opt_f64(rv, "budget_ms")
                    .ok_or_else(|| perr(format!("'{name}': burn_rate needs 'budget_ms'")))?;
                if budget_ms <= 0.0 {
                    return Err(perr(format!("'{name}': budget_ms must be positive")));
                }
                RuleKind::BurnRate {
                    window: opt_mins(rv, &name, "window_mins")?
                        .ok_or_else(|| perr(format!("'{name}': burn_rate needs 'window_mins'")))?,
                    budget_ms,
                }
            }
            other => return Err(perr(format!("'{name}': unknown kind '{other}'"))),
        };
        let for_duration = opt_mins(rv, &name, "for_mins")?.unwrap_or(Duration::ZERO);
        let suppress_for = opt_mins(rv, &name, "suppress_mins")?.unwrap_or(Duration::from_mins(30));
        rules.push(AlertRule {
            name,
            metric: MetricKey::new(scope, metric_name),
            kind,
            for_duration,
            severity,
            suppress_for,
        });
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::{Snap, SnapReader, SnapWriter};

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    fn lag_rule(for_mins: u64, suppress_mins: u64) -> AlertRule {
        AlertRule {
            name: "lag".into(),
            metric: MetricKey::job(1, "lag_secs"),
            kind: RuleKind::Threshold {
                op: ThresholdOp::Above,
                value: 90.0,
            },
            for_duration: Duration::from_mins(for_mins),
            severity: Severity::Critical,
            suppress_for: Duration::from_mins(suppress_mins),
        }
    }

    #[test]
    fn threshold_honours_the_for_duration() {
        let mut registry = Registry::new();
        let id = registry.series_id(MetricKey::job(1, "lag_secs"));
        let mut engine = AlertEngine::new();
        engine.install(lag_rule(2, 30));
        // Breach at t=60: pending, not yet fired.
        registry.publish(id, t(60), 120.0);
        assert!(engine.evaluate(&registry, t(60)).is_empty());
        // Still breaching at t=120 (held 1 min < 2 min).
        registry.publish(id, t(120), 130.0);
        assert!(engine.evaluate(&registry, t(120)).is_empty());
        // Held 2 minutes: fire once.
        registry.publish(id, t(180), 140.0);
        let opened = engine.evaluate(&registry, t(180));
        assert_eq!(opened.len(), 1);
        let incident = &engine.incidents()[opened[0]];
        assert_eq!(incident.severity, Severity::Critical);
        assert_eq!(incident.value, 140.0);
        assert!(incident.is_active());
        // Condition persists: the open incident dedups, nothing new.
        registry.publish(id, t(240), 150.0);
        assert!(engine.evaluate(&registry, t(240)).is_empty());
        // Recovery resolves it.
        registry.publish(id, t(300), 10.0);
        assert!(engine.evaluate(&registry, t(300)).is_empty());
        assert_eq!(engine.incidents().len(), 1);
        assert_eq!(engine.incidents()[0].resolved_at, Some(t(300)));
    }

    #[test]
    fn flapping_is_suppressed_to_one_incident() {
        let mut registry = Registry::new();
        let id = registry.series_id(MetricKey::job(1, "lag_secs"));
        let mut engine = AlertEngine::new();
        engine.install(lag_rule(0, 30));
        // Flap every minute for 20 minutes: breach on even minutes.
        for min in 0..20u64 {
            let v = if min % 2 == 0 { 200.0 } else { 1.0 };
            registry.publish(id, t(min * 60), v);
            engine.evaluate(&registry, t(min * 60));
        }
        assert_eq!(engine.incidents().len(), 1, "dedup under suppression");
        // Past the suppression window the rule may fire again.
        registry.publish(id, t(31 * 60), 200.0);
        let opened = engine.evaluate(&registry, t(31 * 60));
        assert_eq!(opened.len(), 1);
        assert_eq!(engine.incidents().len(), 2);
    }

    #[test]
    fn absence_fires_for_a_metric_that_never_reports() {
        let registry = Registry::new();
        let mut engine = AlertEngine::new();
        engine.install(AlertRule {
            name: "no-heartbeat".into(),
            metric: MetricKey::platform("heartbeats"),
            kind: RuleKind::Absence {
                stale_for: Duration::from_mins(5),
            },
            for_duration: Duration::from_mins(2),
            severity: Severity::Warning,
            suppress_for: Duration::from_mins(60),
        });
        assert!(engine.evaluate(&registry, t(0)).is_empty());
        let opened = engine.evaluate(&registry, t(120));
        assert_eq!(opened.len(), 1);
        assert_eq!(engine.incidents()[0].severity, Severity::Warning);
    }

    #[test]
    fn a_rule_finds_a_series_registered_after_it_and_again_after_a_restore() {
        let mut registry = Registry::new();
        // Other series first, so the watched one's dense id is not 0.
        registry.series_id(MetricKey::platform("task_count"));
        let mut engine = AlertEngine::new();
        engine.install(lag_rule(0, 0));
        // Nothing has registered the series yet: quiet, and the miss is
        // not remembered.
        assert!(engine.evaluate(&registry, t(0)).is_empty());
        let id = registry.series_id(MetricKey::job(1, "lag_secs"));
        registry.publish(id, t(60), 120.0);
        assert_eq!(engine.evaluate(&registry, t(60)).len(), 1);
        assert_eq!(engine.states[0].series, Some(id));
        // The resolved id is derived state: a restored engine carries none
        // and resolves it again.
        let mut w = SnapWriter::new();
        engine.snap(&mut w);
        let blob = w.into_bytes();
        let mut restored = AlertEngine::unsnap(&mut SnapReader::new(&blob)).expect("decodes");
        assert_eq!(restored.states[0].series, None);
        for engine in [&mut engine, &mut restored] {
            registry.publish(id, t(120), 10.0);
            engine.evaluate(&registry, t(120));
            assert_eq!(engine.incidents()[0].resolved_at, Some(t(120)));
        }
        let mut again = SnapWriter::new();
        restored.snap(&mut again);
        let mut original = SnapWriter::new();
        engine.snap(&mut original);
        assert_eq!(again.into_bytes(), original.into_bytes());
    }

    #[test]
    fn absence_clears_when_reporting_resumes() {
        let mut registry = Registry::new();
        let id = registry.series_id(MetricKey::platform("heartbeats"));
        let mut engine = AlertEngine::new();
        engine.install(AlertRule {
            name: "no-heartbeat".into(),
            metric: MetricKey::platform("heartbeats"),
            kind: RuleKind::Absence {
                stale_for: Duration::from_mins(5),
            },
            for_duration: Duration::from_mins(0),
            severity: Severity::Warning,
            suppress_for: Duration::from_mins(60),
        });
        registry.publish(id, t(0), 1.0);
        assert!(engine.evaluate(&registry, t(60)).is_empty());
        // Stale after 5 minutes.
        let opened = engine.evaluate(&registry, t(6 * 60 + 1));
        assert_eq!(opened.len(), 1);
        // Fresh sample resolves.
        registry.publish(id, t(7 * 60), 1.0);
        engine.evaluate(&registry, t(7 * 60));
        assert_eq!(engine.incidents()[0].resolved_at, Some(t(7 * 60)));
    }

    #[test]
    fn empty_and_single_point_series_never_panic_rules() {
        let mut registry = Registry::new();
        let id = registry.series_id(MetricKey::job(1, "lag_secs"));
        let mut engine = AlertEngine::new();
        engine.install(lag_rule(0, 30));
        engine.install(AlertRule {
            name: "cliff".into(),
            metric: MetricKey::job(1, "lag_secs"),
            kind: RuleKind::RateOfChange {
                window: Duration::from_mins(5),
                per_sec: 1.0,
            },
            for_duration: Duration::from_mins(0),
            severity: Severity::Info,
            suppress_for: Duration::from_mins(30),
        });
        // Empty series: nothing fires.
        assert!(engine.evaluate(&registry, t(0)).is_empty());
        // One point: threshold can fire, rate-of-change cannot (the
        // trailing window reaches before the first sample, so there is no
        // baseline to compare against).
        registry.publish(id, t(600), 500.0);
        let opened = engine.evaluate(&registry, t(600));
        assert_eq!(opened.len(), 1);
        assert_eq!(engine.incidents()[opened[0]].rule, "lag");
    }

    #[test]
    fn rate_of_change_detects_cliffs() {
        let mut registry = Registry::new();
        let id = registry.series_id(MetricKey::platform("backlog"));
        let mut engine = AlertEngine::new();
        engine.install(AlertRule {
            name: "backlog-cliff".into(),
            metric: MetricKey::platform("backlog"),
            kind: RuleKind::RateOfChange {
                window: Duration::from_mins(1),
                per_sec: 10.0,
            },
            for_duration: Duration::from_mins(0),
            severity: Severity::Warning,
            suppress_for: Duration::from_mins(30),
        });
        registry.publish(id, t(0), 0.0);
        assert!(engine.evaluate(&registry, t(60)).is_empty());
        // +6000 over one minute = 100/s > 10/s.
        registry.publish(id, t(120), 6000.0);
        let opened = engine.evaluate(&registry, t(120));
        assert_eq!(opened.len(), 1);
        assert!((engine.incidents()[0].value - 100.0).abs() < 1e-9);
    }

    #[test]
    fn burn_rate_exactly_at_budget_does_not_fire() {
        let mut registry = Registry::new();
        let id = registry.series_id(MetricKey::new(
            Scope::Tier("critical".into()),
            "downtime_ms",
        ));
        let rule = AlertRule {
            name: "critical-burn".into(),
            metric: MetricKey::new(Scope::Tier("critical".into()), "downtime_ms"),
            kind: RuleKind::BurnRate {
                window: Duration::from_mins(60),
                budget_ms: 30_000.0,
            },
            for_duration: Duration::from_mins(0),
            severity: Severity::Critical,
            suppress_for: Duration::from_mins(60),
        };
        let mut engine = AlertEngine::new();
        engine.install(rule);
        registry.publish(id, t(0), 0.0);
        // Exactly the budget within the window: compliant, no incident.
        registry.publish(id, t(1800), 30_000.0);
        assert!(engine.evaluate(&registry, t(1800)).is_empty());
        // One millisecond over: fire.
        registry.publish(id, t(1860), 30_001.0);
        let opened = engine.evaluate(&registry, t(1860));
        assert_eq!(opened.len(), 1);
        assert!(engine.incidents()[0].value > 1.0);
    }

    #[test]
    fn rules_parse_from_json() {
        let text = r#"{"alerts": [
            {"name": "billing-lag", "severity": "critical",
             "scope": "job", "job": "billing", "metric": "lag_secs",
             "kind": "threshold", "above": 90.0,
             "for_mins": 2, "suppress_mins": 30},
            {"name": "tier-burn", "severity": "warning",
             "scope": "tier", "tier": "critical", "metric": "downtime_ms",
             "kind": "burn_rate", "window_mins": 60, "budget_ms": 30000.0},
            {"name": "silent", "scope": "platform", "metric": "task_count",
             "kind": "absence", "stale_for_mins": 10}
        ]}"#;
        let root = turbine_config::parse(text).expect("parse");
        let list = root
            .get_path("alerts")
            .and_then(|v| v.as_array())
            .expect("array");
        let rules = parse_rules(list, |name| (name == "billing").then_some(7)).expect("rules");
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].metric, MetricKey::job(7, "lag_secs"));
        assert_eq!(rules[0].severity, Severity::Critical);
        assert_eq!(rules[0].for_duration, Duration::from_mins(2));
        assert!(matches!(rules[1].kind, RuleKind::BurnRate { .. }));
        assert_eq!(rules[2].severity, Severity::Warning);
        // Unknown job is an error, not a silent no-op rule.
        assert!(parse_rules(list, |_| None).is_err());
    }

    #[test]
    fn misspelled_rule_keys_are_rejected() {
        // "sevrity" would silently fall back to the default severity if
        // unknown keys were tolerated.
        let text = r#"{"alerts": [
            {"name": "lag", "sevrity": "critical", "metric": "lag_secs",
             "kind": "threshold", "above": 90.0}
        ]}"#;
        let root = turbine_config::parse(text).expect("parse");
        let list = root
            .get_path("alerts")
            .and_then(|v| v.as_array())
            .expect("array");
        let err = parse_rules(list, |_| None).expect_err("must reject");
        assert!(err.contains("unknown key 'sevrity'"), "{err}");
    }

    #[test]
    fn hostile_minutes_and_hosts_are_refused_not_clamped() {
        // A negative count used to clamp to 0, `host: -1` to host 0, and a
        // count past `u64::MAX / 60_000` minutes overflowed the millisecond
        // conversion.
        let threshold = r#""metric": "m", "kind": "threshold", "above": 1.0"#;
        for (rule, key) in [
            (
                format!(r#"{{"name": "r", {threshold}, "for_mins": -5}}"#),
                "'for_mins'",
            ),
            (
                format!(r#"{{"name": "r", {threshold}, "suppress_mins": -1}}"#),
                "'suppress_mins'",
            ),
            (
                format!(r#"{{"name": "r", {threshold}, "for_mins": 307445734561826}}"#),
                "'for_mins'",
            ),
            (
                r#"{"name": "r", "metric": "m", "kind": "absence", "stale_for_mins": -2}"#.into(),
                "'stale_for_mins'",
            ),
            (
                format!(r#"{{"name": "r", {threshold}, "scope": "host", "host": -1}}"#),
                "'host'",
            ),
        ] {
            let root = turbine_config::parse(&format!("[{rule}]")).expect("parse");
            let list = root.as_array().expect("array");
            let err = parse_rules(list, |_| None).expect_err(&rule);
            assert!(
                err.contains("out of range") && err.contains(key),
                "{rule}: {err}"
            );
        }
        let root = turbine_config::parse(&format!(
            r#"[{{"name": "r", {threshold}, "for_mins": 307445734561825}}]"#
        ))
        .expect("parse");
        let rules = parse_rules(root.as_array().expect("array"), |_| None).expect("largest count");
        assert_eq!(
            rules[0].for_duration,
            Duration::from_mins(307_445_734_561_825)
        );
    }
}
