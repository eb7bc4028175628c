//! Registry and incident exports: JSONL for tooling, Prometheus text for
//! scrapers.
//!
//! Both formats iterate the registry in key order, so export output is
//! deterministic for a deterministic run — diffs between two exports are
//! real differences, not iteration noise.

use crate::alert::Incident;
use crate::registry::Registry;
use std::fmt::Write as _;
use turbine_types::json_escape;

/// Render a float the way the rest of the workspace serialises JSON
/// numbers: shortest round-trip via `{}` — `1024` stays `1024`, `0.5`
/// stays `0.5`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Export the registry and incident log as JSON Lines: one
/// `{"kind":"series",...}` object per series (latest value plus retained
/// point count) followed by one `{"kind":"incident",...}` object per
/// incident, in open order.
pub fn to_jsonl(registry: &Registry, incidents: &[Incident]) -> String {
    let mut out = String::new();
    for (key, series) in registry.iter() {
        let last = series.last().map(num).unwrap_or_else(|| "null".to_string());
        let last_at = series
            .last_at()
            .map(|t| t.as_millis().to_string())
            .unwrap_or_else(|| "null".to_string());
        let _ = writeln!(
            out,
            "{{\"kind\":\"series\",\"key\":\"{}\",\"scope\":\"{}\",\"name\":\"{}\",\"samples\":{},\"last\":{},\"last_at_ms\":{}}}",
            json_escape(&key.to_string()),
            json_escape(&key.scope.to_string()),
            json_escape(&key.name),
            series.len(),
            last,
            last_at,
        );
    }
    for incident in incidents {
        let resolved = incident
            .resolved_at
            .map(|t| t.as_millis().to_string())
            .unwrap_or_else(|| "null".to_string());
        let _ = writeln!(
            out,
            "{{\"kind\":\"incident\",\"rule\":\"{}\",\"severity\":\"{}\",\"metric\":\"{}\",\"opened_at_ms\":{},\"resolved_at_ms\":{},\"value\":{},\"message\":\"{}\"}}",
            json_escape(&incident.rule),
            incident.severity,
            json_escape(&incident.metric.to_string()),
            incident.opened_at.as_millis(),
            resolved,
            num(incident.value),
            json_escape(&incident.message),
        );
    }
    out
}

/// Sanitise a metric name into a Prometheus identifier:
/// `[a-zA-Z0-9_]`, everything else mapped to `_`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Export the registry in the Prometheus text exposition format:
/// `turbine_<name>{<scope labels>} <value> <timestamp_ms>` for the latest
/// sample of every series, plus a `turbine_incidents_active` gauge per
/// severity.
pub fn to_prom(registry: &Registry, incidents: &[Incident]) -> String {
    use crate::registry::Scope;
    let mut out = String::new();
    for (key, series) in registry.iter() {
        let (Some(last), Some(at)) = (series.last(), series.last_at()) else {
            continue;
        };
        let labels = match &key.scope {
            Scope::Platform => String::new(),
            Scope::Component(c) => format!("{{component=\"{}\"}}", json_escape(c)),
            Scope::Job(id) => format!("{{job=\"{id}\"}}"),
            Scope::Host(id) => format!("{{host=\"{id}\"}}"),
            Scope::Tier(t) => format!("{{tier=\"{}\"}}", json_escape(t)),
        };
        let _ = writeln!(
            out,
            "turbine_{}{} {} {}",
            prom_name(&key.name),
            labels,
            num(last),
            at.as_millis(),
        );
    }
    for severity in ["info", "warning", "critical"] {
        let active = incidents
            .iter()
            .filter(|i| i.is_active() && i.severity.as_str() == severity)
            .count();
        let _ = writeln!(
            out,
            "turbine_incidents_active{{severity=\"{severity}\"}} {active}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricKey, Scope};
    use crate::Severity;
    use turbine_types::{Duration, SimTime};

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.publish_key(MetricKey::platform("task_count"), t(60), 42.0);
        r.publish_key(MetricKey::job(3, "lag_secs"), t(60), 1.5);
        r.publish_key(
            MetricKey::new(Scope::Tier("critical".into()), "downtime_ms"),
            t(60),
            0.0,
        );
        r
    }

    fn sample_incident() -> Incident {
        Incident {
            rule: "billing-lag".into(),
            severity: Severity::Critical,
            metric: MetricKey::job(3, "lag_secs"),
            opened_at: t(120),
            resolved_at: None,
            value: 480.0,
            message: "job/3/lag_secs = 480.00, above 90.00".into(),
        }
    }

    #[test]
    fn jsonl_emits_one_line_per_series_and_incident() {
        let registry = sample_registry();
        let incidents = vec![sample_incident()];
        let out = to_jsonl(&registry, &incidents);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines
            .iter()
            .take(3)
            .all(|l| l.contains("\"kind\":\"series\"")));
        assert!(lines[3].contains("\"kind\":\"incident\""));
        assert!(lines[3].contains("\"severity\":\"critical\""));
        assert!(lines[3].contains("\"opened_at_ms\":120000"));
        assert!(lines[3].contains("\"resolved_at_ms\":null"));
        assert!(out.contains("\"key\":\"job/3/lag_secs\""));
        assert!(out.contains("\"last\":42"));
    }

    #[test]
    fn prom_renders_labels_and_active_incident_gauges() {
        let registry = sample_registry();
        let incidents = vec![sample_incident()];
        let out = to_prom(&registry, &incidents);
        assert!(out.contains("turbine_task_count 42 60000"));
        assert!(out.contains("turbine_lag_secs{job=\"3\"} 1.5 60000"));
        assert!(out.contains("turbine_downtime_ms{tier=\"critical\"} 0 60000"));
        assert!(out.contains("turbine_incidents_active{severity=\"critical\"} 1"));
        assert!(out.contains("turbine_incidents_active{severity=\"info\"} 0"));
    }

    #[test]
    fn empty_registry_exports_only_incident_gauges() {
        let registry = Registry::new();
        assert!(to_jsonl(&registry, &[]).is_empty());
        let prom = to_prom(&registry, &[]);
        assert_eq!(prom.lines().count(), 3);
    }
}
