//! The `turbinesim trace` subcommand: query the causal decision trace a
//! scenario run produced.
//!
//! Three modes, all operating on the same [`TracedRun`]:
//!
//! - **listing** (default): print retained trace records, optionally
//!   filtered by `--job`, `--component`, and `--from-mins`/`--to-mins`;
//! - **`--explain <job>`**: reconstruct the causal chain behind the most
//!   recent decision the control plane took about a job (fault edge →
//!   symptom → decision), root first;
//! - **`--jsonl`**: dump the retained records as JSONL for offline tools.

use crate::runner::TracedRun;
use std::fmt::Write as _;
use turbine::{TraceComponent, TraceData, TraceEvent};
use turbine_types::{Duration, SimTime};

/// Parsed arguments for `turbinesim trace`.
#[derive(Debug, Clone, Default)]
pub struct TraceQuery {
    /// Only records about this scenario job (by name).
    pub job: Option<String>,
    /// Only records from rounds of this control component.
    pub component: Option<TraceComponent>,
    /// Drop records before this many simulated minutes.
    pub from_mins: Option<f64>,
    /// Drop records after this many simulated minutes.
    pub to_mins: Option<f64>,
    /// Explain the last decision about this scenario job (by name).
    pub explain: Option<String>,
    /// Emit raw JSONL instead of the human listing.
    pub jsonl: bool,
}

impl TraceQuery {
    /// Parse the flag tail of `turbinesim trace <scenario> [flags...]`.
    pub fn parse(args: &[String]) -> Result<TraceQuery, String> {
        let mut query = TraceQuery::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--job" => query.job = Some(value("--job")?),
                "--component" => {
                    let name = value("--component")?;
                    query.component = Some(TraceComponent::parse(&name).ok_or_else(|| {
                        format!("unknown component '{name}' (see `turbinesim trace --help`)")
                    })?);
                }
                "--from-mins" => {
                    query.from_mins = Some(
                        value("--from-mins")?
                            .parse()
                            .map_err(|_| "--from-mins needs a number of minutes".to_string())?,
                    );
                }
                "--to-mins" => {
                    query.to_mins = Some(
                        value("--to-mins")?
                            .parse()
                            .map_err(|_| "--to-mins needs a number of minutes".to_string())?,
                    );
                }
                "--explain" => query.explain = Some(value("--explain")?),
                "--jsonl" => query.jsonl = true,
                other => return Err(format!("unknown trace flag '{other}'")),
            }
        }
        Ok(query)
    }
}

/// Execute a parsed trace query against a finished run.
pub fn trace_report(run: &TracedRun, query: &TraceQuery) -> Result<String, String> {
    if let Some(job) = &query.explain {
        return explain(run, job);
    }
    if query.jsonl {
        return Ok(run.trace.to_jsonl());
    }
    format_events(run, query)
}

/// Resolve a scenario job name, with a helpful error listing valid names.
fn resolve_job(run: &TracedRun, name: &str) -> Result<turbine_types::JobId, String> {
    run.jobs.get(name).copied().ok_or_else(|| {
        let known: Vec<&str> = run.jobs.keys().map(String::as_str).collect();
        format!("unknown job '{name}' (scenario jobs: {})", known.join(", "))
    })
}

/// Human listing of retained records matching the query filters.
fn format_events(run: &TracedRun, query: &TraceQuery) -> Result<String, String> {
    let job = match &query.job {
        Some(name) => Some(resolve_job(run, name)?),
        None => None,
    };
    let from = query
        .from_mins
        .map(|m| SimTime::ZERO + Duration::from_secs_f64(m * 60.0));
    let to = query
        .to_mins
        .map(|m| SimTime::ZERO + Duration::from_secs_f64(m * 60.0));

    // Attribute records to components positionally: the trace is a single
    // ordered stream where every record after a round-start (until the
    // next one) was emitted inside that round. Fault edges are the chaos
    // engine's regardless of position (they can land outside any round).
    let mut current: Option<TraceComponent> = None;
    let mut out = String::new();
    let mut shown = 0usize;
    for event in run.trace.events() {
        let component = match &event.data {
            TraceData::RoundStart { component } => {
                current = Some(*component);
                current
            }
            TraceData::FaultEdge { .. } => Some(TraceComponent::ChaosEngine),
            _ => current,
        };
        if query.job.is_some() && event.data.job() != job {
            continue;
        }
        if query.component.is_some() && component != query.component {
            continue;
        }
        if from.is_some_and(|f| event.at < f) || to.is_some_and(|t| event.at > t) {
            continue;
        }
        let _ = writeln!(out, "{}", format_line(event, component));
        shown += 1;
    }
    let _ = writeln!(
        out,
        "{shown} of {} retained records shown ({} recorded, {} evicted)",
        run.trace.len(),
        run.trace.total_recorded(),
        run.trace.evicted(),
    );
    Ok(out)
}

/// One listing line: id, sim-time, owning component, cause link, summary.
fn format_line(event: &TraceEvent, component: Option<TraceComponent>) -> String {
    let component = component.map_or("-", TraceComponent::name);
    let cause = event
        .cause
        .map_or_else(|| "root".to_string(), |c| c.to_string());
    format!(
        "{:>6} [{}] {:<16} {:<6} {}",
        event.id.to_string(),
        event.at,
        component,
        cause,
        event.data.summary(),
    )
}

/// Reconstruct and render the causal chain behind the most recent decision
/// about `job`, root cause first.
fn explain(run: &TracedRun, job: &str) -> Result<String, String> {
    let id = resolve_job(run, job)?;
    let Some(decision) = run.trace.last_decision_for(id) else {
        return Ok(format!(
            "no retained decision about job '{job}' (did the run reach it?)\n"
        ));
    };
    let mut chain = run.trace.chain(decision.id);
    chain.reverse(); // root first
    let mut out = String::new();
    let _ = writeln!(
        out,
        "last decision about job '{job}': {} at {}",
        decision.data.summary(),
        decision.at,
    );
    let _ = writeln!(out, "causal chain ({} hops):", chain.len());
    for (depth, event) in chain.iter().enumerate() {
        let indent = "  ".repeat(depth);
        let arrow = if depth == 0 { "" } else { "└─ " };
        let _ = writeln!(
            out,
            "  {indent}{arrow}{} [{}] {}",
            event.id,
            event.at,
            event.data.summary(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scenario_traced;
    use crate::scenario::Scenario;

    fn stalled() -> TracedRun {
        let scenario = Scenario::parse(
            r#"{
              "hosts": 3, "duration_hours": 1.5, "report_every_mins": 30,
              "jobs": [{"name": "pipeline", "tasks": 2, "partitions": 16,
                        "rate_mbps": 2.0, "max_tasks": 8, "seed": 7}],
              "events": [
                {"action": "inject_fault", "at_mins": 10, "fault": "scribe_stall",
                 "job": "pipeline", "duration_mins": 30}
              ]
            }"#,
        )
        .expect("parse");
        run_scenario_traced(&scenario)
    }

    #[test]
    fn parse_accepts_all_flags_and_rejects_junk() {
        let args: Vec<String> = [
            "--job",
            "a",
            "--component",
            "auto_scaler",
            "--from-mins",
            "5",
            "--to-mins",
            "90",
            "--jsonl",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let q = TraceQuery::parse(&args).expect("parse");
        assert_eq!(q.job.as_deref(), Some("a"));
        assert_eq!(q.component, Some(TraceComponent::AutoScaler));
        assert_eq!(q.from_mins, Some(5.0));
        assert_eq!(q.to_mins, Some(90.0));
        assert!(q.jsonl);
        assert!(TraceQuery::parse(&["--bogus".to_string()]).is_err());
        assert!(TraceQuery::parse(&["--component".to_string(), "nope".to_string()]).is_err());
        assert!(TraceQuery::parse(&["--job".to_string()]).is_err());
    }

    #[test]
    fn listing_filters_by_job_and_time() {
        let run = stalled();
        let all = trace_report(&run, &TraceQuery::default()).expect("report");
        assert!(all.contains("retained records shown"), "{all}");

        let mut query = TraceQuery::default();
        query.job = Some("pipeline".to_string());
        query.from_mins = Some(9.0);
        let filtered = trace_report(&run, &query).expect("report");
        assert!(filtered.len() <= all.len());

        query.job = Some("missing".to_string());
        let err = trace_report(&run, &query).expect_err("unknown job");
        assert!(err.contains("unknown job"), "{err}");
    }

    #[test]
    fn jsonl_mode_emits_one_json_object_per_line() {
        let run = stalled();
        let mut query = TraceQuery::default();
        query.jsonl = true;
        let jsonl = trace_report(&run, &query).expect("report");
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn explain_reconstructs_a_causal_chain() {
        let run = stalled();
        let mut query = TraceQuery::default();
        query.explain = Some("pipeline".to_string());
        let explained = trace_report(&run, &query).expect("report");
        assert!(
            explained.contains("last decision about job 'pipeline'"),
            "{explained}"
        );
        assert!(explained.contains("causal chain"), "{explained}");

        query.explain = Some("missing".to_string());
        let err = trace_report(&run, &query).expect_err("unknown job");
        assert!(err.contains("unknown job"), "{err}");
    }
}
