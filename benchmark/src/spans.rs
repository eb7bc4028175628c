//! In-memory spans of the traced run, written out once at exit.
//!
//! The spans are recorded from the harness's side of the adapter: one per
//! set-up, per pass, per one-simulated-minute `run_for` call and per
//! intervention. A `run_for` span also carries how much host time each
//! platform component spent inside it, read as the delta of the trace's
//! latency totals, so a layer's busy time is attributed to the minute it
//! was spent in without any change to the product.

use crate::json::Json;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// The span that caused it (index into the log), `None` for roots.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// Host nanoseconds per platform component inside the span.
    pub busy_ns: Vec<(&'static str, u64)>,
}

/// The spans of one run.
pub struct SpanLog {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log; span times count from now.
    pub fn new(workload: &'static str) -> Self {
        SpanLog {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; returns its id for [`Self::close`] and for children.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns: now,
            end_ns: now,
            busy_ns: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in seconds.
    pub fn close(&mut self, id: usize, busy_ns: Vec<(&'static str, u64)>) -> f64 {
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        span.busy_ns = busy_ns;
        (span.end_ns - span.start_ns) as f64 * 1.0e-9
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: id, parent, workload, name, start, end,
    /// and the per-component busy time where there is any.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id".to_string(), Json::Int(id as u64)),
                (
                    "parent".to_string(),
                    span.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                ),
                ("workload".to_string(), Json::Str(self.workload.into())),
                ("name".to_string(), Json::Str(span.name.clone())),
                ("start_ns".to_string(), Json::Int(span.start_ns)),
                ("end_ns".to_string(), Json::Int(span.end_ns)),
            ];
            if !span.busy_ns.is_empty() {
                fields.push((
                    "busy_ns".to_string(),
                    Json::obj(span.busy_ns.iter().map(|&(c, ns)| (c, Json::Int(ns)))),
                ));
            }
            out.push_str(&Json::Obj(fields).render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    #[test]
    fn spans_nest_and_serialize_one_per_line() {
        let mut log = SpanLog::new("steady_fleet");
        let pass = log.open("traced_pass", None);
        let minute = log.open("run_for", Some(pass));
        log.close(minute, vec![("data_plane", 1200), ("metrics", 30)]);
        let wall = log.close(pass, Vec::new());
        assert!(wall >= 0.0);
        assert_eq!(log.spans()[minute].parent, Some(pass));
        assert!(log.spans()[pass].end_ns >= log.spans()[minute].end_ns);

        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = parse_json(lines[1]).expect("valid JSON");
        assert_eq!(child.get("parent").and_then(|v| v.as_int()), Some(0));
        assert_eq!(
            child.get("workload").and_then(|v| v.as_str()),
            Some("steady_fleet")
        );
        assert_eq!(
            child
                .get_path("busy_ns.data_plane")
                .and_then(|v| v.as_int()),
            Some(1200)
        );
    }
}
