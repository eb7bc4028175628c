//! The bounded trace buffer: ring storage, lazy dispatch spans, cause
//! context, and the incremental replay digest.

use crate::event::{Component, TraceData, TraceEvent, TraceId, COMPONENTS};
use crate::latency::LatencyHistogram;
use std::collections::{BTreeMap, VecDeque};
use turbine_types::{Fnv1a, JobId, SimTime};

/// Default ring capacity: enough to keep every consequential record of a
/// 48-hour soak while bounding memory on any horizon.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// A deterministic, bounded causal trace of control-plane decisions.
///
/// The buffer is a ring: records past `capacity` evict the oldest, but
/// record ids are a monotone sequence and the [`digest`](Self::digest)
/// covers every record ever pushed, so two runs can be compared bit-for-
/// bit regardless of eviction. Recording is purely observational: the
/// buffer never feeds back into the simulation.
///
/// # Spans and cause links
///
/// Each control-component dispatch opens a *span* with
/// [`begin_round`](Self::begin_round). The span is lazy: it is committed
/// to the ring only when the round emits its first record (an empty
/// heartbeat round leaves no trace). A record's cause defaults to the
/// innermost entry of the explicit cause stack
/// ([`push_cause`](Self::push_cause)), falling back to the current span.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    capacity: usize,
    next_id: u64,
    events: VecDeque<TraceEvent>,
    digest: Fnv1a,
    pending_span: Option<(SimTime, Component)>,
    current_span: Option<TraceId>,
    context: Vec<TraceId>,
    active_faults: BTreeMap<String, TraceId>,
    latency: Vec<LatencyHistogram>,
}

impl TraceBuffer {
    /// An empty buffer with the given ring capacity (min 16).
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            capacity: capacity.max(16),
            next_id: 0,
            events: VecDeque::new(),
            digest: Fnv1a::new(),
            pending_span: None,
            current_span: None,
            context: Vec::new(),
            active_faults: BTreeMap::new(),
            latency: vec![LatencyHistogram::default(); COMPONENTS.len()],
        }
    }

    /// Open the dispatch span for a component round. The span is only
    /// committed if the round emits a record.
    pub fn begin_round(&mut self, at: SimTime, component: Component) {
        debug_assert!(
            self.context.is_empty(),
            "cause context leaked across rounds"
        );
        self.pending_span = Some((at, component));
        self.current_span = None;
    }

    /// Close the dispatch span. `wall_ns` feeds the component's wall-clock
    /// latency histogram (never the digest).
    pub fn end_round(&mut self, component: Component, wall_ns: u64) {
        self.latency[component.index()].record(wall_ns);
        self.pending_span = None;
        self.current_span = None;
        self.context.clear();
    }

    /// Push an explicit cause for subsequent records (innermost wins).
    pub fn push_cause(&mut self, cause: TraceId) {
        self.context.push(cause);
    }

    /// Pop the innermost explicit cause.
    pub fn pop_cause(&mut self) {
        self.context.pop();
    }

    /// Record an event; its cause defaults to the innermost pushed cause,
    /// falling back to the current round's span. The span commits on the
    /// first record of the round regardless of which cause wins, so every
    /// in-round record is attributable to its round. Returns the record
    /// id.
    pub fn emit(&mut self, at: SimTime, data: TraceData) -> TraceId {
        let span = self.commit_span();
        let cause = self.context.last().copied().or(span);
        self.push(at, cause, data)
    }

    /// Record an event with an explicit cause (or an explicit root). The
    /// round's span still commits — the stream stays self-describing (every
    /// record is attributable to the round that emitted it) even when the
    /// chain links elsewhere.
    pub fn emit_caused(&mut self, at: SimTime, data: TraceData, cause: Option<TraceId>) -> TraceId {
        self.commit_span();
        self.push(at, cause, data)
    }

    /// Record a chaos-engine fault edge. Activations are chain roots;
    /// clearances link back to their activation. Returns the record id.
    pub fn note_fault_edge(&mut self, at: SimTime, label: &str, activated: bool) -> TraceId {
        let cause = if activated {
            None
        } else {
            self.active_faults.remove(label)
        };
        let id = self.push(
            at,
            cause,
            TraceData::FaultEdge {
                fault: label.to_string(),
                activated,
            },
        );
        if activated {
            self.active_faults.insert(label.to_string(), id);
        }
        id
    }

    /// The activation record of a currently-active fault, by label — the
    /// root symptoms of that fault link their chains to.
    pub fn fault_cause(&self, label: &str) -> Option<TraceId> {
        self.active_faults.get(label).copied()
    }

    fn commit_span(&mut self) -> Option<TraceId> {
        if let Some((at, component)) = self.pending_span.take() {
            let id = self.push(at, None, TraceData::RoundStart { component });
            self.current_span = Some(id);
        }
        self.current_span
    }

    fn push(&mut self, at: SimTime, cause: Option<TraceId>, data: TraceData) -> TraceId {
        let id = TraceId(self.next_id);
        self.next_id += 1;
        self.digest_event(id, at, cause, &data);
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent {
            id,
            at,
            cause,
            data,
        });
        id
    }

    fn digest_event(&mut self, id: TraceId, at: SimTime, cause: Option<TraceId>, data: &TraceData) {
        let digest = &mut self.digest;
        digest.write(&id.0.to_le_bytes());
        digest.write(&at.as_millis().to_le_bytes());
        digest.write(&cause.map_or(u64::MAX, |c| c.0).to_le_bytes());
        data.digest_into(&mut |bytes| digest.write(bytes));
        digest.write(b"\n");
    }

    /// FNV-1a digest over every record ever pushed (including evicted
    /// ones). Two runs produced the identical decision trace iff their
    /// digests match. Wall-clock latencies are excluded by construction.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Records currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total records ever pushed (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.next_id
    }

    /// Records evicted by the ring bound.
    pub fn evicted(&self) -> u64 {
        self.next_id - self.events.len() as u64
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a retained record by id (`None` if evicted or never
    /// recorded). O(1): ids are dense and in ring order.
    pub fn get(&self, id: TraceId) -> Option<&TraceEvent> {
        let first = self.events.front()?.id.0;
        let offset = id.0.checked_sub(first)?;
        self.events.get(offset as usize)
    }

    /// The causal chain ending at `id`: the record itself, then each cause
    /// hop, oldest-cause last. Stops at a root, an evicted hop, or a
    /// safety bound of 64 hops.
    pub fn chain(&self, id: TraceId) -> Vec<&TraceEvent> {
        let mut chain = Vec::new();
        let mut next = Some(id);
        while let Some(id) = next {
            let Some(event) = self.get(id) else {
                break;
            };
            chain.push(event);
            if chain.len() >= 64 {
                break;
            }
            next = event.cause;
        }
        chain
    }

    /// The most recent retained *decision* record about `job`.
    pub fn last_decision_for(&self, job: JobId) -> Option<&TraceEvent> {
        self.events
            .iter()
            .rev()
            .find(|e| e.data.is_decision() && e.data.job() == Some(job))
    }

    /// Up to `limit` most recent decision records about `job`, newest
    /// first.
    pub fn decisions_for(&self, job: JobId, limit: usize) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .rev()
            .filter(|e| e.data.is_decision() && e.data.job() == Some(job))
            .take(limit)
            .collect()
    }

    /// Export the retained records as JSONL (one record per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// Per-component wall-clock round-latency histograms.
    pub fn latencies(&self) -> impl Iterator<Item = (Component, &LatencyHistogram)> {
        COMPONENTS
            .iter()
            .enumerate()
            .map(move |(i, &c)| (c, &self.latency[i]))
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

turbine_types::snap_struct!(TraceBuffer { capacity, next_id, events, digest, active_faults }
    // Spans, cause context, and wall-clock latency never carry across a
    // snapshot boundary: captures happen between rounds, and latencies are
    // observational (excluded from the digest by construction).
    derived {
        pending_span: None,
        current_span: None,
        context: Vec::new(),
        latency: vec![LatencyHistogram::default(); COMPONENTS.len()],
    }
    check |t| t.capacity >= 16 => "TraceBuffer capacity below minimum"
    check |t| t.events.len() <= t.capacity && t.events.len() as u64 <= t.next_id
        => "TraceBuffer retained events exceed capacity or id sequence");

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::Duration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    fn symptom(job: u64) -> TraceData {
        TraceData::Symptom {
            job: JobId(job),
            description: "lagging".into(),
        }
    }

    #[test]
    fn empty_rounds_leave_no_span() {
        let mut tb = TraceBuffer::new(64);
        tb.begin_round(t(10), Component::Heartbeat);
        tb.end_round(Component::Heartbeat, 500);
        assert!(tb.is_empty());
        // Latency still recorded for the empty round.
        let (_, h) = tb
            .latencies()
            .find(|(c, _)| *c == Component::Heartbeat)
            .expect("listed");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn first_emission_commits_the_span_as_cause() {
        let mut tb = TraceBuffer::new(64);
        tb.begin_round(t(30), Component::AutoScaler);
        let id = tb.emit(t(30), symptom(1));
        tb.end_round(Component::AutoScaler, 0);
        assert_eq!(tb.len(), 2, "span + symptom");
        let event = tb.get(id).expect("retained");
        let span = tb.get(event.cause.expect("caused")).expect("retained");
        assert!(matches!(
            span.data,
            TraceData::RoundStart {
                component: Component::AutoScaler
            }
        ));
        assert!(span.id < id);
    }

    #[test]
    fn explicit_cause_stack_wins_over_span() {
        let mut tb = TraceBuffer::new(64);
        tb.begin_round(t(30), Component::AutoScaler);
        let symptom_id = tb.emit(t(30), symptom(1));
        tb.push_cause(symptom_id);
        let action = tb.emit(
            t(30),
            TraceData::ScalingAction {
                job: JobId(1),
                action: "horizontal(tasks=8)".into(),
            },
        );
        tb.pop_cause();
        tb.end_round(Component::AutoScaler, 0);
        assert_eq!(tb.get(action).expect("retained").cause, Some(symptom_id));
        // Chain: action -> symptom -> span.
        let chain = tb.chain(action);
        assert_eq!(chain.len(), 3);
        assert!(matches!(chain[2].data, TraceData::RoundStart { .. }));
    }

    #[test]
    fn fault_clearance_links_to_activation() {
        let mut tb = TraceBuffer::new(64);
        let up = tb.note_fault_edge(t(10), "job_store_down", true);
        assert_eq!(tb.fault_cause("job_store_down"), Some(up));
        let down = tb.note_fault_edge(t(20), "job_store_down", false);
        assert_eq!(tb.get(down).expect("retained").cause, Some(up));
        assert_eq!(tb.fault_cause("job_store_down"), None);
    }

    #[test]
    fn ring_bounds_retention_but_not_ids_or_digest() {
        let mut tb = TraceBuffer::new(16);
        for i in 0..100 {
            tb.emit_caused(t(i), symptom(i), None);
        }
        assert_eq!(tb.len(), 16);
        assert_eq!(tb.total_recorded(), 100);
        assert_eq!(tb.evicted(), 84);
        assert!(tb.get(TraceId(0)).is_none(), "evicted");
        assert!(tb.get(TraceId(99)).is_some());
        // Same pushes, larger ring: identical digest (digest covers the
        // full history, not just the retained window).
        let mut big = TraceBuffer::new(1024);
        for i in 0..100 {
            big.emit_caused(t(i), symptom(i), None);
        }
        assert_eq!(tb.digest(), big.digest());
    }

    #[test]
    fn digests_distinguish_timelines() {
        let mut a = TraceBuffer::new(64);
        a.emit_caused(t(10), symptom(1), None);
        let mut b = TraceBuffer::new(64);
        b.emit_caused(t(11), symptom(1), None);
        let mut c = TraceBuffer::new(64);
        c.emit_caused(t(10), symptom(2), None);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn decision_queries_find_the_latest_per_job() {
        let mut tb = TraceBuffer::new(64);
        tb.emit_caused(t(10), symptom(1), None); // not a decision
        let first = tb.emit_caused(
            t(20),
            TraceData::ScalingAction {
                job: JobId(1),
                action: "vertical(threads=4)".into(),
            },
            None,
        );
        let second = tb.emit_caused(t(30), TraceData::Quarantine { job: JobId(1) }, None);
        tb.emit_caused(t(40), TraceData::Quarantine { job: JobId(2) }, None);
        assert_eq!(tb.last_decision_for(JobId(1)).expect("found").id, second);
        let decisions = tb.decisions_for(JobId(1), 10);
        assert_eq!(
            decisions.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![second, first]
        );
        assert!(tb.last_decision_for(JobId(9)).is_none());
    }

    #[test]
    fn jsonl_export_has_one_line_per_record() {
        let mut tb = TraceBuffer::new(64);
        tb.note_fault_edge(t(10), "syncer_crash", true);
        tb.emit_caused(t(20), symptom(1), None);
        let jsonl = tb.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
