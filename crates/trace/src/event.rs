//! The trace record taxonomy: components, event data, and the stable
//! serializations (digest bytes, JSON) every record carries.
//!
//! Each record kind is declared once, in the [`TraceData`] list below: its
//! snapshot tag, kind string, decision class and fields. The enum, `kind`,
//! `job`, `is_decision`, the digest bytes, the JSON line and the snapshot
//! codec are generated from that list; only [`TraceData::summary`], which
//! is prose, is written per kind.

use std::fmt::{self, Write as _};
use turbine_types::{
    json_escape_into, snap_enum, snap_struct, ContainerId, JobId, ShardId, SimTime, Snap,
    SnapError, SnapReader, SnapWriter, TaskId,
};

/// Stable identifier of one trace record. Ids are a monotone sequence per
/// buffer; an id stays valid as a cause link even after the ring buffer
/// evicts the record it names (the chain then reports the hop as evicted
/// rather than resolving it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The control-plane component (or substrate) a trace record originates
/// from. The first nine variants mirror the scheduler's component table;
/// the last two cover the data-plane tick and the chaos engine, which emit
/// outside any component round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// Heartbeat delivery + proactive reboots + fail-over check.
    Heartbeat,
    /// Task Manager snapshot refresh.
    TmRefresh,
    /// State Syncer reconciliation round.
    StateSyncer,
    /// Auto Scaler evaluation round.
    AutoScaler,
    /// Task Manager load reports.
    LoadReport,
    /// Cluster-wide shard rebalance.
    Rebalance,
    /// Capacity Manager evaluation round.
    CapacityManager,
    /// Scribe/checkpoint durability sync.
    Checkpoint,
    /// Metric sampling round.
    Metrics,
    /// The data-plane tick (OOM kills, crash injection).
    DataPlane,
    /// The chaos engine (fault-window edges).
    ChaosEngine,
}

/// All components, in scheduler-table order first. Index of a component in
/// this slice is its latency-histogram slot.
pub const COMPONENTS: [Component; 11] = [
    Component::Heartbeat,
    Component::TmRefresh,
    Component::StateSyncer,
    Component::AutoScaler,
    Component::LoadReport,
    Component::Rebalance,
    Component::CapacityManager,
    Component::Checkpoint,
    Component::Metrics,
    Component::DataPlane,
    Component::ChaosEngine,
];

impl Component {
    /// Stable snake_case name (CLI filters, JSON, digests).
    pub fn name(self) -> &'static str {
        match self {
            Component::Heartbeat => "heartbeat",
            Component::TmRefresh => "tm_refresh",
            Component::StateSyncer => "state_syncer",
            Component::AutoScaler => "auto_scaler",
            Component::LoadReport => "load_report",
            Component::Rebalance => "rebalance",
            Component::CapacityManager => "capacity_manager",
            Component::Checkpoint => "checkpoint",
            Component::Metrics => "metrics",
            Component::DataPlane => "data_plane",
            Component::ChaosEngine => "chaos_engine",
        }
    }

    /// Slot of this component in [`COMPONENTS`] (latency-histogram index).
    pub fn index(self) -> usize {
        COMPONENTS.iter().position(|&c| c == self).expect("listed")
    }

    /// Parse a [`Component::name`] back (CLI `--component` filters).
    pub fn parse(name: &str) -> Option<Component> {
        COMPONENTS.iter().copied().find(|c| c.name() == name)
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How one field type of a trace record digests and prints, and whether it
/// is the record's job. `digest` passes each of its values to `field`,
/// which puts the boundary byte in front; `json` appends `,"key":value`.
trait TraceField {
    fn digest(&self, field: &mut impl FnMut(&[u8]));
    fn json(&self, key: &str, out: &mut String);
    fn job(&self) -> Option<JobId> {
        None
    }
}

/// The record's job: the JSON line prints it once, as `"job"`, up front.
impl TraceField for JobId {
    fn digest(&self, field: &mut impl FnMut(&[u8])) {
        field(&self.raw().to_le_bytes());
    }
    fn json(&self, _: &str, _: &mut String) {}
    fn job(&self) -> Option<JobId> {
        Some(*self)
    }
}

/// An optional job; none digests as `u64::MAX`.
impl TraceField for Option<JobId> {
    fn digest(&self, field: &mut impl FnMut(&[u8])) {
        field(&self.map_or(u64::MAX, JobId::raw).to_le_bytes());
    }
    fn json(&self, _: &str, _: &mut String) {}
    fn job(&self) -> Option<JobId> {
        *self
    }
}

/// A task carries its job: it digests as two fields, job then index, and
/// prints its index.
impl TraceField for TaskId {
    fn digest(&self, field: &mut impl FnMut(&[u8])) {
        self.job.digest(field);
        field(&self.index.to_le_bytes());
    }
    fn json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{}", self.index);
    }
    fn job(&self) -> Option<JobId> {
        Some(self.job)
    }
}

impl TraceField for Component {
    fn digest(&self, field: &mut impl FnMut(&[u8])) {
        field(self.name().as_bytes());
    }
    fn json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"{self}\"");
    }
}

/// Free text and vocabulary words alike.
impl TraceField for str {
    fn digest(&self, field: &mut impl FnMut(&[u8])) {
        field(self.as_bytes());
    }
    fn json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":\"");
        json_escape_into(self, out);
        out.push('"');
    }
}

impl TraceField for bool {
    fn digest(&self, field: &mut impl FnMut(&[u8])) {
        field(&[*self as u8]);
    }
    fn json(&self, key: &str, out: &mut String) {
        let _ = write!(out, ",\"{key}\":{self}");
    }
}

/// Counts and ids: a little-endian `u64` and a bare JSON number.
macro_rules! number_field {
    ($($ty:ty => |$v:ident| $n:expr),+ $(,)?) => {$(
        impl TraceField for $ty {
            fn digest(&self, field: &mut impl FnMut(&[u8])) {
                let $v = self;
                field(&u64::to_le_bytes($n));
            }
            fn json(&self, key: &str, out: &mut String) {
                let $v = self;
                let _ = write!(out, ",\"{key}\":{}", $n);
            }
        }
    )+};
}

number_field!(
    u64 => |v| *v,
    usize => |v| *v as u64,
    ShardId => |v| v.raw(),
    ContainerId => |v| v.raw(),
);

/// Declare [`TraceData`] from one list. An entry is
/// `tag => Variant("kind", decision | link) { fields }`: the snapshot tag
/// byte, the stable kind string, whether the record is a decision, and the
/// documented fields in digest, JSON and snapshot order. A field is
/// `name: Type`, digested and printed by its type's [`TraceField`], or
/// `name in TABLE`, a `&'static str` word from that vocabulary; either may
/// end in `as "key"` to print under another JSON key. As in `snap_enum!`,
/// two entries with one tag do not compile.
macro_rules! trace_records {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {$(
            $(#[$doc:meta])*
            $tag:literal => $variant:ident($kind:literal, $class:ident) {$(
                $(#[$fdoc:meta])*
                $field:ident $(in $vocab:path)? $(: $fty:ty)? $(as $key:literal)?
            ),+ $(,)?}
        ),+ $(,)?}
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $ty {$(
            $(#[$doc])*
            $variant {$(
                $(#[$fdoc])*
                $field: trace_records!(@type $($fty)? $(in $vocab)?),
            )+},
        )+}

        impl $ty {
            /// Stable snake_case kind tag (JSON, digests, CLI output).
            pub fn kind(&self) -> &'static str {
                match self {$($ty::$variant { .. } => $kind,)+}
            }

            /// The job this record is about, if it is job-scoped.
            pub fn job(&self) -> Option<JobId> {
                match self {$(
                    $ty::$variant { $($field),+ } => None$(.or($field.job()))+,
                )+}
            }

            /// True for records that represent a consequential platform
            /// decision (the records `--explain` anchors a causal chain on).
            /// Spans, fault edges, symptoms and the other `link` records are
            /// chain *links*, not decisions.
            pub fn is_decision(&self) -> bool {
                match self {$($ty::$variant { .. } => trace_records!(@decision $class),)+}
            }

            /// Feed the payload's stable byte encoding into a digest
            /// function: the kind, then each field behind a `0xFE` byte.
            /// Strings are length-free (terminated by the field boundary
            /// byte) but the kind tag plus field order make the encoding
            /// unambiguous for the payloads we produce.
            pub(crate) fn digest_into(&self, eat: &mut impl FnMut(&[u8])) {
                eat(self.kind().as_bytes());
                let mut field = |bytes: &[u8]| {
                    eat(&[0xFE]);
                    eat(bytes);
                };
                match self {$(
                    $ty::$variant { $($field),+ } => {$($field.digest(&mut field);)+}
                )+}
            }

            /// Append the payload's JSON fields (all but the job).
            fn json_fields(&self, out: &mut String) {
                match self {$(
                    $ty::$variant { $($field),+ } => {$(
                        $field.json(trace_records!(@key $field $($key)?), out);
                    )+}
                )+}
            }
        }

        impl Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                match self {$(
                    $ty::$variant { $($field),+ } => {
                        w.u8($tag);
                        $(snap_struct!(@put w, $field $(in $vocab)?);)+
                    }
                )+}
            }

            #[deny(unreachable_patterns)]
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                match r.u8(concat!(stringify!($ty), ".tag"))? {
                    $($tag => Ok($ty::$variant {$(
                        $field: snap_struct!(@get r,
                            concat!(stringify!($ty), ".", $kind) $(, in $vocab)?),
                    )+}),)+
                    tag => Err(SnapError::Tag(stringify!($ty), u64::from(tag))),
                }
            }
        }
    };
    (@type in $vocab:path) => { &'static str };
    (@type $fty:ty) => { $fty };
    (@decision decision) => { true };
    (@decision link) => { false };
    (@key $field:ident $key:literal) => { $key };
    (@key $field:ident) => { stringify!($field) };
}

const SYNC_OUTCOMES: [&str; 4] = ["started", "simple", "complex_completed", "deleted"];
const SLO_TIERS: [&str; 3] = ["best_effort", "standard", "critical"];
const SEVERITIES: [&str; 3] = ["info", "warning", "critical"];

trace_records! {
    /// The typed payload of one trace record.
    pub enum TraceData {
        /// A control-component dispatch span. Only committed to the buffer
        /// once something consequential happens inside the round; empty
        /// rounds leave no record.
        0 => RoundStart("round", link) {
            /// The dispatched component.
            component: Component,
        },
        /// A chaos-engine fault window edge (activation or clearance). The
        /// clearance's cause link points at the matching activation.
        1 => FaultEdge("fault_edge", link) {
            /// The fault's stable label (e.g. `scribe_stall(clicks)`).
            fault: String,
            /// `true` on activation, `false` on clearance.
            activated: bool,
        },
        /// A symptom the Auto Scaler observed on a job, recorded as the
        /// intermediate hop between a root cause (e.g. a fault edge) and the
        /// decision taken in response.
        2 => Symptom("symptom", link) {
            /// The symptomatic job.
            job: JobId,
            /// Short description, e.g. `lagging 400s (SLO 90s)`.
            description: String as "symptom",
        },
        /// A scaling decision written to the Job Store's scaler level.
        3 => ScalingAction("scaling_action", decision) {
            /// The scaled job.
            job: JobId,
            /// Action summary, e.g. `horizontal(tasks=8)`.
            action: String,
        },
        /// The Shard Manager failed over dead containers' shards.
        4 => Failover("failover", decision) {
            /// Number of shard movements in the fail-over batch.
            moves: usize,
        },
        /// A periodic load-balancing rebalance moved shards.
        5 => RebalancePlan("rebalance_plan", decision) {
            /// Number of shard movements in the plan.
            moves: usize,
        },
        /// A targeted shard move (root-causer mitigation).
        6 => ShardMove("shard_move", decision) {
            /// The moved shard.
            shard: ShardId,
            /// Destination container.
            to: ContainerId,
        },
        /// A State Syncer round changed a job's lifecycle state.
        7 => SyncOutcome("sync_outcome", decision) {
            /// The synchronized job.
            job: JobId,
            /// `started`, `simple`, `complex_completed`, or `deleted`.
            outcome in SYNC_OUTCOMES,
        },
        /// The State Syncer quarantined a job after repeated failures.
        8 => Quarantine("quarantine", decision) {
            /// The quarantined job.
            job: JobId,
        },
        /// A task was OOM-killed and scheduled for restart.
        9 => OomRestart("oom_restart", decision) {
            /// The killed task.
            task: TaskId,
            /// The container it ran in.
            container: ContainerId,
        },
        /// A recovered checkpoint sat beyond the Scribe tail (e.g. the WAL
        /// lost a torn tail the checkpoint had already covered) and was
        /// clamped back so readers can resume instead of erroring forever.
        10 => CheckpointClamp("checkpoint_clamp", decision) {
            /// The job whose checkpoint was clamped.
            job: JobId,
            /// The affected partition.
            partition: u64,
            /// The recovered (beyond-tail) offset.
            from: u64,
            /// The tail offset it was clamped to.
            to: u64,
        },
        /// A heartbeat arrived from a container the Shard Manager had already
        /// declared dead and failed over — the container came back and was
        /// silently revived into the fleet.
        11 => ContainerRevived("container_revived", link) {
            /// The revived container.
            container: ContainerId,
            /// Shards still mapped to the container at revival time. Must be
            /// zero: fail-over reassigned them before the revival, and the
            /// invariant checker flags any leftovers.
            stale_shards: usize,
        },
        /// The Shard Manager placed a warm standby for a critical job.
        12 => StandbyPlaced("standby_placed", decision) {
            /// The protected job.
            job: JobId,
            /// The container hosting the standby.
            container: ContainerId,
        },
        /// A warm standby was promoted to primary on the fast fail-over path.
        13 => StandbyPromoted("standby_promoted", decision) {
            /// The recovered job.
            job: JobId,
            /// The standby container that took ownership.
            to: ContainerId,
            /// Number of shard movements in the promotion batch.
            moves: usize,
        },
        /// A job recovered from a fault-attributed outage; the record carries
        /// the per-tier SLO accounting sample.
        14 => SloRecovery("slo_recovery", link) {
            /// The recovered job.
            job: JobId,
            /// The job's resiliency tier (`best_effort`/`standard`/`critical`).
            tier in SLO_TIERS,
            /// Outage duration in milliseconds (fault onset to recovery).
            ms: u64,
            /// True when the recovery went through the warm-standby fast path.
            fast: bool,
        },
        /// The ODS alerting engine opened an incident. The cause link (when
        /// the alert condition is fault-attributable) points at the fault
        /// edge that ultimately produced the breach, so `--explain` walks
        /// from the page back to the root cause.
        15 => Incident("incident", decision) {
            /// The firing rule's name.
            rule: String,
            /// Severity name (`info`/`warning`/`critical`).
            severity in SEVERITIES,
            /// The alerted job, when the rule is job-scoped.
            job: Option<JobId>,
            /// One-line incident description.
            message: String,
        },
        /// The auto root-causer classified an untriaged problem.
        16 => Diagnosis("diagnosis", decision) {
            /// The diagnosed job.
            job: JobId,
            /// Classified cause label, e.g. `dependency_failure`.
            cause: String as "cause_class",
            /// Mitigation label, e.g. `alert_and_wait`.
            mitigation: String,
            /// One-line rationale for the runbook.
            rationale: String,
        },
    }
}

impl TraceData {
    /// One-line human summary (dashboards, `--explain` chains).
    pub fn summary(&self) -> String {
        match self {
            TraceData::RoundStart { component } => format!("{component} round"),
            TraceData::FaultEdge { fault, activated } => {
                let verb = if *activated { "activated" } else { "cleared" };
                format!("fault {verb}: {fault}")
            }
            TraceData::Symptom { job, description } => format!("{job} symptom: {description}"),
            TraceData::ScalingAction { job, action } => format!("{job} scaled: {action}"),
            TraceData::Failover { moves } => format!("fail-over moved {moves} shard(s)"),
            TraceData::RebalancePlan { moves } => format!("rebalance moved {moves} shard(s)"),
            TraceData::ShardMove { shard, to } => format!("{shard} moved to {to}"),
            TraceData::SyncOutcome { job, outcome } => format!("{job} sync: {outcome}"),
            TraceData::Quarantine { job } => format!("{job} quarantined"),
            TraceData::OomRestart { task, container } => {
                format!("{task} OOM-killed on {container}, restart scheduled")
            }
            TraceData::CheckpointClamp {
                job,
                partition,
                from,
                to,
            } => format!("{job} p{partition} checkpoint clamped {from} → {to} (beyond tail)"),
            TraceData::ContainerRevived {
                container,
                stale_shards,
            } => format!(
                "{container} revived after being declared dead ({stale_shards} stale shard(s))"
            ),
            TraceData::StandbyPlaced { job, container } => {
                format!("{job} warm standby placed on {container}")
            }
            TraceData::StandbyPromoted { job, to, moves } => {
                format!("{job} standby on {to} promoted ({moves} shard(s) handed over)")
            }
            TraceData::SloRecovery {
                job,
                tier,
                ms,
                fast,
            } => {
                let path = if *fast { "fast path" } else { "full sync" };
                format!("{job} ({tier}) recovered in {ms}ms via {path}")
            }
            TraceData::Incident {
                rule,
                severity,
                message,
                ..
            } => format!("[{severity}] alert {rule} fired: {message}"),
            TraceData::Diagnosis {
                job,
                cause,
                mitigation,
                rationale,
            } => format!("{job} diagnosed {cause} (mitigation: {mitigation}) — {rationale}"),
        }
    }
}

/// One trace record: when, why (the cause link), and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// This record's id.
    pub id: TraceId,
    /// Simulated time of the record.
    pub at: SimTime,
    /// The record (span or prior event) that triggered this one, if known.
    pub cause: Option<TraceId>,
    /// The typed payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// Render the record as one JSON line (the JSONL export format). All
    /// fields are stable; free-text is JSON-escaped.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"id\":{},\"t_ms\":{},\"kind\":\"{}\"",
            self.id.0,
            self.at.as_millis(),
            self.data.kind()
        );
        if let Some(cause) = self.cause {
            let _ = write!(out, ",\"cause\":{}", cause.0);
        }
        if let Some(job) = self.data.job() {
            let _ = write!(out, ",\"job\":{}", job.raw());
        }
        self.data.json_fields(&mut out);
        out.push('}');
        out
    }
}

snap_struct!(TraceId(raw));

snap_enum!(Component {
    0 => Heartbeat, 1 => TmRefresh, 2 => StateSyncer, 3 => AutoScaler, 4 => LoadReport,
    5 => Rebalance, 6 => CapacityManager, 7 => Checkpoint, 8 => Metrics, 9 => DataPlane,
    10 => ChaosEngine,
});

snap_struct!(TraceEvent {
    id,
    at,
    cause,
    data
});

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::{json_escape, Duration};

    #[test]
    fn component_names_roundtrip() {
        for (i, &c) in COMPONENTS.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(Component::parse(c.name()), Some(c));
        }
        assert_eq!(Component::parse("nope"), None);
    }

    #[test]
    fn job_extraction_and_decision_classes() {
        let d = TraceData::Diagnosis {
            job: JobId(7),
            cause: "hardware_issue".into(),
            mitigation: "move_task".into(),
            rationale: "r".into(),
        };
        assert_eq!(d.job(), Some(JobId(7)));
        assert!(d.is_decision());
        let s = TraceData::RoundStart {
            component: Component::AutoScaler,
        };
        assert_eq!(s.job(), None);
        assert!(!s.is_decision());
        let o = TraceData::OomRestart {
            task: TaskId::new(JobId(3), 2),
            container: ContainerId(9),
        };
        assert_eq!(o.job(), Some(JobId(3)));
    }

    #[test]
    fn resiliency_records_classify_and_serialize() {
        let placed = TraceData::StandbyPlaced {
            job: JobId(2),
            container: ContainerId(11),
        };
        assert_eq!(placed.job(), Some(JobId(2)));
        assert!(placed.is_decision());
        let promoted = TraceData::StandbyPromoted {
            job: JobId(2),
            to: ContainerId(11),
            moves: 3,
        };
        assert!(promoted.is_decision());
        let revived = TraceData::ContainerRevived {
            container: ContainerId(11),
            stale_shards: 0,
        };
        assert_eq!(revived.job(), None);
        assert!(!revived.is_decision());
        let recovery = TraceData::SloRecovery {
            job: JobId(2),
            tier: "critical",
            ms: 20_000,
            fast: true,
        };
        assert!(!recovery.is_decision());
        let e = TraceEvent {
            id: TraceId(1),
            at: SimTime::ZERO,
            cause: None,
            data: recovery,
        };
        let json = e.to_json();
        assert!(json.contains("\"tier\":\"critical\""), "{json}");
        assert!(json.contains("\"ms\":20000"), "{json}");
        assert!(json.contains("\"fast\":true"), "{json}");
    }

    #[test]
    fn json_lines_are_well_formed() {
        let e = TraceEvent {
            id: TraceId(4),
            at: SimTime::ZERO + Duration::from_secs(30),
            cause: Some(TraceId(2)),
            data: TraceData::FaultEdge {
                fault: "scribe_stall(\"clicks\")".into(),
                activated: true,
            },
        };
        let json = e.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cause\":2"));
        assert!(json.contains("\\\"clicks\\\""), "{json}");
    }

    /// One record of every kind (tag order).
    fn one_of_each() -> Vec<TraceData> {
        let job = JobId(5);
        let container = ContainerId(6);
        vec![
            TraceData::RoundStart {
                component: Component::Rebalance,
            },
            TraceData::FaultEdge {
                fault: "scribe_stall(\"c\")".into(),
                activated: true,
            },
            TraceData::Symptom {
                job,
                description: "lagging 400s (SLO 90s)".into(),
            },
            TraceData::ScalingAction {
                job,
                action: "horizontal(tasks=8)".into(),
            },
            TraceData::Failover { moves: 3 },
            TraceData::RebalancePlan { moves: 4 },
            TraceData::ShardMove {
                shard: ShardId(11),
                to: container,
            },
            TraceData::SyncOutcome {
                job,
                outcome: "complex_completed",
            },
            TraceData::Quarantine { job },
            TraceData::OomRestart {
                task: TaskId::new(job, 2),
                container,
            },
            TraceData::CheckpointClamp {
                job,
                partition: 2,
                from: 900,
                to: 800,
            },
            TraceData::ContainerRevived {
                container,
                stale_shards: 1,
            },
            TraceData::StandbyPlaced { job, container },
            TraceData::StandbyPromoted {
                job,
                to: container,
                moves: 7,
            },
            TraceData::SloRecovery {
                job,
                tier: "critical",
                ms: 20_000,
                fast: true,
            },
            TraceData::Incident {
                rule: "lag_high".into(),
                severity: "warning",
                job: None,
                message: "lag \"90s\"".into(),
            },
            TraceData::Diagnosis {
                job,
                cause: "dependency_failure".into(),
                mitigation: "alert_and_wait".into(),
                rationale: "input stalled".into(),
            },
        ]
    }

    fn line(data: TraceData) -> String {
        TraceEvent {
            id: TraceId(9),
            at: SimTime::from_millis(1500),
            cause: Some(TraceId(8)),
            data,
        }
        .to_json()
    }

    fn digest_bytes(data: &TraceData) -> Vec<u8> {
        let mut bytes = Vec::new();
        data.digest_into(&mut |b| bytes.extend_from_slice(b));
        bytes
    }

    /// [`one_of_each`]'s JSON lines and digest bytes, written out: the trace
    /// format is a replay contract, so these never change for a refactor.
    const PINS: [(&str, &[u8]); 17] = [
        (
            r#"{"id":9,"t_ms":1500,"kind":"round","cause":8,"component":"rebalance"}"#,
            b"round\xFErebalance",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"fault_edge","cause":8,"fault":"scribe_stall(\"c\")","activated":true}"#,
            b"fault_edge\xFEscribe_stall(\"c\")\xFE\x01",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"symptom","cause":8,"job":5,"symptom":"lagging 400s (SLO 90s)"}"#,
            b"symptom\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFElagging 400s (SLO 90s)",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"scaling_action","cause":8,"job":5,"action":"horizontal(tasks=8)"}"#,
            b"scaling_action\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFEhorizontal(tasks=8)",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"failover","cause":8,"moves":3}"#,
            b"failover\xFE\x03\x00\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"rebalance_plan","cause":8,"moves":4}"#,
            b"rebalance_plan\xFE\x04\x00\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"shard_move","cause":8,"shard":11,"to":6}"#,
            b"shard_move\xFE\x0B\x00\x00\x00\x00\x00\x00\x00\xFE\x06\x00\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"sync_outcome","cause":8,"job":5,"outcome":"complex_completed"}"#,
            b"sync_outcome\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFEcomplex_completed",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"quarantine","cause":8,"job":5}"#,
            b"quarantine\xFE\x05\x00\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"oom_restart","cause":8,"job":5,"task":2,"container":6}"#,
            b"oom_restart\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFE\x02\x00\x00\x00\xFE\x06\x00\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"checkpoint_clamp","cause":8,"job":5,"partition":2,"from":900,"to":800}"#,
            b"checkpoint_clamp\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFE\x02\x00\x00\x00\x00\x00\x00\x00\xFE\x84\x03\x00\x00\x00\x00\x00\x00\xFE \x03\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"container_revived","cause":8,"container":6,"stale_shards":1}"#,
            b"container_revived\xFE\x06\x00\x00\x00\x00\x00\x00\x00\xFE\x01\x00\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"standby_placed","cause":8,"job":5,"container":6}"#,
            b"standby_placed\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFE\x06\x00\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"standby_promoted","cause":8,"job":5,"to":6,"moves":7}"#,
            b"standby_promoted\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFE\x06\x00\x00\x00\x00\x00\x00\x00\xFE\x07\x00\x00\x00\x00\x00\x00\x00",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"slo_recovery","cause":8,"job":5,"tier":"critical","ms":20000,"fast":true}"#,
            b"slo_recovery\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFEcritical\xFE N\x00\x00\x00\x00\x00\x00\xFE\x01",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"incident","cause":8,"rule":"lag_high","severity":"warning","message":"lag \"90s\""}"#,
            b"incident\xFElag_high\xFEwarning\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFElag \"90s\"",
        ),
        (
            r#"{"id":9,"t_ms":1500,"kind":"diagnosis","cause":8,"job":5,"cause_class":"dependency_failure","mitigation":"alert_and_wait","rationale":"input stalled"}"#,
            b"diagnosis\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFEdependency_failure\xFEalert_and_wait\xFEinput stalled",
        ),
    ];

    #[test]
    fn every_kind_pins_its_json_line_and_digest_bytes() {
        for (data, (json, digest)) in one_of_each().into_iter().zip(PINS) {
            assert_eq!(digest_bytes(&data), digest, "{}", data.kind());
            assert_eq!(line(data), json);
        }
        // A job-scoped incident: the job digests in place and prints once.
        let incident = TraceData::Incident {
            rule: "r".into(),
            severity: "critical",
            job: Some(JobId(5)),
            message: "m".into(),
        };
        assert_eq!(
            digest_bytes(&incident),
            b"incident\xFEr\xFEcritical\xFE\x05\x00\x00\x00\x00\x00\x00\x00\xFEm"
        );
        assert_eq!(
            line(incident),
            r#"{"id":9,"t_ms":1500,"kind":"incident","cause":8,"job":5,"rule":"r","severity":"critical","message":"m"}"#
        );
    }

    #[test]
    fn kinds_are_unique_and_tags_dense() {
        let records = one_of_each();
        assert_eq!(records.len(), 17);
        let kinds: std::collections::BTreeSet<&str> = records.iter().map(TraceData::kind).collect();
        assert_eq!(kinds.len(), records.len(), "a kind string is reused");
        for (tag, data) in records.iter().enumerate() {
            let mut w = SnapWriter::new();
            w.put(data);
            let bytes = w.into_bytes();
            assert_eq!(usize::from(bytes[0]), tag, "{}", data.kind());
            assert_eq!(
                SnapReader::new(&bytes).get::<TraceData>().as_ref(),
                Ok(data)
            );
        }
        // No variant sits past the table, so the table is every variant.
        for tag in 17..=u8::MAX {
            assert_eq!(
                SnapReader::new(&[tag]).get::<TraceData>(),
                Err(SnapError::Tag("TraceData", u64::from(tag)))
            );
        }
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
