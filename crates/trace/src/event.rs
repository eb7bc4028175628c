//! The trace record taxonomy: components, event data, and the stable
//! serializations (digest bytes, JSON) every record carries.

use std::fmt;
use turbine_types::{json_escape, ContainerId, JobId, ShardId, SimTime, TaskId};

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

/// The typed payload of one trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceData {
    /// A control-component dispatch span. Only committed to the buffer
    /// once something consequential happens inside the round; empty
    /// rounds leave no record.
    RoundStart {
        /// The dispatched component.
        component: Component,
    },
    /// A chaos-engine fault window edge (activation or clearance). The
    /// clearance's cause link points at the matching activation.
    FaultEdge {
        /// The fault's stable label (e.g. `scribe_stall(clicks)`).
        fault: String,
        /// `true` on activation, `false` on clearance.
        activated: bool,
    },
    /// A symptom the Auto Scaler observed on a job, recorded as the
    /// intermediate hop between a root cause (e.g. a fault edge) and the
    /// decision taken in response.
    Symptom {
        /// The symptomatic job.
        job: JobId,
        /// Short description, e.g. `lagging 400s (SLO 90s)`.
        description: String,
    },
    /// A scaling decision written to the Job Store's scaler level.
    ScalingAction {
        /// The scaled job.
        job: JobId,
        /// Action summary, e.g. `horizontal(tasks=8)`.
        action: String,
    },
    /// The Shard Manager failed over dead containers' shards.
    Failover {
        /// Number of shard movements in the fail-over batch.
        moves: usize,
    },
    /// A periodic load-balancing rebalance moved shards.
    RebalancePlan {
        /// Number of shard movements in the plan.
        moves: usize,
    },
    /// A targeted shard move (root-causer mitigation).
    ShardMove {
        /// The moved shard.
        shard: ShardId,
        /// Destination container.
        to: ContainerId,
    },
    /// A State Syncer round changed a job's lifecycle state.
    SyncOutcome {
        /// The synchronized job.
        job: JobId,
        /// `started`, `simple`, `complex_completed`, or `deleted`.
        outcome: &'static str,
    },
    /// The State Syncer quarantined a job after repeated failures.
    Quarantine {
        /// The quarantined job.
        job: JobId,
    },
    /// A task was OOM-killed and scheduled for restart.
    OomRestart {
        /// The killed task.
        task: TaskId,
        /// The container it ran in.
        container: ContainerId,
    },
    /// A recovered checkpoint sat beyond the Scribe tail (e.g. the WAL
    /// lost a torn tail the checkpoint had already covered) and was
    /// clamped back so readers can resume instead of erroring forever.
    CheckpointClamp {
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
    ContainerRevived {
        /// The revived container.
        container: ContainerId,
        /// Shards still mapped to the container at revival time. Must be
        /// zero: fail-over reassigned them before the revival, and the
        /// invariant checker flags any leftovers.
        stale_shards: usize,
    },
    /// The Shard Manager placed a warm standby for a critical job.
    StandbyPlaced {
        /// The protected job.
        job: JobId,
        /// The container hosting the standby.
        container: ContainerId,
    },
    /// A warm standby was promoted to primary on the fast fail-over path.
    StandbyPromoted {
        /// The recovered job.
        job: JobId,
        /// The standby container that took ownership.
        to: ContainerId,
        /// Number of shard movements in the promotion batch.
        moves: usize,
    },
    /// A job recovered from a fault-attributed outage; the record carries
    /// the per-tier SLO accounting sample.
    SloRecovery {
        /// The recovered job.
        job: JobId,
        /// The job's resiliency tier (`best_effort`/`standard`/`critical`).
        tier: &'static str,
        /// Outage duration in milliseconds (fault onset to recovery).
        ms: u64,
        /// True when the recovery went through the warm-standby fast path.
        fast: bool,
    },
    /// The ODS alerting engine opened an incident. The cause link (when
    /// the alert condition is fault-attributable) points at the fault
    /// edge that ultimately produced the breach, so `--explain` walks
    /// from the page back to the root cause.
    Incident {
        /// The firing rule's name.
        rule: String,
        /// Severity name (`info`/`warning`/`critical`).
        severity: &'static str,
        /// The alerted job, when the rule is job-scoped.
        job: Option<JobId>,
        /// One-line incident description.
        message: String,
    },
    /// The auto root-causer classified an untriaged problem.
    Diagnosis {
        /// The diagnosed job.
        job: JobId,
        /// Classified cause label, e.g. `dependency_failure`.
        cause: String,
        /// Mitigation label, e.g. `alert_and_wait`.
        mitigation: String,
        /// One-line rationale for the runbook.
        rationale: String,
    },
}

impl TraceData {
    /// Stable snake_case kind tag (JSON, digests, CLI output).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceData::RoundStart { .. } => "round",
            TraceData::FaultEdge { .. } => "fault_edge",
            TraceData::Symptom { .. } => "symptom",
            TraceData::ScalingAction { .. } => "scaling_action",
            TraceData::Failover { .. } => "failover",
            TraceData::RebalancePlan { .. } => "rebalance_plan",
            TraceData::ShardMove { .. } => "shard_move",
            TraceData::SyncOutcome { .. } => "sync_outcome",
            TraceData::Quarantine { .. } => "quarantine",
            TraceData::OomRestart { .. } => "oom_restart",
            TraceData::CheckpointClamp { .. } => "checkpoint_clamp",
            TraceData::ContainerRevived { .. } => "container_revived",
            TraceData::StandbyPlaced { .. } => "standby_placed",
            TraceData::StandbyPromoted { .. } => "standby_promoted",
            TraceData::SloRecovery { .. } => "slo_recovery",
            TraceData::Incident { .. } => "incident",
            TraceData::Diagnosis { .. } => "diagnosis",
        }
    }

    /// The job this record is about, if it is job-scoped.
    pub fn job(&self) -> Option<JobId> {
        match self {
            TraceData::Symptom { job, .. }
            | TraceData::ScalingAction { job, .. }
            | TraceData::SyncOutcome { job, .. }
            | TraceData::Quarantine { job }
            | TraceData::CheckpointClamp { job, .. }
            | TraceData::StandbyPlaced { job, .. }
            | TraceData::StandbyPromoted { job, .. }
            | TraceData::SloRecovery { job, .. }
            | TraceData::Diagnosis { job, .. } => Some(*job),
            TraceData::OomRestart { task, .. } => Some(task.job),
            TraceData::Incident { job, .. } => *job,
            _ => None,
        }
    }

    /// True for records that represent a consequential platform decision
    /// (the records `--explain` anchors a causal chain on). Spans, fault
    /// edges, and symptoms are chain *links*, not decisions.
    pub fn is_decision(&self) -> bool {
        matches!(
            self,
            TraceData::ScalingAction { .. }
                | TraceData::Failover { .. }
                | TraceData::RebalancePlan { .. }
                | TraceData::ShardMove { .. }
                | TraceData::SyncOutcome { .. }
                | TraceData::Quarantine { .. }
                | TraceData::OomRestart { .. }
                | TraceData::CheckpointClamp { .. }
                | TraceData::StandbyPlaced { .. }
                | TraceData::StandbyPromoted { .. }
                | TraceData::Incident { .. }
                | TraceData::Diagnosis { .. }
        )
    }

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

    /// Feed the payload's stable byte encoding into a digest function.
    /// Strings are length-free (terminated by the field boundary byte) but
    /// the kind tag plus field order make the encoding unambiguous for the
    /// payloads we produce.
    pub(crate) fn digest_into(&self, eat: &mut impl FnMut(&[u8])) {
        eat(self.kind().as_bytes());
        let mut field = |bytes: &[u8]| {
            eat(&[0xFE]);
            eat(bytes);
        };
        match self {
            TraceData::RoundStart { component } => field(component.name().as_bytes()),
            TraceData::FaultEdge { fault, activated } => {
                field(fault.as_bytes());
                field(&[*activated as u8]);
            }
            TraceData::Symptom { job, description } => {
                field(&job.raw().to_le_bytes());
                field(description.as_bytes());
            }
            TraceData::ScalingAction { job, action } => {
                field(&job.raw().to_le_bytes());
                field(action.as_bytes());
            }
            TraceData::Failover { moves } | TraceData::RebalancePlan { moves } => {
                field(&(*moves as u64).to_le_bytes());
            }
            TraceData::ShardMove { shard, to } => {
                field(&shard.raw().to_le_bytes());
                field(&to.raw().to_le_bytes());
            }
            TraceData::SyncOutcome { job, outcome } => {
                field(&job.raw().to_le_bytes());
                field(outcome.as_bytes());
            }
            TraceData::Quarantine { job } => field(&job.raw().to_le_bytes()),
            TraceData::OomRestart { task, container } => {
                field(&task.job.raw().to_le_bytes());
                field(&task.index.to_le_bytes());
                field(&container.raw().to_le_bytes());
            }
            TraceData::CheckpointClamp {
                job,
                partition,
                from,
                to,
            } => {
                field(&job.raw().to_le_bytes());
                field(&partition.to_le_bytes());
                field(&from.to_le_bytes());
                field(&to.to_le_bytes());
            }
            TraceData::ContainerRevived {
                container,
                stale_shards,
            } => {
                field(&container.raw().to_le_bytes());
                field(&(*stale_shards as u64).to_le_bytes());
            }
            TraceData::StandbyPlaced { job, container } => {
                field(&job.raw().to_le_bytes());
                field(&container.raw().to_le_bytes());
            }
            TraceData::StandbyPromoted { job, to, moves } => {
                field(&job.raw().to_le_bytes());
                field(&to.raw().to_le_bytes());
                field(&(*moves as u64).to_le_bytes());
            }
            TraceData::SloRecovery {
                job,
                tier,
                ms,
                fast,
            } => {
                field(&job.raw().to_le_bytes());
                field(tier.as_bytes());
                field(&ms.to_le_bytes());
                field(&[*fast as u8]);
            }
            TraceData::Incident {
                rule,
                severity,
                job,
                message,
            } => {
                field(rule.as_bytes());
                field(severity.as_bytes());
                field(&job.map_or(u64::MAX, |j| j.raw()).to_le_bytes());
                field(message.as_bytes());
            }
            TraceData::Diagnosis {
                job,
                cause,
                mitigation,
                rationale,
            } => {
                field(&job.raw().to_le_bytes());
                field(cause.as_bytes());
                field(mitigation.as_bytes());
                field(rationale.as_bytes());
            }
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
    /// fields are stable; free-text goes through [`json_escape`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"id\":{},\"t_ms\":{},\"kind\":\"{}\"",
            self.id.0,
            self.at.as_millis(),
            self.data.kind()
        ));
        if let Some(cause) = self.cause {
            out.push_str(&format!(",\"cause\":{}", cause.0));
        }
        if let Some(job) = self.data.job() {
            out.push_str(&format!(",\"job\":{}", job.raw()));
        }
        match &self.data {
            TraceData::RoundStart { component } => {
                out.push_str(&format!(",\"component\":\"{component}\""));
            }
            TraceData::FaultEdge { fault, activated } => {
                out.push_str(&format!(
                    ",\"fault\":\"{}\",\"activated\":{activated}",
                    json_escape(fault)
                ));
            }
            TraceData::Symptom { description, .. } => {
                out.push_str(&format!(",\"symptom\":\"{}\"", json_escape(description)));
            }
            TraceData::ScalingAction { action, .. } => {
                out.push_str(&format!(",\"action\":\"{}\"", json_escape(action)));
            }
            TraceData::Failover { moves } | TraceData::RebalancePlan { moves } => {
                out.push_str(&format!(",\"moves\":{moves}"));
            }
            TraceData::ShardMove { shard, to } => {
                out.push_str(&format!(",\"shard\":{},\"to\":{}", shard.raw(), to.raw()));
            }
            TraceData::SyncOutcome { outcome, .. } => {
                out.push_str(&format!(",\"outcome\":\"{outcome}\""));
            }
            TraceData::Quarantine { .. } => {}
            TraceData::OomRestart { task, container } => {
                out.push_str(&format!(
                    ",\"task\":{},\"container\":{}",
                    task.index,
                    container.raw()
                ));
            }
            TraceData::CheckpointClamp {
                partition,
                from,
                to,
                ..
            } => {
                out.push_str(&format!(
                    ",\"partition\":{partition},\"from\":{from},\"to\":{to}"
                ));
            }
            TraceData::ContainerRevived {
                container,
                stale_shards,
            } => {
                out.push_str(&format!(
                    ",\"container\":{},\"stale_shards\":{stale_shards}",
                    container.raw()
                ));
            }
            TraceData::StandbyPlaced { container, .. } => {
                out.push_str(&format!(",\"container\":{}", container.raw()));
            }
            TraceData::StandbyPromoted { to, moves, .. } => {
                out.push_str(&format!(",\"to\":{},\"moves\":{moves}", to.raw()));
            }
            TraceData::SloRecovery { tier, ms, fast, .. } => {
                out.push_str(&format!(",\"tier\":\"{tier}\",\"ms\":{ms},\"fast\":{fast}"));
            }
            TraceData::Incident {
                rule,
                severity,
                message,
                ..
            } => {
                out.push_str(&format!(
                    ",\"rule\":\"{}\",\"severity\":\"{severity}\",\"message\":\"{}\"",
                    json_escape(rule),
                    json_escape(message)
                ));
            }
            TraceData::Diagnosis {
                cause,
                mitigation,
                rationale,
                ..
            } => {
                out.push_str(&format!(
                    ",\"cause_class\":\"{}\",\"mitigation\":\"{}\",\"rationale\":\"{}\"",
                    json_escape(cause),
                    json_escape(mitigation),
                    json_escape(rationale)
                ));
            }
        }
        out.push('}');
        out
    }
}

use turbine_types::{snap_enum, snap_struct, Snap, SnapError, SnapReader, SnapWriter};

snap_struct!(TraceId(raw));

snap_enum!(Component {
    0 => Heartbeat, 1 => TmRefresh, 2 => StateSyncer, 3 => AutoScaler, 4 => LoadReport,
    5 => Rebalance, 6 => CapacityManager, 7 => Checkpoint, 8 => Metrics, 9 => DataPlane,
    10 => ChaosEngine,
});

/// Intern a decoded string back to the `&'static str` vocabulary a trace
/// field draws from. Restore must reproduce pointer-free static strings, so
/// any value outside the table is a corrupt blob, not a new vocabulary word.
fn intern_static(
    what: &'static str,
    table: &[&'static str],
    value: &str,
) -> Result<&'static str, SnapError> {
    table
        .iter()
        .copied()
        .find(|s| *s == value)
        .ok_or(SnapError::Value(what))
}

const SYNC_OUTCOMES: [&str; 4] = ["started", "simple", "complex_completed", "deleted"];
const SLO_TIERS: [&str; 3] = ["best_effort", "standard", "critical"];
const SEVERITIES: [&str; 3] = ["info", "warning", "critical"];

// By hand: three variants carry a `&'static str` drawn from a per-field
// vocabulary (`SYNC_OUTCOMES`, `SLO_TIERS`, `SEVERITIES`). They are written
// as text and interned back against their own table, which `snap_enum!`'s
// type-directed `get` cannot do without changing the public field types or
// accepting one field's words in another. `snap_tags.rs` pins every tag.
impl Snap for TraceData {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            TraceData::RoundStart { component } => {
                w.u8(0);
                w.put(component);
            }
            TraceData::FaultEdge { fault, activated } => {
                w.u8(1);
                w.put(fault);
                w.put(activated);
            }
            TraceData::Symptom { job, description } => {
                w.u8(2);
                w.put(job);
                w.put(description);
            }
            TraceData::ScalingAction { job, action } => {
                w.u8(3);
                w.put(job);
                w.put(action);
            }
            TraceData::Failover { moves } => {
                w.u8(4);
                w.put(moves);
            }
            TraceData::RebalancePlan { moves } => {
                w.u8(5);
                w.put(moves);
            }
            TraceData::ShardMove { shard, to } => {
                w.u8(6);
                w.put(shard);
                w.put(to);
            }
            TraceData::SyncOutcome { job, outcome } => {
                w.u8(7);
                w.put(job);
                w.put(&outcome.to_string());
            }
            TraceData::Quarantine { job } => {
                w.u8(8);
                w.put(job);
            }
            TraceData::OomRestart { task, container } => {
                w.u8(9);
                w.put(task);
                w.put(container);
            }
            TraceData::CheckpointClamp {
                job,
                partition,
                from,
                to,
            } => {
                w.u8(10);
                w.put(job);
                w.u64(*partition);
                w.u64(*from);
                w.u64(*to);
            }
            TraceData::ContainerRevived {
                container,
                stale_shards,
            } => {
                w.u8(11);
                w.put(container);
                w.put(stale_shards);
            }
            TraceData::StandbyPlaced { job, container } => {
                w.u8(12);
                w.put(job);
                w.put(container);
            }
            TraceData::StandbyPromoted { job, to, moves } => {
                w.u8(13);
                w.put(job);
                w.put(to);
                w.put(moves);
            }
            TraceData::SloRecovery {
                job,
                tier,
                ms,
                fast,
            } => {
                w.u8(14);
                w.put(job);
                w.put(&tier.to_string());
                w.u64(*ms);
                w.put(fast);
            }
            TraceData::Incident {
                rule,
                severity,
                job,
                message,
            } => {
                w.u8(15);
                w.put(rule);
                w.put(&severity.to_string());
                w.put(job);
                w.put(message);
            }
            TraceData::Diagnosis {
                job,
                cause,
                mitigation,
                rationale,
            } => {
                w.u8(16);
                w.put(job);
                w.put(cause);
                w.put(mitigation);
                w.put(rationale);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8("TraceData.tag")? {
            0 => Ok(TraceData::RoundStart {
                component: r.get()?,
            }),
            1 => Ok(TraceData::FaultEdge {
                fault: r.get()?,
                activated: r.get()?,
            }),
            2 => Ok(TraceData::Symptom {
                job: r.get()?,
                description: r.get()?,
            }),
            3 => Ok(TraceData::ScalingAction {
                job: r.get()?,
                action: r.get()?,
            }),
            4 => Ok(TraceData::Failover { moves: r.get()? }),
            5 => Ok(TraceData::RebalancePlan { moves: r.get()? }),
            6 => Ok(TraceData::ShardMove {
                shard: r.get()?,
                to: r.get()?,
            }),
            7 => Ok(TraceData::SyncOutcome {
                job: r.get()?,
                outcome: intern_static(
                    "TraceData.sync_outcome",
                    &SYNC_OUTCOMES,
                    &r.get::<String>()?,
                )?,
            }),
            8 => Ok(TraceData::Quarantine { job: r.get()? }),
            9 => Ok(TraceData::OomRestart {
                task: r.get()?,
                container: r.get()?,
            }),
            10 => Ok(TraceData::CheckpointClamp {
                job: r.get()?,
                partition: r.u64("TraceData.partition")?,
                from: r.u64("TraceData.from")?,
                to: r.u64("TraceData.to")?,
            }),
            11 => Ok(TraceData::ContainerRevived {
                container: r.get()?,
                stale_shards: r.get()?,
            }),
            12 => Ok(TraceData::StandbyPlaced {
                job: r.get()?,
                container: r.get()?,
            }),
            13 => Ok(TraceData::StandbyPromoted {
                job: r.get()?,
                to: r.get()?,
                moves: r.get()?,
            }),
            14 => Ok(TraceData::SloRecovery {
                job: r.get()?,
                tier: intern_static("TraceData.slo_tier", &SLO_TIERS, &r.get::<String>()?)?,
                ms: r.u64("TraceData.ms")?,
                fast: r.get()?,
            }),
            15 => Ok(TraceData::Incident {
                rule: r.get()?,
                severity: intern_static("TraceData.severity", &SEVERITIES, &r.get::<String>()?)?,
                job: r.get()?,
                message: r.get()?,
            }),
            16 => Ok(TraceData::Diagnosis {
                job: r.get()?,
                cause: r.get()?,
                mitigation: r.get()?,
                rationale: r.get()?,
            }),
            tag => Err(SnapError::Tag("TraceData", tag as u64)),
        }
    }
}

snap_struct!(TraceEvent {
    id,
    at,
    cause,
    data
});

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::Duration;

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

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
