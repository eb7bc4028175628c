//! Every enum's tag table, pinned byte for byte.
//!
//! The format golden (`snapshot_restore.rs`) drives one platform for thirty
//! minutes; the variants that run never produces (most alert rule kinds, a
//! mitigation, a traffic event, the rarer trace records) appear in no blob
//! it checks. These tables encode a value of **every** variant of every
//! snapshotted enum against literal bytes and decode them back, so a tag
//! that moves fails here and not on a blob from the field. The structs the
//! golden platform leaves at their defaults get an
//! `encode → decode → encode` byte-equality check beside them.

use std::fmt::Debug;
use turbine::{
    ControlEvent, Fault, FaultPlan, Incident, InvariantConfig, MetricKey, OdsScope, RuleKind,
    Severity, ThresholdOp, TraceComponent, TraceData, TurbineConfig, Violation,
};
use turbine_autoscaler::{Mitigation, PatternConfig, RootCause, ScalerConfig, ScalerMode};
use turbine_config::{ConfigValue, MemoryEnforcement, ResiliencyClass};
use turbine_jobstore::WalSalvage;
use turbine_shardmgr::{ContainerStatus, PlacementConfig, ShardManagerConfig};
use turbine_snap::SnapshotMeta;
use turbine_statesyncer::SyncerConfig;
use turbine_types::{
    ContainerId, Duration, JobId, Priority, ShardId, SimTime, Snap, SnapError, SnapReader,
    SnapWriter, TaskId,
};
use turbine_workloads::TrafficEventKind;

fn encode<T: Snap>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(value);
    w.into_bytes()
}

fn decode<T: Snap>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = SnapReader::new(bytes);
    let value = r.get()?;
    r.expect_end()?;
    Ok(value)
}

/// A tag byte followed by its payload parts.
fn row(tag: u8, parts: &[&[u8]]) -> Vec<u8> {
    let mut bytes = vec![tag];
    for part in parts {
        bytes.extend_from_slice(part);
    }
    bytes
}

fn n(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

fn f(v: f64) -> [u8; 8] {
    v.to_bits().to_le_bytes()
}

/// A string on the wire: its length, then its bytes.
fn s(v: &str) -> Vec<u8> {
    [&n(v.len() as u64)[..], v.as_bytes()].concat()
}

/// Each value encodes to exactly its row and decodes back from it, and the
/// first tag past the table is refused by name.
fn pin<T: Snap + PartialEq + Debug>(name: &'static str, table: Vec<(T, Vec<u8>)>) {
    for (value, bytes) in &table {
        assert_eq!(&encode(value), bytes, "{name}: {value:?}");
        assert_eq!(decode::<T>(bytes).as_ref(), Ok(value), "{name}: {bytes:?}");
    }
    let past = table.len() as u8;
    assert_eq!(
        decode::<T>(&[past]),
        Err(SnapError::Tag(name, u64::from(past))),
        "{name}: tag {past} names no variant"
    );
}

/// Plain (payload-free) variants: the tags count up from zero in the order
/// given.
fn pin_units<T: Snap + PartialEq + Debug>(name: &'static str, variants: Vec<T>) {
    let table = variants
        .into_iter()
        .enumerate()
        .map(|(tag, v)| (v, vec![tag as u8]))
        .collect();
    pin(name, table);
}

#[test]
fn priority_tags() {
    use Priority::*;
    pin_units("Priority", vec![Low, Normal, High, Privileged]);
}

#[test]
fn memory_enforcement_tags() {
    use MemoryEnforcement::*;
    pin_units("MemoryEnforcement", vec![Cgroup, Jvm, SoftLimit]);
}

#[test]
fn resiliency_class_tags() {
    use ResiliencyClass::*;
    pin_units("ResiliencyClass", vec![BestEffort, Standard, Critical]);
}

#[test]
fn scaler_mode_tags() {
    pin_units("ScalerMode", vec![ScalerMode::Reactive, ScalerMode::Full]);
}

#[test]
fn container_status_tags() {
    pin_units(
        "ContainerStatus",
        vec![ContainerStatus::Alive, ContainerStatus::Dead],
    );
}

#[test]
fn severity_and_threshold_op_tags() {
    use Severity::*;
    pin_units("Severity", vec![Info, Warning, Critical]);
    pin_units("ThresholdOp", vec![ThresholdOp::Above, ThresholdOp::Below]);
}

#[test]
fn trace_component_tags() {
    use TraceComponent::*;
    pin_units(
        "Component",
        vec![
            Heartbeat,
            TmRefresh,
            StateSyncer,
            AutoScaler,
            LoadReport,
            Rebalance,
            CapacityManager,
            Checkpoint,
            Metrics,
            DataPlane,
            ChaosEngine,
        ],
    );
}

#[test]
fn control_event_tags() {
    use ControlEvent::*;
    pin_units(
        "ControlEvent",
        vec![
            Heartbeat,
            TmRefresh,
            SyncRound,
            ScalerRound,
            LoadReport,
            Rebalance,
            CapacityRound,
            Checkpoint,
            MetricsSample,
            FaultEdge,
            TaskRestartDue,
        ],
    );
}

#[test]
fn fault_tags() {
    pin(
        "Fault",
        vec![
            (Fault::TaskServiceDown, row(0, &[])),
            (Fault::JobStoreDown, row(1, &[])),
            (Fault::HeartbeatLoss(ContainerId(7)), row(2, &[&n(7)])),
            (Fault::SyncerCrash, row(3, &[])),
            (Fault::ScribeStall("cat".into()), row(4, &[&s("cat")])),
        ],
    );
}

#[test]
fn rule_kind_tags() {
    let window = Duration::from_secs(90);
    pin(
        "RuleKind",
        vec![
            (
                RuleKind::Threshold {
                    op: ThresholdOp::Below,
                    value: 0.5,
                },
                row(0, &[&[1], &f(0.5)]),
            ),
            (
                RuleKind::Absence { stale_for: window },
                row(1, &[&n(90_000)]),
            ),
            (
                RuleKind::RateOfChange {
                    window,
                    per_sec: -2.0,
                },
                row(2, &[&n(90_000), &f(-2.0)]),
            ),
            (
                RuleKind::BurnRate {
                    window,
                    budget_ms: 1500.0,
                },
                row(3, &[&n(90_000), &f(1500.0)]),
            ),
        ],
    );
}

#[test]
fn ods_scope_tags() {
    pin(
        "Scope",
        vec![
            (OdsScope::Platform, row(0, &[])),
            (
                OdsScope::Component("syncer".into()),
                row(1, &[&s("syncer")]),
            ),
            (OdsScope::Job(9), row(2, &[&n(9)])),
            (OdsScope::Host(4), row(3, &[&n(4)])),
            (OdsScope::Tier("critical".into()), row(4, &[&s("critical")])),
        ],
    );
}

#[test]
fn traffic_event_kind_tags() {
    pin(
        "TrafficEventKind",
        vec![
            (TrafficEventKind::Multiplier(1.5), row(0, &[&f(1.5)])),
            (
                TrafficEventKind::RampedMultiplier {
                    peak: 3.0,
                    ramp_mins: 20,
                },
                row(1, &[&f(3.0), &n(20)]),
            ),
            (TrafficEventKind::ConsumerDisabled, row(2, &[])),
            (TrafficEventKind::InputOutage, row(3, &[])),
        ],
    );
}

fn task(job: u64, index: u32) -> (TaskId, Vec<u8>) {
    let id = TaskId {
        job: JobId(job),
        index,
    };
    (id, [&n(job)[..], &index.to_le_bytes()].concat())
}

#[test]
fn root_cause_and_mitigation_tags() {
    let (id, id_bytes) = task(3, 2);
    pin(
        "RootCause",
        vec![
            (RootCause::HardwareIssue { task: id }, row(0, &[&id_bytes])),
            (
                RootCause::BadUserUpdate {
                    suspect_version: 8,
                    previous_version: 7,
                },
                row(1, &[&n(8), &n(7)]),
            ),
            (RootCause::DependencyFailure, row(2, &[])),
            (RootCause::Unknown, row(3, &[])),
        ],
    );
    pin(
        "Mitigation",
        vec![
            (Mitigation::MoveTask(id), row(0, &[&id_bytes])),
            (Mitigation::RecommendRollback(7), row(1, &[&n(7)])),
            (Mitigation::AlertAndWait, row(2, &[])),
        ],
    );
}

#[test]
fn config_value_tags() {
    let map: turbine_config::ConfigMap = [("k".to_string(), ConfigValue::Int(-1))]
        .into_iter()
        .collect();
    pin(
        "ConfigValue",
        vec![
            (ConfigValue::Null, row(0, &[])),
            (ConfigValue::Bool(true), row(1, &[&[1]])),
            (ConfigValue::Int(-1), row(2, &[&n(u64::MAX)])),
            (ConfigValue::Float(0.25), row(3, &[&f(0.25)])),
            (ConfigValue::Str("v".into()), row(4, &[&s("v")])),
            (
                ConfigValue::Array(vec![ConfigValue::Null]),
                row(5, &[&n(1), &[0]]),
            ),
            (
                ConfigValue::Map(map),
                row(6, &[&n(1), &s("k"), &[2], &n(u64::MAX)]),
            ),
        ],
    );
}

#[test]
fn trace_data_tags() {
    let job = JobId(5);
    let container = ContainerId(6);
    let (id, id_bytes) = task(5, 1);
    pin(
        "TraceData",
        vec![
            (
                TraceData::RoundStart {
                    component: TraceComponent::Rebalance,
                },
                row(0, &[&[5]]),
            ),
            (
                TraceData::FaultEdge {
                    fault: "x".into(),
                    activated: true,
                },
                row(1, &[&s("x"), &[1]]),
            ),
            (
                TraceData::Symptom {
                    job,
                    description: "lag".into(),
                },
                row(2, &[&n(5), &s("lag")]),
            ),
            (
                TraceData::ScalingAction {
                    job,
                    action: "up".into(),
                },
                row(3, &[&n(5), &s("up")]),
            ),
            (TraceData::Failover { moves: 3 }, row(4, &[&n(3)])),
            (TraceData::RebalancePlan { moves: 4 }, row(5, &[&n(4)])),
            (
                TraceData::ShardMove {
                    shard: ShardId(11),
                    to: container,
                },
                row(6, &[&n(11), &n(6)]),
            ),
            (
                TraceData::SyncOutcome {
                    job,
                    outcome: "complex_completed",
                },
                row(7, &[&n(5), &s("complex_completed")]),
            ),
            (TraceData::Quarantine { job }, row(8, &[&n(5)])),
            (
                TraceData::OomRestart {
                    task: id,
                    container,
                },
                row(9, &[&id_bytes, &n(6)]),
            ),
            (
                TraceData::CheckpointClamp {
                    job,
                    partition: 2,
                    from: 900,
                    to: 800,
                },
                row(10, &[&n(5), &n(2), &n(900), &n(800)]),
            ),
            (
                TraceData::ContainerRevived {
                    container,
                    stale_shards: 2,
                },
                row(11, &[&n(6), &n(2)]),
            ),
            (
                TraceData::StandbyPlaced { job, container },
                row(12, &[&n(5), &n(6)]),
            ),
            (
                TraceData::StandbyPromoted {
                    job,
                    to: container,
                    moves: 1,
                },
                row(13, &[&n(5), &n(6), &n(1)]),
            ),
            (
                TraceData::SloRecovery {
                    job,
                    tier: "best_effort",
                    ms: 1200,
                    fast: false,
                },
                row(14, &[&n(5), &s("best_effort"), &n(1200), &[0]]),
            ),
            (
                TraceData::Incident {
                    rule: "r".into(),
                    severity: "warning",
                    job: Some(job),
                    message: "m".into(),
                },
                row(15, &[&s("r"), &s("warning"), &[1], &n(5), &s("m")]),
            ),
            (
                TraceData::Diagnosis {
                    job,
                    cause: "c".into(),
                    mitigation: "mv".into(),
                    rationale: "why".into(),
                },
                row(16, &[&n(5), &s("c"), &s("mv"), &s("why")]),
            ),
        ],
    );
    // A word outside a field's vocabulary is a corrupt blob.
    assert_eq!(
        decode::<TraceData>(&row(7, &[&n(5), &s("finished")])),
        Err(SnapError::Value("TraceData.sync_outcome"))
    );
}

#[test]
fn violation_names_its_invariant_by_string() {
    let violation = Violation {
        at: SimTime::from_millis(60_000),
        invariant: "no-host-overcommit",
        detail: "host 3".into(),
    };
    let bytes = [&n(60_000)[..], &s("no-host-overcommit"), &s("host 3")].concat();
    assert_eq!(encode(&violation), bytes);
    let back: Violation = decode(&bytes).expect("decode");
    assert_eq!(
        (back.at, back.invariant, &back.detail),
        (violation.at, violation.invariant, &violation.detail)
    );
    let unknown = [&n(0)[..], &s("no-such-rule"), &s("")].concat();
    assert_eq!(
        decode::<Violation>(&unknown).err(),
        Some(SnapError::Value("Violation.invariant unknown"))
    );
}

/// `encode → decode → encode` gives the same bytes, and the decode reads
/// all of them.
fn stable<T: Snap>(what: &str, value: T) {
    let bytes = encode(&value);
    let back: T = decode(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(encode(&back), bytes, "{what}");
}

#[test]
fn structs_the_golden_platform_leaves_at_default_round_trip() {
    // Configs: every field non-default where a default is zero or false
    // would hide a swap between two fields of one type.
    let mut config = TurbineConfig::default();
    config.shard_count = 77;
    config.scaler_enabled = !config.scaler_enabled;
    config.checkpoint_interval = Duration::from_secs(70);
    stable("TurbineConfig", config);
    stable("ScalerConfig", ScalerConfig::default());
    stable("PatternConfig", PatternConfig::default());
    stable("ShardManagerConfig", ShardManagerConfig::default());
    stable("PlacementConfig", PlacementConfig::default());
    stable("InvariantConfig", InvariantConfig::default());
    stable(
        "SyncerConfig",
        SyncerConfig {
            max_failures: 9,
            max_inflight_rounds: 4,
        },
    );
    stable(
        "FaultPlan",
        FaultPlan {
            fault: Fault::ScribeStall("events".into()),
            from: SimTime::from_millis(1_000),
            until: Some(SimTime::from_millis(9_000)),
        },
    );
    stable(
        "SnapshotMeta",
        SnapshotMeta {
            captured_at_ms: 1_800_000,
            scenario: Some("{\"hosts\": 4}".into()),
            at_mins: Some(30),
        },
    );
    stable(
        "Incident",
        Incident {
            rule: "lag_high".into(),
            severity: Severity::Critical,
            metric: MetricKey::new(OdsScope::Job(3), "lag_secs"),
            opened_at: SimTime::from_millis(120_000),
            resolved_at: Some(SimTime::from_millis(180_000)),
            value: 95.5,
            message: "lag above SLO".into(),
        },
    );
    stable(
        "WalSalvage",
        WalSalvage {
            kept: 12,
            discarded: 3,
            first_bad: 13,
            message: "torn record".into(),
        },
    );
}

/// Two fields of one type, swapped in a list, still round-trip: only the
/// bytes show it. One literal check per struct whose neighbours share a type.
#[test]
fn field_order_of_same_typed_neighbours_is_pinned() {
    let meta = SnapshotMeta {
        captured_at_ms: 1,
        scenario: None,
        at_mins: Some(2),
    };
    assert_eq!(encode(&meta), [&n(1)[..], &[0], &[1], &n(2)].concat());
    let salvage = WalSalvage {
        kept: 1,
        discarded: 2,
        first_bad: 3,
        message: String::new(),
    };
    assert_eq!(encode(&salvage), [n(1), n(2), n(3), n(0)].concat());
    let syncer = SyncerConfig {
        max_failures: 1,
        max_inflight_rounds: 2,
    };
    assert_eq!(
        encode(&syncer),
        [1u32.to_le_bytes(), 2u32.to_le_bytes()].concat()
    );
    let plan = FaultPlan {
        fault: Fault::SyncerCrash,
        from: SimTime::from_millis(4),
        until: Some(SimTime::from_millis(5)),
    };
    assert_eq!(encode(&plan), [&[3][..], &n(4), &[1], &n(5)].concat());
    assert_eq!(
        encode(&PlacementConfig {
            band: 0.25,
            headroom: 0.5,
        }),
        [f(0.25), f(0.5)].concat()
    );
}
