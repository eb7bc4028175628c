//! End-to-end tests for the ODS metrics registry and alerting engine on a
//! real platform: absence detection, incident deduplication under flap
//! suppression, cause-linked incident trace events, and determinism
//! across drive modes and replay.

use turbine::{DriveMode, Fault, Turbine, TurbineConfig};
use turbine_config::{JobConfig, ResiliencyClass};
use turbine_ods::{AlertRule, MetricKey, RuleKind, Scope, Severity, ThresholdOp};
use turbine_types::{Duration, JobId, Resources};
use turbine_workloads::TrafficModel;

fn platform() -> Turbine {
    let mut t = Turbine::new(TurbineConfig::default());
    t.add_hosts(4, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
    t
}

fn critical_job(t: &mut Turbine, id: u64) {
    let mut jc = JobConfig::stateless(&format!("crit_{id}"), 4, 64);
    jc.max_task_count = 64;
    jc.resiliency = ResiliencyClass::Critical;
    t.provision_job(
        JobId(id),
        jc,
        TrafficModel::diurnal(3.0e6, 0.2, id),
        1.0e6,
        256.0,
    )
    .expect("provision");
}

/// An absence rule on a metric nothing publishes fires once the stale
/// window passes; a threshold rule on a healthy platform stays quiet.
#[test]
fn absence_rule_fires_for_a_silent_metric_and_healthy_rules_stay_quiet() {
    let mut t = platform();
    critical_job(&mut t, 1);
    t.install_alert_rules([
        AlertRule {
            name: "ghost-feed".into(),
            metric: MetricKey::platform("nonexistent_feed_bps"),
            kind: RuleKind::Absence {
                stale_for: Duration::from_mins(5),
            },
            for_duration: Duration::from_mins(0),
            severity: Severity::Warning,
            suppress_for: Duration::from_mins(30),
        },
        AlertRule {
            name: "healthy-lag".into(),
            metric: MetricKey::new(Scope::Job(1), "lag_secs"),
            kind: RuleKind::Threshold {
                op: ThresholdOp::Above,
                value: 90.0,
            },
            for_duration: Duration::from_mins(2),
            severity: Severity::Critical,
            suppress_for: Duration::from_mins(30),
        },
    ]);
    t.run_for(Duration::from_mins(30));
    let fired: Vec<&str> = t.incidents().iter().map(|i| i.rule.as_str()).collect();
    assert_eq!(fired, ["ghost-feed"], "{:?}", t.incidents());
    assert!(t.incidents()[0].is_active(), "nothing ever reports it");
}

/// A scribe stall on a critical job trips the default lag rule exactly
/// once (flap suppression dedupes), the incident resolves after the stall
/// clears, and its trace event is cause-linked to the fault edge.
#[test]
fn scribe_stall_raises_one_deduplicated_cause_linked_incident() {
    let mut t = platform();
    critical_job(&mut t, 1);
    t.install_default_alert_rules();
    t.run_for(Duration::from_mins(10));
    let category = t.job_category(JobId(1)).expect("category").to_string();
    t.inject_fault(Fault::ScribeStall(category), Some(Duration::from_mins(8)));
    t.run_for(Duration::from_mins(50));

    assert_eq!(t.incidents().len(), 1, "{:?}", t.incidents());
    let incident = &t.incidents()[0];
    assert_eq!(incident.severity, Severity::Critical);
    assert!(!incident.is_active(), "resolves after the backlog drains");

    // The trace records the incident with the stall fault as its cause.
    let event = t
        .trace()
        .events()
        .find(|e| e.data.kind() == "incident")
        .expect("incident trace event");
    let cause = event.cause.expect("incident is cause-linked");
    let fault_edge = t
        .trace()
        .events()
        .find(|e| e.id == cause)
        .expect("cause resolves");
    assert_eq!(fault_edge.data.kind(), "fault_edge", "{fault_edge:?}");
}

/// The same faulted scenario produces the identical incident log and trace
/// digest under dense-tick, event-driven, and replayed drives.
#[test]
fn incidents_are_deterministic_across_drive_modes_and_replay() {
    let run = |mode: DriveMode| {
        let mut t = platform();
        critical_job(&mut t, 1);
        critical_job(&mut t, 2);
        t.install_default_alert_rules();
        t.drive_for(Duration::from_mins(10), mode);
        let category = t.job_category(JobId(2)).expect("category").to_string();
        t.inject_fault(Fault::ScribeStall(category), Some(Duration::from_mins(8)));
        t.drive_for(Duration::from_mins(40), mode);
        let incidents: Vec<String> = t
            .incidents()
            .iter()
            .map(|i| {
                format!(
                    "{} {} {} {:?} {}",
                    i.rule, i.metric, i.opened_at, i.resolved_at, i.message
                )
            })
            .collect();
        (incidents, t.trace().digest(), t.fingerprint())
    };
    let dense = run(DriveMode::DenseTick);
    let event = run(DriveMode::EventDriven);
    let replay = run(DriveMode::EventDriven);
    assert!(!event.0.is_empty(), "the stall must raise an incident");
    assert_eq!(dense, event, "dense vs event");
    assert_eq!(event, replay, "replay");
}
