//! Causal decision tracing, end to end: `turbinesim trace --explain`
//! reconstructs multi-hop fault → symptom → decision chains; identical
//! runs produce identical trace digests, in both drive modes.

use turbine::{DriveMode, Fault, FaultPlan, TraceData, Turbine, TurbineConfig};
use turbine_cli::{run_scenario_traced, trace_report, Scenario, TraceQuery};
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, Resources, SimTime};
use turbine_workloads::TrafficModel;

/// A scenario whose job gets stalled long enough that the auto-scaler
/// reacts while the fault is still active (so chains root at the fault).
fn stall_scenario() -> Scenario {
    Scenario::parse(
        r#"{
          "hosts": 3, "duration_hours": 1.0, "report_every_mins": 30,
          "jobs": [{"name": "pipeline", "tasks": 2, "partitions": 16,
                    "rate_mbps": 2.0, "max_tasks": 8, "seed": 7}],
          "events": [
            {"action": "inject_fault", "at_mins": 10, "fault": "scribe_stall",
             "job": "pipeline"}
          ]
        }"#,
    )
    .expect("scenario parses")
}

#[test]
fn explain_reconstructs_fault_symptom_decision_chain() {
    let run = run_scenario_traced(&stall_scenario());

    // The raw chain: find the last decision about the job and walk its
    // cause links. It must span at least two hops ending at the fault
    // activation that started the incident.
    let job = run.jobs["pipeline"];
    let decision = run
        .trace
        .last_decision_for(job)
        .expect("the stalled job forced a decision");
    let chain = run.trace.chain(decision.id);
    assert!(
        chain.len() >= 3,
        "expected fault -> symptom -> decision, got {} hops: {:?}",
        chain.len(),
        chain.iter().map(|e| e.data.kind()).collect::<Vec<_>>()
    );
    assert!(decision.data.is_decision());
    assert!(
        chain
            .iter()
            .any(|e| matches!(&e.data, TraceData::Symptom { .. })),
        "chain must pass through a symptom"
    );
    let root = chain.last().expect("non-empty chain");
    assert!(
        matches!(&root.data, TraceData::FaultEdge { fault, activated: true }
            if fault.starts_with("scribe_stall")),
        "chain must root at the scribe_stall activation, got {:?}",
        root.data
    );

    // The user-facing rendering of the same chain via the subcommand's
    // entry point.
    let mut query = TraceQuery::default();
    query.explain = Some("pipeline".to_string());
    let explained = trace_report(&run, &query).expect("explain succeeds");
    assert!(
        explained.contains("fault activated: scribe_stall"),
        "{explained}"
    );
    assert!(explained.contains("symptom"), "{explained}");
    assert!(
        explained.contains("causal chain") && !explained.contains("(1 hops)"),
        "{explained}"
    );
}

#[test]
fn identical_runs_produce_identical_trace_digests() {
    let a = run_scenario_traced(&stall_scenario());
    let b = run_scenario_traced(&stall_scenario());
    assert_eq!(a.trace.digest(), b.trace.digest());
    assert_eq!(a.trace.total_recorded(), b.trace.total_recorded());
    assert_eq!(a.trace.to_jsonl(), b.trace.to_jsonl());
    assert_eq!(a.summary.rows, b.summary.rows);
}

/// Build the fault-ridden platform used by the invariance checks.
fn build() -> Turbine {
    let mut turbine = Turbine::new(TurbineConfig::default());
    turbine.add_hosts(4, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
    turbine
        .provision_job(
            JobId(1),
            JobConfig::stateless("traced_diurnal", 4, 16),
            TrafficModel::diurnal(3.0e6, 0.3, 11),
            1.0e6,
            256.0,
        )
        .expect("provision");
    turbine
        .provision_job(
            JobId(2),
            JobConfig::stateless("traced_flat", 2, 16),
            TrafficModel::flat(1.0e6),
            1.0e6,
            256.0,
        )
        .expect("provision");
    let category = turbine
        .job_category(JobId(1))
        .expect("category")
        .to_string();
    turbine.schedule_fault(FaultPlan {
        fault: Fault::ScribeStall(category),
        from: SimTime::ZERO + Duration::from_mins(30),
        until: Some(SimTime::ZERO + Duration::from_mins(90)),
    });
    turbine.schedule_fault(FaultPlan {
        fault: Fault::TaskServiceDown,
        from: SimTime::ZERO + Duration::from_mins(100),
        until: Some(SimTime::ZERO + Duration::from_mins(110)),
    });
    turbine
}

#[test]
fn dense_and_event_modes_produce_the_same_trace_digest() {
    let mut dense = build();
    let mut event = build();
    dense.drive_for(Duration::from_hours(3), DriveMode::DenseTick);
    event.drive_for(Duration::from_hours(3), DriveMode::EventDriven);
    assert_eq!(dense.fingerprint(), event.fingerprint());
    assert_eq!(
        dense.trace().digest(),
        event.trace().digest(),
        "trace digests diverge between drive modes"
    );
}
