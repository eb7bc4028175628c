//! The curated scenario files under `scenarios/` stay runnable: they parse,
//! execute end to end, and leave the fleet healthy. So do the ones under
//! `tests/scenarios/`, whose interventions the platform refuses.

use turbine_cli::{run_scenario, Scenario};

fn run_file(name: &str) -> turbine_cli::RunSummary {
    run_path(&(concat!(env!("CARGO_MANIFEST_DIR"), "/..").to_string() + "/scenarios/" + name))
}

fn run_path(path: &str) -> turbine_cli::RunSummary {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let scenario = Scenario::parse(&text).expect("scenario parses");
    run_scenario(&scenario)
}

#[test]
fn maintenance_window_scenario_stays_healthy() {
    let summary = run_file("maintenance_window.json");
    // Every job running at the end; the final report row shows full SLO.
    for (name, tasks, _) in &summary.jobs {
        assert!(*tasks > 0, "{name} lost its tasks");
    }
    let &(_, _, _, slo, _) = summary.rows.last().expect("rows");
    assert!(slo > 0.99, "final slo {slo}");
    assert!(
        summary.counters[4] >= 1,
        "host failures must trigger fail-over"
    );
}

#[test]
fn tiered_outage_drill_scenario_stays_healthy() {
    let summary = run_file("tiered_outage_drill.json");
    // Mixed-tier fleet under sustained heartbeat loss, a Scribe stall on a
    // critical job, and a host flap: everything running at the end.
    for (name, tasks, _) in &summary.jobs {
        assert!(*tasks > 0, "{name} lost its tasks");
    }
    let &(_, _, _, slo, _) = summary.rows.last().expect("rows");
    assert!(slo > 0.99, "final slo {slo}");
    assert!(
        summary.counters[4] >= 1,
        "sustained heartbeat loss must trigger fail-over"
    );
    // The dashboard reports per-tier SLO lines for the tiers in the fleet.
    assert!(
        summary.dashboard.contains("tier critical:"),
        "dashboard must report the critical tier:\n{}",
        summary.dashboard
    );
}

#[test]
fn storm_and_rollback_scenario_stays_healthy() {
    let summary = run_file("storm_and_rollback.json");
    let &(_, _, _, slo, backlog) = summary.rows.last().expect("rows");
    assert!(slo > 0.99, "final slo {slo}");
    assert!(backlog < 8.0 * 2.0 * 90.0, "final backlog {backlog} MB");
    // The oncall 24-task pin was applied and then cleared: the job ends
    // with the scaler's own sizing, still running.
    for (name, tasks, _) in &summary.jobs {
        assert!(*tasks > 0, "{name} lost its tasks");
    }
}

fn run_refused(name: &str) -> turbine_cli::RunSummary {
    run_path(&(env!("CARGO_MANIFEST_DIR").to_string() + "/scenarios/" + name))
}

#[test]
fn an_oncall_repartition_is_refused_and_the_run_carries_on() {
    // `input.partitions` 32 → 64 on a running job: the category and the
    // data plane were sized at provision, so the write is refused.
    let summary = run_refused("oncall_repartition.json");
    assert_eq!(summary.jobs.len(), 1);
    let (name, tasks, _) = &summary.jobs[0];
    assert_eq!((name.as_str(), *tasks), ("views", 4));
    let &(_, _, _, slo, _) = summary.rows.last().expect("rows");
    assert!(slo > 0.99, "final slo {slo}");
}

#[test]
fn an_oncall_write_during_a_job_store_outage_is_refused_and_the_run_carries_on() {
    // The write lands inside the `job_store_down` window: the fault working.
    let summary = run_refused("oncall_during_store_outage.json");
    let (_, tasks, _) = &summary.jobs[0];
    assert_eq!(*tasks, 4, "the refused resize never applied");
    assert_eq!(summary.fault_log.len(), 2, "{:?}", summary.fault_log);
}

#[test]
fn every_hostile_file_is_refused_with_a_typed_error() {
    // Each `hostile_*.json` once panicked a run or ran with a wrapped or
    // clamped number; `hostile_repro_*` files are fuzz repros.
    let dir = env!("CARGO_MANIFEST_DIR").to_string() + "/scenarios/";
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/scenarios")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("hostile_"))
        .collect();
    names.sort();
    assert!(names.len() >= 10, "{names:?}");
    for name in names {
        let text = std::fs::read_to_string(dir.clone() + &name).expect("read");
        let refusal = if name.starts_with("hostile_repro_") {
            turbine_fuzz::FuzzScenario::from_json(&text).map(|_| ())
        } else {
            Scenario::parse(&text)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        let err = refusal.expect_err(&name);
        assert!(
            err.contains("out of range") || err.contains("must be"),
            "{name}: {err}"
        );
    }
}
