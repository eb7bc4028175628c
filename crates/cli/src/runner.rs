//! Scenario execution against a full platform.

use crate::scenario::{Scenario, ScenarioEvent};
use std::collections::BTreeMap;
use turbine::{Fault, MetricKey, Turbine, TurbineConfig};
use turbine_config::{ConfigValue, JobConfig};
use turbine_types::{Duration, HostId, JobId, Resources, SimTime, TimeSeries};
use turbine_workloads::{TrafficEvent, TrafficEventKind, TrafficModel};

/// Outcome of a scenario run: the report rows plus final aggregates.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// One row per report interval: (hours, traffic MB/s, running tasks,
    /// SLO-ok fraction, total backlog MB).
    pub rows: Vec<(f64, f64, f64, f64, f64)>,
    /// Final per-job status lines: (name, running tasks, backlog MB).
    pub jobs: Vec<(String, usize, f64)>,
    /// Lifecycle counters: (task starts, stops, restarts, shard moves,
    /// fail-overs, scaling actions, alerts).
    pub counters: [u64; 7],
    /// The rendered fleet-health dashboard at the end of the run (§VII).
    pub dashboard: String,
    /// Chaos-engine fault timeline: (hours, `inject/clear <fault>`).
    pub fault_log: Vec<(f64, String)>,
}

impl RunSummary {
    /// Render the summary as the CLI prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>7}  {:>13}  {:>7}  {:>7}  {:>12}\n",
            "hour", "traffic_mb_s", "tasks", "slo_ok", "backlog_mb"
        ));
        for &(h, traffic, tasks, slo, backlog) in &self.rows {
            out.push_str(&format!(
                "{h:>7.1}  {traffic:>13.1}  {tasks:>7.0}  {slo:>7.3}  {backlog:>12.1}\n"
            ));
        }
        out.push('\n');
        for (name, tasks, backlog) in &self.jobs {
            out.push_str(&format!(
                "job {name:<24} tasks = {tasks:>3}  backlog = {backlog:>10.1} MB\n"
            ));
        }
        out.push('\n');
        out.push_str(&self.dashboard);
        if !self.fault_log.is_empty() {
            out.push_str("\nfault timeline:\n");
            for (hours, entry) in &self.fault_log {
                out.push_str(&format!("  {hours:>6.2} h  {entry}\n"));
            }
        }
        let [starts, stops, restarts, moves, failovers, scalings, alerts] = self.counters;
        out.push_str(&format!(
            "\nlifecycle: {starts} starts, {stops} stops, {restarts} restarts, \
             {moves} shard moves, {failovers} fail-overs, {scalings} scaling actions, {alerts} alerts\n"
        ));
        out
    }
}

/// A scenario run with its observability artifacts: the rendered summary,
/// the control-plane causal trace, and the name → id map scenario job
/// names resolve through.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// The ordinary run summary ([`run_scenario`] returns just this).
    pub summary: RunSummary,
    /// The platform's causal decision trace at the end of the run.
    pub trace: turbine::TraceBuffer,
    /// Scenario job name → platform job id.
    pub jobs: BTreeMap<String, JobId>,
}

/// Execute a scenario and collect the summary. Deterministic: the same
/// scenario always produces the same summary.
pub fn run_scenario(scenario: &Scenario) -> RunSummary {
    run_scenario_traced(scenario).summary
}

/// Execute a scenario and keep the causal trace alongside the summary
/// (the `turbinesim trace` subcommand's entry point).
pub fn run_scenario_traced(scenario: &Scenario) -> TracedRun {
    let mut rows = Vec::new();
    let (turbine, ids) = drive_scenario(scenario, report_row_observer(scenario, &mut rows));
    summarize(&turbine, ids, rows)
}

/// The report-row sampling observer every summary-producing drive shares:
/// one row per report interval plus the final minute.
pub fn report_row_observer<'a>(
    scenario: &'a Scenario,
    rows: &'a mut Vec<(f64, f64, f64, f64, f64)>,
) -> impl FnMut(&Turbine, u64) + 'a {
    let total_mins = scenario.total_mins();
    move |turbine, minute| {
        if minute % scenario.report_every_mins == 0 || minute == total_mins {
            let latest = |name: &str| {
                turbine
                    .ods_registry()
                    .series_by_key(&MetricKey::platform(name))
                    .and_then(TimeSeries::last)
                    .unwrap_or(0.0)
            };
            rows.push((
                turbine.now().as_hours_f64(),
                latest("cluster_traffic_bps") / 1.0e6,
                latest("task_count"),
                latest("slo_ok_fraction"),
                latest("total_backlog_bytes") / 1.0e6,
            ));
        }
    }
}

/// Fold a finished platform and its sampled rows into the rendered-run
/// bundle (shared by the front-to-back runner and the restore verb).
pub fn summarize(
    turbine: &Turbine,
    ids: BTreeMap<String, JobId>,
    rows: Vec<(f64, f64, f64, f64, f64)>,
) -> TracedRun {
    let jobs = ids
        .iter()
        .map(|(name, &id)| match turbine.job_status(id) {
            Some(status) => (
                name.clone(),
                status.running_tasks,
                status.backlog_bytes / 1.0e6,
            ),
            None => (format!("{name} (deleted)"), 0, 0.0),
        })
        .collect();
    let dashboard = turbine::fleet_health(turbine).render();
    let counters = [
        turbine.metrics.task_starts.get(),
        turbine.metrics.task_stops.get(),
        turbine.metrics.task_restarts.get(),
        turbine.metrics.shard_moves.get(),
        turbine.metrics.failovers.get(),
        turbine.metrics.scaling_actions.get(),
        turbine.metrics.alerts.get(),
    ];
    let fault_log = turbine
        .fault_injector()
        .log()
        .iter()
        .map(|(at, entry)| (at.as_hours_f64(), entry.clone()))
        .collect();
    TracedRun {
        summary: RunSummary {
            rows,
            jobs,
            counters,
            dashboard,
            fault_log,
        },
        trace: turbine.trace().clone(),
        jobs: ids,
    }
}

/// Provision a scenario's fleet and drive it minute by minute, calling
/// `observer` after each simulated minute (timeline events for that minute
/// have already fired). Returns the final platform and the name → id map.
/// This is the drive loop every observing subcommand shares: `run`/`trace`
/// sample report rows from it, `metrics` exports the ODS registry after
/// it, and `top` renders console frames inside it.
pub fn drive_scenario(
    scenario: &Scenario,
    observer: impl FnMut(&Turbine, u64),
) -> (Turbine, BTreeMap<String, JobId>) {
    let (mut turbine, ids) = provision_scenario(scenario);
    drive_scenario_minutes(
        &mut turbine,
        scenario,
        &ids,
        0,
        scenario.total_mins(),
        observer,
    );
    (turbine, ids)
}

/// Rebuild the scenario-order artifacts a resumed run needs: host ids in
/// provisioning order (the cluster reports them in creation order) and
/// the name → id map (the i-th scenario job is `JobId(i + 1)`). Both are
/// pure functions of the scenario plus the platform, so a restored
/// snapshot needs no side-channel state.
pub fn scenario_bindings(
    turbine: &Turbine,
    scenario: &Scenario,
) -> (Vec<HostId>, BTreeMap<String, JobId>) {
    let hosts = turbine.cluster.hosts();
    let ids = scenario
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| (job.name.clone(), JobId(i as u64 + 1)))
        .collect();
    (hosts, ids)
}

/// Provision a scenario's fleet: hosts, jobs, alert rules, and the
/// pre-registered storm windows — everything up to (but not including)
/// minute 1.
pub fn provision_scenario(scenario: &Scenario) -> (Turbine, BTreeMap<String, JobId>) {
    let mut config = TurbineConfig::default();
    config.scaler_enabled = scenario.scaler_enabled;
    config.load_balancing_enabled = scenario.load_balancing;
    let mut turbine = Turbine::new(config);
    turbine.add_hosts(
        scenario.hosts,
        Resources::new(
            scenario.host_cpu,
            scenario.host_memory_gb * 1024.0,
            1.0e6,
            1000.0,
        ),
    );

    // Provision jobs; remember name → id.
    let mut ids: BTreeMap<String, JobId> = BTreeMap::new();
    for (i, job) in scenario.jobs.iter().enumerate() {
        let id = JobId(i as u64 + 1);
        let mut jc = JobConfig::stateless(&job.name, job.tasks, job.partitions);
        jc.max_task_count = job.max_tasks.max(job.tasks);
        jc.resiliency = job.resiliency;
        let seed = job.seed.unwrap_or(i as u64);
        let traffic = TrafficModel::diurnal(job.rate_mbps * 1.0e6, job.diurnal, seed);
        if job.stateful_keys > 0.0 {
            turbine
                .provision_stateful_job(id, jc, traffic, 1.0e6, 256.0, job.stateful_keys)
                .expect("scenario job provisions");
        } else {
            turbine
                .provision_job(id, jc, traffic, 1.0e6, 256.0)
                .expect("scenario job provisions");
        }
        ids.insert(job.name.clone(), id);
    }

    // Arm the alerting engine: the platform's default per-critical-job lag
    // rules, then whatever the scenario's "alerts" section adds.
    turbine.install_default_alert_rules();
    turbine.install_alert_rules(scenario.alert_rules.iter().cloned());

    // Pre-register storm windows on every job's traffic model (they are
    // pure functions of time, so this is equivalent to firing them live).
    for event in &scenario.events {
        if let ScenarioEvent::Storm {
            at_mins,
            multiplier,
            duration_mins,
        } = event
        {
            let window = TrafficEvent {
                start: SimTime::ZERO + Duration::from_mins(*at_mins),
                end: SimTime::ZERO + Duration::from_mins(at_mins + duration_mins),
                kind: TrafficEventKind::RampedMultiplier {
                    peak: *multiplier,
                    ramp_mins: (duration_mins / 6).max(1),
                },
            };
            for &id in ids.values() {
                turbine.with_job_traffic(id, |t| t.events.push(window));
            }
        }
    }

    (turbine, ids)
}

/// Drive minutes `after_min + 1 ..= to_min` of a scenario, firing
/// non-storm timeline events at their minutes and calling `observer`
/// after each minute. `run_for` rides the event-driven control scheduler,
/// so quiet minutes cost a handful of control events rather than a dense
/// tick grid. A restored snapshot resumes by passing its capture minute
/// as `after_min`: events at or before it already fired in the captured
/// run, so only the remainder is re-applied — the resumed drive is the
/// uninterrupted run's tail, minute for minute.
pub fn drive_scenario_minutes(
    turbine: &mut Turbine,
    scenario: &Scenario,
    ids: &BTreeMap<String, JobId>,
    after_min: u64,
    to_min: u64,
    mut observer: impl FnMut(&Turbine, u64),
) {
    let hosts = turbine.cluster.hosts();
    let mut pending: Vec<&ScenarioEvent> = scenario
        .events
        .iter()
        .filter(|e| !matches!(e, ScenarioEvent::Storm { .. }) && e.at_mins().max(1) > after_min)
        .collect();
    for minute in (after_min + 1)..=to_min {
        turbine.run_for(Duration::from_mins(1));
        while let Some(event) = pending.first().filter(|e| e.at_mins() <= minute) {
            match event {
                ScenarioEvent::FailHost { host, .. } => {
                    turbine.fail_host(hosts[*host]).expect("valid host");
                }
                ScenarioEvent::RecoverHost { host, .. } => {
                    turbine.recover_host(hosts[*host]).expect("valid host");
                }
                ScenarioEvent::OncallSet {
                    job, path, value, ..
                } => {
                    let done = turbine.oncall_set(ids[job], path, ConfigValue::Int(*value));
                    report_refusal(minute, &format!("oncall_set {job} {path}={value}"), done);
                }
                ScenarioEvent::OncallClear { job, .. } => {
                    let done = turbine.oncall_clear(ids[job]);
                    report_refusal(minute, &format!("oncall_clear {job}"), done);
                }
                ScenarioEvent::DeleteJob { job, .. } => {
                    let done = turbine.delete_job(ids[job]);
                    report_refusal(minute, &format!("delete_job {job}"), done);
                }
                ScenarioEvent::InjectFault {
                    fault,
                    host,
                    job,
                    duration_mins,
                    ..
                } => {
                    let fault = resolve_fault(fault, *host, job.as_deref(), &hosts, ids, turbine);
                    turbine.inject_fault(fault, duration_mins.map(Duration::from_mins));
                }
                ScenarioEvent::ClearFault {
                    fault, host, job, ..
                } => {
                    let fault = resolve_fault(fault, *host, job.as_deref(), &hosts, ids, turbine);
                    turbine.clear_fault(&fault);
                }
                ScenarioEvent::Storm { .. } => unreachable!("pre-registered"),
            }
            pending.remove(0);
        }
        observer(turbine, minute);
    }
}

/// An operator intervention the platform refused (say, a write while the
/// Job Store is down) is the platform working, not a broken scenario: it
/// is reported on stderr and the run carries on.
fn report_refusal(minute: u64, what: &str, done: Result<(), String>) {
    if let Err(reason) = done {
        eprintln!("minute {minute}: {what} refused: {reason}");
    }
}

/// Map a validated scenario fault name (plus its addressing fields) to the
/// platform's fault type. `heartbeat_loss` targets the Turbine container on
/// the indexed host; `scribe_stall` targets the job's input category.
fn resolve_fault(
    fault: &str,
    host: Option<usize>,
    job: Option<&str>,
    hosts: &[HostId],
    ids: &BTreeMap<String, JobId>,
    turbine: &Turbine,
) -> Fault {
    match fault {
        "task_service_down" => Fault::TaskServiceDown,
        "job_store_down" => Fault::JobStoreDown,
        "syncer_crash" => Fault::SyncerCrash,
        "heartbeat_loss" => {
            let host = hosts[host.expect("validated: heartbeat_loss has a host")];
            let container = turbine
                .cluster
                .containers_on(host)
                .expect("scenario host exists")[0];
            Fault::HeartbeatLoss(container)
        }
        "scribe_stall" => {
            let id = ids[job.expect("validated: scribe_stall has a job")];
            let category = turbine
                .job_category(id)
                .expect("scenario job is provisioned")
                .to_string();
            Fault::ScribeStall(category)
        }
        other => unreachable!("validated fault name '{other}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn tiny() -> Scenario {
        Scenario::parse(
            r#"{
              "hosts": 3, "duration_hours": 1.0, "report_every_mins": 15,
              "jobs": [
                {"name": "a", "tasks": 2, "partitions": 16, "rate_mbps": 2.0, "seed": 1},
                {"name": "b", "tasks": 1, "partitions": 8, "rate_mbps": 0.5, "seed": 2}
              ],
              "events": [
                {"action": "fail_host", "at_mins": 20, "host": 1},
                {"action": "recover_host", "at_mins": 40, "host": 1}
              ]
            }"#,
        )
        .expect("parse")
    }

    #[test]
    fn scenario_runs_to_completion_with_reports() {
        let summary = run_scenario(&tiny());
        assert_eq!(summary.rows.len(), 4, "15-min reports over 1 h");
        assert_eq!(summary.jobs.len(), 2);
        // Both jobs running at the end despite the mid-run host failure.
        for (name, tasks, _) in &summary.jobs {
            assert!(*tasks > 0, "{name} must be running");
        }
        assert!(summary.counters[4] >= 1, "fail-over happened");
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let a = run_scenario(&tiny());
        let b = run_scenario(&tiny());
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn deleted_jobs_report_as_deleted() {
        let scenario = Scenario::parse(
            r#"{
              "hosts": 2, "duration_hours": 0.5,
              "jobs": [{"name": "doomed", "tasks": 1, "partitions": 4}],
              "events": [{"action": "delete_job", "at_mins": 10, "job": "doomed"}]
            }"#,
        )
        .expect("parse");
        let summary = run_scenario(&scenario);
        assert!(summary.jobs[0].0.contains("deleted"));
        assert_eq!(summary.jobs[0].1, 0);
    }

    #[test]
    fn fault_events_drive_the_chaos_engine() {
        let scenario = Scenario::parse(
            r#"{
              "hosts": 3, "duration_hours": 1.0, "report_every_mins": 30,
              "jobs": [{"name": "a", "tasks": 2, "partitions": 16, "rate_mbps": 1.0, "seed": 1}],
              "events": [
                {"action": "inject_fault", "at_mins": 10, "fault": "task_service_down", "duration_mins": 5},
                {"action": "inject_fault", "at_mins": 20, "fault": "heartbeat_loss", "host": 1},
                {"action": "clear_fault", "at_mins": 25, "fault": "heartbeat_loss", "host": 1},
                {"action": "inject_fault", "at_mins": 30, "fault": "scribe_stall", "job": "a", "duration_mins": 10}
              ]
            }"#,
        )
        .expect("parse");
        let summary = run_scenario(&scenario);
        // Every inject and every clear (explicit or by expiry) is logged.
        assert_eq!(summary.fault_log.len(), 6, "log: {:?}", summary.fault_log);
        assert!(summary.render().contains("fault timeline:"));
        // The job survives the whole gauntlet.
        assert!(summary.jobs[0].1 > 0);
        // Same scenario, same fault timeline.
        let again = run_scenario(&scenario);
        assert_eq!(summary.fault_log, again.fault_log);
    }

    #[test]
    fn demo_scenario_survives_end_to_end() {
        let mut demo = Scenario::demo();
        demo.duration_hours = 1.0; // keep the unit test fast
        demo.events.retain(|e| e.at_mins() <= 55);
        let summary = run_scenario(&demo);
        assert!(!summary.rows.is_empty());
        assert_eq!(summary.jobs.len(), 3);
    }
}
