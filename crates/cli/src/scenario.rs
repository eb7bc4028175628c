//! Scenario schema and parsing.
//!
//! Scenarios are plain JSON handled by the workspace's own config parser,
//! so the CLI needs no external dependencies and scenario files enjoy the
//! same deterministic parse/print semantics as job configurations.

use std::fmt;
use turbine::{AlertRule, Fault};
use turbine_config::{ConfigValue, ResiliencyClass};

/// A job described by a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioJob {
    /// Job name (also the Scribe category prefix).
    pub name: String,
    /// Initial task count.
    pub tasks: u32,
    /// Input partitions.
    pub partitions: u32,
    /// Base input rate, MB/s.
    pub rate_mbps: f64,
    /// Diurnal swing fraction (0 = flat).
    pub diurnal: f64,
    /// `max_task_count` for the job.
    pub max_tasks: u32,
    /// State key cardinality; 0 means stateless.
    pub stateful_keys: f64,
    /// Seed for the job's traffic noise.
    pub seed: u64,
    /// Resiliency class (`best_effort`/`standard`/`critical`); critical
    /// jobs get a warm standby and the fast fail-over path.
    pub resiliency: ResiliencyClass,
}

/// One timeline event.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// Fail the `host`-th host at `at_mins`.
    FailHost {
        /// Firing time, minutes from start.
        at_mins: u64,
        /// Index into the scenario's host list.
        host: usize,
    },
    /// Recover the `host`-th host.
    RecoverHost {
        /// Firing time, minutes from start.
        at_mins: u64,
        /// Index into the scenario's host list.
        host: usize,
    },
    /// Multiply every job's traffic by `multiplier` for `duration_mins`.
    Storm {
        /// Firing time, minutes from start.
        at_mins: u64,
        /// Peak traffic multiplier (e.g. 1.16).
        multiplier: f64,
        /// Window length in minutes.
        duration_mins: u64,
    },
    /// Write an Oncall-level integer override on a job.
    OncallSet {
        /// Firing time, minutes from start.
        at_mins: u64,
        /// Target job name.
        job: String,
        /// Config path, e.g. `"task_count"`.
        path: String,
        /// Integer value to pin.
        value: i64,
    },
    /// Clear all Oncall overrides on a job.
    OncallClear {
        /// Firing time, minutes from start.
        at_mins: u64,
        /// Target job name.
        job: String,
    },
    /// Delete a job.
    DeleteJob {
        /// Firing time, minutes from start.
        at_mins: u64,
        /// Target job name.
        job: String,
    },
    /// Activate a chaos-engine fault (see `turbine::Fault`).
    InjectFault {
        /// Firing time, minutes from start.
        at_mins: u64,
        /// Fault name: `task_service_down`, `job_store_down`,
        /// `heartbeat_loss` (needs `host`), `syncer_crash`, or
        /// `scribe_stall` (needs `job`).
        fault: String,
        /// Host index for `heartbeat_loss`.
        host: Option<usize>,
        /// Job name for `scribe_stall`.
        job: Option<String>,
        /// Auto-clear after this many minutes; omitted = until an
        /// explicit `clear_fault`.
        duration_mins: Option<u64>,
    },
    /// Clear a previously injected fault (same addressing fields).
    ClearFault {
        /// Firing time, minutes from start.
        at_mins: u64,
        /// Fault name (as for `inject_fault`).
        fault: String,
        /// Host index for `heartbeat_loss`.
        host: Option<usize>,
        /// Job name for `scribe_stall`.
        job: Option<String>,
    },
}

impl ScenarioEvent {
    /// Firing time in minutes.
    pub fn at_mins(&self) -> u64 {
        match self {
            ScenarioEvent::FailHost { at_mins, .. }
            | ScenarioEvent::RecoverHost { at_mins, .. }
            | ScenarioEvent::Storm { at_mins, .. }
            | ScenarioEvent::OncallSet { at_mins, .. }
            | ScenarioEvent::OncallClear { at_mins, .. }
            | ScenarioEvent::DeleteJob { at_mins, .. }
            | ScenarioEvent::InjectFault { at_mins, .. }
            | ScenarioEvent::ClearFault { at_mins, .. } => *at_mins,
        }
    }
}

/// A complete scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of hosts.
    pub hosts: usize,
    /// Per-host CPU cores.
    pub host_cpu: f64,
    /// Per-host memory in GB.
    pub host_memory_gb: f64,
    /// Simulation length in hours.
    pub duration_hours: f64,
    /// Reporting interval in minutes.
    pub report_every_mins: u64,
    /// Whether the Auto Scaler runs.
    pub scaler_enabled: bool,
    /// Whether the load balancer runs.
    pub load_balancing: bool,
    /// The jobs to provision at time zero.
    pub jobs: Vec<ScenarioJob>,
    /// Timeline events, sorted by firing time.
    pub events: Vec<ScenarioEvent>,
    /// Declarative alert rules from the scenario's `"alerts"` array,
    /// already resolved against the scenario's job names. Installed on
    /// top of the platform's default per-critical-job lag rules.
    pub alert_rules: Vec<AlertRule>,
}

/// Error describing why a scenario failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn err(msg: impl Into<String>) -> ScenarioError {
    ScenarioError(msg.into())
}

fn get_f64(v: &ConfigValue, path: &str, default: Option<f64>) -> Result<f64, ScenarioError> {
    match v.get_path(path).and_then(|x| x.as_float()) {
        Some(f) => Ok(f),
        None => default.ok_or_else(|| err(format!("missing numeric field '{path}'"))),
    }
}

fn get_u64(v: &ConfigValue, path: &str, default: Option<u64>) -> Result<u64, ScenarioError> {
    match v.get_path(path).and_then(|x| x.as_int()) {
        Some(i) if i >= 0 => Ok(i as u64),
        Some(_) => Err(err(format!("field '{path}' must be non-negative"))),
        None => default.ok_or_else(|| err(format!("missing integer field '{path}'"))),
    }
}

fn get_u32(v: &ConfigValue, path: &str, default: u32) -> Result<u32, ScenarioError> {
    let n = get_u64(v, path, Some(u64::from(default)))?;
    u32::try_from(n).map_err(|_| err(format!("field '{path}' exceeds {}", u32::MAX)))
}

fn get_str(v: &ConfigValue, path: &str) -> Result<String, ScenarioError> {
    v.get_path(path)
        .and_then(|x| x.as_str())
        .map(str::to_string)
        .ok_or_else(|| err(format!("missing string field '{path}'")))
}

/// Every key the scenario root object understands. Anything else is a
/// typo (e.g. `duration_hour`) and fails loudly instead of silently
/// falling back to a default.
const ROOT_KEYS: [&str; 9] = [
    "hosts",
    "host",
    "duration_hours",
    "report_every_mins",
    "scaler_enabled",
    "load_balancing",
    "jobs",
    "events",
    "alerts",
];

/// Keys a job object understands.
const JOB_KEYS: [&str; 9] = [
    "name",
    "tasks",
    "partitions",
    "rate_mbps",
    "diurnal",
    "max_tasks",
    "stateful_keys",
    "seed",
    "resiliency",
];

/// Keys a timeline event understands (the union across actions; each
/// action validates its required fields separately).
const EVENT_KEYS: [&str; 9] = [
    "action",
    "at_mins",
    "host",
    "job",
    "path",
    "int",
    "multiplier",
    "duration_mins",
    "fault",
];

impl Scenario {
    /// Parse a scenario from JSON text.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let root = turbine_config::parse(text).map_err(|e| err(e.to_string()))?;
        Self::from_value(&root)
    }

    /// Total simulated minutes this scenario drives.
    pub fn total_mins(&self) -> u64 {
        (self.duration_hours * 60.0).ceil() as u64
    }

    /// Decode a scenario from an already-parsed config value.
    pub fn from_value(root: &ConfigValue) -> Result<Scenario, ScenarioError> {
        root.check_keys("scenario", &ROOT_KEYS).map_err(err)?;
        if let Some(host) = root.get_path("host") {
            host.check_keys("host", &["cpu", "memory_gb"])
                .map_err(err)?;
        }
        let jobs_value = root
            .get_path("jobs")
            .and_then(|v| v.as_array())
            .ok_or_else(|| err("missing 'jobs' array"))?;
        if jobs_value.is_empty() {
            return Err(err("scenario needs at least one job"));
        }
        let mut jobs = Vec::with_capacity(jobs_value.len());
        for (i, jv) in jobs_value.iter().enumerate() {
            jv.check_keys(&format!("job {i}"), &JOB_KEYS).map_err(err)?;
            let name = get_str(jv, "name")?;
            let tasks = get_u32(jv, "tasks", 1)?;
            let partitions = get_u32(jv, "partitions", 64)?;
            if tasks == 0 || partitions < tasks {
                return Err(err(format!(
                    "job '{name}': need 1 <= tasks <= partitions (got {tasks}/{partitions})"
                )));
            }
            let resiliency = match jv.get_path("resiliency").and_then(|x| x.as_str()) {
                None => ResiliencyClass::Standard,
                Some(s) => ResiliencyClass::from_str(s).ok_or_else(|| {
                    err(format!(
                        "job '{name}': unknown resiliency class '{s}' \
                         (one of: best_effort, standard, critical)"
                    ))
                })?,
            };
            jobs.push(ScenarioJob {
                name,
                tasks,
                partitions,
                rate_mbps: get_f64(jv, "rate_mbps", Some(1.0))?,
                diurnal: get_f64(jv, "diurnal", Some(0.0))?,
                max_tasks: get_u32(jv, "max_tasks", 64)?,
                stateful_keys: get_f64(jv, "stateful_keys", Some(0.0))?,
                seed: get_u64(jv, "seed", Some(i as u64))?,
                resiliency,
            });
        }

        let mut events = Vec::new();
        if let Some(list) = root.get_path("events").and_then(|v| v.as_array()) {
            for (i, ev) in list.iter().enumerate() {
                ev.check_keys(&format!("event {i}"), &EVENT_KEYS)
                    .map_err(err)?;
                let action = get_str(ev, "action")?;
                let at_mins = get_u64(ev, "at_mins", None)?;
                let event = match action.as_str() {
                    "fail_host" => ScenarioEvent::FailHost {
                        at_mins,
                        host: get_u64(ev, "host", None)? as usize,
                    },
                    "recover_host" => ScenarioEvent::RecoverHost {
                        at_mins,
                        host: get_u64(ev, "host", None)? as usize,
                    },
                    "storm" => ScenarioEvent::Storm {
                        at_mins,
                        multiplier: get_f64(ev, "multiplier", None)?,
                        duration_mins: get_u64(ev, "duration_mins", None)?,
                    },
                    "oncall_set" => ScenarioEvent::OncallSet {
                        at_mins,
                        job: get_str(ev, "job")?,
                        path: get_str(ev, "path")?,
                        value: ev
                            .get_path("int")
                            .and_then(|x| x.as_int())
                            .ok_or_else(|| err("oncall_set needs an 'int' value"))?,
                    },
                    "oncall_clear" => ScenarioEvent::OncallClear {
                        at_mins,
                        job: get_str(ev, "job")?,
                    },
                    "delete_job" => ScenarioEvent::DeleteJob {
                        at_mins,
                        job: get_str(ev, "job")?,
                    },
                    "inject_fault" => ScenarioEvent::InjectFault {
                        at_mins,
                        fault: get_str(ev, "fault")?,
                        host: ev
                            .get_path("host")
                            .and_then(|x| x.as_int())
                            .map(|h| h as usize),
                        job: ev
                            .get_path("job")
                            .and_then(|x| x.as_str())
                            .map(str::to_string),
                        duration_mins: ev
                            .get_path("duration_mins")
                            .and_then(|x| x.as_int())
                            .map(|d| d as u64),
                    },
                    "clear_fault" => ScenarioEvent::ClearFault {
                        at_mins,
                        fault: get_str(ev, "fault")?,
                        host: ev
                            .get_path("host")
                            .and_then(|x| x.as_int())
                            .map(|h| h as usize),
                        job: ev
                            .get_path("job")
                            .and_then(|x| x.as_str())
                            .map(str::to_string),
                    },
                    other => return Err(err(format!("unknown action '{other}'"))),
                };
                events.push(event);
            }
        }
        events.sort_by_key(ScenarioEvent::at_mins);

        // Alert rules resolve job names against the provisioning order the
        // runner uses: the i-th scenario job becomes `JobId(i + 1)`.
        let mut alert_rules = Vec::new();
        if let Some(list) = root.get_path("alerts").and_then(|v| v.as_array()) {
            let resolve = |name: &str| {
                jobs.iter()
                    .position(|j| j.name == name)
                    .map(|i| i as u64 + 1)
            };
            alert_rules =
                turbine::parse_rules(list, resolve).map_err(|e| err(format!("alerts: {e}")))?;
        }

        let scenario = Scenario {
            hosts: get_u64(root, "hosts", Some(4))? as usize,
            host_cpu: get_f64(root, "host.cpu", Some(56.0))?,
            host_memory_gb: get_f64(root, "host.memory_gb", Some(256.0))?,
            duration_hours: get_f64(root, "duration_hours", Some(2.0))?,
            report_every_mins: get_u64(root, "report_every_mins", Some(30))?,
            scaler_enabled: root
                .get_path("scaler_enabled")
                .and_then(|v| v.as_bool())
                .unwrap_or(true),
            load_balancing: root
                .get_path("load_balancing")
                .and_then(|v| v.as_bool())
                .unwrap_or(true),
            jobs,
            events,
            alert_rules,
        };
        if scenario.hosts == 0 {
            return Err(err("scenario needs at least one host"));
        }
        for e in &scenario.events {
            let known = |job: &str| scenario.jobs.iter().any(|j| j.name == job);
            match e {
                ScenarioEvent::FailHost { host, .. } | ScenarioEvent::RecoverHost { host, .. } => {
                    if *host >= scenario.hosts {
                        return Err(err(format!(
                            "event references host {host} of {}",
                            scenario.hosts
                        )));
                    }
                }
                ScenarioEvent::OncallSet { job, .. }
                | ScenarioEvent::OncallClear { job, .. }
                | ScenarioEvent::DeleteJob { job, .. } => {
                    if !known(job) {
                        return Err(err(format!("event references unknown job '{job}'")));
                    }
                }
                ScenarioEvent::Storm { multiplier, .. } => {
                    if *multiplier <= 0.0 {
                        return Err(err("storm multiplier must be positive"));
                    }
                }
                ScenarioEvent::InjectFault {
                    fault, host, job, ..
                }
                | ScenarioEvent::ClearFault {
                    fault, host, job, ..
                } => {
                    if !Fault::KINDS.contains(&fault.as_str()) {
                        return Err(err(format!(
                            "unknown fault '{fault}' (one of: {})",
                            Fault::KINDS.join(", ")
                        )));
                    }
                    if fault == "heartbeat_loss" {
                        match host {
                            Some(h) if *h < scenario.hosts => {}
                            Some(h) => {
                                return Err(err(format!(
                                    "fault event references host {h} of {}",
                                    scenario.hosts
                                )))
                            }
                            None => return Err(err("heartbeat_loss needs a 'host' index")),
                        }
                    }
                    if fault == "scribe_stall" {
                        match job {
                            Some(j) if known(j) => {}
                            Some(j) => {
                                return Err(err(format!(
                                    "fault event references unknown job '{j}'"
                                )))
                            }
                            None => return Err(err("scribe_stall needs a 'job' name")),
                        }
                    }
                }
            }
        }
        Ok(scenario)
    }

    /// The built-in demo scenario: a small diurnal fleet with a host
    /// failure and a storm.
    pub fn demo() -> Scenario {
        Scenario::parse(DEMO_SCENARIO).expect("built-in demo must parse")
    }
}

/// The JSON text of the built-in demo scenario (also a format reference).
pub const DEMO_SCENARIO: &str = r#"{
  "hosts": 6,
  "host": {"cpu": 56.0, "memory_gb": 256.0},
  "duration_hours": 6.0,
  "report_every_mins": 30,
  "scaler_enabled": true,
  "jobs": [
    {"name": "clicks", "tasks": 4, "partitions": 64, "rate_mbps": 4.0, "diurnal": 0.3, "max_tasks": 64, "seed": 1},
    {"name": "views",  "tasks": 2, "partitions": 32, "rate_mbps": 2.0, "diurnal": 0.3, "max_tasks": 64, "seed": 2},
    {"name": "counters", "tasks": 4, "partitions": 64, "rate_mbps": 3.0, "stateful_keys": 5000000.0, "max_tasks": 64, "seed": 3}
  ],
  "events": [
    {"action": "fail_host", "at_mins": 90, "host": 0},
    {"action": "recover_host", "at_mins": 150, "host": 0},
    {"action": "storm", "at_mins": 210, "multiplier": 1.2, "duration_mins": 90},
    {"action": "oncall_set", "at_mins": 300, "job": "views", "path": "task_count", "int": 8}
  ]
}"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_scenario_parses_and_validates() {
        let s = Scenario::demo();
        assert_eq!(s.hosts, 6);
        assert_eq!(s.jobs.len(), 3);
        assert_eq!(s.events.len(), 4);
        assert!(s.jobs[2].stateful_keys > 0.0);
    }

    #[test]
    fn events_are_sorted_by_time() {
        let s = Scenario::parse(
            r#"{"jobs": [{"name": "j"}],
                "events": [
                  {"action": "oncall_clear", "at_mins": 50, "job": "j"},
                  {"action": "fail_host", "at_mins": 10, "host": 0}
                ]}"#,
        )
        .expect("parse");
        assert_eq!(s.events[0].at_mins(), 10);
        assert_eq!(s.events[1].at_mins(), 50);
    }

    #[test]
    fn defaults_fill_optional_fields() {
        let s = Scenario::parse(r#"{"jobs": [{"name": "solo"}]}"#).expect("parse");
        assert_eq!(s.hosts, 4);
        assert_eq!(s.jobs[0].tasks, 1);
        assert_eq!(s.jobs[0].partitions, 64);
        assert_eq!(s.jobs[0].resiliency, ResiliencyClass::Standard);
        assert!(s.scaler_enabled);
        assert!(s.events.is_empty());
    }

    #[test]
    fn resiliency_classes_parse_and_validate() {
        let s = Scenario::parse(
            r#"{"jobs": [
                  {"name": "a", "resiliency": "critical"},
                  {"name": "b", "resiliency": "best_effort"}
                ]}"#,
        )
        .expect("parse");
        assert_eq!(s.jobs[0].resiliency, ResiliencyClass::Critical);
        assert_eq!(s.jobs[1].resiliency, ResiliencyClass::BestEffort);
        assert!(
            Scenario::parse(r#"{"jobs": [{"name": "a", "resiliency": "platinum"}]}"#).is_err(),
            "unknown resiliency class"
        );
    }

    #[test]
    fn alert_rules_parse_and_resolve_job_names() {
        let s = Scenario::parse(
            r#"{"jobs": [{"name": "other"}, {"name": "billing"}],
                "alerts": [
                  {"name": "lag-high", "scope": "job", "job": "billing",
                   "metric": "lag_secs", "kind": "threshold", "above": 90.0,
                   "for_mins": 2, "severity": "critical"},
                  {"name": "fleet-quiet", "metric": "cluster_traffic_bps",
                   "kind": "absence", "stale_for_mins": 5}
                ]}"#,
        )
        .expect("parse");
        assert_eq!(s.alert_rules.len(), 2);
        assert_eq!(s.alert_rules[0].name, "lag-high");
        // "billing" is the second job, so it resolves to JobId 2's raw id.
        assert_eq!(s.alert_rules[0].metric.to_string(), "job/2/lag_secs");
    }

    #[test]
    fn alert_rules_with_unknown_jobs_are_rejected() {
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "alerts": [{"name": "r", "scope": "job", "job": "ghost",
                                "metric": "lag_secs", "kind": "threshold", "above": 1.0}]}"#
            )
            .is_err(),
            "unknown job in alert rule"
        );
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "alerts": [{"name": "r", "metric": "m", "kind": "sorcery"}]}"#
            )
            .is_err(),
            "unknown rule kind"
        );
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        assert!(Scenario::parse("{}").is_err(), "no jobs");
        assert!(Scenario::parse(r#"{"jobs": []}"#).is_err(), "empty jobs");
        assert!(
            Scenario::parse(r#"{"jobs": [{"name": "j", "tasks": 9, "partitions": 4}]}"#).is_err(),
            "tasks > partitions"
        );
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "events": [{"action": "fail_host", "at_mins": 1, "host": 99}]}"#
            )
            .is_err(),
            "host out of range"
        );
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "events": [{"action": "delete_job", "at_mins": 1, "job": "ghost"}]}"#
            )
            .is_err(),
            "unknown job"
        );
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "events": [{"action": "explode", "at_mins": 1}]}"#
            )
            .is_err(),
            "unknown action"
        );
        assert!(Scenario::parse("not json").is_err());
    }

    #[test]
    fn counts_past_u32_are_refused_not_truncated() {
        // 2^32 + 64 would wrap to 64 partitions.
        let e = Scenario::parse(r#"{"jobs": [{"name": "j", "partitions": 4294967360}]}"#)
            .expect_err("partitions past u32");
        assert!(e.to_string().contains("'partitions'"), "{e}");
        for key in ["tasks", "max_tasks"] {
            let text = format!(r#"{{"jobs": [{{"name": "j", "{key}": 4294967297}}]}}"#);
            assert!(Scenario::parse(&text).is_err(), "{key} past u32");
        }
    }

    #[test]
    fn misspelled_keys_are_rejected_loudly() {
        let e = Scenario::parse(r#"{"jobs": [{"name": "j"}], "duration_hour": 2.0}"#)
            .expect_err("root typo");
        assert!(e.to_string().contains("unknown key 'duration_hour'"), "{e}");
        // The metrics plane is part of the platform: its former off-switch
        // is an unknown key like any other.
        let e = Scenario::parse(r#"{"jobs": [{"name": "j"}], "ods_enabled": false}"#)
            .expect_err("removed key");
        assert!(e.to_string().contains("unknown key 'ods_enabled'"), "{e}");
        let e = Scenario::parse(r#"{"jobs": [{"name": "j", "resilency": "critical"}]}"#)
            .expect_err("job typo");
        assert!(e.to_string().contains("unknown key 'resilency'"), "{e}");
        let e = Scenario::parse(
            r#"{"jobs": [{"name": "j"}],
                "events": [{"action": "fail_host", "at_mins": 1, "host": 0, "durationmins": 5}]}"#,
        )
        .expect_err("event typo");
        assert!(e.to_string().contains("unknown key 'durationmins'"), "{e}");
        let e = Scenario::parse(r#"{"jobs": [{"name": "j"}], "host": {"cpus": 4.0}}"#)
            .expect_err("host typo");
        assert!(e.to_string().contains("unknown key 'cpus'"), "{e}");
    }

    #[test]
    fn fault_events_parse_with_addressing_fields() {
        let s = Scenario::parse(
            r#"{"jobs": [{"name": "j"}],
                "events": [
                  {"action": "inject_fault", "at_mins": 10, "fault": "task_service_down", "duration_mins": 5},
                  {"action": "inject_fault", "at_mins": 20, "fault": "heartbeat_loss", "host": 1},
                  {"action": "inject_fault", "at_mins": 30, "fault": "scribe_stall", "job": "j"},
                  {"action": "clear_fault", "at_mins": 40, "fault": "heartbeat_loss", "host": 1}
                ]}"#,
        )
        .expect("parse");
        assert_eq!(s.events.len(), 4);
        assert!(matches!(
            &s.events[0],
            ScenarioEvent::InjectFault { fault, duration_mins: Some(5), .. } if fault == "task_service_down"
        ));
        assert!(matches!(
            &s.events[1],
            ScenarioEvent::InjectFault { host: Some(1), .. }
        ));
        assert!(matches!(
            &s.events[3],
            ScenarioEvent::ClearFault { host: Some(1), .. }
        ));
    }

    #[test]
    fn invalid_fault_events_are_rejected() {
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "events": [{"action": "inject_fault", "at_mins": 1, "fault": "gremlins"}]}"#
            )
            .is_err(),
            "unknown fault name"
        );
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "events": [{"action": "inject_fault", "at_mins": 1, "fault": "heartbeat_loss"}]}"#
            )
            .is_err(),
            "heartbeat_loss without host"
        );
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "events": [{"action": "inject_fault", "at_mins": 1, "fault": "heartbeat_loss", "host": 9}]}"#
            )
            .is_err(),
            "host out of range"
        );
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "events": [{"action": "inject_fault", "at_mins": 1, "fault": "scribe_stall"}]}"#
            )
            .is_err(),
            "scribe_stall without job"
        );
        assert!(
            Scenario::parse(
                r#"{"jobs": [{"name": "j"}],
                    "events": [{"action": "inject_fault", "at_mins": 1, "fault": "scribe_stall", "job": "ghost"}]}"#
            )
            .is_err(),
            "scribe_stall with unknown job"
        );
    }
}
