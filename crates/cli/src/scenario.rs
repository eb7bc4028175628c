//! Scenario schema and parsing.
//!
//! Scenarios are plain JSON handled by the workspace's own config parser,
//! so the CLI needs no external dependencies and scenario files enjoy the
//! same deterministic parse/print semantics as job configurations.

use std::fmt;
use turbine::{AlertRule, Fault};
use turbine_config::record::{self, Fields};
use turbine_config::{config_record, ConfigField, ConfigValue, FieldError, ResiliencyClass};
use turbine_types::Duration;

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
    /// Seed for the job's traffic noise; absent means the job's index in
    /// the scenario.
    pub seed: Option<u64>,
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
    /// The scenario's `"events"` array as written.
    pub timeline: Vec<ConfigValue>,
    /// `timeline` decoded, sorted by firing time.
    pub events: Vec<ScenarioEvent>,
    /// The scenario's `"alerts"` array as written.
    pub alerts: Vec<ConfigValue>,
    /// `alerts` as rules, resolved against the scenario's job names.
    /// Installed on top of the platform's default per-critical-job lag
    /// rules.
    pub alert_rules: Vec<AlertRule>,
}

config_record!(Scenario closed {
    hosts = 4,
    host_cpu as "host.cpu" = 56.0,
    host_memory_gb as "host.memory_gb" = 256.0,
    duration_hours = 2.0,
    report_every_mins = 30,
    scaler_enabled = true,
    load_balancing = true,
    jobs: Vec<ScenarioJob>,
    timeline as "events": Vec<ConfigValue> = Vec::new(),
    alerts = Vec::new(),
} derived {
    events: ScenarioEvent::timeline(&timeline)?,
    // Alert rules resolve job names against the provisioning order the
    // runner uses: the i-th scenario job becomes `JobId(i + 1)`.
    alert_rules: turbine::parse_rules(&alerts, |name| {
        jobs.iter().position(|j| j.name == name).map(|i| i as u64 + 1)
    })
    .map_err(|e| FieldError::object(e).at("alerts"))?,
});

config_record!(ScenarioJob closed {
    name,
    tasks = 1,
    partitions = 64,
    rate_mbps = 1.0,
    diurnal = 0.0,
    max_tasks = 64,
    stateful_keys = 0.0,
    seed,
    resiliency = ResiliencyClass::Standard,
});

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

impl ScenarioEvent {
    /// Decode one timeline entry: the action names the fields it reads.
    fn from_value(ev: &ConfigValue) -> Result<Self, FieldError> {
        let mut ev = Fields::of(ev)?;
        let at_mins = ev.get::<Duration>("at_mins")?.as_mins();
        let action: String = ev.get("action")?;
        let event = match action.as_str() {
            "fail_host" => ScenarioEvent::FailHost {
                at_mins,
                host: ev.get("host")?,
            },
            "recover_host" => ScenarioEvent::RecoverHost {
                at_mins,
                host: ev.get("host")?,
            },
            "storm" => ScenarioEvent::Storm {
                at_mins,
                multiplier: ev.get("multiplier")?,
                duration_mins: ev.get::<Duration>("duration_mins")?.as_mins(),
            },
            "oncall_set" => ScenarioEvent::OncallSet {
                at_mins,
                job: ev.get("job")?,
                path: ev.get("path")?,
                value: ev.get("int")?,
            },
            "oncall_clear" => ScenarioEvent::OncallClear {
                at_mins,
                job: ev.get("job")?,
            },
            "delete_job" => ScenarioEvent::DeleteJob {
                at_mins,
                job: ev.get("job")?,
            },
            "inject_fault" => ScenarioEvent::InjectFault {
                at_mins,
                fault: ev.get("fault")?,
                host: ev.get("host")?,
                job: ev.get("job")?,
                duration_mins: ev
                    .get::<Option<Duration>>("duration_mins")?
                    .map(Duration::as_mins),
            },
            "clear_fault" => ScenarioEvent::ClearFault {
                at_mins,
                fault: ev.get("fault")?,
                host: ev.get("host")?,
                job: ev.get("job")?,
            },
            other => {
                return Err(FieldError::value(format!("has unknown value '{other}'")).at("action"))
            }
        };
        ev.done()?;
        Ok(event)
    }

    /// The `"events"` array as timeline events, sorted by firing time.
    fn timeline(list: &[ConfigValue]) -> Result<Vec<ScenarioEvent>, FieldError> {
        let mut events = record::each(list, Self::from_value).map_err(|e| e.at("events"))?;
        events.sort_by_key(Self::at_mins);
        Ok(events)
    }
}

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
        let scenario = Scenario::decode(root).map_err(|e| err(e.to_string()))?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// The checks that span fields: every count positive, every event's
    /// host and job exist, and every window ends inside the simulated
    /// clock's range.
    fn validate(&self) -> Result<(), ScenarioError> {
        if self.jobs.is_empty() {
            return Err(err("scenario needs at least one job"));
        }
        for job in &self.jobs {
            if job.tasks == 0 || job.partitions < job.tasks {
                return Err(err(format!(
                    "job '{}': need 1 <= tasks <= partitions (got {}/{})",
                    job.name, job.tasks, job.partitions
                )));
            }
        }
        if self.hosts == 0 {
            return Err(err("scenario needs at least one host"));
        }
        for (key, size) in [
            ("host.cpu", self.host_cpu),
            ("host.memory_gb", self.host_memory_gb),
        ] {
            if size <= 0.0 {
                return Err(err(format!("{key} must be positive")));
            }
        }
        if self.report_every_mins == 0 {
            return Err(err("report_every_mins must be positive"));
        }
        for e in &self.events {
            let known = |job: &str| self.jobs.iter().any(|j| j.name == job);
            match e {
                ScenarioEvent::FailHost { host, .. } | ScenarioEvent::RecoverHost { host, .. } => {
                    if *host >= self.hosts {
                        return Err(err(format!(
                            "event references host {host} of {}",
                            self.hosts
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
                            Some(h) if *h < self.hosts => {}
                            Some(h) => {
                                return Err(err(format!(
                                    "fault event references host {h} of {}",
                                    self.hosts
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
            // An event fires at a minute no earlier than 1; its window's
            // end, in milliseconds, must fit the clock. Both counts decoded
            // below `u64::MAX / 60_000`, so the sum cannot overflow.
            let window = match e {
                ScenarioEvent::Storm { duration_mins, .. } => Some(*duration_mins),
                ScenarioEvent::InjectFault { duration_mins, .. } => *duration_mins,
                _ => None,
            };
            if window.is_some_and(|mins| e.at_mins().max(1) + mins > u64::MAX / 60_000) {
                return Err(err(format!(
                    "event at minute {}: duration_mins ends past the simulated clock",
                    e.at_mins()
                )));
            }
        }
        Ok(())
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

    /// The error `Scenario::parse` gives for a one-job scenario with
    /// `extra` root keys.
    fn refusal(extra: &str) -> String {
        Scenario::parse(&format!(r#"{{"jobs": [{{"name": "j"}}], {extra}}}"#))
            .expect_err(extra)
            .to_string()
    }

    #[test]
    fn a_zero_report_interval_is_refused() {
        // Every report row is taken at `minute % report_every_mins`: a zero
        // panicked the runner with "remainder with a divisor of zero".
        let e = refusal(r#""report_every_mins": 0"#);
        assert!(e.contains("report_every_mins"), "{e}");
    }

    #[test]
    fn hostile_fault_numbers_are_refused_not_wrapped() {
        // `-5 as u64` cleared the fault a minute later (or overflowed
        // `Duration::from_mins`), and host -1 was "host
        // 18446744073709551615 of 4".
        for (event, key) in [
            (
                r#""fault": "task_service_down", "duration_mins": -5"#,
                "'duration_mins'",
            ),
            (r#""fault": "heartbeat_loss", "host": -1"#, "'host'"),
            (
                r#""fault": "task_service_down", "duration_mins": 307445734561826"#,
                "'duration_mins'",
            ),
        ] {
            let e = refusal(&format!(
                r#""events": [{{"action": "inject_fault", "at_mins": 10, {event}}}]"#
            ));
            assert!(
                e.contains("out of range") && e.contains(key),
                "{event}: {e}"
            );
        }
        // The largest count decodes, but a window that ends past the
        // clock's range is refused too.
        let e = refusal(
            r#""events": [{"action": "inject_fault", "at_mins": 10,
                          "fault": "task_service_down", "duration_mins": 307445734561825}]"#,
        );
        assert!(e.contains("duration_mins ends past"), "{e}");
    }

    #[test]
    fn hostile_host_shapes_are_refused() {
        // Each of these panicked `Turbine::add_hosts` ("fresh host has
        // capacity").
        for (host, key) in [
            (r#""cpu": 0.0"#, "host.cpu"),
            (r#""cpu": -4.0"#, "host.cpu"),
            (r#""memory_gb": 0"#, "host.memory_gb"),
            (r#""memory_gb": 1e999"#, "host.memory_gb"),
            (r#""cpu": 1e999"#, "host.cpu"),
        ] {
            let e = refusal(&format!(r#""host": {{{host}}}"#));
            assert!(e.contains(key), "{host}: {e}");
        }
    }
}
