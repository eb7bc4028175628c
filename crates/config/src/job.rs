//! The typed job configuration schema.
//!
//! Production Turbine enforces compile-time type checking of configurations
//! with Thrift and then serializes to JSON for layering (paper §III-A).
//! [`JobConfig`] plays the Thrift role here: a statically typed view with
//! lossless conversion to/from the [`ConfigValue`] JSON model, plus the
//! validation checks a query must pass before provisioning.

use crate::record::{ConfigField, ConfigWord};
use crate::value::ConfigValue;
use crate::{config_record, config_words};
use std::fmt;
use turbine_types::{Priority, Resources};

/// Name and version of the binary package a job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageSpec {
    /// Package name, e.g. `"scribe_tailer"`.
    pub name: String,
    /// Monotonically increasing release version.
    pub version: u64,
}

/// How per-task memory limits are enforced (paper §V-A): the detection
/// path for OOM symptoms differs per mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryEnforcement {
    /// cgroup limit; OOM stats are preserved after the kill.
    Cgroup,
    /// JVM `-Xmx`; the JVM posts OOM metrics before killing the task.
    Jvm,
    /// No hard enforcement; usage is compared against a soft limit.
    #[default]
    SoftLimit,
}

/// Per-job resiliency class: how aggressively the platform defends the
/// job's availability when containers fail. Tiers trade standby capacity
/// for recovery speed — `Critical` jobs keep a warm standby on a distinct
/// host and fail over on a fast path that skips the full sync round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ResiliencyClass {
    /// No recovery-time guarantee; restarts ride the normal rebalance.
    BestEffort,
    /// The paper's default: fail-over after the 60 s interval plus a
    /// restart delay, through the standard sync path.
    #[default]
    Standard,
    /// Warm standby on a distinct host; heartbeat loss promotes it via the
    /// fast path (no full State Syncer round, no restart delay).
    Critical,
}

impl ResiliencyClass {
    /// Canonical serialized name of the class.
    pub fn as_str(self) -> &'static str {
        self.word()
    }

    /// Parse a canonical class name; `None` for unknown strings (the
    /// `Option` return is the point — callers branch, they don't want a
    /// `FromStr` error type).
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Self> {
        Self::from_word(s)
    }

    /// All classes, in tier order (for dashboards and SLO reports).
    pub const ALL: [ResiliencyClass; 3] = [
        ResiliencyClass::BestEffort,
        ResiliencyClass::Standard,
        ResiliencyClass::Critical,
    ];
}

/// Fully resolved configuration of one streaming job: everything the Task
/// Service needs to expand the job into task specs, and everything the Auto
/// Scaler needs to reason about its resources.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Binary package to run.
    pub package: PackageSpec,
    /// Command-line argument template. The Task Service substitutes
    /// `{index}`, `{count}`, `{category}`, and `{checkpoint_dir}` per task
    /// when expanding the job into task specs.
    pub args: Vec<String>,
    /// Number of parallel tasks (the job's degree of parallelism).
    pub task_count: u32,
    /// Worker threads per task (`k` in the paper's Eq. 2).
    pub threads_per_task: u32,
    /// Resources reserved for each task.
    pub task_resources: Resources,
    /// Directory where tasks persist checkpoints.
    pub checkpoint_dir: String,
    /// Scribe category the job consumes.
    pub input_category: String,
    /// Number of partitions in the input category. Each task reads a
    /// disjoint subset, so `task_count <= input_partitions`.
    pub input_partitions: u32,
    /// Whether the job maintains application state beyond checkpoints
    /// (aggregations, joins) — changes the complex-sync protocol and the
    /// scaler's memory/disk estimation.
    pub stateful: bool,
    /// Business priority (Capacity Manager ordering).
    pub priority: Priority,
    /// SLO threshold on `time_lagged`, in seconds (e.g. the 90-second
    /// end-to-end guarantee common at Facebook).
    pub slo_lag_secs: f64,
    /// Memory enforcement mode.
    pub memory_enforcement: MemoryEnforcement,
    /// Upper limit on `task_count` enforced against runaway scaling (the
    /// paper's default is 32 for unprivileged Scuba tailers).
    pub max_task_count: u32,
    /// Resiliency tier: how fast the platform must recover the job when
    /// its container fails (warm standby + fast-path fail-over for
    /// `Critical`).
    pub resiliency: ResiliencyClass,
}

impl JobConfig {
    /// A minimal valid stateless job, handy for tests and examples.
    pub fn stateless(name: &str, task_count: u32, input_partitions: u32) -> JobConfig {
        JobConfig {
            package: PackageSpec {
                name: name.to_string(),
                version: 1,
            },
            args: vec![
                "--task-index={index}".to_string(),
                "--task-count={count}".to_string(),
                "--category={category}".to_string(),
            ],
            task_count,
            threads_per_task: 1,
            task_resources: Resources::cpu_mem(1.0, 800.0),
            checkpoint_dir: format!("/checkpoints/{name}"),
            input_category: format!("{name}_input"),
            input_partitions,
            stateful: false,
            priority: Priority::Normal,
            slo_lag_secs: 90.0,
            memory_enforcement: MemoryEnforcement::SoftLimit,
            max_task_count: 32,
            resiliency: ResiliencyClass::Standard,
        }
    }

    /// Validation checks performed before a job is provisioned. Returns the
    /// first violation found.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if self.package.name.is_empty() {
            return Err(ValidationError::new("package.name must be non-empty"));
        }
        if self.task_count == 0 {
            return Err(ValidationError::new("task_count must be at least 1"));
        }
        if self.threads_per_task == 0 {
            return Err(ValidationError::new("threads_per_task must be at least 1"));
        }
        if self.input_partitions == 0 {
            return Err(ValidationError::new("input_partitions must be at least 1"));
        }
        if self.task_count > self.input_partitions {
            return Err(ValidationError::new(
                "task_count cannot exceed input_partitions: each task reads a disjoint, non-empty partition subset",
            ));
        }
        if self.task_count > self.max_task_count {
            return Err(ValidationError::new("task_count exceeds max_task_count"));
        }
        if !self.task_resources.is_non_negative() || self.task_resources.cpu <= 0.0 {
            return Err(ValidationError::new(
                "task_resources must be non-negative with positive cpu",
            ));
        }
        if self.slo_lag_secs <= 0.0 || self.slo_lag_secs.is_nan() {
            return Err(ValidationError::new("slo_lag_secs must be positive"));
        }
        Ok(())
    }

    /// Serialize to the JSON model. The inverse of [`JobConfig::from_value`].
    pub fn to_value(&self) -> ConfigValue {
        self.encode()
    }

    /// Decode a merged configuration back into the typed schema. Fails if a
    /// required field is missing or has the wrong type — the JSON layering
    /// is schemaless, so this is where type errors surface. Keys the schema
    /// does not name are ignored: an Oncall layer may carry them.
    pub fn from_value(v: &ConfigValue) -> Result<JobConfig, ValidationError> {
        Self::decode(v).map_err(|e| ValidationError::new(&e.to_string()))
    }
}

config_record!(JobConfig open {
    package,
    args,
    task_count,
    threads_per_task,
    task_resources as "resources",
    checkpoint_dir,
    input_category as "input.category",
    input_partitions as "input.partitions",
    stateful,
    priority,
    slo_lag_secs,
    memory_enforcement,
    max_task_count,
    // Absent in configs written before resiliency tiers existed.
    resiliency = ResiliencyClass::Standard,
});

config_record!(PackageSpec open { name, version });

config_record!(Resources open { cpu, memory_mb, disk_mb, network_mbps });

config_words!(MemoryEnforcement {
    Cgroup => "cgroup",
    Jvm => "jvm",
    SoftLimit => "soft_limit",
});

config_words!(ResiliencyClass {
    BestEffort => "best_effort",
    Standard => "standard",
    Critical => "critical",
});

/// A failed schema validation or typed decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Human-readable description of the violation.
    pub message: String,
}

impl ValidationError {
    fn new(message: &str) -> Self {
        ValidationError {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid job config: {}", self.message)
    }
}

impl std::error::Error for ValidationError {}

turbine_types::snap_struct!(PackageSpec { name, version });

turbine_types::snap_enum!(MemoryEnforcement { 0 => Cgroup, 1 => Jvm, 2 => SoftLimit });

turbine_types::snap_enum!(ResiliencyClass { 0 => BestEffort, 1 => Standard, 2 => Critical });

turbine_types::snap_struct!(JobConfig {
    package,
    args,
    task_count,
    threads_per_task,
    task_resources,
    checkpoint_dir,
    input_category,
    input_partitions,
    stateful,
    priority,
    slo_lag_secs,
    memory_enforcement,
    max_task_count,
    resiliency
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stateless_template_is_valid() {
        let cfg = JobConfig::stateless("tailer", 4, 16);
        cfg.validate().expect("template must validate");
    }

    #[test]
    fn typed_roundtrip_through_json() {
        let mut cfg = JobConfig::stateless("tailer", 4, 16);
        cfg.stateful = true;
        cfg.priority = Priority::Privileged;
        cfg.memory_enforcement = MemoryEnforcement::Cgroup;
        cfg.resiliency = ResiliencyClass::Critical;
        cfg.task_resources = Resources::new(2.5, 1024.0, 4096.0, 12.5);
        let decoded = JobConfig::from_value(&cfg.to_value()).expect("decode");
        assert_eq!(decoded, cfg);
    }

    #[test]
    fn resiliency_defaults_to_standard_when_absent() {
        // Configs persisted before the resiliency field existed must keep
        // decoding (the Job Store replays old WAL entries on recovery).
        let mut v = JobConfig::stateless("tailer", 2, 8).to_value();
        v.as_map_mut().expect("map").remove("resiliency");
        let cfg = JobConfig::from_value(&v).expect("decode");
        assert_eq!(cfg.resiliency, ResiliencyClass::Standard);
    }

    #[test]
    fn resiliency_names_roundtrip_and_reject_unknowns() {
        for class in ResiliencyClass::ALL {
            assert_eq!(ResiliencyClass::from_str(class.as_str()), Some(class));
        }
        assert_eq!(ResiliencyClass::from_str("platinum"), None);
        let mut v = JobConfig::stateless("t", 1, 1).to_value();
        v.insert("resiliency", "platinum".into());
        assert!(JobConfig::from_value(&v).is_err());
    }

    #[test]
    fn roundtrip_survives_text_serialization() {
        let cfg = JobConfig::stateless("tailer", 2, 8);
        let text = crate::text::to_text(&cfg.to_value());
        let reparsed = crate::text::parse(&text).expect("parse");
        assert_eq!(JobConfig::from_value(&reparsed).expect("decode"), cfg);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = JobConfig::stateless("tailer", 4, 16);
        cfg.task_count = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = JobConfig::stateless("tailer", 4, 16);
        cfg.task_count = 17; // more tasks than partitions
        assert!(cfg.validate().is_err());

        let mut cfg = JobConfig::stateless("tailer", 4, 16);
        cfg.max_task_count = 2;
        assert!(cfg.validate().is_err());

        let mut cfg = JobConfig::stateless("", 4, 16);
        cfg.package.name.clear();
        assert!(cfg.validate().is_err());

        let mut cfg = JobConfig::stateless("tailer", 4, 16);
        cfg.slo_lag_secs = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = JobConfig::stateless("tailer", 4, 16);
        cfg.task_resources.cpu = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn decode_reports_missing_fields() {
        let err = JobConfig::from_value(&ConfigValue::empty_map()).expect_err("must fail");
        assert!(err.message.contains("missing"), "got: {}", err.message);
    }

    #[test]
    fn decode_reports_type_errors() {
        let mut v = JobConfig::stateless("t", 1, 1).to_value();
        v.insert("task_count", "four".into());
        let err = JobConfig::from_value(&v).expect_err("must fail");
        assert!(err.message.contains("task_count"));
    }

    #[test]
    fn decode_rejects_unknown_enum_strings() {
        let mut v = JobConfig::stateless("t", 1, 1).to_value();
        v.insert("priority", "urgent".into());
        assert!(JobConfig::from_value(&v).is_err());

        let mut v = JobConfig::stateless("t", 1, 1).to_value();
        v.insert("memory_enforcement", "none".into());
        assert!(JobConfig::from_value(&v).is_err());
    }

    #[test]
    fn scaler_override_merges_into_typed_view() {
        // A Scaler-level config that only bumps task_count layers cleanly
        // over the base config and decodes back.
        let base = JobConfig::stateless("tailer", 4, 64).to_value();
        let mut scaler = ConfigValue::empty_map();
        scaler.insert("task_count", 12u32.into());
        let merged = crate::merge::layer_configs(&base, &scaler);
        let cfg = JobConfig::from_value(&merged).expect("decode");
        assert_eq!(cfg.task_count, 12);
        assert_eq!(cfg.package.name, "tailer");
    }
}
