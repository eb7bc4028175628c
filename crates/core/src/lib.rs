//! Turbine: a service management platform for stream processing.
//!
//! This crate is the top of the workspace reproducing *"Turbine: Facebook's
//! Service Management Platform for Stream Processing"* (ICDE 2020). It
//! wires the three decoupled layers —
//!
//! * **Job Management** (*what* to run): [`turbine_jobstore`] +
//!   [`turbine_statesyncer`] — hierarchical expected configs, ACIDF
//!   updates;
//! * **Task Management** (*where* to run): [`turbine_taskmgr`] +
//!   [`turbine_shardmgr`] — two-level scheduling, load balancing,
//!   heartbeat fail-over;
//! * **Resource Management** (*how* to run): [`turbine_autoscaler`] —
//!   reactive/proactive/preactive scaling and capacity management
//!
//! — on top of the simulated substrates ([`turbine_cluster`],
//! [`turbine_scribe`]) and drives them in simulated time with a data-plane
//! model faithful to the paper's workload observations.
//!
//! # Quick start
//!
//! ```
//! use turbine::{Turbine, TurbineConfig};
//! use turbine_config::JobConfig;
//! use turbine_types::{Duration, JobId, Resources};
//! use turbine_workloads::TrafficModel;
//!
//! let mut turbine = Turbine::new(TurbineConfig::default());
//! turbine.add_hosts(4, Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0));
//!
//! let job = JobId(1);
//! turbine
//!     .provision_job(job, JobConfig::stateless("quickstart", 2, 16),
//!                    TrafficModel::flat(1.5e6), 1.0e6, 256.0)
//!     .expect("provision");
//!
//! turbine.run_for(Duration::from_mins(10));
//! assert!(turbine.job_status(job).expect("status").running_tasks == 2);
//! ```

pub mod dashboard;
pub mod engine;
pub mod invariants;
pub mod metrics;
pub mod platform;

pub use dashboard::{fleet_health, tier_slo_table, FleetHealth, HealthIssue, TierSlo};
pub use invariants::{InvariantChecker, InvariantConfig, Violation};
pub use metrics::{recovery_budget, DiagnosisRecord, PlatformMetrics, RecoveryRecord};
pub use platform::{
    ControlEvent, DriveMode, JobStatus, PlatformFingerprint, Turbine, TurbineConfig,
};
// Re-exported so downstream crates (CLI, benches, tests) can schedule
// faults without depending on the sim crate directly.
pub use turbine_sim::{Fault, FaultPlan, FaultTransition};
// Re-exported so downstream crates can query the decision trace without
// depending on the trace crate directly.
pub use turbine_trace::{Component as TraceComponent, TraceBuffer, TraceData, TraceEvent, TraceId};
// Re-exported so downstream crates can read the metrics registry, install
// alert rules, and export series without depending on the ods crate
// directly.
pub use turbine_ods::{
    parse_rules, AlertEngine, AlertRule, Incident, MetricId, MetricKey, Registry as OdsRegistry,
    RuleKind, Scope as OdsScope, Severity, ThresholdOp,
};
