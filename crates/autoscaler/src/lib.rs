//! Turbine's elastic resource management (paper §V).
//!
//! Three generations of scaling logic, all implemented here:
//!
//! * the **reactive** scaler (§V-A, Algorithm 2): symptom detectors for lag
//!   (`time_lagged`, Eq. 1), imbalanced input, and OOMs, with
//!   diagnosis-resolver responses — kept as the ablation baseline;
//! * the **proactive** scaler (§V-B): resource estimators (Eq. 2 and 3 for
//!   CPU; cardinality/window-proportional models for stateful memory and
//!   disk) feeding a Plan Generator that refuses destabilizing decisions
//!   (downscaling a healthy job into unhealthiness, scaling on untriaged
//!   problems) and applies multi-resource adjustments in a correlated way;
//! * the **preactive** layer (§V-C): the Pattern Analyzer, which adjusts the
//!   per-thread max-throughput estimate `P` from observed outcomes and
//!   consults 14 days of per-minute workload history so that predictable
//!   diurnal swings do not churn resource allocation.
//!
//! The **Capacity Manager** (§V-F) watches cluster-wide usage, prioritizes
//! privileged jobs when capacity runs low, and stops low-priority jobs as a
//! last resort. The **auto root-causer** (§V-D, §IX) classifies untriaged
//! problems — hardware issue / bad user update / dependency failure — and
//! proposes the safe mitigation for each.

pub mod capacity;
pub mod estimator;
pub mod patterns;
pub mod rootcause;
pub mod scaler;
pub mod symptoms;

pub use capacity::CapacityDirective;
pub use estimator::{
    cpu_units_needed, estimate_resources, required_task_count, ResourceEstimate, MAX_CPU_UNITS,
    MAX_ESTIMATED_TASKS,
};
pub use patterns::{PatternAnalyzer, PatternConfig, PatternVerdict, ThroughputModel};
pub use rootcause::{
    diagnose, hardware_anomaly, Diagnosis, DiagnosisInput, Mitigation, RootCause, Triage,
};
pub use scaler::{
    AutoScaler, LagEpisode, ScalerConfig, ScalerMode, ScalingAction, ScalingDecision,
};
pub use symptoms::{detect, JobMetrics, RunningTask, Symptom};
