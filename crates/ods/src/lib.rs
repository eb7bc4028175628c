//! An ODS-style metrics plane for the Turbine reproduction.
//!
//! Facebook's stream-processing control decisions — symptom detection,
//! auto-scaling, oncall escalation — are all driven by monitoring time
//! series from ODS (paper §V). This crate reproduces that layer as three
//! pieces:
//!
//! * [`Registry`] — a typed time-series registry. Every series is
//!   identified by a [`MetricKey`] (an entity [`Scope`] × metric name),
//!   interned once into a dense [`MetricId`] so steady-state publishing is
//!   an index plus a run-encoded append ([`turbine_types::TimeSeries`]
//!   stores a repeated value as a count and downsamples deterministically
//!   past its capacity).
//! * [`AlertEngine`] — declarative, JSON-configurable alerting rules
//!   (threshold, absence, rate-of-change, SLO burn-rate) with
//!   `for`-durations, severities, and flap suppression, firing
//!   deduplicated [`Incident`]s.
//! * [`export`] — JSONL and Prometheus text exports of the registry and
//!   incident log (`turbinesim metrics --jsonl|--prom`).
//!
//! Like the trace crate, the whole pipeline only observes: the platform
//! publishes into it and evaluates rules every metrics round, and the one
//! value that comes back out toward a control decision (the Auto Scaler's
//! inputs) is a bit-exact store and load.

mod alert;
mod registry;

pub mod export;

pub use alert::{parse_rules, AlertEngine, AlertRule, Incident, RuleKind, Severity, ThresholdOp};
pub use registry::{MetricId, MetricKey, Registry, Scope, REGISTRY_SERIES_CAPACITY};
