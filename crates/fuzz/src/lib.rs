//! Fuzz-driven correctness campaign for the Turbine platform.
//!
//! Turbine's operational-safety claim rests on oracles built in earlier
//! work — the per-tick invariant checker, the dense-vs-event fingerprint
//! equivalence, and the deterministic trace digest. This crate turns those
//! oracles into a *search tool*: a seeded generator composes whole-platform
//! scenarios (jobs, traffic, fault plans, host churn, config corner
//! values), a runner drives each scenario in the dense-tick and the
//! event-driven [`turbine::DriveMode`] under `catch_unwind`, and every oracle violation is greedily shrunk to a
//! minimal scenario that serializes to a JSON repro file `turbinesim repro`
//! replays bit-for-bit.
//!
//! The pieces:
//!
//! * [`scenario`] — the [`FuzzScenario`] model, the
//!   seeded generator, and the JSON (de)serialization used by repro files;
//! * [`runner`] — drives one scenario through both modes plus an
//!   event-mode replay and evaluates the oracles;
//! * [`mod@shrink`] — greedy minimization of a failing scenario;
//! * [`campaign`] — the N-case loop used by the `fuzz_campaign` binary and
//!   the CI smoke test;
//! * [`bisect`] — when a fingerprint oracle trips, binary-search the runs'
//!   periodic auto-snapshots to name the first divergent round instead of
//!   replaying from minute zero.

pub mod bisect;
pub mod campaign;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use bisect::{bisect_recorded, DivergenceReport};
pub use campaign::{run_campaign, CampaignFailure, CampaignSummary};
pub use runner::{
    auto_snap_interval, drive_recorded, resume_to_horizon, run_case, CaseReport, Checkpoint,
    OracleFailure, Perturbation, RecordedRun, RunArtifacts,
};
pub use scenario::{generate, FuzzFault, FuzzFlap, FuzzJob, FuzzScenario, FuzzTrafficEvent};
pub use shrink::shrink;
