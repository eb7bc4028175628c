//! Causal decision tracing for the Turbine control plane.
//!
//! Turbine's reproduction records *that* things happened (counters,
//! series); this crate records *why*. Every control-component dispatch
//! opens a span, and every consequential decision — a scaling action, a
//! shard move, a quarantine, an OOM restart, a root-cause diagnosis —
//! emits a typed [`TraceEvent`] carrying a **cause link** to the span or
//! prior record that triggered it. Following cause links reconstructs
//! chains like:
//!
//! ```text
//! job 7 scaled up at t=3600s
//!   <- symptom: lagging 400s (SLO 90s)
//!   <- fault activated: scribe_stall(clicks)
//! ```
//!
//! # Guarantees
//!
//! - **Bounded**: records live in a ring of configurable capacity; a
//!   48-hour soak cannot grow memory without bound.
//! - **Deterministic**: the [`TraceBuffer::digest`] is an incremental
//!   FNV-1a over every record ever pushed (the same pattern as the chaos
//!   engine's `FaultInjector::log_digest`), so two runs with the same
//!   seed produce bit-for-bit identical digests — even though the ring
//!   may have evicted different windows by the time you compare.
//! - **Observational**: the buffer never feeds back into the simulation.
//!   It is part of the platform, not an option on it: there is no
//!   untraced mode to compare against.
//! - **Host time stays out**: wall-clock round latencies land in
//!   per-component [`LatencyHistogram`]s, which are excluded from the
//!   digest and from snapshots — they are host noise.

mod buffer;
mod event;
mod latency;

pub use buffer::{TraceBuffer, DEFAULT_TRACE_CAPACITY};
pub use event::{Component, TraceData, TraceEvent, TraceId, COMPONENTS};
pub use latency::{LatencyHistogram, LATENCY_BUCKETS};
pub use turbine_types::json_escape;
