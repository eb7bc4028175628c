//! Synthetic workloads calibrated to the Turbine paper's production
//! observations (§VI).
//!
//! Facebook's streaming workload is highly variable but strongly diurnal:
//! day-over-day traffic at the same time differs by ~1 % on aggregate,
//! while within a day it swings widely; on top of that sit growth trends
//! (Fig. 1 shows a service doubling in a year), spikes, storms (datacenter
//! drains redirecting ~16 % extra traffic), outages, and backlogs. The
//! Scuba Tailer fleet's per-task footprints (Fig. 5) are heavy-tailed: over
//! 80 % of tasks need less than one CPU, a small percentage need more than
//! four, every task carries a ~400 MB memory floor, and 99 % stay under
//! 2 GB.
//!
//! [`traffic::TrafficModel`] composes those ingredients into a
//! deterministic rate function of simulated time; [`fleet`] synthesizes
//! whole fleets whose footprint distributions match Fig. 5.

pub mod fleet;
pub mod traffic;

pub use fleet::{synthesize_fleet, FleetConfig, SyntheticJob};
pub use traffic::{NoiseMemo, TrafficEvent, TrafficEventKind, TrafficModel};
