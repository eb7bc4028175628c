//! Shared primitive types for the Turbine platform.
//!
//! Every other crate in the workspace builds on the identifiers, simulated
//! time, multi-dimensional resource vectors, and metric primitives defined
//! here. The crate is dependency-free by design so that substrates (Scribe,
//! the cluster manager, the shard manager) and the control plane can share
//! vocabulary without coupling.

pub mod fnv;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod priority;
pub mod resources;
pub mod snap;
pub mod time;

pub use fnv::Fnv1a;
pub use ids::{id_map, ContainerId, HostId, IdHasher, IdMap, JobId, PartitionId, ShardId, TaskId};
pub use json::{json_escape, json_escape_into};
pub use metrics::{
    nearest_rank, nearest_rank_index, nearest_rank_u64, Cdf, Counter, Percentiles, SeriesBucket,
    TimeSeries, DEFAULT_SERIES_CAPACITY,
};
pub use priority::Priority;
pub use resources::{ResourceKind, Resources};
pub use snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use time::{Duration, SimTime};
