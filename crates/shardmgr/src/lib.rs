//! The Shard Manager (paper §IV), Facebook's generic shard-to-container
//! assignment service (cf. Google's Slicer), reimplemented in full.
//!
//! Turbine's two-level scheduling assigns *shards* to Turbine containers;
//! each local Task Manager then derives which tasks belong to its shards by
//! hashing. The Shard Manager:
//!
//! * bin-packs shards onto containers so every container's load stays
//!   within a utilization band (e.g. ±10 %) of the tier average while
//!   respecting per-container capacity and headroom (§IV-B);
//! * reshuffles assignments when refreshed shard loads arrive (every
//!   10 min) on a rebalance cadence (every 30 min for most tiers);
//! * drives the `DROP_SHARD`/`ADD_SHARD` movement protocol (§IV-A2);
//! * fails shards over from containers whose heartbeat stops for a full
//!   fail-over interval (60 s), pairing with the container-side proactive
//!   connection timeout (40 s) so lost connectivity cannot yield duplicate
//!   shards (§IV-C). Liveness is kept as exceptions: the manager records
//!   the instant of the last beat and, for each container that missed a
//!   beat, when it was last heard, so a beat, a suspicion test and a
//!   fail-over check visit the silent containers only;
//! * keeps each critical job's warm standby — the fail-over fast path — in
//!   one table of critical jobs, and ranks the containers a standby may go
//!   to ([`StandbyOrder`]).

pub mod manager;
pub mod movement;
pub mod placement;
pub mod standby;

pub use manager::{ContainerStatus, ShardManager, ShardManagerConfig, FAILOVER_INTERVAL};
pub use movement::ShardMovement;
pub use placement::{compute_placement, PlacementConfig, PlacementInput, PlacementResult};
pub use standby::StandbyOrder;
