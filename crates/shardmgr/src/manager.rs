//! The Shard Manager service: membership, heartbeats, fail-over, warm
//! standbys and rebalance rounds (paper §IV-A2, §IV-B, §IV-C).

use crate::movement::ShardMovement;
use crate::placement::{
    compute_placement_with, PlacementConfig, PlacementInput, PlacementResult, PlacementScratch,
};
use crate::standby::StandbyOrder;
use std::collections::{BTreeMap, HashMap};
use turbine_types::{ContainerId, Duration, HostId, JobId, Resources, ShardId, SimTime};

/// Missing heartbeats for this long ⇒ the container is declared dead and
/// its shards fail over (paper: 60 s).
pub const FAILOVER_INTERVAL: Duration = Duration::from_secs(60);

/// Missing heartbeats for this long ⇒ a critical job's primary is
/// *suspect* and its warm standby is promoted, well before the full
/// fail-over interval declares the container dead. Two missed beats at the
/// default 10 s heartbeat cadence. Must not exceed [`FAILOVER_INTERVAL`]
/// (the standard path would win the race).
const STANDBY_GRACE: Duration = Duration::from_secs(20);

const _: () = assert!(STANDBY_GRACE.as_millis() < FAILOVER_INTERVAL.as_millis());

/// Shard Manager tunables, defaulting to the paper's production values.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardManagerConfig {
    /// Placement tunables.
    pub placement: PlacementConfig,
}

/// Liveness of a registered container, as the Shard Manager sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerStatus {
    /// Heart-beating normally.
    Alive,
    /// Declared dead after a full fail-over interval without heartbeats.
    Dead,
}

#[derive(Debug, Clone)]
struct ContainerEntry {
    capacity: Resources,
    status: ContainerStatus,
}

/// The Shard Manager.
#[derive(Debug)]
pub struct ShardManager {
    config: ShardManagerConfig,
    /// Latest aggregated load per shard (reported every ~10 min by the
    /// Task Managers' load aggregator threads).
    shard_loads: BTreeMap<ShardId, Resources>,
    containers: BTreeMap<ContainerId, ContainerEntry>,
    /// The instant of the last beat. Every registered container that is
    /// not in `silent` was heard then.
    last_beat: SimTime,
    /// The exceptions: when each container that missed a beat was last
    /// heard (a container not heard since it registered keeps its
    /// registration instant). A dead container is always here.
    silent: BTreeMap<ContainerId, SimTime>,
    assignment: HashMap<ShardId, ContainerId>,
    /// Every critical job and its warm standby, if it has one. The standby
    /// shadow-consumes the job's input but owns no shards; promotion hands
    /// it the job's shards through the fast path. A job that is not
    /// critical has no row, so it cannot have a standby.
    critical: BTreeMap<JobId, Option<ContainerId>>,
    /// Placement working memory, reused across rounds (the per-round
    /// allocations show up at 10k hosts).
    scratch: PlacementScratch,
    /// Reused snapshot buffers for the placement inputs.
    shard_input: Vec<(ShardId, Resources)>,
    container_input: Vec<(ContainerId, Resources)>,
}

impl ShardManager {
    /// A manager with no shards or containers yet.
    pub fn new(config: ShardManagerConfig) -> Self {
        ShardManager {
            config,
            shard_loads: BTreeMap::new(),
            containers: BTreeMap::new(),
            last_beat: SimTime::ZERO,
            silent: BTreeMap::new(),
            assignment: HashMap::new(),
            critical: BTreeMap::new(),
            scratch: PlacementScratch::default(),
            shard_input: Vec::new(),
            container_input: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ShardManagerConfig {
        &self.config
    }

    /// Grow (or define) the shard space to exactly `count` shards with ids
    /// `0..count`. Shrinking is not supported: tiers only ever grow their
    /// shard space (the paper packs more tasks per shard instead).
    pub fn ensure_shards(&mut self, count: u64) {
        for i in 0..count {
            self.shard_loads
                .entry(ShardId(i))
                .or_insert(Resources::ZERO);
        }
    }

    /// Number of shards in the tier.
    pub fn shard_count(&self) -> usize {
        self.shard_loads.len()
    }

    /// Register a container. It counts as heard at `now` until its first
    /// beat.
    pub fn register_container(&mut self, id: ContainerId, capacity: Resources, now: SimTime) {
        self.containers.insert(
            id,
            ContainerEntry {
                capacity,
                status: ContainerStatus::Alive,
            },
        );
        self.silent.insert(id, now);
    }

    /// Remove a container entirely (host decommission). Its shards remain
    /// in the assignment until the next fail-over check or rebalance.
    pub fn unregister_container(&mut self, id: ContainerId) {
        self.containers.remove(&id);
        self.silent.remove(&id);
    }

    /// One heartbeat round at `now`: every registered container beats
    /// except `silent_ids` (ascending; unregistered ids are ignored). The
    /// walk visits only the containers that were silent or are silent now.
    /// A container that was declared dead and beats again is treated as a
    /// newly added empty container (paper §IV-C): it is alive again but
    /// owns no shards until a rebalance hands it some. Returns the
    /// containers the round revived, ascending — the caller must surface
    /// each revival (trace event, invariant check) rather than let stale
    /// ownership resurrect silently.
    pub fn beat(
        &mut self,
        now: SimTime,
        silent_ids: impl IntoIterator<Item = ContainerId>,
    ) -> Vec<ContainerId> {
        let heard = std::mem::replace(&mut self.last_beat, now);
        let silent_ids: Vec<ContainerId> = silent_ids.into_iter().collect();
        debug_assert!(silent_ids.is_sorted(), "silent ids ascend");
        let mut revived = Vec::new();
        let containers = &mut self.containers;
        // Heard again: out of the table, and alive if it was dead.
        self.silent.retain(|id, _| {
            if silent_ids.binary_search(id).is_ok() {
                return true;
            }
            let dead = containers
                .get_mut(id)
                .filter(|e| e.status == ContainerStatus::Dead);
            if let Some(entry) = dead {
                entry.status = ContainerStatus::Alive;
                revived.push(*id);
            }
            false
        });
        // Newly silent: last heard at the previous beat.
        for id in silent_ids {
            if self.containers.contains_key(&id) {
                self.silent.entry(id).or_insert(heard);
            }
        }
        revived
    }

    /// True when an alive container has missed heartbeats for at least the
    /// standby grace period: not yet dead, but suspect enough that a
    /// critical job's warm standby takes over. Covers both a severed
    /// connection and a dead host (heartbeats stop either way).
    pub fn is_suspect(&self, id: ContainerId, now: SimTime) -> bool {
        let heard = self.silent.get(&id).copied().unwrap_or(self.last_beat);
        self.status(id) == Some(ContainerStatus::Alive) && now.since(heard) >= STANDBY_GRACE
    }

    /// The containers that missed a beat and when each was last heard,
    /// ascending. A converged fleet has none.
    pub fn silent(&self) -> impl Iterator<Item = (ContainerId, SimTime)> + '_ {
        self.silent.iter().map(|(&c, &at)| (c, at))
    }

    /// Liveness of a container, if registered.
    pub fn status(&self, id: ContainerId) -> Option<ContainerStatus> {
        self.containers.get(&id).map(|e| e.status)
    }

    /// Update the aggregated load of one shard.
    pub fn report_load(&mut self, shard: ShardId, load: Resources) {
        self.shard_loads.insert(shard, load);
    }

    /// Current assignment.
    pub fn assignment(&self) -> &HashMap<ShardId, ContainerId> {
        &self.assignment
    }

    /// Container currently owning `shard`.
    pub fn container_of(&self, shard: ShardId) -> Option<ContainerId> {
        self.assignment.get(&shard).copied()
    }

    /// Shards currently owned by `container`, sorted.
    pub fn shards_of(&self, container: ContainerId) -> Vec<ShardId> {
        let mut shards: Vec<ShardId> = self
            .assignment
            .iter()
            .filter(|&(_, &c)| c == container)
            .map(|(&s, _)| s)
            .collect();
        shards.sort_unstable();
        shards
    }

    /// Alive containers, ascending.
    pub fn alive_containers(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.containers
            .iter()
            .filter(|(_, e)| e.status == ContainerStatus::Alive)
            .map(|(&id, _)| id)
    }

    /// Record whether `job` is critical. A demotion drops its standby
    /// registration and hands the standby back for the caller to release.
    pub fn set_critical(&mut self, job: JobId, critical: bool) -> Option<ContainerId> {
        if critical {
            self.critical.entry(job).or_default();
            None
        } else {
            self.critical.remove(&job).flatten()
        }
    }

    /// Every critical job and its standby, if any, in job order.
    pub fn critical(&self) -> impl Iterator<Item = (JobId, Option<ContainerId>)> + '_ {
        self.critical.iter().map(|(&j, &c)| (j, c))
    }

    /// Designate `container` as the warm standby of a critical `job` (a
    /// job that is not critical keeps none). The standby owns no shards;
    /// it shadow-consumes the job's input so a promotion starts from warm
    /// state.
    pub fn set_standby(&mut self, job: JobId, container: ContainerId) {
        if let Some(standby) = self.critical.get_mut(&job) {
            *standby = Some(container);
        }
    }

    /// The registered standby container of a job, if any.
    pub fn standby_of(&self, job: JobId) -> Option<ContainerId> {
        self.critical.get(&job).copied().flatten()
    }

    /// Drop a job's standby registration (job deleted, standby unhealthy,
    /// or the standby's host now runs a primary task of the job).
    pub fn clear_standby(&mut self, job: JobId) -> Option<ContainerId> {
        self.critical.get_mut(&job)?.take()
    }

    /// All standby registrations, in job order.
    pub fn standbys(&self) -> impl Iterator<Item = (JobId, ContainerId)> + '_ {
        self.critical.iter().filter_map(|(&j, &c)| Some((j, c?)))
    }

    /// The standby placement order of one fail-over check, from one
    /// `(container, host, primary tasks, reachable)` row per Task Manager
    /// container: the rows that are reachable, alive here and on a host,
    /// ranked with the shards each owns.
    pub fn standby_order(
        &self,
        rows: impl IntoIterator<Item = (ContainerId, Option<HostId>, usize, bool)>,
    ) -> StandbyOrder {
        let mut shards: BTreeMap<ContainerId, usize> = BTreeMap::new();
        for &container in self.assignment.values() {
            *shards.entry(container).or_default() += 1;
        }
        let mut order = StandbyOrder::default();
        for (container, host, tasks, reachable) in rows {
            let alive = self.status(container) == Some(ContainerStatus::Alive);
            let Some(host) = host.filter(|_| reachable && alive) else {
                continue;
            };
            let owned = shards.get(&container).copied().unwrap_or(0);
            order.ranked.push((tasks, owned, container, host));
            order.by_id.push((container, tasks));
        }
        order.ranked.sort_unstable();
        order.by_id.sort_unstable();
        order
    }

    /// Fast-path promotion: hand every one of `shards` to the job's
    /// standby, consuming the registration. Returns the promoted container
    /// and the movements to execute (sources are the current owners, so
    /// the DROP-before-ADD protocol still revokes stale ownership), or
    /// `None` when the job has no standby or the standby is not alive —
    /// the caller then degrades to the standard fail-over path.
    pub fn promote_standby(
        &mut self,
        job: JobId,
        shards: &[ShardId],
    ) -> Option<(ContainerId, Vec<ShardMovement>)> {
        let standby = self.clear_standby(job)?;
        if self.status(standby) != Some(ContainerStatus::Alive) {
            return None;
        }
        let mut moves = Vec::new();
        for &shard in shards {
            if !self.shard_loads.contains_key(&shard) {
                continue;
            }
            let from = self.assignment.get(&shard).copied();
            if from == Some(standby) {
                continue;
            }
            self.assignment.insert(shard, standby);
            moves.push(ShardMovement {
                shard,
                from,
                to: standby,
            });
        }
        Some((standby, moves))
    }

    /// Declare dead every silent container last heard at least the
    /// fail-over interval before `now`, and fail its shards over to
    /// survivors. The check walks only the silent containers, so it runs
    /// within a fail-over interval of the last beat (the platform runs it
    /// at the beat's own instant). Returns the containers it newly
    /// declared dead, ascending, and the movements to execute. Moves of
    /// orphaned shards carry `from: None` (there is nothing to drop on a
    /// dead container), but the re-placement may also rebalance shards
    /// *between survivors* — those moves keep their live source so the
    /// executor revokes ownership before granting it. Moves nothing when
    /// no container newly died.
    pub fn check_failover(&mut self, now: SimTime) -> (Vec<ContainerId>, Vec<ShardMovement>) {
        debug_assert!(
            self.silent.len() == self.containers.len()
                || now.since(self.last_beat) < FAILOVER_INTERVAL,
            "a fail-over check a whole fail-over interval after the last beat"
        );
        let (mut newly_dead, mut dead) = (Vec::new(), Vec::new());
        for (&id, &heard) in &self.silent {
            let Some(entry) = self.containers.get_mut(&id) else {
                continue;
            };
            if entry.status == ContainerStatus::Alive && now.since(heard) >= FAILOVER_INTERVAL {
                entry.status = ContainerStatus::Dead;
                newly_dead.push(id);
            }
            if entry.status == ContainerStatus::Dead {
                dead.push(id);
            }
        }
        if newly_dead.is_empty() {
            return (newly_dead, Vec::new());
        }
        // Strip assignments pointing at dead containers, then re-place.
        // Placement derives `from` from the stripped assignment, so a dead
        // container's shards come back with `from: None` while survivor
        // rebalancing moves keep their (live) source.
        self.assignment
            .retain(|_, c| dead.binary_search(c).is_err());
        // A dead standby is useless — drop the registration so the control
        // plane places a fresh one instead of promoting onto a corpse.
        for standby in self.critical.values_mut() {
            if standby.is_some_and(|c| dead.binary_search(&c).is_ok()) {
                *standby = None;
            }
        }
        (newly_dead, self.run_placement().moves)
    }

    /// Manually relocate one shard to a specific alive container (operator
    /// or root-causer mitigation: "moving the task to another host usually
    /// resolves this class of problems", §V-D). Returns the movement to
    /// execute, or `None` if the shard/container is unknown, the target is
    /// dead, or the shard is already there.
    pub fn move_shard(&mut self, shard: ShardId, to: ContainerId) -> Option<ShardMovement> {
        if self.status(to) != Some(ContainerStatus::Alive) {
            return None;
        }
        if !self.shard_loads.contains_key(&shard) {
            return None;
        }
        let from = self.assignment.get(&shard).copied();
        if from == Some(to) {
            return None;
        }
        self.assignment.insert(shard, to);
        Some(ShardMovement { shard, from, to })
    }

    /// Run one load-balancing round: recompute placement from the latest
    /// shard loads and commit the new assignment. Returns the full
    /// placement result (moves carry `from` so the movement protocol can
    /// send `DROP_SHARD` before `ADD_SHARD`).
    pub fn rebalance(&mut self) -> PlacementResult {
        self.run_placement()
    }

    fn run_placement(&mut self) -> PlacementResult {
        self.shard_input.clear();
        self.shard_input
            .extend(self.shard_loads.iter().map(|(&s, &l)| (s, l)));
        self.container_input.clear();
        self.container_input.extend(
            self.containers
                .iter()
                .filter(|(_, e)| e.status == ContainerStatus::Alive)
                .map(|(&id, e)| (id, e.capacity)),
        );
        let result = compute_placement_with(
            &mut self.scratch,
            PlacementInput {
                shards: &self.shard_input,
                containers: &self.container_input,
                current: &self.assignment,
            },
            self.config.placement,
        );
        self.assignment = result.assignment.clone();
        result
    }
}

turbine_types::snap_struct!(PlacementConfig { band, headroom });

turbine_types::snap_struct!(ShardManagerConfig { placement });

turbine_types::snap_enum!(ContainerStatus { 0 => Alive, 1 => Dead });

turbine_types::snap_struct!(ContainerEntry { capacity, status });

turbine_types::snap_struct!(ShardManager {
    config, shard_loads, containers, last_beat, silent, assignment, critical
}
// Placement scratch and input buffers carry no state between rounds.
derived {
    scratch: PlacementScratch::default(),
    shard_input: Vec::new(),
    container_input: Vec::new(),
}
check |m| m.standbys().all(|(_, c)| m.containers.contains_key(&c))
    => "ShardManager standby unregistered"
check |m| m.silent.keys().all(|c| m.containers.contains_key(c))
    => "ShardManager silent container unregistered"
check |m| m.containers.iter().all(|(c, e)| e.status == ContainerStatus::Alive || m.silent.contains_key(c))
    => "ShardManager dead container not silent"
// A container registered since the last beat is heard later than it; a
// dead one was silent a whole fail-over interval before a check that
// followed a beat.
check |m| m.silent.iter().all(|(c, &at)| at <= m.last_beat || m.status(*c) == Some(ContainerStatus::Alive))
    => "ShardManager dead container heard after the last beat");

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    fn manager_with(containers: u64, shards: u64) -> ShardManager {
        let mut mgr = ShardManager::new(ShardManagerConfig::default());
        mgr.ensure_shards(shards);
        for i in 0..containers {
            mgr.register_container(ContainerId(i), Resources::cpu_mem(32.0, 64_000.0), t(0));
        }
        for i in 0..shards {
            mgr.report_load(ShardId(i), Resources::cpu_mem(0.5, 512.0));
        }
        mgr
    }

    #[test]
    fn rebalance_assigns_all_shards() {
        let mut mgr = manager_with(4, 40);
        let result = mgr.rebalance();
        assert_eq!(result.assignment.len(), 40);
        assert_eq!(mgr.assignment().len(), 40);
        // Every container owns roughly its share.
        for i in 0..4 {
            let owned = mgr.shards_of(ContainerId(i)).len();
            assert!((5..=15).contains(&owned), "container {i} owns {owned}");
        }
    }

    #[test]
    fn heartbeat_keeps_containers_alive() {
        let mut mgr = manager_with(2, 10);
        mgr.rebalance();
        assert!(mgr.beat(t(30), []).is_empty());
        assert_eq!(
            mgr.silent().count(),
            0,
            "a beat everyone made records nothing"
        );
        assert_eq!(mgr.check_failover(t(59)), (vec![], vec![]));
        assert_eq!(mgr.status(ContainerId(0)), Some(ContainerStatus::Alive));
    }

    #[test]
    fn silent_container_fails_over_after_interval() {
        let mut mgr = manager_with(3, 30);
        mgr.rebalance();
        let victim = ContainerId(0);
        let victim_shards = mgr.shards_of(victim);
        assert!(!victim_shards.is_empty());
        // Only the survivors heartbeat.
        for s in (10..70).step_by(10) {
            mgr.beat(t(s), [victim]);
        }
        let (dead, moves) = mgr.check_failover(t(61));
        assert_eq!(dead, [victim]);
        assert_eq!(mgr.status(victim), Some(ContainerStatus::Dead));
        // Every shard of the victim moved, none to the dead container.
        // Orphaned shards carry no source; any survivor-rebalancing move
        // must keep its live source (dropping it would leave the shard
        // owned twice).
        let moved: Vec<ShardId> = moves.iter().map(|m| m.shard).collect();
        for s in &victim_shards {
            assert!(moved.contains(s), "{s} must fail over");
        }
        for m in &moves {
            if victim_shards.contains(&m.shard) {
                assert_eq!(m.from, None, "{} had a dead source", m.shard);
            } else {
                assert!(m.from.is_some(), "{} moved from a live owner", m.shard);
                assert_ne!(m.from, Some(victim));
            }
        }
        assert!(moves.iter().all(|m| m.to != victim));
        // All shards remain assigned.
        assert_eq!(mgr.assignment().len(), 30);
    }

    #[test]
    fn failover_is_idempotent_until_new_deaths() {
        let mut mgr = manager_with(3, 12);
        mgr.rebalance();
        for s in [20u64, 40] {
            mgr.beat(t(s), [ContainerId(0)]);
        }
        let (dead, first) = mgr.check_failover(t(65));
        assert_eq!(dead, [ContainerId(0)]);
        assert!(!first.is_empty());
        // Nothing newly dead: second check is a no-op.
        assert_eq!(mgr.check_failover(t(70)), (vec![], vec![]));
    }

    #[test]
    fn returning_container_is_treated_as_empty() {
        let mut mgr = manager_with(2, 10);
        mgr.rebalance();
        // Container 0 goes silent and is failed over.
        for s in (10..70).step_by(10) {
            mgr.beat(t(s), [ContainerId(0)]);
        }
        mgr.check_failover(t(61));
        assert!(mgr.shards_of(ContainerId(0)).is_empty());
        // It reboots and reconnects: alive again, still empty.
        mgr.beat(t(90), []);
        assert_eq!(mgr.status(ContainerId(0)), Some(ContainerStatus::Alive));
        assert!(mgr.shards_of(ContainerId(0)).is_empty());
        // While the survivor stays under the band threshold nothing moves
        // ("shards will be gradually added to such containers"): an
        // immediate rebalance at light load keeps the empty container idle.
        mgr.rebalance();
        // Once load grows and the survivor becomes hot, the next rebalance
        // spills shards onto the returned container.
        for i in 0..10 {
            mgr.report_load(ShardId(i), Resources::cpu_mem(2.5, 2048.0));
        }
        mgr.rebalance();
        assert!(!mgr.shards_of(ContainerId(0)).is_empty());
    }

    #[test]
    fn load_reports_shift_the_balance() {
        let mut mgr = manager_with(2, 8);
        mgr.rebalance();
        // Shards 0..4 become very heavy.
        for i in 0..4 {
            mgr.report_load(ShardId(i), Resources::cpu_mem(8.0, 8192.0));
        }
        let result = mgr.rebalance();
        // The heavy shards cannot all stay together: each container should
        // hold ~2 heavy shards.
        let heavy_on_0 = mgr
            .shards_of(ContainerId(0))
            .iter()
            .filter(|s| s.raw() < 4)
            .count();
        assert!(
            (1..=3).contains(&heavy_on_0),
            "heavy shards should spread, got {heavy_on_0} on container 0 (stats {:?})",
            result.stats
        );
    }

    #[test]
    fn unregistered_container_loses_its_shards_on_rebalance() {
        let mut mgr = manager_with(3, 12);
        mgr.rebalance();
        mgr.unregister_container(ContainerId(2));
        let result = mgr.rebalance();
        assert_eq!(result.assignment.len(), 12);
        assert!(result.assignment.values().all(|&c| c != ContainerId(2)));
    }

    #[test]
    fn heartbeat_reports_revival_of_dead_containers() {
        let mut mgr = manager_with(2, 10);
        mgr.rebalance();
        for s in (10..70).step_by(10) {
            assert!(mgr.beat(t(s), [ContainerId(0)]).is_empty(), "alive beat");
        }
        mgr.check_failover(t(61));
        assert_eq!(mgr.status(ContainerId(0)), Some(ContainerStatus::Dead));
        assert_eq!(
            mgr.beat(t(90), [ContainerId(99)]),
            [ContainerId(0)],
            "beat from a dead container is a revival; an unregistered id is ignored"
        );
        assert!(mgr.beat(t(100), []).is_empty(), "now ordinary");
    }

    #[test]
    fn beat_records_only_the_silent_and_revives_the_dead() {
        let mut mgr = manager_with(4, 8);
        mgr.rebalance();
        // Containers 1 and 3 go silent and die; each keeps the instant it
        // was last heard, here its registration.
        let silent = [1, 3].map(ContainerId);
        for s in (10..70).step_by(10) {
            assert!(mgr.beat(t(s), silent).is_empty(), "alive beats");
        }
        let heard: Vec<_> = mgr.silent().collect();
        assert_eq!(heard, [(ContainerId(1), t(0)), (ContainerId(3), t(0))]);
        assert_eq!(mgr.check_failover(t(61)).0, silent);
        // One round in which only an unregistered id is silent: both dead
        // ones revive, in ascending order, and the table empties.
        assert_eq!(mgr.beat(t(90), [ContainerId(99)]), silent);
        assert_eq!(mgr.silent().count(), 0);
        assert!(mgr.beat(t(100), []).is_empty(), "now ordinary");
        assert!((0..4).all(|c| !mgr.is_suspect(ContainerId(c), t(110))));
        // A container that misses a beat was last heard at the one before.
        mgr.beat(t(120), [ContainerId(0)]);
        assert_eq!(mgr.silent().collect::<Vec<_>>(), [(ContainerId(0), t(100))]);
        assert!(mgr.is_suspect(ContainerId(0), t(120)));
        assert!(!mgr.is_suspect(ContainerId(1), t(120)));
    }

    #[test]
    fn a_container_lost_before_its_first_beat_keeps_its_registration_instant() {
        let mut mgr = manager_with(2, 4);
        mgr.beat(t(10), []);
        let late = ContainerId(2);
        mgr.register_container(late, Resources::cpu_mem(32.0, 64_000.0), t(15));
        mgr.beat(t(20), [late]);
        assert_eq!(mgr.silent().collect::<Vec<_>>(), [(late, t(15))]);
        assert!(!mgr.is_suspect(late, t(34)));
        assert!(mgr.is_suspect(late, t(35)));
        mgr.unregister_container(late);
        assert_eq!(mgr.silent().count(), 0);
    }

    #[test]
    fn suspect_precedes_death() {
        let mut mgr = manager_with(2, 10);
        mgr.rebalance();
        // Fresh beat at t=10, then silence.
        mgr.beat(t(10), [ContainerId(1)]);
        mgr.beat(t(20), [0, 1].map(ContainerId));
        assert!(!mgr.is_suspect(ContainerId(0), t(20)));
        assert!(mgr.is_suspect(ContainerId(0), t(30)), "20 s of silence");
        // Still alive — standard fail-over has not fired yet.
        assert_eq!(mgr.status(ContainerId(0)), Some(ContainerStatus::Alive));
        // Once dead, a container is no longer merely suspect.
        mgr.check_failover(t(71));
        assert!(!mgr.is_suspect(ContainerId(0), t(72)));
    }

    #[test]
    fn promote_standby_hands_over_shards_and_consumes_registration() {
        let mut mgr = manager_with(3, 12);
        mgr.rebalance();
        let job = JobId(7);
        mgr.set_critical(job, true);
        mgr.set_standby(job, ContainerId(2));
        assert_eq!(mgr.standby_of(job), Some(ContainerId(2)));
        let shards = mgr.shards_of(ContainerId(0));
        assert!(!shards.is_empty());
        let (to, moves) = mgr.promote_standby(job, &shards).expect("promotes");
        assert_eq!(to, ContainerId(2));
        assert_eq!(moves.len(), shards.len());
        for m in &moves {
            assert_eq!(m.to, ContainerId(2));
            assert_eq!(m.from, Some(ContainerId(0)), "source still owns");
        }
        for s in &shards {
            assert_eq!(mgr.container_of(*s), Some(ContainerId(2)));
        }
        // Registration consumed: a second promotion degrades.
        assert!(mgr.promote_standby(job, &shards).is_none());
    }

    #[test]
    fn dead_standby_is_dropped_not_promoted() {
        let mut mgr = manager_with(3, 12);
        mgr.rebalance();
        let job = JobId(1);
        mgr.set_critical(job, true);
        mgr.set_standby(job, ContainerId(2));
        // Standby goes silent and dies.
        for s in (10..70).step_by(10) {
            mgr.beat(t(s), [ContainerId(2)]);
        }
        mgr.check_failover(t(61));
        assert_eq!(mgr.status(ContainerId(2)), Some(ContainerStatus::Dead));
        assert_eq!(mgr.standby_of(job), None, "fail-over dropped it");
        assert!(mgr.promote_standby(job, &[ShardId(0)]).is_none());
    }

    #[test]
    fn ensure_shards_is_monotone() {
        let mut mgr = ShardManager::new(ShardManagerConfig::default());
        mgr.ensure_shards(5);
        mgr.ensure_shards(3); // no shrink
        assert_eq!(mgr.shard_count(), 5);
        mgr.ensure_shards(8);
        assert_eq!(mgr.shard_count(), 8);
    }

    /// The liveness model exception-based liveness replaced: one
    /// last-heard instant per container, stamped at every beat, and a
    /// fail-over check over every container. It keeps its own assignment
    /// and standbys so its moves are its own.
    #[derive(Default)]
    struct Reference {
        heard: BTreeMap<ContainerId, (SimTime, ContainerStatus, Resources)>,
        loads: Vec<(ShardId, Resources)>,
        assignment: HashMap<ShardId, ContainerId>,
        standby: BTreeMap<JobId, ContainerId>,
    }

    impl Reference {
        fn status(&self, id: ContainerId) -> Option<ContainerStatus> {
            self.heard.get(&id).map(|e| e.1)
        }

        fn beat(&mut self, now: SimTime, silent: &[ContainerId]) -> Vec<ContainerId> {
            let mut revived = Vec::new();
            for (&id, (heard, status, _)) in &mut self.heard {
                if silent.contains(&id) {
                    continue;
                }
                if *status == ContainerStatus::Dead {
                    revived.push(id);
                }
                (*heard, *status) = (now, ContainerStatus::Alive);
            }
            revived
        }

        fn is_suspect(&self, id: ContainerId, now: SimTime) -> bool {
            self.heard.get(&id).is_some_and(|&(heard, status, _)| {
                status == ContainerStatus::Alive && now.since(heard) >= STANDBY_GRACE
            })
        }

        fn check_failover(&mut self, now: SimTime) -> (Vec<ContainerId>, Vec<ShardMovement>) {
            let mut newly_dead = Vec::new();
            for (&id, (heard, status, _)) in &mut self.heard {
                if *status == ContainerStatus::Alive && now.since(*heard) >= FAILOVER_INTERVAL {
                    *status = ContainerStatus::Dead;
                    newly_dead.push(id);
                }
            }
            if newly_dead.is_empty() {
                return (newly_dead, Vec::new());
            }
            let alive: Vec<(ContainerId, Resources)> = self
                .heard
                .iter()
                .filter(|(_, e)| e.1 == ContainerStatus::Alive)
                .map(|(&id, e)| (id, e.2))
                .collect();
            let is_alive = |c: &ContainerId| alive.iter().any(|a| a.0 == *c);
            self.assignment.retain(|_, c| is_alive(c));
            self.standby.retain(|_, c| is_alive(c));
            let result = crate::placement::compute_placement(
                PlacementInput {
                    shards: &self.loads,
                    containers: &alive,
                    current: &self.assignment,
                },
                PlacementConfig::default(),
            );
            self.assignment = result.assignment;
            (newly_dead, result.moves)
        }

        fn promote_standby(
            &mut self,
            job: JobId,
            shards: &[ShardId],
        ) -> Option<(ContainerId, Vec<ShardMovement>)> {
            let to = self.standby.remove(&job)?;
            if self.status(to) != Some(ContainerStatus::Alive) {
                return None;
            }
            let mut moves = Vec::new();
            for &shard in shards {
                let from = self.assignment.insert(shard, to);
                if from != Some(to) {
                    moves.push(ShardMovement { shard, from, to });
                }
            }
            Some((to, moves))
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Register the next container.
        Register,
        /// Let simulated seconds pass without a beat.
        Wait(u64),
        /// A beat in which the containers whose bit is set stay silent.
        Beat(u8),
        /// A fail-over check, within a fail-over interval of the last beat
        /// (the platform checks at each beat's own instant).
        Check,
        /// Make a container the standby of a job, then promote it onto
        /// the shards whose bit is set.
        Promote(u64, u8, u16),
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..12, any::<u16>(), any::<u16>()).prop_map(|(kind, x, shards)| match kind {
            0 => Step::Register,
            1..=3 => Step::Wait(1 + u64::from(x) % 24),
            4..=7 => Step::Beat(x as u8),
            8..=10 => Step::Check,
            _ => Step::Promote(u64::from(x % 2), (x / 2 % 8) as u8, shards),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Recording only the containers that miss a beat decides exactly
        /// what stamping every container at every beat decides: the same
        /// status and suspicion for every container after every step, the
        /// same revivals, the same deaths and moves at every fail-over
        /// check, the same promotions.
        #[test]
        fn exception_based_liveness_matches_a_stamp_per_container(
            steps in prop::collection::vec(step(), 1..60),
        ) {
            const SHARDS: u64 = 12;
            let capacity = Resources::cpu_mem(32.0, 64_000.0);
            let mut mgr = manager_with(2, SHARDS);
            let mut reference = Reference::default();
            for i in 0..2 {
                reference.heard.insert(ContainerId(i), (t(0), ContainerStatus::Alive, capacity));
            }
            for i in 0..SHARDS {
                reference.loads.push((ShardId(i), Resources::cpu_mem(0.5, 512.0)));
            }
            mgr.rebalance();
            reference.assignment = mgr.assignment().clone();
            let (mut now, mut last_beat, mut next) = (t(0), t(0), 2u64);
            for step in steps {
                match step {
                    Step::Register => {
                        let id = ContainerId(next);
                        next += 1;
                        mgr.register_container(id, capacity, now);
                        reference.heard.insert(id, (now, ContainerStatus::Alive, capacity));
                    }
                    Step::Wait(secs) => now += Duration::from_secs(secs),
                    Step::Beat(mask) => {
                        // Bit 7 names a container nobody registered.
                        let silent: Vec<ContainerId> = (0..8)
                            .filter(|b| mask & (1 << b) != 0)
                            .map(|b| ContainerId(if b == 7 { 99 } else { b }))
                            .collect();
                        prop_assert_eq!(
                            mgr.beat(now, silent.iter().copied()),
                            reference.beat(now, &silent)
                        );
                        last_beat = now;
                    }
                    Step::Check => {
                        if now.since(last_beat) < FAILOVER_INTERVAL {
                            prop_assert_eq!(mgr.check_failover(now), reference.check_failover(now));
                        }
                    }
                    Step::Promote(job, container, mask) => {
                        let (job, container) = (JobId(job), ContainerId(u64::from(container)));
                        mgr.set_critical(job, true);
                        if mgr.containers.contains_key(&container) {
                            mgr.set_standby(job, container);
                            reference.standby.insert(job, container);
                        }
                        let shards: Vec<ShardId> =
                            (0..SHARDS).filter(|b| mask & (1 << b) != 0).map(ShardId).collect();
                        prop_assert_eq!(
                            mgr.promote_standby(job, &shards),
                            reference.promote_standby(job, &shards)
                        );
                    }
                }
                for id in (0..next).chain([99]).map(ContainerId) {
                    prop_assert_eq!(mgr.status(id), reference.status(id), "{:?}", id);
                    prop_assert_eq!(mgr.is_suspect(id, now), reference.is_suspect(id, now), "{:?}", id);
                }
            }
        }
    }
}
