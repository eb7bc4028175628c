//! Where a critical job's warm standby goes (DESIGN §3.6).

use std::collections::BTreeSet;
use turbine_types::{ContainerId, HostId};

/// One fail-over check's standby ranking: every eligible container —
/// reachable, alive and on a host — best first by fewest primary tasks,
/// then fewest owned shards, then lowest id. An idle container keeps a
/// standby's failure domain apart from other jobs' faults. A standby owns
/// no shards and runs no primary, so placing one moves neither count and
/// one order serves every job the check examines.
#[derive(Debug, Default)]
pub struct StandbyOrder {
    /// `(primary tasks, owned shards, container, host)`, ascending.
    pub(crate) ranked: Vec<(usize, usize, ContainerId, HostId)>,
    /// `(container, primary tasks)` of the same containers, by id.
    pub(crate) by_id: Vec<(ContainerId, usize)>,
}

impl StandbyOrder {
    /// The best eligible container on none of `primary_hosts`: the first
    /// of the order off the job's hosts, so one host failure cannot take
    /// out a primary and its standby together.
    pub fn pick(&self, primary_hosts: &BTreeSet<HostId>) -> Option<ContainerId> {
        self.first_off(primary_hosts).map(|e| e.2)
    }

    /// Whether `standby` keeps its registration: it is still eligible, and
    /// it is idle or no idle container off the job's primary hosts is there
    /// to migrate to. With no idle container at the head of the order there
    /// is none anywhere, so the job's hosts are only asked for then.
    pub fn keeps(
        &self,
        standby: ContainerId,
        primary_hosts: impl FnOnce() -> BTreeSet<HostId>,
    ) -> bool {
        let Ok(at) = self.by_id.binary_search_by_key(&standby, |e| e.0) else {
            return false;
        };
        self.by_id[at].1 == 0
            || self.ranked.first().is_some_and(|head| head.0 > 0)
            || self.first_off(&primary_hosts()).is_none_or(|e| e.0 > 0)
    }

    fn first_off(
        &self,
        primary_hosts: &BTreeSet<HostId>,
    ) -> Option<&(usize, usize, ContainerId, HostId)> {
        self.ranked.iter().find(|e| !primary_hosts.contains(&e.3))
    }
}

#[cfg(test)]
mod tests {
    use crate::{ContainerStatus, ShardManager, ShardManagerConfig};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use turbine_types::{ContainerId, Duration, HostId, Resources, ShardId, SimTime};

    /// A Task Manager container as the platform describes it, plus whether
    /// it is alive in the Shard Manager.
    type Row = (usize, bool, bool, Option<u64>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// From the same rows, `pick` is the brute-force minimum of
        /// `(primary tasks, owned shards, id)` over the reachable, alive,
        /// hosted containers off the job's hosts, and `keeps` holds
        /// exactly when the standby is eligible and is idle or that
        /// minimum is busy (or absent).
        #[test]
        fn pick_is_the_least_loaded_container_off_the_primary_hosts(
            rows in prop::collection::vec(
                (0usize..3, any::<bool>(), any::<bool>(), prop::sample::select(vec![None, Some(0u64), Some(1), Some(2), Some(3)])),
                0..12,
            ),
            owners in prop::collection::vec(0usize..12, 0..24),
            primary in prop::collection::vec(0u64..4, 0..3),
        ) {
            let rows: Vec<Row> = rows;
            let at = |s| SimTime::ZERO + Duration::from_secs(s);
            let mut mgr = ShardManager::new(ShardManagerConfig::default());
            mgr.ensure_shards(owners.len() as u64);
            for i in 0..rows.len() {
                mgr.register_container(ContainerId(i as u64), Resources::cpu_mem(32.0, 64_000.0), at(0));
            }
            let silent = (0..rows.len()).filter(|&i| !rows[i].2).map(|i| ContainerId(i as u64));
            mgr.beat(at(60), silent);
            mgr.check_failover(at(60));
            for (s, &owner) in owners.iter().enumerate() {
                mgr.move_shard(ShardId(s as u64), ContainerId(owner as u64));
            }
            let order = mgr.standby_order(rows.iter().enumerate().map(|(i, &(tasks, reachable, _, host))| {
                (ContainerId(i as u64), host.map(HostId), tasks, reachable)
            }));

            let primary: BTreeSet<HostId> = primary.into_iter().map(HostId).collect();
            let eligible = |i: usize| {
                let (_, reachable, _, host) = rows[i];
                let id = ContainerId(i as u64);
                reachable && host.is_some() && mgr.status(id) == Some(ContainerStatus::Alive)
            };
            let best = (0..rows.len())
                .filter(|&i| eligible(i) && !primary.contains(&HostId(rows[i].3.unwrap_or(0))))
                .min_by_key(|&i| (rows[i].0, mgr.shards_of(ContainerId(i as u64)).len(), i));
            prop_assert_eq!(order.pick(&primary), best.map(|i| ContainerId(i as u64)));
            for (i, row) in rows.iter().enumerate() {
                let keeps = eligible(i) && (row.0 == 0 || best.is_none_or(|b| rows[b].0 > 0));
                prop_assert_eq!(order.keeps(ContainerId(i as u64), || primary.clone()), keeps);
            }
        }
    }
}
