//! The cluster-manager substrate (Tupperware stand-in, paper §II, §IV).
//!
//! Turbine is a *nested* container infrastructure: it obtains an allocation
//! of Linux containers — the **Turbine Containers** — from Facebook's
//! cluster manager Tupperware; each Turbine Container manages a pool of
//! resources on a physical host and runs a local Task Manager that spawns
//! stream-processing tasks as children. Turbine consumes exactly two things
//! from the cluster manager: container allocations (with capacities) and
//! host liveness. This crate models both, plus the failure injection the
//! evaluation experiments need (maintenance events, host failures,
//! add/remove of hosts).

use std::collections::BTreeMap;
use std::fmt;
use turbine_types::{ContainerId, HostId, Resources};

/// Error raised for operations on unknown hosts/containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No host with this id.
    UnknownHost(HostId),
    /// No container with this id.
    UnknownContainer(ContainerId),
    /// The requested container capacity exceeds what is left on the host.
    InsufficientHostCapacity(HostId),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownHost(h) => write!(f, "unknown {h}"),
            ClusterError::UnknownContainer(c) => write!(f, "unknown {c}"),
            ClusterError::InsufficientHostCapacity(h) => {
                write!(f, "insufficient remaining capacity on {h}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// A physical machine.
#[derive(Debug, Clone)]
struct Host {
    capacity: Resources,
    allocated: Resources,
    healthy: bool,
    containers: Vec<ContainerId>,
}

/// A Turbine Container: the parent container managing a resource pool on
/// one host.
#[derive(Debug, Clone)]
struct Container {
    host: HostId,
    capacity: Resources,
}

/// The cluster: hosts and the Turbine containers allocated on them.
#[derive(Debug, Default)]
pub struct Cluster {
    hosts: BTreeMap<HostId, Host>,
    containers: BTreeMap<ContainerId, Container>,
    next_host: u64,
    next_container: u64,
    /// Bumped by every successful mutation, so a consumer can cache
    /// anything derived from the cluster and revalidate it in O(1). Not
    /// part of the snapshot: a restored cluster starts over at zero, and
    /// caches keyed on it must not survive a restore either.
    generation: u64,
}

impl Cluster {
    /// An empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mutation generation: two reads returning the same value
    /// bracket a span in which no host or container was added, removed,
    /// failed or recovered.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Add one healthy host with the given capacity.
    fn add_host(&mut self, capacity: Resources) -> HostId {
        let id = HostId(self.next_host);
        self.next_host += 1;
        self.generation += 1;
        self.hosts.insert(
            id,
            Host {
                capacity,
                allocated: Resources::ZERO,
                healthy: true,
                containers: Vec::new(),
            },
        );
        id
    }

    /// Add `n` identical hosts; returns their ids.
    pub fn add_hosts(&mut self, n: usize, capacity: Resources) -> Vec<HostId> {
        (0..n).map(|_| self.add_host(capacity)).collect()
    }

    /// Allocate a Turbine container of `capacity` on `host`.
    pub fn allocate_container(
        &mut self,
        host: HostId,
        capacity: Resources,
    ) -> Result<ContainerId, ClusterError> {
        let h = self
            .hosts
            .get_mut(&host)
            .ok_or(ClusterError::UnknownHost(host))?;
        if !(h.allocated + capacity).fits_within(&h.capacity) {
            return Err(ClusterError::InsufficientHostCapacity(host));
        }
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        self.generation += 1;
        h.allocated += capacity;
        h.containers.push(id);
        self.containers.insert(id, Container { host, capacity });
        Ok(id)
    }

    /// Release a container's resources back to its host.
    pub fn release_container(&mut self, container: ContainerId) -> Result<(), ClusterError> {
        let c = self
            .containers
            .remove(&container)
            .ok_or(ClusterError::UnknownContainer(container))?;
        self.generation += 1;
        if let Some(h) = self.hosts.get_mut(&c.host) {
            h.allocated -= c.capacity;
            h.containers.retain(|&x| x != container);
        }
        Ok(())
    }

    /// Mark a host failed (maintenance, crash, disconnect). Its containers
    /// stop heart-beating; the Shard Manager will fail their shards over.
    pub fn fail_host(&mut self, host: HostId) -> Result<(), ClusterError> {
        self.set_host_health(host, false)
    }

    /// Bring a failed host back.
    pub fn recover_host(&mut self, host: HostId) -> Result<(), ClusterError> {
        self.set_host_health(host, true)
    }

    fn set_host_health(&mut self, host: HostId, healthy: bool) -> Result<(), ClusterError> {
        let h = self
            .hosts
            .get_mut(&host)
            .ok_or(ClusterError::UnknownHost(host))?;
        h.healthy = healthy;
        self.generation += 1;
        Ok(())
    }

    /// Host a container lives on.
    pub fn host_of(&self, container: ContainerId) -> Result<HostId, ClusterError> {
        self.containers
            .get(&container)
            .map(|c| c.host)
            .ok_or(ClusterError::UnknownContainer(container))
    }

    /// Capacity of a host.
    pub fn host_capacity(&self, host: HostId) -> Result<Resources, ClusterError> {
        self.hosts
            .get(&host)
            .map(|h| h.capacity)
            .ok_or(ClusterError::UnknownHost(host))
    }

    /// Capacity of a container.
    pub fn container_capacity(&self, container: ContainerId) -> Result<Resources, ClusterError> {
        self.containers
            .get(&container)
            .map(|c| c.capacity)
            .ok_or(ClusterError::UnknownContainer(container))
    }

    /// True if the container exists and its host is healthy.
    pub fn is_container_healthy(&self, container: ContainerId) -> bool {
        self.containers
            .get(&container)
            .and_then(|c| self.hosts.get(&c.host))
            .is_some_and(|h| h.healthy)
    }

    /// All containers on healthy hosts, sorted by id.
    pub fn healthy_containers(&self) -> Vec<ContainerId> {
        self.healthy_container_capacities()
            .map(|(id, _)| id)
            .collect()
    }

    /// Every container on a healthy host with its capacity, sorted by id,
    /// without collecting them.
    pub fn healthy_container_capacities(
        &self,
    ) -> impl Iterator<Item = (ContainerId, Resources)> + '_ {
        self.containers
            .iter()
            .filter(|(_, c)| self.hosts.get(&c.host).is_some_and(|h| h.healthy))
            .map(|(&id, c)| (id, c.capacity))
    }

    /// All hosts, sorted by id.
    pub fn hosts(&self) -> Vec<HostId> {
        self.hosts.keys().copied().collect()
    }

    /// Healthy hosts, sorted by id.
    pub fn healthy_hosts(&self) -> Vec<HostId> {
        self.hosts
            .iter()
            .filter(|(_, h)| h.healthy)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Containers allocated on one host.
    pub fn containers_on(&self, host: HostId) -> Result<Vec<ContainerId>, ClusterError> {
        self.hosts
            .get(&host)
            .map(|h| h.containers.clone())
            .ok_or(ClusterError::UnknownHost(host))
    }

    /// Total capacity across healthy hosts.
    pub fn total_healthy_capacity(&self) -> Resources {
        self.hosts
            .values()
            .filter(|h| h.healthy)
            .map(|h| h.capacity)
            .sum()
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }
}

turbine_types::snap_struct!(Host {
    capacity,
    allocated,
    healthy,
    containers
});

turbine_types::snap_struct!(Container { host, capacity });

turbine_types::snap_struct!(Cluster { hosts, containers, next_host, next_container } derived { generation: 0 });

#[cfg(test)]
mod tests {
    use super::*;

    /// A host resembling the Scuba Tailer fleet machines: 56 cores, 256 GB.
    fn scuba_host() -> Resources {
        Resources::new(56.0, 256.0 * 1024.0, 1_000_000.0, 1000.0)
    }

    #[test]
    fn allocation_respects_host_capacity() {
        let mut cluster = Cluster::new();
        let h = cluster.add_host(Resources::cpu_mem(4.0, 1000.0));
        let c1 = cluster
            .allocate_container(h, Resources::cpu_mem(3.0, 600.0))
            .expect("fits");
        assert_eq!(cluster.host_of(c1).expect("host"), h);
        // Second allocation exceeds remaining CPU.
        assert_eq!(
            cluster.allocate_container(h, Resources::cpu_mem(2.0, 100.0)),
            Err(ClusterError::InsufficientHostCapacity(h))
        );
        // Releasing frees the capacity again.
        cluster.release_container(c1).expect("release");
        cluster
            .allocate_container(h, Resources::cpu_mem(4.0, 1000.0))
            .expect("full host fits after release");
    }

    #[test]
    fn host_failure_marks_containers_unhealthy() {
        let mut cluster = Cluster::new();
        let hosts = cluster.add_hosts(2, scuba_host());
        let fleet: Vec<ContainerId> = hosts
            .iter()
            .map(|&h| {
                cluster
                    .allocate_container(h, scuba_host().scale(0.5))
                    .expect("fits")
            })
            .collect();
        assert_eq!(cluster.healthy_containers().len(), 2);
        cluster.fail_host(hosts[0]).expect("fail");
        assert_eq!(cluster.healthy_containers().len(), 1);
        assert!(!cluster.is_container_healthy(fleet[0]));
        cluster.recover_host(hosts[0]).expect("recover");
        assert_eq!(cluster.healthy_containers().len(), 2);
    }

    #[test]
    fn capacity_accounting_sums_healthy_hosts_only() {
        let mut cluster = Cluster::new();
        let hosts = cluster.add_hosts(3, Resources::cpu_mem(10.0, 100.0));
        cluster.fail_host(hosts[1]).expect("fail");
        let total = cluster.total_healthy_capacity();
        assert_eq!(total.cpu, 20.0);
        assert_eq!(cluster.healthy_hosts().len(), 2);
    }

    #[test]
    fn generation_moves_with_every_mutation_and_only_then() {
        let mut cluster = Cluster::new();
        let mut last = cluster.generation();
        let mut moved = |cluster: &Cluster| {
            let now = cluster.generation();
            let moved = now != last;
            last = now;
            moved
        };
        let h = cluster.add_host(scuba_host());
        assert!(moved(&cluster));
        let c = cluster
            .allocate_container(h, Resources::cpu_mem(1.0, 1.0))
            .expect("fits");
        assert!(moved(&cluster));
        cluster.fail_host(h).expect("fail");
        assert!(moved(&cluster));
        cluster.recover_host(h).expect("recover");
        assert!(moved(&cluster));
        // Reads and failed mutations leave it alone.
        let _ = cluster.healthy_containers();
        assert!(cluster.fail_host(HostId(9)).is_err());
        assert!(cluster.release_container(ContainerId(9)).is_err());
        assert!(!moved(&cluster));
        cluster.release_container(c).expect("release");
        assert!(moved(&cluster));
    }

    #[test]
    fn unknown_ids_error() {
        let mut cluster = Cluster::new();
        assert!(cluster.fail_host(HostId(9)).is_err());
        assert!(cluster.host_of(ContainerId(9)).is_err());
        assert!(cluster.release_container(ContainerId(9)).is_err());
        assert!(cluster.containers_on(HostId(9)).is_err());
    }
}
