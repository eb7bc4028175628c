//! Strongly-typed identifiers used across the platform.
//!
//! Turbine separates *what* to run (jobs), *where* to run (shards,
//! containers, hosts), and the data-plane addressing (Scribe partitions).
//! Newtype wrappers keep those ID spaces from being mixed up at compile
//! time.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw numeric value of the identifier.
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a streaming job (a set of parallel tasks running the
    /// same binary over disjoint input partitions).
    JobId,
    u64,
    "job-"
);
id_type!(
    /// Identifier of a shard: the unit of placement the Shard Manager
    /// assigns to Turbine containers.
    ShardId,
    u64,
    "shard-"
);
id_type!(
    /// Identifier of a Turbine container (a nested container obtained from
    /// the cluster manager, hosting a local Task Manager).
    ContainerId,
    u64,
    "container-"
);
id_type!(
    /// Identifier of a physical host in the cluster.
    HostId,
    u64,
    "host-"
);
id_type!(
    /// Identifier of a Scribe partition within a category.
    PartitionId,
    u64,
    "partition-"
);

/// Identifier of one task of a job: the `index`-th of the job's parallel
/// tasks. Task identity is derived, not allocated: task `(job, i)` always
/// processes the `i`-th slice of the job's input partitions, which is what
/// makes checkpoint redistribution on parallelism changes well-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId {
    /// Owning job.
    pub job: JobId,
    /// Index within the job, in `0..task_count`.
    pub index: u32,
}

impl TaskId {
    /// Create the task identifier for the `index`-th task of `job`.
    pub fn new(job: JobId, index: u32) -> Self {
        Self { job, index }
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/task-{}", self.job, self.index)
    }
}

/// The hasher for tables keyed by ids the platform hands out itself (jobs,
/// containers, tasks). Those are dense integers, never outside input, so a
/// multiplicative hash is safe and a SipHash round on every probe is not
/// worth paying. Nothing may read such a table in iteration order.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A table keyed by platform-assigned ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// An empty [`IdMap`] with room for `capacity` entries.
pub fn id_map<K, V>(capacity: usize) -> IdMap<K, V> {
    HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_formats_are_prefixed() {
        assert_eq!(JobId(7).to_string(), "job-7");
        assert_eq!(ShardId(0).to_string(), "shard-0");
        assert_eq!(ContainerId(12).to_string(), "container-12");
        assert_eq!(HostId(3).to_string(), "host-3");
        assert_eq!(PartitionId(9).to_string(), "partition-9");
        assert_eq!(TaskId::new(JobId(7), 2).to_string(), "job-7/task-2");
    }

    #[test]
    fn ids_are_usable_as_map_keys() {
        let mut set = HashSet::new();
        set.insert(TaskId::new(JobId(1), 0));
        set.insert(TaskId::new(JobId(1), 1));
        set.insert(TaskId::new(JobId(1), 0));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn raw_roundtrips() {
        assert_eq!(JobId::from(42).raw(), 42);
        assert_eq!(ShardId::from(7).raw(), 7);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(JobId(2) < JobId(10));
        assert!(TaskId::new(JobId(1), 5) < TaskId::new(JobId(2), 0));
    }
}
