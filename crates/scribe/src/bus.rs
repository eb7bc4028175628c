//! The message bus: categories, partitions, offsets.

use std::fmt;
use turbine_types::{PartitionId, SimTime};

/// Error raised for operations on unknown categories/partitions or invalid
/// offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScribeError {
    /// The named category does not exist.
    UnknownCategory(String),
    /// The category exists but the partition index is out of range.
    UnknownPartition(String, PartitionId),
    /// A category with this name already exists.
    CategoryExists(String),
    /// A read offset beyond the partition tail was supplied.
    OffsetBeyondTail {
        /// Offset requested by the reader.
        requested: u64,
        /// Current tail of the partition.
        tail: u64,
    },
}

impl fmt::Display for ScribeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScribeError::UnknownCategory(c) => write!(f, "unknown scribe category '{c}'"),
            ScribeError::UnknownPartition(c, p) => {
                write!(f, "unknown partition {p} in category '{c}'")
            }
            ScribeError::CategoryExists(c) => write!(f, "scribe category '{c}' already exists"),
            ScribeError::OffsetBeyondTail { requested, tail } => {
                write!(f, "read offset {requested} beyond partition tail {tail}")
            }
        }
    }
}

impl std::error::Error for ScribeError {}

/// A stored message: payload plus the byte offset at which it begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Byte offset of the first payload byte within the partition.
    pub offset: u64,
    /// Message payload.
    pub payload: Vec<u8>,
}

/// One partition of a category.
#[derive(Debug, Default)]
struct Partition {
    /// Total bytes ever appended — the tail offset.
    appended: u64,
    /// Bytes trimmed by retention; reads below this offset fail over to
    /// the trim point (data loss is visible to the reader, as in real
    /// Scribe when a lagging reader falls off retention).
    trimmed: u64,
    /// Stored payloads, only when the category retains them.
    records: Vec<Record>,
}

/// One category (topic) with a fixed number of partitions.
#[derive(Debug)]
struct Category {
    partitions: Vec<Partition>,
    retain_payloads: bool,
    /// Total bytes appended across partitions, for rate accounting.
    total_appended: u64,
    last_append_at: SimTime,
}

impl Category {
    fn stats(&self) -> CategoryStats {
        CategoryStats {
            partitions: self.partitions.len(),
            total_appended: self.total_appended,
            last_append_at: self.last_append_at,
        }
    }
}

/// Aggregate statistics of one category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryStats {
    /// Number of partitions.
    pub partitions: usize,
    /// Total bytes appended across all partitions since creation.
    pub total_appended: u64,
    /// Time of the most recent append.
    pub last_append_at: SimTime,
}

/// A category's dense id within its [`Scribe`]: its place in creation
/// order. Categories are never removed, and a decoded bus keeps creation
/// order, so an id stays valid for as long as the bus that handed it out
/// and every bus restored from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CategoryId(u32);

impl CategoryId {
    /// The id's place in creation order: a dense index for a caller's own
    /// per-category table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The message bus. One instance models the Scribe deployment a Turbine
/// cluster reads from and writes to.
#[derive(Debug, Default)]
pub struct Scribe {
    /// In creation order: a category's index is its [`CategoryId`].
    categories: Vec<Category>,
    /// Each category's name, by id: the one copy of it.
    names: Vec<String>,
    /// The ids in name order: the name index, and the order of
    /// [`Scribe::categories`].
    by_name: Vec<CategoryId>,
}

impl Scribe {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a category with `partitions` partitions that only tracks byte
    /// offsets (the cluster-scale fast path); returns its id.
    pub fn create_category(
        &mut self,
        name: &str,
        partitions: u32,
    ) -> Result<CategoryId, ScribeError> {
        self.create_category_inner(name, partitions, false)
    }

    /// Create a category that additionally retains payloads so they can be
    /// read back with [`Scribe::read_records`]; returns its id.
    pub fn create_category_with_payloads(
        &mut self,
        name: &str,
        partitions: u32,
    ) -> Result<CategoryId, ScribeError> {
        self.create_category_inner(name, partitions, true)
    }

    fn create_category_inner(
        &mut self,
        name: &str,
        partitions: u32,
        retain_payloads: bool,
    ) -> Result<CategoryId, ScribeError> {
        assert!(partitions > 0, "a category needs at least one partition");
        let Err(at) = self.find(name) else {
            return Err(ScribeError::CategoryExists(name.to_string()));
        };
        let id = CategoryId(u32::try_from(self.categories.len()).expect("under 2^32 categories"));
        self.categories.push(Category {
            partitions: (0..partitions).map(|_| Partition::default()).collect(),
            retain_payloads,
            total_appended: 0,
            last_append_at: SimTime::ZERO,
        });
        self.names.push(name.to_string());
        self.by_name.insert(at, id);
        Ok(id)
    }

    /// Where `name` sits in the name index (`Ok`), or where it would be
    /// inserted (`Err`).
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|id| self.names[id.index()].as_str().cmp(name))
    }

    /// The id of the named category, if it exists: the one name search a
    /// caller that keeps the id pays.
    pub fn category_id(&self, name: &str) -> Option<CategoryId> {
        self.find(name).ok().map(|at| self.by_name[at])
    }

    /// The name of the category `id` names, if this bus has it.
    pub fn name(&self, id: CategoryId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// True if the category exists.
    pub fn has_category(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Number of partitions in a category.
    pub fn partition_count(&self, category: &str) -> Result<u32, ScribeError> {
        Ok(self.category(category)?.partitions.len() as u32)
    }

    fn category(&self, name: &str) -> Result<&Category, ScribeError> {
        self.category_id(name)
            .map(|id| &self.categories[id.index()])
            .ok_or_else(|| ScribeError::UnknownCategory(name.to_string()))
    }

    fn partition_mut(
        &mut self,
        category: &str,
        partition: PartitionId,
    ) -> Result<(&mut Category, usize), ScribeError> {
        let id = self
            .category_id(category)
            .ok_or_else(|| ScribeError::UnknownCategory(category.to_string()))?;
        let cat = &mut self.categories[id.index()];
        let idx = partition_index(category, &cat.partitions, partition)?;
        Ok((cat, idx))
    }

    fn partition(&self, category: &str, partition: PartitionId) -> Result<&Partition, ScribeError> {
        let cat = self.category(category)?;
        let idx = partition_index(category, &cat.partitions, partition)?;
        Ok(&cat.partitions[idx])
    }

    /// Append `bytes` of traffic to a partition without retaining payloads.
    pub fn append_bytes(
        &mut self,
        category: &str,
        partition: PartitionId,
        bytes: u64,
        at: SimTime,
    ) -> Result<(), ScribeError> {
        let (cat, idx) = self.partition_mut(category, partition)?;
        cat.partitions[idx].appended += bytes;
        cat.total_appended += bytes;
        cat.last_append_at = cat.last_append_at.max(at);
        Ok(())
    }

    /// Append a payload-carrying record; returns its starting offset.
    pub fn append_record(
        &mut self,
        category: &str,
        partition: PartitionId,
        payload: &[u8],
        at: SimTime,
    ) -> Result<u64, ScribeError> {
        let (cat, idx) = self.partition_mut(category, partition)?;
        let retain = cat.retain_payloads;
        let part = &mut cat.partitions[idx];
        let offset = part.appended;
        part.appended += payload.len() as u64;
        if retain {
            part.records.push(Record {
                offset,
                payload: payload.to_vec(),
            });
        }
        cat.total_appended += payload.len() as u64;
        cat.last_append_at = cat.last_append_at.max(at);
        Ok(offset)
    }

    /// Tail offset (total bytes appended) of a partition.
    pub fn tail_offset(&self, category: &str, partition: PartitionId) -> Result<u64, ScribeError> {
        Ok(self.partition(category, partition)?.appended)
    }

    /// Bytes available for reading between `from_offset` and the tail —
    /// per-partition `total_bytes_lagged` in the paper's Eq. 1. An offset
    /// below the trim point reads from the trim point (the reader lost
    /// data to retention). An offset beyond the tail is an error.
    pub fn bytes_available(
        &self,
        category: &str,
        partition: PartitionId,
        from_offset: u64,
    ) -> Result<u64, ScribeError> {
        let part = self.partition(category, partition)?;
        if from_offset > part.appended {
            return Err(ScribeError::OffsetBeyondTail {
                requested: from_offset,
                tail: part.appended,
            });
        }
        Ok(part.appended - from_offset.max(part.trimmed))
    }

    /// Model a WAL torn-tail salvage: the partition's durable tail moves
    /// *backwards* to `new_tail` because bytes past it were found torn at
    /// recovery and dropped. Returns the number of bytes lost. A `new_tail`
    /// at or beyond the current tail is a no-op (nothing was torn).
    ///
    /// This is the one operation that can leave an already-persisted reader
    /// checkpoint beyond the tail; readers are expected to clamp such
    /// checkpoints back (see `CheckpointStore::clamp_to`) and re-read the
    /// lost range.
    pub fn salvage_tail(
        &mut self,
        category: &str,
        partition: PartitionId,
        new_tail: u64,
    ) -> Result<u64, ScribeError> {
        let (cat, idx) = self.partition_mut(category, partition)?;
        let part = &mut cat.partitions[idx];
        if new_tail >= part.appended {
            return Ok(0);
        }
        let lost = part.appended - new_tail;
        part.appended = new_tail;
        part.trimmed = part.trimmed.min(new_tail);
        part.records.retain(|r| r.offset < new_tail);
        cat.total_appended = cat.total_appended.saturating_sub(lost);
        Ok(lost)
    }

    /// Read retained records starting at `from_offset`, at most `max`.
    /// Categories created without payload retention always return an empty
    /// vector.
    pub fn read_records(
        &self,
        category: &str,
        partition: PartitionId,
        from_offset: u64,
        max: usize,
    ) -> Result<Vec<Record>, ScribeError> {
        let part = self.partition(category, partition)?;
        let start = part.records.partition_point(|r| r.offset < from_offset);
        Ok(part.records[start..].iter().take(max).cloned().collect())
    }

    /// Trim a partition up to `offset`: readers below it lose data.
    pub fn trim(
        &mut self,
        category: &str,
        partition: PartitionId,
        offset: u64,
    ) -> Result<(), ScribeError> {
        let (cat, idx) = self.partition_mut(category, partition)?;
        let part = &mut cat.partitions[idx];
        let offset = offset.min(part.appended);
        part.trimmed = part.trimmed.max(offset);
        part.records.retain(|r| r.offset >= offset);
        Ok(())
    }

    /// Batched per-category backlog: the sum of [`Scribe::bytes_available`]
    /// across many partitions of the category `id` names, with no name
    /// search. `cursors` supplies each partition's read offset in the order
    /// the caller wants them evaluated; partitions the category does not
    /// have (yet) contribute nothing, matching the per-stream path that
    /// skips partitions Scribe has never seen. The first beyond-tail cursor
    /// aborts the sum, tagged with its partition. Panics on an id this bus
    /// did not hand out.
    pub fn backlog<I>(&self, id: CategoryId, cursors: I) -> Result<u64, (PartitionId, ScribeError)>
    where
        I: IntoIterator<Item = (PartitionId, u64)>,
    {
        let (name, cat) = (&self.names[id.index()], &self.categories[id.index()]);
        let mut total = 0u64;
        for (partition, from_offset) in cursors {
            let Ok(idx) = partition_index(name, &cat.partitions, partition) else {
                continue;
            };
            let part = &cat.partitions[idx];
            if from_offset > part.appended {
                return Err((
                    partition,
                    ScribeError::OffsetBeyondTail {
                        requested: from_offset,
                        tail: part.appended,
                    },
                ));
            }
            total += part.appended - from_offset.max(part.trimmed);
        }
        Ok(total)
    }

    /// [`Scribe::backlog`] of the named category, after one name search;
    /// an unknown category sums to zero (as when no data was ever
    /// written).
    pub fn category_backlog<I>(
        &self,
        category: &str,
        cursors: I,
    ) -> Result<u64, (PartitionId, ScribeError)>
    where
        I: IntoIterator<Item = (PartitionId, u64)>,
    {
        self.category_id(category)
            .map_or(Ok(0), |id| self.backlog(id, cursors))
    }

    /// Mutable view of the category `id` names, with no name search: the
    /// durable-sync pass's access to a category. Panics on an id this bus
    /// did not hand out.
    pub fn view(&mut self, id: CategoryId) -> CategoryView<'_> {
        CategoryView {
            cat: &mut self.categories[id.index()],
        }
    }

    /// Every partition's tail offset of the category `id` names, in
    /// partition order.
    pub fn tails(&self, id: CategoryId) -> impl Iterator<Item = u64> + '_ {
        self.categories[id.index()]
            .partitions
            .iter()
            .map(|part| part.appended)
    }

    /// Aggregate statistics of a category.
    pub fn stats(&self, category: &str) -> Result<CategoryStats, ScribeError> {
        Ok(self.category(category)?.stats())
    }

    /// Every category with its id and aggregate statistics, in name order.
    pub fn categories(&self) -> impl Iterator<Item = (CategoryId, &str, CategoryStats)> {
        self.by_name.iter().map(|&id| {
            (
                id,
                self.names[id.index()].as_str(),
                self.categories[id.index()].stats(),
            )
        })
    }
}

/// A borrowed mutable view of one category (see [`Scribe::view`]).
#[derive(Debug)]
pub struct CategoryView<'a> {
    cat: &'a mut Category,
}

impl CategoryView<'_> {
    /// Total bytes ever appended to the category (monotone except for
    /// torn-tail salvage, which subtracts the lost range) — a cheap
    /// change detector for the category's durable tails.
    pub fn total_appended(&self) -> u64 {
        self.cat.total_appended
    }

    /// Partition `index`'s tail after `bytes` more are appended to it, as
    /// [`Scribe::append_bytes`] would (`bytes == 0` appends nothing and
    /// leaves the append time alone). A partition the category does
    /// not have takes nothing and reads a tail of 0. The durable-sync
    /// pass's one access per partition.
    pub fn append_then_tail(&mut self, index: usize, bytes: u64, at: SimTime) -> u64 {
        let Some(part) = self.cat.partitions.get_mut(index) else {
            return 0;
        };
        if bytes > 0 {
            part.appended += bytes;
            self.cat.total_appended += bytes;
            self.cat.last_append_at = self.cat.last_append_at.max(at);
        }
        part.appended
    }
}

/// The one bounds check between a wire-supplied [`PartitionId`] and an
/// index into a category's partition vector. `usize::try_from` (rather
/// than `as usize`) keeps the check exact on 32-bit targets, where a
/// corrupt 64-bit id could otherwise truncate into a valid-looking index.
fn partition_index(
    category: &str,
    partitions: &[Partition],
    partition: PartitionId,
) -> Result<usize, ScribeError> {
    usize::try_from(partition.raw())
        .ok()
        .filter(|&idx| idx < partitions.len())
        .ok_or_else(|| ScribeError::UnknownPartition(category.to_string(), partition))
}

turbine_types::snap_struct!(CategoryId(index));

turbine_types::snap_struct!(Record { offset, payload });

turbine_types::snap_struct!(Partition {
    appended,
    trimmed,
    records
});

turbine_types::snap_struct!(Category {
    partitions,
    retain_payloads,
    total_appended,
    last_append_at
});

// By hand: the stream is the count, then each category's name and body
// in creation order, so a decoded bus hands out the ids the encoded one
// did. Decoding rebuilds the name index and refuses a repeated name.
impl turbine_types::Snap for Scribe {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.u64(self.categories.len() as u64);
        for (name, category) in self.names.iter().zip(&self.categories) {
            w.put(name);
            w.put(category);
        }
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let count = r.len_prefix("Scribe categories")?;
        let mut bus = Scribe::new();
        for at in 0..count {
            let id = u32::try_from(at)
                .map_err(|_| turbine_types::SnapError::Value("Scribe category count"))?;
            bus.names.push(r.get()?);
            bus.categories.push(r.get()?);
            bus.by_name.push(CategoryId(id));
        }
        let names = &bus.names;
        bus.by_name
            .sort_unstable_by_key(|id| names[id.index()].as_str());
        bus.by_name.dedup_by_key(|id| names[id.index()].as_str());
        if bus.by_name.len() != count {
            return Err(turbine_types::SnapError::Value(
                "Scribe category name repeated",
            ));
        }
        Ok(bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u64) -> PartitionId {
        PartitionId(i)
    }

    #[test]
    fn create_and_append_tracks_offsets() {
        let mut bus = Scribe::new();
        bus.create_category("events", 4).expect("create");
        bus.append_bytes("events", p(0), 100, SimTime::ZERO)
            .expect("append");
        bus.append_bytes("events", p(0), 50, SimTime::ZERO)
            .expect("append");
        bus.append_bytes("events", p(1), 7, SimTime::ZERO)
            .expect("append");
        assert_eq!(bus.tail_offset("events", p(0)).expect("tail"), 150);
        assert_eq!(bus.tail_offset("events", p(1)).expect("tail"), 7);
        assert_eq!(bus.tail_offset("events", p(2)).expect("tail"), 0);
        let stats = bus.stats("events").expect("stats");
        assert_eq!(stats.total_appended, 157);
        assert_eq!(stats.partitions, 4);
    }

    #[test]
    fn duplicate_category_is_rejected() {
        let mut bus = Scribe::new();
        bus.create_category("c", 1).expect("create");
        assert_eq!(
            bus.create_category("c", 1),
            Err(ScribeError::CategoryExists("c".into()))
        );
    }

    #[test]
    fn unknown_targets_error() {
        let mut bus = Scribe::new();
        bus.create_category("c", 2).expect("create");
        assert!(matches!(
            bus.append_bytes("nope", p(0), 1, SimTime::ZERO),
            Err(ScribeError::UnknownCategory(_))
        ));
        assert!(matches!(
            bus.append_bytes("c", p(2), 1, SimTime::ZERO),
            Err(ScribeError::UnknownPartition(_, _))
        ));
    }

    #[test]
    fn salvage_tail_moves_tail_backwards_and_drops_records() {
        let mut bus = Scribe::new();
        bus.create_category_with_payloads("clicks", 1)
            .expect("fresh bus must accept a new category");
        bus.append_record("clicks", PartitionId(0), b"aaaa", SimTime::ZERO)
            .expect("append to an existing partition must succeed");
        bus.append_record("clicks", PartitionId(0), b"bbbb", SimTime::ZERO)
            .expect("append to an existing partition must succeed");
        assert_eq!(
            bus.tail_offset("clicks", PartitionId(0))
                .expect("tail of an existing partition must be readable"),
            8
        );
        // Torn tail: the last record was half-written and dropped.
        assert_eq!(
            bus.salvage_tail("clicks", PartitionId(0), 4)
                .expect("salvage of an existing partition must succeed"),
            4
        );
        assert_eq!(
            bus.tail_offset("clicks", PartitionId(0))
                .expect("tail of an existing partition must be readable"),
            4
        );
        assert_eq!(
            bus.read_records("clicks", PartitionId(0), 0, 10)
                .expect("read below the tail must succeed")
                .len(),
            1
        );
        // A reader checkpointed at 8 now reads beyond the tail.
        assert!(matches!(
            bus.bytes_available("clicks", PartitionId(0), 8),
            Err(ScribeError::OffsetBeyondTail {
                requested: 8,
                tail: 4
            })
        ));
        // Salvage at/above the tail is a no-op.
        assert_eq!(
            bus.salvage_tail("clicks", PartitionId(0), 9)
                .expect("salvage of an existing partition must succeed"),
            0
        );
        assert_eq!(
            bus.tail_offset("clicks", PartitionId(0))
                .expect("tail of an existing partition must be readable"),
            4
        );
    }

    #[test]
    fn bytes_available_is_backlog() {
        let mut bus = Scribe::new();
        bus.create_category("c", 1).expect("create");
        bus.append_bytes("c", p(0), 1000, SimTime::ZERO)
            .expect("append");
        assert_eq!(bus.bytes_available("c", p(0), 0).expect("avail"), 1000);
        assert_eq!(bus.bytes_available("c", p(0), 400).expect("avail"), 600);
        assert_eq!(bus.bytes_available("c", p(0), 1000).expect("avail"), 0);
        assert!(matches!(
            bus.bytes_available("c", p(0), 1001),
            Err(ScribeError::OffsetBeyondTail { .. })
        ));
    }

    #[test]
    fn records_roundtrip_when_retained() {
        let mut bus = Scribe::new();
        bus.create_category_with_payloads("c", 1).expect("create");
        let o1 = bus
            .append_record("c", p(0), b"hello", SimTime::ZERO)
            .expect("append");
        let o2 = bus
            .append_record("c", p(0), b"world!", SimTime::ZERO)
            .expect("append");
        assert_eq!((o1, o2), (0, 5));
        let recs = bus.read_records("c", p(0), 0, 10).expect("read");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, b"hello");
        // Reading from an offset skips earlier records.
        let recs = bus.read_records("c", p(0), 5, 10).expect("read");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"world!");
        // `max` bounds the read.
        assert_eq!(bus.read_records("c", p(0), 0, 1).expect("read").len(), 1);
    }

    #[test]
    fn fast_path_does_not_retain_payloads() {
        let mut bus = Scribe::new();
        bus.create_category("c", 1).expect("create");
        bus.append_record("c", p(0), b"hello", SimTime::ZERO)
            .expect("append");
        assert!(bus.read_records("c", p(0), 0, 10).expect("read").is_empty());
        // But offsets still advance.
        assert_eq!(bus.tail_offset("c", p(0)).expect("tail"), 5);
    }

    #[test]
    fn trim_drops_old_data_and_clamps_reads() {
        let mut bus = Scribe::new();
        bus.create_category_with_payloads("c", 1).expect("create");
        bus.append_record("c", p(0), b"aaaa", SimTime::ZERO)
            .expect("append");
        bus.append_record("c", p(0), b"bbbb", SimTime::ZERO)
            .expect("append");
        bus.trim("c", p(0), 4).expect("trim");
        // A reader checkpointed at 0 lost the first record: available data
        // is only what remains past the trim point.
        assert_eq!(bus.bytes_available("c", p(0), 0).expect("avail"), 4);
        let recs = bus.read_records("c", p(0), 0, 10).expect("read");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].payload, b"bbbb");
        // Trimming beyond the tail clamps.
        bus.trim("c", p(0), 1_000_000).expect("trim");
        assert_eq!(bus.bytes_available("c", p(0), 8).expect("avail"), 0);
    }

    #[test]
    fn category_backlog_matches_per_partition_sum() {
        let mut bus = Scribe::new();
        bus.create_category("c", 3).expect("create");
        bus.append_bytes("c", p(0), 1000, SimTime::ZERO)
            .expect("append");
        bus.append_bytes("c", p(1), 500, SimTime::ZERO)
            .expect("append");
        bus.trim("c", p(0), 100).expect("trim");
        let cursors = [(p(0), 50u64), (p(1), 200), (p(2), 0)];
        let expected: u64 = cursors
            .iter()
            .map(|&(part, from)| bus.bytes_available("c", part, from).expect("avail"))
            .sum();
        assert_eq!(bus.category_backlog("c", cursors), Ok(expected));
        let id = bus.category_id("c").expect("exists");
        assert_eq!(bus.backlog(id, cursors), Ok(expected));
        // Partitions the category lacks are skipped; unknown categories sum
        // to zero (as when no data was ever written).
        assert_eq!(bus.category_backlog("c", [(p(9), 0)]), Ok(0));
        assert_eq!(bus.category_backlog("nope", [(p(0), 0)]), Ok(0));
        // A beyond-tail cursor aborts with its partition, like the
        // per-stream path's first error.
        assert_eq!(
            bus.category_backlog("c", [(p(1), 501)]),
            Err((
                p(1),
                ScribeError::OffsetBeyondTail {
                    requested: 501,
                    tail: 500
                }
            ))
        );
    }

    #[test]
    fn category_view_mirrors_bus_operations() {
        let mut bus = Scribe::new();
        bus.create_category("c", 2).expect("create");
        let id = bus.category_id("c").expect("exists");
        let at = SimTime::from_millis(7000);
        {
            let mut view = bus.view(id);
            assert_eq!(view.append_then_tail(0, 123, at), 123);
            assert_eq!(view.append_then_tail(0, 0, SimTime::from_millis(9000)), 123);
            // A partition the category lacks takes nothing and reads 0.
            assert_eq!(view.append_then_tail(5, 1, at), 0);
            assert_eq!(view.total_appended(), 123);
        }
        assert_eq!(bus.tail_offset("c", p(0)), Ok(123));
        assert_eq!(bus.tails(id).collect::<Vec<_>>(), [123, 0]);
        let stats = bus.stats("c").expect("stats");
        assert_eq!(stats.total_appended, 123);
        assert_eq!(stats.last_append_at, at);
        assert_eq!(bus.category_id("nope"), None);
    }

    #[test]
    fn ids_follow_creation_and_survive_a_decode() {
        use turbine_types::{SnapReader, SnapWriter};
        let mut bus = Scribe::new();
        let mut ids = Vec::new();
        for (name, partitions) in [("job_9_input", 2), ("job_10_input", 3), ("a", 1)] {
            ids.push(bus.create_category(name, partitions).expect("create"));
        }
        assert_eq!(
            ids.iter().map(|id| id.index()).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(bus.category_id("job_10_input"), Some(ids[1]));
        assert_eq!(bus.name(ids[2]), Some("a"));
        assert_eq!(bus.category_id("nope"), None);
        let names: Vec<String> = bus.categories().map(|(_, name, _)| name.into()).collect();
        assert_eq!(names, ["a", "job_10_input", "job_9_input"]);
        bus.append_bytes("job_9_input", p(1), 5, SimTime::ZERO)
            .expect("append");

        // The stream is the count, then (name, category) in creation order.
        let mut w = SnapWriter::new();
        w.put(&bus);
        let bytes = w.into_bytes();
        let mut expected = SnapWriter::new();
        expected.u64(3);
        for &id in &ids {
            expected.put(&bus.names[id.index()]);
            expected.put(&bus.categories[id.index()]);
        }
        assert!(
            bytes == expected.into_bytes(),
            "the creation-ordered stream"
        );

        // A decoded bus hands out the same ids and keeps the name index.
        let decoded: Scribe = SnapReader::new(&bytes).get().expect("decode");
        for (&id, name) in ids.iter().zip(["job_9_input", "job_10_input", "a"]) {
            assert_eq!(decoded.category_id(name), Some(id));
            assert_eq!(decoded.name(id), Some(name));
        }
        let decoded_names: Vec<&str> = decoded.categories().map(|(_, name, _)| name).collect();
        assert_eq!(decoded_names, names);
        assert_eq!(decoded.tail_offset("job_9_input", p(1)), Ok(5));
        let mut again = SnapWriter::new();
        again.put(&decoded);
        assert!(again.into_bytes() == bytes, "decode lost something");
    }

    #[test]
    fn a_stream_that_repeats_a_name_is_refused() {
        use turbine_types::{SnapError, SnapReader, SnapWriter};
        let mut bus = Scribe::new();
        bus.create_category("b", 1).expect("create");
        let body = &bus.categories[0];
        let mut w = SnapWriter::new();
        w.u64(3);
        for name in ["b", "a", "b"] {
            w.put(&name.to_string());
            w.put(body);
        }
        let bytes = w.into_bytes();
        assert_eq!(
            SnapReader::new(&bytes).get::<Scribe>().err(),
            Some(SnapError::Value("Scribe category name repeated"))
        );
    }

    #[test]
    fn last_append_time_is_monotonic() {
        let mut bus = Scribe::new();
        bus.create_category("c", 1).expect("create");
        let later = SimTime::from_millis(5000);
        bus.append_bytes("c", p(0), 1, later).expect("append");
        bus.append_bytes("c", p(0), 1, SimTime::ZERO)
            .expect("append");
        assert_eq!(bus.stats("c").expect("stats").last_append_at, later);
    }
}
