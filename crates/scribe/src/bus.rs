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

/// One category (topic) with a fixed number of partitions: each
/// partition's total bytes ever appended (its tail offset), and their sum.
#[derive(Debug)]
struct Category {
    partitions: Vec<u64>,
    /// Total bytes appended across partitions, for rate accounting.
    total_appended: u64,
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

    /// Create a category with `partitions` partitions; returns its id.
    pub fn create_category(
        &mut self,
        name: &str,
        partitions: u32,
    ) -> Result<CategoryId, ScribeError> {
        assert!(partitions > 0, "a category needs at least one partition");
        let Err(at) = self.find(name) else {
            return Err(ScribeError::CategoryExists(name.to_string()));
        };
        let id = CategoryId(u32::try_from(self.categories.len()).expect("under 2^32 categories"));
        self.categories.push(Category {
            partitions: vec![0; partitions as usize],
            total_appended: 0,
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

    /// Append `bytes` of traffic to a partition. `_at`, the append's
    /// simulated time, is read by nothing; the benchmark harness still
    /// passes it.
    pub fn append_bytes(
        &mut self,
        category: &str,
        partition: PartitionId,
        bytes: u64,
        _at: SimTime,
    ) -> Result<(), ScribeError> {
        let (cat, idx) = self.partition_mut(category, partition)?;
        cat.partitions[idx] += bytes;
        cat.total_appended += bytes;
        Ok(())
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
        let tail = &mut cat.partitions[idx];
        if new_tail >= *tail {
            return Ok(0);
        }
        let lost = *tail - new_tail;
        *tail = new_tail;
        cat.total_appended -= lost;
        Ok(lost)
    }

    /// Batched per-category backlog: the bytes between each cursor and its
    /// partition's tail — per-partition `total_bytes_lagged` in the paper's
    /// Eq. 1 — summed across many partitions of the category `id` names,
    /// with no name search. `cursors` supplies each partition's read offset
    /// in the order the caller wants them evaluated; partitions the category
    /// does not have (yet) contribute nothing, matching the per-stream path
    /// that skips partitions Scribe has never seen. The first beyond-tail
    /// cursor aborts the sum, tagged with its partition. Panics on an id
    /// this bus did not hand out.
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
            let tail = cat.partitions[idx];
            if from_offset > tail {
                return Err((
                    partition,
                    ScribeError::OffsetBeyondTail {
                        requested: from_offset,
                        tail,
                    },
                ));
            }
            total += tail - from_offset;
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
        self.categories[id.index()].partitions.iter().copied()
    }

    /// Every category with its id and total bytes appended, in name order.
    pub fn categories(&self) -> impl Iterator<Item = (CategoryId, &str, u64)> {
        self.by_name.iter().map(|&id| {
            (
                id,
                self.names[id.index()].as_str(),
                self.categories[id.index()].total_appended,
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
    /// [`Scribe::append_bytes`] would. A partition the category does not
    /// have takes nothing and reads a tail of 0. The durable-sync pass's one
    /// access per partition.
    pub fn append_then_tail(&mut self, index: usize, bytes: u64) -> u64 {
        let Some(tail) = self.cat.partitions.get_mut(index) else {
            return 0;
        };
        *tail += bytes;
        self.cat.total_appended += bytes;
        *tail
    }
}

/// The one bounds check between a wire-supplied [`PartitionId`] and an
/// index into a category's partition vector. `usize::try_from` (rather
/// than `as usize`) keeps the check exact on 32-bit targets, where a
/// corrupt 64-bit id could otherwise truncate into a valid-looking index.
fn partition_index(
    category: &str,
    partitions: &[u64],
    partition: PartitionId,
) -> Result<usize, ScribeError> {
    usize::try_from(partition.raw())
        .ok()
        .filter(|&idx| idx < partitions.len())
        .ok_or_else(|| ScribeError::UnknownPartition(category.to_string(), partition))
}

turbine_types::snap_struct!(CategoryId(index));

turbine_types::snap_struct!(Category { partitions, total_appended }
    check |c| c.partitions.iter().try_fold(0u64, |sum, &tail| sum.checked_add(tail)) == Some(c.total_appended)
        => "Scribe category total is not the sum of its partitions");

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
    use turbine_types::{SnapError, SnapReader, SnapWriter};

    fn p(i: u64) -> PartitionId {
        PartitionId(i)
    }

    #[test]
    fn create_and_append_tracks_offsets() {
        let mut bus = Scribe::new();
        let id = bus.create_category("events", 4).expect("create");
        bus.append_bytes("events", p(0), 100, SimTime::ZERO)
            .expect("append");
        bus.append_bytes("events", p(0), 50, SimTime::ZERO)
            .expect("append");
        bus.append_bytes("events", p(1), 7, SimTime::ZERO)
            .expect("append");
        assert_eq!(bus.tails(id).collect::<Vec<_>>(), [150, 7, 0, 0]);
        assert_eq!(bus.categories[id.index()].total_appended, 157);
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
        let id = bus
            .create_category("clicks", 1)
            .expect("fresh bus must accept a new category");
        for _ in 0..2 {
            bus.append_bytes("clicks", p(0), 4, SimTime::ZERO)
                .expect("append to an existing partition must succeed");
        }
        assert_eq!(bus.tails(id).collect::<Vec<_>>(), [8]);
        // Torn tail: the last record was half-written and dropped.
        assert_eq!(
            bus.salvage_tail("clicks", p(0), 4)
                .expect("salvage of an existing partition must succeed"),
            4
        );
        assert_eq!(bus.tails(id).collect::<Vec<_>>(), [4]);
        assert_eq!(bus.categories[id.index()].total_appended, 4);
        // A reader checkpointed at 8 now reads beyond the tail.
        assert_eq!(
            bus.backlog(id, [(p(0), 8)]),
            Err((
                p(0),
                ScribeError::OffsetBeyondTail {
                    requested: 8,
                    tail: 4
                }
            ))
        );
        // Salvage at/above the tail is a no-op.
        assert_eq!(
            bus.salvage_tail("clicks", p(0), 9)
                .expect("salvage of an existing partition must succeed"),
            0
        );
        assert_eq!(bus.tails(id).collect::<Vec<_>>(), [4]);
    }

    #[test]
    fn bytes_available_is_backlog() {
        let mut bus = Scribe::new();
        let id = bus.create_category("c", 1).expect("create");
        bus.append_bytes("c", p(0), 1000, SimTime::ZERO)
            .expect("append");
        assert_eq!(bus.backlog(id, [(p(0), 0)]), Ok(1000));
        assert_eq!(bus.backlog(id, [(p(0), 400)]), Ok(600));
        assert_eq!(bus.backlog(id, [(p(0), 1000)]), Ok(0));
        assert!(matches!(
            bus.backlog(id, [(p(0), 1001)]),
            Err((_, ScribeError::OffsetBeyondTail { .. }))
        ));
    }

    #[test]
    fn fast_path_does_not_retain_payloads() {
        // A category is its partitions' append counts and their total:
        // its stream holds nothing else.
        let mut bus = Scribe::new();
        let id = bus.create_category("c", 2).expect("create");
        bus.append_bytes("c", p(1), 5, SimTime::ZERO)
            .expect("append");
        let mut w = SnapWriter::new();
        w.put(&bus.categories[id.index()]);
        let mut expected = SnapWriter::new();
        expected.put(&vec![0u64, 5]);
        expected.u64(5);
        assert!(w.into_bytes() == expected.into_bytes(), "counts only");
    }

    #[test]
    fn category_backlog_matches_per_partition_sum() {
        let mut bus = Scribe::new();
        bus.create_category("c", 3).expect("create");
        bus.append_bytes("c", p(0), 1000, SimTime::ZERO)
            .expect("append");
        bus.append_bytes("c", p(1), 500, SimTime::ZERO)
            .expect("append");
        let cursors = [(p(0), 50u64), (p(1), 200), (p(2), 0)];
        let expected = 950 + 300;
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
        {
            let mut view = bus.view(id);
            assert_eq!(view.append_then_tail(0, 123), 123);
            assert_eq!(view.append_then_tail(0, 0), 123);
            // A partition the category lacks takes nothing and reads 0.
            assert_eq!(view.append_then_tail(5, 1), 0);
            assert_eq!(view.total_appended(), 123);
        }
        assert_eq!(bus.tails(id).collect::<Vec<_>>(), [123, 0]);
        assert_eq!(bus.categories[id.index()].total_appended, 123);
        assert_eq!(bus.category_id("nope"), None);
    }

    #[test]
    fn ids_follow_creation_and_survive_a_decode() {
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
        assert_eq!(decoded.tails(ids[0]).collect::<Vec<_>>(), [0, 5]);
        let mut again = SnapWriter::new();
        again.put(&decoded);
        assert!(again.into_bytes() == bytes, "decode lost something");
    }

    #[test]
    fn a_stream_that_repeats_a_name_is_refused() {
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
    fn a_category_whose_total_is_not_its_partitions_sum_is_refused() {
        // The total is the rate series' input and the durable-sync pass's
        // change detector, so a blob that disagrees with its own counts
        // (short, long, or a sum that wraps u64) is a typed error.
        for (partitions, total) in [
            (vec![3u64, 4], 6u64),
            (vec![3, 4], 8),
            (vec![u64::MAX, 2], 1),
        ] {
            let mut w = SnapWriter::new();
            w.u64(1);
            w.put(&"c".to_string());
            w.put(&partitions);
            w.u64(total);
            let bytes = w.into_bytes();
            assert_eq!(
                SnapReader::new(&bytes).get::<Scribe>().err(),
                Some(SnapError::Value(
                    "Scribe category total is not the sum of its partitions"
                )),
                "{partitions:?} with total {total}"
            );
        }
    }
}
