//! Property tests for the message bus: offset arithmetic stays consistent
//! under arbitrary append/commit interleavings.

use proptest::prelude::*;
use turbine_scribe::{CheckpointStore, Scribe};
use turbine_types::{JobId, PartitionId, SimTime};

#[derive(Debug, Clone)]
enum Op {
    Append { partition: u64, bytes: u64 },
    Commit { partition: u64, delta: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..4, 1u64..10_000).prop_map(|(partition, bytes)| Op::Append { partition, bytes }),
            (0u64..4, 0u64..2_000).prop_map(|(partition, delta)| Op::Commit { partition, delta }),
        ],
        0..80,
    )
}

proptest! {
    /// Tail offsets are monotone; the backlog never exceeds the tail;
    /// checkpoints never pass the tail and never regress.
    #[test]
    fn offset_arithmetic_is_consistent(ops in arb_ops()) {
        let mut bus = Scribe::new();
        let id = bus.create_category("c", 4).expect("create");
        let mut checkpoints = CheckpointStore::new();
        let job = JobId(1);
        let mut last_tail = [0u64; 4];

        for op in ops {
            match op {
                Op::Append { partition, bytes } => {
                    bus.append_bytes("c", PartitionId(partition), bytes, SimTime::ZERO)
                        .expect("append");
                }
                Op::Commit { partition, delta } => {
                    let p = PartitionId(partition);
                    let tail = bus.tails(id).nth(partition as usize).expect("tail");
                    let next = (checkpoints.get(job, p) + delta).min(tail);
                    checkpoints.commit(job, p, next);
                }
            }
            for (i, tail) in bus.tails(id).enumerate() {
                let p = PartitionId(i as u64);
                prop_assert!(tail >= last_tail[i], "tail must be monotone");
                last_tail[i] = tail;
                // A reader at its checkpoint sees a backlog bounded by the
                // tail, and reading at the tail sees nothing.
                let cp = checkpoints.get(job, p);
                prop_assert!(cp <= tail);
                let available = bus.backlog(id, [(p, cp)]).expect("available");
                prop_assert!(available <= tail);
                prop_assert_eq!(bus.backlog(id, [(p, tail)]).expect("at tail"), 0);
            }
        }
    }
}
