//! The event queue: a time-ordered priority queue with deterministic
//! tie-breaking.
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (FIFO), which makes simulations reproducible regardless of heap
//! internals. Time never goes backwards: scheduling an event before the
//! last popped time is a programming error and panics in debug builds (it
//! is clamped to "now" in release builds, matching how a real control plane
//! would treat a stale timer).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use turbine_types::SimTime;

/// A pending event: ordered by time, then insertion sequence.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Time-ordered event queue driving a simulation run.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// bug; debug builds panic, release builds clamp to `now`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "cannot schedule an event in the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Pop the next event only if it is due at or before `deadline`.
    /// The clock does not advance past `deadline` when nothing is due.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(Reverse(entry)) if entry.at <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// By hand: a heap has no stable iteration order, so entries are written
// sorted by (time, sequence), and each sequence is checked against
// `next_seq` as it is read.
impl<E: turbine_types::Snap> turbine_types::Snap for EventQueue<E> {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.put(&self.now);
        w.u64(self.next_seq);
        // Heap iteration order is arbitrary; emit entries sorted by the
        // queue's own (time, sequence) ordering so equal queues always
        // serialize to equal bytes.
        let mut entries: Vec<&Entry<E>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        w.u64(entries.len() as u64);
        for entry in entries {
            w.put(&entry.at);
            w.u64(entry.seq);
            w.put(&entry.event);
        }
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        let now = r.get()?;
        let next_seq = r.u64("EventQueue.next_seq")?;
        let len = r.len_prefix("EventQueue.entries")?;
        let mut heap = BinaryHeap::with_capacity(r.prealloc::<Reverse<Entry<E>>>(len));
        for _ in 0..len {
            let at = r.get()?;
            let seq = r.u64("EventQueue.entry.seq")?;
            if seq >= next_seq {
                return Err(turbine_types::SnapError::Value(
                    "EventQueue entry seq beyond next_seq",
                ));
            }
            let event = r.get()?;
            heap.push(Reverse(Entry { at, seq, event }));
        }
        Ok(EventQueue {
            heap,
            next_seq,
            now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbine_types::Duration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(s)
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.now(), t(20));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(t(5), label);
        }
        assert_eq!(q.pop().expect("event").1, "first");
        assert_eq!(q.pop().expect("event").1, "second");
        assert_eq!(q.pop().expect("event").1, "third");
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(50), 2);
        assert_eq!(q.pop_until(t(20)), Some((t(10), 1)));
        assert_eq!(q.pop_until(t(20)), None);
        // Clock did not jump to the future event.
        assert_eq!(q.now(), t(10));
        assert_eq!(q.peek_time(), Some(t(50)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
