//! The discrete-event priority queue.
//!
//! Events are ordered by their timestamp; events scheduled for the same
//! instant pop in FIFO order of scheduling (a monotone sequence number breaks
//! ties), so simulations are fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the queue: `(when, seq)` keys a payload.
struct Entry<E> {
    when: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.when == other.when && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is on top.
        other
            .when
            .cmp(&self.when)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedule `payload` to fire at `when`.
    pub fn schedule(&mut self, when: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Entry { when, seq, payload });
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.when)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.when, e.payload))
    }

    /// Remove and return the earliest event **iff** it fires at or before
    /// `horizon` — the engine's fused peek/pop fast path.
    ///
    /// A dispatch loop built on `peek_time` + `pop` touches the heap twice
    /// per event; this does one sift-down via [`std::collections::binary_heap::PeekMut`],
    /// and costs only an O(1) root inspection when the next event lies
    /// beyond the horizon.
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let entry = self.heap.peek_mut()?;
        if entry.when > horizon {
            return None;
        }
        let e = std::collections::binary_heap::PeekMut::pop(entry);
        Some((e.when, e.payload))
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for run-away diagnostics).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        q.schedule(SimTime::from_secs(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(4));
    }

    #[test]
    fn pop_if_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(4), "later");
        q.schedule(SimTime::from_secs(1), "soon");
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), "soon"))
        );
        // Next event is beyond the horizon: nothing popped, queue intact.
        assert_eq!(q.pop_if_at_or_before(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(4)),
            Some((SimTime::from_secs(4), "later"))
        );
        assert_eq!(q.pop_if_at_or_before(SimTime::MAX), None, "empty queue");
    }

    #[test]
    fn pop_if_at_or_before_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..5 {
            q.schedule(t, i);
        }
        let order: Vec<i32> =
            std::iter::from_fn(|| q.pop_if_at_or_before(t).map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        // scheduled_total is a lifetime counter, unaffected by clear.
        assert_eq!(q.scheduled_total(), 2);
    }
}
