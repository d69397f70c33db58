//! A bucket/calendar event queue — the dense-path alternative to
//! [`crate::event::EventQueue`]'s binary heap.
//!
//! A calendar queue (Brown, CACM 1988) hashes events into fixed-width time
//! buckets and drains them by walking a circular "year" of buckets.  For
//! the worker simulations' access pattern — a handful of pending events,
//! scheduled a bounded distance into the future, popped in near-monotone
//! order — schedule and pop are O(1) amortized with no sift-up/sift-down,
//! and the bucket arrays are reused run after run, so a recycled queue
//! performs no steady-state allocation.
//!
//! Ordering is **identical** to `EventQueue`: events pop by `(when, seq)`
//! where `seq` is the monotone schedule order, so ties at one instant are
//! FIFO and a simulation driven off either queue executes the exact same
//! event sequence.  The randomized comparison test at the bottom pins that
//! bit-equality.

use crate::event::DispatchQueue;
use crate::time::SimTime;

/// An entry: `(when, seq)` keys a payload, exactly as in `EventQueue`.
struct Entry<E> {
    when: SimTime,
    seq: u64,
    payload: E,
}

/// Number of buckets in the circular year (power of two).
const BUCKETS: usize = 64;
/// log2 of the bucket width in microseconds: 2^20 µs ≈ 1.05 s, sized so a
/// worker's typical event spacing (policy intervals of tens of seconds,
/// sub-second completion checks) lands within one year of `BUCKETS` buckets.
const WIDTH_SHIFT: u32 = 20;

/// A deterministic min-priority queue of timestamped events, backed by a
/// circular calendar of time buckets plus an overflow list for events
/// beyond the current year.
///
/// Mirrors the [`crate::event::EventQueue`] surface used by dispatch
/// loops (`schedule`, `pop_if_at_or_before`, `len`, `clear`, ...), with
/// one difference: finding the minimum advances an internal cursor, so
/// peeking requires `&mut self` and is folded into
/// [`CalendarQueue::pop_if_at_or_before`].
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<Entry<E>>>,
    /// Next bucket tick (`when >> WIDTH_SHIFT`) the cursor will drain.
    cur_tick: u64,
    /// First tick *not* covered by the current year window; the window is
    /// `[year_end - BUCKETS, year_end)`.
    year_end: u64,
    /// Number of events currently stored in `buckets`.
    in_year: usize,
    /// Events beyond the current year (or behind its base, after a
    /// past-scheduling rebase), redistributed when the year drains.
    overflow: Vec<Entry<E>>,
    /// Scratch buffer reused by [`CalendarQueue::rebase`].
    stash: Vec<Entry<E>>,
    /// Smallest tick present in `overflow` (`u64::MAX` when empty).
    overflow_min_tick: u64,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> std::fmt::Debug for CalendarQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("pending", &self.len())
            .field("next_seq", &self.next_seq)
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
const fn tick_of(when: SimTime) -> u64 {
    when.as_micros() >> WIDTH_SHIFT
}

impl<E> CalendarQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            cur_tick: 0,
            year_end: BUCKETS as u64,
            in_year: 0,
            overflow: Vec::new(),
            stash: Vec::new(),
            overflow_min_tick: u64::MAX,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedule `payload` to fire at `when`.
    pub fn schedule(&mut self, when: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.insert(Entry { when, seq, payload });
    }

    fn insert(&mut self, e: Entry<E>) {
        let tick = tick_of(e.when);
        let base = self.year_end - BUCKETS as u64;
        if tick >= base && tick < self.year_end {
            // In the current year: the cursor may have to rewind for an
            // event scheduled behind it (the engine never does this, but
            // the queue must not silently misorder if a caller does).
            self.cur_tick = self.cur_tick.min(tick);
            self.in_year += 1;
            self.buckets[(tick % BUCKETS as u64) as usize].push(e);
        } else {
            self.overflow_min_tick = self.overflow_min_tick.min(tick);
            self.overflow.push(e);
        }
    }

    /// Rebase the year window to start at `base` and redistribute the
    /// overflow list into it.  O(pending), but only runs when a year
    /// drains (or an event lands behind the window base), so the cost
    /// amortizes over the whole year of O(1) operations.
    fn rebase(&mut self, base: u64) {
        debug_assert!(self.stash.is_empty());
        std::mem::swap(&mut self.overflow, &mut self.stash);
        for bucket in &mut self.buckets {
            self.stash.append(bucket);
        }
        self.in_year = 0;
        self.overflow_min_tick = u64::MAX;
        self.cur_tick = base;
        self.year_end = base.saturating_add(BUCKETS as u64);
        while let Some(e) = self.stash.pop() {
            self.insert(e);
        }
    }

    /// Advance the cursor to the earliest pending event and return its
    /// bucket and in-bucket index, or `None` if the queue is empty.
    fn find_min(&mut self) -> Option<(usize, usize)> {
        loop {
            if self.in_year == 0 {
                if self.overflow.is_empty() {
                    return None;
                }
                self.rebase(self.overflow_min_tick);
                continue;
            }
            if self.overflow_min_tick < self.cur_tick {
                // Something was scheduled behind the window base; rebase
                // so it sorts first.
                self.rebase(self.overflow_min_tick);
                continue;
            }
            debug_assert!(self.cur_tick < self.year_end);
            let b = (self.cur_tick % BUCKETS as u64) as usize;
            let mut best: Option<(usize, SimTime, u64)> = None;
            for (i, e) in self.buckets[b].iter().enumerate() {
                if tick_of(e.when) != self.cur_tick {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, bw, bs)) => (e.when, e.seq) < (bw, bs),
                };
                if better {
                    best = Some((i, e.when, e.seq));
                }
            }
            if let Some((i, _, _)) = best {
                return Some((b, i));
            }
            self.cur_tick += 1;
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (b, i) = self.find_min()?;
        let e = self.buckets[b].swap_remove(i);
        self.in_year -= 1;
        Some((e.when, e.payload))
    }

    /// Remove and return the earliest event **iff** it fires at or before
    /// `horizon` — the dispatch loop's fused peek/pop, mirroring
    /// `EventQueue::pop_if_at_or_before`.
    pub fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (b, i) = self.find_min()?;
        if self.buckets[b][i].when > horizon {
            return None;
        }
        let e = self.buckets[b].swap_remove(i);
        self.in_year -= 1;
        Some((e.when, e.payload))
    }

    /// Timestamp of the next event without removing it (advances the
    /// internal cursor, hence `&mut`).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let (b, i) = self.find_min()?;
        Some(self.buckets[b][i].when)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.in_year + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (for run-away diagnostics).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drop every pending event, keeping bucket capacity and the sequence
    /// counter (like `EventQueue::clear`), so a recycled queue stays warm.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.overflow.clear();
        self.stash.clear();
        self.overflow_min_tick = u64::MAX;
        self.in_year = 0;
        self.cur_tick = 0;
        self.year_end = BUCKETS as u64;
    }
}

impl<E> DispatchQueue<E> for CalendarQueue<E> {
    fn schedule(&mut self, when: SimTime, payload: E) {
        CalendarQueue::schedule(self, when, payload);
    }
    fn pop_if_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        CalendarQueue::pop_if_at_or_before(self, horizon)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        CalendarQueue::peek_time(self)
    }
    fn is_empty(&self) -> bool {
        CalendarQueue::is_empty(self)
    }
    fn clear(&mut self) {
        CalendarQueue::clear(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(5), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = CalendarQueue::new();
        // Hours and days out — way beyond one 64-bucket year.
        q.schedule(SimTime::from_secs(86_400), "day");
        q.schedule(SimTime::from_secs(3_600), "hour");
        q.schedule(SimTime::from_secs(1), "second");
        q.schedule(SimTime::MAX, "horizon");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("hour"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("day"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("horizon"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_if_at_or_before_respects_horizon() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(4), "later");
        q.schedule(SimTime::from_secs(1), "soon");
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), "soon"))
        );
        assert_eq!(q.pop_if_at_or_before(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_secs(4)),
            Some((SimTime::from_secs(4), "later"))
        );
        assert_eq!(q.pop_if_at_or_before(SimTime::MAX), None, "empty queue");
    }

    #[test]
    fn scheduling_behind_the_cursor_still_sorts_first() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_secs(500), "far");
        // Draining toward the far event moves the cursor well past t=1.
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(500)));
        q.schedule(SimTime::from_secs(1), "early");
        assert_eq!(q.pop().map(|(_, e)| e), Some("early"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
    }

    #[test]
    fn clear_keeps_seq_counter_and_capacity() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::from_secs(9_999), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        // FIFO ties keep working across a clear (seq not reset).
        let t = SimTime::from_secs(1);
        q.schedule(t, 10);
        q.schedule(t, 11);
        assert_eq!(q.pop().map(|(_, e)| e), Some(10));
        assert_eq!(q.pop().map(|(_, e)| e), Some(11));
    }

    /// The acceptance-criteria test: under a randomized schedule/pop
    /// workload, the calendar queue is **bit-identical** to the binary
    /// heap — same `(when, payload)` stream, same lengths, same totals.
    #[test]
    fn randomized_bit_identity_with_binary_heap() {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0xCA1E_0000 + seed);
            let mut heap = EventQueue::new();
            let mut cal = CalendarQueue::new();
            let mut now = 0u64;
            for _ in 0..2_000 {
                match rng.below(10) {
                    // Schedule: mostly near-future, sometimes same-instant
                    // (FIFO ties), sometimes far future (overflow), with
                    // microsecond-grain offsets to exercise intra-bucket
                    // ordering.
                    0..=5 => {
                        let offset = match rng.below(4) {
                            0 => 0,
                            1 => rng.below(2_000_000),
                            2 => rng.below(200_000_000),
                            _ => rng.below(100) * 86_400_000_000,
                        };
                        let when = SimTime::from_micros(now + offset);
                        let payload = rng.next_u64();
                        heap.schedule(when, payload);
                        cal.schedule(when, payload);
                    }
                    // Pop unconditionally.
                    6..=8 => {
                        let a = heap.pop();
                        let b = cal.pop();
                        assert_eq!(a, b, "seed {seed}");
                        if let Some((when, _)) = a {
                            now = now.max(when.as_micros());
                        }
                    }
                    // Pop against a horizon.
                    _ => {
                        let horizon = SimTime::from_micros(now + rng.below(50_000_000));
                        let a = heap.pop_if_at_or_before(horizon);
                        let b = cal.pop_if_at_or_before(horizon);
                        assert_eq!(a, b, "seed {seed}");
                        if let Some((when, _)) = a {
                            now = now.max(when.as_micros());
                        }
                    }
                }
                assert_eq!(heap.len(), cal.len(), "seed {seed}");
            }
            // Drain both completely: the tails must match too.
            loop {
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(a, b, "seed {seed} drain");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(heap.scheduled_total(), cal.scheduled_total());
        }
    }
}
