//! A wall-clock [`Tracer`]: host time per span kind, event counts per
//! kind.
//!
//! The program's tracer hooks stamp simulated time only.  This tracer
//! ignores those stamps and reads the host clock when a timed span opens
//! or closes, so the benchmark can attribute host time to the layers the
//! program already marks, without changing a program file.  It is never
//! used for outcomes: the traced run's outcome digest must equal the
//! untraced one.

use std::time::Instant;

use flowcon_sim::trace::{TraceEvent, TraceKind, TracePhase, Tracer};

const KINDS: usize = TraceKind::ALL.len();

/// Span kinds whose host duration is measured.  The others are left out
/// on purpose: `JobRun` spans are simulated job lifetimes that cross
/// barriers and shards, and `EngineAdvance` spans open and close at the
/// same host instant.
fn is_timed(kind: TraceKind) -> bool {
    matches!(kind, TraceKind::SchedBarrier | TraceKind::Reconfigure)
}

/// Durations of this kind are also kept one by one for percentiles.
const SAMPLED: TraceKind = TraceKind::SchedBarrier;

#[derive(Debug, Clone, Copy, Default)]
struct SpanAcc {
    /// Completed outermost spans.
    count: u64,
    /// Host nanoseconds inside completed outermost spans.
    total_ns: u64,
    /// Open spans of this kind (nesting depth).
    depth: u32,
    /// Host time the outermost open span began.
    open_at: u64,
}

/// Sums host nanoseconds per timed span kind and counts every event per
/// kind.  A nested span of the same kind is folded into its outermost
/// span; an end without a matching begin is counted and otherwise
/// ignored.
#[derive(Debug, Clone)]
pub struct WallTracer {
    epoch: Instant,
    spans: [SpanAcc; KINDS],
    events: [u64; KINDS],
    unmatched_ends: u64,
    sampled_ns: Vec<u64>,
}

impl WallTracer {
    pub fn new() -> Self {
        WallTracer {
            epoch: Instant::now(),
            spans: [SpanAcc::default(); KINDS],
            events: [0; KINDS],
            unmatched_ends: 0,
            sampled_ns: Vec::new(),
        }
    }

    /// Account one event observed at host time `now_ns` (nanoseconds
    /// since this tracer family's epoch; only read for timed kinds).
    fn observe(&mut self, event: &TraceEvent, now_ns: u64) {
        let k = event.kind as usize;
        self.events[k] += 1;
        if !is_timed(event.kind) {
            return;
        }
        let acc = &mut self.spans[k];
        match event.phase {
            TracePhase::Begin => {
                if acc.depth == 0 {
                    acc.open_at = now_ns;
                }
                acc.depth += 1;
            }
            TracePhase::End if acc.depth == 0 => self.unmatched_ends += 1,
            TracePhase::End => {
                acc.depth -= 1;
                if acc.depth == 0 {
                    let d = now_ns.saturating_sub(acc.open_at);
                    acc.count += 1;
                    acc.total_ns += d;
                    if event.kind == SAMPLED {
                        self.sampled_ns.push(d);
                    }
                }
            }
            TracePhase::Instant | TracePhase::Counter => {}
        }
    }

    /// Completed outermost spans of `kind`.
    pub fn spans(&self, kind: TraceKind) -> u64 {
        self.spans[kind as usize].count
    }

    /// Host seconds inside completed spans of `kind`.
    pub fn span_secs(&self, kind: TraceKind) -> f64 {
        self.spans[kind as usize].total_ns as f64 * 1e-9
    }

    /// Events of `kind` of any phase (a `Waterfill` counter event is one
    /// water-filling pass; an `EngineEvent` instant is one dispatched
    /// event).
    pub fn events(&self, kind: TraceKind) -> u64 {
        self.events[kind as usize]
    }

    /// Ends seen with no open span of their kind.
    pub fn unmatched_ends(&self) -> u64 {
        self.unmatched_ends
    }

    /// Spans still open.
    pub fn open_spans(&self) -> u64 {
        self.spans.iter().map(|s| u64::from(s.depth)).sum()
    }

    /// Host nanoseconds of each completed `SchedBarrier` span, in
    /// completion order.
    pub fn barrier_ns(&self) -> &[u64] {
        &self.sampled_ns
    }
}

impl Default for WallTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer for WallTracer {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        let now_ns = if is_timed(event.kind) {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        };
        self.observe(&event, now_ns);
    }

    /// An empty tracer sharing this one's epoch, so host stamps taken on
    /// another thread stay comparable.
    fn fork(&self) -> Self {
        WallTracer {
            epoch: self.epoch,
            ..WallTracer::new()
        }
    }

    /// Add `other`'s completed spans and counts to `self` and clear them
    /// in `other`.  A span still open in `other` stays open there, so it
    /// is accounted when it closes and `other` is absorbed again.
    fn absorb(&mut self, other: &mut Self) {
        for (mine, theirs) in self.spans.iter_mut().zip(other.spans.iter_mut()) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            theirs.count = 0;
            theirs.total_ns = 0;
        }
        for (mine, theirs) in self.events.iter_mut().zip(other.events.iter_mut()) {
            *mine += std::mem::take(theirs);
        }
        self.unmatched_ends += std::mem::take(&mut other.unmatched_ends);
        self.sampled_ns.append(&mut other.sampled_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcon_sim::time::SimTime;

    fn ev(kind: TraceKind, phase: TracePhase) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            phase,
            kind,
            a: 0,
            b: 0,
            value: 0.0,
        }
    }

    /// Host nanoseconds inside spans of `kind`, rounded.
    fn ns(t: &WallTracer, kind: TraceKind) -> u64 {
        (t.span_secs(kind) * 1e9).round() as u64
    }

    /// Replay `(kind, phase, host ns)` fixtures into `t`.
    fn feed(t: &mut WallTracer, fixture: &[(TraceKind, TracePhase, u64)]) {
        for &(kind, phase, at) in fixture {
            t.observe(&ev(kind, phase), at);
        }
    }

    use TraceKind::{Reconfigure as R, SchedBarrier as B, Waterfill as W};
    use TracePhase::{Begin, Counter, End};

    #[test]
    fn spans_sum_and_kinds_nest_independently() {
        let mut t = WallTracer::new();
        feed(
            &mut t,
            &[
                (B, Begin, 100),
                (R, Begin, 120),
                (W, Counter, 125),
                (R, End, 150),
                (R, Begin, 160),
                (R, End, 170),
                (B, End, 300),
                (B, Begin, 1_000),
                (B, End, 1_050),
            ],
        );
        assert_eq!(t.spans(B), 2);
        assert_eq!(ns(&t, B), 250);
        assert_eq!(t.barrier_ns(), &[200, 50]);
        assert_eq!(t.spans(R), 2);
        assert_eq!(ns(&t, R), 40);
        assert_eq!(t.events(W), 1);
        assert_eq!(t.events(B), 4);
        assert_eq!((t.unmatched_ends(), t.open_spans()), (0, 0));
    }

    #[test]
    fn same_kind_nesting_counts_the_outermost_span_once() {
        let mut t = WallTracer::new();
        feed(
            &mut t,
            &[(R, Begin, 10), (R, Begin, 20), (R, End, 30), (R, End, 70)],
        );
        assert_eq!(t.spans(R), 1);
        assert_eq!(ns(&t, R), 60);
    }

    #[test]
    fn an_unmatched_end_is_counted_not_timed() {
        let mut t = WallTracer::new();
        feed(
            &mut t,
            &[(B, End, 50), (B, Begin, 60), (B, End, 90), (B, End, 95)],
        );
        assert_eq!(t.unmatched_ends(), 2);
        assert_eq!(t.spans(B), 1);
        assert_eq!(ns(&t, B), 30);
        assert_eq!(t.barrier_ns(), &[30]);
    }

    #[test]
    fn fork_and_absorb_merge_totals_and_keep_open_spans_in_the_fork() {
        let mut parent = WallTracer::new();
        let mut shard = parent.fork();
        assert_eq!(shard.epoch, parent.epoch);
        feed(&mut parent, &[(B, Begin, 0)]);
        feed(
            &mut shard,
            &[
                (R, Begin, 10),
                (R, End, 40),
                (W, Counter, 41),
                (R, Begin, 50),
            ],
        );
        parent.absorb(&mut shard);
        assert_eq!((parent.spans(R), ns(&parent, R)), (1, 30));
        assert_eq!(parent.events(W), 1);
        assert_eq!((shard.spans(R), shard.events(W)), (0, 0));
        // The span left open in the shard closes after the merge and is
        // picked up by the next absorb, not lost or double counted.
        feed(&mut shard, &[(R, End, 80)]);
        feed(&mut parent, &[(B, End, 100)]);
        parent.absorb(&mut shard);
        assert_eq!((parent.spans(R), ns(&parent, R)), (2, 60));
        assert_eq!(parent.events(R), 4);
        assert_eq!(parent.barrier_ns(), &[100]);
        assert_eq!(parent.open_spans() + shard.open_spans(), 0);
    }

    #[test]
    fn forked_barrier_samples_move_to_the_parent_in_order() {
        let mut parent = WallTracer::new();
        let mut a = parent.fork();
        let mut b = parent.fork();
        feed(&mut a, &[(B, Begin, 0), (B, End, 7)]);
        feed(&mut b, &[(B, Begin, 0), (B, End, 9)]);
        parent.absorb(&mut a);
        parent.absorb(&mut b);
        assert_eq!(parent.barrier_ns(), &[7, 9]);
        assert!(a.barrier_ns().is_empty() && b.barrier_ns().is_empty());
    }

    #[test]
    fn record_stamps_the_host_clock_only_for_timed_kinds() {
        let mut t = WallTracer::new();
        t.record(ev(TraceKind::JobRun, Begin));
        t.record(ev(B, Begin));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.record(ev(B, End));
        assert_eq!(t.spans(B), 1);
        assert!(t.span_secs(B) >= 0.002);
        // The job span is counted but never timed.
        assert_eq!(t.events(TraceKind::JobRun), 1);
        assert_eq!(t.spans(TraceKind::JobRun), 0);
    }
}
