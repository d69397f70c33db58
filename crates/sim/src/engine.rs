//! A minimal, reusable discrete-event simulation driver.
//!
//! Concrete simulations (the FlowCon worker-node model, the cluster model)
//! implement [`Simulation`]; the engine owns the clock and the event queue
//! and repeatedly dispatches the earliest event.  Handlers receive a
//! [`Scheduler`] so they can enqueue follow-up events but cannot rewind the
//! clock.

use std::marker::PhantomData;

use crate::event::EventQueue;
use crate::time::SimTime;
use crate::trace::{NoopTracer, TraceKind, Tracer};

/// Why an engine run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time horizon passed; later events remain pending.
    HorizonReached,
    /// The event budget was exhausted (run-away protection).
    EventBudgetExhausted,
    /// A handler requested an early stop.
    Stopped,
}

/// Handle through which event handlers schedule new events.
///
/// Also carries the run's [`Tracer`], so handlers can record structured
/// trace events without the simulation type itself being generic over
/// the tracer.  The default is [`NoopTracer`], which compiles every
/// instrumentation site away.
pub struct Scheduler<'a, E, T: Tracer = NoopTracer> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop: &'a mut bool,
    tracer: &'a mut T,
    _event: PhantomData<fn(E)>,
}

impl<'a, E, T: Tracer> Scheduler<'a, E, T> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's tracer, for handler-side instrumentation.
    pub fn tracer(&mut self) -> &mut T {
        self.tracer
    }

    /// Schedule an event at an absolute time.
    ///
    /// Panics if `when` lies in the past — causality must hold.
    pub fn at(&mut self, when: SimTime, event: E) {
        assert!(
            when >= self.now,
            "cannot schedule into the past: now={}, when={}",
            self.now,
            when
        );
        self.queue.schedule(when, event);
    }

    /// Schedule an event `delay` after now.
    pub fn after(&mut self, delay: crate::time::SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Request that the engine stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// A discrete-event simulation: state plus an event handler.
pub trait Simulation {
    /// The event payload type.
    type Event;

    /// Handle one event at its firing time.
    ///
    /// Generic over the run's [`Tracer`] (monomorphized, so the untraced
    /// instantiation is byte-for-byte the pre-tracing loop).
    fn handle<T: Tracer>(&mut self, event: Self::Event, sched: &mut Scheduler<'_, Self::Event, T>);
}

/// The engine: clock + queue + dispatch loop.
pub struct SimEngine<S: Simulation> {
    queue: EventQueue<S::Event>,
    now: SimTime,
    events_processed: u64,
    /// Run-away guard: an experiment on this scale should never need more.
    max_events: u64,
    _sim: PhantomData<fn(&mut S)>,
}

impl<S: Simulation> Default for SimEngine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Simulation> SimEngine<S> {
    /// A fresh engine at t=0 with the default event budget.
    pub fn new() -> Self {
        Self::from_queue(EventQueue::new())
    }

    /// A fresh engine at t=0 reusing `queue`'s allocation.
    ///
    /// The queue is cleared of any pending events; only its capacity (and
    /// its monotone sequence counter, which preserves FIFO tie-breaking) is
    /// carried over.  Callers that drive many short simulations back to
    /// back — the sharded cluster executor runs hundreds per shard — thread
    /// one queue through [`SimEngine::into_queue`] so the event heap is
    /// allocated once per shard instead of once per simulation.
    pub fn from_queue(mut queue: EventQueue<S::Event>) -> Self {
        queue.clear();
        SimEngine {
            queue,
            now: SimTime::ZERO,
            events_processed: 0,
            max_events: 50_000_000,
            _sim: PhantomData,
        }
    }

    /// Tear down the engine, handing back the event queue for reuse by a
    /// later [`SimEngine::from_queue`].
    pub fn into_queue(self) -> EventQueue<S::Event> {
        self.queue
    }

    /// Override the run-away event budget.
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedule an initial event before running.
    pub fn prime(&mut self, when: SimTime, event: S::Event) {
        self.queue.schedule(when, event);
    }

    /// Run until the queue drains, the horizon passes, or budget runs out.
    pub fn run_until(&mut self, sim: &mut S, horizon: SimTime) -> RunOutcome {
        self.run_until_traced(sim, horizon, &mut NoopTracer)
    }

    /// [`run_until`](SimEngine::run_until) with an explicit [`Tracer`].
    ///
    /// When the tracer is enabled, each dispatch records an
    /// [`EngineAdvance`](TraceKind::EngineAdvance) span over every
    /// non-zero clock jump plus an
    /// [`EngineEvent`](TraceKind::EngineEvent) instant; handlers see the
    /// same tracer through [`Scheduler::tracer`].  With [`NoopTracer`]
    /// this is exactly the untraced loop.
    pub fn run_until_traced<T: Tracer>(
        &mut self,
        sim: &mut S,
        horizon: SimTime,
        tracer: &mut T,
    ) -> RunOutcome {
        let mut stop = false;
        loop {
            if self.events_processed >= self.max_events {
                // Budget exhaustion only reports when a dispatchable event
                // is actually pending (drain/horizon outcomes win otherwise).
                return match self.queue.peek_time() {
                    None => RunOutcome::Drained,
                    Some(next) if next > horizon => RunOutcome::HorizonReached,
                    Some(_) => RunOutcome::EventBudgetExhausted,
                };
            }
            // Fused peek/pop: one heap operation per dispatched event.
            let Some((when, event)) = self.queue.pop_if_at_or_before(horizon) else {
                return if self.queue.is_empty() {
                    RunOutcome::Drained
                } else {
                    RunOutcome::HorizonReached
                };
            };
            debug_assert!(when >= self.now, "event queue yielded a past event");
            if T::ENABLED {
                if when > self.now {
                    tracer.span_begin(self.now, TraceKind::EngineAdvance, 0, 0);
                    tracer.span_end(when, TraceKind::EngineAdvance, 0, 0);
                }
                tracer.instant(
                    when,
                    TraceKind::EngineEvent,
                    self.events_processed as u32,
                    0,
                );
            }
            self.now = when;
            self.events_processed += 1;
            let mut sched = Scheduler {
                now: self.now,
                queue: &mut self.queue,
                stop: &mut stop,
                tracer,
                _event: PhantomData,
            };
            sim.handle(event, &mut sched);
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }

    /// Run until no events remain (or budget runs out).
    pub fn run_to_completion(&mut self, sim: &mut S) -> RunOutcome {
        self.run_until(sim, SimTime::MAX)
    }

    /// [`run_to_completion`](SimEngine::run_to_completion) with an
    /// explicit [`Tracer`].
    pub fn run_to_completion_traced<T: Tracer>(
        &mut self,
        sim: &mut S,
        tracer: &mut T,
    ) -> RunOutcome {
        self.run_until_traced(sim, SimTime::MAX, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A toy simulation: a counter that reschedules itself `n` times.
    struct Ticker {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    enum TickEvent {
        Tick,
    }

    impl Simulation for Ticker {
        type Event = TickEvent;
        fn handle<T: Tracer>(&mut self, _ev: TickEvent, sched: &mut Scheduler<'_, TickEvent, T>) {
            self.fired_at.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.after(SimDuration::from_secs(10), TickEvent::Tick);
            }
        }
    }

    #[test]
    fn self_rescheduling_chain_runs_to_completion() {
        let mut sim = Ticker {
            remaining: 3,
            fired_at: vec![],
        };
        let mut engine = SimEngine::new();
        engine.prime(SimTime::ZERO, TickEvent::Tick);
        let outcome = engine.run_to_completion(&mut sim);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(
            sim.fired_at,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                SimTime::from_secs(30)
            ]
        );
        assert_eq!(engine.events_processed(), 4);
    }

    #[test]
    fn horizon_stops_early() {
        let mut sim = Ticker {
            remaining: 100,
            fired_at: vec![],
        };
        let mut engine = SimEngine::new();
        engine.prime(SimTime::ZERO, TickEvent::Tick);
        let outcome = engine.run_until(&mut sim, SimTime::from_secs(25));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.fired_at.len(), 3); // t=0, 10, 20
        assert_eq!(engine.now(), SimTime::from_secs(20));
    }

    #[test]
    fn event_budget_guards_runaway() {
        let mut sim = Ticker {
            remaining: u32::MAX,
            fired_at: vec![],
        };
        let mut engine = SimEngine::new().with_max_events(5);
        engine.prime(SimTime::ZERO, TickEvent::Tick);
        let outcome = engine.run_to_completion(&mut sim);
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
        assert_eq!(engine.events_processed(), 5);
    }

    #[test]
    fn recycled_queue_reproduces_fresh_run() {
        let run = |engine: &mut SimEngine<Ticker>| {
            let mut sim = Ticker {
                remaining: 3,
                fired_at: vec![],
            };
            engine.prime(SimTime::ZERO, TickEvent::Tick);
            engine.run_to_completion(&mut sim);
            (engine.events_processed(), sim.fired_at)
        };
        let mut fresh = SimEngine::new();
        let fresh_out = run(&mut fresh);
        // Recycle through a queue that still holds stale pending events:
        // from_queue must clear them.
        let mut dirty = EventQueue::new();
        dirty.schedule(SimTime::from_secs(999), TickEvent::Tick);
        let mut recycled = SimEngine::from_queue(dirty);
        let recycled_out = run(&mut recycled);
        assert_eq!(fresh_out, recycled_out);
        assert!(recycled.into_queue().is_empty());
    }

    struct Stopper;
    impl Simulation for Stopper {
        type Event = u8;
        fn handle<T: Tracer>(&mut self, _ev: u8, sched: &mut Scheduler<'_, u8, T>) {
            sched.stop();
        }
    }

    #[test]
    fn handler_can_stop_engine() {
        let mut sim = Stopper;
        let mut engine = SimEngine::new();
        engine.prime(SimTime::ZERO, 0);
        engine.prime(SimTime::from_secs(1), 1);
        assert_eq!(engine.run_to_completion(&mut sim), RunOutcome::Stopped);
        assert_eq!(engine.events_processed(), 1);
    }

    #[test]
    fn traced_run_records_advances_and_dispatches() {
        use crate::trace::{FlightRecorder, TraceEvent, TracePhase};
        let mut sim = Ticker {
            remaining: 2,
            fired_at: vec![],
        };
        let mut engine = SimEngine::new();
        engine.prime(SimTime::ZERO, TickEvent::Tick);
        let mut rec = FlightRecorder::with_capacity(64);
        let outcome = engine.run_to_completion_traced(&mut sim, &mut rec);
        assert_eq!(outcome, RunOutcome::Drained);
        let evs = rec.events();
        // 3 dispatches (t=0,10,20): one EngineEvent each, and an
        // EngineAdvance Begin/End pair for each non-zero clock jump.
        let dispatches: Vec<&TraceEvent> = evs
            .iter()
            .filter(|e| e.kind == TraceKind::EngineEvent)
            .collect();
        assert_eq!(dispatches.len(), 3);
        assert_eq!(dispatches[0].at, SimTime::ZERO);
        assert_eq!(dispatches[2].at, SimTime::from_secs(20));
        let advances: Vec<&TraceEvent> = evs
            .iter()
            .filter(|e| e.kind == TraceKind::EngineAdvance)
            .collect();
        assert_eq!(advances.len(), 4); // two jumps × (Begin, End)
        assert_eq!(advances[0].phase, TracePhase::Begin);
        assert_eq!(advances[1].phase, TracePhase::End);
        assert_eq!(advances[1].at, SimTime::from_secs(10));
        assert_eq!(rec.dropped(), 0);

        // The traced run with a noop tracer is the plain run.
        let mut sim2 = Ticker {
            remaining: 2,
            fired_at: vec![],
        };
        let mut engine2 = SimEngine::new();
        engine2.prime(SimTime::ZERO, TickEvent::Tick);
        engine2.run_until_traced(&mut sim2, SimTime::MAX, &mut NoopTracer);
        assert_eq!(sim.fired_at, sim2.fired_at);
    }
}
