//! The deterministic event-driven simulation of one worker node.
//!
//! This is the testbed substitute: a single node (capacity 1.0) running
//! containerized DL jobs under a [`ResourcePolicy`].  Between events the
//! node is a fluid processor-sharing system — the node kernel
//! ([`crate::kernel`]) water-fills every container's CPU rate under
//! Docker soft limits and workloads advance linearly — so the simulation
//! only needs events at:
//!
//! * job **arrivals** (from the workload plan, or pulled one ahead from an
//!   open-loop stream),
//! * projected job **completions** (recomputed whenever rates change),
//! * **policy ticks** (the Executor's interval, with back-off/reset),
//! * **sample ticks** (1 s usage/limit traces) and **trace ticks**
//!   (growth-efficiency traces at a fixed interval for Figs. 13–14) —
//!   scheduled only when the run's [`Recorder`] wants them,
//! * injected **failures**.
//!
//! `WorkerSim` is the one driver for every worker mode: recorded and
//! headless sessions, source-fed cluster workers, open-loop streams, and
//! the dense headless entry ([`crate::dense::run_headless_dense`]).  It
//! is monomorphized over its [`Recorder`] and the run's [`Tracer`], so a
//! headless run compiles to its own loop with every recorder and trace
//! hook gone.  Every run is reproducible from `NodeConfig::seed`.
//!
//! `WorkerSim` is internal machinery: workers are built and run through
//! [`crate::session::Session`] or [`crate::dense::run_headless_dense`].

use flowcon_dl::models::ModelSpec;
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_dl::TrainingJob;
use flowcon_metrics::sojourn::SojournStats;
use flowcon_metrics::stream::StreamStats;
use flowcon_sim::engine::{Scheduler, SimEngine, Simulation};
use flowcon_sim::event::EventQueue;
use flowcon_sim::rng::SimRng;
use flowcon_sim::stats::TimeWeighted;
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{TraceKind, Tracer};
use flowcon_workload::stream::{Horizon, JobStream, StreamedJob};

use crate::config::NodeConfig;
use crate::kernel::{Monitor, NodeKernel};
use crate::policy::ResourcePolicy;
use crate::recorder::{Recorder, RunMeta};
use crate::session::{SessionResult, StreamResult};

/// Interval between growth-efficiency trace measurements (Figs. 13–14).
const TRACE_INTERVAL: SimDuration = SimDuration::from_secs(20);

/// Events driving the worker simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WorkerEvent {
    /// The `idx`-th job of the plan arrives.
    Arrival(usize),
    /// The pending open-loop streamed job arrives (handled by the
    /// [`OpenLoopShell`], which owns the stream; exactly one such event is
    /// in flight at a time).
    StreamArrival,
    /// A projected completion; `gen` invalidates stale projections.
    CompletionCheck(u64),
    /// The Executor's periodic tick; `gen` invalidates pre-empted ticks.
    PolicyTick(u64),
    /// 1 Hz usage/limit sampling.
    SampleTick,
    /// Growth-efficiency trace sampling.
    TraceTick,
    /// Fault injection: crash the `idx`-th entry of the failure schedule.
    InjectFailure(usize),
}

/// A scheduled fault: crash the job with `label` at `at` with `exit_code`.
#[derive(Debug, Clone)]
pub struct FailureInjection {
    /// Label of the job to crash.
    pub label: String,
    /// When the crash happens.
    pub at: SimTime,
    /// Exit code the container reports (e.g. 137 for OOM-kill).
    pub exit_code: i32,
}

/// The recycled state of worker simulations: the node kernel's arena and
/// the event heap.
///
/// Everything in here is rebuilt by each run, so only the *capacity*
/// carries meaning between runs.  The sharded cluster executor keeps one
/// scratch per OS thread and recycles it across the hundreds of workers
/// that shard drives, so a steady-state worker run allocates only what
/// its policy and completion records need
/// ([`Session::run_recycling`](crate::session::Session::run_recycling),
/// [`crate::dense::run_headless_dense`]).
#[derive(Debug, Default)]
pub struct WorkerScratch {
    kernel: NodeKernel,
    heap: EventQueue<WorkerEvent>,
}

impl WorkerScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run a plan-driven worker.
    pub(crate) fn run_plan<R: Recorder, T: Tracer>(
        &mut self,
        setup: WorkerSetup<'_, R>,
        tracer: &mut T,
    ) -> SessionResult<R::Output> {
        let sim = WorkerSim::new(setup, &mut self.kernel);
        let (result, heap) = sim.run(std::mem::take(&mut self.heap), tracer);
        self.heap = heap;
        result
    }

    /// Run an open-loop worker fed by `stream` (see
    /// [`Session::run_stream`](crate::session::Session::run_stream)).
    pub(crate) fn run_stream<R: Recorder, J: JobStream, T: Tracer>(
        &mut self,
        setup: WorkerSetup<'_, R>,
        stream: J,
        horizon: Horizon,
        tracer: &mut T,
    ) -> StreamResult<R::Output> {
        let sim = WorkerSim::new(setup, &mut self.kernel);
        let (result, heap) =
            sim.run_stream(stream, horizon, std::mem::take(&mut self.heap), tracer);
        self.heap = heap;
        result
    }
}

/// Where a worker's plan-driven arrivals come from.
pub(crate) enum Plan<'a> {
    /// A session's own plan: each label moves into its container.
    Owned(WorkloadPlan),
    /// A borrowed slice (the headless cluster path): containers carry no
    /// labels, so arrivals allocate nothing.
    Borrowed(&'a [JobRequest]),
}

impl Plan<'_> {
    fn jobs(&self) -> &[JobRequest] {
        match self {
            Plan::Owned(plan) => &plan.jobs,
            Plan::Borrowed(jobs) => jobs,
        }
    }

    /// The `idx`-th job's scaled spec and label.  Each job arrives exactly
    /// once, so an owned plan gives its label up instead of cloning it.
    fn arrive(&mut self, idx: usize) -> (ModelSpec, String) {
        match self {
            Plan::Owned(plan) => {
                let request = &mut plan.jobs[idx];
                (request.scaled_spec(), std::mem::take(&mut request.label))
            }
            Plan::Borrowed(jobs) => (jobs[idx].scaled_spec(), String::new()),
        }
    }
}

/// Everything that defines one worker run besides its recycled scratch.
pub(crate) struct WorkerSetup<'a, R> {
    pub(crate) node: NodeConfig,
    pub(crate) plan: Plan<'a>,
    pub(crate) policy: Box<dyn ResourcePolicy>,
    pub(crate) recorder: R,
    pub(crate) failures: Vec<FailureInjection>,
}

/// One simulated worker node executing arrivals under a policy, observed
/// by a [`Recorder`], over a recycled [`NodeKernel`].
struct WorkerSim<'a, R: Recorder> {
    node: NodeConfig,
    plan: Plan<'a>,
    policy: Box<dyn ResourcePolicy>,
    kernel: &'a mut NodeKernel,
    rng: SimRng,
    recorder: R,
    failures: Vec<FailureInjection>,

    last_advance: SimTime,
    completion_gen: u64,
    tick_gen: u64,
    arrivals_pending: usize,

    // --- steady-state accounting (open-loop metrics; two FMAs per fluid
    // --- advance, no allocation, bit-neutral for plan-driven runs) ---
    /// Σ of the current allocator rates (refreshed by `recompute_rates`).
    rate_sum: f64,
    /// `∫ Σrates · dt` — the utilization numerator.
    busy: TimeWeighted,
    /// `∫ rated containers · dt` — the mean-queue-depth numerator.
    queue: TimeWeighted,
    /// Containers that exited so far (open-loop completion counter).
    exits_total: u64,
    /// Open-loop mode: a streamed arrival is still pending, so the run is
    /// not done even while the pool is empty.
    stream_active: bool,
    /// SLO tails, recorded once per exit (open-loop runs only — the flag
    /// keeps plan-driven runs bit- and allocation-neutral).
    ///
    /// On a single fluid node, first allocation *coincides* with
    /// admission — `admit_job` recomputes rates in the same event, so
    /// every pool member holds a rate immediately — hence the per-job
    /// queue-wait is exactly zero here; queue-wait becomes informative at
    /// the cluster sched layer, where jobs wait for slots.
    slo: SojournStats,
    /// Whether exits feed the [`SojournStats`] sketches (open-loop only).
    slo_enabled: bool,
}

impl<'a, R: Recorder> WorkerSim<'a, R> {
    fn new(setup: WorkerSetup<'a, R>, kernel: &'a mut NodeKernel) -> Self {
        let arrivals_pending = setup.plan.jobs().len();
        // Jobs on a plan-driven worker never exceed the plan size, so
        // pre-sizing the arena makes even the first tick allocation-free.
        kernel.reset(arrivals_pending);
        WorkerSim {
            node: setup.node,
            plan: setup.plan,
            policy: setup.policy,
            kernel,
            rng: SimRng::new(setup.node.seed),
            recorder: setup.recorder,
            failures: setup.failures,
            last_advance: SimTime::ZERO,
            completion_gen: 0,
            tick_gen: 0,
            arrivals_pending,
            rate_sum: 0.0,
            busy: TimeWeighted::new(),
            queue: TimeWeighted::new(),
            exits_total: 0,
            stream_active: false,
            slo: SojournStats::new(),
            slo_enabled: false,
        }
    }

    /// Prime the recorder's sampling chains and the failure schedule.
    fn prime_ticks<S: Simulation<Event = WorkerEvent>>(&self, engine: &mut SimEngine<S>) {
        if R::RECORDS_SAMPLES {
            engine.prime(SimTime::ZERO, WorkerEvent::SampleTick);
        }
        if R::RECORDS_GROWTH {
            engine.prime(SimTime::ZERO + TRACE_INTERVAL, WorkerEvent::TraceTick);
        }
        for (idx, f) in self.failures.iter().enumerate() {
            engine.prime(f.at, WorkerEvent::InjectFailure(idx));
        }
    }

    /// Close the run: the recorder's output and the scheduler overhead.
    fn finish(self) -> (R::Output, f64) {
        let overhead = self.kernel.algorithm_runs() as f64 * self.node.algo_cost_cpu_secs;
        let output = self.recorder.finish(RunMeta {
            policy: self.policy.as_ref(),
            algorithm_runs: self.kernel.algorithm_runs(),
            update_calls: self.kernel.update_calls(),
        });
        (output, overhead)
    }

    /// Run the plan to completion on `queue`, handing the queue back for
    /// the next run.
    ///
    /// Monomorphized over the [`Tracer`]: with the default
    /// [`NoopTracer`](flowcon_sim::trace::NoopTracer) every
    /// instrumentation site compiles away.
    fn run<T: Tracer>(
        self,
        queue: EventQueue<WorkerEvent>,
        tracer: &mut T,
    ) -> (SessionResult<R::Output>, EventQueue<WorkerEvent>) {
        let mut engine: SimEngine<WorkerShell<'a, R>> = SimEngine::from_queue(queue);
        for (idx, job) in self.plan.jobs().iter().enumerate() {
            engine.prime(job.arrival, WorkerEvent::Arrival(idx));
        }
        self.prime_ticks(&mut engine);
        let mut shell = WorkerShell(self);
        engine.run_to_completion_traced(&mut shell, tracer);
        let (output, scheduler_overhead_cpu_secs) = shell.0.finish();
        let result = SessionResult {
            output,
            events_processed: engine.events_processed(),
            scheduler_overhead_cpu_secs,
        };
        (result, engine.into_queue())
    }

    /// Run **open-loop**: admit jobs pulled from `stream` while `horizon`
    /// allows, then drain, handing the queue back for the next run.
    ///
    /// The simulation pulls exactly one job ahead of the clock: the
    /// pending arrival is a scheduled [`WorkerEvent::StreamArrival`]; when
    /// it fires the job is admitted mid-run and the next one is pulled.
    /// No plan is ever materialized.  Jobs admitted before the horizon run
    /// to completion; the run ends when the stream is exhausted (or the
    /// horizon trips) and the pool drains.
    fn run_stream<J: JobStream, T: Tracer>(
        mut self,
        stream: J,
        horizon: Horizon,
        queue: EventQueue<WorkerEvent>,
        tracer: &mut T,
    ) -> (StreamResult<R::Output>, EventQueue<WorkerEvent>) {
        assert!(
            horizon.is_bounded(),
            "an open-loop run needs a horizon (until and/or max jobs) — \
             an unbounded stream would never terminate"
        );
        assert!(
            self.plan.jobs().is_empty(),
            "open-loop sessions take jobs from the stream, not a plan"
        );
        self.slo_enabled = true;
        let mut engine: SimEngine<OpenLoopShell<'a, R, J>> = SimEngine::from_queue(queue);
        self.prime_ticks(&mut engine);
        let mut shell = OpenLoopShell {
            worker: self,
            stream,
            horizon,
            pending: None,
            submitted: 0,
        };
        if let Some(at) = shell.pull_next() {
            engine.prime(at, WorkerEvent::StreamArrival);
        }
        engine.run_to_completion_traced(&mut shell, tracer);
        let OpenLoopShell {
            mut worker,
            submitted,
            ..
        } = shell;
        let duration_secs = engine.now().as_secs_f64();
        let stream_stats = StreamStats {
            submitted,
            completed: worker.exits_total,
            duration_secs,
            busy_cpu_secs: worker.busy.area(),
            queue_job_secs: worker.queue.area(),
            capacity_cpu_secs: worker.node.capacity * duration_secs,
        };
        let tails = std::mem::take(&mut worker.slo);
        let (output, scheduler_overhead_cpu_secs) = worker.finish();
        let result = StreamResult {
            output,
            events_processed: engine.events_processed(),
            scheduler_overhead_cpu_secs,
            stream: stream_stats,
            tails,
        };
        (result, engine.into_queue())
    }

    /// True once every job has arrived (plan *and* stream) and the pool is
    /// empty.
    fn is_done(&self) -> bool {
        self.arrivals_pending == 0 && !self.stream_active && self.kernel.live().is_empty()
    }

    /// Integrate the fluid state from `last_advance` to `now` and reap
    /// the containers that finished on the way (read back through
    /// [`NodeKernel::exited`]).
    fn advance_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance).as_secs_f64();
        self.last_advance = now;
        // Steady-state integrals: rates and pool size are constant between
        // events, so each step contributes one rectangle.
        let rated = self.kernel.rated().0.len();
        self.busy.accumulate(self.rate_sum, dt);
        self.queue.accumulate(rated as f64, dt);
        if dt <= 0.0 || rated == 0 {
            self.kernel.clear_exited();
            return;
        }
        self.kernel.integrate(dt);
        self.kernel.reap_terminated();
    }

    /// Re-water-fill the pool and invalidate the pending completion
    /// projection.
    fn recompute_rates<T: Tracer>(&mut self, tracer: &mut T) {
        self.kernel
            .recompute_rates(self.last_advance, &self.node, tracer, 0);
        self.rate_sum = self.kernel.rated().1.iter().sum();
        self.completion_gen += 1;
    }

    /// Handle the last reap's exits: record completions and notify the
    /// policy (the Finished-Cons listener).  Returns the policy's
    /// interrupt request.
    fn process_exits<T: Tracer>(&mut self, now: SimTime, tracer: &mut T) -> bool {
        let exited = self.kernel.exited();
        if exited.is_empty() {
            return false;
        }
        self.exits_total += exited.len() as u64;
        for &(id, code) in exited {
            let created_at = self.kernel.created_at(id);
            if T::ENABLED {
                tracer.span_end(now, TraceKind::JobRun, id.as_raw(), 0);
                tracer.instant(now, TraceKind::JobComplete, id.as_raw(), code as u32);
            }
            if self.slo_enabled {
                // Sojourn = exit − admission; queue-wait is zero by
                // construction on a single fluid node (see `slo`).
                let sojourn = now.saturating_since(created_at).as_secs_f64();
                self.slo.record_exit(sojourn, 0.0);
            }
            self.recorder
                .record_completion(self.kernel.job(id).label(), created_at, now, code);
        }
        self.policy.on_pool_change(now, self.kernel.live())
    }

    /// Run the policy (Executor tick or listener interrupt) and return
    /// its next interval.
    fn run_reconfigure<T: Tracer>(&mut self, now: SimTime, tracer: &mut T) -> Option<SimDuration> {
        self.kernel
            .reconfigure(now, self.policy.as_mut(), tracer, 0)
    }

    /// Reschedule the policy tick after a reconfiguration.
    fn schedule_tick<T: Tracer>(
        &mut self,
        sched: &mut Scheduler<'_, WorkerEvent, T>,
        interval: Option<SimDuration>,
    ) {
        if self.is_done() {
            return;
        }
        if let Some(itval) = interval {
            self.tick_gen += 1;
            sched.after(itval, WorkerEvent::PolicyTick(self.tick_gen));
        }
    }

    /// Schedule the next projected completion check, one microsecond past
    /// the exact finish so integration strictly crosses it (the workload
    /// clamps).
    fn schedule_completion<T: Tracer>(&mut self, sched: &mut Scheduler<'_, WorkerEvent, T>) {
        if let Some(eta) = self.kernel.earliest_eta() {
            let at =
                self.last_advance + SimDuration::from_secs_f64(eta) + SimDuration::from_micros(1);
            sched.at(at, WorkerEvent::CompletionCheck(self.completion_gen));
        }
    }

    fn record_samples(&mut self, now: SimTime) {
        let (ids, rates, _) = self.kernel.rated();
        for (&id, &rate) in ids.iter().zip(rates) {
            if self.kernel.is_live(id) {
                // Borrow the label in place: a steady-state sample tick must
                // not allocate (`series_mut` only clones for unseen labels).
                self.recorder.record_sample(
                    now,
                    self.kernel.job(id).label(),
                    rate,
                    self.kernel.cpu_limit(id),
                );
            }
        }
    }

    fn record_growth_traces(&mut self, now: SimTime) {
        self.kernel.measure_into(now, Monitor::Trace);
        for m in self.kernel.measures() {
            if let Some(g) = m.growth() {
                self.recorder
                    .record_growth(now, self.kernel.job(m.id).label(), g);
            }
        }
    }

    /// Admit one job into the pool at `now` and run the shared arrival
    /// protocol: notify the policy (the New-Cons listener), start (or
    /// pre-empt) the executor chain, recompute rates, and reproject the
    /// next completion.
    ///
    /// Shared by plan arrivals ([`WorkerEvent::Arrival`]) and open-loop
    /// streamed arrivals ([`WorkerEvent::StreamArrival`], admitted mid-run
    /// by the [`OpenLoopShell`]).
    fn admit_job<T: Tracer>(
        &mut self,
        now: SimTime,
        spec: ModelSpec,
        label: String,
        interrupted_by_exit: bool,
        sched: &mut Scheduler<'_, WorkerEvent, T>,
    ) {
        let job = TrainingJob::with_label(spec, label, &mut self.rng);
        let id = self.kernel.next_id();
        self.kernel.admit(id, job, now);
        if T::ENABLED {
            let tracer = sched.tracer();
            tracer.instant(now, TraceKind::JobAdmit, id.as_raw(), 0);
            tracer.span_begin(now, TraceKind::JobRun, id.as_raw(), 0);
        }

        let interrupt = self.policy.on_pool_change(now, self.kernel.live());
        if interrupt || interrupted_by_exit {
            let next = self.run_reconfigure(now, sched.tracer());
            self.schedule_tick(sched, next);
        } else if self.kernel.live().len() == 1 {
            // First job under a tick-less policy still needs the
            // executor chain started (if the policy has one).
            let initial = self.policy.initial_interval();
            self.schedule_tick(sched, initial);
        }
        self.recompute_rates(sched.tracer());
        self.schedule_completion(sched);
    }

    /// Crash the first live container labelled like the `idx`-th failure
    /// injection and reap it.  Returns the policy's interrupt request.
    fn inject_failure<T: Tracer>(&mut self, now: SimTime, idx: usize, tracer: &mut T) -> bool {
        let injection = &self.failures[idx];
        let kernel = &*self.kernel;
        let target = kernel
            .live()
            .iter()
            .copied()
            .find(|&id| kernel.job(id).label() == injection.label);
        let Some(id) = target else {
            return false;
        };
        let code = injection.exit_code;
        self.kernel.job_mut(id).inject_failure(code);
        self.kernel.reap_terminated();
        self.process_exits(now, tracer)
    }

    fn handle<T: Tracer>(&mut self, event: WorkerEvent, sched: &mut Scheduler<'_, WorkerEvent, T>) {
        let now = sched.now();
        match event {
            WorkerEvent::Arrival(idx) => {
                self.advance_to(now);
                let interrupted_by_exit = self.process_exits(now, sched.tracer());
                let (spec, label) = self.plan.arrive(idx);
                self.arrivals_pending -= 1;
                self.admit_job(now, spec, label, interrupted_by_exit, sched);
            }
            WorkerEvent::StreamArrival => {
                unreachable!("stream arrivals are dispatched by the open-loop shell")
            }
            WorkerEvent::CompletionCheck(gen) => {
                if gen != self.completion_gen {
                    return; // stale projection
                }
                self.advance_to(now);
                if self.process_exits(now, sched.tracer()) {
                    let next = self.run_reconfigure(now, sched.tracer());
                    self.schedule_tick(sched, next);
                }
                self.recompute_rates(sched.tracer());
                self.schedule_completion(sched);
            }
            WorkerEvent::PolicyTick(gen) => {
                if gen != self.tick_gen {
                    return; // pre-empted by an interrupt
                }
                self.advance_to(now);
                // The tick reconfigures below whatever the listeners ask.
                let _ = self.process_exits(now, sched.tracer());
                let next = self.run_reconfigure(now, sched.tracer());
                self.schedule_tick(sched, next);
                self.recompute_rates(sched.tracer());
                self.schedule_completion(sched);
            }
            WorkerEvent::SampleTick => {
                self.advance_to(now);
                if self.process_exits(now, sched.tracer()) {
                    let next = self.run_reconfigure(now, sched.tracer());
                    self.schedule_tick(sched, next);
                    self.recompute_rates(sched.tracer());
                    self.schedule_completion(sched);
                }
                if self.recorder.sample_tick(now) {
                    self.record_samples(now);
                }
                if !self.is_done() {
                    sched.after(self.node.sample_interval, WorkerEvent::SampleTick);
                }
            }
            WorkerEvent::TraceTick => {
                self.advance_to(now);
                if self.process_exits(now, sched.tracer()) {
                    let next = self.run_reconfigure(now, sched.tracer());
                    self.schedule_tick(sched, next);
                    self.recompute_rates(sched.tracer());
                    self.schedule_completion(sched);
                }
                if self.recorder.growth_tick(now) {
                    self.record_growth_traces(now);
                }
                if !self.is_done() {
                    sched.after(TRACE_INTERVAL, WorkerEvent::TraceTick);
                }
            }
            WorkerEvent::InjectFailure(idx) => {
                self.advance_to(now);
                let mut interrupt = self.process_exits(now, sched.tracer());
                interrupt |= self.inject_failure(now, idx, sched.tracer());
                if interrupt {
                    let next = self.run_reconfigure(now, sched.tracer());
                    self.schedule_tick(sched, next);
                }
                self.recompute_rates(sched.tracer());
                self.schedule_completion(sched);
            }
        }
    }
}

/// Newtype so `Simulation` can be implemented without exposing internals.
struct WorkerShell<'a, R: Recorder>(WorkerSim<'a, R>);

impl<R: Recorder> Simulation for WorkerShell<'_, R> {
    type Event = WorkerEvent;
    fn handle<T: Tracer>(&mut self, event: WorkerEvent, sched: &mut Scheduler<'_, WorkerEvent, T>) {
        self.0.handle(event, sched);
    }
}

/// The open-loop driver: a [`WorkerSim`] plus the [`JobStream`] feeding it.
///
/// Owns the one-job lookahead: `pending` is the job whose
/// [`WorkerEvent::StreamArrival`] is currently scheduled.  Every other
/// event is delegated to the worker unchanged, so open-loop and
/// plan-driven runs share the entire simulation body.
struct OpenLoopShell<'a, R: Recorder, J: JobStream> {
    worker: WorkerSim<'a, R>,
    stream: J,
    horizon: Horizon,
    pending: Option<StreamedJob>,
    submitted: u64,
}

impl<R: Recorder, J: JobStream> OpenLoopShell<'_, R, J> {
    /// Pull the next admissible job into `pending` and return its arrival
    /// time, or mark the stream spent (`stream_active = false`) when the
    /// stream ends or the horizon trips.
    ///
    /// One pull per admission: a job the horizon rejects is dropped, not
    /// buffered — the run is over at that point by definition.
    fn pull_next(&mut self) -> Option<SimTime> {
        debug_assert!(self.pending.is_none(), "one lookahead job at a time");
        let admissible = self
            .stream
            .next_job()
            .filter(|job| self.horizon.admits(self.submitted as usize, job.arrival));
        match admissible {
            Some(job) => {
                let at = job.arrival;
                self.pending = Some(job);
                self.worker.stream_active = true;
                Some(at)
            }
            None => {
                self.worker.stream_active = false;
                None
            }
        }
    }
}

impl<R: Recorder, J: JobStream> Simulation for OpenLoopShell<'_, R, J> {
    type Event = WorkerEvent;

    fn handle<T: Tracer>(&mut self, event: WorkerEvent, sched: &mut Scheduler<'_, WorkerEvent, T>) {
        let WorkerEvent::StreamArrival = event else {
            self.worker.handle(event, sched);
            return;
        };
        let now = sched.now();
        let job = self.pending.take().expect("a streamed arrival is pending");
        debug_assert!(job.arrival == now, "stream arrival fired off schedule");
        self.worker.advance_to(now);
        let interrupted_by_exit = self.worker.process_exits(now, sched.tracer());
        self.submitted += 1;
        // Schedule the lookahead *before* admitting: admission consults
        // `is_done` (via tick scheduling), which must already know whether
        // more arrivals are coming.
        if let Some(at) = self.pull_next() {
            assert!(
                at >= now,
                "job streams must yield monotone arrivals ({at} after {now})"
            );
            sched.at(at, WorkerEvent::StreamArrival);
        }
        self.worker.admit_job(
            now,
            job.scaled_spec(),
            job.label,
            interrupted_by_exit,
            sched,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConConfig;
    use crate::policy::{FairSharePolicy, FlowConPolicy};
    use crate::session::{Session, SessionResult};
    use flowcon_metrics::summary::RunSummary;

    fn node() -> NodeConfig {
        NodeConfig::default()
    }

    fn flowcon(
        node: NodeConfig,
        plan: &WorkloadPlan,
        config: FlowConConfig,
    ) -> SessionResult<RunSummary> {
        Session::builder()
            .node(node)
            .plan(plan.clone())
            .policy(FlowConPolicy::new(config))
            .build()
            .run()
    }

    fn baseline(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<RunSummary> {
        Session::builder()
            .node(node)
            .plan(plan.clone())
            .policy(FairSharePolicy::new())
            .build()
            .run()
    }

    #[test]
    fn single_job_runs_to_completion_under_na() {
        let plan = WorkloadPlan::random_from(&[flowcon_dl::ModelId::MnistTf], 1);
        let result = baseline(node(), &plan);
        assert_eq!(result.output.completions.len(), 1);
        let c = &result.output.completions[0];
        assert_eq!(c.exit_code, 0);
        // Alone at demand 0.75, ~27 cpu-s of work: completion ≈ 36 s (±jitter).
        let secs = c.completion_secs();
        assert!((30.0..45.0).contains(&secs), "completion {secs}");
    }

    #[test]
    fn fixed_three_under_na_matches_paper_scale() {
        let plan = WorkloadPlan::fixed_three();
        let result = baseline(node(), &plan);
        let s = &result.output;
        assert_eq!(s.completions.len(), 3);
        let makespan = s.makespan_secs();
        // §5.3: NA makespan ≈ 394 s.  Allow the fluid model ±10%.
        assert!((354.0..434.0).contains(&makespan), "NA makespan {makespan}");
        let mnist_tf = s.completion_of("MNIST (Tensorflow)").unwrap();
        // §5.3: ≈ 84.7 s under NA.
        assert!((70.0..100.0).contains(&mnist_tf), "MNIST-TF {mnist_tf}");
    }

    #[test]
    fn flowcon_speeds_up_the_late_short_job() {
        let plan = WorkloadPlan::fixed_three();
        let na = baseline(node(), &plan);
        let fc = flowcon(node(), &plan, FlowConConfig::with_params(0.05, 20));
        let red = fc
            .output
            .reduction_vs(&na.output, "MNIST (Tensorflow)")
            .unwrap();
        assert!(
            red > 10.0,
            "expected a double-digit completion-time reduction, got {red:.1}%"
        );
        // Makespan must not regress materially (§5.3: FlowCon improves 1-5%).
        let makespan_impr = fc.output.makespan_improvement_vs(&na.output);
        assert!(makespan_impr > -3.0, "makespan change {makespan_impr:.1}%");
    }

    #[test]
    fn runs_are_deterministic() {
        let plan = WorkloadPlan::random_five(11);
        let a = flowcon(node(), &plan, FlowConConfig::default());
        let b = flowcon(node(), &plan, FlowConConfig::default());
        assert_eq!(a.output.completions, b.output.completions);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn all_jobs_complete_cleanly_at_scale() {
        let plan = WorkloadPlan::random_n(15, 3);
        let result = flowcon(node(), &plan, FlowConConfig::with_params(0.10, 40));
        assert_eq!(result.output.completions.len(), 15);
        assert!(result.output.completions.iter().all(|c| c.exit_code == 0));
    }

    #[test]
    fn traces_are_recorded() {
        let plan = WorkloadPlan::fixed_three();
        let fc = flowcon(node(), &plan, FlowConConfig::default());
        assert_eq!(fc.output.cpu_usage.len(), 3, "one usage series per job");
        assert!(!fc.output.growth_efficiency.is_empty());
        assert!(fc.output.update_calls > 0);
        assert!(fc.output.algorithm_runs > 0);
    }
}
