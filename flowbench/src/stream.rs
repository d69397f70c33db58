//! `stream_open`: open-loop Poisson arrivals per worker, 32 768 headless
//! workers at 0.003 jobs/s over a 3600 s admission window, then drained.
//!
//! The only workload on the object path (`flowcon::worker` over
//! `container`): jobs are admitted mid-run regardless of completions,
//! streams are generated lazily (so set-up is almost nothing), and
//! `metrics` folds 32k per-worker sketches.

use flowcon_bench::experiments::stream::stream_preset;
use flowcon_cluster::{
    ClusterOutcome, ClusterSession, Horizon, JobStream, StreamSource, SyntheticStreamSource,
};
use flowcon_core::config::NodeConfig;
use flowcon_core::recorder::CompletionsOnly;
use flowcon_core::session::{Session, StreamResult};
use flowcon_core::worker::WorkerScratch;
use flowcon_metrics::summary::CompletionStats;
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::TraceKind;

use crate::alloc;
use crate::bench::Bench;
use crate::common::{
    clocked, digest_completion, exactly_once, flowcon, nodes, require, timed, Rep,
};
use crate::procfs;
use crate::stats::{Digest, SimFigures};
use crate::tracer::WallTracer;

const WORKERS: usize = 32_768;
/// Per-worker Poisson arrival rate, jobs per simulated second.
const RATE: f64 = 0.003;
const ADMIT_SECS: u64 = 3600;

fn horizon() -> Horizon {
    Horizon::until(SimTime::from_secs(ADMIT_SECS))
}

fn source(seed: u64) -> SyntheticStreamSource {
    stream_preset("poisson", RATE, seed)
        .expect("poisson is a stream preset")
        .unlabeled()
}

type Outcome = ClusterOutcome<CompletionStats>;

fn run_cluster(src: &SyntheticStreamSource, cfgs: Vec<NodeConfig>) -> Outcome {
    ClusterSession::builder()
        .node_configs(cfgs)
        .policy(flowcon())
        .stream(src, horizon())
        .build()
        .run()
}

/// The folds a user of the result runs: cluster SLO tails, steady-state
/// totals and the makespan.
fn fold(out: &Outcome) -> f64 {
    std::hint::black_box((out.tail_totals().sojourn_percentiles(), out.stream_totals()));
    out.makespan_secs()
}

/// Every job each worker's stream admitted before the horizon completed
/// exactly once on that worker, and the worker's own accounting agrees.
fn check(src: &SyntheticStreamSource, out: &Outcome) -> Result<(), String> {
    if out.workers.len() != WORKERS || out.streams.len() != WORKERS {
        return Err(format!(
            "{} worker results for {WORKERS} workers",
            out.workers.len()
        ));
    }
    let h = horizon();
    let mut submitted = Vec::new();
    for w in 0..WORKERS {
        let mut stream = src.stream_for(w);
        let mut admitted = 0;
        while let Some(job) = stream.next_job() {
            if !h.admits(admitted, job.arrival) {
                break;
            }
            admitted += 1;
            submitted.push((w as u32, job.arrival.as_micros()));
        }
        let s = &out.streams[w];
        if s.submitted != admitted as u64 || s.completed != s.submitted {
            return Err(format!(
                "worker {w}: stream admits {admitted}, worker reports {} submitted, {} completed",
                s.submitted, s.completed
            ));
        }
    }
    let completed = out
        .workers
        .iter()
        .enumerate()
        .flat_map(|(w, r)| r.output.completions.iter().map(move |c| (w as u32, c)));
    exactly_once(submitted, completed)
}

fn digest(out: &Outcome) -> u64 {
    let mut d = Digest::default();
    for (r, s) in out.workers.iter().zip(&out.streams) {
        d.u64(r.events_processed)
            .u64(r.output.algorithm_runs)
            .u64(r.output.completions.len() as u64)
            .u64(s.submitted)
            .f64(s.duration_secs)
            .f64(s.busy_cpu_secs)
            .f64(s.queue_job_secs)
            .f64(s.capacity_cpu_secs);
        for c in &r.output.completions {
            digest_completion(&mut d, c);
        }
    }
    let tails = out.tail_totals().sojourn_percentiles();
    d.f64(tails.p50).f64(tails.p95).f64(tails.p99);
    d.value()
}

fn sim_figures(out: &Outcome, makespan_s: f64) -> SimFigures {
    let jct = out
        .workers
        .iter()
        .flat_map(|r| r.output.completions.iter().map(|c| c.completion_secs()))
        .collect();
    SimFigures::new(jct, makespan_s)
}

/// One measured repetition.
pub fn rep(seed: u64) -> Result<Rep, String> {
    let (src, gen_s) = timed(|| source(seed));
    let (cfgs, build_s) = timed(|| nodes(WORKERS, seed));
    let ((out, makespan_s), run_s, cpu_s) = clocked(|| {
        let out = run_cluster(&src, cfgs);
        let makespan = fold(&out);
        (out, makespan)
    })?;
    let peak_rss_mib = procfs::peak_rss_mib()?;
    let submitted = out.submitted_jobs() as u64;
    Ok(Rep {
        setup_s: gen_s + build_s,
        run_s,
        cpu_s,
        peak_rss_mib,
        submitted,
        completed: out.workers.iter().map(|r| r.output.len() as u64).sum(),
        sim: sim_figures(&out, makespan_s),
        digest: digest(&out),
        verdict: check(&src, &out),
    })
}

/// A per-worker replay equals that worker's slice of the cluster outcome.
fn same(replay: &StreamResult<CompletionStats>, out: &Outcome, w: usize) -> bool {
    let r = &out.workers[w];
    replay.output == r.output
        && replay.events_processed == r.events_processed
        && replay.scheduler_overhead_cpu_secs.to_bits() == r.scheduler_overhead_cpu_secs.to_bits()
        && replay.stream == out.streams[w]
        && replay.tails == out.tails[w]
}

/// One traced iteration: stage timings, the allocation-counted cluster
/// run, a sequential per-worker replay (the executor's sequential twin),
/// and the same replay traced through `Session::run_stream_traced`.
pub fn trace(seed: u64, bench: &mut Bench) -> Result<(), String> {
    let ((src, gen_s), gen_allocs) = alloc::count(|| timed(|| source(seed)));
    let (cfgs, build_s) = timed(|| nodes(WORKERS, seed));
    let (out, run_s, cpu_s) = clocked(|| run_cluster(&src, cfgs.clone()))?;
    let (_, fold_s) = timed(|| fold(&out));
    let jobs = out.submitted_jobs().max(1) as f64;
    let shards = flowcon_cluster::executor::shard_count(WORKERS);
    let events = out.events_processed();
    bench.record("workload.gen_s", gen_s);
    bench.record("workload.allocs_per_job", gen_allocs as f64 / jobs);
    bench.record("cluster.build_s", build_s);
    bench.record("cluster.run_s", run_s);
    bench.record("cluster.run_cpu_s", cpu_s);
    bench.record("cluster.executor.shards", shards as f64);
    bench.record("cluster.executor.cpu_util", cpu_s / (run_s * shards as f64));
    bench.record("metrics.fold_s", fold_s);
    bench.record("sim.events", events as f64);
    bench.record("sim.cpu_ns_per_event", cpu_s * 1e9 / events as f64);
    let algorithm_runs: u64 = out.workers.iter().map(|r| r.output.algorithm_runs).sum();
    bench.record("flowcon.algorithm_runs", algorithm_runs as f64);
    let untraced = digest(&out);
    let mut verdict = check(&src, &out);

    // The same cluster run with allocation counting on.
    let again = cfgs.clone();
    let ((counted, counted_s), run_allocs) = alloc::count(|| timed(|| run_cluster(&src, again)));
    bench.record("cluster.run_allocs_per_job", run_allocs as f64 / jobs);
    bench.record("bench.trace_overhead", counted_s / run_s);
    if digest(&counted) != untraced {
        verdict = verdict.and(Err("the counted run's outcome digest differs".into()));
    }
    drop(counted);

    // Sequential twin: every worker replayed on this thread, recycling
    // one scratch as an executor shard does.
    let (seq, seq_s) = timed(|| {
        let mut scratch = WorkerScratch::new();
        (0..WORKERS)
            .map(|w| {
                let (r, recycled) = Session::builder()
                    .node(cfgs[w])
                    .policy_box(flowcon().build())
                    .recorder(CompletionsOnly::new())
                    .scratch(std::mem::take(&mut scratch))
                    .build()
                    .run_stream_recycling(src.stream_for(w), horizon());
                scratch = recycled;
                r
            })
            .collect::<Vec<_>>()
    });
    bench.record("cluster.executor.sequential_run_s", seq_s);
    bench.record("cluster.executor.sharded_run_s", run_s);
    bench.record("cluster.executor.sharding_speedup", seq_s / run_s);
    if let Some(w) = (0..WORKERS).find(|&w| !same(&seq[w], &out, w)) {
        verdict = verdict.and(Err(format!("sequential replay differs on worker {w}")));
    }
    drop(seq);

    // The replay again, wall-clock traced: every worker's session records
    // into one tracer.
    let mut tracer = WallTracer::new();
    for (w, &cfg) in cfgs.iter().enumerate() {
        let replay = Session::builder()
            .node(cfg)
            .policy_box(flowcon().build())
            .recorder(CompletionsOnly::new())
            .build()
            .run_stream_traced(src.stream_for(w), horizon(), &mut tracer);
        if !same(&replay, &out, w) {
            verdict = verdict.and(Err(format!("traced replay differs on worker {w}")));
            break;
        }
    }
    verdict = verdict.and(require(&[
        (
            tracer.unmatched_ends() + tracer.open_spans() == 0,
            "tracer: unbalanced spans",
        ),
        (
            tracer.events(TraceKind::EngineEvent) == events,
            "tracer: engine events differ from the run's count",
        ),
        (
            tracer.spans(TraceKind::Reconfigure) == algorithm_runs,
            "tracer: reconfigure spans differ from algorithm runs",
        ),
    ]));
    let reconfigure_s = tracer.span_secs(TraceKind::Reconfigure);
    bench.record("flowcon.reconfigure_s", reconfigure_s);
    bench.record(
        "flowcon.reconfigure_ns_per_run",
        reconfigure_s * 1e9 / algorithm_runs.max(1) as f64,
    );
    bench.record(
        "sim.waterfill_calls",
        tracer.events(TraceKind::Waterfill) as f64,
    );
    bench.absent(&[
        "cluster.place_s",
        "cluster.sched.barriers",
        "cluster.sched.places",
        "cluster.sched.preempts",
        "cluster.sched.migrates",
        "cluster.sched.queue_depth_mean",
        "cluster.sched.decide_s",
        "cluster.sched.barrier_s",
        "cluster.sched.barrier_us_p50",
        "cluster.sched.barrier_us_p99",
    ]);
    bench.settle(out.submitted_jobs() as u64, verdict);
    Ok(())
}
