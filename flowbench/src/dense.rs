//! `dense_closed`: a closed plan placed round-robin over ~300k headless
//! workers and run on the dense million-worker path.
//!
//! Its host time goes to the dense node kernel (`flowcon::dense`) and the
//! `sim` event queue; its 600k labelled jobs make set-up and peak memory
//! real.  It makes one executor call and no scheduler decisions.

use flowcon_cluster::{ClusterRun, ClusterSession, PlacedHeadless, QueueKind};
use flowcon_core::config::NodeConfig;
use flowcon_core::dense::{run_headless_dense, DenseScratch};
use flowcon_core::recorder::CompletionsOnly;
use flowcon_core::session::{Session, SessionResult};
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_metrics::summary::CompletionStats;
use flowcon_sim::trace::TraceKind;

use crate::alloc;
use crate::bench::Bench;
use crate::common::{
    clocked, digest_completion, exactly_once, flowcon, nodes, require, timed, Rep,
};
use crate::procfs;
use crate::stats::{Digest, SimFigures};
use crate::tracer::WallTracer;

const WORKERS: usize = 300_000;
const JOBS: usize = 2 * WORKERS;

struct Setup {
    placed: PlacedHeadless,
    /// Arrival of each job in plan order, for the exactly-once check.
    arrivals: Vec<u64>,
    gen_s: f64,
    build_s: f64,
    place_s: f64,
}

fn setup(seed: u64) -> Setup {
    let (plan, gen_s) = timed(|| WorkloadPlan::random_n(JOBS, seed));
    let arrivals = plan.jobs.iter().map(|j| j.arrival.as_micros()).collect();
    let (session, build_s) = timed(|| {
        ClusterSession::builder()
            .node_configs(nodes(WORKERS, seed))
            .policy(flowcon())
            .plan(plan)
            .build()
    });
    let (placed, place_s) = timed(|| session.place());
    Setup {
        placed,
        arrivals,
        gen_s,
        build_s,
        place_s,
    }
}

/// The folds a user of the result runs: makespan and mean completion
/// time over the whole cluster.
fn fold(run: &ClusterRun<CompletionStats>) -> (f64, Option<f64>) {
    (run.makespan_secs(), run.mean_completion_secs())
}

fn check(arrivals: &[u64], run: &ClusterRun<CompletionStats>) -> Result<(), String> {
    if run.placements.len() != arrivals.len() {
        return Err(format!(
            "{} jobs planned, {} placed",
            arrivals.len(),
            run.placements.len()
        ));
    }
    let submitted = run
        .placements
        .iter()
        .zip(arrivals)
        .map(|(&w, &a)| (w as u32, a))
        .collect();
    let completed = run
        .workers
        .iter()
        .enumerate()
        .flat_map(|(w, r)| r.output.completions.iter().map(move |c| (w as u32, c)));
    exactly_once(submitted, completed)
}

fn digest(run: &ClusterRun<CompletionStats>) -> u64 {
    let mut d = Digest::default();
    for &w in &run.placements {
        d.u64(w as u64);
    }
    for r in &run.workers {
        d.u64(r.events_processed)
            .u64(r.output.algorithm_runs)
            .u64(r.output.update_calls)
            .u64(r.output.completions.len() as u64);
        for c in &r.output.completions {
            digest_completion(&mut d, c);
        }
    }
    d.value()
}

fn sim_figures(run: &ClusterRun<CompletionStats>, makespan_s: f64) -> SimFigures {
    let jct = run
        .workers
        .iter()
        .flat_map(|r| r.output.completions.iter().map(|c| c.completion_secs()))
        .collect();
    SimFigures::new(jct, makespan_s)
}

/// One measured repetition.
pub fn rep(seed: u64) -> Result<Rep, String> {
    let s = setup(seed);
    let ((run, (makespan_s, _)), run_s, cpu_s) = clocked(|| {
        let run = s.placed.run(QueueKind::Heap);
        let folded = fold(&run);
        (run, folded)
    })?;
    let peak_rss_mib = procfs::peak_rss_mib()?;
    Ok(Rep {
        setup_s: s.gen_s + s.build_s + s.place_s,
        run_s,
        cpu_s,
        peak_rss_mib,
        submitted: JOBS as u64,
        completed: run.completed_jobs() as u64,
        sim: sim_figures(&run, makespan_s),
        digest: digest(&run),
        verdict: check(&s.arrivals, &run),
    })
}

fn same(a: &SessionResult<CompletionStats>, b: &SessionResult<CompletionStats>) -> bool {
    a.output == b.output
        && a.events_processed == b.events_processed
        && a.scheduler_overhead_cpu_secs.to_bits() == b.scheduler_overhead_cpu_secs.to_bits()
}

/// The plan's jobs grouped by worker (plan order within a worker, as
/// placement leaves them): a flat arena and `offsets[w]..offsets[w + 1]`.
fn by_worker(jobs: Vec<JobRequest>, placements: &[usize]) -> (Vec<JobRequest>, Vec<usize>) {
    let mut tagged: Vec<(usize, JobRequest)> = placements.iter().copied().zip(jobs).collect();
    tagged.sort_by_key(|&(w, _)| w);
    let mut offsets = vec![0; WORKERS + 1];
    for &(w, _) in &tagged {
        offsets[w + 1] += 1;
    }
    for w in 0..WORKERS {
        offsets[w + 1] += offsets[w];
    }
    (tagged.into_iter().map(|(_, j)| j).collect(), offsets)
}

/// One traced iteration: stage timings, the allocation-counted run, the
/// sequential twin and the traced object-path replay.
pub fn trace(seed: u64, bench: &mut Bench) -> Result<(), String> {
    let ((plan, gen_s), gen_allocs) = alloc::count(|| timed(|| WorkloadPlan::random_n(JOBS, seed)));
    drop(plan);
    bench.record("workload.gen_s", gen_s);
    bench.record("workload.allocs_per_job", gen_allocs as f64 / JOBS as f64);

    let s = setup(seed);
    bench.record("cluster.build_s", s.build_s);
    bench.record("cluster.place_s", s.place_s);
    let (run, run_s, cpu_s) = clocked(|| s.placed.run(QueueKind::Heap))?;
    let (_, fold_s) = timed(|| fold(&run));
    let shards = flowcon_cluster::executor::shard_count(WORKERS);
    let events = run.events_processed();
    bench.record("cluster.run_s", run_s);
    bench.record("cluster.run_cpu_s", cpu_s);
    bench.record("cluster.executor.shards", shards as f64);
    bench.record("cluster.executor.cpu_util", cpu_s / (run_s * shards as f64));
    bench.record("metrics.fold_s", fold_s);
    bench.record("sim.events", events as f64);
    bench.record("sim.cpu_ns_per_event", cpu_s * 1e9 / events as f64);
    let algorithm_runs: u64 = run.workers.iter().map(|r| r.output.algorithm_runs).sum();
    bench.record("flowcon.algorithm_runs", algorithm_runs as f64);
    let untraced = digest(&run);
    let mut verdict = check(&s.arrivals, &run);

    // The same run with allocation counting on.
    let again = setup(seed);
    let ((counted, counted_s), run_allocs) =
        alloc::count(|| timed(|| again.placed.run(QueueKind::Heap)));
    bench.record(
        "cluster.run_allocs_per_job",
        run_allocs as f64 / JOBS as f64,
    );
    bench.record("bench.trace_overhead", counted_s / run_s);
    verdict = verdict.and(require(&[(
        digest(&counted) == untraced,
        "the counted run's outcome digest differs",
    )]));
    drop(counted);

    // Sequential twin: the same dense kernel over the same per-worker
    // slices, one worker after another on this thread.
    let cfgs: Vec<NodeConfig> = nodes(WORKERS, seed);
    let (flat, offsets) = by_worker(WorkloadPlan::random_n(JOBS, seed).jobs, &run.placements);
    let jobs_of = |w: usize| &flat[offsets[w]..offsets[w + 1]];
    let (seq, seq_s) = timed(|| {
        let mut scratch = DenseScratch::new();
        (0..WORKERS)
            .map(|w| {
                let policy = flowcon().build();
                run_headless_dense(cfgs[w], jobs_of(w), policy, QueueKind::Heap, &mut scratch)
            })
            .collect::<Vec<_>>()
    });
    bench.record("cluster.executor.sequential_run_s", seq_s);
    bench.record("cluster.executor.sharded_run_s", run_s);
    bench.record("cluster.executor.sharding_speedup", seq_s / run_s);
    if let Some(w) = (0..WORKERS).find(|&w| !same(&seq[w], &run.workers[w])) {
        verdict = verdict.and(Err(format!("sequential twin differs on worker {w}")));
    }
    drop(seq);

    // Every worker replayed, traced, through the object path: the only
    // node kernel with tracer hooks, checked equal to the dense result.
    // It counts the water-filling passes the dense path does not report.
    let mut tracer = WallTracer::new();
    for (w, &cfg) in cfgs.iter().enumerate() {
        let replay = Session::builder()
            .node(cfg)
            .policy_box(flowcon().build())
            .plan(WorkloadPlan::new(jobs_of(w).to_vec()))
            .recorder(CompletionsOnly::new())
            .build()
            .run_traced(&mut tracer);
        if !same(&replay, &run.workers[w]) {
            verdict = verdict.and(Err(format!("object-path replay differs on worker {w}")));
            break;
        }
    }
    verdict = verdict.and(require(&[
        (
            tracer.unmatched_ends() + tracer.open_spans() == 0,
            "tracer: unbalanced spans",
        ),
        (
            tracer.spans(TraceKind::Reconfigure) == algorithm_runs,
            "tracer: reconfigure spans differ from algorithm runs",
        ),
    ]));
    bench.record(
        "sim.waterfill_calls",
        tracer.events(TraceKind::Waterfill) as f64,
    );
    bench.absent(&[
        "cluster.sched.barriers",
        "cluster.sched.places",
        "cluster.sched.preempts",
        "cluster.sched.migrates",
        "cluster.sched.queue_depth_mean",
        "cluster.sched.decide_s",
        "cluster.sched.barrier_s",
        "cluster.sched.barrier_us_p50",
        "cluster.sched.barrier_us_p99",
        "flowcon.reconfigure_s",
        "flowcon.reconfigure_ns_per_run",
    ]);
    bench.settle(JOBS as u64, verdict);
    Ok(())
}
