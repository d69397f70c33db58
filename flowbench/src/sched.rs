//! `sched_tiresias`: the online cluster scheduler with the Tiresias
//! (least-attained-service) discipline, 512 nodes × 2 slots, 16 384 jobs
//! arriving in a 200 s burst, 10 s quantum.
//!
//! The admission backlog reaches ~11k jobs, so `cluster::sched` decisions
//! dominate; ~475k preemptions exercise the node model's admit/preempt.
//! Placement, the dense path and the object path are bypassed.
//!
//! The measured runs advance nodes sequentially (`.sequential(true)`).
//! Sharded, each of the ~500 barriers spawns the executor's threads, and
//! the run's wall time then follows the neighbours' load on the host far
//! more than the program's speed (a 10-seed spread of 0.28; +40% against
//! +3% sequential under an intermittent load on one of two vCPUs).  The
//! traced run measures the sharded run as the executor's twin.

use flowcon_cluster::{
    ClusterSession, ClusterSessionBuilder, Sched, SchedAction, SchedOutcome, SchedPolicyKind,
};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::time::SimDuration;
use flowcon_sim::trace::TraceKind;

use crate::alloc;
use crate::bench::Bench;
use crate::common::{
    clocked, digest_completion, exactly_once, flowcon, nodes, require, timed, Rep,
};
use crate::procfs;
use crate::stats::{percentile, Digest, SimFigures};
use crate::tracer::WallTracer;

const NODES: usize = 512;
const SLOTS: usize = 2;
const JOBS: usize = 16_384;
const QUANTUM_SECS: u64 = 10;

fn builder(seed: u64, plan: WorkloadPlan) -> ClusterSessionBuilder<'static, Sched> {
    ClusterSession::builder()
        .node_configs(nodes(NODES, seed))
        .policy(flowcon())
        .plan(plan)
        .scheduler(SchedPolicyKind::Tiresias)
        .quantum(SimDuration::from_secs(QUANTUM_SECS))
        .slots_per_node(SLOTS)
        .sequential(true)
}

/// The folds a user of the result runs: makespan and the SLO tails.
fn fold(out: &SchedOutcome) -> f64 {
    std::hint::black_box((out.sojourn_percentiles(), out.queue_wait_percentiles()));
    out.makespan_secs()
}

/// Exactly-once completion, plus a consistent decision log: each job is
/// placed once more than it is preempted (it ends running, then exits).
fn check(arrivals: &[u64], out: &SchedOutcome) -> Result<(), String> {
    if out.submitted != arrivals.len() {
        return Err(format!(
            "{} jobs planned, {} submitted",
            arrivals.len(),
            out.submitted
        ));
    }
    exactly_once(
        arrivals.iter().map(|&a| (0, a)).collect(),
        out.completions.iter().map(|c| (0, c)),
    )?;
    let mut balance = vec![0i64; arrivals.len()];
    for d in &out.decisions {
        match d.action {
            SchedAction::Place { job, .. } => balance[job as usize] += 1,
            SchedAction::Preempt { job } => balance[job as usize] -= 1,
            SchedAction::Migrate { .. } => {}
        }
    }
    match balance.iter().position(|&b| b != 1) {
        None => Ok(()),
        Some(job) => Err(format!(
            "job {job} placed {} times more than preempted",
            balance[job]
        )),
    }
}

fn digest(out: &SchedOutcome) -> u64 {
    let mut d = Digest::default();
    d.u64(out.submitted as u64)
        .u64(out.preemptions)
        .u64(out.migrations)
        .u64(out.algorithm_runs)
        .f64(out.total_queue_wait_secs)
        .f64(out.stream.busy_cpu_secs)
        .f64(out.stream.queue_job_secs)
        .f64(out.stream.duration_secs);
    for c in &out.completions {
        digest_completion(&mut d, c);
    }
    for dec in &out.decisions {
        d.u64(dec.at.as_micros());
        match dec.action {
            SchedAction::Place { job, node } => d.u64(0).u64(job.into()).u64(node as u64),
            SchedAction::Preempt { job } => d.u64(1).u64(job.into()),
            SchedAction::Migrate { job, node } => d.u64(2).u64(job.into()).u64(node as u64),
        };
    }
    d.value()
}

fn sim_figures(out: &SchedOutcome, makespan_s: f64) -> SimFigures {
    let jct = out
        .completions
        .iter()
        .map(|c| c.completion_secs())
        .collect();
    SimFigures::new(jct, makespan_s)
}

fn arrivals(plan: &WorkloadPlan) -> Vec<u64> {
    plan.jobs.iter().map(|j| j.arrival.as_micros()).collect()
}

/// One measured repetition.
pub fn rep(seed: u64) -> Result<Rep, String> {
    let (workload, gen_s) = timed(|| WorkloadPlan::random_n(JOBS, seed));
    let submitted = arrivals(&workload);
    let (session, build_s) = timed(|| builder(seed, workload).build());
    let ((out, makespan_s), run_s, cpu_s) = clocked(|| {
        let out = session.run();
        let makespan = fold(&out);
        (out, makespan)
    })?;
    let peak_rss_mib = procfs::peak_rss_mib()?;
    Ok(Rep {
        setup_s: gen_s + build_s,
        run_s,
        cpu_s,
        peak_rss_mib,
        submitted: JOBS as u64,
        completed: out.completed_jobs() as u64,
        sim: sim_figures(&out, makespan_s),
        digest: digest(&out),
        verdict: check(&submitted, &out),
    })
}

/// One traced iteration: stage timings, the wall-clock-traced run, and
/// the sharded twin.
pub fn trace(seed: u64, bench: &mut Bench) -> Result<(), String> {
    let ((workload, gen_s), gen_allocs) =
        alloc::count(|| timed(|| WorkloadPlan::random_n(JOBS, seed)));
    bench.record("workload.gen_s", gen_s);
    bench.record("workload.allocs_per_job", gen_allocs as f64 / JOBS as f64);
    let submitted = arrivals(&workload);
    let (session, build_s) = timed(|| builder(seed, workload).build());
    bench.record("cluster.build_s", build_s);
    let (out, run_s, cpu_s) = clocked(|| session.run())?;
    let (_, fold_s) = timed(|| fold(&out));
    bench.record("cluster.run_s", run_s);
    bench.record("cluster.run_cpu_s", cpu_s);
    bench.record("cluster.executor.sequential_run_s", run_s);
    bench.record("metrics.fold_s", fold_s);
    bench.record("flowcon.algorithm_runs", out.algorithm_runs as f64);
    bench.record(
        "cluster.sched.queue_depth_mean",
        out.stream.mean_queue_depth(),
    );
    let count = |pred: fn(&SchedAction) -> bool| {
        out.decisions.iter().filter(|d| pred(&d.action)).count() as f64
    };
    let places = count(|a| matches!(a, SchedAction::Place { .. }));
    bench.record("cluster.sched.places", places);
    bench.record(
        "cluster.sched.preempts",
        count(|a| matches!(a, SchedAction::Preempt { .. })),
    );
    bench.record(
        "cluster.sched.migrates",
        count(|a| matches!(a, SchedAction::Migrate { .. })),
    );
    let mut verdict = check(&submitted, &out);

    // The wall-clock-traced run, allocation counting on.
    let traced = builder(seed, WorkloadPlan::random_n(JOBS, seed)).tracer(WallTracer::new());
    let (((traced_out, tracer), traced_s), run_allocs) =
        alloc::count(|| timed(|| traced.build().run_traced()));
    verdict = verdict.and(require(&[
        (traced_out == out, "the traced run's outcome differs"),
        (
            tracer.unmatched_ends() + tracer.open_spans() == 0,
            "tracer: unbalanced spans",
        ),
        (
            tracer.events(TraceKind::SchedPlace) as f64 == places,
            "tracer: place instants differ from the decision log",
        ),
        (
            tracer.spans(TraceKind::Reconfigure) == out.algorithm_runs,
            "tracer: reconfigure spans differ from algorithm runs",
        ),
    ]));
    let barrier_s = tracer.span_secs(TraceKind::SchedBarrier);
    let mut barrier_us: Vec<f64> = tracer
        .barrier_ns()
        .iter()
        .map(|&ns| ns as f64 * 1e-3)
        .collect();
    barrier_us.sort_by(f64::total_cmp);
    let reconfigure_s = tracer.span_secs(TraceKind::Reconfigure);
    let runs = tracer.spans(TraceKind::Reconfigure).max(1) as f64;
    bench.record(
        "cluster.run_allocs_per_job",
        run_allocs as f64 / JOBS as f64,
    );
    bench.record("bench.trace_overhead", traced_s / run_s);
    bench.record(
        "cluster.sched.barriers",
        tracer.spans(TraceKind::SchedBarrier) as f64,
    );
    bench.record("cluster.sched.barrier_s", barrier_s);
    bench.record("cluster.sched.decide_s", traced_s - barrier_s);
    bench.record(
        "cluster.sched.barrier_us_p50",
        percentile(&barrier_us, 50.0).unwrap_or(0.0),
    );
    bench.record(
        "cluster.sched.barrier_us_p99",
        percentile(&barrier_us, 99.0).unwrap_or(0.0),
    );
    bench.record("flowcon.reconfigure_s", reconfigure_s);
    bench.record("flowcon.reconfigure_ns_per_run", reconfigure_s * 1e9 / runs);
    bench.record(
        "sim.waterfill_calls",
        tracer.events(TraceKind::Waterfill) as f64,
    );

    // Sharded twin: node advances on the executor at every barrier.
    let twin = builder(seed, WorkloadPlan::random_n(JOBS, seed)).sequential(false);
    let (sharded_out, sharded_s, sharded_cpu_s) = clocked(|| twin.build().run())?;
    let shards = flowcon_cluster::executor::shard_count(NODES);
    bench.record("cluster.executor.shards", shards as f64);
    bench.record("cluster.executor.sharded_run_s", sharded_s);
    bench.record(
        "cluster.executor.cpu_util",
        sharded_cpu_s / (sharded_s * shards as f64),
    );
    bench.record("cluster.executor.sharding_speedup", run_s / sharded_s);
    verdict = verdict.and(require(&[(
        sharded_out == out,
        "the sharded twin's outcome differs",
    )]));
    bench.absent(&["cluster.place_s", "sim.events", "sim.cpu_ns_per_event"]);
    bench.settle(JOBS as u64, verdict);
    Ok(())
}
