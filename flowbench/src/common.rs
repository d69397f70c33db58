//! What the three workloads share: timing, the measured-repetition loop,
//! cluster configuration, the exactly-once check and the executor probe.

use std::time::Instant;

use flowcon_cluster::executor::map_sharded;
use flowcon_cluster::PolicyKind;
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_metrics::summary::Completion;

use crate::bench::Bench;
use crate::procfs;
use crate::stats::{percentile, Digest, SimFigures};

/// Fewest measured repetitions per run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Run `f`, returning its result and the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Run `f`, returning its result, host seconds and process CPU seconds.
pub fn clocked<R>(f: impl FnOnce() -> R) -> Result<(R, f64, f64), String> {
    let cpu0 = procfs::cpu_seconds()?;
    let (out, wall) = timed(f);
    Ok((out, wall, procfs::cpu_seconds()? - cpu0))
}

/// The node-local resource policy every workload runs: FlowCon with the
/// paper's default parameters.
pub fn flowcon() -> PolicyKind {
    PolicyKind::FlowCon(FlowConConfig::default())
}

/// `n` default nodes, each seeded from the workload seed.  The benchmark
/// owns the per-node configuration so a replay can rebuild any node.
pub fn nodes(n: usize, seed: u64) -> Vec<NodeConfig> {
    (0..n as u64)
        .map(|i| NodeConfig::default().with_seed(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// One untraced repetition: set up, run, fold, check.
pub struct Rep {
    /// Host seconds before the first simulated event.
    pub setup_s: f64,
    /// Host seconds from the end of set-up to the folded result.
    pub run_s: f64,
    /// Process CPU seconds over `run_s`.
    pub cpu_s: f64,
    /// Peak resident memory so far, read right after the run (before the
    /// benchmark's own checks allocate).
    pub peak_rss_mib: f64,
    pub submitted: u64,
    pub completed: u64,
    pub sim: SimFigures,
    pub digest: u64,
    pub verdict: Result<(), String>,
}

/// Repeat `rep` for `seconds` of host time (at least [`MIN_REPS`] times)
/// and record the end-to-end metrics: medians over the repetitions, and
/// peak memory after the first one.  Every repetition runs the same
/// inputs, so each must reproduce the first one's outcome digest.
pub fn measure(
    bench: &mut Bench,
    seconds: f64,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut first = None;
    let mut n = 0;
    while n < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let mut r = rep()?;
        match first {
            None => {
                println!("outcome digest {:016x}", r.digest);
                first = Some(r.digest);
            }
            Some(d) if d != r.digest => {
                r.verdict = r.verdict.and(Err(format!(
                    "repetition {n} changed the outcome digest: {d:016x} -> {:016x}",
                    r.digest
                )));
            }
            Some(_) => {}
        }
        eprintln!(
            "repetition {n}: setup {:.4} s, run {:.4} s, cpu {:.2} s, peak rss {:.1} MiB",
            r.setup_s, r.run_s, r.cpu_s, r.peak_rss_mib
        );
        // Later repetitions inherit allocator state (freed but retained
        // pages, per-thread arenas) that can raise the high-water mark
        // by several MiB at random; the first one is a process that has
        // run the workload once.
        if n == 0 {
            bench.record("peak_rss_mib", r.peak_rss_mib);
        }
        bench.settle(r.submitted, r.verdict);
        bench.record("jobs_per_s", r.completed as f64 / r.run_s);
        bench.record("setup_s", r.setup_s);
        bench.record("cpu_s", r.cpu_s);
        bench.record("sim_jct_mean_s", r.sim.jct_mean_s);
        bench.record("sim_jct_p99_s", r.sim.jct_p99_s);
        bench.record("sim_makespan_s", r.sim.makespan_s);
        n += 1;
    }
    Ok(())
}

/// Check that every submitted job completed exactly once and cleanly.
///
/// `submitted` holds one `(worker, arrival µs)` key per submitted job;
/// `completed` yields each completion with the worker that reported it.
/// The two key multisets must be equal, every exit code 0, and no job
/// may finish before it arrived.
pub fn exactly_once<'a>(
    mut submitted: Vec<(u32, u64)>,
    completed: impl Iterator<Item = (u32, &'a Completion)>,
) -> Result<(), String> {
    let mut got = Vec::with_capacity(submitted.len());
    for (worker, c) in completed {
        if c.exit_code != 0 {
            return Err(format!(
                "a job on worker {worker} exited with code {}",
                c.exit_code
            ));
        }
        if c.finished < c.arrival {
            return Err(format!(
                "a job on worker {worker} finished before it arrived"
            ));
        }
        got.push((worker, c.arrival.as_micros()));
    }
    if got.len() != submitted.len() {
        return Err(format!(
            "{} jobs submitted, {} completions",
            submitted.len(),
            got.len()
        ));
    }
    submitted.sort_unstable();
    got.sort_unstable();
    match submitted.iter().zip(&got).find(|(s, g)| s != g) {
        None => Ok(()),
        Some((s, g)) => Err(format!(
            "job (worker {}, arrival {} µs) did not complete exactly once (next completion key: worker {}, arrival {} µs)",
            s.0, s.1, g.0, g.1
        )),
    }
}

/// `Ok` when every `(holds, what)` check holds, else an error naming the
/// first that does not.
pub fn require(checks: &[(bool, &str)]) -> Result<(), String> {
    match checks.iter().find(|(holds, _)| !holds) {
        None => Ok(()),
        Some((_, what)) => Err(what.to_string()),
    }
}

/// Feed one completion into an outcome digest.
pub fn digest_completion(d: &mut Digest, c: &Completion) {
    d.u64(c.arrival.as_micros())
        .u64(c.finished.as_micros())
        .u64(c.exit_code as u64);
}

/// Host microseconds of `calls` back-to-back `map_sharded` calls over
/// `items` no-op items each, ascending: the fixed cost the scheduler
/// pays at every barrier.
pub fn executor_call_us(calls: usize, items: usize) -> Vec<f64> {
    let mut us: Vec<f64> = (0..calls)
        .map(|_| {
            let inputs: Vec<u32> = (0..items as u32).collect();
            let (out, secs) = timed(|| map_sharded(inputs, || (), |(), x| std::hint::black_box(x)));
            std::hint::black_box(out);
            secs * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us
}

/// Record the executor probe's call-time percentiles.
pub fn record_executor_calls(bench: &mut Bench) {
    let us = executor_call_us(1000, 512);
    bench.record(
        "cluster.executor.call_us_p50",
        percentile(&us, 50.0).unwrap_or(0.0),
    );
    bench.record(
        "cluster.executor.call_us_p99",
        percentile(&us, 99.0).unwrap_or(0.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcon_sim::time::SimTime;

    fn done(arrival: u64, finished: u64) -> Completion {
        Completion {
            arrival: SimTime::from_micros(arrival),
            finished: SimTime::from_micros(finished),
            exit_code: 0,
        }
    }

    #[test]
    fn exactly_once_accepts_any_completion_order() {
        let (a, b, c) = (done(5, 9), done(1, 4), done(5, 7));
        let got = [(1, &a), (0, &b), (1, &c)];
        assert_eq!(
            exactly_once(vec![(0, 1), (1, 5), (1, 5)], got.into_iter()),
            Ok(())
        );
    }

    #[test]
    fn lost_duplicated_moved_or_failed_jobs_are_caught() {
        let (a, b) = (done(5, 9), done(1, 4));
        let lost = exactly_once(vec![(0, 1), (1, 5), (1, 6)], [(1, &a), (0, &b)].into_iter());
        assert!(lost
            .unwrap_err()
            .contains("3 jobs submitted, 2 completions"));
        let twice = exactly_once(vec![(0, 1), (1, 5)], [(1, &a), (1, &a)].into_iter());
        assert!(twice.unwrap_err().contains("exactly once"));
        let moved = exactly_once(vec![(0, 1), (1, 5)], [(0, &a), (0, &b)].into_iter());
        assert!(moved.is_err());
        let failed = Completion {
            exit_code: 1,
            ..done(1, 4)
        };
        let err = exactly_once(vec![(0, 1)], [(0, &failed)].into_iter()).unwrap_err();
        assert!(err.contains("exited with code 1"));
        let early = done(9, 4);
        assert!(exactly_once(vec![(0, 9)], [(0, &early)].into_iter()).is_err());
    }

    #[test]
    fn require_names_the_first_failed_check() {
        assert_eq!(require(&[(true, "a"), (true, "b")]), Ok(()));
        assert_eq!(
            require(&[(true, "a"), (false, "b"), (false, "c")]),
            Err("b".into())
        );
        assert_eq!(require(&[]), Ok(()));
    }

    #[test]
    fn node_seeds_are_distinct_and_reproducible() {
        let a = nodes(64, 7);
        assert_eq!(a.len(), 64);
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|n| n.seed).collect();
        assert_eq!(seeds.len(), 64);
        assert_eq!(
            a.iter().map(|n| n.seed).collect::<Vec<_>>(),
            nodes(64, 7).iter().map(|n| n.seed).collect::<Vec<_>>()
        );
    }
}
