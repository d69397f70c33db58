//! Regenerate every table and figure of the FlowCon paper, and front the
//! system's other experiment surfaces.
//!
//! `repro --help` prints the synopsis of every subcommand and the list of
//! paper experiments.  Both are generated from the `COMMANDS` and
//! `EXPERIMENTS` tables below, which are also what the command line is
//! parsed against: an unknown experiment or flag, a repeated flag, a
//! missing value or a stray argument is a usage error (exit 2) before
//! anything runs.  With no arguments `repro` runs every experiment.
//!
//! `repro bench` runs the fixed allocator/engine/policy/cluster micro-suite
//! and writes a machine-readable `BENCH_<date>.json` (see BENCHMARKS.md).
//! With `--check` it then compares the fresh results against the given
//! baseline file and exits non-zero on a regression (the CI perf gate).
//!
//! `repro cluster` runs one sharded cluster simulation (default 1024
//! workers, 2 jobs each) on at most `available_parallelism` OS threads and
//! prints the scale numbers.  With `--headless` the workers run a
//! `CompletionsOnly` recorder — no usage/limit traces, no label clones,
//! O(completions) memory — which is the supported way to drive 10k-worker
//! clusters (`repro cluster --workers 10240 --headless`).  Headless runs
//! go through the dense arena path.
//!
//! `repro profile` is the density harness: one headless cluster run with
//! per-stage wall time (plan build, placement, simulation), allocations
//! per stage (this binary's counting allocator), allocs/worker for the
//! simulation stage, and peak RSS (`VmHWM` from `/proc/self/status`).
//! The million-worker density numbers (`repro profile --workers 1000000`)
//! come from this subcommand.
//!
//! `repro trace` replays an arrival trace (`--file`, CSV or JSONL — see
//! the flowcon-workload crate docs for the format) or a synthetic arrival
//! process (`--synthetic`).  With `--workers 1` (default) it runs one
//! full-observability session and prints the completion table; with more
//! workers it streams per-worker plan slices off a `PlanSource` into a
//! headless cluster.  `--thin`/`--compress` subsample and time-compress a
//! trace file; `--emit PATH` writes the workload as a JSONL trace instead
//! of running it (how `traces/bursty_large.jsonl` was produced).
//!
//! `repro stream` runs **open-loop**: jobs keep arriving while the policy
//! reconfigures, pulled live from an unbounded per-worker `JobStream` — a
//! synthetic arrival process (`--synthetic`, per-worker `--rate` jobs/s)
//! or a trace file (`--file`; `--cycle` replays it cyclically, `--hints`
//! binds duration hints).  The run needs a horizon: `--until SECS`
//! (admission window in simulated seconds) and/or `--jobs N` (cap per
//! worker); admitted jobs always drain.  Output is the steady-state table:
//! arrival vs. completion rate, mean queue depth, utilization.  The
//! acceptance configuration `repro stream --synthetic poisson --workers
//! 1024 --until 3600 --headless` is committed as the
//! `stream/open_loop/w1024` bench row.
//!
//! `repro sched` runs the **online cluster scheduler**: one global manager
//! owns the seeded workload as a shared arrival stream and makes live
//! queueing/placement/preemption decisions at every `--quantum` barrier,
//! with per-node FlowCon sims underneath (`--slots` jobs per node).
//! `--policy` picks the discipline; `--compare` runs all three on the
//! same workload and prints the per-policy comparison table (makespan,
//! mean queueing delay, preemptions, migrations, utilization, and
//! p50/p95/p99 sojourn and queue-wait tails from the quantile sketches).
//! Runs are deterministic: same `--seed` ⇒ bit-identical decision log.
//! Nodes advance one after another on the calling thread.
//!
//! `repro frontier` is the capacity-planning sweep: per policy, it feeds
//! the online scheduler a cluster-wide Poisson arrival stream and climbs
//! a geometric ladder of offered rates (`--rates` overrides it with an
//! explicit strictly-increasing list), recording p50/p95/p99 sojourn and
//! queue-wait at each rung and stopping early once the completion rate
//! saturates or the time-weighted queue depth diverges — the M/G/1 view
//! of the stability frontier.  The printed table is deterministic (CI
//! diffs two runs); `--emit PATH` additionally writes the curves as
//! JSONL for plotting.  The ladder brackets the frontier by bisection to
//! within 7% before reporting it.
//!
//! `repro timeline` runs one scheduler workload with a structured tracer
//! attached (the [`flowcon_sim::trace`] flight recorder, `--capacity`
//! events) and exports the merged timeline as Chrome trace-event JSON —
//! load it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! The JSON goes to stdout unless `--out PATH`; `--summary` adds a
//! per-kind event-count table (on stderr when the JSON owns stdout, so
//! the document stays pipeable).  Exports are deterministic: the same
//! seed produces byte-identical JSON.
//! `repro sched --trace-out PATH` (single policy only) and `repro stream
//! --trace-out PATH` (single-worker full-observability runs) write the
//! same format alongside their normal tables.
//!
//! `repro fidelity` is the **differential sim↔rt harness**: the identical
//! seeded workload runs through the fluid simulation (reference) and the
//! `flowcon-rt` wall-clock backend (candidate, real OS threads behind the
//! same `Session` builder surface), per-job records are aligned by label,
//! and the divergence is reported — completion-set equality, completion-
//! order edit distance, the per-job sojourn-ratio distribution
//! (p50/p95/p99/min/max through a quantile sketch), and the makespan
//! ratio.  `--workers N` is the node capacity in cores, `--dilation D`
//! compresses D sim-seconds into each wall second on the rt side.
//! `--chaos` makes a scenario *physically real* on the rt side only
//! (straggler = one governor throttled to 25%, churn = a container thread
//! killed and relaunched): the run must still complete every job (exit 0)
//! while the report shows nonzero divergence.  `--emit PATH` writes the
//! report as JSONL.  Exits 2 when divergence breaches tolerance (or the
//! chaos-surviving completion-set invariant fails).
//!
//! Output: paper-style tables and ASCII charts on stdout; CSV artifacts
//! under `target/experiments/`.  Exit codes: 0 on success, 1 when the
//! bench gate fails, 2 on a usage or I/O error (`error: ...` and the
//! command's synopsis on stderr).

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use flowcon_bench::experiments::{
    ablation, default_node, fig1, fixed, random, scale, DEFAULT_SEED,
};
use flowcon_bench::perf;
use flowcon_bench::report::{completion_table, section, write_csv};
use flowcon_cluster::{
    ClusterSession, ClusterSessionBuilder, PolicyKind, QueueKind, Sched, SchedPolicyKind,
};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_dl::models::{ModelSpec, TABLE1_MODELS};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::chart::{bar_chart, line_chart};
use flowcon_metrics::export::{completions_csv, series_csv, text_table, to_csv, write_artifact};
use flowcon_metrics::summary::RunSummary;
use flowcon_metrics::tracelog;
use flowcon_sim::time::SimDuration;
use flowcon_sim::trace::{FlightRecorder, TraceEvent, DEFAULT_CAPACITY};
use flowcon_workload::{ArrivalTrace, BoundTrace, TraceCatalog};

/// Counting allocator so `repro bench` can report allocs/op.
///
/// Counting is off by default and enabled only by the `bench` subcommand,
/// so figure-reproduction runs (parallel, allocation-heavy) don't pay a
/// contended atomic per allocation for a counter nobody reads.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

fn count_if_enabled() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_enabled();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_enabled();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_enabled();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "help") || argv.iter().any(|a| a == "--help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let first = argv.first().map(String::as_str);
    let (synopsis, outcome) = match COMMANDS.iter().find(|c| Some(c.name) == first) {
        Some(cmd) => (
            cmd.synopsis(7),
            Args::parse(cmd.flags, &argv[1..]).and_then(|args| (cmd.run)(&args)),
        ),
        None => (EXPERIMENTS_SYNOPSIS.into(), run_experiments(&argv)),
    };
    // The one error path: every usage and I/O error lands here.
    outcome.unwrap_or_else(|msg| {
        eprintln!("error: {msg}\nusage: {synopsis}\n(`repro --help` lists every command)");
        ExitCode::from(2)
    })
}

// ---------------------------------------------------------------------------
// The command table and the argument layer
// ---------------------------------------------------------------------------

/// A handler's verdict: the exit code, or a usage or I/O error message
/// that `main` reports together with the command's synopsis (exit 2).
type Outcome = Result<ExitCode, String>;

/// One `repro` subcommand.
struct Command {
    name: &'static str,
    /// Every flag the command accepts, in usage form: `--name VALUE` takes
    /// a value, a bare `--name` is a switch.  Anything else is an error.
    flags: &'static str,
    run: fn(&Args) -> Outcome,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "bench",
        flags: "--out FILE --check BASELINE.json",
        run: run_bench,
    },
    Command {
        name: "cluster",
        flags: "--workers N --jobs J --seed S --headless",
        run: run_cluster,
    },
    Command {
        name: "profile",
        flags: "--workers N --jobs J --seed S",
        run: run_profile,
    },
    Command {
        name: "trace",
        flags: "--file PATH --synthetic {poisson,bursty,diurnal} --jobs N --rate R --seed S \
                --workers N --policy {flowcon,na} --thin P --compress X --emit PATH",
        run: run_trace,
    },
    Command {
        name: "stream",
        flags: "--synthetic {poisson,bursty,diurnal} --file PATH --cycle --until SECS --jobs N \
                --rate R --seed S --workers N --policy {flowcon,na} --headless --hints \
                --trace-out PATH",
        run: run_stream,
    },
    Command {
        name: "sched",
        flags: "--policy {fifo,gandiva,tiresias} --compare --workers N --jobs J --seed S \
                --quantum SECS --slots K --trace-out PATH",
        run: run_sched,
    },
    Command {
        name: "frontier",
        flags: "--policy {fifo,gandiva,tiresias} --compare --workers N --jobs J --seed S \
                --quantum SECS --slots K --rates R1,R2,... --emit PATH",
        run: run_frontier,
    },
    Command {
        name: "timeline",
        flags: "--policy {fifo,gandiva,tiresias} --workers N --jobs J --seed S --quantum SECS \
                --slots K --capacity N --out PATH --summary",
        run: run_timeline,
    },
    Command {
        name: "fidelity",
        flags: "--workers N --jobs J --seed S --dilation D --chaos {straggler,churn} --emit PATH",
        run: run_fidelity,
    },
];

/// The flags of a [`Command::flags`] spec as `(name, value placeholder)`
/// pairs; a `None` placeholder marks a switch.
fn flags(spec: &'static str) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
    let mut words = spec.split_whitespace().peekable();
    std::iter::from_fn(move || {
        let name = words.next()?;
        Some((name, words.next_if(|w| !w.starts_with("--"))))
    })
}

impl Command {
    /// `repro NAME [--flag VALUE] ...`, for a first line that starts at
    /// column `margin`.
    fn synopsis(&self, margin: usize) -> String {
        let flags = flags(self.flags).map(|(name, value)| match value {
            Some(v) => format!("[{name} {v}]"),
            None => format!("[{name}]"),
        });
        let head = format!("repro {}", self.name);
        let indent = margin + head.len() + 1;
        wrap(std::iter::once(head).chain(flags), margin, indent)
    }
}

/// Lay `words` out space-separated from column `col`, breaking lines
/// before column 80 and indenting continuation lines by `indent`.
fn wrap(words: impl IntoIterator<Item = String>, mut col: usize, indent: usize) -> String {
    let mut out = String::new();
    for word in words {
        if !out.is_empty() {
            if col + 1 + word.len() > 80 {
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                col = indent;
            } else {
                out.push(' ');
                col += 1;
            }
        }
        col += word.len();
        out.push_str(&word);
    }
    out
}

/// The `repro --help` text, built from the two tables.
fn usage() -> String {
    let mut out = format!("usage: {EXPERIMENTS_SYNOPSIS}\n");
    for cmd in COMMANDS {
        out += &format!("       {}\n", cmd.synopsis(7));
    }
    out += "       repro help | --help\n\nexperiments (default: all):\n  ";
    let names = EXPERIMENTS
        .iter()
        .map(|Experiment(name, ..)| name.to_string());
    out += &wrap(names.chain(["all".to_string()]), 2, 2);
    out + "\n"
}

/// A subcommand's arguments, checked against its flag table.
struct Args {
    spec: &'static str,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parse `argv` against the flag `spec`, rejecting unknown flags, repeated
    /// flags, missing values and positional arguments.
    fn parse(spec: &'static str, argv: &[String]) -> Result<Args, String> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let Some((name, value)) = flags(spec).find(|(name, _)| name == arg) else {
                return Err(if arg.starts_with('-') {
                    format!("unknown flag {arg}")
                } else {
                    format!("unexpected argument {arg}")
                });
            };
            if given.iter().any(|(n, _)| *n == name) {
                return Err(format!("{name} given twice"));
            }
            // A flag in the value position means the value was forgotten:
            // taking the flag as the value would e.g. let a CI script run
            // `bench --check` with the baseline missing and gate nothing.
            let value = match value {
                None => None,
                Some(_) => match argv.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("{name} requires a value")),
                },
            };
            given.push((name, value));
        }
        Ok(Args { spec, given })
    }

    fn lookup(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            flags(self.spec).any(|(n, _)| n == name),
            "{name} is not in the command's flag table"
        );
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether switch (or value flag) `name` was given.
    fn has(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.lookup(name)?.as_deref()
    }

    /// `name`'s value through `parse`; a value it rejects is a usage error
    /// saying the flag `wants` something else.
    fn parse_with<T>(
        &self,
        name: &str,
        wants: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| parse(v).ok_or_else(|| format!("{name} wants {wants}, got {v}")))
            .transpose()
    }

    fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.parse_with(name, "a number", |v| v.parse().ok())
    }

    /// A count of workers, jobs, slots, ... (an unsigned integer, whose
    /// `Default` is zero): a zero is almost always a typo'd or miscomputed
    /// script variable, and running an empty workload "successfully" would
    /// hide it.
    fn count<T: FromStr + Default + PartialEq>(&self, name: &str) -> Result<Option<T>, String> {
        match self.num(name)? {
            Some(n) if n == T::default() => Err(format!("{name} must be at least 1")),
            n => Ok(n),
        }
    }

    /// A positive finite real, `default` when absent.
    fn positive(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.num(name)?.unwrap_or(default) {
            v if v.is_finite() && v > 0.0 => Ok(v),
            _ => Err(format!("{name} must be a positive finite number")),
        }
    }

    /// Reject any of `flags` unless `allowed`: a mode-specific flag
    /// silently ignored in the wrong mode would report results for the
    /// wrong workload.
    fn only_with(&self, flags: &[&str], allowed: bool, mode: &str) -> Result<(), String> {
        match flags.iter().find(|f| !allowed && self.has(f)) {
            Some(flag) => Err(format!("{flag} only applies to {mode}")),
            None => Ok(()),
        }
    }

    /// `--policy {flowcon,na}`: the node-level policy (default FlowCon).
    fn node_policy(&self) -> Result<PolicyKind, String> {
        let policy = self.parse_with("--policy", "flowcon or na", |v| match v {
            "flowcon" => Some(PolicyKind::FlowCon(FlowConConfig::default())),
            "na" => Some(PolicyKind::Baseline),
            _ => None,
        })?;
        Ok(policy.unwrap_or(PolicyKind::FlowCon(FlowConConfig::default())))
    }

    /// The `--file PATH | --synthetic NAME` choice `trace` and `stream`
    /// both require exactly one of.
    fn file_or_synthetic(&self) -> Result<(Option<&str>, Option<&str>), String> {
        let (file, synthetic) = (self.value("--file"), self.value("--synthetic"));
        if file.is_some() == synthetic.is_some() {
            return Err("exactly one of --file PATH or --synthetic NAME is required".into());
        }
        Ok((file, synthetic))
    }
}

// ---------------------------------------------------------------------------
// The experiment table
// ---------------------------------------------------------------------------

const EXPERIMENTS_SYNOPSIS: &str = "repro [EXPERIMENT ...]";

/// A paper experiment: its name, whether `all` runs it, and its body.
/// Paired figures (fig8, fig11, fig14, fig16) print alongside their
/// partner, so `all` skips them.
struct Experiment(&'static str, bool, fn());

/// In `all` order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment("table1", true, table1),
    Experiment("fig1", true, run_fig1),
    Experiment("fig3", true, || {
        fixed_sweep("Fig. 3 (alpha=5%, itval sweep)", fixed::fig3, "fig3")
    }),
    Experiment("fig4", true, || {
        fixed_sweep("Fig. 4 (alpha=10%, itval sweep)", fixed::fig4, "fig4")
    }),
    Experiment("fig5", true, || {
        fixed_sweep("Fig. 5 (itval=20, alpha sweep)", fixed::fig5, "fig5")
    }),
    Experiment("fig6", true, || {
        fixed_sweep("Fig. 6 (itval=30, alpha sweep)", fixed::fig6, "fig6")
    }),
    Experiment("table2", true, table2),
    Experiment("fig7", true, fig7_fig8),
    Experiment("fig8", false, fig7_fig8),
    Experiment("fig9", true, fig9),
    Experiment("fig10", true, fig10_fig11),
    Experiment("fig11", false, fig10_fig11),
    Experiment("fig12", true, || fig12_fig15_fig16(false)),
    Experiment("fig13", true, fig13_fig14),
    Experiment("fig14", false, fig13_fig14),
    Experiment("fig15", true, || fig12_fig15_fig16(true)),
    Experiment("fig16", false, || fig12_fig15_fig16(true)),
    Experiment("fig17", true, fig17),
    Experiment("ablation-backoff", true, ablation_backoff),
    Experiment("ablation-beta", true, ablation_beta),
    Experiment("ablation-kappa", true, ablation_kappa),
    Experiment("ablation-policies", true, ablation_policies),
    Experiment("ablation-resource", true, ablation_resource),
];

/// `repro [EXPERIMENT ...]`: every name is resolved before anything runs,
/// so a typo runs nothing.  `all` anywhere (or no name) runs the lot.
fn run_experiments(names: &[String]) -> Outcome {
    let find = |name: &str| EXPERIMENTS.iter().find(|Experiment(n, ..)| *n == name);
    if let Some(bad) = names.iter().find(|n| *n != "all" && find(n).is_none()) {
        return Err(format!("unknown experiment or command {bad}"));
    }
    let wanted: Vec<&Experiment> = if names.is_empty() || names.iter().any(|n| n == "all") {
        EXPERIMENTS
            .iter()
            .filter(|Experiment(_, in_all, _)| *in_all)
            .collect()
    } else {
        names.iter().filter_map(|n| find(n)).collect()
    };
    for Experiment(_, _, run) in wanted {
        run();
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// `repro bench`: run the micro-suite, print a table, write the
/// machine-readable trajectory file, and — with `--check` — gate the fresh
/// numbers against a committed baseline.
fn run_bench(args: &Args) -> Outcome {
    let today = perf::today_utc();
    let out_path = args
        .value("--out")
        .map_or_else(|| format!("BENCH_{today}.json"), str::to_string);
    // Resolve (and stat) the baseline up front: a bad gate invocation must
    // fail before the suite spends its ~15 s, not after.
    let check_path = args.value("--check");
    if let Some(p) = check_path.filter(|p| !std::path::Path::new(p).is_file()) {
        return Err(format!("cannot read baseline {p}: not a file"));
    }
    let mode = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };

    section(&format!("Perf micro-suite ({mode})"));
    COUNTING.store(true, Ordering::Relaxed);
    let counter = || ALLOCATIONS.load(Ordering::Relaxed);
    let results = perf::run_micro_suite(Some(&counter));
    COUNTING.store(false, Ordering::Relaxed);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.1}", r.ns_per_op),
                r.allocs_per_op.map_or("-".into(), |a| format!("{a:.2}")),
                r.events_per_sec.map_or("-".into(), |e| format!("{e:.0}")),
            ]
        })
        .collect();
    print_table(&["benchmark", "ns/op", "allocs/op", "events/s"], &rows);

    // Headline ratios at n=64: warm scratch vs the seed (v0) allocator and
    // vs today's cold allocating wrapper.
    let ns_of = |name: &str| results.iter().find(|r| r.name == name).map(|r| r.ns_per_op);
    if let (Some(seed), Some(cold), Some(warm)) = (
        ns_of("waterfill/seed/n64"),
        ns_of("waterfill/cold/n64"),
        ns_of("waterfill/warm/n64"),
    ) {
        if warm > 0.0 {
            println!(
                "waterfill n=64: warm scratch is {:.2}x faster than the seed (v0) and {:.2}x faster than the cold path",
                seed / warm,
                cold / warm
            );
        }
    }

    write_artifact(&out_path, &perf::to_json(&results, &today, mode))?;
    println!("wrote {out_path}");
    match check_path {
        Some(baseline_path) => check_gate(&results, baseline_path, mode),
        None => Ok(ExitCode::SUCCESS),
    }
}

/// The CI perf gate: compare fresh results against `baseline_path`, print
/// the verdict, and exit 1 on any violation.
fn check_gate(results: &[perf::PerfResult], baseline_path: &str, mode: &str) -> Outcome {
    section(&format!("Bench regression gate vs {baseline_path}"));
    if mode != "release" {
        eprintln!("warning: gating {mode} numbers against a committed (release) baseline");
    }
    let doc = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = perf::parse_results(&doc)
        .ok_or_else(|| format!("{baseline_path} is not a flowcon-bench/v1 document"))?;
    let violations = perf::check_regression(results, &baseline);
    if violations.is_empty() {
        println!(
            "gate passed: no warm-path allocations, no events/s regression > {:.0}%, no allocs/op growth > {:.0}% vs {} baseline rows",
            100.0 * perf::EVENTS_REGRESSION_TOLERANCE,
            100.0 * perf::ALLOCS_REGRESSION_TOLERANCE,
            baseline.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    for v in &violations {
        eprintln!("REGRESSION: {v}");
    }
    eprintln!("bench gate FAILED with {} violation(s)", violations.len());
    Ok(ExitCode::from(1))
}

/// `repro cluster`: one sharded cluster run — N workers on at most
/// `available_parallelism` OS threads.
///
/// Defaults (2 jobs/worker, plan seed [`perf::CLUSTER_BENCH_PLAN_SEED`],
/// node seed [`perf::CLUSTER_BENCH_NODE_SEED`]) replicate the
/// `cluster/sharded/w<N>` (or, with `--headless`, `cluster/headless/w<N>`)
/// bench case exactly, so any committed `BENCH_*.json` point can be
/// reproduced by hand; `--seed` reseeds the workload plan.
fn run_cluster(args: &Args) -> Outcome {
    use flowcon_cluster::executor;
    use flowcon_core::recorder::FullRecorder;
    use flowcon_metrics::summary::makespan_over;

    let workers: usize = args.count("--workers")?.unwrap_or(1024);
    let jobs: usize = args.count("--jobs")?.unwrap_or(2 * workers);
    let seed = args.num("--seed")?.unwrap_or(perf::CLUSTER_BENCH_PLAN_SEED);
    let headless = args.has("--headless");

    let shards = executor::shard_count(workers);
    let (mode, recorder) = if headless {
        ("headless", "CompletionsOnly")
    } else {
        ("full", "FullRecorder")
    };
    section(&format!(
        "Sharded cluster ({mode}): {workers} workers, {jobs} jobs, {shards} OS threads"
    ));
    let plan = WorkloadPlan::random_n(jobs, seed);
    let node = NodeConfig::default().with_seed(perf::CLUSTER_BENCH_NODE_SEED);
    let session = || {
        ClusterSession::builder()
            .nodes(workers, node)
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .plan(plan.clone())
    };
    let start = std::time::Instant::now();
    // (placed, completed, makespan, events)
    let (placed, completed, makespan, events) = if headless {
        let run = session().build().run();
        (
            run.placements.len(),
            run.completed_jobs(),
            run.makespan_secs(),
            run.events_processed(),
        )
    } else {
        let result = session().recorder(|_| FullRecorder::new()).build().run();
        let events = result.events_processed();
        let completed = result
            .workers
            .iter()
            .map(|w| w.output.completions.len())
            .sum::<usize>();
        let makespan = makespan_over(result.workers.iter().map(|w| w.output.makespan_secs()));
        (result.placements.len(), completed, makespan, events)
    };
    let wall = start.elapsed();
    let events_per_sec = events as f64 / wall.as_secs_f64();
    print_metrics(&[
        ("workers", workers.to_string()),
        ("recorder", recorder.into()),
        ("OS threads (shards)", shards.to_string()),
        ("jobs placed", placed.to_string()),
        ("jobs completed", completed.to_string()),
        ("cluster makespan (sim s)", format!("{makespan:.1}")),
        ("events processed", events.to_string()),
        ("wall time (ms)", format!("{:.1}", wall.as_secs_f64() * 1e3)),
        ("events/s (wall)", format!("{events_per_sec:.0}")),
    ]);
    Ok(ExitCode::SUCCESS)
}

/// Peak resident set size in kiB (`VmHWM` from `/proc/self/status`), or
/// `None` off Linux.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `repro profile`: the density harness — one headless cluster run
/// clocked per stage (plan build, placement, simulation), with allocation
/// counts from the counting allocator and peak RSS from the kernel.
///
/// Defaults match `repro cluster --headless` (2 jobs/worker, the committed
/// bench seeds) at 100k workers, so the printed numbers line up with the
/// `cluster/headless/w100000` bench row.
fn run_profile(args: &Args) -> Outcome {
    use flowcon_cluster::executor;
    use std::time::Instant;

    let workers: usize = args.count("--workers")?.unwrap_or(100_000);
    let jobs: usize = args.count("--jobs")?.unwrap_or(2 * workers);
    let seed = args.num("--seed")?.unwrap_or(perf::CLUSTER_BENCH_PLAN_SEED);

    let shards = executor::shard_count(workers);
    section(&format!(
        "Density profile: {workers} workers, {jobs} jobs, {shards} OS threads"
    ));

    COUNTING.store(true, Ordering::Relaxed);
    let allocs = || ALLOCATIONS.load(Ordering::Relaxed);

    let (a0, t0) = (allocs(), Instant::now());
    let plan = WorkloadPlan::random_n(jobs, seed);
    let (plan_secs, plan_allocs) = (t0.elapsed().as_secs_f64(), allocs() - a0);

    // Session construction (the per-worker NodeConfig vector) is part of
    // standing the cluster up, so it bills the placement stage.
    let (a1, t1) = (allocs(), Instant::now());
    let node = NodeConfig::default().with_seed(perf::CLUSTER_BENCH_NODE_SEED);
    let placed = ClusterSession::builder()
        .nodes(workers, node)
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .plan(plan)
        .build()
        .place();
    let (place_secs, place_allocs) = (t1.elapsed().as_secs_f64(), allocs() - a1);

    let (a2, t2) = (allocs(), Instant::now());
    let run = placed.run(QueueKind::Heap);
    let (sim_secs, sim_allocs) = (t2.elapsed().as_secs_f64(), allocs() - a2);
    COUNTING.store(false, Ordering::Relaxed);

    let per_worker = |n: u64| n as f64 / workers as f64;
    let stage_rows: Vec<Vec<String>> = [
        ("plan build", plan_secs, plan_allocs),
        ("placement", place_secs, place_allocs),
        ("simulation", sim_secs, sim_allocs),
        (
            "total",
            plan_secs + place_secs + sim_secs,
            plan_allocs + place_allocs + sim_allocs,
        ),
    ]
    .iter()
    .map(|&(name, secs, a)| {
        vec![
            name.to_string(),
            format!("{:.1}", secs * 1e3),
            a.to_string(),
            format!("{:.2}", per_worker(a)),
        ]
    })
    .collect();
    print_table(
        &["stage", "time (ms)", "allocs", "allocs/worker"],
        &stage_rows,
    );

    let events = run.events_processed();
    // allocs/worker bills the marginal cluster cost — placement +
    // simulation; the plan is the caller's input.
    let marginal = per_worker(place_allocs + sim_allocs);
    let events_per_sec = events as f64 / sim_secs;
    let rss = peak_rss_kib().map_or("-".into(), |kib| format!("{:.1}", kib as f64 / 1024.0));
    print_metrics(&[
        ("jobs completed", run.completed_jobs().to_string()),
        ("events processed", events.to_string()),
        ("events/s (wall)", format!("{events_per_sec:.0}")),
        ("allocs/worker (place + simulate)", format!("{marginal:.2}")),
        ("peak RSS (MiB)", rss),
    ]);
    Ok(ExitCode::SUCCESS)
}

/// Read, parse and bind the arrival trace at `path` through `catalog`.
fn bind_trace(path: &str, catalog: TraceCatalog) -> Result<BoundTrace, String> {
    let doc =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let trace = ArrivalTrace::parse(&doc).map_err(|e| format!("{path}: {e}"))?;
    catalog.bind(&trace).map_err(|e| format!("{path}: {e}"))
}

/// Write a recorder's timeline to `path` as Chrome trace-event JSON.
fn export_trace(path: &str, events: &[TraceEvent], dropped: u64) -> Result<(), String> {
    write_artifact(path, &tracelog::chrome_trace_json(events, dropped))?;
    println!(
        "wrote {} trace events ({dropped} dropped) to {path}",
        events.len()
    );
    Ok(())
}

/// `repro trace`: replay an arrival-trace file or a synthetic arrival
/// process end to end (see the module docs for the flags).
fn run_trace(args: &Args) -> Outcome {
    use flowcon_bench::experiments::trace as exp;
    use flowcon_workload::{SyntheticSource, TraceSource};

    let (file, synthetic) = args.file_or_synthetic()?;
    let workers: usize = args.count("--workers")?.unwrap_or(1);
    let seed = args.num("--seed")?.unwrap_or(DEFAULT_SEED);
    let emit = args.value("--emit");
    let policy = args.node_policy()?;
    let (by_file, by_synthetic) = (file.is_some(), synthetic.is_some());
    args.only_with(&["--thin", "--compress"], by_file, "--file workloads")?;
    args.only_with(&["--jobs", "--rate"], by_synthetic, "--synthetic workloads")?;
    // Cluster replays are headless: bind without labels so streaming a
    // 10k-worker cluster allocates no label strings.  Emission always
    // keeps labels — a transformed trace must not lose its job ids.
    let labeled = workers == 1 || emit.is_some();

    // Resolve the workload: a bound trace (file) or a synthetic template
    // (materialized only where a whole plan is actually needed).
    enum Load {
        File(BoundTrace),
        Synthetic(flowcon_workload::Synthetic),
    }
    let (what, load) = if let Some(path) = file {
        let mut catalog = TraceCatalog::table1();
        if let Some(keep) = args.num("--thin")? {
            catalog = catalog.thin(keep, seed);
        }
        if let Some(factor) = args.num("--compress")? {
            catalog = catalog.compress(factor);
        }
        if !labeled {
            catalog = catalog.unlabeled();
        }
        let bound = bind_trace(path, catalog)?;
        (format!("trace {path}"), Load::File(bound))
    } else {
        let jobs = args.count("--jobs")?.unwrap_or(50);
        let rate = args.num("--rate")?.unwrap_or(0.1);
        let name = synthetic.expect("checked above");
        let template = exp::preset(name, rate, jobs, seed)
            .ok_or_else(|| format!("--synthetic wants poisson, bursty or diurnal, got {name}"))?;
        (
            format!("synthetic {name} (rate {rate}/s)"),
            Load::Synthetic(template),
        )
    };
    let bound = |load: &Load| match load {
        Load::File(bound) => bound.clone(),
        Load::Synthetic(template) => BoundTrace::from_plan(template.plan()),
    };

    if let Some(path) = emit {
        let bound = bound(&load);
        write_artifact(path, &bound.to_jsonl())?;
        println!("wrote {} arrivals to {path}", bound.len());
        return Ok(ExitCode::SUCCESS);
    }

    let node = NodeConfig::default().with_seed(seed);
    if workers == 1 {
        let bound = bound(&load);
        section(&format!(
            "Trace replay: {what}, 1 worker, {} jobs",
            bound.len()
        ));
        let start = std::time::Instant::now();
        let result = exp::replay_session(&bound, node, policy);
        let wall = start.elapsed();
        let labels: Vec<String> = result
            .output
            .completions
            .iter()
            .map(|c| c.label.clone())
            .collect();
        print!("{}", completion_table(&[&result.output], &labels));
        println!(
            "makespan {:.1}s, {} events, wall {:.1} ms",
            result.output.makespan_secs(),
            result.events_processed,
            wall.as_secs_f64() * 1e3
        );
        return Ok(ExitCode::SUCCESS);
    }
    section(&format!(
        "Trace replay: {what}, {workers}-worker headless cluster"
    ));
    let start = std::time::Instant::now();
    let run = match load {
        Load::File(bound) => {
            let source = TraceSource::new(bound, workers);
            exp::replay_cluster(&source, workers, node, policy)
        }
        Load::Synthetic(template) => {
            // Synthetic cluster mode streams independent per-worker
            // plans: --jobs becomes jobs per worker.
            let source =
                SyntheticSource::new(template.process, template.jobs, template.seed).unlabeled();
            exp::replay_cluster(&source, workers, node, policy)
        }
    };
    let wall = start.elapsed();
    let makespan = run.makespan_secs();
    let mean = run
        .mean_completion_secs()
        .map_or("-".into(), |m| format!("{m:.1}"));
    print_metrics(&[
        ("workers", workers.to_string()),
        ("jobs completed", run.completed_jobs().to_string()),
        ("cluster makespan (sim s)", format!("{makespan:.1}")),
        ("mean completion (sim s)", mean),
        ("events processed", run.events_processed().to_string()),
        ("wall time (ms)", format!("{:.1}", wall.as_secs_f64() * 1e3)),
    ]);
    Ok(ExitCode::SUCCESS)
}

/// `repro stream`: run an open-loop arrival stream end to end (see the
/// module docs for the flags).
fn run_stream(args: &Args) -> Outcome {
    use flowcon_bench::experiments::stream as exp;
    use flowcon_cluster::{DynStreamSource, Horizon, TraceStreamSource};
    use flowcon_sim::time::SimTime;

    let (file, synthetic) = args.file_or_synthetic()?;
    let workers: usize = args.count("--workers")?.unwrap_or(1);
    let seed = args.num("--seed")?.unwrap_or(DEFAULT_SEED);
    let policy = args.node_policy()?;
    args.only_with(&["--rate"], synthetic.is_some(), "--synthetic workloads")?;
    args.only_with(&["--cycle", "--hints"], file.is_some(), "--file workloads")?;

    // The horizon: --until (admission window, simulated seconds) and/or
    // --jobs (per-worker admission cap).  An unbounded open-loop run
    // would never terminate, so at least one is mandatory.
    let until: Option<f64> = args.num("--until")?;
    let max_jobs = args.count("--jobs")?;
    if until.is_none() && max_jobs.is_none() {
        return Err("stream needs a horizon: --until SECS and/or --jobs N".into());
    }
    let horizon = Horizon {
        until: until.map(SimTime::from_secs_f64),
        max_jobs,
    };
    // Cluster streams run headless (accepting the flag explicitly too);
    // a single worker records the full paper traces.
    let headless = workers > 1 || args.has("--headless");
    // The structured tracer rides the full-observability session; the
    // headless cluster path has no per-job identity to trace against.
    let trace_out = args.value("--trace-out");
    args.only_with(
        &["--trace-out"],
        !headless,
        "the single-worker full-observability run (use --workers 1 and drop --headless)",
    )?;

    let (what, source): (String, Box<dyn DynStreamSource>) = if let Some(name) = synthetic {
        let rate = args.num("--rate")?.unwrap_or(exp::DEFAULT_STREAM_RATE);
        let mut src = exp::stream_preset(name, rate, seed)
            .ok_or_else(|| format!("--synthetic wants poisson, bursty or diurnal, got {name}"))?;
        if headless {
            src = src.unlabeled();
        }
        (
            format!("synthetic {name} ({rate}/s per worker)"),
            Box::new(src),
        )
    } else {
        let path = file.expect("checked above");
        let mut catalog = TraceCatalog::table1();
        if args.has("--hints") {
            catalog = catalog.with_duration_hints();
        }
        if headless {
            catalog = catalog.unlabeled();
        }
        let mut src = TraceStreamSource::new(bind_trace(path, catalog)?, workers);
        let mut what = format!("trace {path}");
        if args.has("--cycle") {
            src = src.cyclic();
            what.push_str(" (cyclic)");
        }
        (what, Box::new(src))
    };

    let node = NodeConfig::default().with_seed(seed);
    let describe_horizon = {
        let mut parts = Vec::new();
        if let Some(t) = horizon.until {
            parts.push(format!("until {t}"));
        }
        if let Some(n) = horizon.max_jobs {
            parts.push(format!("{n} jobs/worker"));
        }
        parts.join(", ")
    };

    let start = std::time::Instant::now();
    let (totals, events, full) = if workers == 1 && !headless {
        let stream = source.dyn_stream_for(0);
        let result = match trace_out {
            Some(path) => {
                let mut recorder = FlightRecorder::with_capacity(DEFAULT_CAPACITY);
                let result =
                    exp::stream_session_traced(stream, horizon, node, policy, &mut recorder);
                export_trace(path, &recorder.events(), recorder.dropped())?;
                result
            }
            None => exp::stream_session(stream, horizon, node, policy),
        };
        (result.stream, result.events_processed, Some(result.output))
    } else {
        let run = exp::stream_cluster(&*source, workers, horizon, node, policy);
        (run.stream_totals(), run.events_processed(), None)
    };
    let wall = start.elapsed();

    section(&format!(
        "Open-loop stream: {what}, {workers} worker{}, {describe_horizon}",
        if workers == 1 { "" } else { "s" }
    ));
    if let Some(summary) = &full {
        // List completions positionally, not by label lookup: a cyclic
        // replay legitimately admits the same label several times, and a
        // by-label table would repeat the first instance's time.
        let rows: Vec<Vec<String>> = summary
            .completions
            .iter()
            .map(|c| {
                vec![
                    c.label.clone(),
                    format!("{:.1}", c.arrival.as_secs_f64()),
                    format!("{:.1}", c.completion_secs()),
                ]
            })
            .collect();
        print_table(
            &["job (exit order)", "arrival (s)", "completion (s)"],
            &rows,
        );
    }
    print_stream_stats(&totals, events, wall);
    Ok(ExitCode::SUCCESS)
}

/// The scheduler workload `sched`, `frontier` and `timeline` share:
/// `--workers --jobs --seed --slots --quantum --policy`.
struct SchedWorkload {
    workers: usize,
    jobs: usize,
    seed: u64,
    slots: usize,
    quantum: f64,
    policy: SchedPolicyKind,
}

impl SchedWorkload {
    /// Parse the shared flags; `--jobs` defaults to `jobs_per_node` per
    /// node.
    fn parse(args: &Args, jobs_per_node: usize) -> Result<Self, String> {
        let workers = args.count("--workers")?.unwrap_or(16);
        Ok(SchedWorkload {
            workers,
            jobs: args.count("--jobs")?.unwrap_or(jobs_per_node * workers),
            seed: args.num("--seed")?.unwrap_or(perf::CLUSTER_BENCH_PLAN_SEED),
            slots: args.count("--slots")?.unwrap_or(2),
            quantum: args.positive("--quantum", 10.0)?,
            policy: args
                .parse_with(
                    "--policy",
                    "fifo, gandiva or tiresias",
                    SchedPolicyKind::parse,
                )?
                .unwrap_or(SchedPolicyKind::Fifo),
        })
    }

    /// Every discipline under `--compare`, else the `--policy` one.
    fn kinds(&self, compare: bool) -> Vec<SchedPolicyKind> {
        if compare {
            SchedPolicyKind::ALL.to_vec()
        } else {
            vec![self.policy]
        }
    }

    /// A scheduled session of this workload under discipline `kind`.
    fn session(&self, kind: SchedPolicyKind) -> ClusterSessionBuilder<'static, Sched> {
        let node = NodeConfig::default().with_seed(perf::CLUSTER_BENCH_NODE_SEED);
        ClusterSession::builder()
            .nodes(self.workers, node)
            .policy(PolicyKind::FlowCon(FlowConConfig::default()))
            .plan(WorkloadPlan::random_n(self.jobs, self.seed))
            .scheduler(kind)
            .quantum(SimDuration::from_secs_f64(self.quantum))
            .slots_per_node(self.slots)
    }
}

/// `repro sched`: run the online cluster scheduler over a seeded random
/// workload and print the per-policy outcome table (see the module docs
/// for the flags).
fn run_sched(args: &Args) -> Outcome {
    let w = SchedWorkload::parse(args, 4)?;
    let compare = args.has("--compare");
    let trace_out = args.value("--trace-out");
    if trace_out.is_some() && compare {
        return Err(
            "--trace-out records one run's timeline; drop --compare or pick one --policy".into(),
        );
    }
    section(&format!(
        "Online cluster scheduler: {} nodes x {} slots, {} jobs, {:.0}s quantum",
        w.workers, w.slots, w.jobs, w.quantum
    ));
    let rows = w
        .kinds(compare)
        .into_iter()
        .map(|kind| {
            let builder = w.session(kind);
            let out = match trace_out {
                None => builder.build().run(),
                Some(path) => {
                    let (out, recorder) = builder
                        .tracer(FlightRecorder::with_capacity(DEFAULT_CAPACITY))
                        .build()
                        .run_traced();
                    export_trace(path, &recorder.events(), recorder.dropped())?;
                    out
                }
            };
            assert_eq!(
                out.completed_jobs(),
                out.submitted,
                "{} lost jobs",
                out.policy
            );
            // Every column is simulated-time derived, so the table is
            // bit-identical across runs — the determinism the acceptance
            // check diffs on.
            Ok(vec![
                out.policy.to_string(),
                format!("{:.1}", out.makespan_secs()),
                format!("{:.1}", out.mean_queueing_delay_secs()),
                out.completed_jobs().to_string(),
                out.preemptions.to_string(),
                out.migrations.to_string(),
                out.algorithm_runs.to_string(),
                format!("{:.1}%", 100.0 * out.stream.utilization()),
                format!("{:.3}", out.stream.mean_queue_depth()),
                tail_cell(&out.sojourn_percentiles()),
                tail_cell(&out.queue_wait_percentiles()),
            ])
        })
        .collect::<Result<Vec<_>, String>>()?;
    print_table(
        &[
            "policy",
            "makespan (s)",
            "mean q-delay (s)",
            "done",
            "preempt",
            "migrate",
            "rounds",
            "util",
            "mean depth",
            "sojourn p50/p95/p99 (s)",
            "q-wait p50/p95/p99 (s)",
        ],
        &rows,
    );
    Ok(ExitCode::SUCCESS)
}

/// Render a p50/p95/p99 triple as one compact table cell.
fn tail_cell(p: &flowcon_metrics::sojourn::Percentiles) -> String {
    format!("{:.1}/{:.1}/{:.1}", p.p50, p.p95, p.p99)
}

/// `--rates R1,R2,...`: a non-empty, strictly increasing list of positive
/// rates.  Anything else is a script bug that would silently sweep
/// garbage (a descending ladder "finds" the frontier at its first rung).
fn parse_rates(list: &str) -> Result<Vec<f64>, String> {
    let rates = list
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("--rates wants comma-separated jobs/s values, got {s:?}"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    if rates.is_empty() {
        return Err("--rates must name at least one offered rate (jobs/s)".into());
    }
    if rates.iter().any(|&r| !r.is_finite() || r <= 0.0) {
        return Err(format!("--rates must be positive finite rates, got {list}"));
    }
    if rates.windows(2).any(|w| w[1] <= w[0]) {
        return Err(format!(
            "--rates must be strictly increasing (the sweep climbs the ladder and \
             early-stops at saturation), got {list}"
        ));
    }
    Ok(rates)
}

/// `repro frontier`: sweep offered arrival rate per policy up to the
/// stability frontier and print p50/p95/p99 sojourn vs. load (see the
/// module docs for the flags).
fn run_frontier(args: &Args) -> Outcome {
    use flowcon_bench::experiments::frontier;

    let w = SchedWorkload::parse(args, 16)?;
    let config = frontier::FrontierConfig {
        nodes: w.workers,
        slots_per_node: w.slots,
        jobs: w.jobs,
        seed: w.seed,
        quantum: SimDuration::from_secs_f64(w.quantum),
    };
    let rates = match args.value("--rates") {
        None => frontier::default_ladder(&config),
        Some(list) => parse_rates(list)?,
    };
    let kinds = w.kinds(args.has("--compare"));

    section(&format!(
        "Capacity frontier: {} nodes x {} slots, {} jobs/rung, {:.0}s quantum, {} rung ladder",
        w.workers,
        w.slots,
        w.jobs,
        w.quantum,
        rates.len()
    ));
    let mut curves = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let curve = frontier::sweep(kind, &config, &rates);
        let rows: Vec<Vec<String>> = curve
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.4}", p.rate),
                    format!("{:.4}", p.completion_rate),
                    format!("{:.1}%", 100.0 * p.utilization),
                    format!("{:.2}", p.mean_queue_depth),
                    tail_cell(&p.sojourn),
                    tail_cell(&p.queue_wait),
                    if p.saturated { "SATURATED" } else { "stable" }.to_string(),
                ]
            })
            .collect();
        println!("policy: {}", curve.policy);
        print_table(
            &[
                "offered (jobs/s)",
                "completed (jobs/s)",
                "util",
                "mean depth",
                "sojourn p50/p95/p99 (s)",
                "q-wait p50/p95/p99 (s)",
                "verdict",
            ],
            &rows,
        );
        let frontier = match (curve.last_stable_rate(), curve.frontier_rate()) {
            (Some(lo), Some(hi)) => {
                format!(
                    "between {lo:.4} and {hi:.4} jobs/s ({:.2}x bracket)",
                    hi / lo
                )
            }
            (Some(lo), None) => format!("above {lo:.4} jobs/s (ladder exhausted while stable)"),
            (None, Some(hi)) => format!("below {hi:.4} jobs/s (first rung already saturated)"),
            (None, None) => "no rungs ran".into(),
        };
        println!("stability frontier: {frontier}");
        curves.push(curve);
    }
    if let Some(path) = args.value("--emit") {
        let doc = frontier::curves_jsonl(&curves);
        write_artifact(path, &doc)?;
        println!("wrote {} curve points to {path}", doc.lines().count());
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro timeline`: run one scheduler workload with the flight recorder
/// attached and export the merged timeline as Chrome trace-event JSON
/// (Perfetto-loadable; see the module docs for the flags).
fn run_timeline(args: &Args) -> Outcome {
    let w = SchedWorkload::parse(args, 4)?;
    let capacity = args.count("--capacity")?.unwrap_or(DEFAULT_CAPACITY);
    let out = args.value("--out");

    // Without --out the JSON document owns stdout (pipeable straight into
    // a file or a viewer), so the banner and any summary go to stderr.
    if out.is_some() {
        section(&format!(
            "Timeline: {} on {} nodes x {} slots, {} jobs, {:.0}s quantum",
            w.policy.name(),
            w.workers,
            w.slots,
            w.jobs,
            w.quantum
        ));
    }
    let (outcome, recorder) = w
        .session(w.policy)
        .tracer(FlightRecorder::with_capacity(capacity))
        .build()
        .run_traced();
    assert_eq!(
        outcome.completed_jobs(),
        outcome.submitted,
        "{} lost jobs",
        outcome.policy
    );
    let events = recorder.events();
    match out {
        Some(path) => export_trace(path, &events, recorder.dropped())?,
        None => print!(
            "{}",
            tracelog::chrome_trace_json(&events, recorder.dropped())
        ),
    }
    if args.has("--summary") {
        let rows: Vec<Vec<String>> = tracelog::kind_counts(&events)
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .map(|(kind, n)| {
                vec![
                    kind.name().to_string(),
                    kind.layer().to_string(),
                    n.to_string(),
                ]
            })
            .collect();
        let mut table = text_table(&["event", "layer", "count"], &rows);
        if let Some((first, last)) = tracelog::time_span(&events) {
            table.push_str(&format!(
                "timeline: {} events over {:.1}s of simulated time, {} dropped\n",
                events.len(),
                last.saturating_since(first).as_secs_f64(),
                recorder.dropped()
            ));
        }
        if out.is_some() {
            print!("{table}");
        } else {
            eprint!("{table}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The steady-state metrics table every `repro stream` mode prints.
fn print_stream_stats(
    s: &flowcon_metrics::stream::StreamStats,
    events: u64,
    wall: std::time::Duration,
) {
    print_metrics(&[
        ("jobs submitted", s.submitted.to_string()),
        ("jobs completed", s.completed.to_string()),
        ("run duration (sim s)", format!("{:.1}", s.duration_secs)),
        ("arrival rate (jobs/s)", format!("{:.4}", s.arrival_rate())),
        (
            "completion rate (jobs/s)",
            format!("{:.4}", s.completion_rate()),
        ),
        (
            "mean queue depth (jobs)",
            format!("{:.3}", s.mean_queue_depth()),
        ),
        ("utilization", format!("{:.1}%", 100.0 * s.utilization())),
        ("events processed", events.to_string()),
        ("wall time (ms)", format!("{:.1}", wall.as_secs_f64() * 1e3)),
    ])
}

/// Print a two-column `metric | value` table.
fn print_metrics(rows: &[(&str, String)]) {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(metric, value)| vec![metric.to_string(), value.clone()])
        .collect();
    print_table(&["metric", "value"], &rows);
}

fn print_table(header: &[&str], rows: &[Vec<String>]) {
    print!("{}", text_table(header, rows));
}

fn table1() {
    section("Table 1: Tested Deep Learning Models");
    let rows: Vec<Vec<String>> = TABLE1_MODELS
        .iter()
        .map(|&id| {
            let m = ModelSpec::of(id);
            vec![
                m.label(),
                m.eval.kind.name().to_string(),
                format!("{:?}", m.framework),
                format!("{:.0}", m.total_work),
                format!("{:.2}", m.demand),
            ]
        })
        .collect();
    print_table(
        &[
            "Model",
            "Eval. Function",
            "Platform",
            "Work (cpu-s)",
            "Demand",
        ],
        &rows,
    );
}

fn run_fig1() {
    section("Fig. 1: Training progress of five models (NA, one node)");
    let fig = fig1::run(default_node());
    let mut rows = Vec::new();
    for c in &fig.curves {
        let t90 = fig1::time_fraction_to_quality(&fig, &c.label, 0.9);
        rows.push(vec![
            c.label.clone(),
            t90.map_or("-".into(), |t| format!("{:.1}%", t * 100.0)),
        ]);
        let csv_rows: Vec<Vec<String>> = c
            .points
            .iter()
            .map(|&(t, a)| vec![c.label.clone(), format!("{t:.4}"), format!("{a:.4}")])
            .collect();
        write_csv(
            &format!("fig1_{}.csv", c.label.replace([' ', '(', ')'], "_")),
            &to_csv(&["model", "time_frac", "accuracy"], &csv_rows),
        );
    }
    print_table(&["Model", "time to 90% of final accuracy"], &rows);
    println!(
        "(makespan {:.1}s; CSVs under target/experiments/)",
        fig.makespan_secs
    );
}

fn fixed_sweep(title: &str, sweep: fn(NodeConfig) -> fixed::FixedSweep, file: &str) {
    section(title);
    let sweep = sweep(default_node());
    let labels: Vec<String> = sweep
        .baseline
        .completions
        .iter()
        .map(|c| c.label.clone())
        .collect();
    let mut runs: Vec<&RunSummary> = sweep.cells.iter().map(|c| &c.summary).collect();
    runs.push(&sweep.baseline);
    print!("{}", completion_table(&runs, &labels));
    write_csv(&format!("{file}.csv"), &completions_csv(&runs));
}

fn table2() {
    section("Table 2: Completion-time reduction of MNIST (Tensorflow)");
    let (fig4_col, fig5_col) = fixed::table2(default_node());
    let n = fig4_col.len().max(fig5_col.len());
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let left = fig4_col.get(i);
            let right = fig5_col.get(i);
            vec![
                left.map_or(String::new(), |(n, _)| n.clone()),
                left.map_or(String::new(), |(_, r)| format!("{r:.1}%")),
                right.map_or(String::new(), |(n, _)| n.clone()),
                right.map_or(String::new(), |(_, r)| format!("{r:.1}%")),
            ]
        })
        .collect();
    print_table(
        &[
            "alpha,itval (Fig.4)",
            "Reduction",
            "alpha,itval (Fig.5)",
            "Reduction",
        ],
        &rows,
    );
    let csv_rows: Vec<Vec<String>> = fig4_col
        .iter()
        .chain(fig5_col.iter())
        .map(|(name, red)| vec![name.clone(), format!("{red:.2}")])
        .collect();
    write_csv(
        "table2.csv",
        &to_csv(&["setting", "reduction_pct"], &csv_rows),
    );
}

fn cpu_chart(title: &str, summary: &RunSummary, file: &str) {
    section(title);
    let series: Vec<(&str, &flowcon_metrics::TimeSeries)> = summary.cpu_usage.iter().collect();
    print!("{}", line_chart("CPU usage", &series, Some(1.0), 100, 14));
    write_csv(
        &format!("{file}.csv"),
        &series_csv("cpu_usage", &summary.cpu_usage),
    );
}

fn fig7_fig8() {
    let (fc, na) = fixed::fig7_fig8(default_node());
    cpu_chart(
        "Fig. 7: CPU usage, FlowCon (alpha=5%, itval=20, 3 jobs)",
        &fc,
        "fig7",
    );
    cpu_chart("Fig. 8: CPU usage, NA (3 jobs)", &na, "fig8");
}

fn fig9() {
    section("Fig. 9: Five jobs, random submission");
    let cmp = random::fig9(default_node(), DEFAULT_SEED);
    let labels = cmp.labels();
    let mut runs: Vec<&RunSummary> = cmp.flowcon.iter().collect();
    runs.push(&cmp.baseline);
    print!("{}", completion_table(&runs, &labels));
    for (policy, wins, losses) in cmp.win_loss_rows() {
        println!("{policy}: {wins} wins / {losses} losses vs NA");
    }
    write_csv("fig9.csv", &completions_csv(&runs));
}

fn fig10_fig11() {
    let (fc, na) = random::fig10_fig11(default_node(), DEFAULT_SEED);
    cpu_chart(
        "Fig. 10: CPU usage, FlowCon (alpha=3%, itval=30, 5 jobs)",
        &fc,
        "fig10",
    );
    cpu_chart("Fig. 11: CPU usage, NA (5 jobs)", &na, "fig11");
}

fn fig12_fig15_fig16(charts: bool) {
    let cmp = scale::fig12(default_node(), DEFAULT_SEED);
    if charts {
        cpu_chart(
            "Fig. 15: CPU usage, FlowCon (alpha=10%, itval=20, 10 jobs)",
            &cmp.flowcon,
            "fig15",
        );
        cpu_chart("Fig. 16: CPU usage, NA (10 jobs)", &cmp.baseline, "fig16");
        return;
    }
    section("Fig. 12: Ten jobs, random submission (FlowCon-10%-20 vs NA)");
    let labels = cmp.labels();
    let runs = [&cmp.flowcon, &cmp.baseline];
    print!("{}", completion_table(&runs, &labels));
    let (wins, losses) = cmp.wins_losses();
    println!("FlowCon wins {wins} / loses {losses} of 10 jobs");
    if let Some((job, red)) = cmp.biggest_winner() {
        println!("largest improvement: {job} ({red:.1}%)");
    }
    write_csv("fig12.csv", &completions_csv(&runs));
}

fn fig13_fig14() {
    let cmp = scale::fig12(default_node(), DEFAULT_SEED);
    let (loser, winner) = cmp.exemplars();
    for (figure, job, file) in [("Fig. 13", &loser, "fig13"), ("Fig. 14", &winner, "fig14")] {
        section(&format!(
            "{figure}: Growth efficiency of {job} (FlowCon vs NA)"
        ));
        let empty = flowcon_metrics::TimeSeries::new();
        let fc = cmp.flowcon.growth_efficiency.get(job).unwrap_or(&empty);
        let na = cmp.baseline.growth_efficiency.get(job).unwrap_or(&empty);
        print!(
            "{}",
            line_chart(
                "Growth efficiency",
                &[("FlowCon", fc), ("NA", na)],
                None,
                100,
                12
            )
        );
        write_csv(
            &format!("{file}.csv"),
            &series_csv("growth", &cmp.flowcon.growth_efficiency),
        );
    }
}

fn fig17() {
    section("Fig. 17: Fifteen jobs, random submission (FlowCon-10%-40 vs NA)");
    let cmp = scale::fig17(default_node(), DEFAULT_SEED);
    let labels = cmp.labels();
    let runs = [&cmp.flowcon, &cmp.baseline];
    print!("{}", completion_table(&runs, &labels));
    let (wins, losses) = cmp.wins_losses();
    println!("FlowCon wins {wins} / loses {losses} of 15 jobs");
    write_csv("fig17.csv", &completions_csv(&runs));
}

fn ablation_backoff() {
    section("Ablation: exponential back-off");
    let ab = ablation::backoff(default_node());
    print_table(
        &["variant", "algorithm runs", "makespan (s)"],
        &[
            vec![
                "back-off on".into(),
                ab.runs_with.to_string(),
                format!("{:.1}", ab.makespan_with),
            ],
            vec![
                "back-off off".into(),
                ab.runs_without.to_string(),
                format!("{:.1}", ab.makespan_without),
            ],
        ],
    );
}

fn ablation_beta() {
    section("Ablation: beta lower-bound sweep (5 random jobs)");
    let rows = ablation::beta_sweep(default_node(), DEFAULT_SEED, &[1.0, 2.0, 4.0, 8.0]);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(b, makespan, worst)| {
            vec![
                format!("{b}"),
                format!("{makespan:.1}"),
                format!("{worst:.1}%"),
            ]
        })
        .collect();
    print_table(
        &["beta", "makespan (s)", "worst per-job reduction"],
        &table_rows,
    );
}

fn ablation_kappa() {
    section("Ablation: contention coefficient sweep (fixed schedule)");
    let rows = ablation::kappa_sweep(default_node(), &[0.0, 0.01, 0.02, 0.05, 0.10]);
    let bars: Vec<(String, f64)> = rows
        .iter()
        .map(|(k, imp)| (format!("kappa={k}"), imp.max(0.0)))
        .collect();
    print!(
        "{}",
        bar_chart("makespan improvement vs NA (%)", &bars, "%", 40)
    );
    for (k, imp) in rows {
        println!("kappa={k}: {imp:+.2}%");
    }
}

fn ablation_resource() {
    section("Ablation: growth efficiency per resource kind (Eq. 2)");
    let rows = ablation::resource_sweep(default_node(), DEFAULT_SEED);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(res, makespan, wins)| {
            vec![
                res.clone(),
                format!("{makespan:.1}"),
                format!("{wins} of 5"),
            ]
        })
        .collect();
    print_table(
        &["driving resource", "makespan (s)", "wins vs NA"],
        &table_rows,
    );
}

fn ablation_policies() {
    section("Ablation: policy zoo (5 random jobs)");
    let rows = ablation::policy_zoo(default_node(), DEFAULT_SEED);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, makespan, mean)| {
            vec![name.clone(), format!("{makespan:.1}"), format!("{mean:.1}")]
        })
        .collect();
    print_table(
        &["policy", "makespan (s)", "mean completion (s)"],
        &table_rows,
    );
}

/// `repro fidelity`: run the identical seeded workload through the fluid
/// simulation and the wall-clock rt backend, align per-job records, report
/// the divergence, and exit 2 on tolerance breach (see the module docs).
fn run_fidelity(args: &Args) -> Outcome {
    use flowcon_bench::experiments::fidelity::{self, ChaosKind, FidelityConfig};
    use flowcon_metrics::export::JsonValue::{Bool, Int, Num, Str};
    use flowcon_metrics::fidelity::FidelityTolerance;

    let workers: u32 = args.count("--workers")?.unwrap_or(2);
    let jobs: usize = args.count("--jobs")?.unwrap_or(8);
    let seed = args.num("--seed")?.unwrap_or(DEFAULT_SEED);
    let dilation = args.positive("--dilation", 400.0)?;
    let chaos = args.parse_with("--chaos", "straggler or churn", |v| match v {
        "straggler" => Some(ChaosKind::Straggler),
        "churn" => Some(ChaosKind::Churn),
        _ => None,
    })?;

    let config = FidelityConfig {
        workers,
        jobs,
        seed,
        dilation,
        chaos,
    };
    let chaos_name = chaos.map_or("none", ChaosKind::name);
    println!("Differential fidelity: sim (reference) vs rt (candidate)");
    println!(
        "workload: {jobs} jobs, seed {seed:#x}, {workers}-core node, dilation {dilation:.0}x, chaos {chaos_name}"
    );

    let outcome = fidelity::run(&config);
    let report = &outcome.report;
    println!("policy: {}", outcome.policy);
    if report.completion_set_equal {
        println!(
            "completion set: equal ({}/{} jobs)",
            report.matched, report.reference_jobs
        );
    } else {
        println!(
            "completion set: DIVERGED ({} sim jobs, {} rt jobs; missing {:?}, extra {:?})",
            report.reference_jobs,
            report.candidate_jobs,
            report.missing_labels,
            report.extra_labels
        );
    }
    println!(
        "completion-order edit distance: {}",
        report.order_edit_distance
    );
    let (p50, p95, p99, rmin, rmax) = match report.sojourn_ratio_percentiles() {
        Some(p) => (
            p.p50,
            p.p95,
            p.p99,
            report.sojourn_ratios.quantile(0.0).unwrap_or(f64::NAN),
            report.sojourn_ratios.quantile(1.0).unwrap_or(f64::NAN),
        ),
        None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN),
    };
    println!(
        "sojourn ratio (rt/sim): p50 {p50:.3}  p95 {p95:.3}  p99 {p99:.3}  min {rmin:.3}  max {rmax:.3}"
    );
    println!(
        "makespan ratio (rt/sim): {:.3} (sim {:.1}s, rt {:.1}s)",
        report.makespan_ratio(),
        report.makespan_reference,
        report.makespan_candidate
    );
    if report.divergent() {
        println!(
            "divergence: nonzero (order distance {}, sojourn p50 {p50:.3}, makespan ratio {:.3})",
            report.order_edit_distance,
            report.makespan_ratio()
        );
    } else {
        println!("divergence: none");
    }

    // A node of C cores can only run in real time if the host actually has
    // C cores free: on an oversubscribed host the wall run is legitimately
    // ~C/nproc slower than the fluid model, with no divergence of the
    // *control* behaviour.  Widen the upper ratio bands by that physical
    // floor so the gate measures fidelity, not host size.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let oversub = (f64::from(workers) / host_cores).max(1.0);
    let base = FidelityTolerance::default();
    let tolerance = FidelityTolerance {
        sojourn_p50: (base.sojourn_p50.0, base.sojourn_p50.1 * oversub),
        makespan: (base.makespan.0, base.makespan.1 * oversub),
        ..base
    };
    println!(
        "tolerance: sojourn p50 <= {:.1}, makespan ratio <= {:.1} ({}-core node on a {:.0}-core host)",
        tolerance.sojourn_p50.1, tolerance.makespan.1, workers, host_cores
    );
    let violations = report.violations(&tolerance);
    for v in &violations {
        eprintln!("tolerance breach: {v}");
    }

    if let Some(path) = args.value("--emit") {
        let record: Vec<(&str, flowcon_metrics::export::JsonValue)> = vec![
            ("experiment", Str("fidelity".into())),
            ("policy", Str(outcome.policy.clone())),
            ("workers", Int(u64::from(workers))),
            ("jobs", Int(jobs as u64)),
            ("seed", Int(seed)),
            ("dilation", Num(dilation)),
            ("chaos", Str(chaos_name.into())),
            ("completion_set_equal", Bool(report.completion_set_equal)),
            ("reference_jobs", Int(report.reference_jobs as u64)),
            ("candidate_jobs", Int(report.candidate_jobs as u64)),
            ("matched", Int(report.matched as u64)),
            (
                "order_edit_distance",
                Int(report.order_edit_distance as u64),
            ),
            ("sojourn_ratio_p50", Num(p50)),
            ("sojourn_ratio_p95", Num(p95)),
            ("sojourn_ratio_p99", Num(p99)),
            ("sojourn_ratio_min", Num(rmin)),
            ("sojourn_ratio_max", Num(rmax)),
            ("makespan_sim_secs", Num(report.makespan_reference)),
            ("makespan_rt_secs", Num(report.makespan_candidate)),
            ("makespan_ratio", Num(report.makespan_ratio())),
            ("divergent", Bool(report.divergent())),
            ("violations", Int(violations.len() as u64)),
        ];
        let doc = flowcon_metrics::export::to_jsonl([record.as_slice()]);
        write_artifact(path, &doc)?;
        println!("wrote fidelity report to {path}");
    }

    let code = report.exit_code(&tolerance, chaos.is_some());
    Ok(ExitCode::from(u8::try_from(code).unwrap_or(1)))
}
