//! The repository benchmark: three workloads that stress different
//! layers of the FlowCon reproduction, end-to-end metrics from untraced
//! runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! flowbench --workload {dense_closed,sched_tiresias,stream_open}
//!           --seed N --seconds S --trace {0,1}
//! ```
//!
//! The program is driven only through its public entry points and timed
//! from outside.  Every run checks its outputs; a failed check makes the
//! result line report `"correct": false` and the exit code non-zero.
//! See `README.md` beside this crate for the workloads and predictions.

mod alloc;
mod bench;
mod common;
mod dense;
mod procfs;
mod sched;
mod stats;
mod stream;
mod tracer;

use std::process::ExitCode;
use std::time::Instant;

use bench::Bench;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// A workload: its measured repetition and its traced iteration.
struct Workload {
    name: &'static str,
    rep: fn(u64) -> Result<common::Rep, String>,
    trace: fn(u64, &mut Bench) -> Result<(), String>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "dense_closed",
        rep: dense::rep,
        trace: dense::trace,
    },
    Workload {
        name: "sched_tiresias",
        rep: sched::rep,
        trace: sched::trace,
    },
    Workload {
        name: "stream_open",
        rep: stream::rep,
        trace: stream::trace,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

const USAGE: &str = "usage: flowbench --workload {dense_closed,sched_tiresias,stream_open} \
                     --seed N --seconds S --trace {0,1}";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

/// Trace mode repeats the traced iteration for `seconds` too (at least
/// once) and reports per-layer medians.
fn run(args: &Args, bench: &mut Bench) -> Result<(), String> {
    let (w, seed, seconds) = (args.workload, args.seed, args.seconds as f64);
    eprintln!(
        "{} seed={seed} seconds={seconds} trace={} threads={}",
        w.name,
        u8::from(args.traced),
        flowcon_cluster::executor::shard_count(usize::MAX)
    );
    if !args.traced {
        return common::measure(bench, seconds, || (w.rep)(seed));
    }
    common::record_executor_calls(bench);
    // One untraced repetition first, so the traced iterations' timings
    // (and the traced/untraced ratio) compare warm runs.
    let warm = (w.rep)(seed)?;
    bench.settle(warm.submitted, warm.verdict);
    let start = Instant::now();
    loop {
        (w.trace)(seed, bench)?;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::default();
    if let Err(e) = run(&args, &mut bench) {
        eprintln!("benchmark error: {e}");
        return ExitCode::FAILURE;
    }
    let passed = bench.passed();
    match bench.result_line(args.traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload sched_tiresias --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.traced),
            ("sched_tiresias", 7, 20, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload stream_open --seed x --seconds 1",
            "--workload stream_open --seed 1 --seconds 1 --trace 2",
            "--workload stream_open --seed 1 --seconds 1 --bogus 1",
            "--workload stream_open --seconds 1",
            "--workload stream_open --seed 1 --seconds",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
