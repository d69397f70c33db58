//! Command-line contract of the `repro` binary: unknown or malformed input
//! is a usage error (exit 2, nothing on stdout, so nothing ran), and
//! `--help` lists every subcommand and experiment.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn malformed_invocations_exit_2_before_running_anything() {
    for line in [
        "fig99",
        "fig9 all fig99",
        "--bogus",
        "sched --bogus",
        "cluster --headles",
        "frontier --polcy gandiva",
        "timeline --summry",
        "sched --workers 4 --workers 8",
        "sched fifo",
        "sched --workers",
        "sched --seed --compare",
        "sched --workers 0",
        "sched --policy lottery",
        "bench --chek x.json",
        "fidelity --workers 4294967297",
        "fidelity --dilation 0",
        "trace",
        "trace --file x.csv --synthetic poisson",
        "trace --synthetic poisson --compress 2",
        "stream --synthetic poisson",
        "cluster --queue calendar",
        "cluster --headless --queue calendar",
        "cluster --headless --queue heap",
        "profile --queue calendar",
        "sched --sequential",
        "timeline --sequential",
    ] {
        let out = repro(&line.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {line}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {line} printed to stdout");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("usage: repro"),
            "repro {line}: {stderr}"
        );
    }
}

#[test]
fn help_lists_every_subcommand_and_experiment() {
    for flag in ["--help", "help"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "repro {flag}");
        let usage = String::from_utf8(out.stdout).expect("utf-8 usage");
        for command in [
            "bench", "cluster", "profile", "trace", "stream", "sched", "frontier", "timeline",
            "fidelity",
        ] {
            assert!(
                usage.contains(&format!("repro {command} [")),
                "{command} missing from usage:\n{usage}"
            );
        }
        let (_, list) = usage.split_once("\nexperiments").expect("experiment list");
        let experiments: Vec<&str> = list.split_whitespace().collect();
        for name in [
            "table1",
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "table2",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "ablation-backoff",
            "ablation-beta",
            "ablation-kappa",
            "ablation-policies",
            "ablation-resource",
            "all",
        ] {
            assert!(experiments.contains(&name), "{name} missing from usage");
        }
    }
}

#[test]
fn subcommand_help_prints_the_usage() {
    let out = repro(&["sched", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("repro sched ["));
}
