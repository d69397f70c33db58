//! Golden outcome digests of the online scheduler: one fixed seed, a
//! cluster small enough for a debug build but loaded enough that the
//! preemptive disciplines preempt thousands of times, and a 64-bit FNV-1a
//! fingerprint of everything a run decides and completes.
//!
//! Any change to a discipline's decisions, the engine's action semantics,
//! the FIFO order of the admission queue, or node physics moves a digest.
//! A change meant to be behaviour-preserving (a faster data structure, a
//! refactor) must leave all three unchanged.

use flowcon_cluster::{ClusterSession, PolicyKind, SchedAction, SchedOutcome, SchedPolicyKind};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::time::SimDuration;

const NODES: usize = 64;
const JOBS: usize = 2048;
const SEED: u64 = 0x5EED_2048;

/// FNV-1a (64-bit) over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

fn digest(out: &SchedOutcome) -> u64 {
    let mut d = Fnv::new();
    d.word(out.preemptions)
        .word(out.migrations)
        .word(out.algorithm_runs)
        .word(out.total_queue_wait_secs.to_bits())
        .word(out.stream.busy_cpu_secs.to_bits())
        .word(out.stream.queue_job_secs.to_bits());
    for c in &out.completions {
        d.word(c.arrival.as_micros())
            .word(c.finished.as_micros())
            .word(c.exit_code as u64);
    }
    for dec in &out.decisions {
        d.word(dec.at.as_micros());
        match dec.action {
            SchedAction::Place { job, node } => d.word(0).word(job.into()).word(node as u64),
            SchedAction::Preempt { job } => d.word(1).word(job.into()),
            SchedAction::Migrate { job, node } => d.word(2).word(job.into()).word(node as u64),
        };
    }
    d.0
}

fn run(kind: SchedPolicyKind) -> SchedOutcome {
    let nodes = (0..NODES as u64)
        .map(|i| NodeConfig::default().with_seed(SEED ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    ClusterSession::builder()
        .node_configs(nodes)
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .plan(WorkloadPlan::random_n(JOBS, SEED))
        .scheduler(kind)
        .quantum(SimDuration::from_secs(10))
        .slots_per_node(2)
        .build()
        .run()
}

fn check(kind: SchedPolicyKind, golden: u64, min_preemptions: u64) {
    let out = run(kind);
    assert_eq!(out.completed_jobs(), JOBS, "{} lost jobs", kind.name());
    assert!(
        out.preemptions >= min_preemptions,
        "{}: only {} preemptions — the workload no longer stresses the queue",
        kind.name(),
        out.preemptions
    );
    let got = digest(&out);
    assert_eq!(
        got,
        golden,
        "{} outcome digest moved: {got:#018x} (golden {golden:#018x})",
        kind.name()
    );
}

#[test]
fn fifo_outcome_matches_golden_digest() {
    check(SchedPolicyKind::Fifo, 0x12ab_0c68_6324_ef87, 0);
}

#[test]
fn gandiva_outcome_matches_golden_digest() {
    check(SchedPolicyKind::Gandiva, 0x535a_1ac9_d8d2_b928, 1000);
}

#[test]
fn tiresias_outcome_matches_golden_digest() {
    check(SchedPolicyKind::Tiresias, 0x101a_f8d9_9c21_9fd6, 1000);
}
