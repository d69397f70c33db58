//! Golden outcome digests of the worker simulation: every run mode a
//! worker node supports (recorded, sampled, failure-injected, headless,
//! open-loop, traced), fingerprinted with a 64-bit FNV-1a over everything
//! the run produces.
//!
//! Any change to node physics, the event protocol, the RNG protocol, the
//! ids the policy sees, or what a recorder is handed moves a digest.  A
//! change meant to be behaviour-preserving (a new data layout, a shared
//! kernel, a faster queue) must leave every digest unchanged.

use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::dense::{run_headless_dense, DenseScratch, QueueKind};
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy, ResourcePolicy};
use flowcon_core::recorder::SamplingRecorder;
use flowcon_core::session::{Session, SessionBuilder, SessionResult};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::sojourn::Percentiles;
use flowcon_metrics::summary::{CompletionStats, RunSummary};
use flowcon_metrics::timeseries::MultiSeries;
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::FlightRecorder;
use flowcon_workload::stream::{Horizon, StreamSource};
use flowcon_workload::{ArrivalProcess, SyntheticStreamSource};

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

    fn f64(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
        self
    }

    fn series(&mut self, m: &MultiSeries) -> &mut Self {
        self.word(m.len() as u64);
        for (label, s) in m.iter() {
            self.str(label).word(s.len() as u64);
            for &(t, v) in s.points() {
                self.f64(t).f64(v);
            }
        }
        self
    }

    fn percentiles(&mut self, p: Percentiles) -> &mut Self {
        self.f64(p.p50).f64(p.p95).f64(p.p99)
    }
}

fn summary_digest(d: &mut Fnv, s: &RunSummary) {
    d.str(&s.policy)
        .word(s.algorithm_runs)
        .word(s.update_calls)
        .word(s.completions.len() as u64);
    for c in &s.completions {
        d.str(&c.label)
            .word(c.arrival.as_micros())
            .word(c.finished.as_micros())
            .word(c.exit_code as u64);
    }
    d.series(&s.cpu_usage)
        .series(&s.limits)
        .series(&s.growth_efficiency);
}

fn session_digest(r: &SessionResult<RunSummary>) -> u64 {
    let mut d = Fnv::new();
    summary_digest(&mut d, &r.output);
    d.word(r.events_processed)
        .f64(r.scheduler_overhead_cpu_secs);
    d.0
}

fn stats_digest(r: &SessionResult<CompletionStats>) -> u64 {
    let mut d = Fnv::new();
    let s = &r.output;
    d.word(s.algorithm_runs)
        .word(s.update_calls)
        .word(s.completions.len() as u64);
    for c in &s.completions {
        d.word(c.arrival.as_micros())
            .word(c.finished.as_micros())
            .word(c.exit_code as u64);
    }
    d.word(r.events_processed)
        .f64(r.scheduler_overhead_cpu_secs);
    d.0
}

fn flowcon() -> FlowConPolicy {
    FlowConPolicy::new(FlowConConfig::default())
}

fn builder(plan: WorkloadPlan, policy: impl ResourcePolicy + 'static) -> SessionBuilder {
    Session::builder()
        .node(NodeConfig::default().with_seed(0x60_1DE2))
        .plan(plan)
        .policy(policy)
}

fn check(what: &str, got: u64, golden: u64) {
    assert_eq!(
        got, golden,
        "{what} digest moved: {got:#018x} (golden {golden:#018x})"
    );
}

#[test]
fn full_recorder_fixed_three_flowcon() {
    let r = builder(WorkloadPlan::fixed_three(), flowcon())
        .build()
        .run();
    check(
        "fixed_three/FlowCon",
        session_digest(&r),
        0x68d1_9290_3f8d_7988,
    );
}

#[test]
fn full_recorder_fixed_three_na() {
    let r = builder(WorkloadPlan::fixed_three(), FairSharePolicy::new())
        .build()
        .run();
    check("fixed_three/NA", session_digest(&r), 0xf4a3_50e6_335e_9c6d);
}

#[test]
fn full_recorder_random_15_flowcon() {
    let r = builder(WorkloadPlan::random_n(15, 7), flowcon())
        .build()
        .run();
    check(
        "random_n(15)/FlowCon",
        session_digest(&r),
        0xa6e6_dd3a_a0c6_5846,
    );
}

#[test]
fn full_recorder_random_15_na() {
    let r = builder(WorkloadPlan::random_n(15, 7), FairSharePolicy::new())
        .build()
        .run();
    check("random_n(15)/NA", session_digest(&r), 0xd868_542e_4ffe_16f7);
}

#[test]
fn sampling_recorder_random_15_flowcon() {
    let r = builder(WorkloadPlan::random_n(15, 7), flowcon())
        .recorder(SamplingRecorder::every(5))
        .build()
        .run();
    check(
        "random_n(15)/FlowCon sampled",
        session_digest(&r),
        0x49e9_b64f_4c75_ad1c,
    );
}

#[test]
fn failure_injection_fixed_three_flowcon() {
    let r = builder(WorkloadPlan::fixed_three(), flowcon())
        .failure("VAE (Pytorch)", SimTime::from_secs(100), 137)
        .failure("MNIST (Pytorch)", SimTime::from_secs(150), 1)
        .failure("no such job", SimTime::from_secs(160), 9)
        .build()
        .run();
    let codes: Vec<i32> = r.output.completions.iter().map(|c| c.exit_code).collect();
    assert!(
        codes.contains(&137) && codes.contains(&1),
        "both crashes hit: {codes:?}"
    );
    check(
        "fixed_three/FlowCon failures",
        session_digest(&r),
        0x2237_64ba_16ef_a707,
    );
}

#[test]
fn headless_dense_heap() {
    let plan = WorkloadPlan::random_n(40, 9);
    let r = run_headless_dense(
        NodeConfig::default().with_seed(0x60_1DE2),
        &plan.jobs,
        Box::new(flowcon()),
        QueueKind::Heap,
        &mut DenseScratch::new(),
    );
    check("headless heap", stats_digest(&r), 0xfa9b_7de9_bbe8_298c);
}

#[test]
fn open_loop_stream_flowcon() {
    let source = SyntheticStreamSource::new(ArrivalProcess::poisson(0.02), 5);
    let r = builder(WorkloadPlan::new(Vec::new()), flowcon())
        .build()
        .run_stream(source.stream_for(3), Horizon::jobs(40));
    let mut d = Fnv::new();
    summary_digest(&mut d, &r.output);
    let s = &r.stream;
    d.word(r.events_processed)
        .f64(r.scheduler_overhead_cpu_secs)
        .word(s.submitted)
        .word(s.completed)
        .f64(s.duration_secs)
        .f64(s.busy_cpu_secs)
        .f64(s.queue_job_secs)
        .f64(s.capacity_cpu_secs)
        .word(r.tails.exits())
        .percentiles(r.tails.sojourn_percentiles())
        .percentiles(r.tails.queue_wait_percentiles());
    check("open-loop poisson", d.0, 0x3fba_359a_7fa8_634c);
}

#[test]
fn traced_session_event_sequence() {
    let mut tracer = FlightRecorder::with_capacity(1 << 16);
    let r = builder(WorkloadPlan::fixed_three(), flowcon())
        .build()
        .run_traced(&mut tracer);
    assert_eq!(tracer.dropped(), 0, "the ring must hold the whole run");
    let mut d = Fnv::new();
    d.word(session_digest(&r)).word(tracer.len() as u64);
    for e in tracer.iter() {
        d.word(e.at.as_micros())
            .word(e.phase as u64)
            .word(e.kind as u64)
            .word(u64::from(e.a))
            .word(u64::from(e.b))
            .f64(e.value);
    }
    check("traced fixed_three", d.0, 0xf996_1e18_e262_45f4);
}
