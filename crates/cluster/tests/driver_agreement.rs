//! The two node drivers against each other: the event-driven worker
//! (`Session`) and the scheduler's barrier-driven node (`NodeSim`) run
//! one plan on one node with the same seed.
//!
//! Both drive the same node kernel and finish a job under the same rule
//! (`NodeKernel::reap_terminated`), and every arrival sits on a barrier,
//! so under a measurement-blind policy they must agree to the
//! microsecond.  Under FlowCon they complete the same jobs at different
//! times, for a known reason pinned by the last test here.

use flowcon_cluster::{ClusterSession, PolicyKind, SchedPolicyKind};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::recorder::CompletionsOnly;
use flowcon_core::session::Session;
use flowcon_dl::workload::{JobRequest, WorkloadPlan};
use flowcon_dl::ModelId;
use flowcon_sim::time::{SimDuration, SimTime};

/// Six jobs on 10 s barriers; none finishes before the last arrival.
fn plan() -> WorkloadPlan {
    let jobs = [
        (0, ModelId::Vae),
        (0, ModelId::MnistTorch),
        (10, ModelId::Gru),
        (10, ModelId::MnistTf),
        (20, ModelId::Vae),
        (30, ModelId::Gru),
    ];
    WorkloadPlan::new(
        jobs.iter()
            .enumerate()
            .map(|(i, &(at, model))| {
                JobRequest::new(format!("J{i}"), model, SimTime::from_secs(at))
            })
            .collect(),
    )
}

fn node() -> NodeConfig {
    NodeConfig::default().with_seed(0xF10C)
}

/// `(arrival, finished, exit code)` per completed job, sorted, in µs.
type Completions = Vec<(u64, u64, i32)>;

fn sorted(rows: impl Iterator<Item = (SimTime, SimTime, i32)>) -> Completions {
    let mut rows: Completions = rows
        .map(|(a, f, code)| (a.as_micros(), f.as_micros(), code))
        .collect();
    rows.sort_unstable();
    rows
}

/// The plan on the event-driven worker.
fn worker(policy: PolicyKind) -> Completions {
    let out = Session::builder()
        .node(node())
        .plan(plan())
        .policy_box(policy.build())
        .recorder(CompletionsOnly::new())
        .build()
        .run()
        .output;
    sorted(
        out.completions
            .iter()
            .map(|c| (c.arrival, c.finished, c.exit_code)),
    )
}

/// The plan on a one-node FIFO scheduler with room for every job.
fn scheduler(policy: PolicyKind) -> Completions {
    let out = ClusterSession::builder()
        .nodes(1, node())
        .policy(policy)
        .plan(plan())
        .scheduler(SchedPolicyKind::Fifo)
        .quantum(SimDuration::from_secs(10))
        .slots_per_node(8)
        .build()
        .run();
    assert_eq!(out.preemptions, 0);
    sorted(
        out.completions
            .iter()
            .map(|c| (c.arrival, c.finished, c.exit_code)),
    )
}

/// The completion set: which jobs finished, and how, without the times.
fn set_of(rows: &Completions) -> Vec<(u64, i32)> {
    rows.iter().map(|&(a, _, code)| (a, code)).collect()
}

#[test]
fn baseline_drivers_agree_to_the_microsecond() {
    let rows = worker(PolicyKind::Baseline);
    assert_eq!(rows.len(), 6);
    // Every arrival precedes the first completion, so the pool only
    // grows on barriers.
    let first_finish = rows.iter().map(|r| r.1).min().unwrap();
    assert!(first_finish > SimTime::from_secs(30).as_micros());
    assert_eq!(scheduler(PolicyKind::Baseline), rows);
}

#[test]
fn flowcon_drivers_complete_the_same_jobs() {
    let policy = PolicyKind::FlowCon(FlowConConfig::default());
    let (sched, work) = (scheduler(policy), worker(policy));
    assert_eq!(sched.len(), 6);
    assert_eq!(set_of(&sched), set_of(&work));
}

/// The known difference.  `TrainingJob::advance` draws fresh evaluation
/// noise on every call, so the E(t) the monitor reads depends on how
/// often a driver steps the fluid: the scheduler node splits its advance
/// at every 10 s barrier, a headless worker only at its own events (a
/// recorded worker also at every 1 Hz sample tick).  Different samples
/// give Algorithm 1 different growth efficiencies, different limits and
/// so different finish times; here the gaps run from 0.08 s to 10 s.
/// Once the noise is drawn at measurement time instead, this test fails
/// and the FlowCon drivers should agree like the baseline ones.
#[test]
fn flowcon_times_differ_because_noise_is_drawn_per_fluid_step() {
    let policy = PolicyKind::FlowCon(FlowConConfig::default());
    let (sched, work) = (scheduler(policy), worker(policy));
    let gaps: Vec<f64> = sched
        .iter()
        .zip(&work)
        .map(|(s, w)| (s.1 as f64 - w.1 as f64).abs() / 1e6)
        .collect();
    assert!(
        gaps.iter().any(|&g| g > 0.0),
        "the FlowCon drivers now agree: {gaps:?}"
    );
    // A sampling difference, not a physics one: each gap stays small
    // against jobs that run for minutes.
    assert!(gaps.iter().all(|&g| g < 15.0), "gaps {gaps:?} s");
}
