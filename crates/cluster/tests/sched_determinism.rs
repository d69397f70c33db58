//! Determinism and edge cases of the online cluster scheduler: same
//! seed + same trace ⇒ bit-identical decision log, completion list and
//! traced timeline across repeated runs, with or without a tracer — for
//! every built-in discipline.  Plus the preemption corners a discipline
//! can reach: preempting at the very first barrier, migrating a job to
//! the node it already occupies, and scheduling rounds with an empty
//! admission queue.

use flowcon_cluster::{
    ClusterPolicy, ClusterSession, ClusterSessionBuilder, ClusterView, PolicyKind, Sched,
    SchedAction, SchedOutcome, SchedPolicyKind,
};
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_sim::time::SimTime;
use flowcon_sim::trace::FlightRecorder;

fn base(workers: usize) -> ClusterSessionBuilder<'static, Sched> {
    ClusterSession::builder()
        .nodes(workers, NodeConfig::default().with_seed(0xF10C))
        .policy(PolicyKind::FlowCon(FlowConConfig::default()))
        .scheduler(SchedPolicyKind::Fifo)
}

fn run(kind: SchedPolicyKind) -> SchedOutcome {
    base(4)
        .plan(WorkloadPlan::random_n(24, 0xC1A5))
        .scheduler(kind)
        .build()
        .run()
}

#[test]
fn repeated_runs_are_bit_identical() {
    for kind in SchedPolicyKind::ALL {
        let a = run(kind);
        let b = run(kind);
        // `SchedOutcome` is PartialEq over the decision log, the exact
        // completion times, and the stream accounting — full bit-compare.
        assert_eq!(a, b, "{} is not reproducible", kind.name());
        assert_eq!(a.completed_jobs(), 24, "{} lost jobs", kind.name());
    }
}

fn run_traced(kind: SchedPolicyKind) -> (SchedOutcome, FlightRecorder) {
    base(4)
        .plan(WorkloadPlan::random_n(24, 0xC1A5))
        .scheduler(kind)
        .tracer(FlightRecorder::with_capacity(1 << 14))
        .build()
        .run_traced()
}

#[test]
fn traced_runs_are_reproducible_and_match_the_untraced_run() {
    // Tracing observes a run without steering it, and the flight-recorder
    // merge (per-node forks absorbed in node-index order at each barrier)
    // fixes the timeline's order — down to the exported Chrome JSON byte
    // stream — for every built-in discipline.
    for kind in SchedPolicyKind::ALL {
        let (out, rec) = run_traced(kind);
        let (again_out, again_rec) = run_traced(kind);
        assert_eq!(
            out,
            run(kind),
            "{} tracing changed the outcome",
            kind.name()
        );
        assert_eq!(out, again_out, "{} outcome diverged", kind.name());
        assert_eq!(rec.dropped(), 0, "{} dropped events", kind.name());
        assert_eq!(again_rec.dropped(), 0, "{} dropped events", kind.name());
        let events = rec.events();
        let again_events = again_rec.events();
        assert!(!events.is_empty(), "{} recorded nothing", kind.name());
        assert_eq!(
            events,
            again_events,
            "{} timeline diverged across runs",
            kind.name()
        );
        assert_eq!(
            flowcon_metrics::tracelog::chrome_trace_json(&events, rec.dropped()),
            flowcon_metrics::tracelog::chrome_trace_json(&again_events, again_rec.dropped()),
            "{} exported JSON diverged",
            kind.name()
        );
    }
}

/// Preempts every running job at every barrier, then replaces it — the
/// most hostile legal discipline.  Exercises preemption at the first
/// barrier a job ever runs in (t = 0 for arrival-0 jobs).
struct Thrash;

impl ClusterPolicy for Thrash {
    fn name(&self) -> &'static str {
        "thrash"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        let mut free: Vec<usize> = (0..view.node_count()).map(|n| view.free_slots(n)).collect();
        for (node, slots) in free.iter_mut().enumerate() {
            for r in view.running_on(node) {
                actions.push(SchedAction::Preempt { job: r.id });
                *slots += 1;
            }
        }
        for job in view.queue {
            if let Some(node) = free.iter().position(|&f| f > 0) {
                actions.push(SchedAction::Place { job: job.id, node });
                free[node] -= 1;
            }
        }
    }
}

#[test]
fn preempting_at_the_first_barrier_still_drains_the_workload() {
    // Every job arrives at t=0, so the first Preempt of each fires at the
    // barrier right after its first (and only partial) quantum of service
    // — and jobs placed-then-preempted at the same barrier never run at
    // all that round.  The workload must still drain, with attained
    // service preserved across every round-trip.
    let jobs: Vec<_> = WorkloadPlan::random_n(6, 11)
        .jobs
        .into_iter()
        .map(|mut j| {
            j.arrival = SimTime::ZERO;
            j.work_scale = 0.02;
            j
        })
        .collect();
    let out = base(2)
        .plan(WorkloadPlan::new(jobs))
        .discipline(Box::new(Thrash))
        .build()
        .run();
    assert_eq!(out.policy, "thrash");
    assert_eq!(out.completed_jobs(), 6);
    assert!(out.preemptions > 0, "thrash must actually preempt");
    // The very first decision round happens at t=0 and preemptions begin
    // at the first barrier after any job has run.
    assert_eq!(out.decisions[0].at, SimTime::ZERO);
    assert!(out
        .decisions
        .iter()
        .any(|d| matches!(d.action, SchedAction::Preempt { .. })));
    for c in &out.completions {
        assert!(c.finished >= c.arrival);
    }
}

/// Places FIFO, then "migrates" every running job to the node it is
/// already on: a logged no-op that must not perturb physics.
struct SelfMigrate {
    inner: Box<dyn ClusterPolicy>,
}

impl ClusterPolicy for SelfMigrate {
    fn name(&self) -> &'static str {
        "self-migrate"
    }

    fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
        self.inner.schedule(view, actions);
        for node in 0..view.node_count() {
            for r in view.running_on(node) {
                actions.push(SchedAction::Migrate { job: r.id, node });
            }
        }
    }
}

#[test]
fn migrating_to_the_same_node_is_a_logged_no_op() {
    let plan = WorkloadPlan::random_n(10, 5);
    let noisy = base(3)
        .plan(plan.clone())
        .discipline(Box::new(SelfMigrate {
            inner: SchedPolicyKind::Fifo.build(),
        }))
        .build()
        .run();
    let clean = base(3).plan(plan).build().run();

    // Same-node migrations are logged but never applied.
    assert_eq!(noisy.migrations, 0);
    assert!(noisy
        .decisions
        .iter()
        .any(|d| matches!(d.action, SchedAction::Migrate { .. })));
    // And the physics are untouched: identical completions and stream
    // accounting, decision logs differing only by the no-op migrations.
    assert_eq!(noisy.completions, clean.completions);
    assert_eq!(noisy.stream, clean.stream);
    let noisy_real: Vec<_> = noisy
        .decisions
        .iter()
        .filter(|d| !matches!(d.action, SchedAction::Migrate { .. }))
        .collect();
    let clean_real: Vec<_> = clean.decisions.iter().collect();
    assert_eq!(noisy_real, clean_real);
}

#[test]
fn an_empty_admission_queue_round_makes_no_decisions() {
    // One early job, one very late job: between them the queue is empty
    // and all nodes go idle, so the engine fast-forwards without waking
    // the policy.  No decision may fall in the gap.
    let mut jobs = WorkloadPlan::random_n(2, 9).jobs;
    jobs[0].arrival = SimTime::ZERO;
    jobs[0].work_scale = 0.02;
    jobs[1].arrival = SimTime::from_secs(500_000);
    jobs[1].work_scale = 0.02;
    let out = base(2).plan(WorkloadPlan::new(jobs)).build().run();
    assert_eq!(out.completed_jobs(), 2);
    assert_eq!(
        out.decisions.len(),
        2,
        "exactly one placement per job: {:?}",
        out.decisions
    );
    assert_eq!(out.decisions[0].at, SimTime::ZERO);
    assert!(out.decisions[1].at >= SimTime::from_secs(500_000));
    // The second job was fast-forwarded to, not slept past.
    assert!(out.completions[1].finished >= SimTime::from_secs(500_000));
}

#[test]
fn an_empty_workload_runs_no_rounds() {
    let out = base(2).plan(WorkloadPlan::new(Vec::new())).build().run();
    assert_eq!(out.completed_jobs(), 0);
    assert!(out.decisions.is_empty());
    assert_eq!(out.makespan_secs(), 0.0);
    assert_eq!(out.mean_queueing_delay_secs(), 0.0);
}
