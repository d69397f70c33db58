//! The cluster-wide online scheduler: one global manager, a shared
//! arrival stream, and node-local FlowCon sims advancing between
//! time-synchronized barriers.
//!
//! # Event spine
//!
//! The engine owns a single clock that ticks in scheduler quanta.  At
//! every barrier `t = k·quantum` it runs, in this exact order:
//!
//! 1. **Admit** — arrivals with `arrival ≤ t` enter the global FIFO
//!    admission queue (a real scheduler observes submissions at its next
//!    decision point).
//! 2. **Decide** — the [`ClusterPolicy`] sees a read-only
//!    [`ClusterView`] and emits [`SchedAction`]s, which the engine
//!    applies in order and appends to the decision log.
//! 3. **Advance** — every node integrates its own fluid state to
//!    `t + quantum`, completing jobs at their *exact* mid-quantum times
//!    and running node-local FlowCon reconfigurations at their own
//!    cadence.
//!
//! Step 3 runs on the caller's thread, node by node in index order:
//! spawning the sharded executor's threads at every barrier measured
//! slower at every cluster size tried.  Each `NodeSim` advance is a pure
//! function of that node's state, so repeated runs are bit-identical,
//! pinned by `crates/cluster/tests/sched_determinism.rs`.
//!
//! # Quantum invariants
//!
//! * Decisions happen only at barriers; node physics (completions,
//!   policy ticks) happen at exact event times inside the quantum.
//! * A preempted job re-enters the queue with its attained service and
//!   remaining work preserved (resume re-draws the ±3% work jitter,
//!   modelling checkpoint-restore noise).
//! * The decision log plus the completion list fully determine a run;
//!   both are `PartialEq` for bit-compare tests.

#![deny(missing_docs)]

mod node;
mod policy;

pub use policy::{
    ClusterPolicy, ClusterView, FifoPolicy, GandivaPolicy, QueuedJobView, RunningJobView,
    SchedAction, SchedPolicyKind, TiresiasPolicy,
};

use flowcon_core::config::NodeConfig;
use flowcon_dl::ModelId;
use flowcon_metrics::sojourn::{Percentiles, SojournStats};
use flowcon_metrics::stream::StreamStats;
use flowcon_metrics::summary::{makespan_over, Completion};
use flowcon_sim::time::{SimDuration, SimTime};
use flowcon_sim::trace::{TraceKind, Tracer};

use crate::policy_kind::PolicyKind;
use node::NodeSim;
use policy::NodeSpan;

/// Tuning knobs of the scheduling engine.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Barrier spacing: how often the cluster policy runs.
    pub quantum: SimDuration,
    /// Concurrent job slots per node (FlowCon shares the node's capacity
    /// among the jobs in its slots).
    pub slots_per_node: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            quantum: SimDuration::from_secs(10),
            slots_per_node: 2,
        }
    }
}

/// One logged scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Barrier at which the decision was made.
    pub at: SimTime,
    /// The action taken.
    pub action: SchedAction,
}

/// Everything a scheduled cluster run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedOutcome {
    /// Discipline name (from [`ClusterPolicy::name`]).
    pub policy: &'static str,
    /// Every job completion, in observation order (node-major per
    /// quantum), with exact finish times.
    pub completions: Vec<Completion>,
    /// The full decision log — the run's scheduling fingerprint.
    pub decisions: Vec<Decision>,
    /// Cluster-wide stream accounting (utilization, queue depth, rates).
    pub stream: StreamStats,
    /// Total seconds jobs spent in the admission queue (every visit).
    pub total_queue_wait_secs: f64,
    /// SLO tails: per-job sojourn time (exit − arrival, sampled at each
    /// completion) and queue-wait (barrier − queued-since, sampled at
    /// each [`SchedAction::Place`], so one job contributes once per
    /// queue visit).  Deterministic — part of the bit-compare surface.
    pub tails: SojournStats,
    /// Jobs submitted to the cluster.
    pub submitted: usize,
    /// Preemptions applied (suspend-to-queue).
    pub preemptions: u64,
    /// Cross-node migrations applied (same-node no-ops excluded).
    pub migrations: u64,
    /// Node-local FlowCon reconfiguration runs, summed over nodes.
    pub algorithm_runs: u64,
}

impl SchedOutcome {
    /// Time of the last completion (0 when nothing completed).
    pub fn makespan_secs(&self) -> f64 {
        makespan_over(self.completions.iter().map(|c| c.finished.as_secs_f64()))
    }

    /// Completed job count.
    pub fn completed_jobs(&self) -> usize {
        self.completions.len()
    }

    /// Mean seconds a job spent queued, over submitted jobs.
    pub fn mean_queueing_delay_secs(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.total_queue_wait_secs / self.submitted as f64
        }
    }

    /// p50/p95/p99 of per-visit queue wait in seconds (zeros when nothing
    /// was placed).
    pub fn queue_wait_percentiles(&self) -> Percentiles {
        self.tails.queue_wait_percentiles()
    }

    /// p50/p95/p99 of job sojourn time (exit − arrival) in seconds.
    pub fn sojourn_percentiles(&self) -> Percentiles {
        self.tails.sojourn_percentiles()
    }
}

/// One job the engine knows about: the scheduler-side record that
/// survives preemption round-trips.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrivalSpec {
    pub(crate) model: ModelId,
    pub(crate) arrival: SimTime,
    pub(crate) work_scale: f64,
}

#[derive(Debug, Clone, Copy)]
struct EngineJob {
    id: u32,
    model: ModelId,
    arrival: SimTime,
    work_scale: f64,
    attained: f64,
    queued_since: SimTime,
}

/// Where a job is, indexed by its gid.  The `Queued` index is what makes
/// a `Place` O(1): no queue scan to find the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    /// Not yet admitted.
    Pending,
    /// Live entry at this index of the admission queue.
    Queued(usize),
    /// Running on this node.
    Running(usize),
    /// Completed.
    Done,
}

/// Panic for an action the engine cannot apply: a broken policy must
/// fail loudly, naming itself, the action and the barrier.
fn reject(policy: &str, t: SimTime, action: SchedAction, why: impl std::fmt::Display) -> ! {
    panic!(
        "policy '{policy}' emitted {action:?} at barrier t={}s: {why}",
        t.as_secs_f64()
    )
}

/// Where `job` is, for a rejection message.
fn whereabouts(state: &[JobState], job: u32) -> String {
    match state.get(job as usize) {
        None => format!("job {job} does not exist"),
        Some(JobState::Pending) => format!("job {job} has not arrived"),
        Some(JobState::Queued(_)) => format!("job {job} is queued"),
        Some(JobState::Running(node)) => format!("job {job} is running on node {node}"),
        Some(JobState::Done) => format!("job {job} has finished"),
    }
}

/// Reject `action` unless `node` exists and has a free slot — checked
/// before [`NodeSim::admit`] so the failure names the culprit.
fn check_free_slot<T: Tracer>(
    nodes: &[NodeSim<T>],
    node: usize,
    policy: &str,
    t: SimTime,
    action: SchedAction,
) {
    match nodes.get(node) {
        None => reject(policy, t, action, format_args!("there is no node {node}")),
        Some(n) if n.is_full() => reject(
            policy,
            t,
            action,
            format_args!("node {node} is full ({} slots)", n.slot_count()),
        ),
        Some(_) => {}
    }
}

/// Run the scheduling engine to completion over a materialized arrival
/// list (already sorted by arrival time).
///
/// `tracer` records the structured event stream: a
/// [`TraceKind::SchedBarrier`] span per decision barrier, one instant
/// per applied [`SchedAction`], cluster-level job run/complete spans,
/// and queue-depth counters.  Node-local events (policy reconfigures,
/// water-filling counters) land in per-node forked recorders that are
/// drained back in node-index order at every barrier, which fixes the
/// merged event order.
pub(crate) fn run_sched<T: Tracer>(
    node_cfgs: &[NodeConfig],
    worker_policy: PolicyKind,
    mut policy: Box<dyn ClusterPolicy>,
    config: SchedConfig,
    arrivals: Vec<ArrivalSpec>,
    tracer: &mut T,
) -> SchedOutcome {
    assert!(!node_cfgs.is_empty(), "a cluster needs at least one node");
    assert!(
        config.quantum > SimDuration::ZERO,
        "the scheduler quantum must be positive"
    );
    let quantum = config.quantum;
    let mut nodes: Vec<NodeSim<T>> = node_cfgs
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            NodeSim::new(
                *cfg,
                worker_policy.build(),
                config.slots_per_node,
                tracer.fork(),
                i as u32,
            )
        })
        .collect();

    // The admission queue in FIFO order.  A `Place` leaves a tombstone
    // (an entry whose gid no longer maps back to its index); the round's
    // single compaction pass drops them without reordering the survivors.
    let mut queue: Vec<EngineJob> = Vec::new();
    let mut state: Vec<JobState> = vec![JobState::Pending; arrivals.len()];
    let mut next_arrival = 0usize;

    let mut decisions: Vec<Decision> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut total_queue_wait_secs = 0.0f64;
    let mut queue_job_secs = 0.0f64;
    let mut tails = SojournStats::new();
    let mut preemptions = 0u64;
    let mut migrations = 0u64;

    // Recycled view buffers.
    let mut queue_views: Vec<QueuedJobView> = Vec::new();
    let mut spans: Vec<NodeSpan> = Vec::new();
    let mut running: Vec<RunningJobView> = Vec::new();
    let mut actions: Vec<SchedAction> = Vec::new();

    let mut t = SimTime::ZERO;
    loop {
        // 1. Admit arrivals up to the barrier.
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival <= t {
            let a = arrivals[next_arrival];
            state[next_arrival] = JobState::Queued(queue.len());
            queue.push(EngineJob {
                id: next_arrival as u32,
                model: a.model,
                arrival: a.arrival,
                work_scale: a.work_scale,
                attained: 0.0,
                queued_since: a.arrival,
            });
            next_arrival += 1;
        }
        let all_idle = nodes.iter().all(NodeSim::is_idle);
        if next_arrival == arrivals.len() && queue.is_empty() && all_idle {
            break;
        }
        // Fast-forward across empty quanta to the first barrier at/after
        // the next arrival, keeping the idle nodes' clocks in sync so a
        // subsequent admit integrates from the barrier, not from stale
        // node time.
        if queue.is_empty() && all_idle {
            let upcoming = arrivals[next_arrival].arrival;
            while t < upcoming {
                t += quantum;
            }
            for node in &mut nodes {
                node.advance_to(t);
            }
            continue;
        }

        // 2. Decide.
        queue_views.clear();
        queue_views.extend(queue.iter().map(|j| QueuedJobView {
            id: j.id,
            arrival: j.arrival,
            attained_cpu_secs: j.attained,
            queued_since: j.queued_since,
        }));
        spans.clear();
        running.clear();
        for node in &nodes {
            let start = running.len();
            node.fill_views(&mut running);
            spans.push(NodeSpan {
                slots: node.slot_count(),
                start,
                len: running.len() - start,
            });
        }
        let view = ClusterView::new(t, &queue_views, &spans, &running);
        actions.clear();
        policy.schedule(&view, &mut actions);
        if T::ENABLED {
            tracer.span_begin(
                t,
                TraceKind::SchedBarrier,
                queue.len() as u32,
                running.len() as u32,
            );
        }

        let mut tombstones = 0usize;
        for &action in &actions {
            decisions.push(Decision { at: t, action });
            match action {
                SchedAction::Place { job, node } => {
                    let Some(JobState::Queued(pos)) = state.get(job as usize).copied() else {
                        reject(policy.name(), t, action, whereabouts(&state, job))
                    };
                    check_free_slot(&nodes, node, policy.name(), t, action);
                    let j = queue[pos];
                    tombstones += 1;
                    let wait = t.saturating_since(j.queued_since).as_secs_f64();
                    total_queue_wait_secs += wait;
                    tails.queue_wait.insert(wait);
                    state[j.id as usize] = JobState::Running(node);
                    nodes[node].admit(j.id, j.model, j.work_scale, j.arrival, j.attained);
                    if T::ENABLED {
                        tracer.instant(t, TraceKind::SchedPlace, job, node as u32);
                        tracer.span_begin(t, TraceKind::JobRun, job, node as u32);
                    }
                }
                SchedAction::Preempt { job } => {
                    let Some(JobState::Running(at)) = state.get(job as usize).copied() else {
                        reject(policy.name(), t, action, whereabouts(&state, job))
                    };
                    let p = nodes[at].preempt(job);
                    preemptions += 1;
                    state[job as usize] = JobState::Queued(queue.len());
                    queue.push(EngineJob {
                        id: job,
                        model: p.model,
                        arrival: p.arrival,
                        work_scale: p.remaining_scale,
                        attained: p.attained_cpu_secs,
                        queued_since: t,
                    });
                    if T::ENABLED {
                        tracer.instant(t, TraceKind::SchedPreempt, job, at as u32);
                        tracer.span_end(t, TraceKind::JobRun, job, at as u32);
                    }
                }
                SchedAction::Migrate { job, node } => {
                    let Some(JobState::Running(at)) = state.get(job as usize).copied() else {
                        reject(policy.name(), t, action, whereabouts(&state, job))
                    };
                    if at == node {
                        continue; // logged no-op
                    }
                    check_free_slot(&nodes, node, policy.name(), t, action);
                    let p = nodes[at].preempt(job);
                    nodes[node].admit(
                        job,
                        p.model,
                        p.remaining_scale,
                        p.arrival,
                        p.attained_cpu_secs,
                    );
                    state[job as usize] = JobState::Running(node);
                    migrations += 1;
                    if T::ENABLED {
                        tracer.instant(t, TraceKind::SchedMigrate, job, node as u32);
                        tracer.span_end(t, TraceKind::JobRun, job, at as u32);
                        tracer.span_begin(t, TraceKind::JobRun, job, node as u32);
                    }
                }
            }
        }
        if tombstones > 0 {
            // One stable pass: an entry is live iff its gid still maps to
            // its index.  Survivors keep their relative order (admission
            // and preemption append, nothing else reorders), so the next
            // round's `ClusterView::queue` is the same FIFO a queue with
            // in-place removal would hold.
            let (mut seen, mut kept) = (0, 0);
            queue.retain(|j| {
                let live = state[j.id as usize] == JobState::Queued(seen);
                seen += 1;
                if live {
                    state[j.id as usize] = JobState::Queued(kept);
                    kept += 1;
                }
                live
            });
        }
        queue_job_secs += queue.len() as f64 * quantum.as_secs_f64();
        if T::ENABLED {
            tracer.counter(t, TraceKind::QueueDepth, 0, queue.len() as f64);
        }

        // 3. Advance every node to the next barrier, in node-index order.
        let barrier = t + quantum;
        for (ni, node) in nodes.iter_mut().enumerate() {
            node.advance_to(barrier);
            if T::ENABLED {
                // Merge this node's forked recorder in node-index order,
                // which fixes the merged event order.
                tracer.absorb(&mut node.tracer);
            }
            for c in node.completions.drain(..) {
                state[c.gid as usize] = JobState::Done;
                tails
                    .sojourn
                    .insert(c.finished.saturating_since(c.arrival).as_secs_f64());
                completions.push(Completion {
                    arrival: c.arrival,
                    finished: c.finished,
                    exit_code: 0,
                });
                if T::ENABLED {
                    tracer.span_end(c.finished, TraceKind::JobRun, c.gid, ni as u32);
                    tracer.instant(c.finished, TraceKind::JobComplete, c.gid, ni as u32);
                }
            }
        }
        if T::ENABLED {
            tracer.span_end(barrier, TraceKind::SchedBarrier, queue.len() as u32, 0);
        }
        t = barrier;
    }

    let duration_secs = makespan_over(completions.iter().map(|c| c.finished.as_secs_f64()));
    let stream = StreamStats {
        submitted: arrivals.len() as u64,
        completed: completions.len() as u64,
        duration_secs,
        busy_cpu_secs: nodes.iter().map(|n| n.busy_cpu_secs).sum(),
        queue_job_secs: queue_job_secs + nodes.iter().map(|n| n.live_job_secs).sum::<f64>(),
        capacity_cpu_secs: duration_secs * node_cfgs.iter().map(|c| c.capacity).sum::<f64>(),
    };
    SchedOutcome {
        policy: policy.name(),
        completions,
        decisions,
        stream,
        total_queue_wait_secs,
        tails,
        submitted: arrivals.len(),
        preemptions,
        migrations,
        algorithm_runs: nodes.iter().map(NodeSim::algorithm_runs).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowcon_core::config::FlowConConfig;
    use flowcon_dl::WorkloadPlan;

    fn arrivals_of(plan: &WorkloadPlan) -> Vec<ArrivalSpec> {
        plan.jobs
            .iter()
            .map(|j| ArrivalSpec {
                model: j.model,
                arrival: j.arrival,
                work_scale: j.work_scale,
            })
            .collect()
    }

    fn run(kind: SchedPolicyKind, workers: usize, seed: u64) -> SchedOutcome {
        let plan = WorkloadPlan::random_n(12, seed);
        let cfgs: Vec<NodeConfig> = (0..workers)
            .map(|i| NodeConfig::default().with_seed(0xF10C + i as u64))
            .collect();
        run_sched(
            &cfgs,
            PolicyKind::FlowCon(FlowConConfig::default()),
            kind.build(),
            SchedConfig::default(),
            arrivals_of(&plan),
            &mut flowcon_sim::trace::NoopTracer,
        )
    }

    #[test]
    fn every_policy_drains_the_whole_workload() {
        for kind in SchedPolicyKind::ALL {
            let out = run(kind, 3, 42);
            assert_eq!(out.completed_jobs(), 12, "{} lost jobs", out.policy);
            assert_eq!(out.stream.submitted, 12);
            assert!(out.makespan_secs() > 0.0);
            assert!(out.stream.utilization() > 0.0);
        }
    }

    #[test]
    fn empty_workload_terminates_immediately_with_no_decisions() {
        let cfgs = [NodeConfig::default()];
        let out = run_sched(
            &cfgs,
            PolicyKind::Baseline,
            SchedPolicyKind::Fifo.build(),
            SchedConfig::default(),
            Vec::new(),
            &mut flowcon_sim::trace::NoopTracer,
        );
        assert!(out.completions.is_empty());
        assert!(out.decisions.is_empty());
        assert_eq!(out.makespan_secs(), 0.0);
        assert_eq!(out.mean_queueing_delay_secs(), 0.0);
    }

    #[test]
    fn fifo_queueing_delay_reflects_slot_pressure() {
        // One single-slot node, many jobs: later jobs must wait.
        let plan = WorkloadPlan::random_n(6, 7);
        let cfgs = [NodeConfig::default()];
        let out = run_sched(
            &cfgs,
            PolicyKind::FlowCon(FlowConConfig::default()),
            SchedPolicyKind::Fifo.build(),
            SchedConfig {
                slots_per_node: 1,
                ..SchedConfig::default()
            },
            arrivals_of(&plan),
            &mut flowcon_sim::trace::NoopTracer,
        );
        assert_eq!(out.completed_jobs(), 6);
        assert!(out.mean_queueing_delay_secs() > 0.0);
        assert_eq!(out.preemptions, 0, "FIFO never preempts");
    }

    #[test]
    fn a_late_lone_arrival_is_fast_forwarded_to() {
        let cfgs = [NodeConfig::default()];
        let arrivals = vec![ArrivalSpec {
            model: ModelId::MnistTorch,
            arrival: SimTime::from_secs(86_400),
            work_scale: 0.05,
        }];
        let out = run_sched(
            &cfgs,
            PolicyKind::Baseline,
            SchedPolicyKind::Fifo.build(),
            SchedConfig::default(),
            arrivals,
            &mut flowcon_sim::trace::NoopTracer,
        );
        assert_eq!(out.completed_jobs(), 1);
        assert!(out.completions[0].finished >= SimTime::from_secs(86_400));
        // The job was placed at the first barrier at/after its arrival.
        assert!(out.decisions[0].at >= SimTime::from_secs(86_400));
        assert!(
            out.decisions[0].at <= SimTime::from_secs(86_410),
            "placement barrier drifted: {:?}",
            out.decisions[0].at
        );
    }

    /// A discipline that emits whatever its function says — for driving
    /// the engine into the failures it must reject loudly.
    struct Scripted(&'static str, fn(&ClusterView<'_>, &mut Vec<SchedAction>));

    impl ClusterPolicy for Scripted {
        fn name(&self) -> &'static str {
            self.0
        }

        fn schedule(&mut self, view: &ClusterView<'_>, actions: &mut Vec<SchedAction>) {
            (self.1)(view, actions)
        }
    }

    /// Two jobs arriving at t=0 on one node with `slots` slots.
    fn run_scripted(slots: usize, policy: Scripted) -> SchedOutcome {
        let job = ArrivalSpec {
            model: ModelId::MnistTorch,
            arrival: SimTime::ZERO,
            work_scale: 0.05,
        };
        run_sched(
            &[NodeConfig::default()],
            PolicyKind::Baseline,
            Box::new(policy),
            SchedConfig {
                slots_per_node: slots,
                ..SchedConfig::default()
            },
            vec![job; 2],
            &mut flowcon_sim::trace::NoopTracer,
        )
    }

    #[test]
    #[should_panic(
        expected = "policy 'double-place' emitted Place { job: 0, node: 0 } at barrier t=0s: \
                    job 0 is running on node 0"
    )]
    fn placing_a_job_twice_in_one_round_names_the_policy_job_and_barrier() {
        run_scripted(
            2,
            Scripted("double-place", |view, actions| {
                let job = view.queue[0].id;
                actions.push(SchedAction::Place { job, node: 0 });
                actions.push(SchedAction::Place { job, node: 0 });
            }),
        );
    }

    #[test]
    #[should_panic(
        expected = "policy 'overfill' emitted Place { job: 1, node: 0 } at barrier t=0s: \
                    node 0 is full (1 slots)"
    )]
    fn placing_onto_a_full_node_names_the_node() {
        run_scripted(
            1,
            Scripted("overfill", |view, actions| {
                for job in view.queue {
                    actions.push(SchedAction::Place {
                        job: job.id,
                        node: 0,
                    });
                }
            }),
        );
    }

    #[test]
    #[should_panic(
        expected = "policy 'preempt-queued' emitted Preempt { job: 0 } at barrier t=0s: \
                    job 0 is queued"
    )]
    fn preempting_a_queued_job_names_the_policy_job_and_barrier() {
        run_scripted(
            2,
            Scripted("preempt-queued", |view, actions| {
                actions.push(SchedAction::Preempt {
                    job: view.queue[0].id,
                });
            }),
        );
    }
}
