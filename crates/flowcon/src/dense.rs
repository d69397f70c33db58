//! The headless entry into the worker simulation.
//!
//! At one million workers the headless cluster path is memory- and
//! cache-bound, so it runs the same [`WorkerSim`](crate::worker) as every
//! other mode with the cheapest configuration: a [`CompletionsOnly`]
//! recorder (no sample or trace events are ever scheduled), a borrowed
//! job slice (containers carry no labels, so arrivals allocate nothing),
//! and a [`DenseScratch`] — the node kernel's arena plus the event heap —
//! recycled by the executor shard across every worker it drives.  A
//! steady-state worker run performs only the allocations its policy and
//! completion records need (budgeted by
//! `crates/cluster/tests/headless_allocs.rs`).

use flowcon_dl::workload::JobRequest;
use flowcon_metrics::summary::CompletionStats;
use flowcon_sim::trace::NoopTracer;

use crate::config::NodeConfig;
use crate::policy::ResourcePolicy;
use crate::recorder::CompletionsOnly;
use crate::session::SessionResult;
use crate::worker::{Plan, WorkerScratch, WorkerSetup};

/// The event queue a worker run dispatches from: always the engine's
/// binary heap.
///
/// Kept only so the benchmark harness under `flowbench/`, which passes
/// `QueueKind::Heap` to [`run_headless_dense`] and
/// `PlacedHeadless::run`, builds unchanged; both ignore it.  The next
/// change to the benchmark can drop the argument and this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The engine's binary-heap `EventQueue`.
    Heap,
}

/// The recycled arena and event heap of a worker run — the same type as
/// [`WorkerScratch`], named for the headless path.
pub type DenseScratch = WorkerScratch;

/// Run one worker's plan headless, recycling `scratch`.
///
/// `plan` must be the worker's jobs in plan order (ascending arrival; the
/// cluster manager's flat placement preserves this).  Labels are ignored —
/// the headless recorder never reads them — so the slice is borrowed, not
/// consumed.  Returns exactly what
/// `Session::builder()...recorder(CompletionsOnly::new()).run()` returns
/// for the same inputs.  `_queue` is ignored (see [`QueueKind`]).
pub fn run_headless_dense(
    node: NodeConfig,
    plan: &[JobRequest],
    policy: Box<dyn ResourcePolicy>,
    _queue: QueueKind,
    scratch: &mut DenseScratch,
) -> SessionResult<CompletionStats> {
    let setup = WorkerSetup {
        node,
        plan: Plan::Borrowed(plan),
        policy,
        recorder: CompletionsOnly::new(),
        failures: Vec::new(),
    };
    scratch.run_plan(setup, &mut NoopTracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlowConConfig;
    use crate::policy::{FairSharePolicy, FlowConPolicy};
    use crate::session::Session;
    use flowcon_dl::workload::WorkloadPlan;

    fn session_headless(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<CompletionStats> {
        Session::builder()
            .node(node)
            .plan(plan.clone())
            .policy(FlowConPolicy::new(FlowConConfig::default()))
            .recorder(CompletionsOnly::new())
            .build()
            .run()
    }

    fn dense(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<CompletionStats> {
        let mut scratch = DenseScratch::new();
        run_headless_dense(
            node,
            &plan.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
            &mut scratch,
        )
    }

    fn assert_same(a: &SessionResult<CompletionStats>, b: &SessionResult<CompletionStats>) {
        assert_eq!(a.output, b.output);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.scheduler_overhead_cpu_secs, b.scheduler_overhead_cpu_secs);
    }

    #[test]
    fn dense_is_bit_identical_to_the_object_session() {
        for seed in [3_u64, 11, 42] {
            let plan = WorkloadPlan::random_n(12, seed);
            let object = session_headless(NodeConfig::default(), &plan);
            let fast = dense(NodeConfig::default(), &plan);
            assert_same(&object, &fast);
        }
    }

    #[test]
    fn dense_matches_under_the_na_baseline_too() {
        let plan = WorkloadPlan::random_n(8, 7);
        let object = Session::builder()
            .node(NodeConfig::default())
            .plan(plan.clone())
            .policy(FairSharePolicy::new())
            .recorder(CompletionsOnly::new())
            .build()
            .run();
        let mut scratch = DenseScratch::new();
        let fast = run_headless_dense(
            NodeConfig::default(),
            &plan.jobs,
            Box::new(FairSharePolicy::new()),
            QueueKind::Heap,
            &mut scratch,
        );
        assert_same(&object, &fast);
    }

    #[test]
    fn scratch_is_safely_recyclable_across_workers() {
        let mut scratch = DenseScratch::new();
        let plan_a = WorkloadPlan::random_n(10, 1);
        let plan_b = WorkloadPlan::random_n(6, 2);
        let first = run_headless_dense(
            NodeConfig::default(),
            &plan_a.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
            &mut scratch,
        );
        // A different worker in between must not perturb the next run.
        let _ = run_headless_dense(
            NodeConfig::default().with_seed(99),
            &plan_b.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
            &mut scratch,
        );
        let again = run_headless_dense(
            NodeConfig::default(),
            &plan_a.jobs,
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
            &mut scratch,
        );
        assert_same(&first, &again);
    }

    #[test]
    fn empty_plan_is_a_no_op_run() {
        let mut scratch = DenseScratch::new();
        let result = run_headless_dense(
            NodeConfig::default(),
            &[],
            Box::new(FlowConPolicy::new(FlowConConfig::default())),
            QueueKind::Heap,
            &mut scratch,
        );
        assert_eq!(result.events_processed, 0);
        assert_eq!(result.output.len(), 0);
        assert_eq!(result.output.algorithm_runs, 0);
    }
}
