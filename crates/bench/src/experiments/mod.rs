//! Experiment definitions, one module per figure group.

pub mod ablation;
pub mod fidelity;
pub mod fig1;
pub mod fixed;
pub mod frontier;
pub mod random;
pub mod scale;
pub mod stream;
pub mod trace;

use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_core::policy::{FairSharePolicy, FlowConPolicy, ResourcePolicy};
use flowcon_core::session::{Session, SessionResult};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::summary::RunSummary;

/// The seed every headline experiment uses (results in EXPERIMENTS.md were
/// produced with this seed; change it to check robustness).
pub const DEFAULT_SEED: u64 = 0xF10C;

/// The default simulated node for all experiments.
pub fn default_node() -> NodeConfig {
    NodeConfig::default().with_seed(DEFAULT_SEED)
}

/// Harness shorthand: one full-observability session under an arbitrary
/// policy (the experiments need every paper trace, so they always record
/// with the default `FullRecorder`).
pub fn policy_run(
    node: NodeConfig,
    plan: &WorkloadPlan,
    policy: Box<dyn ResourcePolicy>,
) -> SessionResult<RunSummary> {
    Session::builder()
        .node(node)
        .plan(plan.clone())
        .policy_box(policy)
        .build()
        .run()
}

/// Harness shorthand: one FlowCon session with the given parameters.
pub fn flowcon_run(
    node: NodeConfig,
    plan: &WorkloadPlan,
    config: FlowConConfig,
) -> SessionResult<RunSummary> {
    policy_run(node, plan, Box::new(FlowConPolicy::new(config)))
}

/// Harness shorthand: one NA-baseline session.
pub fn baseline_run(node: NodeConfig, plan: &WorkloadPlan) -> SessionResult<RunSummary> {
    policy_run(node, plan, Box::new(FairSharePolicy::new()))
}
