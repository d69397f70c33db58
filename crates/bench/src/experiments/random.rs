//! Random-scheduling experiments (§5.4): Figs. 9–11.
//!
//! Five models (LSTM-CFC, VAE, VAET, MNIST, GRU) submitted at uniformly
//! random times in 0–200 s, compared across four FlowCon parameter settings
//! and NA.

use super::{baseline_run, flowcon_run};
use flowcon_cluster::executor::map_bounded;
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::summary::RunSummary;

/// The four parameter settings of Fig. 9: (α, itval).
pub const FIG9_PARAMS: [(f64, u64); 4] = [(0.03, 30), (0.03, 60), (0.05, 30), (0.05, 60)];

/// Results of the Fig. 9 comparison.
#[derive(Debug, Clone)]
pub struct RandomComparison {
    /// One summary per FlowCon setting, in [`FIG9_PARAMS`] order.
    pub flowcon: Vec<RunSummary>,
    /// The NA baseline.
    pub baseline: RunSummary,
    /// The workload (for labels / arrival times).
    pub plan: WorkloadPlan,
}

impl RandomComparison {
    /// Job labels in arrival order.
    pub fn labels(&self) -> Vec<String> {
        self.plan.jobs.iter().map(|j| j.label.clone()).collect()
    }

    /// `(policy, wins, losses)` per FlowCon setting vs NA.
    pub fn win_loss_rows(&self) -> Vec<(String, usize, usize)> {
        self.flowcon
            .iter()
            .map(|s| {
                let (w, l) = s.wins_losses_vs(&self.baseline);
                (s.policy.clone(), w, l)
            })
            .collect()
    }
}

/// Fig. 9: the five-job random schedule under four settings + NA.
pub fn fig9(node: NodeConfig, workload_seed: u64) -> RandomComparison {
    let plan = WorkloadPlan::random_five(workload_seed);
    let baseline = baseline_run(node, &plan).output;
    let flowcon = map_bounded(FIG9_PARAMS.to_vec(), |(alpha, itval): (f64, u64)| {
        flowcon_run(node, &plan, FlowConConfig::with_params(alpha, itval)).output
    });
    RandomComparison {
        flowcon,
        baseline,
        plan,
    }
}

/// Figs. 10–11: CPU usage traces for FlowCon (α = 3%, itval = 30) and NA.
pub fn fig10_fig11(node: NodeConfig, workload_seed: u64) -> (RunSummary, RunSummary) {
    let plan = WorkloadPlan::random_five(workload_seed);
    let fc = flowcon_run(node, &plan, FlowConConfig::with_params(0.03, 30)).output;
    let na = baseline_run(node, &plan).output;
    (fc, na)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{default_node, DEFAULT_SEED};

    #[test]
    fn flowcon_wins_most_jobs() {
        let cmp = fig9(default_node(), DEFAULT_SEED);
        for (policy, wins, losses) in cmp.win_loss_rows() {
            assert!(
                wins >= 3,
                "{policy}: expected ≥3 wins out of 5, got {wins} wins / {losses} losses"
            );
        }
    }

    #[test]
    fn makespan_not_sacrificed() {
        let cmp = fig9(default_node(), DEFAULT_SEED);
        for s in &cmp.flowcon {
            let impr = s.makespan_improvement_vs(&cmp.baseline);
            assert!(
                impr > -5.0,
                "{}: makespan regressed by {:.1}%",
                s.policy,
                -impr
            );
        }
    }

    #[test]
    fn traces_cover_all_five_jobs() {
        let (fc, na) = fig10_fig11(default_node(), DEFAULT_SEED);
        assert_eq!(fc.cpu_usage.len(), 5);
        assert_eq!(na.cpu_usage.len(), 5);
    }
}
