//! Fixed-scheduling experiments (§5.3): Figs. 3–8 and Table 2.
//!
//! Workload: VAE (PyTorch) at 0 s, MNIST (PyTorch) at 40 s, MNIST
//! (TensorFlow) at 80 s — the late short TensorFlow job is the one FlowCon
//! should accelerate by shifting share away from the nearly-converged VAE.

use super::{baseline_run, flowcon_run};
use flowcon_cluster::executor::map_bounded;
use flowcon_core::config::{FlowConConfig, NodeConfig};
use flowcon_dl::workload::WorkloadPlan;
use flowcon_metrics::summary::RunSummary;

/// The itval values (seconds) swept by Figs. 3–4.
pub const INTERVALS: [u64; 5] = [20, 30, 40, 50, 60];
/// The α values swept by Figs. 5–6.
pub const ALPHAS: [f64; 5] = [0.01, 0.03, 0.05, 0.10, 0.15];
/// The job the paper's §5.3 narrative (and Table 2) tracks.
pub const TRACKED_JOB: &str = "MNIST (Tensorflow)";

/// One cell of a fixed-schedule sweep.
#[derive(Debug, Clone)]
pub struct FixedCell {
    /// FlowCon parameters for this cell.
    pub config: FlowConConfig,
    /// The run's results.
    pub summary: RunSummary,
}

/// Results of one full sweep plus the shared NA baseline.
#[derive(Debug, Clone)]
pub struct FixedSweep {
    /// Swept FlowCon cells, in sweep order.
    pub cells: Vec<FixedCell>,
    /// The NA baseline on the identical workload.
    pub baseline: RunSummary,
}

impl FixedSweep {
    /// Completion-time reduction of [`TRACKED_JOB`] per cell (Table 2).
    pub fn reductions(&self) -> Vec<(String, f64)> {
        self.cells
            .iter()
            .map(|c| {
                let red = c
                    .summary
                    .reduction_vs(&self.baseline, TRACKED_JOB)
                    .unwrap_or(f64::NAN);
                (c.config.display_name(), red)
            })
            .collect()
    }
}

/// Run the fixed workload for every `(alpha, itval)` pair given.
pub fn sweep(node: NodeConfig, params: &[(f64, u64)]) -> FixedSweep {
    let plan = WorkloadPlan::fixed_three();
    let baseline = baseline_run(node, &plan).output;
    let cells = map_bounded(params.to_vec(), |(alpha, itval): (f64, u64)| {
        let config = FlowConConfig::with_params(alpha, itval);
        let summary = flowcon_run(node, &plan, config).output;
        FixedCell { config, summary }
    });
    FixedSweep { cells, baseline }
}

/// Fig. 3: α = 5%, itval ∈ {20..60}.
pub fn fig3(node: NodeConfig) -> FixedSweep {
    sweep(node, &INTERVALS.map(|i| (0.05, i)))
}

/// Fig. 4: α = 10%, itval ∈ {20..60}.
pub fn fig4(node: NodeConfig) -> FixedSweep {
    sweep(node, &INTERVALS.map(|i| (0.10, i)))
}

/// Fig. 5: itval = 20, α ∈ {1..15}%.
pub fn fig5(node: NodeConfig) -> FixedSweep {
    sweep(node, &ALPHAS.map(|a| (a, 20)))
}

/// Fig. 6: itval = 30, α ∈ {1..15}%.
pub fn fig6(node: NodeConfig) -> FixedSweep {
    sweep(node, &ALPHAS.map(|a| (a, 30)))
}

/// One Table 2 column: `(setting label, reduction %)` rows.
pub type ReductionColumn = Vec<(String, f64)>;

/// Table 2: completion-time reduction of MNIST (TensorFlow) for the Fig. 4
/// column (α = 10%, varying itval) and the Fig. 5 column (itval = 20,
/// varying α).
pub fn table2(node: NodeConfig) -> (ReductionColumn, ReductionColumn) {
    (fig4(node).reductions(), fig5(node).reductions())
}

/// Figs. 7–8: CPU usage traces of FlowCon (α = 5%, itval = 20) and NA.
pub fn fig7_fig8(node: NodeConfig) -> (RunSummary, RunSummary) {
    let plan = WorkloadPlan::fixed_three();
    let fc = flowcon_run(node, &plan, FlowConConfig::with_params(0.05, 20)).output;
    let na = baseline_run(node, &plan).output;
    (fc, na)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::default_node;

    #[test]
    fn fig3_improves_tracked_job_across_all_intervals() {
        let sweep = fig3(default_node());
        for (name, red) in sweep.reductions() {
            assert!(
                red > 0.0,
                "{name}: expected a positive reduction, got {red:.1}%"
            );
        }
    }

    #[test]
    fn makespan_stays_close_to_baseline() {
        let sweep = fig3(default_node());
        for cell in &sweep.cells {
            let impr = cell.summary.makespan_improvement_vs(&sweep.baseline);
            assert!(
                impr > -5.0 && impr < 15.0,
                "{}: makespan improvement {impr:.1}% out of the plausible band",
                cell.config.display_name()
            );
        }
    }

    #[test]
    fn traces_exist_for_fig7_fig8() {
        let (fc, na) = fig7_fig8(default_node());
        assert_eq!(fc.cpu_usage.len(), 3);
        assert_eq!(na.cpu_usage.len(), 3);
        assert!(na.update_calls == 0, "NA never reconfigures");
        assert!(fc.update_calls > 0);
    }
}
