//! The dense headless cluster path, split at its placement stage.
//!
//! [`PlacedHeadless`] is a placed-but-unsimulated cluster, the stage
//! boundary `repro profile` clocks.  Driving it yields the same
//! [`ClusterOutcome`] every headless run returns; [`ClusterRun`] survives
//! only as an alias of that type.

use flowcon_core::config::NodeConfig;
use flowcon_core::dense::{run_headless_dense, DenseScratch, QueueKind};
use flowcon_dl::workload::JobRequest;
use flowcon_metrics::summary::CompletionStats;

use crate::executor;
use crate::policy_kind::PolicyKind;
use crate::session::ClusterOutcome;

/// The old name of [`ClusterOutcome`], kept because the `flowbench`
/// dense workload still imports it.
pub type ClusterRun<T> = ClusterOutcome<T>;

/// A headless cluster with every job already placed, ready to simulate.
///
/// Produced by [`ClusterSession::place`](crate::session::ClusterSession::place);
/// [`PlacedHeadless::run`] drives the dense per-worker simulations.
/// Splitting the run at this boundary exists for profiling
/// (`repro profile` clocks the two stages separately).
#[derive(Debug)]
pub struct PlacedHeadless {
    pub(crate) nodes: Vec<NodeConfig>,
    pub(crate) policy: PolicyKind,
    /// All jobs in one arena, sorted by worker (CSR layout).
    pub(crate) flat: Vec<JobRequest>,
    /// `offsets[w]..offsets[w + 1]` slices worker `w`'s jobs out of `flat`.
    pub(crate) offsets: Vec<usize>,
    pub(crate) placements: Vec<usize>,
}

impl PlacedHeadless {
    /// Simulate every worker on the sharded executor through the dense
    /// headless path.  `_queue` is ignored (see [`QueueKind`]).
    pub fn run(self, _queue: QueueKind) -> ClusterOutcome<CompletionStats> {
        let policy = self.policy;
        let work: Vec<(usize, NodeConfig)> = self.nodes.iter().copied().enumerate().collect();
        let flat = &self.flat[..];
        let offsets = &self.offsets[..];
        let workers = executor::map_sharded(work, DenseScratch::new, |scratch, (idx, node)| {
            let jobs = &flat[offsets[idx]..offsets[idx + 1]];
            run_headless_dense(node, jobs, policy.build(), QueueKind::Heap, scratch)
        });
        ClusterOutcome {
            workers,
            placements: self.placements,
            streams: Vec::new(),
            tails: Vec::new(),
        }
    }
}
