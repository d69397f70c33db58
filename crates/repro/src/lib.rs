//! Umbrella crate for the FlowCon (ICPP 2019) reproduction workspace.
//!
//! Re-exports every sub-crate so the repository-root `examples/` and
//! `tests/` targets (and downstream users) can reach the whole system
//! through one dependency.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use flowcon_bench as bench;
pub use flowcon_cluster as cluster;
pub use flowcon_core as core;
pub use flowcon_dl as dl;
pub use flowcon_metrics as metrics;
pub use flowcon_rt as rt;
pub use flowcon_sim as sim;
pub use flowcon_workload as workload;
