//! # flowcon-container
//!
//! The container vocabulary FlowCon speaks.
//!
//! The FlowCon paper implements its middleware against Docker CE 18.09:
//! the Executor issues `docker update` commands with fractional CPU
//! limits, and the Container Monitor reads each job's evaluation function
//! and usage.  This crate holds the pieces of that surface the node
//! kernel (`flowcon_core::kernel`) and the real-thread runtime share:
//!
//! * [`id`] — sequential `u32` container ids rendered like short Docker
//!   hashes; the raw id doubles as the kernel's arena index.
//! * [`limits`] — resource limits with Docker's *soft* semantics and an
//!   [`limits::UpdateOptions`] builder mirroring `docker update` flags.
//! * [`workload`] — the trait a payload implements so a node can drive it
//!   with allocated CPU time (implemented by `flowcon-dl`), and the exit
//!   code a finished workload implies.
//!
//! The container pool itself — admission, the fluid advance, usage
//! accounting, exits — lives in the node kernel as flat arrays indexed by
//! container id.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod id;
pub mod limits;
pub mod workload;

pub use id::ContainerId;
pub use limits::{ResourceLimits, UpdateOptions};
pub use workload::{exit_code_for, Workload, WorkloadStatus};
