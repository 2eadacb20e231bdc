//! Closed-loop serving benchmark for the EcoFusion `PerceptionServer`.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how a
//! later change names a claim.

pub mod alloc;
pub mod cli;
pub mod episode;
pub mod host;
pub mod metrics;
pub mod shadow;
pub mod spans;
pub mod stats;
pub mod workload;
