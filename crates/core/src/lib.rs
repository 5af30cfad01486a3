#![warn(missing_docs)]

//! # ifsim-core — the paper's evaluation as an executable experiment registry
//!
//! One [`Experiment`] per table and figure of *"Understanding Data Movement
//! in AMD Multi-GPU Systems with Infinity Fabric"* (SC 2024). Each
//! experiment drives the microbenchmark ports against the simulated node,
//! renders the same rows/series the paper reports, emits CSV, and runs
//! **shape checks** against the paper's published numbers (encoded in
//! [`paper`]).
//!
//! ```
//! use ifsim_core::{registry, BenchConfig};
//!
//! let exp = registry::by_id("fig6a").expect("registered");
//! let result = exp.run(&BenchConfig::quick());
//! assert!(result.all_passed());
//! ```
//!
//! The `repro` binary in `ifsim-bench` is a thin CLI over this registry.

pub mod experiment;
pub mod experiments;
pub mod paper;
pub mod registry;

pub use experiment::{Capture, Check, Experiment, ExperimentResult, RunOpts};
pub use ifsim_microbench::BenchConfig;

// The full stack, re-exported so downstream users (examples, benches) can
// depend on `ifsim-core` alone.
pub use ifsim_coll as coll;
pub use ifsim_des as des;
pub use ifsim_fabric as fabric;
pub use ifsim_hip as hip;
pub use ifsim_memory as memory;
pub use ifsim_microbench as microbench;
pub use ifsim_telemetry as telemetry;
pub use ifsim_topology as topology;
