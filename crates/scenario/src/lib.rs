//! # ifsim-scenario — declarative scenarios and trace replay
//!
//! The workload frontend of the simulator: JSON scenario files
//! (schema `ifsim-scenario-v1`) describing *what to run* — topology
//! profile, calibration overrides, a fault schedule, a workload (registry
//! experiment, explicit trace DAG, or built-in generator), and sweep
//! axes — compiled into the [`ifsim_core::Experiment`] machinery, so every
//! existing driver (`repro --quick --jobs N`, telemetry capture,
//! critical-path analysis, `ifsim-serve` caching) runs scenarios without
//! modification.
//!
//! ```
//! let text = r#"{
//!   "schema": "ifsim-scenario-v1",
//!   "name": "moe-demo",
//!   "workload": {"type": "moe-alltoall", "ranks": 4,
//!                "bytes_per_pair": 1048576, "steps": 1,
//!                "compute_bytes": 4194304},
//!   "config": {"reps": 2, "warmup": 0}
//! }"#;
//! let scenario = ifsim_scenario::Scenario::from_str(text).unwrap();
//! let exp = ifsim_scenario::compile(&scenario).unwrap();
//! let result = exp.run(&ifsim_core::BenchConfig::quick());
//! assert!(result.all_passed());
//! ```
//!
//! See `docs/SCENARIOS.md` for the format reference.

#![warn(missing_docs)]

pub mod compile;
pub mod field;
pub mod format;
pub mod generators;
pub mod trace;

pub use compile::compile;
pub use field::{Field, Obj};
pub use format::{ConfigSection, FaultSpec, GeneratorSpec, Scenario, SweepAxis, Workload, SCHEMA};
pub use trace::{ReplayStats, TraceOp, TraceRecord};

use std::fmt;

/// A validation error annotated with the field path that caused it —
/// `workload.records[3].bytes`, `sweep[0].values[2]`, `calib.eff_sdma_xgmi`.
/// The serve daemon surfaces the path in its structured error responses;
/// `telemetry-lint --scenario` prints it. [`Field`] builds the path for
/// every error it finds.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldError {
    /// Dotted/indexed path of the offending field ("" for document-level
    /// problems such as invalid JSON).
    pub field: String,
    /// What is wrong with it.
    pub message: String,
}

impl FieldError {
    /// An error about `field`.
    pub fn new(field: impl Into<String>, message: impl Into<String>) -> FieldError {
        FieldError {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.field.is_empty() {
            write!(f, "{}", self.message)
        } else {
            write!(f, "field '{}': {}", self.field, self.message)
        }
    }
}

impl std::error::Error for FieldError {}
