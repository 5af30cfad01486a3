#![warn(missing_docs)]

//! # ifsim-des — discrete-event simulation core
//!
//! Foundation crate for the `ifsim` AMD multi-GPU / Infinity Fabric
//! simulator. It provides the pieces every other layer builds on:
//!
//! - [`Time`] / [`Dur`]: virtual simulation time in nanoseconds.
//! - [`EventQueue`]: a deterministic time-ordered queue with FIFO ties, the
//!   HIP runtime's queue of typed stream wake-ups.
//! - [`Rng`]: a seeded SplitMix64 generator so every simulated measurement
//!   is reproducible bit-for-bit.
//! - [`stats`]: summary statistics used by the microbenchmark reports.
//! - [`units`]: byte/bandwidth/time constants and pretty-printers shared by
//!   every report in the workspace.
//!
//! The queue is intentionally minimal: the interconnect simulator in
//! `ifsim-fabric` keeps fluid flow state *outside* the event queue (rates are
//! recomputed on every arrival/departure), so the queue only ever holds
//! discrete happenings — op launches and retry backoffs.

pub mod cancel;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use cancel::CancelToken;
pub use queue::EventQueue;
pub use rng::Rng;
pub use stats::Summary;
pub use time::{Dur, Time};
