#![warn(missing_docs)]

//! # ifsim-fabric — flow-level Infinity Fabric simulator
//!
//! Turns the static graph of `ifsim-topology` into a *timed* resource model.
//! Data movements become **flows**: a payload size, a list of resource
//! segments traversed, a protocol efficiency, and an optional engine cap.
//! Concurrent flows share segment capacity by progressive-filling **max-min
//! fairness**, recomputed at every flow arrival and departure — the standard
//! fluid approximation for interconnect studies, cheap enough to sweep sizes
//! from 4 KB to 8 GB yet faithful enough to reproduce contention effects
//! (bidirectional STREAM, multi-GCD scaling, ring collectives).
//!
//! ## Resource segments
//!
//! - one segment per *direction* of every topology link (xGMI, CPU–GPU,
//!   NUMA fabric);
//! - one **duplex pool** per xGMI connection: kernel-issued remote traffic in
//!   both directions shares a single direction's worth of wire — this is the
//!   mechanism behind the paper's Fig. 9 observation that direct peer access
//!   achieves 43–44 % of *bidirectional* theoretical bandwidth while
//!   unidirectional access reaches ~87 %;
//! - one HBM segment per GCD (1.6 TB/s class) and one DDR segment per NUMA
//!   domain (51.2 GB/s class) so endpoint memory can become the bottleneck —
//!   which is exactly what makes two GCDs of the *same* package not scale in
//!   the paper's Figs. 4–5.
//!
//! ## Calibration
//!
//! All protocol efficiencies, engine caps, and latency constants live in
//! [`calib::Calibration`], each annotated with the paper measurement it is
//! fitted to.
//!
//! ## Performance
//!
//! The engine keeps flow state in a persistent CSR arena ([`arena`]), runs
//! deferred allocation-free fair-share recomputes ([`fairshare`]), solving
//! each ordered input once between capacity changes, and keeps each flow's
//! projected completion, the pass that sets them keeping the earliest — see
//! `docs/PERFORMANCE.md`.
//! The pre-rework engine survives as a test-only oracle (`reference.rs`),
//! which the differential property tests drive in lockstep with [`FlowNet`].

pub mod arena;
pub mod attr;
pub mod calib;
pub mod fairshare;
pub mod fault;
pub mod flow;
pub mod flowlog;
pub mod latency;
mod memo;
pub mod net;
pub mod recorder;
#[cfg(test)]
mod reference;
pub mod seg;

pub use attr::BottleneckAttribution;
pub use calib::Calibration;
pub use fault::{FaultEvent, FaultKind, FaultParams, FaultPlan};
pub use flow::{FlowId, FlowSpec};
pub use flowlog::{FlowEvent, FlowEventKind, FlowLog};
pub use net::{FlowNet, LinkLoad};
pub use recorder::{UtilSample, UtilSeries};
pub use seg::{Dir, SegId, SegmentMap};
