#![warn(missing_docs)]

//! # ifsim-hip — a HIP-like runtime over the simulated node
//!
//! The programming surface the paper's benchmarks are written against,
//! re-created on top of the simulator:
//!
//! - device management (`set_device`, visibility filtering à la
//!   `HIP_VISIBLE_DEVICES`);
//! - every allocation API of the paper's Table I (`malloc`, `host_malloc`
//!   with coherence/NUMA flags, `malloc_managed`, `host_register`);
//! - explicit copies (`memcpy`, `memcpy_peer[_async]`) that select SDMA
//!   engines or blit kernels according to `HSA_ENABLE_SDMA` /
//!   `HSA_ENABLE_PEER_SDMA`;
//! - streams, events (the GPU-side timing mechanism of Fig. 6b), and
//!   STREAM-class kernels whose memory traffic is planned onto the fabric;
//! - XNACK page-fault migration for managed memory (`HSA_XNACK=1`).
//!
//! The runtime is **functional**: copies and kernels actually move and
//! compute bytes (where backings are real), while a discrete-event loop and
//! the fluid fabric model advance a virtual clock. Benchmarks read that
//! clock exactly the way the originals read `hipEventElapsedTime` or host
//! timers.
//!
//! ## Example
//!
//! ```
//! use ifsim_hip::{HipSim, EnvConfig, MemcpyKind};
//!
//! let mut hip = HipSim::new(EnvConfig::default());
//! hip.set_device(0).unwrap();
//! let host = hip.host_malloc(1024, Default::default()).unwrap();
//! let dev = hip.malloc(1024).unwrap();
//! hip.mem_mut().write_f32s(host, 0, &[1.0; 256]).unwrap();
//! hip.memcpy(dev, 0, host, 0, 1024, MemcpyKind::HostToDevice).unwrap();
//! assert_eq!(hip.mem().read_f32s(dev, 0, 256).unwrap().unwrap(), vec![1.0; 256]);
//! ```

pub mod dag;
pub mod device;
pub mod env;
pub mod error;
pub mod event;
pub mod fault;
pub mod kernel;
pub mod op;
pub mod plan;
pub mod runtime;
pub mod stream;
pub mod telemetry;
pub mod trace;

pub use dag::DagBuilder;
pub use device::{DeviceId, DeviceProps};
pub use env::EnvConfig;
pub use error::{HipError, HipResult};
pub use event::EventId;
pub use fault::{FabricHealth, FaultStats, RetryPolicy};
pub use kernel::KernelSpec;
pub use op::{MemcpyKind, OpLabel};
pub use runtime::{HipSim, MemAdvise};
pub use stream::StreamId;
pub use telemetry::build_sim_telemetry;
pub use trace::{Trace, TraceEvent, TraceKind};

// Re-exports the benchmarks lean on.
pub use ifsim_fabric::{Calibration, FaultEvent, FaultKind, FaultPlan};
pub use ifsim_memory::{BufferId, HostAllocFlags, MemKind, MemSpace};
pub use ifsim_topology::{GcdId, LinkHealth, LinkKind, NodeTopology, NumaId};
