//! # ifsim — AMD multi-GPU / Infinity Fabric data-movement simulator
//!
//! Facade crate: re-exports the full workspace. See the README for the
//! architecture tour and `ifsim::registry` for the paper's experiments.
//!
//! ```
//! use ifsim::hip::{HipSim, EnvConfig, HostAllocFlags, MemcpyKind};
//!
//! let mut hip = HipSim::new(EnvConfig::default());
//! let host = hip.host_malloc(4096, HostAllocFlags::coherent()).unwrap();
//! let dev = hip.malloc(4096).unwrap();
//! hip.memcpy(dev, 0, host, 0, 4096, MemcpyKind::HostToDevice).unwrap();
//! assert!(hip.now().as_us() > 0.0);
//! ```

pub use ifsim_core::*;
