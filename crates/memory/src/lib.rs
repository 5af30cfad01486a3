#![warn(missing_docs)]

//! # ifsim-memory — the simulated memory subsystem
//!
//! Models the node's physical memory (eight 64 GiB HBM2e stacks, four DDR4
//! NUMA domains) and the allocation semantics HIP exposes over it
//! (paper Table I):
//!
//! | memory | allocation | movement | coherent |
//! |---|---|---|---|
//! | device | `hipMalloc` | explicit / zero-copy peer | no |
//! | pinned | `hipHostMalloc` (non-coherent flag) | explicit | no |
//! | pinned | `hipHostMalloc` (default) | zero-copy | yes |
//! | pageable | `malloc` | explicit (staged) | no |
//! | managed | `hipMallocManaged`, XNACK=0 | zero-copy | yes |
//! | managed | `hipMallocManaged`, XNACK=1 | page migration | yes |
//!
//! The subsystem is **functional**: every allocation can carry a real byte
//! buffer, so the runtime's copies and kernels actually move data and tests
//! can assert end-to-end correctness. Multi-gigabyte sweep allocations
//! switch to *phantom* backing (timing only) above a configurable threshold.

pub mod alloc;
pub mod attrs;
pub mod backing;
pub mod page;
mod recycle;
pub mod space;

pub use alloc::{AllocError, Allocation, BufferId, MemorySystem};
pub use attrs::{HostAllocFlags, MemKind};
pub use backing::Backing;
pub use page::PageTable;
pub use space::MemSpace;
