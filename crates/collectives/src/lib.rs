#![warn(missing_docs)]

//! # ifsim-coll — MPI-like and RCCL-like communication layers
//!
//! The paper's §V-C and §VI evaluate GPU-aware MPI point-to-point and the
//! five collectives (Reduce, Broadcast, AllReduce, ReduceScatter, AllGather)
//! through both MPI and RCCL. This crate recreates both layers on top of
//! `ifsim-hip`:
//!
//! - [`rccl::RcclComm`] — one communicator over N GCDs ("one CPU thread per
//!   GPU" in the paper's RCCL-tests setup). Collectives are chunked **ring
//!   schedules** executed as kernel-class traffic (the duplex-pool xGMI
//!   mechanics). Ring construction is topology-aware when the communicator
//!   spans the whole node and falls back to a generic device-order ring for
//!   sub-node communicators — the mechanism behind the paper's observation
//!   that several collectives get *faster* going from 7 to 8 GPUs.
//! - [`mpi::MpiComm`] — one MPI process per GPU (Cray-MPICH-style). Point-
//!   to-point transfers ride SDMA engines (`HSA_ENABLE_SDMA=1`) or blit
//!   kernels (`=0`) with an added software overhead fitted to the paper's
//!   10–15 % gap below direct peer kernels; collectives additionally pay
//!   IPC handle-mapping costs, the overhead the paper blames for MPI's
//!   deficit against RCCL.
//!
//! Everything is **functionally correct**: collectives really reduce /
//! gather / broadcast f32 data through the simulated memory system, and the
//! test suite checks the numerics as well as the timing shapes.

pub mod exec;
pub mod mpi;
pub mod rccl;
pub mod ring;
pub mod schedule;
pub mod transport;

pub use mpi::MpiComm;
pub use rccl::RcclComm;
pub use schedule::Collective;
pub use transport::Transport;

use ifsim_hip::{HipError, HipResult, HipSim};
use ifsim_topology::GcdId;

/// A communicator's common setup: at least two ranks, peer access enabled
/// between every ordered pair of members (the current device is restored
/// afterwards), and the members' GCDs in rank order.
fn connect_members(hip: &mut HipSim, devices: &[usize]) -> HipResult<Vec<GcdId>> {
    if devices.len() < 2 {
        return Err(HipError::InvalidValue(
            "communicator needs at least two ranks".into(),
        ));
    }
    let saved = hip.current_device();
    for &a in devices {
        hip.set_device(a)?;
        for &b in devices {
            if a != b {
                hip.enable_peer_access(b)?;
            }
        }
    }
    hip.set_device(saved)?;
    devices.iter().map(|&d| hip.gcd_of(d)).collect()
}
