//! Halo exchange: the communication pattern of stencil/CFD codes the
//! paper's introduction motivates. A 1-D periodic domain decomposition
//! across all eight GCDs exchanges boundary halos with both neighbours
//! every step, comparing three strategies:
//!
//! 1. **host-staged**: halos bounce through pinned host memory
//!    (non-GPU-aware MPI style) — every byte crosses two 36 GB/s CPU links
//!    and the per-NUMA DDR bottleneck;
//! 2. **direct, naive mapping**: rank i on GCD i, halos move with peer
//!    kernels over whatever routes the fabric offers;
//! 3. **direct, topology-aware mapping**: ranks laid along the node's
//!    hardware ring so every neighbour is one hop away.
//!
//! The punchline matches the paper: going GPU-direct is worth several ×,
//! while — for this simple neighbour pattern — the Infinity Fabric mesh is
//! rich enough that the *mapping* barely matters (contrast with the
//! collectives of Fig. 12 and the CPU-bandwidth placement of Figs. 4–5,
//! where placement is decisive). Measure, don't assume.
//!
//! ```text
//! cargo run --example halo_exchange            # 4 MiB halos
//! cargo run --example halo_exchange -- 16      # halo size in MiB
//! ```

use ifsim::des::units::MIB;
use ifsim::hip::{EnvConfig, HipSim, HostAllocFlags, KernelSpec, MemcpyKind};
use ifsim::topology::{GcdId, NodeTopology};

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    HostStaged,
    DirectKernels,
}

/// One halo phase: every rank ships a halo to each neighbour (periodic).
/// Returns the phase's simulated duration in microseconds.
#[allow(clippy::needless_range_loop)] // rank indices address several tables
fn halo_phase_time(mapping: &[usize], halo_bytes: u64, strategy: Strategy) -> f64 {
    let mut hip = HipSim::new(EnvConfig::default());
    hip.enable_all_peer_access().unwrap();
    hip.mem_mut().set_phantom_threshold(0);
    let n = mapping.len();

    let mut halo_out = Vec::new();
    let mut halo_in = Vec::new();
    let mut bounce = Vec::new();
    for &dev in mapping {
        hip.set_device(dev).unwrap();
        halo_out.push([
            hip.malloc(halo_bytes).unwrap(),
            hip.malloc(halo_bytes).unwrap(),
        ]);
        halo_in.push([
            hip.malloc(halo_bytes).unwrap(),
            hip.malloc(halo_bytes).unwrap(),
        ]);
        bounce.push([
            hip.host_malloc(halo_bytes, HostAllocFlags::coherent())
                .unwrap(),
            hip.host_malloc(halo_bytes, HostAllocFlags::coherent())
                .unwrap(),
        ]);
    }

    let t0 = hip.now();
    match strategy {
        Strategy::DirectKernels => {
            // Receiver-side pull kernels, all concurrent.
            for r in 0..n {
                let right = (r + 1) % n;
                let left = (r + n - 1) % n;
                hip.set_device(mapping[right]).unwrap();
                hip.launch_kernel(KernelSpec::StreamCopy {
                    src: halo_out[r][1],
                    dst: halo_in[right][0],
                    elems: (halo_bytes / 4) as usize,
                })
                .unwrap();
                hip.set_device(mapping[left]).unwrap();
                hip.launch_kernel(KernelSpec::StreamCopy {
                    src: halo_out[r][0],
                    dst: halo_in[left][1],
                    elems: (halo_bytes / 4) as usize,
                })
                .unwrap();
            }
            hip.synchronize_all().unwrap();
        }
        Strategy::HostStaged => {
            // D2H all halos, then H2D into the neighbours.
            for r in 0..n {
                let stream = hip.default_stream(mapping[r]).unwrap();
                for side in 0..2 {
                    hip.memcpy_async(
                        bounce[r][side],
                        0,
                        halo_out[r][side],
                        0,
                        halo_bytes,
                        MemcpyKind::DeviceToHost,
                        stream,
                    )
                    .unwrap();
                }
            }
            hip.synchronize_all().unwrap();
            for r in 0..n {
                let right = (r + 1) % n;
                let left = (r + n - 1) % n;
                for (nbr, side) in [(right, 0), (left, 1)] {
                    let stream = hip.default_stream(mapping[nbr]).unwrap();
                    hip.memcpy_async(
                        halo_in[nbr][side],
                        0,
                        bounce[r][1 - side],
                        0,
                        halo_bytes,
                        MemcpyKind::HostToDevice,
                        stream,
                    )
                    .unwrap();
                }
            }
            hip.synchronize_all().unwrap();
        }
    }
    (hip.now() - t0).as_us()
}

/// Lay ranks along a Hamiltonian cycle of direct links (the RCCL-style
/// hardware ring), so every neighbour pair is one hop.
fn topology_aware_mapping() -> Vec<usize> {
    let topo = NodeTopology::frontier();
    let gcds: Vec<GcdId> = topo.gcds().collect();
    let ring = ifsim::coll::ring::build_ring(&topo, topo.routes(), &gcds);
    ring.order.iter().map(|g| g.0 as usize).collect()
}

fn main() {
    let halo_mib: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("halo size in MiB"))
        .unwrap_or(4);
    let halo_bytes = halo_mib * MIB;

    let naive: Vec<usize> = (0..8).collect();
    let aware = topology_aware_mapping();
    println!("=== periodic halo exchange across 8 GCDs ({halo_mib} MiB halos) ===\n");
    println!("naive mapping:          {naive:?}");
    println!("topology-aware mapping: {aware:?}\n");

    let staged = halo_phase_time(&naive, halo_bytes, Strategy::HostStaged);
    let direct_naive = halo_phase_time(&naive, halo_bytes, Strategy::DirectKernels);
    let direct_aware = halo_phase_time(&aware, halo_bytes, Strategy::DirectKernels);

    println!("host-staged (bounce through pinned memory): {staged:>9.1} us");
    println!("direct peer kernels, naive mapping:         {direct_naive:>9.1} us");
    println!("direct peer kernels, topology-aware:        {direct_aware:>9.1} us\n");

    println!(
        "going GPU-direct is worth {:.1}x over host staging.",
        staged / direct_naive.max(direct_aware)
    );
    let ratio = direct_naive / direct_aware;
    if (0.9..1.1).contains(&ratio) {
        println!(
            "mapping effect: {ratio:.2}x — for this neighbour pattern the Infinity\n\
             Fabric mesh absorbs either placement; the bandwidth-maximizing routes\n\
             of multi-hop edges spread load across otherwise idle links. Placement\n\
             is decisive elsewhere (CPU-GPU streaming, collectives) — measure it."
        );
    } else {
        println!("mapping effect: {ratio:.2}x in favour of the topology-aware layout.");
    }
}
