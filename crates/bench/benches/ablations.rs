//! Ablation harness: re-runs key measurements with one design choice
//! toggled, printing simulated before/after so each mechanism's
//! contribution is visible. These are the design decisions DESIGN.md §6
//! calls out.
//!
//! Runs under `cargo bench` as a custom harness (`harness = false`) because
//! the interesting output is the *simulated* metric, not host wall time.

use ifsim_core::des::units::{GIB, MIB};
use ifsim_core::fabric::latency::measured_peer_latency;
use ifsim_core::fabric::Calibration;
use ifsim_core::hip::{EnvConfig, HipSim, KernelSpec};
use ifsim_core::microbench::comm_scope::{h2d_bandwidth, H2dInterface};
use ifsim_core::microbench::{osu, rccl_tests, BenchConfig};
use ifsim_core::topology::{GcdId, NodeTopology, RoutePolicy};

fn main() {
    // `cargo bench` passes flags like --bench; this harness has no options.
    println!("=== ifsim ablation studies ===\n");
    ablate_routing_policy();
    ablate_sdma();
    ablate_migration_page_size();
    ablate_ring_construction();
    ablate_managed_crossover();
    ablate_mi300a_coherence();
    println!("done.");
}

/// What if the coherence penalty were lifted (MI300A-class cache-coherent
/// interconnect, paper §II-C)? Re-run the managed zero-copy and migration
/// measurements under the MI300A-flavoured calibration.
fn ablate_mi300a_coherence() {
    println!("--- MI250X vs MI300A-like coherence model ---");
    for (label, calib) in [
        ("MI250X (coherent = uncached)", Calibration::default()),
        ("MI300A-like (coherent cached)", Calibration::mi300a_like()),
    ] {
        let bytes = 256 * MIB;
        let run = |env: ifsim_core::hip::EnvConfig, calib: &Calibration| {
            let mut hip = ifsim_core::hip::HipSim::with_config(
                ifsim_core::topology::NodeTopology::frontier(),
                calib.clone(),
                env,
                7,
            );
            hip.mem_mut().set_phantom_threshold(0);
            let managed = hip.malloc_managed(bytes).unwrap();
            let dev = hip.malloc(bytes).unwrap();
            let t0 = hip.now();
            hip.launch_kernel(KernelSpec::StreamCopy {
                src: managed,
                dst: dev,
                elems: (bytes / 4) as usize,
            })
            .unwrap();
            hip.device_synchronize().unwrap();
            bytes as f64 / (hip.now() - t0).as_secs() / 1e9
        };
        let zc = run(ifsim_core::hip::EnvConfig::default(), &calib);
        let mig = run(ifsim_core::hip::EnvConfig::with_xnack(), &calib);
        println!("  {label}: zero-copy {zc:.1} GB/s, first-touch migration {mig:.1} GB/s");
    }
    println!();
}

/// Routing policy: the (1,7)/(3,5) latency outliers exist *because* the
/// runtime routes for bandwidth. Shortest-hop routing removes them.
fn ablate_routing_policy() {
    println!("--- routing policy: bandwidth-maximizing vs shortest-hop ---");
    let topo = NodeTopology::frontier();
    let router = topo.routes();
    let calib = Calibration::default();
    for (a, b) in [(1u8, 7u8), (3, 5)] {
        let bw_path = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
        let sh_path = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::ShortestHop);
        let bw_lat = measured_peer_latency(&topo, bw_path, &calib).as_us();
        let sh_lat = measured_peer_latency(&topo, sh_path, &calib).as_us();
        println!(
            "  GCD{a}-GCD{b}: max-bandwidth route {} hops / {:.1} us ({:.0} GB/s); \
             shortest route {} hops / {:.1} us ({:.0} GB/s)",
            bw_path.hops(),
            bw_lat,
            bw_path.bottleneck_per_dir(&topo) / 1e9,
            sh_path.hops(),
            sh_lat,
            sh_path.bottleneck_per_dir(&topo) / 1e9,
        );
    }
    println!();
}

/// SDMA engines: the Fig. 6c/10 mechanism.
fn ablate_sdma() {
    println!("--- SDMA engines on/off (hipMemcpyPeer over the quad link) ---");
    for (label, env) in [
        ("SDMA enabled ", EnvConfig::default()),
        ("SDMA disabled", EnvConfig::without_sdma()),
    ] {
        let mut hip = HipSim::new(env);
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        let bytes = GIB;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.memcpy_peer(dst, 1, src, 0, bytes).unwrap();
        let bw = bytes as f64 / (hip.now() - t0).as_secs() / 1e9;
        println!("  {label}: {bw:.1} GB/s of the 200 GB/s link");
    }
    println!();
}

/// XNACK migration granularity: 4 KiB vs 2 MiB pages.
fn ablate_migration_page_size() {
    println!("--- XNACK migration page size ---");
    for (label, page) in [("4 KiB pages", 4096u64), ("2 MiB pages", 2 << 20)] {
        let mut hip = HipSim::new(EnvConfig::with_xnack());
        hip.mem_mut().set_phantom_threshold(0);
        hip.mem_mut().set_managed_page_size(page);
        let bytes = 64 * MIB;
        let managed = hip.malloc_managed(bytes).unwrap();
        let dev = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.launch_kernel(KernelSpec::StreamCopy {
            src: managed,
            dst: dev,
            elems: (bytes / 4) as usize,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        let bw = bytes as f64 / (hip.now() - t0).as_secs() / 1e9;
        println!("  {label}: first-touch migration at {bw:.1} GB/s");
    }
    println!();
}

/// RCCL ring construction: the 7-to-8-rank dip mechanism.
fn ablate_ring_construction() {
    println!("--- RCCL ring: generic sub-node ring vs full-node hardware ring ---");
    let mut cfg = BenchConfig::quick();
    cfg.reps = 1;
    for n in [7usize, 8] {
        let us = rccl_tests::rccl_collective_latency(
            &cfg,
            ifsim_core::coll::Collective::AllReduce,
            n,
            MIB,
        );
        println!("  AllReduce, {n} ranks: {us:.1} us");
    }
    println!();
}

/// The managed zero-copy 32 MiB crossover, and MPI-vs-direct overhead.
fn ablate_managed_crossover() {
    println!("--- managed zero-copy working-set crossover ---");
    let mut cfg = BenchConfig::quick();
    cfg.reps = 1;
    for bytes in [16 * MIB, 32 * MIB, 64 * MIB, 256 * MIB] {
        let bw = h2d_bandwidth(&cfg, H2dInterface::ManagedZeroCopy, bytes);
        println!("  {:>4} MiB working set: {bw:.1} GB/s", bytes / MIB);
    }
    println!();
    println!("--- MPI software overhead vs direct peer kernels (1 GiB, single link) ---");
    let mpi = osu::osu_p2p_bw(&cfg, 2, GIB, false);
    let direct = ifsim_core::microbench::stream::direct_p2p_unidirectional(&cfg, 2, GIB);
    println!(
        "  direct kernel {direct:.1} GB/s, MPI (SDMA off) {mpi:.1} GB/s ({:.0} % deficit)",
        (1.0 - mpi / direct) * 100.0
    );
    println!();
}
