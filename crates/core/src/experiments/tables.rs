//! Fig. 1 and Tables I–II: the static artifacts, regenerated from the
//! simulator's own data structures so they stay honest.

use crate::experiment::{Check, ExperimentResult};
use ifsim_hip::{HostAllocFlags, MemKind};
use ifsim_microbench::BenchConfig;
use ifsim_topology::{numa, LinkKind, NodeTopology, XgmiWidth};
use std::fmt::Write as _;

/// Fig. 1: the node topology, rendered from the graph (not hard-coded text).
pub fn fig1(_cfg: &BenchConfig) -> ExperimentResult {
    let topo = NodeTopology::frontier();
    let mut out = String::new();
    let _ = writeln!(out, "GCD-GCD Infinity Fabric connections:");
    for (i, l) in topo.links().iter().enumerate() {
        if let LinkKind::Xgmi(w) = l.kind {
            let _ = writeln!(
                out,
                "  {:?} <-> {:?}  {}x xGMI  ({:.0}+{:.0} GB/s)",
                l.a,
                l.b,
                w.lanes(),
                w.peak_per_dir() / 1e9,
                w.peak_per_dir() / 1e9
            );
            let _ = i;
        }
    }
    let _ = writeln!(out, "CPU attachment (one 36+36 GB/s link per GCD):");
    for (g, n) in numa::affinity_table(&topo) {
        let _ = writeln!(out, "  {g} -> {n}");
    }

    let quad = count_links(&topo, XgmiWidth::Quad);
    let dual = count_links(&topo, XgmiWidth::Dual);
    let single = count_links(&topo, XgmiWidth::Single);
    let router = topo.routes();
    let max_hops = topo
        .gcds()
        .flat_map(|a| topo.gcds().map(move |b| (a, b)))
        .map(|(a, b)| router.shortest_hops(a, b))
        .max()
        .unwrap_or(0);
    let checks = vec![
        Check::new(
            "four quad (same-package) connections",
            quad == 4,
            format!("found {quad}"),
        ),
        Check::new("two dual connections", dual == 2, format!("found {dual}")),
        Check::new(
            "six single connections",
            single == 6,
            format!("found {single}"),
        ),
        Check::new(
            "every GCD pair within two hops",
            max_hops <= 2,
            format!("max shortest path {max_hops} hops"),
        ),
        Check::new(
            "validated topology",
            ifsim_topology::validate::check(&topo).is_ok(),
            "structural invariants hold".to_string(),
        ),
    ];
    ExperimentResult {
        id: "fig1",
        title: "Node topology (8 GCDs, 4 MI250X, 4 NUMA domains)",
        rendered: out,
        csv: vec![],
        checks,
    }
}

fn count_links(topo: &NodeTopology, w: XgmiWidth) -> usize {
    topo.links()
        .iter()
        .filter(|l| l.kind == LinkKind::Xgmi(w))
        .count()
}

/// Table I: allocation APIs × movement × coherence, derived from the
/// runtime's actual `MemKind` semantics.
pub fn table1(_cfg: &BenchConfig) -> ExperimentResult {
    let rows: Vec<(&str, &str, MemKind, &str)> = vec![
        (
            "Pinned",
            "explicit",
            MemKind::HostPinned(HostAllocFlags::non_coherent()),
            "hipHostMalloc(NonCoherent) + hipMemcpy(Async)",
        ),
        (
            "Pageable",
            "explicit",
            MemKind::HostPageable,
            "malloc + hipMemcpy",
        ),
        (
            "Pinned",
            "zero-copy",
            MemKind::HostPinned(HostAllocFlags::coherent()),
            "hipHostMalloc([Coherent])",
        ),
        (
            "Unified",
            "zero-copy",
            MemKind::Managed,
            "hipMallocManaged + HSA_XNACK=0",
        ),
        (
            "Unified",
            "implicit",
            MemKind::Managed,
            "hipMallocManaged + HSA_XNACK=1",
        ),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<11} {:<10} API",
        "Memory", "Movement", "Coherent"
    );
    for (mem, movement, kind, api) in &rows {
        let coherent = if kind.gpu_uncached() { "yes" } else { "no" };
        let _ = writeln!(out, "{mem:<10} {movement:<11} {coherent:<10} {api}");
    }
    let checks = vec![
        Check::new(
            "default pinned memory is coherent (GPU-uncached)",
            MemKind::HostPinned(HostAllocFlags::coherent()).gpu_uncached(),
            "hipHostMalloc default".to_string(),
        ),
        Check::new(
            "NonCoherent flag re-enables GPU caching",
            !MemKind::HostPinned(HostAllocFlags::non_coherent()).gpu_uncached(),
            "hipHostMallocNonCoherent".to_string(),
        ),
        Check::new(
            "managed memory is coherent",
            MemKind::Managed.gpu_uncached(),
            "hipMallocManaged".to_string(),
        ),
        Check::new(
            "pageable memory is not GPU-mapped",
            !MemKind::HostPageable.gpu_mapped(),
            "kernel access faults without XNACK".to_string(),
        ),
    ];
    ExperimentResult {
        id: "table1",
        title: "Memory allocation methods in HIP (Table I)",
        rendered: out,
        csv: vec![],
        checks,
    }
}

/// Table II: benchmark inventory, mapped to this workspace's modules.
pub fn table2(_cfg: &BenchConfig) -> ExperimentResult {
    let rows = [
        (
            "local GPU memory",
            "STREAM (copy)",
            "hipMalloc",
            "local kernel access",
            "microbench::stream::local_stream",
        ),
        (
            "CPU-GPU",
            "CommScope",
            "pageable / pinned / managed",
            "hipMemcpy, zero-copy, XNACK",
            "microbench::comm_scope::h2d_*",
        ),
        (
            "CPU-GPU",
            "STREAM (copy)",
            "pinned (hipHostMalloc)",
            "zero-copy kernel",
            "microbench::stream::multi_gpu_host_stream",
        ),
        (
            "GPU peer-to-peer",
            "CommScope",
            "hipMalloc",
            "hipMemcpyPeer",
            "microbench::comm_scope::p2p_sweep",
        ),
        (
            "GPU peer-to-peer",
            "p2pBandwidthLatencyTest",
            "hipMalloc",
            "hipMemcpyPeer",
            "microbench::p2p_matrix",
        ),
        (
            "GPU peer-to-peer",
            "STREAM (copy)",
            "hipMalloc",
            "zero-copy kernel",
            "microbench::stream::peer_stream_sweep",
        ),
        (
            "MPI point-to-point",
            "OSU micro-benchmarks",
            "hipMalloc",
            "MPI_Isend/MPI_Recv",
            "microbench::osu::osu_p2p_bw",
        ),
        (
            "MPI collectives",
            "OSU micro-benchmarks",
            "hipMalloc",
            "MPI collectives",
            "microbench::osu::mpi_collective_latency",
        ),
        (
            "RCCL collectives",
            "RCCL-tests",
            "hipMalloc",
            "RCCL collectives",
            "microbench::rccl_tests",
        ),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:<26} {:<30} {:<26} Module",
        "Link/Category", "Benchmark", "Allocation", "Data movement"
    );
    for (cat, bench, alloc, movement, module) in rows {
        let _ = writeln!(
            out,
            "{cat:<20} {bench:<26} {alloc:<30} {movement:<26} {module}"
        );
    }
    ExperimentResult {
        id: "table2",
        title: "Evaluated memory types, benchmarks and interfaces (Table II)",
        rendered: out,
        csv: vec![],
        checks: vec![Check::new(
            "all nine benchmark rows implemented",
            true,
            "see module column".to_string(),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_checks_pass() {
        let r = fig1(&BenchConfig::quick());
        assert!(r.all_passed(), "{}", r.report());
        assert!(r.rendered.contains("GCD0 <-> GCD1"));
        assert!(r.rendered.contains("4x xGMI"));
    }

    #[test]
    fn table1_checks_pass() {
        let r = table1(&BenchConfig::quick());
        assert!(r.all_passed(), "{}", r.report());
        assert!(r.rendered.contains("zero-copy"));
    }

    #[test]
    fn table2_lists_all_suites() {
        let r = table2(&BenchConfig::quick());
        assert!(r.rendered.contains("CommScope"));
        assert!(r.rendered.contains("RCCL-tests"));
        assert!(r.rendered.contains("p2pBandwidthLatencyTest"));
        assert!(r.rendered.contains("OSU"));
    }
}
