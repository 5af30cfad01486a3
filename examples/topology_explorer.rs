//! Topology explorer: print the node's Infinity Fabric mesh, the routes
//! the runtime would take between any two GCDs, and the latency/bandwidth
//! each choice implies — the paper's Fig. 1 + Fig. 6 reasoning as a tool.
//!
//! ```text
//! cargo run --example topology_explorer            # full survey
//! cargo run --example topology_explorer -- 1 7     # one pair in detail
//! ```

use ifsim::des::units::to_gbps;
use ifsim::fabric::latency::measured_peer_latency;
use ifsim::fabric::Calibration;
use ifsim::topology::{numa, GcdId, NodeTopology, RoutePolicy, Router};

fn main() {
    let topo = NodeTopology::frontier();
    let router = topo.routes();
    let calib = Calibration::default();

    let args: Vec<u8> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("GCD index 0-7"))
        .collect();
    if let [a, b] = args[..] {
        explain_pair(&topo, router, &calib, GcdId(a), GcdId(b));
        return;
    }

    println!("=== Infinity Fabric mesh (Frontier/LUMI-class node) ===\n");
    println!("GCD adjacency (xGMI lanes, '.' = not direct):");
    print!("      ");
    for j in 0..8 {
        print!("GCD{j} ");
    }
    println!();
    for i in 0..8u8 {
        print!("GCD{i}  ");
        for j in 0..8u8 {
            match topo.xgmi_width(GcdId(i), GcdId(j)) {
                Some(w) => print!("{:>4} ", format!("{}x", w.lanes())),
                None if i == j => print!("{:>4} ", "-"),
                None => print!("{:>4} ", "."),
            }
        }
        println!();
    }

    println!("\nNUMA affinity:");
    for (g, n) in numa::affinity_table(&topo) {
        print!("  {g}->{n}");
    }
    println!("\n\nRoute survey (bandwidth-maximizing policy, as hipMemcpyPeer uses):");
    for a in 0..8u8 {
        for b in 0..8u8 {
            if a >= b {
                continue;
            }
            let p = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
            let lat = measured_peer_latency(&topo, p, &calib);
            println!(
                "  GCD{a} -> GCD{b}: {} hops via {:?}, bottleneck {:>5.0} GB/s/dir, engine latency {:.1} us",
                p.hops(),
                p.ports.iter().map(|q| format!("{q}")).collect::<Vec<_>>(),
                to_gbps(p.bottleneck_per_dir(&topo)),
                lat.as_us(),
            );
        }
    }
    println!("\nPairs where routing for bandwidth costs latency (the paper's outliers):");
    for a in 0..8u8 {
        for b in 0..8u8 {
            if a >= b {
                continue;
            }
            let bw = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
            let sh = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::ShortestHop);
            if bw.hops() > sh.hops() {
                println!(
                    "  GCD{a}-GCD{b}: {} hops at {:.0} GB/s instead of {} hops at {:.0} GB/s",
                    bw.hops(),
                    to_gbps(bw.bottleneck_per_dir(&topo)),
                    sh.hops(),
                    to_gbps(sh.bottleneck_per_dir(&topo)),
                );
            }
        }
    }
}

fn explain_pair(topo: &NodeTopology, router: &Router, calib: &Calibration, a: GcdId, b: GcdId) {
    println!("=== {a} <-> {b} ===");
    for (name, policy) in [
        (
            "bandwidth-maximizing (hipMemcpyPeer)",
            RoutePolicy::MaxBandwidth,
        ),
        ("shortest-hop", RoutePolicy::ShortestHop),
    ] {
        let p = router.gcd_route(a, b, policy);
        println!(
            "{name}:\n  route {:?}\n  {} hops, bottleneck {:.0} GB/s per direction, \
             measured-style latency {:.1} us",
            p.ports.iter().map(|q| format!("{q}")).collect::<Vec<_>>(),
            p.hops(),
            to_gbps(p.bottleneck_per_dir(topo)),
            measured_peer_latency(topo, p, calib).as_us(),
        );
    }
    println!(
        "expected hipMemcpyPeer bandwidth (SDMA): {:.1} GB/s",
        to_gbps(
            (calib.eff_sdma_xgmi
                * router
                    .gcd_route(a, b, RoutePolicy::MaxBandwidth)
                    .bottleneck_per_dir(topo))
            .min(calib.sdma_payload_cap)
        )
    );
    println!(
        "expected direct kernel bandwidth (unidirectional): {:.1} GB/s",
        to_gbps(
            calib.eff_kernel_xgmi
                * router
                    .gcd_route(a, b, RoutePolicy::MaxBandwidth)
                    .bottleneck_per_dir(topo)
        )
    );
}
