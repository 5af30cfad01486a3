//! Differential property tests: the reworked engine (CSR arena, deferred
//! recompute, lazily-invalidated completion heap) must be observationally
//! equivalent to the pre-rework engine and to the naive fair-share oracle.
//!
//! Randomized scenarios over the Frontier topology interleave batch
//! admissions, completions, cancels, mid-flight link degradation, and hard
//! link failures. After every step:
//!
//! - every active flow's rate matches [`ReferenceNet`] to 1e-6 relative
//!   tolerance, and matches a from-scratch [`max_min_rates`] run over the
//!   current membership (the arena solver against the naive oracle);
//! - completions agree on time — and on flow id, except where two flows tie
//!   to within float round-off, in which case the pair must drain as a pair.

use ifsim_fabric::fairshare::{max_min_rates, FlowInput};
use ifsim_fabric::reference::ReferenceNet;
use ifsim_fabric::{FlowNet, FlowSpec, SegId, SegmentMap};
use ifsim_topology::{GcdId, LinkId, NodeTopology, RoutePolicy, Router};
use proptest::prelude::*;

const REL_TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Every surviving flow's payload rate, checked three ways: production
/// engine vs. reference engine vs. a fresh naive-oracle solve over the
/// production engine's own view of membership and capacities.
fn assert_rates_agree(net: &FlowNet, refnet: &ReferenceNet) {
    let ids = net.active_ids();
    assert_eq!(net.active(), refnet.active());

    let caps: Vec<f64> = (0..net.segmap().len())
        .map(|i| net.segmap().capacity(SegId(i as u32)))
        .collect();
    let seg_lists: Vec<Vec<u32>> = ids
        .iter()
        .map(|&id| net.spec_of(id).unwrap().segs.iter().map(|s| s.0).collect())
        .collect();
    let inputs: Vec<FlowInput<'_>> = ids
        .iter()
        .zip(&seg_lists)
        .map(|(&id, segs)| FlowInput {
            segs,
            wire_cap: net.spec_of(id).unwrap().wire_cap(),
        })
        .collect();
    let oracle = max_min_rates(&caps, &inputs);

    for (&id, &wire) in ids.iter().zip(&oracle) {
        let got = net.rate_of(id).unwrap();
        let reference = refnet.rate_of(id).expect("engines track the same flows");
        let naive = wire * net.spec_of(id).unwrap().efficiency;
        assert!(
            close(got, reference),
            "{id:?}: engine {got} vs reference {reference}"
        );
        assert!(close(got, naive), "{id:?}: engine {got} vs oracle {naive}");
    }
}

/// Pop one completion from each engine and require agreement; a float-level
/// tie may swap two flows, in which case both engines must produce the same
/// *pair* across two pops. Returns false once both engines are dry.
fn complete_lockstep(net: &mut FlowNet, refnet: &mut ReferenceNet) -> bool {
    let (Some((tp, ip)), Some((tr, ir))) = (net.complete_next(), refnet.complete_next()) else {
        assert_eq!(net.active(), refnet.active());
        return false;
    };
    assert!(
        close(tp.as_ns(), tr.as_ns()),
        "completion times diverge: {tp} vs {tr}"
    );
    if ip != ir {
        // Near-tie resolved in opposite order: the counterparts must come
        // straight back out of each engine at the same instant.
        let (tp2, ip2) = net.complete_next().expect("tied counterpart pending");
        let (tr2, ir2) = refnet.complete_next().expect("tied counterpart pending");
        assert_eq!(ip2, ir);
        assert_eq!(ir2, ip);
        assert!(close(tp2.as_ns(), tp.as_ns()));
        assert!(close(tr2.as_ns(), tr.as_ns()));
    }
    true
}

/// Replay one randomized op tape on a production engine against a fresh
/// reference engine, checking rates three ways after every step and draining
/// both engines dry in lockstep.
fn run_tape(ops: &[(u8, u8, u8, u32, u8)]) {
    let topo = NodeTopology::frontier();
    let router = Router::new(&topo);
    let mut net = FlowNet::new(SegmentMap::new(&topo));
    let mut refnet = ReferenceNet::new(SegmentMap::new(&topo));
    let n_links = topo.links().len() as u8;

    for &(op, a, b, kb, x) in ops {
        match op {
            // Batch admission: up to three flows at one timestamp.
            // (FlowIds stay aligned because both engines assign them
            // sequentially from zero.)
            0 | 1 => {
                let mut specs = Vec::new();
                for k in 0..=(x % 3) {
                    let (src, dst) = ((a + k) % 8, (b + 2 * k) % 8);
                    if src == dst {
                        continue;
                    }
                    let p = router.gcd_route(GcdId(src), GcdId(dst), RoutePolicy::MaxBandwidth);
                    let segs = net.segmap().path_segments(&topo, p, op == 1);
                    // A failed link earlier in the tape may have killed
                    // this route; admission over dead segments panics by
                    // contract, so skip like a re-planning runtime would.
                    if segs.iter().any(|&s| net.segmap().capacity(s) <= 0.0) {
                        continue;
                    }
                    specs.push(FlowSpec::new(segs, kb as f64 * 1024.0, 0.9));
                }
                let ids = net.add_flows(net.now(), specs.clone());
                assert_eq!(ids.len(), specs.len());
                for spec in specs {
                    refnet.add_flow(refnet.now(), spec);
                }
            }
            // Drain one completion from each engine.
            2 => {
                complete_lockstep(&mut net, &mut refnet);
            }
            // Cancel a pseudo-random live flow on both sides.
            3 => {
                let ids = net.active_ids();
                if !ids.is_empty() {
                    let id = ids[x as usize % ids.len()];
                    let dp = net.cancel(id).unwrap();
                    let dr = refnet.cancel(id).unwrap();
                    assert!(close(dp, dr), "{id:?} delivered {dp} vs {dr}");
                }
            }
            // Mid-flight degradation to 1/4..3/4 of healthy capacity.
            4 => {
                let link = LinkId((x % n_links) as u32);
                if net
                    .segmap()
                    .link_segments(link)
                    .iter()
                    .all(|&s| net.segmap().capacity(s) > 0.0)
                {
                    let factor = (kb % 3 + 1) as f64 / 4.0;
                    net.set_link_factor(link, factor);
                    refnet.set_link_factor(link, factor);
                }
            }
            // Hard link failure: both engines abort the same victims
            // with the same progress.
            _ => {
                let link = LinkId((x % n_links) as u32);
                let ap = net.fail_link(link);
                let ar = refnet.fail_link(link);
                assert_eq!(ap.len(), ar.len());
                for (&(idp, dp), &(idr, dr)) in ap.iter().zip(&ar) {
                    assert_eq!(idp, idr);
                    assert!(close(dp, dr), "{idp:?} delivered {dp} vs {dr}");
                }
            }
        }
        assert_rates_agree(&net, &refnet);
    }

    // Drain both engines dry; completion streams must stay in lockstep
    // to the end.
    while complete_lockstep(&mut net, &mut refnet) {
        assert_rates_agree(&net, &refnet);
    }
    assert_eq!(net.active(), 0);
    assert_eq!(refnet.active(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random op tapes: batch adds, completions, cancels, degradations, and
    /// link failures keep both engines and the oracle in exact agreement.
    #[test]
    fn engine_matches_reference_and_oracle_under_churn(
        ops in proptest::collection::vec(
            (0u8..6, 0u8..8, 0u8..8, 1u32..5_000, 0u8..32),
            1..36
        ),
    ) {
        run_tape(&ops);
    }

    /// Pure add/drain cycles (the benchmarked hot path) agree flow-by-flow
    /// on every completion time.
    #[test]
    fn add_drain_cycles_match_reference(
        sizes in proptest::collection::vec(1u32..50_000, 1..48),
    ) {
        let topo = NodeTopology::frontier();
        let router = Router::new(&topo);
        let mut net = FlowNet::new(SegmentMap::new(&topo));
        let mut refnet = ReferenceNet::new(SegmentMap::new(&topo));
        let mut specs = Vec::new();
        for (i, &kb) in sizes.iter().enumerate() {
            let src = (i % 8) as u8;
            let dst = ((i + 1 + i / 8) % 8) as u8;
            if src == dst {
                continue;
            }
            let p = router.gcd_route(GcdId(src), GcdId(dst), RoutePolicy::MaxBandwidth);
            let segs = net.segmap().path_segments(&topo, p, false);
            specs.push(FlowSpec::new(segs, kb as f64 * 1024.0, 0.87));
        }
        net.add_flows(net.now(), specs.clone());
        for spec in specs {
            refnet.add_flow(refnet.now(), spec);
        }
        assert_rates_agree(&net, &refnet);
        while complete_lockstep(&mut net, &mut refnet) {}
        prop_assert_eq!(net.active(), 0);
    }
}
