//! Ring construction over a set of GCDs.
//!
//! RCCL builds its rings from a topology search at communicator creation.
//! On the MI250X node the full eight-GCD set admits Hamiltonian cycles that
//! use only direct xGMI links; [`Router::full_node_ring`] finds the best one
//! by brute force (minimize the worst edge, then total cost), once per
//! router, so every communicator over the same routes shares one search.
//! Sub-node communicators fall back to a generic device-order ring whose
//! edges may need multi-hop routes — reproducing the paper's Fig. 12
//! observation that Reduce, Broadcast and AllReduce get *faster* when going
//! from seven to eight GPUs ("more balanced communication pattern when all
//! eight GPUs are used").

use ifsim_topology::{GcdId, NodeTopology, Router};

/// A directed communication ring: `order[i]` sends to `order[(i+1) % n]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ring {
    /// GCDs in ring order.
    pub order: Vec<GcdId>,
}

impl Ring {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The successor of the member at `pos`.
    pub fn next(&self, pos: usize) -> GcdId {
        self.order[(pos + 1) % self.order.len()]
    }
}

/// Build the communicator ring for a set of GCDs.
///
/// - Full node (all GCDs of `topo`): the router's
///   [`full_node_ring`](Router::full_node_ring), the Hamiltonian cycle
///   minimizing `(worst edge hops, worst edge 1/bw, total hops)` — the
///   topology-search result, searched once per router.
/// - Subset: generic ring in device order (RCCL's fallback orderings do not
///   match the hardware ring; modeled as the identity order).
pub fn build_ring(topo: &NodeTopology, router: &Router, gcds: &[GcdId]) -> Ring {
    assert!(gcds.len() >= 2, "a ring needs at least two members");
    let mut sorted = gcds.to_vec();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), gcds.len(), "duplicate ring members");
    if sorted.len() == topo.n_gcds() {
        Ring {
            order: router.full_node_ring(topo).to_vec(),
        }
    } else {
        Ring { order: sorted }
    }
}

/// The per-edge brute force the edge table of
/// [`Router::full_node_ring`] replaced, kept as the differential oracle:
/// one route lookup and bottleneck walk per edge of every candidate.
#[cfg(test)]
mod oracle {
    use super::*;
    use ifsim_topology::RoutePolicy;

    /// `(worst hops, worst 1/bw bits, total hops)` — lower is better.
    type RingScore = (usize, u64, usize);

    pub(super) fn optimal_ring(topo: &NodeTopology, router: &Router, members: &[GcdId]) -> Ring {
        let first = members[0];
        let mut rest: Vec<GcdId> = members[1..].to_vec();
        let mut best: Option<(RingScore, Vec<GcdId>)> = None;
        permute(&mut rest, 0, &mut |perm| {
            let mut order = Vec::with_capacity(members.len());
            order.push(first);
            order.extend_from_slice(perm);
            let score = score_ring(topo, router, &order);
            match &best {
                Some((bs, _)) if *bs <= score => {}
                _ => best = Some((score, order)),
            }
        });
        Ring {
            order: best.expect("at least one permutation").1,
        }
    }

    fn score_ring(topo: &NodeTopology, router: &Router, order: &[GcdId]) -> RingScore {
        let mut worst_hops = 0;
        let mut worst_inv_bw: f64 = 0.0;
        let mut total_hops = 0;
        for i in 0..order.len() {
            let (h, inv) = edge_cost(topo, router, order[i], order[(i + 1) % order.len()]);
            worst_hops = worst_hops.max(h);
            worst_inv_bw = worst_inv_bw.max(inv);
            total_hops += h;
        }
        (worst_hops, worst_inv_bw.to_bits(), total_hops)
    }

    /// Cost of one directed ring edge.
    fn edge_cost(topo: &NodeTopology, router: &Router, a: GcdId, b: GcdId) -> (usize, f64) {
        let p = router.gcd_route(a, b, RoutePolicy::MaxBandwidth);
        (p.hops(), 1.0 / p.bottleneck_per_dir(topo))
    }

    /// Visit every permutation of `items[k..]`, swapping in place.
    fn permute<T>(items: &mut [T], k: usize, f: &mut impl FnMut(&[T])) {
        if k == items.len() {
            f(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, f);
            items.swap(k, i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_topology::RoutePolicy;

    fn setup() -> (NodeTopology, Router) {
        let t = NodeTopology::frontier();
        let r = Router::new(&t);
        (t, r)
    }

    fn all_gcds(t: &NodeTopology) -> Vec<GcdId> {
        t.gcds().collect()
    }

    #[test]
    fn full_node_ring_uses_only_direct_links() {
        let (t, r) = setup();
        let ring = build_ring(&t, &r, &all_gcds(&t));
        assert_eq!(ring.len(), 8);
        for i in 0..8 {
            let a = ring.order[i];
            let b = ring.next(i);
            assert!(
                t.xgmi_width(a, b).is_some(),
                "full-node ring edge {a}->{b} is not a direct link: {:?}",
                ring.order
            );
        }
    }

    #[test]
    fn full_node_ring_visits_every_gcd_once() {
        let (t, r) = setup();
        let ring = build_ring(&t, &r, &all_gcds(&t));
        let mut seen: Vec<u8> = ring.order.iter().map(|g| g.0).collect();
        seen.sort();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn subset_rings_use_device_order() {
        let (t, r) = setup();
        let members: Vec<GcdId> = [0u8, 3, 5].iter().map(|&g| GcdId(g)).collect();
        let ring = build_ring(&t, &r, &members);
        assert_eq!(ring.order, members);
    }

    #[test]
    fn seven_gcd_generic_ring_has_multi_hop_edges() {
        // The mechanism behind the 7→8 latency dip: the generic ring over
        // seven GCDs crosses non-adjacent pairs.
        let (t, r) = setup();
        let members: Vec<GcdId> = (0..7u8).map(GcdId).collect();
        let ring = build_ring(&t, &r, &members);
        let multi_hop = (0..ring.len())
            .filter(|&i| t.xgmi_width(ring.order[i], ring.next(i)).is_none())
            .count();
        assert!(multi_hop > 0, "generic 7-ring should have indirect edges");
    }

    #[test]
    fn two_member_ring_is_direct_for_same_package() {
        let (t, r) = setup();
        let ring = build_ring(&t, &r, &[GcdId(0), GcdId(1)]);
        assert_eq!(ring.order, vec![GcdId(0), GcdId(1)]);
        assert!(t.xgmi_width(GcdId(0), GcdId(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate ring members")]
    fn duplicate_members_rejected() {
        let (t, r) = setup();
        let _ = build_ring(&t, &r, &[GcdId(0), GcdId(0)]);
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn singleton_ring_rejected() {
        let (t, r) = setup();
        let _ = build_ring(&t, &r, &[GcdId(0)]);
    }

    #[test]
    fn healthy_full_node_ring_is_pinned() {
        // Quad, single, quad, dual, quad, single, quad, dual: every package
        // crossed over its quad, the two duals closing the cycle.
        let (t, r) = setup();
        let ring = build_ring(&t, &r, &all_gcds(&t));
        let order: Vec<u8> = ring.order.iter().map(|g| g.0).collect();
        assert_eq!(order, [0, 1, 3, 2, 4, 5, 7, 6]);
    }

    #[test]
    fn edge_table_matches_the_oracle_on_every_single_fault() {
        use ifsim_topology::{HealthMap, LinkHealth, LinkId, LinkKind};
        let t = NodeTopology::frontier();
        let members = all_gcds(&t);
        let mut routers = vec![Router::new(&t)];
        for l in (0..t.links().len() as u32).map(LinkId) {
            if !matches!(t.link(l).kind, LinkKind::Xgmi(_)) {
                continue;
            }
            for state in [
                LinkHealth::Down,
                LinkHealth::Degraded { lanes: 1 },
                LinkHealth::Degraded { lanes: 2 },
                LinkHealth::Degraded { lanes: 3 },
            ] {
                let mut h = HealthMap::healthy(&t);
                h.set(l, state);
                routers.push(Router::new_with_health(&t, &h));
            }
        }
        assert_eq!(routers.len(), 49);
        for r in &routers {
            let connected = members.iter().all(|&a| {
                members
                    .iter()
                    .all(|&b| a == b || r.try_gcd_route(a, b, RoutePolicy::MaxBandwidth).is_some())
            });
            assert!(connected, "one fault never partitions the Frontier node");
            assert_eq!(
                build_ring(&t, r, &members),
                oracle::optimal_ring(&t, r, &members)
            );
        }
    }
}
