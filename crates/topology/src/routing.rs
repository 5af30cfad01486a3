//! Path selection over the node graph.
//!
//! Two policies, matching the paper's analysis (§V-A):
//!
//! - [`RoutePolicy::ShortestHop`]: fewest links. In the Frontier topology no
//!   GCD pair is further than two hops apart (the paper's Fig. 6a).
//! - [`RoutePolicy::MaxBandwidth`]: maximize the bottleneck link bandwidth,
//!   breaking ties by fewer hops. This is the policy the runtime's
//!   `hipMemcpyPeer` empirically uses: for pairs (1,7) and (3,5) it picks a
//!   *three*-hop quad–dual–quad route (100 GB/s bottleneck) over the
//!   two-hop single–single routes (50 GB/s) — producing the paper's latency
//!   outliers of 17.8–18.2 µs.
//!
//! GCD→GCD routes use only xGMI links (peer traffic is never bounced through
//! the CPU); GCD→NUMA routes use the GCD's host link plus, when the target
//! domain differs, one on-die NUMA-fabric hop.

use crate::health::HealthMap;
use crate::ids::{GcdId, LinkId, NumaId, PortId};
use crate::link::LinkKind;
use crate::node::NodeTopology;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Route selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RoutePolicy {
    /// Fewest hops; ties broken by higher bottleneck bandwidth, then by
    /// lexicographically smallest port sequence.
    ShortestHop,
    /// Highest bottleneck bandwidth; ties broken by fewer hops, then by
    /// lexicographically smallest port sequence.
    MaxBandwidth,
}

/// A concrete route: `ports.len() == links.len() + 1`, `links[i]` connects
/// `ports[i]` to `ports[i+1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Visited ports, source first.
    pub ports: Vec<PortId>,
    /// Traversed links in order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of hops (links traversed).
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Source port.
    pub fn src(&self) -> PortId {
        self.ports[0]
    }

    /// Destination port.
    pub fn dst(&self) -> PortId {
        *self.ports.last().expect("path has at least one port")
    }

    /// The smallest per-direction link bandwidth along the path, bytes/s.
    pub fn bottleneck_per_dir(&self, topo: &NodeTopology) -> f64 {
        self.links
            .iter()
            .map(|l| topo.link(*l).kind.peak_per_dir())
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether the path traverses `link`.
    pub fn uses_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// The same route traversed in the opposite direction (traffic flowing
    /// dst → src uses the reverse direction of every link).
    pub fn reversed(&self) -> Path {
        let mut ports = self.ports.clone();
        let mut links = self.links.clone();
        ports.reverse();
        links.reverse();
        Path { ports, links }
    }

    /// Sanity-check internal structure against a topology.
    pub fn validate(&self, topo: &NodeTopology) {
        assert_eq!(self.ports.len(), self.links.len() + 1, "malformed path");
        for (i, l) in self.links.iter().enumerate() {
            let spec = topo.link(*l);
            assert_eq!(
                spec.opposite(self.ports[i]),
                Some(self.ports[i + 1]),
                "link {l:?} does not connect {:?} to {:?}",
                self.ports[i],
                self.ports[i + 1]
            );
        }
    }
}

/// Precomputed all-pairs routes for a topology.
#[derive(Clone, Debug)]
pub struct Router {
    gcd_routes: BTreeMap<(GcdId, GcdId, RoutePolicy), Path>,
    host_routes: BTreeMap<(GcdId, NumaId), Path>,
    /// The ring over every GCD, searched on first use. The routes never
    /// change, so neither does it.
    full_ring: OnceLock<Vec<GcdId>>,
}

/// The maximum simple-path length explored for a topology: enough to cross
/// a chain of all its GCDs, capped to keep enumeration tractable. On the
/// Frontier graph the bandwidth-maximizing routes never exceed three hops
/// (longer paths cannot raise any pair's bottleneck: every inter-component
/// route crosses a single link), so the larger cap does not change any
/// selected route there — it exists for sparse custom topologies.
fn max_hops(topo: &NodeTopology) -> usize {
    topo.n_gcds().saturating_sub(1).clamp(4, 7)
}

impl Router {
    /// Precompute routes for all GCD pairs (both policies) and all
    /// GCD→NUMA pairs, assuming every link is healthy.
    pub fn new(topo: &NodeTopology) -> Self {
        let health = HealthMap::healthy(topo);
        let router = Self::new_with_health(topo, &health);
        for a in topo.gcds() {
            for b in topo.gcds() {
                if a == b {
                    continue;
                }
                assert!(
                    router
                        .try_gcd_route(a, b, RoutePolicy::ShortestHop)
                        .is_some(),
                    "no xGMI route between {a} and {b}; topology disconnected"
                );
            }
        }
        router
    }

    /// Precompute routes honoring a [`HealthMap`]: downed links are never
    /// traversed, and bandwidth-maximizing selection weighs each link by its
    /// *degraded* capacity (a quad running on one lane competes like a
    /// single). Pairs isolated by a partition get no route; detect them with
    /// [`Router::try_gcd_route`] returning `None` (the fabric has no
    /// CPU-bounce fallback for peer traffic — a severed xGMI component is an
    /// error surfaced by the runtime, matching real RSMI behavior).
    pub fn new_with_health(topo: &NodeTopology, health: &HealthMap) -> Self {
        let mut gcd_routes = BTreeMap::new();
        for a in topo.gcds() {
            let mut walk = Walk {
                topo,
                health,
                hop_limit: max_hops(topo),
                ports: vec![PortId::Gcd(a)],
                links: Vec::new(),
                best: vec![[None, None]; topo.n_gcds()],
            };
            walk.extend(f64::INFINITY);
            for (b, slots) in walk.best.into_iter().enumerate() {
                for (policy, slot) in POLICIES.into_iter().zip(slots) {
                    if let Some((_, path)) = slot {
                        gcd_routes.insert((a, GcdId(b as u8), policy), path);
                    }
                }
            }
        }
        let mut host_routes = BTreeMap::new();
        for g in topo.gcds() {
            for n in topo.numa_domains() {
                host_routes.insert((g, n), host_path(topo, g, n));
            }
        }
        Router {
            gcd_routes,
            host_routes,
            full_ring: OnceLock::new(),
        }
    }

    /// Route between two distinct GCDs under `policy`.
    pub fn gcd_route(&self, a: GcdId, b: GcdId, policy: RoutePolicy) -> &Path {
        self.gcd_routes
            .get(&(a, b, policy))
            .unwrap_or_else(|| panic!("no route {a} -> {b}"))
    }

    /// Route between two distinct GCDs, or `None` when link failures have
    /// partitioned the fabric between them.
    pub fn try_gcd_route(&self, a: GcdId, b: GcdId, policy: RoutePolicy) -> Option<&Path> {
        self.gcd_routes.get(&(a, b, policy))
    }

    /// Route from a GCD to a CPU NUMA domain (host link + optional on-die hop).
    pub fn host_route(&self, g: GcdId, n: NumaId) -> &Path {
        self.host_routes
            .get(&(g, n))
            .unwrap_or_else(|| panic!("no host route {g} -> {n}"))
    }

    /// Hop count of the shortest GCD route (used for the Fig. 6a matrix).
    pub fn shortest_hops(&self, a: GcdId, b: GcdId) -> usize {
        if a == b {
            0
        } else {
            self.gcd_route(a, b, RoutePolicy::ShortestHop).hops()
        }
    }

    /// The communicator ring over every GCD of `topo` (the topology this
    /// router was built for): the Hamiltonian cycle minimizing `(worst edge
    /// hops, worst edge 1/bw, total hops)` under bandwidth-maximizing
    /// routes — RCCL's topology-search result. `order[i]` sends to
    /// `order[(i + 1) % n]`, and the first GCD is fixed at position 0.
    ///
    /// Searched on first use and kept for the router's lifetime, so every
    /// runtime sharing [`NodeTopology::routes`] shares one ring, while a
    /// fault reroute's fresh router searches over its own routes. Panics
    /// if some GCD pair has no route.
    pub fn full_node_ring(&self, topo: &NodeTopology) -> &[GcdId] {
        self.full_ring.get_or_init(|| self.search_full_ring(topo))
    }

    fn search_full_ring(&self, topo: &NodeTopology) -> Vec<GcdId> {
        // One `(hops, 1/bw)` entry per ordered pair of GCDs, filled once;
        // every candidate is scored from this table.
        let n = topo.n_gcds();
        let mut cost = vec![(0, 0.0); n * n];
        for a in topo.gcds() {
            for b in topo.gcds() {
                if a != b {
                    let p = self.gcd_route(a, b, RoutePolicy::MaxBandwidth);
                    cost[a.idx() * n + b.idx()] = (p.hops(), 1.0 / p.bottleneck_per_dir(topo));
                }
            }
        }
        // Fix the first GCD; permute the rest. n = 8 → 7! = 5040
        // candidates, the first of equal score kept.
        let mut order: Vec<usize> = (0..n).collect();
        let mut best: Option<(RingScore, Vec<usize>)> = None;
        permute(&mut order, 1, &mut |perm| {
            let score = score_ring(&cost, perm);
            match &best {
                Some((bs, _)) if *bs <= score => {}
                _ => best = Some((score, perm.to_vec())),
            }
        });
        let (_, order) = best.expect("at least one permutation");
        order.into_iter().map(|i| GcdId(i as u8)).collect()
    }
}

/// `(worst hops, worst 1/bw bits, total hops)` of a ring — lower is better.
type RingScore = (usize, u64, usize);

/// Score a ring of GCD indices from the `n × n` edge-cost table.
fn score_ring(cost: &[(usize, f64)], order: &[usize]) -> RingScore {
    let n = order.len();
    let mut worst_hops = 0;
    let mut worst_inv_bw: f64 = 0.0;
    let mut total_hops = 0;
    for i in 0..n {
        let (h, inv) = cost[order[i] * n + order[(i + 1) % n]];
        worst_hops = worst_hops.max(h);
        worst_inv_bw = worst_inv_bw.max(inv);
        total_hops += h;
    }
    (worst_hops, worst_inv_bw.to_bits(), total_hops)
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

/// Both policies, in the order of [`Walk::best`]'s slots.
const POLICIES: [RoutePolicy; 2] = [RoutePolicy::ShortestHop, RoutePolicy::MaxBandwidth];

/// One depth-first walk over the simple xGMI-only paths out of a source
/// GCD, up to [`max_hops`] and never crossing a downed link. Every GCD the
/// walk reaches is a candidate endpoint: the path is offered to that
/// target's slots and the walk keeps expanding past it, so one walk sees
/// every path a per-pair enumeration would.
struct Walk<'t> {
    topo: &'t NodeTopology,
    health: &'t HealthMap,
    hop_limit: usize,
    ports: Vec<PortId>,
    links: Vec<LinkId>,
    /// Per target GCD, per policy: the best path so far and its effective
    /// bottleneck.
    best: Vec<[Option<(f64, Path)>; 2]>,
}

impl Walk<'_> {
    /// Expand the current path by every usable link; `bottleneck` is the
    /// smallest effective (post-degradation) per-direction bandwidth along
    /// it, bytes/s.
    fn extend(&mut self, bottleneck: f64) {
        let topo = self.topo;
        let here = *self.ports.last().expect("walk starts at its source");
        for &(lid, next) in topo.neighbors(here) {
            if !matches!(topo.link(lid).kind, LinkKind::Xgmi(_))
                || self.health.is_down(lid)
                || self.ports.contains(&next)
            {
                continue;
            }
            let bottleneck = bottleneck.min(self.health.effective_peak_per_dir(topo, lid));
            self.ports.push(next);
            self.links.push(lid);
            self.offer(next, bottleneck);
            if self.links.len() < self.hop_limit {
                self.extend(bottleneck);
            }
            self.ports.pop();
            self.links.pop();
        }
    }

    /// Keep the current path for `target` under each policy it strictly
    /// beats, so on a full tie the first path found stays.
    fn offer(&mut self, target: PortId, bottleneck: f64) {
        let g = target.as_gcd().expect("xGMI links join GCDs");
        let hops = self.links.len();
        for (policy, slot) in POLICIES.into_iter().zip(&mut self.best[g.0 as usize]) {
            match slot {
                Some((kept_bn, kept)) => {
                    let better = rank(policy, (hops, bottleneck), (kept.hops(), *kept_bn))
                        .then_with(|| self.ports.cmp(&kept.ports))
                        .is_lt();
                    if better {
                        *kept_bn = bottleneck;
                        kept.ports.clone_from(&self.ports);
                        kept.links.clone_from(&self.links);
                    }
                }
                None => {
                    *slot = Some((
                        bottleneck,
                        Path {
                            ports: self.ports.clone(),
                            links: self.links.clone(),
                        },
                    ))
                }
            }
        }
    }
}

/// Order two `(hops, bottleneck)` route costs under a policy, best first.
/// Callers break a tie by the lexicographically smallest port sequence.
fn rank(policy: RoutePolicy, x: (usize, f64), y: (usize, f64)) -> Ordering {
    let (hx, hy) = (x.0, y.0);
    let (bx, by) = (ordered(x.1), ordered(y.1));
    match policy {
        RoutePolicy::ShortestHop => hx.cmp(&hy).then(by.cmp(&bx)),
        RoutePolicy::MaxBandwidth => by.cmp(&bx).then(hx.cmp(&hy)),
    }
}

/// Totally ordered f64 wrapper for tie-break keys (no NaNs by construction).
fn ordered(x: f64) -> u64 {
    debug_assert!(x >= 0.0 && x.is_finite());
    x.to_bits()
}

/// The host route: GCD → local NUMA via the CPU link, plus one NUMA-fabric
/// hop when the allocation lives in a different domain.
fn host_path(topo: &NodeTopology, g: GcdId, n: NumaId) -> Path {
    let cpu_link = topo.cpu_link(g);
    let local = topo.numa_of(g);
    let mut ports = vec![PortId::Gcd(g), PortId::Numa(local)];
    let mut links = vec![cpu_link];
    if local != n {
        let hop = topo
            .link_between(PortId::Numa(local), PortId::Numa(n))
            .unwrap_or_else(|| panic!("NUMA fabric missing link {local} -> {n}"));
        ports.push(PortId::Numa(n));
        links.push(hop);
    }
    Path { ports, links }
}

/// The brute-force router the per-source walk replaced, kept as the
/// differential oracle: one DFS per ordered GCD pair collecting every
/// simple path, then a `min_by` over the full tie-break key.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn router(topo: &NodeTopology, health: &HealthMap) -> Router {
        let mut gcd_routes = BTreeMap::new();
        for a in topo.gcds() {
            for b in topo.gcds() {
                if a == b {
                    continue;
                }
                let paths = enumerate_xgmi_paths(topo, health, a, b);
                if paths.is_empty() {
                    continue;
                }
                for policy in POLICIES {
                    let best = select(topo, health, &paths, policy).clone();
                    gcd_routes.insert((a, b, policy), best);
                }
            }
        }
        let mut host_routes = BTreeMap::new();
        for g in topo.gcds() {
            for n in topo.numa_domains() {
                host_routes.insert((g, n), host_path(topo, g, n));
            }
        }
        Router {
            gcd_routes,
            host_routes,
            full_ring: OnceLock::new(),
        }
    }

    /// All simple xGMI-only paths between two GCDs up to [`max_hops`],
    /// never crossing a downed link.
    fn enumerate_xgmi_paths(
        topo: &NodeTopology,
        health: &HealthMap,
        from: GcdId,
        to: GcdId,
    ) -> Vec<Path> {
        let mut out = Vec::new();
        let mut ports = vec![PortId::Gcd(from)];
        let mut links = Vec::new();
        dfs(
            topo,
            health,
            PortId::Gcd(to),
            max_hops(topo),
            &mut ports,
            &mut links,
            &mut out,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        topo: &NodeTopology,
        health: &HealthMap,
        target: PortId,
        hop_limit: usize,
        ports: &mut Vec<PortId>,
        links: &mut Vec<LinkId>,
        out: &mut Vec<Path>,
    ) {
        let here = *ports.last().unwrap();
        if here == target {
            out.push(Path {
                ports: ports.clone(),
                links: links.clone(),
            });
            return;
        }
        if links.len() == hop_limit {
            return;
        }
        for &(lid, next) in topo.neighbors(here) {
            if !matches!(topo.link(lid).kind, LinkKind::Xgmi(_)) {
                continue;
            }
            if health.is_down(lid) {
                continue;
            }
            if ports.contains(&next) {
                continue;
            }
            ports.push(next);
            links.push(lid);
            dfs(topo, health, target, hop_limit, ports, links, out);
            ports.pop();
            links.pop();
        }
    }

    /// The smallest *effective* (post-degradation) per-direction bandwidth
    /// along a path, bytes/s.
    fn effective_bottleneck(topo: &NodeTopology, health: &HealthMap, path: &Path) -> f64 {
        path.links
            .iter()
            .map(|l| health.effective_peak_per_dir(topo, *l))
            .fold(f64::INFINITY, f64::min)
    }

    /// Pick the best path under a policy; the first of equal minima wins.
    fn select<'p>(
        topo: &NodeTopology,
        health: &HealthMap,
        paths: &'p [Path],
        policy: RoutePolicy,
    ) -> &'p Path {
        paths
            .iter()
            .min_by(|x, y| {
                let (hx, hy) = (x.hops(), y.hops());
                let (bx, by) = (
                    ordered(effective_bottleneck(topo, health, x)),
                    ordered(effective_bottleneck(topo, health, y)),
                );
                let primary = match policy {
                    RoutePolicy::ShortestHop => hx.cmp(&hy).then(by.cmp(&bx)),
                    RoutePolicy::MaxBandwidth => by.cmp(&bx).then(hx.cmp(&hy)),
                };
                primary.then_with(|| x.ports.cmp(&y.ports))
            })
            .expect("select called with at least one path")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_des::units::gbps;
    use proptest::prelude::*;

    fn router() -> (NodeTopology, Router) {
        let t = NodeTopology::frontier();
        let r = Router::new(&t);
        (t, r)
    }

    #[test]
    fn all_routes_validate_structurally() {
        let (t, r) = router();
        for a in t.gcds() {
            for b in t.gcds() {
                if a == b {
                    continue;
                }
                for p in [RoutePolicy::ShortestHop, RoutePolicy::MaxBandwidth] {
                    let path = r.gcd_route(a, b, p);
                    path.validate(&t);
                    assert_eq!(path.src(), PortId::Gcd(a));
                    assert_eq!(path.dst(), PortId::Gcd(b));
                }
            }
        }
    }

    #[test]
    fn shortest_paths_never_exceed_two_hops() {
        // Paper Fig. 6a: "the length of the shortest path never exceeds two hops".
        let (t, r) = router();
        for a in t.gcds() {
            for b in t.gcds() {
                assert!(r.shortest_hops(a, b) <= 2, "{a}->{b}");
            }
        }
    }

    #[test]
    fn outlier_pairs_get_three_hop_max_bandwidth_routes() {
        // Paper §V-A1: 1-7 routes via 1-0-6-7 and 3-5 via 3-2-4-5 under the
        // bandwidth-maximizing policy, despite two-hop alternatives.
        let (t, r) = router();
        for (a, b) in [(1u8, 7u8), (3, 5), (7, 1), (5, 3)] {
            let bw = r.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
            assert_eq!(bw.hops(), 3, "{a}-{b} bandwidth-max route");
            assert_eq!(bw.bottleneck_per_dir(&t), gbps(100.0));
            let sh = r.gcd_route(GcdId(a), GcdId(b), RoutePolicy::ShortestHop);
            assert_eq!(sh.hops(), 2, "{a}-{b} shortest route");
            assert_eq!(sh.bottleneck_per_dir(&t), gbps(50.0));
        }
    }

    #[test]
    fn outliers_are_the_only_policy_disagreements() {
        let (t, r) = router();
        let mut disagree = Vec::new();
        for a in t.gcds() {
            for b in t.gcds() {
                if a == b {
                    continue;
                }
                let sh = r.gcd_route(a, b, RoutePolicy::ShortestHop);
                let bw = r.gcd_route(a, b, RoutePolicy::MaxBandwidth);
                if bw.hops() > sh.hops() {
                    disagree.push((a.0.min(b.0), a.0.max(b.0)));
                }
            }
        }
        disagree.sort();
        disagree.dedup();
        assert_eq!(disagree, vec![(1, 7), (3, 5)]);
    }

    #[test]
    fn direct_pairs_route_over_their_link() {
        let (t, r) = router();
        for (a, b) in [(0u8, 1u8), (0, 2), (0, 6), (2, 4), (5, 7)] {
            for p in [RoutePolicy::ShortestHop, RoutePolicy::MaxBandwidth] {
                let path = r.gcd_route(GcdId(a), GcdId(b), p);
                assert_eq!(path.hops(), 1, "{a}-{b} {p:?}");
                assert_eq!(
                    Some(path.links[0]),
                    t.link_between(PortId::Gcd(GcdId(a)), PortId::Gcd(GcdId(b)))
                );
            }
        }
    }

    #[test]
    fn max_bandwidth_bottlenecks_match_paper_tiers() {
        // From GCD0: quad to 1 (200 GB/s/dir), dual to 6 (100), single to 2 (50).
        let (t, r) = router();
        let bw = |b: u8| {
            r.gcd_route(GcdId(0), GcdId(b), RoutePolicy::MaxBandwidth)
                .bottleneck_per_dir(&t)
        };
        assert_eq!(bw(1), gbps(200.0));
        assert_eq!(bw(6), gbps(100.0));
        assert_eq!(bw(2), gbps(50.0));
        // 0->7 can go 0-6-7 (dual then quad): bottleneck 100.
        assert_eq!(bw(7), gbps(100.0));
        // 0->3,4,5 bottleneck on a single link: 50.
        for b in [3, 4, 5] {
            assert_eq!(bw(b), gbps(50.0), "0->{b}");
        }
    }

    #[test]
    fn routes_are_symmetric_in_cost() {
        let (t, r) = router();
        for a in t.gcds() {
            for b in t.gcds() {
                if a == b {
                    continue;
                }
                for p in [RoutePolicy::ShortestHop, RoutePolicy::MaxBandwidth] {
                    let ab = r.gcd_route(a, b, p);
                    let ba = r.gcd_route(b, a, p);
                    assert_eq!(ab.hops(), ba.hops(), "{a}<->{b} {p:?}");
                    assert_eq!(
                        ab.bottleneck_per_dir(&t),
                        ba.bottleneck_per_dir(&t),
                        "{a}<->{b} {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn reversed_paths_validate_and_swap_endpoints() {
        let (t, r) = router();
        let p = r.gcd_route(GcdId(1), GcdId(7), RoutePolicy::MaxBandwidth);
        let rev = p.reversed();
        rev.validate(&t);
        assert_eq!(rev.src(), p.dst());
        assert_eq!(rev.dst(), p.src());
        assert_eq!(rev.hops(), p.hops());
        assert_eq!(rev.reversed(), *p);
    }

    #[test]
    fn host_routes_local_and_remote() {
        let (t, r) = router();
        let local = r.host_route(GcdId(0), NumaId(0));
        assert_eq!(local.hops(), 1);
        assert_eq!(local.links[0], t.cpu_link(GcdId(0)));
        let remote = r.host_route(GcdId(0), NumaId(3));
        assert_eq!(remote.hops(), 2);
        assert!(matches!(t.link(remote.links[1]).kind, LinkKind::NumaFabric));
        remote.validate(&t);
    }

    #[test]
    fn healthy_health_map_reproduces_default_routes() {
        // Satellite guarantee: with nothing impaired, the health-aware
        // constructor yields byte-identical routes — including the
        // (1,7)/(3,5) three-hop outliers.
        let t = NodeTopology::frontier();
        let base = Router::new(&t);
        let hr = Router::new_with_health(&t, &crate::health::HealthMap::healthy(&t));
        for a in t.gcds() {
            for b in t.gcds() {
                if a == b {
                    continue;
                }
                for p in [RoutePolicy::ShortestHop, RoutePolicy::MaxBandwidth] {
                    assert_eq!(
                        hr.try_gcd_route(a, b, p).expect("route exists"),
                        base.gcd_route(a, b, p),
                        "{a}->{b} {p:?}"
                    );
                }
            }
        }
        let bw = hr.try_gcd_route(GcdId(1), GcdId(7), RoutePolicy::MaxBandwidth);
        assert_eq!(bw.expect("outlier route").hops(), 3);
    }

    #[test]
    fn down_link_is_routed_around() {
        use crate::health::{HealthMap, LinkHealth};
        let t = NodeTopology::frontier();
        let dead = t
            .link_between(PortId::Gcd(GcdId(0)), PortId::Gcd(GcdId(2)))
            .unwrap();
        let mut h = HealthMap::healthy(&t);
        h.set(dead, LinkHealth::Down);
        let r = Router::new_with_health(&t, &h);
        for p in [RoutePolicy::ShortestHop, RoutePolicy::MaxBandwidth] {
            let path = r.try_gcd_route(GcdId(0), GcdId(2), p).expect("rerouted");
            assert!(!path.uses_link(dead), "{p:?} still crosses the dead link");
            assert!(path.hops() >= 2, "{p:?} must detour");
            path.validate(&t);
        }
    }

    #[test]
    fn degraded_quad_dissolves_the_bandwidth_outlier() {
        // Degrade the (0,1) quad to one lane: the 1-0-6-7 route's effective
        // bottleneck drops to 50 GB/s, tying the two-hop alternatives — so
        // bandwidth-maximizing routing falls back to two hops and the
        // (1,7) latency outlier disappears.
        use crate::health::{HealthMap, LinkHealth};
        let t = NodeTopology::frontier();
        let quad = t
            .link_between(PortId::Gcd(GcdId(0)), PortId::Gcd(GcdId(1)))
            .unwrap();
        let mut h = HealthMap::healthy(&t);
        h.set(quad, LinkHealth::Degraded { lanes: 1 });
        let r = Router::new_with_health(&t, &h);
        let bw = r
            .try_gcd_route(GcdId(1), GcdId(7), RoutePolicy::MaxBandwidth)
            .expect("still connected");
        assert_eq!(bw.hops(), 2, "outlier route should collapse to two hops");
        assert!(!bw.uses_link(quad));
        // The (3,5) outlier, on the untouched side of the node, survives.
        let other = r
            .try_gcd_route(GcdId(3), GcdId(5), RoutePolicy::MaxBandwidth)
            .expect("route exists");
        assert_eq!(other.hops(), 3);
    }

    #[test]
    fn isolated_gcd_partitions_cleanly() {
        use crate::health::{HealthMap, LinkHealth};
        let t = NodeTopology::frontier();
        let mut h = HealthMap::healthy(&t);
        // GCD0's xGMI attachments: quad to 1, single to 2, dual to 6.
        for peer in [1u8, 2, 6] {
            let l = t
                .link_between(PortId::Gcd(GcdId(0)), PortId::Gcd(GcdId(peer)))
                .unwrap();
            h.set(l, LinkHealth::Down);
        }
        let r = Router::new_with_health(&t, &h);
        for b in t.gcds() {
            if b == GcdId(0) {
                continue;
            }
            assert!(r
                .try_gcd_route(GcdId(0), b, RoutePolicy::MaxBandwidth)
                .is_none());
            assert!(r
                .try_gcd_route(b, GcdId(0), RoutePolicy::MaxBandwidth)
                .is_none());
        }
        // The surviving seven GCDs still reach each other.
        let p = r
            .try_gcd_route(GcdId(1), GcdId(7), RoutePolicy::MaxBandwidth)
            .expect("survivors stay connected");
        p.validate(&t);
    }

    #[test]
    fn gcd_routes_never_touch_the_cpu() {
        let (t, r) = router();
        for a in t.gcds() {
            for b in t.gcds() {
                if a == b {
                    continue;
                }
                for p in [RoutePolicy::ShortestHop, RoutePolicy::MaxBandwidth] {
                    for port in &r.gcd_route(a, b, p).ports {
                        assert!(port.as_gcd().is_some(), "{a}->{b} routes through {port}");
                    }
                }
            }
        }
    }

    fn xgmi_links(t: &NodeTopology) -> Vec<LinkId> {
        (0..t.links().len() as u32)
            .map(LinkId)
            .filter(|&l| matches!(t.link(l).kind, LinkKind::Xgmi(_)))
            .collect()
    }

    /// Assert the walk and the brute-force oracle agree on every route,
    /// partitions (`None`) included.
    fn assert_matches_oracle(t: &NodeTopology, h: &HealthMap) {
        let walk = Router::new_with_health(t, h);
        let oracle = oracle::router(t, h);
        for a in t.gcds() {
            for b in t.gcds() {
                for p in POLICIES {
                    assert_eq!(
                        walk.try_gcd_route(a, b, p),
                        oracle.try_gcd_route(a, b, p),
                        "{a}->{b} {p:?} under {:?}",
                        h.impaired().collect::<Vec<_>>()
                    );
                }
            }
            for n in t.numa_domains() {
                assert_eq!(walk.host_route(a, n), oracle.host_route(a, n));
            }
        }
    }

    #[test]
    fn walk_matches_the_oracle_on_every_single_and_paired_fault() {
        // Healthy; each xGMI link down or on 1, 2 or 3 lanes; every pair of
        // links down/down and degraded(1)/down — 181 maps.
        use crate::health::LinkHealth;
        let t = NodeTopology::frontier();
        let xgmi = xgmi_links(&t);
        assert_eq!(xgmi.len(), 12);
        let mut maps = vec![HealthMap::healthy(&t)];
        for &l in &xgmi {
            for state in [
                LinkHealth::Down,
                LinkHealth::Degraded { lanes: 1 },
                LinkHealth::Degraded { lanes: 2 },
                LinkHealth::Degraded { lanes: 3 },
            ] {
                let mut h = HealthMap::healthy(&t);
                h.set(l, state);
                maps.push(h);
            }
        }
        for (i, &x) in xgmi.iter().enumerate() {
            for &y in &xgmi[i + 1..] {
                for first in [LinkHealth::Down, LinkHealth::Degraded { lanes: 1 }] {
                    let mut h = HealthMap::healthy(&t);
                    h.set(x, first);
                    h.set(y, LinkHealth::Down);
                    maps.push(h);
                }
            }
        }
        assert_eq!(maps.len(), 181);
        for h in &maps {
            assert_matches_oracle(&t, h);
        }
    }

    /// A health map from one random draw per xGMI link: healthy, down,
    /// or degraded to `1..=lanes`.
    fn random_health(t: &NodeTopology, draws: &[(u8, u32)]) -> HealthMap {
        use crate::health::LinkHealth;
        let mut h = HealthMap::healthy(t);
        for (l, &(state, raw)) in xgmi_links(t).into_iter().zip(draws) {
            let LinkKind::Xgmi(w) = t.link(l).kind else {
                unreachable!("filtered to xGMI")
            };
            match state {
                0 => {}
                1 => h.set(l, LinkHealth::Down),
                _ => h.set(
                    l,
                    LinkHealth::Degraded {
                        lanes: 1 + raw % w.lanes(),
                    },
                ),
            }
        }
        h
    }

    /// A random connected node with 4, 6 or 8 GCDs — a random spanning
    /// tree plus random extra xGMI links, each of a random width, with CPU
    /// links and a NUMA mesh — under a random health map.
    fn arb_custom_node() -> impl Strategy<Value = (NodeTopology, HealthMap)> {
        use crate::link::{LinkSpec, XgmiWidth};
        const WIDTHS: [XgmiWidth; 3] = [XgmiWidth::Single, XgmiWidth::Dual, XgmiWidth::Quad];
        (
            2u8..=4,
            proptest::collection::vec((any::<u8>(), 0usize..3), 7),
            proptest::collection::vec((any::<u8>(), any::<u8>(), 0usize..3), 0..12),
            proptest::collection::vec((0u8..3, any::<u32>()), 20),
        )
            .prop_map(|(n_gpus, tree, extra, draws)| {
                let n = n_gpus * 2;
                let mut links: Vec<LinkSpec> = Vec::new();
                let mut add = |a: u8, b: u8, w: usize| {
                    if a == b {
                        return;
                    }
                    let spec = LinkSpec::new(
                        PortId::Gcd(GcdId(a)),
                        PortId::Gcd(GcdId(b)),
                        LinkKind::Xgmi(WIDTHS[w]),
                    );
                    if !links.iter().any(|l| l.a == spec.a && l.b == spec.b) {
                        links.push(spec);
                    }
                };
                // GCD i attaches to a random earlier GCD, so the graph is
                // connected before any link fails.
                for (i, &(parent, w)) in (1..n).zip(&tree) {
                    add(i, parent % i, w);
                }
                for &(a, b, w) in &extra {
                    add(a % n, b % n, w);
                }
                for g in 0..n {
                    links.push(LinkSpec::new(
                        PortId::Gcd(GcdId(g)),
                        PortId::Numa(NumaId(g / 2)),
                        LinkKind::CpuGpu,
                    ));
                }
                for a in 0..n_gpus {
                    for b in (a + 1)..n_gpus {
                        links.push(LinkSpec::new(
                            PortId::Numa(NumaId(a)),
                            PortId::Numa(NumaId(b)),
                            LinkKind::NumaFabric,
                        ));
                    }
                }
                let t = NodeTopology::custom(
                    crate::node::NodeConfig {
                        n_gpus,
                        n_numa: n_gpus,
                    },
                    links,
                );
                let h = random_health(&t, &draws);
                (t, h)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn walk_matches_the_oracle_on_random_frontier_health(
            draws in proptest::collection::vec((0u8..3, any::<u32>()), 12)
        ) {
            let t = NodeTopology::frontier();
            assert_matches_oracle(&t, &random_health(&t, &draws));
        }

        #[test]
        fn walk_matches_the_oracle_on_random_custom_graphs(
            (t, h) in arb_custom_node()
        ) {
            assert_matches_oracle(&t, &h);
        }
    }
}
