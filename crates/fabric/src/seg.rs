//! Resource segments: the capacity-bearing entities of the fluid model.
//!
//! A [`SegmentMap`] is built once from a `NodeTopology` and assigns a dense
//! [`SegId`] to every resource:
//!
//! | segment | count (Frontier node) | wire capacity |
//! |---|---|---|
//! | link direction | 2 × 26 links | link peak per direction |
//! | xGMI duplex pool | 12 | link peak per direction |
//! | GCD HBM | 8 | 1638.4 GB/s |
//! | NUMA DDR | 4 | 51.2 GB/s |
//!
//! The duplex pool is traversed only by kernel-issued remote-access flows
//! (see crate docs); SDMA engine copies bypass it.
//!
//! Construction does no string work: labels exist for diagnostics and
//! telemetry only, so they are rendered on first read.

use ifsim_topology::{GcdId, LinkId, LinkKind, NodeTopology, NumaId, Path, PortId};
use std::sync::OnceLock;

/// Traversal direction of an undirected topology link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// From the link's canonical endpoint `a` to `b`.
    Forward,
    /// From `b` to `a`.
    Backward,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Forward => Dir::Backward,
            Dir::Backward => Dir::Forward,
        }
    }
}

/// Dense index of a resource segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegId(pub u32);

impl SegId {
    /// Index as usize.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Map from topology entities to segments and their capacities.
///
/// Segments are numbered densely in one fixed order: per link, forward,
/// backward and (xGMI only) the duplex pool; then one HBM segment per GCD;
/// then one DDR segment per NUMA domain. Every lookup is an index into
/// that order. Only the capacities change after construction; the labels
/// are rendered on first read.
#[derive(Clone, Debug)]
pub struct SegmentMap {
    /// The topology the segments were built from (a shared handle).
    topo: NodeTopology,
    /// Wire capacity (bytes/s) of each segment, indexed by `SegId`.
    caps: Vec<f64>,
    /// Healthy-state wire capacity of each segment: the reference for
    /// absolute health factors applied by fault injection.
    base_caps: Vec<f64>,
    /// Human-readable label per segment (diagnostics), rendered from
    /// `topo` on the first [`SegmentMap::label`].
    labels: OnceLock<Vec<String>>,
    /// Per link: its forward segment (backward is the next id, the duplex
    /// pool the one after) and whether it is xGMI (has a duplex pool).
    links: Vec<(u32, bool)>,
    /// First HBM segment; GCD `g`'s is `hbm_base + g`.
    hbm_base: u32,
    /// First DDR segment; NUMA domain `n`'s is `ddr_base + n`.
    ddr_base: u32,
}

/// Peak HBM2e bandwidth per GCD (paper §II: 1.6 TB/s, precisely 1638.4 GB/s).
pub const HBM_PEAK: f64 = 1638.4e9;

/// DDR4 bandwidth available per NUMA domain. The CPU's aggregate is
/// 204.8 GB/s (paper §IV) across four domains.
pub const DDR_PER_NUMA: f64 = 51.2e9;

impl SegmentMap {
    /// Build segments for a topology. Panics if the topology fails
    /// structural validation ([`NodeTopology::validation`]).
    pub fn new(topo: &NodeTopology) -> Self {
        topo.validation()
            .as_ref()
            .expect("fabric requires a valid topology");
        let mut caps = Vec::new();
        let mut links = Vec::with_capacity(topo.links().len());
        for link in topo.links() {
            let per_dir = link.kind.peak_per_dir();
            let xgmi = matches!(link.kind, LinkKind::Xgmi(_));
            links.push((caps.len() as u32, xgmi));
            caps.resize(caps.len() + if xgmi { 3 } else { 2 }, per_dir);
        }
        let hbm_base = caps.len() as u32;
        caps.extend(topo.gcds().map(|_| HBM_PEAK));
        let ddr_base = caps.len() as u32;
        caps.extend(topo.numa_domains().map(|_| DDR_PER_NUMA));
        SegmentMap {
            topo: topo.clone(),
            base_caps: caps.clone(),
            caps,
            labels: OnceLock::new(),
            links,
            hbm_base,
            ddr_base,
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether the map is empty (never true for a valid topology).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Wire capacity of a segment, bytes/s.
    pub fn capacity(&self, seg: SegId) -> f64 {
        self.caps[seg.idx()]
    }

    /// Every segment's current wire capacity, bytes/s, indexed by `SegId`.
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// Healthy-state wire capacity of a segment, bytes/s — the reference
    /// point for absolute health factors.
    pub fn base_capacity(&self, seg: SegId) -> f64 {
        self.base_caps[seg.idx()]
    }

    /// Set one segment's capacity to `factor` × its *healthy* capacity.
    /// Every capacity change is absolute, so repeated health transitions
    /// (degrade, degrade further, restore) do not compound. `factor` 0
    /// marks a dead segment no flow may traverse.
    pub fn set_capacity_factor(&mut self, seg: SegId, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "health factor {factor} outside [0, 1]"
        );
        self.caps[seg.idx()] = self.base_caps[seg.idx()] * factor;
    }

    /// Apply an absolute health factor to every segment of a link (both
    /// directions and, for xGMI, the duplex pool), replacing the previous
    /// one: impairments compose in the caller's factor, never here.
    pub fn set_link_factor(&mut self, link: LinkId, factor: f64) {
        for seg in self.link_range(link) {
            self.set_capacity_factor(SegId(seg), factor);
        }
    }

    /// All segments belonging to a link: forward, backward and (xGMI only)
    /// the duplex pool.
    pub fn link_segments(&self, link: LinkId) -> Vec<SegId> {
        self.link_range(link).map(SegId).collect()
    }

    /// A link's segment ids, which are consecutive.
    fn link_range(&self, link: LinkId) -> std::ops::Range<u32> {
        let (first, xgmi) = self.links[link.idx()];
        first..first + if xgmi { 3 } else { 2 }
    }

    /// Diagnostic label of a segment.
    pub fn label(&self, seg: SegId) -> &str {
        &self.labels.get_or_init(|| render_labels(&self.topo))[seg.idx()]
    }

    /// The display name of a route: its segment labels joined by `" + "`
    /// (`GCD0->GCD2 + HBM GCD0 + HBM GCD2`). Flow spans' `route` arg and
    /// the dependency DAG's flow nodes both carry this string; it is the
    /// one place the format lives.
    pub fn route_label(&self, segs: &[SegId]) -> String {
        let mut out = String::new();
        for (i, &s) in segs.iter().enumerate() {
            if i > 0 {
                out.push_str(" + ");
            }
            out.push_str(self.label(s));
        }
        out
    }

    /// The directed segment for traversing `link` in direction `dir`.
    #[inline]
    pub fn dir_seg(&self, link: LinkId, dir: Dir) -> SegId {
        let (first, _) = self.links[link.idx()];
        SegId(match dir {
            Dir::Forward => first,
            Dir::Backward => first + 1,
        })
    }

    /// The duplex pool of an xGMI link (`None` for CPU/NUMA links).
    #[inline]
    pub fn duplex_seg(&self, link: LinkId) -> Option<SegId> {
        let (first, xgmi) = self.links[link.idx()];
        xgmi.then_some(SegId(first + 2))
    }

    /// Whether a link is xGMI (equivalently: has a duplex pool).
    pub fn is_xgmi(&self, link: LinkId) -> bool {
        self.links[link.idx()].1
    }

    /// All directed link segments, ordered by `(link, direction)` — the
    /// iteration backbone for per-link telemetry and heatmaps.
    pub fn dir_segments(&self) -> impl Iterator<Item = (LinkId, Dir, SegId)> + '_ {
        (0..self.links.len() as u32).flat_map(move |l| {
            [Dir::Forward, Dir::Backward].map(|d| (LinkId(l), d, self.dir_seg(LinkId(l), d)))
        })
    }

    /// The HBM segment of a GCD.
    pub fn hbm_seg(&self, gcd: GcdId) -> SegId {
        let id = self.hbm_base + u32::from(gcd.0);
        assert!(id < self.ddr_base, "{gcd} is not in the topology");
        SegId(id)
    }

    /// The DDR segment of a NUMA domain.
    pub fn ddr_seg(&self, numa: NumaId) -> SegId {
        let id = self.ddr_base + u32::from(numa.0);
        assert!(id < self.caps.len() as u32, "{numa} is not in the topology");
        SegId(id)
    }

    /// Directed segments traversed by a routed path, in order.
    ///
    /// `include_duplex` adds the per-xGMI-link duplex pool; set it for
    /// kernel-issued remote access, leave it off for SDMA engine copies.
    pub fn path_segments(
        &self,
        topo: &NodeTopology,
        path: &Path,
        include_duplex: bool,
    ) -> Vec<SegId> {
        let mut segs = Vec::with_capacity(path.links.len() * 2);
        for (i, &lid) in path.links.iter().enumerate() {
            let spec = topo.link(lid);
            let dir = if spec.a == path.ports[i] {
                Dir::Forward
            } else {
                debug_assert_eq!(spec.b, path.ports[i]);
                Dir::Backward
            };
            segs.push(self.dir_seg(lid, dir));
            if include_duplex {
                if let Some(d) = self.duplex_seg(lid) {
                    segs.push(d);
                }
            }
        }
        segs
    }

    /// The memory segment backing a port: HBM for GCDs, DDR for NUMA domains.
    pub fn memory_seg(&self, port: PortId) -> SegId {
        match port {
            PortId::Gcd(g) => self.hbm_seg(g),
            PortId::Numa(n) => self.ddr_seg(n),
        }
    }
}

/// Every segment's label, in segment order.
fn render_labels(topo: &NodeTopology) -> Vec<String> {
    let mut labels = Vec::new();
    for link in topo.links() {
        labels.push(format!("{:?}->{:?}", link.a, link.b));
        labels.push(format!("{:?}->{:?}", link.b, link.a));
        if matches!(link.kind, LinkKind::Xgmi(_)) {
            labels.push(format!("duplex {:?}<->{:?}", link.a, link.b));
        }
    }
    labels.extend(topo.gcds().map(|gcd| format!("HBM {gcd}")));
    labels.extend(topo.numa_domains().map(|numa| format!("DDR {numa}")));
    labels
}

/// The `BTreeMap` construction the dense index replaced, kept as the
/// differential oracle: one map per segment kind, filled in segment order
/// with each segment's capacity and label.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    pub(super) struct Oracle {
        pub caps: Vec<f64>,
        pub labels: Vec<String>,
        pub dir_segs: BTreeMap<(LinkId, Dir), SegId>,
        pub duplex_segs: BTreeMap<LinkId, SegId>,
        pub hbm_segs: BTreeMap<GcdId, SegId>,
        pub ddr_segs: BTreeMap<NumaId, SegId>,
    }

    pub(super) fn build(topo: &NodeTopology) -> Oracle {
        let mut caps = Vec::new();
        let mut labels = Vec::new();
        let mut add = |cap: f64, label: String| -> SegId {
            let id = SegId(caps.len() as u32);
            caps.push(cap);
            labels.push(label);
            id
        };
        let mut dir_segs = BTreeMap::new();
        let mut duplex_segs = BTreeMap::new();
        for (i, link) in topo.links().iter().enumerate() {
            let lid = LinkId(i as u32);
            let per_dir = link.kind.peak_per_dir();
            dir_segs.insert(
                (lid, Dir::Forward),
                add(per_dir, format!("{:?}->{:?}", link.a, link.b)),
            );
            dir_segs.insert(
                (lid, Dir::Backward),
                add(per_dir, format!("{:?}->{:?}", link.b, link.a)),
            );
            if matches!(link.kind, LinkKind::Xgmi(_)) {
                duplex_segs.insert(
                    lid,
                    add(per_dir, format!("duplex {:?}<->{:?}", link.a, link.b)),
                );
            }
        }
        let mut hbm_segs = BTreeMap::new();
        for gcd in topo.gcds() {
            hbm_segs.insert(gcd, add(HBM_PEAK, format!("HBM {gcd}")));
        }
        let mut ddr_segs = BTreeMap::new();
        for numa in topo.numa_domains() {
            ddr_segs.insert(numa, add(DDR_PER_NUMA, format!("DDR {numa}")));
        }
        Oracle {
            caps,
            labels,
            dir_segs,
            duplex_segs,
            hbm_segs,
            ddr_segs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_topology::{GcdId, RoutePolicy, Router};
    use proptest::prelude::*;

    fn setup() -> (NodeTopology, SegmentMap) {
        let t = NodeTopology::frontier();
        let m = SegmentMap::new(&t);
        (t, m)
    }

    #[test]
    fn segment_counts_for_frontier() {
        let (t, m) = setup();
        // 26 links × 2 directions + 12 xGMI duplex + 8 HBM + 4 DDR.
        assert_eq!(t.links().len(), 26);
        assert_eq!(m.len(), 26 * 2 + 12 + 8 + 4);
        assert!(!m.is_empty());
    }

    #[test]
    fn capacities_match_link_kinds() {
        let (t, m) = setup();
        for (i, l) in t.links().iter().enumerate() {
            let lid = LinkId(i as u32);
            for dir in [Dir::Forward, Dir::Backward] {
                assert_eq!(m.capacity(m.dir_seg(lid, dir)), l.kind.peak_per_dir());
            }
        }
        assert_eq!(m.capacity(m.hbm_seg(GcdId(0))), HBM_PEAK);
        assert_eq!(m.capacity(m.ddr_seg(NumaId(2))), DDR_PER_NUMA);
    }

    #[test]
    fn duplex_pools_only_on_xgmi() {
        let (t, m) = setup();
        for (i, l) in t.links().iter().enumerate() {
            let lid = LinkId(i as u32);
            assert_eq!(
                m.duplex_seg(lid).is_some(),
                matches!(l.kind, LinkKind::Xgmi(_)),
                "{l:?}"
            );
        }
    }

    #[test]
    fn opposite_directions_get_distinct_segments() {
        let (t, m) = setup();
        for i in 0..t.links().len() {
            let lid = LinkId(i as u32);
            assert_ne!(m.dir_seg(lid, Dir::Forward), m.dir_seg(lid, Dir::Backward));
        }
    }

    #[test]
    fn path_segments_follow_traversal_direction() {
        let (t, m) = setup();
        let r = Router::new(&t);
        let ab = r.gcd_route(GcdId(0), GcdId(1), RoutePolicy::MaxBandwidth);
        let ba = r.gcd_route(GcdId(1), GcdId(0), RoutePolicy::MaxBandwidth);
        let s_ab = m.path_segments(&t, ab, false);
        let s_ba = m.path_segments(&t, ba, false);
        assert_eq!(s_ab.len(), 1);
        assert_eq!(s_ba.len(), 1);
        // Same link, opposite directions: different segments.
        assert_ne!(s_ab[0], s_ba[0]);
    }

    #[test]
    fn duplex_inclusion_adds_one_segment_per_xgmi_hop() {
        let (t, m) = setup();
        let r = Router::new(&t);
        let p = r.gcd_route(GcdId(1), GcdId(7), RoutePolicy::MaxBandwidth);
        assert_eq!(p.hops(), 3);
        assert_eq!(m.path_segments(&t, p, false).len(), 3);
        assert_eq!(m.path_segments(&t, p, true).len(), 6);
    }

    #[test]
    fn both_directions_share_one_duplex_pool() {
        let (t, m) = setup();
        let r = Router::new(&t);
        let ab = r.gcd_route(GcdId(0), GcdId(1), RoutePolicy::MaxBandwidth);
        let ba = r.gcd_route(GcdId(1), GcdId(0), RoutePolicy::MaxBandwidth);
        let s_ab = m.path_segments(&t, ab, true);
        let s_ba = m.path_segments(&t, ba, true);
        // Each: [direction, duplex]; duplex shared.
        assert_eq!(s_ab[1], s_ba[1]);
    }

    #[test]
    fn memory_seg_dispatches_on_port_kind() {
        let (_, m) = setup();
        assert_eq!(m.memory_seg(PortId::Gcd(GcdId(3))), m.hbm_seg(GcdId(3)));
        assert_eq!(m.memory_seg(PortId::Numa(NumaId(1))), m.ddr_seg(NumaId(1)));
    }

    #[test]
    fn health_factors_are_absolute_not_compounding() {
        let (t, mut m) = setup();
        let lid = LinkId(0);
        let fwd = m.dir_seg(lid, Dir::Forward);
        let healthy = m.capacity(fwd);
        m.set_link_factor(lid, 0.5);
        assert_eq!(m.capacity(fwd), healthy * 0.5);
        m.set_link_factor(lid, 0.25);
        // Absolute w.r.t. base, not 0.5 × 0.25.
        assert_eq!(m.capacity(fwd), healthy * 0.25);
        m.set_link_factor(lid, 1.0);
        assert_eq!(m.capacity(fwd), healthy);
        assert_eq!(m.base_capacity(fwd), healthy);
        let _ = t;
    }

    #[test]
    fn zero_factor_kills_all_link_segments() {
        let (t, mut m) = setup();
        // Link 0 is xGMI on Frontier (quad 0-1 listed first).
        let lid = LinkId(0);
        assert!(matches!(t.link(lid).kind, LinkKind::Xgmi(_)));
        m.set_link_factor(lid, 0.0);
        let segs = m.link_segments(lid);
        assert_eq!(segs.len(), 3, "fwd + bwd + duplex");
        for s in segs {
            assert_eq!(m.capacity(s), 0.0);
            assert!(m.base_capacity(s) > 0.0);
        }
    }

    #[test]
    fn link_segments_omits_duplex_for_cpu_links() {
        let (t, m) = setup();
        let cpu = t.cpu_link(GcdId(0));
        assert_eq!(m.link_segments(cpu).len(), 2);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn over_unity_health_factor_rejected() {
        let (_, mut m) = setup();
        m.set_capacity_factor(SegId(0), 1.5);
    }

    #[test]
    fn labels_are_descriptive() {
        let (_, m) = setup();
        assert!(m.label(m.hbm_seg(GcdId(5))).contains("GCD5"));
        assert!(m.label(m.ddr_seg(NumaId(0))).contains("NUMA0"));
    }

    #[test]
    #[should_panic(expected = "fabric requires a valid topology")]
    fn disconnected_topology_panics_at_the_first_segment_map() {
        use ifsim_topology::{LinkSpec, NodeConfig, XgmiWidth};
        // Two packages, each wired to its own NUMA domain, with nothing
        // between them: two islands.
        let mut links = Vec::new();
        for g in 0..4u8 {
            links.push(LinkSpec::new(
                PortId::Gcd(GcdId(g)),
                PortId::Numa(NumaId(g / 2)),
                LinkKind::CpuGpu,
            ));
        }
        for g in [0u8, 2] {
            links.push(LinkSpec::new(
                PortId::Gcd(GcdId(g)),
                PortId::Gcd(GcdId(g + 1)),
                LinkKind::Xgmi(XgmiWidth::Quad),
            ));
        }
        let cfg = NodeConfig {
            n_gpus: 2,
            n_numa: 2,
        };
        let _ = SegmentMap::new(&NodeTopology::custom(cfg, links));
    }

    /// Every lookup of the dense index against the `BTreeMap` oracle.
    fn assert_matches_oracle(t: &NodeTopology) {
        let m = SegmentMap::new(t);
        let o = oracle::build(t);
        assert_eq!(m.len(), o.caps.len());
        assert_eq!(m.caps(), &o.caps[..]);
        for (i, label) in o.labels.iter().enumerate() {
            assert_eq!(m.label(SegId(i as u32)), label);
        }
        for (&(l, d), &seg) in &o.dir_segs {
            assert_eq!(m.dir_seg(l, d), seg);
        }
        let dense: Vec<_> = m.dir_segments().collect();
        let mapped: Vec<_> = o.dir_segs.iter().map(|(&(l, d), &s)| (l, d, s)).collect();
        assert_eq!(dense, mapped);
        for l in (0..t.links().len() as u32).map(LinkId) {
            assert_eq!(m.duplex_seg(l), o.duplex_segs.get(&l).copied());
            assert_eq!(m.is_xgmi(l), o.duplex_segs.contains_key(&l));
        }
        for (&g, &seg) in &o.hbm_segs {
            assert_eq!(m.hbm_seg(g), seg);
        }
        for (&n, &seg) in &o.ddr_segs {
            assert_eq!(m.ddr_seg(n), seg);
        }
    }

    #[test]
    fn dense_index_matches_the_oracle_on_frontier() {
        assert_matches_oracle(&NodeTopology::frontier());
    }

    /// A random valid node with 2–8 GCDs and 1–4 NUMA domains: a random
    /// xGMI spanning tree plus extra links of random widths, one CPU link
    /// per GCD to a random domain, a random NUMA-fabric spanning tree plus
    /// extras, all listed in a random order.
    fn arb_custom_node() -> impl Strategy<Value = NodeTopology> {
        use ifsim_topology::{LinkSpec, NodeConfig, XgmiWidth};
        const WIDTHS: [XgmiWidth; 3] = [XgmiWidth::Single, XgmiWidth::Dual, XgmiWidth::Quad];
        (
            (1u8..=4, 1u8..=4),
            proptest::collection::vec((any::<u8>(), 0usize..3), 7),
            proptest::collection::vec((any::<u8>(), any::<u8>(), 0usize..3), 0..12),
            proptest::collection::vec(any::<u8>(), 8),
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..6),
            proptest::collection::vec(any::<u32>(), 40),
        )
            .prop_map(|((n_gpus, n_numa), tree, extra, homes, fabric, keys)| {
                let n = n_gpus * 2;
                let mut links: Vec<LinkSpec> = Vec::new();
                let mut add = |a: PortId, b: PortId, kind: LinkKind| {
                    if a == b {
                        return;
                    }
                    let spec = LinkSpec::new(a, b, kind);
                    if !links.iter().any(|l| l.a == spec.a && l.b == spec.b) {
                        links.push(spec);
                    }
                };
                let gcd = |g: u8| PortId::Gcd(GcdId(g));
                let numa = |d: u8| PortId::Numa(NumaId(d));
                for (i, &(parent, w)) in (1..n).zip(&tree) {
                    add(gcd(i), gcd(parent % i), LinkKind::Xgmi(WIDTHS[w]));
                }
                for &(a, b, w) in &extra {
                    add(gcd(a % n), gcd(b % n), LinkKind::Xgmi(WIDTHS[w]));
                }
                for (g, &home) in (0..n).zip(&homes) {
                    add(gcd(g), numa(home % n_numa), LinkKind::CpuGpu);
                }
                for d in 1..n_numa {
                    add(numa(d), numa(d - 1), LinkKind::NumaFabric);
                }
                for &(a, b) in &fabric {
                    add(numa(a % n_numa), numa(b % n_numa), LinkKind::NumaFabric);
                }
                let mut keyed: Vec<(u32, LinkSpec)> = keys.into_iter().zip(links).collect();
                keyed.sort_by_key(|&(k, _)| k);
                NodeTopology::custom(
                    NodeConfig { n_gpus, n_numa },
                    keyed.into_iter().map(|(_, l)| l).collect(),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dense_index_matches_the_oracle_on_random_custom_graphs(t in arb_custom_node()) {
            t.validation().as_ref().expect("generated valid");
            assert_matches_oracle(&t);
        }
    }
}
