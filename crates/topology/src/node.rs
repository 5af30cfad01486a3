//! The node topology graph and its canonical instance.
//!
//! [`NodeTopology::frontier`] builds the paper's testbed (Fig. 1): the same
//! GCD interconnection used by the ORNL Frontier and CSC LUMI compute nodes.
//! The exact link placement is cross-checked against the paper's measured
//! latency matrix in `validate.rs` and the crate tests.

use crate::ids::{GcdId, GpuId, LinkId, NumaId, PortId};
use crate::link::{LinkKind, LinkSpec, XgmiWidth};
use crate::routing::Router;
use crate::validate::{self, TopologyError};
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock, OnceLock};

/// Parameters of a node. Only the canonical eight-GCD node is used by the
/// paper, but smaller configurations are useful in tests and ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeConfig {
    /// Number of MI250X packages (each contributes two GCDs).
    pub n_gpus: u8,
    /// Number of CPU NUMA domains.
    pub n_numa: u8,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            n_gpus: 4,
            n_numa: 4,
        }
    }
}

/// An immutable node interconnect graph. Cloning is cheap: clones share
/// the graph, its healthy [`routes`](NodeTopology::routes) and its
/// [`validation`](NodeTopology::validation).
#[derive(Clone, Debug)]
pub struct NodeTopology(Arc<Graph>);

#[derive(Debug)]
struct Graph {
    config: NodeConfig,
    links: Vec<LinkSpec>,
    adjacency: BTreeMap<PortId, Vec<(LinkId, PortId)>>,
    /// The all-healthy routes, built on first use. The graph never changes,
    /// so neither do they.
    routes: OnceLock<Arc<Router>>,
    /// [`validate::check`]'s verdict, taken on first use.
    validation: OnceLock<Result<(), TopologyError>>,
}

impl NodeTopology {
    /// The Frontier/LUMI-class node the paper measures: 4 MI250X (8 GCDs),
    /// 4 NUMA domains, and the Infinity Fabric mesh of Fig. 1.
    ///
    /// GCD–GCD connections:
    /// - quad (same package): 0–1, 2–3, 4–5, 6–7
    /// - dual: 0–6, 2–4
    /// - single: 0–2, 1–3, 1–5, 3–7, 4–6, 5–7
    ///
    /// This placement is uniquely determined by the paper's observations:
    /// the six single-link pairs are those with sub-10 µs `memcpy_peer`
    /// latency (Fig. 6b); GCD0 is directly connected to GCD2 (single) and
    /// GCD6 (dual) (§II-A); and (1,7)/(3,5) are the only pairs whose
    /// bandwidth-maximizing route is three hops (§V-A1).
    ///
    /// The graph is built once per process; every call returns a handle to
    /// it, so all its users share one healthy [`Router`].
    pub fn frontier() -> Self {
        static FRONTIER: LazyLock<NodeTopology> = LazyLock::new(NodeTopology::build_frontier);
        FRONTIER.clone()
    }

    fn build_frontier() -> Self {
        let mut links = Vec::new();
        // Same-package quad connections.
        for gpu in 0..4 {
            links.push(LinkSpec::new(
                PortId::Gcd(GcdId(gpu * 2)),
                PortId::Gcd(GcdId(gpu * 2 + 1)),
                LinkKind::Xgmi(XgmiWidth::Quad),
            ));
        }
        // Inter-package dual connections.
        for (a, b) in [(0, 6), (2, 4)] {
            links.push(LinkSpec::new(
                PortId::Gcd(GcdId(a)),
                PortId::Gcd(GcdId(b)),
                LinkKind::Xgmi(XgmiWidth::Dual),
            ));
        }
        // Inter-package single connections.
        for (a, b) in [(0, 2), (1, 3), (1, 5), (3, 7), (4, 6), (5, 7)] {
            links.push(LinkSpec::new(
                PortId::Gcd(GcdId(a)),
                PortId::Gcd(GcdId(b)),
                LinkKind::Xgmi(XgmiWidth::Single),
            ));
        }
        // One CPU link per GCD, attached to its local NUMA domain.
        for gcd in 0..8u8 {
            links.push(LinkSpec::new(
                PortId::Gcd(GcdId(gcd)),
                PortId::Numa(NumaId(gcd / 2)),
                LinkKind::CpuGpu,
            ));
        }
        // On-die CPU fabric: full mesh between NUMA domains.
        for a in 0..4u8 {
            for b in (a + 1)..4 {
                links.push(LinkSpec::new(
                    PortId::Numa(NumaId(a)),
                    PortId::Numa(NumaId(b)),
                    LinkKind::NumaFabric,
                ));
            }
        }
        Self::custom(NodeConfig::default(), links)
    }

    /// Build an arbitrary topology (used by tests and ablation studies).
    ///
    /// Panics if a link references a port outside `config`'s ranges or if
    /// the same port pair appears twice.
    pub fn custom(config: NodeConfig, links: Vec<LinkSpec>) -> Self {
        let n_gcds = config.n_gpus as usize * 2;
        let mut adjacency: BTreeMap<PortId, Vec<(LinkId, PortId)>> = BTreeMap::new();
        for g in 0..n_gcds {
            adjacency.insert(PortId::Gcd(GcdId(g as u8)), Vec::new());
        }
        for n in 0..config.n_numa {
            adjacency.insert(PortId::Numa(NumaId(n)), Vec::new());
        }
        let mut seen = std::collections::BTreeSet::new();
        for (i, l) in links.iter().enumerate() {
            assert!(
                adjacency.contains_key(&l.a) && adjacency.contains_key(&l.b),
                "link {l:?} references a port outside the node config {config:?}"
            );
            assert!(
                seen.insert((l.a, l.b)),
                "duplicate link between {:?} and {:?}",
                l.a,
                l.b
            );
            let id = LinkId(i as u32);
            adjacency.get_mut(&l.a).unwrap().push((id, l.b));
            adjacency.get_mut(&l.b).unwrap().push((id, l.a));
        }
        NodeTopology(Arc::new(Graph {
            config,
            links,
            adjacency,
            routes: OnceLock::new(),
            validation: OnceLock::new(),
        }))
    }

    /// Routes of the fully healthy graph, built by [`Router::new`] on first
    /// use (so a disconnected topology panics here) and shared by every
    /// clone of this topology. A degraded fabric routes with
    /// [`Router::new_with_health`] instead.
    pub fn routes(&self) -> &Arc<Router> {
        self.0.routes.get_or_init(|| Arc::new(Router::new(self)))
    }

    /// The structural invariant check ([`validate::check`]), run on first
    /// use and shared by every clone of this topology.
    pub fn validation(&self) -> &Result<(), TopologyError> {
        self.0.validation.get_or_init(|| validate::check(self))
    }

    /// Node configuration.
    pub fn config(&self) -> NodeConfig {
        self.0.config
    }

    /// Number of GCDs.
    pub fn n_gcds(&self) -> usize {
        self.0.config.n_gpus as usize * 2
    }

    /// All GCD ids in order.
    pub fn gcds(&self) -> impl Iterator<Item = GcdId> + '_ {
        (0..self.n_gcds() as u8).map(GcdId)
    }

    /// All physical GPU packages in order.
    pub fn gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.0.config.n_gpus).map(GpuId)
    }

    /// All NUMA domains in order.
    pub fn numa_domains(&self) -> impl Iterator<Item = NumaId> + '_ {
        (0..self.0.config.n_numa).map(NumaId)
    }

    /// The full link table; `LinkId(i)` indexes into it.
    pub fn links(&self) -> &[LinkSpec] {
        &self.0.links
    }

    /// Look up one link.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.0.links[id.idx()]
    }

    /// Neighbors of `port` with the connecting link.
    pub fn neighbors(&self, port: PortId) -> &[(LinkId, PortId)] {
        self.0
            .adjacency
            .get(&port)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The direct link between two ports, if one exists.
    pub fn link_between(&self, a: PortId, b: PortId) -> Option<LinkId> {
        self.neighbors(a)
            .iter()
            .find(|(_, p)| *p == b)
            .map(|(id, _)| *id)
    }

    /// The xGMI width between two GCDs, if directly connected.
    pub fn xgmi_width(&self, a: GcdId, b: GcdId) -> Option<XgmiWidth> {
        let id = self.link_between(PortId::Gcd(a), PortId::Gcd(b))?;
        match self.link(id).kind {
            LinkKind::Xgmi(w) => Some(w),
            _ => None,
        }
    }

    /// The CPU link of a GCD (to its local NUMA domain).
    pub fn cpu_link(&self, gcd: GcdId) -> LinkId {
        self.neighbors(PortId::Gcd(gcd))
            .iter()
            .find(|(id, _)| matches!(self.link(*id).kind, LinkKind::CpuGpu))
            .map(|(id, _)| *id)
            .unwrap_or_else(|| panic!("{gcd} has no CPU link"))
    }

    /// The NUMA domain directly attached to a GCD (what
    /// `rocm-smi --showtoponuma` reports on the real machine).
    pub fn numa_of(&self, gcd: GcdId) -> NumaId {
        let l = self.link(self.cpu_link(gcd));
        l.opposite(PortId::Gcd(gcd))
            .and_then(PortId::as_numa)
            .expect("CPU link must end at a NUMA port")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_has_expected_counts() {
        let t = NodeTopology::frontier();
        assert_eq!(t.n_gcds(), 8);
        assert_eq!(t.gcds().count(), 8);
        assert_eq!(t.gpus().count(), 4);
        assert_eq!(t.numa_domains().count(), 4);
        // 4 quad + 2 dual + 6 single + 8 CPU + 6 NUMA mesh links.
        assert_eq!(t.links().len(), 26);
    }

    #[test]
    fn frontier_link_tiers_match_fig1() {
        let t = NodeTopology::frontier();
        // Same-package pairs are quad.
        for gpu in 0..4u8 {
            let [a, b] = GpuId(gpu).gcds();
            assert_eq!(t.xgmi_width(a, b), Some(XgmiWidth::Quad));
        }
        assert_eq!(t.xgmi_width(GcdId(0), GcdId(6)), Some(XgmiWidth::Dual));
        assert_eq!(t.xgmi_width(GcdId(2), GcdId(4)), Some(XgmiWidth::Dual));
        for (a, b) in [(0, 2), (1, 3), (1, 5), (3, 7), (4, 6), (5, 7)] {
            assert_eq!(
                t.xgmi_width(GcdId(a), GcdId(b)),
                Some(XgmiWidth::Single),
                "pair {a}-{b}"
            );
        }
        // Not directly connected.
        assert_eq!(t.xgmi_width(GcdId(0), GcdId(7)), None);
        assert_eq!(t.xgmi_width(GcdId(1), GcdId(7)), None);
        assert_eq!(t.xgmi_width(GcdId(3), GcdId(5)), None);
    }

    #[test]
    fn gcd0_neighborhood_matches_paper_section_2a() {
        // "GCD0 ... directly connected through a dual link to GCD6 and
        //  through a single link to GCD2."
        let t = NodeTopology::frontier();
        let mut xgmi_neighbors: Vec<(GcdId, XgmiWidth)> = t
            .neighbors(PortId::Gcd(GcdId(0)))
            .iter()
            .filter_map(|(id, p)| {
                let g = p.as_gcd()?;
                match t.link(*id).kind {
                    LinkKind::Xgmi(w) => Some((g, w)),
                    _ => None,
                }
            })
            .collect();
        xgmi_neighbors.sort();
        assert_eq!(
            xgmi_neighbors,
            vec![
                (GcdId(1), XgmiWidth::Quad),
                (GcdId(2), XgmiWidth::Single),
                (GcdId(6), XgmiWidth::Dual),
            ]
        );
    }

    #[test]
    fn numa_mapping_pairs_gcds_per_package() {
        let t = NodeTopology::frontier();
        for gcd in t.gcds() {
            assert_eq!(t.numa_of(gcd).0, gcd.0 / 2);
            assert_eq!(t.numa_of(gcd), t.numa_of(gcd.package_peer()));
        }
    }

    #[test]
    fn every_gcd_has_exactly_one_cpu_link() {
        let t = NodeTopology::frontier();
        for gcd in t.gcds() {
            let n = t
                .neighbors(PortId::Gcd(gcd))
                .iter()
                .filter(|(id, _)| matches!(t.link(*id).kind, LinkKind::CpuGpu))
                .count();
            assert_eq!(n, 1, "{gcd}");
        }
    }

    #[test]
    fn link_between_is_symmetric() {
        let t = NodeTopology::frontier();
        for a in t.gcds() {
            for b in t.gcds() {
                assert_eq!(
                    t.link_between(PortId::Gcd(a), PortId::Gcd(b)),
                    t.link_between(PortId::Gcd(b), PortId::Gcd(a))
                );
            }
        }
    }

    #[test]
    fn clones_share_one_healthy_router() {
        let t = NodeTopology::frontier();
        assert!(Arc::ptr_eq(t.routes(), t.clone().routes()));
        assert!(Arc::ptr_eq(t.routes(), NodeTopology::frontier().routes()));
        // A separately built graph routes for itself.
        let rebuilt = NodeTopology::custom(t.config(), t.links().to_vec());
        assert!(!Arc::ptr_eq(t.routes(), rebuilt.routes()));
    }

    #[test]
    #[should_panic(expected = "topology disconnected")]
    fn disconnected_topology_panics_on_first_routes() {
        let frontier = NodeTopology::frontier();
        let host_only = frontier
            .links()
            .iter()
            .filter(|l| !matches!(l.kind, LinkKind::Xgmi(_)))
            .copied()
            .collect();
        let _ = NodeTopology::custom(frontier.config(), host_only).routes();
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_links_rejected() {
        let l = LinkSpec::new(
            PortId::Gcd(GcdId(0)),
            PortId::Gcd(GcdId(1)),
            LinkKind::Xgmi(XgmiWidth::Quad),
        );
        let _ = NodeTopology::custom(NodeConfig::default(), vec![l, l]);
    }

    #[test]
    #[should_panic(expected = "outside the node config")]
    fn out_of_range_port_rejected() {
        let l = LinkSpec::new(
            PortId::Gcd(GcdId(0)),
            PortId::Gcd(GcdId(9)),
            LinkKind::Xgmi(XgmiWidth::Single),
        );
        let _ = NodeTopology::custom(NodeConfig::default(), vec![l]);
    }
}
