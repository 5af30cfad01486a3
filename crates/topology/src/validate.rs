//! Whole-topology invariant checks.
//!
//! The fabric simulator reads [`check`]'s verdict at construction time
//! (through [`NodeTopology::validation`], which runs it once per graph) so a
//! malformed custom topology fails fast with a description of what is wrong,
//! rather than producing silently absurd bandwidth numbers.

use crate::ids::PortId;
use crate::link::LinkKind;
use crate::node::NodeTopology;
use std::collections::BTreeSet;

/// A violated topology invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// Some port cannot reach some other port at all.
    Disconnected {
        /// A port in the unreachable component.
        unreachable: String,
    },
    /// A GCD lacks a CPU link, so host allocations could never reach it.
    MissingCpuLink {
        /// The offending GCD.
        gcd: String,
    },
    /// A GCD has more than one CPU link (the MI250X node has exactly one).
    DuplicateCpuLink {
        /// The offending GCD.
        gcd: String,
    },
    /// An xGMI link terminates at a NUMA port or a CPU link at a GCD pair.
    WrongEndpointKind {
        /// Description of the offending link.
        link: String,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Disconnected { unreachable } => {
                write!(f, "topology is disconnected: {unreachable} unreachable")
            }
            TopologyError::MissingCpuLink { gcd } => write!(f, "{gcd} has no CPU link"),
            TopologyError::DuplicateCpuLink { gcd } => {
                write!(f, "{gcd} has more than one CPU link")
            }
            TopologyError::WrongEndpointKind { link } => {
                write!(f, "link has endpoints of the wrong kind: {link}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Check all structural invariants; returns the first violation found.
pub fn check(topo: &NodeTopology) -> Result<(), TopologyError> {
    check_endpoint_kinds(topo)?;
    check_cpu_links(topo)?;
    check_connectivity(topo)?;
    Ok(())
}

fn check_endpoint_kinds(topo: &NodeTopology) -> Result<(), TopologyError> {
    for l in topo.links() {
        let ok = match l.kind {
            LinkKind::Xgmi(_) => l.a.as_gcd().is_some() && l.b.as_gcd().is_some(),
            LinkKind::CpuGpu => {
                (l.a.as_gcd().is_some() && l.b.as_numa().is_some())
                    || (l.a.as_numa().is_some() && l.b.as_gcd().is_some())
            }
            LinkKind::NumaFabric => l.a.as_numa().is_some() && l.b.as_numa().is_some(),
        };
        if !ok {
            return Err(TopologyError::WrongEndpointKind {
                link: format!("{l:?}"),
            });
        }
    }
    Ok(())
}

fn check_cpu_links(topo: &NodeTopology) -> Result<(), TopologyError> {
    for gcd in topo.gcds() {
        let n = topo
            .neighbors(PortId::Gcd(gcd))
            .iter()
            .filter(|(id, _)| matches!(topo.link(*id).kind, LinkKind::CpuGpu))
            .count();
        if n == 0 {
            return Err(TopologyError::MissingCpuLink {
                gcd: gcd.to_string(),
            });
        }
        if n > 1 {
            return Err(TopologyError::DuplicateCpuLink {
                gcd: gcd.to_string(),
            });
        }
    }
    Ok(())
}

fn check_connectivity(topo: &NodeTopology) -> Result<(), TopologyError> {
    let all: Vec<PortId> = topo
        .gcds()
        .map(PortId::Gcd)
        .chain(topo.numa_domains().map(PortId::Numa))
        .collect();
    let Some(&start) = all.first() else {
        return Ok(());
    };
    let mut seen = BTreeSet::new();
    let mut stack = vec![start];
    while let Some(p) = stack.pop() {
        if !seen.insert(p) {
            continue;
        }
        for &(_, q) in topo.neighbors(p) {
            stack.push(q);
        }
    }
    for p in &all {
        if !seen.contains(p) {
            return Err(TopologyError::Disconnected {
                unreachable: format!("{p}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{GcdId, NumaId};
    use crate::link::{LinkSpec, XgmiWidth};
    use crate::node::NodeConfig;

    #[test]
    fn frontier_passes_all_checks() {
        check(&NodeTopology::frontier()).expect("frontier topology is valid");
    }

    #[test]
    fn missing_cpu_link_detected() {
        // A two-package node where GCD3 lacks its host link.
        let cfg = NodeConfig {
            n_gpus: 2,
            n_numa: 2,
        };
        let mut links = vec![
            LinkSpec::new(
                PortId::Gcd(GcdId(0)),
                PortId::Gcd(GcdId(1)),
                LinkKind::Xgmi(XgmiWidth::Quad),
            ),
            LinkSpec::new(
                PortId::Gcd(GcdId(2)),
                PortId::Gcd(GcdId(3)),
                LinkKind::Xgmi(XgmiWidth::Quad),
            ),
            LinkSpec::new(
                PortId::Gcd(GcdId(1)),
                PortId::Gcd(GcdId(2)),
                LinkKind::Xgmi(XgmiWidth::Single),
            ),
            LinkSpec::new(
                PortId::Numa(NumaId(0)),
                PortId::Numa(NumaId(1)),
                LinkKind::NumaFabric,
            ),
        ];
        for g in 0..3u8 {
            links.push(LinkSpec::new(
                PortId::Gcd(GcdId(g)),
                PortId::Numa(NumaId(g / 2)),
                LinkKind::CpuGpu,
            ));
        }
        let t = NodeTopology::custom(cfg, links);
        assert_eq!(
            check(&t),
            Err(TopologyError::MissingCpuLink { gcd: "GCD3".into() })
        );
    }

    #[test]
    fn disconnected_topology_detected() {
        // Two packages, each correctly wired to its own NUMA domain, but no
        // inter-package xGMI and no on-die NUMA fabric: two islands.
        let cfg = NodeConfig {
            n_gpus: 2,
            n_numa: 2,
        };
        let mut links = vec![
            LinkSpec::new(
                PortId::Gcd(GcdId(0)),
                PortId::Gcd(GcdId(1)),
                LinkKind::Xgmi(XgmiWidth::Quad),
            ),
            LinkSpec::new(
                PortId::Gcd(GcdId(2)),
                PortId::Gcd(GcdId(3)),
                LinkKind::Xgmi(XgmiWidth::Quad),
            ),
        ];
        for g in 0..4u8 {
            links.push(LinkSpec::new(
                PortId::Gcd(GcdId(g)),
                PortId::Numa(NumaId(g / 2)),
                LinkKind::CpuGpu,
            ));
        }
        let t = NodeTopology::custom(cfg, links);
        assert!(matches!(check(&t), Err(TopologyError::Disconnected { .. })));
    }

    #[test]
    fn xgmi_to_numa_port_detected() {
        let cfg = NodeConfig {
            n_gpus: 1,
            n_numa: 1,
        };
        let links = vec![
            LinkSpec::new(
                PortId::Gcd(GcdId(0)),
                PortId::Numa(NumaId(0)),
                LinkKind::Xgmi(XgmiWidth::Single),
            ),
            LinkSpec::new(
                PortId::Gcd(GcdId(0)),
                PortId::Gcd(GcdId(1)),
                LinkKind::Xgmi(XgmiWidth::Quad),
            ),
        ];
        let t = NodeTopology::custom(cfg, links);
        assert!(matches!(
            check(&t),
            Err(TopologyError::WrongEndpointKind { .. })
        ));
    }
}
