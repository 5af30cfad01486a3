//! Runtime-side fault state: fabric health seen by the planner, the retry
//! policy for fault-aborted operations, and per-link error accounting.
//!
//! The schedule of faults lives in [`ifsim_fabric::FaultPlan`]; the runtime
//! ([`crate::HipSim`]) replays it against the live simulation and keeps the
//! derived state here. The planner consults [`FabricHealth`] on every op:
//! routes crossing downed links are rejected with
//! [`crate::HipError::LinkDown`], SDMA-failed GCDs fall back to blit-kernel
//! copies, and bit-error taxes add per-hop retransmission latency.

use ifsim_des::Dur;
use ifsim_topology::{GcdId, HealthMap, LinkHealth, LinkId, NodeTopology, Path};
use std::collections::{BTreeMap, BTreeSet};

/// Fabric condition derived from applied fault events, consulted at
/// planning time.
#[derive(Clone, Debug)]
pub struct FabricHealth {
    /// Per-link up/degraded/down state.
    pub(crate) health: HealthMap,
    /// Extra per-traversal latency on links running at elevated bit-error
    /// rates (retransmission rounds).
    pub(crate) ber_latency: BTreeMap<LinkId, Dur>,
    /// Fraction of wire capacity lost to retransmission per BER-affected link.
    pub(crate) ber_tax: BTreeMap<LinkId, f64>,
    /// GCDs whose SDMA engines have failed.
    pub(crate) sdma_failed: BTreeSet<GcdId>,
    /// Per-link retrain derate set by [`crate::HipSim::derate_xgmi_link`],
    /// a fraction of healthy capacity in (0, 1].
    pub(crate) derate: BTreeMap<LinkId, f64>,
}

impl FabricHealth {
    /// All-healthy state for a topology.
    pub fn healthy(topo: &NodeTopology) -> Self {
        FabricHealth {
            health: HealthMap::healthy(topo),
            ber_latency: BTreeMap::new(),
            ber_tax: BTreeMap::new(),
            sdma_failed: BTreeSet::new(),
            derate: BTreeMap::new(),
        }
    }

    /// A link restore: healthy again, with its bit-error tax and derate
    /// cleared.
    pub(crate) fn restore(&mut self, link: LinkId) {
        self.health.set(link, LinkHealth::Healthy);
        self.ber_tax.remove(&link);
        self.ber_latency.remove(&link);
        self.derate.remove(&link);
    }

    /// The per-link health map (drives route recomputation).
    pub fn health(&self) -> &HealthMap {
        &self.health
    }

    /// Whether `gcd`'s SDMA copy engines are failed.
    pub fn sdma_failed(&self, gcd: GcdId) -> bool {
        self.sdma_failed.contains(&gcd)
    }

    /// Bit-error retransmission tax on a link, `[0, 1)`.
    pub fn ber_tax(&self, link: LinkId) -> f64 {
        self.ber_tax.get(&link).copied().unwrap_or(0.0)
    }

    /// Extra latency for one traversal of `link`.
    pub fn extra_hop_latency(&self, link: LinkId) -> Dur {
        self.ber_latency.get(&link).copied().unwrap_or(Dur::ZERO)
    }

    /// Total bit-error latency penalty along a path.
    pub fn path_extra_latency(&self, path: &Path) -> Dur {
        path.links
            .iter()
            .fold(Dur::ZERO, |acc, l| acc + self.extra_hop_latency(*l))
    }

    /// Whether every link of `path` is up (possibly degraded, never down).
    pub fn path_is_live(&self, path: &Path) -> bool {
        path.links.iter().all(|l| !self.health.is_down(*l))
    }

    /// Effective capacity factor of a link: lane-degradation fraction
    /// reduced further by the bit-error retransmission tax and any retrain
    /// derate. Every factor is relative to healthy capacity, so the
    /// impairments compose in any order.
    pub fn link_factor(&self, topo: &NodeTopology, link: LinkId) -> f64 {
        let derate = self.derate.get(&link).copied().unwrap_or(1.0);
        self.health.capacity_factor(topo, link) * (1.0 - self.ber_tax(link)) * derate
    }
}

/// Exponential-backoff retry policy for fault-aborted stream operations.
///
/// When a fabric fault aborts an in-flight API-level op, the runtime
/// re-plans it over the surviving fabric (the reroute) after a backoff of
/// `base × multiplier^(attempt-1)`, up to `max_retries` attempts; after
/// that the op fails its stream with the fault's error code.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum re-plan attempts per op (0 disables retries).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Dur,
    /// Multiplier applied per subsequent retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Dur::from_us(50.0),
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: faults fail ops immediately.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// Backoff before retry number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Dur {
        assert!(attempt >= 1, "attempt numbering is 1-based");
        self.base_backoff * self.multiplier.powi(attempt as i32 - 1)
    }
}

/// Cumulative fault/recovery accounting for one simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Fault events applied so far.
    pub faults_applied: u64,
    /// Per-link count of flow aborts caused by faults on that link.
    pub link_errors: BTreeMap<LinkId, u64>,
    /// Flows torn down mid-transfer by faults.
    pub aborted_flows: u64,
    /// Op retry attempts scheduled.
    pub retries: u64,
    /// Ops that failed their stream after exhausting retries (or because
    /// re-planning was impossible).
    pub failed_ops: u64,
}

impl FaultStats {
    /// Total fault-caused errors across all links.
    pub fn total_link_errors(&self) -> u64 {
        self.link_errors.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_topology::{NodeTopology, PortId, RoutePolicy, Router};

    #[test]
    fn healthy_fabric_reports_no_impairments() {
        let t = NodeTopology::frontier();
        let fh = FabricHealth::healthy(&t);
        assert!(!fh.sdma_failed(GcdId(0)));
        assert_eq!(fh.ber_tax(LinkId(0)), 0.0);
        assert_eq!(fh.extra_hop_latency(LinkId(0)), Dur::ZERO);
        for i in 0..t.links().len() {
            assert_eq!(fh.link_factor(&t, LinkId(i as u32)), 1.0);
        }
    }

    #[test]
    fn link_factor_composes_lanes_and_ber_tax() {
        let t = NodeTopology::frontier();
        let mut fh = FabricHealth::healthy(&t);
        let quad = t
            .link_between(PortId::Gcd(GcdId(0)), PortId::Gcd(GcdId(1)))
            .unwrap();
        fh.health.set(quad, LinkHealth::Degraded { lanes: 2 });
        fh.ber_tax.insert(quad, 0.2);
        // 2/4 lanes × (1 − 0.2) = 0.4.
        assert!((fh.link_factor(&t, quad) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn path_liveness_and_latency_track_link_state() {
        let t = NodeTopology::frontier();
        let r = Router::new(&t);
        let mut fh = FabricHealth::healthy(&t);
        let p = r
            .gcd_route(GcdId(1), GcdId(7), RoutePolicy::MaxBandwidth)
            .clone();
        assert!(fh.path_is_live(&p));
        assert_eq!(fh.path_extra_latency(&p), Dur::ZERO);
        fh.ber_latency.insert(p.links[1], Dur::from_us(2.0));
        assert_eq!(fh.path_extra_latency(&p), Dur::from_us(2.0));
        fh.health.set(p.links[1], LinkHealth::Down);
        assert!(!fh.path_is_live(&p));
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff: Dur::from_us(10.0),
            multiplier: 2.0,
        };
        assert_eq!(p.backoff(1), Dur::from_us(10.0));
        assert_eq!(p.backoff(2), Dur::from_us(20.0));
        assert_eq!(p.backoff(3), Dur::from_us(40.0));
        assert_eq!(RetryPolicy::no_retries().max_retries, 0);
    }

    #[test]
    fn stats_total_sums_links() {
        let mut s = FaultStats::default();
        s.link_errors.insert(LinkId(0), 2);
        s.link_errors.insert(LinkId(3), 1);
        assert_eq!(s.total_link_errors(), 3);
    }
}
