//! The pre-arena flow engine, preserved as an executable oracle.
//!
//! [`ReferenceNet`] is the original [`crate::FlowNet`] event core before the
//! performance rework (see `docs/PERFORMANCE.md`): a `BTreeMap` flow table,
//! a **from-scratch** progressive-filling pass on every membership change
//! (re-collecting segment lists into fresh `Vec`s each time), and an O(F)
//! linear scan per completion peek. It is deliberately simple and slow, and
//! it is compiled only for tests: the differential property tests below
//! drive it in lockstep with the production engine and require the two to
//! agree on every rate, completion time, and completion order.
//!
//! It intentionally omits the production niceties (flow log, link-load
//! accounting, batch admission): only the timed core being verified.

use crate::fairshare::{max_min_rates, FlowInput};
use crate::flow::{FlowId, FlowSpec};
use crate::seg::SegmentMap;
use ifsim_des::{Dur, Time};
use std::collections::BTreeMap;

struct Active {
    spec: FlowSpec,
    delivered: f64,
    rate: f64,
}

/// The naive fluid-network engine (see module docs). Driving protocol and
/// numeric behaviour match [`crate::FlowNet`]; performance does not.
pub struct ReferenceNet {
    segmap: SegmentMap,
    flows: BTreeMap<FlowId, Active>,
    now: Time,
    next_id: u64,
    recomputes: u64,
}

impl ReferenceNet {
    /// A network over the given segments, starting at `Time::ZERO`.
    pub fn new(segmap: SegmentMap) -> Self {
        ReferenceNet {
            segmap,
            flows: BTreeMap::new(),
            now: Time::ZERO,
            next_id: 0,
            recomputes: 0,
        }
    }

    /// The segment map this network runs over.
    pub fn segmap(&self) -> &SegmentMap {
        &self.segmap
    }

    /// Current network-local time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Total from-scratch rate recomputations performed.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Current payload rate of a flow, bytes/s.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.rate)
    }

    /// Apply an absolute health factor to a link mid-flight and re-share.
    pub fn set_link_factor(&mut self, link: ifsim_topology::LinkId, factor: f64) {
        assert!(factor > 0.0, "zero-capacity link: remove its flows instead");
        self.segmap.set_link_factor(link, factor);
        self.recompute();
    }

    /// Take a link down: abort crossing flows, zero its capacity, re-share.
    pub fn fail_link(&mut self, link: ifsim_topology::LinkId) -> Vec<(FlowId, f64)> {
        let segs = self.segmap.link_segments(link);
        let victims: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| f.spec.segs.iter().any(|s| segs.contains(s)))
            .map(|(&id, _)| id)
            .collect();
        let aborted: Vec<(FlowId, f64)> = victims
            .into_iter()
            .map(|id| {
                let f = self.flows.remove(&id).expect("victim is active");
                (id, f.delivered)
            })
            .collect();
        self.segmap.set_link_factor(link, 0.0);
        self.recompute();
        aborted
    }

    /// Start a flow at time `now` (must not precede network time).
    pub fn add_flow(&mut self, now: Time, spec: FlowSpec) -> FlowId {
        self.advance_to(now);
        for &s in &spec.segs {
            assert!(s.idx() < self.segmap.len(), "unknown segment {s:?}");
            assert!(
                self.segmap.capacity(s) > 0.0,
                "flow routed over dead segment"
            );
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            Active {
                spec,
                delivered: 0.0,
                rate: 0.0,
            },
        );
        self.recompute();
        id
    }

    /// The earliest completion among active flows: a full linear scan.
    pub fn peek_completion(&self) -> Option<(Time, FlowId)> {
        let mut best: Option<(Time, FlowId)> = None;
        for (&id, f) in &self.flows {
            let remaining = (f.spec.payload_bytes - f.delivered).max(0.0);
            let t = self.now + Dur::for_bytes(remaining, f.rate);
            match best {
                Some((bt, _)) if bt <= t => {}
                _ => best = Some((t, id)),
            }
        }
        best
    }

    /// Move network time forward, accruing delivered payload.
    pub fn advance_to(&mut self, t: Time) {
        assert!(t >= self.now, "time moved backwards");
        let dt = (t - self.now).as_secs();
        if dt > 0.0 {
            for f in self.flows.values_mut() {
                f.delivered = (f.delivered + f.rate * dt).min(f.spec.payload_bytes);
            }
        }
        self.now = t;
    }

    /// Advance to the earliest completion and remove that flow.
    pub fn complete_next(&mut self) -> Option<(Time, FlowId)> {
        let (t, id) = self.peek_completion()?;
        self.advance_to(t);
        self.flows.remove(&id).expect("peeked flow exists");
        self.recompute();
        Some((t, id))
    }

    /// Cancel a flow; returns delivered bytes.
    pub fn cancel(&mut self, id: FlowId) -> Option<f64> {
        let f = self.flows.remove(&id)?;
        self.recompute();
        Some(f.delivered)
    }

    fn recompute(&mut self) {
        self.recomputes += 1;
        if self.flows.is_empty() {
            return;
        }
        let caps: Vec<f64> = (0..self.segmap.len())
            .map(|i| self.segmap.capacity(crate::seg::SegId(i as u32)))
            .collect();
        let seg_lists: Vec<Vec<u32>> = self
            .flows
            .values()
            .map(|f| f.spec.segs.iter().map(|s| s.0).collect())
            .collect();
        let inputs: Vec<FlowInput<'_>> = self
            .flows
            .values()
            .zip(seg_lists.iter())
            .map(|(f, segs)| FlowInput {
                segs,
                wire_cap: f.spec.wire_cap(),
            })
            .collect();
        let rates = max_min_rates(&caps, &inputs);
        for (f, wire_rate) in self.flows.values_mut().zip(rates) {
            f.rate = wire_rate * f.spec.efficiency;
        }
    }
}

mod tests {
    use super::*;
    use ifsim_des::units::gbps;
    use ifsim_topology::{GcdId, NodeTopology, RoutePolicy, Router};

    #[test]
    fn reference_engine_reproduces_the_textbook_flow() {
        let t = NodeTopology::frontier();
        let r = Router::new(&t);
        let mut n = ReferenceNet::new(SegmentMap::new(&t));
        let p = r.gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth);
        let segs = n.segmap().path_segments(&t, p, false);
        let id = n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        assert!((n.rate_of(id).unwrap() - gbps(50.0)).abs() < 1.0);
        let (tc, idc) = n.complete_next().unwrap();
        assert_eq!(idc, id);
        assert!((tc.as_secs() - 0.02).abs() < 1e-9);
        assert_eq!(n.active(), 0);
    }

    #[test]
    fn reference_counter_counts_every_pass_including_empty() {
        // The naive engine's historical wart, kept verbatim: removing the
        // last flow still runs (and counts) a recompute over nothing. The
        // production engine fixes this; the differential tests compare
        // rates and completions, never this counter.
        let t = NodeTopology::frontier();
        let r = Router::new(&t);
        let mut n = ReferenceNet::new(SegmentMap::new(&t));
        let p = r.gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth);
        let segs = n.segmap().path_segments(&t, p, false);
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e6, 1.0));
        n.complete_next().unwrap();
        assert_eq!(n.recomputes(), 2);
    }
}

mod differential {
    //! Differential property tests: the reworked engine (CSR arena, deferred
    //! recompute, per-flow completion projections) must be observationally
    //! equivalent to the pre-rework engine and to the naive fair-share oracle.
    //!
    //! Randomized scenarios over the Frontier topology interleave batch
    //! admissions, completions, cancels, mid-flight link degradation, and hard
    //! link failures. After every step:
    //!
    //! - every active flow's rate matches `ReferenceNet` to 1e-6 relative
    //!   tolerance, and matches a from-scratch `max_min_rates` run over the
    //!   current membership (the arena solver against the naive oracle);
    //! - completions agree on time — and on flow id, except where two flows tie
    //!   to within float round-off, in which case the pair must drain as a pair.

    use super::*;
    use crate::seg::SegId;
    use crate::FlowNet;
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

        /// Pure add/drain cycles agree flow-by-flow on every completion time.
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
}
