//! Property tests for the fluid network: feasibility, work conservation,
//! and robustness under random arrival/cancel/completion interleavings.

use ifsim_des::Time;
use ifsim_fabric::fairshare::{max_min_rates, FlowInput};
use ifsim_fabric::{FlowNet, FlowSpec, SegmentMap};
use ifsim_topology::{GcdId, NodeTopology, RoutePolicy, Router};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Max-min fairness on arbitrary segment graphs: feasible, cap-bounded,
    /// and Pareto (every flow is pinned by a tight cap or a saturated
    /// segment).
    #[test]
    fn max_min_is_feasible_and_pareto(
        caps in proptest::collection::vec(1f64..1e3, 1..8),
        flow_defs in proptest::collection::vec(
            (proptest::collection::vec(0u32..8, 1..4), 0.5f64..1e4),
            1..12
        ),
    ) {
        let nsegs = caps.len() as u32;
        let mut seg_lists: Vec<Vec<u32>> = Vec::new();
        let mut wire_caps = Vec::new();
        for (segs, cap) in &flow_defs {
            let mut s: Vec<u32> = segs.iter().map(|x| x % nsegs).collect();
            s.sort();
            s.dedup();
            seg_lists.push(s);
            // A third of flows are uncapped.
            wire_caps.push(if *cap > 6e3 { f64::INFINITY } else { *cap });
        }
        let flows: Vec<FlowInput<'_>> = seg_lists
            .iter()
            .zip(&wire_caps)
            .map(|(s, &c)| FlowInput { segs: s, wire_cap: c })
            .collect();
        let rates = max_min_rates(&caps, &flows);

        // Feasibility + cap respect.
        const EPS: f64 = 1e-6;
        for (s, &cap) in caps.iter().enumerate() {
            let load: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.segs.contains(&(s as u32)))
                .map(|(_, &r)| r)
                .sum();
            prop_assert!(load <= cap * (1.0 + EPS), "segment {s}: {load} > {cap}");
        }
        for (f, &r) in flows.iter().zip(&rates) {
            prop_assert!(r > 0.0);
            prop_assert!(r <= f.wire_cap * (1.0 + EPS));
        }
        // Pareto: each flow is capped or crosses a saturated segment.
        for (i, (f, &r)) in flows.iter().zip(&rates).enumerate() {
            let capped = f.wire_cap.is_finite() && r >= f.wire_cap * (1.0 - 1e-4);
            let saturated = f.segs.iter().any(|&s| {
                let load: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.segs.contains(&s))
                    .map(|(_, &x)| x)
                    .sum();
                load >= caps[s as usize] * (1.0 - 1e-4)
            });
            prop_assert!(capped || saturated, "flow {i} could still grow");
        }
    }

    /// The network conserves bytes under random interleavings of arrivals,
    /// cancellations, and completions: delivered + cancelled-progress
    /// accounts for every payload byte exactly once.
    #[test]
    fn flownet_conserves_bytes_under_churn(
        ops in proptest::collection::vec((0u8..3, 0u8..8, 0u8..8, 1u32..50), 1..30),
    ) {
        let topo = NodeTopology::frontier();
        let router = Router::new(&topo);
        let mut net = FlowNet::new(SegmentMap::new(&topo));
        let mut live: Vec<(ifsim_fabric::FlowId, f64)> = Vec::new();
        let mut completed_bytes = 0.0;
        let mut cancelled_bytes = 0.0;
        let mut submitted_bytes = 0.0;

        for (op, a, b, kb) in ops {
            match op {
                // Arrival.
                0 => {
                    let (a, b) = (a % 8, b % 8);
                    if a == b {
                        continue;
                    }
                    let p = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
                    let segs = net.segmap().path_segments(&topo, p, false);
                    let bytes = kb as f64 * 1024.0;
                    let id = net.add_flow(net.now(), FlowSpec::new(segs, bytes, 0.9));
                    live.push((id, bytes));
                    submitted_bytes += bytes;
                }
                // Complete the earliest.
                1 => {
                    if let Some((t, id)) = net.complete_next() {
                        prop_assert!(t >= Time::ZERO);
                        let pos = live.iter().position(|&(l, _)| l == id).unwrap();
                        completed_bytes += live.remove(pos).1;
                    }
                }
                // Cancel a pseudo-random live flow.
                _ => {
                    if !live.is_empty() {
                        let pos = (a as usize + b as usize) % live.len();
                        let (id, bytes) = live.remove(pos);
                        let delivered = net.cancel(id).unwrap();
                        prop_assert!(delivered <= bytes * (1.0 + 1e-9));
                        cancelled_bytes += bytes;
                    }
                }
            }
        }
        // Drain.
        while let Some((_, id)) = net.complete_next() {
            let pos = live.iter().position(|&(l, _)| l == id).unwrap();
            completed_bytes += live.remove(pos).1;
        }
        prop_assert!(live.is_empty());
        prop_assert_eq!(net.active(), 0);
        prop_assert!(
            (completed_bytes + cancelled_bytes - submitted_bytes).abs() < 1e-6,
            "bytes accounted once"
        );
    }

    /// Mid-flight degradation keeps the max-min solution feasible: after
    /// random lane-loss-style factors land on random links, no segment
    /// carries more aggregate wire rate than its *new* capacity, and every
    /// surviving flow still makes positive progress.
    #[test]
    fn degraded_rates_never_exceed_new_capacities(
        flow_defs in proptest::collection::vec((0u8..8, 0u8..8, 1u32..2_000), 1..12),
        factors in proptest::collection::vec((0u8..32, 1u32..4), 1..6),
    ) {
        let topo = NodeTopology::frontier();
        let router = Router::new(&topo);
        let mut net = FlowNet::new(SegmentMap::new(&topo));
        for (a, b, kb) in flow_defs {
            let (a, b) = (a % 8, b % 8);
            if a == b {
                continue;
            }
            let p = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
            let segs = net.segmap().path_segments(&topo, p, false);
            net.add_flow(net.now(), FlowSpec::new(segs, kb as f64 * 1024.0, 0.9));
        }
        // Degrade links to 1/4 .. 3/4 of healthy capacity (lane-loss shape)
        // while the flows are in flight.
        let n_links = topo.links().len() as u8;
        for (l, quarters) in factors {
            let link = ifsim_topology::LinkId((l % n_links) as u32);
            net.set_link_factor(link, quarters as f64 / 4.0);
        }
        const EPS: f64 = 1e-6;
        let ids = net.active_ids();
        for s in 0..net.segmap().len() {
            let seg = ifsim_fabric::SegId(s as u32);
            let cap = net.segmap().capacity(seg);
            let load: f64 = ids
                .iter()
                .filter(|&&id| net.spec_of(id).unwrap().segs.contains(&seg))
                .map(|&id| {
                    net.rate_of(id).unwrap() / net.spec_of(id).unwrap().efficiency
                })
                .sum();
            prop_assert!(
                load <= cap * (1.0 + EPS),
                "segment {}: wire load {load} exceeds degraded cap {cap}",
                net.segmap().label(seg)
            );
        }
        for &id in &ids {
            prop_assert!(net.rate_of(id).unwrap() > 0.0, "{id:?} stalled");
        }
        // And the whole mix still drains to completion.
        while net.complete_next().is_some() {}
        prop_assert_eq!(net.active(), 0);
    }

    /// Bottleneck attribution partitions every completed flow's lifetime:
    /// cap-bound time plus the per-segment binding times reproduces the
    /// creation-to-completion span to 1e-6 relative, for arbitrary flow
    /// mixes (where contention makes the binding constraint shift between
    /// the wire cap and saturated segments mid-flight).
    #[test]
    fn attribution_partitions_flow_lifetime(
        flow_defs in proptest::collection::vec((0u8..8, 0u8..8, 1u32..5_000), 1..16),
    ) {
        let topo = NodeTopology::frontier();
        let router = Router::new(&topo);
        let mut net = FlowNet::new(SegmentMap::new(&topo));
        net.enable_flow_log();
        net.enable_attribution();
        for (a, b, kb) in flow_defs {
            let (a, b) = (a % 8, b % 8);
            if a == b {
                continue;
            }
            let p = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
            let segs = net.segmap().path_segments(&topo, p, false);
            net.add_flow(net.now(), FlowSpec::new(segs, kb as f64 * 1024.0, 0.9));
        }
        while net.complete_next().is_some() {}

        let mut created: std::collections::HashMap<ifsim_fabric::FlowId, f64> =
            std::collections::HashMap::new();
        let mut completions = 0usize;
        for ev in net.flow_log().events() {
            match &ev.kind {
                ifsim_fabric::FlowEventKind::Created { .. } => {
                    created.insert(ev.flow, ev.at.as_ns());
                }
                ifsim_fabric::FlowEventKind::Completed { attribution, .. } => {
                    completions += 1;
                    let a = attribution
                        .as_ref()
                        .expect("attribution enabled, so completions carry one");
                    let lifetime = ev.at.as_ns() - created[&ev.flow];
                    let tol = 1e-6 * lifetime.max(1.0);
                    prop_assert!(
                        (a.total_ns - lifetime).abs() <= tol,
                        "total_ns {} vs observed lifetime {lifetime}",
                        a.total_ns
                    );
                    let accounted = a.cap_bound_ns + a.link_bound_ns();
                    prop_assert!(
                        (accounted - a.total_ns).abs() <= tol,
                        "cap {} + link {} does not partition total {}",
                        a.cap_bound_ns,
                        a.link_bound_ns(),
                        a.total_ns
                    );
                    for &(_, ns) in &a.segments {
                        prop_assert!(ns >= 0.0);
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(completions, created.len(), "every flow completed");
    }

    /// The flight recorder and attribution are pure observers: running the
    /// identical flow mix with all observability enabled yields bitwise the
    /// same completion schedule as a bare network.
    #[test]
    fn observability_never_perturbs_the_schedule(
        flow_defs in proptest::collection::vec((0u8..8, 0u8..8, 1u32..5_000), 1..16),
    ) {
        let topo = NodeTopology::frontier();
        let router = Router::new(&topo);
        let mut bare = FlowNet::new(SegmentMap::new(&topo));
        let mut observed = FlowNet::new(SegmentMap::new(&topo));
        observed.enable_flow_log();
        observed.enable_attribution();
        observed.enable_flight_recorder(ifsim_fabric::recorder::DEFAULT_RING_CAPACITY);
        for (a, b, kb) in flow_defs {
            let (a, b) = (a % 8, b % 8);
            if a == b {
                continue;
            }
            let p = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
            for net in [&mut bare, &mut observed] {
                let segs = net.segmap().path_segments(&topo, p, false);
                net.add_flow(net.now(), FlowSpec::new(segs, kb as f64 * 1024.0, 0.9));
            }
        }
        loop {
            let a = bare.complete_next();
            let b = observed.complete_next();
            prop_assert_eq!(a, b, "schedules diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Completion times never decrease as the driver pulls them, whatever
    /// the flow mix.
    #[test]
    fn completions_are_monotone(sizes in proptest::collection::vec(1u32..10_000, 1..20)) {
        let topo = NodeTopology::frontier();
        let router = Router::new(&topo);
        let mut net = FlowNet::new(SegmentMap::new(&topo));
        for (i, &kb) in sizes.iter().enumerate() {
            let a = (i % 8) as u8;
            let b = ((i + 1 + i / 8) % 8) as u8;
            if a == b {
                continue;
            }
            let p = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
            let segs = net.segmap().path_segments(&topo, p, true);
            net.add_flow(net.now(), FlowSpec::new(segs, kb as f64 * 1024.0, 0.87));
        }
        let mut last = Time::ZERO;
        while let Some((t, _)) = net.complete_next() {
            prop_assert!(t >= last);
            last = t;
        }
    }
}
