//! Bridging the runtime's observability records into the unified
//! telemetry model.
//!
//! A captured run keeps two records, and both hold ids and typed data,
//! never display text. Everything else in the [`SimTelemetry`] snapshot is
//! derived from them, or read from the fabric's counters, here, once, when
//! the snapshot is built:
//!
//! - the op [`Trace`](crate::trace::Trace) records each completed op,
//!   aborted attempt and failed op as a typed
//!   [`TraceKind`] holding its `OpLabel` (and
//!   `HipError`), and each applied fault as a `TraceKind::Fault`. Ops
//!   become spans (cat `hip_op`) on one thread lane per stream; faults
//!   become instants (cat `fault`) on the fault lane. Both are named by
//!   `TraceKind`'s `Display`. Each completed op also feeds the
//!   `hip_op_duration_ns{op,dev}` histogram and the `hip_ops_completed{op}`
//!   counter, in trace order;
//! - the fabric [`FlowLog`](ifsim_fabric::FlowLog) records each flow's
//!   creation with its segment ids, its completion (with the bottleneck
//!   attribution, by segment id) or abort, and the runtime's reroute notes.
//!   Each created→completed/aborted pair becomes a span (cat
//!   `fabric_flow`) whose `route` arg is named by
//!   [`SegmentMap::route_label`](ifsim_fabric::SegmentMap::route_label) and
//!   whose `bound_by` arg names the segment that bound it longest; reroute
//!   notes become instants. Attributions fold into the `fabric_attr_*`
//!   counters behind `ifsim_telemetry::attribution`.
//!
//! The fabric's counters join them: the flight recorder's
//! [`UtilSeries`](ifsim_fabric::UtilSeries) (per-link utilization as change
//! points over the recompute epochs; each link direction that ever carried
//! traffic becomes a counter track, cat `fabric_util`, Chrome `ph: "C"`,
//! sampled where its value changed and at the first and final epochs), per-link
//! byte/busy/utilization counters, the solver counters and the fault
//! statistics.
//!
//! The dependency DAG rides the same snapshot; it reads its flow nodes'
//! ends and routes from the same flow log in
//! [`DagBuilder::snapshot`](crate::dag::DagBuilder::snapshot).

use crate::fault::FaultStats;
use crate::trace::{TraceEvent, TraceKind};
use ifsim_des::Time;
use ifsim_fabric::{FlowEventKind, FlowNet, SegId};
use ifsim_telemetry::attribution::{ATTR_BOUND_NS, ATTR_FLOWS, ATTR_TOTAL_NS};
use ifsim_telemetry::{MetricKey, MetricsRegistry, SimTelemetry, TimelineEvent};
use std::collections::{BTreeMap, BTreeSet};

/// Thread-lane offset for fabric flow spans: flows share a rotating pool of
/// lanes above every plausible stream id, keeping concurrent flows visually
/// separable in Perfetto without one lane per flow.
const FLOW_LANE_BASE: u32 = 1000;
const FLOW_LANE_COUNT: u64 = 64;

/// Thread lane carrying fault instants.
const FAULT_LANE: u32 = 999;

fn flow_lane(flow: u64) -> u32 {
    FLOW_LANE_BASE + (flow % FLOW_LANE_COUNT) as u32
}

/// Assemble the unified snapshot from the runtime's op trace, its fabric
/// (flow log, flight recorder, link loads, solver counters) and its fault
/// statistics.
pub fn build_sim_telemetry(
    trace: &[TraceEvent],
    net: &FlowNet,
    faults: &FaultStats,
) -> SimTelemetry {
    // First, as it flushes: a recompute deferred to this point is sampled
    // and counted below.
    let util_series = net.recorder_series();
    let segmap = net.segmap();
    let counters = util_series
        .as_ref()
        .map_or(0, |series| series.samples().count());
    // Sized once: counter samples dominate a captured timeline, and growing
    // by doubling would briefly hold two copies of it.
    let mut events: Vec<TimelineEvent> =
        Vec::with_capacity(trace.len() + net.flow_log().events().len() + counters);
    let mut threads: Vec<(u32, String)> = Vec::new();
    let mut seen_lanes: BTreeSet<u32> = BTreeSet::new();
    // Name each thread lane the first time it carries an event.
    let mut lane = |tid: u32, name: &dyn Fn() -> String| {
        if seen_lanes.insert(tid) {
            threads.push((tid, name()));
        }
    };
    let flow_lane_name = |tid: u32| format!("fabric flows %{}", tid - FLOW_LANE_BASE);

    // --- hip ops and fault markers, from the trace -----------------------
    for ev in trace {
        let name = ev.kind.to_string();
        if let TraceKind::Fault(_) = ev.kind {
            events.push(TimelineEvent::instant(ev.start, name, "fault").on_tid(FAULT_LANE));
            lane(FAULT_LANE, &|| "faults".to_string());
            continue;
        }
        let tid = ev.stream.0 as u32;
        events.push(
            TimelineEvent::span(ev.start, ev.end, name, "hip_op")
                .on_tid(tid)
                .with_arg("dev", ev.dev.idx().to_string()),
        );
        lane(tid, &|| format!("dev{}/{:?}", ev.dev.idx(), ev.stream));
    }

    // --- fabric flow lifecycle, paired into spans ------------------------
    struct Open<'a> {
        at: Time,
        payload_bytes: f64,
        segs: &'a [SegId],
    }
    let mut open: BTreeMap<u64, Open> = BTreeMap::new();
    let mut flow_durations: Vec<f64> = Vec::new();
    // Attribution accumulators, folded into the registry below.
    let mut attr_flows = 0u64;
    let mut attr_total_ns = 0.0;
    let mut attr_cap_ns = 0.0;
    let mut attr_seg_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for ev in net.flow_log().events() {
        let tid = flow_lane(ev.flow.0);
        let (delivered_bytes, attribution) = match &ev.kind {
            FlowEventKind::Created {
                payload_bytes,
                segs,
            } => {
                open.insert(
                    ev.flow.0,
                    Open {
                        at: ev.at,
                        payload_bytes: *payload_bytes,
                        segs,
                    },
                );
                continue;
            }
            FlowEventKind::Rerouted { note } => {
                let name = format!("reroute: {note}");
                events.push(TimelineEvent::instant(ev.at, name, "fabric_flow").on_tid(tid));
                lane(tid, &|| flow_lane_name(tid));
                continue;
            }
            FlowEventKind::Completed {
                delivered_bytes,
                attribution,
            } => (*delivered_bytes, Some(attribution)),
            FlowEventKind::Aborted { delivered_bytes } => (*delivered_bytes, None),
        };
        let outcome = ev.kind.tag();
        // Fold the lifetime's binding-constraint split into the
        // fabric_attr_* counters, and name what bound this flow longest on
        // its span for Perfetto inspection.
        let mut bound_by = None;
        if let Some(a) = attribution {
            attr_flows += 1;
            attr_total_ns += a.total_ns;
            attr_cap_ns += a.cap_bound_ns;
            for &(seg, ns) in &a.segments {
                *attr_seg_ns.entry(segmap.label(seg)).or_insert(0.0) += ns;
            }
            bound_by = Some(match a.dominant_segment() {
                Some((seg, _)) => segmap.label(seg),
                None => "engine-cap",
            });
        }
        let Some(o) = open.remove(&ev.flow.0) else {
            continue;
        };
        let name = format!("flow#{} {}B [{outcome}]", ev.flow.0, o.payload_bytes);
        let mut span = TimelineEvent::span(o.at, ev.at, name, "fabric_flow")
            .on_tid(tid)
            .with_arg("route", segmap.route_label(o.segs))
            .with_arg("payload_bytes", o.payload_bytes.to_string())
            .with_arg("delivered_bytes", delivered_bytes.to_string())
            .with_arg("outcome", outcome);
        if let Some(b) = bound_by {
            span = span.with_arg("bound_by", b);
        }
        events.push(span);
        lane(tid, &|| flow_lane_name(tid));
        if outcome == "completed" {
            flow_durations.push((ev.at - o.at).as_ns());
        }
    }
    // Flows still in flight at snapshot time stay off the timeline (they
    // have no end), but their creation is not lost: the metrics below
    // count them via peak/active statistics.

    // --- flight recorder counter tracks ----------------------------------
    // The recorder's change points, as they are: one track per link
    // direction that ever carried traffic (all-zero columns would add 50+
    // flat tracks to every Perfetto view), a sample only where the value
    // changed, and every track closed at the final epoch.
    if let Some(series) = &util_series {
        for s in series.samples() {
            events.push(TimelineEvent::counter(
                Time::from_ns(s.ts_ns),
                format!("fabric util {}", series.labels[s.col]),
                "fabric_util",
                s.util,
            ));
        }
    }

    // --- metrics ---------------------------------------------------------
    // Per-op metrics, from the trace's completed ops in trace order.
    let mut metrics = MetricsRegistry::new();
    for ev in trace {
        if let TraceKind::Done(op) = &ev.kind {
            let op = op.kind();
            metrics.observe(
                MetricKey::new("hip_op_duration_ns")
                    .with("op", op)
                    .with("dev", ev.dev.idx().to_string()),
                ev.duration().as_ns(),
            );
            metrics.counter_add(MetricKey::new("hip_ops_completed").with("op", op), 1.0);
        }
    }
    for d in flow_durations {
        metrics.observe(MetricKey::new("fabric_flow_duration_ns"), d);
    }
    if attr_flows > 0 {
        metrics.counter_add(MetricKey::new(ATTR_FLOWS), attr_flows as f64);
        metrics.counter_add(MetricKey::new(ATTR_TOTAL_NS), attr_total_ns);
        metrics.counter_add(
            MetricKey::new(ATTR_BOUND_NS).with("cause", "engine-cap"),
            attr_cap_ns,
        );
        for (label, ns) in &attr_seg_ns {
            if *ns > 0.0 {
                metrics.counter_add(
                    MetricKey::new(ATTR_BOUND_NS)
                        .with("cause", "link")
                        .with("segment", *label),
                    *ns,
                );
            }
        }
    }
    if let Some(series) = &util_series {
        metrics.gauge_set(
            MetricKey::new("fabric_recorder_samples"),
            series.epochs().len() as f64,
        );
        // Always emitted, even at zero, so scrapes can tell "no drops"
        // from "recorder telemetry missing" (the serve /metrics plane
        // folds this into serve_fabric_recorder_dropped_samples_total).
        metrics.counter_add(
            MetricKey::new("fabric_recorder_dropped_samples"),
            series.dropped as f64,
        );
    }
    for l in net.link_loads() {
        if l.wire_bytes <= 0.0 {
            continue;
        }
        let key = |name: &str| {
            MetricKey::new(name)
                .with("link", l.label.clone())
                .with("dir", format!("{:?}", l.dir))
                .with("xgmi", if l.xgmi { "1" } else { "0" })
        };
        metrics.counter_add(key("fabric_link_wire_bytes"), l.wire_bytes);
        metrics.gauge_set(key("fabric_link_busy_ns"), l.busy_ns);
        metrics.gauge_set(key("fabric_link_utilization"), l.utilization);
    }
    metrics.gauge_set(
        MetricKey::new("fabric_peak_concurrent_flows"),
        net.peak_active_flows() as f64,
    );
    let recomputes = net.recomputes();
    metrics.counter_add(MetricKey::new("fabric_rate_recomputes"), recomputes as f64);
    // Same value under its old name; the stack bench
    // (`crates/bench/examples/stack/layers.rs`) still reads it.
    metrics.counter_add(
        MetricKey::new("fabric_rate_recomputes_full"),
        recomputes as f64,
    );
    if faults.faults_applied > 0 {
        metrics.counter_add(
            MetricKey::new("fault_events_applied"),
            faults.faults_applied as f64,
        );
        metrics.counter_add(
            MetricKey::new("fault_aborted_flows"),
            faults.aborted_flows as f64,
        );
        metrics.counter_add(MetricKey::new("fault_retries"), faults.retries as f64);
        metrics.counter_add(MetricKey::new("fault_failed_ops"), faults.failed_ops as f64);
    }

    SimTelemetry {
        process_name: "hipsim".to_string(),
        events,
        threads,
        metrics,
        // The causal DAG is attached by the runtime's flush path, which
        // owns the `DagBuilder`; this builder only sees derived data.
        dag: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceId;
    use crate::op::OpLabel;
    use crate::stream::StreamId;
    use ifsim_fabric::{FaultKind, FlowSpec, SegmentMap};
    use ifsim_topology::{GcdId, NodeTopology, RoutePolicy, Router};

    fn trace_ev(stream: u64, start: f64, end: f64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            dev: DeviceId(0),
            stream: StreamId(stream),
            start: Time::from_ns(start),
            end: Time::from_ns(end),
            kind,
        }
    }

    fn net() -> FlowNet {
        FlowNet::new(SegmentMap::new(&NodeTopology::frontier()))
    }

    /// A peer copy's segments: the max-bandwidth route from GCD `a` to GCD
    /// `b`, then both ends' HBM.
    fn peer_segs(net: &FlowNet, a: u8, b: u8) -> Vec<SegId> {
        let topo = NodeTopology::frontier();
        let router = Router::new(&topo);
        let path = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
        let mut segs = net.segmap().path_segments(&topo, path, false);
        segs.extend([GcdId(a), GcdId(b)].map(|g| net.segmap().hbm_seg(g)));
        segs
    }

    fn snapshot(net: &FlowNet, faults: &FaultStats) -> SimTelemetry {
        build_sim_telemetry(&[], net, faults)
    }

    #[test]
    fn trace_ops_become_spans_and_fault_markers_instants() {
        let evs = vec![
            trace_ev(
                0,
                0.0,
                100.0,
                TraceKind::Done(OpLabel::Memcpy { bytes: 64 }),
            ),
            trace_ev(
                0,
                50.0,
                50.0,
                TraceKind::Fault(FaultKind::LinkDown {
                    a: GcdId(0),
                    b: GcdId(2),
                }),
            ),
        ];
        let t = build_sim_telemetry(&evs, &net(), &FaultStats::default());
        assert_eq!(t.events.len(), 2);
        let span = &t.events[0];
        assert_eq!(span.cat, "hip_op");
        assert_eq!(span.name, "memcpy 64B");
        // The completed op also feeds the per-op metrics.
        let h = t
            .metrics
            .histogram(
                &MetricKey::new("hip_op_duration_ns")
                    .with("op", "memcpy")
                    .with("dev", "0"),
            )
            .expect("op duration histogram");
        assert_eq!((h.count(), h.mean()), (1, 100.0));
        assert_eq!(
            t.metrics
                .counter(&MetricKey::new("hip_ops_completed").with("op", "memcpy")),
            1.0
        );
        let fault = &t.events[1];
        assert_eq!(fault.cat, "fault");
        assert_eq!(fault.name, "!fault: link down GCD0<->GCD2");
        assert_eq!(fault.tid, FAULT_LANE);
        assert!(t.threads.iter().any(|(tid, _)| *tid == FAULT_LANE));
    }

    #[test]
    fn flow_lifecycle_pairs_into_spans_with_route() {
        let mut n = net();
        n.enable_capture();
        let segs = peer_segs(&n, 0, 2);
        let start = Time::from_ns(10.0);
        let fid = n.add_flow(start, FlowSpec::new(segs, 256.0, 1.0));
        let (end, _) = n.complete_next().expect("one flow");
        n.flow_log_mut().push_with(|| ifsim_fabric::FlowEvent {
            at: end,
            flow: fid,
            kind: FlowEventKind::Rerouted {
                note: "retry 1".into(),
            },
        });
        let t = snapshot(&n, &FaultStats::default());
        let span = t
            .events
            .iter()
            .find(|e| matches!(e.kind, ifsim_telemetry::EventKind::Span { .. }))
            .expect("flow span");
        assert_eq!(span.cat, "fabric_flow");
        assert!(span.name.contains(&format!("flow#{}", fid.0)));
        assert!(span
            .args
            .iter()
            .any(|(k, v)| k == "route" && v == "GCD0->GCD2 + HBM GCD0 + HBM GCD2"));
        let reroute = t
            .events
            .iter()
            .find(|e| e.name.starts_with("reroute:"))
            .expect("reroute instant");
        assert_eq!(reroute.tid, span.tid);
        // Completed flow feeds the duration histogram.
        let h = t
            .metrics
            .histogram(&MetricKey::new("fabric_flow_duration_ns"))
            .expect("duration histogram");
        assert_eq!(h.count(), 1);
        assert!((h.mean() - (end - start).as_ns()).abs() < 1e-9);
    }

    #[test]
    fn link_loads_and_fault_stats_land_in_metrics() {
        let mut n = net();
        for _ in 0..2 {
            n.add_flow(Time::ZERO, FlowSpec::new(peer_segs(&n, 0, 1), 1e6, 1.0));
        }
        while n.complete_next().is_some() {}
        let stats = FaultStats {
            faults_applied: 2,
            aborted_flows: 3,
            retries: 1,
            failed_ops: 0,
            ..Default::default()
        };
        let t = snapshot(&n, &stats);
        let key = MetricKey::new("fabric_link_wire_bytes")
            .with("link", "GCD0->GCD1")
            .with("dir", "Forward")
            .with("xgmi", "1");
        assert!((t.metrics.counter(&key) - 2e6).abs() < 1e-6);
        // Idle links are omitted, not zero-filled.
        let loaded = n.link_loads().iter().filter(|l| l.wire_bytes > 0.0).count();
        assert!(loaded < n.link_loads().len());
        assert_eq!(
            t.metrics
                .counters()
                .filter(|(k, _)| k.name() == "fabric_link_wire_bytes")
                .count(),
            loaded
        );
        assert_eq!(
            t.metrics
                .gauge(&MetricKey::new("fabric_peak_concurrent_flows")),
            Some(2.0)
        );
        assert_eq!(
            t.metrics.counter(&MetricKey::new("fault_events_applied")),
            2.0
        );
    }

    #[test]
    fn attributions_fold_into_fabric_attr_counters_and_span_args() {
        let mut n = net();
        n.enable_capture();
        n.add_flow(Time::ZERO, FlowSpec::new(peer_segs(&n, 0, 2), 1e6, 1.0));
        n.complete_next().expect("one flow");
        let a = n
            .flow_log()
            .events()
            .iter()
            .find_map(|e| match &e.kind {
                FlowEventKind::Completed { attribution, .. } => Some(attribution.clone()),
                _ => None,
            })
            .expect("attributed completion");
        let (seg, seg_ns) = a.dominant_segment().expect("a link bound the flow");
        let label = n.segmap().label(seg);
        let t = snapshot(&n, &FaultStats::default());
        assert_eq!(t.metrics.counter(&MetricKey::new(ATTR_FLOWS)), 1.0);
        assert_eq!(
            t.metrics.counter(&MetricKey::new(ATTR_TOTAL_NS)),
            a.total_ns
        );
        assert_eq!(
            t.metrics
                .counter(&MetricKey::new(ATTR_BOUND_NS).with("cause", "engine-cap")),
            a.cap_bound_ns
        );
        assert_eq!(
            t.metrics.counter(
                &MetricKey::new(ATTR_BOUND_NS)
                    .with("cause", "link")
                    .with("segment", label)
            ),
            seg_ns
        );
        let span = t
            .events
            .iter()
            .find(|e| e.cat == "fabric_flow")
            .expect("flow span");
        assert!(
            span.args.iter().any(|(k, v)| k == "bound_by" && v == label),
            "{:?}",
            span.args
        );
    }

    #[test]
    fn util_series_becomes_counter_tracks_for_active_links_only() {
        let cap = ifsim_fabric::recorder::DEFAULT_RING_CAPACITY;
        let mut n = net();
        n.enable_capture();
        // Each flow run alone costs two epochs (admission, idle tail). The
        // ring overflows by exactly the reverse-direction flow's two
        // epochs; the kept flows alternate between two forward links, so
        // each link sits idle through the other's epochs.
        let links = [(0, 1), (0, 2)];
        let mut segs = peer_segs(&n, 1, 0);
        for k in 1..=cap / 2 + 1 {
            let at = n.now() + ifsim_des::Dur::from_us(1.0);
            n.add_flow(at, FlowSpec::new(segs, 1e6, 1.0));
            n.complete_next().expect("one flow");
            let (a, b) = links[k % 2];
            segs = peer_segs(&n, a, b);
        }
        let t = snapshot(&n, &FaultStats::default());
        let counters: Vec<_> = t
            .events
            .iter()
            .filter(|e| matches!(e.kind, ifsim_telemetry::EventKind::Counter { .. }))
            .collect();
        // Only the links that carried traffic in the kept epochs get a
        // track. Each holds its first epoch, its rises and falls, and its
        // final epoch (a trailing idle repeat): half of the 2 * cap samples
        // dense rows would write.
        assert_eq!(counters.len(), cap + 2);
        for link in ["GCD0->GCD1", "GCD0->GCD2"] {
            let name = format!("fabric util {link}");
            let track: Vec<_> = counters.iter().filter(|e| e.name == name).collect();
            assert_eq!(track.len(), cap / 2 + 1, "{link}");
            assert!(track.iter().all(|e| e.cat == "fabric_util"));
            assert_eq!(track[0].ts_ns, counters[0].ts_ns);
            assert_eq!(
                track.last().map(|e| e.ts_ns),
                counters.last().map(|e| e.ts_ns)
            );
            assert_eq!(
                track.last().map(|e| &e.kind),
                Some(&ifsim_telemetry::EventKind::Counter { value: 0.0 })
            );
        }
        assert_eq!(
            t.metrics.gauge(&MetricKey::new("fabric_recorder_samples")),
            Some(cap as f64)
        );
        assert_eq!(
            t.metrics
                .counter(&MetricKey::new("fabric_recorder_dropped_samples")),
            2.0
        );
    }
}
