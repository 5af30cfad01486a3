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
//!   counter: samples are recorded in trace order into one local
//!   [`Histogram`] per `(op, dev)`, and each key is built once;
//! - the fabric [`FlowLog`](ifsim_fabric::FlowLog) records each flow's
//!   creation with its segment ids, its completion (with the bottleneck
//!   attribution, by segment id) or abort, and the runtime's reroute notes.
//!   One pass pairs each created→completed/aborted flow, through a table
//!   indexed by flow id, into a span (cat `fabric_flow`) whose `route` arg
//!   is named by
//!   [`SegmentMap::route_label`](ifsim_fabric::SegmentMap::route_label) and
//!   whose `bound_by` arg names the segment that bound it longest; reroute
//!   notes become instants. Attributions add up per distinct segment label
//!   and fold into the `fabric_attr_*` counters behind
//!   `ifsim_telemetry::attribution`.
//!
//! The fabric's counters join them: the flight recorder's
//! [`UtilSeries`] (per-link utilization as change
//! points over the recompute epochs; each link direction that ever carried
//! traffic becomes a counter track, cat `fabric_util`, Chrome `ph: "C"`,
//! sampled where its value changed and at the first and final epochs), per-link
//! byte/busy/utilization counters, the solver counters and the fault
//! statistics.
//!
//! The dependency DAG rides the same snapshot; its flow nodes read their
//! ends and routes from the same flow table.
//!
//! Text that many events repeat is rendered once per snapshot and shared
//! ([`Text::Shared`]): each route and each `bound_by` segment, each counter
//! track's `fabric util <label>`, each device number and each byte count.
//! Op, flow and reroute names are unique to their event and owned; keys,
//! categories and outcomes are literals.

use crate::dag::DagBuilder;
use crate::fault::FaultStats;
use crate::trace::{TraceEvent, TraceKind};
use ifsim_des::Time;
use ifsim_fabric::{FlowEvent, FlowEventKind, FlowNet, SegId, SegmentMap, UtilSeries};
use ifsim_telemetry::attribution::{ATTR_BOUND_NS, ATTR_FLOWS, ATTR_TOTAL_NS};
use ifsim_telemetry::{Histogram, MetricKey, MetricsRegistry, SimTelemetry, Text, TimelineEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};

#[cfg(test)]
mod differential;
#[cfg(test)]
pub(crate) mod oracle;

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

/// Text unique to one event or node, rendered into a single allocation
/// sized for a typical op or flow name.
pub(crate) fn owned(args: fmt::Arguments<'_>) -> Text {
    let mut s = String::with_capacity(40);
    let _ = s.write_fmt(args);
    Text::Owned(s)
}

/// The texts one snapshot shares, each rendered the first time it is
/// asked for.
pub(crate) struct Texts<'a> {
    segmap: &'a SegmentMap,
    routes: HashMap<&'a [SegId], Text>,
    segments: Vec<Option<Text>>,
    devs: Vec<Option<Text>>,
    /// By the bits of the count, as `f64::to_string` prints them.
    bytes: HashMap<u64, Text>,
}

/// The text in `slot`, rendered into it on first use.
fn shared(slot: &mut Option<Text>, render: impl FnOnce() -> String) -> Text {
    slot.get_or_insert_with(|| Text::shared(&render())).clone()
}

impl<'a> Texts<'a> {
    pub(crate) fn new(segmap: &'a SegmentMap) -> Texts<'a> {
        Texts {
            segmap,
            routes: HashMap::new(),
            segments: vec![None; segmap.len()],
            devs: Vec::new(),
            bytes: HashMap::new(),
        }
    }

    /// A route's label (`GCD0->GCD2 + HBM GCD0 + HBM GCD2`).
    fn route(&mut self, segs: &'a [SegId]) -> Text {
        let segmap = self.segmap;
        let text = self.routes.entry(segs);
        text.or_insert_with(|| Text::shared(&segmap.route_label(segs)))
            .clone()
    }

    /// One segment's label.
    fn segment(&mut self, seg: SegId) -> Text {
        let segmap = self.segmap;
        shared(&mut self.segments[seg.idx()], || {
            segmap.label(seg).to_string()
        })
    }

    /// A device number.
    fn dev(&mut self, idx: usize) -> Text {
        if idx >= self.devs.len() {
            self.devs.resize(idx + 1, None);
        }
        shared(&mut self.devs[idx], || idx.to_string())
    }

    /// A byte count, printed as the flow log holds it.
    fn bytes(&mut self, v: f64) -> Text {
        let text = self.bytes.entry(v.to_bits());
        text.or_insert_with(|| Text::shared(&v.to_string())).clone()
    }
}

/// One flow as the snapshot reads it from the flow log.
pub(crate) struct FlowRow {
    /// Its route's shared label.
    pub(crate) route: Text,
    /// When the log completed it; `None` while in flight or once aborted.
    pub(crate) completed: Option<Time>,
    created: Time,
    payload_bytes: f64,
    /// Created and not yet completed or aborted: its span is still owed.
    open: bool,
}

/// Read the flow log in one pass into a table indexed by flow id. `each`
/// sees every event once its row is up to date, with the row that a
/// completion or abort closes (`None` for a creation, a reroute note, or
/// the end of a flow that is not open).
pub(crate) fn read_flow_log<'a>(
    net: &'a FlowNet,
    texts: &mut Texts<'a>,
    mut each: impl FnMut(&'a FlowEvent, Option<&FlowRow>, &mut Texts<'a>),
) -> Vec<Option<FlowRow>> {
    let mut rows: Vec<Option<FlowRow>> = Vec::new();
    for ev in net.flow_log().events() {
        let i = ev.flow.0 as usize;
        let mut closed = None;
        match &ev.kind {
            FlowEventKind::Created {
                payload_bytes,
                segs,
            } => {
                // Ids count up from 0, so this is a push.
                if i >= rows.len() {
                    rows.resize_with(i + 1, || None);
                }
                rows[i] = Some(FlowRow {
                    route: texts.route(segs),
                    completed: None,
                    created: ev.at,
                    payload_bytes: *payload_bytes,
                    open: true,
                });
            }
            FlowEventKind::Rerouted { .. } => {}
            FlowEventKind::Completed { .. } | FlowEventKind::Aborted { .. } => {
                if let Some(row) = rows.get_mut(i).and_then(Option::as_mut) {
                    if matches!(ev.kind, FlowEventKind::Completed { .. }) {
                        row.completed = Some(ev.at);
                    }
                    closed = std::mem::replace(&mut row.open, false).then_some(i);
                }
            }
        }
        each(ev, closed.and_then(|i| rows[i].as_ref()), texts);
    }
    rows
}

/// Assemble the unified snapshot from the runtime's op trace, its fabric
/// (flow log, flight recorder, link loads, solver counters) and its fault
/// statistics.
pub fn build_sim_telemetry(
    trace: &[TraceEvent],
    net: &FlowNet,
    faults: &FaultStats,
) -> SimTelemetry {
    capture(trace, net, faults, None)
}

/// [`build_sim_telemetry`], with the dependency DAG when one was captured:
/// its flow nodes take their routes and ends from the same flow table.
pub(crate) fn capture(
    trace: &[TraceEvent],
    net: &FlowNet,
    faults: &FaultStats,
    dag: Option<DagBuilder>,
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
    let mut texts = Texts::new(segmap);

    // --- hip ops and fault markers, from the trace -----------------------
    // Completed ops' durations, by (op kind, device), in trace order.
    let mut op_durations: BTreeMap<(&str, usize), Histogram> = BTreeMap::new();
    for ev in trace {
        let name = owned(format_args!("{}", ev.kind));
        if let TraceKind::Fault(_) = ev.kind {
            events.push(TimelineEvent::instant(ev.start, name, "fault").on_tid(FAULT_LANE));
            lane(FAULT_LANE, &|| "faults".to_string());
            continue;
        }
        let tid = ev.stream.0 as u32;
        let dev = ev.dev.idx();
        let mut span = TimelineEvent::span(ev.start, ev.end, name, "hip_op").on_tid(tid);
        span.args = vec![("dev".into(), texts.dev(dev))];
        events.push(span);
        lane(tid, &|| format!("dev{dev}/{:?}", ev.stream));
        if let TraceKind::Done(op) = &ev.kind {
            op_durations
                .entry((op.kind(), dev))
                .or_default()
                .record(ev.duration().as_ns());
        }
    }

    // --- fabric flow lifecycle, paired into spans ------------------------
    let mut flow_durations: Vec<f64> = Vec::new();
    // Attribution accumulators, folded into the registry below: the link
    // share adds up per distinct segment label, in log order, as one sum
    // per label would.
    let mut attr_flows = 0u64;
    let mut attr_total_ns = 0.0;
    let mut attr_cap_ns = 0.0;
    let mut attr_labels: Option<LabelSlots> = None;
    let rows = read_flow_log(net, &mut texts, |ev, closed, texts| {
        let tid = flow_lane(ev.flow.0);
        let (delivered_bytes, attribution) = match &ev.kind {
            FlowEventKind::Created { .. } => return,
            FlowEventKind::Rerouted { note } => {
                let name = owned(format_args!("reroute: {note}"));
                events.push(TimelineEvent::instant(ev.at, name, "fabric_flow").on_tid(tid));
                lane(tid, &|| flow_lane_name(tid));
                return;
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
            let slots = attr_labels.get_or_insert_with(|| LabelSlots::new(segmap));
            for &(seg, ns) in &a.segments {
                slots.ns[slots.slot[seg.idx()]] += ns;
            }
            bound_by = Some(match a.dominant_segment() {
                Some((seg, _)) => texts.segment(seg),
                None => "engine-cap".into(),
            });
        }
        let Some(row) = closed else {
            return;
        };
        // The name prints the payload as its shared text already reads.
        let payload = texts.bytes(row.payload_bytes);
        let name = owned(format_args!("flow#{} {payload}B [{outcome}]", ev.flow.0));
        let mut span = TimelineEvent::span(row.created, ev.at, name, "fabric_flow").on_tid(tid);
        span.args = Vec::with_capacity(4 + usize::from(bound_by.is_some()));
        span.args.extend([
            ("route".into(), row.route.clone()),
            ("payload_bytes".into(), payload),
            ("delivered_bytes".into(), texts.bytes(delivered_bytes)),
            ("outcome".into(), outcome.into()),
        ]);
        span.args.extend(bound_by.map(|b| ("bound_by".into(), b)));
        events.push(span);
        lane(tid, &|| flow_lane_name(tid));
        if outcome == "completed" {
            flow_durations.push((ev.at - row.created).as_ns());
        }
    });
    // Flows still in flight at snapshot time stay off the timeline (they
    // have no end), but their creation is not lost: the metrics below
    // count them via peak/active statistics.

    // --- flight recorder counter tracks ----------------------------------
    // The recorder's change points, as they are: one track per link
    // direction that ever carried traffic (all-zero columns would add 50+
    // flat tracks to every Perfetto view), a sample only where the value
    // changed, and every track closed at the final epoch.
    if let Some(series) = &util_series {
        let mut tracks: Vec<Option<Text>> = vec![None; series.labels.len()];
        for s in series.samples() {
            let name = shared(&mut tracks[s.col], || {
                format!("fabric util {}", series.labels[s.col])
            });
            events.push(TimelineEvent::counter(
                Time::from_ns(s.ts_ns),
                name,
                "fabric_util",
                s.util,
            ));
        }
    }

    // --- metrics ---------------------------------------------------------
    // Per-op metrics: one key per (op, dev) histogram and per op counter.
    let mut metrics = MetricsRegistry::new();
    let mut completed: BTreeMap<&str, u64> = BTreeMap::new();
    for ((op, dev), h) in op_durations {
        *completed.entry(op).or_insert(0) += h.count();
        let key = MetricKey::new("hip_op_duration_ns")
            .with("op", op)
            .with("dev", dev.to_string());
        metrics.merge_histogram(key, h);
    }
    for (op, n) in completed {
        metrics.counter_add(MetricKey::new("hip_ops_completed").with("op", op), n as f64);
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
        let slots = attr_labels.as_ref().expect("set by the first attribution");
        for (label, &ns) in slots.labels.iter().zip(&slots.ns) {
            if ns > 0.0 {
                metrics.counter_add(
                    MetricKey::new(ATTR_BOUND_NS)
                        .with("cause", "link")
                        .with("segment", *label),
                    ns,
                );
            }
        }
    }
    fabric_and_fault_metrics(&mut metrics, net, util_series.as_ref(), faults);

    SimTelemetry {
        process_name: "hipsim".to_string(),
        events,
        threads,
        metrics,
        dag: dag.map(|d| {
            d.graph_with(|fid| {
                let row = rows[fid.0 as usize].as_ref().expect("a DAG flow is logged");
                (row.completed.map(Time::as_ns), row.route.clone())
            })
        }),
    }
}

/// Attribution per distinct segment label: each segment's slot among the
/// labels in sorted order, and each slot's sum.
struct LabelSlots<'a> {
    labels: Vec<&'a str>,
    slot: Vec<usize>,
    ns: Vec<f64>,
}

impl<'a> LabelSlots<'a> {
    fn new(segmap: &'a SegmentMap) -> LabelSlots<'a> {
        let mut by_label: Vec<(&str, usize)> = (0..segmap.len())
            .map(|i| (segmap.label(SegId(i as u32)), i))
            .collect();
        by_label.sort_unstable();
        let mut labels: Vec<&str> = Vec::new();
        let mut slot = vec![0; by_label.len()];
        for (label, seg) in by_label {
            if labels.last() != Some(&label) {
                labels.push(label);
            }
            slot[seg] = labels.len() - 1;
        }
        let ns = vec![0.0; labels.len()];
        LabelSlots { labels, slot, ns }
    }
}

/// The metrics read from the fabric's counters and the fault statistics
/// rather than from the two records.
fn fabric_and_fault_metrics(
    metrics: &mut MetricsRegistry,
    net: &FlowNet,
    util_series: Option<&UtilSeries>,
    faults: &FaultStats,
) {
    if let Some(series) = util_series {
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
