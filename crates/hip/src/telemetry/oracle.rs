//! The bridge as it was before texts were shared: every event renders its
//! own name and args, the flow log pairs through a `BTreeMap`, attribution
//! sums per label in a `BTreeMap`, and every completed op observes its
//! metrics through fresh keys. The differential tests in the parent module
//! hold [`super::capture`] to these bytes.

use crate::dag::DagBuilder;
use crate::fault::FaultStats;
use crate::trace::{TraceEvent, TraceKind};
use ifsim_des::Time;
use ifsim_fabric::{FlowEventKind, FlowNet, SegId};
use ifsim_telemetry::attribution::{ATTR_BOUND_NS, ATTR_FLOWS, ATTR_TOTAL_NS};
use ifsim_telemetry::critpath::DepGraph;
use ifsim_telemetry::{MetricKey, MetricsRegistry, SimTelemetry, TimelineEvent};
use std::collections::{BTreeMap, BTreeSet};

use super::{flow_lane, FAULT_LANE, FLOW_LANE_BASE};

/// The snapshot, with the DAG when one was captured.
pub(crate) fn capture(
    trace: &[TraceEvent],
    net: &FlowNet,
    faults: &FaultStats,
    dag: Option<DagBuilder>,
) -> SimTelemetry {
    let mut snap = build_sim_telemetry(trace, net, faults);
    snap.dag = dag.map(|d| dag_snapshot(d, net));
    snap
}

/// The DAG with each flow node's route rendered for that node.
fn dag_snapshot(dag: DagBuilder, net: &FlowNet) -> DepGraph {
    let mut flows: Vec<(&[SegId], Option<f64>)> = Vec::new();
    for ev in net.flow_log().events() {
        match &ev.kind {
            FlowEventKind::Created { segs, .. } => {
                debug_assert_eq!(ev.flow.0, flows.len() as u64);
                flows.push((segs, None));
            }
            FlowEventKind::Completed { .. } => {
                flows[ev.flow.0 as usize].1 = Some(ev.at.as_ns());
            }
            _ => {}
        }
    }
    let segmap = net.segmap();
    dag.graph_with(|fid| {
        let (segs, end) = flows[fid.0 as usize];
        (end, segmap.route_label(segs).into())
    })
}

fn build_sim_telemetry(trace: &[TraceEvent], net: &FlowNet, faults: &FaultStats) -> SimTelemetry {
    let util_series = net.recorder_series();
    let segmap = net.segmap();
    let mut events: Vec<TimelineEvent> = Vec::new();
    let mut threads: Vec<(u32, String)> = Vec::new();
    let mut seen_lanes: BTreeSet<u32> = BTreeSet::new();
    let mut lane = |tid: u32, name: &dyn Fn() -> String| {
        if seen_lanes.insert(tid) {
            threads.push((tid, name()));
        }
    };
    let flow_lane_name = |tid: u32| format!("fabric flows %{}", tid - FLOW_LANE_BASE);

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

    struct Open<'a> {
        at: Time,
        payload_bytes: f64,
        segs: &'a [SegId],
    }
    let mut open: BTreeMap<u64, Open> = BTreeMap::new();
    let mut flow_durations: Vec<f64> = Vec::new();
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
            span = span.with_arg("bound_by", b.to_string());
        }
        events.push(span);
        lane(tid, &|| flow_lane_name(tid));
        if outcome == "completed" {
            flow_durations.push((ev.at - o.at).as_ns());
        }
    }

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
    super::fabric_and_fault_metrics(&mut metrics, net, util_series.as_ref(), faults);

    SimTelemetry {
        process_name: "hipsim".to_string(),
        events,
        threads,
        metrics,
        dag: None,
    }
}
