//! Bridging the runtime's observability sources into the unified
//! telemetry model.
//!
//! Three streams merge into one [`SimTelemetry`] snapshot:
//!
//! - the op [`Trace`](crate::trace::Trace) — completed ops become spans
//!   (cat `hip_op`) on one thread lane per stream; zero-length `!fault:`
//!   markers become instants (cat `fault`);
//! - the fabric [`FlowLog`] — each flow's created→completed/aborted pair
//!   becomes a span (cat `fabric_flow`) carrying the route taken, with
//!   reroute notes as instants, making PR 1's mid-flight reroutes visible
//!   on the timeline; completion attributions fold into the
//!   `fabric_attr_*` counters behind `ifsim_telemetry::attribution`;
//! - the flight recorder's [`UtilSeries`] — per-link utilization samples
//!   become counter tracks (cat `fabric_util`, Chrome `ph: "C"`), one per
//!   link direction that ever carried traffic;
//! - the metrics registries — per-op duration histograms recorded by the
//!   runtime, joined here by per-link byte/busy/utilization counters and
//!   fault statistics.

use crate::fault::FaultStats;
use crate::trace::TraceEvent;
use ifsim_des::Time;
use ifsim_fabric::{FlowEventKind, FlowLog, LinkLoad, SegmentMap, UtilSeries};
use ifsim_telemetry::attribution::{ATTR_BOUND_NS, ATTR_FLOWS, ATTR_TOTAL_NS};
use ifsim_telemetry::{MetricKey, MetricsRegistry, SimTelemetry, TimelineEvent};
use std::collections::BTreeMap;

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

/// Assemble the unified snapshot from the runtime's raw sources.
#[allow(clippy::too_many_arguments)]
pub fn build_sim_telemetry(
    trace_events: &[TraceEvent],
    flow_log: &FlowLog,
    link_loads: &[LinkLoad],
    peak_active_flows: usize,
    recomputes: u64,
    fault_stats: &FaultStats,
    op_metrics: &MetricsRegistry,
    util_series: Option<&UtilSeries>,
    segmap: Option<&SegmentMap>,
) -> SimTelemetry {
    let seg_label = |seg: ifsim_fabric::SegId| -> String {
        match segmap {
            Some(m) if seg.idx() < m.len() => m.label(seg).to_string(),
            _ => format!("seg{}", seg.idx()),
        }
    };
    let mut events: Vec<TimelineEvent> = Vec::new();
    let mut threads: Vec<(u32, String)> = Vec::new();
    let mut seen_lanes: BTreeMap<u32, ()> = BTreeMap::new();

    // --- hip ops and fault markers, from the trace -----------------------
    for ev in trace_events {
        let tid = ev.stream.0 as u32;
        if ev.label.starts_with("!fault: ") {
            events.push(
                TimelineEvent::instant(ev.start, ev.label.clone(), "fault").on_tid(FAULT_LANE),
            );
            if seen_lanes.insert(FAULT_LANE, ()).is_none() {
                threads.push((FAULT_LANE, "faults".to_string()));
            }
            continue;
        }
        events.push(
            TimelineEvent::span(ev.start, ev.end, ev.label.clone(), "hip_op")
                .on_tid(tid)
                .with_arg("dev", ev.dev.idx().to_string()),
        );
        if seen_lanes.insert(tid, ()).is_none() {
            threads.push((tid, format!("dev{}/{:?}", ev.dev.idx(), ev.stream)));
        }
    }

    // --- fabric flow lifecycle, paired into spans ------------------------
    struct Open {
        at: ifsim_des::Time,
        payload_bytes: f64,
        route: String,
    }
    let mut open: BTreeMap<u64, Open> = BTreeMap::new();
    let mut flow_durations: Vec<f64> = Vec::new();
    // Attribution accumulators, folded into the registry below.
    let mut attr_flows = 0u64;
    let mut attr_total_ns = 0.0;
    let mut attr_cap_ns = 0.0;
    let mut attr_seg_ns: BTreeMap<String, f64> = BTreeMap::new();
    for ev in flow_log.events() {
        match &ev.kind {
            FlowEventKind::Created {
                payload_bytes,
                route,
            } => {
                open.insert(
                    ev.flow.0,
                    Open {
                        at: ev.at,
                        payload_bytes: *payload_bytes,
                        route: route.clone(),
                    },
                );
            }
            FlowEventKind::Completed { .. } | FlowEventKind::Aborted { .. } => {
                let (delivered_bytes, attribution) = match &ev.kind {
                    FlowEventKind::Completed {
                        delivered_bytes,
                        attribution,
                    } => (*delivered_bytes, attribution.as_ref()),
                    FlowEventKind::Aborted { delivered_bytes } => (*delivered_bytes, None),
                    _ => unreachable!("outer match narrowed the kind"),
                };
                let outcome = ev.kind.tag();
                // Fold the lifetime's binding-constraint split into the
                // fabric_attr_* counters, and name what bound this flow
                // longest on its span for Perfetto inspection.
                let mut bound_by = None;
                if let Some(a) = attribution {
                    attr_flows += 1;
                    attr_total_ns += a.total_ns;
                    attr_cap_ns += a.cap_bound_ns;
                    for &(seg, ns) in &a.segments {
                        *attr_seg_ns.entry(seg_label(seg)).or_insert(0.0) += ns;
                    }
                    bound_by = Some(match a.dominant_segment() {
                        Some((seg, _)) => seg_label(seg),
                        None => "engine-cap".to_string(),
                    });
                }
                if let Some(o) = open.remove(&ev.flow.0) {
                    let tid = flow_lane(ev.flow.0);
                    let mut span = TimelineEvent::span(
                        o.at,
                        ev.at,
                        format!("flow#{} {}B [{outcome}]", ev.flow.0, o.payload_bytes),
                        "fabric_flow",
                    )
                    .on_tid(tid)
                    .with_arg("route", o.route)
                    .with_arg("payload_bytes", format!("{}", o.payload_bytes))
                    .with_arg("delivered_bytes", format!("{delivered_bytes}"))
                    .with_arg("outcome", outcome);
                    if let Some(b) = bound_by {
                        span = span.with_arg("bound_by", b);
                    }
                    events.push(span);
                    if seen_lanes.insert(tid, ()).is_none() {
                        threads.push((tid, format!("fabric flows %{}", tid - FLOW_LANE_BASE)));
                    }
                    if outcome == "completed" {
                        flow_durations.push((ev.at - o.at).as_ns());
                    }
                }
            }
            FlowEventKind::Rerouted { note } => {
                let tid = flow_lane(ev.flow.0);
                events.push(
                    TimelineEvent::instant(ev.at, format!("reroute: {note}"), "fabric_flow")
                        .on_tid(tid),
                );
                if seen_lanes.insert(tid, ()).is_none() {
                    threads.push((tid, format!("fabric flows %{}", tid - FLOW_LANE_BASE)));
                }
            }
        }
    }
    // Flows still in flight at snapshot time stay off the timeline (they
    // have no end), but their creation is not lost: the metrics below
    // count them via peak/active statistics.

    // --- flight recorder counter tracks ----------------------------------
    // One counter track per link direction that ever carried traffic;
    // all-zero columns would add 50+ flat tracks to every Perfetto view.
    if let Some(series) = util_series {
        let active: Vec<usize> = (0..series.labels.len())
            .filter(|&j| series.samples.iter().any(|s| s.util[j] > 0.0))
            .collect();
        for s in &series.samples {
            for &j in &active {
                events.push(TimelineEvent::counter(
                    Time::from_ns(s.ts_ns),
                    format!("fabric util {}", series.labels[j]),
                    "fabric_util",
                    s.util[j],
                ));
            }
        }
    }

    // --- metrics ---------------------------------------------------------
    let mut metrics = op_metrics.clone();
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
                        .with("segment", label.clone()),
                    *ns,
                );
            }
        }
    }
    if let Some(series) = util_series {
        metrics.gauge_set(
            MetricKey::new("fabric_recorder_samples"),
            series.samples.len() as f64,
        );
        // Always emitted, even at zero, so scrapes can tell "no drops"
        // from "recorder telemetry missing" (the serve /metrics plane
        // folds this into serve_fabric_recorder_dropped_samples_total).
        metrics.counter_add(
            MetricKey::new("fabric_recorder_dropped_samples"),
            series.dropped as f64,
        );
    }
    for l in link_loads {
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
        peak_active_flows as f64,
    );
    metrics.counter_add(MetricKey::new("fabric_rate_recomputes"), recomputes as f64);
    // Same value under its old name; the stack bench
    // (`crates/bench/examples/stack/layers.rs`) still reads it.
    metrics.counter_add(
        MetricKey::new("fabric_rate_recomputes_full"),
        recomputes as f64,
    );
    if fault_stats.faults_applied > 0 {
        metrics.counter_add(
            MetricKey::new("fault_events_applied"),
            fault_stats.faults_applied as f64,
        );
        metrics.counter_add(
            MetricKey::new("fault_aborted_flows"),
            fault_stats.aborted_flows as f64,
        );
        metrics.counter_add(MetricKey::new("fault_retries"), fault_stats.retries as f64);
        metrics.counter_add(
            MetricKey::new("fault_failed_ops"),
            fault_stats.failed_ops as f64,
        );
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
    use crate::stream::StreamId;
    use ifsim_des::Time;
    use ifsim_fabric::{FlowEvent, FlowId};

    fn trace_ev(stream: u64, start: f64, end: f64, label: &str) -> TraceEvent {
        TraceEvent {
            dev: DeviceId(0),
            stream: StreamId(stream),
            start: Time::from_ns(start),
            end: Time::from_ns(end),
            label: label.into(),
        }
    }

    #[test]
    fn trace_ops_become_spans_and_fault_markers_instants() {
        let evs = vec![
            trace_ev(0, 0.0, 100.0, "memcpy 64B"),
            trace_ev(0, 50.0, 50.0, "!fault: link down GCD0<->GCD2"),
        ];
        let t = build_sim_telemetry(
            &evs,
            &FlowLog::default(),
            &[],
            0,
            0,
            &FaultStats::default(),
            &MetricsRegistry::new(),
            None,
            None,
        );
        assert_eq!(t.events.len(), 2);
        let span = &t.events[0];
        assert_eq!(span.cat, "hip_op");
        assert_eq!(span.name, "memcpy 64B");
        let fault = &t.events[1];
        assert_eq!(fault.cat, "fault");
        assert_eq!(fault.tid, FAULT_LANE);
        assert!(t.threads.iter().any(|(tid, _)| *tid == FAULT_LANE));
    }

    #[test]
    fn flow_lifecycle_pairs_into_spans_with_route() {
        let mut log = FlowLog::default();
        log.enable();
        log.push(FlowEvent {
            at: Time::from_ns(10.0),
            flow: FlowId(3),
            kind: FlowEventKind::Created {
                payload_bytes: 256.0,
                route: "GCD0->GCD2".into(),
            },
        });
        log.push(FlowEvent {
            at: Time::from_ns(90.0),
            flow: FlowId(3),
            kind: FlowEventKind::Completed {
                delivered_bytes: 256.0,
                attribution: None,
            },
        });
        log.push(FlowEvent {
            at: Time::from_ns(95.0),
            flow: FlowId(3),
            kind: FlowEventKind::Rerouted {
                note: "retry 1".into(),
            },
        });
        let t = build_sim_telemetry(
            &[],
            &log,
            &[],
            1,
            2,
            &FaultStats::default(),
            &MetricsRegistry::new(),
            None,
            None,
        );
        let span = t
            .events
            .iter()
            .find(|e| matches!(e.kind, ifsim_telemetry::EventKind::Span { .. }))
            .expect("flow span");
        assert_eq!(span.cat, "fabric_flow");
        assert!(span.name.contains("flow#3"));
        assert!(span
            .args
            .iter()
            .any(|(k, v)| k == "route" && v == "GCD0->GCD2"));
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
        assert!((h.mean() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn link_loads_and_fault_stats_land_in_metrics() {
        use ifsim_fabric::Dir;
        use ifsim_topology::LinkId;
        let loads = vec![
            LinkLoad {
                link: LinkId(0),
                dir: Dir::Forward,
                label: "GCD0->GCD1".into(),
                xgmi: true,
                wire_bytes: 1e6,
                busy_ns: 5e3,
                utilization: 0.5,
            },
            LinkLoad {
                link: LinkId(1),
                dir: Dir::Forward,
                label: "idle".into(),
                xgmi: false,
                wire_bytes: 0.0,
                busy_ns: 0.0,
                utilization: 0.0,
            },
        ];
        let stats = FaultStats {
            faults_applied: 2,
            aborted_flows: 3,
            retries: 1,
            failed_ops: 0,
            ..Default::default()
        };
        let t = build_sim_telemetry(
            &[],
            &FlowLog::default(),
            &loads,
            7,
            42,
            &stats,
            &MetricsRegistry::new(),
            None,
            None,
        );
        let key = MetricKey::new("fabric_link_wire_bytes")
            .with("link", "GCD0->GCD1")
            .with("dir", "Forward")
            .with("xgmi", "1");
        assert_eq!(t.metrics.counter(&key), 1e6);
        // Idle links are omitted, not zero-filled.
        assert!(t
            .metrics
            .counters()
            .all(|(k, _)| !k.labels().iter().any(|(_, v)| v == "idle")));
        assert_eq!(
            t.metrics
                .gauge(&MetricKey::new("fabric_peak_concurrent_flows")),
            Some(7.0)
        );
        assert_eq!(
            t.metrics.counter(&MetricKey::new("fault_events_applied")),
            2.0
        );
    }

    #[test]
    fn attributions_fold_into_fabric_attr_counters_and_span_args() {
        use ifsim_fabric::{BottleneckAttribution, SegId};
        let mut log = FlowLog::default();
        log.enable();
        log.push(FlowEvent {
            at: Time::from_ns(0.0),
            flow: FlowId(1),
            kind: FlowEventKind::Created {
                payload_bytes: 64.0,
                route: "GCD0->GCD1".into(),
            },
        });
        log.push(FlowEvent {
            at: Time::from_ns(100.0),
            flow: FlowId(1),
            kind: FlowEventKind::Completed {
                delivered_bytes: 64.0,
                attribution: Some(BottleneckAttribution {
                    total_ns: 100.0,
                    cap_bound_ns: 30.0,
                    segments: vec![(SegId(4), 70.0)],
                }),
            },
        });
        let t = build_sim_telemetry(
            &[],
            &log,
            &[],
            1,
            1,
            &FaultStats::default(),
            &MetricsRegistry::new(),
            None,
            None,
        );
        assert_eq!(t.metrics.counter(&MetricKey::new(ATTR_FLOWS)), 1.0);
        assert_eq!(t.metrics.counter(&MetricKey::new(ATTR_TOTAL_NS)), 100.0);
        assert_eq!(
            t.metrics
                .counter(&MetricKey::new(ATTR_BOUND_NS).with("cause", "engine-cap")),
            30.0
        );
        // No segmap supplied: segment 4 falls back to a positional label.
        assert_eq!(
            t.metrics.counter(
                &MetricKey::new(ATTR_BOUND_NS)
                    .with("cause", "link")
                    .with("segment", "seg4")
            ),
            70.0
        );
        let span = t
            .events
            .iter()
            .find(|e| e.cat == "fabric_flow")
            .expect("flow span");
        assert!(
            span.args
                .iter()
                .any(|(k, v)| k == "bound_by" && v == "seg4"),
            "{:?}",
            span.args
        );
    }

    #[test]
    fn util_series_becomes_counter_tracks_for_active_links_only() {
        use ifsim_fabric::{UtilSample, UtilSeries};
        let series = UtilSeries {
            labels: vec!["GCD0->GCD1".into(), "GCD1->GCD0".into()],
            samples: vec![
                UtilSample {
                    ts_ns: 0.0,
                    util: vec![0.8, 0.0],
                },
                UtilSample {
                    ts_ns: 50.0,
                    util: vec![0.0, 0.0],
                },
            ],
            dropped: 3,
        };
        let t = build_sim_telemetry(
            &[],
            &FlowLog::default(),
            &[],
            0,
            0,
            &FaultStats::default(),
            &MetricsRegistry::new(),
            Some(&series),
            None,
        );
        let counters: Vec<_> = t
            .events
            .iter()
            .filter(|e| matches!(e.kind, ifsim_telemetry::EventKind::Counter { .. }))
            .collect();
        // Only the link that ever carried traffic gets a track — both its
        // samples, including the trailing zero.
        assert_eq!(counters.len(), 2);
        assert!(counters
            .iter()
            .all(|e| e.name == "fabric util GCD0->GCD1" && e.cat == "fabric_util"));
        assert_eq!(
            t.metrics.gauge(&MetricKey::new("fabric_recorder_samples")),
            Some(2.0)
        );
        assert_eq!(
            t.metrics
                .counter(&MetricKey::new("fabric_recorder_dropped_samples")),
            3.0
        );
    }
}
