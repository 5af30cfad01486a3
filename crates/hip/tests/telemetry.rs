//! Integration tests for the unified telemetry layer: collector capture,
//! deterministic timeline merging, and Chrome trace-event export.

use ifsim_hip::{EnvConfig, FaultKind, FaultPlan, GcdId, HipSim, MemcpyKind};
use ifsim_telemetry::critpath::NodeCategory;
use ifsim_telemetry::{json, CollectedTelemetry, Collector, EventKind, MetricKey};
use std::collections::BTreeMap;

const MIB: u64 = 1 << 20;

/// Drive two streams on different devices plus a mid-flight link fault, the
/// whole run observed by an installed collector.
fn faulted_two_stream_run() -> CollectedTelemetry {
    faulted_two_stream_run_under(Collector::install())
}

/// As [`faulted_two_stream_run`], observed by `collector`.
fn faulted_two_stream_run_under(collector: Collector) -> CollectedTelemetry {
    {
        let mut hip = HipSim::new(EnvConfig::default());
        assert!(
            hip.telemetry_enabled(),
            "runtime must self-observe under an installed collector"
        );
        hip.enable_all_peer_access().unwrap();
        hip.set_fault_plan(FaultPlan::new().at(
            ifsim_des::Time::ZERO + ifsim_des::Dur::from_ms(5.0),
            FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(2),
            },
        ))
        .unwrap();
        // Stream A: a 1 GiB peer copy whose route dies mid-flight (reroute
        // + retry). Stream B: an independent host<->device copy.
        hip.set_device(0).unwrap();
        let src = hip.malloc(1 << 30).unwrap();
        let host = hip.host_malloc(16 * MIB, Default::default()).unwrap();
        hip.set_device(2).unwrap();
        let dst = hip.malloc(1 << 30).unwrap();
        hip.memcpy_peer(dst, 2, src, 0, 1 << 30).unwrap();
        hip.set_device(0).unwrap();
        let dev = hip.malloc(16 * MIB).unwrap();
        hip.memcpy(dev, 0, host, 0, 16 * MIB, MemcpyKind::HostToDevice)
            .unwrap();
        hip.device_synchronize().unwrap();
        // `hip` dropped here: Drop flushes the snapshot to the collector.
    }
    collector.take()
}

#[test]
fn collector_captures_ops_flows_and_fault_markers() {
    let t = faulted_two_stream_run();
    assert!(!t.is_empty());
    let events = t.events();
    assert!(
        events.iter().any(|e| e.cat == "hip_op"),
        "hip ops on the timeline"
    );
    assert!(
        events
            .iter()
            .any(|e| e.cat == "fault" && e.name.contains("link down")),
        "fault marker on the timeline"
    );
    assert!(
        events.iter().any(|e| e.cat == "fabric_flow"),
        "fabric flow spans on the timeline"
    );
    assert!(
        events
            .iter()
            .any(|e| e.cat == "fabric_flow" && e.name.starts_with("reroute:")),
        "the fault's retry surfaces as a reroute instant"
    );
    // Metrics: per-link byte counters and op-duration histograms with tails.
    let m = t.metrics();
    assert!(
        m.counters()
            .any(|(k, v)| k.name() == "fabric_link_wire_bytes" && v > 0.0),
        "per-link byte counters present"
    );
    let hist = m
        .histogram(
            &MetricKey::new("hip_op_duration_ns")
                .with("op", "memcpy_peer")
                .with("dev", "2"),
        )
        .expect("memcpy_peer duration histogram");
    assert!(hist.count() >= 1);
    assert!(hist.p95() >= hist.p50());
    assert!(hist.p99() <= hist.max());
    assert!(m.counter(&MetricKey::new("fault_events_applied")) >= 1.0);
}

#[test]
fn merged_timeline_interleaves_streams_deterministically() {
    // Two identical runs must produce identical merged timelines: same
    // event order, names, lanes, timestamps.
    let a = faulted_two_stream_run();
    let b = faulted_two_stream_run();
    let key = |t: &ifsim_telemetry::CollectedTelemetry| {
        t.events()
            .iter()
            .map(|e| (e.name.clone(), e.cat, e.pid, e.tid, e.ts_ns))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
    // The merge is genuinely time-ordered across sources...
    let evs = a.events();
    assert!(evs.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // ...and genuinely interleaved: a fault marker sits between hip ops.
    let cats: Vec<&str> = evs.iter().map(|e| e.cat).collect();
    let first_fault = cats.iter().position(|c| *c == "fault").unwrap();
    assert!(
        cats[..first_fault].contains(&"fabric_flow") || cats[..first_fault].contains(&"hip_op"),
        "work precedes the fault: {cats:?}"
    );
    assert!(
        cats[first_fault..].contains(&"hip_op"),
        "work follows the fault: {cats:?}"
    );
}

#[test]
fn chrome_export_round_trips_with_required_fields() {
    let t = faulted_two_stream_run();
    let text = t.chrome_trace_string();
    let v = json::from_str(&text).expect("exported trace is valid JSON");
    let events = v
        .get("traceEvents")
        .expect("traceEvents array")
        .as_array()
        .unwrap();
    assert!(!events.is_empty());
    let mut saw_span = false;
    let mut saw_instant = false;
    let mut saw_counter = false;
    for ev in events {
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(field).is_some(), "missing {field}: {ev:?}");
        }
        match ev.get("ph").unwrap().as_str().unwrap() {
            "X" => {
                saw_span = true;
                assert!(ev.get("dur").is_some(), "complete spans carry dur: {ev:?}");
            }
            "i" => saw_instant = true,
            "M" => assert!(
                ev.get("args").unwrap().get("name").is_some(),
                "metadata records name lanes"
            ),
            "C" => {
                saw_counter = true;
                assert!(
                    ev.get("args")
                        .unwrap()
                        .get("value")
                        .and_then(|v| v.as_f64())
                        .is_some(),
                    "counter tracks carry a numeric value: {ev:?}"
                );
                assert!(
                    ev.get("name")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .starts_with("fabric util "),
                    "counter tracks are the flight recorder's: {ev:?}"
                );
            }
            ph => panic!("unexpected phase {ph}"),
        }
    }
    assert!(saw_span && saw_instant);
    assert!(
        saw_counter,
        "flight recorder counter tracks present in the export"
    );
    // Timestamps are microseconds: the run lasts ~tens of ms, so the last
    // op must sit past 1000 µs but before 10^9 (which would mean ns).
    let max_ts = events
        .iter()
        .filter_map(|e| e.get("ts").and_then(|t| t.as_f64()))
        .fold(0.0f64, f64::max);
    assert!(
        (1_000.0..1e9).contains(&max_ts),
        "ts in µs, got max {max_ts}"
    );
}

#[test]
fn without_a_collector_telemetry_stays_off() {
    let mut hip = HipSim::new(EnvConfig::default());
    assert!(!hip.telemetry_enabled());
    hip.set_device(0).unwrap();
    let a = hip.malloc(MIB).unwrap();
    let b = hip.malloc(MIB).unwrap();
    hip.memcpy(b, 0, a, 0, MIB, MemcpyKind::DeviceToDevice)
        .unwrap();
    assert!(hip.trace().events().is_empty());
    assert!(hip.fabric().flow_log().events().is_empty());
}

#[test]
fn dag_flow_nodes_and_op_metrics_derive_from_the_two_records() {
    let t = faulted_two_stream_run_under(Collector::install_with_dag());
    let arg = |e: &ifsim_telemetry::TimelineEvent, key: &str| -> String {
        let (_, v) = e.args.iter().find(|(k, _)| k == key).expect("arg present");
        v.to_string()
    };
    // Every fabric flow span: (start, end, route, outcome), unmatched.
    let mut spans: Vec<(f64, f64, String, String)> = t
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_ns } if e.cat == "fabric_flow" => Some((
                e.ts_ns,
                e.ts_ns + dur_ns,
                arg(e, "route"),
                arg(e, "outcome"),
            )),
            _ => None,
        })
        .collect();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
    let dags = t.dags();
    assert_eq!(dags.len(), 1);
    let mut aborted = 0;
    for n in &dags[0].nodes {
        if !matches!(n.category, NodeCategory::Transfer | NodeCategory::Compute) {
            continue;
        }
        // A completed flow's node spans its flow span exactly; an aborted
        // flow's node stays zero-length at the span's start.
        let i = spans
            .iter()
            .position(|(start, end, route, outcome)| {
                *route == n.label
                    && close(*start, n.start_ns)
                    && match outcome.as_str() {
                        "completed" => close(*end, n.end_ns),
                        _ => n.end_ns == n.start_ns,
                    }
            })
            .unwrap_or_else(|| panic!("no flow span for DAG node {n:?} in {spans:?}"));
        if spans.swap_remove(i).3 == "aborted" {
            aborted += 1;
        }
    }
    assert!(aborted >= 1, "the link fault aborts a flow");
    assert!(spans.is_empty(), "flow spans without a DAG node: {spans:?}");

    // Each completed hip op span counts once in its kind's metrics.
    let mut spans_per_kind: BTreeMap<String, f64> = BTreeMap::new();
    for e in t.events().iter().filter(|e| e.cat == "hip_op") {
        if e.name.contains(" [aborted; ") || e.name.contains(" [failed: ") {
            continue;
        }
        let kind = e.name.split(' ').next().expect("named op").to_string();
        *spans_per_kind.entry(kind).or_insert(0.0) += 1.0;
    }
    assert!(spans_per_kind.contains_key("memcpy_peer"));
    let m = t.metrics();
    let completed: BTreeMap<String, f64> = m
        .counters()
        .filter(|(k, _)| k.name() == "hip_ops_completed")
        .map(|(k, v)| {
            let (_, op) = k
                .labels()
                .iter()
                .find(|(l, _)| l == "op")
                .expect("op label");
            (op.clone(), v)
        })
        .collect();
    assert_eq!(completed, spans_per_kind);
}

#[test]
fn nested_collectors_both_observe() {
    let outer = Collector::install();
    {
        let inner = Collector::install();
        {
            let mut hip = HipSim::new(EnvConfig::default());
            hip.set_device(0).unwrap();
            let a = hip.malloc(MIB).unwrap();
            let b = hip.malloc(MIB).unwrap();
            hip.memcpy(b, 0, a, 0, MIB, MemcpyKind::DeviceToDevice)
                .unwrap();
        }
        let t = inner.take();
        assert_eq!(t.sims(), 1);
        assert!(t.events().iter().any(|e| e.cat == "hip_op"));
    }
    let t = outer.take();
    assert_eq!(t.sims(), 1, "outer collector observed the same runtime");
    assert!(!t.is_empty());
}

#[test]
fn manual_snapshot_matches_flush_semantics() {
    let collector = Collector::install();
    let mut hip = HipSim::new(EnvConfig::default());
    hip.set_device(0).unwrap();
    let a = hip.malloc(MIB).unwrap();
    let b = hip.malloc(MIB).unwrap();
    hip.memcpy(b, 0, a, 0, MIB, MemcpyKind::DeviceToDevice)
        .unwrap();
    hip.flush_telemetry();
    drop(hip); // Drop must not double-contribute after an explicit flush.
    let t = collector.take();
    assert_eq!(t.sims(), 1);
    let spans = t
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Span { .. }))
        .count();
    assert!(spans >= 1);
}

#[test]
fn custom_op_labels_are_never_mistaken_for_fault_markers() {
    // A library op may carry any label, including one that reads like the
    // fault marker's text; it is still an op with a duration.
    let collector = Collector::install();
    {
        let mut hip = HipSim::new(EnvConfig::default());
        let stream = hip.default_stream(0).unwrap();
        let plan = ifsim_hip::plan::OpPlan {
            latency: ifsim_des::Dur::from_us(5.0),
            flows: Vec::new(),
            effects: Vec::new(),
        };
        hip.submit_plans([(stream, plan, "!fault: not a fault")])
            .unwrap();
        hip.stream_synchronize(stream).unwrap();
    }
    let t = collector.take();
    let events = t.events();
    let ev = events
        .iter()
        .find(|e| e.name == "!fault: not a fault")
        .expect("the op is on the timeline");
    assert_eq!(ev.cat, "hip_op");
    match ev.kind {
        EventKind::Span { dur_ns } => assert!((dur_ns - 5_000.0).abs() < 1e-6, "{dur_ns}"),
        ref other => panic!("expected a span, got {other:?}"),
    }
    assert!(
        events.iter().all(|e| e.cat != "fault"),
        "no fault was injected"
    );
}
