//! The bridge against its `String` oracle: over random flow logs and op
//! traces, and over runtimes replaying the golden scenario files under DAG
//! capture, both build the same graph and every artifact byte for byte.

use super::oracle;
use crate::dag::DagBuilder;
use crate::device::DeviceId;
use crate::fault::FaultStats;
use crate::op::OpLabel;
use crate::stream::StreamId;
use crate::trace::{TraceEvent, TraceKind};
use crate::{EnvConfig, HipError, HipSim, HostAllocFlags, KernelSpec, MemcpyKind};
use ifsim_des::{Dur, Time};
use ifsim_fabric::{
    Calibration, FaultKind, FlowEvent, FlowEventKind, FlowNet, FlowSpec, SegmentMap,
};
use ifsim_scenario::{Scenario, TraceOp, TraceRecord, Workload};
use ifsim_telemetry::critpath::{self, DepGraph};
use ifsim_telemetry::{
    attribution_json, critpath_json, json, timeseries_csv, CollectedTelemetry, Collector,
    EventKind, SimTelemetry,
};
use ifsim_topology::{GcdId, NodeTopology, RoutePolicy, Router};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every artifact a captured run exports, by name.
fn artifacts(snap: SimTelemetry) -> Vec<(&'static str, String)> {
    let mut t = CollectedTelemetry::new();
    t.ingest(snap);
    // As `repro` merges a run's collection before it writes anything.
    let mut merged = CollectedTelemetry::new();
    merged.absorb(t);
    let report = critpath::report(merged.dags(), 10);
    vec![
        ("chrome trace", merged.chrome_trace_string()),
        ("metrics", merged.metrics_json_string()),
        ("timeseries", timeseries_csv(&merged)),
        (
            "attribution",
            json::to_string_pretty(&attribution_json(&merged)),
        ),
        ("critpath", json::to_string_pretty(&critpath_json(&report))),
    ]
}

/// The graph as comparable rows, floats by their bits.
fn graph_rows(g: &DepGraph) -> Vec<String> {
    let nodes = g.nodes.iter().map(|n| {
        let (s, e) = (n.start_ns.to_bits(), n.end_ns.to_bits());
        format!("{:?} {s} {e} {}", n.label, n.category.as_str())
    });
    nodes
        .chain(g.edges.iter().map(|e| format!("{e:?}")))
        .collect()
}

/// `new` and `old` hold the same graph and export the same bytes.
fn assert_same_capture(what: &str, new: SimTelemetry, old: SimTelemetry) {
    assert_eq!(
        new.dag.as_ref().map(graph_rows),
        old.dag.as_ref().map(graph_rows),
        "{what}: DAG"
    );
    assert_eq!(new.events, old.events, "{what}: timeline");
    assert_eq!(new.threads, old.threads, "{what}: lanes");
    for ((name, a), (_, b)) in artifacts(new).into_iter().zip(artifacts(old)) {
        if a != b {
            let line = a.lines().zip(b.lines()).position(|(x, y)| x != y);
            panic!("{what}: {name} differs from the oracle (first at line {line:?})");
        }
    }
}

/// Both bridges over the same records.
fn both(
    trace: &[TraceEvent],
    net: &FlowNet,
    faults: &FaultStats,
    dag: Option<DagBuilder>,
) -> (SimTelemetry, SimTelemetry) {
    (
        super::capture(trace, net, faults, dag.clone()),
        oracle::capture(trace, net, faults, dag),
    )
}

/// The segments of a peer copy from GCD `a` to GCD `b` (an HBM read when
/// `a == b`).
fn copy_segs(net: &FlowNet, router: &Router, a: u8, b: u8) -> Vec<ifsim_fabric::SegId> {
    let topo = NodeTopology::frontier();
    let mut segs = if a == b {
        Vec::new()
    } else {
        let path = router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
        net.segmap().path_segments(&topo, path, false)
    };
    segs.push(net.segmap().hbm_seg(GcdId(a)));
    if a != b {
        segs.push(net.segmap().hbm_seg(GcdId(b)));
    }
    segs
}

/// One random step: what happens (`kind`), between which GCDs, how big.
type Step = (u8, u8, u8, u16);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0..8u8, 0..8u8, 0..8u8, 0..2000u16), 1..80)
}

/// An op whose flows are in the net, as the DAG and the trace see it.
struct OpenOp {
    stream: StreamId,
    dev: DeviceId,
    start: Time,
    label: OpLabel,
}

/// Drive a captured net, an op trace and a DAG builder through `tape`:
/// copies admitted, completed and cancelled, reroute notes, flow-less ops,
/// aborted and failed attempts, fault markers and host barriers. Some flows
/// are left in flight.
fn run_tape(tape: &[Step]) -> (Vec<TraceEvent>, FlowNet, DagBuilder) {
    let topo = NodeTopology::frontier();
    let router = Router::new(&topo);
    let mut net = FlowNet::new(SegmentMap::new(&topo));
    net.enable_capture();
    let mut trace = Vec::new();
    let mut dag = DagBuilder::new();
    let mut open: BTreeMap<u64, OpenOp> = BTreeMap::new();
    let mut created: Vec<u64> = Vec::new();
    for &(kind, a, b, size) in tape {
        let now = net.now();
        let stream = StreamId(u64::from(b % 4));
        let dev = DeviceId(usize::from(a));
        match kind {
            0 | 1 => {
                // Byte counts repeat across flows, and some are fractional.
                let bytes = f64::from(size % 16 + 1) * if kind == 0 { 4096.0 } else { 1.5 };
                let spec = FlowSpec::new(copy_segs(&net, &router, a, b), bytes, 1.0);
                let fid = net.add_flow(now, spec);
                let label = OpLabel::MemcpyPeer {
                    bytes: bytes as u64,
                };
                dag.op_flows_admitted(stream, now, now, &label, &[fid]);
                created.push(fid.0);
                let start = now;
                open.insert(
                    fid.0,
                    OpenOp {
                        stream,
                        dev,
                        start,
                        label,
                    },
                );
            }
            2 => {
                if let Some((end, fid)) = net.complete_next() {
                    let op = open.remove(&fid.0).expect("an open op per flow");
                    dag.op_finished(op.stream, op.start, end, &op.label, None);
                    trace.push(TraceEvent {
                        dev: op.dev,
                        stream: op.stream,
                        start: op.start,
                        end,
                        kind: TraceKind::Done(op.label),
                    });
                }
            }
            3 => {
                let Some(&fid) = open.keys().nth(usize::from(size) % open.len().max(1)) else {
                    continue;
                };
                net.cancel(ifsim_fabric::FlowId(fid));
                let op = open.remove(&fid).expect("open");
                trace.push(TraceEvent {
                    dev: op.dev,
                    stream: op.stream,
                    start: op.start,
                    end: net.now(),
                    kind: TraceKind::Aborted {
                        op: op.label,
                        retry: u32::from(size % 3),
                    },
                });
            }
            4 => {
                let Some(&fid) = created.get(usize::from(size) % created.len().max(1)) else {
                    continue;
                };
                net.flow_log_mut().push_with(|| FlowEvent {
                    at: now,
                    flow: ifsim_fabric::FlowId(fid),
                    kind: FlowEventKind::Rerouted {
                        note: format!("retry {} via GCD{a}", size % 4),
                    },
                });
            }
            5 => {
                let end = now + Dur::from_ns(f64::from(size) + 0.25);
                let label = match size % 4 {
                    0 => OpLabel::Kernel {
                        name: "stream_copy",
                    },
                    1 => OpLabel::Memset {
                        len: u64::from(size),
                    },
                    2 => OpLabel::EventRecord,
                    _ => OpLabel::Memcpy { bytes: 64 },
                };
                dag.op_finished(
                    stream,
                    now,
                    end,
                    &label,
                    (size % 2 == 0).then_some(u64::from(a)),
                );
                trace.push(TraceEvent {
                    dev,
                    stream,
                    start: now,
                    end,
                    kind: TraceKind::Done(label),
                });
            }
            6 => {
                // Up to the next completion at most: the net never skips one.
                let mut to = now + Dur::from_ns(f64::from(size) * 3.0);
                if let Some((next, _)) = net.peek_completion() {
                    to = to.min(next);
                }
                net.advance_to(to.max(now));
                dag.host_barrier();
                dag.wait_satisfied(stream, u64::from(b));
            }
            _ => {
                let kind = if size % 2 == 0 {
                    TraceKind::Fault(FaultKind::LinkDown {
                        a: GcdId(a),
                        b: GcdId(b),
                    })
                } else {
                    TraceKind::Failed {
                        op: OpLabel::MemcpyPeer {
                            bytes: u64::from(size),
                        },
                        err: HipError::InvalidValue(format!("step {size}")),
                    }
                };
                trace.push(TraceEvent {
                    dev,
                    stream,
                    start: now,
                    end: now,
                    kind,
                });
            }
        }
    }
    (trace, net, dag)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bridge_matches_the_string_oracle_on_random_logs(tape in steps()) {
        let (trace, net, dag) = run_tape(&tape);
        let faults = FaultStats {
            faults_applied: u64::from(tape.len().is_multiple_of(3)),
            ..Default::default()
        };
        let (new, old) = both(&trace, &net, &faults, Some(dag));
        assert_same_capture("random tape", new, old);
        // The public snapshot (no DAG) takes the same path.
        let (new, old) = both(&trace, &net, &faults, None);
        assert_same_capture("random tape, no DAG", new, old);
    }
}

/// The golden scenario records expanded at every sweep point (none for a
/// registry delegate, which runs a registry experiment instead).
fn sweep_records(s: &Scenario) -> Vec<Vec<TraceRecord>> {
    let spec = match &s.workload {
        Workload::Registry { .. } => return Vec::new(),
        Workload::Trace { records } => return vec![records.clone()],
        Workload::Generator(g) => g,
    };
    let mut points = vec![spec.clone()];
    for axis in &s.sweep {
        points = points
            .into_iter()
            .flat_map(|p| {
                axis.values.iter().map(move |&v| {
                    let mut p = p.clone();
                    p.set_param(&axis.param, v).expect("validated sweep");
                    p
                })
            })
            .collect();
    }
    points
        .iter()
        .map(ifsim_scenario::generators::expand)
        .collect()
}

/// Replay `records` as the scenario runner does: one stream and buffer
/// pair per GCD, records issued in canonical order, cross-stream
/// dependencies as event waits.
fn replay(hip: &mut HipSim, records: &[TraceRecord]) {
    let order = ifsim_scenario::trace::canonical_order(records, 8).expect("valid records");
    hip.enable_all_peer_access().expect("peer access");
    let mut need: BTreeMap<u8, u64> = BTreeMap::new();
    for r in records {
        let gcds = match r.op {
            TraceOp::Copy { src, dst, .. } => vec![src, dst],
            TraceOp::H2D { dst, .. } => vec![dst],
            TraceOp::D2H { src, .. } => vec![src],
            TraceOp::Kernel { gcd, .. } => vec![gcd],
        };
        for g in gcds {
            let e = need.entry(g).or_insert(8);
            *e = (*e).max(r.op.bytes().max(8));
        }
    }
    let host_bytes = records.iter().map(|r| r.op.bytes()).max().unwrap_or(8);
    let host = hip
        .host_malloc(host_bytes.max(8), HostAllocFlags::non_coherent())
        .expect("host buffer");
    let mut slots = BTreeMap::new();
    for (&gcd, &bytes) in &need {
        hip.set_device(usize::from(gcd)).expect("device");
        let stream = hip.stream_create().expect("stream");
        let bufs = (hip.malloc(bytes).expect("a"), hip.malloc(bytes).expect("b"));
        slots.insert(gcd, (stream, bufs));
    }
    let index: BTreeMap<&str, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let mut consumed = vec![false; records.len()];
    for r in records {
        for dep in &r.depends_on {
            let d = index[dep.as_str()];
            consumed[d] |= records[d].op.issuing_gcd() != r.op.issuing_gcd();
        }
    }
    let mut events = vec![None; records.len()];
    for i in order {
        let r = &records[i];
        let gcd = r.op.issuing_gcd();
        let (stream, (a, b)) = slots[&gcd];
        for dep in &r.depends_on {
            let d = index[dep.as_str()];
            if records[d].op.issuing_gcd() != gcd {
                let ev = events[d].expect("the producer recorded its event");
                hip.stream_wait_event(stream, ev).expect("wait");
            }
        }
        match r.op {
            TraceOp::Copy { src, dst, bytes } => {
                let db = slots[&dst].1 .0;
                hip.memcpy_peer_async(db, usize::from(dst), a, usize::from(src), bytes, stream)
            }
            TraceOp::H2D { bytes, .. } => {
                hip.memcpy_async(a, 0, host, 0, bytes, MemcpyKind::HostToDevice, stream)
            }
            TraceOp::D2H { bytes, .. } => {
                hip.memcpy_async(host, 0, a, 0, bytes, MemcpyKind::DeviceToHost, stream)
            }
            TraceOp::Kernel { bytes, .. } => hip.launch_kernel_on(
                KernelSpec::StreamCopy {
                    src: a,
                    dst: b,
                    elems: (bytes / 8).max(1) as usize,
                },
                stream,
            ),
        }
        .expect("record issues");
        if consumed[i] {
            let ev = hip.event_create();
            hip.event_record(ev, stream).expect("record");
            events[i] = Some(ev);
        }
    }
    hip.synchronize_all().expect("drain");
}

#[test]
fn bridge_matches_the_string_oracle_on_the_golden_scenarios() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../golden/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("golden scenarios")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut replayed = 0;
    let (mut aborted, mut rerouted) = (0, 0);
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable");
        let s = Scenario::from_str(&text).expect("a golden scenario parses");
        for (point, records) in sweep_records(&s).iter().enumerate() {
            // As written, then with GCD0<->GCD1 going down halfway through
            // the first flow the first run sent over it, which aborts that
            // flow and reroutes its retry.
            let mut plan = s.fault_plan();
            for variant in ["as written", "link down"] {
                let what = format!("{} point {point}, {variant}", s.name);
                let collector = Collector::install_with_dag();
                let mut hip = HipSim::with_config(
                    NodeTopology::frontier(),
                    Calibration::default(),
                    EnvConfig::default(),
                    7,
                );
                hip.mem_mut().set_phantom_threshold(0);
                hip.set_fault_plan(plan.clone()).expect("fault plan");
                replay(&mut hip, records);
                let (new, old) = hip.snapshot_and_oracle();
                drop(hip);
                assert!(
                    collector.take().is_empty(),
                    "{what}: contributed nothing else"
                );
                assert!(
                    new.dag.as_ref().is_some_and(|g| !g.is_empty()),
                    "{what}: DAG"
                );
                let over_link = new.events.iter().find_map(|e| match e.kind {
                    EventKind::Span { dur_ns } if e.name.starts_with("flow#") => {
                        let (_, route) = e.args.iter().find(|(k, _)| k == "route")?;
                        route
                            .starts_with("GCD0->GCD1 ")
                            .then_some(e.ts_ns + dur_ns / 2.0)
                    }
                    _ => None,
                });
                if let Some(mid) = over_link {
                    let down = FaultKind::LinkDown {
                        a: GcdId(0),
                        b: GcdId(1),
                    };
                    plan = s.fault_plan().at(Time::from_ns(mid), down);
                }
                aborted += new
                    .events
                    .iter()
                    .filter(|e| e.name.ends_with("[aborted]"))
                    .count();
                rerouted += new
                    .events
                    .iter()
                    .filter(|e| e.name.starts_with("reroute"))
                    .count();
                assert_same_capture(&what, new, old);
                replayed += 1;
            }
        }
    }
    assert!(
        aborted > 0 && rerouted > 0,
        "{aborted} aborted flows, {rerouted} reroutes"
    );
    // halo-faulted (two sweep points, lane loss mid-run) and moe-alltoall;
    // the registry delegates run registry experiments, pinned by the
    // golden capture tests at the workspace root.
    assert!(replayed >= 6, "replayed {replayed} runs of {files:?}");
}
