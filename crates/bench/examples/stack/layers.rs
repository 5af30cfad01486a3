//! Per-layer measurements for the traced run: isolated unit costs at the
//! shapes the workloads produce, the program's own telemetry counts, and
//! the ledger that charges each workload's op time to layers.

use crate::spans::Spans;
use crate::stats::median;
use ifsim_core::coll::{Collective, RcclComm};
use ifsim_core::des::{EventQueue, Rng, Time};
use ifsim_core::fabric::{FlowNet, FlowSpec, SegId, SegmentMap};
use ifsim_core::hip::{EnvConfig, HipSim, KernelSpec};
use ifsim_core::microbench::osu::collective_buffers;
use ifsim_core::telemetry::{CollectedTelemetry, Collector, EventKind};
use ifsim_core::topology::{GcdId, NodeTopology, RoutePolicy, Router};
use ifsim_core::{BenchConfig, Experiment};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Per-layer metric values by name.
pub type Layer = BTreeMap<String, f64>;

/// Timed iterations of each unit-cost microbench, after one untimed call.
const UNIT_ITERS: usize = 200;

/// Seconds the fabric replay may take at most, over all its iterations
/// at one threshold; a replay of thousands of flows takes milliseconds.
const REPLAY_BUDGET_S: f64 = 0.1;

/// Median seconds of `f` over `iters` spans, after one untimed call.
fn timed_median(
    spans: &mut Spans,
    parent: u64,
    name: &'static str,
    iters: usize,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let samples: Vec<f64> = (0..iters)
        .map(|_| spans.span(parent, name, |_, _| f()).1)
        .collect();
    median(&samples)
}

/// Median seconds of `f` over [`UNIT_ITERS`] spans, after one untimed call.
fn unit_median(spans: &mut Spans, parent: u64, name: &'static str, f: impl FnMut()) -> f64 {
    timed_median(spans, parent, name, UNIT_ITERS, f)
}

/// The unit costs the ledger charges counts against.
pub struct UnitCosts {
    /// One `BenchConfig::runtime` construction, microseconds.
    pub sim_new_us: f64,
    /// One fair-share recompute, microseconds: the fabric replay divided
    /// by the recomputes it performs (0 when there was nothing to replay).
    pub recompute_us: f64,
}

/// The fabric flows a workload's runtimes moved, ready to replay into a
/// bare [`FlowNet`]: per runtime, each flow's start (simulated ns after
/// the runtime's first) and spec. The flow log records route and payload
/// but not efficiency or engine cap, so every flow is replayed at
/// efficiency 1 and uncapped.
#[derive(Default)]
pub struct Replay {
    runtimes: Vec<Vec<(f64, FlowSpec)>>,
}

impl Replay {
    /// Every runtime in `t` whose routes all resolve on `segmap` (a runtime
    /// on another topology does not).
    fn of(t: &CollectedTelemetry, segmap: &SegmentMap) -> Replay {
        let seg_of: BTreeMap<&str, SegId> = (0..segmap.len() as u32)
            .map(|i| (segmap.label(SegId(i)), SegId(i)))
            .collect();
        let mut runtimes: BTreeMap<u32, Option<Vec<(f64, FlowSpec)>>> = BTreeMap::new();
        for e in t.events().iter().filter(|e| e.cat == "fabric_flow") {
            if !matches!(e.kind, EventKind::Span { .. }) {
                continue;
            }
            let arg = |k: &str| e.args.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            let segs: Option<Vec<SegId>> =
                arg("route").and_then(|r| r.split(" + ").map(|l| seg_of.get(l).copied()).collect());
            let bytes = arg("payload_bytes").and_then(|b| b.parse::<f64>().ok());
            let flows = runtimes.entry(e.pid).or_insert_with(|| Some(Vec::new()));
            match (segs, bytes, flows.as_mut()) {
                (Some(segs), Some(bytes), Some(f)) if !segs.is_empty() && bytes > 0.0 => {
                    f.push((e.ts_ns, FlowSpec::new(segs, bytes, 1.0)));
                }
                _ => *flows = None,
            }
        }
        let runtimes = runtimes
            .into_values()
            .flatten()
            .map(|mut flows| {
                flows.sort_by(|a, b| a.0.total_cmp(&b.0));
                let t0 = flows[0].0;
                flows.into_iter().map(|(s, f)| (s - t0, f)).collect()
            })
            .collect();
        Replay { runtimes }
    }

    /// Flows in all runtimes.
    fn flows(&self) -> usize {
        self.runtimes.iter().map(Vec::len).sum()
    }

    /// Replay every runtime's flows into `net`, one runtime after another
    /// from the net's current time: admit the flows that start together
    /// as one batch, after completing every flow that ends by then; then
    /// drain. Returns the most flows in flight at once.
    fn run(&self, net: &mut FlowNet) -> usize {
        let mut peak = 0;
        for flows in &self.runtimes {
            let base = net.now().as_ns();
            let mut i = 0;
            while i < flows.len() {
                let start = flows[i].0;
                let n = flows[i..].iter().take_while(|f| f.0 == start).count();
                let at = Time::from_ns(base + start);
                while net.peek_completion().is_some_and(|(t, _)| t <= at) {
                    net.complete_next();
                }
                net.add_flows(
                    at.max(net.now()),
                    flows[i..i + n].iter().map(|f| f.1.clone()),
                );
                peak = peak.max(net.active());
                i += n;
            }
            while net.complete_next().is_some() {}
        }
        peak
    }
}

/// Run every unit-cost microbench, writing its row into `m`. `scenarios`
/// are `(row suffix, file text)` pairs for the parse/compile rows;
/// `replay` holds the fabric flows of one pass over the workload's units.
pub fn unit_costs(
    spans: &mut Spans,
    parent: u64,
    scenarios: &[(String, String)],
    replay: &Replay,
    m: &mut Layer,
) -> UnitCosts {
    let cfg = BenchConfig::quick();
    let topo = NodeTopology::frontier();

    // DES: the hold model at depth 64 — pop the earliest event, push one
    // later — as the runtime's event loop does.
    const HOLDS: usize = 1000;
    let mut rng = Rng::new(7);
    let mut q = EventQueue::new();
    for i in 0..64u32 {
        q.push(Time::from_ns(rng.uniform(0.0, 1e3)), i);
    }
    let s = unit_median(spans, parent, "des.push_pop", || {
        for _ in 0..HOLDS {
            let (t, e) = q.pop().expect("depth stays 64");
            q.push(
                Time::from_ns(t.as_ns() + rng.uniform(1.0, 1e3)),
                black_box(e),
            );
        }
    });
    m.insert("des.push_pop_ns".into(), s * 1e9 / HOLDS as f64);

    // Topology: router construction, and lookups of all 56 GCD pairs.
    let s = unit_median(spans, parent, "topology.router_new", || {
        black_box(Router::new(&topo));
    });
    m.insert("topology.router_new_us".into(), s * 1e6);
    let router = Router::new(&topo);
    const SWEEPS: usize = 20;
    let s = unit_median(spans, parent, "topology.route_lookup", || {
        for _ in 0..SWEEPS {
            for a in 0..8u8 {
                for b in (0..8u8).filter(|&b| b != a) {
                    black_box(router.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth));
                }
            }
        }
    });
    m.insert(
        "topology.route_lookup_ns".into(),
        s * 1e9 / (SWEEPS * 56) as f64,
    );

    // HIP: runtime construction as the microbench drivers do it, a
    // functional 1 MiB peer copy, and a kernel launch plus synchronize.
    let sim_new = unit_median(spans, parent, "hip.sim_new", || {
        black_box(cfg.runtime(EnvConfig::default()));
    });
    m.insert("hip.sim_new_us".into(), sim_new * 1e6);
    const MIB: u64 = 1 << 20;
    let mut hip = HipSim::new(EnvConfig::default());
    let src = hip.malloc(MIB).expect("malloc on device 0");
    hip.set_device(1).expect("device 1");
    let dst = hip.malloc(MIB).expect("malloc on device 1");
    let s = unit_median(spans, parent, "hip.memcpy_peer", || {
        hip.memcpy_peer(dst, 1, src, 0, MIB).expect("peer copy");
    });
    m.insert("hip.memcpy_peer_us".into(), s * 1e6);
    let mut hip = cfg.runtime(EnvConfig::default());
    let a = hip.malloc(MIB).expect("malloc");
    let b = hip.malloc(MIB).expect("malloc");
    let kernel = KernelSpec::StreamCopy {
        src: a,
        dst: b,
        elems: (MIB / 4) as usize,
    };
    let s = unit_median(spans, parent, "hip.kernel_sync", || {
        hip.launch_kernel(kernel.clone()).expect("launch");
        hip.device_synchronize().expect("synchronize");
    });
    m.insert("hip.kernel_sync_us".into(), s * 1e6);

    // Fabric: the flows of every runtime of one pass, replayed at the
    // default incremental threshold and pinned full.
    let mut recompute_us = 0.0;
    if replay.flows() > 0 {
        let mut net = FlowNet::new(SegmentMap::new(&topo));
        let t0 = std::time::Instant::now();
        let peak = replay.run(&mut net);
        let first = t0.elapsed().as_secs_f64();
        let (full, incremental) = (
            net.recomputes_full() as f64,
            net.recomputes_incremental() as f64,
        );
        let iters = ((REPLAY_BUDGET_S / first) as usize).clamp(5, UNIT_ITERS);
        let s = timed_median(spans, parent, "fabric.replay", iters, || {
            replay.run(&mut net);
        });
        recompute_us = s * 1e6 / (full + incremental).max(1.0);
        let mut pinned = FlowNet::new(SegmentMap::new(&topo));
        pinned.set_incremental_threshold(0.0);
        let s_full = timed_median(spans, parent, "fabric.replay_full", iters, || {
            replay.run(&mut pinned);
        });
        let rows = [
            ("fabric.replay_flows", replay.flows() as f64),
            ("fabric.replay_peak_flows", peak as f64),
            (
                "fabric.replay_incremental_share",
                ratio(incremental, full + incremental),
            ),
            ("fabric.replay_us", s * 1e6),
            ("fabric.replay_full_us", s_full * 1e6),
        ];
        for (name, v) in rows {
            m.insert(name.into(), v);
        }
    }

    // Collectives: communicator setup and a 1 MiB all-reduce on 8 ranks.
    let mut hip = cfg.runtime(EnvConfig::default());
    let s = unit_median(spans, parent, "coll.rccl_comm_new", || {
        black_box(RcclComm::new(&mut hip, (0..8).collect()).expect("communicator"));
    });
    m.insert("coll.rccl_comm_new_us".into(), s * 1e6);
    let comm = RcclComm::new(&mut hip, (0..8).collect()).expect("communicator");
    let elems = (MIB / 4) as usize;
    let bufs = collective_buffers(&mut hip, 8, elems);
    let s = unit_median(spans, parent, "coll.allreduce_8x1mib", || {
        comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
            .expect("all-reduce");
    });
    m.insert("coll.allreduce_8x1mib_us".into(), s * 1e6);

    // Scenario frontend: parse and compile each workload file.
    for (row, text) in scenarios {
        let s = unit_median(spans, parent, "scenario.parse", || {
            black_box(ifsim_scenario::Scenario::from_str(text).expect("valid scenario"));
        });
        m.insert(format!("scenario.parse_us.{row}"), s * 1e6);
        let parsed = ifsim_scenario::Scenario::from_str(text).expect("valid scenario");
        let s = unit_median(spans, parent, "scenario.compile", || {
            black_box(ifsim_scenario::compile(&parsed).expect("compiles"));
        });
        m.insert(format!("scenario.compile_us.{row}"), s * 1e6);
    }

    UnitCosts {
        sim_new_us: sim_new * 1e6,
        recompute_us,
    }
}

/// Work the program reports about itself through its telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Runtimes constructed.
    pub sims: f64,
    /// HIP ops completed.
    pub ops: f64,
    /// Fabric flows (completed or aborted).
    pub flows: f64,
    /// Whole-network fair-share solves.
    pub recomputes_full: f64,
    /// Dirty-subgraph fair-share solves.
    pub recomputes_incremental: f64,
    /// Most flows in flight at once in any one runtime.
    pub peak_flows: f64,
    /// Timeline events.
    pub events: f64,
    /// Dependency-DAG nodes.
    pub dag_nodes: f64,
}

impl Counts {
    /// Read the counts out of one collection.
    pub fn of(t: &CollectedTelemetry) -> Counts {
        let counter = |name: &str| -> f64 {
            t.metrics()
                .counters()
                .filter(|(k, _)| k.name() == name)
                .map(|(_, v)| v)
                .sum()
        };
        let events = t.events();
        // Peak concurrency per runtime, from its flow spans: +1 at each
        // start, -1 at each end, ends first on ties.
        let mut edges: BTreeMap<u32, Vec<(f64, i32)>> = BTreeMap::new();
        let mut flows = 0.0;
        for e in events.iter().filter(|e| e.cat == "fabric_flow") {
            if let EventKind::Span { dur_ns } = e.kind {
                flows += 1.0;
                let v = edges.entry(e.pid).or_default();
                v.push((e.ts_ns, 1));
                v.push((e.ts_ns + dur_ns, -1));
            }
        }
        let peak = edges
            .into_values()
            .map(|mut v| {
                v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                v.iter()
                    .scan(0i32, |n, &(_, d)| {
                        *n += d;
                        Some(*n)
                    })
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        Counts {
            sims: f64::from(t.sims()),
            ops: counter("hip_ops_completed"),
            flows,
            recomputes_full: counter("fabric_rate_recomputes_full"),
            recomputes_incremental: counter("fabric_rate_recomputes_incremental"),
            peak_flows: f64::from(peak),
            events: events.len() as f64,
            dag_nodes: t.dags().iter().map(|g| g.nodes.len() as f64).sum(),
        }
    }

    /// Add `other`'s work, scaled by `w`; peaks take the maximum.
    pub fn add(&mut self, other: &Counts, w: f64) {
        self.sims += w * other.sims;
        self.ops += w * other.ops;
        self.flows += w * other.flows;
        self.recomputes_full += w * other.recomputes_full;
        self.recomputes_incremental += w * other.recomputes_incremental;
        self.peak_flows = self.peak_flows.max(other.peak_flows);
        self.events += w * other.events;
        self.dag_nodes += w * other.dag_nodes;
    }
}

/// One unit of work run plain and under a DAG-capturing collector.
pub struct Probe {
    /// The plain run, seconds.
    pub plain_s: f64,
    /// The instrumented run, seconds.
    pub instr_s: f64,
    /// The unit's counts.
    pub counts: Counts,
}

/// Run each unit once plain and once instrumented, and read its counts
/// from the collection; the simulated schedule does not depend on whether
/// it is observed. Also returns the fabric flows of every unit, one unit
/// after another.
pub fn probe(
    spans: &mut Spans,
    parent: u64,
    units: &[&Experiment],
    cfg: &BenchConfig,
) -> (Vec<Probe>, Replay) {
    let segmap = SegmentMap::new(&NodeTopology::frontier());
    let mut replay = Replay::default();
    let probes = units
        .iter()
        .map(|e| {
            let plain_s = spans.span(parent, "probe.plain", |_, _| e.run(cfg)).1;
            let (t, instr_s) = spans.span(parent, "probe.instrumented", |_, _| {
                let c = Collector::install_with_dag();
                e.run(cfg);
                c.take()
            });
            replay.runtimes.extend(Replay::of(&t, &segmap).runtimes);
            Probe {
                plain_s,
                instr_s,
                counts: Counts::of(&t),
            }
        })
        .collect();
    (probes, replay)
}

/// Write the per-op counts, the telemetry cost factor, and the ledger.
/// `op_s` are the op times of the traced run; `counts` is the work of an
/// average op; `telemetry_s` the telemetry time in an average op.
pub fn ledger(
    m: &mut Layer,
    unit: &UnitCosts,
    op_s: &[f64],
    counts: &Counts,
    collect_x: f64,
    telemetry_s: f64,
) {
    let mean_s = op_s.iter().sum::<f64>() / op_s.len().max(1) as f64;
    let recomputes = counts.recomputes_full + counts.recomputes_incremental;
    let rows = [
        ("hip.sims_per_pass", counts.sims),
        ("hip.ops_per_pass", counts.ops),
        ("hip.host_ns_per_op", ratio(mean_s * 1e9, counts.ops)),
        ("fabric.flows_per_pass", counts.flows),
        ("fabric.recomputes_full_per_pass", counts.recomputes_full),
        (
            "fabric.recomputes_incremental_per_pass",
            counts.recomputes_incremental,
        ),
        (
            "fabric.incremental_share",
            ratio(counts.recomputes_incremental, recomputes),
        ),
        ("fabric.peak_concurrent_flows", counts.peak_flows),
        ("telemetry.collect_x", collect_x),
        ("telemetry.events_per_pass", counts.events),
        ("telemetry.dag_nodes_per_pass", counts.dag_nodes),
    ];
    for (name, v) in rows {
        m.insert(name.into(), v);
    }
    let construct = ratio(counts.sims * unit.sim_new_us, mean_s * 1e6);
    let fabric = ratio(recomputes * unit.recompute_us, mean_s * 1e6);
    let telemetry = ratio(telemetry_s, mean_s);
    m.insert("ledger.construct_share".into(), construct);
    m.insert("ledger.fabric_share".into(), fabric);
    m.insert("ledger.telemetry_share".into(), telemetry);
    m.insert(
        "ledger.unexplained_share".into(),
        1.0 - construct - fabric - telemetry,
    );
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
