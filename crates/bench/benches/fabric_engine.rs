//! Engine-rework benches: the reworked `FlowNet` (CSR arena, deferred
//! batched recompute, lazily-invalidated completion heap) against the
//! pre-rework engine preserved as `ReferenceNet`.
//!
//! Unlike the other bench targets this one writes a machine-readable
//! summary, `BENCH_fabric.json` at the workspace root (override with
//! `BENCH_FABRIC_OUT`), so CI and `telemetry-lint --bench` can check that
//! the rework's speedups don't regress. The headline number is the 64-flow
//! add/drain cycle — admit one round of flows, then drain every completion —
//! which exercises admission, recompute, and completion peeking together.
//! Every row runs at 64 flows, above the 15–16 concurrent flows per
//! runtime that the registry experiments and golden scenarios peak at.

use criterion::{BenchResult, Criterion};
use ifsim_core::des::Time;
use ifsim_core::fabric::reference::ReferenceNet;
use ifsim_core::fabric::{FlowNet, FlowSpec, SegmentMap};
use ifsim_core::telemetry::json::{self, Map, Value};
use ifsim_core::topology::{GcdId, LinkId, NodeTopology, RoutePolicy, Router};
use std::hint::black_box;
use std::path::PathBuf;

const FLOWS: usize = 64;

/// A fixed 64-flow round over the Frontier topology: every GCD pair class,
/// a mix of duplex-pool and plain routing, payloads spread over ~2 MiB.
fn round(topo: &NodeTopology) -> Vec<FlowSpec> {
    let router = Router::new(topo);
    let segmap = SegmentMap::new(topo);
    (0..FLOWS)
        .map(|i| {
            let src = (i % 8) as u8;
            let dst = (src + 1 + (i as u8 / 8) % 7) % 8;
            let p = router.gcd_route(GcdId(src), GcdId(dst), RoutePolicy::MaxBandwidth);
            let segs = segmap.path_segments(topo, p, i % 2 == 0);
            FlowSpec::new(segs, 1e6 + i as f64 * 6.4e4, 0.87)
        })
        .collect()
}

fn bench_add_drain_cycle(c: &mut Criterion, topo: &NodeTopology, specs: &[FlowSpec]) {
    let mut g = c.benchmark_group("add_drain_cycle");
    g.sample_size(150);
    // Both nets are built once and reused across iterations (a drain leaves
    // them empty), so the cycle times steady-state engine behavior rather
    // than `SegmentMap` construction.
    {
        let mut net = FlowNet::new(SegmentMap::new(topo));
        g.bench_function("engine/add_drain_cycle_64", |b| {
            b.iter(|| {
                let t = net.now();
                net.add_flows(t, specs.iter().cloned());
                while net.complete_next().is_some() {}
                black_box(net.recomputes())
            })
        });
    }
    {
        let mut net = ReferenceNet::new(SegmentMap::new(topo));
        g.bench_function("reference/add_drain_cycle_64", |b| {
            b.iter(|| {
                let t = net.now();
                for spec in specs {
                    net.add_flow(t, spec.clone());
                }
                while net.complete_next().is_some() {}
                black_box(net.recomputes())
            })
        });
    }
    g.finish();
}

fn bench_admission(c: &mut Criterion, topo: &NodeTopology, specs: &[FlowSpec]) {
    let mut g = c.benchmark_group("admission");
    g.sample_size(150);
    g.bench_function("engine/batched_admission_64", |b| {
        b.iter(|| {
            let mut net = FlowNet::new(SegmentMap::new(topo));
            let ids = net.add_flows(Time::ZERO, specs.iter().cloned());
            // One deferred recompute pays for the whole batch; force it so
            // admission cost includes the fair-share solve.
            black_box(net.rate_of(ids[0]).unwrap())
        })
    });
    g.bench_function("reference/serial_admission_64", |b| {
        b.iter(|| {
            let mut net = ReferenceNet::new(SegmentMap::new(topo));
            let mut first = None;
            for spec in specs {
                let id = net.add_flow(Time::ZERO, spec.clone());
                first.get_or_insert(id);
            }
            black_box(net.rate_of(first.unwrap()).unwrap())
        })
    });
    g.finish();
}

fn bench_recompute(c: &mut Criterion, topo: &NodeTopology, specs: &[FlowSpec]) {
    let mut g = c.benchmark_group("recompute");
    g.sample_size(300);
    {
        let mut net = FlowNet::new(SegmentMap::new(topo));
        let ids = net.add_flows(Time::ZERO, specs.iter().cloned());
        let probe = ids[0];
        g.bench_function("engine/steady_recompute_64", |b| {
            b.iter(|| {
                // Each capacity flip dirties the table; rate_of flushes,
                // so every iteration is exactly two full solver passes.
                net.set_link_factor(LinkId(0), 0.5);
                black_box(net.rate_of(probe).unwrap());
                net.set_link_factor(LinkId(0), 1.0);
                black_box(net.rate_of(probe).unwrap())
            })
        });
    }
    {
        let mut net = ReferenceNet::new(SegmentMap::new(topo));
        let mut probe = None;
        for spec in specs {
            let id = net.add_flow(Time::ZERO, spec.clone());
            probe.get_or_insert(id);
        }
        let probe = probe.unwrap();
        g.bench_function("reference/steady_recompute_64", |b| {
            b.iter(|| {
                net.set_link_factor(LinkId(0), 0.5);
                black_box(net.rate_of(probe).unwrap());
                net.set_link_factor(LinkId(0), 1.0);
                black_box(net.rate_of(probe).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_peek(c: &mut Criterion, topo: &NodeTopology, specs: &[FlowSpec]) {
    let mut g = c.benchmark_group("peek");
    g.sample_size(2000);
    {
        let mut net = FlowNet::new(SegmentMap::new(topo));
        net.add_flows(Time::ZERO, specs.iter().cloned());
        g.bench_function("engine/peek_completion_64", |b| {
            b.iter(|| black_box(net.peek_completion()))
        });
    }
    {
        let mut net = ReferenceNet::new(SegmentMap::new(topo));
        for spec in specs {
            net.add_flow(Time::ZERO, spec.clone());
        }
        g.bench_function("reference/peek_completion_64", |b| {
            b.iter(|| black_box(net.peek_completion()))
        });
    }
    g.finish();
}

fn min_of(results: &[BenchResult], id: &str) -> f64 {
    results
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("bench {id} did not run"))
        .min_ns
}

fn render_report(results: &[BenchResult]) -> String {
    let mut root = Map::new();
    root.insert("schema", Value::from("ifsim-bench-fabric-v2"));
    let rows: Vec<Value> = results
        .iter()
        .map(|r| {
            let mut row = Map::new();
            row.insert("id", Value::from(r.id.as_str()));
            row.insert("flows", Value::from(FLOWS));
            row.insert("mean_ns", Value::from(r.mean_ns));
            row.insert("min_ns", Value::from(r.min_ns));
            row.insert("iters", Value::from(r.iters));
            Value::from(row)
        })
        .collect();
    root.insert("results", Value::from(rows));
    // Speedups compare fastest iterations: both benches are deterministic,
    // so background load can only inflate a sample, and the per-iteration
    // minimum is the robust estimator of true cost on a shared machine.
    let mut speedups = Map::new();
    for (name, engine, reference) in [
        (
            "add_drain_cycle_64",
            "engine/add_drain_cycle_64",
            "reference/add_drain_cycle_64",
        ),
        (
            "admission_64",
            "engine/batched_admission_64",
            "reference/serial_admission_64",
        ),
        (
            "recompute_64",
            "engine/steady_recompute_64",
            "reference/steady_recompute_64",
        ),
        (
            "peek_completion_64",
            "engine/peek_completion_64",
            "reference/peek_completion_64",
        ),
    ] {
        speedups.insert(
            name,
            Value::from(min_of(results, reference) / min_of(results, engine)),
        );
    }
    root.insert("speedup", Value::from(speedups));
    json::to_string_pretty(&Value::from(root))
}

fn main() {
    let topo = NodeTopology::frontier();
    let specs = round(&topo);
    let mut c = Criterion::default();
    bench_add_drain_cycle(&mut c, &topo, &specs);
    bench_admission(&mut c, &topo, &specs);
    bench_recompute(&mut c, &topo, &specs);
    bench_peek(&mut c, &topo, &specs);

    let path = std::env::var_os("BENCH_FABRIC_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fabric.json")
        });
    let report = render_report(c.results());
    std::fs::write(&path, &report).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
    println!("wrote {}", path.display());
}
