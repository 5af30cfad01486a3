//! Application-level relationships (§I: stencil halo exchange and
//! data-parallel training) as scenario traces replayed through the HIP
//! runtime — the same records `repro --scenario` runs — and compiled
//! scenarios that rerun exactly like fresh compiles.

use ifsim::des::units::{KIB, MIB};
use ifsim::hip::{EnvConfig, HipSim};
use ifsim::BenchConfig;
use ifsim_scenario::trace::{self, TraceOp, TraceRecord};
use ifsim_scenario::{compile, generators, Scenario, Workload};

/// Ranks of the halo strip, one per GCD.
const RANKS: u8 = 8;

/// How a strip iteration moves its halos.
#[derive(Clone, Copy)]
enum Exchange {
    /// No halos: the compute-only baseline.
    None,
    /// Peer copies over the fabric.
    Direct,
    /// A drain to host memory, then a dependent upload to the neighbour.
    HostStaged,
}

fn rec(id: String, op: TraceOp, depends_on: Vec<String>) -> TraceRecord {
    TraceRecord { id, op, depends_on }
}

/// One iteration of an 8-rank strip: every rank runs a compute kernel,
/// then sends a `halo`-byte halo to each strip neighbour.
fn strip(halo: u64, compute: u64, exchange: Exchange) -> Vec<TraceRecord> {
    let mut out: Vec<TraceRecord> = (0..RANKS)
        .map(|r| {
            let op = TraceOp::Kernel {
                gcd: r,
                bytes: compute,
            };
            rec(format!("comp.r{r}"), op, Vec::new())
        })
        .collect();
    for r in 0..RANKS {
        let comp = vec![format!("comp.r{r}")];
        for nb in [r.checked_sub(1), (r + 1 < RANKS).then_some(r + 1)]
            .into_iter()
            .flatten()
        {
            match exchange {
                Exchange::None => {}
                Exchange::Direct => out.push(rec(
                    format!("halo.r{r}.to{nb}"),
                    TraceOp::Copy {
                        src: r,
                        dst: nb,
                        bytes: halo,
                    },
                    comp.clone(),
                )),
                Exchange::HostStaged => {
                    let down = format!("down.r{r}.to{nb}");
                    out.push(rec(
                        down.clone(),
                        TraceOp::D2H {
                            src: r,
                            bytes: halo,
                        },
                        comp.clone(),
                    ));
                    out.push(rec(
                        format!("up.r{r}.to{nb}"),
                        TraceOp::H2D {
                            dst: nb,
                            bytes: halo,
                        },
                        vec![down],
                    ));
                }
            }
        }
    }
    out
}

fn makespan_us(records: &[TraceRecord]) -> f64 {
    trace::ReplayPlan::new(records, RANKS).expect("valid strip trace");
    let mut hip = HipSim::new(EnvConfig::default());
    hip.mem_mut().set_phantom_threshold(0);
    trace::replay(&mut hip, records)
        .expect("strip trace replays")
        .makespan
        .as_us()
}

/// `(exchange, makespan)` in µs, where the exchange time is the makespan
/// beyond that of the compute-only trace.
fn exchange_us(halo: u64, compute: u64, exchange: Exchange) -> (f64, f64) {
    let total = makespan_us(&strip(halo, compute, exchange));
    (
        total - makespan_us(&strip(halo, compute, Exchange::None)),
        total,
    )
}

#[test]
fn direct_peer_halos_beat_host_staged_halos() {
    // §V at application scale: moving halos GPU to GPU beats staging them
    // through host memory.
    let (direct, _) = exchange_us(256 * KIB, 3 * MIB, Exchange::Direct);
    let (staged, _) = exchange_us(256 * KIB, 3 * MIB, Exchange::HostStaged);
    assert!(direct > 0.0, "direct exchange {direct} us");
    assert!(
        staged > 2.0 * direct,
        "staged {staged} us vs direct {direct} us"
    );
}

#[test]
fn exchange_fraction_grows_with_halo_size() {
    let fraction = |halo, compute| {
        let (exchange, total) = exchange_us(halo, compute, Exchange::Direct);
        exchange / total
    };
    let small = fraction(4 * KIB, 24 * MIB);
    let big = fraction(256 * KIB, 3 * MIB);
    assert!(small > 0.0, "small-halo fraction {small}");
    assert!(big > small, "{big} vs {small}");
}

#[test]
fn train_step_expansion_is_pinned_record_for_record() {
    // The stack bench's train8-scaled workload. The digest covers every
    // record's id, op, bytes and dependencies, in generation order.
    let mut doc = Scenario::from_str(
        r#"{"schema": "ifsim-scenario-v1", "name": "train8-scaled",
            "workload": {"type": "train-step", "ranks": 8, "params": 1048576,
                         "batch_bytes": 4194304, "steps": 16, "compute_passes": 2}}"#,
    )
    .expect("train-step scenario parses");
    let Workload::Generator(spec) = &doc.workload else {
        panic!("expected a generator workload")
    };
    let records = generators::expand(spec);
    // Per step: 8 ingests, 8 computes, 14 ring rounds of 8 hops, 8 optimizers.
    assert_eq!(records.len(), 16 * (3 * 8 + 14 * 8));
    doc.workload = Workload::Trace { records };
    assert_eq!(doc.digest(), "5d125e048e6561753e314e7942de064a");
}

#[test]
fn compiled_scenarios_rerun_like_fresh_compiles() {
    // A compiled experiment resolves its trace on its first run and keeps
    // the plans. Whatever else a run leaves behind must not reach the next
    // run: every run, serial or two at once, must equal a fresh compile's.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/golden/scenarios/halo-faulted.json"
    ))
    .expect("golden scenario");
    // A generator with a sweep and a fault, and a trace with cross-stream
    // waits under the same fault.
    let generator = Scenario::from_str(&text).expect("parses");
    let mut strip_trace = generator.clone();
    strip_trace.name = "strip-direct".into();
    strip_trace.workload = Workload::Trace {
        records: strip(64 * KIB, MIB, Exchange::Direct),
    };
    strip_trace.sweep.clear();
    let mut reseeded = BenchConfig::quick();
    reseeded.seed = 7;
    for scenario in [generator, strip_trace] {
        let exp = compile(&scenario).expect("compiles");
        let racing = compile(&scenario).expect("compiles");
        for cfg in [BenchConfig::quick(), reseeded.clone()] {
            let result = |exp: &ifsim::Experiment| {
                let r = exp.run(&cfg);
                assert!(r.all_passed(), "{}", r.report());
                (r.rendered, r.csv)
            };
            let fresh = result(&compile(&scenario).expect("compiles"));
            for run in 0..2 {
                let seed = cfg.seed;
                assert_eq!(
                    result(&exp),
                    fresh,
                    "{}: seed {seed} run {run}",
                    scenario.name
                );
            }
            // Two threads at once: on `racing`'s first configuration both
            // race its first run, and then both reuse what it resolved.
            std::thread::scope(|scope| {
                let runs = [
                    scope.spawn(|| result(&racing)),
                    scope.spawn(|| result(&racing)),
                ];
                for run in runs {
                    let got = run.join().expect("no panic");
                    assert_eq!(got, fresh, "{}: concurrent run", scenario.name);
                }
            });
        }
    }
}
