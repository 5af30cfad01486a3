//! Property tests for the scenario format and trace replay:
//!
//! 1. **Lossless round-trip** — any valid scenario survives
//!    `to_json` → `from_json` unchanged, and its digest is stable.
//! 2. **Field-order independence** — reversing every object's key order
//!    parses to the same scenario and the same digest (the serve cache
//!    keys on exactly this property).
//! 3. **Shuffle invariance** — any topologically-valid reordering of a
//!    trace's records produces the identical canonical schedule and the
//!    identical replayed makespan.

use ifsim_fabric::FaultKind;
use ifsim_hip::{EnvConfig, HipSim};
use ifsim_scenario::{
    compile, ConfigSection, FaultSpec, GeneratorSpec, Scenario, SweepAxis, TraceOp, TraceRecord,
    Workload,
};
use ifsim_topology::GcdId;
use proptest::prelude::*;
use serde_json::{Map, Value};

/// Valid scenario names: non-empty, lowercase `[a-z0-9._-]`.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..39, 1..10).prop_map(|idx| {
        const POOL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";
        idx.iter().map(|&i| POOL[i] as char).collect()
    })
}

fn arb_config() -> impl Strategy<Value = ConfigSection> {
    (
        any::<bool>(),
        (any::<bool>(), any::<u64>()),
        (any::<bool>(), 1usize..5),
        (any::<bool>(), 0usize..3),
    )
        .prop_map(|(quick, seed, reps, warmup)| ConfigSection {
            quick,
            seed: seed.0.then_some(seed.1),
            reps: reps.0.then_some(reps.1),
            warmup: warmup.0.then_some(warmup.1),
        })
}

/// Calibration overrides drawn from the *real* accessor table, so the
/// scenarios validate: factors 0.25..1.75, at most 1.0 on an efficiency
/// (whose value may not exceed 1); kept name-sorted like the parser
/// produces them.
fn arb_calib() -> impl Strategy<Value = Vec<(String, f64)>> {
    let names: Vec<String> = ifsim_hip::Calibration::f64_field_names()
        .map(|n| n.to_string())
        .collect();
    let n = names.len();
    proptest::collection::vec((0usize..n, 1usize..8), 0..3).prop_map(move |picks| {
        let mut calib: Vec<(String, f64)> = picks
            .into_iter()
            .map(|(i, f)| {
                let capped = ifsim_hip::Calibration::f64_field_ceiling(&names[i]).is_some();
                let f = if capped { (f - 1) % 4 + 1 } else { f };
                (names[i].clone(), f as f64 * 0.25)
            })
            .collect();
        calib.sort_by(|a, b| a.0.cmp(&b.0));
        calib.dedup_by(|a, b| a.0 == b.0);
        calib
    })
}

/// Faults over directly-linked frontier GCD pairs and in-range single
/// GCDs, with float parameters from pools that serialize exactly.
fn arb_faults() -> impl Strategy<Value = Vec<FaultSpec>> {
    // The frontier link set: quad, dual, and single xGMI connections.
    const LINKS: &[(u8, u8)] = &[
        (0, 1),
        (2, 3),
        (4, 5),
        (6, 7),
        (0, 6),
        (2, 4),
        (0, 2),
        (1, 3),
        (1, 5),
        (3, 7),
        (4, 6),
        (5, 7),
    ];
    const AT_US: &[f64] = &[0.0, 12.5, 50.0, 100.0, 250.0];
    const TAX: &[f64] = &[0.0, 0.25, 0.5, 0.75];
    const LAT_US: &[f64] = &[0.0, 0.5, 2.5, 10.0];
    proptest::collection::vec(
        (
            0usize..AT_US.len(),
            0usize..7,
            0usize..LINKS.len(),
            (0u8..8, 1u32..16, 0usize..TAX.len(), 0usize..LAT_US.len()),
        ),
        0..3,
    )
    .prop_map(|specs| {
        let mut faults: Vec<FaultSpec> = specs
            .into_iter()
            .map(|(at, kind, link, (gcd, lanes, tax, lat))| {
                let (a, b) = (GcdId(LINKS[link].0), GcdId(LINKS[link].1));
                let kind = match kind {
                    0 => FaultKind::LaneLoss { a, b, lanes },
                    1 => FaultKind::LinkDown { a, b },
                    2 => FaultKind::LinkRestore { a, b },
                    3 => FaultKind::SdmaFail { gcd: GcdId(gcd) },
                    4 => FaultKind::SdmaRestore { gcd: GcdId(gcd) },
                    5 => FaultKind::BitErrorRate {
                        a,
                        b,
                        tax: TAX[tax],
                        added_latency: ifsim_des::Dur::from_us(LAT_US[lat]),
                    },
                    _ => FaultKind::EccBurst { a, b },
                };
                FaultSpec {
                    at_us: AT_US[at],
                    kind,
                }
            })
            .collect();
        faults.sort_by(|a, b| a.at_us.total_cmp(&b.at_us));
        faults
    })
}

/// Valid trace DAGs: record `r<i>` may only depend on earlier records,
/// so the graph is acyclic by construction; GCDs stay on the node and
/// copies never self-loop.
fn arb_records() -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec((0usize..4, 0u8..8, 1u8..8, 1u64..64, any::<bool>()), 1..10).prop_map(
        |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (op, src, step, kib, dep))| {
                    let dst = (src + step) % 8;
                    let bytes = kib << 10;
                    let op = match op {
                        0 => TraceOp::Copy { src, dst, bytes },
                        1 => TraceOp::H2D { dst, bytes },
                        2 => TraceOp::D2H { src, bytes },
                        _ => TraceOp::Kernel { gcd: src, bytes },
                    };
                    // Depend on the previous record half the time: mixes
                    // chains and independent roots without risking cycles.
                    let depends_on = if dep && i > 0 {
                        vec![format!("r{}", i - 1)]
                    } else {
                        Vec::new()
                    };
                    TraceRecord {
                        id: format!("r{i}"),
                        op,
                        depends_on,
                    }
                })
                .collect()
        },
    )
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Registry {
            id: "fig6b".to_string()
        }),
        arb_records().prop_map(|records| Workload::Trace { records }),
        (2usize..5, 1u64..9, 1usize..3).prop_map(|(ranks, kib, steps)| {
            Workload::Generator(GeneratorSpec::MoeAllToAll {
                ranks,
                bytes_per_pair: kib << 10,
                steps,
                compute_bytes: 1 << 16,
            })
        }),
        ((2usize..3, 2usize..5), 1u64..9, 1usize..3).prop_map(|(grid, kib, iters)| {
            Workload::Generator(GeneratorSpec::Halo {
                grid,
                halo_bytes: kib << 10,
                iters,
                compute_bytes: 1 << 16,
            })
        }),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (arb_name(), arb_config(), arb_calib()),
        (arb_faults(), arb_workload(), any::<bool>()),
    )
        .prop_map(|((name, config, calib), (faults, workload, sweep_on))| {
            // Registry workloads define their own fault plans, so the
            // format rejects scheduled faults on them.
            let faults = if matches!(workload, Workload::Registry { .. }) {
                Vec::new()
            } else {
                faults
            };
            // Sweeps only make sense on generator workloads; use a valid
            // axis over a parameter both generators share.
            let sweep = match (&workload, sweep_on) {
                (Workload::Generator(GeneratorSpec::MoeAllToAll { .. }), true) => {
                    vec![SweepAxis {
                        param: "bytes_per_pair".to_string(),
                        values: vec![65536.0, 262144.0],
                    }]
                }
                (Workload::Generator(GeneratorSpec::Halo { .. }), true) => vec![SweepAxis {
                    param: "halo_bytes".to_string(),
                    values: vec![65536.0, 131072.0],
                }],
                _ => Vec::new(),
            };
            Scenario {
                title: name.clone(),
                description: String::new(),
                topology: "frontier".to_string(),
                name,
                config,
                calib,
                faults,
                workload,
                sweep,
            }
        })
}

/// Rebuild a JSON value with every object's keys in reverse insertion
/// order (arrays untouched — their order is semantic).
fn reverse_keys(v: &Value) -> Value {
    match v {
        Value::Object(obj) => {
            let mut rev = Map::new();
            let pairs: Vec<(&String, &Value)> = obj.iter().collect();
            for (k, val) in pairs.into_iter().rev() {
                rev.insert(k.clone(), reverse_keys(val));
            }
            Value::Object(rev)
        }
        Value::Array(items) => Value::Array(items.iter().map(reverse_keys).collect()),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Canonical serialization is lossless: parse(to_json(s)) == s, with
    /// a stable digest, for scenarios spanning every workload type,
    /// fault kind, calibration override, and sweep shape.
    #[test]
    fn round_trip_is_lossless(s in arb_scenario()) {
        let canonical = s.to_json();
        let back = Scenario::from_json(&canonical).expect("canonical form re-parses");
        prop_assert_eq!(&s, &back);
        prop_assert_eq!(s.digest(), back.digest());
        // Text round-trip too: the file-loading path repro/lint use.
        let text = serde_json::to_string(&canonical);
        let from_text = Scenario::from_str(&text).expect("text form re-parses");
        prop_assert_eq!(&s, &from_text);
    }

    /// Field order never matters: reversing every object's key order
    /// parses to the same scenario and the same digest. This is the
    /// property the serve cache key (config_digest) rests on.
    #[test]
    fn digest_ignores_field_order(s in arb_scenario()) {
        let reversed = reverse_keys(&s.to_json());
        let back = Scenario::from_json(&reversed).expect("reversed form re-parses");
        prop_assert_eq!(&s, &back);
        prop_assert_eq!(s.digest(), back.digest());
    }

    /// Any input ordering of the same trace records yields the identical
    /// canonical schedule — and therefore the identical simulated
    /// makespan. Shuffling is driven by proptest-chosen sort keys, so
    /// arbitrary permutations are exercised, not just reversal.
    #[test]
    fn shuffled_records_replay_identically(
        records in arb_records(),
        keys in proptest::collection::vec(any::<u64>(), 10),
    ) {
        let mut shuffled = records.clone();
        shuffled.sort_by_key(|r| {
            let i: usize = r.id[1..].parse().unwrap();
            keys[i % keys.len()]
        });
        let order = |recs: &[TraceRecord]| -> Vec<String> {
            ifsim_scenario::trace::canonical_order(recs)
                .unwrap()
                .into_iter()
                .map(|i| recs[i].id.clone())
                .collect()
        };
        prop_assert_eq!(order(&records), order(&shuffled));
        let run = |recs: &[TraceRecord]| {
            let mut hip = HipSim::new(EnvConfig::default());
            hip.mem_mut().set_phantom_threshold(0);
            ifsim_scenario::trace::replay(&mut hip, recs)
                .unwrap()
                .makespan
                .as_ns()
        };
        prop_assert_eq!(run(&records), run(&shuffled));
    }

    /// A shuffled trace *scenario* also digests and compiles
    /// identically-behaving experiments when the records are reordered
    /// inside the file: the schedule comes from the DAG, not the array.
    #[test]
    fn shuffled_scenario_records_keep_the_schedule(records in arb_records()) {
        let scenario = |records: Vec<TraceRecord>| Scenario {
            name: "shuffle-probe".to_string(),
            title: "shuffle-probe".to_string(),
            description: String::new(),
            topology: "frontier".to_string(),
            config: ConfigSection {
                quick: false,
                seed: Some(7),
                reps: Some(1),
                warmup: Some(0),
            },
            calib: Vec::new(),
            faults: Vec::new(),
            workload: Workload::Trace { records },
            sweep: Vec::new(),
        };
        let mut reversed = records.clone();
        reversed.reverse();
        let a = compile(&scenario(records)).unwrap();
        let b = compile(&scenario(reversed)).unwrap();
        let cfg = ifsim_core::BenchConfig::quick();
        let (ra, rb) = (a.run(&cfg), b.run(&cfg));
        prop_assert_eq!(ra.rendered, rb.rendered);
        prop_assert_eq!(ra.csv, rb.csv);
    }
}
