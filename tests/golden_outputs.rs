//! Golden-output regression tests.
//!
//! The simulator is deterministic for a fixed seed, so every registry
//! experiment is pinned byte-for-byte under `golden/`: its CSV artifacts
//! as `golden/<name>.csv` and its rendered report as
//! `golden/reports/<id>.txt`. A model change that shifts any number fails
//! here *by id*, forcing an explicit regeneration:
//!
//! ```text
//! cargo test --release --test golden_outputs -- --ignored bless_golden_outputs
//! ```
//!
//! The pinned configuration is `BenchConfig::quick()` with `reps = 1` and
//! the default seed — what `repro --quick --reps 1` runs, so the CSVs
//! equal the files `repro --quick --reps 1 --csv DIR` writes.
//!
//! One Chrome trace is pinned too: `golden/traces/<id>.json` is what
//! `repro --quick --reps 1 <id> --trace-out FILE` writes, so the exporter's
//! every byte (field order, number printing, escaping, record order) is
//! fixed across rewrites of it.
//!
//! Two ids are pinned under a full DAG capture as well:
//! `golden/capture/<id>.{trace,metrics,critpath}.json` are what
//! `repro --quick --reps 1 <id> --trace-out T --metrics-out M
//! --critpath-out C` writes. `ext-fault-link-down` carries fault instants,
//! a retry span, a `reroute:` instant, `route`/`bound_by` span args,
//! attribution counters and the DAG's route labels, so every name the
//! capture path renders is fixed. `fig4` runs flows whose rates survive
//! other flows' departures, so its timestamps move at the last digit if
//! the fabric re-projects an unchanged rate's completion.

use ifsim::fabric::SegId;
use ifsim::hip::EnvConfig;
use ifsim::registry;
use ifsim::telemetry::critpath::NodeCategory;
use ifsim::telemetry::{self, json, CollectedTelemetry, EventKind};
use ifsim::{BenchConfig, Capture, RunOpts};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn pinned_cfg() -> BenchConfig {
    let mut cfg = BenchConfig::quick();
    cfg.reps = 1;
    cfg
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn report_path(id: &str) -> PathBuf {
    golden_dir().join("reports").join(format!("{id}.txt"))
}

fn read_golden(path: &PathBuf) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

fn trace_path(id: &str) -> PathBuf {
    golden_dir().join("traces").join(format!("{id}.json"))
}

/// The merged Chrome trace `repro --trace-out` writes for `id` alone.
fn trace_of(id: &str) -> String {
    let exp = registry::by_id(id).expect("registered experiment");
    let (_, telemetry) = exp
        .run_with(&pinned_cfg(), &RunOpts::capture(Capture::Telemetry))
        .expect("no token, no cancellation");
    let mut merged = CollectedTelemetry::new();
    merged.absorb(telemetry);
    merged.chrome_trace_string()
}

/// Ids whose Chrome trace is pinned: one fault experiment covers every
/// record phase (`M`, `X`, `i`, `C`) and span args.
const PINNED_TRACES: &[&str] = &["ext-fault-p2p-lanes"];

#[test]
fn chrome_traces_are_pinned() {
    for id in PINNED_TRACES {
        assert_eq!(
            trace_of(id),
            read_golden(&trace_path(id)),
            "{id}: Chrome trace drifted from the pinned output; if the change \
             is intentional, regenerate golden/ (see this file's header)"
        );
    }
}

fn capture_path(id: &str, artifact: &str) -> PathBuf {
    golden_dir()
        .join("capture")
        .join(format!("{id}.{artifact}.json"))
}

/// The trace, metrics and critical-path artifacts `repro` writes for `id`
/// alone when all three are asked for (a DAG capture), by artifact name.
fn capture_of(id: &str) -> [(&'static str, String); 3] {
    let exp = registry::by_id(id).expect("registered experiment");
    let (_, t) = exp
        .run_with(&pinned_cfg(), &RunOpts::capture(Capture::Dag))
        .expect("no token, no cancellation");
    let mut merged = CollectedTelemetry::new();
    merged.absorb(t);
    let critpath = telemetry::critpath::report(merged.dags(), 10);
    [
        ("trace", merged.chrome_trace_string()),
        ("metrics", merged.metrics_json_string()),
        (
            "critpath",
            json::to_string_pretty(&telemetry::critpath_json(&critpath)),
        ),
    ]
}

/// Ids whose full-capture artifacts are pinned.
const PINNED_CAPTURES: &[&str] = &["ext-fault-link-down", "fig4"];

#[test]
fn dag_capture_artifacts_are_pinned() {
    for id in PINNED_CAPTURES {
        for (artifact, got) in capture_of(id) {
            assert_eq!(
                got,
                read_golden(&capture_path(id, artifact)),
                "{id}: {artifact} artifact drifted from the pinned output; if \
                 the change is intentional, regenerate golden/ (see this \
                 file's header)"
            );
        }
    }
}

/// The pinned traces hold the flight recorder's change points and nothing
/// more: on each `(pid, name)` counter track, no sample repeats the value
/// before it except the track's last, and every track of a simulator ends
/// at that simulator's final epoch. A Chrome counter holds its value until
/// the next sample, so a repeat would only restate the step function.
#[test]
fn pinned_traces_carry_only_change_points() {
    let traces = PINNED_TRACES
        .iter()
        .map(|id| trace_path(id))
        .chain(PINNED_CAPTURES.iter().map(|id| capture_path(id, "trace")));
    for path in traces {
        let doc = json::from_str(&read_golden(&path)).expect("pinned trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        // Per track: (last ts, last value bits, index of a repeat so far).
        let mut tracks: BTreeMap<(u64, &str), (f64, u64, Option<usize>)> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            if ev.get("ph").and_then(|p| p.as_str()) != Some("C") {
                continue;
            }
            let key = (
                ev.get("pid").and_then(|p| p.as_u64()).expect("pid"),
                ev.get("name").and_then(|n| n.as_str()).expect("name"),
            );
            let ts = ev.get("ts").and_then(|t| t.as_f64()).expect("ts");
            let bits = ev
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_f64())
                .expect("value")
                .to_bits();
            let repeat = match tracks.get(&key) {
                Some(&(_, prev, earlier)) => {
                    assert_eq!(
                        earlier,
                        None,
                        "{}: counter #{} on {key:?} repeats its previous value \
                         before the track's last sample",
                        path.display(),
                        earlier.unwrap_or(0)
                    );
                    (bits == prev).then_some(i)
                }
                None => None,
            };
            tracks.insert(key, (ts, bits, repeat));
        }
        assert!(!tracks.is_empty(), "{}: no counter tracks", path.display());
        let mut final_epoch: BTreeMap<u64, f64> = BTreeMap::new();
        for (&(pid, name), &(ts, _, _)) in &tracks {
            let end = *final_epoch.entry(pid).or_insert(ts);
            assert_eq!(
                ts,
                end,
                "{}: track (pid {pid}, '{name}') ends before its simulator's final epoch",
                path.display()
            );
        }
    }
}

/// The route format trace consumers parse (the stack bench's replay
/// among them): a flow span's `route` arg is its segment labels joined by
/// `" + "`, and the dependency DAG names the flow's node by the same string.
#[test]
fn captured_routes_resolve_to_segments_and_dag_flow_nodes() {
    let (_, t) = registry::by_id("ext-fault-link-down")
        .expect("registered experiment")
        .run_with(&pinned_cfg(), &RunOpts::capture(Capture::Dag))
        .expect("no token, no cancellation");
    let hip = pinned_cfg().runtime(EnvConfig::default());
    let segmap = hip.fabric().segmap();
    let seg_labels: BTreeSet<&str> = (0..segmap.len())
        .map(|i| segmap.label(SegId(i as u32)))
        .collect();
    let flow_nodes: BTreeSet<&str> = t
        .dags()
        .iter()
        .flat_map(|g| &g.nodes)
        .filter(|n| n.category != NodeCategory::Sync)
        .map(|n| n.label.as_str())
        .collect();
    let events = t.events();
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.cat == "fabric_flow" && matches!(e.kind, EventKind::Span { .. }))
        .collect();
    assert!(!spans.is_empty(), "the capture has flow spans");
    for span in spans {
        let route = span
            .args
            .iter()
            .find(|(k, _)| k == "route")
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("{}: no route arg", span.name));
        for label in route.split(" + ") {
            assert!(
                seg_labels.contains(label),
                "{}: {label:?} names no segment",
                span.name
            );
        }
        assert!(
            flow_nodes.contains(route),
            "{}: no DAG flow node is named {route:?}",
            span.name
        );
    }
}

fn check_golden(id: &str) {
    let exp = registry::by_id(id).expect("registered experiment");
    let result = exp.run(&pinned_cfg());
    for (name, contents) in &result.csv {
        assert_eq!(
            contents,
            &read_golden(&golden_dir().join(name)),
            "{id}: {name} drifted from the pinned output; if the change is \
             intentional, regenerate golden/ (see this file's header)"
        );
    }
    assert_eq!(
        result.report(),
        read_golden(&report_path(id)),
        "{id}: rendered report drifted from the pinned output; if the change \
         is intentional, regenerate golden/ (see this file's header)"
    );
}

/// One `#[test]` per pinned id, plus the id table the completeness check
/// and the regeneration path walk.
macro_rules! pinned {
    ($($test:ident => $id:literal,)*) => {
        const PINNED: &[&str] = &[$($id),*];
        $(
            #[test]
            fn $test() {
                check_golden($id);
            }
        )*
    };
}

pinned! {
    fig1_is_pinned => "fig1",
    table1_is_pinned => "table1",
    table2_is_pinned => "table2",
    fig2_is_pinned => "fig2",
    fig3_is_pinned => "fig3",
    fig4_is_pinned => "fig4",
    fig5_is_pinned => "fig5",
    fig6a_hop_matrix_is_pinned => "fig6a",
    fig6b_latency_matrix_is_pinned => "fig6b",
    fig6c_bandwidth_matrix_is_pinned => "fig6c",
    fig7_peer_sweep_is_pinned => "fig7",
    fig8_is_pinned => "fig8",
    fig9_is_pinned => "fig9",
    fig10_is_pinned => "fig10",
    fig11_is_pinned => "fig11",
    fig12_is_pinned => "fig12",
    ext_d2h_is_pinned => "ext-d2h",
    ext_bidir_is_pinned => "ext-bidir",
    ext_coll_sweep_is_pinned => "ext-coll-sweep",
    ext_mi300a_is_pinned => "ext-mi300a",
    ext_a2a_is_pinned => "ext-a2a",
    ext_fault_p2p_lanes_is_pinned => "ext-fault-p2p-lanes",
    ext_fault_link_down_is_pinned => "ext-fault-link-down",
    ext_fault_allreduce_flaky_is_pinned => "ext-fault-allreduce-flaky",
}

#[test]
fn every_registry_id_is_pinned() {
    assert_eq!(
        PINNED,
        registry::ids().as_slice(),
        "pin new registry ids here"
    );
}

/// Rewrite every pinned artifact from the current model. Run only as a
/// deliberate act (see this file's header), then review the diff.
#[test]
#[ignore = "rewrites golden/; run explicitly to regenerate"]
fn bless_golden_outputs() {
    std::fs::create_dir_all(golden_dir().join("reports")).unwrap();
    for id in PINNED {
        let result = registry::by_id(id).unwrap().run(&pinned_cfg());
        for (name, contents) in &result.csv {
            std::fs::write(golden_dir().join(name), contents).unwrap();
        }
        std::fs::write(report_path(id), result.report()).unwrap();
    }
    std::fs::create_dir_all(golden_dir().join("traces")).unwrap();
    for id in PINNED_TRACES {
        std::fs::write(trace_path(id), trace_of(id)).unwrap();
    }
    std::fs::create_dir_all(golden_dir().join("capture")).unwrap();
    for id in PINNED_CAPTURES {
        for (artifact, contents) in capture_of(id) {
            std::fs::write(capture_path(id, artifact), contents).unwrap();
        }
    }
}
