//! Golden scenario files under `golden/scenarios/` replay exactly as the
//! repo promises: registry twins are byte-identical to running the
//! registry entry directly, and the generator scenarios replay
//! end-to-end with passing checks. These are the files `ci.sh` smokes and
//! `docs/SCENARIOS.md` quotes, so drift here breaks the documented
//! contract, not just a test.
//!
//! Each golden file's CSV artifacts and rendered report are also pinned
//! byte-for-byte under `golden/scenarios/expected/` (`<csv name>` and
//! `<file stem>.txt`) at the pinned configuration: `BenchConfig::quick()`
//! with `reps = 1` and the default seed, as `repro --quick --reps 1
//! --scenario FILE` runs it. Regenerate deliberately, then review the diff:
//!
//! ```text
//! cargo test --release -p ifsim-scenario --test golden_equivalence -- \
//!     --ignored bless_golden_scenarios
//! ```

use ifsim_core::{registry, BenchConfig};
use ifsim_scenario::{compile, Scenario, Workload};
use std::path::{Path, PathBuf};

/// The golden scenario files whose outputs are pinned.
const PINNED: [&str; 5] = [
    "collectives",
    "fault-link-down",
    "halo-faulted",
    "moe-alltoall",
    "p2p-latency",
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden/scenarios")
}

fn expected_dir() -> PathBuf {
    golden_dir().join("expected")
}

fn pinned_cfg() -> BenchConfig {
    let mut cfg = BenchConfig::quick();
    cfg.reps = 1;
    cfg
}

fn read_expected(name: &str) -> String {
    let path = expected_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing pinned output {}: {e}", path.display()))
}

#[test]
fn golden_scenario_outputs_are_pinned() {
    for stem in PINNED {
        let r = compile(&load(&format!("{stem}.json")))
            .unwrap()
            .run(&pinned_cfg());
        for (name, contents) in &r.csv {
            assert_eq!(
                contents,
                &read_expected(name),
                "{stem}: {name} drifted from the pinned output; if the change \
                 is intentional, regenerate (see this file's header)"
            );
        }
        assert_eq!(
            r.report(),
            read_expected(&format!("{stem}.txt")),
            "{stem}: rendered report drifted from the pinned output; if the \
             change is intentional, regenerate (see this file's header)"
        );
    }
}

/// Rewrite the pinned scenario outputs from the current model.
#[test]
#[ignore = "rewrites golden/scenarios/expected/; run explicitly to regenerate"]
fn bless_golden_scenarios() {
    std::fs::create_dir_all(expected_dir()).unwrap();
    for stem in PINNED {
        let r = compile(&load(&format!("{stem}.json")))
            .unwrap()
            .run(&pinned_cfg());
        for (name, contents) in &r.csv {
            std::fs::write(expected_dir().join(name), contents).unwrap();
        }
        std::fs::write(expected_dir().join(format!("{stem}.txt")), r.report()).unwrap();
    }
}

fn load(file: &str) -> Scenario {
    let path = golden_dir().join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Scenario::from_str(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

/// The three registry twins: a P2P experiment, a collective experiment,
/// and a fault experiment. Their scenario files set no configuration
/// overrides, so the compiled runner delegates straight to the registry
/// entry and must produce byte-identical rendered output and CSVs.
#[test]
fn registry_twins_replay_byte_identical() {
    let twins = [
        ("p2p-latency.json", "fig6b"),
        ("collectives.json", "fig11"),
        ("fault-link-down.json", "ext-fault-link-down"),
    ];
    let cfg = BenchConfig::quick();
    for (file, registry_id) in twins {
        let s = load(file);
        assert_eq!(
            s.workload,
            Workload::Registry {
                id: registry_id.to_string()
            },
            "{file} must delegate to registry '{registry_id}'"
        );
        let direct = registry::by_id(registry_id).unwrap().run(&cfg);
        let via = compile(&s).unwrap().run(&cfg);
        assert_eq!(direct.rendered, via.rendered, "{file}: rendered drifted");
        assert_eq!(direct.csv, via.csv, "{file}: CSV artifacts drifted");
        assert_eq!(
            direct.checks.len(),
            via.checks.len(),
            "{file}: check set drifted"
        );
    }
}

/// The MoE all-to-all acceptance scenario replays end-to-end.
#[test]
fn moe_alltoall_golden_replays() {
    let s = load("moe-alltoall.json");
    let exp = compile(&s).unwrap();
    assert_eq!(exp.id, "scenario:moe-alltoall");
    let r = exp.run(&BenchConfig::quick());
    assert!(r.all_passed(), "{}", r.report());
    assert!(r.rendered.contains("baseline"));
    let (name, csv) = &r.csv[0];
    assert_eq!(name, "scenario_moe-alltoall.csv");
    assert!(csv.lines().count() >= 2, "header plus one data row:\n{csv}");
}

/// The faulted halo scenario sweeps the halo size and replays under its
/// lane-loss fault plan; both sweep points must appear in the artifact.
#[test]
fn halo_faulted_golden_replays_both_sweep_points() {
    let s = load("halo-faulted.json");
    assert_eq!(s.faults.len(), 1, "one scheduled lane-loss");
    let r = compile(&s).unwrap().run(&BenchConfig::quick());
    assert!(r.all_passed(), "{}", r.report());
    assert!(r.rendered.contains("halo_bytes=65536"));
    assert!(r.rendered.contains("halo_bytes=262144"));
}

/// Every golden file parses, validates, and survives a canonical
/// round-trip (parse → canonical JSON → parse) with a stable digest:
/// the property the serve cache keys on, checked against the real files.
#[test]
fn all_golden_files_round_trip_canonically() {
    let dir = golden_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let s =
            Scenario::from_str(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
        let back = Scenario::from_json(&s.to_json())
            .unwrap_or_else(|e| panic!("re-parsing canonical {}: {e}", path.display()));
        assert_eq!(s, back, "{}: canonical round-trip lossy", path.display());
        assert_eq!(s.digest(), back.digest());
    }
    assert!(
        seen >= 5,
        "expected at least 5 golden scenarios, saw {seen}"
    );
}

/// The canonical-form digest of every golden and stack-bench scenario file
/// and of each generator at its defaults. `ifsim-serve --cache-dir` keys
/// its persistent cache on these digests, so a change to the canonical
/// form (key order, defaults written out, number rendering) would leave
/// every stored entry cold. A deliberate change re-pins them here.
#[test]
fn scenario_digests_are_pinned() {
    const PINS: [(&str, &str); 12] = [
        ("collectives.json", "b57b29e0a7de6d81e6a0b32a8727d55c"),
        ("fault-link-down.json", "912bc87d327847faf44d214f4bbb146d"),
        ("halo-faulted.json", "1adb305f047a7773853bf06290a5a576"),
        ("moe-alltoall.json", "00085101f3bc59177042c443c59d0b64"),
        ("p2p-latency.json", "c3082ebb941e0140cd849ed79f847d7f"),
        (
            "stack/halo8-faulted.json",
            "8922d74a3b39b81539d52a469d09cd6c",
        ),
        ("stack/moe8-scaled.json", "cd2bc24b17b87fbdcc0eeff7dae766d4"),
        (
            "stack/train8-scaled.json",
            "9d1108eb051760acb32ff13bea073089",
        ),
        ("defaults:moe-alltoall", "12a26a3137c7348c4f82450c004b3741"),
        ("defaults:param-server", "cdbcab113aff565e9fcfa511de054a69"),
        ("defaults:halo", "3d9f6a456f7288e9c1ea0db169a098b4"),
        ("defaults:train-step", "cd4d4757f0a0749ed0423177a714e125"),
    ];
    let stack_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/examples/stack/workloads");
    let got: Vec<(&str, String)> = PINS
        .iter()
        .map(|&(what, _)| {
            let s = if let Some(ty) = what.strip_prefix("defaults:") {
                Scenario::from_str(&format!(
                    r#"{{"schema": "ifsim-scenario-v1", "name": "defaults",
                        "workload": {{"type": "{ty}"}}}}"#
                ))
                .unwrap()
            } else if let Some(file) = what.strip_prefix("stack/") {
                let text = std::fs::read_to_string(stack_dir.join(file)).unwrap();
                Scenario::from_str(&text).unwrap()
            } else {
                load(what)
            };
            (what, s.digest())
        })
        .collect();
    let want: Vec<(&str, String)> = PINS.iter().map(|&(w, d)| (w, d.to_string())).collect();
    assert_eq!(got, want, "a scenario's canonical form changed");
}
