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
