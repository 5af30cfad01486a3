//! `docs/SCENARIOS.md` cannot drift from the code: its generator table
//! names exactly the parameters, defaults, bounds and sweep axes of
//! [`GENERATORS`], and every `json` block in it parses.

use ifsim_scenario::format::{Bound, GENERATORS};
use ifsim_scenario::Scenario;
use serde_json::{Map, Value};

fn doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCENARIOS.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The generator table's rows as `[type, parameter, default, bounds,
/// sweepable]`, the type carried down from the row that names it.
fn generator_rows(doc: &str) -> Vec<[String; 5]> {
    let section = doc
        .split("### Generators")
        .nth(1)
        .expect("a Generators section");
    let mut ty = String::new();
    let mut rows = Vec::new();
    for line in section.lines().skip_while(|l| !l.starts_with('|')) {
        if !line.starts_with('|') {
            break;
        }
        let cells: Vec<String> = line
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().replace('`', ""))
            .collect();
        if cells[0] == "type" || cells[0].starts_with("---") {
            continue;
        }
        let [t, param, default, bounds, sweep]: [String; 5] =
            cells.try_into().expect("five cells per row");
        if !t.is_empty() {
            ty = t;
        }
        rows.push([ty.clone(), param, default, bounds, sweep]);
    }
    rows
}

#[test]
fn the_generator_table_is_the_code_table() {
    let row = |ty: &str, param: &str, default: String, bounds: String, sweep: bool| {
        let sweep = if sweep { "yes" } else { "no" };
        [ty, param, &default, &bounds, sweep].map(str::to_string)
    };
    let mut want = Vec::new();
    for g in &GENERATORS {
        if let Some((x, y)) = g.grid {
            let bounds = "x · y 2–8".to_string();
            want.push(row(g.name, "grid", format!("[{x}, {y}]"), bounds, false));
        }
        for p in g.params {
            let bounds = match p.bound {
                Bound::Size => "≥ 1".to_string(),
                Bound::Count(lo, u64::MAX) => format!("≥ {lo}"),
                Bound::Count(lo, hi) => format!("{lo}–{hi}"),
                Bound::Below(k) => format!("0–{}−1", g.params[k].name),
            };
            want.push(row(g.name, p.name, p.default.to_string(), bounds, p.sweep));
        }
    }
    let got = generator_rows(&doc());
    assert_eq!(got.len(), want.len(), "rows: {got:?}");
    for (got, want) in got.iter().zip(&want) {
        // Defaults and bounds may carry a note after the code's value.
        let same = got[0] == want[0] && got[1] == want[1] && got[4] == want[4];
        assert!(same, "doc row {got:?} is not code row {want:?}");
        assert!(got[2].starts_with(&want[2]), "default {got:?} != {want:?}");
        assert!(got[3].starts_with(&want[3]), "bounds {got:?} != {want:?}");
    }
}

#[test]
fn every_json_block_parses() {
    let doc = doc();
    let blocks: Vec<&str> = doc
        .split("```json")
        .skip(1)
        .map(|b| b.split("```").next().unwrap())
        .collect();
    assert!(blocks.len() >= 3, "found {} json blocks", blocks.len());
    for block in blocks {
        let v = serde_json::from_str(block).unwrap_or_else(|e| panic!("{e}:\n{block}"));
        // A block without a schema is a workload; run it in a scenario.
        let is_scenario = v.as_object().is_some_and(|o| o.get("schema").is_some());
        let s = if is_scenario {
            Scenario::from_json(&v)
        } else {
            let mut m = Map::new();
            m.insert("schema", Value::from("ifsim-scenario-v1"));
            m.insert("name", Value::from("doc"));
            m.insert("workload", v);
            Scenario::from_json(&Value::Object(m))
        };
        s.unwrap_or_else(|e| panic!("{e}:\n{block}"));
    }
}
