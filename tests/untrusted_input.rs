//! Scenario files are untrusted input: the documented example parses, and
//! near misses of every golden scenario are field errors, never panics.

#[path = "support/json_mutations.rs"]
mod json_mutations;

use ifsim_scenario::Scenario;
use json_mutations::{mutate, KINDS};
use proptest::prelude::*;
use serde_json::Value;
use std::path::Path;
use std::sync::OnceLock;

/// The golden scenario files, decoded once.
fn golden_scenarios() -> &'static [Value] {
    static DOCS: OnceLock<Vec<Value>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/scenarios");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("golden/scenarios")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        names.sort();
        assert_eq!(names.len(), 5, "the five golden scenarios");
        names
            .iter()
            .map(|p| serde_json::from_str(&std::fs::read_to_string(p).unwrap()).unwrap())
            .collect()
    })
}

#[test]
fn the_documented_scenario_example_parses() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/SCENARIOS.md");
    let doc = std::fs::read_to_string(path).expect("docs/SCENARIOS.md");
    let shape = doc
        .split("## Document shape")
        .nth(1)
        .expect("docs/SCENARIOS.md has a Document shape section");
    let example = shape
        .split("```json\n")
        .nth(1)
        .and_then(|rest| rest.split("```").next())
        .expect("the section opens with a json block");
    let s = Scenario::from_str(example).unwrap_or_else(|e| panic!("{e}\n{example}"));
    // Every optional section is exercised, so the example is the full one.
    assert_eq!(s.name, "moe-a2a-demo");
    assert!(s.config.seed.is_some() && !s.calib.is_empty(), "{s:?}");
    assert!(!s.faults.is_empty() && !s.sweep.is_empty(), "{s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncated, bit-flipped, pruned, extended, over-nested and
    /// number-corrupted golden scenarios never panic the parser, and every
    /// rejection of a document that is still an object names its field.
    #[test]
    fn scenario_near_misses_are_field_errors(
        file in 0usize..5,
        kind in 0usize..KINDS,
        pick in any::<u64>(),
    ) {
        let text = mutate(&golden_scenarios()[file], kind, pick);
        if let Err(e) = Scenario::from_str(&text) {
            prop_assert_eq!(
                !e.field.is_empty(),
                json_mutations::is_object(&text),
                "{e}\n{text}"
            );
        }
    }
}
