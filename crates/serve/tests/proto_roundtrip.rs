//! Property tests for the serve wire protocol: arbitrary requests and
//! responses survive encode → one JSON line → parse unchanged.

#[path = "../../../tests/support/json_mutations.rs"]
mod json_mutations;

use ifsim_serve::proto::{
    parse_request, ConfigOverrides, Request, RunRequest, RunResponse, Status,
};
use json_mutations::{mutate, KINDS};
use proptest::prelude::*;
use std::path::Path;

/// Identifier-ish strings (experiment ids, calibration field names).
/// The shim has no `String` Arbitrary, so build them from char pools.
fn arb_ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..37, 1..12).prop_map(|idx| {
        const POOL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
        idx.iter().map(|&i| POOL[i] as char).collect()
    })
}

/// Free text that exercises JSON escaping: quotes, backslashes,
/// newlines, unicode.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..12, 0..40).prop_map(|idx| {
        const POOL: &[&str] = &[
            "a", "Z", "0", " ", "\"", "\\", "\n", "\t", ",", "{", "é", "π",
        ];
        idx.iter().map(|&i| POOL[i]).collect()
    })
}

/// `Option<T>` strategy; the shim has no `proptest::option` module.
fn arb_option<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

fn arb_overrides() -> impl Strategy<Value = ConfigOverrides> {
    (
        any::<bool>(),
        arb_option(any::<u64>()),
        // Zero reps is a field error, not a request.
        arb_option(1usize..1000),
        arb_option(0usize..1000),
        proptest::collection::vec((arb_ident(), 0.01f64..100.0), 0..4),
    )
        .prop_map(|(quick, seed, reps, warmup, mut calib)| {
            // Calib travels as a JSON object, so names must be unique.
            let mut seen = std::collections::HashSet::new();
            calib.retain(|(name, _)| seen.insert(name.clone()));
            ConfigOverrides {
                quick,
                seed,
                reps,
                warmup,
                calib,
            }
        })
}

fn arb_run_request() -> impl Strategy<Value = RunRequest> {
    (
        (
            arb_ident(),
            arb_overrides(),
            proptest::collection::vec(arb_ident(), 0..4),
            arb_option(0u64..10_000_000),
        ),
        (
            arb_option(arb_ident()),
            any::<bool>(),
            // Inline scenario payloads travel as opaque JSON objects; an
            // arbitrary flat object proves presence/absence both survive.
            arb_option(proptest::collection::vec((arb_ident(), arb_text()), 0..3)).prop_map(
                |fields| {
                    fields.map(|fields| {
                        let mut obj = serde_json::Map::new();
                        let mut seen = std::collections::HashSet::new();
                        for (k, v) in fields {
                            if seen.insert(k.clone()) {
                                obj.insert(k, serde_json::Value::from(v));
                            }
                        }
                        serde_json::Value::from(obj)
                    })
                },
            ),
        ),
    )
        .prop_map(
            |(
                (experiment_id, overrides, artifacts, deadline_ms),
                (trace_id, analyze, scenario),
            )| {
                RunRequest {
                    experiment_id,
                    scenario,
                    overrides,
                    artifacts,
                    deadline_ms,
                    trace_id,
                    analyze,
                }
            },
        )
}

fn arb_status() -> impl Strategy<Value = Status> {
    prop_oneof![
        Just(Status::Ok),
        Just(Status::BadRequest),
        Just(Status::Overloaded),
        Just(Status::Internal),
        Just(Status::DeadlineExceeded),
    ]
}

fn arb_run_response() -> impl Strategy<Value = RunResponse> {
    (
        (arb_status(), arb_ident(), arb_ident(), any::<bool>()),
        (
            arb_option(arb_text()),
            arb_option(arb_ident()),
            arb_option(arb_text()),
            proptest::collection::vec((arb_ident(), arb_text()), 0..4),
            (0usize..50, 0usize..50),
        ),
        // Empty = unassigned (omitted on the wire); both must round-trip.
        arb_option(arb_ident()).prop_map(Option::unwrap_or_default),
        // Critpath reports travel as opaque JSON; an object is enough to
        // prove presence/absence both survive the wire.
        arb_option(arb_ident()).prop_map(|tag| {
            tag.map(|tag| {
                let mut obj = serde_json::Map::new();
                obj.insert("schema", serde_json::Value::from("ifsim-critpath-v1"));
                obj.insert("tag", serde_json::Value::from(tag));
                serde_json::Value::from(obj)
            })
        }),
    )
        .prop_map(
            |(
                (status, experiment_id, digest, cached),
                (error, error_field, report, csv, (passed, extra)),
                trace_id,
                critpath,
            )| {
                RunResponse {
                    trace_id,
                    status,
                    experiment_id,
                    digest,
                    cached,
                    error,
                    error_field,
                    report,
                    csv,
                    checks_passed: passed,
                    checks_total: passed + extra,
                    critpath,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// RunRequest → JSON line → parse → identical, including full-range
    /// u64 seeds (carried as decimal strings on the wire) and
    /// escaping-heavy calibration names.
    #[test]
    fn run_request_round_trips(req in arb_run_request()) {
        let line = serde_json::to_string(&req.to_json());
        prop_assert!(!line.contains('\n'), "one request = one line");
        let request = parse_request(&line).unwrap();
        prop_assert_eq!(Request::Run(req), request);
    }

    /// RunResponse → JSON line → parse → identical, covering every
    /// status and text with quotes/backslashes/newlines.
    #[test]
    fn run_response_round_trips(resp in arb_run_response()) {
        let line = serde_json::to_string(&resp.to_json());
        prop_assert!(!line.contains('\n'), "one response = one line");
        let back = RunResponse::from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        prop_assert_eq!(resp, back);
    }

    /// Encoding is deterministic: the same request always serializes to
    /// the same bytes (the cache-determinism guarantee rests on this).
    #[test]
    fn encoding_is_deterministic(req in arb_run_request()) {
        let a = serde_json::to_string(&req.to_json());
        let b = serde_json::to_string(&req.clone().to_json());
        prop_assert_eq!(a, b);
    }
}

/// A hostile request nesting 100 000 arrays answers a structured
/// document-level error instead of overflowing the serve thread's stack.
#[test]
fn deeply_nested_request_is_a_field_error() {
    for line in [
        "[".repeat(100_000),
        format!(r#"{{"op":"run","scenario":{}"#, "[".repeat(100_000)),
    ] {
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.field, "", "a document-level error");
        assert!(err.message.contains("bad JSON"), "{err}");
        assert!(err.message.contains("depth 128"), "{err}");
    }
}

/// Every request in docs/SERVING.md's JSON blocks parses as written.
#[test]
fn documented_requests_parse() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/SERVING.md");
    let doc = std::fs::read_to_string(&path).expect("docs/SERVING.md");
    let blocks: Vec<&str> = doc
        .split("```json\n")
        .skip(1)
        .filter_map(|rest| rest.split("```").next())
        .filter(|block| block.starts_with("{\"op\""))
        .collect();
    assert!(!blocks.is_empty(), "docs/SERVING.md shows a request");
    for block in blocks {
        if let Err(e) = parse_request(&block.replace('\n', " ")) {
            panic!("{e}\n{block}");
        }
    }
}

/// A golden scenario, for requests that carry one inline.
fn golden_scenario(i: usize) -> serde_json::Value {
    const FILES: [&str; 2] = ["moe-alltoall.json", "halo-faulted.json"];
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../golden/scenarios")
        .join(FILES[i % FILES.len()]);
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Near misses of a serialized request (some carrying a golden scenario
    /// inline) never panic the parser, and every rejection of a document
    /// that is still an object names its field. An inline scenario that
    /// survives the request parse is held to the same rule.
    #[test]
    fn request_near_misses_are_field_errors(
        mut req in arb_run_request(),
        inline in 0usize..4,
        kind in 0usize..KINDS,
        pick in any::<u64>(),
    ) {
        if inline < 2 {
            req.scenario = Some(golden_scenario(inline));
        }
        let text = mutate(&req.to_json(), kind, pick);
        match parse_request(&text) {
            Err(e) => prop_assert_eq!(
                !e.field.is_empty(),
                json_mutations::is_object(&text),
                "{e}\n{text}"
            ),
            Ok(Request::Run(RunRequest { scenario: Some(doc), .. })) => {
                if let Err(e) = ifsim_scenario::Scenario::from_json(&doc) {
                    prop_assert!(!e.field.is_empty(), "{e}\n{text}");
                }
            }
            Ok(_) => {}
        }
    }
}
