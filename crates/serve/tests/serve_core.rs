//! Transport-independent server tests: caching determinism, admission
//! control, and error mapping through `ServerCore::handle_line`.

use ifsim_serve::proto::{RunRequest, RunResponse, Status};
use ifsim_serve::{ServeOptions, ServerCore};
use serde_json::Value;

fn small_core() -> ServerCore {
    ServerCore::new(ServeOptions {
        workers: 2,
        queue_depth: 4,
        cache_cap: 32,
        ..ServeOptions::default()
    })
}

fn run_line(id: &str) -> String {
    let mut req = RunRequest::new(id);
    req.overrides.quick = true;
    serde_json::to_string(&req.to_json())
}

fn parse_run(line: &str) -> RunResponse {
    RunResponse::from_json(&serde_json::from_str(line).unwrap()).unwrap()
}

/// Every `singleflight.*` and `deadline.*` field of a stats snapshot reads
/// the same count as its `serve_*` counter in the embedded metrics.
fn assert_stats_match_counters(stats: &Value) {
    let counters = stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_array)
        .expect("metrics counters");
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|c| c.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    for (section, field, name) in [
        ("singleflight", "leaders", "serve_singleflight_leaders"),
        ("singleflight", "followers", "serve_singleflight_followers"),
        ("deadline", "exceeded", "serve_deadline_exceeded_total"),
        ("deadline", "shed", "serve_deadline_shed_total"),
        ("deadline", "cancelled", "serve_cancelled_jobs_total"),
    ] {
        let stat = stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("{section}.{field} missing"));
        assert_eq!(stat as f64, counter(name), "{section}.{field} vs {name}");
    }
}

/// The serving pipeline is deterministic: a cache hit re-serializes to
/// exactly the bytes the fresh compute produced (only `cached` flips),
/// and both match a direct in-process run of the same experiment.
#[test]
fn cached_response_is_byte_identical_to_fresh_compute() {
    let core = small_core();
    let line = run_line("fig1");

    let fresh = core.handle_line(&line);
    let replay = core.handle_line(&line);

    let fresh_resp = parse_run(&fresh);
    let replay_resp = parse_run(&replay);
    assert_eq!(fresh_resp.status, Status::Ok);
    assert!(!fresh_resp.cached);
    assert!(
        replay_resp.cached,
        "second identical request hits the cache"
    );

    // Every response names its own trace; ids are unique per request.
    assert!(!fresh_resp.trace_id.is_empty());
    assert!(!replay_resp.trace_id.is_empty());
    assert_ne!(fresh_resp.trace_id, replay_resp.trace_id);

    // Normalize the two legitimate differences (cached flag, per-request
    // trace id), then demand byte equality.
    let mut normalized = replay_resp.clone();
    normalized.cached = false;
    normalized.trace_id = fresh_resp.trace_id.clone();
    assert_eq!(
        serde_json::to_string(&fresh_resp.to_json()),
        serde_json::to_string(&normalized.to_json()),
        "cache replay must be byte-identical modulo cached flag and trace id"
    );

    // And both match a direct run of the registry experiment.
    let exp = ifsim_core::registry::by_id("fig1").unwrap();
    let direct = exp.run(&ifsim_core::BenchConfig::quick());
    assert_eq!(fresh_resp.report.as_deref(), Some(direct.report().as_str()));
    assert_eq!(fresh_resp.csv, direct.csv);
    assert_eq!(fresh_resp.digest.len(), 32);

    assert_eq!(core.cache().hits(), 1);
    assert_eq!(core.cache().misses(), 1);
}

/// Different seeds are different cache entries.
#[test]
fn seed_changes_miss_the_cache() {
    let core = small_core();
    let mut req = RunRequest::new("fig1");
    req.overrides.quick = true;
    req.overrides.seed = Some(1);
    let a = parse_run(&core.handle_line(&serde_json::to_string(&req.to_json())));
    req.overrides.seed = Some(2);
    let b = parse_run(&core.handle_line(&serde_json::to_string(&req.to_json())));
    assert_ne!(a.digest, b.digest);
    assert!(!b.cached);
    assert_eq!(core.cache().entries(), 2);
}

/// At capacity the server answers an explicit Overloaded (429) instead
/// of queueing without bound. Slots are claimed through the same
/// `try_admit` the run path uses, so the test is deterministic.
#[test]
fn overload_returns_explicit_429() {
    let core = ServerCore::new(ServeOptions {
        workers: 1,
        queue_depth: 1,
        cache_cap: 8,
        ..ServeOptions::default()
    });
    assert_eq!(core.capacity(), 2);
    assert!(core.try_admit());
    assert!(core.try_admit());
    assert!(!core.try_admit(), "third admit exceeds workers + queue");

    let resp = parse_run(&core.handle_line(&run_line("fig1")));
    assert_eq!(resp.status, Status::Overloaded);
    assert_eq!(resp.status.code(), 429);
    assert!(!resp.digest.is_empty(), "429 still names the cache key");

    // Releasing a slot makes the same request computable again.
    core.finish_admitted();
    let resp = parse_run(&core.handle_line(&run_line("fig1")));
    assert_eq!(resp.status, Status::Ok);
    core.finish_admitted();
    assert_eq!(core.in_flight(), 0);
}

/// Cache hits bypass admission control entirely: a saturated server
/// still answers already-computed requests.
#[test]
fn cache_hits_bypass_admission() {
    let core = ServerCore::new(ServeOptions {
        workers: 1,
        queue_depth: 0,
        cache_cap: 8,
        ..ServeOptions::default()
    });
    let line = run_line("fig1");
    assert_eq!(parse_run(&core.handle_line(&line)).status, Status::Ok);
    while core.try_admit() {}
    let resp = parse_run(&core.handle_line(&line));
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.cached);
}

/// Bad requests map to 400 with a reason, not a hang or a panic.
#[test]
fn invalid_requests_map_to_400() {
    let core = small_core();

    let resp = parse_run(&core.handle_line(&run_line("fig99")));
    assert_eq!(resp.status, Status::BadRequest);
    assert!(resp.error.unwrap().contains("unknown experiment"));

    let mut req = RunRequest::new("fig1");
    req.overrides.calib.push(("not_a_knob".into(), 1.5));
    let resp = parse_run(&core.handle_line(&serde_json::to_string(&req.to_json())));
    assert_eq!(resp.status, Status::BadRequest);
    assert!(resp.error.unwrap().contains("not_a_knob"));

    let v: Value = serde_json::from_str(&core.handle_line("this is not json")).unwrap();
    assert_eq!(v.get("code").and_then(Value::as_u64), Some(400));
}

/// The artifact filter trims the response without touching the cache.
#[test]
fn artifact_filter_selects_named_csvs() {
    let core = small_core();
    let full = parse_run(&core.handle_line(&run_line("fig6a")));
    assert!(!full.csv.is_empty());
    let (first_name, first_contents) = full.csv[0].clone();

    let mut req = RunRequest::new("fig6a");
    req.overrides.quick = true;
    req.artifacts = vec![first_name.clone()];
    let filtered = parse_run(&core.handle_line(&serde_json::to_string(&req.to_json())));
    assert!(filtered.cached, "filter applies on top of the cached entry");
    assert_eq!(filtered.csv, vec![(first_name, first_contents)]);
}

/// Stats carries the lint-checked schema tag plus cache/queue/pool and
/// the metrics snapshot with latency histograms.
#[test]
fn stats_snapshot_matches_schema() {
    let core = small_core();
    let line = run_line("fig1");
    core.handle_line(&line);
    core.handle_line(&line);
    let stats: Value = serde_json::from_str(&core.handle_line(r#"{"op":"stats"}"#)).unwrap();

    assert_eq!(
        stats.get("schema").and_then(Value::as_str),
        Some(ifsim_serve::STATS_SCHEMA)
    );
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
    let queue = stats.get("queue").unwrap();
    assert_eq!(queue.get("in_flight").and_then(Value::as_u64), Some(0));
    assert_eq!(queue.get("capacity").and_then(Value::as_u64), Some(6));
    assert_eq!(
        stats
            .get("pool")
            .and_then(|p| p.get("panicked_jobs"))
            .and_then(Value::as_u64),
        Some(0)
    );
    let hists = stats
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(Value::as_array)
        .unwrap();
    let latency = hists
        .iter()
        .find(|h| h.get("name").and_then(Value::as_str) == Some("serve_request_latency_ns"))
        .expect("run latency histogram present");
    for field in ["p50", "p95", "p99"] {
        assert!(latency.get(field).is_some(), "missing {field}");
    }
}

/// Analyzed runs cache under their own derived digest, carry a
/// critical-path report on the wire, and leave plain requests for the
/// same configuration untouched.
#[test]
fn analyze_requests_carry_critpath_under_a_derived_digest() {
    let core = small_core();
    // ext-coll-sweep runs through the HipSim runtime, so DAG capture has
    // causal edges to record (fig1 is fabric-level and has none).
    let mut req = RunRequest::new("ext-coll-sweep");
    req.overrides.quick = true;
    req.overrides.reps = Some(1);
    let plain_line = serde_json::to_string(&req.to_json());
    let plain = parse_run(&core.handle_line(&plain_line));
    assert_eq!(plain.status, Status::Ok);
    assert!(plain.critpath.is_none(), "plain runs stay lean");

    req.analyze = true;
    let line = serde_json::to_string(&req.to_json());
    let analyzed = parse_run(&core.handle_line(&line));
    assert_eq!(analyzed.status, Status::Ok);
    assert!(!analyzed.cached, "analyze is a distinct cache entry");
    assert_ne!(analyzed.digest, plain.digest, "derived digest");

    let critpath = analyzed.critpath.expect("analyze returns a report");
    assert_eq!(
        critpath.get("schema").and_then(Value::as_str),
        Some("ifsim-critpath-v1")
    );
    let total = critpath
        .get("total_ns")
        .and_then(Value::as_f64)
        .expect("total_ns");
    assert!(total > 0.0, "instrumented run has a nonempty critical path");
    // The report rides the cache: a replay carries the same bytes.
    let replay = parse_run(&core.handle_line(&line));
    assert!(replay.cached);
    assert_eq!(
        serde_json::to_string(&replay.critpath.unwrap()),
        serde_json::to_string(&critpath)
    );
    // And the plain entry still replays without a report.
    let plain_replay = parse_run(&core.handle_line(&plain_line));
    assert!(plain_replay.cached);
    assert!(plain_replay.critpath.is_none());
}

/// Shutdown flips the draining flag the socket host polls.
#[test]
fn shutdown_request_starts_drain() {
    let core = small_core();
    assert!(!core.draining());
    let v: Value = serde_json::from_str(&core.handle_line(r#"{"op":"shutdown"}"#)).unwrap();
    assert_eq!(v.get("draining").and_then(Value::as_bool), Some(true));
    assert!(core.draining());
}

/// Eight concurrent requests for one cold digest coalesce onto a single
/// computation: exactly one leader, seven followers, and every response
/// is byte-identical.
#[test]
fn concurrent_identical_requests_single_flight() {
    let core = std::sync::Arc::new(ServerCore::new(ServeOptions {
        workers: 4,
        queue_depth: 8,
        cache_cap: 32,
        ..ServeOptions::default()
    }));
    let line = run_line("fig1");
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let core = std::sync::Arc::clone(&core);
            let line = line.clone();
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                core.handle_line(&line)
            })
        })
        .collect();
    let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The load-bearing invariant: one computation, no matter how the
    // other seven interleave (coalesced behind the leader, or — if the
    // scheduler parked them past its completion — served from cache).
    assert_eq!(core.singleflight_leaders(), 1, "exactly one computation");
    assert_eq!(
        core.singleflight_followers() + core.cache().hits(),
        7,
        "everyone else coalesced or replayed; nobody recomputed"
    );
    let baseline = {
        let mut resp = parse_run(&responses[0]);
        resp.cached = false;
        resp.trace_id = String::new();
        serde_json::to_string(&resp.to_json())
    };
    for r in &responses {
        let mut resp = parse_run(r);
        assert_eq!(resp.status, Status::Ok);
        resp.cached = false;
        resp.trace_id = String::new();
        assert_eq!(
            serde_json::to_string(&resp.to_json()),
            baseline,
            "followers see the leader's bytes"
        );
    }

    let stats: Value = serde_json::from_str(&core.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let sf = stats.get("singleflight").expect("singleflight section");
    assert_eq!(sf.get("leaders").and_then(Value::as_u64), Some(1));
    assert_eq!(
        sf.get("followers").and_then(Value::as_u64),
        Some(core.singleflight_followers())
    );
    assert_stats_match_counters(&stats);
}

/// An already-expired deadline is shed before any compute and answers an
/// explicit 504, which the deadline accounting in stats reflects.
#[test]
fn expired_deadline_sheds_with_504() {
    let core = small_core();
    let mut req = RunRequest::new("fig1");
    req.overrides.quick = true;
    req.deadline_ms = Some(0);
    let resp = parse_run(&core.handle_line(&serde_json::to_string(&req.to_json())));
    assert_eq!(resp.status, Status::DeadlineExceeded);
    assert_eq!(resp.status.code(), 504);
    assert!(!resp.digest.is_empty(), "504 still names the cache key");
    assert!(resp.error.unwrap().contains("deadline"));

    let stats: Value = serde_json::from_str(&core.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let deadline = stats.get("deadline").expect("deadline section");
    assert_eq!(deadline.get("shed").and_then(Value::as_u64), Some(1));
    assert_eq!(deadline.get("exceeded").and_then(Value::as_u64), Some(1));
    assert_eq!(deadline.get("cancelled").and_then(Value::as_u64), Some(0));
    assert_stats_match_counters(&stats);

    // A sane deadline computes normally.
    req.deadline_ms = Some(120_000);
    let resp = parse_run(&core.handle_line(&serde_json::to_string(&req.to_json())));
    assert_eq!(resp.status, Status::Ok);
    let stats: Value = serde_json::from_str(&core.handle_line(r#"{"op":"stats"}"#)).unwrap();
    assert_stats_match_counters(&stats);
}

/// Warm-start regression: a daemon restarted onto the same `--cache-dir`
/// replays byte-identical responses from its previous life without
/// recomputing.
#[test]
fn warm_restarted_core_replays_byte_identical_responses() {
    let dir = std::env::temp_dir().join(format!("ifsim-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        workers: 2,
        queue_depth: 4,
        cache_cap: 32,
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };
    let line = run_line("fig1");

    let (cold, scan) = ServerCore::build(opts.clone()).unwrap();
    assert_eq!(scan.unwrap().recovered, 0, "first life starts empty");
    let fresh = parse_run(&cold.handle_line(&line));
    assert_eq!(fresh.status, Status::Ok);
    assert!(!fresh.cached);
    drop(cold);

    let (warm, scan) = ServerCore::build(opts).unwrap();
    assert_eq!(scan.unwrap().recovered, 1, "restart recovers the entry");
    let replay = parse_run(&warm.handle_line(&line));
    assert!(replay.cached, "warm start serves from the recovered cache");
    assert_eq!(warm.cache().disk_hits(), 1);
    assert_eq!(warm.cache().misses(), 0, "no recompute after restart");
    assert_eq!(warm.singleflight_leaders(), 0);

    let mut normalized = replay.clone();
    normalized.cached = false;
    normalized.trace_id = fresh.trace_id.clone();
    assert_eq!(
        serde_json::to_string(&fresh.to_json()),
        serde_json::to_string(&normalized.to_json()),
        "warm replay must be byte-identical modulo cached flag and trace id"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An inline scenario compiles server-side and caches on *content*: the
/// same scenario with shuffled field order and a different client-side
/// id label keys to the same digest and replays from the cache.
#[test]
fn inline_scenario_caches_on_content_not_field_order() {
    let core = small_core();
    // The id is omitted entirely: the server echoes the compiled one.
    let a = r#"{"op":"run","scenario":{
        "schema":"ifsim-scenario-v1","name":"moe-serve",
        "config":{"reps":1,"warmup":0},
        "workload":{"type":"moe-alltoall","ranks":2,"bytes_per_pair":65536,
                    "steps":1,"compute_bytes":65536}}}"#;
    // Same scenario, every object's keys in a different order, plus a
    // client-chosen label.
    let b = r#"{"op":"run","experiment_id":"my-label","scenario":{
        "workload":{"compute_bytes":65536,"steps":1,"bytes_per_pair":65536,
                    "ranks":2,"type":"moe-alltoall"},
        "config":{"warmup":0,"reps":1},
        "name":"moe-serve","schema":"ifsim-scenario-v1"}}"#;

    let fresh = parse_run(&core.handle_line(a));
    assert_eq!(fresh.status, Status::Ok, "{:?}", fresh.error);
    assert!(!fresh.cached);
    assert_eq!(fresh.experiment_id, "scenario:moe-serve");
    assert_eq!(fresh.checks_passed, fresh.checks_total);

    let replay = parse_run(&core.handle_line(b));
    assert_eq!(replay.status, Status::Ok);
    assert!(replay.cached, "shuffled field order still hits the cache");
    assert_eq!(replay.digest, fresh.digest, "digest keys on content");
    assert_eq!(replay.experiment_id, "my-label", "label echoes the client");
    assert_eq!(replay.report, fresh.report);
    assert_eq!(core.cache().hits(), 1);

    // Different scenario content under the same name: a different digest.
    let c = a.replace("\"bytes_per_pair\":65536", "\"bytes_per_pair\":131072");
    let other = parse_run(&core.handle_line(&c));
    assert_eq!(other.status, Status::Ok);
    assert!(!other.cached);
    assert_ne!(other.digest, fresh.digest);
}

/// Malformed scenario payloads answer 400 with the offending field named
/// under `scenario.`, the same structured shape every other bad-payload
/// rejection uses.
#[test]
fn scenario_errors_name_the_offending_field() {
    let core = small_core();
    let cases = [
        (
            r#"{"op":"run","scenario":{"schema":"ifsim-scenario-v1","name":"x",
                "workload":{"type":"moe-alltoall"},"bogus":1}}"#,
            "scenario.bogus",
        ),
        (
            r#"{"op":"run","scenario":{"schema":"ifsim-scenario-v1","name":"x",
                "workload":{"type":"no-such-workload"}}}"#,
            "scenario.workload.type",
        ),
        (
            r#"{"op":"run","scenario":{"schema":"ifsim-scenario-v1","name":"x",
                "workload":{"type":"moe-alltoall","ranks":99}}}"#,
            "scenario.workload.ranks",
        ),
        (
            r#"{"op":"run","experiment_id":"fig1","overrides":{"calib":{"nope":2.0}}}"#,
            "overrides.calib.nope",
        ),
    ];
    for (line, field) in cases {
        let resp = parse_run(&core.handle_line(line));
        assert_eq!(resp.status, Status::BadRequest, "for {line}");
        assert_eq!(resp.error_field.as_deref(), Some(field), "for {line}");
        assert!(
            resp.error.as_deref().unwrap().contains(field),
            "error text names the field for {line}"
        );
    }
    // Parse-level rejections carry the field on the envelope too.
    let v: serde_json::Value = serde_json::from_str(
        &core.handle_line(r#"{"op":"run","artifacts":[3],"experiment_id":"fig1"}"#),
    )
    .unwrap();
    assert_eq!(v.get("code").and_then(Value::as_u64), Some(400));
    assert_eq!(v.get("field").and_then(Value::as_str), Some("artifacts[0]"));
}

/// Request spans exist only to be exported: without `trace_out` the core
/// keeps none however many requests it serves; with it, one per request.
#[test]
fn request_spans_are_kept_only_for_a_trace_export() {
    const N: usize = 60;
    let spans = |core: &ServerCore| {
        let telemetry = core.collected_telemetry();
        let events = telemetry.events();
        let requests = events.iter().filter(|e| e.cat == "serve_request").count();
        (events.len(), requests)
    };
    let serve = |core: &ServerCore| {
        for i in 0..N {
            let line = match i % 3 {
                0 => r#"{"op":"ping"}"#.to_string(),
                1 => r#"{"op":"stats"}"#.to_string(),
                _ => run_line("fig1"),
            };
            core.handle_line(&line);
        }
    };
    let untraced = small_core();
    serve(&untraced);
    assert_eq!(spans(&untraced), (0, 0));
    let traced = ServerCore::new(ServeOptions {
        workers: 2,
        queue_depth: 4,
        trace_out: Some("trace.json".into()),
        ..ServeOptions::default()
    });
    serve(&traced);
    assert_eq!(spans(&traced), (N, N));
}
