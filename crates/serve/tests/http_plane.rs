//! End-to-end tests for the observability plane: raw HTTP/1.1 against a
//! spawned [`HttpPlane`], cross-checked with the core's own stats.

use ifsim_serve::{HttpPlane, ServeOptions, ServerCore};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn quick_core() -> Arc<ServerCore> {
    Arc::new(ServerCore::new(ServeOptions {
        workers: 2,
        queue_depth: 4,
        ..ServeOptions::default()
    }))
}

/// One GET, full response read to EOF (the plane closes after a
/// response). Returns (status-line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Sum every `serve_requests_total` sample in a Prometheus exposition.
fn prom_requests_total(text: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with("serve_requests_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Sum the same counter family in a stats-v2 snapshot.
fn stats_requests_total(stats: &Value) -> f64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_array)
        .map(|counters| {
            counters
                .iter()
                .filter(|c| c.get("name").and_then(Value::as_str) == Some("serve_requests_total"))
                .filter_map(|c| c.get("value").and_then(Value::as_f64))
                .sum()
        })
        .unwrap_or(0.0)
}

#[test]
fn metrics_are_monotone_across_a_burst_and_match_stats() {
    let core = quick_core();
    let handle = HttpPlane::bind(Arc::clone(&core), "127.0.0.1:0")
        .unwrap()
        .spawn();
    let addr = handle.local_addr();

    core.handle_line(r#"{"op":"ping"}"#);
    let (status, before) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let before_total = prom_requests_total(&before);
    assert!(before_total >= 1.0, "ping counted: {before}");

    // A burst of requests, then scrape again: strictly more requests.
    for _ in 0..5 {
        core.handle_line(r#"{"op":"ping"}"#);
    }
    core.handle_line(r#"{"op":"stats"}"#);
    let (_, after) = http_get(addr, "/metrics");
    let after_total = prom_requests_total(&after);
    assert!(
        after_total >= before_total + 6.0,
        "counters are cumulative: {before_total} → {after_total}"
    );

    // The exposition and the stats snapshot agree on the total.
    let (status, stats_body) = http_get(addr, "/stats");
    assert!(status.contains("200"), "{status}");
    let stats = serde_json::from_str(&stats_body).expect("stats endpoint serves JSON");
    assert_eq!(
        stats.get("schema").and_then(Value::as_str),
        Some("ifsim-serve-stats-v2")
    );
    // /stats itself is handled outside handle_line, so totals match the
    // last exposition exactly.
    assert_eq!(stats_requests_total(&stats), after_total);

    // Exposition shape: HELP + TYPE precede samples, histogram closed.
    assert!(after.contains("# HELP serve_requests_total"));
    assert!(after.contains("# TYPE serve_requests_total counter"));
    assert!(after.contains("# TYPE serve_request_latency_ns histogram"));
    assert!(after.contains("le=\"+Inf\""));
    // The flight recorder's ring-drop counter is pre-seeded, so the
    // exposition always carries it — a dashboard can alert on it going
    // nonzero without waiting for the first instrumented run.
    assert!(
        after.contains("serve_fabric_recorder_dropped_samples_total"),
        "recorder ring-drop counter exposed: {after}"
    );
    handle.shutdown();
}

#[test]
fn readyz_flips_to_503_during_drain_and_healthz_stays_200() {
    let core = quick_core();
    let handle = HttpPlane::bind(Arc::clone(&core), "127.0.0.1:0")
        .unwrap()
        .spawn();
    let addr = handle.local_addr();

    let (status, body) = http_get(addr, "/readyz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ready\n");

    core.start_drain();
    let (status, body) = http_get(addr, "/readyz");
    assert!(status.contains("503"), "draining must unready: {status}");
    assert_eq!(body, "draining\n");
    // Liveness is unaffected: the process is still here.
    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");
    // The draining gauge agrees.
    let (_, metrics) = http_get(addr, "/metrics");
    assert!(metrics.contains("serve_draining 1"), "{metrics}");
    handle.shutdown();
}

#[test]
fn sse_stream_backfills_and_ticks_json_samples() {
    let core = quick_core();
    let handle = HttpPlane::bind(Arc::clone(&core), "127.0.0.1:0")
        .unwrap()
        .spawn();
    let addr = handle.local_addr();

    // Let the 1 Hz sampler produce a couple of ring entries first: a
    // late-connecting client must still get them (backfill).
    std::thread::sleep(Duration::from_millis(2300));

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET /events HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    // Read until at least two complete SSE frames arrived.
    while String::from_utf8_lossy(&buf).matches("\n\n").count() < 2 {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("SSE read: {e}"),
        }
    }
    drop(s);
    let text = String::from_utf8_lossy(&buf);
    let text = text.split_once("\r\n\r\n").expect("headers").1;
    let mut ids = Vec::new();
    let mut datas = Vec::new();
    for line in text.lines() {
        if let Some(id) = line.strip_prefix("id: ") {
            ids.push(id.parse::<u64>().expect("numeric event id"));
        }
        if let Some(data) = line.strip_prefix("data: ") {
            datas.push(serde_json::from_str(data).expect("sample is JSON"));
        }
    }
    assert!(ids.len() >= 2, "expected backfilled frames, got {ids:?}");
    assert_eq!(ids[0], 0, "backfill starts at the oldest retained seq");
    assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "ordered: {ids:?}");
    for d in &datas {
        for key in [
            "t",
            "reqs",
            "rps",
            "in_flight",
            "hit_ratio",
            "sheds",
            "links",
        ] {
            assert!(d.get(key).is_some(), "sample missing {key}: {d:?}");
        }
    }
    handle.shutdown();
}

#[test]
fn trace_id_is_echoed_and_lands_in_the_chrome_trace_export() {
    // Request spans are kept only for a trace export; a bare core never
    // writes the file itself (`Server::run` does, at exit).
    let core = ServerCore::new(ServeOptions {
        workers: 2,
        queue_depth: 4,
        trace_out: Some("trace.json".into()),
        ..ServeOptions::default()
    });
    let line = r#"{"op":"run","experiment_id":"fig1","overrides":{"quick":true,"reps":1,"seed":"11"},"trace_id":"e2e-trace-00aa"}"#;
    let resp: Value = serde_json::from_str(&core.handle_line(line)).unwrap();
    assert_eq!(
        resp.get("trace_id").and_then(Value::as_str),
        Some("e2e-trace-00aa"),
        "client-supplied trace id is echoed"
    );
    // A generated id appears when the client sends none…
    let resp2: Value = serde_json::from_str(&core.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let generated = resp2
        .get("trace_id")
        .and_then(Value::as_str)
        .expect("every non-ping response carries a trace id")
        .to_string();
    assert!(!generated.is_empty());
    // …and both ids are searchable in the Chrome trace export.
    let trace = core.collected_telemetry().chrome_trace_string();
    assert!(trace.contains("e2e-trace-00aa"), "span args carry trace_id");
    assert!(trace.contains(&generated));
    // The exemplar on the latency histogram links back to the same id.
    let prom = core.prometheus_text();
    assert!(
        prom.contains("trace_id=\"e2e-trace-00aa\""),
        "exemplar links the latency bucket to the trace: {prom}"
    );
}

#[test]
fn unknown_paths_404_and_non_get_405_and_dashboard_serves_html() {
    let core = quick_core();
    let handle = HttpPlane::bind(core, "127.0.0.1:0").unwrap().spawn();
    let addr = handle.local_addr();

    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "{status}");

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");

    let (status, body) = http_get(addr, "/dashboard");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("<!DOCTYPE html>"));
    assert!(body.contains("EventSource(\"/events\")"), "wired to SSE");
    let (status, root) = http_get(addr, "/");
    assert!(status.contains("200"), "{status}");
    assert_eq!(root, body, "/ serves the same dashboard");
    handle.shutdown();
}
