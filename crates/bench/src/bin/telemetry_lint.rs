//! `telemetry-lint` — schema smoke test for the telemetry artifacts that
//! `repro` and `mgpu-bench` emit via `--trace-out` / `--metrics-out` /
//! `--attr-json`, and for the stack-bench summary `BENCH_stack.json`.
//!
//! ```text
//! telemetry-lint [--trace FILE] [--metrics FILE] [--bench FILE] [--attr FILE]
//!                [--serve FILE] [--prom FILE] [--critpath FILE]
//!                [--scenario FILE]
//! ```
//!
//! Validates structure only, no golden values: the trace must be Chrome
//! trace-event JSON (a `traceEvents` array whose records all carry
//! name/ph/ts/pid/tid, with `dur` on complete spans, `args.name` on
//! metadata records, and — for the flight recorder's `ph: "C"` counter
//! tracks — a numeric `args.value`, a `fabric util <link>` name matching
//! a real Frontier-topology segment label, non-decreasing timestamps per
//! `(pid, name)` track, and no sample that repeats its track's previous
//! value unless it is the track's last, since a counter holds its value
//! until the next sample) that keeps the exporter's ordering contract:
//! every `ph: "M"` metadata record before the first event, and no event's
//! `ts` earlier than the one before it; the metrics snapshot must hold
//! counter/gauge arrays plus histograms carrying
//! count/sum/min/max/mean/p50/p95/p99;
//! the attribution document must be schema `ifsim-attr-v1` with a
//! consistent cap/link split; and the bench summary must be
//! `ifsim-bench-stack-v1`: non-empty `runs`, each of the same schema
//! naming its workload, `correct`, with `0 <= failed <= attempted` and
//! `attempted >= 1`, every metric a finite non-negative `value` with a
//! string `unit`, the four end-to-end metrics on untraced runs, and
//! `ledger.*_share` values summing to 1 on traced runs; and the serve
//! stats snapshot must be
//! `ifsim-serve-stats-v2` with numeric cache/queue/pool/singleflight/deadline accounting and an
//! embedded metrics registry carrying the serve request counters and
//! latency histograms; and `--prom` validates a Prometheus text
//! exposition (such as `curl /metrics` from `ifsim-serve --http`, `-`
//! reads stdin so it can sit at the end of a pipe): every line must
//! parse, every sampled family needs `# HELP` and `# TYPE` headers
//! declared before its first sample, counters must be finite and
//! non-negative, histogram `le` buckets must be strictly increasing with
//! non-decreasing cumulative counts closed by `le="+Inf"` whose count
//! equals the family's `_count`, and no series (name + label set) may
//! appear twice; and `--critpath` validates an `ifsim-critpath-v1`
//! report (from `ifsim-analyze --out` or `--critpath-out`): the four
//! category slacks must partition `total_ns` at 1e-6, the per-run
//! makespans must sum back to `total_ns`, top entries need
//! label/category/ns/count/share with shares in [0, 1], and what-if rows
//! (when present) need field/factor/makespan_ns/delta_ns/speedup with
//! positive factors and speedups; and `--scenario` validates an
//! `ifsim-scenario-v1` scenario file (strict parse: unknown fields are
//! rejected with their field path, trace-record dependency graphs are
//! checked for cycles, sweep axes for bounds and parameter validity, and
//! faults/calibration against the frontier topology and calibration
//! table). Exit code 0 when every given file passes, 1 otherwise.

use ifsim_bench::outln;
use ifsim_core::fabric::SegmentMap;
use ifsim_core::telemetry::json::{self, Value};
use ifsim_core::topology::NodeTopology;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;

fn load(path: &PathBuf) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::from_str(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))
}

/// Directed-link segment labels of the Frontier topology — the universe
/// the flight recorder samples, and therefore the only names a
/// `fabric util <link>` counter track may carry.
fn known_link_labels() -> BTreeSet<String> {
    let segmap = SegmentMap::new(&NodeTopology::frontier());
    segmap
        .dir_segments()
        .map(|(_, _, seg)| segmap.label(seg).to_string())
        .collect()
}

fn lint_trace(v: &Value) -> Result<usize, String> {
    let events = v
        .get("traceEvents")
        .and_then(|t| t.as_array())
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let known = known_link_labels();
    // Per (pid, counter-name) track: the last sample's timestamp and value,
    // and the index of that sample if it repeated the value before it (an
    // error unless no later sample follows on the track).
    let mut tracks: BTreeMap<(u64, String), (f64, f64, Option<usize>)> = BTreeMap::new();
    // The first non-metadata record and the latest event timestamp.
    let mut first_event: Option<usize> = None;
    let mut prev_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        for field in ["name", "ph", "ts", "pid", "tid"] {
            if ev.get(field).is_none() {
                return Err(format!("event #{i} missing {field}: {ev:?}"));
            }
        }
        if ev.get("ph").and_then(|p| p.as_str()) == Some("M") {
            if let Some(first) = first_event {
                return Err(format!(
                    "metadata record #{i} comes after the first event #{first}"
                ));
            }
        } else {
            first_event.get_or_insert(i);
            let ts = ev
                .get("ts")
                .and_then(|t| t.as_f64())
                .ok_or_else(|| format!("event #{i} has a non-numeric ts"))?;
            if ts < prev_ts {
                return Err(format!(
                    "event #{i} goes back in time: ts {ts} after {prev_ts}"
                ));
            }
            prev_ts = ts;
        }
        match ev.get("ph").and_then(|p| p.as_str()) {
            Some("X") => {
                if ev.get("dur").is_none() {
                    return Err(format!("complete span #{i} missing dur"));
                }
            }
            Some("i") | Some("M") => {
                if ev.get("ph").and_then(|p| p.as_str()) == Some("M")
                    && ev.get("args").and_then(|a| a.get("name")).is_none()
                {
                    return Err(format!("metadata record #{i} missing args.name"));
                }
            }
            Some("C") => {
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("counter #{i} missing numeric args.value: {ev:?}"))?;
                let name = ev.get("name").and_then(|n| n.as_str()).unwrap_or("");
                let link = name
                    .strip_prefix("fabric util ")
                    .ok_or_else(|| format!("counter #{i} has non-recorder name '{name}'"))?;
                if !known.contains(link) {
                    return Err(format!("counter #{i} references unknown link '{link}'"));
                }
                let pid = ev.get("pid").and_then(|p| p.as_u64()).unwrap_or(0);
                let ts = ev.get("ts").and_then(|t| t.as_f64()).unwrap_or(0.0);
                let key = (pid, name.to_string());
                let mut repeat = None;
                if let Some(&(prev_ts, prev_value, prev_repeat)) = tracks.get(&key) {
                    if ts < prev_ts {
                        return Err(format!(
                            "counter track (pid {pid}, '{name}') goes back in time: \
                             {ts} after {prev_ts}"
                        ));
                    }
                    if let Some(j) = prev_repeat {
                        return Err(format!(
                            "counter #{j} on track (pid {pid}, '{name}') repeats the \
                             track's previous value before its last sample"
                        ));
                    }
                    repeat = (value.to_bits() == prev_value.to_bits()).then_some(i);
                }
                tracks.insert(key, (ts, value, repeat));
            }
            other => return Err(format!("event #{i} has unexpected phase {other:?}")),
        }
    }
    Ok(events.len())
}

/// Validate an `--attr-json` document (schema `ifsim-attr-v1`): numeric,
/// non-negative aggregates; segment rows carrying segment/bound_ns/share;
/// and a cap + link split that sums back to the total flow-time.
fn lint_attr(v: &Value) -> Result<usize, String> {
    match v.get("schema").and_then(|s| s.as_str()) {
        Some("ifsim-attr-v1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let num = |field: &str| -> Result<f64, String> {
        match v.get(field).and_then(|x| x.as_f64()) {
            Some(x) if x >= 0.0 && x.is_finite() => Ok(x),
            other => Err(format!("bad {field}: {other:?}")),
        }
    };
    let total = num("total_ns")?;
    let cap = num("cap_bound_ns")?;
    let link = num("link_bound_ns")?;
    num("flows")?;
    let segments = v
        .get("segments")
        .and_then(|s| s.as_array())
        .ok_or("missing segments array")?;
    let mut seg_sum = 0.0;
    for (i, s) in segments.iter().enumerate() {
        if s.get("segment").and_then(|x| x.as_str()).is_none() {
            return Err(format!("segment #{i} missing segment label"));
        }
        let bound = match s.get("bound_ns").and_then(|x| x.as_f64()) {
            Some(b) if b >= 0.0 => b,
            other => return Err(format!("segment #{i} has bad bound_ns {other:?}")),
        };
        match s.get("share").and_then(|x| x.as_f64()) {
            Some(sh) if (0.0..=1.0 + 1e-9).contains(&sh) => {}
            other => return Err(format!("segment #{i} has bad share {other:?}")),
        }
        seg_sum += bound;
    }
    let tol = 1e-6 * total.max(1.0);
    if (seg_sum - link).abs() > tol {
        return Err(format!(
            "segment bound times sum to {seg_sum}, but link_bound_ns is {link}"
        ));
    }
    if (cap + link) > total + tol {
        return Err(format!(
            "cap ({cap}) + link ({link}) exceeds total flow-time ({total})"
        ));
    }
    Ok(segments.len())
}

fn lint_metrics(v: &Value) -> Result<usize, String> {
    // Accept both the bare registry snapshot and the per-experiment
    // `{id, metrics}` wrapper.
    let root = v.get("metrics").unwrap_or(v);
    let mut entries = 0usize;
    for section in ["counters", "gauges"] {
        let items = root
            .get(section)
            .and_then(|s| s.as_array())
            .ok_or_else(|| format!("missing {section} array"))?;
        for (i, item) in items.iter().enumerate() {
            for field in ["name", "labels", "value"] {
                if item.get(field).is_none() {
                    return Err(format!("{section} #{i} missing {field}: {item:?}"));
                }
            }
        }
        entries += items.len();
    }
    let hists = root
        .get("histograms")
        .and_then(|s| s.as_array())
        .ok_or("missing histograms array")?;
    for (i, item) in hists.iter().enumerate() {
        for field in [
            "name", "labels", "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        ] {
            if item.get(field).is_none() {
                return Err(format!("histogram #{i} missing {field}: {item:?}"));
            }
        }
    }
    entries += hists.len();
    if entries == 0 {
        return Err("metrics snapshot is empty".into());
    }
    Ok(entries)
}

/// End-to-end metrics every untraced stack-bench run reports.
const STACK_END_TO_END: [&str; 4] = ["setup_s", "op_cal_p50", "op_cal_tail", "peak_rss_mb"];

/// Validate the `BENCH_stack.json` summary (`ifsim-bench-stack-v1`) the
/// stack bench gathers with `--workload all`. Returns the number of runs.
fn lint_bench(v: &Value) -> Result<usize, String> {
    const SCHEMA: &str = "ifsim-bench-stack-v1";
    match v.get("schema").and_then(|s| s.as_str()) {
        Some(SCHEMA) => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let runs = v
        .get("runs")
        .and_then(|r| r.as_array())
        .ok_or("missing runs array")?;
    if runs.is_empty() {
        return Err("runs is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        match run.get("schema").and_then(|s| s.as_str()) {
            Some(SCHEMA) => {}
            other => return Err(format!("run #{i} has unexpected schema {other:?}")),
        }
        let workload = run
            .get("workload")
            .and_then(|w| w.as_str())
            .ok_or_else(|| format!("run #{i} missing workload"))?;
        let at = format!("run #{i} ({workload})");
        if run.get("correct").and_then(|c| c.as_bool()) != Some(true) {
            return Err(format!("{at} is not correct"));
        }
        let attempted = run.get("attempted").and_then(|n| n.as_u64());
        let failed = run.get("failed").and_then(|n| n.as_u64());
        match (attempted, failed) {
            (Some(a), Some(f)) if a >= 1 && f <= a => {}
            _ => {
                return Err(format!(
                    "{at} has bad attempted {attempted:?} / failed {failed:?}"
                ))
            }
        }
        let metrics = run
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or_else(|| format!("{at} missing metrics object"))?;
        for (name, m) in metrics.iter() {
            match m.get("value").and_then(|x| x.as_f64()) {
                Some(x) if x.is_finite() && x >= 0.0 => {}
                other => return Err(format!("{at} metric {name} has bad value {other:?}")),
            }
            if m.get("unit").and_then(|u| u.as_str()).is_none() {
                return Err(format!("{at} metric {name} has no unit string"));
            }
        }
        if run.get("traced").and_then(|t| t.as_bool()) == Some(true) {
            // The ledger partitions the traced pass's wall clock.
            let shares: f64 = metrics
                .iter()
                .filter(|(name, _)| name.starts_with("ledger.") && name.ends_with("_share"))
                .filter_map(|(_, m)| m.get("value").and_then(|x| x.as_f64()))
                .sum();
            if (shares - 1.0).abs() > 1e-6 {
                return Err(format!("{at} ledger shares sum to {shares}, not 1"));
            }
        } else if let Some(name) = STACK_END_TO_END.iter().find(|n| !metrics.contains_key(n)) {
            return Err(format!("{at} missing end-to-end metric {name}"));
        }
    }
    Ok(runs.len())
}

/// Validate an `ifsim-serve` stats snapshot (`ifsim-serve-stats-v2`): the
/// cache/queue/pool accounting blocks plus an embedded metrics registry
/// that must itself lint clean and carry the serve request counters and
/// latency histograms (p50/p95/p99 come with the histogram schema).
fn lint_serve(v: &Value) -> Result<usize, String> {
    match v.get("schema").and_then(|s| s.as_str()) {
        Some("ifsim-serve-stats-v2") => {}
        Some("ifsim-serve-stats-v1") => {
            return Err("schema ifsim-serve-stats-v1 is superseded; expected v2 \
                 (singleflight/deadline/quarantine accounting)"
                .into())
        }
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let section = |name: &str, fields: &[&str]| -> Result<(), String> {
        let block = v
            .get(name)
            .and_then(|b| b.as_object())
            .ok_or_else(|| format!("missing {name} object"))?;
        for field in fields {
            match block.get(field).and_then(|x| x.as_f64()) {
                Some(x) if x >= 0.0 && x.is_finite() => {}
                other => return Err(format!("{name}.{field} is not a number: {other:?}")),
            }
        }
        Ok(())
    };
    section(
        "cache",
        &[
            "entries",
            "capacity",
            "bytes",
            "bytes_capacity",
            "hits",
            "disk_hits",
            "misses",
            "hit_rate",
            "disk_entries",
            "disk_bytes",
            "quarantined",
        ],
    )?;
    section(
        "queue",
        &["in_flight", "capacity", "workers", "queue_depth"],
    )?;
    section("pool", &["panicked_jobs"])?;
    section("singleflight", &["leaders", "followers"])?;
    section("deadline", &["exceeded", "shed", "cancelled"])?;
    if v.get("cache")
        .and_then(|c| c.get("persistent"))
        .and_then(|x| x.as_bool())
        .is_none()
    {
        return Err("cache.persistent is not a bool".into());
    }
    let in_flight = v
        .get("queue")
        .and_then(|q| q.get("in_flight"))
        .and_then(|x| x.as_f64())
        .unwrap_or(0.0);
    let capacity = v
        .get("queue")
        .and_then(|q| q.get("capacity"))
        .and_then(|x| x.as_f64())
        .unwrap_or(0.0);
    if in_flight > capacity {
        return Err(format!(
            "queue.in_flight ({in_flight}) exceeds queue.capacity ({capacity})"
        ));
    }
    let metrics = v.get("metrics").ok_or("missing metrics snapshot")?;
    let entries = lint_metrics(metrics)?;
    let has = |section: &str, name: &str| -> bool {
        metrics
            .get(section)
            .and_then(|s| s.as_array())
            .is_some_and(|items| {
                items
                    .iter()
                    .any(|i| i.get("name").and_then(|n| n.as_str()) == Some(name))
            })
    };
    if !has("counters", "serve_requests_total") {
        return Err("metrics missing serve_requests_total counter".into());
    }
    if !has("histograms", "serve_request_latency_ns") {
        return Err("metrics missing serve_request_latency_ns histogram".into());
    }
    for counter in [
        "serve_singleflight_leaders",
        "serve_singleflight_followers",
        "serve_deadline_exceeded_total",
        "serve_deadline_shed_total",
        "serve_cancelled_jobs_total",
        "serve_cache_quarantined_total",
    ] {
        if !has("counters", counter) {
            return Err(format!("metrics missing {counter} counter"));
        }
    }
    Ok(entries)
}

/// Validate an `ifsim-critpath-v1` critical-path report. Returns the
/// number of top binding entries.
fn lint_critpath(v: &Value) -> Result<usize, String> {
    match v.get("schema").and_then(|s| s.as_str()) {
        Some("ifsim-critpath-v1") => {}
        other => return Err(format!("unexpected schema {other:?}")),
    }
    let runs = match v.get("runs").and_then(|x| x.as_u64()) {
        Some(n) if n >= 1 => n,
        other => return Err(format!("bad runs {other:?}")),
    };
    let total = match v.get("total_ns").and_then(|x| x.as_f64()) {
        Some(t) if t >= 0.0 && t.is_finite() => t,
        other => return Err(format!("bad total_ns {other:?}")),
    };
    let tol = 1e-6 * total.max(1.0);
    let cats = v
        .get("categories")
        .and_then(|c| c.as_object())
        .ok_or("missing categories object")?;
    let expected = ["compute", "transfer", "sync", "queue"];
    let mut cat_sum = 0.0;
    for name in expected {
        match cats.get(name).and_then(|x| x.as_f64()) {
            Some(ns) if ns >= 0.0 && ns.is_finite() => cat_sum += ns,
            other => return Err(format!("category {name} has bad value {other:?}")),
        }
    }
    if cats.len() != expected.len() {
        return Err(format!(
            "categories carries {} entries, expected exactly {:?}",
            cats.len(),
            expected
        ));
    }
    if (cat_sum - total).abs() > tol {
        return Err(format!(
            "category slacks sum to {cat_sum}, but total_ns is {total} \
             (the path must partition the makespan)"
        ));
    }
    let top = v
        .get("top")
        .and_then(|t| t.as_array())
        .ok_or("missing top array")?;
    for (i, entry) in top.iter().enumerate() {
        if entry.get("label").and_then(|x| x.as_str()).is_none() {
            return Err(format!("top #{i} missing label"));
        }
        match entry.get("category").and_then(|x| x.as_str()) {
            Some(c) if expected.contains(&c) => {}
            other => return Err(format!("top #{i} has bad category {other:?}")),
        }
        match entry.get("ns").and_then(|x| x.as_f64()) {
            Some(ns) if ns >= 0.0 && ns.is_finite() => {}
            other => return Err(format!("top #{i} has bad ns {other:?}")),
        }
        match entry.get("count").and_then(|x| x.as_u64()) {
            Some(n) if n >= 1 => {}
            other => return Err(format!("top #{i} has bad count {other:?}")),
        }
        match entry.get("share").and_then(|x| x.as_f64()) {
            Some(s) if (0.0..=1.0 + 1e-9).contains(&s) => {}
            other => return Err(format!("top #{i} has bad share {other:?}")),
        }
    }
    let per_run = v
        .get("per_run")
        .and_then(|p| p.as_array())
        .ok_or("missing per_run array")?;
    if per_run.len() != runs as usize {
        return Err(format!(
            "per_run has {} entries but runs is {runs}",
            per_run.len()
        ));
    }
    let mut run_sum = 0.0;
    for (i, run) in per_run.iter().enumerate() {
        match run.get("makespan_ns").and_then(|x| x.as_f64()) {
            Some(ns) if ns >= 0.0 && ns.is_finite() => run_sum += ns,
            other => return Err(format!("per_run #{i} has bad makespan_ns {other:?}")),
        }
        if run.get("steps").and_then(|x| x.as_u64()).is_none() {
            return Err(format!("per_run #{i} missing steps"));
        }
    }
    if (run_sum - total).abs() > tol {
        return Err(format!(
            "per-run makespans sum to {run_sum}, but total_ns is {total}"
        ));
    }
    if let Some(whatif) = v.get("whatif") {
        let rows = whatif.as_array().ok_or("whatif is not an array")?;
        for (i, w) in rows.iter().enumerate() {
            if w.get("field").and_then(|x| x.as_str()).is_none() {
                return Err(format!("whatif #{i} missing field"));
            }
            match w.get("factor").and_then(|x| x.as_f64()) {
                Some(f) if f > 0.0 && f.is_finite() => {}
                other => return Err(format!("whatif #{i} has bad factor {other:?}")),
            }
            match w.get("makespan_ns").and_then(|x| x.as_f64()) {
                Some(ns) if ns >= 0.0 && ns.is_finite() => {}
                other => return Err(format!("whatif #{i} has bad makespan_ns {other:?}")),
            }
            match w.get("delta_ns").and_then(|x| x.as_f64()) {
                Some(d) if d.is_finite() => {}
                other => return Err(format!("whatif #{i} has bad delta_ns {other:?}")),
            }
            match w.get("speedup").and_then(|x| x.as_f64()) {
                Some(s) if s > 0.0 && s.is_finite() => {}
                other => return Err(format!("whatif #{i} has bad speedup {other:?}")),
            }
        }
    }
    Ok(top.len())
}

/// One parsed exposition sample: `name{labels} value`, exemplar suffix
/// (if any) already validated and stripped.
struct PromSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parse the inside of a `{...}` label block, honouring `\\`, `\"`, and
/// `\n` escapes in values.
fn parse_prom_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        // Label name up to '='.
        let mut name = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            if !(c.is_ascii_alphanumeric() || c == '_' || c == ':') {
                return Err(format!("bad character '{c}' in label name"));
            }
            name.push(c);
            chars.next();
        }
        if name.is_empty() {
            return Err("empty label name".into());
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("label {name} is not =\"...\" shaped"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape \\{other:?} in label {name}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated value for label {name}")),
            }
        }
        labels.push((name, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(other) => return Err(format!("expected ',' between labels, got '{other}'")),
        }
    }
    Ok(labels)
}

/// Parse a Prometheus sample value: decimal, `+Inf`, `-Inf`, or `NaN`.
fn parse_prom_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("unparseable value '{other}'")),
    }
}

/// Parse one non-comment exposition line; validates and strips an
/// OpenMetrics exemplar suffix (` # {trace_id="..."} value`) if present.
fn parse_prom_sample(line: &str) -> Result<PromSample, String> {
    let (base, exemplar) = match line.find(" # ") {
        Some(pos) => (&line[..pos], Some(&line[pos + 3..])),
        None => (line, None),
    };
    if let Some(ex) = exemplar {
        let inner = ex
            .strip_prefix('{')
            .and_then(|r| r.split_once('}'))
            .ok_or("exemplar suffix is not '{...} value' shaped")?;
        let labels = parse_prom_labels(inner.0)?;
        if !labels.iter().any(|(k, _)| k == "trace_id") {
            return Err("exemplar carries no trace_id label".into());
        }
        parse_prom_value(inner.1.trim())?;
    }
    let (series, value_text) = if let Some(open) = base.find('{') {
        let rest = &base[open + 1..];
        let close = rest.rfind('}').ok_or("unterminated label block")?;
        let labels = parse_prom_labels(&rest[..close])?;
        ((base[..open].to_string(), labels), rest[close + 1..].trim())
    } else {
        let mut parts = base.splitn(2, ' ');
        let name = parts.next().unwrap_or("").to_string();
        ((name, Vec::new()), parts.next().unwrap_or("").trim())
    };
    let (name, labels) = series;
    if name.is_empty()
        || name.chars().enumerate().any(|(i, c)| {
            !(c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit()))
        })
    {
        return Err(format!("bad metric name '{name}'"));
    }
    // A trailing timestamp is allowed by the format; take the first token.
    let value_token = value_text.split_whitespace().next().unwrap_or("");
    let value = parse_prom_value(value_token)?;
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

/// Validate a Prometheus text exposition. Returns the sample count.
fn lint_prom(text: &str) -> Result<usize, String> {
    let mut helped: BTreeSet<String> = BTreeSet::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_series: BTreeSet<String> = BTreeSet::new();
    let mut samples: Vec<PromSample> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            if name.is_empty() {
                return Err(at("HELP names no metric".into()));
            }
            if !helped.insert(name.to_string()) {
                return Err(at(format!("duplicate HELP for {name}")));
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(at(format!("TYPE {name} has unknown kind '{kind}'")));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(at(format!("duplicate TYPE for {name}")));
            }
        } else if line.starts_with('#') {
            // Free comment: legal, carries nothing to check.
        } else {
            let sample = parse_prom_sample(line).map_err(at)?;
            // The declared family: histograms sample via _bucket/_sum/_count.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|suf| sample.name.strip_suffix(suf))
                .find(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                .unwrap_or(&sample.name)
                .to_string();
            if !types.contains_key(&family) {
                return Err(at(format!(
                    "sample {} precedes any TYPE for {family}",
                    sample.name
                )));
            }
            if !helped.contains(&family) {
                return Err(at(format!("family {family} has no HELP")));
            }
            let mut key: Vec<String> = sample
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect();
            key.sort();
            let series_id = format!("{} {}", sample.name, key.join(","));
            if !seen_series.insert(series_id.clone()) {
                return Err(at(format!("duplicate series {series_id}")));
            }
            if types.get(&family).map(String::as_str) == Some("counter")
                && !(sample.value.is_finite() && sample.value >= 0.0)
            {
                return Err(at(format!(
                    "counter {} has non-monotone-capable value {}",
                    sample.name, sample.value
                )));
            }
            samples.push(sample);
        }
    }
    // Histogram coherence: per (family, labels-minus-le) group the le
    // buckets must increase, counts must be cumulative, the family must
    // close at +Inf, and +Inf must equal _count.
    type Group = (Vec<(f64, f64)>, Option<f64>, Option<f64>); // buckets, sum, count
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    for s in &samples {
        let Some((base, part)) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| s.name.strip_suffix(suf).map(|b| (b.to_string(), *suf)))
        else {
            continue;
        };
        if types.get(&base).map(String::as_str) != Some("histogram") {
            continue;
        }
        let mut key_labels: Vec<String> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        key_labels.sort();
        let group = groups
            .entry(format!("{base}{{{}}}", key_labels.join(",")))
            .or_insert((Vec::new(), None, None));
        match part {
            "_bucket" => {
                let le_text = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| format!("{} bucket has no le label", s.name))?;
                group.0.push((parse_prom_value(le_text)?, s.value));
            }
            "_sum" => group.1 = Some(s.value),
            _ => group.2 = Some(s.value),
        }
    }
    for (gname, (buckets, sum, count)) in &groups {
        if buckets.is_empty() {
            return Err(format!("histogram {gname} has no buckets"));
        }
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = -1.0;
        for &(le, c) in buckets {
            if le <= prev_le {
                return Err(format!(
                    "histogram {gname}: le buckets not increasing ({le} after {prev_le})"
                ));
            }
            if c < prev_count {
                return Err(format!(
                    "histogram {gname}: cumulative count decreases ({c} after {prev_count})"
                ));
            }
            prev_le = le;
            prev_count = c;
        }
        let (last_le, last_count) = *buckets.last().unwrap();
        if last_le.is_finite() {
            return Err(format!("histogram {gname} is not closed by le=\"+Inf\""));
        }
        let count = count.ok_or_else(|| format!("histogram {gname} has no _count"))?;
        sum.ok_or_else(|| format!("histogram {gname} has no _sum"))?;
        if last_count != count {
            return Err(format!(
                "histogram {gname}: +Inf bucket ({last_count}) != _count ({count})"
            ));
        }
    }
    if samples.is_empty() {
        return Err("exposition carries no samples".into());
    }
    Ok(samples.len())
}

/// Validate a scenario file against the `ifsim-scenario-v1` schema.
/// Returns a one-line summary of what the scenario describes.
fn lint_scenario(path: &PathBuf) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let s = ifsim_scenario::Scenario::from_str(&text).map_err(|e| e.to_string())?;
    let workload = match &s.workload {
        ifsim_scenario::Workload::Registry { id } => format!("registry '{id}'"),
        ifsim_scenario::Workload::Trace { records } => {
            format!("trace ({} records)", records.len())
        }
        ifsim_scenario::Workload::Generator(g) => g.kind_name().to_string(),
    };
    let mut extras = Vec::new();
    if !s.sweep.is_empty() {
        extras.push(format!("{} sweep axes", s.sweep.len()));
    }
    if !s.faults.is_empty() {
        extras.push(format!("{} faults", s.faults.len()));
    }
    let suffix = if extras.is_empty() {
        String::new()
    } else {
        format!(" with {}", extras.join(", "))
    };
    Ok(format!("'{}' runs {workload}{suffix}", s.name))
}

fn main() -> ExitCode {
    let mut trace: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut bench: Option<PathBuf> = None;
    let mut attr: Option<PathBuf> = None;
    let mut serve: Option<PathBuf> = None;
    let mut prom: Option<String> = None;
    let mut critpath: Option<PathBuf> = None;
    let mut scenarios: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => trace = it.next().map(PathBuf::from),
            "--metrics" => metrics = it.next().map(PathBuf::from),
            "--bench" => bench = it.next().map(PathBuf::from),
            "--attr" => attr = it.next().map(PathBuf::from),
            "--serve" => serve = it.next().map(PathBuf::from),
            "--prom" => prom = it.next(),
            "--critpath" => critpath = it.next().map(PathBuf::from),
            "--scenario" => scenarios.extend(it.next().map(PathBuf::from)),
            "--help" | "-h" => {
                outln!(
                    "usage: telemetry-lint [--trace FILE] [--metrics FILE] \
                     [--bench FILE] [--attr FILE] [--serve FILE] \
                     [--prom FILE|-] [--critpath FILE] [--scenario FILE]..."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option {other}");
                return ExitCode::from(2);
            }
        }
    }
    if trace.is_none()
        && metrics.is_none()
        && bench.is_none()
        && attr.is_none()
        && serve.is_none()
        && prom.is_none()
        && critpath.is_none()
        && scenarios.is_empty()
    {
        eprintln!(
            "nothing to lint: pass --trace, --metrics, --bench, --attr, \
             --serve, --prom, --critpath, and/or --scenario"
        );
        return ExitCode::from(2);
    }
    let mut ok = true;
    if let Some(path) = trace {
        match load(&path).and_then(|v| lint_trace(&v)) {
            Ok(n) => outln!("trace   OK: {} — {n} events", path.display()),
            Err(e) => {
                eprintln!("trace   FAIL: {} — {e}", path.display());
                ok = false;
            }
        }
    }
    if let Some(path) = metrics {
        match load(&path).and_then(|v| lint_metrics(&v)) {
            Ok(n) => outln!("metrics OK: {} — {n} entries", path.display()),
            Err(e) => {
                eprintln!("metrics FAIL: {} — {e}", path.display());
                ok = false;
            }
        }
    }
    if let Some(path) = bench {
        match load(&path).and_then(|v| lint_bench(&v)) {
            Ok(n) => outln!("bench   OK: {} — {n} runs", path.display()),
            Err(e) => {
                eprintln!("bench   FAIL: {} — {e}", path.display());
                ok = false;
            }
        }
    }
    if let Some(path) = attr {
        match load(&path).and_then(|v| lint_attr(&v)) {
            Ok(n) => outln!("attr    OK: {} — {n} segments", path.display()),
            Err(e) => {
                eprintln!("attr    FAIL: {} — {e}", path.display());
                ok = false;
            }
        }
    }
    if let Some(path) = serve {
        match load(&path).and_then(|v| lint_serve(&v)) {
            Ok(n) => outln!("serve   OK: {} — {n} metric entries", path.display()),
            Err(e) => {
                eprintln!("serve   FAIL: {} — {e}", path.display());
                ok = false;
            }
        }
    }
    if let Some(path) = critpath {
        match load(&path).and_then(|v| lint_critpath(&v)) {
            Ok(n) => outln!("critpath OK: {} — {n} top entries", path.display()),
            Err(e) => {
                eprintln!("critpath FAIL: {} — {e}", path.display());
                ok = false;
            }
        }
    }
    for path in &scenarios {
        match lint_scenario(path) {
            Ok(summary) => outln!("scenario OK: {} — {summary}", path.display()),
            Err(e) => {
                eprintln!("scenario FAIL: {} — {e}", path.display());
                ok = false;
            }
        }
    }
    if let Some(src) = prom {
        let text = if src == "-" {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                .map(|_| buf)
                .map_err(|e| format!("cannot read stdin: {e}"))
        } else {
            std::fs::read_to_string(&src).map_err(|e| format!("cannot read {src}: {e}"))
        };
        match text.and_then(|t| lint_prom(&t)) {
            Ok(n) => outln!("prom    OK: {src} — {n} samples"),
            Err(e) => {
                eprintln!("prom    FAIL: {src} — {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
