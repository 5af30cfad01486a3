//! Prometheus text exposition for a [`MetricsRegistry`].
//!
//! [`render_prometheus`] turns a registry snapshot into the text format a
//! Prometheus/VictoriaMetrics/Grafana-agent scraper ingests: one
//! `# HELP` + `# TYPE` header per metric family followed by its samples,
//! labels escaped per the spec, histograms rendered as **cumulative**
//! `_bucket{le="..."}` series (the log-bucket upper bounds of
//! [`Histogram`](crate::Histogram)) closed by the mandatory
//! `le="+Inf"` bucket, `_sum`, and `_count`. Exemplars recorded via
//! [`MetricsRegistry::observe_with_exemplar`] are attached to the bucket
//! their value falls in using the OpenMetrics `# {trace_id="..."} value`
//! syntax, so a p99 bucket on a dashboard links straight back to a
//! recent traceable request.
//!
//! The exposition is deterministic (BTreeMap key order everywhere) and
//! validated structurally by `telemetry-lint --prom`.

use crate::hist::bucket_upper_bound;
use crate::metrics::{MetricKey, MetricsRegistry};
use std::fmt::Write as _;

/// Characters legal in a Prometheus metric name: `[a-zA-Z0-9_:]`, not
/// starting with a digit. Anything else becomes `_`.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition spec: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Render `{k="v",...}` for a key's labels plus optional extra pairs
/// (used for `le`). Empty label sets render as nothing.
fn label_block(key: &MetricKey, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<(String, String)> = key
        .labels()
        .iter()
        .map(|(k, v)| (sanitize_name(k), escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push((k.to_string(), escape_label(v)));
    }
    if pairs.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// Format a sample value: integral values render without a fraction so
/// counters look like counters; anything else uses shortest-f64.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Help text for the repo's well-known metric families; everything else
/// gets a generated line (HELP is mandatory in the strict exposition).
fn help_text(name: &str) -> &'static str {
    match name {
        "serve_requests_total" => "Requests handled, by op and response code.",
        "serve_request_latency_ns" => "Wall-clock request latency in nanoseconds, by op.",
        "serve_cache_hits" => "Result-cache lookups served from cache (memory or disk).",
        "serve_cache_misses" => "Result-cache lookups that required a fresh compute.",
        "serve_overloaded_total" => "Requests rejected by admission control (429).",
        "serve_queue_depth" => "Requests admitted (queued or running) right now.",
        "serve_panicked_jobs" => "Worker panics observed by the compute pool.",
        "serve_singleflight_leaders" => "Requests that led a coalesced computation.",
        "serve_singleflight_followers" => "Requests that attached to an in-flight computation.",
        "serve_deadline_exceeded_total" => "Requests answered 504 after their deadline expired.",
        "serve_deadline_shed_total" => {
            "Requests shed before compute because the deadline had passed."
        }
        "serve_cancelled_jobs_total" => "Computations cooperatively cancelled mid-flight.",
        "serve_cache_quarantined_total" => "Corrupt persistent-cache entries quarantined.",
        "serve_fabric_link_utilization" => {
            "Time-weighted mean per-directed-link fabric utilization over the last sampled compute."
        }
        "serve_fabric_link_peak_utilization" => {
            "Peak per-directed-link fabric utilization over the last sampled compute."
        }
        "serve_fabric_recorder_dropped_samples_total" => {
            "Flight-recorder samples dropped to ring overflow across instrumented runs."
        }
        "serve_uptime_seconds" => "Seconds since the daemon started.",
        "serve_in_flight" => "Admission slots currently held.",
        "serve_draining" => "1 while the daemon is draining, else 0.",
        _ => "ifsim metric (see docs/OBSERVABILITY.md).",
    }
}

fn header(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {}", help_text(name));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Render the registry as Prometheus text exposition (content type
/// `text/plain; version=0.0.4`). See the module docs for the format
/// guarantees (`telemetry-lint --prom` checks them).
pub fn render_prometheus(reg: &MetricsRegistry) -> String {
    let mut out = String::new();

    // Counters and gauges: one TYPE header per family, samples in key
    // order (same-name label sets are adjacent in BTreeMap order).
    for (kind, iter) in [
        ("counter", reg.counters().collect::<Vec<_>>()),
        ("gauge", reg.gauges().collect::<Vec<_>>()),
    ] {
        let mut last_family = String::new();
        for (key, value) in iter {
            let family = sanitize_name(key.name());
            if family != last_family {
                header(&mut out, &family, kind);
                last_family = family.clone();
            }
            let _ = writeln!(
                out,
                "{family}{} {}",
                label_block(key, None),
                fmt_value(value)
            );
        }
    }

    // Histograms: cumulative buckets + _sum/_count, exemplars attached
    // to the bucket their value belongs to (latest exemplar wins).
    let mut last_family = String::new();
    for (key, hist) in reg.histograms() {
        let family = sanitize_name(key.name());
        if family != last_family {
            header(&mut out, &family, "histogram");
            last_family = family.clone();
        }
        // Latest exemplar per bucket upper bound.
        let mut by_bucket: Vec<(f64, &crate::metrics::Exemplar)> = Vec::new();
        for ex in reg.exemplars(key) {
            let le = bucket_upper_bound(ex.value);
            match by_bucket.iter_mut().find(|(b, _)| *b == le) {
                Some(slot) => slot.1 = ex,
                None => by_bucket.push((le, ex)),
            }
        }
        let mut cumulative = 0u64;
        for (le, count) in hist.buckets() {
            cumulative += count;
            let le_text = format!("{le}");
            let _ = write!(
                out,
                "{family}_bucket{} {cumulative}",
                label_block(key, Some(("le", &le_text)))
            );
            if let Some((_, ex)) = by_bucket.iter().find(|(b, _)| *b == le) {
                let _ = write!(
                    out,
                    " # {{trace_id=\"{}\"}} {}",
                    escape_label(&ex.trace_id),
                    fmt_value(ex.value)
                );
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{family}_bucket{} {}",
            label_block(key, Some(("le", "+Inf"))),
            hist.count()
        );
        let _ = writeln!(
            out,
            "{family}_sum{} {}",
            label_block(key, None),
            fmt_value(hist.sum())
        );
        let _ = writeln!(
            out,
            "{family}_count{} {}",
            label_block(key, None),
            hist.count()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_labels_are_sanitized_and_escaped() {
        assert_eq!(
            sanitize_name("serve_requests_total"),
            "serve_requests_total"
        );
        assert_eq!(sanitize_name("9bad-name"), "_bad_name");
        assert_eq!(escape_label("GCD0->GCD1"), "GCD0->GCD1");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn exposition_carries_type_help_and_samples() {
        let mut r = MetricsRegistry::new();
        r.counter_add(
            MetricKey::new("serve_requests_total")
                .with("op", "run")
                .with("code", "200"),
            3.0,
        );
        r.counter_add(
            MetricKey::new("serve_requests_total")
                .with("op", "ping")
                .with("code", "200"),
            1.0,
        );
        r.gauge_set(MetricKey::new("serve_queue_depth"), 2.0);
        let text = render_prometheus(&r);
        assert!(text.contains("# HELP serve_requests_total "));
        assert!(text.contains("# TYPE serve_requests_total counter"));
        assert!(text.contains("serve_requests_total{code=\"200\",op=\"run\"} 3"));
        assert!(text.contains("serve_requests_total{code=\"200\",op=\"ping\"} 1"));
        assert!(text.contains("# TYPE serve_queue_depth gauge"));
        assert!(text.contains("serve_queue_depth 2"));
        // One TYPE header per family even with several label sets.
        assert_eq!(text.matches("# TYPE serve_requests_total").count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_closed_by_inf() {
        let mut r = MetricsRegistry::new();
        let k = MetricKey::new("lat").with("op", "run");
        for v in [1.0, 2.0, 4.0, 8.0, 8.5] {
            r.observe(k.clone(), v);
        }
        let text = render_prometheus(&r);
        assert!(text.contains("# TYPE lat histogram"));
        // Cumulative counts never decrease and end at the total.
        let mut last = 0u64;
        let mut saw_inf = false;
        for line in text.lines().filter(|l| l.starts_with("lat_bucket")) {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "cumulative: {line}");
            last = count;
            if line.contains("le=\"+Inf\"") {
                saw_inf = true;
                assert_eq!(count, 5);
            }
        }
        assert!(saw_inf, "+Inf bucket closes the family");
        assert!(text.contains("lat_count{op=\"run\"} 5"));
        assert!(text.contains("lat_sum{op=\"run\"} 23.5"));
    }

    #[test]
    fn exemplars_attach_to_their_bucket() {
        let mut r = MetricsRegistry::new();
        let k = MetricKey::new("lat");
        r.observe_with_exemplar(k.clone(), 100.0, "t-slow");
        r.observe_with_exemplar(k.clone(), 1.0, "t-fast");
        let text = render_prometheus(&r);
        let slow_line = text
            .lines()
            .find(|l| l.contains("t-slow"))
            .expect("exemplar rendered");
        assert!(slow_line.starts_with("lat_bucket{le=\""));
        assert!(slow_line.contains("# {trace_id=\"t-slow\"} 100"));
        assert!(text.contains("t-fast"));
        // The +Inf bucket itself never carries an exemplar (values land
        // in their finite bucket first).
        let inf_line = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("inf bucket");
        assert!(!inf_line.contains("trace_id"));
    }

    #[test]
    fn empty_registry_renders_empty_exposition() {
        assert_eq!(render_prometheus(&MetricsRegistry::new()), "");
    }
}
