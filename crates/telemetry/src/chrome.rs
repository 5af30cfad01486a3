//! Chrome trace-event JSON export.
//!
//! Produces the `{"traceEvents": [...]}` object format understood by
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`: complete
//! spans (`ph: "X"`) with microsecond `ts`/`dur`, global instants
//! (`ph: "i"`), counter samples (`ph: "C"`, one track per name — the
//! flight recorder's link-utilization series), and name metadata records
//! (`ph: "M"`) for process and thread lanes.
//!
//! The document is streamed: the timeline is sorted as borrows and every
//! record is written straight into one pre-sized `String` with the JSON
//! shim's own number and string formatting, so the bytes are what
//! `serde_json::to_string` would print for the same records. Metadata
//! records come first (processes in ingestion order, then threads), then
//! every event in [`crate::EventSink::ordered`] order, so `ts` never goes
//! backwards after the metadata.

use crate::collector::CollectedTelemetry;
use crate::event::{EventKind, Text, TimelineEvent};
use serde_json::{write_number, write_string};

/// Bytes one record takes beyond its strings: keys, punctuation and the
/// printed numbers of the longest (span) record, rounded up.
const RECORD_BYTES: usize = 128;

/// The Chrome trace-event document for a collection, as JSON text.
pub fn chrome_trace_string(t: &CollectedTelemetry) -> String {
    let events = t.events();
    let mut out = String::with_capacity(size_hint(t, &events));
    out.push_str("{\"traceEvents\":[");
    // Lane-name metadata first, as the format recommends.
    for (pid, name) in t.processes() {
        metadata(&mut out, "process_name", *pid, 0, name);
    }
    for ((pid, tid), name) in t.threads() {
        metadata(&mut out, "thread_name", *pid, *tid, name);
    }
    for ev in events {
        event(&mut out, ev);
    }
    // Every record ends in a comma; the last one closes the array instead.
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// An upper estimate of the document's length for typical traces (strings
/// that escape grow past it, and `String` reallocates as usual).
fn size_hint(t: &CollectedTelemetry, events: &[&TimelineEvent]) -> usize {
    let lanes = t.processes().iter().map(|(_, n)| n.len());
    let lanes = lanes.chain(t.threads().iter().map(|(_, n)| n.len()));
    let metadata: usize = lanes.map(|n| RECORD_BYTES + n).sum();
    let strings = |ev: &TimelineEvent| {
        let args: usize = ev.args.iter().map(|(k, v)| k.len() + v.len() + 6).sum();
        ev.name.len() + ev.cat.len() + args
    };
    let events: usize = events.iter().map(|ev| RECORD_BYTES + strings(ev)).sum();
    metadata + events + 64
}

fn metadata(out: &mut String, kind: &str, pid: u32, tid: u32, name: &str) {
    out.push_str("{\"name\":");
    write_string(out, kind);
    out.push_str(",\"ph\":\"M\",\"ts\":0");
    lane(out, pid, tid);
    out.push_str(",\"args\":{\"name\":");
    write_string(out, name);
    out.push_str("}},");
}

fn lane(out: &mut String, pid: u32, tid: u32) {
    out.push_str(",\"pid\":");
    write_number(out, f64::from(pid));
    out.push_str(",\"tid\":");
    write_number(out, f64::from(tid));
}

fn event(out: &mut String, ev: &TimelineEvent) {
    out.push_str("{\"name\":");
    write_string(out, &ev.name);
    out.push_str(",\"cat\":");
    write_string(out, ev.cat);
    lane(out, ev.pid, ev.tid);
    out.push_str(",\"ts\":");
    write_number(out, ev.ts_ns / 1000.0);
    match ev.kind {
        EventKind::Span { dur_ns } => {
            out.push_str(",\"ph\":\"X\",\"dur\":");
            write_number(out, dur_ns / 1000.0);
            args(out, &ev.args);
        }
        EventKind::Instant => {
            // Instant scope: process-wide.
            out.push_str(",\"ph\":\"i\",\"s\":\"p\"");
            args(out, &ev.args);
        }
        EventKind::Counter { value } => {
            // Counter tracks read their series values from numeric args;
            // one "value" series per track name.
            out.push_str(",\"ph\":\"C\",\"args\":{\"value\":");
            write_number(out, value);
            out.push('}');
        }
    }
    out.push_str("},");
}

/// The `args` object, omitted when empty. A repeated key is written once,
/// at its first position, with its last value — JSON object semantics.
fn args(out: &mut String, args: &[(Text, Text)]) {
    if args.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (key, _)) in args.iter().enumerate() {
        if args[..i].iter().any(|(k, _)| k == key) {
            continue;
        }
        let value = &args[i..]
            .iter()
            .rfind(|(k, _)| k == key)
            .expect("key at i")
            .1;
        if i > 0 {
            out.push(',');
        }
        write_string(out, key);
        out.push(':');
        write_string(out, value);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::SimTelemetry;
    use crate::event::TimelineEvent;
    use crate::metrics::MetricsRegistry;
    use ifsim_des::Time;

    fn collection() -> CollectedTelemetry {
        let mut c = CollectedTelemetry::new();
        c.ingest(SimTelemetry {
            process_name: "hipsim".into(),
            events: vec![
                TimelineEvent::span(Time::from_ns(1000.0), Time::from_ns(3000.0), "op", "hip_op")
                    .on_tid(1)
                    .with_arg("dev", "0"),
                TimelineEvent::instant(Time::from_ns(2000.0), "!fault: link down", "fault"),
            ],
            threads: vec![(1, "dev0/stream#1".into())],
            metrics: MetricsRegistry::new(),
            dag: None,
        });
        c
    }

    #[test]
    fn export_round_trips_with_required_fields() {
        let text = collection().chrome_trace_string();
        let v = serde_json::from_str(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        for ev in events {
            for field in ["name", "ph", "ts", "pid", "tid"] {
                assert!(ev.get(field).is_some(), "missing {field} in {ev:?}");
            }
        }
        let span = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("a complete span");
        // 2000 ns span → 2 µs dur at ts 1 µs.
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            span.get("args").unwrap().get("dev").unwrap().as_str(),
            Some("0")
        );
        let instant = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .expect("an instant");
        assert_eq!(instant.get("s").unwrap().as_str(), Some("p"));
    }

    #[test]
    fn counters_export_as_counter_tracks() {
        let mut c = CollectedTelemetry::new();
        c.ingest(SimTelemetry {
            process_name: "hipsim".into(),
            events: vec![
                TimelineEvent::counter(
                    Time::from_ns(1000.0),
                    "fabric util GCD0->GCD1",
                    "fabric_util",
                    0.75,
                ),
                TimelineEvent::counter(
                    Time::from_ns(2000.0),
                    "fabric util GCD0->GCD1",
                    "fabric_util",
                    0.0,
                ),
            ],
            threads: vec![],
            metrics: MetricsRegistry::new(),
            dag: None,
        });
        let v = serde_json::from_str(&c.chrome_trace_string()).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            counters[0]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.75)
        );
        assert_eq!(
            counters[0].get("name").unwrap().as_str(),
            Some("fabric util GCD0->GCD1")
        );
    }

    #[test]
    fn export_names_process_and_thread_lanes() {
        let v = serde_json::from_str(&collection().chrome_trace_string()).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert!(metas
            .iter()
            .any(|m| m.get("name").unwrap().as_str() == Some("process_name")));
        assert!(metas.iter().any(|m| {
            m.get("name").unwrap().as_str() == Some("thread_name")
                && m.get("args").unwrap().get("name").unwrap().as_str() == Some("dev0/stream#1")
        }));
    }

    #[test]
    fn export_bytes_are_pinned() {
        let text = collection().chrome_trace_string();
        assert_eq!(
            text,
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"hipsim #0"}},"#,
                r#"{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"dev0/stream#1"}},"#,
                r#"{"name":"op","cat":"hip_op","pid":0,"tid":1,"ts":1,"ph":"X","dur":2,"args":{"dev":"0"}},"#,
                r#"{"name":"!fault: link down","cat":"fault","pid":0,"tid":0,"ts":2,"ph":"i","s":"p"}"#,
                r#"],"displayTimeUnit":"ns"}"#,
            )
        );
        assert!(text.len() <= size_hint(&collection(), &collection().events()));
        let empty = CollectedTelemetry::new().chrome_trace_string();
        assert_eq!(empty, r#"{"traceEvents":[],"displayTimeUnit":"ns"}"#);
    }

    #[test]
    fn repeated_arg_keys_keep_first_position_and_last_value() {
        let mut c = CollectedTelemetry::new();
        c.ingest(SimTelemetry {
            process_name: "p".into(),
            events: vec![TimelineEvent::instant(Time::from_ns(0.0), "e", "c")
                .with_arg("a", "1")
                .with_arg("b", "2")
                .with_arg("a", "3")
                .with_arg("c", "\"q\"\n")
                .with_arg("b", "4")],
            threads: vec![],
            metrics: MetricsRegistry::new(),
            dag: None,
        });
        let text = c.chrome_trace_string();
        assert!(
            text.contains(r#""args":{"a":"3","b":"4","c":"\"q\"\n"}}"#),
            "{text}"
        );
    }

    #[test]
    fn non_finite_numbers_export_as_null() {
        let mut span = TimelineEvent::instant(Time::from_ns(2.5), "s", "x");
        span.kind = EventKind::Span {
            dur_ns: f64::INFINITY,
        };
        let mut c = CollectedTelemetry::new();
        c.ingest(SimTelemetry {
            process_name: "p".into(),
            events: vec![
                TimelineEvent::counter(Time::from_ns(1500.0), "u", "fabric_util", f64::NAN),
                span,
            ],
            threads: vec![],
            metrics: MetricsRegistry::new(),
            dag: None,
        });
        let text = c.chrome_trace_string();
        assert!(
            text.contains(r#""ts":0.0025,"ph":"X","dur":null}"#),
            "{text}"
        );
        assert!(
            text.contains(r#""ts":1.5,"ph":"C","args":{"value":null}}"#),
            "{text}"
        );
    }
}
