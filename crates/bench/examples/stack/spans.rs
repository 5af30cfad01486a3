//! The bench's own spans: every call the bench makes into a layer is timed
//! here, and in a traced run also kept in memory (name, start, duration,
//! parent) and written out as one Chrome trace when the run ends.

use serde_json::{Map, Value};
use std::time::Instant;

/// One timed call.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    tid: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// Times calls; when recording, keeps a [`Span`] per call. Each thread
/// owns one, with its own `tid`, so ids never collide across threads.
pub struct Spans {
    origin: Instant,
    tid: u32,
    next: u64,
    recorded: Option<Vec<Span>>,
}

impl Spans {
    /// A timer for thread lane `tid`; `record` keeps the spans.
    pub fn new(origin: Instant, tid: u32, record: bool) -> Spans {
        Spans {
            origin,
            tid,
            next: 0,
            recorded: record.then(Vec::new),
        }
    }

    /// Whether spans are being kept.
    pub fn recording(&self) -> bool {
        self.recorded.is_some()
    }

    /// Run `f` as a span named `name` under `parent` (0 for a root) and
    /// return its result with the elapsed seconds. `f` receives this
    /// recorder and the new span's id, to open child spans.
    pub fn span<T>(
        &mut self,
        parent: u64,
        name: &'static str,
        f: impl FnOnce(&mut Spans, u64) -> T,
    ) -> (T, f64) {
        let id = match self.recorded {
            Some(_) => {
                self.next += 1;
                (u64::from(self.tid) << 32) | self.next
            }
            None => 0,
        };
        let t0 = Instant::now();
        let out = f(self, id);
        let dur = t0.elapsed();
        if let Some(rec) = &mut self.recorded {
            rec.push(Span {
                id,
                parent,
                name,
                tid: self.tid,
                start_ns: t0.duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        }
        (out, dur.as_secs_f64())
    }

    /// Hand over the kept spans (empty when not recording).
    pub fn take(&mut self) -> Vec<Span> {
        self.recorded
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Move another thread's kept spans into this recorder.
    pub fn absorb(&mut self, other: &mut Spans) {
        let spans = other.take();
        if let Some(rec) = &mut self.recorded {
            rec.extend(spans);
        }
    }
}

/// The spans as Chrome trace-event JSON (`ph: "X"`, microseconds), with
/// each span's id and parent id in its `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = Map::new();
            args.insert("id", Value::from(s.id));
            args.insert("parent", Value::from(s.parent));
            let mut e = Map::new();
            e.insert("name", Value::from(s.name));
            e.insert("cat", Value::from("stack"));
            e.insert("ph", Value::from("X"));
            e.insert("ts", Value::from(s.start_ns as f64 / 1e3));
            e.insert("dur", Value::from(s.dur_ns as f64 / 1e3));
            e.insert("pid", Value::from(1u64));
            e.insert("tid", Value::from(s.tid));
            e.insert("args", Value::Object(args));
            Value::Object(e)
        })
        .collect();
    let mut root = Map::new();
    root.insert("traceEvents", Value::Array(events));
    serde_json::to_string(&Value::Object(root))
}
