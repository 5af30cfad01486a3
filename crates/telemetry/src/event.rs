//! The unified event timeline: spans and instants from many sources,
//! merged into one deterministic order.

use ifsim_des::Time;

/// Shape of a timeline event.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// An interval with a duration (a hip op, a fabric flow).
    Span {
        /// Duration in nanoseconds.
        dur_ns: f64,
    },
    /// A point event (fault marker, flow abort, reroute).
    Instant,
    /// A sampled counter value (link utilization at a recompute epoch).
    /// Exported as a Chrome `ph: "C"` event; each distinct name becomes a
    /// counter track.
    Counter {
        /// Sampled value at `ts_ns`.
        value: f64,
    },
}

/// One event on the merged timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineEvent {
    /// Start timestamp in nanoseconds of virtual time.
    pub ts_ns: f64,
    /// Span or instant.
    pub kind: EventKind,
    /// Display name (`memcpy 64B`, `flow 12`, `!fault: ...`).
    pub name: String,
    /// Category (`hip_op`, `fabric_flow`, `fault`) — Perfetto filters on it.
    pub cat: String,
    /// Process id lane group; 0 until a collector assigns one per simulator.
    pub pid: u32,
    /// Thread id within the process (stream lane, fabric lane).
    pub tid: u32,
    /// Extra key/value detail rendered into the trace `args`.
    pub args: Vec<(String, String)>,
}

impl TimelineEvent {
    /// A span starting at `start` and ending at `end`.
    pub fn span(start: Time, end: Time, name: impl Into<String>, cat: &str) -> TimelineEvent {
        TimelineEvent {
            ts_ns: start.as_ns(),
            kind: EventKind::Span {
                dur_ns: (end - start).as_ns(),
            },
            name: name.into(),
            cat: cat.to_string(),
            pid: 0,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// An instant at `at`.
    pub fn instant(at: Time, name: impl Into<String>, cat: &str) -> TimelineEvent {
        TimelineEvent {
            ts_ns: at.as_ns(),
            kind: EventKind::Instant,
            name: name.into(),
            cat: cat.to_string(),
            pid: 0,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// A counter sample at `at`.
    pub fn counter(at: Time, name: impl Into<String>, cat: &str, value: f64) -> TimelineEvent {
        TimelineEvent {
            ts_ns: at.as_ns(),
            kind: EventKind::Counter { value },
            name: name.into(),
            cat: cat.to_string(),
            pid: 0,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// Set the thread lane.
    pub fn on_tid(mut self, tid: u32) -> TimelineEvent {
        self.tid = tid;
        self
    }

    /// Append one args entry.
    pub fn with_arg(mut self, key: impl Into<String>, value: impl Into<String>) -> TimelineEvent {
        self.args.push((key.into(), value.into()));
        self
    }

    /// End timestamp (start for instants).
    pub fn end_ns(&self) -> f64 {
        match self.kind {
            EventKind::Span { dur_ns } => self.ts_ns + dur_ns,
            EventKind::Instant | EventKind::Counter { .. } => self.ts_ns,
        }
    }
}

/// Accumulates events from any number of sources and yields them in one
/// deterministic time order: by `(ts, pid, tid)`, with insertion order
/// breaking exact ties (stable sort).
#[derive(Clone, Debug, Default)]
pub struct EventSink {
    events: Vec<TimelineEvent>,
}

impl EventSink {
    /// An empty sink.
    pub fn new() -> EventSink {
        EventSink::default()
    }

    /// Add one event.
    pub fn push(&mut self, ev: TimelineEvent) {
        self.events.push(ev);
    }

    /// Add a batch of events.
    pub fn extend(&mut self, evs: impl IntoIterator<Item = TimelineEvent>) {
        self.events.extend(evs);
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events in insertion order (unsorted).
    pub fn raw(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// The merged timeline, borrowed: sorted by timestamp, then pid, then
    /// tid, with insertion order as the final (stable) tie-break.
    pub fn ordered(&self) -> Vec<&TimelineEvent> {
        let mut out: Vec<&TimelineEvent> = self.events.iter().collect();
        out.sort_by(|a, b| timeline_order(a, b));
        out
    }

    /// The merged timeline by value, in [`EventSink::ordered`]'s order,
    /// sorted in place without copying an event.
    pub fn into_sorted(mut self) -> Vec<TimelineEvent> {
        self.events.sort_by(timeline_order);
        self.events
    }
}

fn timeline_order(a: &TimelineEvent, b: &TimelineEvent) -> std::cmp::Ordering {
    a.ts_ns
        .total_cmp(&b.ts_ns)
        .then(a.pid.cmp(&b.pid))
        .then(a.tid.cmp(&b.tid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: f64, pid: u32, tid: u32, name: &str) -> TimelineEvent {
        TimelineEvent {
            ts_ns: ts,
            kind: EventKind::Instant,
            name: name.into(),
            cat: "test".into(),
            pid,
            tid,
            args: vec![],
        }
    }

    #[test]
    fn ordered_sorts_by_time_then_lane() {
        let mut s = EventSink::new();
        s.push(ev(5.0, 0, 1, "c"));
        s.push(ev(1.0, 1, 0, "b"));
        s.push(ev(1.0, 0, 2, "a"));
        let names: Vec<&str> = s.ordered().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn exact_ties_keep_insertion_order() {
        let mut s = EventSink::new();
        s.push(ev(2.0, 0, 0, "first"));
        s.push(ev(1.0, 0, 0, "early"));
        s.push(ev(2.0, 0, 0, "second"));
        let names: Vec<&str> = s.ordered().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["early", "first", "second"]);
    }

    #[test]
    fn into_sorted_matches_the_borrowed_order() {
        let mut s = EventSink::new();
        for (i, ts) in [3.0, 1.0, 3.0, 2.0, 1.0, 3.0].into_iter().enumerate() {
            s.push(ev(ts, (i % 2) as u32, 0, &i.to_string()));
        }
        let borrowed: Vec<TimelineEvent> = s.ordered().into_iter().cloned().collect();
        assert_eq!(s.into_sorted(), borrowed);
    }

    #[test]
    fn span_builders_compute_end() {
        let e = TimelineEvent::span(Time::from_ns(10.0), Time::from_ns(30.0), "op", "hip_op")
            .on_tid(3)
            .with_arg("dev", "0");
        assert_eq!(e.ts_ns, 10.0);
        assert_eq!(e.end_ns(), 30.0);
        assert_eq!(e.tid, 3);
        assert_eq!(e.args, vec![("dev".to_string(), "0".to_string())]);
        let i = TimelineEvent::instant(Time::from_ns(7.0), "mark", "fault");
        assert_eq!(i.end_ns(), 7.0);
        let c = TimelineEvent::counter(Time::from_ns(9.0), "fabric util x", "fabric_util", 0.5);
        assert_eq!(c.end_ns(), 9.0);
        assert_eq!(c.kind, EventKind::Counter { value: 0.5 });
    }

    #[test]
    fn extend_and_len() {
        let mut s = EventSink::new();
        assert!(s.is_empty());
        s.extend(vec![ev(1.0, 0, 0, "x"), ev(2.0, 0, 0, "y")]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.raw()[0].name, "x");
    }
}
