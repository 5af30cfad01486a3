//! The unified event timeline: spans and instants from many sources,
//! merged into one deterministic order.

use ifsim_des::Time;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The text of an event: its name, an arg key or an arg value.
///
/// Text that many events repeat (a route, a link's counter track, a device
/// number) is rendered once and shared; text unique to one event (an op's
/// or a flow's name) is owned by it; keys are literals. Whichever form
/// holds it, a `Text` derefs to `str` and compares and orders by its
/// content.
#[derive(Clone)]
pub enum Text {
    /// A literal.
    Static(&'static str),
    /// Rendered once, shared by every event that carries it.
    Shared(Arc<str>),
    /// Unique to its event.
    Owned(String),
}

impl Text {
    /// Share `s`: every clone of the result points at one allocation.
    pub fn shared(s: &str) -> Text {
        Text::Shared(Arc::from(s))
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match self {
            Text::Static(s) => s,
            Text::Shared(s) => s,
            Text::Owned(s) => s,
        }
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&'static str> for Text {
    fn from(s: &'static str) -> Text {
        Text::Static(s)
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::Owned(s)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// `Text == s` and `s == Text` by content, for each string type `s`.
macro_rules! text_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Text {
            fn eq(&self, other: &$t) -> bool {
                self.as_str() == AsRef::<str>::as_ref(other)
            }
        }

        impl PartialEq<Text> for $t {
            fn eq(&self, other: &Text) -> bool {
                AsRef::<str>::as_ref(self) == other.as_str()
            }
        }
    )*};
}

text_eq!(str, &str, String);

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
    pub name: Text,
    /// Category (`hip_op`, `fabric_flow`, `fault`) — Perfetto filters on it.
    pub cat: &'static str,
    /// Process id lane group; 0 until a collector assigns one per simulator.
    pub pid: u32,
    /// Thread id within the process (stream lane, fabric lane).
    pub tid: u32,
    /// Extra key/value detail rendered into the trace `args`.
    pub args: Vec<(Text, Text)>,
}

impl TimelineEvent {
    /// A span starting at `start` and ending at `end`.
    pub fn span(start: Time, end: Time, name: impl Into<Text>, cat: &'static str) -> TimelineEvent {
        TimelineEvent {
            ts_ns: start.as_ns(),
            kind: EventKind::Span {
                dur_ns: (end - start).as_ns(),
            },
            name: name.into(),
            cat,
            pid: 0,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// An instant at `at`.
    pub fn instant(at: Time, name: impl Into<Text>, cat: &'static str) -> TimelineEvent {
        TimelineEvent {
            ts_ns: at.as_ns(),
            kind: EventKind::Instant,
            name: name.into(),
            cat,
            pid: 0,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// A counter sample at `at`.
    pub fn counter(
        at: Time,
        name: impl Into<Text>,
        cat: &'static str,
        value: f64,
    ) -> TimelineEvent {
        TimelineEvent {
            ts_ns: at.as_ns(),
            kind: EventKind::Counter { value },
            name: name.into(),
            cat,
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
    pub fn with_arg(mut self, key: impl Into<Text>, value: impl Into<Text>) -> TimelineEvent {
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
            name: Text::Owned(name.to_string()),
            cat: "test",
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
        assert_eq!(e.args, vec![(Text::from("dev"), Text::from("0"))]);
        let i = TimelineEvent::instant(Time::from_ns(7.0), "mark", "fault");
        assert_eq!(i.end_ns(), 7.0);
        let c = TimelineEvent::counter(Time::from_ns(9.0), "fabric util x", "fabric_util", 0.5);
        assert_eq!(c.end_ns(), 9.0);
        assert_eq!(c.kind, EventKind::Counter { value: 0.5 });
    }

    #[test]
    fn text_compares_by_content_whatever_holds_it() {
        let forms = [
            Text::from("GCD0->GCD1"),
            Text::shared("GCD0->GCD1"),
            Text::from("GCD0->GCD1".to_string()),
        ];
        let (s, owned): (&str, String) = ("GCD0->GCD1", "GCD0->GCD1".into());
        for a in &forms {
            for b in &forms {
                assert_eq!(a, b);
                assert_eq!(a.cmp(b), std::cmp::Ordering::Equal);
            }
            assert_eq!(*a, s);
            assert_eq!(s, *a);
            assert_eq!(*a, *s);
            assert_eq!(*a, owned);
            assert_eq!(owned, *a);
            assert_eq!(format!("{a} {a:?}"), "GCD0->GCD1 \"GCD0->GCD1\"");
            assert_eq!(a.split("->").count(), 2, "derefs to str");
        }
        let (a, b) = (Text::from("a"), Text::shared("b"));
        assert!(a < b);
        // A shared text's clones point at one allocation.
        let (Text::Shared(a), Text::Shared(b)) = (forms[1].clone(), forms[1].clone()) else {
            unreachable!("clones keep their form");
        };
        assert!(Arc::ptr_eq(&a, &b));
        // The one lookup the stack bench makes: `&(Text, Text)` against `&str`.
        let args = [(Text::from("route"), Text::shared("HBM GCD0"))];
        let k: &str = "route";
        let found = args.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert_eq!(found.map(|v| v.as_str()), Some("HBM GCD0"));
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
