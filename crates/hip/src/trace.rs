//! Execution tracing: a per-op timeline of what ran where and when.
//!
//! Tracing is off by default (zero overhead beyond a branch); enabling it
//! records one [`TraceEvent`] per completed op, aborted attempt, failed op
//! and applied fault. Events hold typed data ([`TraceKind`]); the label
//! text is rendered only when a timeline is exported. The timeline powers
//! profiler-style analysis in tests and the `fabric_heatmap` example, and
//! renders as an ASCII Gantt chart for quick inspection — the simulator's
//! answer to `rocprof`.

use crate::device::DeviceId;
use crate::error::HipError;
use crate::op::OpLabel;
use crate::stream::StreamId;
use ifsim_des::Time;
use ifsim_fabric::FaultKind;
use std::fmt::{self, Write as _};

/// What a timeline entry records. `Display` renders its label.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceKind {
    /// An op that completed (`memcpy_peer 16B`).
    Done(OpLabel),
    /// An attempt a fault tore down; the op runs again as attempt
    /// `retry` (`memcpy_peer 16B [aborted; retry 1]`).
    Aborted {
        /// The op.
        op: OpLabel,
        /// The attempt that follows.
        retry: u32,
    },
    /// An op that failed its stream (`memcpy_peer 16B [failed: ...]`).
    Failed {
        /// The op.
        op: OpLabel,
        /// The stream's sticky error.
        err: HipError,
    },
    /// A fault applied to the fabric, as a zero-length marker
    /// (`!fault: link down GCD0<->GCD6`).
    Fault(FaultKind),
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::Done(op) => write!(f, "{op}"),
            TraceKind::Aborted { op, retry } => write!(f, "{op} [aborted; retry {retry}]"),
            TraceKind::Failed { op, err } => write!(f, "{op} [failed: {err}]"),
            TraceKind::Fault(kind) => write!(f, "!fault: {kind}"),
        }
    }
}

/// One entry on the timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Logical device the op ran on.
    pub dev: DeviceId,
    /// Stream it was queued to.
    pub stream: StreamId,
    /// When the op left the queue (latency phase began).
    pub start: Time,
    /// When the op completed (effects applied).
    pub end: Time,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Duration of the op.
    pub fn duration(&self) -> ifsim_des::Dur {
        self.end - self.start
    }
}

/// The recorded timeline.
#[derive(Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Start recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stop recording (events are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Discard all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Record one event (no-op when disabled).
    pub fn record(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// As [`Trace::record`], but the event is built lazily: with tracing
    /// disabled the closure never runs, so building the event (cloning its
    /// op label) costs nothing.
    pub fn record_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.events.push(f());
        }
    }

    /// All recorded events, in completion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events on one device.
    pub fn events_on(&self, dev: DeviceId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.dev == dev)
    }

    /// Busy time of a device: union length of its op intervals. Events on
    /// different streams may overlap; overlapping intervals count once.
    pub fn busy_time(&self, dev: DeviceId) -> ifsim_des::Dur {
        let mut spans: Vec<(f64, f64)> = self
            .events_on(dev)
            .map(|e| (e.start.as_ns(), e.end.as_ns()))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in spans {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                    let _ = cs;
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        ifsim_des::Dur::from_ns(total)
    }

    /// Render an ASCII Gantt chart, one row per (device, stream), `width`
    /// columns spanning the full recorded time range.
    pub fn render_gantt(&self, width: usize) -> String {
        assert!(width >= 10, "gantt needs at least 10 columns");
        if self.events.is_empty() {
            return "trace: no events recorded\n".into();
        }
        let t0 = self
            .events
            .iter()
            .map(|e| e.start.as_ns())
            .fold(f64::INFINITY, f64::min);
        let t1 = self
            .events
            .iter()
            .map(|e| e.end.as_ns())
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (t1 - t0).max(1e-9);
        let mut rows: Vec<(DeviceId, StreamId)> =
            self.events.iter().map(|e| (e.dev, e.stream)).collect();
        rows.sort();
        rows.dedup();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline: {} .. {} ({})",
            ifsim_des::units::fmt_ns(t0),
            ifsim_des::units::fmt_ns(t1),
            ifsim_des::units::fmt_ns(span),
        );
        for (dev, stream) in rows {
            let mut lane = vec!['.'; width];
            for e in self
                .events
                .iter()
                .filter(|e| e.dev == dev && e.stream == stream)
            {
                let a = (((e.start.as_ns() - t0) / span) * width as f64).floor() as usize;
                let b = (((e.end.as_ns() - t0) / span) * width as f64).ceil() as usize;
                let glyph = e.kind.to_string().chars().next().unwrap_or('#');
                for c in lane.iter_mut().take(b.min(width)).skip(a.min(width - 1)) {
                    *c = glyph;
                }
            }
            let _ = writeln!(
                out,
                "dev{:<2} {:<10} |{}|",
                dev.idx(),
                format!("{stream:?}"),
                lane.iter().collect::<String>()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(dev: usize, stream: u64, start: f64, end: f64, label: &str) -> TraceEvent {
        TraceEvent {
            dev: DeviceId(dev),
            stream: StreamId(stream),
            start: Time::from_ns(start),
            end: Time::from_ns(end),
            kind: TraceKind::Done(label.into()),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.record(ev(0, 0, 0.0, 10.0, "kernel"));
        t.record_with(|| panic!("lazy event must not be built while disabled"));
        assert!(t.events().is_empty());
        t.enable();
        t.record_with(|| ev(0, 0, 0.0, 10.0, "kernel"));
        assert_eq!(t.events().len(), 1);
        t.disable();
        t.record(ev(0, 0, 10.0, 20.0, "kernel"));
        assert_eq!(t.events().len(), 1);
        t.clear();
        assert!(t.events().is_empty());
    }

    #[test]
    fn busy_time_merges_overlaps() {
        let mut t = Trace::default();
        t.enable();
        t.record(ev(0, 0, 0.0, 10.0, "a"));
        t.record(ev(0, 1, 5.0, 15.0, "b")); // overlaps on another stream
        t.record(ev(0, 0, 20.0, 25.0, "c"));
        t.record(ev(1, 2, 0.0, 100.0, "other device"));
        assert_eq!(t.busy_time(DeviceId(0)).as_ns(), 20.0); // [0,15] + [20,25]
        assert_eq!(t.busy_time(DeviceId(1)).as_ns(), 100.0);
        assert_eq!(t.busy_time(DeviceId(2)).as_ns(), 0.0);
    }

    #[test]
    fn gantt_renders_one_lane_per_stream() {
        let mut t = Trace::default();
        t.enable();
        t.record(ev(0, 0, 0.0, 50.0, "kernel x"));
        t.record(ev(0, 1, 50.0, 100.0, "memcpy"));
        let g = t.render_gantt(40);
        assert!(g.contains("dev0"));
        assert_eq!(g.lines().count(), 3); // header + 2 lanes
        assert!(g.contains('k'), "kernel glyph");
        assert!(g.contains('m'), "memcpy glyph");
    }

    #[test]
    fn kinds_render_the_timeline_labels() {
        use ifsim_topology::GcdId;
        let op = || OpLabel::MemcpyPeer { bytes: 1 << 30 };
        assert_eq!(TraceKind::Done(op()).to_string(), "memcpy_peer 1073741824B");
        assert_eq!(
            TraceKind::Aborted { op: op(), retry: 1 }.to_string(),
            "memcpy_peer 1073741824B [aborted; retry 1]"
        );
        assert_eq!(
            TraceKind::Failed {
                op: op(),
                err: HipError::InvalidValue("x".into()),
            }
            .to_string(),
            format!(
                "memcpy_peer 1073741824B [failed: {}]",
                HipError::InvalidValue("x".into())
            )
        );
        let down = FaultKind::LinkDown {
            a: GcdId(0),
            b: GcdId(6),
        };
        assert_eq!(
            TraceKind::Fault(down).to_string(),
            "!fault: link down GCD0<->GCD6"
        );
    }

    #[test]
    fn empty_trace_renders_gracefully() {
        let t = Trace::default();
        assert!(t.render_gantt(40).contains("no events"));
    }

    #[test]
    fn events_filter_by_device() {
        let mut t = Trace::default();
        t.enable();
        t.record(ev(0, 0, 0.0, 1.0, "a"));
        t.record(ev(3, 3, 0.0, 1.0, "b"));
        assert_eq!(t.events_on(DeviceId(3)).count(), 1);
        assert_eq!(
            t.events_on(DeviceId(0)).next().unwrap().kind,
            TraceKind::Done("a".into())
        );
    }
}
