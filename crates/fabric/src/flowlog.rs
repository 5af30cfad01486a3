//! Flow lifecycle log: the fabric side of the telemetry timeline.
//!
//! Under [`crate::FlowNet::enable_capture`], the network records one
//! [`FlowEvent`] per lifecycle transition — created (with the segment ids
//! the flow traverses), completed (with its bottleneck attribution),
//! aborted — and the runtime layer appends reroute notes when a
//! fault-aborted op is re-planned. The log holds ids, not names: a route
//! becomes text only at export, through
//! [`crate::SegmentMap::route_label`]. Disabled (the default) it costs one
//! branch per transition and allocates nothing.

use crate::attr::BottleneckAttribution;
use crate::flow::FlowId;
use crate::seg::SegId;
use ifsim_des::Time;

/// What happened to a flow.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowEventKind {
    /// The flow entered the network.
    Created {
        /// Payload size in bytes.
        payload_bytes: f64,
        /// The segments the flow traverses, in route order.
        segs: Vec<SegId>,
    },
    /// The flow delivered its full payload.
    Completed {
        /// Bytes delivered (equals the payload up to numeric epsilon).
        delivered_bytes: f64,
        /// Where the flow's lifetime went, by binding constraint.
        attribution: BottleneckAttribution,
    },
    /// The flow was torn down early (fault, cancellation).
    Aborted {
        /// Bytes delivered before the abort.
        delivered_bytes: f64,
    },
    /// The owning op was re-planned over a different route (recorded by the
    /// runtime's retry path, after the original flow aborted).
    Rerouted {
        /// What changed (`retry 1 over ...`).
        note: String,
    },
}

impl FlowEventKind {
    /// Short lifecycle tag (`created` / `completed` / `aborted` /
    /// `rerouted`).
    pub fn tag(&self) -> &'static str {
        match self {
            FlowEventKind::Created { .. } => "created",
            FlowEventKind::Completed { .. } => "completed",
            FlowEventKind::Aborted { .. } => "aborted",
            FlowEventKind::Rerouted { .. } => "rerouted",
        }
    }
}

/// One lifecycle transition.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowEvent {
    /// When it happened (network time).
    pub at: Time,
    /// Which flow.
    pub flow: FlowId,
    /// What happened.
    pub kind: FlowEventKind,
}

/// The recorded lifecycle stream.
#[derive(Debug, Default)]
pub struct FlowLog {
    enabled: bool,
    events: Vec<FlowEvent>,
}

impl FlowLog {
    /// Start recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether transitions are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one transition, built lazily so the disabled path allocates
    /// nothing (no-op when disabled).
    pub fn push_with(&mut self, f: impl FnOnce() -> FlowEvent) {
        if self.enabled {
            self.events.push(f());
        }
    }

    /// All recorded transitions, in record order.
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// Count of transitions with a given lifecycle tag.
    pub fn count(&self, tag: &str) -> usize {
        self.events.iter().filter(|e| e.kind.tag() == tag).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(flow: u64, kind: FlowEventKind) -> FlowEvent {
        FlowEvent {
            at: Time::ZERO,
            flow: FlowId(flow),
            kind,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = FlowLog::default();
        log.push_with(|| panic!("must not be built while disabled"));
        assert!(log.events().is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn enabled_log_records_and_counts_by_tag() {
        let mut log = FlowLog::default();
        log.enable();
        log.push_with(|| {
            ev(
                0,
                FlowEventKind::Created {
                    payload_bytes: 8.0,
                    segs: vec![SegId(0), SegId(1)],
                },
            )
        });
        log.push_with(|| {
            ev(
                0,
                FlowEventKind::Aborted {
                    delivered_bytes: 4.0,
                },
            )
        });
        log.push_with(|| {
            ev(
                1,
                FlowEventKind::Rerouted {
                    note: "retry 1".into(),
                },
            )
        });
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.count("created"), 1);
        assert_eq!(log.count("aborted"), 1);
        assert_eq!(log.count("rerouted"), 1);
        assert_eq!(log.count("completed"), 0);
    }
}
