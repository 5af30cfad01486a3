//! Streams: in-order op queues per device.

use crate::device::DeviceId;
use crate::event::EventId;
use crate::kernel::KernelSpec;
use crate::op::{MemcpyKind, OpLabel};
use crate::plan::{Effect, OpPlan};
use ifsim_fabric::FlowSpec;
use ifsim_memory::{BufferId, MemSpace};
use ifsim_topology::GcdId;
use std::collections::VecDeque;
use std::fmt;

/// Handle to a stream. Stream 0 of each device is its default (null) stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

impl StreamId {
    /// The stream's position in its runtime's stream table: ids are dense
    /// from 0 and never reused. An id past `usize` maps past every table.
    pub(crate) fn idx(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

impl fmt::Debug for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// What a queued op will do when it reaches the head of the stream.
///
/// API-level ops are stored as *requests* and planned when they start, so
/// plans see the memory state left behind by earlier ops on the stream
/// (an async prefetch must change the plan of the kernel queued after it).
/// Submission validates the arguments by running the planner in its
/// check-only mode, which builds no flows or effects. Library-internal
/// submissions (`submit_plans`) carry a ready-made plan.
pub enum Work {
    /// Re-plan at execution time.
    Request(OpRequest),
    /// Use a pre-built plan as-is.
    Planned(OpPlan),
}

/// A replannable API-level operation.
#[derive(Clone, Debug)]
pub enum OpRequest {
    /// `hipMemcpy` family.
    Memcpy {
        /// Destination buffer.
        dst: BufferId,
        /// Destination offset.
        dst_off: u64,
        /// Source buffer.
        src: BufferId,
        /// Source offset.
        src_off: u64,
        /// Bytes.
        bytes: u64,
        /// Declared direction.
        kind: MemcpyKind,
    },
    /// Kernel launch.
    Kernel(KernelSpec),
    /// Managed-memory prefetch.
    Prefetch {
        /// Managed buffer.
        buf: BufferId,
        /// Target space.
        target: MemSpace,
    },
    /// `hipMemsetAsync`: fill a device buffer range with a byte value.
    Memset {
        /// Destination buffer.
        dst: BufferId,
        /// Byte offset.
        offset: u64,
        /// Fill value.
        value: u8,
        /// Length in bytes.
        len: u64,
    },
    /// Event record marker (no traffic).
    EventRecord,
    /// `hipStreamWaitEvent`: park the stream until the event records.
    WaitEvent(crate::event::EventId),
}

impl OpRequest {
    /// Whether the request reads or writes `buf`.
    pub(crate) fn uses(&self, buf: BufferId) -> bool {
        match self {
            OpRequest::Memcpy { src, dst, .. } => *src == buf || *dst == buf,
            OpRequest::Kernel(k) => k.uses(buf),
            OpRequest::Prefetch { buf: b, .. } => *b == buf,
            OpRequest::Memset { dst, .. } => *dst == buf,
            OpRequest::EventRecord | OpRequest::WaitEvent(_) => false,
        }
    }
}

/// An op waiting in a stream queue.
pub struct QueuedOp {
    /// The work to perform.
    pub work: Work,
    /// Event to stamp at completion (for `EventRecord` markers).
    pub event: Option<EventId>,
    /// Trace label (rendered lazily, only when tracing is on).
    pub label: OpLabel,
    /// How many times this op has already been aborted by a fabric fault
    /// and re-queued (0 for a fresh submission).
    pub attempts: u32,
}

/// The op currently executing on a stream.
pub struct RunningOp {
    /// Flows not yet completed.
    pub pending_flows: usize,
    /// Functional effects applied at completion.
    pub effects: Vec<Effect>,
    /// Event to stamp at completion.
    pub event: Option<EventId>,
    /// When the op left the queue (for the trace timeline).
    pub started: ifsim_des::Time,
    /// Trace label (rendered lazily, only when tracing is on).
    pub label: OpLabel,
    /// The originating request, kept so a fault-aborted op can be re-planned
    /// over the surviving fabric. `None` for library-internal pre-planned
    /// work, which is not runtime-retryable.
    pub request: Option<OpRequest>,
    /// Fault-abort count for this op (drives exponential backoff).
    pub attempts: u32,
}

/// An op in its launch latency: the plan's flows, admitted when the
/// latency elapses, and the op they belong to.
pub struct Launch {
    /// The op, which becomes the stream's running op at admission.
    pub run: RunningOp,
    /// Fabric traffic to admit.
    pub flows: Vec<FlowSpec>,
}

/// One stream's state.
pub struct StreamState {
    /// Owning logical device.
    pub dev: DeviceId,
    /// Physical GCD the stream executes on.
    pub gcd: GcdId,
    /// Ops waiting to start.
    pub queue: VecDeque<QueuedOp>,
    /// The op in flight, if any.
    pub running: Option<RunningOp>,
    /// Whether a wake-up is scheduled: an op's launch latency or a retry
    /// backoff is elapsing.
    pub starting: bool,
    /// The op whose launch latency is elapsing, if any.
    pub launch: Option<Launch>,
    /// Event this stream is parked on (`hipStreamWaitEvent`), if any.
    pub parked_on: Option<EventId>,
    /// Sticky error from an op that failed beyond recovery (fault-aborted
    /// with retries exhausted, or unplannable over the degraded fabric).
    /// Surfaced — and cleared — by the next synchronization, mirroring how
    /// `hipStreamSynchronize` reports asynchronous failures.
    pub failed: Option<crate::error::HipError>,
}

impl StreamState {
    /// A fresh, idle stream.
    pub fn new(dev: DeviceId, gcd: GcdId) -> Self {
        StreamState {
            dev,
            gcd,
            queue: VecDeque::new(),
            running: None,
            starting: false,
            launch: None,
            parked_on: None,
            failed: None,
        }
    }

    /// Whether queued or in-flight work on the stream may still read or
    /// write `buf`. A plan's effects name every buffer of its request, and
    /// a stream in a launch latency or a retry backoff (`starting`) counts
    /// as using every buffer, as a conservative hold.
    pub(crate) fn uses(&self, buf: BufferId) -> bool {
        let queued = |op: &QueuedOp| match &op.work {
            Work::Request(req) => req.uses(buf),
            Work::Planned(plan) => plan.effects.iter().any(|e| e.uses(buf)),
        };
        self.starting
            || (self.running.as_ref()).is_some_and(|run| run.effects.iter().any(|e| e.uses(buf)))
            || self.queue.iter().any(queued)
    }

    /// Whether the stream has no queued or in-flight work. A parked stream
    /// is *not* idle: it still has the wait (and whatever follows) pending.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
            && self.running.is_none()
            && !self.starting
            && self.parked_on.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stream_is_idle() {
        let s = StreamState::new(DeviceId(0), GcdId(0));
        assert!(s.idle());
    }

    #[test]
    fn queued_or_running_work_makes_stream_busy() {
        let mut s = StreamState::new(DeviceId(0), GcdId(0));
        s.starting = true;
        assert!(!s.idle());
        s.starting = false;
        s.running = Some(RunningOp {
            pending_flows: 1,
            effects: vec![],
            event: None,
            started: ifsim_des::Time::ZERO,
            label: OpLabel::from("test"),
            request: None,
            attempts: 0,
        });
        assert!(!s.idle());
    }

    #[test]
    fn failed_stream_is_idle_but_carries_the_error() {
        // A fault-failed stream has its queue cleared: it is idle (so
        // synchronization terminates) and the sticky error reports why.
        let mut s = StreamState::new(DeviceId(0), GcdId(0));
        s.failed = Some(crate::error::HipError::LinkDown("test".into()));
        assert!(s.idle());
        assert!(s.failed.is_some());
    }
}
