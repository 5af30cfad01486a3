//! Operation descriptors and copy kinds.

use ifsim_memory::MemSpace;
use std::fmt;

/// Direction declaration of a `hipMemcpy`, as in the HIP API. The runtime
/// validates the declared kind against the actual buffer locations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemcpyKind {
    /// Host → device.
    HostToDevice,
    /// Device → host.
    DeviceToHost,
    /// Device → device (same or peer GCD).
    DeviceToDevice,
    /// Host → host.
    HostToHost,
    /// Infer from the buffer locations (`hipMemcpyDefault`).
    Default,
}

/// Structured trace label of a queued/running op.
///
/// The submit paths used to eagerly `format!` a label string per op, paying
/// an allocation whether or not tracing was on. This enum captures the same
/// information as plain data; the string is rendered (via `Display`) only on
/// the paths that actually need text — trace recording, telemetry, and
/// error messages.
#[derive(Clone, Debug, PartialEq)]
pub enum OpLabel {
    /// `hipMemcpy` family (renders `memcpy {bytes}B`).
    Memcpy {
        /// Bytes copied.
        bytes: u64,
    },
    /// `hipMemcpyPeer` family (renders `memcpy_peer {bytes}B`).
    MemcpyPeer {
        /// Bytes copied.
        bytes: u64,
    },
    /// `hipMemsetAsync` (renders `memset {len}B`).
    Memset {
        /// Bytes filled.
        len: u64,
    },
    /// Kernel launch (renders `kernel {name}`).
    Kernel {
        /// Kernel name (static: kernels are a closed set).
        name: &'static str,
    },
    /// Managed-memory prefetch (renders `prefetch -> {target}`).
    Prefetch {
        /// Migration target.
        target: MemSpace,
    },
    /// Event record marker (renders `event_record`).
    EventRecord,
    /// `hipStreamWaitEvent` marker (renders `wait_event`).
    WaitEvent,
    /// Free-form label from library-internal submissions (collectives).
    Custom(String),
}

impl OpLabel {
    /// Coarse op class for metric labels (`memcpy`, `kernel`, ...). Custom
    /// labels from library internals all fold into `lib`.
    pub fn kind(&self) -> &'static str {
        match self {
            OpLabel::Memcpy { .. } => "memcpy",
            OpLabel::MemcpyPeer { .. } => "memcpy_peer",
            OpLabel::Memset { .. } => "memset",
            OpLabel::Kernel { .. } => "kernel",
            OpLabel::Prefetch { .. } => "prefetch",
            OpLabel::EventRecord => "event_record",
            OpLabel::WaitEvent => "wait_event",
            OpLabel::Custom(_) => "lib",
        }
    }
}

impl fmt::Display for OpLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpLabel::Memcpy { bytes } => write!(f, "memcpy {bytes}B"),
            OpLabel::MemcpyPeer { bytes } => write!(f, "memcpy_peer {bytes}B"),
            OpLabel::Memset { len } => write!(f, "memset {len}B"),
            OpLabel::Kernel { name } => write!(f, "kernel {name}"),
            OpLabel::Prefetch { target } => write!(f, "prefetch -> {target}"),
            OpLabel::EventRecord => write!(f, "event_record"),
            OpLabel::WaitEvent => write!(f, "wait_event"),
            OpLabel::Custom(s) => f.write_str(s),
        }
    }
}

impl From<String> for OpLabel {
    fn from(s: String) -> OpLabel {
        OpLabel::Custom(s)
    }
}

impl From<&str> for OpLabel {
    fn from(s: &str) -> OpLabel {
        OpLabel::Custom(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_labels_render_the_historical_strings() {
        assert_eq!(OpLabel::Memcpy { bytes: 64 }.to_string(), "memcpy 64B");
        assert_eq!(
            OpLabel::MemcpyPeer { bytes: 16 }.to_string(),
            "memcpy_peer 16B"
        );
        assert_eq!(OpLabel::Memset { len: 4096 }.to_string(), "memset 4096B");
        assert_eq!(
            OpLabel::Kernel {
                name: "stream_copy"
            }
            .to_string(),
            "kernel stream_copy"
        );
        assert_eq!(OpLabel::EventRecord.to_string(), "event_record");
        assert_eq!(OpLabel::WaitEvent.to_string(), "wait_event");
        assert_eq!(
            OpLabel::from("ring step 3".to_string()).to_string(),
            "ring step 3"
        );
    }

    #[test]
    fn op_label_kinds_classify_for_metrics() {
        assert_eq!(OpLabel::Memcpy { bytes: 1 }.kind(), "memcpy");
        assert_eq!(OpLabel::Kernel { name: "x" }.kind(), "kernel");
        assert_eq!(OpLabel::from("anything").kind(), "lib");
    }
}
