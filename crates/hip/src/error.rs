//! Runtime error codes, mirroring the `hipError_t` values the original
//! benchmarks check.

use ifsim_memory::AllocError;
use std::fmt;

/// Result alias for runtime calls.
pub type HipResult<T> = Result<T, HipError>;

/// Simulated `hipError_t`.
///
/// Marked `#[non_exhaustive]`: the degraded-fabric work grows this surface
/// (timeouts, link failures, uncorrectable ECC), and downstream matches must
/// stay forward-compatible with further fault codes.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum HipError {
    /// Device ordinal out of range (after visibility filtering).
    InvalidDevice(usize),
    /// Allocation failure.
    OutOfMemory(String),
    /// Stale or foreign buffer/stream/event handle.
    InvalidHandle(String),
    /// Kernel touched memory it cannot reach: peer memory without
    /// `hipDeviceEnablePeerAccess`, or pageable host memory without XNACK.
    /// The real runtime surfaces this as a fatal page fault.
    IllegalAddress(String),
    /// Arguments out of range (offsets, sizes, mismatched copy kind).
    InvalidValue(String),
    /// Operation requires an event that has not been recorded yet.
    NotReady,
    /// A bounded wait (`*_synchronize_timeout`) or rendezvous expired before
    /// the awaited work completed.
    Timeout(String),
    /// An xGMI link the operation depends on is down: the transfer aborted
    /// mid-flight with retries exhausted, or link failures partitioned the
    /// fabric so no route exists.
    LinkDown(String),
    /// An uncorrectable ECC error killed the operation's data in flight and
    /// retries were exhausted.
    EccUncorrectable(String),
}

impl fmt::Display for HipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HipError::InvalidDevice(d) => write!(f, "hipErrorInvalidDevice: ordinal {d}"),
            HipError::OutOfMemory(m) => write!(f, "hipErrorOutOfMemory: {m}"),
            HipError::InvalidHandle(m) => write!(f, "hipErrorInvalidHandle: {m}"),
            HipError::IllegalAddress(m) => write!(f, "hipErrorIllegalAddress: {m}"),
            HipError::InvalidValue(m) => write!(f, "hipErrorInvalidValue: {m}"),
            HipError::NotReady => write!(f, "hipErrorNotReady"),
            HipError::Timeout(m) => write!(f, "hipErrorTimeout: {m}"),
            HipError::LinkDown(m) => write!(f, "hipErrorLinkDown: {m}"),
            HipError::EccUncorrectable(m) => {
                write!(f, "hipErrorECCNotCorrectable: {m}")
            }
        }
    }
}

impl HipError {
    /// Whether this is a fault-class error — a downed link, uncorrectable
    /// ECC, or an expired wait — that a retry over a repaired or rerouted
    /// fabric may clear. The runtime's op retry and MPI's application-level
    /// retry both decide on this.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            HipError::LinkDown(_) | HipError::EccUncorrectable(_) | HipError::Timeout(_)
        )
    }
}

impl std::error::Error for HipError {}

impl From<AllocError> for HipError {
    fn from(e: AllocError) -> Self {
        match e {
            AllocError::OutOfMemory { .. } => HipError::OutOfMemory(e.to_string()),
            AllocError::InvalidBuffer(_) => HipError::InvalidHandle(e.to_string()),
            AllocError::ZeroSize | AllocError::OutOfRange { .. } => {
                HipError::InvalidValue(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_memory::BufferId;
    use ifsim_memory::MemSpace;
    use ifsim_topology::GcdId;

    #[test]
    fn alloc_errors_map_to_hip_codes() {
        let oom = AllocError::OutOfMemory {
            space: MemSpace::Hbm(GcdId(0)),
            requested: 10,
            available: 5,
        };
        assert!(matches!(HipError::from(oom), HipError::OutOfMemory(_)));
        assert!(matches!(
            HipError::from(AllocError::InvalidBuffer(BufferId(3))),
            HipError::InvalidHandle(_)
        ));
        assert!(matches!(
            HipError::from(AllocError::ZeroSize),
            HipError::InvalidValue(_)
        ));
        let oor = AllocError::OutOfRange {
            id: BufferId(3),
            offset: 0,
            len: 4096,
            size: 1024,
        };
        assert_eq!(
            HipError::from(oor),
            HipError::InvalidValue("range 0+4096 B exceeds buf#3 of 1024 B".into())
        );
    }

    #[test]
    fn display_includes_hip_error_names() {
        assert!(HipError::InvalidDevice(9)
            .to_string()
            .contains("InvalidDevice"));
        assert!(HipError::NotReady.to_string().contains("NotReady"));
    }

    #[test]
    fn fault_errors_display_hip_codes_and_context() {
        let t = HipError::Timeout("stream#3 after 5 ms".into());
        assert_eq!(t.to_string(), "hipErrorTimeout: stream#3 after 5 ms");
        let l = HipError::LinkDown("GCD0<->GCD2 severed".into());
        assert_eq!(l.to_string(), "hipErrorLinkDown: GCD0<->GCD2 severed");
        let e = HipError::EccUncorrectable("burst on GCD4<->GCD5".into());
        assert_eq!(
            e.to_string(),
            "hipErrorECCNotCorrectable: burst on GCD4<->GCD5"
        );
    }

    #[test]
    fn fault_errors_are_distinct_values() {
        let t = HipError::Timeout("x".into());
        let l = HipError::LinkDown("x".into());
        let e = HipError::EccUncorrectable("x".into());
        assert_ne!(t, l);
        assert_ne!(l, e);
        assert_ne!(t, e);
        assert_eq!(t.clone(), t);
    }
}
