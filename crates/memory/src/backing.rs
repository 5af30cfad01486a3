//! Byte backing for allocations.
//!
//! `Real` backing holds actual bytes so the simulator is functional — copies
//! copy, kernels compute, collectives reduce, and tests can verify results.
//! `Phantom` backing tracks only the size, letting timing sweeps allocate
//! the paper's 8 GiB arrays without consuming host RAM.

use crate::recycle::RECYCLER;
use std::ops::{Deref, DerefMut};

/// The bytes (or absence thereof) behind an allocation.
pub enum Backing {
    /// Actual data.
    Real(RealBytes),
    /// Size-only: reads/writes are rejected, timing still works.
    Phantom(u64),
}

/// The bytes of a real backing. They come from the process-wide recycler
/// (`crate::recycle`) and go back to it on drop, so the next backing of the
/// same length reuses pages the host has already faulted in.
pub struct RealBytes(Box<[u8]>);

impl Deref for RealBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for RealBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl Drop for RealBytes {
    fn drop(&mut self) {
        RECYCLER.give(std::mem::take(&mut self.0));
    }
}

impl Backing {
    /// Allocate a zero-filled real backing.
    pub fn real(bytes: u64) -> Backing {
        Backing::Real(RealBytes(RECYCLER.take(bytes as usize)))
    }

    /// A phantom backing of the given size.
    pub fn phantom(bytes: u64) -> Backing {
        Backing::Phantom(bytes)
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Backing::Real(b) => b.len() as u64,
            Backing::Phantom(n) => *n,
        }
    }

    /// Whether the backing is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether real bytes are present.
    pub fn is_real(&self) -> bool {
        matches!(self, Backing::Real(_))
    }

    /// Immutable view of the bytes, if real.
    pub fn bytes(&self) -> Option<&[u8]> {
        match self {
            Backing::Real(b) => Some(&b[..]),
            Backing::Phantom(_) => None,
        }
    }

    /// Mutable view of the bytes, if real.
    pub fn bytes_mut(&mut self) -> Option<&mut [u8]> {
        match self {
            Backing::Real(b) => Some(&mut b[..]),
            Backing::Phantom(_) => None,
        }
    }
}

impl std::fmt::Debug for Backing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backing::Real(b) => write!(f, "Real({} B)", b.len()),
            Backing::Phantom(n) => write!(f, "Phantom({n} B)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_backing_starts_zeroed() {
        let b = Backing::real(16);
        assert_eq!(b.len(), 16);
        assert!(b.is_real());
        assert!(b.bytes().unwrap().iter().all(|&x| x == 0));
    }

    #[test]
    fn phantom_backing_has_size_but_no_bytes() {
        let b = Backing::phantom(1 << 33); // 8 GiB, no RAM consumed
        assert_eq!(b.len(), 1 << 33);
        assert!(!b.is_real());
        assert!(b.bytes().is_none());
    }

    #[test]
    fn empty_detection() {
        assert!(Backing::phantom(0).is_empty());
        assert!(!Backing::real(1).is_empty());
    }
}
