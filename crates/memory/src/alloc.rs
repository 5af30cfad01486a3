//! The allocation table: every live buffer of the simulated node.

use crate::attrs::MemKind;
use crate::backing::Backing;
use crate::page::PageTable;
use crate::space::MemSpace;
use std::collections::BTreeMap;
use std::fmt;

/// Handle to a live allocation (the simulator's analogue of a raw pointer).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub u64);

impl fmt::Debug for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf#{}", self.0)
    }
}

/// Allocation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The target pool cannot fit the request.
    OutOfMemory {
        /// Pool that overflowed.
        space: MemSpace,
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        available: u64,
    },
    /// The buffer id is stale or was never issued.
    InvalidBuffer(BufferId),
    /// Zero-byte allocations are rejected (as `hipMalloc(&p, 0)` yields no
    /// usable buffer).
    ZeroSize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory {
                space,
                requested,
                available,
            } => write!(
                f,
                "out of memory in {space}: requested {requested} B, {available} B free"
            ),
            AllocError::InvalidBuffer(id) => write!(f, "invalid buffer {id:?}"),
            AllocError::ZeroSize => write!(f, "zero-size allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

/// One live allocation.
#[derive(Debug)]
pub struct Allocation {
    /// Handle.
    pub id: BufferId,
    /// Kind (Table I row).
    pub kind: MemKind,
    /// Physical home: where the bytes live (for managed memory, where pages
    /// *start* — see [`Allocation::pages`]).
    pub home: MemSpace,
    /// Size in bytes.
    pub bytes: u64,
    /// The data (real or phantom).
    pub backing: Backing,
    /// Per-page residency, for managed allocations only.
    pub pages: Option<PageTable>,
    /// `hipMemAdviseSetReadMostly`: the driver duplicates read-only pages
    /// into each reader's local memory, so managed reads run at HBM speed
    /// until the next write collapses the duplicates.
    pub read_mostly: bool,
}

impl Allocation {
    /// Whether every page of the byte range is resident in `space`.
    /// Non-managed memory is wholly in `home`.
    pub fn is_fully_resident_in(&self, space: MemSpace, offset: u64, len: u64) -> bool {
        match &self.pages {
            None => self.home == space,
            Some(pt) => pt.non_resident_pages(offset, len, space) == 0,
        }
    }
}

/// Default size above which allocations become phantom (timing-only):
/// 256 MiB keeps functional tests real while the paper's multi-GiB sweeps
/// stay cheap.
pub const DEFAULT_PHANTOM_THRESHOLD: u64 = 256 * 1024 * 1024;

/// XNACK page-migration granularity used for managed allocations.
pub const MANAGED_PAGE_SIZE: u64 = 4096;

/// The node's allocation table and capacity accounting.
pub struct MemorySystem {
    allocs: Vec<Option<Allocation>>,
    used: BTreeMap<MemSpace, u64>,
    phantom_threshold: u64,
    managed_page_size: u64,
}

impl MemorySystem {
    /// An empty memory system with default thresholds.
    pub fn new() -> Self {
        MemorySystem {
            allocs: Vec::new(),
            used: BTreeMap::new(),
            phantom_threshold: DEFAULT_PHANTOM_THRESHOLD,
            managed_page_size: MANAGED_PAGE_SIZE,
        }
    }

    /// Override the real-vs-phantom threshold (tests force both ways).
    pub fn set_phantom_threshold(&mut self, bytes: u64) {
        self.phantom_threshold = bytes;
    }

    /// Override the managed page size (the 2 MiB-page ablation uses this).
    pub fn set_managed_page_size(&mut self, bytes: u64) {
        assert!(bytes > 0);
        self.managed_page_size = bytes;
    }

    /// The managed page size in effect.
    pub fn managed_page_size(&self) -> u64 {
        self.managed_page_size
    }

    /// Allocate `bytes` of `kind` memory homed in `space`.
    pub fn allocate(
        &mut self,
        kind: MemKind,
        space: MemSpace,
        bytes: u64,
    ) -> Result<BufferId, AllocError> {
        if bytes == 0 {
            return Err(AllocError::ZeroSize);
        }
        let used = self.used.entry(space).or_insert(0);
        let available = space.capacity().saturating_sub(*used);
        if bytes > available {
            return Err(AllocError::OutOfMemory {
                space,
                requested: bytes,
                available,
            });
        }
        *used += bytes;
        let id = BufferId(self.allocs.len() as u64);
        let backing = if bytes > self.phantom_threshold {
            Backing::phantom(bytes)
        } else {
            Backing::real(bytes)
        };
        let pages = match kind {
            MemKind::Managed => Some(PageTable::new(bytes, self.managed_page_size, space)),
            _ => None,
        };
        self.allocs.push(Some(Allocation {
            id,
            kind,
            home: space,
            bytes,
            backing,
            pages,
            read_mostly: false,
        }));
        Ok(id)
    }

    /// Free an allocation.
    pub fn free(&mut self, id: BufferId) -> Result<(), AllocError> {
        let slot = self
            .allocs
            .get_mut(id.0 as usize)
            .ok_or(AllocError::InvalidBuffer(id))?;
        let alloc = slot.take().ok_or(AllocError::InvalidBuffer(id))?;
        *self.used.get_mut(&alloc.home).expect("space was charged") -= alloc.bytes;
        Ok(())
    }

    /// Look up a live allocation.
    pub fn get(&self, id: BufferId) -> Result<&Allocation, AllocError> {
        self.allocs
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(AllocError::InvalidBuffer(id))
    }

    /// Look up a live allocation mutably.
    pub fn get_mut(&mut self, id: BufferId) -> Result<&mut Allocation, AllocError> {
        self.allocs
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(AllocError::InvalidBuffer(id))
    }

    /// Bytes currently allocated in a space.
    pub fn used(&self, space: MemSpace) -> u64 {
        self.used.get(&space).copied().unwrap_or(0)
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocs.iter().filter(|s| s.is_some()).count()
    }

    /// Copy bytes between two (distinct or identical) buffers. Returns
    /// whether real bytes moved (`false` when a phantom endpoint made it a
    /// timing-only copy). Bounds are always checked.
    pub fn copy(
        &mut self,
        src: BufferId,
        src_off: u64,
        dst: BufferId,
        dst_off: u64,
        len: u64,
    ) -> Result<bool, AllocError> {
        if len == 0 {
            // Still validate the handles.
            self.get(src)?;
            self.get(dst)?;
            return Ok(true);
        }
        if src == dst {
            let a = self.get_mut(src)?;
            assert!(src_off + len <= a.bytes && dst_off + len <= a.bytes);
            let moved = match a.backing.bytes_mut() {
                Some(b) => {
                    b.copy_within(src_off as usize..(src_off + len) as usize, dst_off as usize);
                    true
                }
                None => false,
            };
            return Ok(moved);
        }
        // Split-borrow two distinct slots.
        let (si, di) = (src.0 as usize, dst.0 as usize);
        if si.max(di) >= self.allocs.len() {
            return Err(AllocError::InvalidBuffer(if si >= self.allocs.len() {
                src
            } else {
                dst
            }));
        }
        let (lo, hi) = self.allocs.split_at_mut(si.max(di));
        let (first, second) = (&mut lo[si.min(di)], &mut hi[0]);
        let (s_ref, d_ref) = if si < di {
            (first, second)
        } else {
            (second, first)
        };
        let s = s_ref.as_ref().ok_or(AllocError::InvalidBuffer(src))?;
        let d = d_ref.as_mut().ok_or(AllocError::InvalidBuffer(dst))?;
        Ok(Backing::copy(
            &s.backing,
            src_off,
            &mut d.backing,
            dst_off,
            len,
        ))
    }

    /// Write raw bytes into a buffer (host-side initialization). Phantom
    /// buffers accept and discard the write, returning `false`.
    pub fn write_bytes(
        &mut self,
        id: BufferId,
        offset: u64,
        data: &[u8],
    ) -> Result<bool, AllocError> {
        let a = self.get_mut(id)?;
        assert!(
            offset + data.len() as u64 <= a.bytes,
            "write beyond buffer end"
        );
        match a.backing.bytes_mut() {
            Some(b) => {
                b[offset as usize..offset as usize + data.len()].copy_from_slice(data);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Read raw bytes from a buffer; `None` if the backing is phantom.
    pub fn read_bytes(
        &self,
        id: BufferId,
        offset: u64,
        len: u64,
    ) -> Result<Option<Vec<u8>>, AllocError> {
        let a = self.get(id)?;
        assert!(offset + len <= a.bytes, "read beyond buffer end");
        Ok(a.backing
            .bytes()
            .map(|b| b[offset as usize..(offset + len) as usize].to_vec()))
    }

    /// Write a slice of `f32`s (little-endian) — the element type of the
    /// STREAM kernels and collectives.
    pub fn write_f32s(
        &mut self,
        id: BufferId,
        offset: u64,
        data: &[f32],
    ) -> Result<bool, AllocError> {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_bytes(id, offset, &bytes)
    }

    /// Read a slice of `f32`s; `None` for phantom backing.
    pub fn read_f32s(
        &self,
        id: BufferId,
        offset: u64,
        count: usize,
    ) -> Result<Option<Vec<f32>>, AllocError> {
        Ok(self.read_bytes(id, offset, count as u64 * 4)?.map(|b| {
            b.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        }))
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::HostAllocFlags;
    use ifsim_topology::{GcdId, NumaId};

    fn hbm(g: u8) -> MemSpace {
        MemSpace::Hbm(GcdId(g))
    }
    fn ddr(n: u8) -> MemSpace {
        MemSpace::Ddr(NumaId(n))
    }

    #[test]
    fn allocate_and_free_tracks_usage() {
        let mut m = MemorySystem::new();
        let id = m.allocate(MemKind::Device, hbm(0), 1024).unwrap();
        assert_eq!(m.used(hbm(0)), 1024);
        assert_eq!(m.live_allocations(), 1);
        m.free(id).unwrap();
        assert_eq!(m.used(hbm(0)), 0);
        assert_eq!(m.live_allocations(), 0);
        assert_eq!(m.get(id).unwrap_err(), AllocError::InvalidBuffer(id));
    }

    #[test]
    fn oom_when_pool_exhausted() {
        let mut m = MemorySystem::new();
        m.set_phantom_threshold(0); // keep the big allocation phantom
        let cap = hbm(0).capacity();
        let _ = m.allocate(MemKind::Device, hbm(0), cap).unwrap();
        let err = m.allocate(MemKind::Device, hbm(0), 1).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { available: 0, .. }));
        // Other pools unaffected.
        assert!(m.allocate(MemKind::Device, hbm(1), 1024).is_ok());
    }

    #[test]
    fn zero_size_rejected() {
        let mut m = MemorySystem::new();
        assert_eq!(
            m.allocate(MemKind::Device, hbm(0), 0).unwrap_err(),
            AllocError::ZeroSize
        );
    }

    #[test]
    fn double_free_rejected() {
        let mut m = MemorySystem::new();
        let id = m.allocate(MemKind::Device, hbm(0), 64).unwrap();
        m.free(id).unwrap();
        assert_eq!(m.free(id).unwrap_err(), AllocError::InvalidBuffer(id));
    }

    #[test]
    fn large_allocations_become_phantom() {
        let mut m = MemorySystem::new();
        m.set_phantom_threshold(1024);
        let small = m.allocate(MemKind::Device, hbm(0), 1024).unwrap();
        let big = m.allocate(MemKind::Device, hbm(0), 1025).unwrap();
        assert!(m.get(small).unwrap().backing.is_real());
        assert!(!m.get(big).unwrap().backing.is_real());
    }

    #[test]
    fn managed_allocations_get_page_tables() {
        let mut m = MemorySystem::new();
        let id = m.allocate(MemKind::Managed, ddr(0), 10_000).unwrap();
        let a = m.get(id).unwrap();
        let pt = a.pages.as_ref().expect("managed has pages");
        assert_eq!(pt.n_pages(), 3);
        assert!(a.is_fully_resident_in(ddr(0), 0, 10_000));
        assert!(!a.is_fully_resident_in(hbm(0), 0, 10_000));
        // Non-managed: residency is just the home.
        let dev = m.allocate(MemKind::Device, hbm(0), 64).unwrap();
        assert!(m.get(dev).unwrap().pages.is_none());
        assert!(m.get(dev).unwrap().is_fully_resident_in(hbm(0), 0, 64));
    }

    #[test]
    fn copy_between_buffers_moves_data() {
        let mut m = MemorySystem::new();
        let a = m
            .allocate(MemKind::HostPinned(HostAllocFlags::coherent()), ddr(0), 16)
            .unwrap();
        let b = m.allocate(MemKind::Device, hbm(0), 16).unwrap();
        m.write_bytes(a, 0, &[9u8; 16]).unwrap();
        assert!(m.copy(a, 4, b, 8, 8).unwrap());
        let out = m.read_bytes(b, 0, 16).unwrap().unwrap();
        assert_eq!(&out[..8], &[0u8; 8]);
        assert_eq!(&out[8..], &[9u8; 8]);
    }

    #[test]
    fn copy_same_buffer_uses_copy_within() {
        let mut m = MemorySystem::new();
        let a = m.allocate(MemKind::Device, hbm(0), 8).unwrap();
        m.write_bytes(a, 0, &[1, 2, 3, 4, 0, 0, 0, 0]).unwrap();
        assert!(m.copy(a, 0, a, 4, 4).unwrap());
        assert_eq!(
            m.read_bytes(a, 0, 8).unwrap().unwrap(),
            vec![1, 2, 3, 4, 1, 2, 3, 4]
        );
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = MemorySystem::new();
        let a = m.allocate(MemKind::Device, hbm(0), 16).unwrap();
        m.write_f32s(a, 0, &[1.0, -2.5, 3.25, 0.0]).unwrap();
        assert_eq!(
            m.read_f32s(a, 0, 4).unwrap().unwrap(),
            vec![1.0, -2.5, 3.25, 0.0]
        );
    }

    #[test]
    fn phantom_copy_reports_no_data_motion() {
        let mut m = MemorySystem::new();
        m.set_phantom_threshold(8);
        let a = m.allocate(MemKind::Device, hbm(0), 64).unwrap();
        let b = m.allocate(MemKind::Device, hbm(1), 64).unwrap();
        assert!(!m.copy(a, 0, b, 0, 64).unwrap());
        assert_eq!(m.read_bytes(b, 0, 4).unwrap(), None);
    }

    #[test]
    fn zero_length_copy_validates_handles() {
        let mut m = MemorySystem::new();
        let a = m.allocate(MemKind::Device, hbm(0), 8).unwrap();
        assert!(m.copy(a, 0, a, 0, 0).unwrap());
        assert!(matches!(
            m.copy(a, 0, BufferId(99), 0, 0),
            Err(AllocError::InvalidBuffer(_))
        ));
    }
}
