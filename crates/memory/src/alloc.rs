//! The allocation table: every live buffer of the simulated node.

use crate::attrs::MemKind;
use crate::backing::Backing;
use crate::page::PageTable;
use crate::space::MemSpace;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

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
    /// A byte range reaches past the end of its buffer (or its end
    /// overflows `u64`).
    OutOfRange {
        /// Buffer accessed.
        id: BufferId,
        /// First byte of the range.
        offset: u64,
        /// Length of the range in bytes.
        len: u64,
        /// Size of the buffer in bytes.
        size: u64,
    },
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
            AllocError::OutOfRange {
                id,
                offset,
                len,
                size,
            } => write!(f, "range {offset}+{len} B exceeds {id:?} of {size} B"),
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

    /// The byte range `offset..offset + len` as slice indices, if it lies
    /// inside the allocation.
    fn range(&self, offset: u64, len: u64) -> Result<Range<usize>, AllocError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.bytes => Ok(offset as usize..end as usize),
            _ => Err(AllocError::OutOfRange {
                id: self.id,
                offset,
                len,
                size: self.bytes,
            }),
        }
    }
}

/// Bytes spanned by `count` little-endian `f32`s (saturating, so an
/// impossible count fails the range check instead of wrapping).
fn f32_bytes(count: usize) -> u64 {
    (count as u64).saturating_mul(4)
}

/// The little-endian `f32` in the first four bytes of `b`.
fn le_f32(b: &[u8]) -> f32 {
    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Elements [`MemorySystem::all_f32s`] tests per block before it may stop.
const CHECK_BLOCK: usize = 64;

/// The two endpoints of a buffer-to-buffer access, borrowed from the table
/// at once.
enum Endpoints<'a> {
    /// `src == dst`: one backing, read and written.
    Aliased(&'a mut Backing),
    /// Two distinct backings.
    Distinct(&'a Backing, &'a mut Backing),
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

    /// The checked byte range of a buffer; `None` when the backing is
    /// phantom.
    fn slice(&self, id: BufferId, offset: u64, len: u64) -> Result<Option<&[u8]>, AllocError> {
        let a = self.get(id)?;
        let r = a.range(offset, len)?;
        Ok(a.backing.bytes().map(|b| &b[r]))
    }

    /// [`MemorySystem::slice`], mutably.
    fn slice_mut(
        &mut self,
        id: BufferId,
        offset: u64,
        len: u64,
    ) -> Result<Option<&mut [u8]>, AllocError> {
        let a = self.get_mut(id)?;
        let r = a.range(offset, len)?;
        Ok(a.backing.bytes_mut().map(|b| &mut b[r]))
    }

    /// Check both endpoints of a buffer-to-buffer access (`src` first:
    /// handle, then range) and borrow their backings at once. This is the
    /// one split borrow of the table; `copy` and `update_f32s` share it.
    fn endpoints(
        &mut self,
        src: BufferId,
        src_off: u64,
        dst: BufferId,
        dst_off: u64,
        len: u64,
    ) -> Result<(Endpoints<'_>, Range<usize>, Range<usize>), AllocError> {
        let s = self.get(src)?.range(src_off, len)?;
        let d = self.get(dst)?.range(dst_off, len)?;
        let (si, di) = (src.0 as usize, dst.0 as usize);
        if si == di {
            return Ok((Endpoints::Aliased(&mut self.get_mut(dst)?.backing), s, d));
        }
        let (lo, hi) = self.allocs.split_at_mut(si.max(di));
        let (low, high) = (&mut lo[si.min(di)], &mut hi[0]);
        let (s_slot, d_slot) = if si < di { (low, high) } else { (high, low) };
        let live = "both handles checked above";
        let pair = Endpoints::Distinct(
            &s_slot.as_ref().expect(live).backing,
            &mut d_slot.as_mut().expect(live).backing,
        );
        Ok((pair, s, d))
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
        let (pair, s, d) = self.endpoints(src, src_off, dst, dst_off, len)?;
        Ok(match pair {
            Endpoints::Aliased(b) => match b.bytes_mut() {
                Some(b) => {
                    b.copy_within(s, d.start);
                    true
                }
                None => false,
            },
            Endpoints::Distinct(sb, db) => match (sb.bytes(), db.bytes_mut()) {
                (Some(sb), Some(db)) => {
                    db[d].copy_from_slice(&sb[s]);
                    true
                }
                _ => false,
            },
        })
    }

    /// Combine `count` `f32`s of `src` into `dst` in place:
    /// `dst[i] = f(dst[i], src[i])`, one pass over the two backings.
    /// `src == dst` is allowed, even with overlapping ranges: every element
    /// is computed from the values before the call, as if both ranges had
    /// been read first. Returns `false`, writing nothing, when either
    /// endpoint is phantom.
    pub fn update_f32s(
        &mut self,
        src: BufferId,
        src_off: u64,
        dst: BufferId,
        dst_off: u64,
        count: usize,
        mut f: impl FnMut(f32, f32) -> f32,
    ) -> Result<bool, AllocError> {
        let (pair, s, d) = self.endpoints(src, src_off, dst, dst_off, f32_bytes(count))?;
        match pair {
            Endpoints::Distinct(sb, db) => {
                let (Some(sb), Some(db)) = (sb.bytes(), db.bytes_mut()) else {
                    return Ok(false);
                };
                for (x, y) in db[d].chunks_exact_mut(4).zip(sb[s].chunks_exact(4)) {
                    x.copy_from_slice(&f(le_f32(x), le_f32(y)).to_le_bytes());
                }
            }
            Endpoints::Aliased(b) => {
                let Some(b) = b.bytes_mut() else {
                    return Ok(false);
                };
                // As in `memmove`: walk away from the overlap, so no source
                // element is overwritten before it is read.
                let mut step = |i: usize| {
                    let (x, y) = (d.start + 4 * i, s.start + 4 * i);
                    let v = f(le_f32(&b[x..]), le_f32(&b[y..]));
                    b[x..x + 4].copy_from_slice(&v.to_le_bytes());
                };
                if d.start > s.start {
                    (0..count).rev().for_each(&mut step);
                } else {
                    (0..count).for_each(&mut step);
                }
            }
        }
        Ok(true)
    }

    /// Add `count` `f32`s of `src` into `dst`: `dst[i] = dst[i] + src[i]`,
    /// in place (see [`MemorySystem::update_f32s`], including `src == dst`).
    pub fn reduce_add_f32s(
        &mut self,
        src: BufferId,
        src_off: u64,
        dst: BufferId,
        dst_off: u64,
        count: usize,
    ) -> Result<bool, AllocError> {
        self.update_f32s(src, src_off, dst, dst_off, count, |x, y| x + y)
    }

    /// Write raw bytes into a buffer (host-side initialization). Phantom
    /// buffers accept and discard the write, returning `false`.
    pub fn write_bytes(
        &mut self,
        id: BufferId,
        offset: u64,
        data: &[u8],
    ) -> Result<bool, AllocError> {
        let Some(b) = self.slice_mut(id, offset, data.len() as u64)? else {
            return Ok(false);
        };
        b.copy_from_slice(data);
        Ok(true)
    }

    /// Read raw bytes from a buffer; `None` if the backing is phantom.
    pub fn read_bytes(
        &self,
        id: BufferId,
        offset: u64,
        len: u64,
    ) -> Result<Option<Vec<u8>>, AllocError> {
        Ok(self.slice(id, offset, len)?.map(<[u8]>::to_vec))
    }

    /// Set `len` bytes to `value`. Phantom buffers are bounds-checked and
    /// left alone, returning `false`.
    pub fn fill_bytes(
        &mut self,
        id: BufferId,
        offset: u64,
        len: u64,
        value: u8,
    ) -> Result<bool, AllocError> {
        let Some(b) = self.slice_mut(id, offset, len)? else {
            return Ok(false);
        };
        b.fill(value);
        Ok(true)
    }

    /// Write a slice of `f32`s (little-endian) — the element type of the
    /// STREAM kernels and collectives. One pass: each value is encoded
    /// straight into the backing, with no intermediate buffer.
    pub fn write_f32s(
        &mut self,
        id: BufferId,
        offset: u64,
        data: &[f32],
    ) -> Result<bool, AllocError> {
        let Some(b) = self.slice_mut(id, offset, f32_bytes(data.len()))? else {
            return Ok(false);
        };
        for (c, v) in b.chunks_exact_mut(4).zip(data) {
            c.copy_from_slice(&v.to_le_bytes());
        }
        Ok(true)
    }

    /// Set `count` `f32`s to `value`, encoded straight into the backing.
    /// Phantom buffers are bounds-checked and left alone, returning `false`.
    pub fn fill_f32s(
        &mut self,
        id: BufferId,
        offset: u64,
        count: usize,
        value: f32,
    ) -> Result<bool, AllocError> {
        let Some(b) = self.slice_mut(id, offset, f32_bytes(count))? else {
            return Ok(false);
        };
        for c in b.chunks_exact_mut(4) {
            c.copy_from_slice(&value.to_le_bytes());
        }
        Ok(true)
    }

    /// Read a slice of `f32`s; `None` for phantom backing. The values are
    /// decoded from the borrowed backing into a newly allocated vector, so
    /// a check over the values should use [`MemorySystem::all_f32s`].
    pub fn read_f32s(
        &self,
        id: BufferId,
        offset: u64,
        count: usize,
    ) -> Result<Option<Vec<f32>>, AllocError> {
        Ok(self
            .slice(id, offset, f32_bytes(count))?
            .map(|b| b.chunks_exact(4).map(le_f32).collect()))
    }

    /// Whether `pred` holds for every one of `count` `f32`s; `None` for
    /// phantom backing. Same range check as [`MemorySystem::read_f32s`],
    /// but the values are decoded from the borrowed backing and nothing is
    /// allocated. `pred` sees whole blocks of 64 elements (the last one
    /// may be shorter) and the check stops after the first block that
    /// fails.
    pub fn all_f32s(
        &self,
        id: BufferId,
        offset: u64,
        count: usize,
        pred: impl Fn(f32) -> bool,
    ) -> Result<Option<bool>, AllocError> {
        Ok(self.slice(id, offset, f32_bytes(count))?.map(|b| {
            // No early exit inside a block, so the fold vectorizes.
            b.chunks(4 * CHECK_BLOCK).all(|block| {
                block
                    .chunks_exact(4)
                    .fold(true, |ok, c| ok & pred(le_f32(c)))
            })
        }))
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self::new()
    }
}

/// The functional data path before it moved bytes in place: every access
/// went through a temporary vector. Kept as the oracle the in-place
/// accessors are checked against; range checks come from the byte API.
#[cfg(test)]
mod oracle {
    use super::{AllocError, BufferId, MemorySystem};

    pub fn write_f32s(
        m: &mut MemorySystem,
        id: BufferId,
        offset: u64,
        data: &[f32],
    ) -> Result<bool, AllocError> {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        m.write_bytes(id, offset, &bytes)
    }

    pub fn read_f32s(
        m: &MemorySystem,
        id: BufferId,
        offset: u64,
        count: usize,
    ) -> Result<Option<Vec<f32>>, AllocError> {
        Ok(m.read_bytes(id, offset, count as u64 * 4)?.map(|b| {
            b.chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        }))
    }

    /// The runtime's old `Effect::ReduceAdd`: snapshot both ranges, add,
    /// write back.
    pub fn reduce_add_f32s(
        m: &mut MemorySystem,
        src: BufferId,
        src_off: u64,
        dst: BufferId,
        dst_off: u64,
        count: usize,
    ) -> Result<bool, AllocError> {
        let arriving = read_f32s(m, src, src_off, count)?;
        let local = read_f32s(m, dst, dst_off, count)?;
        let (Some(a), Some(mut l)) = (arriving, local) else {
            return Ok(false);
        };
        for (x, y) in l.iter_mut().zip(&a) {
            *x += *y;
        }
        write_f32s(m, dst, dst_off, &l)
    }

    /// The runtime's old `Effect::Fill`: probe the backing, then write a
    /// vector of fill bytes.
    pub fn fill_bytes(
        m: &mut MemorySystem,
        id: BufferId,
        offset: u64,
        len: u64,
        value: u8,
    ) -> Result<bool, AllocError> {
        let a = m.get(id)?;
        a.range(offset, len)?;
        if !a.backing.is_real() {
            return Ok(false);
        }
        m.write_bytes(id, offset, &vec![value; len as usize])
    }

    /// The old `KernelSpec::Init`: write a vector of the value.
    pub fn fill_f32s(
        m: &mut MemorySystem,
        id: BufferId,
        offset: u64,
        count: usize,
        value: f32,
    ) -> Result<bool, AllocError> {
        write_f32s(m, id, offset, &vec![value; count])
    }

    /// A copy through a snapshot of the source range.
    pub fn copy(
        m: &mut MemorySystem,
        src: BufferId,
        src_off: u64,
        dst: BufferId,
        dst_off: u64,
        len: u64,
    ) -> Result<bool, AllocError> {
        let data = m.read_bytes(src, src_off, len)?;
        m.get(dst)?.range(dst_off, len)?;
        match data {
            Some(d) if m.get(dst)?.backing.is_real() => m.write_bytes(dst, dst_off, &d),
            _ => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::HostAllocFlags;
    use ifsim_topology::{GcdId, NumaId};
    use proptest::prelude::*;

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

    #[test]
    fn out_of_range_accesses_are_errors_not_panics() {
        let mut m = MemorySystem::new();
        m.set_phantom_threshold(16);
        let a = m.allocate(MemKind::Device, hbm(0), 16).unwrap();
        let p = m.allocate(MemKind::Device, hbm(0), 64).unwrap();
        let oor = |id, offset, len, size| AllocError::OutOfRange {
            id,
            offset,
            len,
            size,
        };
        assert_eq!(m.write_bytes(a, 12, &[0; 8]), Err(oor(a, 12, 8, 16)));
        assert_eq!(m.read_bytes(a, 17, 0), Err(oor(a, 17, 0, 16)));
        assert_eq!(m.copy(a, 0, p, 60, 8), Err(oor(p, 60, 8, 64)));
        assert_eq!(m.fill_bytes(p, 65, 0, 1), Err(oor(p, 65, 0, 64)));
        assert_eq!(m.fill_f32s(a, 4, 4, 1.0), Err(oor(a, 4, 16, 16)));
        assert_eq!(
            m.reduce_add_f32s(a, u64::MAX, a, 0, 1),
            Err(oor(a, u64::MAX, 4, 16))
        );
        // An element count whose byte length overflows saturates and fails.
        assert_eq!(m.read_f32s(a, 0, usize::MAX), Err(oor(a, 0, u64::MAX, 16)));
        assert!(oor(a, 12, 8, 16).to_string().contains("buf#0"));
        // The buffers are untouched and still usable.
        assert_eq!(m.read_bytes(a, 0, 16).unwrap(), Some(vec![0; 16]));
        assert!(m.fill_f32s(a, 0, 4, 1.0).unwrap());
    }

    #[test]
    fn aliased_reduce_reads_the_values_before_the_call() {
        let mut m = MemorySystem::new();
        let a = m.allocate(MemKind::Device, hbm(0), 16).unwrap();
        m.write_f32s(a, 0, &[1.0, 2.0, 4.0, 8.0]).unwrap();
        // Destination after the source, then before it, overlapping both times.
        assert!(m.reduce_add_f32s(a, 0, a, 4, 3).unwrap());
        assert_eq!(
            m.read_f32s(a, 0, 4).unwrap().unwrap(),
            [1.0, 3.0, 6.0, 12.0]
        );
        assert!(m.reduce_add_f32s(a, 4, a, 0, 3).unwrap());
        assert_eq!(
            m.read_f32s(a, 0, 4).unwrap().unwrap(),
            [4.0, 9.0, 18.0, 12.0]
        );
    }

    /// Element `i` of a generated payload: NaNs with payloads and either
    /// sign, both zeros, infinity, or arbitrary bits.
    fn payload(bits: u32, i: usize) -> f32 {
        let k = bits.wrapping_add((i as u32).wrapping_mul(0x9E37_79B9));
        f32::from_bits(match k % 8 {
            0 => 0x7FC0_0000,
            1 => 0x7FA0_0001,
            2 => 0xFFC0_0123,
            3 => 0x0000_0000,
            4 => 0x8000_0000,
            5 => 0x7F80_0000,
            _ => k,
        })
    }

    fn bits_of(v: Result<Option<Vec<f32>>, AllocError>) -> Result<Option<Vec<u32>>, AllocError> {
        v.map(|o| o.map(|v| v.iter().map(|x| x.to_bits()).collect()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random writes, reads, checks, reductions, fills and copies over
        /// real and phantom buffers (unaligned offsets, aliased and
        /// overlapping ranges, NaN and signed-zero payloads, out-of-range and
        /// overflowing requests, a stale handle) give the same result and
        /// leave the same bytes as the temporary-based oracle.
        #[test]
        fn functional_ops_match_the_temporary_oracle(
            sizes in proptest::collection::vec(1u64..96, 1..5),
            threshold in 0u64..96,
            steps in proptest::collection::vec(
                (0u8..7, any::<u64>(), any::<u64>(), any::<u64>(), 0usize..12, any::<u32>()),
                0..24,
            ),
        ) {
            let mut fast = MemorySystem::new();
            let mut slow = MemorySystem::new();
            fast.set_phantom_threshold(threshold);
            slow.set_phantom_threshold(threshold);
            let ids: Vec<BufferId> = sizes
                .iter()
                .map(|&n| {
                    let id = fast.allocate(MemKind::Device, hbm(0), n).unwrap();
                    prop_assert_eq!(slow.allocate(MemKind::Device, hbm(0), n).unwrap(), id);
                    id
                })
                .collect();
            // One past the live handles is stale (size 0). Offsets mostly
            // land in the first half of the buffer; some sit at or past its
            // end, and some overflow `offset + len`. The second endpoint of
            // a two-buffer op is often near the first, so aliased ranges
            // overlap.
            let pick = |r: u64| match ids.get((r as usize) % (ids.len() + 1)) {
                Some(&id) => (id, sizes[id.0 as usize]),
                None => (BufferId(99), 0),
            };
            let offset = |r: u64, size: u64| match r % 8 {
                0 => u64::MAX - (r >> 3) % 16,
                1 => size + (r >> 3) % 8,
                _ => (r >> 3) % (size / 2 + 1),
            };
            for (kind, which, o1, o2, count, bits) in steps {
                let ((a, a_size), (b, b_size)) = (pick(which), pick(which >> 32));
                let off1 = offset(o1, a_size);
                let off2 = if o2 % 2 == 0 {
                    off1.wrapping_add((o2 >> 1) % 17).wrapping_sub(8)
                } else {
                    offset(o2 >> 1, b_size)
                };
                match kind {
                    0 => {
                        let data: Vec<f32> = (0..count).map(|i| payload(bits, i)).collect();
                        prop_assert_eq!(
                            fast.write_f32s(a, off1, &data),
                            oracle::write_f32s(&mut slow, a, off1, &data)
                        );
                    }
                    1 => prop_assert_eq!(
                        bits_of(fast.read_f32s(a, off1, count)),
                        bits_of(oracle::read_f32s(&slow, a, off1, count))
                    ),
                    2 => prop_assert_eq!(
                        fast.reduce_add_f32s(a, off1, b, off2, count),
                        oracle::reduce_add_f32s(&mut slow, a, off1, b, off2, count)
                    ),
                    3 => prop_assert_eq!(
                        fast.fill_bytes(a, off1, count as u64 * 3, bits as u8),
                        oracle::fill_bytes(&mut slow, a, off1, count as u64 * 3, bits as u8)
                    ),
                    4 => prop_assert_eq!(
                        fast.fill_f32s(a, off1, count, payload(bits, 0)),
                        oracle::fill_f32s(&mut slow, a, off1, count, payload(bits, 0))
                    ),
                    5 => prop_assert_eq!(
                        fast.copy(a, off1, b, off2, count as u64 * 3),
                        oracle::copy(&mut slow, a, off1, b, off2, count as u64 * 3)
                    ),
                    _ => {
                        // Equality (signed zeros equal, NaN never), its
                        // negation, and a test that holds on fresh memory.
                        let v = payload(bits, 0);
                        let pred = |x: f32| match bits % 3 {
                            0 => x == v,
                            1 => x != v,
                            _ => !x.is_nan(),
                        };
                        prop_assert_eq!(
                            fast.all_f32s(a, off1, count, pred),
                            oracle::read_f32s(&slow, a, off1, count)
                                .map(|o| o.map(|v| v.iter().all(|&x| pred(x))))
                        );
                    }
                }
                for (&id, &n) in ids.iter().zip(&sizes) {
                    prop_assert_eq!(fast.read_bytes(id, 0, n), slow.read_bytes(id, 0, n));
                }
            }
        }

        /// One wrong element anywhere in a run of up to 1024 `f32`s (at
        /// index 0, at a block boundary, or in the last, possibly partial,
        /// block; at any byte offset) makes the check `false`, the element
        /// after the range is never looked at, and no block past the one
        /// holding the mismatch is evaluated. Signed zeros and NaN fills
        /// agree with the oracle.
        #[test]
        fn all_f32s_finds_one_planted_mismatch(
            count in 0usize..=1024,
            offset in 0u64..64,
            fill in any::<u32>(),
            site in 0u8..3,
            at in any::<usize>(),
            nan in any::<bool>(),
        ) {
            let mut m = MemorySystem::new();
            let id = m.allocate(MemKind::Device, hbm(0), offset + f32_bytes(count) + 4).unwrap();
            let v = payload(fill, 0);
            // A zero fill is compared against the other zero.
            let expect = if v == 0.0 { -v } else { v };
            m.fill_f32s(id, offset, count, v).unwrap();
            m.write_f32s(id, offset + f32_bytes(count), &[f32::NAN]).unwrap();
            let oracle = |m: &MemorySystem| {
                oracle::read_f32s(m, id, offset, count)
                    .map(|o| o.map(|v| v.iter().all(|&x| x == expect)))
            };
            let clean = m.all_f32s(id, offset, count, |x| x == expect);
            prop_assert_eq!(clean.clone(), oracle(&m));
            prop_assert_eq!(clean, Ok(Some(count == 0 || !v.is_nan())));

            prop_assume!(count > 0);
            let blocks = count.div_ceil(CHECK_BLOCK);
            let i = match site {
                0 => 0,
                1 => at % blocks * CHECK_BLOCK,
                _ => {
                    let tail = (blocks - 1) * CHECK_BLOCK;
                    tail + at % (count - tail)
                }
            };
            let bad = if nan { f32::NAN } else if expect == 1.0 { 2.0 } else { 1.0 };
            m.write_f32s(id, offset + f32_bytes(i), &[bad]).unwrap();
            let calls = std::cell::Cell::new(0usize);
            let planted = m.all_f32s(id, offset, count, |x| {
                calls.set(calls.get() + 1);
                x == expect
            });
            prop_assert_eq!(planted.clone(), oracle(&m));
            prop_assert_eq!(planted, Ok(Some(false)));
            prop_assert!(calls.get() <= (i / CHECK_BLOCK + 1) * CHECK_BLOCK);
        }
    }
}
