//! Persistent CSR-style storage for the segment lists of active flows.
//!
//! [`FlowNet`](crate::FlowNet) recomputes max-min fair rates on every
//! membership change. The naive implementation re-collected each flow's
//! segment list into a fresh `Vec<Vec<u32>>` per recompute — thousands of
//! allocations per simulated collective. The arena instead keeps every live
//! flow's segments in one contiguous `u32` buffer, maintained incrementally:
//!
//! - **admission** appends the flow's segments at the end of the buffer and
//!   records a `(start, len, wire_cap)` span;
//! - **removal** swap-removes the span (mirroring the engine's dense entry
//!   order) and counts the abandoned range as garbage;
//! - when garbage exceeds the live payload, the buffer is **compacted** in
//!   one pass — amortized O(1) per membership change.
//!
//! The fair-share solver walks `(spans, buf)` directly
//! ([`crate::fairshare::max_min_rates_arena`]); nothing is re-collected and
//! nothing allocates on the hot path.

use crate::seg::SegId;

/// One flow's segment range in the arena buffer, plus its wire-rate cap —
/// everything the fair-share solver needs, kept dense and cache-friendly.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// First index into the arena buffer.
    pub start: u32,
    /// Number of segments.
    pub len: u32,
    /// Maximum wire rate (`f64::INFINITY` for uncapped flows).
    pub wire_cap: f64,
}

/// Incrementally-maintained CSR arena over active flows' segment lists.
/// Spans are indexed by the owning engine's dense flow index and follow its
/// swap-remove order exactly.
#[derive(Clone, Debug, Default)]
pub struct FlowArena {
    buf: Vec<u32>,
    spans: Vec<Span>,
    /// Dead `u32` slots in `buf` left behind by removals.
    garbage: usize,
}

/// Compaction is skipped below this much garbage: tiny buffers never churn.
const COMPACT_MIN_GARBAGE: usize = 64;

impl FlowArena {
    /// An empty arena.
    pub fn new() -> Self {
        FlowArena::default()
    }

    /// Number of spans (== live flows).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Append a flow's segments, creating the span at dense index
    /// `self.len()`.
    pub fn push(&mut self, segs: &[SegId], wire_cap: f64) {
        let start = self.buf.len() as u32;
        self.buf.extend(segs.iter().map(|s| s.0));
        self.spans.push(Span {
            start,
            len: segs.len() as u32,
            wire_cap,
        });
    }

    /// Remove the span at `idx` by swapping in the last span (same dance the
    /// engine performs on its dense entry vector). The removed range becomes
    /// garbage; compaction runs once garbage outweighs live data.
    pub fn swap_remove(&mut self, idx: usize) {
        let dead = self.spans.swap_remove(idx);
        self.garbage += dead.len as usize;
        if self.garbage > COMPACT_MIN_GARBAGE && self.garbage * 2 > self.buf.len() {
            self.compact();
        }
    }

    /// The segment indices of the flow at dense index `idx`.
    #[inline]
    pub fn segs(&self, idx: usize) -> &[u32] {
        let s = &self.spans[idx];
        &self.buf[s.start as usize..(s.start + s.len) as usize]
    }

    /// All spans, parallel to the engine's dense entries.
    #[inline]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The shared segment buffer spans index into.
    #[inline]
    pub fn buf(&self) -> &[u32] {
        &self.buf
    }

    /// Current dead-slot count (exposed for tests and diagnostics).
    pub fn garbage(&self) -> usize {
        self.garbage
    }

    /// Rewrite the buffer with live spans only, in dense order.
    fn compact(&mut self) {
        let live: usize = self.spans.iter().map(|s| s.len as usize).sum();
        let mut buf = Vec::with_capacity(live.max(self.buf.len() / 2));
        for s in &mut self.spans {
            let start = buf.len() as u32;
            buf.extend_from_slice(&self.buf[s.start as usize..(s.start + s.len) as usize]);
            s.start = start;
        }
        self.buf = buf;
        self.garbage = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<SegId> {
        v.iter().map(|&x| SegId(x)).collect()
    }

    #[test]
    fn push_and_read_back() {
        let mut a = FlowArena::new();
        a.push(&ids(&[3, 5]), f64::INFINITY);
        a.push(&ids(&[7]), 10.0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.segs(0), &[3, 5]);
        assert_eq!(a.segs(1), &[7]);
        assert_eq!(a.spans()[1].wire_cap, 10.0);
    }

    #[test]
    fn swap_remove_mirrors_vec_semantics() {
        let mut a = FlowArena::new();
        a.push(&ids(&[1]), f64::INFINITY);
        a.push(&ids(&[2, 3]), f64::INFINITY);
        a.push(&ids(&[4]), f64::INFINITY);
        a.swap_remove(0);
        // Last span moved into slot 0.
        assert_eq!(a.len(), 2);
        assert_eq!(a.segs(0), &[4]);
        assert_eq!(a.segs(1), &[2, 3]);
    }

    #[test]
    fn heavy_churn_compacts_the_buffer() {
        let mut a = FlowArena::new();
        for round in 0..64 {
            for i in 0..16u32 {
                a.push(&ids(&[i, i + 1, i + 2]), f64::INFINITY);
            }
            for _ in 0..16 {
                a.swap_remove(0);
            }
            // Garbage never exceeds the live payload by more than one
            // compaction round: the buffer cannot grow without bound.
            assert!(
                a.buf().len() <= 3 * 16 * 2 + COMPACT_MIN_GARBAGE + 3 * 16,
                "round {round}: buf holds {} slots",
                a.buf().len()
            );
        }
        assert!(a.is_empty());
    }

    #[test]
    fn spans_stay_consistent_after_compaction() {
        let mut a = FlowArena::new();
        let mut model: Vec<u32> = (0..200).collect();
        for &i in &model {
            a.push(&ids(&[i]), f64::INFINITY);
        }
        for _ in 0..195 {
            a.swap_remove(1);
            model.swap_remove(1);
        }
        assert!(a.garbage() < 195, "compaction ran");
        for (i, &seg) in model.iter().enumerate() {
            assert_eq!(a.segs(i), &[seg]);
        }
    }
}
