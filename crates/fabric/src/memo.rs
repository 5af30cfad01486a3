//! Solve each fair-share input once per network.
//!
//! The water-fill ([`crate::fairshare::max_min_rates_arena`]) is a pure
//! function of the segment capacities and the ordered list of flows, each a
//! segment list plus a wire cap. A node of a few link classes yields few
//! distinct flow paths, and a workload that repeats one communication
//! pattern every step hands [`crate::FlowNet`] the same ordered flow set
//! again and again. Two flat tables let the network solve each such input
//! once:
//!
//! - [`PathTable`] interns each flow's path — its segment list and the bits
//!   of its wire cap — into a dense id. Every path lives in one `u32`
//!   buffer, so interning allocates nothing per path.
//! - [`SolveMemo`] maps the path ids of a flow table, in dense span order,
//!   to the wire rates and binding constraints that solving it produced.
//!   Keys and outputs share one set of offsets into flat buffers.
//!
//! The key keeps the order: the water-fill's float sums and its
//! rate-to-span assignment both depend on it, so the same multiset in
//! another order is another input. Capacities are not part of the key; the
//! network clears the memo whenever it changes one. A hit therefore returns
//! the exact output of solving the same input again, bit for bit.
//!
//! A stored flow costs five bytes. Its rate is an index into the memo's
//! distinct rates: a max-min allocation gives whole groups of flows the same
//! water level, and the 7 300 flows a `moe8-scaled` run stores take 12
//! distinct rates. Its binding is the position of the binding segment on the
//! flow's own path, which the water-fill guarantees.

use crate::arena::FlowArena;
use crate::fairshare::CAP_BOUND;
use crate::seg::SegId;
use std::collections::HashMap;

/// Path id of a flow whose path could not be interned: the table was full,
/// the path is too long to store a binding position for, or another path
/// already holds its fingerprint. A solve whose flow table holds one
/// bypasses the memo.
const UNCACHED: u16 = u16::MAX;

/// Distinct paths interned per network. Every stack workload stays under
/// 80; past the bound, new paths go uncached.
const MAX_PATHS: usize = 1024;

/// Stored solves per network. Reaching it clears the memo.
const MAX_ENTRIES: usize = 2048;

/// Stored flows per network, summed over entries (a `moe8-scaled` run
/// stores 7 300). Reaching it clears the memo; a single solve over more
/// flows is never stored. Also bounds the distinct rates, which a `u16`
/// indexes.
const MAX_SLOTS: usize = 1 << 14;

/// Stored binding position of a flow frozen at its own wire cap.
const CAP_POS: u8 = u8::MAX;

/// Fold one word into a running fingerprint (multiply-rotate, as FxHash).
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Interned flow paths: path `p` crosses `segs[start[p]..start[p + 1]]`
/// with wire cap `f64::from_bits(cap_bits[p])`.
pub(crate) struct PathTable {
    segs: Vec<u32>,
    start: Vec<u32>,
    cap_bits: Vec<u64>,
    /// Fingerprint of a path's segments and cap bits → its id.
    index: HashMap<u64, u16>,
}

impl Default for PathTable {
    fn default() -> Self {
        PathTable {
            segs: Vec::new(),
            start: vec![0],
            cap_bits: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl PathTable {
    /// The id of the path `(segs, wire_cap)`, interning it on first sight;
    /// [`UNCACHED`] when it cannot be interned.
    pub(crate) fn intern(&mut self, segs: &[SegId], wire_cap: f64) -> u16 {
        let bits = wire_cap.to_bits();
        let h = segs.iter().fold(mix(0, bits), |h, s| mix(h, s.0 as u64));
        if let Some(&p) = self.index.get(&h) {
            let i = p as usize;
            let known = &self.segs[self.start[i] as usize..self.start[i + 1] as usize];
            let same =
                self.cap_bits[i] == bits && known.iter().copied().eq(segs.iter().map(|s| s.0));
            return if same { p } else { UNCACHED };
        }
        if self.cap_bits.len() == MAX_PATHS || segs.len() >= CAP_POS as usize {
            return UNCACHED;
        }
        let p = self.cap_bits.len() as u16;
        self.segs.extend(segs.iter().map(|s| s.0));
        self.start.push(self.segs.len() as u32);
        self.cap_bits.push(bits);
        self.index.insert(h, p);
        p
    }

    /// Paths interned so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.cap_bits.len()
    }
}

/// Solved inputs. The stored flows of an entry at `(at, len)` are
/// `at..at + len` of `keys`, `rate_of` and `bound_at`.
#[derive(Default)]
pub(crate) struct SolveMemo {
    /// Path id per stored flow: the entries' keys, back to back.
    keys: Vec<u16>,
    /// Index into `rates` of each stored flow's wire rate.
    rate_of: Vec<u16>,
    /// Position of each stored flow's binding segment on its path, or
    /// [`CAP_POS`] when its own wire cap bound it.
    bound_at: Vec<u8>,
    /// The distinct wire rates stored, and each one's index by its bits.
    rates: Vec<f64>,
    rate_index: HashMap<u64, u16>,
    /// Fingerprint of a key → its entry's `(at, len)`.
    index: HashMap<u64, (u32, u32)>,
}

impl SolveMemo {
    /// The fingerprint of `key` (path ids in span order), or `None` when it
    /// holds an [`UNCACHED`] path and must not be memoized.
    pub(crate) fn fingerprint(key: &[u16]) -> Option<u64> {
        let mut h = mix(0, key.len() as u64);
        for &p in key {
            if p == UNCACHED {
                return None;
            }
            h = mix(h, p as u64);
        }
        Some(h)
    }

    /// Write the stored output of `key` into `wire` and `binding`, in span
    /// order over `arena`, and return true; false if `key` was not solved.
    pub(crate) fn restore(
        &self,
        h: u64,
        key: &[u16],
        arena: &FlowArena,
        wire: &mut Vec<f64>,
        binding: &mut Vec<u32>,
    ) -> bool {
        let Some(&(at, len)) = self.index.get(&h) else {
            return false;
        };
        let r = at as usize..(at + len) as usize;
        if self.keys[r.clone()] != *key {
            return false;
        }
        wire.clear();
        wire.extend(
            self.rate_of[r.clone()]
                .iter()
                .map(|&k| self.rates[k as usize]),
        );
        binding.clear();
        binding.extend(self.bound_at[r].iter().enumerate().map(|(i, &pos)| {
            if pos == CAP_POS {
                CAP_BOUND
            } else {
                arena.segs(i)[pos as usize]
            }
        }));
        true
    }

    /// Store the output of solving `key` over `arena`, clearing the memo
    /// first if it is full. A fingerprint collision replaces the older
    /// entry.
    pub(crate) fn insert(
        &mut self,
        h: u64,
        key: &[u16],
        arena: &FlowArena,
        wire: &[f64],
        binding: &[u32],
    ) {
        if key.len() > MAX_SLOTS {
            return;
        }
        // Each stored flow adds at most one distinct rate, so bounding the
        // flows bounds the rates too.
        if self.index.len() == MAX_ENTRIES || self.keys.len() + key.len() > MAX_SLOTS {
            self.clear();
        }
        let at = self.keys.len() as u32;
        self.keys.extend_from_slice(key);
        for &w in wire {
            let next = self.rates.len() as u16;
            let k = *self.rate_index.entry(w.to_bits()).or_insert(next);
            if k == next {
                self.rates.push(w);
            }
            self.rate_of.push(k);
        }
        self.bound_at
            .extend(binding.iter().enumerate().map(|(i, &b)| {
                if b == CAP_BOUND {
                    CAP_POS
                } else {
                    arena
                        .segs(i)
                        .iter()
                        .position(|&s| s == b)
                        .expect("a flow binds on a segment of its own path")
                        as u8
                }
            }));
        self.index.insert(h, (at, key.len() as u32));
    }

    /// Forget every stored solve (a capacity changed). Keeps the buffers.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.rate_of.clear();
        self.bound_at.clear();
        self.rates.clear();
        self.rate_index.clear();
        self.index.clear();
    }

    /// Stored solves.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }
}
