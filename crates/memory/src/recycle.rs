//! Recycled real backings.
//!
//! A fresh real backing is a zero-filled box of untouched pages, and the
//! host pays one minor page fault on the first touch of each 4 KiB page.
//! The allocator hands large boxes back to the kernel when they drop, so
//! every runtime that allocates the same buffers as the one before it
//! faults them in again. The recycler keeps dropped boxes of at least one
//! page and hands each out again, zero-filled, for a request of exactly
//! its length.
//!
//! It has one bound and no knob: pooled + live bytes never exceed the
//! largest live total seen so far (the live high-water mark). A fresh
//! allocation evicts pooled boxes until that holds again, so recycling
//! never raises the process's peak memory. Boxes under a page bypass the
//! recycler and count in neither total.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The smallest box the recycler keeps: one 4 KiB page, the fault unit.
pub(crate) const MIN_RECYCLED: usize = 4096;

/// The process-wide recycler behind every real backing.
pub(crate) static RECYCLER: Recycler = Recycler::new();

/// A pool of freed boxes keyed by exact length, plus the byte counters
/// its bound is stated in.
pub(crate) struct Recycler {
    pool: Mutex<Pool>,
}

struct Pool {
    /// Freed boxes by exact length; no list is kept empty.
    free: BTreeMap<usize, Vec<Box<[u8]>>>,
    /// Bytes handed out and not yet given back.
    live: u64,
    /// Bytes held in `free`.
    pooled: u64,
    /// The largest `live` seen so far.
    high_water: u64,
}

impl Pool {
    /// Take one pooled box of exactly `len` bytes.
    fn pop(&mut self, len: usize) -> Option<Box<[u8]>> {
        let boxes = self.free.get_mut(&len)?;
        let b = boxes.pop().expect("no empty length list is kept");
        if boxes.is_empty() {
            self.free.remove(&len);
        }
        self.pooled -= len as u64;
        Some(b)
    }

    /// Remove pooled boxes, largest first, until pooled + live fits under
    /// the high-water mark. The caller drops them after unlocking.
    fn evict_over_high_water(&mut self) -> Vec<Box<[u8]>> {
        let mut evicted = Vec::new();
        while self.live + self.pooled > self.high_water {
            let (&len, _) = self
                .free
                .last_key_value()
                .expect("the excess is pooled bytes");
            evicted.extend(self.pop(len));
        }
        evicted
    }
}

impl Recycler {
    /// An empty recycler.
    pub(crate) const fn new() -> Recycler {
        Recycler {
            pool: Mutex::new(Pool {
                free: BTreeMap::new(),
                live: 0,
                pooled: 0,
                high_water: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Pool> {
        // Nothing under the lock can panic between two updates of the pool
        // (an allocation failure aborts), so a poisoned pool is still
        // consistent: keep using it.
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A zero-filled box of `len` bytes: a pooled one if any has exactly
    /// that length, else a fresh one.
    pub(crate) fn take(&self, len: usize) -> Box<[u8]> {
        if len < MIN_RECYCLED {
            return vec![0u8; len].into_boxed_slice();
        }
        let mut pool = self.lock();
        pool.live += len as u64;
        if let Some(mut b) = pool.pop(len) {
            drop(pool);
            b.fill(0);
            return b;
        }
        pool.high_water = pool.high_water.max(pool.live);
        let evicted = pool.evict_over_high_water();
        drop(pool);
        drop(evicted);
        vec![0u8; len].into_boxed_slice()
    }

    /// Return a box that [`Recycler::take`] handed out. Never panics, so
    /// it is safe to call from `Drop`, also during unwinding.
    pub(crate) fn give(&self, b: Box<[u8]>) {
        let len = b.len();
        if len < MIN_RECYCLED {
            return;
        }
        let mut pool = self.lock();
        pool.live = pool.live.saturating_sub(len as u64);
        pool.pooled += len as u64;
        pool.free.entry(len).or_default().push(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Recycler {
        /// `(live, pooled, high_water)`, after checking that `pooled`
        /// is the sum of the pool's contents and no length list is empty.
        fn counters(&self) -> (u64, u64, u64) {
            let pool = self.lock();
            let held: u64 = pool
                .free
                .iter()
                .map(|(&len, boxes)| {
                    assert!(!boxes.is_empty(), "empty list kept for {len} B");
                    assert!(boxes.iter().all(|b| b.len() == len));
                    (len * boxes.len()) as u64
                })
                .sum();
            assert_eq!(held, pool.pooled, "pooled counter vs pool contents");
            (pool.live, pool.pooled, pool.high_water)
        }
    }

    #[test]
    fn a_freed_box_comes_back_zeroed() {
        let r = Recycler::new();
        let mut b = r.take(8192);
        b.fill(0xAB);
        let addr = b.as_ptr();
        r.give(b);
        let again = r.take(8192);
        assert_eq!(again.as_ptr(), addr, "the pooled box is reused");
        assert!(again.iter().all(|&x| x == 0));
        assert_eq!(r.counters(), (8192, 0, 8192));
    }

    #[test]
    fn sub_page_boxes_bypass_the_pool() {
        let r = Recycler::new();
        let b = r.take(MIN_RECYCLED - 1);
        assert_eq!(r.counters(), (0, 0, 0));
        r.give(b);
        assert_eq!(r.counters(), (0, 0, 0));
    }

    #[test]
    fn a_poisoned_recycler_still_allocates_and_frees() {
        let r = Recycler::new();
        let kept = r.take(4096);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = r.pool.lock().unwrap();
            panic!("poison the recycler's mutex");
        }));
        assert!(poisoned.is_err());
        assert!(r.pool.is_poisoned());
        r.give(kept);
        let b = r.take(4096);
        assert!(b.iter().all(|&x| x == 0));
        r.give(b);
        assert_eq!(r.counters(), (0, 4096, 4096));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random allocate/free sequences over a few page-multiple and
        /// sub-page lengths keep pooled + live under the live high-water
        /// mark, hand out only zeroed boxes, and keep the counters equal
        /// to the pool's contents.
        #[test]
        fn recycler_never_exceeds_the_live_high_water(
            lens in proptest::collection::vec(1usize..5 * MIN_RECYCLED, 1..6),
            steps in proptest::collection::vec((any::<bool>(), any::<usize>(), any::<u8>()), 0..64),
        ) {
            let r = Recycler::new();
            let mut held: Vec<Box<[u8]>> = Vec::new();
            let mut live = 0u64;
            let mut peak = 0u64;
            for (alloc, pick, fill) in steps {
                if alloc || held.is_empty() {
                    let len = lens[pick % lens.len()];
                    let mut b = r.take(len);
                    prop_assert_eq!(b.len(), len);
                    prop_assert!(b.iter().all(|&x| x == 0), "a handed-out box is not zeroed");
                    b.fill(fill | 1);
                    if len >= MIN_RECYCLED {
                        live += len as u64;
                    }
                    held.push(b);
                } else {
                    let b = held.swap_remove(pick % held.len());
                    if b.len() >= MIN_RECYCLED {
                        live -= b.len() as u64;
                    }
                    r.give(b);
                }
                peak = peak.max(live);
                let (r_live, pooled, high_water) = r.counters();
                prop_assert_eq!(r_live, live);
                prop_assert_eq!(high_water, peak);
                prop_assert!(
                    live + pooled <= high_water,
                    "live {} + pooled {} over the high-water mark {}",
                    live,
                    pooled,
                    high_water
                );
            }
        }
    }
}
