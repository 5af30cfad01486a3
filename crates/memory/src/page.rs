//! Residency tracking for managed (unified) memory.
//!
//! `hipMallocManaged` memory has one virtual address range whose pages can
//! live in any physical space. With XNACK enabled, a GPU touching a
//! non-resident page faults and the driver migrates the whole page —
//! "independent of the size of the data being accessed" (paper §II-C).
//! Migrations move whole ranges, so residency is piecewise constant and is
//! stored as runs of pages: the cost of a query or a migration follows the
//! number of runs, not the number of pages.

use crate::space::MemSpace;

/// Residency of each page of a managed allocation.
#[derive(Clone, Debug)]
pub struct PageTable {
    page_size: u64,
    bytes: u64,
    n_pages: usize,
    /// Sorted, coalesced runs `(first_page, space)`. The first run starts
    /// at page 0, each run ends where the next starts (the last at
    /// `n_pages`), and no two neighbouring runs share a space.
    runs: Vec<(usize, MemSpace)>,
}

impl PageTable {
    /// A table for `bytes` of memory in pages of `page_size`, initially all
    /// resident in `home`.
    pub fn new(bytes: u64, page_size: u64, home: MemSpace) -> Self {
        assert!(page_size > 0, "zero page size");
        assert!(bytes > 0, "zero-length page table");
        PageTable {
            page_size,
            bytes,
            n_pages: bytes.div_ceil(page_size) as usize,
            runs: vec![(0, home)],
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.n_pages
    }

    /// The page index covering byte `offset`.
    fn page_of(&self, offset: u64) -> usize {
        assert!(offset < self.bytes, "offset {offset} beyond {}", self.bytes);
        (offset / self.page_size) as usize
    }

    /// Page indices covering `[offset, offset + len)`.
    fn pages_in(&self, offset: u64, len: u64) -> std::ops::Range<usize> {
        assert!(len > 0, "empty range");
        let Some(end) = offset.checked_add(len).filter(|&end| end <= self.bytes) else {
            panic!("range {offset}+{len} beyond {}", self.bytes);
        };
        self.page_of(offset)..self.page_of(end - 1) + 1
    }

    /// Index of the run holding `page`.
    fn run_of(&self, page: usize) -> usize {
        self.runs.partition_point(|&(first, _)| first <= page) - 1
    }

    /// One past the last page of run `i`.
    fn run_end(&self, i: usize) -> usize {
        self.runs
            .get(i + 1)
            .map_or(self.n_pages, |&(first, _)| first)
    }

    /// Where a page currently lives.
    pub fn residency(&self, page: usize) -> MemSpace {
        assert!(page < self.n_pages, "page {page} beyond {}", self.n_pages);
        self.runs[self.run_of(page)].1
    }

    /// Pages in the range *not* resident in `space` (the ones XNACK would
    /// fault on and migrate).
    pub fn non_resident_pages(&self, offset: u64, len: u64, space: MemSpace) -> usize {
        self.count_not_in(self.pages_in(offset, len), space)
    }

    /// Pages of `pages` not resident in `space`, walking only the runs the
    /// range overlaps.
    fn count_not_in(&self, pages: std::ops::Range<usize>, space: MemSpace) -> usize {
        (self.run_of(pages.start)..self.runs.len())
            .take_while(|&i| self.runs[i].0 < pages.end)
            .filter(|&i| self.runs[i].1 != space)
            .map(|i| self.run_end(i).min(pages.end) - self.runs[i].0.max(pages.start))
            .sum()
    }

    /// Migrate every page of the range to `space`; returns how many pages
    /// actually moved.
    pub fn migrate_range(&mut self, offset: u64, len: u64, space: MemSpace) -> usize {
        let pages = self.pages_in(offset, len);
        let moved = self.count_not_in(pages.clone(), space);
        // The overlapped runs become at most three: what is left of the
        // first, the migrated range, and what is left of the last; then
        // neighbours in the same space merge.
        let (first, last) = (self.run_of(pages.start), self.run_of(pages.end - 1));
        let head = (self.runs[first].0 < pages.start).then_some(self.runs[first]);
        let tail = (self.run_end(last) > pages.end).then_some((pages.end, self.runs[last].1));
        let mid = (pages.start, space);
        self.runs
            .splice(first..=last, head.into_iter().chain([mid]).chain(tail));
        self.runs.dedup_by_key(|&mut (_, s)| s);
        moved
    }

    /// Bytes resident in `space` across the whole allocation; the tail page
    /// counts only the bytes it holds.
    pub fn resident_bytes(&self, space: MemSpace) -> u64 {
        (0..self.runs.len())
            .filter(|&i| self.runs[i].1 == space)
            .map(|i| {
                let end = (self.run_end(i) as u64 * self.page_size).min(self.bytes);
                end - self.runs[i].0 as u64 * self.page_size
            })
            .sum()
    }
}

/// The per-page table the run table replaced: one entry per page, every
/// query a scan. Kept as the oracle the run table is checked against.
#[cfg(test)]
mod oracle {
    use crate::space::MemSpace;

    pub struct DensePageTable {
        page_size: u64,
        bytes: u64,
        residency: Vec<MemSpace>,
    }

    impl DensePageTable {
        pub fn new(bytes: u64, page_size: u64, home: MemSpace) -> Self {
            DensePageTable {
                page_size,
                bytes,
                residency: vec![home; bytes.div_ceil(page_size) as usize],
            }
        }

        fn pages_in(&self, offset: u64, len: u64) -> std::ops::Range<usize> {
            let first = (offset / self.page_size) as usize;
            let last = ((offset + len - 1) / self.page_size) as usize;
            first..last + 1
        }

        pub fn residency(&self, page: usize) -> MemSpace {
            self.residency[page]
        }

        pub fn non_resident_pages(&self, offset: u64, len: u64, space: MemSpace) -> usize {
            self.pages_in(offset, len)
                .filter(|&p| self.residency[p] != space)
                .count()
        }

        pub fn migrate_range(&mut self, offset: u64, len: u64, space: MemSpace) -> usize {
            let mut moved = 0;
            for p in self.pages_in(offset, len) {
                if self.residency[p] != space {
                    self.residency[p] = space;
                    moved += 1;
                }
            }
            moved
        }

        pub fn resident_bytes(&self, space: MemSpace) -> u64 {
            let mut total = 0;
            for (p, r) in self.residency.iter().enumerate() {
                if *r == space {
                    let start = p as u64 * self.page_size;
                    let end = (start + self.page_size).min(self.bytes);
                    total += end - start;
                }
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::DensePageTable;
    use super::*;
    use ifsim_topology::{GcdId, NumaId};
    use proptest::prelude::*;

    fn ddr() -> MemSpace {
        MemSpace::Ddr(NumaId(0))
    }
    fn hbm() -> MemSpace {
        MemSpace::Hbm(GcdId(0))
    }

    /// Home DDR plus the eight GCDs' HBM.
    fn spaces() -> Vec<MemSpace> {
        std::iter::once(ddr())
            .chain((0..8).map(|g| MemSpace::Hbm(GcdId(g))))
            .collect()
    }

    fn assert_run_invariants(t: &PageTable) {
        assert_eq!(t.runs[0].0, 0, "first run starts at page 0");
        for w in t.runs.windows(2) {
            assert!(w[0].0 < w[1].0, "run starts increase: {:?}", t.runs);
            assert_ne!(w[0].1, w[1].1, "neighbours coalesced: {:?}", t.runs);
        }
        for &(first, _) in &t.runs {
            assert!(first < t.n_pages(), "run start {first} within the table");
        }
    }

    #[test]
    fn page_count_rounds_up() {
        let t = PageTable::new(10_000, 4096, ddr());
        assert_eq!(t.n_pages(), 3);
        assert_eq!(t.page_size(), 4096);
    }

    #[test]
    fn all_pages_start_at_home() {
        let t = PageTable::new(16 * 4096, 4096, ddr());
        for p in 0..t.n_pages() {
            assert_eq!(t.residency(p), ddr());
        }
        assert_eq!(t.resident_bytes(ddr()), 16 * 4096);
        assert_eq!(t.resident_bytes(hbm()), 0);
    }

    #[test]
    fn range_queries_cover_partial_pages() {
        let t = PageTable::new(4 * 4096, 4096, ddr());
        assert_eq!(t.pages_in(0, 1), 0..1);
        assert_eq!(t.pages_in(4095, 2), 0..2);
        assert_eq!(t.pages_in(4096, 4096), 1..2);
        assert_eq!(t.pages_in(0, 4 * 4096), 0..4);
        assert_eq!(t.page_of(8192), 2);
    }

    #[test]
    fn migration_moves_whole_pages_once() {
        let mut t = PageTable::new(4 * 4096, 4096, ddr());
        // Touch 100 bytes straddling pages 0-1: both pages migrate.
        assert_eq!(t.non_resident_pages(4090, 100, hbm()), 2);
        assert_eq!(t.migrate_range(4090, 100, hbm()), 2);
        assert_eq!(t.residency(0), hbm());
        assert_eq!(t.residency(1), hbm());
        assert_eq!(t.residency(2), ddr());
        // Second touch is free.
        assert_eq!(t.migrate_range(4090, 100, hbm()), 0);
        assert_eq!(t.non_resident_pages(4090, 100, hbm()), 0);
    }

    #[test]
    fn resident_bytes_accounts_for_tail_page() {
        let mut t = PageTable::new(4096 + 100, 4096, ddr());
        assert_eq!(t.migrate_range(4096, 50, hbm()), 1);
        assert_eq!(t.resident_bytes(hbm()), 100); // the 100-byte tail page
        assert_eq!(t.resident_bytes(ddr()), 4096);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn out_of_range_rejected() {
        let t = PageTable::new(4096, 4096, ddr());
        let _ = t.pages_in(4000, 200);
    }

    /// An end past `u64::MAX` must not wrap around into range.
    #[test]
    #[should_panic(expected = "beyond")]
    fn wrapping_range_end_rejected() {
        let t = PageTable::new(4096, 4096, ddr());
        let _ = t.non_resident_pages(4000, u64::MAX - 3000, ddr());
    }

    /// Storage follows the runs: a fresh 1 GiB table is one run, and each
    /// disjoint migration adds at most two.
    #[test]
    fn runs_not_pages_are_stored() {
        const GIB: u64 = 1 << 30;
        let mut t = PageTable::new(GIB, 4096, ddr());
        assert_eq!(t.n_pages(), 262_144);
        assert_eq!(t.runs.len(), 1);
        let n = 100;
        for k in 0..n {
            let g = MemSpace::Hbm(GcdId((k % 8) as u8));
            t.migrate_range(k * (GIB / 128) + 4096, 3 * 4096, g);
            assert!(t.runs.len() <= 2 * (k as usize + 1) + 1);
        }
        assert_eq!(t.runs.len(), 2 * n as usize + 1);
        assert_run_invariants(&t);
        // Migrating the whole range collapses it back to one run.
        assert_eq!(t.migrate_range(0, GIB, hbm()), 262_144 - 3 * 13);
        assert_eq!(t.runs, vec![(0, hbm())]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random XNACK touches (partial ranges) and prefetches (whole
        /// allocation) across nine spaces agree with the per-page oracle
        /// on every query after every step, and keep the runs coalesced.
        #[test]
        fn runs_match_the_dense_oracle(
            ps in 0usize..4,
            full_pages in prop_oneof![0u64..4, 0u64..300],
            tail in any::<u64>(),
            steps in proptest::collection::vec(
                (0u8..4, 0usize..9, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
                0..24,
            ),
        ) {
            let page_size = [1, 3000, 4096, 2 << 20][ps];
            let bytes = (full_pages * page_size + tail % page_size).max(1);
            let spaces = spaces();
            let mut runs = PageTable::new(bytes, page_size, ddr());
            let mut dense = DensePageTable::new(bytes, page_size, ddr());
            let range = |a: u64, b: u64| {
                let off = a % bytes;
                (off, 1 + b % (bytes - off))
            };
            for (kind, s, a, b, pa, pb) in steps {
                let (off, len) = if kind == 0 { (0, bytes) } else { range(a, b) };
                prop_assert_eq!(
                    runs.migrate_range(off, len, spaces[s]),
                    dense.migrate_range(off, len, spaces[s])
                );
                assert_run_invariants(&runs);
                let (poff, plen) = range(pa, pb);
                for &sp in &spaces {
                    prop_assert_eq!(
                        runs.non_resident_pages(poff, plen, sp),
                        dense.non_resident_pages(poff, plen, sp)
                    );
                    prop_assert_eq!(runs.resident_bytes(sp), dense.resident_bytes(sp));
                }
                for p in 0..runs.n_pages() {
                    prop_assert_eq!(runs.residency(p), dense.residency(p));
                }
            }
        }
    }
}
