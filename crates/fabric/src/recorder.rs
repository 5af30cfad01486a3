//! Flight recorder: time-resolved link utilization, stored as change points.
//!
//! [`crate::FlowNet`] recomputes fair shares only at membership or capacity
//! changes, so between two recomputes every per-segment wire rate is
//! constant. Sampling at exactly those epochs therefore captures the full
//! utilization timeline with no extra clock and no sampling error. Most
//! epochs move only a few links, so the recorder keeps each column as a
//! step function rather than one dense row per epoch:
//!
//! - the timestamps of the retained epochs;
//! - a base row, each column's value at the first retained epoch;
//! - one time-ordered ring of change points `(epoch ts, column, util)`,
//!   pushed only when a column's value differs bit-wise from its previous
//!   value, in column order within an epoch;
//! - the newest epoch, held open in one reusable dense row. A flush at the
//!   same timestamp overwrites it; the next timestamp commits it by diffing
//!   it against the current values.
//!
//! The ring is bounded in *epochs*, not change points: once
//! [`DEFAULT_RING_CAPACITY`] epochs are retained, opening a new one evicts
//! the oldest and folds the new first epoch's change points into the base
//! row. The telemetry layer emits a run's [`UtilSeries::samples`] as
//! Chrome trace counter tracks (and `--timeseries-out` CSV), which hold
//! each value until the next sample, exactly like the step functions here.
//!
//! Tracked columns are the *directed link segments* (one per direction of
//! every topology link, in [`crate::SegmentMap::dir_segments`] order) —
//! the quantity the paper's link-level arguments are about. Endpoint
//! (HBM/DDR) and duplex-pool segments still show up in per-flow
//! [`crate::attr::BottleneckAttribution`]; the time series deliberately
//! stays link-shaped so an expanded row is a heatmap frame.

use crate::arena::Span;
use crate::seg::SegmentMap;
use std::collections::VecDeque;

/// Ring capacity in epochs: enough for every recompute of the repo's
/// experiments at `--quick`, and a bound on memory when a scenario churns
/// flows for millions of epochs.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One counter sample: column `col` reads `util` (wire rate / capacity,
/// never above 1.0) from `ts_ns` until the column's next sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UtilSample {
    /// Network time of the recompute epoch, nanoseconds.
    pub ts_ns: f64,
    /// Tracked column, an index into [`UtilSeries::labels`].
    pub col: usize,
    /// Utilization from `ts_ns` on.
    pub util: f64,
}

/// A cloned-out snapshot of the recorder: labels plus every column's step
/// function over the retained epochs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UtilSeries {
    /// Column labels (`GCD0->GCD1` style), fixed at enable time.
    pub labels: Vec<String>,
    /// Epochs evicted from the front of the ring because the run outlived
    /// its capacity. Nonzero means the series is a *suffix* of the run.
    pub dropped: u64,
    /// Retained epoch timestamps, strictly increasing.
    epochs: Vec<f64>,
    /// Each column's value at the first retained epoch.
    base: Vec<f64>,
    /// Change points after the first retained epoch, time-ordered.
    changes: Vec<UtilSample>,
    /// Each column's value at the final retained epoch.
    last: Vec<f64>,
    /// Whether any retained value of the column is above zero.
    active: Vec<bool>,
}

impl UtilSeries {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Timestamps of the retained epochs.
    pub fn epochs(&self) -> &[f64] {
        &self.epochs
    }

    /// The counter samples, epoch-major and column-minor, for the *active*
    /// columns only (those with a retained value above zero): every active
    /// column at the first retained epoch, only the columns that changed at
    /// each middle epoch, and every active column again at the final epoch
    /// so each track visibly ends there.
    pub fn samples(&self) -> impl Iterator<Item = UtilSample> + '_ {
        let first = self.epochs.first().copied();
        let last = self.epochs.get(1..).and_then(<[f64]>::last).copied();
        // The final epoch's own change points are covered by its full row.
        let middle = match last {
            Some(ts) => &self.changes[..self.changes.partition_point(|c| c.ts_ns < ts)],
            None => &self.changes[..],
        };
        self.full_row(first, &self.base)
            .chain(middle.iter().filter(|c| self.active[c.col]).copied())
            .chain(self.full_row(last, &self.last))
    }

    /// Every active column of `values` at `ts_ns`, if there is such an
    /// epoch.
    fn full_row<'a>(
        &'a self,
        ts_ns: Option<f64>,
        values: &'a [f64],
    ) -> impl Iterator<Item = UtilSample> + 'a {
        ts_ns.into_iter().flat_map(move |ts_ns| {
            values
                .iter()
                .enumerate()
                .filter(|&(col, _)| self.active[col])
                .map(move |(col, &util)| UtilSample { ts_ns, col, util })
        })
    }
}

/// Append a change point for every column of `row` that differs bit-wise
/// from `current`, in column order, and bring `current` up to `row`.
fn push_changes(ts_ns: f64, current: &mut [f64], row: &[f64], out: &mut impl Extend<UtilSample>) {
    for (col, (cur, &util)) in current.iter_mut().zip(row).enumerate() {
        if cur.to_bits() != util.to_bits() {
            *cur = util;
            out.extend([UtilSample { ts_ns, col, util }]);
        }
    }
}

/// Bounded utilization recorder, owned by [`crate::FlowNet`]'s rate state
/// and fed by its fair-share flush: every recompute epoch rebuilds the
/// per-segment wire load from the live CSR into the open row, and the next
/// epoch keeps only the columns that changed.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Dense segment index per tracked column.
    tracked: Vec<u32>,
    labels: Vec<String>,
    /// Committed epoch timestamps (the open epoch is not among them).
    epochs: VecDeque<f64>,
    /// Each column's value at the first committed epoch.
    base: Vec<f64>,
    /// Each column's value at the newest committed epoch.
    current: Vec<f64>,
    /// Change points of the committed epochs after the first.
    changes: VecDeque<UtilSample>,
    /// Timestamp of the open epoch; `None` until the first sample.
    open: Option<f64>,
    /// The open epoch's utilization per tracked column (reused buffer).
    row: Vec<f64>,
    dropped: u64,
    /// Per-segment wire load of the epoch being sampled (reused buffer).
    load: Vec<f64>,
}

impl FlightRecorder {
    /// A recorder tracking every directed link segment of `segmap`,
    /// keeping at most [`DEFAULT_RING_CAPACITY`] epochs.
    pub fn new(segmap: &SegmentMap) -> Self {
        let mut tracked = Vec::new();
        let mut labels = Vec::new();
        for (_, _, seg) in segmap.dir_segments() {
            tracked.push(seg.0);
            labels.push(segmap.label(seg).to_string());
        }
        let cols = tracked.len();
        FlightRecorder {
            tracked,
            labels,
            epochs: VecDeque::new(),
            base: vec![0.0; cols],
            current: vec![0.0; cols],
            changes: VecDeque::new(),
            open: None,
            row: vec![0.0; cols],
            dropped: 0,
            load: vec![0.0; segmap.len()],
        }
    }

    /// Record one epoch: per-flow wire rates (`wire`, span order) spread
    /// over their CSR segment lists, normalized by `caps`. A repeated epoch
    /// at the same timestamp (several flushes before time advances)
    /// overwrites the open row — the last solve at a timestamp is the one
    /// that governs the following interval.
    pub(crate) fn rebuild(
        &mut self,
        ts_ns: f64,
        caps: &[f64],
        buf: &[u32],
        spans: &[Span],
        wire: &[f64],
    ) {
        if let Some(open) = self.open.filter(|&t| t != ts_ns) {
            self.commit(open);
        }
        self.open = Some(ts_ns);
        self.load.clear();
        self.load.resize(caps.len(), 0.0);
        for (i, f) in spans.iter().enumerate() {
            let segs = &buf[f.start as usize..(f.start + f.len) as usize];
            for &s in segs {
                self.load[s as usize] += wire[i];
            }
        }
        for (u, &s) in self.row.iter_mut().zip(&self.tracked) {
            let cap = caps[s as usize];
            *u = if cap > 0.0 {
                self.load[s as usize] / cap
            } else {
                0.0
            };
        }
    }

    /// Commit the open epoch at `ts_ns`, making room for a new one: diff
    /// its row into the change ring, and evict the oldest epoch if the new
    /// one would exceed the capacity.
    fn commit(&mut self, ts_ns: f64) {
        if self.epochs.is_empty() {
            self.base.copy_from_slice(&self.row);
            self.current.copy_from_slice(&self.row);
        } else {
            push_changes(ts_ns, &mut self.current, &self.row, &mut self.changes);
        }
        self.epochs.push_back(ts_ns);
        if self.epochs.len() == DEFAULT_RING_CAPACITY {
            self.epochs.pop_front();
            self.dropped += 1;
            let first = self.epochs.front().copied();
            while let Some(c) = self.changes.front().filter(|c| Some(c.ts_ns) == first) {
                self.base[c.col] = c.util;
                self.changes.pop_front();
            }
        }
    }

    /// Number of epochs currently held.
    pub fn len(&self) -> usize {
        self.epochs.len() + usize::from(self.open.is_some())
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.open.is_none()
    }

    /// Epochs evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Snapshot the ring, with the open epoch committed, into an owned,
    /// exportable series.
    pub fn series(&self) -> UtilSeries {
        let mut epochs: Vec<f64> = self.epochs.iter().copied().collect();
        let mut changes: Vec<UtilSample> = self.changes.iter().copied().collect();
        let (base, last) = match self.open {
            None => (Vec::new(), Vec::new()),
            Some(_) if epochs.is_empty() => (self.row.clone(), self.row.clone()),
            Some(ts_ns) => {
                let mut last = self.current.clone();
                push_changes(ts_ns, &mut last, &self.row, &mut changes);
                (self.base.clone(), last)
            }
        };
        epochs.extend(self.open);
        let mut active: Vec<bool> = base.iter().map(|&u| u > 0.0).collect();
        for c in changes.iter().filter(|c| c.util > 0.0) {
            active[c.col] = true;
        }
        UtilSeries {
            labels: self.labels.clone(),
            dropped: self.dropped,
            epochs,
            base,
            changes,
            last,
            active,
        }
    }
}

/// The dense recorder the change-point ring replaced: one full row per
/// epoch in a ring of [`DEFAULT_RING_CAPACITY`] rows. Kept as the oracle
/// the change points are checked against.
#[cfg(test)]
mod oracle {
    use super::DEFAULT_RING_CAPACITY;
    use crate::arena::Span;
    use std::collections::VecDeque;

    pub struct DenseRecorder {
        tracked: Vec<u32>,
        pub ring: VecDeque<(f64, Vec<f64>)>,
        pub dropped: u64,
    }

    impl DenseRecorder {
        pub fn new(tracked: Vec<u32>) -> Self {
            DenseRecorder {
                tracked,
                ring: VecDeque::new(),
                dropped: 0,
            }
        }

        pub fn rebuild(
            &mut self,
            ts_ns: f64,
            caps: &[f64],
            buf: &[u32],
            spans: &[Span],
            wire: &[f64],
        ) {
            let mut load = vec![0.0; caps.len()];
            for (i, f) in spans.iter().enumerate() {
                for &s in &buf[f.start as usize..(f.start + f.len) as usize] {
                    load[s as usize] += wire[i];
                }
            }
            let util = self
                .tracked
                .iter()
                .map(|&s| {
                    let cap = caps[s as usize];
                    if cap > 0.0 {
                        load[s as usize] / cap
                    } else {
                        0.0
                    }
                })
                .collect();
            if let Some(last) = self.ring.back_mut() {
                if last.0 == ts_ns {
                    last.1 = util;
                    return;
                }
            }
            if self.ring.len() == DEFAULT_RING_CAPACITY {
                self.ring.pop_front();
                self.dropped += 1;
            }
            self.ring.push_back((ts_ns, util));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::DenseRecorder;
    use super::*;
    use crate::arena::FlowArena;
    use crate::seg::SegId;
    use ifsim_topology::NodeTopology;
    use proptest::prelude::*;

    impl UtilSeries {
        /// Every column's value at every retained epoch, expanded from the
        /// base row and the change points.
        fn rows(&self) -> Vec<Vec<f64>> {
            let mut row = self.base.clone();
            let mut changes = self.changes.iter().peekable();
            let mut rows = Vec::new();
            for &ts in &self.epochs {
                while let Some(c) = changes.next_if(|c| c.ts_ns == ts) {
                    row[c.col] = c.util;
                }
                rows.push(row.clone());
            }
            assert!(changes.next().is_none(), "change points off the epochs");
            assert_eq!(rows.last().unwrap_or(&Vec::new()), &self.last);
            rows
        }
    }

    fn recorder() -> (SegmentMap, FlightRecorder) {
        let m = SegmentMap::new(&NodeTopology::frontier());
        let r = FlightRecorder::new(&m);
        (m, r)
    }

    fn caps(m: &SegmentMap) -> Vec<f64> {
        (0..m.len()).map(|i| m.capacity(SegId(i as u32))).collect()
    }

    #[test]
    fn tracks_every_directed_link_segment() {
        let (m, r) = recorder();
        assert_eq!(r.labels.len(), m.dir_segments().count());
        assert!(r.labels.iter().any(|l| l.contains("GCD")));
        assert!(r.is_empty());
    }

    #[test]
    fn records_normalized_utilization() {
        let (m, mut r) = recorder();
        let caps = caps(&m);
        let (_, _, seg) = m.dir_segments().next().expect("frontier has links");
        let mut arena = FlowArena::new();
        arena.push(&[seg], f64::INFINITY);
        let cap = caps[seg.idx()];
        r.rebuild(10.0, &caps, arena.buf(), arena.spans(), &[cap / 2.0]);
        let s = r.series();
        assert_eq!(s.epochs(), [10.0]);
        // Only the loaded column is active, so it is the only sample.
        let samples: Vec<UtilSample> = s.samples().collect();
        assert_eq!(samples.len(), 1);
        assert_eq!((samples[0].ts_ns, samples[0].col), (10.0, 0));
        assert!((samples[0].util - 0.5).abs() < 1e-12);
        // Every untouched column reads zero.
        assert!(s.rows()[0][1..].iter().all(|&u| u == 0.0));
    }

    #[test]
    fn same_timestamp_overwrites_last_sample() {
        let (m, mut r) = recorder();
        let caps = caps(&m);
        let arena = FlowArena::new();
        r.rebuild(5.0, &caps, arena.buf(), arena.spans(), &[]);
        r.rebuild(5.0, &caps, arena.buf(), arena.spans(), &[]);
        r.rebuild(6.0, &caps, arena.buf(), arena.spans(), &[]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn unchanged_epochs_store_no_change_points() {
        let (m, mut r) = recorder();
        let caps = caps(&m);
        let (_, _, seg) = m.dir_segments().next().expect("frontier has links");
        let mut arena = FlowArena::new();
        arena.push(&[seg], f64::INFINITY);
        for t in 0..100 {
            r.rebuild(t as f64, &caps, arena.buf(), arena.spans(), &[1e9]);
        }
        assert_eq!(r.len(), 100);
        assert!(r.changes.is_empty());
        // The track still spans the run: its first and final epochs.
        let s = r.series();
        let ts: Vec<f64> = s.samples().map(|c| c.ts_ns).collect();
        assert_eq!(ts, [0.0, 99.0]);
    }

    #[test]
    fn ring_bounds_memory_and_counts_evictions() {
        let (m, mut r) = recorder();
        let caps = caps(&m);
        let (_, _, seg) = m.dir_segments().next().expect("frontier has links");
        let mut arena = FlowArena::new();
        arena.push(&[seg], f64::INFINITY);
        let cap = DEFAULT_RING_CAPACITY;
        // Column 0 reads the epoch index, so every epoch is a change point.
        for t in 0..cap + 2 {
            r.rebuild(t as f64, &caps, arena.buf(), arena.spans(), &[t as f64]);
        }
        assert_eq!(r.len(), cap);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.changes.len(), cap - 2);
        let s = r.series();
        assert_eq!(s.dropped, 2);
        assert_eq!(s.epochs()[0], 2.0);
        assert_eq!(s.epochs()[cap - 1], (cap + 1) as f64);
        // The evicted epochs' successor was folded into the base row.
        assert_eq!(s.base[0], 2.0 / caps[seg.idx()]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random rebuild tapes — random segment sets and wire rates, links
        /// taken down, repeated timestamps, long runs of unchanged epochs,
        /// and often more epochs than the ring holds — give the dense
        /// recorder's rows bit for bit when every track is expanded at the
        /// retained epochs, after every phase of the tape.
        #[test]
        fn change_points_match_the_dense_oracle(
            phases in proptest::collection::vec(
                (
                    proptest::collection::vec((any::<u64>(), 0usize..6), 0..5),
                    0usize..3,
                    prop_oneof![1usize..4, 1usize..64, 1000usize..3000],
                    any::<u64>(),
                ),
                1..10,
            ),
        ) {
            let (m, mut r) = recorder();
            let mut dense = DenseRecorder::new(r.tracked.clone());
            let n = m.len() as u64;
            let mut ts = 0.0;
            for (flows, ts_mode, run, down) in phases {
                let mut caps = caps(&m);
                if down % 4 == 0 {
                    caps[(down / 4 % n) as usize] = 0.0;
                }
                let mut arena = FlowArena::new();
                let mut wire = Vec::new();
                for &(pick, rate) in &flows {
                    let segs: Vec<SegId> = (0..1 + pick % 3)
                        .map(|k| SegId(((pick >> (16 * k)) % n) as u32))
                        .collect();
                    arena.push(&segs, f64::INFINITY);
                    wire.push([0.0, 1e9, 12.5e9, 25e9, 50e9, (pick % 997) as f64 * 1e8][rate]);
                }
                // Mode 2 opens the phase on the previous phase's last
                // timestamp, overwriting it.
                if ts_mode != 2 {
                    ts += 1.0;
                }
                for _ in 0..run {
                    if ts_mode == 1 {
                        // A superseded solve at the same timestamp.
                        let rev: Vec<f64> = wire.iter().rev().copied().collect();
                        r.rebuild(ts, &caps, arena.buf(), arena.spans(), &rev);
                        dense.rebuild(ts, &caps, arena.buf(), arena.spans(), &rev);
                    }
                    r.rebuild(ts, &caps, arena.buf(), arena.spans(), &wire);
                    dense.rebuild(ts, &caps, arena.buf(), arena.spans(), &wire);
                    ts += 1.0;
                }
                ts -= 1.0;

                prop_assert_eq!(r.len(), dense.ring.len());
                prop_assert_eq!(r.dropped(), dense.dropped);
                let s = r.series();
                prop_assert_eq!(s.dropped, dense.dropped);
                let bits = |row: &[f64]| row.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
                let dense_ts: Vec<f64> = dense.ring.iter().map(|(t, _)| *t).collect();
                prop_assert_eq!(bits(s.epochs()), bits(&dense_ts));
                let rows = s.rows();
                for ((_, want), got) in dense.ring.iter().zip(&rows) {
                    prop_assert_eq!(bits(want), bits(got));
                }
                // The emitted samples: every active column (one that ever
                // rises above zero) at the first and final epochs, and in
                // between no sample that repeats its track's previous value.
                // Expanded per track, they give the same rows.
                let active: Vec<usize> = (0..s.labels.len())
                    .filter(|&c| rows.iter().any(|row| row[c] > 0.0))
                    .collect();
                let last = rows.len() - 1;
                let mut prev: Vec<Option<f64>> = vec![None; s.labels.len()];
                let mut samples = s.samples().peekable();
                for (i, (&t, want)) in s.epochs().iter().zip(&rows).enumerate() {
                    let mut cols = Vec::new();
                    while let Some(c) = samples.next_if(|c| c.ts_ns == t) {
                        if i > 0 && i < last {
                            prop_assert_ne!(prev[c.col].map(f64::to_bits), Some(c.util.to_bits()));
                        }
                        prev[c.col] = Some(c.util);
                        cols.push(c.col);
                    }
                    if i == 0 || i == last {
                        prop_assert_eq!(&cols, &active);
                    }
                    for (col, &u) in want.iter().enumerate() {
                        match prev[col] {
                            Some(p) => prop_assert_eq!(p.to_bits(), u.to_bits()),
                            None => prop_assert!(u <= 0.0),
                        }
                    }
                }
                prop_assert!(samples.next().is_none());
            }
        }
    }
}
