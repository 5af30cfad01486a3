//! Flight recorder: time-resolved link utilization.
//!
//! [`crate::FlowNet`] recomputes fair shares only at membership or capacity
//! changes, so between two recomputes every per-segment wire rate is
//! constant. Sampling at exactly those epochs therefore captures the full
//! utilization timeline with no extra clock and no sampling error: the
//! recorder appends one row per recompute to a bounded ring buffer, and the
//! telemetry layer bridges a run's series into Chrome trace counter tracks
//! (and `--timeseries-out` CSV).
//!
//! Tracked columns are the *directed link segments* (one per direction of
//! every topology link, in [`crate::SegmentMap::dir_segments`] order) —
//! the quantity the paper's link-level arguments are about. Endpoint
//! (HBM/DDR) and duplex-pool segments still show up in per-flow
//! [`crate::attr::BottleneckAttribution`]; the time series deliberately
//! stays link-shaped so a row is a heatmap frame.

use crate::arena::Span;
use crate::seg::SegmentMap;
use std::collections::VecDeque;

/// Default ring capacity: enough for every recompute of the repo's
/// experiments at `--quick`, small enough to stay O(MB) when a scenario
/// churns flows for millions of epochs.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One recompute epoch: instantaneous utilization per tracked segment.
#[derive(Clone, Debug, PartialEq)]
pub struct UtilSample {
    /// Network time of the recompute, nanoseconds.
    pub ts_ns: f64,
    /// Wire rate / capacity per tracked segment, [`UtilSeries::labels`]
    /// order. Exceeds 1.0 never (the solver respects capacities).
    pub util: Vec<f64>,
}

/// A cloned-out snapshot of the recorder's ring: labels + samples.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UtilSeries {
    /// Column labels (`GCD0->GCD1` style), fixed at enable time.
    pub labels: Vec<String>,
    /// Samples in time order (non-decreasing `ts_ns`).
    pub samples: Vec<UtilSample>,
    /// Samples evicted from the front of the ring because the run outlived
    /// its capacity. Nonzero means the series is a *suffix* of the run.
    pub dropped: u64,
}

impl UtilSeries {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Bounded epoch-sampled utilization recorder, owned by
/// [`crate::FlowNet`]'s rate state and fed by its fair-share flush: every
/// recompute epoch rebuilds the per-segment wire load from the live CSR and
/// appends one dense sample row.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    /// Dense segment index per tracked column.
    tracked: Vec<u32>,
    labels: Vec<String>,
    capacity: usize,
    ring: VecDeque<UtilSample>,
    dropped: u64,
    /// Per-segment wire load of the epoch being sampled (reused buffer).
    load: Vec<f64>,
}

impl FlightRecorder {
    /// A recorder tracking every directed link segment of `segmap`,
    /// keeping at most `capacity` epochs (0 is clamped to 1).
    pub fn new(segmap: &SegmentMap, capacity: usize) -> Self {
        let mut tracked = Vec::new();
        let mut labels = Vec::new();
        for (_, _, seg) in segmap.dir_segments() {
            tracked.push(seg.0);
            labels.push(segmap.label(seg).to_string());
        }
        FlightRecorder {
            tracked,
            labels,
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            dropped: 0,
            load: vec![0.0; segmap.len()],
        }
    }

    /// Record one epoch: per-flow wire rates (`wire`, span order) spread
    /// over their CSR segment lists, normalized by `caps`. A repeated epoch
    /// at the same timestamp (several flushes before time advances)
    /// overwrites the previous sample — the last solve at a timestamp is
    /// the one that governs the following interval.
    pub(crate) fn rebuild(
        &mut self,
        ts_ns: f64,
        caps: &[f64],
        buf: &[u32],
        spans: &[Span],
        wire: &[f64],
    ) {
        self.load.clear();
        self.load.resize(caps.len(), 0.0);
        for (i, f) in spans.iter().enumerate() {
            let segs = &buf[f.start as usize..(f.start + f.len) as usize];
            for &s in segs {
                self.load[s as usize] += wire[i];
            }
        }
        let util = self
            .tracked
            .iter()
            .map(|&s| {
                let cap = caps[s as usize];
                if cap > 0.0 {
                    self.load[s as usize] / cap
                } else {
                    0.0
                }
            })
            .collect();
        if let Some(last) = self.ring.back_mut() {
            if last.ts_ns == ts_ns {
                last.util = util;
                return;
            }
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(UtilSample { ts_ns, util });
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Samples evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Snapshot the ring into an owned, exportable series.
    pub fn series(&self) -> UtilSeries {
        UtilSeries {
            labels: self.labels.clone(),
            samples: self.ring.iter().cloned().collect(),
            dropped: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::FlowArena;
    use crate::seg::SegId;
    use ifsim_topology::NodeTopology;

    fn recorder(cap: usize) -> (SegmentMap, FlightRecorder) {
        let m = SegmentMap::new(&NodeTopology::frontier());
        let r = FlightRecorder::new(&m, cap);
        (m, r)
    }

    #[test]
    fn tracks_every_directed_link_segment() {
        let (m, r) = recorder(16);
        assert_eq!(r.labels.len(), m.dir_segments().count());
        assert!(r.labels.iter().any(|l| l.contains("GCD")));
        assert!(r.is_empty());
    }

    #[test]
    fn records_normalized_utilization() {
        let (m, mut r) = recorder(16);
        let caps: Vec<f64> = (0..m.len()).map(|i| m.capacity(SegId(i as u32))).collect();
        let (_, _, seg) = m.dir_segments().next().expect("frontier has links");
        let mut arena = FlowArena::new();
        arena.push(&[seg], f64::INFINITY);
        let cap = caps[seg.idx()];
        r.rebuild(10.0, &caps, arena.buf(), arena.spans(), &[cap / 2.0]);
        let s = r.series();
        assert_eq!(s.samples.len(), 1);
        assert_eq!(s.samples[0].ts_ns, 10.0);
        assert!((s.samples[0].util[0] - 0.5).abs() < 1e-12);
        // Every untouched column reads zero.
        assert!(s.samples[0].util[1..].iter().all(|&u| u == 0.0));
    }

    #[test]
    fn same_timestamp_overwrites_last_sample() {
        let (m, mut r) = recorder(16);
        let caps: Vec<f64> = (0..m.len()).map(|i| m.capacity(SegId(i as u32))).collect();
        let arena = FlowArena::new();
        r.rebuild(5.0, &caps, arena.buf(), arena.spans(), &[]);
        r.rebuild(5.0, &caps, arena.buf(), arena.spans(), &[]);
        r.rebuild(6.0, &caps, arena.buf(), arena.spans(), &[]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_bounds_memory_and_counts_evictions() {
        let (m, mut r) = recorder(3);
        let caps: Vec<f64> = (0..m.len()).map(|i| m.capacity(SegId(i as u32))).collect();
        let arena = FlowArena::new();
        for t in 0..5 {
            r.rebuild(t as f64, &caps, arena.buf(), arena.spans(), &[]);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let s = r.series();
        assert_eq!(s.dropped, 2);
        assert_eq!(s.samples[0].ts_ns, 2.0);
        assert_eq!(s.samples[2].ts_ns, 4.0);
    }
}
