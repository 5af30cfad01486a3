//! Per-flow bottleneck attribution.
//!
//! The max-min solver already decides, every round, *which constraint*
//! freezes each flow: either the flow's own wire cap (an endpoint engine
//! such as SDMA, or a protocol ceiling) or one saturated segment (link
//! contention). [`crate::FlowNet`] integrates that per-epoch decision over
//! each flow's lifetime — every accrual interval charges its duration to
//! the flow's current binding constraint — and folds the result into a
//! [`BottleneckAttribution`] attached to the flow's completion event.
//!
//! Every pass is a full water-fill, so each flow's binding is re-decided at
//! every epoch. When two saturated segments hold a flow at the same level
//! (an xGMI direction and its duplex pool, say), the epoch charges the one
//! the solver froze it on first.
//!
//! This is the simulator-side analogue of the paper's explanatory method:
//! the ~75 % unidirectional ceiling is an *SDMA cap* story, the duplex
//! bidirectional collapse is a *link contention* story, and the NUMA H2D
//! asymmetry is a *DDR segment* story. The attribution makes the simulator
//! say which one applied, and for how long.

use crate::seg::SegId;

/// Where a completed flow's time went, by binding constraint.
///
/// Durations are wall-clock nanoseconds of flow lifetime during which the
/// named constraint set the flow's rate. They partition the lifetime:
/// `cap_bound_ns + Σ segments ≈ total_ns` (exact up to floating-point
/// accumulation; the fabric property tests enforce 1e-6 relative).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BottleneckAttribution {
    /// Flow lifetime (creation to completion), nanoseconds.
    pub total_ns: f64,
    /// Time the flow was frozen at its own wire cap (endpoint/engine
    /// bound — e.g. the SDMA 50 GB/s ceiling), nanoseconds.
    pub cap_bound_ns: f64,
    /// Time bound by each saturated segment, descending by duration.
    /// Segments the flow traversed but that never bound it do not appear.
    pub segments: Vec<(SegId, f64)>,
}

impl BottleneckAttribution {
    /// Total time bound by link contention (sum over binding segments).
    pub fn link_bound_ns(&self) -> f64 {
        self.segments.iter().map(|&(_, ns)| ns).sum()
    }

    /// The single constraint that bound this flow longest: the dominant
    /// segment, or `None` if the cap (or nothing) dominated.
    pub fn dominant_segment(&self) -> Option<(SegId, f64)> {
        match self.segments.first() {
            Some(&(seg, ns)) if ns > self.cap_bound_ns => Some((seg, ns)),
            _ => None,
        }
    }
}

/// Per-flow accumulator maintained by [`crate::FlowNet`] while a flow is
/// active. Keys are dense segment indices; [`crate::fairshare::CAP_BOUND`]
/// time goes to `cap_ns`. Routes are short and a flow's binding constraint
/// changes only at recompute epochs, so the linear-probe vector stays tiny.
#[derive(Clone, Debug, Default)]
pub(crate) struct AttrAcc {
    /// Network time at flow creation, nanoseconds.
    pub started_ns: f64,
    /// Accumulated cap-bound time, nanoseconds.
    pub cap_ns: f64,
    /// Accumulated per-segment bound time, insertion order.
    pub segs: Vec<(u32, f64)>,
}

impl AttrAcc {
    /// Charge `dt_ns` of lifetime to binding constraint `key`
    /// ([`crate::fairshare::CAP_BOUND`] for the flow's own cap).
    pub fn charge(&mut self, key: u32, dt_ns: f64) {
        if key == crate::fairshare::CAP_BOUND {
            self.cap_ns += dt_ns;
            return;
        }
        if let Some(slot) = self.segs.iter_mut().find(|(s, _)| *s == key) {
            slot.1 += dt_ns;
        } else {
            self.segs.push((key, dt_ns));
        }
    }

    /// Fold into the public attribution, ending the lifetime at `now_ns`.
    pub fn finish(&self, now_ns: f64) -> BottleneckAttribution {
        let mut segments: Vec<(SegId, f64)> =
            self.segs.iter().map(|&(s, ns)| (SegId(s), ns)).collect();
        segments.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        BottleneckAttribution {
            total_ns: now_ns - self.started_ns,
            cap_bound_ns: self.cap_ns,
            segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairshare::CAP_BOUND;

    #[test]
    fn charge_accumulates_by_constraint() {
        let mut acc = AttrAcc {
            started_ns: 100.0,
            ..Default::default()
        };
        acc.charge(CAP_BOUND, 10.0);
        acc.charge(3, 5.0);
        acc.charge(3, 5.0);
        acc.charge(7, 30.0);
        let a = acc.finish(150.0);
        assert_eq!(a.total_ns, 50.0);
        assert_eq!(a.cap_bound_ns, 10.0);
        assert_eq!(a.segments, vec![(SegId(7), 30.0), (SegId(3), 10.0)]);
        assert_eq!(a.link_bound_ns(), 40.0);
        assert_eq!(a.dominant_segment(), Some((SegId(7), 30.0)));
    }

    #[test]
    fn cap_dominates_when_it_bound_longest() {
        let mut acc = AttrAcc::default();
        acc.charge(CAP_BOUND, 40.0);
        acc.charge(2, 10.0);
        let a = acc.finish(50.0);
        assert_eq!(a.dominant_segment(), None);
        assert_eq!(a.cap_bound_ns, 40.0);
    }

    #[test]
    fn empty_accumulator_finishes_clean() {
        let a = AttrAcc::default().finish(0.0);
        assert_eq!(a.total_ns, 0.0);
        assert_eq!(a.cap_bound_ns, 0.0);
        assert!(a.segments.is_empty());
        assert_eq!(a.dominant_segment(), None);
    }

    #[test]
    fn ties_break_toward_lower_segment_id() {
        let mut acc = AttrAcc::default();
        acc.charge(9, 5.0);
        acc.charge(1, 5.0);
        let a = acc.finish(10.0);
        assert_eq!(a.segments, vec![(SegId(1), 5.0), (SegId(9), 5.0)]);
    }
}
