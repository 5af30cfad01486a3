//! Progressive-filling max-min fair rate allocation with per-flow caps.
//!
//! Given segments with wire capacities and flows that each traverse a set of
//! segments (possibly with an individual wire-rate cap), compute the unique
//! max-min fair allocation: raise all flows' rates together; whenever a flow
//! hits its cap it is frozen there; whenever a segment saturates, all flows
//! through it are frozen at the current level; repeat for the rest.
//!
//! A flow traversing the same segment more than once (a route loop) counts
//! once — routes are simple paths by construction, and the duplex-pool trick
//! never duplicates a segment within one flow.
//!
//! Two implementations of the same allocation live here:
//!
//! - [`max_min_rates`] — the original, naive version taking owned slices and
//!   allocating its working state per call. It is the **differential
//!   oracle**: intentionally simple, kept byte-for-byte as seeded, and
//!   exercised against the production path by the engine property tests.
//! - [`max_min_rates_arena`] — the hot-path version run by
//!   [`crate::FlowNet`] on every recompute whose ordered input the network
//!   has not solved since its last capacity change (a repeat copies the
//!   stored output of that solve instead): it walks the persistent
//!   [`crate::arena::FlowArena`] spans directly and keeps all working state
//!   in a caller-owned [`FairshareScratch`], so steady-state recomputes
//!   perform **zero** heap allocations. Its output depends only on the
//!   capacities and the spans in order, never on the scratch's history,
//!   which is what makes that copy exact.

/// One flow's constraints, referencing segments by dense index.
#[derive(Clone, Debug)]
pub struct FlowInput<'a> {
    /// Segment indices traversed.
    pub segs: &'a [u32],
    /// Maximum wire rate (use `f64::INFINITY` for uncapped).
    pub wire_cap: f64,
}

/// Compute max-min fair wire rates.
///
/// `caps[s]` is segment `s`'s wire capacity. Returns one rate per flow, in
/// input order. Rates satisfy: per-segment sums ≤ capacity, per-flow rate ≤
/// cap, and no flow can be increased without decreasing a flow of equal or
/// smaller rate.
pub fn max_min_rates(caps: &[f64], flows: &[FlowInput<'_>]) -> Vec<f64> {
    let nf = flows.len();
    let mut rate = vec![0.0f64; nf];
    if nf == 0 {
        return rate;
    }
    let mut fixed = vec![false; nf];
    // Remaining capacity per segment after subtracting fixed flows.
    let mut slack: Vec<f64> = caps.to_vec();
    // Number of unfixed flows crossing each segment.
    let mut load = vec![0usize; caps.len()];
    for f in flows {
        for &s in f.segs {
            load[s as usize] += 1;
        }
    }

    let mut remaining = nf;
    // Common water level reached so far.
    let mut level = 0.0f64;
    while remaining > 0 {
        // Highest uniform increment Δ all unfixed flows can take together.
        let mut delta = f64::INFINITY;
        for (s, (&sl, &ld)) in slack.iter().zip(load.iter()).enumerate() {
            if ld > 0 {
                let d = sl / ld as f64;
                debug_assert!(d >= -1e-9, "segment {s} oversubscribed");
                delta = delta.min(d.max(0.0));
            }
        }
        // A capped flow may bind earlier.
        let mut min_cap_delta = f64::INFINITY;
        for (i, f) in flows.iter().enumerate() {
            if !fixed[i] && f.wire_cap.is_finite() {
                min_cap_delta = min_cap_delta.min((f.wire_cap - level).max(0.0));
            }
        }
        let step = delta.min(min_cap_delta);
        assert!(
            step.is_finite(),
            "no binding constraint: some flow traverses no loaded segment and has no cap"
        );
        level += step;

        // Charge the increment to segments.
        for (sl, &ld) in slack.iter_mut().zip(load.iter()) {
            if ld > 0 {
                *sl -= step * ld as f64;
                if *sl < 0.0 {
                    *sl = 0.0; // numerical dust
                }
            }
        }

        // Freeze flows: first those at their cap, then those through a
        // saturated segment.
        const EPS: f64 = 1e-7;
        let mut froze_any = false;
        for (i, f) in flows.iter().enumerate() {
            if fixed[i] {
                continue;
            }
            let capped = f.wire_cap.is_finite() && level + EPS * (1.0 + f.wire_cap) >= f.wire_cap;
            let saturated = f
                .segs
                .iter()
                .any(|&s| slack[s as usize] <= EPS * caps[s as usize].max(1.0));
            if capped || saturated {
                rate[i] = if capped { f.wire_cap } else { level };
                fixed[i] = true;
                remaining -= 1;
                froze_any = true;
                for &s in f.segs {
                    load[s as usize] -= 1;
                }
            }
        }
        assert!(
            froze_any,
            "progressive filling stalled at level {level}; eps too tight"
        );
    }
    rate
}

/// Reusable working state for [`max_min_rates_arena`]. Buffers grow to the
/// high-water mark of the scenario and are then reused verbatim; a steady
/// simulation performs no allocation after the first recompute.
#[derive(Clone, Debug, Default)]
pub struct FairshareScratch {
    /// Remaining capacity per segment after subtracting fixed flows.
    slack: Vec<f64>,
    /// Number of unfixed flows crossing each segment.
    load: Vec<u32>,
    /// Dense list of segments with nonzero unfixed load: the water-fill
    /// rounds scan these instead of the whole capacity vector (a topology
    /// has many more segments than any flow set touches).
    active: Vec<u32>,
    /// `active`-list position of each segment (`u32::MAX` when inactive).
    pos: Vec<u32>,
    /// Reverse CSR offsets: flows crossing segment `s` sit at
    /// `rev_flows[rev_start[s]..rev_start[s + 1]]`.
    rev_start: Vec<u32>,
    /// Reverse CSR payload: flow indices grouped by segment.
    rev_flows: Vec<u32>,
    /// Unfixed flows with a *finite* wire cap — empty for typical flow sets,
    /// which skips cap handling entirely.
    capped: Vec<u32>,
    /// Whether each flow's rate is frozen yet.
    fixed: Vec<bool>,
    /// Per-round list of segments that just saturated.
    sat: Vec<u32>,
    /// Saturation threshold per segment (`EPS · max(cap, 1)`), precomputed
    /// once per solve instead of once per segment per round.
    thresh: Vec<f64>,
    /// Round in which each segment's load last changed, for validating the
    /// carried Δ-argmin across rounds.
    stamp: Vec<u32>,
    /// Which constraint froze each flow in the last solve: [`CAP_BOUND`]
    /// when the flow's own wire cap bound it, otherwise the index of the
    /// saturated segment whose freeze fixed the flow's rate.
    binding: Vec<u32>,
}

impl FairshareScratch {
    /// Empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        FairshareScratch::default()
    }

    /// Binding constraint per flow from the most recent
    /// [`max_min_rates_arena`] solve, in span order: [`CAP_BOUND`] for a
    /// flow frozen at its own wire cap (endpoint/engine-bound), otherwise
    /// the dense segment index that saturated under it (link-contention-
    /// bound). Valid until the next solve over this scratch.
    pub fn binding(&self) -> &[u32] {
        &self.binding
    }

    /// The bindings, for the memo to restore those an earlier solve of
    /// the same input left.
    pub(crate) fn binding_mut(&mut self) -> &mut Vec<u32> {
        &mut self.binding
    }
}

/// Sentinel in [`FairshareScratch::binding`]: the flow froze at its own
/// wire cap rather than on a saturated segment.
pub const CAP_BOUND: u32 = u32::MAX;

/// Compute max-min fair wire rates over an arena view, allocation-free.
///
/// `caps[s]` is segment `s`'s wire capacity; `spans` and `buf` describe each
/// flow's traversed segments ([`crate::arena::FlowArena`] layout). One wire
/// rate per flow is written into `out` (cleared first), in span order.
///
/// Unlike the naive oracle, the water-fill rounds here only touch *live*
/// state, and the per-round scans are restructured so total work is close to
/// linear in the CSR size rather than `rounds × flows × segments`:
///
/// - the Δ-min over active segments compares `slack/load` ratios by
///   cross-multiplication, paying a single division per round;
/// - flows freeze through a **reverse CSR** (segment → flows): when a
///   segment saturates, exactly its flows are visited, so freeze work totals
///   one pass over the CSR across *all* rounds instead of a full flow scan
///   per round;
/// - per-flow caps live on a dense `capped` list that is empty for typical
///   flow sets, skipping cap handling entirely.
///
/// Each round still applies the same min/charge/freeze arithmetic to the
/// same values as the oracle (the Δ chosen is the same ratio, saturation
/// uses the same post-charge slack threshold, frozen rates are the same
/// `cap`-or-`level`), so the allocation returned is identical to
/// [`max_min_rates`] up to floating-point round-off — the engine property
/// tests enforce 1e-6 relative agreement.
pub fn max_min_rates_arena(
    caps: &[f64],
    buf: &[u32],
    spans: &[crate::arena::Span],
    scratch: &mut FairshareScratch,
    out: &mut Vec<f64>,
) {
    let nf = spans.len();
    out.clear();
    out.resize(nf, 0.0);
    scratch.binding.clear();
    scratch.binding.resize(nf, CAP_BOUND);
    if nf == 0 {
        return;
    }
    let segs_of = |s: &crate::arena::Span| &buf[s.start as usize..(s.start + s.len) as usize];

    scratch.slack.clear();
    scratch.slack.extend_from_slice(caps);
    scratch.load.clear();
    scratch.load.resize(caps.len(), 0);
    for f in spans {
        for &s in segs_of(f) {
            scratch.load[s as usize] += 1;
        }
    }
    scratch.active.clear();
    scratch.pos.clear();
    scratch.pos.resize(caps.len(), u32::MAX);
    for (s, &ld) in scratch.load.iter().enumerate() {
        if ld > 0 {
            scratch.pos[s] = scratch.active.len() as u32;
            scratch.active.push(s as u32);
        }
    }
    // Reverse CSR (segment → flows) via counting sort over the loads. After
    // the fill loop `rev_start[s]` has advanced to the *end* of segment
    // `s`'s group; the start is the previous segment's end.
    scratch.rev_start.clear();
    scratch.rev_start.push(0);
    let mut total = 0u32;
    for &ld in &scratch.load {
        total += ld;
        scratch.rev_start.push(total);
    }
    scratch.rev_start.pop();
    scratch.rev_flows.clear();
    scratch.rev_flows.resize(total as usize, 0);
    for (i, f) in spans.iter().enumerate() {
        for &s in segs_of(f) {
            let at = &mut scratch.rev_start[s as usize];
            scratch.rev_flows[*at as usize] = i as u32;
            *at += 1;
        }
    }
    let rev_range = |rev_start: &[u32], s: usize| {
        let start = if s == 0 { 0 } else { rev_start[s - 1] };
        start as usize..rev_start[s] as usize
    };
    scratch.capped.clear();
    scratch.capped.extend(
        spans
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.wire_cap.is_finite().then_some(i as u32)),
    );
    scratch.fixed.clear();
    scratch.fixed.resize(nf, false);
    scratch.thresh.clear();
    scratch
        .thresh
        .extend(caps.iter().map(|&c| EPS * c.max(1.0)));
    scratch.stamp.clear();
    scratch.stamp.resize(caps.len(), u32::MAX);

    let mut remaining = nf;
    // Common water level reached so far.
    let mut level = 0.0f64;
    // The Δ-argmin carried over from the previous round's charge pass, or
    // `u32::MAX` when a fresh scan is needed. The charge pass already sees
    // the post-charge slacks, so its argmin is next round's — *unless* the
    // freeze then changes that segment's load (detected via `stamp`).
    // Loads only ever shrink, so other segments' ratios can only grow and
    // cannot undercut an unchanged argmin.
    let mut carry = u32::MAX;
    let mut round = 0u32;
    while remaining > 0 {
        // Highest uniform increment Δ all unfixed flows can take together:
        // min of slack/load over active segments. Ratios are compared by
        // cross-multiplication (slack and load are nonnegative), so each
        // round performs exactly one division — and when the carried argmin
        // is still valid, no scan at all.
        let delta = if carry != u32::MAX {
            scratch.slack[carry as usize] / scratch.load[carry as usize] as f64
        } else {
            let mut best_num = f64::INFINITY;
            let mut best_den = 1.0f64;
            for &s in &scratch.active {
                let sl = scratch.slack[s as usize];
                let ld = scratch.load[s as usize] as f64;
                if sl * best_den < best_num * ld {
                    best_num = sl;
                    best_den = ld;
                }
            }
            best_num / best_den
        };
        // A capped flow may bind earlier. Entries whose flow already froze
        // (via segment saturation) are purged here as well as in the freeze
        // pass: a stale cap below the current Δ would otherwise bound a
        // step that freezes nothing and stall the fill.
        let mut min_cap_delta = f64::INFINITY;
        let mut k = 0;
        while k < scratch.capped.len() {
            let i = scratch.capped[k] as usize;
            if scratch.fixed[i] {
                scratch.capped.swap_remove(k);
                continue;
            }
            let cap = spans[i].wire_cap;
            min_cap_delta = min_cap_delta.min((cap - level).max(0.0));
            k += 1;
        }
        let step = delta.min(min_cap_delta);
        assert!(
            step.is_finite(),
            "no binding constraint: some flow traverses no loaded segment and has no cap"
        );
        level += step;

        // Charge the increment to segments, collecting the ones the charge
        // just saturated and the argmin of the post-charge ratios (next
        // round's Δ candidate).
        scratch.sat.clear();
        let mut next_num = f64::INFINITY;
        let mut next_den = 1.0f64;
        let mut next_arg = u32::MAX;
        for &s in &scratch.active {
            let sl = &mut scratch.slack[s as usize];
            let ld = scratch.load[s as usize] as f64;
            *sl -= step * ld;
            if *sl < 0.0 {
                *sl = 0.0; // numerical dust
            }
            if *sl <= scratch.thresh[s as usize] {
                scratch.sat.push(s);
            } else if *sl * next_den < next_num * ld {
                next_num = *sl;
                next_den = ld;
                next_arg = s;
            }
        }

        // Freeze flows: first those at their cap, then every flow through a
        // saturated segment. Within a round the decisions depend only on
        // the post-charge slack and the level, so the visiting order only
        // affects bookkeeping, not the rates allocated.
        let mut froze_any = false;
        let mut k = 0;
        while k < scratch.capped.len() {
            let i = scratch.capped[k] as usize;
            if scratch.fixed[i] {
                scratch.capped.swap_remove(k);
                continue;
            }
            let cap = spans[i].wire_cap;
            if level + EPS * (1.0 + cap) < cap {
                k += 1;
                continue;
            }
            out[i] = cap;
            scratch.fixed[i] = true;
            remaining -= 1;
            froze_any = true;
            retire_flow_load(scratch, segs_of(&spans[i]), round);
            scratch.capped.swap_remove(k);
        }
        for si in 0..scratch.sat.len() {
            let s = scratch.sat[si] as usize;
            for fi in rev_range(&scratch.rev_start, s) {
                let i = scratch.rev_flows[fi] as usize;
                if scratch.fixed[i] {
                    continue;
                }
                out[i] = level;
                scratch.binding[i] = s as u32;
                scratch.fixed[i] = true;
                remaining -= 1;
                froze_any = true;
                retire_flow_load(scratch, segs_of(&spans[i]), round);
            }
        }
        assert!(
            froze_any,
            "progressive filling stalled at level {level}; eps too tight"
        );
        carry = if next_arg != u32::MAX && scratch.stamp[next_arg as usize] != round {
            next_arg
        } else {
            u32::MAX
        };
        round += 1;
    }
}

/// Numerical saturation slack, relative to segment capacity (and matching
/// the cap-freeze tolerance in level terms).
const EPS: f64 = 1e-7;

/// Drop a freshly-frozen flow's contribution from the per-segment loads,
/// stamping each touched segment with the current round (which invalidates
/// a carried Δ-argmin) and retiring segments whose load reaches zero from
/// the active list.
fn retire_flow_load(scratch: &mut FairshareScratch, segs: &[u32], round: u32) {
    for &s in segs {
        scratch.stamp[s as usize] = round;
        let ld = &mut scratch.load[s as usize];
        *ld -= 1;
        if *ld == 0 {
            let at = scratch.pos[s as usize];
            let last = *scratch.active.last().expect("segment was active");
            scratch.active.swap_remove(at as usize);
            scratch.pos[last as usize] = at;
            scratch.pos[s as usize] = u32::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows<'a>(defs: &'a [(Vec<u32>, f64)]) -> Vec<FlowInput<'a>> {
        defs.iter()
            .map(|(segs, cap)| FlowInput {
                segs,
                wire_cap: *cap,
            })
            .collect()
    }

    const INF: f64 = f64::INFINITY;

    #[test]
    fn single_flow_takes_bottleneck() {
        let defs = [(vec![0, 1], INF)];
        let r = max_min_rates(&[100.0, 40.0], &flows(&defs));
        assert_eq!(r, vec![40.0]);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let defs = [
            (vec![0], INF),
            (vec![0], INF),
            (vec![0], INF),
            (vec![0], INF),
        ];
        let r = max_min_rates(&[100.0], &flows(&defs));
        for x in r {
            assert!((x - 25.0).abs() < 1e-6);
        }
    }

    #[test]
    fn cap_binds_before_link() {
        let defs = [(vec![0], 10.0), (vec![0], INF)];
        let r = max_min_rates(&[100.0], &flows(&defs));
        assert!((r[0] - 10.0).abs() < 1e-6);
        assert!((r[1] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn classic_three_link_max_min() {
        // Textbook example: flows A(0,1), B(0), C(1). caps: 0 -> 10, 1 -> 20.
        // A and B share link 0: level 5 saturates? A also on 1.
        // Level rises to 5: link 0 slack 0 -> A=5, B=5. C continues on link 1:
        // slack 20-5=15 -> C=15.
        let defs = [(vec![0, 1], INF), (vec![0], INF), (vec![1], INF)];
        let r = max_min_rates(&[10.0, 20.0], &flows(&defs));
        assert!((r[0] - 5.0).abs() < 1e-6, "{r:?}");
        assert!((r[1] - 5.0).abs() < 1e-6, "{r:?}");
        assert!((r[2] - 15.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let defs = [(vec![0], INF), (vec![1], INF)];
        let r = max_min_rates(&[30.0, 70.0], &flows(&defs));
        assert_eq!(r, vec![30.0, 70.0]);
    }

    #[test]
    fn capped_flow_frees_capacity_for_others() {
        // Three flows on one 90-capacity link, one capped at 10:
        // capped gets 10, the others 40 each.
        let defs = [(vec![0], 10.0), (vec![0], INF), (vec![0], INF)];
        let r = max_min_rates(&[90.0], &flows(&defs));
        assert!((r[0] - 10.0).abs() < 1e-6);
        assert!((r[1] - 40.0).abs() < 1e-6);
        assert!((r[2] - 40.0).abs() < 1e-6);
    }

    #[test]
    fn no_flows_no_rates() {
        let r = max_min_rates(&[10.0], &[]);
        assert!(r.is_empty());
    }

    #[test]
    fn arena_solver_matches_naive_on_mixed_scenarios() {
        use crate::arena::FlowArena;
        use crate::seg::SegId;
        let caps = [50.0, 80.0, 20.0, 100.0];
        let defs = [
            (vec![0u32, 1], INF),
            (vec![1, 2], 30.0),
            (vec![2, 3], INF),
            (vec![0, 3], 12.0),
            (vec![1], INF),
        ];
        let fl = flows(&defs);
        let naive = max_min_rates(&caps, &fl);
        let mut arena = FlowArena::new();
        for (segs, cap) in &defs {
            let segs: Vec<SegId> = segs.iter().map(|&s| SegId(s)).collect();
            arena.push(&segs, *cap);
        }
        let mut scratch = FairshareScratch::new();
        let mut out = Vec::new();
        // Run twice over the same scratch: reuse must not leak state.
        for _ in 0..2 {
            max_min_rates_arena(&caps, arena.buf(), arena.spans(), &mut scratch, &mut out);
            assert_eq!(out.len(), naive.len());
            for (a, b) in out.iter().zip(&naive) {
                assert!((a - b).abs() <= 1e-9 * b.max(1.0), "{out:?} vs {naive:?}");
            }
        }
    }

    #[test]
    fn arena_solver_reports_binding_constraints() {
        use crate::arena::FlowArena;
        use crate::seg::SegId;
        // Hand-traced water fill: seg 2 (cap 20, two flows) saturates at
        // level 10 freezing flows 1 and 2; flow 3 then hits its 12.0 cap;
        // seg 1 finally saturates at level 35 freezing flows 0 and 4.
        let caps = [50.0, 80.0, 20.0, 100.0];
        let defs = [
            (vec![0u32, 1], INF),
            (vec![1, 2], 30.0),
            (vec![2, 3], INF),
            (vec![0, 3], 12.0),
            (vec![1], INF),
        ];
        let mut arena = FlowArena::new();
        for (segs, cap) in &defs {
            let segs: Vec<SegId> = segs.iter().map(|&s| SegId(s)).collect();
            arena.push(&segs, *cap);
        }
        let mut scratch = FairshareScratch::new();
        let mut out = Vec::new();
        max_min_rates_arena(&caps, arena.buf(), arena.spans(), &mut scratch, &mut out);
        assert_eq!(scratch.binding(), &[1, 2, 2, CAP_BOUND, 1]);
        // Every link-bound flow actually traverses its binding segment.
        for ((segs, _), &b) in defs.iter().zip(scratch.binding()) {
            if b != CAP_BOUND {
                assert!(segs.contains(&b), "binding {b} not on route {segs:?}");
            }
        }
    }

    #[test]
    fn arena_solver_handles_empty_input() {
        let mut scratch = FairshareScratch::new();
        let mut out = vec![1.0, 2.0];
        max_min_rates_arena(&[10.0], &[], &[], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn conservation_and_feasibility_hold() {
        // Random-ish deterministic scenario, checked against the invariants
        // rather than hand-computed values.
        let caps = [50.0, 80.0, 20.0, 100.0];
        let defs = [
            (vec![0, 1], INF),
            (vec![1, 2], 30.0),
            (vec![2, 3], INF),
            (vec![0, 3], 12.0),
            (vec![1], INF),
        ];
        let fl = flows(&defs);
        let r = max_min_rates(&caps, &fl);
        // Feasibility: per-segment sums within capacity.
        for (s, &cap) in caps.iter().enumerate() {
            let sum: f64 = fl
                .iter()
                .zip(&r)
                .filter(|(f, _)| f.segs.contains(&(s as u32)))
                .map(|(_, &x)| x)
                .sum();
            assert!(sum <= cap + 1e-6, "segment {s}: {sum} > {cap}");
        }
        // Caps respected.
        for (f, &x) in fl.iter().zip(&r) {
            assert!(x <= f.wire_cap + 1e-6);
            assert!(x > 0.0);
        }
    }
}
