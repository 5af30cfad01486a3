//! The timed fluid network.
//!
//! [`FlowNet`] tracks active flows, their max-min fair payload rates, and
//! delivered progress over virtual time. It is driven externally by the
//! runtime's event loop:
//!
//! ```text
//! loop {
//!     t_wake = wakes.peek_time();
//!     t_flow = net.peek_completion();
//!     advance to min(t_wake, t_flow) and dispatch that side
//! }
//! ```
//!
//! Rates change only on membership or capacity changes, so each flow's
//! completion estimate is only valid until the next such change — which is
//! exactly why completions are *peeked*, never pre-scheduled.
//!
//! ## Engine internals (see `docs/PERFORMANCE.md` for the full story)
//!
//! - Flows live in a **dense entry vector** plus a `FlowId → index` table
//!   (ids are dense and never reused, so the table is a vector indexed by
//!   id); removal is `swap_remove`. Segment lists live in a persistent CSR
//!   [`FlowArena`] maintained incrementally, so a recompute walks
//!   contiguous memory and allocates nothing
//!   ([`crate::fairshare::max_min_rates_arena`]).
//! - Recomputes are **deferred**: membership and capacity changes set a
//!   dirty flag, and the fair-share pass runs once at the next rate-sensitive
//!   observation (`peek_completion`, `rate_of`, or a time advance). Admitting
//!   a batch of flows at one timestamp therefore costs a single recompute —
//!   [`FlowNet::add_flows`] — and `advance_to(now)` is free.
//! - Each flow keeps **one projected completion** `t = now + remaining/rate`.
//!   A projection is constant under advancement while the flow's rate is
//!   unchanged, so a recompute re-projects only flows whose rate actually
//!   changed. The same loop over the table keeps the earliest projection,
//!   so `peek_completion` is a read.
//! - Every deferred pass needs the output of **one full water-fill** over
//!   the arena, and each distinct ordered input is solved once: admission
//!   interns each flow's path (segments and wire cap) into a dense id, and
//!   a pass whose path ids, in dense order, were already solved since the
//!   last capacity change copies the stored rates and bindings instead of
//!   solving again (`memo.rs`). The stored output is that of the same
//!   input, so a hit is bit-identical to a fresh solve — see "Recompute:
//!   one water-fill per new input" in `docs/PERFORMANCE.md`.

use crate::arena::FlowArena;
use crate::attr::AttrAcc;
use crate::fairshare::{max_min_rates_arena, FairshareScratch};
use crate::flow::{FlowId, FlowSpec};
use crate::flowlog::{FlowEvent, FlowEventKind, FlowLog};
use crate::memo::{PathTable, SolveMemo};
use crate::recorder::{FlightRecorder, UtilSeries};
use crate::seg::{Dir, SegId, SegmentMap};
use ifsim_des::{Dur, Time};
use ifsim_topology::LinkId;
use std::cell::RefCell;

/// The `ids` slot of a flow that is no longer active.
const DONE: u32 = u32::MAX;

/// One active flow in the dense table. Its segment list lives at the same
/// index in the arena; its rate and projected completion at the same index
/// in [`RateState`].
struct Entry {
    id: FlowId,
    spec: FlowSpec,
    delivered: f64,
}

/// Rate-side state, behind a `RefCell` because `peek_completion(&self)` must
/// be able to run a deferred recompute.
struct RateState {
    /// Set by any membership or capacity change; cleared by [`FlowNet::flush`].
    dirty: bool,
    /// Current payload rate (bytes/s) per dense entry. `-1.0` marks a flow
    /// admitted since the last recompute (forces its first projection).
    rates: Vec<f64>,
    /// Projected completion (absolute ns) per dense entry, valid while the
    /// entry's rate is unchanged.
    proj: Vec<f64>,
    /// Interned path id per dense entry: the memo key, in span order.
    paths: Vec<u16>,
    /// The earliest projection and its flow, as of the last pass; equal
    /// times break toward the lowest `FlowId`.
    next: Option<(f64, FlowId)>,
    /// Reusable fair-share working set. After a pass, its
    /// [`FairshareScratch::binding`] holds each flow's binding constraint
    /// in dense order.
    scratch: FairshareScratch,
    /// Wire rate per dense entry, written by each pass.
    wire: Vec<f64>,
    /// Fair-share passes executed (over a non-empty table), memo hits
    /// included.
    recomputes: u64,
    /// Passes that ran the water-fill: the memo missed.
    water_fills: u64,
    /// Solved inputs since the last capacity change.
    memo: SolveMemo,
    /// Epoch-sampled utilization time series (off until capture is on).
    /// Lives here because the flush that feeds it runs under `&self`;
    /// boxed so an uncaptured run's rate state stays one pointer wide.
    recorder: Option<Box<FlightRecorder>>,
}

/// Telemetry summary of one directed link segment over a run.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkLoad {
    /// The topology link.
    pub link: LinkId,
    /// Traversal direction of this row.
    pub dir: Dir,
    /// Diagnostic label (`Gcd(0)->Gcd(1)`).
    pub label: String,
    /// Whether the link is xGMI (GPU–GPU) as opposed to CPU/NUMA fabric.
    pub xgmi: bool,
    /// Cumulative wire bytes carried in this direction.
    pub wire_bytes: f64,
    /// Nanoseconds during which at least one flow traversed the segment.
    pub busy_ns: f64,
    /// Mean utilization over `[0, now]` (carried / capacity × elapsed).
    pub utilization: f64,
}

/// Fluid network state. See module docs for the driving protocol.
pub struct FlowNet {
    segmap: SegmentMap,
    /// Dense index into `entries` / arena / rate vectors, indexed by
    /// `FlowId`: ids are handed out in order from 0 and never reused, so
    /// the next id is `ids.len()`. [`DONE`] marks a completed or aborted
    /// flow.
    ids: Vec<u32>,
    entries: Vec<Entry>,
    /// CSR segment lists, parallel to `entries`.
    arena: FlowArena,
    now: Time,
    /// Cumulative wire bytes carried per segment (utilization accounting).
    seg_bytes: Vec<f64>,
    /// Nanoseconds each segment spent with ≥ 1 active flow crossing it.
    seg_busy_ns: Vec<f64>,
    /// Scratch generation stamps so one `advance_to` interval charges each
    /// busy segment exactly once however many flows cross it.
    busy_mark: Vec<u64>,
    busy_gen: u64,
    /// High-water mark of concurrently active flows.
    peak_active: usize,
    /// Lifecycle event stream (off until capture is on).
    log: FlowLog,
    /// Per-flow binding-constraint accumulators, parallel to `entries`.
    /// Maintained in swap-remove lockstep always (an empty accumulator
    /// never allocates); *charged* only while the log records.
    attr: Vec<AttrAcc>,
    /// Every path admitted so far, interned for the memo key.
    path_table: PathTable,
    rs: RefCell<RateState>,
}

impl FlowNet {
    /// A network over the given segments, starting at `Time::ZERO`.
    pub fn new(segmap: SegmentMap) -> Self {
        let n = segmap.len();
        FlowNet {
            segmap,
            ids: Vec::new(),
            entries: Vec::new(),
            arena: FlowArena::new(),
            now: Time::ZERO,
            seg_bytes: vec![0.0; n],
            seg_busy_ns: vec![0.0; n],
            busy_mark: vec![0; n],
            busy_gen: 0,
            peak_active: 0,
            log: FlowLog::default(),
            attr: Vec::new(),
            path_table: PathTable::default(),
            rs: RefCell::new(RateState {
                dirty: false,
                rates: Vec::new(),
                proj: Vec::new(),
                paths: Vec::new(),
                next: None,
                scratch: FairshareScratch::new(),
                wire: Vec::new(),
                recomputes: 0,
                water_fills: 0,
                memo: SolveMemo::default(),
                recorder: None,
            }),
        }
    }

    /// Start capture, before the first flow is admitted. The flow log then
    /// records every lifecycle transition (created / completed / aborted /
    /// rerouted); every accrual interval is charged to each flow's binding
    /// constraint (the segment that saturated under it, or its own wire
    /// cap), so each completion carries a
    /// [`crate::attr::BottleneckAttribution`]; and the flight recorder
    /// samples every directed link's utilization at each fair-share epoch,
    /// storing only the columns whose value changed (as change points
    /// after a base row) for the last
    /// [`crate::recorder::DEFAULT_RING_CAPACITY`] epochs; evicting an
    /// epoch folds its successor's change points into the base row.
    /// Capture only observes: rates and completion times are
    /// identical with it on or off. Off, it costs one branch per
    /// transition and allocates nothing.
    pub fn enable_capture(&mut self) {
        self.log.enable();
        self.rs.get_mut().recorder = Some(Box::new(FlightRecorder::new(&self.segmap)));
    }

    /// Snapshot of the recorded utilization series, if capture is on.
    /// Flushes any deferred recompute first so a membership change right
    /// before the snapshot (e.g. the last completion) is sampled.
    pub fn recorder_series(&self) -> Option<UtilSeries> {
        self.flush();
        self.rs.borrow().recorder.as_ref().map(|r| r.series())
    }

    /// The lifecycle event stream recorded so far.
    pub fn flow_log(&self) -> &FlowLog {
        &self.log
    }

    /// Mutable access to the lifecycle log, for layers above the fabric to
    /// append context the network cannot know (e.g. the runtime's reroute
    /// notes after a fault-aborted op is re-planned).
    pub fn flow_log_mut(&mut self) -> &mut FlowLog {
        &mut self.log
    }

    /// High-water mark of concurrently active flows since construction.
    pub fn peak_active_flows(&self) -> usize {
        self.peak_active
    }

    /// Per-direction load summary of every topology link, ordered by
    /// `(link, direction)`: wire bytes, busy time, mean utilization.
    pub fn link_loads(&self) -> Vec<LinkLoad> {
        let elapsed = self.now.as_secs();
        self.segmap
            .dir_segments()
            .map(|(link, dir, seg)| {
                let (wire_bytes, cap) = (self.seg_bytes[seg.idx()], self.segmap.capacity(seg));
                LinkLoad {
                    link,
                    dir,
                    label: self.segmap.label(seg).to_string(),
                    xgmi: self.segmap.is_xgmi(link),
                    wire_bytes,
                    busy_ns: self.seg_busy_ns[seg.idx()],
                    utilization: if elapsed > 0.0 && cap > 0.0 {
                        wire_bytes / (cap * elapsed)
                    } else {
                        0.0
                    },
                }
            })
            .collect()
    }

    /// The segment map this network runs over.
    pub fn segmap(&self) -> &SegmentMap {
        &self.segmap
    }

    /// Apply an absolute health factor (fraction of *healthy* capacity) to a
    /// link **mid-flight**: active flows keep running and their max-min fair
    /// shares are recomputed against the new capacities. This is the only
    /// way a live link's capacity changes, and it replaces the previous
    /// factor rather than scaling it, so the caller passes every impairment
    /// at once (the runtime passes `FabricHealth::link_factor`: lane loss ×
    /// bit-error tax × retrain derate). The factor must be positive — a dead
    /// link must first have its flows removed; use [`FlowNet::fail_link`]
    /// for that.
    pub fn set_link_factor(&mut self, link: LinkId, factor: f64) {
        assert!(
            factor > 0.0,
            "zero-capacity link would stall its flows forever; use fail_link"
        );
        self.segmap.set_link_factor(link, factor);
        let rs = self.rs.get_mut();
        rs.memo.clear();
        rs.dirty = true;
    }

    /// Take a link down mid-flight: every flow crossing any of its segments
    /// is aborted (returned with its delivered byte count), the link's
    /// capacities drop to zero, and surviving flows are re-shared.
    pub fn fail_link(&mut self, link: LinkId) -> Vec<(FlowId, f64)> {
        let aborted = self.abort_flows_using(&self.segmap.link_segments(link));
        self.segmap.set_link_factor(link, 0.0);
        let rs = self.rs.get_mut();
        rs.memo.clear();
        rs.dirty = true;
        aborted
    }

    /// Abort every active flow traversing any of `segs` (e.g. an
    /// uncorrectable error burst on a link). Returns `(flow, delivered
    /// bytes)` per abort in ascending flow order; surviving flows are
    /// re-shared.
    pub fn abort_flows_using(&mut self, segs: &[SegId]) -> Vec<(FlowId, f64)> {
        let mut victims: Vec<FlowId> = self
            .entries
            .iter()
            .filter(|e| e.spec.segs.iter().any(|s| segs.contains(s)))
            .map(|e| e.id)
            .collect();
        victims.sort_unstable();
        let aborted: Vec<(FlowId, f64)> = victims
            .into_iter()
            .map(|id| {
                let (e, _) = self.remove_flow(id).expect("victim is active");
                (id, e.delivered)
            })
            .collect();
        let at = self.now;
        for &(flow, delivered_bytes) in &aborted {
            self.log.push_with(|| FlowEvent {
                at,
                flow,
                kind: FlowEventKind::Aborted { delivered_bytes },
            });
        }
        aborted
    }

    /// Ids of all active flows, ascending.
    pub fn active_ids(&self) -> Vec<FlowId> {
        let mut ids: Vec<FlowId> = self.entries.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }

    /// The spec a flow was submitted with, while it is active.
    pub fn spec_of(&self, id: FlowId) -> Option<&FlowSpec> {
        self.index_of(id).map(|i| &self.entries[i].spec)
    }

    /// The dense index of a flow, while it is active.
    fn index_of(&self, id: FlowId) -> Option<usize> {
        let i = *self.ids.get(usize::try_from(id.0).ok()?)?;
        (i != DONE).then_some(i as usize)
    }

    /// Current network-local time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.entries.len()
    }

    /// Fair-share passes actually executed so far (a performance counter).
    /// Deferred-recompute coalescing means this counts *passes*, not
    /// membership changes; a pass is never charged for an empty flow table.
    /// A pass served from the memo counts too.
    pub fn recomputes(&self) -> u64 {
        self.rs.borrow().recomputes
    }

    /// Passes that ran the water-fill: those of [`FlowNet::recomputes`]
    /// whose ordered input was not solved since the last capacity change.
    pub fn water_fills(&self) -> u64 {
        self.rs.borrow().water_fills
    }

    /// Same as [`FlowNet::recomputes`], under the name the stack bench
    /// reads. Only caller: the stack bench
    /// (`crates/bench/examples/stack/layers.rs`).
    #[doc(hidden)]
    pub fn recomputes_full(&self) -> u64 {
        self.recomputes()
    }

    /// Always 0: the engine has no incremental solve. Only caller: the
    /// stack bench (`crates/bench/examples/stack/layers.rs`).
    #[doc(hidden)]
    pub fn recomputes_incremental(&self) -> u64 {
        0
    }

    /// No-op: the engine has no incremental-solve threshold. Only caller:
    /// the stack bench (`crates/bench/examples/stack/layers.rs`).
    #[doc(hidden)]
    pub fn set_incremental_threshold(&mut self, _frac: f64) {}

    /// Start a flow at time `now` (must not precede network time).
    pub fn add_flow(&mut self, now: Time, spec: FlowSpec) -> FlowId {
        self.advance_to(now);
        self.insert_flow(spec)
    }

    /// Admit a whole batch of flows starting at the same timestamp. The
    /// deferred-recompute engine charges the entire batch a **single**
    /// fair-share pass (at the next observation), where per-flow
    /// [`FlowNet::add_flow`] calls from distinct timestamps would each pay
    /// one. Returns the assigned ids in input order.
    pub fn add_flows(
        &mut self,
        now: Time,
        specs: impl IntoIterator<Item = FlowSpec>,
    ) -> Vec<FlowId> {
        self.advance_to(now);
        specs.into_iter().map(|s| self.insert_flow(s)).collect()
    }

    /// The earliest completion among active flows, with its flow id. Equal
    /// completion times break toward the lowest `FlowId`.
    pub fn peek_completion(&self) -> Option<(Time, FlowId)> {
        self.flush();
        let next = self.rs.borrow().next;
        next.map(|(ns, id)| (Time::from_ns(ns), id))
    }

    /// Move network time forward, accruing delivered payload.
    ///
    /// Panics if `t` lies beyond the earliest pending completion by more
    /// than a numeric epsilon — the driver must complete flows in order.
    pub fn advance_to(&mut self, t: Time) {
        assert!(
            t >= self.now,
            "fabric time moved backwards: to {t}, now {}",
            self.now
        );
        if t == self.now {
            // Nothing can accrue over a zero interval; crucially this leaves
            // any pending recompute deferred, so same-timestamp admissions
            // coalesce into one fair-share pass.
            return;
        }
        self.flush();
        if let Some((tc, id)) = self.peek_completion() {
            assert!(
                t.as_ns() <= tc.as_ns() + tolerance_ns(tc),
                "advance_to({t}) skips completion of {id:?} at {tc}"
            );
        }
        self.accrue_to(t);
    }

    /// The accrual half of [`FlowNet::advance_to`], callable once the
    /// skip-a-completion assertion is already established (internal drain
    /// paths advance exactly to a just-peeked completion, so re-peeking
    /// would only repeat work).
    fn accrue_to(&mut self, t: Time) {
        debug_assert!(t >= self.now, "accrue_to({t}) precedes now {}", self.now);
        let dt = (t - self.now).as_secs();
        if dt > 0.0 {
            let dt_ns = (t - self.now).as_ns();
            self.busy_gen += 1;
            let gen = self.busy_gen;
            let rs = self.rs.borrow();
            // Every caller flushed first, and every membership change
            // forces a pass, so the last solve's bindings are in dense
            // order for exactly the current table.
            let bindings = self.log.is_enabled().then(|| rs.scratch.binding());
            debug_assert!(
                bindings.is_none_or(|b| self.entries.is_empty() || b.len() == self.entries.len())
            );
            for (i, e) in self.entries.iter_mut().enumerate() {
                let rate = rs.rates[i];
                e.delivered = (e.delivered + rate * dt).min(e.spec.payload_bytes);
                if let Some(b) = bindings {
                    self.attr[i].charge(b[i], dt_ns);
                }
                // Wire bytes = payload / efficiency, charged to every
                // traversed segment.
                let wire = rate * dt / e.spec.efficiency;
                for &s in self.arena.segs(i) {
                    self.seg_bytes[s as usize] += wire;
                    // Busy time: charge each segment at most once per
                    // interval, no matter how many flows cross it.
                    if self.busy_mark[s as usize] != gen {
                        self.busy_mark[s as usize] = gen;
                        self.seg_busy_ns[s as usize] += dt_ns;
                    }
                }
            }
        }
        self.now = t;
    }

    /// Advance to the earliest completion and remove that flow.
    /// Returns `(completion_time, flow_id)`, or `None` if the net is idle.
    pub fn complete_next(&mut self) -> Option<(Time, FlowId)> {
        let (t, id) = self.peek_completion()?;
        // The peek both flushed any deferred recompute and established that
        // `t` is the earliest pending completion, so the `advance_to`
        // preamble (flush + skip assertion) would be pure repetition.
        self.accrue_to(t);
        let (e, acc) = self.remove_flow(id).expect("peeked flow exists");
        debug_assert!(
            (e.delivered - e.spec.payload_bytes).abs() <= 1e-6 * e.spec.payload_bytes.max(1.0),
            "flow completed with {} of {} bytes delivered",
            e.delivered,
            e.spec.payload_bytes
        );
        self.log.push_with(|| FlowEvent {
            at: t,
            flow: id,
            kind: FlowEventKind::Completed {
                delivered_bytes: e.delivered,
                attribution: acc.finish(t.as_ns()),
            },
        });
        Some((t, id))
    }

    /// Cancel a flow (used for failure-injection tests); returns delivered bytes.
    pub fn cancel(&mut self, id: FlowId) -> Option<f64> {
        let (e, _) = self.remove_flow(id)?;
        let now = self.now;
        self.log.push_with(|| FlowEvent {
            at: now,
            flow: id,
            kind: FlowEventKind::Aborted {
                delivered_bytes: e.delivered,
            },
        });
        Some(e.delivered)
    }

    /// Current payload rate of a flow, bytes/s.
    pub fn rate_of(&self, id: FlowId) -> Option<f64> {
        self.flush();
        self.index_of(id).map(|i| self.rs.borrow().rates[i])
    }

    /// Admit a flow into the dense table without advancing time or forcing a
    /// recompute (that is deferred to the next observation).
    fn insert_flow(&mut self, spec: FlowSpec) -> FlowId {
        for &s in &spec.segs {
            assert!(
                s.idx() < self.segmap.len(),
                "flow references unknown segment {s:?}"
            );
            assert!(
                self.segmap.capacity(s) > 0.0,
                "flow routed over dead segment {} — the planner must reroute \
                 around failed links",
                self.segmap.label(s)
            );
        }
        let id = FlowId(self.ids.len() as u64);
        // The log keeps segment ids; names are rendered at export.
        self.log.push_with(|| FlowEvent {
            at: self.now,
            flow: id,
            kind: FlowEventKind::Created {
                payload_bytes: spec.payload_bytes,
                segs: spec.segs.clone(),
            },
        });
        let wire_cap = spec.wire_cap();
        self.arena.push(&spec.segs, wire_cap);
        let path = self.path_table.intern(&spec.segs, wire_cap);
        self.ids.push(self.entries.len() as u32);
        self.entries.push(Entry {
            id,
            spec,
            delivered: 0.0,
        });
        // Lockstep with `entries`; an empty accumulator never allocates.
        self.attr.push(AttrAcc {
            started_ns: self.now.as_ns(),
            ..AttrAcc::default()
        });
        let rs = self.rs.get_mut();
        // -1.0 can never equal a computed rate, so the first flush always
        // projects this flow's completion.
        rs.rates.push(-1.0);
        rs.proj.push(f64::INFINITY);
        rs.paths.push(path);
        rs.dirty = true;
        self.peak_active = self.peak_active.max(self.entries.len());
        id
    }

    /// Drop a flow from the dense table, keeping arena and rate vectors in
    /// swap-remove lockstep: the flow swapped into its slot carries its
    /// rate and projection along.
    fn remove_flow(&mut self, id: FlowId) -> Option<(Entry, AttrAcc)> {
        let idx = self.index_of(id)?;
        self.ids[id.0 as usize] = DONE;
        let e = self.entries.swap_remove(idx);
        let acc = self.attr.swap_remove(idx);
        self.arena.swap_remove(idx);
        let rs = self.rs.get_mut();
        rs.rates.swap_remove(idx);
        rs.proj.swap_remove(idx);
        rs.paths.swap_remove(idx);
        rs.dirty = true;
        if idx < self.entries.len() {
            let moved = self.entries[idx].id;
            self.ids[moved.0 as usize] = idx as u32;
        }
        Some((e, acc))
    }

    /// Run the deferred fair-share pass, if one is pending: one full
    /// water-fill (or its memoized output), then a recorder sample, then
    /// the re-projection. An empty table skips the solve but still gets its
    /// (all-zero) sample.
    fn flush(&self) {
        let mut guard = self.rs.borrow_mut();
        let rs = &mut *guard;
        if !std::mem::take(&mut rs.dirty) {
            return;
        }
        let now_ns = self.now.as_ns();
        // No solver pass happens (and none is counted) for an empty table.
        if !self.entries.is_empty() {
            rs.solve(self.segmap.caps(), &self.arena);
        }
        rs.sample(now_ns, self.segmap.caps(), &self.arena);
        rs.reproject(&self.entries, now_ns);
    }
}

impl RateState {
    /// The output of one max-min water-fill over the whole arena, into
    /// `wire` and the scratch's bindings: copied from the memo when the
    /// same ordered input was solved since the last capacity change,
    /// otherwise solved and stored.
    fn solve(&mut self, caps: &[f64], arena: &FlowArena) {
        self.recomputes += 1;
        let key = SolveMemo::fingerprint(&self.paths);
        if let Some(h) = key {
            let (wire, binding) = (&mut self.wire, self.scratch.binding_mut());
            if self.memo.restore(h, &self.paths, arena, wire, binding) {
                return;
            }
        }
        self.water_fills += 1;
        max_min_rates_arena(
            caps,
            arena.buf(),
            arena.spans(),
            &mut self.scratch,
            &mut self.wire,
        );
        if let Some(h) = key {
            let binding = self.scratch.binding();
            self.memo.insert(h, &self.paths, arena, &self.wire, binding);
        }
    }

    /// Append this epoch's link utilization to the flight recorder, if on.
    /// After the table empties this is the all-zero epoch that shows
    /// traffic dropping to idle.
    fn sample(&mut self, now_ns: f64, caps: &[f64], arena: &FlowArena) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.rebuild(now_ns, caps, arena.buf(), arena.spans(), &self.wire);
        }
    }

    /// Adopt the solved rates, re-project completions and keep the
    /// earliest. Only flows whose rate changed get a new projection: an
    /// unchanged rate means the existing absolute-time projection is still
    /// exact.
    fn reproject(&mut self, entries: &[Entry], now_ns: f64) {
        let RateState {
            rates,
            proj,
            wire,
            next,
            ..
        } = self;
        *next = None;
        for (i, e) in entries.iter().enumerate() {
            let rate = wire[i] * e.spec.efficiency;
            if rate != rates[i] {
                rates[i] = rate;
                let remaining = (e.spec.payload_bytes - e.delivered).max(0.0);
                proj[i] = now_ns + Dur::for_bytes(remaining, rate).as_ns();
            }
            let earlier =
                next.is_none_or(|(ns, id)| proj[i].total_cmp(&ns).then(e.id.cmp(&id)).is_lt());
            if earlier {
                *next = Some((proj[i], e.id));
            }
        }
    }
}

/// Numeric tolerance for completion-ordering asserts: relative to the
/// magnitude of the timestamp, since f64 resolution degrades with scale.
fn tolerance_ns(t: Time) -> f64 {
    1e-3 + t.as_ns() * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::SegId;
    use ifsim_des::units::gbps;
    use ifsim_topology::{GcdId, NodeTopology, RoutePolicy, Router};

    fn net() -> (NodeTopology, Router, FlowNet) {
        let t = NodeTopology::frontier();
        let r = Router::new(&t);
        let n = FlowNet::new(SegmentMap::new(&t));
        (t, r, n)
    }

    /// Run a single flow to completion on an idle network, returning its
    /// duration.
    fn run_exclusive(n: &mut FlowNet, spec: FlowSpec) -> Dur {
        assert_eq!(n.active(), 0, "run_exclusive requires an idle network");
        let start = n.now();
        n.add_flow(start, spec);
        let (end, _) = n.complete_next().expect("flow just added");
        end - start
    }

    /// The `link_loads` row of a directed link segment.
    fn load_on(n: &FlowNet, seg: SegId) -> LinkLoad {
        let row = n
            .segmap()
            .dir_segments()
            .position(|(_, _, s)| s == seg)
            .expect("a directed link segment");
        n.link_loads().swap_remove(row)
    }

    fn peer_segs(
        t: &NodeTopology,
        r: &Router,
        n: &FlowNet,
        a: u8,
        b: u8,
        duplex: bool,
    ) -> Vec<SegId> {
        let p = r.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth);
        n.segmap().path_segments(t, p, duplex)
    }

    #[test]
    fn single_flow_runs_at_bottleneck_times_efficiency() {
        let (t, r, mut n) = net();
        // GCD0 -> GCD2 over the single link (50 GB/s), efficiency 0.75:
        // 1 GB should take 1e9 / 37.5e9 s.
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let d = run_exclusive(&mut n, FlowSpec::new(segs, 1e9, 0.75));
        let expect = 1e9 / (0.75 * gbps(50.0));
        assert!((d.as_secs() - expect).abs() < 1e-12, "{d}");
    }

    #[test]
    fn payload_cap_binds_on_wide_links() {
        let (t, r, mut n) = net();
        // Quad link (200 GB/s) with an SDMA-like 50 GB/s payload cap.
        let segs = peer_segs(&t, &r, &n, 0, 1, false);
        let d = run_exclusive(&mut n, FlowSpec::new(segs, 1e9, 0.75).with_cap(gbps(50.0)));
        let expect = 1e9 / gbps(50.0);
        assert!((d.as_secs() - expect).abs() < 1e-12);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let f1 = n.add_flow(Time::ZERO, FlowSpec::new(segs.clone(), 1e9, 1.0));
        let f2 = n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        assert!((n.rate_of(f1).unwrap() - gbps(25.0)).abs() < 1.0);
        assert!((n.rate_of(f2).unwrap() - gbps(25.0)).abs() < 1.0);
        // Equal flows finish together; completing both works.
        let (t1, _) = n.complete_next().unwrap();
        let (t2, _) = n.complete_next().unwrap();
        assert!(t2 >= t1);
        assert_eq!(n.active(), 0);
    }

    #[test]
    fn departing_flow_frees_capacity() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        // Short flow and long flow: after the short one leaves, the long
        // one speeds up; total time reflects the speedup.
        let _short = n.add_flow(Time::ZERO, FlowSpec::new(segs.clone(), 0.5e9, 1.0));
        let long = n.add_flow(Time::ZERO, FlowSpec::new(segs, 1.5e9, 1.0));
        let (t1, _) = n.complete_next().unwrap();
        // Short: 0.5 GB at 25 GB/s = 20 ms.
        assert!((t1.as_secs() - 0.02).abs() < 1e-9);
        // Long delivered 0.5 GB so far; remaining 1.0 GB at 50 GB/s = 20 ms.
        assert!((n.rate_of(long).unwrap() - gbps(50.0)).abs() < 1.0);
        let (t2, id2) = n.complete_next().unwrap();
        assert_eq!(id2, long);
        assert!((t2.as_secs() - 0.04).abs() < 1e-9);
    }

    #[test]
    fn opposite_directions_do_not_contend_without_duplex() {
        let (t, r, mut n) = net();
        let ab = peer_segs(&t, &r, &n, 0, 2, false);
        let ba = peer_segs(&t, &r, &n, 2, 0, false);
        let f1 = n.add_flow(Time::ZERO, FlowSpec::new(ab, 1e9, 1.0));
        let f2 = n.add_flow(Time::ZERO, FlowSpec::new(ba, 1e9, 1.0));
        assert!((n.rate_of(f1).unwrap() - gbps(50.0)).abs() < 1.0);
        assert!((n.rate_of(f2).unwrap() - gbps(50.0)).abs() < 1.0);
    }

    #[test]
    fn duplex_pool_halves_bidirectional_kernel_traffic() {
        // The Fig. 9 mechanism: read+write kernel flows over one xGMI link
        // share the duplex pool, each getting half a direction's wire.
        let (t, r, mut n) = net();
        let ab = peer_segs(&t, &r, &n, 0, 2, true);
        let ba = peer_segs(&t, &r, &n, 2, 0, true);
        let f1 = n.add_flow(Time::ZERO, FlowSpec::new(ab, 1e9, 0.87));
        let f2 = n.add_flow(Time::ZERO, FlowSpec::new(ba, 1e9, 0.87));
        let each = 0.87 * gbps(25.0);
        assert!((n.rate_of(f1).unwrap() - each).abs() < 1.0);
        assert!((n.rate_of(f2).unwrap() - each).abs() < 1.0);
    }

    #[test]
    fn cancel_removes_flow_and_reports_progress() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let id = n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        n.advance_to(Time::from_ns(1e6)); // 1 ms at 50 GB/s = 50 MB
        let delivered = n.cancel(id).unwrap();
        assert!((delivered - 50e6).abs() < 1.0);
        assert_eq!(n.active(), 0);
        assert!(n.cancel(id).is_none());
    }

    #[test]
    fn peek_matches_complete() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 6, false);
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 2e9, 1.0));
        let (tp, idp) = n.peek_completion().unwrap();
        let (tc, idc) = n.complete_next().unwrap();
        assert_eq!(tp, tc);
        assert_eq!(idp, idc);
    }

    #[test]
    #[should_panic(expected = "skips completion")]
    fn advancing_past_a_completion_panics() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e6, 1.0));
        n.advance_to(Time::from_ns(1e9));
    }

    #[test]
    fn mid_flight_degradation_slows_active_flows() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let lid = r
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .links[0];
        let id = n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        assert!((n.rate_of(id).unwrap() - gbps(50.0)).abs() < 1.0);
        // 10 ms in (500 MB delivered), the link loses half its capacity.
        n.advance_to(Time::from_ns(10e6));
        n.set_link_factor(lid, 0.5);
        assert!((n.rate_of(id).unwrap() - gbps(25.0)).abs() < 1.0);
        // Remaining 500 MB at 25 GB/s: completion at 10 ms + 20 ms.
        let (tc, idc) = n.complete_next().unwrap();
        assert_eq!(idc, id);
        assert!((tc.as_secs() - 0.030).abs() < 1e-9, "{tc}");
    }

    #[test]
    fn fail_link_aborts_crossing_flows_and_spares_others() {
        let (t, r, mut n) = net();
        let doomed_segs = peer_segs(&t, &r, &n, 0, 2, false);
        let doomed_link = r
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .links[0];
        let safe_segs = peer_segs(&t, &r, &n, 4, 5, false);
        let doomed = n.add_flow(Time::ZERO, FlowSpec::new(doomed_segs, 1e9, 1.0));
        let safe = n.add_flow(Time::ZERO, FlowSpec::new(safe_segs, 1e9, 1.0));
        n.advance_to(Time::from_ns(1e6)); // 1 ms at 50 GB/s = 50 MB each
        let aborted = n.fail_link(doomed_link);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].0, doomed);
        assert!(
            (aborted[0].1 - 50e6).abs() < 1.0,
            "delivered {}",
            aborted[0].1
        );
        assert_eq!(n.active_ids(), vec![safe]);
        assert!(n.spec_of(doomed).is_none());
        assert!(n.spec_of(safe).is_some());
        // The survivor still completes normally.
        let (_, idc) = n.complete_next().unwrap();
        assert_eq!(idc, safe);
    }

    #[test]
    fn a_failed_link_restores_to_full_capacity() {
        let (t, r, mut n) = net();
        let lid = r
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .links[0];
        n.fail_link(lid);
        n.set_link_factor(lid, 1.0);
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let id = n.add_flow(n.now(), FlowSpec::new(segs, 1e9, 1.0));
        assert!((n.rate_of(id).unwrap() - gbps(50.0)).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "dead segment")]
    fn adding_a_flow_over_a_failed_link_panics() {
        let (t, r, mut n) = net();
        let lid = r
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .links[0];
        n.fail_link(lid);
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
    }

    #[test]
    fn abort_flows_using_leaves_capacity_untouched() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let seg = segs[0];
        let id = n.add_flow(Time::ZERO, FlowSpec::new(segs.clone(), 1e9, 1.0));
        let aborted = n.abort_flows_using(&[seg]);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].0, id);
        // An ECC burst kills in-flight traffic but the link stays up.
        assert!(n.segmap().capacity(seg) > 0.0);
        let retry = n.add_flow(n.now(), FlowSpec::new(segs, 1e9, 1.0));
        assert!((n.rate_of(retry).unwrap() - gbps(50.0)).abs() < 1.0);
    }

    #[test]
    fn idle_network_has_no_completion() {
        let (_, _, n) = net();
        assert!(n.peek_completion().is_none());
    }

    #[test]
    fn segment_accounting_tracks_wire_bytes() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let seg = segs[0];
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 0.5));
        n.complete_next().unwrap();
        let load = load_on(&n, seg);
        // 1 GB payload at 0.5 efficiency = 2 GB of wire.
        assert!((load.wire_bytes - 2e9).abs() < 1.0);
        // The flow ran at full link rate the whole time: utilization 1.0.
        assert!((load.utilization - 1.0).abs() < 1e-9);
        // Untouched segments carried nothing.
        let other = load_on(&n, peer_segs(&t, &r, &n, 4, 5, false)[0]);
        assert_eq!(other.wire_bytes, 0.0);
        assert_eq!(other.utilization, 0.0);
    }

    #[test]
    fn flow_log_records_full_lifecycle_with_route() {
        use crate::flowlog::FlowEventKind;
        let (t, r, mut n) = net();
        n.enable_capture();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let lid = r
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .links[0];
        let done = n.add_flow(Time::ZERO, FlowSpec::new(segs.clone(), 1e6, 1.0));
        n.complete_next().unwrap();
        let doomed = n.add_flow(n.now(), FlowSpec::new(segs.clone(), 1e9, 1.0));
        let aborted = n.fail_link(lid);
        assert_eq!(aborted.len(), 1);
        let log = n.flow_log();
        assert_eq!(log.count("created"), 2);
        assert_eq!(log.count("completed"), 1);
        assert_eq!(log.count("aborted"), 1);
        let created = &log.events()[0];
        assert_eq!(created.flow, done);
        match &created.kind {
            FlowEventKind::Created {
                payload_bytes,
                segs: logged,
            } => {
                assert_eq!(*payload_bytes, 1e6);
                assert_eq!(logged, &segs);
                let route = n.segmap().route_label(logged);
                assert!(route.contains("GCD"), "route labels segments: {route}");
            }
            other => panic!("expected Created, got {other:?}"),
        }
        let abort_ev = log
            .events()
            .iter()
            .find(|e| e.kind.tag() == "aborted")
            .unwrap();
        assert_eq!(abort_ev.flow, doomed);
    }

    #[test]
    fn disabled_flow_log_stays_empty() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e6, 1.0));
        n.complete_next().unwrap();
        assert!(n.flow_log().events().is_empty());
    }

    #[test]
    fn busy_time_counts_overlap_once() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let seg = segs[0];
        // Two equal flows share the link: both cross `seg`, but busy time
        // must count wall-clock, not flow-seconds.
        n.add_flow(Time::ZERO, FlowSpec::new(segs.clone(), 1e9, 1.0));
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        n.complete_next().unwrap();
        n.complete_next().unwrap();
        // 2 GB total through a 50 GB/s link = 40 ms busy.
        let busy = load_on(&n, seg).busy_ns;
        assert!((busy - 40e6).abs() < 1.0, "busy {busy} ns");
        assert_eq!(n.peak_active_flows(), 2);
        // Idle time afterwards does not accrue.
        n.advance_to(Time::from_ns(100e6));
        assert!((load_on(&n, seg).busy_ns - 40e6).abs() < 1.0);
    }

    #[test]
    fn link_loads_cover_every_direction_and_report_traffic() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let lid = r
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .links[0];
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        n.complete_next().unwrap();
        let loads = n.link_loads();
        // One row per direction of every topology link.
        assert_eq!(loads.len(), t.links().len() * 2);
        let hot: Vec<_> = loads.iter().filter(|l| l.wire_bytes > 0.0).collect();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].link, lid);
        assert!(hot[0].xgmi);
        assert!((hot[0].utilization - 1.0).abs() < 1e-9);
        assert!(hot[0].busy_ns > 0.0);
        assert!(hot[0].label.contains("GCD"));
        // Idle rows stay zeroed.
        assert!(loads
            .iter()
            .filter(|l| l.link != lid)
            .all(|l| l.wire_bytes == 0.0 && l.utilization == 0.0));
    }

    #[test]
    fn utilization_reflects_idle_time() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let seg = segs[0];
        // 20 ms transfer, then 20 ms of idle: 50 % mean utilization.
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        n.complete_next().unwrap();
        n.advance_to(Time::from_ns(40e6));
        assert!((load_on(&n, seg).utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_complete_in_flow_id_order() {
        // Three identical flows tie on completion time and must drain
        // lowest-id first, like the reference engine's ascending scan.
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let ids = n.add_flows(
            Time::ZERO,
            (0..3).map(|_| FlowSpec::new(segs.clone(), 1e9, 1.0)),
        );
        let mut done = Vec::new();
        let mut times = Vec::new();
        while let Some((tc, id)) = n.complete_next() {
            done.push(id);
            times.push(tc);
        }
        assert_eq!(done, ids);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // All three tie (equal specs, admitted together).
        assert!((times[0].as_ns() - times[2].as_ns()).abs() < 1e-3);
    }

    #[test]
    fn empty_table_charges_no_recompute() {
        // Completing the last flow leaves the table empty; the pass that
        // previously ran (and was counted) over nothing no longer happens.
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e6, 1.0));
        n.complete_next().unwrap();
        assert!(n.peek_completion().is_none());
        n.advance_to(Time::from_ns(1e9));
        assert_eq!(n.recomputes(), 1);
    }

    #[test]
    fn batched_admission_coalesces_into_one_recompute() {
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let ids = n.add_flows(
            Time::ZERO,
            (0..4).map(|_| FlowSpec::new(segs.clone(), 1e9, 1.0)),
        );
        assert_eq!(ids.len(), 4);
        for &id in &ids {
            assert!((n.rate_of(id).unwrap() - gbps(12.5)).abs() < 1.0);
        }
        assert_eq!(n.recomputes(), 1);
        // Same-timestamp per-flow adds coalesce too: the recompute is
        // deferred until a rate is actually observed.
        let (t2, r2, mut n2) = net();
        let segs2 = peer_segs(&t2, &r2, &n2, 0, 2, false);
        for _ in 0..4 {
            n2.add_flow(Time::ZERO, FlowSpec::new(segs2.clone(), 1e9, 1.0));
        }
        n2.peek_completion().unwrap();
        assert_eq!(n2.recomputes(), 1);
    }

    #[test]
    fn unchanged_rates_keep_their_projections() {
        // Flow A runs on its own link; B, C and D share another. Completing
        // B changes C's and D's rates, most of the table, and leaves A's
        // alone: A must complete at the very projection made at admission,
        // not at a re-projection that rounds differently.
        let (t, r, mut n) = net();
        let a_segs = peer_segs(&t, &r, &n, 4, 5, false);
        let shared = peer_segs(&t, &r, &n, 0, 2, false);
        let payload_a = 20e9 + 7.3;
        let a = n.add_flow(Time::ZERO, FlowSpec::new(a_segs, payload_a, 1.0));
        let _b = n.add_flow(Time::ZERO, FlowSpec::new(shared.clone(), 0.5e9, 1.0));
        let c = n.add_flow(Time::ZERO, FlowSpec::new(shared.clone(), 1.5e9, 1.0));
        let d = n.add_flow(Time::ZERO, FlowSpec::new(shared, 1.5e9, 1.0));
        let rate_a = n.rate_of(a).unwrap();
        // B: 0.5 GB at 50/3 GB/s = 30 ms. C and D then speed up to 25 GB/s.
        let (tb, _) = n.complete_next().unwrap();
        assert!((tb.as_secs() - 0.03).abs() < 1e-9);
        // C and D: 0.5 GB delivered, 1.0 GB left at 25 GB/s → done at 70 ms.
        for id in [c, d] {
            let (tc_, idc) = n.complete_next().unwrap();
            assert_eq!(idc, id);
            assert!((tc_.as_secs() - 0.07).abs() < 1e-9);
        }
        assert_eq!(n.rate_of(a).unwrap(), rate_a);
        let (ta, ida) = n.complete_next().unwrap();
        assert_eq!(ida, a);
        assert_eq!(ta, Time::from_ns(Dur::for_bytes(payload_a, rate_a).as_ns()));
    }

    /// The attribution on the first Completed event of the log.
    fn first_attribution(n: &FlowNet) -> crate::attr::BottleneckAttribution {
        n.flow_log()
            .events()
            .iter()
            .find_map(|e| match &e.kind {
                FlowEventKind::Completed { attribution, .. } => Some(attribution.clone()),
                _ => None,
            })
            .expect("a completed event")
    }

    #[test]
    fn capped_exclusive_flow_attributes_to_its_cap() {
        let (t, r, mut n) = net();
        n.enable_capture();
        // Quad link (200 GB/s) with an SDMA-like cap: the cap binds the
        // whole lifetime; no segment ever saturates.
        let segs = peer_segs(&t, &r, &n, 0, 1, false);
        run_exclusive(&mut n, FlowSpec::new(segs, 1e9, 0.75).with_cap(gbps(50.0)));
        let a = first_attribution(&n);
        assert!(a.total_ns > 0.0);
        assert!(
            (a.cap_bound_ns - a.total_ns).abs() <= 1e-6 * a.total_ns,
            "cap bound {} of {}",
            a.cap_bound_ns,
            a.total_ns
        );
        assert!(a.segments.is_empty());
        assert_eq!(a.dominant_segment(), None);
    }

    #[test]
    fn contended_flows_attribute_to_the_shared_segment() {
        let (t, r, mut n) = net();
        n.enable_capture();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let shared = segs[0];
        n.add_flow(Time::ZERO, FlowSpec::new(segs.clone(), 1e9, 1.0));
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        n.complete_next().unwrap();
        n.complete_next().unwrap();
        let a = first_attribution(&n);
        assert_eq!(a.cap_bound_ns, 0.0);
        assert_eq!(a.segments.len(), 1);
        assert_eq!(a.segments[0].0, shared);
        assert!(
            (a.segments[0].1 - a.total_ns).abs() <= 1e-6 * a.total_ns,
            "{a:?}"
        );
        assert_eq!(a.dominant_segment().unwrap().0, shared);
    }

    #[test]
    fn attribution_splits_time_across_regime_changes() {
        // A capped flow alone is cap-bound; halving the link below the cap
        // flips it to link-bound. Both phases must be charged, and their
        // sum must equal the lifetime.
        let (t, r, mut n) = net();
        n.enable_capture();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let seg = segs[0];
        let lid = r
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .links[0];
        // 50 GB/s link, 40 GB/s cap: cap binds. At 10 ms (400 MB done),
        // the link halves to 25 GB/s: the link now binds.
        n.add_flow(
            Time::ZERO,
            FlowSpec::new(segs, 1e9, 1.0).with_cap(gbps(40.0)),
        );
        n.advance_to(Time::from_ns(10e6));
        n.set_link_factor(lid, 0.5);
        n.complete_next().unwrap();
        let a = first_attribution(&n);
        assert!((a.cap_bound_ns - 10e6).abs() < 1.0, "{a:?}");
        assert_eq!(a.segments.len(), 1);
        assert_eq!(a.segments[0].0, seg);
        // Remaining 600 MB at 25 GB/s = 24 ms link-bound.
        assert!((a.segments[0].1 - 24e6).abs() < 1.0, "{a:?}");
        let parts = a.cap_bound_ns + a.link_bound_ns();
        assert!((parts - a.total_ns).abs() <= 1e-6 * a.total_ns);
        assert_eq!(a.dominant_segment().unwrap().0, seg);
    }

    #[test]
    fn recorder_samples_each_recompute_epoch_and_idle_tail() {
        let (t, r, mut n) = net();
        n.enable_capture();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let seg = segs[0];
        n.add_flow(Time::ZERO, FlowSpec::new(segs.clone(), 0.5e9, 1.0));
        n.add_flow(Time::ZERO, FlowSpec::new(segs, 1e9, 1.0));
        n.complete_next().unwrap();
        n.complete_next().unwrap();
        let s = n.recorder_series().expect("capture on");
        // Admission epoch (both flows), post-first-completion epoch (the
        // survivor alone), and the all-zero epoch after the table empties
        // (flushed by the snapshot itself).
        assert_eq!(s.epochs().len(), 3, "{s:?}");
        assert!(s.epochs().windows(2).all(|w| w[0] < w[1]));
        let col = n
            .segmap()
            .dir_segments()
            .position(|(_, _, sg)| sg == seg)
            .expect("tracked");
        assert_eq!(s.labels[col], n.segmap().label(seg));
        // The link's track: saturated from admission on (the middle epoch
        // is sampled only if the survivor's share moved it), then idle.
        let track: Vec<(f64, f64)> = s
            .samples()
            .filter(|c| c.col == col)
            .map(|c| (c.ts_ns, c.util))
            .collect();
        let at = |t: f64| track.iter().rev().find(|c| c.0 <= t).expect("tracked").1;
        assert_eq!(track[0].0, s.epochs()[0]);
        assert!((at(s.epochs()[0]) - 1.0).abs() < 1e-9, "{track:?}");
        assert!((at(s.epochs()[1]) - 1.0).abs() < 1e-9, "{track:?}");
        assert_eq!(track.last(), Some(&(s.epochs()[2], 0.0)));
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn recorder_is_observation_only() {
        // Same scenario with and without capture: identical completion
        // times, rates, and segment accounting.
        let run = |record: bool| {
            let (t, r, mut n) = net();
            if record {
                n.enable_capture();
            }
            let segs = peer_segs(&t, &r, &n, 0, 2, false);
            n.add_flow(Time::ZERO, FlowSpec::new(segs.clone(), 1e9, 1.0));
            n.add_flow(Time::ZERO, FlowSpec::new(segs, 0.5e9, 1.0));
            let mut times = Vec::new();
            while let Some((tc, id)) = n.complete_next() {
                times.push((tc, id));
            }
            (times, n.link_loads())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn add_flows_with_empty_batch_is_a_no_op() {
        let (_, _, mut n) = net();
        let ids = n.add_flows(Time::ZERO, std::iter::empty());
        assert!(ids.is_empty());
        assert_eq!(n.active(), 0);
        assert!(n.peek_completion().is_none());
        assert_eq!(n.recomputes(), 0);
    }

    #[test]
    fn slack_segment_departure_keeps_survivor_completion_exact() {
        // Two engine-capped flows under-subscribe a 50 GB/s link, so the
        // first departure leaves the survivor's rate where it was; the
        // survivor must still finish exactly on time: 8 MB at 10 GB/s.
        let (t, r, mut n) = net();
        let segs = peer_segs(&t, &r, &n, 0, 2, false);
        let a = n.add_flow(
            Time::ZERO,
            FlowSpec::new(segs.clone(), 1e6, 1.0).with_cap(gbps(10.0)),
        );
        let b = n.add_flow(
            Time::ZERO,
            FlowSpec::new(segs, 8e6, 1.0).with_cap(gbps(10.0)),
        );
        assert!((n.rate_of(a).unwrap() - gbps(10.0)).abs() < 1.0);
        let (_, first) = n.complete_next().expect("flow a finishes first");
        assert_eq!(first, a);
        assert!((n.rate_of(b).unwrap() - gbps(10.0)).abs() < 1.0);
        let (end, second) = n.complete_next().expect("flow b finishes");
        assert_eq!(second, b);
        let expect = 8e6 / gbps(10.0) * 1e9;
        assert!((end.as_ns() - expect).abs() < tolerance_ns(end));
    }

    /// Flush, then require the rates and bindings the pass left — memoized
    /// or solved — to equal bit for bit a fresh water-fill over the same
    /// arena with a new scratch.
    fn assert_memo_matches_fresh(n: &FlowNet) {
        n.flush();
        if n.entries.is_empty() {
            return;
        }
        let (mut scratch, mut wire) = (FairshareScratch::new(), Vec::new());
        let caps = n.segmap.caps();
        max_min_rates_arena(
            caps,
            n.arena.buf(),
            n.arena.spans(),
            &mut scratch,
            &mut wire,
        );
        let rs = n.rs.borrow();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rs.wire), bits(&wire), "wire rates");
        assert_eq!(rs.scratch.binding(), scratch.binding(), "bindings");
    }

    /// The frontier routes and flow specs of a small pool of flow shapes,
    /// and the links those routes cross.
    struct MemoPool {
        t: NodeTopology,
        r: Router,
        links: Vec<LinkId>,
    }

    impl MemoPool {
        /// (src, dst, duplex, efficiency, payload cap in GB/s)
        const SHAPES: [(u8, u8, bool, f64, Option<f64>); 6] = [
            (0, 2, false, 1.0, None),
            (0, 2, true, 0.87, None),
            (2, 0, true, 0.87, None),
            (0, 1, false, 0.75, Some(50.0)),
            (0, 6, false, 0.9, None),
            (1, 2, false, 1.0, Some(30.0)),
        ];

        fn new() -> MemoPool {
            let t = NodeTopology::frontier();
            let r = Router::new(&t);
            let mut links: Vec<LinkId> = Self::SHAPES
                .iter()
                .flat_map(|&(a, b, ..)| {
                    r.gcd_route(GcdId(a), GcdId(b), RoutePolicy::MaxBandwidth)
                        .links
                        .clone()
                })
                .collect();
            links.sort_unstable();
            links.dedup();
            MemoPool { t, r, links }
        }

        fn spec(&self, n: &FlowNet, shape: usize, kb: u32) -> FlowSpec {
            let (a, b, duplex, eff, cap) = Self::SHAPES[shape % Self::SHAPES.len()];
            let segs = peer_segs(&self.t, &self.r, n, a, b, duplex);
            let spec = FlowSpec::new(segs, kb as f64 * 1024.0, eff);
            match cap {
                Some(c) => spec.with_cap(gbps(c)),
                None => spec,
            }
        }

        fn alive(n: &FlowNet, segs: &[SegId]) -> bool {
            segs.iter().all(|&s| n.segmap().capacity(s) > 0.0)
        }

        /// One event of a pattern: admit one or two pool flows (skipping
        /// any over a failed link, as a re-planning runtime would),
        /// complete, cancel, or advance without skipping a completion.
        fn event(&self, n: &mut FlowNet, (op, x, kb): (u8, u8, u32)) {
            match op {
                0..=3 => {
                    let picks = [x as usize, x as usize / 2 + kb as usize];
                    let specs: Vec<FlowSpec> = picks[..1 + usize::from(op == 3)]
                        .iter()
                        .map(|&k| self.spec(n, k, kb))
                        .filter(|s| Self::alive(n, &s.segs))
                        .collect();
                    n.add_flows(n.now(), specs);
                }
                4 | 5 => {
                    n.complete_next();
                }
                6 => {
                    let ids = n.active_ids();
                    if !ids.is_empty() {
                        n.cancel(ids[kb as usize % ids.len()]);
                    }
                }
                _ => {
                    let mut to = n.now().as_ns() + kb as f64 * 100.0;
                    if let Some((tc, _)) = n.peek_completion() {
                        to = to.min(tc.as_ns());
                    }
                    n.advance_to(Time::from_ns(to));
                }
            }
        }

        /// A capacity change: none, degrade a live link, fail a link, or
        /// restore every failed link.
        fn change(&self, n: &mut FlowNet, (op, x, kb): (u8, u8, u32)) {
            let link = self.links[x as usize % self.links.len()];
            match op {
                0 => {}
                1 => {
                    if Self::alive(n, &n.segmap().link_segments(link)) {
                        n.set_link_factor(link, (kb % 3 + 1) as f64 / 4.0);
                    }
                }
                2 => {
                    n.fail_link(link);
                }
                _ => self.restore(n),
            }
        }

        fn restore(&self, n: &mut FlowNet) {
            for &l in &self.links {
                if !Self::alive(n, &n.segmap().link_segments(l)) {
                    n.set_link_factor(l, 1.0);
                }
            }
        }

        /// Run `pattern` from an empty table, then drain, checking every
        /// pass; `mid` is applied after the pattern's first event, while
        /// its flows are in flight.
        fn run(&self, n: &mut FlowNet, pattern: &[(u8, u8, u32)], mid: (u8, u8, u32)) {
            for (k, &ev) in pattern.iter().enumerate() {
                self.event(n, ev);
                assert_memo_matches_fresh(n);
                if k == 0 {
                    self.change(n, mid);
                    assert_memo_matches_fresh(n);
                }
            }
            while n.complete_next().is_some() {
                assert_memo_matches_fresh(n);
            }
        }
    }

    /// Run a pattern of admissions, completions, cancels and advances over
    /// a small pool of flow shapes once per step, each run with the step's
    /// capacity change landing mid-flight; then restore every failed link
    /// and run it twice more. Every pass is checked against a fresh solve.
    /// Returns the passes the memo served.
    fn run_memo_tape(pattern: &[(u8, u8, u32)], steps: &[(u8, u8, u32)]) -> u64 {
        let pool = MemoPool::new();
        let mut n = FlowNet::new(SegmentMap::new(&pool.t));
        for &step in steps {
            pool.run(&mut n, pattern, step);
        }
        pool.restore(&mut n);
        for _ in 0..2 {
            pool.run(&mut n, pattern, (0, 0, 0));
        }
        n.recomputes() - n.water_fills()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every pass, served from the memo or solved, equals a fresh
        /// water-fill bit for bit, through capacity changes that must
        /// invalidate it; and a pattern run twice on unchanged capacities
        /// is served from the memo.
        #[test]
        fn memoized_solves_match_a_fresh_solve(
            first in (0u8..4, 0u8..64, 1u32..4_000),
            rest in proptest::collection::vec((0u8..8, 0u8..64, 1u32..4_000), 1..12),
            steps in proptest::collection::vec((0u8..4, 0u8..64, 1u32..4), 1..12),
        ) {
            // A pattern opens with an admission, so its rerun must hit.
            let pattern: Vec<_> = std::iter::once(first).chain(rest).collect();
            let hits = run_memo_tape(&pattern, &steps);
            proptest::prop_assert!(hits > 0, "no pass was served from the memo");
        }
    }

    #[test]
    fn a_repeated_pattern_is_solved_once_until_a_capacity_changes() {
        let (t, r, mut n) = net();
        let a = peer_segs(&t, &r, &n, 0, 2, false);
        let b = peer_segs(&t, &r, &n, 0, 6, false);
        let step = |n: &mut FlowNet| {
            let now = n.now();
            n.add_flows(
                now,
                [
                    FlowSpec::new(a.clone(), 1e6, 1.0),
                    FlowSpec::new(b.clone(), 2e6, 0.9),
                ],
            );
            while n.complete_next().is_some() {}
        };
        step(&mut n);
        let fills = n.water_fills();
        assert_eq!(n.recomputes(), fills);
        for _ in 0..3 {
            step(&mut n);
        }
        assert_eq!(n.water_fills(), fills, "repeats are served from the memo");
        assert_eq!(n.recomputes(), 4 * fills);
        assert_eq!(n.path_table.len(), 2);
        let lid = r
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .links[0];
        n.set_link_factor(lid, 0.5);
        assert_eq!(n.rs.borrow().memo.len(), 0);
        step(&mut n);
        assert_eq!(
            n.water_fills(),
            2 * fills,
            "a capacity change clears the memo"
        );
    }
}
