//! Trace records and their replay through the HIP runtime.
//!
//! A trace is a DAG of transfer/compute records. Replay issues every
//! record onto a per-device stream in **canonical topological order**
//! (Kahn's algorithm with a lexicographic tie-break on record id), turning
//! `depends_on` edges that cross streams into `hipStreamWaitEvent` waits.
//! Because the issue order is recomputed from the DAG, any two
//! topologically-valid orderings of the same records replay identically —
//! shuffled input cannot change the schedule.
//!
//! Replay is two steps: [`ReplayPlan::new`] checks and resolves the records
//! once (the order, each op's cross-stream producers as issue positions,
//! the event flags and the buffer sizes), and [`replay_plan`] walks that
//! plan with integers. [`replay`] does both, for a trace that runs once.

use crate::FieldError;
use ifsim_des::Dur;
use ifsim_hip::{
    BufferId, EventId, HipError, HipResult, HipSim, HostAllocFlags, KernelSpec, MemcpyKind,
    StreamId,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One operation of a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceOp {
    /// Device-to-device copy over the fabric (`hipMemcpyPeerAsync`).
    Copy {
        /// Source GCD.
        src: u8,
        /// Destination GCD.
        dst: u8,
        /// Payload bytes.
        bytes: u64,
    },
    /// Host-to-device ingestion.
    H2D {
        /// Destination GCD.
        dst: u8,
        /// Payload bytes.
        bytes: u64,
    },
    /// Device-to-host drain.
    D2H {
        /// Source GCD.
        src: u8,
        /// Payload bytes.
        bytes: u64,
    },
    /// Compute, modeled as STREAM-copy memory traffic on the GCD.
    Kernel {
        /// Executing GCD.
        gcd: u8,
        /// Total kernel memory traffic (reads + writes).
        bytes: u64,
    },
}

impl TraceOp {
    /// The device whose stream issues this record.
    pub fn issuing_gcd(&self) -> u8 {
        match *self {
            TraceOp::Copy { src, .. } => src,
            TraceOp::H2D { dst, .. } => dst,
            TraceOp::D2H { src, .. } => src,
            TraceOp::Kernel { gcd, .. } => gcd,
        }
    }

    /// Payload bytes.
    pub fn bytes(&self) -> u64 {
        match *self {
            TraceOp::Copy { bytes, .. }
            | TraceOp::H2D { bytes, .. }
            | TraceOp::D2H { bytes, .. }
            | TraceOp::Kernel { bytes, .. } => bytes,
        }
    }
}

/// One record of a trace: an id, an op, and explicit dependencies.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Unique record id (any non-empty string).
    pub id: String,
    /// The operation.
    pub op: TraceOp,
    /// Ids of records that must complete before this one starts.
    pub depends_on: Vec<String>,
}

/// Aggregates from one replay.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayStats {
    /// Wall time from first issue to quiescence.
    pub makespan: Dur,
    /// Records replayed.
    pub records: usize,
    /// Peer-copy bytes moved over the fabric.
    pub copy_bytes: u64,
    /// Host-to-device bytes.
    pub h2d_bytes: u64,
    /// Device-to-host bytes.
    pub d2h_bytes: u64,
    /// Kernel memory-traffic bytes.
    pub kernel_bytes: u64,
}

impl ReplayStats {
    /// All payload bytes the trace moved or touched.
    pub fn total_bytes(&self) -> u64 {
        self.copy_bytes + self.h2d_bytes + self.d2h_bytes + self.kernel_bytes
    }
}

/// Record `i`'s op: a positive size, GCDs on the node, and a copy between
/// two devices.
fn check_op(i: usize, op: TraceOp, n_gcds: u8) -> Result<(), FieldError> {
    let gcd_ok = |field: &str, g: u8| -> Result<(), FieldError> {
        if g >= n_gcds {
            Err(FieldError::new(
                format!("workload.records[{i}].{field}"),
                format!("GCD {g} out of range (node has {n_gcds})"),
            ))
        } else {
            Ok(())
        }
    };
    if op.bytes() == 0 {
        return Err(FieldError::new(
            format!("workload.records[{i}].bytes"),
            "must be at least 1",
        ));
    }
    match op {
        TraceOp::Copy { src, dst, .. } => {
            gcd_ok("src", src)?;
            gcd_ok("dst", dst)?;
            if src == dst {
                return Err(FieldError::new(
                    format!("workload.records[{i}].dst"),
                    "copy src and dst must differ (use 'kernel' for local traffic)",
                ));
            }
            Ok(())
        }
        TraceOp::H2D { dst, .. } => gcd_ok("dst", dst),
        TraceOp::D2H { src, .. } => gcd_ok("src", src),
        TraceOp::Kernel { gcd, .. } => gcd_ok("dst", gcd),
    }
}

/// Each record's dependencies as record indices, in `depends_on` order:
/// record `i`'s are `of[start[i]..start[i + 1]]`. Also the records ranked
/// by id.
struct Deps {
    start: Vec<u32>,
    of: Vec<u32>,
    /// Record indices in id order.
    by_id: Vec<u32>,
}

impl Deps {
    /// Check the records as [`ReplayPlan::new`] does, all but the cycle: a
    /// pass over the ids, then one over the records. The ids are ranked
    /// once and every dependency id is found by binary search.
    fn resolve_checked(records: &[TraceRecord], n_gcds: u8) -> Result<Deps, FieldError> {
        if records.is_empty() {
            return Err(FieldError::new(
                "workload.records",
                "trace must contain at least one record",
            ));
        }
        // A record's rank is its position here, so ranks order records as
        // their ids do.
        let mut ranked: Vec<(&str, u32)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id.as_str(), i as u32))
            .collect();
        ranked.sort_unstable();
        // Records sharing an id sit together in `ranked`, in record order,
        // so a record repeats an earlier id exactly when its neighbour
        // before it has the same id.
        let first_bad = ranked
            .iter()
            .enumerate()
            .filter(|&(k, &(id, _))| id.is_empty() || (k > 0 && ranked[k - 1].0 == id))
            .map(|(_, &(_, i))| i as usize)
            .min();
        if let Some(i) = first_bad {
            let field = format!("workload.records[{i}].id");
            let id = &records[i].id;
            return Err(if id.is_empty() {
                FieldError::new(field, "must be non-empty")
            } else {
                FieldError::new(field, format!("duplicate record id '{id}'"))
            });
        }
        let mut start = Vec::with_capacity(records.len() + 1);
        let mut of = Vec::new();
        start.push(0);
        for (i, r) in records.iter().enumerate() {
            check_op(i, r.op, n_gcds)?;
            for dep in &r.depends_on {
                let at = ranked.partition_point(|&(id, _)| id <= dep.as_str());
                let d = at
                    .checked_sub(1)
                    .map(|k| ranked[k])
                    .filter(|&(id, _)| id == dep)
                    .ok_or_else(|| {
                        FieldError::new(
                            format!("workload.records[{i}].depends_on"),
                            format!("unknown dependency '{dep}'"),
                        )
                    })?;
                if d.1 as usize == i {
                    return Err(FieldError::new(
                        format!("workload.records[{i}].depends_on"),
                        format!("record '{}' depends on itself", r.id),
                    ));
                }
                of.push(d.1);
            }
            start.push(of.len() as u32);
        }
        let by_id = ranked.into_iter().map(|(_, i)| i).collect();
        Ok(Deps { start, of, by_id })
    }

    fn of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.of[self.start[i] as usize..self.start[i + 1] as usize]
            .iter()
            .map(|&d| d as usize)
    }
}

/// The canonical topological order: Kahn's algorithm, ready set ordered by
/// record id. Returns indices into `records`. Fails as [`ReplayPlan::new`]
/// does.
pub fn canonical_order(records: &[TraceRecord], n_gcds: u8) -> Result<Vec<usize>, FieldError> {
    kahn(records, &Deps::resolve_checked(records, n_gcds)?)
}

fn kahn(records: &[TraceRecord], deps: &Deps) -> Result<Vec<usize>, FieldError> {
    let n = records.len();
    let mut indegree: Vec<u32> = deps.start.windows(2).map(|w| w[1] - w[0]).collect();
    // Each record's dependents, as a CSR: record `d`'s are
    // `dependents[first[d]..first[d + 1]]`, in record order.
    let mut first = vec![0u32; n + 1];
    for &d in &deps.of {
        first[d as usize + 1] += 1;
    }
    for d in 0..n {
        first[d + 1] += first[d];
    }
    let mut fill = first.clone();
    let mut dependents = vec![0u32; deps.of.len()];
    for i in 0..n {
        for d in deps.of(i) {
            dependents[fill[d] as usize] = i as u32;
            fill[d] += 1;
        }
    }
    let mut rank = vec![0u32; n];
    for (k, &i) in deps.by_id.iter().enumerate() {
        rank[i as usize] = k as u32;
    }
    // Ready records by rank: the pop order is by id, stable under input
    // shuffling.
    let mut ready: BinaryHeap<Reverse<u32>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(|i| Reverse(rank[i]))
        .collect();
    let mut order = Vec::with_capacity(records.len());
    while let Some(Reverse(k)) = ready.pop() {
        let i = deps.by_id[k as usize] as usize;
        order.push(i);
        for &j in &dependents[first[i] as usize..first[i + 1] as usize] {
            let j = j as usize;
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push(Reverse(rank[j]));
            }
        }
    }
    if order.len() != records.len() {
        let stuck = records
            .iter()
            .enumerate()
            .find(|(i, _)| indegree[*i] > 0)
            .map(|(_, r)| r.id.as_str())
            .unwrap_or("?");
        return Err(FieldError::new(
            "workload.records",
            format!("dependency cycle through record '{stuck}'"),
        ));
    }
    Ok(order)
}

/// A trace resolved for replay: its ops in canonical issue order, each
/// op's cross-stream producers as issue positions, which ops record an
/// event, and the buffer each device needs. Resolving walks the record ids
/// once; a replay of the plan touches integers only, so a workload that
/// runs many times (reps, sweeps, a served experiment) resolves once.
#[derive(Clone, Debug)]
pub struct ReplayPlan {
    /// The ops, in canonical issue order.
    ops: Vec<TraceOp>,
    /// The op at issue position `k` first waits on the events of
    /// `waits[wait_start[k]..wait_start[k + 1]]`, in `depends_on` order.
    wait_start: Vec<u32>,
    waits: Vec<u32>,
    /// Whether the op at each issue position records an event: it has a
    /// dependent on another stream.
    needs_event: Vec<bool>,
    /// Bytes of each device's buffer pair, indexed by GCD; 0 where no
    /// record touches the device.
    need: Vec<u64>,
    /// Bytes of the host staging buffer; 0 when no record moves host data.
    host_need: u64,
    /// The byte totals a replay reports.
    totals: ReplayStats,
}

impl ReplayPlan {
    /// Check `records` for a node of `n_gcds` devices, order them
    /// canonically and index their dependencies: this is the trace check.
    /// Of several faults it reports the first met: no records; an empty or
    /// repeated id, by record; then record by record its size, its GCDs (on
    /// the node, and a copy's two apart) and its dependencies (known, and
    /// not itself); then a dependency cycle, naming a record on it. Field
    /// paths index into `workload.records`.
    pub fn new(records: &[TraceRecord], n_gcds: u8) -> Result<ReplayPlan, FieldError> {
        let deps = Deps::resolve_checked(records, n_gcds)?;
        let order = kahn(records, &deps)?;
        let n = records.len();
        let mut pos = vec![0u32; n];
        for (at, &i) in order.iter().enumerate() {
            pos[i] = at as u32;
        }
        let mut plan = ReplayPlan {
            ops: Vec::with_capacity(n),
            wait_start: Vec::with_capacity(n + 1),
            waits: Vec::new(),
            needs_event: vec![false; n],
            need: Vec::new(),
            host_need: 0,
            totals: ReplayStats {
                makespan: Dur::ZERO,
                records: n,
                copy_bytes: 0,
                h2d_bytes: 0,
                d2h_bytes: 0,
                kernel_bytes: 0,
            },
        };
        plan.wait_start.push(0);
        for &i in &order {
            let op = records[i].op;
            let gcd = op.issuing_gcd();
            for d in deps.of(i) {
                if records[d].op.issuing_gcd() != gcd {
                    plan.waits.push(pos[d]);
                    plan.needs_event[pos[d] as usize] = true;
                }
            }
            plan.wait_start.push(plan.waits.len() as u32);
            plan.ops.push(op);
            plan.size(op);
        }
        Ok(plan)
    }

    /// Records in the trace.
    pub fn records(&self) -> usize {
        self.ops.len()
    }

    /// Grow the buffers to hold `op`, and count its bytes.
    fn size(&mut self, op: TraceOp) {
        let need = &mut self.need;
        let mut touch = |g: u8, b: u64| {
            let g = g as usize;
            if need.len() <= g {
                need.resize(g + 1, 0);
            }
            need[g] = need[g].max(b).max(8);
        };
        let t = &mut self.totals;
        match op {
            TraceOp::Copy { src, dst, bytes } => {
                touch(src, bytes);
                touch(dst, bytes);
                t.copy_bytes += bytes;
            }
            TraceOp::H2D { dst, bytes } => {
                touch(dst, bytes);
                self.host_need = self.host_need.max(bytes);
                t.h2d_bytes += bytes;
            }
            TraceOp::D2H { src, bytes } => {
                touch(src, bytes);
                self.host_need = self.host_need.max(bytes);
                t.d2h_bytes += bytes;
            }
            TraceOp::Kernel { gcd, bytes } => {
                touch(gcd, bytes);
                t.kernel_bytes += bytes;
            }
        }
    }
}

#[derive(Clone, Copy)]
struct DeviceSlots {
    stream: StreamId,
    /// Copy endpoints and kernel source.
    buf_a: BufferId,
    /// Kernel destination.
    buf_b: BufferId,
}

/// Replay a trace through `hip`, returning the makespan and byte totals:
/// resolve it into a [`ReplayPlan`], then replay that.
pub fn replay(hip: &mut HipSim, records: &[TraceRecord]) -> HipResult<ReplayStats> {
    let n_gcds = u8::try_from(hip.device_count()).unwrap_or(u8::MAX);
    let plan =
        ReplayPlan::new(records, n_gcds).map_err(|e| HipError::InvalidValue(e.to_string()))?;
    replay_plan(hip, &plan)
}

/// Replay a resolved trace through `hip`. Each device gets one stream and
/// one buffer pair, created in GCD order; cross-stream dependencies become
/// event waits; same-stream dependencies ride program order (the canonical
/// issue order already sequences them).
pub fn replay_plan(hip: &mut HipSim, plan: &ReplayPlan) -> HipResult<ReplayStats> {
    hip.enable_all_peer_access()?;
    let mut slots: Vec<Option<DeviceSlots>> = Vec::with_capacity(plan.need.len());
    for (gcd, &bytes) in plan.need.iter().enumerate() {
        if bytes == 0 {
            slots.push(None);
            continue;
        }
        hip.set_device(gcd)?;
        slots.push(Some(DeviceSlots {
            stream: hip.stream_create()?,
            buf_a: hip.malloc(bytes)?,
            buf_b: hip.malloc(bytes)?,
        }));
    }
    // Every GCD an op names has a buffer, so its slot exists.
    let slot = |g: u8| slots[g as usize].expect("a sized device");
    let host = if plan.host_need > 0 {
        Some(hip.host_malloc(plan.host_need, HostAllocFlags::non_coherent())?)
    } else {
        None
    };
    let mut events: Vec<Option<EventId>> = vec![None; plan.ops.len()];

    let t0 = hip.now();
    for (k, &op) in plan.ops.iter().enumerate() {
        let stream = slot(op.issuing_gcd()).stream;
        for &p in &plan.waits[plan.wait_start[k] as usize..plan.wait_start[k + 1] as usize] {
            // Producers issue first, and `needs_event` marked them.
            hip.stream_wait_event(stream, events[p as usize].expect("a recorded producer"))?;
        }
        match op {
            TraceOp::Copy { src, dst, bytes } => {
                let (sb, db) = (slot(src).buf_a, slot(dst).buf_a);
                hip.memcpy_peer_async(db, dst as usize, sb, src as usize, bytes, stream)?;
            }
            TraceOp::H2D { dst, bytes } => {
                hip.memcpy_async(
                    slot(dst).buf_a,
                    0,
                    host.expect("a host buffer"),
                    0,
                    bytes,
                    MemcpyKind::HostToDevice,
                    stream,
                )?;
            }
            TraceOp::D2H { src, bytes } => {
                hip.memcpy_async(
                    host.expect("a host buffer"),
                    0,
                    slot(src).buf_a,
                    0,
                    bytes,
                    MemcpyKind::DeviceToHost,
                    stream,
                )?;
            }
            TraceOp::Kernel { gcd, bytes } => {
                // StreamCopy touches 8 bytes per element (one f32 read,
                // one write), so `bytes` of traffic is `bytes / 8` elems.
                let s = slot(gcd);
                hip.launch_kernel_on(
                    KernelSpec::StreamCopy {
                        src: s.buf_a,
                        dst: s.buf_b,
                        elems: ((bytes / 8).max(1)) as usize,
                    },
                    stream,
                )?;
            }
        }
        if plan.needs_event[k] {
            let ev = hip.event_create();
            hip.event_record(ev, stream)?;
            events[k] = Some(ev);
        }
    }
    hip.synchronize_all()?;
    Ok(ReplayStats {
        makespan: hip.now() - t0,
        ..plan.totals.clone()
    })
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod validate_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_hip::EnvConfig;

    fn rec(id: &str, op: TraceOp, deps: &[&str]) -> TraceRecord {
        TraceRecord {
            id: id.into(),
            op,
            depends_on: deps.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn diamond() -> Vec<TraceRecord> {
        vec![
            rec(
                "a",
                TraceOp::H2D {
                    dst: 0,
                    bytes: 1 << 20,
                },
                &[],
            ),
            rec(
                "b",
                TraceOp::Copy {
                    src: 0,
                    dst: 1,
                    bytes: 4 << 20,
                },
                &["a"],
            ),
            rec(
                "c",
                TraceOp::Copy {
                    src: 0,
                    dst: 2,
                    bytes: 4 << 20,
                },
                &["a"],
            ),
            rec(
                "d",
                TraceOp::Kernel {
                    gcd: 1,
                    bytes: 8 << 20,
                },
                &["b", "c"],
            ),
            rec(
                "e",
                TraceOp::D2H {
                    src: 1,
                    bytes: 1 << 20,
                },
                &["d"],
            ),
        ]
    }

    #[test]
    fn canonical_order_respects_dependencies_and_ids() {
        let records = diamond();
        let order = canonical_order(&records, 8).unwrap();
        let pos: std::collections::HashMap<&str, usize> = order
            .iter()
            .enumerate()
            .map(|(at, &i)| (records[i].id.as_str(), at))
            .collect();
        assert!(pos["a"] < pos["b"] && pos["a"] < pos["c"]);
        assert!(pos["b"] < pos["d"] && pos["c"] < pos["d"]);
        assert!(pos["d"] < pos["e"]);
        // Tie between b and c breaks on id.
        assert!(pos["b"] < pos["c"]);
    }

    #[test]
    fn cycles_are_rejected_with_a_named_record() {
        let records = vec![
            rec("x", TraceOp::Kernel { gcd: 0, bytes: 8 }, &["y"]),
            rec("y", TraceOp::Kernel { gcd: 0, bytes: 8 }, &["x"]),
        ];
        let e = ReplayPlan::new(&records, 8).unwrap_err();
        assert!(e.message.contains("cycle"), "{e}");
    }

    #[test]
    fn validation_names_the_offending_field() {
        let bad = vec![rec(
            "a",
            TraceOp::Copy {
                src: 3,
                dst: 3,
                bytes: 8,
            },
            &[],
        )];
        let e = ReplayPlan::new(&bad, 8).unwrap_err();
        assert_eq!(e.field, "workload.records[0].dst");

        let bad = vec![rec("a", TraceOp::H2D { dst: 0, bytes: 8 }, &["nope"])];
        let e = ReplayPlan::new(&bad, 8).unwrap_err();
        assert!(e.message.contains("nope"));
    }

    #[test]
    fn replay_runs_the_dag_and_orders_dependents() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        let stats = replay(&mut hip, &diamond()).unwrap();
        assert_eq!(stats.records, 5);
        assert_eq!(stats.copy_bytes, 8 << 20);
        assert_eq!(stats.h2d_bytes, 1 << 20);
        assert!(stats.makespan.as_us() > 0.0);
    }

    #[test]
    fn unknown_dependencies_fail_to_resolve() {
        let records = vec![rec("a", TraceOp::H2D { dst: 0, bytes: 8 }, &["nope"])];
        let e = ReplayPlan::new(&records, 8).unwrap_err();
        assert_eq!(e.field, "workload.records[0].depends_on");
        let mut hip = HipSim::new(EnvConfig::default());
        assert!(replay(&mut hip, &records).is_err());
    }

    #[test]
    fn the_plan_replays_the_diamond_as_the_oracle_does() {
        let records = diamond();
        let plan = ReplayPlan::new(&records, 8).unwrap();
        assert_eq!(plan.records(), 5);
        let run = |f: &dyn Fn(&mut HipSim) -> ReplayStats| {
            let mut hip = HipSim::new(EnvConfig::default());
            hip.mem_mut().set_phantom_threshold(0);
            hip.trace_enable();
            let stats = f(&mut hip);
            (stats, hip.trace().events().to_vec())
        };
        let (stats, ops) = run(&|hip| replay_plan(hip, &plan).unwrap());
        let (want_stats, want_ops) = run(&|hip| oracle::replay(hip, &records).unwrap());
        assert_eq!(stats, want_stats);
        assert_eq!(ops, want_ops);
        // b and c issue on GCD0 for d on GCD1, so both record an event;
        // the waits leave no timeline entry.
        assert_eq!(ops.len(), 5 + 2, "five ops and two event records");
    }

    #[test]
    fn shuffled_input_replays_to_the_same_makespan() {
        let records = diamond();
        let mut shuffled = records.clone();
        shuffled.reverse();
        let run = |recs: &[TraceRecord]| {
            let mut hip = HipSim::new(EnvConfig::default());
            hip.mem_mut().set_phantom_threshold(0);
            replay(&mut hip, recs).unwrap().makespan.as_ns()
        };
        assert_eq!(run(&records), run(&shuffled));
    }
}
