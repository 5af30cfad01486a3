//! The string-walking replay that [`ReplayPlan`](super::ReplayPlan)
//! replaced, kept as a test oracle: it orders the records by comparing
//! their id strings, indexes their ids and sizes the buffers on every call,
//! and looks each dependency up by id while it issues. The plan's replay,
//! which orders by a rank computed once, must make the same HIP calls, in
//! the same order, and report the same totals.
//!
//! The scenario crate's unit tests compile it as `trace::oracle`, and
//! `tests/scenario_properties.rs` includes the same file, so it names only
//! items its parent module imports: the trace types.

use super::{ReplayStats, TraceOp, TraceRecord};
use ifsim_des::Dur;
use ifsim_hip::{
    BufferId, HipError, HipResult, HipSim, HostAllocFlags, KernelSpec, MemcpyKind, StreamId,
};
use std::collections::{BTreeMap, BTreeSet};

struct DeviceSlots {
    stream: StreamId,
    /// Copy endpoints and kernel source.
    buf_a: BufferId,
    /// Kernel destination.
    buf_b: BufferId,
}

/// Replay a validated trace through `hip`, returning the makespan and byte
/// totals. Each device gets one stream; cross-stream dependencies become
/// event waits; same-stream dependencies ride program order (the canonical
/// issue order already sequences them).
pub fn replay(hip: &mut HipSim, records: &[TraceRecord]) -> HipResult<ReplayStats> {
    let order = string_order(records)?;
    hip.enable_all_peer_access()?;

    // Size one buffer pair per device at the largest record touching it.
    let mut need: BTreeMap<u8, u64> = BTreeMap::new();
    let mut host_need: u64 = 0;
    for r in records {
        let mut touch = |g: u8, b: u64| {
            let e = need.entry(g).or_insert(8);
            *e = (*e).max(b);
        };
        match r.op {
            TraceOp::Copy { src, dst, bytes } => {
                touch(src, bytes);
                touch(dst, bytes);
            }
            TraceOp::H2D { dst, bytes } => {
                touch(dst, bytes);
                host_need = host_need.max(bytes);
            }
            TraceOp::D2H { src, bytes } => {
                touch(src, bytes);
                host_need = host_need.max(bytes);
            }
            TraceOp::Kernel { gcd, bytes } => touch(gcd, bytes.max(8)),
        }
    }
    let mut slots: BTreeMap<u8, DeviceSlots> = BTreeMap::new();
    for (&gcd, &bytes) in &need {
        hip.set_device(gcd as usize)?;
        slots.insert(
            gcd,
            DeviceSlots {
                stream: hip.stream_create()?,
                buf_a: hip.malloc(bytes)?,
                buf_b: hip.malloc(bytes)?,
            },
        );
    }
    let host = if host_need > 0 {
        Some(hip.host_malloc(host_need, HostAllocFlags::non_coherent())?)
    } else {
        None
    };

    // Only records with cross-stream dependents need an event.
    let gcd_of = |i: usize| records[i].op.issuing_gcd();
    let index: BTreeMap<&str, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let needs_event: Vec<bool> = {
        let mut flags = vec![false; records.len()];
        for (i, r) in records.iter().enumerate() {
            for dep in &r.depends_on {
                let d = index[dep.as_str()];
                if gcd_of(d) != gcd_of(i) {
                    flags[d] = true;
                }
            }
        }
        flags
    };
    let mut events = vec![None; records.len()];

    let t0 = hip.now();
    let mut stats = ReplayStats {
        makespan: Dur::ZERO,
        records: records.len(),
        copy_bytes: 0,
        h2d_bytes: 0,
        d2h_bytes: 0,
        kernel_bytes: 0,
    };
    for &i in &order {
        let r = &records[i];
        let gcd = r.op.issuing_gcd();
        let stream = slots[&gcd].stream;
        for dep in &r.depends_on {
            let d = index[dep.as_str()];
            if gcd_of(d) != gcd {
                // `needs_event` marked the producer, so the event exists.
                hip.stream_wait_event(stream, events[d].unwrap())?;
            }
        }
        match r.op {
            TraceOp::Copy { src, dst, bytes } => {
                let (sb, db) = (slots[&src].buf_a, slots[&dst].buf_a);
                hip.memcpy_peer_async(db, dst as usize, sb, src as usize, bytes, stream)?;
                stats.copy_bytes += bytes;
            }
            TraceOp::H2D { dst, bytes } => {
                hip.memcpy_async(
                    slots[&dst].buf_a,
                    0,
                    host.unwrap(),
                    0,
                    bytes,
                    MemcpyKind::HostToDevice,
                    stream,
                )?;
                stats.h2d_bytes += bytes;
            }
            TraceOp::D2H { src, bytes } => {
                hip.memcpy_async(
                    host.unwrap(),
                    0,
                    slots[&src].buf_a,
                    0,
                    bytes,
                    MemcpyKind::DeviceToHost,
                    stream,
                )?;
                stats.d2h_bytes += bytes;
            }
            TraceOp::Kernel { gcd, bytes } => {
                // StreamCopy touches 8 bytes per element (one f32 read,
                // one write), so `bytes` of traffic is `bytes / 8` elems.
                let s = &slots[&gcd];
                hip.launch_kernel_on(
                    KernelSpec::StreamCopy {
                        src: s.buf_a,
                        dst: s.buf_b,
                        elems: ((bytes / 8).max(1)) as usize,
                    },
                    stream,
                )?;
                stats.kernel_bytes += bytes;
            }
        }
        if needs_event[i] {
            let ev = hip.event_create();
            hip.event_record(ev, stream)?;
            events[i] = Some(ev);
        }
    }
    hip.synchronize_all()?;
    stats.makespan = hip.now() - t0;
    Ok(stats)
}

/// The canonical order as Kahn's algorithm with a ready set of
/// `(id, index)` pairs, compared by id string on every step.
fn string_order(records: &[TraceRecord]) -> HipResult<Vec<usize>> {
    let index: BTreeMap<&str, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let mut indegree = vec![0usize; records.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    for (i, r) in records.iter().enumerate() {
        for dep in &r.depends_on {
            let d = *index
                .get(dep.as_str())
                .ok_or_else(|| HipError::InvalidValue(format!("unknown dependency '{dep}'")))?;
            indegree[i] += 1;
            dependents[d].push(i);
        }
    }
    let mut ready: BTreeSet<(&str, usize)> = records
        .iter()
        .enumerate()
        .filter(|(i, _)| indegree[*i] == 0)
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let mut order = Vec::with_capacity(records.len());
    while let Some((_, i)) = ready.pop_first() {
        order.push(i);
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.insert((records[j].id.as_str(), j));
            }
        }
    }
    if order.len() != records.len() {
        return Err(HipError::InvalidValue("dependency cycle".into()));
    }
    Ok(order)
}
