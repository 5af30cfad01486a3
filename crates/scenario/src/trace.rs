//! Trace records and their replay through the HIP runtime.
//!
//! A trace is a DAG of transfer/compute records. Replay issues every
//! record onto a per-device stream in **canonical topological order**
//! (Kahn's algorithm with a lexicographic tie-break on record id), turning
//! `depends_on` edges that cross streams into `hipStreamWaitEvent` waits.
//! Because the issue order is recomputed from the DAG, any two
//! topologically-valid orderings of the same records replay identically —
//! shuffled input cannot change the schedule.

use crate::FieldError;
use ifsim_des::Dur;
use ifsim_hip::{BufferId, HipResult, HipSim, HostAllocFlags, KernelSpec, MemcpyKind, StreamId};
use std::collections::{BTreeMap, BTreeSet};

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
#[derive(Clone, Debug)]
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

/// Validate a record set: unique non-empty ids, dependencies that exist
/// and are not self-referential, GCDs on the node, positive sizes, and an
/// acyclic dependency graph. Field paths index into `workload.records`.
pub fn validate(records: &[TraceRecord], n_gcds: u8) -> Result<(), FieldError> {
    if records.is_empty() {
        return Err(FieldError::new(
            "workload.records",
            "trace must contain at least one record",
        ));
    }
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if r.id.is_empty() {
            return Err(FieldError::new(
                format!("workload.records[{i}].id"),
                "must be non-empty",
            ));
        }
        if index.insert(r.id.as_str(), i).is_some() {
            return Err(FieldError::new(
                format!("workload.records[{i}].id"),
                format!("duplicate record id '{}'", r.id),
            ));
        }
    }
    for (i, r) in records.iter().enumerate() {
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
        if r.op.bytes() == 0 {
            return Err(FieldError::new(
                format!("workload.records[{i}].bytes"),
                "must be at least 1",
            ));
        }
        match r.op {
            TraceOp::Copy { src, dst, .. } => {
                gcd_ok("src", src)?;
                gcd_ok("dst", dst)?;
                if src == dst {
                    return Err(FieldError::new(
                        format!("workload.records[{i}].dst"),
                        "copy src and dst must differ (use 'kernel' for local traffic)",
                    ));
                }
            }
            TraceOp::H2D { dst, .. } => gcd_ok("dst", dst)?,
            TraceOp::D2H { src, .. } => gcd_ok("src", src)?,
            TraceOp::Kernel { gcd, .. } => gcd_ok("dst", gcd)?,
        }
        for dep in &r.depends_on {
            if dep == &r.id {
                return Err(FieldError::new(
                    format!("workload.records[{i}].depends_on"),
                    format!("record '{}' depends on itself", r.id),
                ));
            }
            if !index.contains_key(dep.as_str()) {
                return Err(FieldError::new(
                    format!("workload.records[{i}].depends_on"),
                    format!("unknown dependency '{dep}'"),
                ));
            }
        }
    }
    // Cycle check == canonical order exists.
    canonical_order(records).map(|_| ())
}

/// The canonical topological order: Kahn's algorithm, ready set ordered by
/// record id. Returns indices into `records`. Fails (naming a record on
/// the cycle) if the dependency graph is cyclic.
pub fn canonical_order(records: &[TraceRecord]) -> Result<Vec<usize>, FieldError> {
    let index: BTreeMap<&str, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let mut indegree = vec![0usize; records.len()];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    for (i, r) in records.iter().enumerate() {
        for dep in &r.depends_on {
            let d = index[dep.as_str()];
            indegree[i] += 1;
            dependents[d].push(i);
        }
    }
    // (id, index) pairs keep the pop order stable under input shuffling.
    let mut ready: BTreeSet<(&str, usize)> = records
        .iter()
        .enumerate()
        .filter(|(i, _)| indegree[*i] == 0)
        .map(|(i, r)| (r.id.as_str(), i))
        .collect();
    let mut order = Vec::with_capacity(records.len());
    while let Some(&(id, i)) = ready.iter().next() {
        ready.remove(&(id, i));
        order.push(i);
        for &j in &dependents[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.insert((records[j].id.as_str(), j));
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
    let order =
        canonical_order(records).map_err(|e| ifsim_hip::HipError::InvalidValue(e.to_string()))?;
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
        let order = canonical_order(&records).unwrap();
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
        let e = validate(&records, 8).unwrap_err();
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
        let e = validate(&bad, 8).unwrap_err();
        assert_eq!(e.field, "workload.records[0].dst");

        let bad = vec![rec("a", TraceOp::H2D { dst: 0, bytes: 8 }, &["nope"])];
        let e = validate(&bad, 8).unwrap_err();
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
