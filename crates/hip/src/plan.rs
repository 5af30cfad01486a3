//! Planning: turning an operation into fabric traffic, latency, and
//! functional effects.
//!
//! This module encodes the paper's mechanism analysis:
//!
//! - **`hipMemcpy` host↔device** rides an SDMA engine over the GCD's CPU
//!   link; efficiency depends on the host allocation (pinned vs. pageable
//!   staging, §IV-A).
//! - **`hipMemcpyPeer`** takes the *bandwidth-maximizing* route (§V-A1).
//!   With SDMA (default) the engine caps payload at ~50 GB/s and reaches
//!   75 % of a single link (§V-A2); with `HSA_ENABLE_PEER_SDMA=0` a blit
//!   kernel is used instead, which behaves like kernel traffic.
//! - **Kernel operands** generate zero-copy flows to wherever the data
//!   lives: local HBM, peer HBM over xGMI (through the duplex pool), or
//!   host memory over the CPU link. Managed memory consults per-page
//!   residency; with XNACK the plan prepends fault-and-migrate work.

use crate::env::EnvConfig;
use crate::error::{HipError, HipResult};
use crate::fault::FabricHealth;
use crate::kernel::KernelSpec;
use crate::op::MemcpyKind;
use ifsim_des::{Dur, Rng};
use ifsim_fabric::latency::peer_copy_latency;
use ifsim_fabric::{Calibration, FlowSpec, SegmentMap};
use ifsim_memory::{Allocation, BufferId, MemKind, MemSpace, MemorySystem};
use ifsim_topology::{GcdId, NodeTopology, NumaId, Path, RoutePolicy, Router};
use std::collections::BTreeSet;

/// A functional side effect applied when the op completes.
#[derive(Clone, Debug)]
pub enum Effect {
    /// Copy bytes between buffers.
    Copy {
        /// Source buffer.
        src: BufferId,
        /// Source offset.
        src_off: u64,
        /// Destination buffer.
        dst: BufferId,
        /// Destination offset.
        dst_off: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Execute a kernel's data effect.
    Kernel(KernelSpec),
    /// `dst[i] += src[i]` over `elems` f32 elements at byte offsets — the
    /// arriving-chunk reduction of ring collectives.
    ReduceAdd {
        /// Source buffer (the arriving chunk).
        src: BufferId,
        /// Source byte offset.
        src_off: u64,
        /// Destination buffer (accumulated in place).
        dst: BufferId,
        /// Destination byte offset.
        dst_off: u64,
        /// Element count.
        elems: usize,
    },
    /// Migrate managed pages covering a range to a new space.
    Migrate {
        /// Managed buffer.
        buf: BufferId,
        /// Range start.
        offset: u64,
        /// Range length.
        len: u64,
        /// New residency.
        to: MemSpace,
    },
    /// Set or clear an allocation's read-mostly duplication flag
    /// (`hipMemAdviseSetReadMostly` semantics: a write collapses it).
    SetReadMostly {
        /// Managed buffer.
        buf: BufferId,
        /// New flag value.
        value: bool,
    },
    /// Fill a byte range with a value (`hipMemset`).
    Fill {
        /// Destination buffer.
        dst: BufferId,
        /// Byte offset.
        offset: u64,
        /// Fill value.
        value: u8,
        /// Length in bytes.
        len: u64,
    },
}

/// The planned execution of one op.
pub struct OpPlan {
    /// Fixed delay before the flows start (software + engine latency).
    pub latency: Dur,
    /// Fabric traffic; the op completes when all flows complete.
    pub flows: Vec<FlowSpec>,
    /// Effects applied at completion, in order.
    pub effects: Vec<Effect>,
}

/// Read-only context the planner works against.
pub struct PlanCtx<'a> {
    /// Node graph.
    pub topo: &'a NodeTopology,
    /// Precomputed routes.
    pub router: &'a Router,
    /// Model constants.
    pub calib: &'a Calibration,
    /// Environment (XNACK, SDMA switches).
    pub env: &'a EnvConfig,
    /// Fabric segments.
    pub segmap: &'a SegmentMap,
    /// Allocation table.
    pub mem: &'a MemorySystem,
    /// Directed peer-access grants `(accessor, owner)`.
    pub peer_enabled: &'a BTreeSet<(GcdId, GcdId)>,
    /// Current fabric condition (degraded links, failed SDMA engines,
    /// bit-error taxes) from applied fault events.
    pub fabric_health: &'a FabricHealth,
}

impl<'a> PlanCtx<'a> {
    /// Where an allocation's bytes effectively live. Managed memory with a
    /// split residency is attributed to the space holding the most bytes
    /// (ties broken toward the home space, then GCD order, then NUMA order)
    /// — a deliberate fluid-model simplification, documented in DESIGN.md
    /// §5 ("Managed residency").
    pub fn dominant_space(&self, alloc: &Allocation) -> MemSpace {
        match &alloc.pages {
            None => alloc.home,
            Some(pt) => {
                let mut best = (alloc.home, pt.resident_bytes(alloc.home));
                for gcd in self.topo.gcds() {
                    let s = MemSpace::Hbm(gcd);
                    let b = pt.resident_bytes(s);
                    if b > best.1 {
                        best = (s, b);
                    }
                }
                for numa in self.topo.numa_domains() {
                    let s = MemSpace::Ddr(numa);
                    let b = pt.resident_bytes(s);
                    if b > best.1 {
                        best = (s, b);
                    }
                }
                best.0
            }
        }
    }

    /// Segments for zero-copy/host traffic between `gcd` and NUMA `n`.
    /// `to_gcd` selects traffic direction (read vs. write).
    pub fn host_traffic_segs(
        &self,
        gcd: GcdId,
        n: NumaId,
        to_gcd: bool,
    ) -> Vec<ifsim_fabric::SegId> {
        let route = self.router.host_route(gcd, n);
        let path = if to_gcd {
            route.reversed()
        } else {
            route.clone()
        };
        let mut segs = self.segmap.path_segments(self.topo, &path, false);
        segs.push(self.segmap.ddr_seg(n));
        segs
    }

    /// The live bandwidth-maximizing peer route `a → b`, or
    /// [`HipError::LinkDown`] when link failures have severed every route
    /// between the pair.
    pub fn peer_route(&self, a: GcdId, b: GcdId) -> HipResult<&'a Path> {
        self.router
            .try_gcd_route(a, b, RoutePolicy::MaxBandwidth)
            .filter(|p| self.fabric_health.path_is_live(p))
            .ok_or_else(|| {
                HipError::LinkDown(format!(
                    "no xGMI route {a} -> {b}: link failures partitioned the fabric"
                ))
            })
    }

    /// Segments for kernel traffic between `gcd` and peer `p`, or
    /// [`HipError::LinkDown`] if the pair is partitioned.
    pub fn peer_kernel_segs(
        &self,
        gcd: GcdId,
        p: GcdId,
        to_gcd: bool,
    ) -> HipResult<Vec<ifsim_fabric::SegId>> {
        let path = if to_gcd {
            self.peer_route(p, gcd)?
        } else {
            self.peer_route(gcd, p)?
        };
        let mut segs = self.segmap.path_segments(self.topo, path, true);
        segs.push(self.segmap.hbm_seg(p));
        Ok(segs)
    }
}

/// Plan a kernel launch on `gcd`.
pub fn plan_kernel(
    ctx: &PlanCtx<'_>,
    gcd: GcdId,
    spec: &KernelSpec,
    rng: &mut Rng,
) -> HipResult<OpPlan> {
    let calib = ctx.calib;
    let mut latency = calib.kernel_launch_overhead;
    let mut flows = Vec::new();
    let mut effects = Vec::new();
    let mut any_nonlocal = false;

    let operands: Vec<(BufferId, u64, bool)> = spec
        .reads()
        .into_iter()
        .map(|(b, n)| (b, n, false))
        .chain(spec.writes().into_iter().map(|(b, n)| (b, n, true)))
        .collect();

    for (buf, bytes, is_write) in operands {
        if bytes == 0 {
            continue;
        }
        let alloc = ctx.mem.get(buf)?;
        if bytes > alloc.bytes {
            return Err(HipError::InvalidValue(format!(
                "kernel {} touches {bytes} B of {} B buffer {buf:?}",
                spec.name(),
                alloc.bytes
            )));
        }
        let space = ctx.dominant_space(alloc);
        match space {
            MemSpace::Hbm(owner) if owner == gcd => {
                flows.push(FlowSpec::new(
                    vec![ctx.segmap.hbm_seg(gcd)],
                    bytes as f64,
                    calib.eff_kernel_hbm,
                ));
            }
            _ if alloc.kind == MemKind::Managed && alloc.read_mostly && !is_write => {
                // Read-mostly managed memory: the driver has duplicated the
                // pages locally; reads run at HBM speed wherever they are.
                flows.push(FlowSpec::new(
                    vec![ctx.segmap.hbm_seg(gcd)],
                    bytes as f64,
                    calib.eff_kernel_hbm,
                ));
            }
            MemSpace::Hbm(owner) => {
                // Peer HBM. Device allocations require an explicit peer
                // grant; managed memory is addressable node-wide.
                if alloc.kind == MemKind::Device && !ctx.peer_enabled.contains(&(gcd, owner)) {
                    return Err(HipError::IllegalAddress(format!(
                        "kernel on {gcd} touched device memory of {owner} without peer access"
                    )));
                }
                any_nonlocal = true;
                if alloc.kind == MemKind::Managed && alloc.read_mostly && is_write {
                    // A write collapses the duplicates, then proceeds on the
                    // normal managed path.
                    effects.push(Effect::SetReadMostly {
                        buf: alloc.id,
                        value: false,
                    });
                    flows.push(FlowSpec::new(
                        ctx.peer_kernel_segs(gcd, owner, !is_write)?,
                        bytes as f64,
                        calib.eff_kernel_xgmi,
                    ));
                } else if alloc.kind == MemKind::Managed && ctx.env.xnack {
                    plan_migration(
                        ctx,
                        gcd,
                        alloc,
                        bytes,
                        &mut latency,
                        &mut flows,
                        &mut effects,
                    )?;
                } else {
                    flows.push(FlowSpec::new(
                        ctx.peer_kernel_segs(gcd, owner, !is_write)?,
                        bytes as f64,
                        calib.eff_kernel_xgmi,
                    ));
                }
            }
            MemSpace::Ddr(numa) => {
                any_nonlocal = true;
                match alloc.kind {
                    MemKind::HostPinned(_) => {
                        flows.push(FlowSpec::new(
                            ctx.host_traffic_segs(gcd, numa, !is_write),
                            bytes as f64,
                            calib.eff_kernel_host_pinned,
                        ));
                    }
                    MemKind::Managed => {
                        if alloc.read_mostly && is_write {
                            effects.push(Effect::SetReadMostly {
                                buf: alloc.id,
                                value: false,
                            });
                        }
                        if ctx.env.xnack {
                            plan_migration(
                                ctx,
                                gcd,
                                alloc,
                                bytes,
                                &mut latency,
                                &mut flows,
                                &mut effects,
                            )?;
                        } else {
                            flows.push(FlowSpec::new(
                                ctx.host_traffic_segs(gcd, numa, !is_write),
                                bytes as f64,
                                calib.eff_managed_for_size(alloc.bytes),
                            ));
                        }
                    }
                    MemKind::HostPageable => {
                        if !ctx.env.xnack {
                            return Err(HipError::IllegalAddress(format!(
                                "kernel on {gcd} touched pageable host memory with XNACK disabled"
                            )));
                        }
                        // HMM-style access: retry-capable but uncachable and
                        // unpinned; modeled at managed zero-copy efficiency.
                        flows.push(FlowSpec::new(
                            ctx.host_traffic_segs(gcd, numa, !is_write),
                            bytes as f64,
                            calib.eff_kernel_host_managed,
                        ));
                    }
                    MemKind::Device => unreachable!("device memory homed in DDR"),
                }
            }
        }
    }

    effects.push(Effect::Kernel(spec.clone()));
    if any_nonlocal {
        latency += calib.remote_access_latency;
    }
    latency = latency * rng.jitter(calib.latency_jitter_rel);
    Ok(OpPlan {
        latency,
        flows,
        effects,
    })
}

/// Add XNACK fault-and-migrate work for a managed operand: per-page fault
/// overhead (serial) plus a bulk transfer flow from the dominant space, then
/// local HBM traffic for the actual access.
fn plan_migration(
    ctx: &PlanCtx<'_>,
    gcd: GcdId,
    alloc: &Allocation,
    bytes: u64,
    latency: &mut Dur,
    flows: &mut Vec<FlowSpec>,
    effects: &mut Vec<Effect>,
) -> HipResult<()> {
    let calib = ctx.calib;
    let pt = alloc.pages.as_ref().expect("managed allocation has pages");
    let target = MemSpace::Hbm(gcd);
    let pages = pt.non_resident_pages(0, bytes, target);
    if pages > 0 {
        let from = ctx.dominant_space(alloc);
        *latency += calib.migration_fault_overhead * pages as f64;
        let mig_bytes = (pages as u64 * pt.page_size()) as f64;
        let mut segs = match from {
            MemSpace::Ddr(n) => ctx.host_traffic_segs(gcd, n, true),
            MemSpace::Hbm(p) if p != gcd => ctx.peer_kernel_segs(gcd, p, true)?,
            MemSpace::Hbm(_) => vec![ctx.segmap.hbm_seg(gcd)],
        };
        segs.push(ctx.segmap.hbm_seg(gcd));
        flows.push(FlowSpec::new(segs, mig_bytes, 1.0));
        effects.insert(
            0,
            Effect::Migrate {
                buf: alloc.id,
                offset: 0,
                len: bytes,
                to: target,
            },
        );
    }
    // After migration the operand is local.
    flows.push(FlowSpec::new(
        vec![ctx.segmap.hbm_seg(gcd)],
        bytes as f64,
        calib.eff_kernel_hbm,
    ));
    Ok(())
}

/// Whether `[off, off + len)` lies inside a `size`-byte buffer; an end past
/// `u64::MAX` does not.
fn fits(off: u64, len: u64, size: u64) -> bool {
    off.checked_add(len).is_some_and(|end| end <= size)
}

/// Plan an explicit copy (`hipMemcpy` / `hipMemcpyPeer`).
#[allow(clippy::too_many_arguments)]
pub fn plan_memcpy(
    ctx: &PlanCtx<'_>,
    dst: BufferId,
    dst_off: u64,
    src: BufferId,
    src_off: u64,
    bytes: u64,
    kind: MemcpyKind,
    rng: &mut Rng,
) -> HipResult<OpPlan> {
    let calib = ctx.calib;
    let src_alloc = ctx.mem.get(src)?;
    let dst_alloc = ctx.mem.get(dst)?;
    if !fits(src_off, bytes, src_alloc.bytes) || !fits(dst_off, bytes, dst_alloc.bytes) {
        return Err(HipError::InvalidValue(format!(
            "memcpy of {bytes} B exceeds buffer bounds (src {} B @{src_off}, dst {} B @{dst_off})",
            src_alloc.bytes, dst_alloc.bytes
        )));
    }
    let src_space = ctx.dominant_space(src_alloc);
    let dst_space = ctx.dominant_space(dst_alloc);
    validate_kind(kind, src_space, dst_space)?;

    let effect = Effect::Copy {
        src,
        src_off,
        dst,
        dst_off,
        len: bytes,
    };
    if bytes == 0 {
        return Ok(OpPlan {
            latency: calib.memcpy_call_overhead,
            flows: vec![],
            effects: vec![effect],
        });
    }

    let (mut latency, flows) = match (src_space, dst_space) {
        // Host -> device.
        (MemSpace::Ddr(n), MemSpace::Hbm(g)) => {
            let eff = host_copy_efficiency(calib, src_alloc.kind, rng);
            let mut segs = ctx.host_traffic_segs(g, n, true);
            segs.push(ctx.segmap.hbm_seg(g));
            (
                calib.memcpy_call_overhead + calib.host_dma_setup,
                vec![FlowSpec::new(segs, bytes as f64, eff)],
            )
        }
        // Device -> host.
        (MemSpace::Hbm(g), MemSpace::Ddr(n)) => {
            let eff = host_copy_efficiency(calib, dst_alloc.kind, rng);
            let mut segs = ctx.host_traffic_segs(g, n, false);
            segs.push(ctx.segmap.hbm_seg(g));
            (
                calib.memcpy_call_overhead + calib.host_dma_setup,
                vec![FlowSpec::new(segs, bytes as f64, eff)],
            )
        }
        // Device -> device, same GCD: blit through local HBM (read+write).
        (MemSpace::Hbm(a), MemSpace::Hbm(b)) if a == b => (
            calib.memcpy_call_overhead,
            vec![FlowSpec::new(
                vec![ctx.segmap.hbm_seg(a)],
                2.0 * bytes as f64,
                calib.eff_kernel_hbm,
            )],
        ),
        // Device -> peer device.
        (MemSpace::Hbm(a), MemSpace::Hbm(b)) => plan_peer_copy(ctx, a, b, bytes)?,
        // Host -> host.
        (MemSpace::Ddr(a), MemSpace::Ddr(b)) => {
            let mut segs = vec![ctx.segmap.ddr_seg(a)];
            if a != b {
                let hop = ctx
                    .topo
                    .link_between(
                        ifsim_topology::PortId::Numa(a),
                        ifsim_topology::PortId::Numa(b),
                    )
                    .expect("NUMA mesh is complete");
                segs.push(ctx.segmap.dir_seg(hop, direction_of(ctx.topo, hop, a)));
                segs.push(ctx.segmap.ddr_seg(b));
            }
            (
                calib.memcpy_call_overhead,
                vec![FlowSpec::new(segs, bytes as f64, 0.9)],
            )
        }
    };
    latency = latency * rng.jitter(calib.latency_jitter_rel);
    Ok(OpPlan {
        latency,
        flows,
        effects: vec![effect],
    })
}

/// Plan a `hipMemset`: write-only traffic through the buffer's memory
/// segment (a blit fill on device memory, a CPU fill on host memory).
pub fn plan_memset(
    ctx: &PlanCtx<'_>,
    dst: BufferId,
    offset: u64,
    value: u8,
    len: u64,
) -> HipResult<OpPlan> {
    let calib = ctx.calib;
    let alloc = ctx.mem.get(dst)?;
    if !fits(offset, len, alloc.bytes) {
        return Err(HipError::InvalidValue(format!(
            "memset of {len} B at {offset} exceeds {} B buffer",
            alloc.bytes
        )));
    }
    let effect = Effect::Fill {
        dst,
        offset,
        value,
        len,
    };
    if len == 0 {
        return Ok(OpPlan {
            latency: calib.memcpy_call_overhead,
            flows: vec![],
            effects: vec![effect],
        });
    }
    let space = ctx.dominant_space(alloc);
    let (segs, eff) = match space {
        MemSpace::Hbm(g) => (vec![ctx.segmap.hbm_seg(g)], calib.eff_kernel_hbm),
        MemSpace::Ddr(n) => (vec![ctx.segmap.ddr_seg(n)], 0.9),
    };
    Ok(OpPlan {
        latency: calib.memcpy_call_overhead,
        flows: vec![FlowSpec::new(segs, len as f64, eff)],
        effects: vec![effect],
    })
}

/// Plan a `hipMemPrefetchAsync`: proactively migrate a managed range to a
/// target space over the fabric at bulk-copy efficiency — no per-page fault
/// overhead, which is the entire point of prefetching over XNACK
/// first-touch (§II-C's "implicit" movement done right).
pub fn plan_prefetch(ctx: &PlanCtx<'_>, buf: BufferId, target: MemSpace) -> HipResult<OpPlan> {
    let calib = ctx.calib;
    let alloc = ctx.mem.get(buf)?;
    if alloc.kind != MemKind::Managed {
        return Err(HipError::InvalidValue(format!(
            "prefetch on non-managed {:?} memory",
            alloc.kind
        )));
    }
    let pt = alloc.pages.as_ref().expect("managed allocation has pages");
    let pages = pt.non_resident_pages(0, alloc.bytes, target);
    let effect = Effect::Migrate {
        buf,
        offset: 0,
        len: alloc.bytes,
        to: target,
    };
    if pages == 0 {
        return Ok(OpPlan {
            latency: calib.memcpy_call_overhead,
            flows: vec![],
            effects: vec![effect],
        });
    }
    let from = ctx.dominant_space(alloc);
    let mig_bytes = (pages as u64 * pt.page_size()) as f64;
    let mut segs = match (from, target) {
        (MemSpace::Ddr(n), MemSpace::Hbm(g)) => ctx.host_traffic_segs(g, n, true),
        (MemSpace::Hbm(g), MemSpace::Ddr(n)) => ctx.host_traffic_segs(g, n, false),
        (MemSpace::Hbm(a), MemSpace::Hbm(b)) if a != b => ctx.peer_kernel_segs(b, a, true)?,
        (MemSpace::Ddr(a), MemSpace::Ddr(b)) if a != b => {
            vec![ctx.segmap.ddr_seg(a), ctx.segmap.ddr_seg(b)]
        }
        // Same space: nothing to move (handled above), but residency may be
        // split across spaces with the same dominant — fall back to a local
        // memory touch.
        _ => vec![ctx.segmap.memory_seg(target.port())],
    };
    segs.push(ctx.segmap.memory_seg(target.port()));
    Ok(OpPlan {
        latency: calib.memcpy_call_overhead,
        flows: vec![FlowSpec::new(segs, mig_bytes, calib.eff_memcpy_pinned)],
        effects: vec![effect],
    })
}

/// Peer-to-peer copy mechanics: SDMA engine (default) or blit kernel, or a
/// host-staged bounce when peer access was never enabled.
///
/// Degraded-fabric behavior: a partitioned pair errors with
/// [`HipError::LinkDown`]; a source GCD whose SDMA engines have failed
/// falls back to the blit-kernel path; links running at elevated bit-error
/// rates add their retransmission latency to the op.
fn plan_peer_copy(
    ctx: &PlanCtx<'_>,
    a: GcdId,
    b: GcdId,
    bytes: u64,
) -> HipResult<(Dur, Vec<FlowSpec>)> {
    let calib = ctx.calib;
    let enabled = ctx.peer_enabled.contains(&(a, b)) || ctx.peer_enabled.contains(&(b, a));
    if !enabled {
        // Staged through host DDR: up one CPU link, down the other.
        let na = ctx.topo.numa_of(a);
        let mut segs = ctx.host_traffic_segs(a, na, false);
        segs.extend(ctx.host_traffic_segs(b, na, true));
        segs.push(ctx.segmap.hbm_seg(a));
        segs.push(ctx.segmap.hbm_seg(b));
        return Ok((
            calib.memcpy_call_overhead * 2.0,
            vec![FlowSpec::new(segs, bytes as f64, calib.eff_memcpy_pinned)],
        ));
    }
    let path = ctx.peer_route(a, b)?;
    let ber_latency = ctx.fabric_health.path_extra_latency(path);
    let use_sdma = ctx.env.peer_sdma_active() && !ctx.fabric_health.sdma_failed(a);
    Ok(if use_sdma {
        let mut segs = ctx.segmap.path_segments(ctx.topo, path, false);
        segs.push(ctx.segmap.hbm_seg(a));
        segs.push(ctx.segmap.hbm_seg(b));
        (
            peer_copy_latency(ctx.topo, path, calib) + ber_latency,
            vec![FlowSpec::new(segs, bytes as f64, calib.eff_sdma_xgmi)
                .with_cap(calib.sdma_payload_cap)],
        )
    } else {
        let mut segs = ctx.segmap.path_segments(ctx.topo, path, true);
        segs.push(ctx.segmap.hbm_seg(a));
        segs.push(ctx.segmap.hbm_seg(b));
        (
            calib.kernel_launch_overhead
                + calib.peer_hop_latency * path.hops() as f64
                + ber_latency,
            vec![FlowSpec::new(segs, bytes as f64, calib.eff_kernel_xgmi)],
        )
    })
}

fn host_copy_efficiency(calib: &Calibration, host_kind: MemKind, rng: &mut Rng) -> f64 {
    match host_kind {
        MemKind::HostPageable => {
            (calib.eff_memcpy_pageable * rng.jitter(calib.pageable_jitter_rel)).min(0.99)
        }
        _ => calib.eff_memcpy_pinned,
    }
}

fn direction_of(
    topo: &NodeTopology,
    link: ifsim_topology::LinkId,
    from: NumaId,
) -> ifsim_fabric::Dir {
    if topo.link(link).a == ifsim_topology::PortId::Numa(from) {
        ifsim_fabric::Dir::Forward
    } else {
        ifsim_fabric::Dir::Backward
    }
}

fn validate_kind(kind: MemcpyKind, src: MemSpace, dst: MemSpace) -> HipResult<()> {
    let ok = match kind {
        MemcpyKind::Default => true,
        MemcpyKind::HostToDevice => src.is_ddr() && dst.is_hbm(),
        MemcpyKind::DeviceToHost => src.is_hbm() && dst.is_ddr(),
        MemcpyKind::DeviceToDevice => src.is_hbm() && dst.is_hbm(),
        MemcpyKind::HostToHost => src.is_ddr() && dst.is_ddr(),
    };
    if ok {
        Ok(())
    } else {
        Err(HipError::InvalidValue(format!(
            "memcpy kind {kind:?} does not match locations {src} -> {dst}"
        )))
    }
}
