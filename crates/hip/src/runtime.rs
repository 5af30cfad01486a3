//! The runtime: API surface + the event loop joining the streams' timed
//! wake-ups with the fluid fabric network.

use crate::device::{DeviceId, DeviceProps, DeviceTable};
use crate::env::EnvConfig;
use crate::error::{HipError, HipResult};
use crate::event::{EventId, EventTable};
use crate::fault::{FabricHealth, FaultStats, RetryPolicy};
use crate::kernel::KernelSpec;
use crate::op::{MemcpyKind, OpLabel};
use crate::plan::{plan_kernel, plan_memcpy, plan_prefetch, Effect, Mode, OpPlan, PlanCtx};
use crate::stream::{Launch, OpRequest, QueuedOp, RunningOp, StreamId, StreamState, Work};
use crate::trace::TraceKind;
use ifsim_des::{Dur, EventQueue, Rng, Time};
use ifsim_fabric::{Calibration, FaultEvent, FaultKind, FaultPlan, FlowId, FlowNet, SegmentMap};
use ifsim_memory::{BufferId, HostAllocFlags, MemKind, MemSpace, MemorySystem};
use ifsim_topology::{GcdId, LinkHealth, LinkId, LinkKind, NodeTopology, NumaId, PortId, Router};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A stream's timed wake-up in the runtime's queue.
#[derive(Clone, Copy, Debug)]
enum Wake {
    /// The launch latency of the stream's [`Launch`] elapsed: admit its
    /// flows.
    Launch(StreamId),
    /// A retry backoff elapsed: start the op re-queued at the stream's head.
    Retry(StreamId),
}

/// Marks a flow no stream owns in [`Inner::flow_owner`]: it is done.
const NO_OWNER: u32 = u32::MAX;

/// Internal state the event loop operates on.
pub struct Inner {
    /// The virtual host clock.
    now: Time,
    /// Pending stream wake-ups; equal times pop in push order.
    wakes: EventQueue<Wake>,
    topo: NodeTopology,
    /// The topology's shared healthy routes until a fault reroutes; a
    /// reroute replaces the handle and never mutates the router behind it.
    router: Arc<Router>,
    calib: Calibration,
    env: EnvConfig,
    devices: DeviceTable,
    mem: MemorySystem,
    net: FlowNet,
    /// Every stream, indexed by [`StreamId::idx`].
    streams: Vec<StreamState>,
    default_streams: Vec<StreamId>,
    events: EventTable,
    peer_enabled: BTreeSet<(GcdId, GcdId)>,
    /// The stream index owning each flow, indexed by `FlowId` (ids are
    /// dense per `FlowNet`); [`NO_OWNER`] once the flow is done.
    flow_owner: Vec<u32>,
    rng: Rng,
    current: DeviceId,
    trace: crate::trace::Trace,
    fabric_health: FabricHealth,
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    fault_stats: FaultStats,
    /// Whether the runtime captures itself for a telemetry collector.
    telemetry: bool,
    /// Whether this runtime already contributed its snapshot to a collector.
    telemetry_flushed: bool,
    /// Causal dependency-DAG capture (critical-path profiling). `None`
    /// unless requested; strictly observation-only either way.
    dag: Option<crate::dag::DagBuilder>,
    /// Test oracle: validate submissions with a full plan, discarded, as
    /// the runtime once did, instead of the check-only mode.
    #[cfg(test)]
    double_plan: bool,
    /// Plans built in full (test-only count).
    #[cfg(test)]
    plans_built: u64,
}

/// `hipMemAdvise` advice values the simulator models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemAdvise {
    /// Duplicate read-only pages into each reader's local memory; reads run
    /// at HBM speed everywhere until a write collapses the duplicates.
    SetReadMostly,
    /// Undo [`MemAdvise::SetReadMostly`].
    UnsetReadMostly,
    /// Change the allocation's preferred home (zero-copy target space).
    SetPreferredLocation(MemSpace),
}

/// The simulated HIP runtime. One instance models one process on the node.
pub struct HipSim {
    inner: Inner,
}

impl HipSim {
    /// Runtime over the Frontier-class node with default calibration.
    pub fn new(env: EnvConfig) -> Self {
        Self::with_seed(env, 0x1F5E_ED00)
    }

    /// As [`HipSim::new`], with an explicit jitter seed.
    pub fn with_seed(env: EnvConfig, seed: u64) -> Self {
        Self::with_config(NodeTopology::frontier(), Calibration::default(), env, seed)
    }

    /// Fully custom runtime (topology ablations, calibration variants).
    pub fn with_config(topo: NodeTopology, calib: Calibration, env: EnvConfig, seed: u64) -> Self {
        let router = Arc::clone(topo.routes());
        let devices = DeviceTable::new(&topo, &env).expect("valid device visibility");
        let segmap = SegmentMap::new(&topo);
        let net = FlowNet::new(segmap);
        let mut streams = Vec::new();
        let mut default_streams = Vec::new();
        for d in 0..devices.count() {
            let gcd = devices.gcd(DeviceId(d)).expect("visible device");
            default_streams.push(StreamId(streams.len() as u64));
            streams.push(StreamState::new(DeviceId(d), gcd));
        }
        let fabric_health = FabricHealth::healthy(&topo);
        let mut sim = HipSim {
            inner: Inner {
                now: Time::ZERO,
                wakes: EventQueue::new(),
                topo,
                router,
                calib,
                env,
                devices,
                mem: MemorySystem::new(),
                net,
                streams,
                default_streams,
                events: EventTable::default(),
                peer_enabled: BTreeSet::new(),
                flow_owner: Vec::new(),
                rng: Rng::new(seed),
                current: DeviceId(0),
                trace: crate::trace::Trace::default(),
                fabric_health,
                fault_plan: FaultPlan::new(),
                retry: RetryPolicy::default(),
                fault_stats: FaultStats::default(),
                telemetry: false,
                telemetry_flushed: false,
                dag: None,
                #[cfg(test)]
                double_plan: false,
                #[cfg(test)]
                plans_built: 0,
            },
        };
        // Capture's one switch: under an installed telemetry collector the
        // runtime observes itself without the call site having to know,
        // and `Drop` contributes the snapshot. The op trace and the
        // fabric's capture (flow log, bottleneck attribution, flight
        // recorder) record the run; a DAG-requesting collector also gets
        // the event loop's causal orderings (see `crate::dag`). Capture
        // never influences scheduling: runs are bitwise-identical with it
        // on or off.
        if ifsim_telemetry::collector::active() {
            let inner = &mut sim.inner;
            inner.telemetry = true;
            inner.trace.enable();
            inner.net.enable_capture();
            if ifsim_telemetry::collector::dag_requested() {
                inner.dag = Some(crate::dag::DagBuilder::new());
            }
        }
        sim
    }

    // ---------------- clocks & introspection ----------------

    /// The virtual host clock.
    pub fn now(&self) -> Time {
        self.inner.now
    }

    /// The node topology in use.
    pub fn topo(&self) -> &NodeTopology {
        &self.inner.topo
    }

    /// Precomputed routes.
    pub fn router(&self) -> &Router {
        &self.inner.router
    }

    /// Model constants.
    pub fn calib(&self) -> &Calibration {
        &self.inner.calib
    }

    /// Environment configuration.
    pub fn env(&self) -> &EnvConfig {
        &self.inner.env
    }

    /// Read access to the memory system (test assertions, data setup).
    pub fn mem(&self) -> &MemorySystem {
        &self.inner.mem
    }

    /// Mutable access to the memory system (host-side data initialization —
    /// the analogue of the CPU writing through a host pointer).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.inner.mem
    }

    // ---------------- device management ----------------

    /// `hipGetDeviceCount`.
    pub fn device_count(&self) -> usize {
        self.inner.devices.count()
    }

    /// `hipSetDevice`.
    pub fn set_device(&mut self, ordinal: usize) -> HipResult<()> {
        if ordinal >= self.inner.devices.count() {
            return Err(HipError::InvalidDevice(ordinal));
        }
        self.inner.current = DeviceId(ordinal);
        Ok(())
    }

    /// `hipGetDevice`.
    pub fn current_device(&self) -> usize {
        self.inner.current.idx()
    }

    /// `hipGetDeviceProperties`.
    pub fn device_props(&self, ordinal: usize) -> HipResult<DeviceProps> {
        self.inner
            .devices
            .props(&self.inner.topo, DeviceId(ordinal))
    }

    /// Physical GCD behind a logical device.
    pub fn gcd_of(&self, ordinal: usize) -> HipResult<GcdId> {
        self.inner.devices.gcd(DeviceId(ordinal))
    }

    /// `hipDeviceEnablePeerAccess`: grant the *current* device access to
    /// `peer`'s memory.
    pub fn enable_peer_access(&mut self, peer: usize) -> HipResult<()> {
        let me = self.inner.devices.gcd(self.inner.current)?;
        let other = self.inner.devices.gcd(DeviceId(peer))?;
        if me == other {
            return Err(HipError::InvalidValue(
                "peer access to the device itself".into(),
            ));
        }
        self.inner.peer_enabled.insert((me, other));
        Ok(())
    }

    /// Enable peer access in both directions between every visible device
    /// pair (what the p2p benchmarks do up front).
    pub fn enable_all_peer_access(&mut self) -> HipResult<()> {
        let n = self.device_count();
        let saved = self.current_device();
        for a in 0..n {
            self.set_device(a)?;
            for b in 0..n {
                if a != b {
                    self.enable_peer_access(b)?;
                }
            }
        }
        self.set_device(saved)
    }

    // ---------------- allocation ----------------

    /// `hipMalloc`: device memory on the current device.
    pub fn malloc(&mut self, bytes: u64) -> HipResult<BufferId> {
        let gcd = self.inner.devices.gcd(self.inner.current)?;
        Ok(self
            .inner
            .mem
            .allocate(MemKind::Device, MemSpace::Hbm(gcd), bytes)?)
    }

    /// `hipHostMalloc`: pinned host memory. Placement follows the runtime
    /// default — the NUMA domain closest to the current device (§IV-B).
    pub fn host_malloc(&mut self, bytes: u64, flags: HostAllocFlags) -> HipResult<BufferId> {
        let gcd = self.inner.devices.gcd(self.inner.current)?;
        let numa = self.inner.topo.numa_of(gcd);
        self.host_malloc_on_numa(bytes, flags, numa)
    }

    /// `hipHostMalloc` with explicit NUMA placement (the
    /// `hipHostMallocNumaUser` / `numa_alloc_onnode` + `hipHostRegister`
    /// path the paper describes).
    pub fn host_malloc_on_numa(
        &mut self,
        bytes: u64,
        flags: HostAllocFlags,
        numa: NumaId,
    ) -> HipResult<BufferId> {
        if numa.idx() >= self.inner.topo.numa_domains().count() {
            return Err(HipError::InvalidValue(format!(
                "no such NUMA domain {numa}"
            )));
        }
        Ok(self
            .inner
            .mem
            .allocate(MemKind::HostPinned(flags), MemSpace::Ddr(numa), bytes)?)
    }

    /// `malloc`: pageable host memory (first NUMA domain, as an untuned
    /// single-threaded process would get).
    pub fn malloc_pageable(&mut self, bytes: u64) -> HipResult<BufferId> {
        Ok(self
            .inner
            .mem
            .allocate(MemKind::HostPageable, MemSpace::Ddr(NumaId(0)), bytes)?)
    }

    /// `hipMallocManaged`: unified memory, initially CPU-resident in the
    /// current device's NUMA domain.
    pub fn malloc_managed(&mut self, bytes: u64) -> HipResult<BufferId> {
        let gcd = self.inner.devices.gcd(self.inner.current)?;
        let numa = self.inner.topo.numa_of(gcd);
        Ok(self
            .inner
            .mem
            .allocate(MemKind::Managed, MemSpace::Ddr(numa), bytes)?)
    }

    /// `hipHostRegister`: page-lock and GPU-map an existing pageable buffer.
    pub fn host_register(&mut self, buf: BufferId) -> HipResult<()> {
        let a = self.inner.mem.get_mut(buf)?;
        match a.kind {
            MemKind::HostPageable => {
                a.kind = MemKind::HostPinned(HostAllocFlags::coherent());
                Ok(())
            }
            _ => Err(HipError::InvalidValue(format!(
                "host_register on non-pageable {:?}",
                a.kind
            ))),
        }
    }

    /// `hipFree` / `hipHostFree`. Like `hipFree`'s implicit
    /// synchronization, it first runs the simulation until no queued or
    /// in-flight op reads or writes `buf`, so freeing a buffer an async op
    /// still uses waits for that op instead of pulling the bytes from under
    /// it. The wait leaves sticky errors for the next synchronize and adds
    /// no DAG barrier.
    pub fn free(&mut self, buf: BufferId) -> HipResult<()> {
        self.inner.mem.get(buf)?; // valid handle?
        self.run_until(|inner| !inner.streams.iter().any(|s| s.uses(buf)), None);
        Ok(self.inner.mem.free(buf)?)
    }

    // ---------------- streams & events ----------------

    /// The default (null) stream of a device.
    pub fn default_stream(&self, ordinal: usize) -> HipResult<StreamId> {
        self.inner
            .default_streams
            .get(ordinal)
            .copied()
            .ok_or(HipError::InvalidDevice(ordinal))
    }

    /// `hipStreamCreate` on the current device.
    pub fn stream_create(&mut self) -> HipResult<StreamId> {
        let dev = self.inner.current;
        let gcd = self.inner.devices.gcd(dev)?;
        let sid = StreamId(self.inner.streams.len() as u64);
        self.inner.streams.push(StreamState::new(dev, gcd));
        Ok(sid)
    }

    /// `hipEventCreate`.
    pub fn event_create(&mut self) -> EventId {
        self.inner.events.create()
    }

    /// `hipEventRecord`.
    pub fn event_record(&mut self, ev: EventId, stream: StreamId) -> HipResult<()> {
        self.check_stream(stream)?;
        self.inner.events.timestamp(ev)?; // valid handle?
        self.submit_request(
            stream,
            OpRequest::EventRecord,
            Some(ev),
            OpLabel::EventRecord,
        )
    }

    /// `hipEventSynchronize`.
    pub fn event_synchronize(&mut self, ev: EventId) -> HipResult<()> {
        self.event_wait(ev, None)
    }

    /// [`HipSim::event_synchronize`] with a bound on *virtual* wait time.
    /// If the event has not recorded within `timeout`, the host clock stops
    /// at the deadline, pending work keeps running, and
    /// [`HipError::Timeout`] is returned (call again to keep waiting).
    pub fn event_synchronize_timeout(&mut self, ev: EventId, timeout: Dur) -> HipResult<()> {
        self.event_wait(ev, Some(timeout))
    }

    fn event_wait(&mut self, ev: EventId, timeout: Option<Dur>) -> HipResult<()> {
        self.inner.events.timestamp(ev)?; // valid handle?
        let recorded = |inner: &Inner| matches!(inner.events.timestamp(ev), Ok(Some(_)));
        let deadline = timeout.map(|t| self.inner.now + t);
        let waited = self.run_until(
            |inner| {
                recorded(inner)
                    // A fault-failed stream drops its queued record markers;
                    // once everything is idle the event can no longer record,
                    // so stop and surface the failure instead of spinning on.
                    || (inner.streams.iter().any(|s| s.failed.is_some())
                        && inner.streams.iter().all(|s| s.idle()))
            },
            deadline,
        );
        if recorded(&self.inner) {
            return Ok(());
        }
        if let (false, Some(t)) = (waited, timeout) {
            return Err(timeout_error("event not recorded", t));
        }
        // Report the stream failure without clearing it: the stream-level
        // synchronize owns the clear, as in HIP.
        let e = self.inner.streams.iter().find_map(|s| s.failed.clone());
        Err(e.expect("escape condition implies a failed stream"))
    }

    /// `hipEventElapsedTime`, in milliseconds.
    pub fn event_elapsed_ms(&self, start: EventId, stop: EventId) -> HipResult<f64> {
        self.inner.events.elapsed_ms(start, stop)
    }

    /// `hipStreamSynchronize`. A stream that failed under a fabric fault
    /// (retries exhausted) reports — and clears — its sticky error here,
    /// mirroring how HIP surfaces asynchronous failures.
    pub fn stream_synchronize(&mut self, stream: StreamId) -> HipResult<()> {
        self.stream_wait(stream, None)
    }

    /// [`HipSim::stream_synchronize`] with a bound on *virtual* wait time.
    /// On expiry the host clock stops at the deadline, the stream's work
    /// keeps running, and [`HipError::Timeout`] is returned — the bounded
    /// wait a fault-tolerant caller needs over a flaky fabric.
    pub fn stream_synchronize_timeout(&mut self, stream: StreamId, timeout: Dur) -> HipResult<()> {
        self.stream_wait(stream, Some(timeout))
    }

    fn stream_wait(&mut self, stream: StreamId, timeout: Option<Dur>) -> HipResult<()> {
        self.check_stream(stream)?;
        let deadline = timeout.map(|t| self.inner.now + t);
        let waited = self.run_until(|inner| inner.streams[stream.idx()].idle(), deadline);
        if let (false, Some(t)) = (waited, timeout) {
            return Err(timeout_error(&format!("{stream:?} still busy"), t));
        }
        self.take_errors(|sid, _| sid == stream)
    }

    /// `hipDeviceSynchronize` (current device). Surfaces the first sticky
    /// fault error among the device's streams, clearing all of them.
    pub fn device_synchronize(&mut self) -> HipResult<()> {
        let dev = self.inner.current;
        self.run_until(
            |inner| {
                inner
                    .streams
                    .iter()
                    .filter(|s| s.dev == dev)
                    .all(|s| s.idle())
            },
            None,
        );
        self.take_errors(|_, s| s.dev == dev)
    }

    /// Synchronize every stream of every device. Surfaces the first sticky
    /// fault error across the node, clearing all of them.
    pub fn synchronize_all(&mut self) -> HipResult<()> {
        self.run_until(|inner| inner.streams.iter().all(|s| s.idle()), None);
        // A full host barrier: everything submitted after this point
        // causally depends on everything that just drained (this is how
        // collective round boundaries enter the dependency DAG).
        if let Some(dag) = self.inner.dag.as_mut() {
            dag.host_barrier();
        }
        self.take_errors(|_, _| true)
    }

    /// Clear the sticky errors of the streams `pick` selects and report the
    /// first of them.
    fn take_errors(&mut self, pick: impl Fn(StreamId, &StreamState) -> bool) -> HipResult<()> {
        let mut first = None;
        for (i, s) in self.inner.streams.iter_mut().enumerate() {
            if pick(StreamId(i as u64), s) {
                if let Some(e) = s.failed.take() {
                    first.get_or_insert(e);
                }
            }
        }
        first.map_or(Ok(()), Err)
    }

    // ---------------- data movement ----------------

    /// Blocking `hipMemcpy`.
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy(
        &mut self,
        dst: BufferId,
        dst_off: u64,
        src: BufferId,
        src_off: u64,
        bytes: u64,
        kind: MemcpyKind,
    ) -> HipResult<()> {
        let stream = self.default_stream(self.current_device())?;
        self.memcpy_async(dst, dst_off, src, src_off, bytes, kind, stream)?;
        self.stream_synchronize(stream)
    }

    /// `hipMemcpyAsync`.
    #[allow(clippy::too_many_arguments)]
    pub fn memcpy_async(
        &mut self,
        dst: BufferId,
        dst_off: u64,
        src: BufferId,
        src_off: u64,
        bytes: u64,
        kind: MemcpyKind,
        stream: StreamId,
    ) -> HipResult<()> {
        self.check_stream(stream)?;
        self.submit_request(
            stream,
            OpRequest::Memcpy {
                dst,
                dst_off,
                src,
                src_off,
                bytes,
                kind,
            },
            None,
            OpLabel::Memcpy { bytes },
        )
    }

    /// Blocking `hipMemcpyPeer`.
    pub fn memcpy_peer(
        &mut self,
        dst: BufferId,
        dst_dev: usize,
        src: BufferId,
        src_dev: usize,
        bytes: u64,
    ) -> HipResult<()> {
        let stream = self.default_stream(self.current_device())?;
        self.memcpy_peer_async(dst, dst_dev, src, src_dev, bytes, stream)?;
        self.stream_synchronize(stream)
    }

    /// `hipMemcpyPeerAsync`.
    pub fn memcpy_peer_async(
        &mut self,
        dst: BufferId,
        dst_dev: usize,
        src: BufferId,
        src_dev: usize,
        bytes: u64,
        stream: StreamId,
    ) -> HipResult<()> {
        self.check_stream(stream)?;
        // Validate device/buffer agreement, as the HIP entry point does.
        let src_gcd = self.gcd_of(src_dev)?;
        let dst_gcd = self.gcd_of(dst_dev)?;
        let (src_home, dst_home) = {
            let m = &self.inner.mem;
            (m.get(src)?.home, m.get(dst)?.home)
        };
        if src_home != MemSpace::Hbm(src_gcd) || dst_home != MemSpace::Hbm(dst_gcd) {
            return Err(HipError::InvalidValue(format!(
                "memcpy_peer device/buffer mismatch: {src_home} vs {src_gcd}, {dst_home} vs {dst_gcd}"
            )));
        }
        self.submit_request(
            stream,
            OpRequest::Memcpy {
                dst,
                dst_off: 0,
                src,
                src_off: 0,
                bytes,
                kind: MemcpyKind::DeviceToDevice,
            },
            None,
            OpLabel::MemcpyPeer { bytes },
        )
    }

    /// Blocking `hipMemset`: fill `len` bytes of a buffer with `value`.
    pub fn memset(&mut self, dst: BufferId, offset: u64, value: u8, len: u64) -> HipResult<()> {
        let stream = self.default_stream(self.current_device())?;
        self.memset_async(dst, offset, value, len, stream)?;
        self.stream_synchronize(stream)
    }

    /// `hipMemsetAsync`.
    pub fn memset_async(
        &mut self,
        dst: BufferId,
        offset: u64,
        value: u8,
        len: u64,
        stream: StreamId,
    ) -> HipResult<()> {
        self.check_stream(stream)?;
        self.submit_request(
            stream,
            OpRequest::Memset {
                dst,
                offset,
                value,
                len,
            },
            None,
            OpLabel::Memset { len },
        )
    }

    /// `hipStreamWaitEvent`: all later work on `stream` waits until `event`
    /// records (possibly on another stream/device) — the cross-stream
    /// dependency primitive overlap patterns are built from.
    pub fn stream_wait_event(&mut self, stream: StreamId, event: EventId) -> HipResult<()> {
        self.check_stream(stream)?;
        self.inner.events.timestamp(event)?; // valid handle?
        self.submit_request(
            stream,
            OpRequest::WaitEvent(event),
            None,
            OpLabel::WaitEvent,
        )
    }

    /// `hipDeviceCanAccessPeer`: whether `dev` can map `peer`'s memory. On
    /// this node every GCD pair is xGMI-reachable, so this is true for any
    /// two distinct visible devices.
    pub fn device_can_access_peer(&self, dev: usize, peer: usize) -> HipResult<bool> {
        let a = self.inner.devices.gcd(DeviceId(dev))?;
        let b = self.inner.devices.gcd(DeviceId(peer))?;
        Ok(a != b)
    }

    /// Launch a kernel on the current device's null stream (blocking
    /// semantics are obtained with an explicit synchronize, as in HIP).
    pub fn launch_kernel(&mut self, spec: KernelSpec) -> HipResult<()> {
        let stream = self.default_stream(self.current_device())?;
        self.launch_kernel_on(spec, stream)
    }

    /// Launch a kernel on a specific stream.
    pub fn launch_kernel_on(&mut self, spec: KernelSpec, stream: StreamId) -> HipResult<()> {
        self.check_stream(stream)?;
        let label = OpLabel::Kernel { name: spec.name() };
        self.submit_request(stream, OpRequest::Kernel(spec), None, label)
    }

    /// Advance the host clock without doing anything (think `usleep` in a
    /// benchmark loop).
    pub fn host_sleep(&mut self, d: Dur) {
        self.run_until(|_| false, Some(self.inner.now + d));
    }

    /// `hipMemGetInfo`: `(free, total)` bytes of a device's HBM.
    pub fn mem_get_info(&self, ordinal: usize) -> HipResult<(u64, u64)> {
        let gcd = self.inner.devices.gcd(DeviceId(ordinal))?;
        let space = MemSpace::Hbm(gcd);
        let total = space.capacity();
        Ok((total - self.inner.mem.used(space), total))
    }

    /// `hipMemPrefetchAsync`: proactively migrate a managed buffer to a
    /// device's HBM (`Some(ordinal)`) or back to host DDR (`None`), on the
    /// given stream. Unlike XNACK first-touch, no per-page fault cost.
    pub fn mem_prefetch_async(
        &mut self,
        buf: BufferId,
        target: Option<usize>,
        stream: StreamId,
    ) -> HipResult<()> {
        self.check_stream(stream)?;
        let target_space = match target {
            Some(ordinal) => MemSpace::Hbm(self.inner.devices.gcd(DeviceId(ordinal))?),
            None => {
                // Back to the allocation's host domain (or the current
                // device's domain if it was created device-side).
                let alloc = self.inner.mem.get(buf)?;
                match alloc.home {
                    MemSpace::Ddr(n) => MemSpace::Ddr(n),
                    MemSpace::Hbm(_) => {
                        let gcd = self.inner.devices.gcd(self.inner.current)?;
                        MemSpace::Ddr(self.inner.topo.numa_of(gcd))
                    }
                }
            }
        };
        let label = OpLabel::Prefetch {
            target: target_space,
        };
        self.submit_request(
            stream,
            OpRequest::Prefetch {
                buf,
                target: target_space,
            },
            None,
            label,
        )
    }

    /// `hipMemAdvise`-style advice for managed memory.
    pub fn mem_advise(&mut self, buf: BufferId, advice: MemAdvise) -> HipResult<()> {
        let a = self.inner.mem.get_mut(buf)?;
        if a.kind != MemKind::Managed {
            return Err(HipError::InvalidValue(format!(
                "mem_advise on non-managed {:?} memory",
                a.kind
            )));
        }
        match advice {
            MemAdvise::SetReadMostly => a.read_mostly = true,
            MemAdvise::UnsetReadMostly => a.read_mostly = false,
            MemAdvise::SetPreferredLocation(space) => a.home = space,
        }
        Ok(())
    }

    // ---------------- tracing ----------------

    /// Start recording the op timeline.
    pub fn trace_enable(&mut self) {
        self.inner.trace.enable();
    }

    /// The recorded timeline.
    pub fn trace(&self) -> &crate::trace::Trace {
        &self.inner.trace
    }

    /// Read access to the fluid fabric network (segment utilization
    /// counters, active flows) for observability tooling.
    pub fn fabric(&self) -> &FlowNet {
        &self.inner.net
    }

    // ---------------- unified telemetry ----------------

    /// Whether the runtime captures itself (it was constructed under an
    /// installed telemetry collector).
    pub fn telemetry_enabled(&self) -> bool {
        self.inner.telemetry
    }

    /// Contribute this runtime's telemetry snapshot to the collector stack
    /// (no-op without one), at most once per runtime: the merged hip-op /
    /// fault / fabric-flow timeline, the flight recorder's
    /// link-utilization counter tracks, the metrics registry (op
    /// durations, per-link byte counters, bottleneck attribution, fault
    /// statistics) and the dependency DAG when captured. Called
    /// automatically on drop; call it earlier to snapshot before further
    /// work.
    pub fn flush_telemetry(&mut self) {
        if self.inner.telemetry_flushed || !self.inner.telemetry {
            return;
        }
        self.inner.telemetry_flushed = true;
        let dag = self.inner.dag.take();
        let inner = &self.inner;
        let snap =
            crate::telemetry::capture(inner.trace.events(), &inner.net, &inner.fault_stats, dag);
        ifsim_telemetry::collector::contribute(snap);
    }

    /// This runtime's snapshot from the bridge and from its test-only
    /// `String` oracle, over the same records. The runtime contributes
    /// nothing afterwards.
    #[cfg(test)]
    pub(crate) fn snapshot_and_oracle(
        &mut self,
    ) -> (ifsim_telemetry::SimTelemetry, ifsim_telemetry::SimTelemetry) {
        self.inner.telemetry_flushed = true;
        let dag = self.inner.dag.take();
        let inner = &self.inner;
        let (trace, net, faults) = (inner.trace.events(), &inner.net, &inner.fault_stats);
        (
            crate::telemetry::capture(trace, net, faults, dag.clone()),
            crate::telemetry::oracle::capture(trace, net, faults, dag),
        )
    }

    /// Fault injection: derate the xGMI link between two GCDs to `factor`
    /// of its healthy capacity, as when a link retrains at reduced speed.
    /// The derate is an absolute impairment kept in [`FabricHealth`]: it
    /// composes multiplicatively with the fault plan's lane loss and
    /// bit-error tax (derate 0.5 then one of four lanes lost leaves
    /// 0.375×), a later derate of the same link replaces it, a
    /// [`FaultKind::LinkRestore`] clears it, and flows already in flight
    /// re-share at the new capacity. Returns `InvalidValue` if `factor` is
    /// outside (0, 1] (NaN included) or the GCDs are not directly linked.
    pub fn derate_xgmi_link(&mut self, a: GcdId, b: GcdId, factor: f64) -> HipResult<()> {
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(HipError::InvalidValue(format!(
                "derate factor {factor} outside (0, 1]"
            )));
        }
        let link = self
            .inner
            .topo
            .link_between(PortId::Gcd(a), PortId::Gcd(b))
            .ok_or_else(|| {
                HipError::InvalidValue(format!("{a} and {b} are not directly linked"))
            })?;
        // The fabric clock lags the host clock between flow events; bring it
        // up first so in-flight bytes accrue at the old rate until now.
        self.inner.net.advance_to(self.inner.now);
        self.inner.fabric_health.derate.insert(link, factor);
        self.inner.refresh_link(link);
        Ok(())
    }

    // ---------------- fault injection ----------------

    /// Install a schedule of fabric faults, replacing any pending plan.
    /// Events fire at their virtual times as the event loop pumps; an empty
    /// plan leaves the simulation byte-identical to one without fault
    /// machinery. Rejects events whose endpoints are not directly linked
    /// (or whose GCDs do not exist) with [`HipError::InvalidValue`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> HipResult<()> {
        let n_gcds = self.inner.topo.gcds().count();
        for ev in plan.events() {
            if let Some((a, b)) = ev.kind.endpoints() {
                if self
                    .inner
                    .topo
                    .link_between(PortId::Gcd(a), PortId::Gcd(b))
                    .is_none()
                {
                    return Err(HipError::InvalidValue(format!(
                        "fault plan targets {a}<->{b}, which are not directly linked"
                    )));
                }
            }
            if let FaultKind::SdmaFail { gcd } | FaultKind::SdmaRestore { gcd } = ev.kind {
                if gcd.idx() >= n_gcds {
                    return Err(HipError::InvalidValue(format!(
                        "fault plan targets nonexistent {gcd}"
                    )));
                }
            }
        }
        self.inner.fault_plan = plan;
        Ok(())
    }

    /// Retry policy applied when a fabric fault aborts an in-flight op.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.inner.retry = policy;
    }

    /// Cumulative fault/recovery counters for this simulation.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.inner.fault_stats
    }

    /// Current fabric condition as derived from the faults applied so far.
    pub fn fabric_health(&self) -> &FabricHealth {
        &self.inner.fabric_health
    }

    /// Scheduled fault events not yet applied.
    pub fn pending_faults(&self) -> usize {
        self.inner.fault_plan.len()
    }

    /// Peek a stream's sticky fault error without clearing it.
    pub fn stream_error(&self, stream: StreamId) -> Option<&HipError> {
        self.inner
            .streams
            .get(stream.idx())
            .and_then(|s| s.failed.as_ref())
    }

    // ---------------- library layering ----------------

    /// A planning context over the runtime's current state. Communication
    /// libraries (`ifsim-coll`) use this to build custom traffic plans with
    /// their own protocol mechanics, then submit via [`HipSim::submit_plans`].
    pub fn plan_ctx(&self) -> PlanCtx<'_> {
        PlanCtx {
            topo: &self.inner.topo,
            router: &self.inner.router,
            calib: &self.inner.calib,
            env: &self.inner.env,
            segmap: self.inner.net.segmap(),
            mem: &self.inner.mem,
            peer_enabled: &self.inner.peer_enabled,
            fabric_health: &self.inner.fabric_health,
            mode: Mode::Build,
        }
    }

    /// Submit custom [`OpPlan`]s — e.g. every transfer of a collective
    /// round — in one call. The plans' flows and effects must reference
    /// valid segments and buffers; effects are applied at completion exactly
    /// like built-in ops. Entries are enqueued in order and their streams
    /// started afterwards, so the fabric coalesces all same-timestamp flow
    /// admissions into a single fair-share recompute.
    ///
    /// Unlike user-facing submissions this does **not** advance the host
    /// clock: a communication library issues many internal transfers per
    /// user call and accounts its own software overheads in the plans'
    /// latencies.
    ///
    /// On an invalid stream the batch stops there: earlier entries stay
    /// submitted and their streams are still started before the error
    /// returns.
    pub fn submit_plans<L: Into<OpLabel>>(
        &mut self,
        plans: impl IntoIterator<Item = (StreamId, OpPlan, L)>,
    ) -> HipResult<()> {
        let mut started: Vec<StreamId> = Vec::new();
        let mut result = Ok(());
        for (stream, plan, label) in plans {
            if let Err(e) = self.check_stream(stream) {
                result = Err(e);
                break;
            }
            let st = &mut self.inner.streams[stream.idx()];
            st.queue.push_back(QueuedOp {
                work: Work::Planned(plan),
                event: None,
                label: label.into(),
                attempts: 0,
            });
            if !started.contains(&stream) {
                started.push(stream);
            }
        }
        for stream in started {
            self.inner.start_next(stream);
        }
        result
    }

    /// The logical device ordinal of a physical GCD, if visible.
    pub fn device_of_gcd(&self, gcd: GcdId) -> Option<usize> {
        self.inner.devices.device_of(gcd).map(|d| d.idx())
    }

    /// Whether every stream on every device is idle.
    pub fn all_idle(&self) -> bool {
        self.inner.streams.iter().all(|s| s.idle())
    }

    // ---------------- event loop ----------------

    fn check_stream(&self, stream: StreamId) -> HipResult<()> {
        if stream.idx() < self.inner.streams.len() {
            Ok(())
        } else {
            Err(HipError::InvalidHandle(format!("{stream:?}")))
        }
    }

    /// Validate a request against current state, then queue it for
    /// planning at execution time.
    fn submit_request(
        &mut self,
        sid: StreamId,
        req: OpRequest,
        event: Option<EventId>,
        label: OpLabel,
    ) -> HipResult<()> {
        let gcd = self.inner.streams[sid.idx()].gcd;
        // Synchronous argument validation, as the HIP entry points do: the
        // check-only plan makes the checks and jitter draws of a full one.
        self.inner.build_plan(gcd, &req, self.inner.submit_mode())?;
        self.host_sleep(self.inner.calib.host_api_overhead);
        let st = &mut self.inner.streams[sid.idx()];
        st.queue.push_back(QueuedOp {
            work: Work::Request(req),
            event,
            label,
            attempts: 0,
        });
        self.inner.start_next(sid);
        Ok(())
    }

    /// The event loop, and the only place the runtime drives the stream
    /// wake-ups, the fabric's flow completions and the fault schedule.
    /// Processes happenings in time order until `done` holds (checked
    /// before each) and reports whether it did. At equal times a scheduled
    /// fault applies first, so simultaneous op starts and completions
    /// already see the degraded fabric; then a wake-up (in the order they
    /// were scheduled); then a flow completion. With a
    /// `deadline` the loop stops before any later happening and moves the
    /// clocks to the deadline; without one, running out of happenings
    /// before `done` holds is a deadlock.
    fn run_until(&mut self, done: impl Fn(&Inner) -> bool, deadline: Option<Time>) -> bool {
        loop {
            if done(&self.inner) {
                return true;
            }
            let fault = self.inner.fault_plan.peek_time();
            let wake = self.inner.wakes.peek_time();
            let flow = self.inner.net.peek_completion().map(|(t, _)| t);
            let next = [fault, wake, flow].into_iter().flatten().reduce(Time::min);
            let Some(next) = next.filter(|&t| deadline.is_none_or(|d| t <= d)) else {
                let Some(d) = deadline else {
                    panic!(
                        "simulation deadlock: waiting on a condition with no pending events \
                         (a stream is waiting for work that was never submitted)"
                    );
                };
                self.inner.advance_to(d);
                self.inner.net.advance_to(d);
                return false;
            };
            if fault == Some(next) {
                let ev = self.inner.fault_plan.pop_next().expect("peeked fault");
                let t = ev.at.max(self.inner.now);
                self.inner.advance_to(t);
                self.inner.net.advance_to(t);
                self.inner.apply_fault(ev);
            } else if wake == Some(next) {
                let (t, woken) = self.inner.wakes.pop().expect("peeked wake");
                self.inner.advance_to(t);
                match woken {
                    Wake::Launch(sid) => self.inner.launch(sid),
                    Wake::Retry(sid) => {
                        self.inner.streams[sid.idx()].starting = false;
                        self.inner.start_next(sid);
                    }
                }
            } else {
                let (t, fid) = self.inner.net.complete_next().expect("peeked flow");
                self.inner.advance_to(t);
                self.inner.on_flow_done(fid);
            }
        }
    }
}

/// The error a bounded wait on `what` returns when its `timeout` expires.
fn timeout_error(what: &str, timeout: Dur) -> HipError {
    HipError::Timeout(format!("{what} after {:.3} ms", timeout.as_ms()))
}

impl Inner {
    /// Move the host clock to `t`: never backwards, never past a wake-up.
    fn advance_to(&mut self, t: Time) {
        assert!(
            t >= self.now,
            "clock moved backwards: to={t} now={}",
            self.now
        );
        assert!(
            self.wakes.peek_time().is_none_or(|w| t <= w),
            "advance_to({t}) would skip a wake-up"
        );
        self.now = t;
    }

    /// The plan mode of submit-time validation: check-only, or under the
    /// test oracle a full plan that is then discarded.
    fn submit_mode(&self) -> Mode {
        #[cfg(test)]
        if self.double_plan {
            return Mode::Build;
        }
        Mode::Check
    }

    /// Record that `sid` owns flow `fid` until it completes or aborts.
    fn own_flow(&mut self, fid: FlowId, sid: StreamId) {
        let i = usize::try_from(fid.0).expect("flow id fits the owner table");
        if i >= self.flow_owner.len() {
            self.flow_owner.resize(i + 1, NO_OWNER);
        }
        self.flow_owner[i] = u32::try_from(sid.0)
            .ok()
            .filter(|&s| s != NO_OWNER)
            .expect("stream index below the owner sentinel");
    }

    /// The stream owning an active flow.
    fn owner(&self, fid: FlowId) -> Option<StreamId> {
        let i = usize::try_from(fid.0).ok()?;
        let sid = *self.flow_owner.get(i)?;
        (sid != NO_OWNER).then_some(StreamId(u64::from(sid)))
    }

    /// End a flow's ownership, returning its former owner.
    fn disown_flow(&mut self, fid: FlowId) -> Option<StreamId> {
        let sid = self.owner(fid)?;
        self.flow_owner[fid.0 as usize] = NO_OWNER;
        Some(sid)
    }

    /// Plan a request against the *current* memory/residency state; a
    /// check-only plan carries the latency and nothing else.
    fn build_plan(&mut self, gcd: GcdId, req: &OpRequest, mode: Mode) -> HipResult<OpPlan> {
        #[cfg(test)]
        if mode == Mode::Build {
            self.plans_built += 1;
        }
        let ctx = PlanCtx {
            topo: &self.topo,
            router: &self.router,
            calib: &self.calib,
            env: &self.env,
            segmap: self.net.segmap(),
            mem: &self.mem,
            peer_enabled: &self.peer_enabled,
            fabric_health: &self.fabric_health,
            mode,
        };
        match req {
            OpRequest::Memcpy {
                dst,
                dst_off,
                src,
                src_off,
                bytes,
                kind,
            } => plan_memcpy(
                &ctx,
                *dst,
                *dst_off,
                *src,
                *src_off,
                *bytes,
                *kind,
                &mut self.rng,
            ),
            OpRequest::Kernel(spec) => plan_kernel(&ctx, gcd, spec, &mut self.rng),
            OpRequest::Prefetch { buf, target } => plan_prefetch(&ctx, *buf, *target),
            OpRequest::Memset {
                dst,
                offset,
                value,
                len,
            } => crate::plan::plan_memset(&ctx, *dst, *offset, *value, *len),
            OpRequest::EventRecord | OpRequest::WaitEvent(_) => Ok(OpPlan {
                latency: Dur::from_ns(200.0),
                flows: vec![],
                effects: vec![],
            }),
        }
    }

    /// Pop and begin the next queued op on a stream, if the stream is free.
    fn start_next(&mut self, sid: StreamId) {
        let st = &mut self.streams[sid.idx()];
        if st.running.is_some() || st.starting {
            return;
        }
        if st.parked_on.is_some() {
            return;
        }
        let gcd = st.gcd;
        let Some(op) = st.queue.pop_front() else {
            return;
        };
        // `hipStreamWaitEvent`: if the event has not recorded yet, park the
        // stream; recording the event wakes it (see `finish_op`).
        if let Work::Request(OpRequest::WaitEvent(ev)) = &op.work {
            match self.events.timestamp(*ev) {
                Ok(Some(_)) => {
                    // Already recorded: the wait is a no-op; move on. The
                    // DAG still notes the dependency for the next real op.
                    if let Some(dag) = self.dag.as_mut() {
                        dag.wait_satisfied(sid, ev.0);
                    }
                    self.start_next(sid);
                    return;
                }
                Ok(None) => {
                    self.streams[sid.idx()].parked_on = Some(*ev);
                    return;
                }
                Err(e) => panic!("wait on invalid event: {e}"),
            }
        }
        let attempts = op.attempts;
        let (plan, request) = match op.work {
            Work::Planned(p) => (p, None),
            // Arguments were validated at submission, so an execution-time
            // planning failure means state changed underneath the queue —
            // above all a fault that degraded the fabric.
            Work::Request(req) => match self.build_plan(gcd, &req, Mode::Build) {
                Ok(p) => (p, Some(req)),
                Err(e) => {
                    let run = RunningOp {
                        pending_flows: 0,
                        effects: Vec::new(),
                        event: op.event,
                        started: self.now,
                        label: op.label,
                        request: Some(req),
                        attempts,
                    };
                    self.retry_or_fail(sid, run, e, None);
                    return;
                }
            },
        };
        let OpPlan {
            latency,
            flows,
            effects,
        } = plan;
        let run = RunningOp {
            pending_flows: flows.len(),
            effects,
            event: op.event,
            started: self.now,
            label: op.label,
            request,
            attempts,
        };
        let st = &mut self.streams[sid.idx()];
        st.starting = true;
        st.launch = Some(Launch { run, flows });
        self.wakes.push(self.now + latency, Wake::Launch(sid));
    }

    /// A stream's launch latency elapsed: its op starts running and its
    /// flows enter the fabric.
    fn launch(&mut self, sid: StreamId) {
        let st = &mut self.streams[sid.idx()];
        st.starting = false;
        let Launch { run, flows } = st.launch.take().expect("launch wake has a launching op");
        // A fault may have struck while the launch latency elapsed:
        // flows planned over a now-dead segment divert to the retry
        // path instead of driving traffic into a downed link.
        let dead = flows
            .iter()
            .any(|f| f.segs.iter().any(|&s| self.net.segmap().capacity(s) <= 0.0));
        if dead {
            let err = HipError::LinkDown(format!(
                "op '{}' planned over a link that failed before it started",
                run.label
            ));
            self.retry_or_fail(sid, run, err, None);
            return;
        }
        let started = run.started;
        let run = self.streams[sid.idx()].running.insert(run);
        if flows.is_empty() {
            self.finish_op(sid);
        } else {
            // Batched admission: the whole op's flows (and any other
            // same-timestamp admissions) share one deferred fair-share
            // recompute instead of paying one per flow.
            let now = self.now;
            let fids = self.net.add_flows(now, flows);
            if let Some(dag) = self.dag.as_mut() {
                dag.op_flows_admitted(sid, started, now, &run.label, &fids);
            }
            for fid in fids {
                self.own_flow(fid, sid);
            }
        }
    }

    /// A fabric flow completed; credit it to its op.
    fn on_flow_done(&mut self, fid: FlowId) {
        let sid = self.disown_flow(fid).expect("completed flow has an owner");
        let st = &mut self.streams[sid.idx()];
        let run = st.running.as_mut().expect("op in flight");
        run.pending_flows -= 1;
        if run.pending_flows == 0 {
            self.finish_op(sid);
        }
    }

    /// Apply effects, stamp events, and move the stream along.
    fn finish_op(&mut self, sid: StreamId) {
        let st = &mut self.streams[sid.idx()];
        let dev = st.dev;
        let run = st.running.take().expect("op in flight");
        for e in run.effects {
            self.apply_effect(e);
        }
        let recorded_event = run.event;
        if let Some(ev) = recorded_event {
            self.events
                .record(ev, self.now)
                .expect("event created by this runtime");
        }
        let end = self.now;
        if let Some(dag) = self.dag.as_mut() {
            dag.op_finished(
                sid,
                run.started,
                end,
                &run.label,
                recorded_event.map(|e| e.0),
            );
        }
        self.trace.record_with(|| crate::trace::TraceEvent {
            dev,
            stream: sid,
            start: run.started,
            end,
            kind: TraceKind::Done(run.label),
        });
        self.start_next(sid);
        // Wake any streams parked on the event that just recorded.
        if let Some(ev) = recorded_event {
            let waiters: Vec<StreamId> = self
                .streams
                .iter()
                .enumerate()
                .filter(|(_, s)| s.parked_on == Some(ev))
                .map(|(i, _)| StreamId(i as u64))
                .collect();
            for w in waiters {
                self.streams[w.idx()].parked_on = None;
                if let Some(dag) = self.dag.as_mut() {
                    dag.wait_satisfied(w, ev.0);
                }
                self.start_next(w);
            }
        }
    }

    // ---------------- fault application & recovery ----------------

    /// Set a live link's capacity to its [`FabricHealth::link_factor`] —
    /// every impairment at once, relative to healthy capacity. A downed
    /// link keeps its zero capacity until restored.
    fn refresh_link(&mut self, link: LinkId) {
        if !self.fabric_health.health().is_down(link) {
            let f = self.fabric_health.link_factor(&self.topo, link);
            self.net.set_link_factor(link, f);
        }
    }

    /// Recompute all routes against the current per-link health: the
    /// mid-flight reroute. Downed links disappear from the graph; degraded
    /// links lose bandwidth-ordering priority. A fully restored fabric goes
    /// back to the topology's shared healthy routes.
    fn rebuild_router(&mut self) {
        let health = self.fabric_health.health();
        self.router = if health.all_healthy() {
            Arc::clone(self.topo.routes())
        } else {
            Arc::new(Router::new_with_health(&self.topo, health))
        };
    }

    /// Apply one scheduled fault: update health state, re-derive link
    /// capacities, rebuild routes, and abort/retry the ops it hit.
    fn apply_fault(&mut self, ev: FaultEvent) {
        self.fault_stats.faults_applied += 1;
        let kind = ev.kind;
        let link = kind.endpoints().map(|(a, b)| {
            self.topo
                .link_between(PortId::Gcd(a), PortId::Gcd(b))
                .expect("fault plan validated against the topology")
        });
        // Mark the fault on the timeline as a zero-length event (lane of
        // device 0's null stream; the '!' glyph makes it stand out in the
        // Gantt rendering).
        let stream0 = self.default_streams[0];
        let now = self.now;
        self.trace.record_with(|| crate::trace::TraceEvent {
            dev: DeviceId(0),
            stream: stream0,
            start: now,
            end: now,
            kind: TraceKind::Fault(kind),
        });
        match kind {
            FaultKind::LaneLoss { lanes, .. } => {
                let link = link.expect("lane loss targets a link");
                let total = match self.topo.link(link).kind {
                    LinkKind::Xgmi(w) => w.lanes(),
                    _ => 1,
                };
                let current = match self.fabric_health.health().get(link) {
                    LinkHealth::Healthy => total,
                    LinkHealth::Degraded { lanes } => lanes,
                    LinkHealth::Down => 0,
                };
                let left = current.saturating_sub(lanes);
                if left == 0 {
                    self.take_link_down(link, &kind);
                } else {
                    self.fabric_health
                        .health
                        .set(link, LinkHealth::Degraded { lanes: left });
                    self.refresh_link(link);
                    self.rebuild_router();
                }
            }
            FaultKind::LinkDown { .. } => {
                let link = link.expect("link-down targets a link");
                self.take_link_down(link, &kind);
            }
            FaultKind::LinkRestore { .. } => {
                let link = link.expect("restore targets a link");
                self.fabric_health.restore(link);
                self.refresh_link(link);
                self.rebuild_router();
            }
            FaultKind::SdmaFail { gcd } => {
                // Planning-time state only: copies from `gcd` fall back to
                // the blit-kernel path from the next op on. In-flight SDMA
                // transfers are left to drain (their descriptors were
                // already issued).
                self.fabric_health.sdma_failed.insert(gcd);
            }
            FaultKind::SdmaRestore { gcd } => {
                self.fabric_health.sdma_failed.remove(&gcd);
            }
            FaultKind::BitErrorRate {
                tax, added_latency, ..
            } => {
                let link = link.expect("bit-error fault targets a link");
                self.fabric_health.ber_tax.insert(link, tax);
                self.fabric_health.ber_latency.insert(link, added_latency);
                // The retransmission tax shrinks wire capacity; routes are
                // unchanged (the router orders by lane-level bandwidth).
                self.refresh_link(link);
            }
            FaultKind::EccBurst { .. } => {
                let link = link.expect("ECC burst targets a link");
                let segs = self.net.segmap().link_segments(link);
                let aborted = self.net.abort_flows_using(&segs);
                self.recover_aborted(link, &kind, aborted, HipError::EccUncorrectable);
            }
        }
    }

    /// Transition a link to [`LinkHealth::Down`]: zero its capacity, abort
    /// the flows crossing it, reroute, and recover the hit ops.
    fn take_link_down(&mut self, link: LinkId, kind: &FaultKind) {
        self.fabric_health.health.set(link, LinkHealth::Down);
        let aborted = self.net.fail_link(link);
        self.rebuild_router();
        self.recover_aborted(link, kind, aborted, HipError::LinkDown);
    }

    /// Route fault-aborted flows back to their owning ops: tear down each
    /// op's surviving sibling flows, then retry or fail the op.
    fn recover_aborted(
        &mut self,
        link: LinkId,
        kind: &FaultKind,
        aborted: Vec<(FlowId, f64)>,
        cause: fn(String) -> HipError,
    ) {
        if aborted.is_empty() {
            return;
        }
        let err = cause(format!("transfer aborted mid-flight: {kind}"));
        let mut first_aborted: BTreeMap<StreamId, FlowId> = BTreeMap::new();
        for (fid, _delivered) in &aborted {
            if let Some(sid) = self.disown_flow(*fid) {
                first_aborted.entry(sid).or_insert(*fid);
            }
            *self.fault_stats.link_errors.entry(link).or_insert(0) += 1;
        }
        self.fault_stats.aborted_flows += aborted.len() as u64;
        for (sid, flow) in first_aborted {
            // An op completes or restarts as a unit: cancel its flows that
            // survived the fault (they would deliver a torn transfer), in
            // ascending id order.
            let mut siblings = self.net.active_ids();
            siblings.retain(|&f| self.owner(f) == Some(sid));
            for f in siblings {
                self.disown_flow(f);
                self.net.cancel(f);
                self.fault_stats.aborted_flows += 1;
            }
            let run = self.streams[sid.idx()]
                .running
                .take()
                .expect("aborted flow belongs to a running op");
            self.retry_or_fail(sid, run, err.clone(), Some(flow));
        }
    }

    /// The one retry-or-fail decision for an op a fault hit — its planning
    /// failed at start, its route died during the launch latency, or its
    /// flows were aborted mid-flight. A fault-class error
    /// ([`HipError::is_fault`]) on a re-plannable op with retries left
    /// re-queues the op at the head of its stream and holds the stream
    /// through an exponential backoff, after which the op re-plans over the
    /// (possibly rerouted) fabric; `rerouted` names the aborted flow to mark
    /// on the flow lifecycle. Anything else fails the stream with a sticky
    /// error: its queue is dropped (the in-order guarantee is void once an
    /// op is lost) and `err` waits for the next synchronization.
    fn retry_or_fail(
        &mut self,
        sid: StreamId,
        run: RunningOp,
        err: HipError,
        rerouted: Option<FlowId>,
    ) {
        let now = self.now;
        let st = &mut self.streams[sid.idx()];
        let dev = st.dev;
        let (label, started) = (run.label, run.started);
        let kind = match run.request {
            Some(req) if err.is_fault() && run.attempts < self.retry.max_retries => {
                let retry = run.attempts + 1;
                self.fault_stats.retries += 1;
                if let Some(flow) = rerouted {
                    self.net
                        .flow_log_mut()
                        .push_with(|| ifsim_fabric::FlowEvent {
                            at: now,
                            flow,
                            kind: ifsim_fabric::FlowEventKind::Rerouted {
                                note: format!(
                                    "{label}: retry {retry} re-planned over surviving fabric"
                                ),
                            },
                        });
                }
                st.queue.push_front(QueuedOp {
                    work: Work::Request(req),
                    event: run.event,
                    label: label.clone(),
                    attempts: retry,
                });
                st.starting = true; // hold the stream through the backoff
                self.wakes
                    .push(now + self.retry.backoff(retry), Wake::Retry(sid));
                TraceKind::Aborted { op: label, retry }
            }
            _ => {
                self.fault_stats.failed_ops += 1;
                st.queue.clear();
                st.running = None;
                st.starting = false;
                st.parked_on = None;
                st.failed = Some(err.clone());
                TraceKind::Failed { op: label, err }
            }
        };
        self.trace.record_with(|| crate::trace::TraceEvent {
            dev,
            stream: sid,
            start: started,
            end: now,
            kind,
        });
    }

    fn apply_effect(&mut self, e: Effect) {
        match e {
            Effect::Copy {
                src,
                src_off,
                dst,
                dst_off,
                len,
            } => {
                self.mem
                    .copy(src, src_off, dst, dst_off, len)
                    .expect("copy validated at planning time");
            }
            Effect::Kernel(k) => {
                k.apply(&mut self.mem)
                    .expect("kernel validated at planning time");
            }
            Effect::ReduceAdd {
                src,
                src_off,
                dst,
                dst_off,
                elems,
            } => {
                self.mem
                    .reduce_add_f32s(src, src_off, dst, dst_off, elems)
                    .expect("validated at planning time");
            }
            Effect::Migrate {
                buf,
                offset,
                len,
                to,
            } => {
                let a = self.mem.get_mut(buf).expect("migration target exists");
                let pt = a.pages.as_mut().expect("managed allocation");
                pt.migrate_range(offset, len, to);
            }
            Effect::SetReadMostly { buf, value } => {
                self.mem
                    .get_mut(buf)
                    .expect("advised buffer exists")
                    .read_mostly = value;
            }
            Effect::Fill {
                dst,
                offset,
                value,
                len,
            } => {
                self.mem
                    .fill_bytes(dst, offset, len, value)
                    .expect("validated at planning time");
            }
        }
    }
}

impl Drop for HipSim {
    fn drop(&mut self) {
        // Hand the snapshot to any installed collector so experiments that
        // build runtimes deep inside library code still get observed.
        self.flush_telemetry();
    }
}

#[cfg(test)]
mod dispatch_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_des::units::{gbps, to_gbps, MIB};

    fn h2d_bw(hip: &mut HipSim, host: BufferId, dev: BufferId, bytes: u64) -> f64 {
        let t0 = hip.now();
        hip.memcpy(dev, 0, host, 0, bytes, MemcpyKind::HostToDevice)
            .unwrap();
        bytes as f64 / (hip.now() - t0).as_secs()
    }

    #[test]
    fn pinned_h2d_approaches_28_gbps_at_1_gib() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        let host = hip
            .host_malloc(1 << 30, HostAllocFlags::coherent())
            .unwrap();
        let dev = hip.malloc(1 << 30).unwrap();
        let bw = h2d_bw(&mut hip, host, dev, 1 << 30);
        assert!(
            (to_gbps(bw) - 28.3).abs() < 0.3,
            "pinned H2D {} GB/s",
            to_gbps(bw)
        );
    }

    #[test]
    fn small_transfers_are_latency_bound() {
        let mut hip = HipSim::new(EnvConfig::default());
        let host = hip.host_malloc(4096, HostAllocFlags::coherent()).unwrap();
        let dev = hip.malloc(4096).unwrap();
        let bw = h2d_bw(&mut hip, host, dev, 4096);
        // 4 KiB over ~6.5 µs of overhead: well under 1 GB/s.
        assert!(to_gbps(bw) < 1.0, "{} GB/s", to_gbps(bw));
    }

    #[test]
    fn pageable_is_slower_and_noisier_than_pinned() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        let pageable = hip.malloc_pageable(64 * MIB).unwrap();
        let pinned = hip
            .host_malloc(64 * MIB, HostAllocFlags::coherent())
            .unwrap();
        let dev = hip.malloc(64 * MIB).unwrap();
        let bw_pageable = h2d_bw(&mut hip, pageable, dev, 64 * MIB);
        let bw_pinned = h2d_bw(&mut hip, pinned, dev, 64 * MIB);
        assert!(bw_pageable < bw_pinned, "{bw_pageable} vs {bw_pinned}");
        // And repeated pageable runs vary.
        let mut samples = Vec::new();
        for _ in 0..10 {
            samples.push(h2d_bw(&mut hip, pageable, dev, 64 * MIB));
        }
        let s = ifsim_des::Summary::from_samples(&samples);
        assert!(
            s.cv() > 0.02,
            "pageable copies should be noisy, cv={}",
            s.cv()
        );
    }

    #[test]
    fn memcpy_actually_moves_bytes() {
        let mut hip = HipSim::new(EnvConfig::default());
        let host = hip.host_malloc(1024, HostAllocFlags::coherent()).unwrap();
        let dev = hip.malloc(1024).unwrap();
        let back = hip.host_malloc(1024, HostAllocFlags::coherent()).unwrap();
        hip.mem_mut()
            .write_f32s(host, 0, &(0..256).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        hip.memcpy(dev, 0, host, 0, 1024, MemcpyKind::HostToDevice)
            .unwrap();
        hip.memcpy(back, 0, dev, 0, 1024, MemcpyKind::DeviceToHost)
            .unwrap();
        let v = hip.mem().read_f32s(back, 0, 256).unwrap().unwrap();
        assert_eq!(v[255], 255.0);
        assert_eq!(v[0], 0.0);
    }

    #[test]
    fn peer_copy_with_sdma_saturates_at_50_gbps_even_on_quad_link() {
        // The paper's headline Fig. 6c anomaly.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        let bytes = 1u64 << 30;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.memcpy_peer(dst, 1, src, 0, bytes).unwrap();
        let bw = to_gbps(bytes as f64 / (hip.now() - t0).as_secs());
        assert!((bw - 50.0).abs() < 1.0, "quad-link SDMA copy: {bw} GB/s");
    }

    #[test]
    fn peer_copy_single_link_reaches_37_gbps() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        let bytes = 1u64 << 30;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(2).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.memcpy_peer(dst, 2, src, 0, bytes).unwrap();
        let bw = to_gbps(bytes as f64 / (hip.now() - t0).as_secs());
        assert!(
            (37.0..38.5).contains(&bw),
            "single-link SDMA copy: {bw} GB/s"
        );
    }

    #[test]
    fn disabling_peer_sdma_unlocks_the_quad_link() {
        let mut hip = HipSim::new(EnvConfig::without_sdma());
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        let bytes = 1u64 << 30;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.memcpy_peer(dst, 1, src, 0, bytes).unwrap();
        let bw = to_gbps(bytes as f64 / (hip.now() - t0).as_secs());
        // Blit kernel: 87 % of the 200 GB/s quad link ≈ 174 GB/s.
        assert!(bw > 150.0, "blit copy on quad link: {bw} GB/s");
    }

    #[test]
    fn peer_latency_measured_with_events_matches_fig6b() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        hip.set_device(1).unwrap();
        let src = hip.malloc(64).unwrap();
        hip.set_device(7).unwrap();
        let dst = hip.malloc(64).unwrap();
        hip.set_device(1).unwrap();
        let stream = hip.default_stream(1).unwrap();
        let start = hip.event_create();
        let stop = hip.event_create();
        hip.event_record(start, stream).unwrap();
        hip.memcpy_peer_async(dst, 7, src, 1, 16, stream).unwrap();
        hip.event_record(stop, stream).unwrap();
        hip.stream_synchronize(stream).unwrap();
        let us = hip.event_elapsed_ms(start, stop).unwrap() * 1e3;
        // 1-7 is an outlier pair: three-hop bandwidth-maximizing route.
        assert!((17.0..19.0).contains(&us), "GCD1->GCD7 latency {us} µs");
    }

    #[test]
    fn local_stream_copy_reaches_1400_gbps() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        let bytes = 256u64 * MIB;
        let a = hip.malloc(bytes).unwrap();
        let b = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.launch_kernel(KernelSpec::StreamCopy {
            src: a,
            dst: b,
            elems: (bytes / 4) as usize,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        let bw = to_gbps(2.0 * bytes as f64 / (hip.now() - t0).as_secs());
        assert!((1330.0..1430.0).contains(&bw), "local STREAM {bw} GB/s");
    }

    #[test]
    fn kernel_computes_correct_values_across_devices() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        hip.set_device(2).unwrap();
        let remote = hip.malloc(64).unwrap();
        hip.mem_mut().write_f32s(remote, 0, &[2.0; 16]).unwrap();
        hip.set_device(0).unwrap();
        let local = hip.malloc(64).unwrap();
        hip.launch_kernel(KernelSpec::StreamScale {
            src: remote,
            dst: local,
            scalar: 3.0,
            elems: 16,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        assert_eq!(
            hip.mem().read_f32s(local, 0, 16).unwrap().unwrap(),
            vec![6.0; 16]
        );
    }

    #[test]
    fn kernel_on_peer_device_memory_requires_peer_access() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.set_device(3).unwrap();
        let remote = hip.malloc(64).unwrap();
        hip.set_device(0).unwrap();
        let local = hip.malloc(64).unwrap();
        let err = hip
            .launch_kernel(KernelSpec::StreamCopy {
                src: remote,
                dst: local,
                elems: 16,
            })
            .unwrap_err();
        assert!(matches!(err, HipError::IllegalAddress(_)), "{err}");
        // After enabling, it works.
        hip.enable_peer_access(3).unwrap();
        hip.launch_kernel(KernelSpec::StreamCopy {
            src: remote,
            dst: local,
            elems: 16,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
    }

    #[test]
    fn pageable_kernel_access_faults_without_xnack() {
        let mut hip = HipSim::new(EnvConfig::default());
        let host = hip.malloc_pageable(64).unwrap();
        let dev = hip.malloc(64).unwrap();
        let err = hip
            .launch_kernel(KernelSpec::StreamCopy {
                src: host,
                dst: dev,
                elems: 16,
            })
            .unwrap_err();
        assert!(matches!(err, HipError::IllegalAddress(_)));
        // With XNACK, the same access is legal.
        let mut hip = HipSim::new(EnvConfig::with_xnack());
        let host = hip.malloc_pageable(64).unwrap();
        let dev = hip.malloc(64).unwrap();
        hip.launch_kernel(KernelSpec::StreamCopy {
            src: host,
            dst: dev,
            elems: 16,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
    }

    #[test]
    fn managed_zero_copy_reaches_25_5_gbps() {
        let mut hip = HipSim::new(EnvConfig::default()); // XNACK off
        hip.mem_mut().set_phantom_threshold(0);
        let bytes = 256u64 * MIB;
        let managed = hip.malloc_managed(bytes).unwrap();
        let dev = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.launch_kernel(KernelSpec::StreamCopy {
            src: managed,
            dst: dev,
            elems: (bytes / 4) as usize,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        // Host->device payload of `bytes` at 0.708 × 36 GB/s.
        let bw = to_gbps(bytes as f64 / (hip.now() - t0).as_secs());
        assert!((25.0..26.0).contains(&bw), "managed zero-copy {bw} GB/s");
    }

    #[test]
    fn xnack_migration_runs_near_2_8_gbps_then_local_speed() {
        let mut hip = HipSim::new(EnvConfig::with_xnack());
        hip.mem_mut().set_phantom_threshold(0);
        let bytes = 64u64 * MIB;
        let managed = hip.malloc_managed(bytes).unwrap();
        let dev = hip.malloc(bytes).unwrap();
        let elems = (bytes / 4) as usize;
        let t0 = hip.now();
        hip.launch_kernel(KernelSpec::StreamCopy {
            src: managed,
            dst: dev,
            elems,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        let bw_first = to_gbps(bytes as f64 / (hip.now() - t0).as_secs());
        assert!(
            (2.4..3.2).contains(&bw_first),
            "first touch {bw_first} GB/s"
        );
        // Pages now live on GCD0; the second pass runs at HBM speed.
        let t1 = hip.now();
        hip.launch_kernel(KernelSpec::StreamCopy {
            src: managed,
            dst: dev,
            elems,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        let bw_second = to_gbps(bytes as f64 / (hip.now() - t1).as_secs());
        assert!(bw_second > 300.0, "after migration {bw_second} GB/s");
        // Residency actually moved.
        let gcd0 = hip.gcd_of(0).unwrap();
        assert!(hip.mem().get(managed).unwrap().is_fully_resident_in(
            MemSpace::Hbm(gcd0),
            0,
            bytes
        ));
    }

    #[test]
    fn direct_peer_stream_copy_shows_duplex_collapse() {
        // Fig. 8/9: copy kernel on GCD0 with both arrays on GCD1 achieves
        // ~43-44 % of the quad link's bidirectional theoretical bandwidth.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        let bytes = 128u64 * MIB;
        hip.set_device(1).unwrap();
        let a = hip.malloc(bytes).unwrap();
        let b = hip.malloc(bytes).unwrap();
        hip.set_device(0).unwrap();
        let t0 = hip.now();
        hip.launch_kernel(KernelSpec::StreamCopy {
            src: a,
            dst: b,
            elems: (bytes / 4) as usize,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        let bidir = to_gbps(2.0 * bytes as f64 / (hip.now() - t0).as_secs());
        let ratio = bidir / 400.0; // quad link: 400 GB/s bidirectional
        assert!((0.42..0.45).contains(&ratio), "duplex ratio {ratio}");
    }

    #[test]
    fn multi_gpu_stream_same_package_does_not_scale() {
        // Fig. 4: two GCDs of one package share their NUMA domain's DDR.
        fn total_bw(devs: &[usize]) -> f64 {
            let mut hip = HipSim::new(EnvConfig::default());
            let bytes = 64u64 * MIB;
            let elems = (bytes / 4) as usize;
            let mut bufs = Vec::new();
            for &d in devs {
                hip.set_device(d).unwrap();
                let a = hip.host_malloc(bytes, HostAllocFlags::coherent()).unwrap();
                let b = hip.host_malloc(bytes, HostAllocFlags::coherent()).unwrap();
                bufs.push((a, b));
            }
            let t0 = hip.now();
            for (i, &d) in devs.iter().enumerate() {
                hip.set_device(d).unwrap();
                let (a, b) = bufs[i];
                hip.launch_kernel(KernelSpec::StreamCopy {
                    src: a,
                    dst: b,
                    elems,
                })
                .unwrap();
            }
            for &d in devs {
                hip.set_device(d).unwrap();
                hip.device_synchronize().unwrap();
            }
            let t = (hip.now() - t0).as_secs();
            devs.len() as f64 * 2.0 * bytes as f64 / t
        }
        let one = total_bw(&[0]);
        let same = total_bw(&[0, 1]);
        let spread = total_bw(&[0, 2]);
        assert!((same / one) < 1.15, "same-package scaling {one} -> {same}");
        assert!((spread / one) > 1.8, "spread scaling {one} -> {spread}");
    }

    #[test]
    fn visible_devices_reorder_the_node() {
        let env = EnvConfig::default().with_visible_devices(vec![6, 2]);
        let mut hip = HipSim::new(env);
        assert_eq!(hip.device_count(), 2);
        assert_eq!(hip.gcd_of(0).unwrap(), GcdId(6));
        hip.set_device(1).unwrap();
        assert_eq!(hip.current_device(), 1);
        assert!(hip.set_device(2).is_err());
    }

    #[test]
    fn host_register_pins_pageable_memory() {
        let mut hip = HipSim::new(EnvConfig::default());
        let buf = hip.malloc_pageable(1024).unwrap();
        hip.host_register(buf).unwrap();
        assert!(matches!(
            hip.mem().get(buf).unwrap().kind,
            MemKind::HostPinned(_)
        ));
        // Double-register is invalid.
        assert!(hip.host_register(buf).is_err());
    }

    #[test]
    fn event_elapsed_requires_recorded_events() {
        let mut hip = HipSim::new(EnvConfig::default());
        let a = hip.event_create();
        let b = hip.event_create();
        assert_eq!(hip.event_elapsed_ms(a, b).unwrap_err(), HipError::NotReady);
    }

    #[test]
    fn clock_is_monotonic_across_mixed_operations() {
        let mut hip = HipSim::new(EnvConfig::default());
        let mut last = hip.now();
        let host = hip.host_malloc(4096, HostAllocFlags::coherent()).unwrap();
        let dev = hip.malloc(4096).unwrap();
        for _ in 0..5 {
            hip.memcpy(dev, 0, host, 0, 4096, MemcpyKind::HostToDevice)
                .unwrap();
            assert!(hip.now() > last);
            last = hip.now();
        }
    }

    #[test]
    fn sdma_bandwidth_is_size_independent_of_route_tier_for_wide_links() {
        // Fig. 7: the hipMemcpyPeer ceiling holds across sizes; dual and
        // quad links both pin at the SDMA cap.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        let bytes = 512u64 * MIB;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(6).unwrap();
        let dst_dual = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst_quad = hip.malloc(bytes).unwrap();
        hip.set_device(0).unwrap();
        let t0 = hip.now();
        hip.memcpy_peer(dst_dual, 6, src, 0, bytes).unwrap();
        let bw_dual = to_gbps(bytes as f64 / (hip.now() - t0).as_secs());
        let t1 = hip.now();
        hip.memcpy_peer(dst_quad, 1, src, 0, bytes).unwrap();
        let bw_quad = to_gbps(bytes as f64 / (hip.now() - t1).as_secs());
        assert!((bw_dual - 50.0).abs() < 1.0, "dual {bw_dual}");
        assert!((bw_quad - 50.0).abs() < 1.0, "quad {bw_quad}");
    }

    #[test]
    fn oom_reports_out_of_memory() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        hip.malloc(64 << 30).unwrap();
        assert!(matches!(
            hip.malloc(1).unwrap_err(),
            HipError::OutOfMemory(_)
        ));
    }

    #[test]
    fn prefetch_avoids_the_fault_penalty() {
        // Prefetch + kernel vs. XNACK first-touch: same final residency,
        // far less time.
        let bytes = 64u64 * MIB;
        let elems = (bytes / 4) as usize;
        let kernel_time = |prefetch: bool| {
            let mut hip = HipSim::new(EnvConfig::with_xnack());
            hip.mem_mut().set_phantom_threshold(0);
            let managed = hip.malloc_managed(bytes).unwrap();
            let dev = hip.malloc(bytes).unwrap();
            let stream = hip.default_stream(0).unwrap();
            let t0 = hip.now();
            if prefetch {
                hip.mem_prefetch_async(managed, Some(0), stream).unwrap();
            }
            hip.launch_kernel(KernelSpec::StreamCopy {
                src: managed,
                dst: dev,
                elems,
            })
            .unwrap();
            hip.device_synchronize().unwrap();
            (hip.now() - t0).as_us()
        };
        let faulting = kernel_time(false);
        let prefetched = kernel_time(true);
        assert!(
            faulting > 5.0 * prefetched,
            "prefetch should dodge fault overheads: {faulting} vs {prefetched} µs"
        );
    }

    #[test]
    fn prefetch_to_host_restores_cpu_residency() {
        let mut hip = HipSim::new(EnvConfig::with_xnack());
        let bytes = 1u64 << 20;
        let managed = hip.malloc_managed(bytes).unwrap();
        let stream = hip.default_stream(0).unwrap();
        hip.mem_prefetch_async(managed, Some(3), stream).unwrap();
        hip.stream_synchronize(stream).unwrap();
        let gcd3 = hip.gcd_of(3).unwrap();
        assert!(hip.mem().get(managed).unwrap().is_fully_resident_in(
            MemSpace::Hbm(gcd3),
            0,
            bytes
        ));
        hip.mem_prefetch_async(managed, None, stream).unwrap();
        hip.stream_synchronize(stream).unwrap();
        assert!(hip.mem().get(managed).unwrap().is_fully_resident_in(
            MemSpace::Ddr(NumaId(0)),
            0,
            bytes
        ));
    }

    #[test]
    fn prefetch_rejects_non_managed_memory() {
        let mut hip = HipSim::new(EnvConfig::default());
        let dev = hip.malloc(4096).unwrap();
        let stream = hip.default_stream(0).unwrap();
        assert!(matches!(
            hip.mem_prefetch_async(dev, Some(1), stream),
            Err(HipError::InvalidValue(_))
        ));
    }

    #[test]
    fn read_mostly_advice_makes_managed_reads_local_until_written() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        let bytes = 64u64 * MIB;
        let elems = (bytes / 4) as usize;
        let managed = hip.malloc_managed(bytes).unwrap();
        let dev = hip.malloc(bytes).unwrap();

        let read_time = |hip: &mut HipSim| {
            let t0 = hip.now();
            hip.launch_kernel(KernelSpec::StreamCopy {
                src: managed,
                dst: dev,
                elems,
            })
            .unwrap();
            hip.device_synchronize().unwrap();
            (hip.now() - t0).as_us()
        };
        let slow = read_time(&mut hip);
        hip.mem_advise(managed, MemAdvise::SetReadMostly).unwrap();
        let fast = read_time(&mut hip);
        assert!(
            slow > 10.0 * fast,
            "duplicated reads at HBM speed: {slow} vs {fast}"
        );
        // A write collapses the duplicates...
        hip.launch_kernel(KernelSpec::Init {
            dst: managed,
            value: 0.0,
            elems,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        assert!(!hip.mem().get(managed).unwrap().read_mostly);
        // ...and reads are remote again.
        let slow_again = read_time(&mut hip);
        assert!(slow_again > 10.0 * fast, "{slow_again} vs {fast}");
    }

    #[test]
    fn mem_get_info_tracks_allocations() {
        let mut hip = HipSim::new(EnvConfig::default());
        let (free0, total) = hip.mem_get_info(0).unwrap();
        assert_eq!(free0, total);
        assert_eq!(total, 64 << 30);
        let b = hip.malloc(1 << 20).unwrap();
        let (free1, _) = hip.mem_get_info(0).unwrap();
        assert_eq!(free0 - free1, 1 << 20);
        hip.free(b).unwrap();
        let (free2, _) = hip.mem_get_info(0).unwrap();
        assert_eq!(free2, total);
        // Other devices unaffected.
        assert_eq!(hip.mem_get_info(5).unwrap().0, total);
    }

    /// `run_until`'s order at one instant: the fault applies first, then
    /// the wakes in the order they were scheduled (not in stream order),
    /// then the flow completion.
    #[test]
    fn equal_time_happenings_keep_their_order() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.trace_enable();
        let host = hip.host_malloc(MIB, HostAllocFlags::coherent()).unwrap();
        let dev = hip.malloc(MIB).unwrap();
        let s0 = hip.default_stream(0).unwrap();
        hip.memcpy_async(dev, 0, host, 0, MIB, MemcpyKind::HostToDevice, s0)
            .unwrap();
        // Past the launch latency: the copy's one flow is in the fabric.
        hip.host_sleep(Dur::from_us(100.0));
        let (t, _) = hip.inner.net.peek_completion().expect("copy in flight");
        let fault = FaultKind::SdmaFail { gcd: GcdId(5) };
        hip.set_fault_plan(FaultPlan::new().at(t, fault)).unwrap();
        let (s1, s2) = (hip.stream_create().unwrap(), hip.stream_create().unwrap());
        // Two zero-flow launches wake at `t`, the later stream first.
        for (sid, label) in [(s2, "first wake"), (s1, "second wake")] {
            let st = &mut hip.inner.streams[sid.idx()];
            st.starting = true;
            st.launch = Some(Launch {
                run: RunningOp {
                    pending_flows: 0,
                    effects: Vec::new(),
                    event: None,
                    started: hip.inner.now,
                    label: OpLabel::from(label),
                    request: None,
                    attempts: 0,
                },
                flows: Vec::new(),
            });
            hip.inner.wakes.push(t, Wake::Launch(sid));
        }
        hip.synchronize_all().unwrap();
        let at_t: Vec<(StreamId, String)> = (hip.trace().events().iter())
            .filter(|e| e.end == t)
            .map(|e| (e.stream, e.kind.to_string()))
            .collect();
        let s0_fault = hip.default_stream(0).unwrap();
        assert_eq!(
            at_t,
            [
                (s0_fault, TraceKind::Fault(fault).to_string()),
                (s2, "first wake".to_string()),
                (s1, "second wake".to_string()),
                (s0, OpLabel::Memcpy { bytes: MIB }.to_string()),
            ]
        );
        assert_eq!(hip.now(), t);
    }

    #[test]
    fn trace_records_the_op_timeline() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.trace_enable();
        let host = hip
            .host_malloc(1 << 20, HostAllocFlags::coherent())
            .unwrap();
        let dev = hip.malloc(1 << 20).unwrap();
        hip.memcpy(dev, 0, host, 0, 1 << 20, MemcpyKind::HostToDevice)
            .unwrap();
        hip.launch_kernel(KernelSpec::Init {
            dst: dev,
            value: 1.0,
            elems: 1 << 18,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        let events = hip.trace().events();
        assert_eq!(events.len(), 2);
        assert!(events[0].kind.to_string().contains("memcpy"));
        assert!(events[1].kind.to_string().contains("kernel"));
        assert!(events[0].end <= events[1].start, "stream order preserved");
        assert!(hip.trace().busy_time(crate::device::DeviceId(0)).as_us() > 0.0);
        // Gantt renders without panicking and mentions the device.
        assert!(hip.trace().render_gantt(60).contains("dev0"));
    }

    #[test]
    fn sdma_copies_overlap_compute_but_blit_copies_contend() {
        // The paper's §V-A2 note: SDMA engines let hipMemcpyPeer overlap
        // kernel execution "without affecting kernel performance"; blit
        // copies are kernels and steal memory bandwidth.
        let bytes = 512u64 * MIB;
        let elems = (bytes / 4) as usize;
        // Measure the *kernel's own* duration (via events) while a peer
        // copy runs concurrently on another stream — the quantity the paper
        // says SDMA engines protect.
        let kernel_time_with_copy = |env: EnvConfig, with_copy: bool| {
            let mut hip = HipSim::new(env);
            hip.mem_mut().set_phantom_threshold(0);
            hip.enable_all_peer_access().unwrap();
            hip.set_device(0).unwrap();
            let a = hip.malloc(bytes).unwrap();
            let b = hip.malloc(bytes).unwrap();
            let src = hip.malloc(bytes).unwrap();
            hip.set_device(1).unwrap();
            let dst = hip.malloc(bytes).unwrap();
            hip.set_device(0).unwrap();
            let copy_stream = hip.stream_create().unwrap();
            let kernel_stream = hip.default_stream(0).unwrap();
            if with_copy {
                hip.memcpy_peer_async(dst, 1, src, 0, bytes, copy_stream)
                    .unwrap();
            }
            let start = hip.event_create();
            let stop = hip.event_create();
            hip.event_record(start, kernel_stream).unwrap();
            hip.launch_kernel(KernelSpec::StreamCopy {
                src: a,
                dst: b,
                elems,
            })
            .unwrap();
            hip.event_record(stop, kernel_stream).unwrap();
            hip.synchronize_all().unwrap();
            hip.event_elapsed_ms(start, stop).unwrap() * 1e3
        };
        let solo = kernel_time_with_copy(EnvConfig::default(), false);
        let with_sdma = kernel_time_with_copy(EnvConfig::default(), true);
        let with_blit = kernel_time_with_copy(EnvConfig::without_sdma(), true);
        // Both copies steal some HBM bandwidth, but the blit copy is kernel
        // traffic at quad-link speed — it hurts the kernel several times
        // more than the engine-capped SDMA copy does.
        assert!(
            with_sdma < with_blit,
            "SDMA protects the kernel: {with_sdma} vs {with_blit} µs"
        );
        let sdma_slowdown = with_sdma / solo - 1.0;
        let blit_slowdown = with_blit / solo - 1.0;
        assert!(
            sdma_slowdown < 0.06,
            "SDMA copy barely affects the kernel: +{:.1} %",
            sdma_slowdown * 100.0
        );
        assert!(
            blit_slowdown > 2.0 * sdma_slowdown,
            "blit contention dominates: +{:.1} % vs +{:.1} %",
            blit_slowdown * 100.0,
            sdma_slowdown * 100.0
        );
    }

    #[test]
    fn memset_fills_and_takes_memory_time() {
        let mut hip = HipSim::new(EnvConfig::default());
        let buf = hip.malloc(1024).unwrap();
        hip.mem_mut().write_bytes(buf, 0, &[7u8; 1024]).unwrap();
        let t0 = hip.now();
        hip.memset(buf, 256, 0, 512).unwrap();
        assert!(hip.now() > t0);
        let v = hip.mem().read_bytes(buf, 0, 1024).unwrap().unwrap();
        assert!(v[..256].iter().all(|&b| b == 7));
        assert!(v[256..768].iter().all(|&b| b == 0));
        assert!(v[768..].iter().all(|&b| b == 7));
        // Out-of-range memset is rejected synchronously.
        assert!(matches!(
            hip.memset(buf, 1000, 0, 100),
            Err(HipError::InvalidValue(_))
        ));
    }

    #[test]
    fn stream_wait_event_orders_cross_stream_work() {
        // Kernel on stream B must not start before the long memcpy on
        // stream A records its event — verified via the trace timeline.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        hip.trace_enable();
        let bytes = 64u64 * MIB;
        let host = hip.host_malloc(bytes, HostAllocFlags::coherent()).unwrap();
        let dev = hip.malloc(bytes).unwrap();
        let other = hip.malloc(bytes).unwrap();
        let a = hip.default_stream(0).unwrap();
        let b = hip.stream_create().unwrap();
        let done = hip.event_create();
        hip.memcpy_async(dev, 0, host, 0, bytes, MemcpyKind::HostToDevice, a)
            .unwrap();
        hip.event_record(done, a).unwrap();
        hip.stream_wait_event(b, done).unwrap();
        hip.launch_kernel_on(
            KernelSpec::StreamCopy {
                src: dev,
                dst: other,
                elems: (bytes / 4) as usize,
            },
            b,
        )
        .unwrap();
        hip.synchronize_all().unwrap();
        let copy_end = hip
            .trace()
            .events()
            .iter()
            .find(|e| e.kind.to_string().contains("memcpy"))
            .unwrap()
            .end;
        let kernel_start = hip
            .trace()
            .events()
            .iter()
            .find(|e| e.kind.to_string().contains("kernel"))
            .unwrap()
            .start;
        assert!(
            kernel_start >= copy_end,
            "kernel {kernel_start:?} must follow copy end {copy_end:?}"
        );
    }

    #[test]
    fn wait_on_recorded_event_is_a_noop() {
        let mut hip = HipSim::new(EnvConfig::default());
        let stream = hip.default_stream(0).unwrap();
        let ev = hip.event_create();
        hip.event_record(ev, stream).unwrap();
        hip.stream_synchronize(stream).unwrap();
        let b = hip.stream_create().unwrap();
        hip.stream_wait_event(b, ev).unwrap();
        hip.stream_synchronize(b).unwrap();
        assert!(hip.all_idle());
    }

    #[test]
    fn derated_link_shows_up_in_peer_bandwidth() {
        // A quad link retrained to quarter speed: direct kernel access
        // drops from ~174 to ~43.5 GB/s; a healthy pair is unaffected.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        hip.derate_xgmi_link(GcdId(0), GcdId(1), 0.25).unwrap();
        let bytes = 128u64 * MIB;
        let elems = (bytes / 4) as usize;
        let bw = |hip: &mut HipSim, owner: usize, reader: usize| {
            hip.set_device(owner).unwrap();
            let src = hip.malloc(bytes).unwrap();
            hip.set_device(reader).unwrap();
            let dst = hip.malloc(bytes).unwrap();
            let t0 = hip.now();
            hip.launch_kernel(KernelSpec::StreamCopy { src, dst, elems })
                .unwrap();
            hip.device_synchronize().unwrap();
            to_gbps(bytes as f64 / (hip.now() - t0).as_secs())
        };
        let sick = bw(&mut hip, 0, 1);
        let healthy = bw(&mut hip, 2, 3);
        assert!((40.0..48.0).contains(&sick), "derated quad: {sick}");
        assert!(healthy > 150.0, "healthy quad: {healthy}");
        // Derating an unlinked pair is rejected.
        assert!(hip.derate_xgmi_link(GcdId(0), GcdId(7), 0.5).is_err());
    }

    #[test]
    fn derate_mid_flight_reshares_from_the_engine_clock() {
        // A GCD0→GCD1 peer read is in flight while an event recorded on a
        // second stream is waited for: the host clock moves past the
        // fabric clock. A derate there must charge the new rate only from
        // that instant on, and raising it again must not project a
        // completion into the past.
        let bytes = 128u64 * MIB;
        let elems = (bytes / 4) as usize;
        let secs = |t: Time| t.as_secs();
        // Returns the copy's end and the derate instants.
        let run = |factors: &[f64]| {
            let mut hip = HipSim::new(EnvConfig::default());
            hip.mem_mut().set_phantom_threshold(0);
            hip.enable_all_peer_access().unwrap();
            hip.set_device(0).unwrap();
            let src = hip.malloc(bytes).unwrap();
            hip.set_device(1).unwrap();
            let dst = hip.malloc(bytes).unwrap();
            let side = hip.stream_create().unwrap();
            hip.launch_kernel(KernelSpec::StreamCopy { src, dst, elems })
                .unwrap();
            let mut at = Vec::new();
            for &f in factors {
                // Past the copy's launch latency, so its flow is running.
                hip.host_sleep(Dur::from_us(20.0));
                let ev = hip.event_create();
                hip.event_record(ev, side).unwrap();
                hip.event_synchronize(ev).unwrap();
                assert!(hip.fabric().now() < hip.now(), "fabric clock lags");
                at.push(hip.now());
                hip.derate_xgmi_link(GcdId(0), GcdId(1), f).unwrap();
            }
            hip.device_synchronize().unwrap();
            (hip.now(), at)
        };
        let (healthy_end, _) = run(&[]);
        // Derated to 0.25 at td: the time left at full rate takes 4×.
        let (end, at) = run(&[0.25]);
        let td = secs(at[0]);
        let want = td + (secs(healthy_end) - td) / 0.25;
        assert!((secs(end) - want).abs() < 1e-9, "{} vs {want}", secs(end));
        // Then back to 1.0 at td2: the time left at 0.25 takes 0.25×.
        let (end2, at) = run(&[0.25, 1.0]);
        let td2 = secs(at[1]);
        let want2 = td2 + (want - td2) * 0.25;
        assert!(at[1] < end, "the second derate lands mid-flight");
        assert!(
            (secs(end2) - want2).abs() < 1e-9,
            "{} vs {want2}",
            secs(end2)
        );
    }

    #[test]
    fn can_access_peer_is_true_for_distinct_gcds() {
        let hip = HipSim::new(EnvConfig::default());
        assert!(hip.device_can_access_peer(0, 7).unwrap());
        assert!(!hip.device_can_access_peer(3, 3).unwrap());
        assert!(hip.device_can_access_peer(0, 99).is_err());
    }

    #[test]
    fn gbps_sanity_of_model_constants() {
        // Guard against accidental recalibration: a couple of load-bearing
        // constants the other tests assume.
        let hip = HipSim::new(EnvConfig::default());
        assert_eq!(hip.calib().sdma_payload_cap, gbps(50.0));
        assert_eq!(hip.calib().eff_sdma_xgmi, 0.75);
    }

    // ---------------- fault injection ----------------

    use ifsim_fabric::{FaultKind, FaultPlan};
    use ifsim_topology::RoutePolicy;

    fn peer_copy_elapsed(hip: &mut HipSim, src_dev: usize, dst_dev: usize, bytes: u64) -> Dur {
        hip.set_device(src_dev).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(dst_dev).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.memcpy_peer(dst, dst_dev, src, src_dev, bytes).unwrap();
        hip.now() - t0
    }

    #[test]
    fn empty_fault_plan_is_byte_identical() {
        // Installing an empty plan must leave every clock reading exactly
        // where a fault-free run puts it (the machinery adds no events, no
        // rng draws, no overhead).
        let run = |with_plan: bool| {
            let mut hip = HipSim::new(EnvConfig::default());
            hip.enable_all_peer_access().unwrap();
            if with_plan {
                hip.set_fault_plan(FaultPlan::new()).unwrap();
            }
            let d1 = peer_copy_elapsed(&mut hip, 0, 1, 64 * MIB);
            let d2 = peer_copy_elapsed(&mut hip, 1, 7, 16 * MIB);
            (d1.as_ns(), d2.as_ns(), hip.now().as_ns())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn link_down_mid_flight_reroutes_with_retry() {
        // A 1 GiB copy over the 0-2 single link; the link dies mid-transfer.
        // The runtime aborts the flow, backs off, re-plans over the rebuilt
        // router (a 3-hop detour), and the copy completes without error.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        hip.trace_enable();
        let link = hip
            .topo()
            .link_between(PortId::Gcd(GcdId(0)), PortId::Gcd(GcdId(2)))
            .unwrap();
        hip.set_fault_plan(FaultPlan::new().at(
            Time::ZERO + Dur::from_ms(5.0),
            FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(2),
            },
        ))
        .unwrap();
        let bytes = 1u64 << 30; // ~29 ms healthy: the fault lands mid-flight
        let healthy_route = hip
            .router()
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth)
            .clone();
        assert_eq!(healthy_route.hops(), 1);
        let elapsed = peer_copy_elapsed(&mut hip, 0, 2, bytes);
        // Recovery happened and was accounted.
        let stats = hip.fault_stats();
        assert_eq!(stats.faults_applied, 1);
        assert!(stats.aborted_flows >= 1, "{stats:?}");
        assert!(stats.retries >= 1, "{stats:?}");
        assert_eq!(stats.failed_ops, 0, "{stats:?}");
        assert_eq!(stats.link_errors.get(&link), Some(&1));
        // The fabric now reports the link down and routes avoid it.
        assert!(hip.fabric_health().health().is_down(link));
        let rerouted = hip
            .router()
            .gcd_route(GcdId(0), GcdId(2), RoutePolicy::MaxBandwidth);
        assert!(rerouted.hops() >= 2);
        assert!(!rerouted.links.contains(&link));
        // Restart + detour costs time over a healthy run.
        assert!(
            elapsed > Dur::from_ms(29.0),
            "elapsed {} ms",
            elapsed.as_ms()
        );
        // The abort, the retry, and the fault itself are all on the timeline.
        let kinds: Vec<&TraceKind> = hip.trace().events().iter().map(|e| &e.kind).collect();
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, TraceKind::Fault(FaultKind::LinkDown { .. }))),
            "{kinds:?}"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, TraceKind::Aborted { retry: 1, .. })),
            "{kinds:?}"
        );
    }

    #[test]
    fn exhausted_retries_surface_link_down_and_clear() {
        // With retries disabled, a mid-flight link death fails the stream;
        // the error is sticky until one synchronize reports it, after which
        // the stream is usable again.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        hip.set_retry_policy(RetryPolicy::no_retries());
        hip.set_fault_plan(FaultPlan::new().at(
            Time::ZERO + Dur::from_ms(5.0),
            FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(2),
            },
        ))
        .unwrap();
        let bytes = 1u64 << 30;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(2).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let err = hip.memcpy_peer(dst, 2, src, 0, bytes).unwrap_err();
        assert!(matches!(err, HipError::LinkDown(_)), "{err}");
        assert_eq!(hip.fault_stats().failed_ops, 1);
        // The sync consumed the sticky error; the stream works again.
        let stream = hip.default_stream(0).unwrap();
        assert!(hip.stream_error(stream).is_none());
        let d = peer_copy_elapsed(&mut hip, 0, 1, MIB);
        assert!(d > Dur::ZERO);
    }

    #[test]
    fn free_waits_for_a_failing_copy_and_keeps_its_sticky_error() {
        // `free` of a copy's destination waits until the copy is over, here
        // by a mid-flight link death; the sticky error stays for the next
        // synchronize to report.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        hip.set_retry_policy(RetryPolicy::no_retries());
        hip.set_fault_plan(FaultPlan::new().at(
            Time::ZERO + Dur::from_ms(5.0),
            FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(2),
            },
        ))
        .unwrap();
        let bytes = 1u64 << 30;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(2).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let stream = hip.default_stream(2).unwrap();
        hip.memcpy_peer_async(dst, 2, src, 0, bytes, stream)
            .unwrap();
        hip.free(dst).unwrap();
        assert!(hip.now() >= Time::ZERO + Dur::from_ms(5.0));
        assert!(matches!(
            hip.stream_error(stream),
            Some(HipError::LinkDown(_))
        ));
        let err = hip.stream_synchronize(stream).unwrap_err();
        assert!(matches!(err, HipError::LinkDown(_)), "{err}");
        hip.free(src).unwrap();
    }

    #[test]
    fn partitioned_gcd_rejects_new_work_cleanly() {
        // All three of GCD0's links go down: no route can reach it, and a
        // peer copy is rejected at submission with LinkDown (not a panic).
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        let mut plan = FaultPlan::new();
        for peer in [1u8, 2, 6] {
            plan = plan.at(
                Time::ZERO,
                FaultKind::LinkDown {
                    a: GcdId(0),
                    b: GcdId(peer),
                },
            );
        }
        hip.set_fault_plan(plan).unwrap();
        hip.host_sleep(Dur::from_us(1.0)); // apply the scheduled faults
        assert_eq!(hip.fault_stats().faults_applied, 3);
        hip.set_device(0).unwrap();
        let src = hip.malloc(MIB).unwrap();
        hip.set_device(2).unwrap();
        let dst = hip.malloc(MIB).unwrap();
        let stream = hip.default_stream(0).unwrap();
        let err = hip
            .memcpy_peer_async(dst, 2, src, 0, MIB, stream)
            .unwrap_err();
        assert!(matches!(err, HipError::LinkDown(_)), "{err}");
        // Survivors still talk to each other.
        let d = peer_copy_elapsed(&mut hip, 2, 3, MIB);
        assert!(d > Dur::ZERO);
    }

    #[test]
    fn stream_synchronize_timeout_expires_then_completes() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        let bytes = 1u64 << 30; // ~21 ms on the quad link
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let stream = hip.default_stream(0).unwrap();
        hip.set_device(0).unwrap();
        hip.memcpy_peer_async(dst, 1, src, 0, bytes, stream)
            .unwrap();
        let t0 = hip.now();
        let err = hip
            .stream_synchronize_timeout(stream, Dur::from_ms(1.0))
            .unwrap_err();
        assert!(matches!(err, HipError::Timeout(_)), "{err}");
        // The clock stands at the deadline and the copy is still running.
        assert!((hip.now().since(t0).as_ms() - 1.0).abs() < 1e-9);
        assert!(!hip.all_idle());
        // Waiting again without a bound drains it.
        hip.stream_synchronize(stream).unwrap();
        assert!(hip.all_idle());
    }

    #[test]
    fn event_synchronize_timeout_expires() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        let bytes = 1u64 << 30;
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let stream = hip.default_stream(0).unwrap();
        hip.set_device(0).unwrap();
        hip.memcpy_peer_async(dst, 1, src, 0, bytes, stream)
            .unwrap();
        let ev = hip.event_create();
        hip.event_record(ev, stream).unwrap();
        let err = hip
            .event_synchronize_timeout(ev, Dur::from_ms(1.0))
            .unwrap_err();
        assert!(matches!(err, HipError::Timeout(_)), "{err}");
        hip.event_synchronize(ev).unwrap();
    }

    #[test]
    fn sdma_failure_falls_back_to_blit_path() {
        // With GCD0's SDMA engines dead, the quad-link copy sheds the 50 GB/s
        // engine cap and runs at blit speed — same as HSA_ENABLE_PEER_SDMA=0.
        let mut hip = HipSim::new(EnvConfig::default());
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        hip.set_fault_plan(FaultPlan::new().at(Time::ZERO, FaultKind::SdmaFail { gcd: GcdId(0) }))
            .unwrap();
        hip.host_sleep(Dur::from_us(1.0));
        let bytes = 1u64 << 30;
        let d = peer_copy_elapsed(&mut hip, 0, 1, bytes);
        let bw = to_gbps(bytes as f64 / d.as_secs());
        assert!(bw > 150.0, "blit fallback on quad link: {bw} GB/s");
        // Restore brings the SDMA cap back.
        hip.set_fault_plan(
            FaultPlan::new().at(hip.now(), FaultKind::SdmaRestore { gcd: GcdId(0) }),
        )
        .unwrap();
        hip.host_sleep(Dur::from_us(1.0));
        let d = peer_copy_elapsed(&mut hip, 0, 1, bytes);
        let bw = to_gbps(bytes as f64 / d.as_secs());
        assert!((bw - 50.0).abs() < 1.0, "restored SDMA cap: {bw} GB/s");
    }

    #[test]
    fn bit_error_tax_cuts_bandwidth_and_adds_latency() {
        let mut hip = HipSim::new(EnvConfig::default());
        hip.enable_all_peer_access().unwrap();
        let healthy = peer_copy_elapsed(&mut hip, 0, 2, 256 * MIB);
        hip.set_fault_plan(FaultPlan::new().at(
            hip.now(),
            FaultKind::BitErrorRate {
                a: GcdId(0),
                b: GcdId(2),
                tax: 0.4,
                added_latency: Dur::from_us(5.0),
            },
        ))
        .unwrap();
        hip.host_sleep(Dur::from_us(1.0));
        let taxed = peer_copy_elapsed(&mut hip, 0, 2, 256 * MIB);
        // 40 % of the wire is retransmissions: the single link's 37.5 GB/s
        // SDMA copy drops well below the engine cap.
        assert!(
            taxed.as_ms() > 1.5 * healthy.as_ms(),
            "healthy {} ms, taxed {} ms",
            healthy.as_ms(),
            taxed.as_ms()
        );
        // A tiny copy exposes the per-hop latency penalty.
        let lat_taxed = peer_copy_elapsed(&mut hip, 0, 2, 16);
        assert!(
            lat_taxed.as_us() > 5.0,
            "latency with BER penalty: {} µs",
            lat_taxed.as_us()
        );
    }

    #[test]
    fn lane_loss_degrades_blit_bandwidth_in_steps() {
        // Quad 0-1 loses two lanes, then two more: the blit copy halves,
        // then the link is down and traffic detours.
        let mut hip = HipSim::new(EnvConfig::without_sdma());
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        let bytes = 512u64 * MIB;
        let full = peer_copy_elapsed(&mut hip, 0, 1, bytes);
        hip.set_fault_plan(FaultPlan::new().at(
            hip.now(),
            FaultKind::LaneLoss {
                a: GcdId(0),
                b: GcdId(1),
                lanes: 2,
            },
        ))
        .unwrap();
        hip.host_sleep(Dur::from_us(1.0));
        let link = hip
            .topo()
            .link_between(PortId::Gcd(GcdId(0)), PortId::Gcd(GcdId(1)))
            .unwrap();
        assert_eq!(
            hip.fabric_health().health().get(link),
            LinkHealth::Degraded { lanes: 2 }
        );
        let half = peer_copy_elapsed(&mut hip, 0, 1, bytes);
        assert!(
            (half.as_ms() / full.as_ms() - 2.0).abs() < 0.2,
            "full {} ms, half {} ms",
            full.as_ms(),
            half.as_ms()
        );
        hip.set_fault_plan(FaultPlan::new().at(
            hip.now(),
            FaultKind::LaneLoss {
                a: GcdId(0),
                b: GcdId(1),
                lanes: 2,
            },
        ))
        .unwrap();
        hip.host_sleep(Dur::from_us(1.0));
        assert!(hip.fabric_health().health().is_down(link));
        // 0->1 now detours; the copy still completes.
        let detour = peer_copy_elapsed(&mut hip, 0, 1, bytes);
        assert!(detour > Dur::ZERO);
        assert!(!hip
            .router()
            .gcd_route(GcdId(0), GcdId(1), RoutePolicy::MaxBandwidth)
            .links
            .contains(&link));
    }

    #[test]
    fn derate_composes_with_fault_health() {
        // A retrain derate and the fault plan's impairments are all factors
        // of healthy capacity: they multiply, and a restore clears them all.
        let mut hip = HipSim::new(EnvConfig::default());
        let (a, b) = (GcdId(0), GcdId(1));
        let link = hip
            .topo()
            .link_between(PortId::Gcd(a), PortId::Gcd(b))
            .unwrap();
        let fwd = hip
            .fabric()
            .segmap()
            .dir_seg(link, ifsim_fabric::Dir::Forward);
        let share = |hip: &HipSim| {
            let m = hip.fabric().segmap();
            m.capacity(fwd) / m.base_capacity(fwd)
        };
        let apply = |hip: &mut HipSim, kind: FaultKind| {
            hip.set_fault_plan(FaultPlan::new().at(hip.now(), kind))
                .unwrap();
            hip.host_sleep(Dur::from_us(1.0));
        };
        hip.derate_xgmi_link(a, b, 0.5).unwrap();
        assert_eq!(share(&hip), 0.5);
        apply(&mut hip, FaultKind::LaneLoss { a, b, lanes: 1 });
        // 3 of 4 lanes × the 0.5 derate.
        assert!((share(&hip) - 0.375).abs() < 1e-12, "{}", share(&hip));
        apply(&mut hip, FaultKind::LinkRestore { a, b });
        assert_eq!(share(&hip), 1.0);
        hip.derate_xgmi_link(a, b, 0.5).unwrap();
        apply(
            &mut hip,
            FaultKind::BitErrorRate {
                a,
                b,
                tax: 0.2,
                added_latency: Dur::ZERO,
            },
        );
        // The 0.5 derate × (1 − 0.2) retransmission tax.
        assert!((share(&hip) - 0.4).abs() < 1e-12, "{}", share(&hip));
    }

    #[test]
    fn fault_plan_validates_endpoints() {
        let mut hip = HipSim::new(EnvConfig::default());
        // 0 and 7 share no direct link.
        let bad = FaultPlan::new().at(
            Time::ZERO,
            FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(7),
            },
        );
        assert!(matches!(
            hip.set_fault_plan(bad),
            Err(HipError::InvalidValue(_))
        ));
        let bad = FaultPlan::new().at(Time::ZERO, FaultKind::SdmaFail { gcd: GcdId(42) });
        assert!(matches!(
            hip.set_fault_plan(bad),
            Err(HipError::InvalidValue(_))
        ));
        assert_eq!(hip.pending_faults(), 0);
    }
}
