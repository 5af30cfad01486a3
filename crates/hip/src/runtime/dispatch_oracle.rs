//! Submission's check-only plan against the double-plan oracle.
//!
//! The runtime once validated each API call by building its whole plan and
//! throwing it away, then planned again when the op started. The oracle
//! (`Inner::double_plan`) still does that; the runtime itself checks with
//! the planner's check-only mode. Over random tapes of API calls (valid and
//! invalid arguments, pinned, pageable and managed endpoints, with XNACK or
//! blit peer copies, and a fault that partitions GCD0 mid-tape), both must
//! return the same result from every call, leave the jitter generator in
//! the same state after every call, and record the same op trace. The
//! runtime builds exactly one full plan per op start.

use super::*;
use proptest::prelude::*;

/// Bytes per tape buffer: timing-only, so copies are long enough for the
/// fault to strike mid-flight.
const SIZE: u64 = 16 << 20;

/// The handles a tape's calls pick from.
struct World {
    /// Device buffers of devices 0–3, then pinned, pageable, two managed
    /// buffers, and a freed (dangling) handle.
    bufs: Vec<BufferId>,
    /// Default streams of devices 0–3, a second stream on device 1, and an
    /// invalid handle.
    streams: Vec<StreamId>,
    /// Three events and an invalid handle.
    events: Vec<EventId>,
}

/// How a tape's runtime is set up.
#[derive(Clone, Copy, Debug)]
struct Setup {
    seed: u64,
    /// 0: defaults, 1: XNACK on, 2: blit peer copies.
    env: u8,
    /// When a fault strikes, in µs, if at all: the GCD0–GCD1 link goes
    /// down (flows reroute), or with `partition` all three of GCD0's
    /// links do.
    fault_us: Option<u32>,
    partition: bool,
}

impl Setup {
    /// Waits may only name events that are sure to record: with no fault
    /// and no residency changes, no stream can fail and drop its record.
    fn waits_allowed(&self) -> bool {
        self.fault_us.is_none() && self.env != 1
    }
}

fn runtime(setup: Setup, double_plan: bool) -> (HipSim, World) {
    let env = match setup.env {
        0 => EnvConfig::default(),
        1 => EnvConfig::with_xnack(),
        _ => EnvConfig {
            enable_peer_sdma: false,
            ..EnvConfig::default()
        },
    };
    let mut hip = HipSim::with_seed(env, setup.seed);
    hip.inner.double_plan = double_plan;
    hip.mem_mut().set_phantom_threshold(0);
    hip.trace_enable();
    let mut bufs = Vec::new();
    for dev in 0..4 {
        hip.set_device(dev).unwrap();
        bufs.push(hip.malloc(SIZE).unwrap());
    }
    hip.set_device(0).unwrap();
    bufs.push(hip.host_malloc(SIZE, HostAllocFlags::coherent()).unwrap());
    bufs.push(hip.malloc_pageable(SIZE).unwrap());
    bufs.push(hip.malloc_managed(SIZE).unwrap());
    bufs.push(hip.malloc_managed(SIZE).unwrap());
    let dangling = hip.malloc(SIZE).unwrap();
    hip.free(dangling).unwrap();
    bufs.push(dangling);
    // Some pairs are granted peer access; the rest stage through the host.
    for (dev, peer) in [(0, 1), (1, 0), (2, 3)] {
        hip.set_device(dev).unwrap();
        hip.enable_peer_access(peer).unwrap();
    }
    hip.set_device(0).unwrap();
    let mut streams: Vec<StreamId> = (0..4).map(|d| hip.default_stream(d).unwrap()).collect();
    hip.set_device(1).unwrap();
    streams.push(hip.stream_create().unwrap());
    hip.set_device(0).unwrap();
    streams.push(StreamId(99));
    let mut events: Vec<EventId> = (0..3).map(|_| hip.event_create()).collect();
    events.push(EventId(99));
    if let Some(us) = setup.fault_us {
        let at = Time::ZERO + Dur::from_us(f64::from(us));
        let mut plan = FaultPlan::new();
        let peers: &[u8] = if setup.partition { &[1, 2, 6] } else { &[1] };
        for &peer in peers {
            let kind = FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(peer),
            };
            plan = plan.at(at, kind);
        }
        hip.set_fault_plan(plan).unwrap();
    }
    (
        hip,
        World {
            bufs,
            streams,
            events,
        },
    )
}

/// Run one tape call: `sel` picks the API entry point and `bits` its
/// arguments. `recorded` lists the events with a record submitted.
fn call(
    hip: &mut HipSim,
    w: &World,
    setup: Setup,
    recorded: &mut Vec<EventId>,
    sel: u8,
    bits: u64,
) -> HipResult<()> {
    let pick = |shift: u32, n: usize| ((bits >> shift) % n as u64) as usize;
    // The last buffer and stream are invalid handles: 1 pick in 16.
    let valid_or_not = |shift: u32, n: usize| {
        if pick(shift, 16) == 0 {
            n - 1
        } else {
            pick(shift + 4, n - 1)
        }
    };
    let buf = |shift| w.bufs[valid_or_not(shift, w.bufs.len())];
    let stream = w.streams[valid_or_not(56, w.streams.len())];
    let bytes = [0, 4096, 1 << 20, SIZE / 2, SIZE, SIZE, SIZE, SIZE + 1][pick(0, 8)];
    let off = [0, 0, 0, 0, 0, 0, 4096, u64::MAX - 1][pick(3, 8)];
    let elems = [
        0,
        1024,
        1 << 20,
        1 << 20,
        (SIZE / 4) as usize,
        (SIZE / 4) as usize + 1,
    ][pick(6, 6)];
    match sel {
        0 | 1 => {
            let kind = [
                MemcpyKind::Default,
                MemcpyKind::Default,
                MemcpyKind::Default,
                MemcpyKind::HostToDevice,
                MemcpyKind::DeviceToHost,
                MemcpyKind::DeviceToDevice,
                MemcpyKind::HostToHost,
                MemcpyKind::Default,
            ][pick(9, 8)];
            hip.memcpy_async(buf(12), 0, buf(20), off, bytes, kind, stream)
        }
        2 | 11 | 12 => {
            // Mostly the GCD0–GCD1 pair the fault strikes, now and then
            // GCD2, GCD3 or the pinned host buffer. Each side is named with
            // its buffer's own index as device, except one pick in eight
            // that names one of GCD0–GCD4 at random.
            let devs = [0, 1, 0, 1, 0, 1, 2, 3, 4];
            let (dst, src) = (devs[pick(12, 9)], devs[pick(16, 9)]);
            let dst_dev = if pick(20, 8) == 0 { pick(23, 5) } else { dst };
            let src_dev = if pick(26, 8) == 0 { pick(29, 5) } else { src };
            hip.memcpy_peer_async(w.bufs[dst], dst_dev, w.bufs[src], src_dev, bytes, stream)
        }
        3 | 4 => {
            let (a, b, dst) = (buf(12), buf(20), buf(28));
            let spec = match pick(36, 6) {
                0 => KernelSpec::StreamCopy { src: a, dst, elems },
                1 => KernelSpec::StreamScale {
                    src: a,
                    dst,
                    scalar: 2.0,
                    elems,
                },
                2 => KernelSpec::StreamAdd { a, b, dst, elems },
                3 => KernelSpec::StreamTriad {
                    a,
                    b,
                    dst,
                    scalar: 0.5,
                    elems,
                },
                4 => KernelSpec::Init {
                    dst,
                    value: 1.0,
                    elems,
                },
                _ => KernelSpec::Touch { buf: a, bytes },
            };
            hip.launch_kernel_on(spec, stream)
        }
        5 => hip.memset_async(buf(12), off, 7, bytes, stream),
        6 if !setup.waits_allowed() => {
            let target = [None, Some(0), Some(1), Some(3), Some(9)][pick(12, 5)];
            hip.mem_prefetch_async(buf(20), target, stream)
        }
        7 => {
            let ev = w.events[valid_or_not(12, w.events.len())];
            let r = hip.event_record(ev, stream);
            if r.is_ok() {
                recorded.push(ev);
            }
            r
        }
        8 if setup.waits_allowed() && !recorded.is_empty() => {
            let ev = recorded[pick(12, recorded.len())];
            hip.stream_wait_event(stream, ev)
        }
        9 => hip.stream_synchronize(stream),
        _ => {
            hip.host_sleep(Dur::from_ns((bits >> 12) as f64 % 200_000.0));
            Ok(())
        }
    }
}

/// The jitter generator's state, by its next draw.
fn rng_state(hip: &HipSim) -> u64 {
    hip.inner.rng.clone().next_u64()
}

/// Trace entries that close one op attempt: each comes from one plan.
fn op_attempts(hip: &HipSim) -> u64 {
    let attempts = hip.trace().events().iter();
    attempts
        .filter(|e| !matches!(e.kind, TraceKind::Fault(_)))
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn check_only_submission_matches_the_double_plan_oracle(
        seed in any::<u64>(),
        env in 0u8..3,
        fault in (0u8..3, 0u32..400),
        tape in proptest::collection::vec((0u8..14, any::<u64>()), 1..40),
    ) {
        let fault_us = (fault.0 != 0).then_some(fault.1);
        let setup = Setup { seed, env, fault_us, partition: fault.0 == 2 };
        let (mut new, w) = runtime(setup, false);
        let (mut old, _) = runtime(setup, true);
        let (mut rec_new, mut rec_old) = (Vec::new(), Vec::new());
        for (i, &(sel, bits)) in tape.iter().enumerate() {
            let a = call(&mut new, &w, setup, &mut rec_new, sel, bits);
            let b = call(&mut old, &w, setup, &mut rec_old, sel, bits);
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "call {} of {:?}", i, setup);
            prop_assert_eq!(rng_state(&new), rng_state(&old), "rng after call {}", i);
            prop_assert_eq!(new.now(), old.now());
        }
        let (a, b) = (new.synchronize_all(), old.synchronize_all());
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(rng_state(&new), rng_state(&old));
        prop_assert_eq!(new.trace().events(), old.trace().events());
        prop_assert_eq!(new.fault_stats(), old.fault_stats());
        // One full plan per op attempt; the oracle adds one per submission.
        prop_assert_eq!(new.inner.plans_built, op_attempts(&new));
        prop_assert!(old.inner.plans_built >= new.inner.plans_built);
    }
}
