//! Integration scenarios spanning the whole stack: runtime + memory +
//! fabric + collectives driven together, the way an application would.

use ifsim::coll::schedule::RankBuffers;
use ifsim::coll::{Collective, MpiComm, RcclComm};
use ifsim::des::units::MIB;
use ifsim::hip::{EnvConfig, HipSim, HostAllocFlags, KernelSpec, MemcpyKind};

/// A miniature "application": host produces data, spreads it across four
/// GCDs, each GPU computes, results are all-reduced with RCCL, and the
/// host reads the answer back. Every byte is verified.
#[test]
fn produce_compute_allreduce_consume_pipeline() {
    let mut hip = HipSim::new(EnvConfig::default());
    let n = 4;
    let elems = 1024usize;
    let bytes = elems as u64 * 4;

    // Host produces per-GPU inputs.
    hip.set_device(0).unwrap();
    let host_in = hip.host_malloc(bytes, HostAllocFlags::coherent()).unwrap();
    hip.mem_mut()
        .write_f32s(host_in, 0, &vec![0.5f32; elems])
        .unwrap();

    // Scatter to the GPUs (explicit copies) and square on-device via scale.
    let mut dev_in = Vec::new();
    let mut dev_out = Vec::new();
    for d in 0..n {
        hip.set_device(d).unwrap();
        let b_in = hip.malloc(bytes).unwrap();
        let b_out = hip.malloc(bytes).unwrap();
        hip.memcpy(b_in, 0, host_in, 0, bytes, MemcpyKind::HostToDevice)
            .unwrap();
        hip.launch_kernel(KernelSpec::StreamScale {
            src: b_in,
            dst: b_out,
            scalar: (d + 1) as f32,
            elems,
        })
        .unwrap();
        hip.device_synchronize().unwrap();
        dev_in.push(b_in);
        dev_out.push(b_out);
    }

    // AllReduce the per-GPU results.
    let comm = RcclComm::new(&mut hip, (0..n).collect()).unwrap();
    let mut recv = Vec::new();
    for d in 0..n {
        hip.set_device(d).unwrap();
        recv.push(hip.malloc(bytes).unwrap());
    }
    let bufs = RankBuffers {
        send: dev_out.clone(),
        recv: recv.clone(),
    };
    let t0 = hip.now();
    comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
        .unwrap();
    assert!(hip.now() > t0, "the collective consumed simulated time");

    // Host consumes: sum over d of 0.5*(d+1) = 0.5 * 10 = 5.0.
    hip.set_device(2).unwrap();
    let host_out = hip.host_malloc(bytes, HostAllocFlags::coherent()).unwrap();
    hip.memcpy(host_out, 0, recv[2], 0, bytes, MemcpyKind::DeviceToHost)
        .unwrap();
    let v = hip.mem().read_f32s(host_out, 0, elems).unwrap().unwrap();
    assert_eq!(v, vec![5.0f32; elems]);
}

/// MPI and RCCL running in the same process agree on the numerics even
/// though their timing differs.
#[test]
fn mpi_and_rccl_agree_on_allreduce_results() {
    let elems = 512usize;
    let bytes = elems as u64 * 4;

    let run = |use_mpi: bool| -> (Vec<f32>, f64) {
        let mut hip = HipSim::new(EnvConfig::default());
        let n = 8;
        let mut send = Vec::new();
        let mut recv = Vec::new();
        for r in 0..n {
            hip.set_device(r).unwrap();
            let s = hip.malloc(bytes).unwrap();
            let d = hip.malloc(bytes).unwrap();
            hip.mem_mut()
                .write_f32s(
                    s,
                    0,
                    &(0..elems).map(|i| (i + r) as f32).collect::<Vec<_>>(),
                )
                .unwrap();
            send.push(s);
            recv.push(d);
        }
        let bufs = RankBuffers { send, recv };
        let dur = if use_mpi {
            let comm = MpiComm::new(&mut hip, (0..n).collect()).unwrap();
            comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
                .unwrap()
        } else {
            let comm = RcclComm::new(&mut hip, (0..n).collect()).unwrap();
            comm.collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
                .unwrap()
        };
        (
            hip.mem()
                .read_f32s(bufs.recv[0], 0, elems)
                .unwrap()
                .unwrap(),
            dur.as_us(),
        )
    };

    let (mpi_result, mpi_us) = run(true);
    let (rccl_result, rccl_us) = run(false);
    assert_eq!(mpi_result, rccl_result, "same reduction result");
    // Expected: sum over r of (i + r) = 8i + 28.
    for (i, v) in mpi_result.iter().enumerate() {
        assert_eq!(*v, 8.0 * i as f32 + 28.0, "element {i}");
    }
    assert!(
        rccl_us < mpi_us,
        "RCCL AllReduce should be faster ({rccl_us} vs {mpi_us})"
    );
}

/// Environment toggles flow through every layer: the same program under
/// three environments yields the paper's qualitative outcomes.
#[test]
fn environment_matrix_changes_behaviour_end_to_end() {
    let bytes = 32 * MIB;
    let elems = (bytes / 4) as usize;

    let peer_copy_time = |env: EnvConfig| {
        let mut hip = HipSim::new(env);
        hip.mem_mut().set_phantom_threshold(0);
        hip.enable_all_peer_access().unwrap();
        hip.set_device(0).unwrap();
        let src = hip.malloc(bytes).unwrap();
        hip.set_device(1).unwrap();
        let dst = hip.malloc(bytes).unwrap();
        let t0 = hip.now();
        hip.memcpy_peer(dst, 1, src, 0, bytes).unwrap();
        (hip.now() - t0).as_us()
    };
    let sdma_on = peer_copy_time(EnvConfig::default());
    let sdma_off = peer_copy_time(EnvConfig::without_sdma());
    assert!(
        sdma_off < sdma_on / 2.0,
        "blit beats SDMA on the quad link: {sdma_off} vs {sdma_on}"
    );

    // XNACK gates pageable-access kernels.
    let mut hip = HipSim::new(EnvConfig::default());
    let pageable = hip.malloc_pageable(bytes).unwrap();
    let dev = hip.malloc(bytes).unwrap();
    assert!(hip
        .launch_kernel(KernelSpec::StreamCopy {
            src: pageable,
            dst: dev,
            elems,
        })
        .is_err());
    let mut hip = HipSim::new(EnvConfig::with_xnack());
    let pageable = hip.malloc_pageable(bytes).unwrap();
    let dev = hip.malloc(bytes).unwrap();
    hip.launch_kernel(KernelSpec::StreamCopy {
        src: pageable,
        dst: dev,
        elems,
    })
    .unwrap();
    hip.device_synchronize().unwrap();

    // Visibility restriction is honoured by the whole stack.
    let env = EnvConfig::default().with_visible_devices(vec![0, 2, 4, 6]);
    let mut hip = HipSim::new(env);
    assert_eq!(hip.device_count(), 4);
    let comm = RcclComm::new(&mut hip, (0..4).collect()).unwrap();
    assert_eq!(comm.n_ranks(), 4);
}

/// Managed memory migrates under XNACK and the whole pipeline sees the
/// relocation: second-touch bandwidth jumps by orders of magnitude.
#[test]
fn xnack_migration_is_visible_across_the_stack() {
    let mut hip = HipSim::new(EnvConfig::with_xnack());
    hip.mem_mut().set_phantom_threshold(0);
    let bytes = 16 * MIB;
    let elems = (bytes / 4) as usize;
    let managed = hip.malloc_managed(bytes).unwrap();
    let dev = hip.malloc(bytes).unwrap();

    let touch = |hip: &mut HipSim| {
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
    let first = touch(&mut hip);
    let second = touch(&mut hip);
    assert!(
        first > 20.0 * second,
        "migration dominates the first touch: {first} vs {second}"
    );
}

/// Managed residency at the paper's 1 GiB sweep end (Figs. 2-3), through
/// the facade: a first XNACK touch moves every byte to the toucher's HBM,
/// a second touch plans no migration, and a prefetch restores home.
#[test]
fn managed_residency_at_paper_scale_moves_whole_ranges() {
    use ifsim::hip::plan::{plan_kernel, Effect};
    use ifsim::memory::MemSpace;

    let gib = 1u64 << 30;
    let mut hip = HipSim::new(EnvConfig::with_xnack());
    let managed = hip.malloc_managed(gib).unwrap();
    let dev = hip.malloc(gib).unwrap();
    let home = hip.mem().get(managed).unwrap().home;
    let hbm0 = MemSpace::Hbm(hip.gcd_of(0).unwrap());
    let touch = KernelSpec::StreamCopy {
        src: managed,
        dst: dev,
        elems: (gib / 4) as usize,
    };
    let resident = |hip: &HipSim, space| {
        let pages = hip.mem().get(managed).unwrap().pages.as_ref().unwrap();
        pages.resident_bytes(space)
    };
    let plans_migration = |hip: &HipSim| {
        let plan = plan_kernel(
            &hip.plan_ctx(),
            hip.gcd_of(0).unwrap(),
            &touch,
            &mut ifsim::des::Rng::new(1),
        )
        .unwrap();
        plan.effects
            .iter()
            .any(|e| matches!(e, Effect::Migrate { .. }))
    };

    assert!(plans_migration(&hip), "first touch faults");
    hip.launch_kernel(touch.clone()).unwrap();
    hip.device_synchronize().unwrap();
    assert_eq!(resident(&hip, hbm0), gib);
    assert_eq!(resident(&hip, home), 0);
    assert!(!plans_migration(&hip), "second touch is resident");

    let stream = hip.default_stream(0).unwrap();
    hip.mem_prefetch_async(managed, None, stream).unwrap();
    hip.device_synchronize().unwrap();
    assert_eq!(resident(&hip, home), gib);
    assert_eq!(resident(&hip, hbm0), 0);
    assert!(hip
        .mem()
        .get(managed)
        .unwrap()
        .is_fully_resident_in(home, 0, gib));

    // A buffer of two pages and a 100-byte tail: a migration straddling
    // the last page boundary moves pages 1 and 2, and the tail page
    // counts only its 100 bytes.
    let page = hip.mem().managed_page_size();
    let bytes = 2 * page + 100;
    let small = hip.malloc_managed(bytes).unwrap();
    let pages = hip
        .mem_mut()
        .get_mut(small)
        .unwrap()
        .pages
        .as_mut()
        .unwrap();
    assert_eq!(pages.migrate_range(2 * page - 50, 100, hbm0), 2);
    assert_eq!(pages.resident_bytes(hbm0), page + 100);
    assert_eq!(pages.resident_bytes(home), page);
    assert_eq!(pages.non_resident_pages(0, bytes, hbm0), 1);
}

/// An offset near `u64::MAX` makes `offset + len` overflow: the API must
/// reject the range as an invalid value, in debug and release builds alike,
/// and the runtime must stay usable afterwards.
#[test]
fn offsets_that_overflow_the_range_are_invalid_values() {
    use ifsim::hip::HipError;
    let mut hip = HipSim::new(EnvConfig::default());
    hip.set_device(0).unwrap();
    let a = hip.malloc(MIB).unwrap();
    let b = hip.malloc(MIB).unwrap();
    let copy = hip.memcpy(b, 0, a, u64::MAX, 2, MemcpyKind::DeviceToDevice);
    assert!(matches!(copy, Err(HipError::InvalidValue(_))), "{copy:?}");
    let copy = hip.memcpy(b, u64::MAX, a, 0, 2, MemcpyKind::DeviceToDevice);
    assert!(matches!(copy, Err(HipError::InvalidValue(_))), "{copy:?}");
    let fill = hip.memset(a, u64::MAX, 0, 2);
    assert!(matches!(fill, Err(HipError::InvalidValue(_))), "{fill:?}");
    hip.memset(a, MIB - 2, 7, 2).unwrap();
    hip.memcpy(b, 0, a, MIB - 2, 2, MemcpyKind::DeviceToDevice)
        .unwrap();
    hip.device_synchronize().unwrap();
}

/// A collective over buffers smaller than its element count is an invalid
/// value naming the buffer and the range, on the tree (small) and ring
/// (large) paths alike, and the runtime stays usable: a correctly sized
/// AllReduce on the same communicator afterwards reduces exactly.
#[test]
fn undersized_allreduce_is_an_invalid_value() {
    use ifsim::hip::HipError;
    let mut hip = HipSim::new(EnvConfig::default());
    let n = 4;
    let comm = RcclComm::new(&mut hip, (0..n).collect()).unwrap();
    let mut send = Vec::new();
    let mut recv = Vec::new();
    for r in 0..n {
        hip.set_device(r).unwrap();
        let s = hip.malloc(1024).unwrap();
        hip.mem_mut().fill_f32s(s, 0, 256, (r + 1) as f32).unwrap();
        send.push(s);
        recv.push(hip.malloc(1024).unwrap());
    }
    let bufs = RankBuffers { send, recv };
    for elems in [1024, 64 * 1024] {
        let err = comm
            .collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
            .unwrap_err();
        let HipError::InvalidValue(msg) = &err else {
            panic!("expected an invalid value, got {err:?}");
        };
        let range = format!("0+{} B", elems * 4);
        assert!(msg.contains(&range) && msg.contains("of 1024 B"), "{msg}");
    }
    comm.collective(&mut hip, Collective::AllReduce, &bufs, 256, 0)
        .unwrap();
    for &d in &bufs.recv {
        let v = hip.mem().read_f32s(d, 0, 256).unwrap().unwrap();
        assert!(v.iter().all(|&x| x == 10.0), "{v:?}");
    }
}

/// `hipFree` of a buffer an async copy still targets waits for the copy
/// (`hipFree`'s implicit synchronization) instead of pulling the bytes from
/// under it; the runtime keeps working afterwards.
#[test]
fn freeing_a_buffer_an_async_copy_still_uses_waits_for_the_copy() {
    let mut hip = HipSim::new(EnvConfig::default());
    hip.set_device(0).unwrap();
    let a = hip.malloc(MIB).unwrap();
    hip.mem_mut().fill_bytes(a, 0, MIB, 7).unwrap();
    let s = hip.stream_create().unwrap();
    hip.set_device(1).unwrap();
    let b = hip.malloc(MIB).unwrap();
    hip.memcpy_peer_async(b, 1, a, 0, MIB, s).unwrap();
    let t0 = hip.now();
    hip.free(b).unwrap();
    assert!(hip.now() > t0, "free waited for the in-flight copy");
    assert!(hip.all_idle());
    hip.synchronize_all().unwrap();
    // Still usable: a fresh copy into a fresh buffer lands.
    let c = hip.malloc(MIB).unwrap();
    hip.memcpy_peer(c, 1, a, 0, MIB).unwrap();
    let out = hip.mem().read_bytes(c, 0, MIB).unwrap().unwrap();
    assert!(out.iter().all(|&x| x == 7));
    assert!(hip.free(b).is_err(), "the freed handle stays invalid");
}

/// Real backings are recycled between runtimes: a run repeats bit for bit
/// in one process, and memory a dropped runtime filled reads as zero when a
/// new runtime allocates it again.
#[test]
fn recycled_backings_read_as_zero_and_repeat_bit_for_bit() {
    let mut cfg = ifsim::BenchConfig::quick();
    cfg.reps = 1;
    let exp = ifsim::registry::by_id("ext-fault-allreduce-flaky").unwrap();
    let checks = |r: &ifsim::ExperimentResult| -> Vec<(String, bool, String)> {
        r.checks
            .iter()
            .map(|c| (c.name.clone(), c.passed, c.detail.clone()))
            .collect()
    };
    let first = exp.run(&cfg);
    let second = exp.run(&cfg);
    assert_eq!(first.rendered, second.rendered);
    assert_eq!(checks(&first), checks(&second));
    assert!(first.checks.iter().all(|c| c.passed));

    let mut hip = HipSim::new(EnvConfig::default());
    let dirty = hip.malloc(MIB).unwrap();
    hip.mem_mut().fill_bytes(dirty, 0, MIB, 0xA5).unwrap();
    drop(hip);
    let mut hip = HipSim::new(EnvConfig::default());
    let fresh = hip.malloc(MIB).unwrap();
    let bytes = hip.mem().read_bytes(fresh, 0, MIB).unwrap().unwrap();
    assert!(bytes.iter().all(|&x| x == 0), "new memory reads as zero");
}

/// Calibration factors from untrusted input (`ifsim-drift --perturb`,
/// scenario `calib`, serve `overrides.calib`) pass one checked method. A
/// factor that is not positive and finite, or that takes an efficiency out
/// of (0, 1], is refused and changes nothing; an accepted one reaches the
/// simulated transfer.
#[test]
fn calibration_factors_are_checked_before_they_reach_a_flow() {
    use ifsim::fabric::Calibration;
    use ifsim::microbench::{osu, BenchConfig};

    let base = Calibration::default();
    for (field, factor, says) in [
        ("eff_sdma_xgmi", 2.0, "outside (0, 1]"),
        ("rccl_store_forward_eff", 2.0, "outside (0, 1]"),
        ("eff_sdma_xgmi", 0.0, "not positive"),
        ("eff_sdma_xgmi", -1.0, "not positive"),
        ("eff_sdma_xgmi", f64::NAN, "not positive"),
        ("eff_sdma_xgmi", f64::INFINITY, "not positive"),
        ("no_such_field", 1.0, "unknown calibration field"),
    ] {
        let mut c = base.clone();
        let e = c.scale_f64_field(field, factor).unwrap_err();
        assert!(e.contains(says), "{field} x{factor}: {e}");
        assert_eq!(c.kv(), base.kv(), "a refused factor changes nothing");
    }
    // A constant without a ceiling takes any positive factor.
    assert_eq!(Calibration::f64_field_ceiling("sdma_payload_cap"), None);
    let mut c = base.clone();
    c.scale_f64_field("sdma_payload_cap", 3.0).unwrap();
    assert_eq!(c.sdma_payload_cap, 3.0 * base.sdma_payload_cap);

    // GCD0 -> GCD2 is one xGMI link: SDMA moves eff_sdma_xgmi x 50 GB/s.
    let mut cfg = BenchConfig::quick();
    cfg.reps = 1;
    let healthy = osu::osu_p2p_bw(&cfg, 2, 64 * MIB, true);
    cfg.calib.scale_f64_field("eff_sdma_xgmi", 0.5).unwrap();
    let halved = osu::osu_p2p_bw(&cfg, 2, 64 * MIB, true);
    assert!(
        (halved / healthy - 0.5).abs() < 0.02,
        "{healthy} -> {halved} GB/s"
    );
}
