//! Fault-injection experiments (`ext-fault-*`): how the node behaves when
//! the fabric degrades. The paper measures a healthy machine; these
//! extensions replay seeded fault schedules against the same benchmarks to
//! quantify what lane loss, link outages and bit-error storms cost.

use crate::experiment::{Check, ExperimentResult};
use ifsim_coll::schedule::RankBuffers;
use ifsim_coll::{Collective, RcclComm};
use ifsim_des::units::{GIB, MIB};
use ifsim_des::{Dur, Time};
use ifsim_hip::{EnvConfig, FaultKind, FaultPlan, GcdId, HipSim, NodeTopology, TraceKind};
use ifsim_microbench::report::{render_series_csv, render_series_table_counts, Series};
use ifsim_microbench::BenchConfig;
use std::fmt::Write as _;

/// Peer-copy bandwidth between two devices at the current fabric health.
fn peer_copy_gbps(hip: &mut HipSim, from: usize, to: usize, bytes: u64) -> f64 {
    hip.set_device(from).expect("src device");
    let src = hip.malloc(bytes).expect("src");
    hip.set_device(to).expect("dst device");
    let dst = hip.malloc(bytes).expect("dst");
    hip.set_device(from).expect("src device");
    let t0 = hip.now();
    hip.memcpy_peer(dst, to, src, from, bytes)
        .expect("peer copy");
    let bw = bytes as f64 / (hip.now() - t0).as_secs() / 1e9;
    hip.free(src).expect("free");
    hip.free(dst).expect("free");
    bw
}

/// Host-observed latency of a 16-byte peer copy (mean over `reps`).
fn peer_copy_latency_us(hip: &mut HipSim, from: usize, to: usize, reps: usize) -> f64 {
    hip.set_device(from).expect("src device");
    let src = hip.malloc(64).expect("src");
    hip.set_device(to).expect("dst device");
    let dst = hip.malloc(64).expect("dst");
    hip.set_device(from).expect("src device");
    let mut total = 0.0;
    for _ in 0..reps {
        let t0 = hip.now();
        hip.memcpy_peer(dst, to, src, from, 16).expect("peer copy");
        total += (hip.now() - t0).as_us();
    }
    hip.free(src).expect("free");
    hip.free(dst).expect("free");
    total / reps as f64
}

/// `ext-fault-p2p-lanes`: peer bandwidth on the quad link GCD0<->GCD1 as
/// xGMI lanes fail one by one. The SDMA engine cap (50 GB/s) — not the
/// wire — is the healthy bottleneck, so the first lane losses are
/// *invisible* to the benchmark; only the last surviving lane (50 GB/s of
/// wire) drops below the engine ceiling.
pub fn ext_fault_p2p_lanes(cfg: &BenchConfig) -> ExperimentResult {
    let bytes = 256 * MIB;
    let mut s = Series::new("hipMemcpyPeer GCD0->GCD1", "GB/s");
    for lanes_lost in 0u64..=3 {
        let mut hip = cfg.runtime(EnvConfig::default());
        hip.enable_all_peer_access().expect("peer access");
        if lanes_lost > 0 {
            hip.set_fault_plan(FaultPlan::new().at(
                Time::from_ns(1.0),
                FaultKind::LaneLoss {
                    a: GcdId(0),
                    b: GcdId(1),
                    lanes: lanes_lost as u32,
                },
            ))
            .expect("valid fault plan");
            hip.host_sleep(Dur::from_us(1.0)); // let the lane loss land
        }
        s.push(lanes_lost, peer_copy_gbps(&mut hip, 0, 1, bytes));
    }
    let rendered = render_series_table_counts(
        "peer bandwidth vs lanes lost (quad link 0-1)",
        "lanes lost",
        std::slice::from_ref(&s),
    );
    let intact = s.at(0).unwrap();
    let two_lost = s.at(2).unwrap();
    let one_left = s.at(3).unwrap();
    let checks = vec![
        Check::new(
            "the SDMA engine cap hides the first two lane losses",
            (48.0..51.0).contains(&intact) && (intact - two_lost).abs() < 0.5,
            format!("0 lost: {intact:.1} GB/s, 2 lost: {two_lost:.1} GB/s"),
        ),
        Check::new(
            "one surviving lane finally drops below the engine ceiling (0.75 x 50)",
            (36.0..39.0).contains(&one_left),
            format!("3 lost: {one_left:.1} GB/s"),
        ),
    ];
    ExperimentResult {
        id: "ext-fault-p2p-lanes",
        title: "Peer bandwidth under lane degradation (extension)",
        rendered,
        csv: vec![(
            "ext-fault-p2p-lanes.csv".into(),
            render_series_csv("lanes_lost", std::slice::from_ref(&s)),
        )],
        checks,
    }
}

/// `ext-fault-link-down`: a 1 GiB peer copy loses its link mid-flight. The
/// runtime aborts the transfer, backs off, re-plans over the surviving
/// fabric and completes — the trace shows the fault and the retry, the
/// counters show no failed op. A second probe watches the paper's Fig. 6b
/// latency outliers: killing the 0-6 dual link *removes* the (1,7) outlier
/// (the bandwidth-maximizing 3-hop detour dies, a 2-hop route takes over)
/// while cutting its bandwidth.
pub fn ext_fault_link_down(cfg: &BenchConfig) -> ExperimentResult {
    let bytes = GIB;
    let run = |plan: Option<FaultPlan>| -> (f64, u64, u64, bool, bool) {
        let mut hip = cfg.runtime(EnvConfig::default());
        hip.enable_all_peer_access().expect("peer access");
        hip.trace_enable();
        if let Some(p) = plan {
            hip.set_fault_plan(p).expect("valid fault plan");
        }
        hip.set_device(0).expect("dev");
        let src = hip.malloc(bytes).expect("src");
        hip.set_device(2).expect("dev");
        let dst = hip.malloc(bytes).expect("dst");
        hip.set_device(0).expect("dev");
        let t0 = hip.now();
        hip.memcpy_peer(dst, 2, src, 0, bytes)
            .expect("copy must survive the fault via retry");
        let ms = (hip.now() - t0).as_ms();
        let stats = hip.fault_stats().clone();
        let events = hip.trace().events();
        let fault_marked = events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Fault(FaultKind::LinkDown { .. })));
        let retry_marked = events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Aborted { .. }));
        (
            ms,
            stats.retries,
            stats.failed_ops,
            fault_marked,
            retry_marked,
        )
    };
    let (healthy_ms, ..) = run(None);
    let plan = FaultPlan::new().at(
        Time::from_ns(5e6),
        FaultKind::LinkDown {
            a: GcdId(0),
            b: GcdId(2),
        },
    );
    let (faulted_ms, retries, failed, fault_marked, retry_marked) = run(Some(plan));

    // The outlier probe: pair (1,7) rides 1-0-6-7 for bandwidth when
    // healthy; with 0-6 down the route shortens to two single-link hops.
    let mut healthy = cfg.runtime(EnvConfig::default());
    healthy.enable_all_peer_access().expect("peer access");
    let lat_healthy = peer_copy_latency_us(&mut healthy, 1, 7, 20);
    let bw_healthy = peer_copy_gbps(&mut healthy, 1, 7, 256 * MIB);
    let mut degraded = cfg.runtime(EnvConfig::default());
    degraded.enable_all_peer_access().expect("peer access");
    degraded
        .set_fault_plan(FaultPlan::new().at(
            Time::from_ns(1.0),
            FaultKind::LinkDown {
                a: GcdId(0),
                b: GcdId(6),
            },
        ))
        .expect("valid fault plan");
    degraded.host_sleep(Dur::from_us(1.0));
    let lat_down = peer_copy_latency_us(&mut degraded, 1, 7, 20);
    let bw_down = peer_copy_gbps(&mut degraded, 1, 7, 256 * MIB);

    let mut out = String::new();
    let _ = writeln!(out, "1 GiB hipMemcpyPeer GCD0->GCD2, link down at 5 ms:");
    let _ = writeln!(out, "  healthy     {healthy_ms:>8.2} ms");
    let _ = writeln!(
        out,
        "  faulted     {faulted_ms:>8.2} ms   ({retries} retries, {failed} failed ops)"
    );
    let _ = writeln!(out, "outlier pair (1,7), 0-6 dual link down:");
    let _ = writeln!(
        out,
        "  latency     {lat_healthy:>8.2} -> {lat_down:.2} us   (3-hop detour dies)"
    );
    let _ = writeln!(out, "  bandwidth   {bw_healthy:>8.1} -> {bw_down:.1} GB/s");
    let checks = vec![
        Check::new(
            "the aborted copy is retried over a reroute, not failed",
            retries >= 1 && failed == 0,
            format!("{retries} retries, {failed} failed ops"),
        ),
        Check::new(
            "the trace records the fault and the retry",
            fault_marked && retry_marked,
            format!("fault marker: {fault_marked}, retry marker: {retry_marked}"),
        ),
        Check::new(
            "losing 5 ms of progress plus the backoff costs wall-clock",
            faulted_ms > healthy_ms + 4.0,
            format!("{healthy_ms:.2} -> {faulted_ms:.2} ms"),
        ),
        Check::new(
            "the (1,7) latency outlier disappears with the 0-6 detour",
            lat_down < lat_healthy,
            format!("{lat_healthy:.2} -> {lat_down:.2} us"),
        ),
        Check::new(
            "the surviving 2-hop route pays in bandwidth",
            bw_down < 0.9 * bw_healthy,
            format!("{bw_healthy:.1} -> {bw_down:.1} GB/s"),
        ),
    ];
    ExperimentResult {
        id: "ext-fault-link-down",
        title: "Mid-flight link failure: reroute, retry, outlier shift (extension)",
        rendered: out,
        csv: vec![],
        checks,
    }
}

/// `ext-fault-allreduce-flaky`: 8-rank RCCL AllReduce at 1 MiB, healthy vs
/// a bit-error-taxed ring edge vs that edge fully down with the ring
/// rebuilt. Every variant must stay numerically correct; the flaky link
/// slows the ring (its worst edge sets the pace), and the rebuilt ring
/// completes without the dead link.
pub fn ext_fault_allreduce_flaky(cfg: &BenchConfig) -> ExperimentResult {
    let elems = (MIB / 4) as usize;
    let n = 8usize;
    // Plain runtime (no phantom threshold override): 1 MiB buffers get real
    // backing, so the reduction results can be checked element-wise.
    let run = |fault: Option<fn(GcdId, GcdId) -> FaultKind>, rebuild: bool| -> (f64, bool) {
        let mut hip = HipSim::with_config(
            NodeTopology::frontier(),
            cfg.calib.clone(),
            EnvConfig::default(),
            cfg.seed,
        );
        let mut comm = RcclComm::new(&mut hip, (0..n).collect()).expect("comm");
        if let Some(kind) = fault {
            let a = comm.ring().order[0];
            let b = comm.ring().order[1];
            hip.set_fault_plan(FaultPlan::new().at(Time::from_ns(1.0), kind(a, b)))
                .expect("valid fault plan");
            hip.host_sleep(Dur::from_us(1.0));
        }
        if rebuild {
            comm.rebuild(&hip).expect("members still connected");
        }
        let mut send = Vec::new();
        let mut recv = Vec::new();
        for r in 0..n {
            hip.set_device(r).expect("dev");
            let s = hip.malloc(elems as u64 * 4).expect("send");
            let d = hip.malloc(elems as u64 * 4).expect("recv");
            hip.mem_mut()
                .fill_f32s(s, 0, elems, (r + 1) as f32)
                .expect("fill");
            send.push(s);
            recv.push(d);
        }
        let bufs = RankBuffers { send, recv };
        let d = comm
            .collective(&mut hip, Collective::AllReduce, &bufs, elems, 0)
            .expect("allreduce");
        let expect = (n * (n + 1) / 2) as f32;
        let correct = (0..n).all(|r| {
            hip.mem()
                .all_f32s(bufs.recv[r], 0, elems, |x| x == expect)
                .expect("read")
                .expect("real backing")
        });
        (d.as_us(), correct)
    };
    let (healthy_us, healthy_ok) = run(None, false);
    let (flaky_us, flaky_ok) = run(
        Some(|a, b| FaultKind::BitErrorRate {
            a,
            b,
            tax: 0.5,
            added_latency: Dur::from_us(5.0),
        }),
        false,
    );
    let (rebuilt_us, rebuilt_ok) = run(Some(|a, b| FaultKind::LinkDown { a, b }), true);

    let mut out = String::new();
    let _ = writeln!(out, "8-rank RCCL AllReduce, 1 MiB:");
    let _ = writeln!(
        out,
        "  healthy ring            {healthy_us:>9.1} us  correct: {healthy_ok}"
    );
    let _ = writeln!(
        out,
        "  ring edge at 50% BER    {flaky_us:>9.1} us  correct: {flaky_ok}"
    );
    let _ = writeln!(
        out,
        "  edge down, ring rebuilt {rebuilt_us:>9.1} us  correct: {rebuilt_ok}"
    );
    let checks = vec![
        Check::new(
            "every variant reduces to the exact sum",
            healthy_ok && flaky_ok && rebuilt_ok,
            format!("healthy {healthy_ok}, flaky {flaky_ok}, rebuilt {rebuilt_ok}"),
        ),
        Check::new(
            "a flaky ring edge paces the whole ring",
            flaky_us > 1.2 * healthy_us,
            format!("{healthy_us:.1} -> {flaky_us:.1} us"),
        ),
        Check::new(
            "the rebuilt ring completes in the same regime as healthy",
            (0.8..3.0).contains(&(rebuilt_us / healthy_us)),
            format!("{healthy_us:.1} -> {rebuilt_us:.1} us"),
        ),
    ];
    ExperimentResult {
        id: "ext-fault-allreduce-flaky",
        title: "AllReduce on a degraded fabric (extension)",
        rendered: out,
        csv: vec![],
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BenchConfig {
        let mut c = BenchConfig::quick();
        c.reps = 1;
        c
    }

    #[test]
    fn ext_fault_p2p_lanes_passes() {
        let r = ext_fault_p2p_lanes(&cfg());
        assert!(r.all_passed(), "{}", r.report());
    }

    #[test]
    fn ext_fault_link_down_passes() {
        let r = ext_fault_link_down(&cfg());
        assert!(r.all_passed(), "{}", r.report());
    }

    #[test]
    fn ext_fault_allreduce_flaky_passes() {
        let r = ext_fault_allreduce_flaky(&cfg());
        assert!(r.all_passed(), "{}", r.report());
    }
}
