//! The `p2pBandwidthLatencyTest` port: all-pairs peer latency and
//! unidirectional bandwidth matrices (paper Fig. 6), plus the shortest-path
//! hop matrix (Fig. 6a).

use crate::config::BenchConfig;
use crate::report::Matrix;
use ifsim_des::units::{bw_bytes_per_sec, to_gbps};
use ifsim_des::Summary;
use ifsim_hip::{EnvConfig, HipSim, NodeTopology};

/// Fig. 6a: shortest-path hop counts between all GCD pairs.
pub fn hop_matrix() -> Matrix {
    let topo = NodeTopology::frontier();
    let table = ifsim_topology::hop_matrix(&topo, topo.routes());
    let n = table.len();
    let mut m = Matrix::new("shortest path length", "hops", n);
    for (i, row) in table.iter().enumerate() {
        for (j, &h) in row.iter().enumerate() {
            if i != j {
                m.set(i, j, h as f64);
            }
        }
    }
    m
}

/// Fig. 6b: `hipMemcpyPeerAsync` latency, 16-byte transfers timed with HIP
/// events, 100 repetitions per pair (as in the original).
pub fn latency_matrix(cfg: &BenchConfig) -> Matrix {
    let mut hip = cfg.runtime(EnvConfig::default());
    hip.enable_all_peer_access().expect("peer access");
    let n = hip.device_count();
    let mut m = Matrix::new("peer-to-peer latency", "us", n);
    let reps = 100;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            m.set(i, j, measure_latency_us(&mut hip, i, j, reps));
        }
    }
    m
}

fn measure_latency_us(hip: &mut HipSim, src_dev: usize, dst_dev: usize, reps: usize) -> f64 {
    hip.set_device(src_dev).expect("src device");
    let src = hip.malloc(64).expect("src");
    hip.set_device(dst_dev).expect("dst device");
    let dst = hip.malloc(64).expect("dst");
    hip.set_device(src_dev).expect("src device");
    let stream = hip.default_stream(src_dev).expect("stream");
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = hip.event_create();
        let stop = hip.event_create();
        hip.event_record(start, stream).expect("record");
        hip.memcpy_peer_async(dst, dst_dev, src, src_dev, 16, stream)
            .expect("peer copy");
        hip.event_record(stop, stream).expect("record");
        hip.stream_synchronize(stream).expect("sync");
        samples.push(hip.event_elapsed_ms(start, stop).expect("elapsed") * 1e3);
    }
    let us = Summary::from_samples(&samples).mean;
    hip.free(src).expect("free");
    hip.free(dst).expect("free");
    us
}

/// Fig. 6c: unidirectional `hipMemcpyPeer` bandwidth between all pairs.
pub fn bandwidth_matrix(cfg: &BenchConfig, bytes: u64) -> Matrix {
    let mut hip = cfg.runtime(EnvConfig::default());
    hip.enable_all_peer_access().expect("peer access");
    let n = hip.device_count();
    let mut m = Matrix::new("peer-to-peer unidirectional bandwidth", "GB/s", n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            hip.set_device(i).expect("src device");
            let src = hip.malloc(bytes).expect("src");
            hip.set_device(j).expect("dst device");
            let dst = hip.malloc(bytes).expect("dst");
            hip.set_device(i).expect("src device");
            let mut samples = Vec::new();
            for rep in 0..cfg.warmup + cfg.reps {
                ifsim_des::cancel::checkpoint();
                let t0 = hip.now();
                hip.memcpy_peer(dst, j, src, i, bytes).expect("peer copy");
                if rep >= cfg.warmup {
                    samples.push(to_gbps(bw_bytes_per_sec(bytes as f64, hip.now() - t0)));
                }
            }
            m.set(i, j, Summary::from_samples(&samples).mean);
            hip.free(src).expect("free");
            hip.free(dst).expect("free");
        }
    }
    m
}

/// Bidirectional `hipMemcpyPeer` bandwidth between all pairs: two async
/// copies in opposite directions, total moved bytes over elapsed time.
/// The full `p2pBandwidthLatencyTest` reports this alongside the
/// unidirectional matrix; SDMA engines are per-direction, so wide links
/// double while single links run both directions at 75 % each.
pub fn bandwidth_matrix_bidir(cfg: &BenchConfig, bytes: u64) -> Matrix {
    let mut hip = cfg.runtime(EnvConfig::default());
    hip.enable_all_peer_access().expect("peer access");
    let n = hip.device_count();
    let mut m = Matrix::new("peer-to-peer bidirectional bandwidth", "GB/s", n);
    for i in 0..n {
        for j in (i + 1)..n {
            hip.set_device(i).expect("device i");
            let buf_i_src = hip.malloc(bytes).expect("src i");
            let buf_i_dst = hip.malloc(bytes).expect("dst i");
            hip.set_device(j).expect("device j");
            let buf_j_src = hip.malloc(bytes).expect("src j");
            let buf_j_dst = hip.malloc(bytes).expect("dst j");
            let si = hip.default_stream(i).expect("stream i");
            let sj = hip.default_stream(j).expect("stream j");
            let mut samples = Vec::new();
            for rep in 0..cfg.warmup + cfg.reps {
                ifsim_des::cancel::checkpoint();
                let t0 = hip.now();
                hip.memcpy_peer_async(buf_j_dst, j, buf_i_src, i, bytes, si)
                    .expect("i->j");
                hip.memcpy_peer_async(buf_i_dst, i, buf_j_src, j, bytes, sj)
                    .expect("j->i");
                hip.synchronize_all().expect("sync");
                if rep >= cfg.warmup {
                    samples.push(to_gbps(bw_bytes_per_sec(
                        2.0 * bytes as f64,
                        hip.now() - t0,
                    )));
                }
            }
            let bw = Summary::from_samples(&samples).mean;
            m.set(i, j, bw);
            m.set(j, i, bw);
            for b in [buf_i_src, buf_i_dst, buf_j_src, buf_j_dst] {
                hip.free(b).expect("free");
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifsim_des::units::MIB;

    #[test]
    fn hop_matrix_matches_fig6a() {
        let m = hop_matrix();
        assert_eq!(m.n(), 8);
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(0, 7), Some(2.0));
        assert_eq!(m.max_off_diagonal(), 2.0);
    }

    #[test]
    fn latency_matrix_reproduces_fig6b() {
        let mut cfg = BenchConfig::quick();
        cfg.reps = 1;
        let m = latency_matrix(&cfg);
        // Global range: 8.7 - 18.2 µs.
        assert!(
            (8.4..9.2).contains(&m.min_off_diagonal()),
            "min {}",
            m.min_off_diagonal()
        );
        assert!(
            (17.4..18.8).contains(&m.max_off_diagonal()),
            "max {}",
            m.max_off_diagonal()
        );
        // Single-link pairs below 10 µs.
        for (a, b) in [(0, 2), (1, 3), (1, 5), (3, 7), (4, 6), (5, 7)] {
            assert!(m.get(a, b).unwrap() < 10.0, "{a}-{b}");
            assert!(m.get(b, a).unwrap() < 10.0, "{b}-{a}");
        }
        // Same-package pairs 10.5-10.8 µs (±jitter).
        for (a, b) in [(0, 1), (2, 3), (4, 5), (6, 7)] {
            let v = m.get(a, b).unwrap();
            assert!((10.2..11.0).contains(&v), "{a}-{b}: {v}");
        }
        // The outliers are exactly 1-7 and 3-5.
        for (a, b) in [(1, 7), (3, 5)] {
            let v = m.get(a, b).unwrap();
            assert!(v > 17.0, "outlier {a}-{b}: {v}");
        }
    }

    #[test]
    fn bidirectional_matrix_doubles_where_engines_allow() {
        let m = bandwidth_matrix_bidir(&BenchConfig::quick(), 128 * MIB);
        // Quad link (0-1): two SDMA engines at ~50 each ≈ 100 total.
        let quad = m.get(0, 1).unwrap();
        assert!((95.0..102.0).contains(&quad), "quad bidir {quad}");
        // Single link (0-2): 37.5 each way on separate wire directions.
        let single = m.get(0, 2).unwrap();
        assert!((71.0..77.0).contains(&single), "single bidir {single}");
        // Symmetric by construction.
        assert_eq!(m.get(2, 0), m.get(0, 2));
    }

    #[test]
    fn bandwidth_matrix_reproduces_fig6c_two_level_structure() {
        let m = bandwidth_matrix(&BenchConfig::quick(), 256 * MIB);
        for i in 0..8 {
            for j in 0..8 {
                if i == j {
                    continue;
                }
                let v = m.get(i, j).unwrap();
                // Every pair lands at either ~37.5 (single link, 75 %) or
                // ~50 (engine cap) — never the 100/200 GB/s links suggest.
                assert!(
                    (36.5..38.5).contains(&v) || (49.0..51.0).contains(&v),
                    "{i}->{j}: {v} GB/s"
                );
            }
        }
        // Same-package pairs are engine-capped at ~50, not 200.
        for (a, b) in [(0usize, 1usize), (2, 3), (4, 5), (6, 7)] {
            let v = m.get(a, b).unwrap();
            assert!((49.0..51.0).contains(&v), "{a}-{b}: {v}");
        }
    }
}
