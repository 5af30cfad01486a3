//! The paper's findings, sentence by sentence, as executable tests.
//!
//! Each test quotes the claim (with its section) and asserts that the
//! simulator reproduces it through the public API. This file is the
//! living-documentation counterpart of EXPERIMENTS.md: if a recalibration
//! or model change breaks a finding, the failing test names the sentence.

use ifsim::coll::Collective;
use ifsim::des::units::{GIB, MIB};
use ifsim::microbench::comm_scope::{h2d_bandwidth, numa_to_gpu_matrix, H2dInterface};
use ifsim::microbench::p2p_matrix::{bandwidth_matrix, latency_matrix};
use ifsim::microbench::stream::{
    direct_p2p_unidirectional, local_stream, multi_gpu_host_stream, peer_stream_peaks,
};
use ifsim::microbench::{osu, rccl_tests, BenchConfig};

fn cfg() -> BenchConfig {
    let mut c = BenchConfig::quick();
    c.reps = 1;
    c
}

// ---------------------------------------------------------------- §IV-A --

#[test]
fn claim_4a_we_achieve_a_maximum_bandwidth_of_28_3_gbs_with_pinned_memory() {
    // "We achieve a maximum bandwidth of 28.3 GB/s, with explicit data
    //  transfer from pinned memory."
    let bw = h2d_bandwidth(&cfg(), H2dInterface::MemcpyPinned, GIB);
    assert!((bw - 28.3).abs() < 0.4, "{bw} GB/s");
}

#[test]
fn claim_4a_managed_memory_with_page_migration_only_achieved_2_8_gbs() {
    // "managed memory with page migration only achieved 2.8 GB/s"
    let bw = h2d_bandwidth(&cfg(), H2dInterface::ManagedMigration, 256 * MIB);
    assert!((bw - 2.8).abs() < 0.3, "{bw} GB/s");
}

#[test]
fn claim_4a_managed_zero_copy_achieves_a_highest_bandwidth_of_25_5_gbs() {
    // "managed memory with zero-copy access achieves a highest bandwidth
    //  of 25.5 GB/s"
    let c = cfg();
    let peak = [32 * MIB, 256 * MIB, GIB]
        .iter()
        .map(|&s| h2d_bandwidth(&c, H2dInterface::ManagedZeroCopy, s))
        .fold(f64::MIN, f64::max);
    assert!((peak - 25.5).abs() < 0.4, "{peak} GB/s");
}

#[test]
fn claim_4a_zero_copy_approximates_pinned_up_to_32_mb_then_pinned_reaches_higher() {
    // "zero-copy managed memory approximate the behavior of pinned memory,
    //  up to 32 MB transfer size, after which pinned memory bandwidth is
    //  able to reach higher value than managed memory."
    let c = cfg();
    let below = h2d_bandwidth(&c, H2dInterface::ManagedZeroCopy, 16 * MIB)
        / h2d_bandwidth(&c, H2dInterface::MemcpyPinned, 16 * MIB);
    let above = h2d_bandwidth(&c, H2dInterface::ManagedZeroCopy, 512 * MIB)
        / h2d_bandwidth(&c, H2dInterface::MemcpyPinned, 512 * MIB);
    assert!(below > 0.95, "tracks below 32 MiB: ratio {below}");
    assert!(above < 0.93, "pinned ahead above 32 MiB: ratio {above}");
}

// ---------------------------------------------------------------- §IV-B --

#[test]
fn claim_4b_no_bandwidth_degradation_for_non_optimal_numa_gcd_combinations() {
    // "we were not able to identify any bandwidth degradation when
    //  performing a copy operation within a non-optimal combination of
    //  NUMA node/GCD."
    let m = numa_to_gpu_matrix(&cfg(), 256 * MIB);
    assert!(m.max_off_diagonal() / m.min_off_diagonal() < 1.05);
}

// ---------------------------------------------------------------- §IV-C --

#[test]
fn claim_4c_only_the_spread_strategy_scales_correctly() {
    // "We observe that only the spread strategy scales correctly, as the
    //  bandwidth double from one to two GCDs in the spread placement
    //  strategy."
    let c = cfg();
    let one = multi_gpu_host_stream(&c, &[0], 64 * MIB);
    let same = multi_gpu_host_stream(&c, &[0, 1], 64 * MIB);
    let spread = multi_gpu_host_stream(&c, &[0, 2], 64 * MIB);
    assert!(
        (spread / one - 2.0).abs() < 0.15,
        "spread doubles: {}",
        spread / one
    );
    assert!(same / one < 1.1, "same GPU does not: {}", same / one);
}

#[test]
fn claim_4c_using_eight_gcds_does_not_improve_over_four() {
    // "using eight GCDs does not improve the aggregated bandwidth,
    //  compared to four GCDs."
    let c = cfg();
    let four = multi_gpu_host_stream(&c, &[0, 2, 4, 6], 64 * MIB);
    let eight = multi_gpu_host_stream(&c, &(0..8).collect::<Vec<_>>(), 64 * MIB);
    assert!(eight / four < 1.05, "{four} -> {eight}");
}

// ---------------------------------------------------------------- §V-A1 --

#[test]
fn claim_5a1_the_measured_latency_varies_within_8_7_to_18_2_us() {
    // "The measured latency varies within 8.7-18.2 µs."
    let m = latency_matrix(&cfg());
    assert!(
        (m.min_off_diagonal() - 8.7).abs() < 0.4,
        "{}",
        m.min_off_diagonal()
    );
    assert!(
        (m.max_off_diagonal() - 18.2).abs() < 0.6,
        "{}",
        m.max_off_diagonal()
    );
}

#[test]
fn claim_5a1_same_gpu_latency_is_not_consistently_lower_than_other_pairs() {
    // "The latency measured between GCDs located on the same physical GPU
    //  is between 10.5-10.8 µs, which is not consistently lower that
    //  latency measured for other pairs of GCDs."
    let m = latency_matrix(&cfg());
    let same_gpu = m.get(0, 1).unwrap();
    assert!((10.3..11.0).contains(&same_gpu), "{same_gpu}");
    // Single-link pair 0-2 is *faster* than same-package 0-1.
    assert!(m.get(0, 2).unwrap() < same_gpu);
}

#[test]
fn claim_5a1_the_latency_outliers_are_the_pairs_whose_best_route_is_three_hops() {
    // "we observe four outliers, with latency values within 17.8-18.2 µs,
    //  corresponding to the GCD pairs 1-7 and 5-3 ... the only ones for
    //  which the bandwidth-maximizing path is not the shortest path."
    let m = latency_matrix(&cfg());
    for (a, b) in [(1, 7), (7, 1), (3, 5), (5, 3)] {
        let v = m.get(a, b).unwrap();
        assert!((17.4..18.6).contains(&v), "{a}-{b}: {v}");
    }
    let m_sorted: Vec<f64> = {
        let mut v: Vec<f64> = (0..8)
            .flat_map(|i| (0..8).filter_map(move |j| if i != j { Some((i, j)) } else { None }))
            .map(|(i, j)| m.get(i, j).unwrap())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    // Exactly four outlier entries at the top.
    assert!(m_sorted[m_sorted.len() - 4] > 17.0);
    assert!(m_sorted[m_sorted.len() - 5] < 15.0);
}

// ---------------------------------------------------------------- §V-A2 --

#[test]
fn claim_5a2_results_divide_into_two_bandwidth_values_50_and_37_38() {
    // "We can divide the results into two values of bandwidth: 50 GB/s
    //  and 37-38 GB/s."
    let m = bandwidth_matrix(&cfg(), 256 * MIB);
    for i in 0..8 {
        for j in 0..8 {
            if i == j {
                continue;
            }
            let v = m.get(i, j).unwrap();
            assert!(
                (36.8..38.2).contains(&v) || (49.2..50.5).contains(&v),
                "{i}->{j}: {v}"
            );
        }
    }
}

#[test]
fn claim_5a2_same_gpu_pairs_are_on_the_order_of_50_not_the_expected_200() {
    // "the bandwidth measured for GCD pairs located on the same GPU ...
    //  is on the order of 50 GB/s, which is significantly below the
    //  expected 200 GB/s bandwidth."
    let m = bandwidth_matrix(&cfg(), 256 * MIB);
    for (a, b) in [(0, 1), (2, 3), (4, 5), (6, 7)] {
        let v = m.get(a, b).unwrap();
        assert!((49.0..51.0).contains(&v), "{a}-{b}: {v}");
    }
}

#[test]
fn claim_5a2_utilization_is_75_50_25_percent_for_single_dual_quad_links() {
    // "The bandwidth utilization for single, double, and quad Infinity
    //  Fabric links is 75%, 50% and 25%, respectively."
    let series = ifsim::microbench::comm_scope::p2p_sweep(&cfg(), &[1, 2, 6], &[GIB]);
    assert!((series[1].peak() / 50.0 - 0.75).abs() < 0.02); // single
    assert!((series[2].peak() / 100.0 - 0.50).abs() < 0.02); // dual
    assert!((series[0].peak() / 200.0 - 0.25).abs() < 0.02); // quad
}

// ----------------------------------------------------------------- §V-B --

#[test]
fn claim_5b_local_stream_reaches_1400_gbs_87_percent_of_peak() {
    // "we observe a bandwidth of 1400 GB/s - that is, 87% of the
    //  theoretical 1.6 TB/s memory bandwidth."
    let bw = local_stream(&cfg(), 256 * MIB);
    assert!((bw - 1400.0).abs() < 30.0, "{bw}");
}

#[test]
fn claim_5b_direct_access_achieves_43_44_percent_on_all_three_tiers() {
    // "For all placements, we observe that the achieved ratio of
    //  theoretical peak is 43-44%."
    for (_, _, ratio) in peer_stream_peaks(&cfg(), &[1, 2, 6], 512 * MIB) {
        assert!((0.42..0.45).contains(&ratio), "{ratio}");
    }
}

#[test]
fn claim_5b_kernel_access_does_not_hit_the_sdma_bottleneck() {
    // "We do not observe the same bottleneck as identified when using
    //  hipMemcpy APIs, where using a quad Infinity Fabric link does not
    //  provide any improvement over using a dual link."
    let peaks = peer_stream_peaks(&cfg(), &[1, 6], 512 * MIB);
    let quad = peaks[0].1;
    let dual = peaks[1].1;
    assert!(quad > 1.8 * dual, "quad {quad} vs dual {dual}");
}

// ----------------------------------------------------------------- §V-C --

#[test]
fn claim_5c_sdma_enabled_mpi_only_reaches_50_gbs_on_wide_links() {
    // "the SDMA-enabled MPI transfer only reaches 50 GB/s - below 50% for
    //  a dual Infinity Fabric link, and 25% for a quad link."
    let c = cfg();
    let quad = osu::osu_p2p_bw(&c, 1, GIB, true);
    let dual = osu::osu_p2p_bw(&c, 6, GIB, true);
    assert!((quad - 50.0).abs() < 1.0, "{quad}");
    assert!((dual - 50.0).abs() < 1.0, "{dual}");
}

#[test]
fn claim_5c_sdma_disabled_mpi_is_10_to_15_percent_below_the_direct_kernel() {
    // "the SDMA-disabled MPI transfer exhibits a 10-15% lower bandwidth
    //  than the direct peer-to-peer copy kernel."
    let c = cfg();
    for dst in [1usize, 2, 6] {
        let mpi = osu::osu_p2p_bw(&c, dst, GIB, false);
        let direct = direct_p2p_unidirectional(&c, dst, GIB);
        let deficit = 1.0 - mpi / direct;
        assert!((0.09..0.16).contains(&deficit), "GCD{dst}: {deficit}");
    }
}

#[test]
fn claim_5c_non_neighbor_gcds_show_no_significant_difference() {
    // "transferring data from GCD0 to a non-neighbor GCD, namely
    //  GCD3,4,5,7, does not exhibit significant difference in measured
    //  bandwidth compared to neighbor GCDs."
    let c = cfg();
    let neighbor = osu::osu_p2p_bw(&c, 2, GIB, true);
    for dst in [3usize, 4, 5] {
        let bw = osu::osu_p2p_bw(&c, dst, GIB, true);
        assert!((bw - neighbor).abs() / neighbor < 0.05, "GCD{dst}: {bw}");
    }
}

// ------------------------------------------------------------------ §VI --

#[test]
fn claim_6_two_thread_all_to_all_latency_is_close_to_the_17_4_us_bound() {
    // "For two threads, the lowest measured latency for all-to-all
    //  collectives is close to the lowest bound of 17.4 µs."
    let c = cfg();
    let lowest = [
        Collective::AllReduce,
        Collective::ReduceScatter,
        Collective::AllGather,
    ]
    .iter()
    .map(|&coll| rccl_tests::rccl_collective_latency(&c, coll, 2, MIB))
    .fold(f64::MAX, f64::min);
    assert!((10.0..22.0).contains(&lowest), "{lowest} µs vs 17.4 bound");
}

#[test]
fn claim_6_latency_drops_from_7_to_8_threads_for_rooted_and_allreduce() {
    // "for Reduce, Broadcast, and AllReduce collectives, the latency drops
    //  when increasing from 7 to 8 threads"
    let c = cfg();
    for coll in [
        Collective::Reduce,
        Collective::Broadcast,
        Collective::AllReduce,
    ] {
        let at7 = rccl_tests::rccl_collective_latency(&c, coll, 7, MIB);
        let at8 = rccl_tests::rccl_collective_latency(&c, coll, 8, MIB);
        assert!(at8 < at7, "{}: {at7} -> {at8}", coll.name());
    }
}

#[test]
fn claim_6_rccl_is_more_efficient_than_mpi_except_for_broadcast() {
    // "Our evaluation results show that RCCL is more efficient than MPI
    //  collectives for all tested collectives, except for broadcast."
    let c = cfg();
    for coll in Collective::ALL {
        let rccl = rccl_tests::rccl_collective_latency(&c, coll, 8, MIB);
        let mpi = osu::mpi_collective_latency(&c, coll, 8, MIB);
        if coll == Collective::Broadcast {
            assert!(mpi < rccl, "Broadcast: MPI {mpi} vs RCCL {rccl}");
        } else {
            assert!(rccl < mpi, "{}: RCCL {rccl} vs MPI {mpi}", coll.name());
        }
    }
    // A solver's scalar dot-product reduction (§I's CG context): at 4 bytes
    // the AllReduce is pure latency, and RCCL still wins.
    let rccl = rccl_tests::rccl_collective_latency(&c, Collective::AllReduce, 8, 4);
    let mpi = osu::mpi_collective_latency(&c, Collective::AllReduce, 8, 4);
    assert!(rccl < mpi, "4 B AllReduce: RCCL {rccl} vs MPI {mpi}");
}
