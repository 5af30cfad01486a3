//! Property tests for the discrete-event core: ordering, determinism, and
//! statistics invariants under randomized inputs.

use ifsim_des::{stats, Dur, EventQueue, Rng, Summary, Time};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever order events are inserted, they pop in nondecreasing time
    /// order, with FIFO tie-breaking preserved.
    #[test]
    fn queue_pops_sorted_with_stable_ties(times in proptest::collection::vec(0u32..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t as f64), i);
        }
        let mut last: Option<(f64, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t.as_ns() >= lt);
                if t.as_ns() == lt {
                    prop_assert!(idx > lidx, "FIFO among ties");
                }
            }
            last = Some((t.as_ns(), idx));
        }
    }

    /// Summary statistics are permutation-invariant and self-consistent.
    #[test]
    fn summary_invariants(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let a = Summary::from_samples(&xs);
        xs.reverse();
        let b = Summary::from_samples(&xs);
        prop_assert_eq!(a, b);
        prop_assert!(a.min <= a.median && a.median <= a.max);
        prop_assert!(a.min <= a.mean && a.mean <= a.max);
        prop_assert!(a.stddev >= 0.0);
        prop_assert_eq!(a.n, xs.len());
    }

    /// Percentiles are monotone in p and bounded by the extremes.
    #[test]
    fn percentiles_are_monotone(xs in proptest::collection::vec(0f64..1e3, 1..50), p1 in 0f64..100.0, p2 in 0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&xs, lo);
        let b = stats::percentile(&xs, hi);
        prop_assert!(a <= b + 1e-12);
        prop_assert!(a >= stats::percentile(&xs, 0.0) - 1e-12);
        prop_assert!(b <= stats::percentile(&xs, 100.0) + 1e-12);
    }

    /// The RNG's jitter factor is always positive and within its clamp, and
    /// the stream is reproducible from the seed.
    #[test]
    fn rng_jitter_is_clamped_and_reproducible(seed in any::<u64>(), rel in 0.001f64..0.3) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..100 {
            let fa = a.jitter(rel);
            prop_assert_eq!(fa, b.jitter(rel));
            prop_assert!(fa > 0.0);
            prop_assert!(fa <= 1.0 + 3.0 * rel + 1e-12);
        }
    }

    /// Time/duration arithmetic round-trips through bytes-at-rate.
    #[test]
    fn duration_for_bytes_roundtrips(bytes in 1f64..1e12, rate in 1e3f64..1e12) {
        let d = Dur::for_bytes(bytes, rate);
        let recovered = d.as_secs() * rate;
        prop_assert!((recovered - bytes).abs() / bytes < 1e-9);
    }
}
