//! Order statistics shared by the workloads and the compare tool.

/// Median of `xs` (0.0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so a
/// spread printed here matches one recomputed from the result files.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Negative when the clamp moved j up, as in Python.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// A tail percentile: the highest one with at least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples that must lie strictly beyond a reported tail percentile.
const BEYOND: usize = 10;

/// The highest percentile with at least ten samples beyond it: with `n`
/// sorted samples that is sample `n - 11`, the `(n - 10) / n` percentile.
/// Below 21 samples that would not lie above the median, so the median
/// stands in, as p50.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n <= 2 * BEYOND {
        return Tail {
            value: median(xs),
            pct: 50.0,
            n,
        };
    }
    Tail {
        value: sorted(xs)[n - BEYOND - 1],
        pct: 100.0 * (n - BEYOND) as f64 / n as f64,
        n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for (n, pct) in [(100, 90.0), (500, 98.0), (50, 80.0), (8000, 99.875)] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).rev().collect();
            let t = tail(&xs);
            assert_eq!(t.n, n);
            assert!((t.pct - pct).abs() < 1e-9, "n={n}: p{}", t.pct);
            assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        }
    }

    #[test]
    fn tail_of_a_short_run_is_the_median() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.pct, t.n), (2.0, 50.0, 3));
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(
            tail(&xs).value,
            9.5,
            "20 samples: no percentile above p50 qualifies"
        );
        let xs: Vec<f64> = (0..21).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 10.0, "21 samples: p52.4, ten beyond");
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), (1.0, 4.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
