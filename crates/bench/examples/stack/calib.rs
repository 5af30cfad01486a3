//! Host-speed calibration.
//!
//! The benchmark host shares its cores with other tenants, whose load
//! slows whole seconds of a run by up to 1.7× while the process keeps all
//! its CPU time; even between such stretches the host's speed differs
//! from one run to the next by 5–10%. A fixed kernel that does not use the
//! program's code is timed next to the ops. An op's time divided by the
//! kernel's time around it — on either side of a batch step, or the median
//! within seconds of a request — is the op's cost in kernel units (`cal`),
//! from which most of that contention cancels.
//!
//! The kernel is four parts that the host's contention slows in different
//! measure — ordered-map churn, small allocations, a binary heap, binary
//! searches of a 256 KiB table — since no one of them tracks the
//! simulator under every load. The price of the units: a change that
//! speeds the kernel as much as the program (a build-profile flag, a
//! global allocator the kernel's allocations also use) cancels out of
//! them. The wall times printed beside them show such a change.

use crate::stats::median;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The kernel's median time on the reference host (a 2-vCPU x86-64 Xeon
/// VM shared with other tenants) in a quiet hour. `setup_s` must carry the
/// unit `s`, and seconds measured on that host moved by half between runs
/// and by more between hours, so it is kernel units times this constant:
/// seconds at the reference host's quiet speed, not seconds of the host
/// that ran it. The wall seconds of the run are reported beside it.
pub const REFERENCE_S: f64 = 0.6e-3;

/// Keys of the ordered-map part.
const MAP_KEYS: u64 = 1024;
/// Vectors of the allocation part.
const VECS: u64 = 1800;
/// Pops and pushes of the heap part, at depth 64.
const HOLDS: u64 = 4000;
/// Entries of the search part's sorted table: 256 KiB, inside one core's L2.
const TABLE: u64 = 1 << 15;
/// Binary searches of the search part, each keyed on the previous answer.
const LOOKUPS: u64 = 2048;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The search part's table, built once per process.
fn table() -> &'static [u64] {
    static T: OnceLock<Vec<u64>> = OnceLock::new();
    T.get_or_init(|| {
        let mut t: Vec<u64> = (0..TABLE).map(splitmix64).collect();
        t.sort_unstable();
        t
    })
}

/// The kernel, about 0.6 ms in all.
#[inline(never)]
fn kernel(table: &[u64]) {
    // Ordered map: insert pseudo-random keys, sort them, remove neighbours.
    let mut map = BTreeMap::new();
    let mut keys: Vec<u64> = (0..MAP_KEYS)
        .map(|i| splitmix64(i) % (2 * MAP_KEYS))
        .collect();
    for &k in &keys {
        map.insert(k, k);
    }
    keys.sort_unstable();
    for k in &keys {
        map.remove(&(k ^ 1));
    }
    black_box((map.len(), keys));

    // Small allocations of 1 to 24 words.
    let vecs: Vec<Vec<u64>> = (0..VECS)
        .map(|i| {
            let s = splitmix64(i);
            (0..s % 24 + 1).map(|x| x ^ s).collect()
        })
        .collect();
    black_box(vecs);

    // Binary heap: the discrete-event hold model.
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..64)
        .map(|i| Reverse((splitmix64(i) % 1000, i)))
        .collect();
    for i in 0..HOLDS {
        let Reverse((t, e)) = heap.pop().expect("depth stays 64");
        heap.push(Reverse((t + splitmix64(i) % 1000, e)));
    }
    black_box(heap);

    // Binary searches, each keyed on the previous answer.
    let mut acc = 0x5EED_u64;
    for i in 0..LOOKUPS {
        acc = acc.wrapping_add(table.partition_point(|&x| x < splitmix64(acc ^ i)) as u64);
    }
    black_box(acc);
}

/// One thread's kernel timings.
pub struct Calibrator {
    origin: Instant,
    table: &'static [u64],
    last: f64,
    spent: f64,
    /// `(seconds since origin when it finished, kernel seconds)`.
    samples: Vec<(f64, f64)>,
}

impl Calibrator {
    /// Start with one timing of the kernel; `origin` is the clock the
    /// sample times are read on.
    pub fn new(origin: Instant) -> Calibrator {
        let mut c = Calibrator {
            origin,
            table: table(),
            last: 0.0,
            spent: 0.0,
            samples: Vec::new(),
        };
        c.sample();
        c
    }

    /// Time the kernel once and keep the timing.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        kernel(black_box(self.table));
        let s = t0.elapsed().as_secs_f64();
        self.spent += s;
        self.samples.push((self.origin.elapsed().as_secs_f64(), s));
        self.last = s;
        s
    }

    /// Time the kernel now and return the mean of this timing and the
    /// previous one: the host's speed over the interval between them.
    pub fn tick(&mut self) -> f64 {
        let before = self.last;
        (before + self.sample()) / 2.0
    }

    /// Seconds spent in the kernel so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Every kernel timing so far, in seconds.
    pub fn timings(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|&(_, s)| s)
    }
}

/// Kernel timings of several threads on one clock, for ops that ran on
/// threads the bench does not control (the server's workers).
pub struct Timeline {
    samples: Vec<(f64, f64)>,
}

impl Timeline {
    /// Merge the threads' timings.
    pub fn new<'a>(parts: impl IntoIterator<Item = &'a Calibrator>) -> Timeline {
        let mut samples: Vec<(f64, f64)> = parts
            .into_iter()
            .flat_map(|c| c.samples.iter().copied())
            .collect();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        Timeline { samples }
    }

    /// Median kernel time of every thread's timings within `window` of
    /// `at` (seconds on the shared clock), or of all timings when none
    /// falls there.
    pub fn near(&self, at: f64, window: Duration) -> f64 {
        let w = window.as_secs_f64();
        let lo = self.samples.partition_point(|s| s.0 < at - w);
        let hi = self.samples.partition_point(|s| s.0 <= at + w);
        let near = if lo < hi {
            &self.samples[lo..hi]
        } else {
            &self.samples[..]
        };
        median(&near.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_takes_the_median_of_nearby_timings_of_every_thread() {
        let t = Timeline {
            samples: vec![(0.0, 1.0), (0.5, 3.0), (0.55, 5.0), (0.6, 9.0), (2.0, 7.0)],
        };
        let window = Duration::from_millis(100);
        assert_eq!(t.near(0.5, window), 5.0, "three timings near");
        assert_eq!(t.near(1.1, window), 5.0, "none near: all of them");
        assert_eq!(t.near(2.0, Duration::from_secs(5)), 5.0);
        assert_eq!(Timeline { samples: vec![] }.near(0.0, window), 0.0);
    }
}
