//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component in the workspace (weight initialization,
//! train/test splits, simulator noise, synthetic architecture sampling,
//! injected wire faults, retry jitter, fuzz cases) draws from this one
//! generator so that runs are reproducible from a single `u64` seed. The
//! core is xoshiro256** seeded through SplitMix64 ([`splitmix64`]), the
//! construction recommended by the xoshiro authors. It lives here, std-only
//! beside the hash it seeds from, so that crates below the tensor layer
//! (`pddl-faults`, the wire clients) share it; `pddl_tensor` re-exports it.

use crate::hash::splitmix64;

/// A seeded xoshiro256** generator.
///
/// Not cryptographically secure; statistical quality is more than sufficient
/// for simulation noise and weight initialization.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed. Distinct seeds give statistically
    /// independent streams (seeded through SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent child generator; used to give each parallel
    /// worker its own stream without sharing mutable state.
    pub fn fork(&mut self, stream: u64) -> Rng {
        Rng::new(self.next_u64() ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        self.next_f64() as f32
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)`, `n > 0`. Uses Lemire's multiply-shift
    /// reduction on the full 64-bit draw; the modulo bias is negligible for
    /// the range sizes used here.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// One uniform byte: the top eight bits of the next draw.
    #[inline]
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box–Muller (one value per call; the pair's second
    /// half is discarded to keep the generator stateless across calls).
    pub fn normal(&mut self) -> f32 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE); // avoid ln(0)
        let u2 = self.next_f64();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Normal with mean `mu` and standard deviation `sigma`.
    #[inline]
    pub fn normal_with(&mut self, mu: f32, sigma: f32) -> f32 {
        mu + sigma * self.normal()
    }

    /// Lognormal multiplicative noise factor with median 1 and log-space
    /// standard deviation `sigma`; used by the training-time simulator.
    #[inline]
    pub fn lognormal_factor(&mut self, sigma: f32) -> f32 {
        (sigma * self.normal()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: only the first k swaps are needed.
        for i in 0..k {
            let j = self.range(i, n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Picks one element of a slice uniformly.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

/// Seeded property loop — the workspace's stand-in for a property-testing
/// crate. Runs `property` on `cases` generators with fixed, distinct seeds
/// (every run draws the same cases); when one fails, the panic is re-raised
/// with the case's seed in its message, so `property(&mut Rng::new(seed))`
/// replays exactly that case.
pub fn for_each_case(cases: u64, property: impl Fn(&mut Rng)) {
    let mut state = 0;
    for case in 0..cases {
        let seed = splitmix64(&mut state);
        let run = std::panic::AssertUnwindSafe(|| property(&mut Rng::new(seed)));
        if let Err(payload) = std::panic::catch_unwind(run) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("panicked");
            panic!("case {case} of {cases}, Rng::new({seed:#x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn for_each_case_replays_from_the_reported_seed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let runs = AtomicU64::new(0);
        for_each_case(12, |_| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 12);

        // A property that fails on its third case: the re-raised message
        // names a seed whose generator reproduces that case's first draw.
        let draws = std::sync::Mutex::new(Vec::new());
        let failing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_case(12, |rng| {
                let mut seen = draws.lock().unwrap();
                seen.push(rng.next_u64());
                assert!(seen.len() < 3, "third case fails");
            })
        }));
        let payload = failing.expect_err("the failure propagates");
        let msg = payload.downcast_ref::<String>().expect("formatted message");
        assert!(msg.starts_with("case 2 of 12, Rng::new(0x") && msg.ends_with("third case fails"));
        let hex = &msg[msg.find("0x").unwrap() + 2..msg.find(')').unwrap()];
        let seed = u64::from_str_radix(hex, 16).unwrap();
        let draws = draws.into_inner().unwrap_or_else(|e| e.into_inner());
        assert_eq!(Rng::new(seed).next_u64(), draws[2]);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = Rng::new(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal() as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64().to_be_bytes()[0], b.byte());
            assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    /// `below` is the multiply-shift of the full 64-bit draw for any bound
    /// up to `usize::MAX` (the retry jitter draws nanosecond bounds).
    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(9);
        let mut twin = Rng::new(9);
        for n in [1usize, 2, 3, 10, 1000, 1 << 40, usize::MAX] {
            for _ in 0..200 {
                let v = r.below(n);
                assert!(v < n);
                assert_eq!(v, ((twin.next_u64() as u128 * n as u128) >> 64) as usize);
            }
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(3);
        for n in [1usize, 2, 3, 17, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = Rng::new(9);
        let idx = r.sample_indices(50, 20);
        assert_eq!(idx.len(), 20);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(idx.iter().all(|&i| i < 50));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(5);
        let mut xs: Vec<usize> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn lognormal_factor_median_near_one() {
        let mut r = Rng::new(13);
        let mut xs: Vec<f32> = (0..10_001).map(|_| r.lognormal_factor(0.3)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[5000];
        assert!((median - 1.0).abs() < 0.05, "median={median}");
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = Rng::new(21);
        let mut a = parent.fork(0);
        let mut b = parent.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
