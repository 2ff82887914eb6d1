//! xoshiro256** — the workhorse PRNG of the fault layer. Chosen over the
//! workspace's `pddl_tensor::Rng` so this crate stays leaf-level (telemetry
//! only) and any transport crate can wear it without a tensor dependency.

use pddl_telemetry::hash::splitmix64;

/// xoshiro256** seeded through SplitMix64, as recommended by the xoshiro
/// authors so that low-entropy seeds (0, 1, 2 …) still produce well-mixed
/// initial state.
#[derive(Clone, Debug)]
pub struct FaultRng {
    s: [u64; 4],
}

impl FaultRng {
    /// Seeds the generator; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || splitmix64(&mut sm);
        Self { s: [next(), next(), next(), next()] }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift range reduction (Lemire); the slight modulo bias of
        // plain `%` would be invisible here, but this is branch-free too.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// One random byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultRng::new(1);
        let mut b = FaultRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = FaultRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = FaultRng::new(9);
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
        assert_eq!(r.below(0), 0);
    }
}
