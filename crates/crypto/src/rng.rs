//! The workspace RNG handle.
//!
//! Every component that needs entropy takes a `&mut CryptoRng` rather
//! than reaching for ambient randomness, so whole experiments are
//! reproducible from a single seed — a core requirement for the
//! deterministic reproduction of the paper's measurements.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A seedable cryptographically strong RNG (ChaCha-based `StdRng`).
pub struct CryptoRng {
    inner: StdRng,
}

impl CryptoRng {
    /// Deterministic RNG from a 64-bit seed. Used by every test and
    /// experiment in the workspace.
    pub fn from_seed(seed: u64) -> Self {
        CryptoRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Fill `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// A random array (convenience for nonces and keys).
    pub fn gen_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }

    /// Uniform u64.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[0, bound)`. Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform f64 in [0, 1).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fork a child RNG whose stream is independent of later use of
    /// this one (used to hand RNGs to sim components).
    pub fn fork(&mut self) -> CryptoRng {
        CryptoRng::from_seed(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = CryptoRng::from_seed(7);
        let mut b = CryptoRng::from_seed(7);
        assert_eq!(a.gen_array::<16>(), b.gen_array::<16>());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = CryptoRng::from_seed(1);
        let mut b = CryptoRng::from_seed(2);
        assert_ne!(a.gen_array::<32>(), b.gen_array::<32>());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = CryptoRng::from_seed(3);
        for _ in 0..1000 {
            assert!(rng.gen_range(17) < 17);
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = CryptoRng::from_seed(4);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut a = CryptoRng::from_seed(5);
        let mut child = a.fork();
        let x = child.next_u64();
        let mut b = CryptoRng::from_seed(5);
        let mut child2 = b.fork();
        assert_eq!(x, child2.next_u64());
    }
}
