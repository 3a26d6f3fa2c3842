//! Seeded pseudo-random numbers: SplitMix64.
//!
//! SplitMix64 (Steele, Lea, Flood; OOPSLA 2014) passes BigCrush, needs only
//! one 64-bit word of state, and — unlike library generators — its exact
//! output sequence is pinned down by this file, so seeded workloads are
//! reproducible forever regardless of dependency versions.

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed. Equal seeds yield equal sequences.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn gen_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next uniformly random 32 bits.
    pub fn gen_u32(&mut self) -> u32 {
        (self.gen_u64() >> 32) as u32
    }

    /// Next uniformly random 16 bits.
    pub fn gen_u16(&mut self) -> u16 {
        (self.gen_u64() >> 48) as u16
    }

    /// Uniform in `[0, bound)` (`bound > 0`), by rejection from the top bits
    /// so the distribution is exactly uniform.
    pub fn gen_range(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_range bound must be positive");
        let bound = bound as u64;
        // Lemire-style: rejection zone keeps the multiply-shift unbiased.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.gen_u64();
            if v < zone {
                return (v % bound) as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_and_deterministic() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
        let mut c = Rng::seed_from_u64(8);
        assert_ne!(Rng::seed_from_u64(7).gen_u64(), c.gen_u64());
    }

    #[test]
    fn known_splitmix_vector() {
        // Reference sequence for seed 1234567 (from the public-domain
        // splitmix64.c by Sebastiano Vigna).
        let mut r = Rng::seed_from_u64(1234567);
        assert_eq!(r.gen_u64(), 6457827717110365317);
        assert_eq!(r.gen_u64(), 3203168211198807973);
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = Rng::seed_from_u64(1);
        for bound in [1usize, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn u16_has_uniform_popcount() {
        let mut r = Rng::seed_from_u64(42);
        let mean = (0..4096)
            .map(|_| r.gen_u16().count_ones() as f64)
            .sum::<f64>()
            / 4096.0;
        assert!((mean - 8.0).abs() < 0.3, "mean popcount {mean}");
    }
}
