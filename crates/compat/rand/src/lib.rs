//! Offline-compatible subset of the `rand` 0.8 API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of `rand` it actually uses: [`rngs::StdRng`]
//! seeded via [`SeedableRng::seed_from_u64`], and the [`Rng`] methods
//! `gen`, `gen_range`, `gen_bool`, and `gen_ratio`. The generator is
//! xoshiro256** seeded through splitmix64 — fast, high quality, and
//! fully deterministic per seed, which is all the simulator and the
//! synthetic workload generators require. Numeric streams differ from
//! upstream `rand`, but every consumer in this workspace treats the
//! stream as an opaque deterministic source.
#![warn(missing_docs)]

/// Random number generator engines.
pub mod rngs {
    /// The standard deterministic generator (xoshiro256**).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

/// One step of splitmix64 over a caller-owned state word: the seeding
/// mixer behind [`StdRng`], public so tiny private streams (fault
/// schedules, backoff jitter) draw from the same generator without
/// perturbing any `StdRng`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StdRng {
    /// Export the raw xoshiro256** state for checkpointing. The stream
    /// continues identically from a generator rebuilt via
    /// [`StdRng::from_state`].
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a state captured by [`StdRng::state`].
    /// The all-zero state (invalid for xoshiro) is mapped to a fixed
    /// nonzero state rather than accepted.
    #[inline]
    pub fn from_state(mut s: [u64; 4]) -> Self {
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StdRng { s }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is the one invalid xoshiro state; splitmix64
        // cannot produce four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StdRng { s }
    }
}

/// A type that can be sampled uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draw one value from the generator.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> f64 {
        // 53 random bits into [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

/// A range understood by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_range!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// The user-facing sampling methods, implemented for [`StdRng`].
pub trait Rng {
    /// Uniform value of a [`Standard`]-sampleable type.
    fn gen<T: Standard>(&mut self) -> T;
    /// Uniform value in `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
    /// Bernoulli draw with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool;
}

impl Rng for StdRng {
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    #[inline]
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range");
        f64::sample(self) < p
    }

    #[inline]
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        debug_assert!(denominator > 0 && numerator <= denominator);
        (self.next_u64() >> 32) as u32 % denominator < numerator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3..17i64);
            assert!((3..17).contains(&v));
            let u = r.gen_range(0..=2usize);
            assert!(u <= 2);
            let f = r.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "{hits}");
    }
}
