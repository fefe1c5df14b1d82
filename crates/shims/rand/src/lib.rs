//! Offline shim for `rand` 0.8.
//!
//! Implements exactly the trait surface this workspace uses: [`Rng`]
//! (`gen`, `gen_range`, `gen_bool`), [`SeedableRng::seed_from_u64`],
//! [`rngs::SmallRng`] and [`seq::SliceRandom::shuffle`]. The generator is
//! xoshiro256++ seeded through SplitMix64 — the same construction the real
//! `SmallRng` uses on 64-bit targets — so statistical quality is adequate
//! for the workloads (Kronecker generation, genome sampling, jitter).
//!
//! Streams are deterministic in the seed but **not** bit-compatible with
//! the real crate; nothing in the workspace depends on exact streams.

/// Sampling from a uniform distribution over a type's full domain
/// (`Standard` distribution in real rand). `f64` samples in `[0, 1)`.
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// The raw 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Sample a value of an inferred type (`Standard` distribution).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Sample uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformInt,
        R: IntoUniform<T>,
    {
        let (lo, hi_inclusive) = range.bounds();
        T::uniform(self, lo, hi_inclusive)
    }

    /// Bernoulli trial with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Construction from seeds (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 step — used to expand seeds and as a statistically fine
/// standalone mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod rngs {
    //! Named generators (subset of `rand::rngs`).
    use super::{splitmix64, RngCore, SeedableRng};

    /// xoshiro256++ small fast generator.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // All-zero state is the one degenerate case; SplitMix64 cannot
            // produce four consecutive zeros, but keep the guard explicit.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            Self { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
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
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize);

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 significand bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Integer types that can be sampled uniformly from a bounded range.
pub trait UniformInt: Copy + PartialOrd {
    /// Uniform sample in `[lo, hi]` (inclusive).
    fn uniform<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// `(hi · 2^64 + lo) % span`, with `span >= 1`. A span that fits in 32
/// bits takes the remainder in three 64-bit steps (32 bits of the word
/// at a time after `hi`): each partial remainder is below `span`, so
/// `r << 32 | next 32 bits` never overflows, and the result equals the
/// `u128` remainder without the 128-bit division routine.
#[allow(clippy::cast_possible_truncation)]
fn wide_rem(hi: u64, lo: u64, span: u128) -> u128 {
    if span <= 1 << 32 {
        let s = span as u64;
        let r = hi % s;
        let r = (r << 32 | lo >> 32) % s;
        u128::from((r << 32 | lo & 0xffff_ffff) % s)
    } else {
        (u128::from(hi) << 64 | u128::from(lo)) % span
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn uniform<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                // Rejection-free modulo; the bias is < 2^-64 per draw for
                // the spans used in this workspace, far below what any
                // consumer here can observe.
                // Arguments evaluate left to right: the first draw is
                // the high word, as it always was.
                let draw = wide_rem(rng.next_u64(), rng.next_u64(), span);
                (lo as i128 + draw as i128) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformInt for f64 {
    fn uniform<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + f64::sample_standard(rng) * (hi - lo)
    }
}

/// Conversion of range syntax into inclusive bounds.
pub trait IntoUniform<T> {
    /// `(low, high_inclusive)` bounds of the range.
    fn bounds(self) -> (T, T);
}

impl<T: UniformInt + Bounded + StepDown> IntoUniform<T> for core::ops::Range<T> {
    fn bounds(self) -> (T, T) {
        (self.start, self.end.step_down())
    }
}

impl<T: UniformInt> IntoUniform<T> for core::ops::RangeInclusive<T> {
    fn bounds(self) -> (T, T) {
        self.into_inner()
    }
}

/// Types with a maximum value (for open-range conversion).
pub trait Bounded {
    /// Largest representable value.
    const MAX_VALUE: Self;
}

/// Decrement by one unit (to convert `..end` into `..=end-1`).
pub trait StepDown {
    /// `self - 1` for integers; identity for floats (where `..end` keeps
    /// `end` excluded by construction of the uniform sampler).
    fn step_down(self) -> Self;
}

macro_rules! impl_bounds {
    ($($t:ty),*) => {$(
        impl Bounded for $t {
            const MAX_VALUE: Self = <$t>::MAX;
        }
        impl StepDown for $t {
            fn step_down(self) -> Self {
                self.checked_sub(1).expect("gen_range: empty range")
            }
        }
    )*};
}
impl_bounds!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Bounded for f64 {
    const MAX_VALUE: Self = f64::MAX;
}
impl StepDown for f64 {
    fn step_down(self) -> Self {
        self
    }
}

pub mod seq {
    //! Sequence utilities (subset of `rand::seq`).
    use super::{Rng, UniformInt};

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = usize::uniform(rng, 0, i);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[usize::uniform(rng, 0, self.len() - 1)])
            }
        }
    }
}

/// Prelude mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::rngs::SmallRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{wide_rem, Rng, SeedableRng};
    use proptest::prelude::*;

    /// The jitter spans, both sides of the 32-bit cut, and the widest.
    const SPANS: [u128; 8] = [
        1,
        2,
        61,
        1_201,
        (1 << 32) - 1,
        1 << 32,
        (1 << 32) + 1,
        u64::MAX as u128,
    ];

    proptest! {
        #[test]
        fn wide_rem_is_the_u128_remainder(hi in any::<u64>(), lo in any::<u64>()) {
            for (hi, lo) in [(hi, lo), (hi, u64::MAX), (u64::MAX, lo), (hi, 0)] {
                for span in SPANS {
                    let reference = (u128::from(hi) << 64 | u128::from(lo)) % span;
                    prop_assert_eq!(wide_rem(hi, lo, span), reference, "span {}", span);
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(3u64..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0..=4u8);
            assert!(y <= 4);
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn f64_standard_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut SmallRng::seed_from_u64(3));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
