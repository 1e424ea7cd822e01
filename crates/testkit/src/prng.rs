//! Deterministic pseudo-random number generation.
//!
//! [`TestRng`] is a xoshiro256\*\* generator (Blackman & Vigna) seeded via
//! [`SplitMix64`], the standard seeding recipe for the xoshiro family. Both
//! are tiny, portable, and — unlike external crates — guaranteed to produce
//! the same stream on every platform and toolchain, which is what makes
//! failing-seed replay and byte-identical dataset generation possible.

use std::ops::Range;

/// The SplitMix64 generator: one 64-bit state word, used to expand a single
/// seed into the four xoshiro state words and to derive per-case seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A deterministic xoshiro256\*\* generator with the sampling helpers the
/// workspace's generators and property tests need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds the generator from a single `u64` (SplitMix64 expansion — the
    /// same recipe `rand`'s `SeedableRng::seed_from_u64` documents, so seeds
    /// remain meaningful identifiers across the workspace).
    pub fn seed_from_u64(seed: u64) -> TestRng {
        let mut sm = SplitMix64::new(seed);
        TestRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64-bit output (xoshiro256\*\*).
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform value in a half-open range. Implemented for the integer
    /// types the workspace samples plus `f64`.
    ///
    /// # Panics
    /// If the range is empty.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Sample {
        R::sample(range, self)
    }

    /// Uniformly picks an element of a non-empty slice.
    ///
    /// # Panics
    /// If the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.gen_range(0..items.len())]
    }

    /// Shuffles a slice in place, every order equally likely
    /// (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(0..i + 1);
            items.swap(i, j);
        }
    }

    /// Picks an index with probability proportional to its weight — the
    /// harness's analogue of a frequency-weighted choice combinator.
    ///
    /// # Panics
    /// If all weights are zero or the slice is empty.
    pub fn pick_weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
        assert!(total > 0, "pick_weighted needs a positive total weight");
        let mut roll = self.gen_range(0..total);
        for (i, &w) in weights.iter().enumerate() {
            let w = u64::from(w);
            if roll < w {
                return i;
            }
            roll -= w;
        }
        weights.len() - 1
    }

    /// A string of length within `len`, each character drawn uniformly from
    /// `alphabet` (the harness's analogue of a character-class regex
    /// generator).
    ///
    /// # Panics
    /// If `alphabet` is empty and a non-empty length is drawn.
    pub fn string_from(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        let n = self.gen_range(len);
        (0..n).map(|_| *self.pick(&chars)).collect()
    }

    /// A string of length within `len` over arbitrary Unicode scalar values
    /// (for never-panics robustness properties).
    pub fn unicode_string(&mut self, len: Range<usize>) -> String {
        let n = self.gen_range(len);
        (0..n)
            .map(|_| loop {
                // surrogates are not scalar values; re-roll them
                if let Some(c) = char::from_u32((self.next_u64() % 0x11_0000) as u32) {
                    break c;
                }
            })
            .collect()
    }
}

/// A range type [`TestRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Sample;

    /// Draws a uniform sample from `self`.
    fn sample(self, rng: &mut TestRng) -> Self::Sample;
}

macro_rules! impl_int_sample {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Sample = $t;

            fn sample(self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // multiply-shift bounded sampling; the tiny modulo bias of a
                // plain % would also be fine for tests, but this is exact
                // enough for any span the workspace uses and stays branchless
                let draw = (u128::from(rng.next_u64()) * span) >> 64;
                (self.start as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_int_sample!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for Range<f64> {
    type Sample = f64;

    fn sample(self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // reference output for seed 1234567 from the published C code
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = TestRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = TestRng::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = TestRng::seed_from_u64(7);
        for _ in 0..2000 {
            let u = r.gen_range(3usize..17);
            assert!((3..17).contains(&u));
            let i = r.gen_range(-50i64..50);
            assert!((-50..50).contains(&i));
            let f = r.gen_range(0.5f64..2.5);
            assert!((0.5..2.5).contains(&f));
        }
    }

    #[test]
    fn range_covers_endpoints() {
        let mut r = TestRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn gen_bool_is_roughly_calibrated() {
        let mut r = TestRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "~25%, got {hits}");
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let mut r = TestRng::seed_from_u64(5);
        for _ in 0..200 {
            let i = r.pick_weighted(&[0, 3, 0, 1]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn string_generators_produce_requested_shapes() {
        let mut r = TestRng::seed_from_u64(9);
        for _ in 0..100 {
            let s = r.string_from("abc", 2..5);
            assert!((2..5).contains(&s.len()));
            assert!(s.chars().all(|c| "abc".contains(c)));
            let u = r.unicode_string(0..10);
            assert!(u.chars().count() < 10);
        }
    }
}
