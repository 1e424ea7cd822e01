//! The benchmark's own seeded generator (xoshiro256** seeded through
//! SplitMix64), so scripts depend on `--seed` and on nothing else.

/// Deterministic pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator; equal seeds give equal streams.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
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

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        // multiply-shift; the bias is below 2^-32 for the sizes used here
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) sampler over ranks `0..n` (0 is the most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Cumulative weights `1 / rank^s` for ranks `1..=n`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "empty Zipf support");
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws a rank.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}
