//! Order statistics and digests.

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice: the
/// smallest value with at least `p` % of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly above the `p`-th percentile's rank, i.e. how
/// many samples support the tail the percentile describes.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(usize::from(n > 0), n)
}

/// Sorts and returns the `p`-th percentile; `NaN`-free input assumed.
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, p)
}

/// Median (the 50th nearest-rank percentile) of unsorted values.
pub fn median_of(values: &mut [f64]) -> f64 {
    percentile_of(values, 50.0)
}

/// FNV-1a 64-bit, the digest `re2x_serve` transcripts use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut f = Fnv::default();
        f.write(bytes);
        f.0
    }
}
