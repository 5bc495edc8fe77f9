//! SplitMix64: a small seedable generator written out here, so a seed
//! names the same inputs on every platform and toolchain.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The stream of item `key` under `seed`: independent of every other
    /// key, and of how many items a run draws.
    pub fn keyed(seed: u64, key: u64) -> Self {
        let mut rng = Rng(seed ^ key.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (modulo bias below 2^-50 for the small ranges
    /// drawn here).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        self.range(0, n as u64 - 1) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::keyed(7, 3), Rng::keyed(7, 3));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(Rng::keyed(7, 3).next_u64(), Rng::keyed(7, 4).next_u64());
    }

    #[test]
    fn range_stays_inside() {
        let mut r = Rng::new(1);
        assert!((0..1000)
            .map(|_| r.range(3, 9))
            .all(|v| (3..=9).contains(&v)));
    }
}
