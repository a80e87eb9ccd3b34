//! A small seeded generator (SplitMix64): the benchmark derives every
//! input from `--seed`, and the same seed gives the same inputs.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x2545_f491_4f6c_dd1d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded stream of `n` integer tokens.
    pub fn ints(&mut self, n: usize) -> Vec<i64> {
        (0..n).map(|_| (self.next_u64() >> 16) as i64).collect()
    }
}
