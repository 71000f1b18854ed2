//! The benchmark's only source of randomness: one splitmix64, local to
//! this crate so that a later consolidation of the workspace's mixers
//! cannot change the inputs a seed produces.

/// One splitmix64 scramble of `x`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent sub-seed for item `index` of stream `stream` under
/// `seed` — every generated input derives from the harness seed this way.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)) ^ index)
}

/// A sequential generator over [`splitmix64`].
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n` ≥ 1). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` the generators use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A pseudo-random stream in [-1, 1).
    pub fn floats(&mut self, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| ((self.next_u64() >> 40) as f32 / (1u64 << 23) as f32) - 1.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..8).map(|i| derive(7, 1, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| derive(7, 1, i)).collect();
        let c: Vec<u64> = (0..8).map(|i| derive(8, 1, i)).collect();
        let d: Vec<u64> = (0..8).map(|i| derive(7, 2, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn floats_stay_in_range_and_shuffle_permutes() {
        let mut rng = Rng::new(3);
        assert!(rng.floats(4096).iter().all(|v| (-1.0..1.0).contains(v)));
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(items, sorted);
    }
}
