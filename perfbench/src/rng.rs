//! The benchmark's only source of randomness: splitmix64 seeded from
//! `--seed`, so one seed always yields one request stream.

/// Deterministic 64-bit generator (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two phases of
    /// one run never draw the same numbers.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf-like key popularity: `head_pct`% of draws land on the `head`
/// most popular keys (rank r weighted 1/(r+1)), the rest spread
/// uniformly over the tail — the C5 serving mix.
#[derive(Debug, Clone)]
pub struct Zipf {
    keys: usize,
    head: usize,
    head_pct: u64,
    cumulative: Vec<u64>,
}

impl Zipf {
    /// A popularity law over `keys` keys with a `head`-key head.
    pub fn new(keys: usize, head: usize, head_pct: u64) -> Self {
        assert!(head >= 1 && head < keys, "zipf head must leave a tail");
        let mut acc = 0;
        let cumulative = (0..head as u64)
            .map(|r| {
                acc += 1_000_000 / (r + 1);
                acc
            })
            .collect();
        Zipf {
            keys,
            head,
            head_pct,
            cumulative,
        }
    }

    /// Draw one key index.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        if rng.next_u64() % 100 < self.head_pct {
            let total = *self.cumulative.last().expect("non-empty head");
            let pick = rng.next_u64() % total;
            self.cumulative.partition_point(|&c| c <= pick)
        } else {
            self.head + rng.below(self.keys - self.head)
        }
    }
}
