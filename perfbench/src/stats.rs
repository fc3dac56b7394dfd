//! Order statistics over measured samples.

/// Latency samples of one kind, in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Append every sample of `o`.
    pub fn extend(&mut self, o: &Samples) {
        self.0.extend_from_slice(&o.0);
    }

    /// The samples in the order recorded.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().copied()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The samples recorded from index `first` on.
    pub fn since(&self, first: usize) -> Samples {
        Samples(self.0[first..].to_vec())
    }

    /// Every sample multiplied by `k`.
    pub fn scaled(&self, k: f64) -> Samples {
        Samples(self.0.iter().map(|x| x * k).collect())
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0..=1), nearest rank; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v[((v.len() - 1) as f64 * q).round() as usize]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Nanosecond latency histogram for the hit path, where millions of
/// samples would not fit a sample vector: exact 1 ns buckets below
/// [`Histogram::EXACT`], then 64 sub-buckets per power of two above.
#[derive(Debug, Clone)]
pub struct Histogram {
    exact: Vec<u32>,
    log: Vec<u32>,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            exact: vec![0; Self::EXACT as usize],
            log: vec![0; (64 - Self::EXACT_BITS) * 64],
            count: 0,
        }
    }
}

impl Histogram {
    const EXACT_BITS: usize = 11;
    /// Values below this are counted at 1 ns resolution.
    pub const EXACT: u64 = 1 << Self::EXACT_BITS;

    fn log_bucket(v: u64) -> usize {
        let p = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (p - 6)) & 63) as usize;
        (p - Self::EXACT_BITS) * 64 + sub
    }

    fn log_value(b: usize) -> u64 {
        let (p, sub) = (b / 64 + Self::EXACT_BITS, (b % 64) as u64);
        (64 + sub) << (p - 6)
    }

    /// Record one latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        if ns < Self::EXACT {
            self.exact[ns as usize] += 1;
        } else {
            self.log[Self::log_bucket(ns)] += 1;
        }
        self.count += 1;
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside the
    /// bucket holding the rank (timestamps are whole nanoseconds, so a
    /// plain nearest-rank quantile would be quantized to 1 ns); `NaN`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (self.count - 1) as f64 * q;
        let mut seen = 0u64;
        let buckets = self
            .exact
            .iter()
            .enumerate()
            .map(|(v, &n)| (v as f64, 1.0, u64::from(n)));
        let logs = self.log.iter().enumerate().map(|(b, &n)| {
            let lo = Self::log_value(b);
            (
                lo as f64,
                (Self::log_value(b + 1) - lo) as f64,
                u64::from(n),
            )
        });
        for (lo, width, n) in buckets.chain(logs) {
            if n > 0 && (seen + n) as f64 > rank {
                return lo + width * (rank - seen as f64 + 0.5) / n as f64;
            }
            seen += n;
        }
        f64::NAN
    }
}

/// Geometric mean; `NaN` when empty or any value is not positive.
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return f64::NAN;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_match_sorted_samples() {
        let mut h = Histogram::default();
        let mut s = Samples::default();
        for i in 0..10_000u64 {
            let v = 100 + (i * 7919) % 900;
            h.record(v);
            s.push(v as f64);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            let (a, b) = (h.quantile(q), s.quantile(q));
            assert!(a >= b && a < b + 1.0, "q={q}: {a} vs {b}");
        }
        h.record(1 << 20);
        let top = h.quantile(1.0);
        assert!(top >= (1 << 20) as f64 && top < (1 << 20) as f64 * 1.02);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
