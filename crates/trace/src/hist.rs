//! Log-scaled histograms.
//!
//! [`LogHistogram`] buckets by power of two: bucket `i ≥ 1` covers
//! `[2^(i-1), 2^i - 1]` and bucket 0 covers exactly `{0}`. That gives
//! ~2× quantile resolution over the full `u64` range at a constant 65
//! counters — cheap enough to keep recording even in untraced runs, so
//! `RunSummary` percentiles exist whether or not a sink is attached.
//! Every operation is integer arithmetic: quantiles are deterministic
//! and identical across platforms.

/// Power-of-two bucketed histogram over `u64` values.
///
/// The buckets are the whole state: the observation count is their sum,
/// so recording touches one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    /// `buckets[0]` counts zeros; `buckets[i]` counts `[2^(i-1), 2^i-1]`.
    buckets: [u64; Self::BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Bucket count: one for zero plus one per bit of `u64`.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; Self::BUCKETS],
        }
    }

    /// The bucket index holding `v`.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (the value a quantile in this
    /// bucket reports). Saturates at `u64::MAX` for the top bucket.
    pub fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The quantile `q ∈ [0, 1]` as the upper bound of the bucket holding
    /// the rank-`⌈q·count⌉` observation (nearest-rank on bucket bounds —
    /// coarse by design: at most 2× above the true value). Returns 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper_bound(i);
            }
        }
        Self::upper_bound(Self::BUCKETS - 1)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// The non-empty buckets as `(upper_bound, count)`, low to high.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::upper_bound(i), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anu_des::RngStream;

    /// Satellite: the bucket boundaries are pinned — changing them would
    /// silently re-bias every percentile in every summary and manifest.
    #[test]
    fn bucket_boundaries_are_pinned() {
        let cases = [
            (0u64, 0usize),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (1023, 10),
            (1024, 11),
            (u64::MAX, 64),
        ];
        for (v, want) in cases {
            assert_eq!(LogHistogram::bucket_of(v), want, "bucket_of({v})");
        }
        assert_eq!(LogHistogram::upper_bound(0), 0);
        assert_eq!(LogHistogram::upper_bound(1), 1);
        assert_eq!(LogHistogram::upper_bound(2), 3);
        assert_eq!(LogHistogram::upper_bound(10), 1023);
        assert_eq!(LogHistogram::upper_bound(64), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 5, 100, 4096, 1 << 40, u64::MAX] {
            let i = LogHistogram::bucket_of(v);
            assert!(v <= LogHistogram::upper_bound(i));
            if i > 0 {
                assert!(v > LogHistogram::upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn quantiles_on_known_data() {
        let mut h = LogHistogram::new();
        // 90 small values (bucket of 1) and 10 large (bucket of 1000).
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.90), 1);
        assert_eq!(h.quantile(0.95), 1023);
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(LogHistogram::new().quantile(0.5), 0);
    }

    /// Satellite: property-style seeded loop — quantiles are monotone
    /// (p50 ≤ p95 ≤ p99) and no observation is lost or double-counted.
    #[test]
    fn seeded_property_quantile_monotone_and_count_conserved() {
        for seed in 0..32u64 {
            let mut rng = RngStream::new(seed, "hist-property");
            let mut h = LogHistogram::new();
            let n = 1 + rng.index(5000);
            for _ in 0..n {
                // Heavy-tailed-ish spread across many buckets.
                let v = rng.next_u64() >> rng.index(60);
                h.record(v);
            }
            let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
            assert!(p50 <= p95, "seed {seed}: p50 {p50} > p95 {p95}");
            assert!(p95 <= p99, "seed {seed}: p95 {p95} > p99 {p99}");
            assert_eq!(h.count(), n as u64, "seed {seed}: count conservation");
            let bucket_sum: u64 = h.nonzero().iter().map(|&(_, c)| c).sum();
            assert_eq!(bucket_sum, n as u64, "seed {seed}: bucket sum");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(3);
        b.record(3);
        b.record(4000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.nonzero(), vec![(3, 2), (4095, 1)]);
    }
}
