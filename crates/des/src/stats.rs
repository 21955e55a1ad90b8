//! Statistics collectors: online moments, interval latency, time series.
//!
//! The paper's simulator collects each server's latency "over a specified
//! interval of time" and writes it to a log (§7); the figures plot mean
//! latency per minute bucket. [`IntervalStats`] is the per-tuning-interval
//! collector feeding the delegate, and [`TimeSeries`] is the per-bucket log
//! behind every figure.

use crate::time::{SimDuration, SimTime};

/// Numerically stable online mean/variance (Welford) with min/max.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std/mean; 0 when the mean is 0).
    pub fn cov(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean()
        }
    }

    /// Minimum sample (None when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum sample (None when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n;
        self.m2 += other.m2 + d * d * self.n as f64 * other.n as f64 / n;
        self.mean = mean;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-interval latency collector: resettable mean + count, feeding the
/// delegate's `LoadReport` (defined in `anu-core`) each tuning tick.
#[derive(Clone, Debug, Default)]
pub struct IntervalStats {
    sum_ms: f64,
    count: u64,
}

impl IntervalStats {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request's latency.
    pub fn record(&mut self, latency: SimDuration) {
        self.sum_ms += latency.as_millis_f64();
        self.count += 1;
    }

    /// Requests recorded this interval.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in milliseconds (0 when no requests completed — an
    /// idle server reports zero latency, as in the paper).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Read out and reset for the next interval.
    pub fn take(&mut self) -> (f64, u64) {
        let out = (self.mean_ms(), self.count);
        self.sum_ms = 0.0;
        self.count = 0;
        out
    }
}

/// One bucket of a time series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Bucket {
    /// Sum of samples in the bucket.
    pub sum: f64,
    /// Number of samples.
    pub count: u64,
}

impl Bucket {
    /// Bucket mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A bucketed time series: samples fall into fixed-width time buckets.
///
/// This is the structure behind every latency-vs-time figure: bucket width
/// one minute, value mean latency.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    width: SimDuration,
    buckets: Vec<Bucket>,
    /// The bucket the last sample fell in, and the times `[lo, hi)` it
    /// takes (the last bucket's `hi` is `u64::MAX`). A server records its
    /// completions in time order, so most samples land where the last one
    /// did and find their bucket without a division.
    cursor: usize,
    lo: u64,
    hi: u64,
}

impl TimeSeries {
    /// A series with the given bucket width covering `[0, horizon)`.
    pub fn new(width: SimDuration, horizon: SimDuration) -> Self {
        assert!(width.0 > 0, "zero bucket width");
        let n = horizon.0.div_ceil(width.0) as usize;
        // An empty span: the first sample seeks its bucket.
        TimeSeries {
            width,
            buckets: vec![Bucket::default(); n.max(1)],
            cursor: 0,
            lo: 0,
            hi: 0,
        }
    }

    /// Record a sample at time `t`. Samples beyond the horizon land in the
    /// last bucket (the horizon is chosen to cover the run, so this only
    /// catches stragglers completing just after the end).
    pub fn record(&mut self, t: SimTime, value: f64) {
        if !(self.lo..self.hi).contains(&t.0) {
            self.seek(t.0);
        }
        let b = &mut self.buckets[self.cursor];
        b.sum += value;
        b.count += 1;
    }

    /// Point the cursor at the bucket that takes time `t`.
    fn seek(&mut self, t: u64) {
        let last = self.buckets.len() - 1;
        self.cursor = ((t / self.width.0) as usize).min(last);
        self.lo = self.cursor as u64 * self.width.0;
        self.hi = if self.cursor == last {
            u64::MAX
        } else {
            self.lo + self.width.0
        };
    }

    /// The buckets in time order.
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Iterator over `(bucket_start_time, mean)` pairs.
    pub fn means(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (SimTime(i as u64 * self.width.0), b.mean()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert!((s.std_dev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.cov() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.cov(), 0.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        // Merging an empty accumulator is a no-op.
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
    }

    #[test]
    fn interval_stats_take_resets() {
        let mut s = IntervalStats::new();
        s.record(SimDuration::from_millis(10));
        s.record(SimDuration::from_millis(20));
        assert_eq!(s.count(), 2);
        let (mean, n) = s.take();
        assert!((mean - 15.0).abs() < 1e-9);
        assert_eq!(n, 2);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean_ms(), 0.0);
    }

    #[test]
    fn time_series_bucketing() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(60), SimDuration::from_secs(300));
        ts.record(SimTime::from_secs_f64(10.0), 100.0);
        ts.record(SimTime::from_secs_f64(50.0), 200.0);
        ts.record(SimTime::from_secs_f64(70.0), 300.0);
        assert_eq!(ts.buckets().len(), 5);
        assert!((ts.buckets()[0].mean() - 150.0).abs() < 1e-12);
        assert!((ts.buckets()[1].mean() - 300.0).abs() < 1e-12);
        assert_eq!(ts.buckets()[2].mean(), 0.0);
    }

    #[test]
    fn time_series_overflow_goes_to_last_bucket() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(60), SimDuration::from_secs(120));
        ts.record(SimTime::from_secs_f64(1000.0), 42.0);
        assert_eq!(ts.buckets()[1].count, 1);
    }

    #[test]
    fn time_series_buckets_match_the_division_in_any_order() {
        // Edges, stragglers past the horizon and samples that go back in
        // time, then a seeded stream of forward runs and backward jumps:
        // every bucket must hold what dividing each time would give, in
        // the same order of additions.
        let mut rng = crate::RngStream::new(3, "test/time-series");
        for (width, horizon) in [
            (60_000_000, 300_000_000),
            (60_000_000, 290_000_000),
            (7, 50),
            (5, 0),
        ] {
            let mut ts = TimeSeries::new(SimDuration(width), SimDuration(horizon));
            let mut want = ts.buckets().to_vec();
            let last = want.len() as u64 - 1;
            let mut times = vec![0, width - 1, width, 2 * width - 1, 2 * width, last * width];
            times.extend([horizon, horizon + 1, 10 * horizon + width, u64::MAX]);
            times.extend([0, width, width - 1, (last * width).saturating_sub(1), 1]);
            let mut t = 0;
            for _ in 0..2_000 {
                t = match rng.index(8) {
                    0 => rng.next_u64() % (2 * horizon + 2 * width),
                    1 => t.saturating_sub(rng.next_u64() % (2 * width)),
                    _ => t + rng.next_u64() % width,
                };
                times.push(t);
            }
            for (i, &t) in times.iter().enumerate() {
                let value = i as f64 * 0.37 + 0.1;
                ts.record(SimTime(t), value);
                let b = &mut want[(t / width).min(last) as usize];
                b.sum += value;
                b.count += 1;
            }
            assert_eq!(ts.buckets(), want, "width {width}, horizon {horizon}");
        }
    }

    #[test]
    fn time_series_means_iterator() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1), SimDuration::from_secs(2));
        ts.record(SimTime::from_secs_f64(0.5), 10.0);
        let pts: Vec<(SimTime, f64)> = ts.means().collect();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], (SimTime::ZERO, 10.0));
        assert_eq!(pts[1].1, 0.0);
    }
}
