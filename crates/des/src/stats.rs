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
    /// Maximum sample.
    pub max: f64,
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
}

impl TimeSeries {
    /// A series with the given bucket width covering `[0, horizon)`.
    pub fn new(width: SimDuration, horizon: SimDuration) -> Self {
        assert!(width.0 > 0, "zero bucket width");
        let n = horizon.0.div_ceil(width.0) as usize;
        TimeSeries {
            width,
            buckets: vec![Bucket::default(); n.max(1)],
        }
    }

    /// Record a sample at time `t`. Samples beyond the horizon land in the
    /// last bucket (the horizon is chosen to cover the run, so this only
    /// catches stragglers completing just after the end).
    pub fn record(&mut self, t: SimTime, value: f64) {
        let idx = ((t.0 / self.width.0) as usize).min(self.buckets.len() - 1);
        let b = &mut self.buckets[idx];
        b.sum += value;
        b.count += 1;
        b.max = b.max.max(value);
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
        assert_eq!(ts.buckets()[0].max, 200.0);
        assert_eq!(ts.buckets()[2].mean(), 0.0);
    }

    #[test]
    fn time_series_overflow_goes_to_last_bucket() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(60), SimDuration::from_secs(120));
        ts.record(SimTime::from_secs_f64(1000.0), 42.0);
        assert_eq!(ts.buckets()[1].count, 1);
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
