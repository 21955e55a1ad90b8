//! Per-file-set workload weight distributions.
//!
//! The paper ensures "file set workload heterogeneity" by defining each
//! file set's workload as `β·α^x` with `x` drawn uniformly from `[0, 1)`
//! and `α` a scaling factor (§7) — a log-uniform spread whose extremes
//! differ by a factor of `α`. Two more distributions serve the workloads
//! that need them: constant weights (the homogeneous and balanced storm
//! cells) and an exact geometric spectrum (the DFSTrace-like generator).

use anu_des::{AliasTable, RngStream};

/// Distribution of relative per-file-set workload weights.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum WeightDist {
    /// Every file set has the same weight (homogeneous workload).
    Constant,
    /// The paper's distribution: `alpha^x`, `x ~ U[0, 1)`. Extremes differ
    /// by a factor of `alpha` (log-uniform).
    PowerOfUniform {
        /// Heterogeneity scale; the paper's experiments use extreme values
        /// (hundreds).
        alpha: f64,
    },
    /// Geometrically spaced weights `ratio^(k/(n-1))`, then shuffled: a
    /// deterministic spectrum with exact max/min ratio. Used by the
    /// DFSTrace-like generator, which must guarantee the >100x activity
    /// ratio the paper reports.
    GeometricSpread {
        /// Exact max/min weight ratio.
        ratio: f64,
    },
}

impl WeightDist {
    /// Draw weights for `n` file sets.
    pub fn sample(&self, n: usize, rng: &mut RngStream) -> Vec<f64> {
        assert!(n > 0, "no file sets");
        match *self {
            WeightDist::Constant => vec![1.0; n],
            WeightDist::PowerOfUniform { alpha } => {
                assert!(alpha > 1.0);
                (0..n).map(|_| alpha.powf(rng.uniform())).collect()
            }
            WeightDist::GeometricSpread { ratio } => {
                assert!(ratio > 1.0);
                let mut w: Vec<f64> = if n == 1 {
                    vec![1.0]
                } else {
                    (0..n)
                        .map(|k| ratio.powf(k as f64 / (n - 1) as f64))
                        .collect()
                };
                rng.shuffle(&mut w);
                w
            }
        }
    }

    /// Draw weights for `n` file sets and build an O(1)-per-draw sampler
    /// over them. This is the scale-mode path for weighted file-set
    /// selection: the table is built once per weight change, so each
    /// subsequent draw is constant-time regardless of `n`.
    pub fn sampler(&self, n: usize, rng: &mut RngStream) -> AliasTable {
        AliasTable::new(&self.sample(n, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(w: &[f64]) -> f64 {
        let max = w.iter().cloned().fold(f64::MIN, f64::max);
        let min = w.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }

    #[test]
    fn constant_is_flat() {
        let mut r = RngStream::new(1, "w");
        let w = WeightDist::Constant.sample(10, &mut r);
        assert!(w.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn power_of_uniform_bounded_by_alpha() {
        let mut r = RngStream::new(2, "w");
        let w = WeightDist::PowerOfUniform { alpha: 1000.0 }.sample(500, &mut r);
        assert!(w.iter().all(|&x| (1.0..=1000.0).contains(&x)));
        // With 500 draws the realized spread is close to the full range.
        assert!(ratio(&w) > 100.0, "ratio {}", ratio(&w));
    }

    #[test]
    fn geometric_spread_exact_ratio() {
        let mut r = RngStream::new(3, "w");
        let w = WeightDist::GeometricSpread { ratio: 150.0 }.sample(21, &mut r);
        assert_eq!(w.len(), 21);
        assert!((ratio(&w) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_tracks_sampled_weights() {
        let mut wr = RngStream::new(7, "w");
        let mut tr = RngStream::new(7, "w");
        let d = WeightDist::GeometricSpread { ratio: 20.0 };
        let w = d.sample(8, &mut wr);
        let t = d.sampler(8, &mut tr);
        let total: f64 = w.iter().sum();
        for (k, &wk) in w.iter().enumerate() {
            assert!((t.prob(k) - wk / total).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let mut a = RngStream::new(6, "w");
        let mut b = RngStream::new(6, "w");
        let d = WeightDist::PowerOfUniform { alpha: 100.0 };
        assert_eq!(d.sample(20, &mut a), d.sample(20, &mut b));
    }
}
