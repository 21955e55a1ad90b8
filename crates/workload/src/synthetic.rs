//! The synthetic workload generator (paper §7).
//!
//! "The synthetic workload consists of 100,000 client requests against 500
//! file sets during a period of 10,000 seconds. Although workload
//! inter-arrival times in each file set are governed by a Poisson process,
//! the distribution of requests from each file set is stable for the
//! duration of the simulation."
//!
//! Each file set draws a weight `w_j` from the configured [`WeightDist`];
//! the total request budget is split proportionally to the weights
//! (largest-remainder rounding, so the configured total is hit exactly,
//! matching the paper's stated counts), and each file set's requests arrive
//! as a homogeneous Poisson process — implemented by drawing its request
//! count's arrival instants uniformly over the duration, which is the
//! distribution of a Poisson process conditioned on its count.
//!
//! The draws run file set by file set, so they come out set-major, not in
//! time order. The generator hands them to the workload constructor as a
//! replayable arrival stream and a cost stream, and the constructor places
//! them in arrival order bucket by bucket, without a global sort (see
//! EXPERIMENTS.md, "Set-up: generation without the global sort"). The
//! result equals a stable sort of the set-major stream bit for bit.

use crate::request::{repeat_runs, Draws, Workload};
use crate::weights::WeightDist;
use anu_core::FileSetId;
use anu_des::{RngStream, SimDuration, SimTime};

/// How per-request service demands are drawn.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CostModel {
    /// Uniform in `mean * [1 - spread, 1 + spread]` — the paper's "service
    /// time variance is low" regime.
    UniformSpread {
        /// Relative half-width, e.g. 0.2 for ±20%.
        spread: f64,
    },
    /// Heavy-tailed (bounded Pareto) service demands with the given mean —
    /// the storm engine's "one elephant stalls the queue" regime. `alpha`
    /// is the tail exponent (must be > 1 so the mean exists; 1.5 is a
    /// classically heavy tail). Draws use the inverse CDF of a Pareto with
    /// scale `x_m = mean·(α−1)/α`, capped at 100× the mean so a single
    /// draw cannot exceed any plausible run horizon.
    Pareto {
        /// Tail exponent (> 1; smaller = heavier tail).
        alpha: f64,
    },
}

impl CostModel {
    /// Draw one service demand with the given mean (seconds).
    pub fn sample(&self, mean_secs: f64, rng: &mut RngStream) -> SimDuration {
        let secs = match *self {
            CostModel::UniformSpread { spread } => {
                rng.uniform_range(mean_secs * (1.0 - spread), mean_secs * (1.0 + spread))
            }
            CostModel::Pareto { alpha } => {
                debug_assert!(alpha > 1.0, "Pareto tail exponent must exceed 1");
                let xm = mean_secs * (alpha - 1.0) / alpha;
                // Inverse CDF: x = x_m / u^(1/α), u ∈ (0, 1]. `uniform`
                // yields [0, 1); flip it so the draw never divides by zero.
                let u = 1.0 - rng.uniform();
                (xm / u.powf(1.0 / alpha)).min(mean_secs * 100.0)
            }
        };
        SimDuration::from_secs_f64(secs.max(1e-6))
    }

    /// The longest demand [`CostModel::sample`] can draw with the given
    /// mean: the top of the spread, or the Pareto cap.
    fn max_draw(&self, mean_secs: f64) -> SimDuration {
        let secs = match *self {
            CostModel::UniformSpread { spread } => mean_secs * (1.0 + spread),
            CostModel::Pareto { .. } => mean_secs * 100.0,
        };
        SimDuration::from_secs_f64(secs.max(1e-6))
    }
}

/// Refuse a cost model that can draw a demand a
/// [`Request`](crate::Request) cannot hold, before a generator draws
/// anything: a request's cost is below 2^32 µs (about 71.6 minutes).
///
/// # Panics
/// Panics, naming the model, its mean and its longest draw, if that draw
/// is 2^32 µs or more.
pub(crate) fn assert_costs_fit(cost: CostModel, mean_secs: f64) {
    let max = cost.max_draw(mean_secs);
    assert!(
        u32::try_from(max.0).is_ok(),
        "{cost:?} with a mean of {mean_secs} s can draw {} µs, past the 2^32 µs \
         (about 71.6 minutes) a request's cost holds",
        max.0
    );
}

/// Configuration of the synthetic generator.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SyntheticConfig {
    /// Number of file sets (paper: 500).
    pub n_file_sets: usize,
    /// Total client requests (paper: 100,000).
    pub total_requests: u64,
    /// Workload duration in seconds (paper: 10,000).
    pub duration_secs: f64,
    /// Per-file-set weight distribution (paper: `alpha^x`, extreme alpha).
    pub weights: WeightDist,
    /// Mean service demand at speed 1, seconds. Tuned (paper: "we tune β
    /// so that the system is below peak load") — see
    /// [`SyntheticConfig::with_offered_load`].
    pub mean_cost_secs: f64,
    /// Service demand model.
    pub cost: CostModel,
    /// Generator seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig::paper(42)
    }
}

impl SyntheticConfig {
    /// The paper's synthetic configuration: 100k requests, 500 file sets,
    /// 10,000 s, log-uniform weights spanning 3 decades, and a mean cost
    /// putting a five-server 1/3/5/7/9 cluster at offered load ~0.5.
    pub fn paper(seed: u64) -> Self {
        SyntheticConfig {
            n_file_sets: 500,
            total_requests: 100_000,
            duration_secs: 10_000.0,
            weights: WeightDist::PowerOfUniform { alpha: 1000.0 },
            mean_cost_secs: 1.25,
            cost: CostModel::UniformSpread { spread: 0.2 },
            seed,
        }
    }

    /// Adjust the mean cost so the workload offers the given load `rho`
    /// against a cluster with the given total speed.
    pub fn with_offered_load(mut self, rho: f64, total_speed: f64) -> Self {
        assert!(rho > 0.0 && total_speed > 0.0);
        let rate = self.total_requests as f64 / self.duration_secs;
        self.mean_cost_secs = rho * total_speed / rate;
        self
    }

    /// Generate the workload.
    pub fn generate(&self) -> Workload {
        Workload::from_draws(self.draws())
    }

    /// The workload's draws in generation order: file set by file set,
    /// each set's arrivals and costs from the `synthetic/arrivals` and
    /// `synthetic/costs` streams.
    pub(crate) fn draws(
        &self,
    ) -> Draws<impl Iterator<Item = (SimTime, FileSetId)> + Clone, impl FnMut() -> SimDuration>
    {
        assert!(self.n_file_sets > 0 && self.total_requests > 0);
        assert_costs_fit(self.cost, self.mean_cost_secs);
        let mut wrng = RngStream::new(self.seed, "synthetic/weights");
        let mut arng = RngStream::new(self.seed, "synthetic/arrivals");
        let mut crng = RngStream::new(self.seed, "synthetic/costs");

        let weights = self.weights.sample(self.n_file_sets, &mut wrng);
        let counts = apportion(self.total_requests, &weights);
        let runs = counts
            .into_iter()
            .enumerate()
            .map(|(j, count)| (FileSetId(j as u64), count))
            .collect();
        let (duration_secs, cost, mean_cost_secs) =
            (self.duration_secs, self.cost, self.mean_cost_secs);
        Draws {
            label: format!("synthetic({:?})", self.weights),
            n_file_sets: self.n_file_sets,
            duration: SimDuration::from_secs_f64(duration_secs),
            len: self.total_requests as usize,
            // A Poisson process conditioned on N arrivals in [0, T) has its
            // arrivals i.i.d. uniform — draw them directly, which both
            // matches the model and hits the exact request budget.
            arrivals: repeat_runs(runs)
                .map(move |j| (SimTime::from_secs_f64(arng.uniform() * duration_secs), j)),
            costs: move || cost.sample(mean_cost_secs, &mut crng),
        }
    }
}

/// Split `total` into integer parts proportional to `weights`, exactly
/// (largest-remainder rounding).
pub(crate) fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "weights sum to zero");
    let mut counts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as f64 * w / wsum;
        let floor = exact.floor() as u64;
        counts.push(floor);
        assigned += floor;
        remainders.push((exact - floor as f64, i));
    }
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = total - assigned;
    let mut i = 0;
    while leftover > 0 {
        counts[remainders[i % remainders.len()].1] += 1;
        leftover -= 1;
        i += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::assert_places_like_the_sort;

    #[test]
    fn apportion_exact() {
        let c = apportion(100, &[1.0, 1.0, 1.0]);
        assert_eq!(c.iter().sum::<u64>(), 100);
        assert!(c.iter().all(|&x| (33..=34).contains(&x)));
        let c2 = apportion(10, &[9.0, 1.0]);
        assert_eq!(c2, vec![9, 1]);
    }

    #[test]
    fn paper_config_counts() {
        let w = SyntheticConfig::paper(7).generate();
        let s = w.stats();
        assert_eq!(s.total_requests, 100_000);
        assert_eq!(w.n_file_sets, 500);
        assert!((s.duration_secs - 10_000.0).abs() < 1e-9);
        // Extreme heterogeneity: >100x between most and least active.
        assert!(s.heterogeneity_ratio > 100.0, "{}", s.heterogeneity_ratio);
    }

    #[test]
    fn offered_load_calibration() {
        let cfg = SyntheticConfig::paper(7).with_offered_load(0.5, 25.0);
        let w = cfg.generate();
        let rho = w.offered_load(25.0);
        assert!((rho - 0.5).abs() < 0.02, "rho {rho}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticConfig::paper(9).generate();
        let b = SyntheticConfig::paper(9).generate();
        assert_eq!(a.requests, b.requests);
        let c = SyntheticConfig::paper(10).generate();
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn arrivals_within_duration_and_sorted() {
        let w = SyntheticConfig {
            n_file_sets: 10,
            total_requests: 5_000,
            duration_secs: 100.0,
            weights: WeightDist::Constant,
            mean_cost_secs: 0.01,
            cost: CostModel::UniformSpread { spread: 0.2 },
            seed: 1,
        }
        .generate();
        assert!(w.requests.iter().all(|r| r.arrival.as_secs_f64() < 100.0));
        assert!(w.requests.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn cost_models() {
        let mut r = RngStream::new(1, "c");
        for _ in 0..100 {
            let u = CostModel::UniformSpread { spread: 0.2 }.sample(1.0, &mut r);
            let s = u.as_secs_f64();
            assert!((0.8..=1.2).contains(&s), "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "can draw 6000000000 µs, past the 2^32 µs")]
    fn a_cost_model_that_can_draw_past_2_pow_32_us_is_refused() {
        // A 60 s Pareto mean caps draws at 6,000 s; 100 requests almost
        // surely draw none past 2^32 µs, and the generator still refuses.
        SyntheticConfig {
            n_file_sets: 5,
            total_requests: 100,
            duration_secs: 1_000.0,
            weights: WeightDist::Constant,
            mean_cost_secs: 60.0,
            cost: CostModel::Pareto { alpha: 1.5 },
            seed: 1,
        }
        .generate();
    }

    #[test]
    fn cost_models_up_to_2_pow_32_us_are_accepted() {
        // The largest mean each model may have, and one µs more.
        let limit = (1u64 << 32) as f64 / 1e6;
        for (cost, top) in [
            (CostModel::UniformSpread { spread: 0.2 }, 1.2),
            (CostModel::Pareto { alpha: 1.5 }, 100.0),
        ] {
            let fits = (limit - 1e-6) / top;
            assert_costs_fit(cost, fits);
            let refused = std::panic::catch_unwind(|| assert_costs_fit(cost, (limit + 1e-6) / top));
            assert!(refused.is_err(), "{cost:?}");
        }
    }

    #[test]
    fn pareto_is_heavy_tailed_with_the_right_mean() {
        let mut r = RngStream::new(2, "pareto");
        let model = CostModel::Pareto { alpha: 1.5 };
        let n = 200_000;
        let draws: Vec<f64> = (0..n)
            .map(|_| model.sample(1.0, &mut r).as_secs_f64())
            .collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        // The 100x cap trims a sliver of the tail, so the sample mean sits
        // slightly below the nominal 1.0.
        assert!((0.85..=1.05).contains(&mean), "{mean}");
        let xm = 1.0 * 0.5 / 1.5;
        assert!(draws.iter().all(|&d| d >= xm - 1e-9 && d <= 100.0 + 1e-9));
        // Heavy tail: the top draw dwarfs the median by an order of
        // magnitude (an exponential with the same mean almost never does).
        let mut sorted = draws.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[n / 2];
        let max = sorted[n - 1];
        assert!(max > 20.0 * median, "max {max} median {median}");
    }

    #[test]
    fn stable_distribution_over_time() {
        // Per-set request share in the first and second half should agree
        // (the paper: "the distribution of requests from each file set is
        // stable for the duration of the simulation").
        let w = SyntheticConfig::paper(3).generate();
        let half = SimTime::from_secs_f64(5_000.0);
        let d1 = w.window_demands(SimTime::ZERO, half);
        let d2 = w.window_demands(half, SimTime(u64::MAX));
        let top: usize = (0..500)
            .max_by(|&a, &b| d1[a].partial_cmp(&d1[b]).unwrap())
            .unwrap();
        let r1 = d1[top] / d1.iter().sum::<f64>();
        let r2 = d2[top] / d2.iter().sum::<f64>();
        assert!(
            (r1 - r2).abs() / r1 < 0.25,
            "top-set share drifted: {r1} vs {r2}"
        );
    }

    #[test]
    fn draws_place_like_the_sort() {
        let dists = [
            WeightDist::Constant,
            WeightDist::PowerOfUniform { alpha: 1000.0 },
            WeightDist::GeometricSpread { ratio: 150.0 },
        ];
        let costs = [
            CostModel::UniformSpread { spread: 0.2 },
            CostModel::Pareto { alpha: 1.5 },
        ];
        let cfg = |weights, cost, total_requests, duration_secs| SyntheticConfig {
            n_file_sets: 60,
            total_requests,
            duration_secs,
            weights,
            mean_cost_secs: 0.01,
            cost,
            seed: 4,
        };
        // One request to a few thousand a bucket; at 0.02 s, 20,000
        // requests share 20,000 instants, so ties are common.
        for weights in dists {
            for (total, duration) in [(1, 10.0), (40, 10.0), (2_000, 1e4), (20_000, 0.02)] {
                let c = cfg(weights, costs[0], total, duration);
                assert_places_like_the_sort(|| c.draws(), &format!("{c:?}"));
            }
        }
        for cost in costs {
            let c = cfg(dists[1], cost, 5_000, 100.0);
            assert_places_like_the_sort(|| c.draws(), &format!("{c:?}"));
        }
    }
}
