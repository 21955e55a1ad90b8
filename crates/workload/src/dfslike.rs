//! DFSTrace-like trace generator.
//!
//! **Substitution (see DESIGN.md):** the paper drives its trace experiments
//! with a high-activity one-hour slice of the DFSTrace workstation traces
//! (Mummert & Satyanarayanan). Those traces are not redistributable, so we
//! synthesize a trace reproducing every statistic the paper reports about
//! its slice:
//!
//! * **21 file sets** (DFSTrace partitions along workstation boundaries and
//!   the metadata portion of one workstation's trace "is equivalent to the
//!   workload of a file set");
//! * **112,590 client requests** in **one hour**, hit exactly;
//! * "the most active file set has more than one hundred times as many
//!   requests as many of the least active file sets" — the activity
//!   spectrum is geometric with an exact [`ACTIVITY_RATIO`] (150x) max/min
//!   ratio;
//! * **bursts of load occurring in few file sets** (the paper's Figure 6/7
//!   discussion): the two most active file sets carry multiplicative burst
//!   windows partway through the hour, producing the latency spikes on the
//!   most powerful servers both adaptive policies localize there;
//! * service demands uniform within ±20% of the mean, the paper's "service
//!   time variance is low" regime.
//!
//! Placement policies observe only arrival times, file-set ids and service
//! demands, so matching the demand distribution, skew and burstiness
//! exercises the same code paths as the original trace.
//!
//! Like the synthetic generator, it draws set by set (most active set
//! first) and has the constructor place the set-major draws in arrival
//! order without a global sort; ties keep generation order.

use crate::request::{assert_draws_fit, repeat_runs, Draws, Workload};
use crate::synthetic::{apportion, assert_costs_fit, CostModel};
use crate::weights::WeightDist;
use anu_core::FileSetId;
use anu_des::{RngStream, SimDuration, SimTime};

/// Exact max/min activity ratio across file sets: the paper's slice has
/// "more than one hundred times" as many requests in its most active set
/// as in many of its least active ones.
pub const ACTIVITY_RATIO: f64 = 150.0;

/// The service demand model: uniform within ±20% of the mean.
const COST: CostModel = CostModel::UniformSpread;

/// A multiplicative burst window on one file set's arrival intensity.
struct Burst {
    /// Start, as a fraction of the trace duration.
    start_frac: f64,
    /// End, as a fraction of the trace duration.
    end_frac: f64,
    /// Intensity multiplier inside the window.
    factor: f64,
}

/// The burst windows, entry `i` on the `i`-th most active file set: two
/// windows on the most active set and one on the next.
const BURSTS: [&[Burst]; 2] = [
    &[
        Burst {
            start_frac: 0.30,
            end_frac: 0.38,
            factor: 3.0,
        },
        Burst {
            start_frac: 0.63,
            end_frac: 0.70,
            factor: 2.5,
        },
    ],
    &[Burst {
        start_frac: 0.45,
        end_frac: 0.52,
        factor: 2.5,
    }],
];

/// Configuration of the DFSTrace-like generator.
#[derive(Clone, Debug, PartialEq)]
pub struct DfsLikeConfig {
    /// Number of file sets (paper: 21).
    pub n_file_sets: usize,
    /// Total requests (paper: 112,590).
    pub total_requests: u64,
    /// Duration in seconds (paper: one hour).
    pub duration_secs: f64,
    /// Mean service demand at speed 1, seconds.
    pub mean_cost_secs: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for DfsLikeConfig {
    fn default() -> Self {
        DfsLikeConfig::paper(42)
    }
}

impl DfsLikeConfig {
    /// The paper-matching configuration: 21 file sets, 112,590 requests,
    /// one hour, and a mean cost putting the 1/3/5/7/9 cluster
    /// around offered load 0.35. At that intensity the most active file set
    /// demands ~2 speed-units/s: any server except the weakest can host it
    /// alone (matching the paper's dynamics, where adaptive policies
    /// localize bursts on the most powerful servers while the static
    /// policies still steadily overload the weakest server).
    pub fn paper(seed: u64) -> Self {
        DfsLikeConfig {
            n_file_sets: 21,
            total_requests: 112_590,
            duration_secs: 3600.0,
            mean_cost_secs: 0.28,
            seed,
        }
    }

    /// Generate the trace workload.
    pub fn generate(&self) -> Workload {
        Workload::from_draws(self.draws())
    }

    /// The trace's draws in generation order: file set by file set, from
    /// the most active down, each set's arrivals and costs from the
    /// `dfslike/arrivals` and `dfslike/costs` streams.
    pub(crate) fn draws(
        &self,
    ) -> Draws<impl Iterator<Item = (SimTime, FileSetId)> + Clone, impl FnMut() -> SimDuration>
    {
        assert!(self.n_file_sets > 0 && self.total_requests > 0);
        let duration = SimDuration::from_secs_f64(self.duration_secs);
        assert_draws_fit(self.n_file_sets, duration);
        assert_costs_fit(COST, self.mean_cost_secs);
        let mut wrng = RngStream::new(self.seed, "dfslike/weights");
        let mut arng = RngStream::new(self.seed, "dfslike/arrivals");
        let mut crng = RngStream::new(self.seed, "dfslike/costs");

        let weights = WeightDist::GeometricSpread {
            ratio: ACTIVITY_RATIO,
        }
        .sample(self.n_file_sets, &mut wrng);
        let counts = apportion(self.total_requests, &weights);

        // Rank file sets by activity to attach bursts to the most active.
        let mut by_activity: Vec<usize> = (0..self.n_file_sets).collect();
        by_activity.sort_by(|&a, &b| counts[b].cmp(&counts[a]));

        let samplers: Vec<IntensitySampler> = (0..self.n_file_sets)
            .map(|rank| {
                let bursts = BURSTS.get(rank).copied().unwrap_or(&[]);
                IntensitySampler::new(self.duration_secs, bursts)
            })
            .collect();
        let runs = by_activity
            .iter()
            .enumerate()
            .map(|(rank, &j)| ((rank, FileSetId(j as u64)), counts[j]))
            .collect();
        let mean_cost_secs = self.mean_cost_secs;
        Draws {
            label: "dfstrace-like".into(),
            n_file_sets: self.n_file_sets,
            duration,
            len: self.total_requests as usize,
            arrivals: repeat_runs(runs).map(move |(rank, j)| {
                let t = samplers[rank].sample(&mut arng);
                (SimTime::from_secs_f64(t), j)
            }),
            costs: move || COST.sample(mean_cost_secs, &mut crng),
        }
    }
}

/// Inverse-CDF sampler for a piecewise-constant arrival intensity: baseline
/// 1, multiplied inside burst windows. A non-homogeneous Poisson process
/// conditioned on its count has arrivals i.i.d. with density proportional
/// to the intensity.
#[derive(Clone)]
struct IntensitySampler {
    /// Piece boundaries in seconds (ascending, starts at 0, ends at T).
    edges: Vec<f64>,
    /// Cumulative mass up to each piece end.
    cum: Vec<f64>,
    /// Mass of the whole duration: the last entry of `cum`.
    total: f64,
}

impl IntensitySampler {
    fn new(duration: f64, bursts: &[Burst]) -> Self {
        // Collect piece boundaries.
        let mut edges = vec![0.0, duration];
        for b in bursts {
            edges.push(b.start_frac * duration);
            edges.push(b.end_frac * duration);
        }
        edges.sort_by(f64::total_cmp);
        edges.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut cum = Vec::with_capacity(edges.len() - 1);
        let mut acc = 0.0;
        for w in edges.windows(2) {
            let mid = (w[0] + w[1]) / 2.0;
            let mut intensity = 1.0;
            for b in bursts {
                if mid >= b.start_frac * duration && mid < b.end_frac * duration {
                    intensity *= b.factor;
                }
            }
            acc += (w[1] - w[0]) * intensity;
            cum.push(acc);
        }
        IntensitySampler {
            edges,
            cum,
            total: acc,
        }
    }

    fn sample(&self, rng: &mut RngStream) -> f64 {
        let x = rng.uniform() * self.total;
        let i = self
            .cum
            .partition_point(|&c| c <= x)
            .min(self.cum.len() - 1);
        let lo_mass = if i == 0 { 0.0 } else { self.cum[i - 1] };
        let frac = (x - lo_mass) / (self.cum[i] - lo_mass);
        self.edges[i] + frac * (self.edges[i + 1] - self.edges[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{assert_places_like_the_sort, Request};

    #[test]
    fn paper_statistics_match() {
        let w = DfsLikeConfig::paper(5).generate();
        let s = w.stats();
        assert_eq!(s.total_requests, 112_590);
        assert_eq!(w.n_file_sets, 21);
        assert_eq!(s.active_file_sets, 21);
        assert!((s.duration_secs - 3600.0).abs() < 1e-9);
        assert!(
            s.heterogeneity_ratio > 100.0,
            "activity ratio {} must exceed the paper's 100x",
            s.heterogeneity_ratio
        );
    }

    #[test]
    fn bursts_concentrate_arrivals() {
        let cfg = DfsLikeConfig::paper(5);
        let w = cfg.generate();
        // The most active file set has a 3.0x burst in [0.30, 0.38] of the
        // hour: its arrival rate there must exceed its baseline rate.
        let counts = w.stats().per_set_counts.clone();
        let top = (0..21).max_by_key(|&j| counts[j]).unwrap() as u64;
        let dur = 3600.0;
        let in_window = |r: &Request, lo: f64, hi: f64| {
            let t = r.arrival().as_secs_f64();
            r.file_set().0 == top && t >= lo * dur && t < hi * dur
        };
        let burst: usize = w
            .requests
            .iter()
            .filter(|r| in_window(r, 0.30, 0.38))
            .count();
        let calm: usize = w
            .requests
            .iter()
            .filter(|r| in_window(r, 0.05, 0.13))
            .count();
        let ratio = burst as f64 / calm.max(1) as f64;
        assert!(ratio > 2.0, "burst/calm rate ratio {ratio}, expected ~3");
    }

    #[test]
    fn deterministic() {
        let a = DfsLikeConfig::paper(8).generate();
        let b = DfsLikeConfig::paper(8).generate();
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn arrivals_in_range_and_sorted() {
        let w = DfsLikeConfig::paper(1).generate();
        assert!(w
            .requests
            .iter()
            .all(|r| r.arrival().as_secs_f64() < 3600.0));
        assert!(w
            .requests
            .windows(2)
            .all(|p| p[0].arrival() <= p[1].arrival()));
    }

    #[test]
    fn offered_load_below_peak() {
        // Against the paper's 1/3/5/7/9 cluster (total speed 25), the trace
        // must offer less than peak load but a substantial fraction of it.
        let w = DfsLikeConfig::paper(2).generate();
        let rho = w.offered_load(25.0);
        assert!(rho > 0.25 && rho < 0.6, "rho {rho}");
    }

    #[test]
    fn intensity_sampler_uniform_without_bursts() {
        let s = IntensitySampler::new(100.0, &[]);
        let mut r = RngStream::new(1, "t");
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| s.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 2.0, "{mean}");
    }

    #[test]
    fn draws_place_like_the_sort() {
        // 20,000 requests in a tenth of a second: the buckets hold
        // thousands of requests, and ties are common.
        let crowded = DfsLikeConfig {
            duration_secs: 0.1,
            ..DfsLikeConfig::paper(6)
        };
        for base in [DfsLikeConfig::paper(6), crowded] {
            for total in [1, 300, 11_259, 20_000] {
                let cfg = DfsLikeConfig {
                    total_requests: total,
                    ..base.clone()
                };
                assert_places_like_the_sort(|| cfg.draws(), &format!("{cfg:?}"));
            }
        }
    }
}
