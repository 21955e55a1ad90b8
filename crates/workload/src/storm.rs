//! Storm workloads: adversarial load shapes for elasticity testing.
//!
//! The synthetic generator ([`crate::synthetic`]) produces the paper's
//! steady-state regime: stationary Poisson arrivals with a stable per-set
//! popularity. Storms break exactly those assumptions, one at a time —
//! the regimes where Mukhopadhyay & Mazumdar and Gardner et al. (see
//! PAPERS.md) show that policies which look fine at steady state fall
//! over:
//!
//! * [`StormKind::FlashCrowd`] — a burst window mid-run where the arrival
//!   rate multiplies, then collapses back (non-stationary rate);
//! * [`StormKind::Diurnal`] — a smooth two-cycle load curve, peaks at
//!   several times the troughs (slowly varying rate);
//! * [`StormKind::PopularityShift`] — the per-set weights are re-drawn in
//!   correlated phases, so the hot data *moves* (non-stable popularity);
//! * [`StormKind::Adversarial`] — a rotating small subset of file sets
//!   carries most of the load, shifting every phase: wherever the placer
//!   put the current hot sets becomes the weakest server, and the storm
//!   immediately moves the spotlight (worst-case popularity dynamics).
//!
//! Heavy-tailed service demands ride in through the base config's
//! [`CostModel::Pareto`](crate::synthetic::CostModel::Pareto), and membership churn through
//! `FaultPlanConfig::churn_storm` on the cluster side — a storm cell in
//! the harness composes all three axes.
//!
//! Rate-shaping storms are implemented as a monotone time-warp of the
//! base workload's arrivals (inverse-CDF of the target rate profile), so
//! per-set popularity, request counts, and costs are exactly the base
//! workload's; only *when* requests land changes. The warp is monotone
//! (see `invert_cdf`), so the base's arrival order survives it and the
//! warped requests need no second sort. Phased storms draw phase by
//! phase and set by set, and the constructor places those draws in
//! arrival order without a global sort, as for the synthetic base.
//! Every draw comes from dedicated labeled [`RngStream`]s, so storms are
//! byte-deterministic in `(config, seed)` and never perturb other
//! generators.
//!
//! The warp inverts the CDF by bisection, eight arrivals at a time in
//! lockstep. One arrival's bisection is a chain of 60 dependent steps:
//! each step's midpoint needs the previous step's comparison, which needs
//! a CDF evaluation. A scalar loop waits out that chain at every step
//! (and mispredicts its branch about half the time). The lockstep runs
//! eight independent chains side by side with a select in place of the
//! branch, so the CPU overlaps them. Each lane performs the scalar loop's
//! float operations in the same order for the same number of steps, so
//! its `(lo, hi)` after every step, and hence every warped arrival, is
//! bit-identical to the scalar loop's, for any CDF (monotone or not).

use crate::request::{assert_draws_fit, repeat_runs, Draws, Request, Workload};
use crate::synthetic::{apportion, assert_costs_fit, SyntheticConfig};
use anu_core::FileSetId;
use anu_des::{RngStream, SimDuration, SimTime};
use std::sync::Arc;

/// Which storm shape to generate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StormKind {
    /// Arrival-rate burst in a mid-run window.
    FlashCrowd,
    /// Smooth two-cycle day/night load curve.
    Diurnal,
    /// Per-set popularity re-drawn in correlated phases.
    PopularityShift,
    /// A rotating hot subset of file sets carries most of the load.
    Adversarial,
}

impl StormKind {
    /// Stable lowercase name (CSV columns, manifest blocks, CLI).
    pub fn name(&self) -> &'static str {
        match self {
            StormKind::FlashCrowd => "flash_crowd",
            StormKind::Diurnal => "diurnal",
            StormKind::PopularityShift => "popularity_shift",
            StormKind::Adversarial => "adversarial",
        }
    }

    /// All storm kinds, in the sweep order the harness uses.
    pub fn all() -> [StormKind; 4] {
        [
            StormKind::FlashCrowd,
            StormKind::Diurnal,
            StormKind::PopularityShift,
            StormKind::Adversarial,
        ]
    }
}

/// One storm workload: a base synthetic config plus a shape and an
/// intensity knob.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StormConfig {
    /// The storm shape.
    pub kind: StormKind,
    /// How violent the storm is. 0 is (close to) the base workload; 1 is
    /// the nominal storm; 2 doubles the distortion. Matches the chaos
    /// sweep's intensity axis.
    pub intensity: f64,
    /// The underlying synthetic workload (request budget, duration, cost
    /// model, seed). Heavy-tailed storms set `base.cost` to
    /// [`CostModel::Pareto`](crate::synthetic::CostModel::Pareto).
    pub base: SyntheticConfig,
}

impl StormConfig {
    /// Generate the storm workload. Deterministic in `(self)`; request
    /// count always equals `base.total_requests`.
    pub fn generate(&self) -> Workload {
        assert!(
            self.intensity >= 0.0 && self.intensity.is_finite(),
            "storm intensity must be finite and non-negative"
        );
        match self.kind {
            StormKind::FlashCrowd => self.warp(|x| flash_crowd_cdf(x, self.intensity)),
            StormKind::Diurnal => self.warp(|x| diurnal_cdf(x, self.intensity)),
            StormKind::PopularityShift => Workload::from_draws(self.phased(false)),
            StormKind::Adversarial => Workload::from_draws(self.phased(true)),
        }
    }

    /// The storm's label: its kind and intensity.
    fn label(&self) -> String {
        format!("storm({},i{:.2})", self.kind.name(), self.intensity)
    }

    /// Rate-shaping storms: generate the base workload, then push every
    /// arrival through the inverse of the target rate profile's CDF. Base
    /// arrivals are i.i.d. uniform in [0, T), so the warped arrivals are
    /// i.i.d. with density proportional to the profile — and the warp is
    /// monotone, so relative order (and every per-set property) is
    /// preserved: the warped requests stay sorted, ties in base order,
    /// with no second sort (see [`invert_cdf`]).
    ///
    /// # Panics
    /// Panics if a warped arrival does not fit a [`Request`] (it must not
    /// be truncated). The warp lands every arrival at or before the
    /// duration, which the base generator already holds below 2^40 µs.
    fn warp(&self, cdf: impl Fn(f64) -> f64) -> Workload {
        let mut w = self.base.generate();
        let t_total = self.base.duration_secs;
        // The first warped arrival that does not fit a request, if any.
        let mut unfit = None;
        // The stream was just generated and nothing shares it yet, so this
        // edits it in place.
        invert_cdf(
            &cdf,
            Arc::make_mut(&mut w.requests).as_mut_slice(),
            |r| (r.arrival().as_secs_f64() / t_total).clamp(0.0, 1.0),
            |r, x| match Request::new(SimTime::from_secs_f64(x * t_total), r.file_set(), r.cost()) {
                Ok(warped) => *r = warped,
                Err(why) => {
                    unfit.get_or_insert(why);
                }
            },
        );
        assert_eq!(unfit, None, "a warped arrival does not fit a request");
        w.label = self.label();
        w
    }

    /// Phase-structured storms: the run splits into equal phases; each
    /// phase draws its own per-set popularity. `adversarial` concentrates
    /// most of each phase's budget on a small rotating hot subset instead
    /// of re-drawing from the base distribution. The draws run phase by
    /// phase, and within a phase file set by file set.
    pub(crate) fn phased(
        &self,
        adversarial: bool,
    ) -> Draws<impl Iterator<Item = (SimTime, FileSetId)> + Clone, impl FnMut() -> SimDuration>
    {
        let base = &self.base;
        assert!(base.n_file_sets > 0 && base.total_requests > 0);
        let duration = SimDuration::from_secs_f64(base.duration_secs);
        assert_draws_fit(base.n_file_sets, duration);
        assert_costs_fit(base.cost, base.mean_cost_secs);
        let phases = (2 + (2.0 * self.intensity) as usize).min(16);
        let mut arng = RngStream::new(base.seed, "storm/arrivals");
        let mut crng = RngStream::new(base.seed, "storm/costs");
        let phase_budget = apportion(base.total_requests, &vec![1.0; phases]);
        let phase_len = base.duration_secs / phases as f64;
        // Hot-set parameters (adversarial only): ~a tenth of the sets
        // carry `hot_share` of the load, rotating by phase so the placer
        // can never settle.
        let hot_count = (base.n_file_sets / 10).max(1);
        let hot_share = (0.5 + 0.2 * self.intensity).min(0.95);

        let mut runs = Vec::with_capacity(phases * base.n_file_sets);
        for (p, &budget) in phase_budget.iter().enumerate() {
            let mut weights = if adversarial {
                // Cold floor for every set, hot spike on the rotating
                // subset: hot sets jointly get `hot_share` of the phase.
                let cold = (1.0 - hot_share) / base.n_file_sets as f64;
                let mut v = vec![cold; base.n_file_sets];
                for k in 0..hot_count {
                    let idx = (p * hot_count + k) % base.n_file_sets;
                    v[idx] += hot_share / hot_count as f64;
                }
                v
            } else {
                let mut wrng = RngStream::new(base.seed, &format!("storm/shift/{p}"));
                base.weights.sample(base.n_file_sets, &mut wrng)
            };
            // Popularity shifts are *correlated*: a set's fate changes
            // with the phase, not per-request, so intensity sharpens the
            // contrast between consecutive phases.
            if !adversarial && self.intensity > 1.0 {
                for w in &mut weights {
                    *w = w.powf(self.intensity);
                }
            }
            let counts = apportion(budget, &weights);
            let t0 = p as f64 * phase_len;
            runs.extend(
                counts
                    .into_iter()
                    .enumerate()
                    .map(|(j, count)| ((t0, FileSetId(j as u64)), count)),
            );
        }
        let (cost, mean_cost_secs) = (base.cost, base.mean_cost_secs);
        Draws {
            label: self.label(),
            n_file_sets: base.n_file_sets,
            duration,
            len: base.total_requests as usize,
            arrivals: repeat_runs(runs).map(move |(t0, j)| {
                let t = t0 + arng.uniform() * phase_len;
                (SimTime::from_secs_f64(t), j)
            }),
            costs: move || cost.sample(mean_cost_secs, &mut crng),
        }
    }
}

/// CDF (over normalized time x ∈ [0, 1]) of the flash-crowd rate profile:
/// baseline 1, multiplied by `1 + 4·intensity` inside the crowd window
/// [0.40, 0.55].
fn flash_crowd_cdf(x: f64, intensity: f64) -> f64 {
    const W0: f64 = 0.40;
    const W1: f64 = 0.55;
    let boost = 4.0 * intensity;
    let mass = 1.0 + boost * (W1 - W0);
    (x + boost * (x.min(W1) - W0).max(0.0)) / mass
}

/// CDF of the diurnal rate profile: two smooth cycles over the run,
/// `rate(x) = 1 − a·cos(4πx)` with `a` capped below 1 so the rate never
/// reaches zero. ∫rate = x − (a/4π)·sin(4πx), already normalized.
fn diurnal_cdf(x: f64, intensity: f64) -> f64 {
    let a = (0.45 * intensity).min(0.95);
    x - a / (4.0 * std::f64::consts::PI) * (4.0 * std::f64::consts::PI * x).sin()
}

/// Bisections the warp runs side by side. Eight measured fastest on the
/// flash-crowd warp: four are too few chains to hide a step's latency,
/// and sixteen spill lane state to the stack.
const LANES: usize = 8;

/// Invert a strictly increasing CDF on [0, 1] by bisection at
/// `target(item)` for every item, and hand each item its inverse through
/// `set`. 60 halvings put the answer within 2⁻⁶⁰ — far below the µs
/// tick — and the fixed step count keeps the result bit-deterministic.
///
/// The items go in batches of [`LANES`] (the last one padded with target
/// 0, whose result is dropped), and one bisection advances all lanes of
/// a batch a step at a time. A lane's step is the scalar step
/// `mid = 0.5·(lo + hi)`, then `lo = mid` if `cdf(mid) < target`, else
/// `hi = mid`, with a select for the branch: the same operations on the
/// same values in the same order. So after each step every lane's
/// `(lo, hi)` equals what a scalar loop holds for its target, and the
/// result `0.5·(lo + hi)` is the scalar result, bit for bit, whatever
/// `cdf` is.
///
/// The inverse is non-decreasing in the target, for any `cdf`, monotone
/// or not. Two bisections with targets `x ≤ y` share every midpoint until
/// they part, because `cdf(mid) < x` implies `cdf(mid) < y`: `y`'s lane
/// goes up whenever `x`'s does. Where they part, `x`'s lane keeps
/// `[lo, mid]` and `y`'s `[mid, hi]`, and every later step stays inside
/// its interval, so `x`'s result lies at or below `y`'s. Items sorted by
/// target thus come out sorted by inverse, and equal targets get equal
/// inverses. With the monotone `x·T` and [`SimTime::from_secs_f64`], a
/// warped sorted workload stays sorted, ties in base order.
fn invert_cdf<T>(
    cdf: &impl Fn(f64) -> f64,
    items: &mut [T],
    target: impl Fn(&T) -> f64,
    mut set: impl FnMut(&mut T, f64),
) {
    for batch in items.chunks_mut(LANES) {
        let mut x = [0.0_f64; LANES];
        for (x, item) in x.iter_mut().zip(&*batch) {
            *x = target(item);
        }
        let (mut lo, mut hi) = ([0.0_f64; LANES], [1.0_f64; LANES]);
        for _ in 0..60 {
            for k in 0..LANES {
                let mid = 0.5 * (lo[k] + hi[k]);
                let below = cdf(mid) < x[k];
                lo[k] = if below { mid } else { lo[k] };
                hi[k] = if below { hi[k] } else { mid };
            }
        }
        for (k, item) in batch.iter_mut().enumerate() {
            set(item, 0.5 * (lo[k] + hi[k]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::assert_places_like_the_sort;
    use crate::synthetic::CostModel;
    use crate::weights::WeightDist;

    fn base(seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            n_file_sets: 40,
            total_requests: 20_000,
            duration_secs: 1_000.0,
            weights: WeightDist::PowerOfUniform { alpha: 100.0 },
            mean_cost_secs: 0.05,
            cost: CostModel::UniformSpread,
            seed,
        }
    }

    fn storm(kind: StormKind, intensity: f64) -> Workload {
        StormConfig {
            kind,
            intensity,
            base: base(11),
        }
        .generate()
    }

    /// The reference the lockstep warp must match bit for bit: one
    /// bisection per target, branching at every step.
    fn invert_cdf_scalar(cdf: &impl Fn(f64) -> f64, target: f64) -> f64 {
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if cdf(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The rate profile's CDF of a rate-shaping storm.
    fn rate_cdf(kind: StormKind, intensity: f64) -> Box<dyn Fn(f64) -> f64> {
        match kind {
            StormKind::FlashCrowd => Box::new(move |x| flash_crowd_cdf(x, intensity)),
            StormKind::Diurnal => Box::new(move |x| diurnal_cdf(x, intensity)),
            _ => unreachable!("{} does not warp time", kind.name()),
        }
    }

    /// Requires the lockstep inverse of every target to have the scalar
    /// inverse's bits.
    fn assert_lockstep_matches(cdf: &dyn Fn(f64) -> f64, targets: &[f64], what: &str) {
        let mut got = targets.to_vec();
        invert_cdf(&cdf, &mut got, |&x| x, |x, inverse| *x = inverse);
        for (i, (&x, g)) in targets.iter().zip(got).enumerate() {
            let want = invert_cdf_scalar(&cdf, x);
            assert_eq!(
                g.to_bits(),
                want.to_bits(),
                "{what}: target {i} ({x:e}) inverts to {g:e}, the scalar loop to {want:e}"
            );
        }
    }

    /// The rate CDFs the lockstep warp is checked on.
    fn warp_cdfs() -> impl Iterator<Item = (String, Box<dyn Fn(f64) -> f64>)> {
        [StormKind::FlashCrowd, StormKind::Diurnal]
            .into_iter()
            .flat_map(|kind| {
                [0.0, 0.5, 1.0, 2.0, 4.0].map(|intensity| {
                    (
                        format!("{} at {intensity}", kind.name()),
                        rate_cdf(kind, intensity),
                    )
                })
            })
    }

    #[test]
    fn lockstep_warp_matches_scalar_bisection() {
        for (what, cdf) in warp_cdfs() {
            // Edge targets, then the CDF's own values on a grid, where
            // `cdf(mid) < target` and `<=` part ways.
            let mut targets = vec![0.0, 1.0, f64::MIN_POSITIVE, 1e-12, 1.0 - f64::EPSILON / 2.0];
            targets.extend((0..=64).map(|k| cdf(f64::from(k) / 64.0)));
            // Every fill of the last batch, padded or not.
            for len in 0..=2 * LANES + 1 {
                assert_lockstep_matches(&cdf, &targets[..len], &format!("{what}, {len} targets"));
            }
            assert_lockstep_matches(&cdf, &targets, &what);
        }
    }

    /// 100,000 seeded uniform targets per CDF: too slow for the debug
    /// build of tier-1 (about 7 s), so the release step of `ci/check.sh`
    /// runs it with the other ignored tests.
    #[test]
    #[ignore = "100,000 targets per CDF; run in release with --include-ignored"]
    fn lockstep_warp_matches_scalar_bisection_on_uniform_targets() {
        let mut rng = RngStream::new(3, "test/warp-targets");
        let uniforms: Vec<f64> = (0..100_000).map(|_| rng.uniform()).collect();
        for (what, cdf) in warp_cdfs() {
            assert_lockstep_matches(&cdf, &uniforms, &what);
        }
    }

    #[test]
    fn rate_storms_are_the_base_warped_by_the_scalar_reference() {
        for kind in [StormKind::FlashCrowd, StormKind::Diurnal] {
            // A request count that leaves the last batch part-filled.
            let mut base = base(5);
            base.total_requests = 10_003;
            let cdf = rate_cdf(kind, 1.5);
            let mut want = base.generate();
            for r in Arc::make_mut(&mut want.requests) {
                let x = (r.arrival().as_secs_f64() / base.duration_secs).clamp(0.0, 1.0);
                let warped =
                    SimTime::from_secs_f64(invert_cdf_scalar(&cdf, x) * base.duration_secs);
                *r = Request::new(warped, r.file_set(), r.cost()).unwrap();
            }
            let got = StormConfig {
                kind,
                intensity: 1.5,
                base,
            }
            .generate();
            assert_eq!(got.requests.len(), want.requests.len(), "{}", kind.name());
            for (i, (g, w)) in got.requests.iter().zip(want.requests.iter()).enumerate() {
                assert_eq!(g, w, "{}: request {i}", kind.name());
            }
        }
    }

    #[test]
    fn storms_preserve_budget_duration_and_determinism() {
        for kind in StormKind::all() {
            let w = storm(kind, 1.0);
            assert_eq!(w.requests.len(), 20_000, "{}", kind.name());
            assert_eq!(w.n_file_sets, 40);
            assert!(w
                .requests
                .iter()
                .all(|r| r.arrival().as_secs_f64() < 1_000.0 + 1e-6));
            assert!(w
                .requests
                .windows(2)
                .all(|p| p[0].arrival() <= p[1].arrival()));
            let again = storm(kind, 1.0);
            assert_eq!(w.requests, again.requests, "{}", kind.name());
        }
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_the_window() {
        let count_in = |w: &Workload, lo: f64, hi: f64| {
            w.requests
                .iter()
                .filter(|r| {
                    let t = r.arrival().as_secs_f64() / 1_000.0;
                    (lo..hi).contains(&t)
                })
                .count() as f64
        };
        let calm = storm(StormKind::FlashCrowd, 0.0);
        let wild = storm(StormKind::FlashCrowd, 2.0);
        let window = 0.55 - 0.40;
        let calm_share = count_in(&calm, 0.40, 0.55) / calm.requests.len() as f64;
        let wild_share = count_in(&wild, 0.40, 0.55) / wild.requests.len() as f64;
        assert!((calm_share - window).abs() < 0.03, "{calm_share}");
        // boost 8x in the window: share = 9w / (1 + 8w) ≈ 0.61.
        assert!(
            wild_share > 3.0 * calm_share,
            "{wild_share} vs {calm_share}"
        );
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let w = storm(StormKind::Diurnal, 2.0);
        // Quarter-cycle buckets: peaks at x=0.25 and 0.75 (cos at -1),
        // troughs at 0, 0.5, 1.
        let bucket = |lo: f64, hi: f64| {
            w.requests
                .iter()
                .filter(|r| {
                    let x = r.arrival().as_secs_f64() / 1_000.0;
                    (lo..hi).contains(&x)
                })
                .count() as f64
        };
        let peak = bucket(0.20, 0.30);
        let trough = bucket(0.45, 0.55);
        assert!(peak > 2.0 * trough, "peak {peak} trough {trough}");
    }

    #[test]
    fn popularity_shift_moves_the_hot_set() {
        let w = storm(StormKind::PopularityShift, 1.0);
        // 4 phases at intensity 1. The hottest set of the first phase must
        // not be the hottest of every phase (the weights re-draw).
        let phase_of = |t: f64| (t / 250.0) as usize;
        let mut counts = vec![vec![0u64; 40]; 4];
        for r in w.requests.iter() {
            let p = phase_of(r.arrival().as_secs_f64()).min(3);
            counts[p][r.file_set().0 as usize] += 1;
        }
        let top: Vec<usize> = counts
            .iter()
            .map(|c| (0..40).max_by_key(|&j| c[j]).unwrap())
            .collect();
        assert!(
            top.windows(2).any(|p| p[0] != p[1]),
            "hot set never moved: {top:?}"
        );
    }

    #[test]
    fn adversarial_hot_subset_rotates_and_dominates() {
        let w = storm(StormKind::Adversarial, 1.0);
        let phases = 4;
        let hot_count = 4; // 40 sets / 10
        let phase_len = 1_000.0 / phases as f64;
        for p in 0..phases {
            let hot: Vec<usize> = (0..hot_count).map(|k| (p * hot_count + k) % 40).collect();
            let (mut hot_reqs, mut total) = (0u64, 0u64);
            for r in w.requests.iter() {
                let t = r.arrival().as_secs_f64();
                if t >= p as f64 * phase_len && t < (p + 1) as f64 * phase_len {
                    total += 1;
                    if hot.contains(&(r.file_set().0 as usize)) {
                        hot_reqs += 1;
                    }
                }
            }
            let share = hot_reqs as f64 / total as f64;
            // hot_share at intensity 1 is 0.7 for a tenth of the sets.
            assert!(share > 0.6, "phase {p}: hot share {share}");
        }
    }

    #[test]
    fn phased_storms_place_like_the_sort() {
        for kind in [StormKind::PopularityShift, StormKind::Adversarial] {
            for intensity in [0.0, 0.5, 1.0, 2.0, 4.0] {
                for total in [7, 2_500, 12_000] {
                    let cfg = StormConfig {
                        kind,
                        intensity,
                        base: SyntheticConfig {
                            total_requests: total,
                            ..base(3)
                        },
                    };
                    let adversarial = kind == StormKind::Adversarial;
                    assert_places_like_the_sort(|| cfg.phased(adversarial), &format!("{cfg:?}"));
                }
            }
        }
    }

    #[test]
    fn sorted_targets_invert_to_sorted_results() {
        let mut rng = RngStream::new(4, "test/warp-order");
        let mut targets: Vec<f64> = (0..3_000).map(|_| rng.uniform()).collect();
        targets.extend_from_within(..500);
        targets.extend([0.0, 0.0, 0.5, 0.5, 1.0, 1.0]);
        targets.sort_by(f64::total_cmp);
        let check = |what: &str, cdf: &dyn Fn(f64) -> f64| {
            let mut inverse = targets.clone();
            invert_cdf(&cdf, &mut inverse, |&x| x, |x, inv| *x = inv);
            for (i, pair) in inverse.windows(2).enumerate() {
                assert!(
                    pair[0] <= pair[1],
                    "{what}: targets {:e} <= {:e} invert to {:e} > {:e}",
                    targets[i],
                    targets[i + 1],
                    pair[0],
                    pair[1]
                );
            }
        };
        check("a non-monotone cdf", &|x| x + 0.3 * (40.0 * x).sin());
        for kind in [StormKind::FlashCrowd, StormKind::Diurnal] {
            for intensity in [0.0, 0.5, 1.0, 2.0, 3.0, 4.0] {
                let what = format!("{} at {intensity}", kind.name());
                check(&what, &rate_cdf(kind, intensity));
            }
        }
    }
}
