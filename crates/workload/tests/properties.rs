//! Property tests for the workload generators: exact budgets, valid
//! arrival ranges, calibrated load, activity spread, determinism and the
//! prescient oracle's windows.
//!
//! Cases are driven by a seeded [`RngStream`] (32 deterministic cases per
//! property) so the suite needs no external property-test framework and
//! reproduces exactly from the printed case index.

use anu_des::RngStream;
use anu_workload::dfslike::ACTIVITY_RATIO;
use anu_workload::{CostModel, DfsLikeConfig, SyntheticConfig, WeightDist};

const CASES: u64 = 32;

#[test]
fn synthetic_hits_exact_budget() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "synthetic-budget");
        let seed = rng.next_u64();
        let n_sets = 1 + rng.index(99);
        let requests = 1 + rng.next_u64() % 4_999;
        let duration = 10.0 + rng.uniform() * 4_990.0;
        let w = SyntheticConfig {
            n_file_sets: n_sets,
            total_requests: requests,
            duration_secs: duration,
            weights: WeightDist::PowerOfUniform { alpha: 100.0 },
            mean_cost_secs: 0.1,
            cost: CostModel::UniformSpread,
            seed,
        }
        .generate();
        assert_eq!(w.requests.len() as u64, requests, "case {case}");
        assert!(
            w.requests
                .iter()
                .all(|r| r.arrival().as_secs_f64() < duration),
            "case {case}"
        );
        assert!(
            w.requests
                .windows(2)
                .all(|p| p[0].arrival() <= p[1].arrival()),
            "case {case}"
        );
        assert!(
            w.requests
                .iter()
                .all(|r| (r.file_set().0 as usize) < n_sets),
            "case {case}"
        );
    }
}

#[test]
fn offered_load_calibration_is_accurate() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "offered-load");
        let seed = rng.next_u64();
        let rho = 0.05 + rng.uniform() * 0.90;
        let w = SyntheticConfig {
            n_file_sets: 50,
            total_requests: 20_000,
            duration_secs: 1_000.0,
            weights: WeightDist::Constant,
            mean_cost_secs: 0.0,
            cost: CostModel::UniformSpread,
            seed,
        }
        .with_offered_load(rho, 25.0)
        .generate();
        let got = w.offered_load(25.0);
        assert!(
            (got - rho).abs() < 0.02 * rho.max(0.1),
            "case {case}: want {rho}, got {got}"
        );
    }
}

#[test]
fn dfslike_respects_activity_ratio() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "dfslike-ratio");
        let seed = rng.next_u64();
        let n_file_sets = 2 + rng.index(40);
        let w = DfsLikeConfig {
            n_file_sets,
            total_requests: 20_000,
            duration_secs: 600.0,
            mean_cost_secs: 0.1,
            seed,
        }
        .generate();
        let ratio = ACTIVITY_RATIO;
        let s = w.stats();
        assert_eq!(s.total_requests, 20_000, "case {case}");
        // Rounding moves the realized ratio a little; it must stay near the
        // configured spectrum.
        assert!(
            s.heterogeneity_ratio > ratio * 0.5 && s.heterogeneity_ratio < ratio * 2.0,
            "case {case}: configured {ratio}, realized {}",
            s.heterogeneity_ratio
        );
    }
}

#[test]
fn generators_are_seed_deterministic() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "seed-determinism");
        let seed = rng.next_u64();
        let a = SyntheticConfig::paper(seed).generate();
        let b = SyntheticConfig::paper(seed).generate();
        assert_eq!(a.requests, b.requests, "case {case}");
        let c = DfsLikeConfig {
            total_requests: 5_000,
            ..DfsLikeConfig::paper(seed)
        }
        .generate();
        let d = DfsLikeConfig {
            total_requests: 5_000,
            ..DfsLikeConfig::paper(seed)
        }
        .generate();
        assert_eq!(c.requests, d.requests, "case {case}");
    }
}

#[test]
fn window_demands_partition_total() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "window-demands");
        let seed = rng.next_u64();
        let cut = 0.1 + rng.uniform() * 0.8;
        let w = SyntheticConfig {
            n_file_sets: 20,
            total_requests: 2_000,
            duration_secs: 100.0,
            weights: WeightDist::PowerOfUniform { alpha: 30.0 },
            mean_cost_secs: 0.02,
            cost: CostModel::UniformSpread,
            seed,
        }
        .generate();
        use anu_des::SimTime;
        let mid = SimTime::from_secs_f64(100.0 * cut);
        let a = w.window_demands(SimTime::ZERO, mid);
        let b = w.window_demands(mid, SimTime(u64::MAX));
        let mut total = [0.0; 20];
        for r in w.requests.iter() {
            total[r.file_set().0 as usize] += r.cost().as_secs_f64();
        }
        for i in 0..20 {
            assert!((a[i] + b[i] - total[i]).abs() < 1e-9, "case {case} set {i}");
        }
    }
}
