//! Property tests of the cluster world: conservation and liveness under
//! randomized workloads, policies and fault schedules.
//!
//! Cases come from a seeded [`RngStream`] (24 deterministic cases per
//! property), so the suite runs offline with no property-test framework.

use anu_cluster::{
    run, Assignment, ClusterConfig, ClusterView, FaultEvent, MoveSet, PlacementPolicy, ServerSpec,
};
use anu_core::{FileSetId, LoadReport, ServerId};
use anu_des::{RngStream, SimDuration, SimTime};
use anu_workload::{CostModel, SyntheticConfig, WeightDist};

const CASES: u64 = 24;

/// Static modulo policy reused as a deterministic baseline.
struct Modulo;

impl PlacementPolicy for Modulo {
    fn name(&self) -> &str {
        "modulo"
    }
    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        let alive = view.alive();
        (0..file_sets.len())
            .map(|i| Some(alive[i % alive.len()]))
            .collect()
    }
    fn on_tick(&mut self, _: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
    fn on_fail(
        &mut self,
        view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        let alive = view.alive();
        assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == Some(failed))
            .enumerate()
            .map(|(k, (i, _))| MoveSet {
                set: FileSetId(i as u64),
                to: alive[k % alive.len()],
            })
            .collect()
    }
    fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
}

fn workload(seed: u64, n_sets: usize, requests: u64) -> anu_workload::Workload {
    SyntheticConfig {
        n_file_sets: n_sets,
        total_requests: requests,
        duration_secs: 400.0,
        weights: WeightDist::PowerOfUniform { alpha: 20.0 },
        mean_cost_secs: 0.05,
        cost: CostModel::UniformSpread,
        seed,
    }
    .generate()
}

#[test]
fn every_request_completes() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "every-request");
        let seed = rng.next_u64();
        let n_sets = 5 + rng.index(35);
        let n_servers = 3 + rng.index(4);
        let mut cfg = ClusterConfig::paper();
        cfg.servers = (0..n_servers)
            .map(|i| ServerSpec {
                id: ServerId(i as u32),
                speed: 1.0 + rng.uniform() * 8.0,
            })
            .collect();
        let w = workload(seed, n_sets, 2_000);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.completed_requests, 2_000, "case {case}");
        // Latency accounting is conservative: every series bucket count sums
        // to completions.
        let total: u64 = r
            .series
            .values()
            .flat_map(|ts| ts.buckets().iter().map(|b| b.count))
            .sum();
        assert_eq!(total, 2_000, "case {case}");
    }
}

#[test]
fn single_fault_then_recover_conserves() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "fault-recover");
        let seed = rng.next_u64();
        let victim = rng.index(5) as u32;
        let fail_frac = 0.1 + rng.uniform() * 0.4;
        let recover_gap = 0.1 + rng.uniform() * 0.3;
        let mut cfg = ClusterConfig::paper();
        let fail_at = 400.0 * fail_frac;
        let recover_at = fail_at + 400.0 * recover_gap;
        cfg.faults = vec![
            FaultEvent::Fail {
                at: SimTime::from_secs_f64(fail_at),
                server: ServerId(victim),
            },
            FaultEvent::Recover {
                at: SimTime::from_secs_f64(recover_at),
                server: ServerId(victim),
            },
        ];
        let w = workload(seed, 20, 2_000);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.completed_requests, 2_000, "case {case}");
        assert!(
            r.summary.migrations >= 1,
            "case {case}: orphans must have moved"
        );
    }
}

#[test]
fn anu_policy_survives_fault_schedules() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "fault-schedules");
        let seed = rng.next_u64();
        let n_victims = 1 + rng.index(2);
        let victims: Vec<u32> = (0..n_victims).map(|_| rng.index(5) as u32).collect();
        // Distinct victims failing at staggered times, recovering later.
        let mut dedup = victims.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let mut cfg = ClusterConfig::paper();
        for (i, &v) in dedup.iter().enumerate() {
            let base = 80.0 + 90.0 * i as f64;
            cfg.faults.push(FaultEvent::Fail {
                at: SimTime::from_secs_f64(base),
                server: ServerId(v),
            });
            cfg.faults.push(FaultEvent::Recover {
                at: SimTime::from_secs_f64(base + 60.0),
                server: ServerId(v),
            });
        }
        let w = workload(seed, 30, 3_000);
        let mut policy = anu_policies::AnuPolicy::with_seed(seed);
        let r = run(&cfg, &w, &mut policy);
        assert_eq!(r.summary.completed_requests, 3_000, "case {case}");
    }
}

#[test]
fn shorter_tick_never_loses_requests() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "tick-conserves");
        let seed = rng.next_u64();
        let tick_s = 20 + rng.next_u64() % 180;
        let mut cfg = ClusterConfig::paper();
        cfg.tick = SimDuration::from_secs(tick_s);
        let w = workload(seed, 25, 2_500);
        let mut policy = anu_policies::AnuPolicy::with_seed(seed);
        let r = run(&cfg, &w, &mut policy);
        assert_eq!(r.summary.completed_requests, 2_500, "case {case}");
    }
}
