//! Cold-cache tests: a moved set pays the post-move penalty.
#![cfg(test)]

use super::*;
use crate::policy::MoveSet;
use anu_core::ServerId;
use anu_workload::{CostModel, SyntheticConfig, WeightDist};

/// Moves one chosen set to a chosen destination at the first tick.
struct OneMove {
    set: FileSetId,
    to: ServerId,
    done: bool,
}

impl PlacementPolicy for OneMove {
    fn name(&self) -> &str {
        "one-move"
    }
    fn initial(&mut self, view: &ClusterView, fs: &[FileSetId]) -> Assignment {
        let alive = view.alive();
        // Everything except the destination gets the sets, so the move
        // is guaranteed to change servers.
        fs.iter()
            .map(|&f| {
                (
                    f,
                    if alive[0] == self.to {
                        alive[1]
                    } else {
                        alive[0]
                    },
                )
            })
            .collect()
    }
    fn on_tick(&mut self, _: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
        if self.done {
            return Vec::new();
        }
        self.done = true;
        vec![MoveSet {
            set: self.set,
            to: self.to,
        }]
    }
    fn on_fail(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
    fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
}

fn uniform_workload(seed: u64) -> Workload {
    SyntheticConfig {
        n_file_sets: 4,
        total_requests: 4_000,
        duration_secs: 800.0,
        weights: WeightDist::Constant,
        mean_cost_secs: 0.01,
        cost: CostModel::Deterministic,
        seed,
    }
    .generate()
}

#[test]
fn cold_cache_inflates_post_move_service() {
    // Same scenario with and without a cold-cache penalty: the moved
    // set's requests right after the migration must be slower under
    // the penalty, and only transiently.
    let base = ClusterConfig::paper();
    let w = uniform_workload(21);
    let moved = FileSetId(0);
    let dest = ServerId(4);

    let run_with_penalty = |mult: f64| {
        let mut cfg = base.clone();
        cfg.cold_cache = crate::spec::ColdCacheConfig {
            multiplier: mult,
            warm_after: 100,
        };
        let mut p = OneMove {
            set: moved,
            to: dest,
            done: false,
        };
        run(&cfg, &w, &mut p)
    };

    let cold = run_with_penalty(4.0);
    let warm = run_with_penalty(1.0);
    assert_eq!(
        cold.summary.completed_requests,
        warm.summary.completed_requests
    );
    // The destination's total busy time is strictly larger with the
    // penalty (it served the same requests, each inflated at first).
    let u_cold = cold.summary.per_server_utilization[&dest];
    let u_warm = warm.summary.per_server_utilization[&dest];
    assert!(
        u_cold > u_warm,
        "cold-cache utilization {u_cold:.4} must exceed warm {u_warm:.4}"
    );
}
