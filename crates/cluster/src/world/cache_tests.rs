//! Cold-cache tests: a set starts cold at every landing — after a
//! planned move, after a round trip back to its old owner, and after a
//! crash re-homes it.
#![cfg(test)]

use super::tests::Modulo;
use super::*;
use crate::policy::MoveSet;
use crate::spec::{ColdCacheConfig, FaultEvent};
use anu_core::ServerId;
use anu_workload::{CostModel, SyntheticConfig, WeightDist};

/// Places every set on `home`, then orders the scripted moves, one per
/// tick, in order.
struct Scripted {
    home: ServerId,
    moves: Vec<MoveSet>,
}

impl PlacementPolicy for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }
    fn initial(&mut self, _: &ClusterView, fs: &[FileSetId]) -> Assignment {
        vec![Some(self.home); fs.len()]
    }
    fn on_tick(&mut self, _: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
        if self.moves.is_empty() {
            return Vec::new();
        }
        vec![self.moves.remove(0)]
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
        cost: CostModel::UniformSpread { spread: 0.2 },
        seed,
    }
    .generate()
}

/// `cfg` with a cold-cache multiplier of `mult`, warm after 100 requests.
fn with_penalty(cfg: &ClusterConfig, mult: f64) -> ClusterConfig {
    let mut cfg = cfg.clone();
    cfg.cold_cache = ColdCacheConfig {
        multiplier: mult,
        warm_after: 100,
    };
    cfg
}

/// `server`'s utilization with a 4x cold-cache penalty and without one.
/// Routing does not depend on service times, so both runs send `server`
/// the same requests, and any difference is the penalty it paid.
fn utilization_cold_and_warm(
    cfg: &ClusterConfig,
    w: &Workload,
    server: ServerId,
    mut policy: impl FnMut() -> Box<dyn PlacementPolicy>,
) -> (f64, f64) {
    let cold = run(&with_penalty(cfg, 4.0), w, policy().as_mut());
    let warm = run(&with_penalty(cfg, 1.0), w, policy().as_mut());
    assert_eq!(
        cold.summary.completed_requests,
        warm.summary.completed_requests
    );
    (
        cold.summary.per_server_utilization[&server],
        warm.summary.per_server_utilization[&server],
    )
}

#[test]
fn cold_cache_inflates_post_move_service() {
    // The destination's total busy time is strictly larger with the
    // penalty: it served the same requests, the moved set's first ones
    // inflated.
    let moved = FileSetId(0);
    let dest = ServerId(4);
    let (u_cold, u_warm) =
        utilization_cold_and_warm(&ClusterConfig::paper(), &uniform_workload(21), dest, || {
            Box::new(Scripted {
                home: ServerId(0),
                moves: vec![MoveSet {
                    set: moved,
                    to: dest,
                }],
            })
        });
    assert!(
        u_cold > u_warm,
        "cold-cache utilization {u_cold:.4} must exceed warm {u_warm:.4}"
    );
}

#[test]
fn round_trip_pays_the_cold_cache_again() {
    // Set 0 goes A -> B at the first tick and back B -> A at the second.
    // A held the set warm from the start, so the only requests A could
    // serve cold are those after the return: A's busy time grows with
    // the penalty only if the set came home cold.
    let (home, away) = (ServerId(0), ServerId(4));
    let (u_cold, u_warm) =
        utilization_cold_and_warm(&ClusterConfig::paper(), &uniform_workload(22), home, || {
            Box::new(Scripted {
                home,
                moves: [away, home]
                    .map(|to| MoveSet {
                        set: FileSetId(0),
                        to,
                    })
                    .to_vec(),
            })
        });
    assert!(
        u_cold > u_warm,
        "returned set must start cold: {u_cold:.4} vs warm {u_warm:.4}"
    );
}

#[test]
fn set_rehomed_after_a_crash_starts_cold() {
    // Modulo places set j on server j; the crash of server 0 re-homes
    // set 0 onto server 1, whose own set was warm from the start.
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![FaultEvent::Fail {
        at: SimTime::from_secs_f64(200.0),
        server: ServerId(0),
    }];
    let (u_cold, u_warm) =
        utilization_cold_and_warm(&cfg, &uniform_workload(23), ServerId(1), || {
            Box::new(Modulo)
        });
    assert!(
        u_cold > u_warm,
        "re-homed set must start cold: {u_cold:.4} vs warm {u_warm:.4}"
    );
}
