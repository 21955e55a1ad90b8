//! The dynamic prescient baseline: perfect knowledge, best-fit packing.
//!
//! "Dynamic prescient placement … knows the processing capabilities of each
//! server and the workload characteristics of each file set. It provides
//! an upper bound for load balancing; it realizes the best possible load
//! balance … The adaptive prescient algorithm looks forward into the trace,
//! identifying the best load balance before the workload occurs and
//! configuring the servers to best handle that workload." (§7)
//!
//! At every tick the policy reads the *future* window of the workload (the
//! oracle), solves the makespan-minimization instance over the alive
//! servers, and permutes file sets freely. A hysteresis guard keeps it from
//! churning when the fresh packing is only marginally better than the
//! current one — with a time-stationary workload it then "retains the same
//! configuration for the duration of the experiment" exactly as the paper
//! observes, while still tracking genuine workload shifts in the trace.
//! A tick whose makespan lower bound already misses the hysteresis bar
//! skips the solve, since no packing it could find would be adopted.

use crate::assign::diff_moves;
use crate::lpt::Instance;
use anu_cluster::{Assignment, ClusterView, MoveSet, PlacementPolicy};
use anu_core::{FileSetId, LoadReport, ServerId};
use anu_des::{SimDuration, SimTime};
use anu_workload::Workload;
use std::collections::BTreeMap;

/// The prescient policy.
pub struct Prescient {
    /// The full future workload — the oracle. It shares the request
    /// stream of the workload it was cloned from, so the oracle reads the
    /// same requests the run replays.
    oracle: Workload,
    /// Server speeds — the capability knowledge ANU does not get.
    speeds: BTreeMap<ServerId, f64>,
    /// Lookahead window (= the tuning interval).
    window: SimDuration,
    /// Re-pack only if the fresh solution beats the current configuration's
    /// makespan by this factor (hysteresis against oracle noise).
    improvement_threshold: f64,
}

impl Prescient {
    /// Build from the oracle workload, the true server speeds, and the
    /// lookahead window (normally the cluster tick).
    pub fn new(oracle: Workload, speeds: BTreeMap<ServerId, f64>, window: SimDuration) -> Self {
        Prescient {
            oracle,
            speeds,
            window,
            improvement_threshold: 0.9,
        }
    }

    /// Freeze the configuration: solve the packing once at time zero and
    /// never re-pack on ticks (failures still force one). This is the
    /// paper's observed behavior on stationary workloads — "the prescient
    /// policy retains the same configuration for the duration of the
    /// experiment" — made exact instead of left to hysteresis, which on
    /// short runs can still churn on the noise of the shrinking oracle
    /// tail.
    pub fn frozen(mut self) -> Self {
        self.improvement_threshold = 0.0;
        self
    }

    fn instance(&self, view: &ClusterView, from: SimTime) -> Instance {
        let demands = self.oracle.window_demands(from, from + self.window);
        Instance {
            demands: demands
                .iter()
                .enumerate()
                .map(|(i, &d)| (FileSetId(i as u64), d))
                .collect(),
            servers: view
                .alive()
                .into_iter()
                .map(|s| (s, self.speeds[&s]))
                .collect(),
        }
    }
}

/// `assignment` as a packing of `inst`, if every set sits on one of its
/// servers: only such a configuration can stay, and its makespan is the
/// bar a fresh packing must beat. A set orphaned by a failure or homed on
/// a dead server forces a re-pack.
fn current_packing(inst: &Instance, assignment: &Assignment) -> Option<Vec<ServerId>> {
    let packing: Option<Vec<ServerId>> = assignment
        .iter()
        .map(|&s| s.filter(|s| inst.servers.iter().any(|&(id, _)| id == *s)))
        .collect();
    packing.filter(|p| p.len() == inst.demands.len())
}

/// Whether no packing of `inst` can reach a makespan below `bar`: its
/// lower bound misses the bar by a margin that covers the rounding of the
/// float sums behind the bound and the makespans.
fn bound_misses(inst: &Instance, bar: f64) -> bool {
    inst.makespan_lower_bound() >= bar * (1.0 + 1e-9)
}

impl PlacementPolicy for Prescient {
    fn name(&self) -> &str {
        "dynamic-prescient"
    }

    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        // "Having perfect knowledge, the prescient algorithm begins in a
        // load-balanced state at time 0."
        let inst = self.instance(view, SimTime::ZERO);
        let solution = inst.solve();
        debug_assert_eq!(solution.len(), file_sets.len());
        solution.into_iter().map(Some).collect()
    }

    fn on_tick(
        &mut self,
        view: &ClusterView,
        _reports: &[LoadReport],
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        // A non-positive threshold can never adopt a fresh packing
        // (`new_span >= cur_span * 0` always holds), so skip solving one.
        if self.improvement_threshold <= 0.0 {
            return Vec::new();
        }
        let inst = self.instance(view, view.now);
        // Current configuration evaluated against the upcoming window.
        let bar = current_packing(&inst, assignment)
            .map(|current| inst.makespan(&current) * self.improvement_threshold);
        // No packing beats the lower bound, so when the bound misses the
        // bar a fresh packing could not be adopted: skip the solve.
        if bar.is_some_and(|bar| bound_misses(&inst, bar)) {
            return Vec::new();
        }
        let fresh = inst.solve();
        if bar.is_some_and(|bar| inst.makespan(&fresh) >= bar) {
            return Vec::new(); // not enough improvement to pay migration
        }
        diff_moves(assignment, &fresh)
    }

    fn on_fail(
        &mut self,
        view: &ClusterView,
        _failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        // Re-pack over the survivors; perfect knowledge means a globally
        // re-balanced configuration.
        let inst = self.instance(view, view.now);
        diff_moves(assignment, &inst.solve())
    }

    fn on_recover(
        &mut self,
        view: &ClusterView,
        _recovered: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        let inst = self.instance(view, view.now);
        diff_moves(assignment, &inst.solve())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::fixtures::apply;
    use crate::assign::sets_on;
    use crate::lpt::tests::random_instance;
    use anu_des::RngStream;
    use anu_workload::{CostModel, SyntheticConfig, WeightDist};

    fn workload() -> Workload {
        SyntheticConfig {
            n_file_sets: 50,
            total_requests: 10_000,
            duration_secs: 1_000.0,
            weights: WeightDist::PowerOfUniform { alpha: 100.0 },
            mean_cost_secs: 0.1,
            cost: CostModel::UniformSpread,
            seed: 11,
        }
        .generate()
    }

    fn speeds() -> BTreeMap<ServerId, f64> {
        [1.0, 3.0, 5.0, 7.0, 9.0]
            .iter()
            .enumerate()
            .map(|(i, &s)| (ServerId(i as u32), s))
            .collect()
    }

    fn view() -> ClusterView {
        ClusterView {
            servers: (0..5).map(|i| (ServerId(i), true)).collect(),
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn initial_is_balanced() {
        let w = workload();
        let mut p = Prescient::new(w.clone(), speeds(), SimDuration::from_secs(120));
        let a = p.initial(&view(), &w.file_sets());
        assert_eq!(a.len(), 50);
        // Normalized loads of the first window are close to each other.
        let inst = p.instance(&view(), SimTime::ZERO);
        let loads = inst.loads(&current_packing(&inst, &a).expect("every set placed"));
        let max = loads.values().fold(0.0f64, |x, &y| x.max(y));
        let total: f64 = inst.demands.iter().map(|(_, d)| d).sum();
        let ideal = total / 25.0;
        assert!(max < ideal * 1.8, "makespan {max} vs ideal {ideal}");
    }

    #[test]
    fn stationary_workload_keeps_configuration() {
        // With a stable workload, prescient sees the per-set *rates* (a
        // full-duration lookahead) and retains its configuration — the
        // paper: "the prescient policy retains the same configuration for
        // the duration of the experiment, because the workload for each
        // file set does not vary with time".
        let w = workload();
        let mut p = Prescient::new(w.clone(), speeds(), SimDuration::from_secs(1_000));
        let mut a = p.initial(&view(), &w.file_sets());
        let mut v = view();
        let mut total_moves = 0;
        for k in 1..7 {
            v.now = SimTime::from_secs_f64(120.0 * k as f64);
            let moves = p.on_tick(&v, &[], &a);
            total_moves += moves.len();
            apply(&mut a, moves);
        }
        assert!(
            total_moves <= 10,
            "stationary workload churned {total_moves} moves"
        );
    }

    #[test]
    fn failure_triggers_full_repack() {
        let w = workload();
        let mut p = Prescient::new(w.clone(), speeds(), SimDuration::from_secs(120));
        let a = p.initial(&view(), &w.file_sets());
        let mut v = view();
        v.servers[4].1 = false; // fastest server dies
        let moves = p.on_fail(&v, ServerId(4), &a);
        // Every set on the dead server must move.
        for fs in sets_on(&a, ServerId(4)) {
            assert!(moves.iter().any(|m| m.set == fs));
        }
        assert!(moves.iter().all(|m| m.to != ServerId(4)));
    }

    /// `on_tick` without the lower-bound skip: always solve, then apply
    /// the hysteresis test.
    fn always_solve(p: &Prescient, view: &ClusterView, assignment: &Assignment) -> Vec<MoveSet> {
        let inst = p.instance(view, view.now);
        let fresh = inst.solve();
        if let Some(current) = current_packing(&inst, assignment) {
            let cur_span = inst.makespan(&current);
            let new_span = inst.makespan(&fresh);
            if new_span >= cur_span * p.improvement_threshold {
                return Vec::new();
            }
        }
        diff_moves(assignment, &fresh)
    }

    #[test]
    fn lower_bound_skip_drops_only_solves_that_cannot_be_adopted() {
        // The hysteresis factor `Prescient::new` sets.
        let theta = 0.9;
        let mut rng = RngStream::new(16, "prescient-lower-bound");
        let mut fired = 0;
        for case in 0..2_000 {
            let i = random_instance(&mut rng, 80, 8);
            let fresh = i.solve();
            let new_span = i.makespan(&fresh);
            let bound = i.makespan_lower_bound();
            assert!(
                new_span >= bound * (1.0 - 1e-12),
                "case {case}: makespan {new_span} below the bound {bound}"
            );
            // Current assignments from the solve's own to uniformly random.
            for scatter in [0.0, 0.1, 1.0] {
                let current: Vec<ServerId> = fresh
                    .iter()
                    .map(|&s| {
                        if rng.chance(scatter) {
                            i.servers[rng.index(i.servers.len())].0
                        } else {
                            s
                        }
                    })
                    .collect();
                let bar = i.makespan(&current) * theta;
                if bound_misses(&i, bar) {
                    fired += 1;
                    assert!(
                        new_span >= bar,
                        "case {case}: a skipped solve would have been adopted"
                    );
                }
            }
        }
        assert!(fired >= 500, "the skip fired on only {fired} ticks");
    }

    #[test]
    fn on_tick_matches_always_solving() {
        let w = workload();
        let mut p = Prescient::new(w.clone(), speeds(), SimDuration::from_secs(120));
        let balanced = p.initial(&view(), &w.file_sets());
        let piled: Assignment = vec![Some(ServerId(0)); w.n_file_sets];
        let (mut skipped, mut adopted) = (0, 0);
        for start in [balanced, piled] {
            let mut a = start;
            let mut v = view();
            for k in 1..=33 {
                v.now = SimTime::from_secs_f64(30.0 * k as f64);
                if k == 20 {
                    v.servers[2].1 = false; // its sets must move on this tick
                }
                let inst = p.instance(&v, v.now);
                if current_packing(&inst, &a).is_some_and(|current| {
                    bound_misses(&inst, inst.makespan(&current) * p.improvement_threshold)
                }) {
                    skipped += 1;
                }
                let expected = always_solve(&p, &v, &a);
                let moves = p.on_tick(&v, &[], &a);
                assert_eq!(moves, expected, "tick {k}");
                adopted += usize::from(!moves.is_empty());
                apply(&mut a, moves);
            }
        }
        assert!(
            skipped > 0 && adopted > 0,
            "skipped {skipped}, adopted {adopted}"
        );
    }
}
