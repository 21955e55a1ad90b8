//! Round-robin placement: the same number of file sets on each server.
//!
//! The paper's second baseline: "round-robin placement, which assigns the
//! same number of file sets to each server" (§7). Like simple
//! randomization it is static and insensitive to heterogeneity; unlike it,
//! the per-server *count* is exactly balanced, which isolates the effect of
//! workload skew (unequal work per set) from placement variance.

use crate::assign::sets_on;
use anu_cluster::{Assignment, ClusterView, MoveSet, PlacementPolicy};
use anu_core::{FileSetId, LoadReport, ServerId};

/// The round-robin baseline.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Create the policy.
    pub fn new() -> Self {
        RoundRobin
    }
}

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        let alive = view.alive();
        (0..file_sets.len())
            .map(|i| Some(alive[i % alive.len()]))
            .collect()
    }

    fn on_tick(
        &mut self,
        _view: &ClusterView,
        _reports: &[LoadReport],
        _assignment: &Assignment,
    ) -> Vec<MoveSet> {
        Vec::new()
    }

    fn on_fail(
        &mut self,
        view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        // Deal the orphans around the survivors, preserving equal counts.
        let alive = view.alive();
        sets_on(assignment, failed)
            .enumerate()
            .map(|(k, set)| MoveSet {
                set,
                to: alive[k % alive.len()],
            })
            .collect()
    }

    fn on_recover(
        &mut self,
        _view: &ClusterView,
        _recovered: ServerId,
        _assignment: &Assignment,
    ) -> Vec<MoveSet> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::fixtures::{sets, view};

    #[test]
    fn counts_exactly_balanced() {
        let mut p = RoundRobin::new();
        let a = p.initial(&view(5), &sets(100));
        let mut counts = std::collections::BTreeMap::new();
        for s in a.iter().flatten() {
            *counts.entry(*s).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c == 20));
    }

    #[test]
    fn uneven_division_within_one() {
        let mut p = RoundRobin::new();
        let a = p.initial(&view(3), &sets(10));
        let mut counts = std::collections::BTreeMap::new();
        for s in a.iter().flatten() {
            *counts.entry(*s).or_insert(0usize) += 1;
        }
        let min = counts.values().min().unwrap();
        let max = counts.values().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn failure_spreads_orphans() {
        let mut p = RoundRobin::new();
        let a = p.initial(&view(3), &sets(9));
        let mut v = view(3);
        v.servers[0].1 = false;
        let moves = p.on_fail(&v, ServerId(0), &a);
        assert_eq!(moves.len(), 3);
        assert!(moves.iter().all(|m| m.to != ServerId(0)));
        // Spread over both survivors.
        let to1 = moves.iter().filter(|m| m.to == ServerId(1)).count();
        let to2 = moves.iter().filter(|m| m.to == ServerId(2)).count();
        assert!(to1 >= 1 && to2 >= 1);
    }
}
