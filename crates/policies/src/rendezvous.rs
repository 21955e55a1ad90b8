//! Rendezvous (highest-random-weight) hashing baseline.
//!
//! The paper's related work contrasts ANU with the distributed-directory
//! hashing of peer-to-peer systems, which "rely on the underlying hash
//! functions to provide load balancing … and cannot maintain load
//! balancing in the situation where objects have heterogeneous access
//! costs and frequencies" (§3). Rendezvous hashing (HRW, Thaler &
//! Ravishankar) is the cleanest member of that family and the ancestor of
//! CRUSH-style weighted placement, so it makes an instructive fourth
//! baseline:
//!
//! * **Static HRW** ([`Rendezvous::new`]) — each file set goes to the
//!   server with the highest hash score; uniform in expectation, blind to
//!   heterogeneity, minimal disruption on membership change (only the
//!   failed server's sets move — the same property ANU gets from exact
//!   takeover).
//! * **Weighted HRW** ([`Rendezvous::weighted`]) — per-server weights skew
//!   the scores (the CRUSH idea). With weights fixed a priori it handles
//!   *known* capacity ratios but not workload skew; the comparison with
//!   ANU isolates what *adaptivity* adds over static weighting.
//!
//! Scores use the standard `-w / ln(U)` transform of the server-keyed
//! uniform hash, which makes weighted placement exact.

use crate::assign::sets_on;
use anu_cluster::{Assignment, ClusterView, MoveSet, PlacementPolicy};
use anu_core::hash::mix64;
use anu_core::{FileSetId, LoadReport, ServerId};
use std::collections::BTreeMap;

/// The rendezvous-hashing baseline policy.
#[derive(Clone, Debug)]
pub struct Rendezvous {
    seed: u64,
    /// Per-server weights; empty = unweighted.
    weights: BTreeMap<ServerId, f64>,
    label: &'static str,
}

impl Rendezvous {
    /// Unweighted HRW: every server equally likely.
    pub fn new(seed: u64) -> Self {
        Rendezvous {
            seed,
            weights: BTreeMap::new(),
            label: "rendezvous",
        }
    }

    /// Weighted HRW with fixed per-server weights (e.g. known speeds).
    pub fn weighted(seed: u64, weights: BTreeMap<ServerId, f64>) -> Self {
        assert!(weights.values().all(|&w| w > 0.0 && w.is_finite()));
        Rendezvous {
            seed,
            weights,
            label: "weighted-rendezvous",
        }
    }

    /// HRW score of `(set, server)`: `-w / ln(U)` with `U` a uniform hash
    /// in (0, 1). Larger is better; the max over servers is the owner.
    fn score(&self, fs: FileSetId, s: ServerId) -> f64 {
        let h = mix64(fs.0 ^ mix64(u64::from(s.0) ^ self.seed));
        // Map to (0,1); never exactly 0 or 1.
        let u = (h as f64 + 0.5) / (u64::MAX as f64 + 1.0);
        let w = self.weights.get(&s).copied().unwrap_or(1.0);
        -w / u.ln()
    }

    fn pick(&self, fs: FileSetId, alive: &[ServerId]) -> ServerId {
        #[expect(
            clippy::expect_used,
            reason = "the simulator never routes against an empty alive set"
        )]
        *alive
            .iter()
            .max_by(|&&a, &&b| {
                self.score(fs, a)
                    .total_cmp(&self.score(fs, b))
                    .then(b.cmp(&a))
            })
            .expect("at least one alive server")
    }
}

impl PlacementPolicy for Rendezvous {
    fn name(&self) -> &str {
        self.label
    }

    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        let alive = view.alive();
        file_sets
            .iter()
            .map(|&fs| Some(self.pick(fs, &alive)))
            .collect()
    }

    fn on_tick(
        &mut self,
        _view: &ClusterView,
        _reports: &[LoadReport],
        _assignment: &Assignment,
    ) -> Vec<MoveSet> {
        Vec::new() // static
    }

    fn on_fail(
        &mut self,
        view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        // HRW's celebrated property: removing a server re-homes exactly
        // its own keys (every other key's argmax is unchanged).
        let alive = view.alive();
        sets_on(assignment, failed)
            .map(|set| MoveSet {
                set,
                to: self.pick(set, &alive),
            })
            .collect()
    }

    fn on_recover(
        &mut self,
        view: &ClusterView,
        recovered: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        // The recovered server wins back exactly the sets whose argmax it
        // is; everything else stays.
        let alive = view.alive();
        assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s.is_some_and(|s| s != recovered))
            .map(|(i, _)| FileSetId(i as u64))
            .filter(|&set| self.pick(set, &alive) == recovered)
            .map(|set| MoveSet { set, to: recovered })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::fixtures::{apply, sets, view};

    #[test]
    fn unweighted_is_roughly_uniform() {
        let mut p = Rendezvous::new(5);
        let a = p.initial(&view(4), &sets(4000));
        let mut counts = BTreeMap::new();
        for s in a.iter().flatten() {
            *counts.entry(*s).or_insert(0usize) += 1;
        }
        for (&s, &c) in &counts {
            assert!((700..1300).contains(&c), "{s}: {c}");
        }
    }

    #[test]
    fn weighted_tracks_weights() {
        let weights: BTreeMap<ServerId, f64> = [(ServerId(0), 1.0), (ServerId(1), 3.0)]
            .into_iter()
            .collect();
        let mut p = Rendezvous::weighted(7, weights);
        let a = p.initial(&view(2), &sets(8000));
        let c1 = a.iter().filter(|&&s| s == Some(ServerId(1))).count() as f64;
        let c0 = a.iter().filter(|&&s| s == Some(ServerId(0))).count() as f64;
        let ratio = c1 / c0;
        assert!((2.5..3.6).contains(&ratio), "ratio {ratio}, want ~3");
    }

    #[test]
    fn failure_moves_only_failed_keys() {
        let mut p = Rendezvous::new(9);
        let a = p.initial(&view(5), &sets(2000));
        let mut v = view(5);
        v.servers[2].1 = false;
        let moves = p.on_fail(&v, ServerId(2), &a);
        let orphans: Vec<FileSetId> = sets_on(&a, ServerId(2)).collect();
        assert_eq!(moves.len(), orphans.len());
        assert!(moves
            .iter()
            .all(|m| orphans.contains(&m.set) && m.to != ServerId(2)));
    }

    #[test]
    fn recovery_reclaims_exactly_its_keys() {
        let mut p = Rendezvous::new(13);
        let full = p.initial(&view(5), &sets(2000));
        // Simulate: server 3 was down, its keys live elsewhere.
        let mut v = view(5);
        v.servers[3].1 = false;
        let degraded = p.initial(&v, &sets(2000));
        v.servers[3].1 = true;
        let moves = p.on_recover(&v, ServerId(3), &degraded);
        // Every move targets server 3, and together they restore exactly
        // the full-membership assignment.
        assert!(moves.iter().all(|m| m.to == ServerId(3)));
        let mut restored = degraded.clone();
        apply(&mut restored, moves);
        assert_eq!(restored, full);
    }

    #[test]
    fn deterministic() {
        let mut a = Rendezvous::new(1);
        let mut b = Rendezvous::new(1);
        assert_eq!(
            a.initial(&view(5), &sets(100)),
            b.initial(&view(5), &sets(100))
        );
    }
}
