//! Simple randomization: each file set on a uniformly random server.
//!
//! The paper's first baseline: "simple randomization, which assigns each
//! file set to a randomly-chosen server" (§7). It is static — no knowledge
//! of server or workload heterogeneity, no response to skew — which is
//! exactly why the least powerful server degrades over the hour while the
//! powerful servers sit on unused capacity.
//!
//! The random choice is a deterministic hash of the file-set id and the
//! policy seed, so runs are reproducible and re-homing after a failure is
//! stable (re-hash over the remaining alive servers, like peer-to-peer
//! randomized placement).

use crate::assign::sets_on;
use anu_cluster::{Assignment, ClusterView, MoveSet, PlacementPolicy};
use anu_core::hash::mix64;
use anu_core::{FileSetId, LoadReport, ServerId};

/// The simple-randomization baseline.
#[derive(Clone, Debug)]
pub struct SimpleRandom {
    seed: u64,
}

impl SimpleRandom {
    /// Create with a placement seed.
    pub fn new(seed: u64) -> Self {
        SimpleRandom { seed }
    }

    fn pick(&self, fs: FileSetId, alive: &[ServerId]) -> ServerId {
        let h = mix64(fs.0 ^ self.seed.rotate_left(17));
        alive[((h as u128 * alive.len() as u128) >> 64) as usize]
    }
}

impl PlacementPolicy for SimpleRandom {
    fn name(&self) -> &str {
        "simple-randomization"
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
        Vec::new() // static policy
    }

    fn on_fail(
        &mut self,
        view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
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
        _view: &ClusterView,
        _recovered: ServerId,
        _assignment: &Assignment,
    ) -> Vec<MoveSet> {
        Vec::new() // static: the recovered server only gains new file sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::fixtures::{sets, view};

    #[test]
    fn covers_all_servers_roughly_uniformly() {
        let mut p = SimpleRandom::new(7);
        let a = p.initial(&view(4), &sets(4000));
        let mut counts = std::collections::BTreeMap::new();
        for s in a.iter().flatten() {
            *counts.entry(*s).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4);
        for &c in counts.values() {
            assert!((700..1300).contains(&c), "{c}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut p = SimpleRandom::new(9);
        let mut q = SimpleRandom::new(9);
        assert_eq!(
            p.initial(&view(5), &sets(100)),
            q.initial(&view(5), &sets(100))
        );
        let mut r = SimpleRandom::new(10);
        assert_ne!(
            p.initial(&view(5), &sets(100)),
            r.initial(&view(5), &sets(100))
        );
    }

    #[test]
    fn never_moves_on_tick() {
        let mut p = SimpleRandom::new(1);
        let a = p.initial(&view(3), &sets(30));
        assert!(p.on_tick(&view(3), &[], &a).is_empty());
    }

    #[test]
    fn failure_rehomes_only_orphans() {
        let mut p = SimpleRandom::new(3);
        let a = p.initial(&view(3), &sets(300));
        let mut v = view(3);
        v.servers[1].1 = false;
        let moves = p.on_fail(&v, ServerId(1), &a);
        let orphans: Vec<FileSetId> = sets_on(&a, ServerId(1)).collect();
        assert_eq!(moves.len(), orphans.len());
        for m in &moves {
            assert!(orphans.contains(&m.set));
            assert_ne!(m.to, ServerId(1));
        }
    }
}
