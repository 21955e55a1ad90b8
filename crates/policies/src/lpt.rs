//! Makespan-minimizing assignment on heterogeneous servers.
//!
//! The prescient baseline is a bin-packing scheduler: given per-file-set
//! demands and per-server speeds, find the permutation of file sets onto
//! servers that minimizes load skew (§7). Exact minimization is NP-hard
//! (multiprocessor scheduling on uniform machines); we use the classic LPT
//! (longest processing time first) greedy followed by best-improvement
//! pairwise moves/swaps, which is within a few percent of optimal at these
//! sizes — and strictly better-informed than anything ANU can do, since it
//! reads the *future* workload.

use anu_core::{FileSetId, ServerId};
use std::collections::BTreeMap;

/// Largest instance (file-set count) [`Instance::solve`] still refines
/// with the quadratic move/swap search; larger instances take the LPT
/// greedy as-is. Every canonical figure is far below this; only scaled
/// stress workloads cross it.
pub const REFINE_SIZE_CAP: usize = 4_096;

/// An assignment problem instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// `(file set, demand in seconds at speed 1)`.
    pub demands: Vec<(FileSetId, f64)>,
    /// `(server, speed)`, speeds > 0.
    pub servers: Vec<(ServerId, f64)>,
}

impl Instance {
    /// Normalized load (seconds of wall time) of each server under
    /// `assignment`, which holds one server per demand, in demand order.
    pub fn loads(&self, assignment: &[ServerId]) -> BTreeMap<ServerId, f64> {
        let mut loads: BTreeMap<ServerId, f64> =
            self.servers.iter().map(|&(s, _)| (s, 0.0)).collect();
        let speed: BTreeMap<ServerId, f64> = self.servers.iter().copied().collect();
        for (&(_, d), &s) in self.demands.iter().zip(assignment) {
            #[expect(
                clippy::expect_used,
                reason = "assignments only reference servers from self.servers"
            )]
            let load = loads.get_mut(&s).expect("assigned to known server");
            *load += d / speed[&s];
        }
        loads
    }

    /// Makespan (max normalized load) of `assignment`, in demand order.
    pub fn makespan(&self, assignment: &[ServerId]) -> f64 {
        self.loads(assignment)
            .values()
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// LPT greedy: place demands in decreasing order, each on the server
    /// that minimizes its completion time `(load + d) / speed`. Returns
    /// one server per demand, in demand order.
    pub fn lpt(&self) -> Vec<ServerId> {
        assert!(!self.servers.is_empty());
        let mut order: Vec<usize> = (0..self.demands.len()).collect();
        // Demand descending; the stable sort keeps equal demands in demand
        // order, for determinism.
        order.sort_by(|&a, &b| self.demands[b].1.total_cmp(&self.demands[a].1));
        let mut loads: Vec<f64> = vec![0.0; self.servers.len()];
        let mut out = vec![self.servers[0].0; self.demands.len()];
        for k in order {
            let d = self.demands[k].1;
            #[expect(
                clippy::expect_used,
                reason = "non-empty servers asserted at the top of assign"
            )]
            let (best, _) = self
                .servers
                .iter()
                .enumerate()
                .map(|(i, &(_, speed))| (i, (loads[i] * speed + d) / speed))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty servers");
            loads[best] += d / self.servers[best].1;
            out[k] = self.servers[best].0;
        }
        out
    }

    /// A lower bound on the makespan of every assignment: the fluid load
    /// `Σd / Σs`, at which all servers finish together, or the time the
    /// fastest server needs for the largest set, `max d / max s`,
    /// whichever is larger.
    pub fn makespan_lower_bound(&self) -> f64 {
        let total_demand: f64 = self.demands.iter().map(|&(_, d)| d).sum();
        let total_speed: f64 = self.servers.iter().map(|&(_, s)| s).sum();
        let max_demand = self.demands.iter().fold(0.0f64, |a, &(_, d)| a.max(d));
        let max_speed = self.servers.iter().fold(0.0f64, |a, &(_, s)| a.max(s));
        (total_demand / total_speed).max(max_demand / max_speed)
    }

    /// Best-improvement local search: repeatedly take the best
    /// makespan-lowering single *move* (one set off the most loaded
    /// server) or pairwise *swap* (exchange a hot-server set with a
    /// smaller set elsewhere), until neither helps (bounded iterations).
    ///
    /// `assignment` holds one server per demand, in demand order, and is
    /// updated in place. The search runs on dense indices: servers are
    /// numbered in ascending [`ServerId`] order, and each demand holds the
    /// number of its server. Each round recomputes the loads from
    /// scratch, in demand order: the same additions as
    /// [`Instance::loads`], so the values match bit for bit. Updating
    /// them incrementally would round differently and could change which
    /// candidate wins.
    ///
    /// Tie-breaks:
    /// - the hot server is the *last* maximum in id order (an exact tie
    ///   at the maximum ends the search whichever server is picked, since
    ///   no step can lower the peak below the other tied load);
    /// - moves are tried in demand order × `servers` order, then swaps in
    ///   demand order × demand order;
    /// - a candidate is taken only if its peak beats the best so far by
    ///   more than 1e-12, so the first of equal candidates wins.
    ///
    /// A candidate's peak is the largest of the new hot load, the new
    /// destination load and the largest load elsewhere, which is one of
    /// the top two non-hot loads. A swap that brings in a set no smaller
    /// than the one it sends away cannot lower the hot load, so it is not
    /// tried. The servers are written back once, at the end.
    pub fn refine(&self, assignment: &mut [ServerId], max_rounds: usize) {
        let speed: BTreeMap<ServerId, f64> = self.servers.iter().copied().collect();
        let ids: Vec<ServerId> = speed.keys().copied().collect();
        let speeds: Vec<f64> = speed.values().copied().collect();
        let number: BTreeMap<ServerId, usize> =
            ids.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let targets: Vec<(usize, f64)> = self
            .servers
            .iter()
            .map(|&(s, to_speed)| (number[&s], to_speed))
            .collect();
        let mut owner: Vec<usize> = assignment.iter().map(|s| number[s]).collect();
        let mut loads = vec![0.0f64; ids.len()];

        for _ in 0..max_rounds {
            loads.fill(0.0);
            for (&(_, d), &s) in self.demands.iter().zip(&owner) {
                loads[s] += d / speeds[s];
            }
            let Some(hot) = (0..loads.len()).max_by(|&a, &b| loads[a].total_cmp(&loads[b])) else {
                break;
            };
            let hot_load = loads[hot];
            let hot_speed = speeds[hot];
            // The two largest loads off the hot server: the largest load
            // elsewhere is the first, or the second when the first is the
            // destination.
            let (mut top, mut top_load, mut second_load) =
                (hot, f64::NEG_INFINITY, f64::NEG_INFINITY);
            for (s, &l) in loads.iter().enumerate() {
                if s == hot {
                    continue;
                }
                if l > top_load {
                    second_load = top_load;
                    (top, top_load) = (s, l);
                } else if l > second_load {
                    second_load = l;
                }
            }
            let peak = |new_hot: f64, to: usize, new_to: f64| {
                let elsewhere = if to == top { second_load } else { top_load };
                new_hot.max(new_to).max(elsewhere)
            };

            enum Step {
                Move(usize, usize),
                Swap(usize, usize),
            }
            let mut best: Option<(Step, f64)> = None;
            let consider = |step: Step, peak: f64, best: &mut Option<(Step, f64)>| {
                if peak + 1e-12 < best.as_ref().map_or(hot_load, |&(_, p)| p) {
                    *best = Some((step, peak));
                }
            };

            // Single moves off the hot server.
            for (a, &(_, d)) in self.demands.iter().enumerate() {
                if owner[a] != hot {
                    continue;
                }
                for &(to, to_speed) in &targets {
                    if to == hot {
                        continue;
                    }
                    let new_hot = hot_load - d / hot_speed;
                    let new_to = loads[to] + d / to_speed;
                    consider(Step::Move(a, to), peak(new_hot, to, new_to), &mut best);
                }
            }
            // Pairwise swaps between the hot server and any other.
            for (a, &(_, da)) in self.demands.iter().enumerate() {
                if owner[a] != hot {
                    continue;
                }
                for (b, &(_, db)) in self.demands.iter().enumerate() {
                    let to = owner[b];
                    if to == hot || db >= da {
                        continue;
                    }
                    let new_hot = hot_load + (db - da) / hot_speed;
                    let new_to = loads[to] + (da - db) / speeds[to];
                    consider(Step::Swap(a, b), peak(new_hot, to, new_to), &mut best);
                }
            }

            match best {
                Some((Step::Move(a, to), _)) => owner[a] = to,
                Some((Step::Swap(a, b), _)) => owner.swap(a, b),
                None => break,
            }
        }

        for (a, &s) in assignment.iter_mut().zip(&owner) {
            *a = ids[s];
        }
    }

    /// LPT followed by refinement — the prescient scheduler's core.
    ///
    /// Refinement's swap search is quadratic in the instance size, so it
    /// only runs up to [`REFINE_SIZE_CAP`] file sets. Above the cap the
    /// LPT greedy stands alone — with that many sets each is a sliver of
    /// the total demand and greedy placement is already within a sliver
    /// of the balanced optimum, while the swap search would dominate the
    /// whole simulation's run time.
    pub fn solve(&self) -> Vec<ServerId> {
        let mut a = self.lpt();
        if self.demands.len() <= REFINE_SIZE_CAP {
            self.refine(&mut a, 64);
        }
        a
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use anu_des::RngStream;

    fn inst(demands: &[f64], speeds: &[f64]) -> Instance {
        Instance {
            demands: demands
                .iter()
                .enumerate()
                .map(|(i, &d)| (FileSetId(i as u64), d))
                .collect(),
            servers: speeds
                .iter()
                .enumerate()
                .map(|(i, &s)| (ServerId(i as u32), s))
                .collect(),
        }
    }

    #[test]
    fn lpt_on_identical_machines() {
        // Classic: 5,5,4,4,3,3,3 on 3 machines -> optimal makespan 9.
        let i = inst(&[5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0], &[1.0, 1.0, 1.0]);
        let a = i.solve();
        // Optimal is 9 ((5+4),(5+4),(3+3+3)); swap refinement reaches it
        // from LPT's 11.
        assert!(i.makespan(&a) <= 9.0 + 1e-9, "makespan {}", i.makespan(&a));
        // All demand placed.
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn fast_server_gets_more_work() {
        let i = inst(&[1.0; 20], &[1.0, 9.0]);
        let a = i.solve();
        let loads = i.loads(&a);
        // Normalized loads roughly equal => fast server holds ~9x the sets.
        let n1 = a.iter().filter(|&&s| s == ServerId(1)).count();
        assert!(n1 >= 16, "fast server got {n1} of 20");
        let l0 = loads[&ServerId(0)];
        let l1 = loads[&ServerId(1)];
        assert!((l0 - l1).abs() <= 1.0 + 1e-9, "{l0} vs {l1}");
    }

    #[test]
    fn single_huge_set_goes_to_fastest() {
        // One dominant set: optimal places it on the fastest server.
        let i = inst(&[100.0, 1.0, 1.0], &[1.0, 10.0]);
        let a = i.solve();
        assert_eq!(a[0], ServerId(1));
    }

    #[test]
    fn refine_improves_bad_start() {
        let i = inst(&[8.0, 7.0, 6.0, 5.0, 4.0], &[1.0, 1.0]);
        // Pathological start: everything on server 0.
        let mut a = vec![ServerId(0); 5];
        let before = i.makespan(&a);
        i.refine(&mut a, 100);
        let after = i.makespan(&a);
        assert!(after < before);
        assert!(after <= 16.0 + 1e-9); // optimal is 15
    }

    #[test]
    fn zero_demands_are_fine() {
        let i = inst(&[0.0, 0.0, 3.0], &[1.0, 2.0]);
        let a = i.solve();
        assert_eq!(a.len(), 3);
        assert!((i.makespan(&a) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let i = inst(&[3.0, 3.0, 2.0, 2.0, 1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(i.solve(), i.solve());
    }

    // `refine` written directly over `BTreeMap` loads, with an O(m) peak
    // fold per candidate: the reference the dense-index version must match.
    impl Instance {
        fn refine_reference(
            &self,
            assignment: &mut BTreeMap<FileSetId, ServerId>,
            max_rounds: usize,
        ) {
            let speed: BTreeMap<ServerId, f64> = self.servers.iter().copied().collect();
            for _ in 0..max_rounds {
                let in_order: Vec<ServerId> =
                    self.demands.iter().map(|(fs, _)| assignment[fs]).collect();
                let loads = self.loads(&in_order);
                let (&hot, &hot_load) = loads
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("non-empty");
                let hot_sets: Vec<(FileSetId, f64)> = self
                    .demands
                    .iter()
                    .copied()
                    .filter(|&(fs, _)| assignment[&fs] == hot)
                    .collect();
                let other_sets: Vec<(FileSetId, f64)> = self
                    .demands
                    .iter()
                    .copied()
                    .filter(|&(fs, _)| assignment[&fs] != hot)
                    .collect();

                enum Step {
                    Move(FileSetId, ServerId),
                    Swap(FileSetId, FileSetId),
                }
                let mut best: Option<(Step, f64)> = None;
                let consider = |step: Step, peak: f64, best: &mut Option<(Step, f64)>| {
                    if peak + 1e-12 < best.as_ref().map_or(hot_load, |&(_, p)| p) {
                        *best = Some((step, peak));
                    }
                };

                // Single moves off the hot server.
                for &(fs, d) in &hot_sets {
                    for &(to, to_speed) in &self.servers {
                        if to == hot {
                            continue;
                        }
                        let new_hot = hot_load - d / speed[&hot];
                        let new_to = loads[&to] + d / to_speed;
                        let peak = loads
                            .iter()
                            .filter(|&(&s, _)| s != hot && s != to)
                            .fold(new_hot.max(new_to), |a, (_, &l)| a.max(l));
                        consider(Step::Move(fs, to), peak, &mut best);
                    }
                }
                // Pairwise swaps between the hot server and any other.
                for &(fa, da) in &hot_sets {
                    for &(fb, db) in &other_sets {
                        let to = assignment[&fb];
                        let new_hot = hot_load + (db - da) / speed[&hot];
                        let new_to = loads[&to] + (da - db) / speed[&to];
                        let peak = loads
                            .iter()
                            .filter(|&(&s, _)| s != hot && s != to)
                            .fold(new_hot.max(new_to), |a, (_, &l)| a.max(l));
                        consider(Step::Swap(fa, fb), peak, &mut best);
                    }
                }

                match best {
                    Some((Step::Move(fs, to), _)) => {
                        assignment.insert(fs, to);
                    }
                    Some((Step::Swap(fa, fb), _)) => {
                        let sa = assignment[&fa];
                        let sb = assignment[&fb];
                        assignment.insert(fa, sb);
                        assignment.insert(fb, sa);
                    }
                    None => break,
                }
            }
        }
    }

    /// A random instance of 1 to `max_sets` sets on 1 to `max_servers`
    /// servers. The server ids have gaps and are listed shuffled; demands
    /// and speeds are either small integers, which force load ties, or
    /// reals, and some demands are zero.
    pub(crate) fn random_instance(
        rng: &mut RngStream,
        max_sets: usize,
        max_servers: usize,
    ) -> Instance {
        let n_servers = 1 + rng.index(max_servers);
        let mut id = 0u32;
        let mut servers: Vec<(ServerId, f64)> = (0..n_servers)
            .map(|_| {
                id += 1 + rng.index(4) as u32;
                let speed = if rng.chance(0.5) {
                    (1 + rng.index(3)) as f64
                } else {
                    rng.uniform_range(0.5, 10.0)
                };
                (ServerId(id), speed)
            })
            .collect();
        rng.shuffle(&mut servers);
        let integer = rng.chance(0.5);
        let demands = (0..1 + rng.index(max_sets))
            .map(|i| {
                let d = if rng.chance(0.2) {
                    0.0
                } else if integer {
                    (1 + rng.index(5)) as f64
                } else {
                    rng.uniform_range(0.0, 10.0)
                };
                (FileSetId(i as u64), d)
            })
            .collect();
        Instance { demands, servers }
    }

    #[test]
    fn refine_matches_btreemap_reference() {
        let mut rng = RngStream::new(16, "refine-reference");
        let (mut runs, mut changed) = (0, 0);
        for case in 0..2_000 {
            let i = random_instance(&mut rng, 40, 7);
            let random_start: Vec<ServerId> = i
                .demands
                .iter()
                .map(|_| i.servers[rng.index(i.servers.len())].0)
                .collect();
            let keyed = |a: &[ServerId]| -> BTreeMap<FileSetId, ServerId> {
                i.demands
                    .iter()
                    .map(|&(fs, _)| fs)
                    .zip(a.to_vec())
                    .collect()
            };
            for start in [i.lpt(), random_start] {
                let mut fast = start.clone();
                let mut reference = keyed(&start);
                i.refine(&mut fast, 64);
                i.refine_reference(&mut reference, 64);
                assert_eq!(keyed(&fast), reference, "case {case}: {i:?} from {start:?}");
                runs += 1;
                changed += usize::from(fast != start);
            }
        }
        // Most runs must move something, or the comparison proves little.
        assert!(changed * 2 > runs, "refine changed {changed} of {runs}");
    }
}
