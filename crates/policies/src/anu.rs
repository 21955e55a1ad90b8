//! ANU randomization as a cluster placement policy.
//!
//! Wraps the [`anu_core`] placement map and tuner in the
//! [`PlacementPolicy`] interface:
//!
//! * **initial** — equal mapped regions (no a-priori knowledge), file sets
//!   located by hashing their unique names;
//! * **on_tick** — the delegate tunes region sizes from latency reports,
//!   the map is rebalanced, and the moves are the located differences;
//! * **on_fail** — exact takeover removal: only the failed server's file
//!   sets re-hash (cache preservation);
//! * **on_recover** — the server re-enters at a free partition with the
//!   average share and everyone else scales back;
//! * **on_decommission / on_commission** — planned autoscaling parks the
//!   retiring server's tuned share and keeps the planner's measurement
//!   history; a later commission resumes at the learned share instead of
//!   the 1/n average, skipping the re-convergence epochs a crash
//!   recovery pays.
//!
//! Note what's absent: server speeds and per-set demands never enter this
//! type. Everything the policy learns, it learns from latency reports.

use crate::assign::diff_moves;
use anu_cluster::{Assignment, ClusterView, MoveSet, PlacementPolicy};
use anu_core::{
    AnuConfig, FileSetId, LoadReport, Matching, PairwiseTuner, PlacementMap, ServerId,
    SharePlanner, TuneEpoch, Tuner,
};
use std::collections::BTreeMap;

/// The ANU randomization policy.
///
/// Generic over the share planner: the centralized delegate ([`Tuner`],
/// the paper's algorithm) or the decentralized [`PairwiseTuner`] (the
/// paper's §5 future-work design) — construct via [`AnuPolicy::new`] or
/// [`AnuPolicy::decentralized`] respectively.
pub struct AnuPolicy {
    cfg: AnuConfig,
    map: Option<PlacementMap>,
    planner: Box<dyn SharePlanner>,
    /// Ticks left to sit out while a new delegate is elected after an
    /// injected delegate crash. While positive, ticks produce no moves
    /// and no telemetry; the new delegate then resumes from the shares
    /// the placement map already holds (the paper's statelessness
    /// claim — no tuner state survives the crash, the map is enough).
    pause_ticks_left: u32,
    file_sets: Vec<FileSetId>,
    /// Tuned share fractions of servers retired by a *planned*
    /// decommission, keyed by server. A crash forgets a server's state
    /// (its last measurements may be the reason it died); an orderly
    /// retirement parks the share here so a later commission re-enters at
    /// the share the tuner had already learned instead of the 1/n
    /// average.
    parked_shares: BTreeMap<ServerId, f64>,
    /// Tuner telemetry from the last tick, with `applied_share` filled in
    /// from the post-rebalance placement map (the quantized region widths
    /// the cluster actually runs with).
    last_epoch: Option<TuneEpoch>,
}

impl AnuPolicy {
    /// Create from a configuration (seed, tuning knobs), with the
    /// paper's centralized delegate tuner.
    pub fn new(cfg: AnuConfig) -> Self {
        AnuPolicy {
            cfg,
            map: None,
            planner: Box::new(Tuner::new(cfg.tuning)),
            pause_ticks_left: 0,
            file_sets: Vec::new(),
            parked_shares: BTreeMap::new(),
            last_epoch: None,
        }
    }

    /// Create with the decentralized pairwise planner (§5 extension).
    pub fn decentralized(cfg: AnuConfig, matching: Matching) -> Self {
        AnuPolicy {
            planner: Box::new(PairwiseTuner::new(cfg.tuning, matching, cfg.seed)),
            ..AnuPolicy::new(cfg)
        }
    }

    /// With the default (paper) configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        AnuPolicy::new(AnuConfig {
            seed,
            ..AnuConfig::default()
        })
    }

    /// Access the live placement map (None before `initial`).
    pub fn map(&self) -> Option<&PlacementMap> {
        self.map.as_ref()
    }

    /// The live placement map. It takes the field rather than `&mut self`
    /// so callers can still borrow `self.file_sets` and `self.planner`.
    fn live_map(map: &mut Option<PlacementMap>) -> &mut PlacementMap {
        #[expect(
            clippy::expect_used,
            reason = "the policy contract runs initial before any tick, failure, recovery or scaling event"
        )]
        map.as_mut().expect("initial ran")
    }

    /// Where the map locates each of `file_sets`, in set order.
    fn target_assignment(map: &PlacementMap, file_sets: &[FileSetId]) -> Vec<ServerId> {
        file_sets
            .iter()
            .map(|fs| map.locate(fs.name_bytes()))
            .collect()
    }
}

/// Restore exact half occupancy after failures or retirements left it
/// out of the window.
fn restore(map: &mut PlacementMap) {
    #[expect(
        clippy::expect_used,
        reason = "fails only on invariant corruption; halting is correct"
    )]
    map.restore_half_occupancy().expect("restore succeeds");
}

impl PlacementPolicy for AnuPolicy {
    fn name(&self) -> &str {
        "anu-randomization"
    }

    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        let alive = view.alive();
        #[expect(
            clippy::expect_used,
            reason = "the simulator never calls initial on an empty cluster"
        )]
        let map = PlacementMap::with_default_rounds(&alive, self.cfg.seed)
            .expect("at least one alive server");
        self.file_sets = file_sets.to_vec();
        let assignment = Self::target_assignment(&map, file_sets);
        self.map = Some(map);
        assignment.into_iter().map(Some).collect()
    }

    fn on_tick(
        &mut self,
        _view: &ClusterView,
        reports: &[LoadReport],
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        if self.pause_ticks_left > 0 {
            // Re-election in progress: no delegate, no tuning pass, no
            // telemetry. The placement map keeps serving lookups.
            self.pause_ticks_left -= 1;
            self.last_epoch = None;
            return Vec::new();
        }
        let map = Self::live_map(&mut self.map);
        // Failures may have left occupancy below half; restore before
        // tuning so the tuner sees a normalized configuration.
        restore(map);
        let shares = map.share_fractions();
        let planned = self.planner.plan_shares(&shares, reports);
        let mut epoch = self.planner.take_epoch();
        let Some(targets) = planned else {
            // Balanced within the heuristics' tolerance: the map is
            // untouched, so every decision applies at its current share.
            if let Some(e) = &mut epoch {
                for d in &mut e.decisions {
                    if let Some(&a) = shares.get(&d.server) {
                        d.applied_share = a;
                    }
                }
            }
            self.last_epoch = epoch;
            // Even with no tuning plan the assignment can trail the map:
            // a failure mid-migration lands a set on a stale owner, and
            // restore_half_occupancy above may have reshaped partitions.
            // Re-issue the residual moves so placement converges on the
            // map every tick, not only on planned epochs.
            let target = Self::target_assignment(map, &self.file_sets);
            return diff_moves(assignment, &target);
        };
        #[expect(
            clippy::expect_used,
            reason = "targets come from normalize_targets over the mapped servers"
        )]
        map.rebalance(&targets).expect("valid targets");
        if let Some(e) = &mut epoch {
            // Record the quantized shares the rebalanced map actually holds,
            // which differ from the tuner's real-valued targets.
            let applied = map.share_fractions();
            for d in &mut e.decisions {
                if let Some(&a) = applied.get(&d.server) {
                    d.applied_share = a;
                }
            }
        }
        self.last_epoch = epoch;
        let target = Self::target_assignment(map, &self.file_sets);
        diff_moves(assignment, &target)
    }

    fn take_epoch(&mut self) -> Option<TuneEpoch> {
        self.last_epoch.take()
    }

    fn on_delegate_fail(&mut self, pause_ticks: u32) {
        // The crash drops every bit of tuner state; the successor starts
        // from the shares the map holds once the election pause ends.
        self.planner.forget();
        self.pause_ticks_left = pause_ticks;
    }

    fn audit(&self, assignment: &Assignment, in_flight: &[FileSetId]) -> Vec<String> {
        let Some(map) = &self.map else {
            return Vec::new();
        };
        let mut violations = Vec::new();
        if let Err(e) = map.check_invariants() {
            violations.push(format!("placement map: {e}"));
        }
        // Locate agreement: every settled set must sit where the map
        // hashes it. Sets mid-migration legitimately lag the map.
        for (fs, &owner) in self.file_sets.iter().zip(assignment) {
            if in_flight.binary_search(fs).is_ok() {
                continue;
            }
            if let Some(owner) = owner {
                let target = map.locate(fs.name_bytes());
                if owner != target {
                    violations.push(format!(
                        "{fs} assigned to {owner} but the map locates {target}"
                    ));
                }
            }
        }
        violations
    }

    fn on_fail(
        &mut self,
        _view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        // A departed server's tuner history dies with it: its last
        // latency must not survive as a ghost share when it re-joins.
        self.planner.forget_server(failed);
        self.parked_shares.remove(&failed);
        let map = Self::live_map(&mut self.map);
        #[expect(
            clippy::expect_used,
            reason = "the view only reports failures of mapped servers"
        )]
        map.remove_server(failed).expect("failed server was mapped");
        // A lone failure frees at most the dead server's partial partition
        // (under one partition width), which the occupancy window tolerates
        // until the next tick restores exact half occupancy. Correlated
        // group failures — or several crashes inside one tick — stack those
        // partial frees and can push occupancy out of the window; restore
        // immediately then, trading a little placement locality for a map
        // that is valid at every fault boundary.
        if map.check_invariants().is_err() {
            restore(map);
        }
        let target = Self::target_assignment(map, &self.file_sets);
        diff_moves(assignment, &target)
    }

    fn on_recover(
        &mut self,
        _view: &ClusterView,
        recovered: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        // Belt and braces: the history was dropped at failure time, but a
        // commissioned standby was never in the map, so clear again here.
        self.planner.forget_server(recovered);
        let map = Self::live_map(&mut self.map);
        #[expect(
            clippy::expect_used,
            reason = "a recovering server was removed from the map when it failed"
        )]
        map.add_server(recovered).expect("server was absent");
        let target = Self::target_assignment(map, &self.file_sets);
        diff_moves(assignment, &target)
    }

    fn on_decommission(
        &mut self,
        _view: &ClusterView,
        retired: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        // An orderly retirement: park the tuned share and keep the
        // planner's measurement history. Unlike a crash, nothing about
        // the retiring server's last reports is suspect — the autoscaler
        // simply no longer needs the capacity — so the tuner's learned
        // state stays valid for the day the server is commissioned back.
        let map = Self::live_map(&mut self.map);
        if let Some(&share) = map.share_fractions().get(&retired) {
            self.parked_shares.insert(retired, share);
        }
        #[expect(
            clippy::expect_used,
            reason = "the autoscaler only retires mapped servers"
        )]
        map.remove_server(retired).expect("retired was mapped");
        if map.check_invariants().is_err() {
            restore(map);
        }
        let target = Self::target_assignment(map, &self.file_sets);
        diff_moves(assignment, &target)
    }

    fn on_commission(
        &mut self,
        _view: &ClusterView,
        commissioned: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        let map = Self::live_map(&mut self.map);
        #[expect(
            clippy::expect_used,
            reason = "the autoscaler only commissions dormant (unmapped) servers"
        )]
        map.add_server(commissioned).expect("server was absent");
        // If this server retired through an orderly decommission, resume
        // at the share the tuner had learned for it: rescale the fresh
        // 1/n entry so the newcomer's fraction equals the parked share
        // while everyone else keeps their relative proportions.
        // (`rebalance` normalizes weights, so only the ratios matter.)
        if let Some(share) = self.parked_shares.remove(&commissioned) {
            if share > 0.0 && share < 1.0 {
                let mut weights = map.share_fractions();
                let others: f64 = weights
                    .iter()
                    .filter(|&(&s, _)| s != commissioned)
                    .map(|(_, &w)| w)
                    .sum();
                if others > 0.0 {
                    weights.insert(commissioned, share * others / (1.0 - share));
                    #[expect(
                        clippy::expect_used,
                        reason = "weights cover exactly the mapped servers"
                    )]
                    map.rebalance(&weights).expect("valid targets");
                }
            }
        }
        let target = Self::target_assignment(map, &self.file_sets);
        diff_moves(assignment, &target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::fixtures::{apply, sets, view};
    use crate::assign::sets_on;

    fn reports(lats: &[(u32, f64, u64)]) -> Vec<LoadReport> {
        lats.iter()
            .map(|&(s, l, r)| LoadReport {
                server: ServerId(s),
                mean_latency_ms: l,
                requests: r,
                age_ticks: 0,
            })
            .collect()
    }

    #[test]
    fn initial_assignment_covers_all() {
        let mut p = AnuPolicy::with_seed(1);
        let a = p.initial(&view(5), &sets(200));
        assert_eq!(a.len(), 200);
        let distinct: std::collections::BTreeSet<_> = a.iter().flatten().collect();
        assert_eq!(distinct.len(), 5, "all servers used");
    }

    #[test]
    fn overloaded_server_sheds_on_tick() {
        let mut p = AnuPolicy::with_seed(2);
        let a = p.initial(&view(5), &sets(200));
        let before = a.iter().filter(|&&s| s == Some(ServerId(0))).count();
        let moves = p.on_tick(
            &view(5),
            &reports(&[
                (0, 900.0, 100),
                (1, 50.0, 100),
                (2, 50.0, 100),
                (3, 50.0, 100),
                (4, 50.0, 100),
            ]),
            &a,
        );
        assert!(!moves.is_empty(), "overload must trigger moves");
        let away = moves
            .iter()
            .filter(|m| a[m.set.0 as usize] == Some(ServerId(0)))
            .count();
        assert!(away > 0, "server 0 sheds");
        assert!(away <= before);
        assert!(moves.iter().all(|m| m.to != ServerId(0)));
    }

    #[test]
    fn balanced_reports_produce_no_moves() {
        let mut p = AnuPolicy::with_seed(3);
        let a = p.initial(&view(5), &sets(100));
        let moves = p.on_tick(
            &view(5),
            &reports(&[
                (0, 100.0, 50),
                (1, 101.0, 50),
                (2, 99.0, 50),
                (3, 100.0, 50),
                (4, 100.0, 50),
            ]),
            &a,
        );
        assert!(moves.is_empty());
        let epoch = p
            .take_epoch()
            .expect("a balanced tick still records its epoch");
        assert!(!epoch.planned, "a balanced tick plans nothing");
    }

    #[test]
    fn tick_telemetry_reports_applied_shares() {
        let mut p = AnuPolicy::with_seed(7);
        let a = p.initial(&view(4), &sets(200));
        assert!(p.take_epoch().is_none(), "no epoch before any tick");
        let moves = p.on_tick(
            &view(4),
            &reports(&[
                (0, 900.0, 100),
                (1, 50.0, 100),
                (2, 50.0, 100),
                (3, 50.0, 100),
            ]),
            &a,
        );
        assert!(!moves.is_empty());
        let epoch = p.take_epoch().expect("planned tick exposes telemetry");
        assert!(epoch.planned);
        assert_eq!(epoch.decisions.len(), 4);
        let d0 = epoch
            .decisions
            .iter()
            .find(|d| d.server == ServerId(0))
            .unwrap();
        assert!(
            d0.new_share < d0.old_share,
            "overloaded server's target share shrinks"
        );
        // applied_share is the map's quantized share, which generally
        // differs from the real-valued target but stays in (0, 1).
        for d in &epoch.decisions {
            assert!(d.applied_share > 0.0 && d.applied_share < 1.0);
        }
        let applied_total: f64 = epoch.decisions.iter().map(|d| d.applied_share).sum();
        assert!((applied_total - 1.0).abs() < 1e-9, "shares sum to one");
        assert!(p.take_epoch().is_none(), "take_epoch drains the record");
    }

    #[test]
    fn balanced_tick_telemetry_is_all_frozen() {
        let mut p = AnuPolicy::with_seed(8);
        let a = p.initial(&view(3), &sets(90));
        let moves = p.on_tick(
            &view(3),
            &reports(&[(0, 100.0, 50), (1, 101.0, 50), (2, 99.0, 50)]),
            &a,
        );
        assert!(moves.is_empty());
        let epoch = p.take_epoch().expect("even frozen ticks expose telemetry");
        assert!(!epoch.planned);
        for d in &epoch.decisions {
            assert_eq!(d.applied_share, d.old_share, "untouched map keeps shares");
        }
    }

    #[test]
    fn delegate_fail_pauses_then_resumes() {
        let mut p = AnuPolicy::with_seed(9);
        let a = p.initial(&view(5), &sets(200));
        let hot = reports(&[
            (0, 900.0, 100),
            (1, 50.0, 100),
            (2, 50.0, 100),
            (3, 50.0, 100),
            (4, 50.0, 100),
        ]);
        p.on_delegate_fail(2);
        // Two election ticks: no moves, no telemetry, even under heavy
        // imbalance.
        assert!(p.on_tick(&view(5), &hot, &a).is_empty());
        assert!(p.take_epoch().is_none());
        assert!(p.on_tick(&view(5), &hot, &a).is_empty());
        assert!(p.take_epoch().is_none());
        // The new delegate resumes from the map's shares and immediately
        // sheds the overload.
        let moves = p.on_tick(&view(5), &hot, &a);
        assert!(!moves.is_empty(), "tuning resumes after the pause");
        let epoch = p.take_epoch().expect("resumed tick exposes telemetry");
        assert!(epoch.planned);
    }

    #[test]
    fn audit_is_clean_through_fail_and_recover() {
        let mut p = AnuPolicy::with_seed(10);
        let mut a = p.initial(&view(5), &sets(300));
        assert!(p.audit(&a, &[]).is_empty());
        let mut v = view(5);
        v.servers[2].1 = false;
        let moves = p.on_fail(&v, ServerId(2), &a);
        apply(&mut a, moves);
        assert!(p.audit(&a, &[]).is_empty());
        v.servers[2].1 = true;
        let moves = p.on_recover(&v, ServerId(2), &a);
        apply(&mut a, moves);
        assert!(p.audit(&a, &[]).is_empty());
    }

    #[test]
    fn audit_flags_a_settled_set_on_the_wrong_server() {
        let mut p = AnuPolicy::with_seed(11);
        let mut a = p.initial(&view(5), &sets(50));
        let owner = a[0].unwrap();
        a[0] = Some(ServerId((owner.0 + 1) % 5));
        let violations = p.audit(&a, &[]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        // The same disagreement is legitimate while the set migrates.
        assert!(p.audit(&a, &[FileSetId(0)]).is_empty());
    }

    /// One closed-loop tick: each mapped server reports latency
    /// proportional to `share / speed` (the fluid model of a server whose
    /// load tracks its mapped region), so the tuner converges toward
    /// capacity-proportional shares. Returns the tick's telemetry.
    fn closed_loop_tick(
        p: &mut AnuPolicy,
        v: &ClusterView,
        a: &mut Assignment,
        speeds: &BTreeMap<ServerId, f64>,
    ) -> Option<TuneEpoch> {
        let shares = p.map().expect("initial ran").share_fractions();
        let reports: Vec<LoadReport> = shares
            .iter()
            .map(|(&s, &share)| LoadReport {
                server: s,
                mean_latency_ms: 1_000.0 * share / speeds[&s],
                requests: ((share * 10_000.0) as u64).max(1),
                age_ticks: 0,
            })
            .collect();
        let moves = p.on_tick(v, &reports, a);
        apply(a, moves);
        p.take_epoch()
    }

    /// The satellite regression: a planned decommission parks the tuned
    /// share, so commissioning the server back resumes at that share and
    /// pays fewer `scaled` re-convergence epochs than the crash path
    /// (fail + recover), which forgets everything and re-enters at 1/n.
    #[test]
    fn commission_resumes_parked_share_with_fewer_scaled_epochs() {
        use anu_core::TuneOutcome;
        let speeds: BTreeMap<ServerId, f64> = [1.0, 3.0, 5.0, 7.0, 9.0]
            .iter()
            .enumerate()
            .map(|(i, &s)| (ServerId(i as u32), s))
            .collect();
        let leaver = ServerId(4);
        // (scaled epochs after re-entry, re-entry share) for each path.
        let run = |planned: bool| -> (usize, f64) {
            let mut p = AnuPolicy::new(AnuConfig {
                seed: 6,
                // A tight band so the tuner actually chases imbalance,
                // and no divergent-tuning veto: the closed loop here is
                // noiseless, so "above average but not strictly rising"
                // would freeze the re-convergence this test measures.
                tuning: anu_core::TuningConfig {
                    threshold: Some(0.05),
                    divergent: false,
                    ..anu_core::TuningConfig::paper()
                },
            });
            let v5 = view(5);
            let mut a = p.initial(&v5, &sets(400));
            for _ in 0..30 {
                closed_loop_tick(&mut p, &v5, &mut a, &speeds);
            }
            let mut v4 = view(5);
            v4.servers[4].1 = false;
            let out = if planned {
                p.on_decommission(&v4, leaver, &a)
            } else {
                p.on_fail(&v4, leaver, &a)
            };
            apply(&mut a, out);
            for _ in 0..5 {
                closed_loop_tick(&mut p, &v4, &mut a, &speeds);
            }
            let back = if planned {
                p.on_commission(&v5, leaver, &a)
            } else {
                p.on_recover(&v5, leaver, &a)
            };
            apply(&mut a, back);
            let reentry = p.map().unwrap().share_fractions()[&leaver];
            let mut scaled = 0;
            for _ in 0..15 {
                if let Some(e) = closed_loop_tick(&mut p, &v5, &mut a, &speeds) {
                    scaled += e
                        .decisions
                        .iter()
                        .filter(|d| d.outcome == TuneOutcome::Scaled)
                        .count();
                }
            }
            (scaled, reentry)
        };
        let (scaled_planned, reentry_planned) = run(true);
        let (scaled_crashed, reentry_crashed) = run(false);
        // The fastest server's converged share is well above the 1/5
        // average; the planned path re-enters at (about) it, the crash
        // path at the average.
        assert!(
            reentry_planned > reentry_crashed + 0.05,
            "planned re-entry {reentry_planned:.3} vs crash re-entry {reentry_crashed:.3}"
        );
        assert!(
            scaled_planned < scaled_crashed,
            "planned path paid {scaled_planned} scaled epochs, crash path {scaled_crashed}"
        );
    }

    #[test]
    fn failure_moves_only_failed_sets() {
        let mut p = AnuPolicy::with_seed(4);
        let a = p.initial(&view(5), &sets(300));
        let mut v = view(5);
        v.servers[2].1 = false;
        let moves = p.on_fail(&v, ServerId(2), &a);
        // Exactly the orphans move (the exact-takeover property).
        let orphans: Vec<_> = sets_on(&a, ServerId(2)).collect();
        assert_eq!(moves.len(), orphans.len());
        for m in &moves {
            assert!(orphans.contains(&m.set));
            assert_ne!(m.to, ServerId(2));
        }
    }

    #[test]
    fn recovery_pulls_back_share() {
        let mut p = AnuPolicy::with_seed(5);
        let a = p.initial(&view(4), &sets(400));
        let mut v = view(4);
        v.servers[1].1 = false;
        let mut cur = a.clone();
        apply(&mut cur, p.on_fail(&v, ServerId(1), &a));
        v.servers[1].1 = true;
        let moves = p.on_recover(&v, ServerId(1), &cur);
        assert!(!moves.is_empty());
        // The recovered server takes a free partition and everyone scales
        // back; most movement flows to the newcomer, but shed sets re-hash
        // and a minority may land on other survivors (paper §4 semantics).
        let to_recovered = moves.iter().filter(|m| m.to == ServerId(1)).count();
        assert!(
            to_recovered * 2 > moves.len(),
            "majority of recovery moves go to the recovered server: {to_recovered}/{}",
            moves.len()
        );
        let frac = moves.len() as f64 / 400.0;
        assert!(frac < 0.5, "recovery moved {frac:.2} of all sets");
    }
}
