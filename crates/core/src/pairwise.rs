//! Decentralized, pair-wise tuning (the paper's §5 future work).
//!
//! "For future work, we are modifying the algorithm, replacing centralized
//! re-scaling of server mapped regions with pair-wise interactions in which
//! servers scale their mapped regions in peer-to-peer exchanges."
//!
//! [`PairwiseTuner`] implements that design: each tuning round, servers are
//! matched into pairs; every pair rebalances share **only between its two
//! members**, keeping the pair's combined share constant. Because each
//! exchange is locally conserving, the half-occupancy invariant holds
//! globally *without any delegate or renormalization step* — the property
//! that makes the scheme deployable peer-to-peer. The same scaling rule and
//! over-tuning heuristics as the centralized tuner apply, evaluated against
//! the pair's local average instead of the cluster-wide one.
//!
//! Two matchings are provided:
//!
//! * [`Matching::HiLo`] — sort by reported latency, pair the most loaded
//!   with the least loaded, second-most with second-least, … This is the
//!   classic diffusion pairing and converges fastest.
//! * [`Matching::Random`] — a seeded random perfect matching, modelling
//!   unstructured gossip where peers cannot coordinate a sorted pairing.
//!
//! With an odd number of servers, one server sits the round out.

use crate::hash::mix64;
use crate::heuristics::{TuningConfig, MAX_FACTOR, MIN_GROW_SHARE};
use crate::ids::ServerId;
use crate::tuner::LoadReport;
use std::collections::BTreeMap;

/// How peers are matched each gossip round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Matching {
    /// Most loaded paired with least loaded (diffusion pairing).
    HiLo,
    /// Seeded random perfect matching (unstructured gossip).
    Random,
}

/// The decentralized tuner: produces share targets from pair-local
/// exchanges.
#[derive(Clone, Debug)]
pub struct PairwiseTuner {
    cfg: TuningConfig,
    matching: Matching,
    prev: Option<BTreeMap<ServerId, f64>>,
    round: u64,
    seed: u64,
}

impl PairwiseTuner {
    /// Create a pairwise tuner. `seed` drives the random matching (unused
    /// for [`Matching::HiLo`]).
    pub fn new(cfg: TuningConfig, matching: Matching, seed: u64) -> Self {
        PairwiseTuner {
            cfg,
            matching,
            prev: None,
            round: 0,
            seed,
        }
    }

    /// The tuning configuration in use.
    pub fn config(&self) -> &TuningConfig {
        &self.cfg
    }

    /// Drop previous-round state (peer restart); divergent tuning abstains
    /// on the next round, exactly like the centralized delegate.
    pub fn forget_state(&mut self) {
        self.prev = None;
    }

    /// Drop the previous-round latency recorded for one departed server,
    /// keeping every other peer's history (see
    /// [`Tuner::forget_server_state`](crate::tuner::Tuner::forget_server_state)).
    pub fn forget_server_state(&mut self, server: ServerId) {
        if let Some(prev) = self.prev.as_mut() {
            prev.remove(&server);
        }
    }

    /// Build this round's pairs from the latency reports.
    fn pairs(&self, reports: &[LoadReport]) -> Vec<(ServerId, ServerId)> {
        let mut order: Vec<(f64, ServerId)> = reports
            .iter()
            .map(|r| (r.mean_latency_ms, r.server))
            .collect();
        match self.matching {
            Matching::HiLo => {
                order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let n = order.len();
                (0..n / 2)
                    .map(|i| (order[i].1, order[n - 1 - i].1))
                    .collect()
            }
            Matching::Random => {
                // Deterministic Fisher–Yates keyed by (seed, round).
                order.sort_by_key(|a| a.1);
                let mut state = mix64(self.seed ^ self.round.wrapping_mul(0x9E37_79B9));
                for i in (1..order.len()).rev() {
                    state = mix64(state);
                    let j = (state % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order.chunks_exact(2).map(|c| (c[0].1, c[1].1)).collect()
            }
        }
    }

    /// One gossip round: returns new relative share targets (same sum as
    /// the input shares — each pair conserves its combined share), or
    /// `None` when no pair decided to exchange.
    pub fn plan(
        &mut self,
        shares: &BTreeMap<ServerId, f64>,
        reports: &[LoadReport],
    ) -> Option<BTreeMap<ServerId, f64>> {
        self.round += 1;
        let lat: BTreeMap<ServerId, f64> = reports
            .iter()
            .map(|r| (r.server, r.mean_latency_ms))
            .collect();
        let req: BTreeMap<ServerId, u64> = reports.iter().map(|r| (r.server, r.requests)).collect();
        let result = self.plan_inner(shares, reports, &lat, &req);
        self.prev = Some(lat);
        result
    }

    fn plan_inner(
        &self,
        shares: &BTreeMap<ServerId, f64>,
        reports: &[LoadReport],
        lat: &BTreeMap<ServerId, f64>,
        req: &BTreeMap<ServerId, u64>,
    ) -> Option<BTreeMap<ServerId, f64>> {
        if reports.iter().all(|r| r.requests == 0) {
            return None;
        }
        let mut targets = shares.clone();
        let mut changed = false;
        for (a, b) in self.pairs(reports) {
            let (la, lb) = (lat[&a], lat[&b]);
            let (ra, rb) = (req[&a], req[&b]);
            if ra + rb == 0 {
                continue;
            }
            // Pair-local request-weighted average.
            let mu = (la * ra as f64 + lb * rb as f64) / (ra + rb) as f64;
            if mu <= 0.0 {
                continue;
            }
            let sa = targets.get(&a).copied().unwrap_or(0.0);
            let sb = targets.get(&b).copied().unwrap_or(0.0);
            let total = sa + sb;
            if total <= 0.0 {
                continue;
            }
            let divergence = |s: ServerId, l: f64| {
                self.cfg.divergence_allows(
                    l,
                    mu,
                    self.prev.as_ref().and_then(|p| p.get(&s).copied()),
                )
            };
            let scaled = |s: ServerId, l: f64, share: f64| -> Option<f64> {
                if self.cfg.within_band(l, mu) || !divergence(s, l) {
                    return None;
                }
                let raw = if l <= 0.0 {
                    MAX_FACTOR
                } else {
                    (mu / l).powf(self.cfg.gamma)
                };
                let factor = raw.clamp(1.0 / MAX_FACTOR, MAX_FACTOR);
                let base = if factor > 1.0 {
                    share.max(MIN_GROW_SHARE * total)
                } else {
                    share
                };
                Some(base * factor)
            };
            let na = scaled(a, la, sa);
            let nb = scaled(b, lb, sb);
            if na.is_none() && nb.is_none() {
                continue;
            }
            // Conserve the pair's combined share: whatever one member
            // takes, the other cedes. Renormalize the pair to `total`.
            let (ra_, rb_) = (na.unwrap_or(sa), nb.unwrap_or(sb));
            let pair_sum = ra_ + rb_;
            if pair_sum <= 0.0 {
                continue;
            }
            targets.insert(a, ra_ / pair_sum * total);
            targets.insert(b, rb_ / pair_sum * total);
            changed = true;
        }
        changed.then_some(targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(s: u32, l: f64, r: u64) -> LoadReport {
        LoadReport {
            server: ServerId(s),
            mean_latency_ms: l,
            requests: r,
            age_ticks: 0,
        }
    }

    fn equal_shares(n: u32) -> BTreeMap<ServerId, f64> {
        (0..n).map(|i| (ServerId(i), 1.0 / n as f64)).collect()
    }

    #[test]
    fn hilo_pairs_extremes() {
        let t = PairwiseTuner::new(TuningConfig::plain(), Matching::HiLo, 1);
        let pairs = t.pairs(&[
            report(0, 500.0, 10),
            report(1, 10.0, 10),
            report(2, 100.0, 10),
            report(3, 50.0, 10),
        ]);
        assert_eq!(
            pairs,
            vec![(ServerId(0), ServerId(1)), (ServerId(2), ServerId(3))]
        );
    }

    #[test]
    fn random_matching_is_deterministic_and_varies_by_round() {
        let mut a = PairwiseTuner::new(TuningConfig::plain(), Matching::Random, 9);
        let mut b = PairwiseTuner::new(TuningConfig::plain(), Matching::Random, 9);
        let reports: Vec<LoadReport> = (0..6).map(|i| report(i, 100.0, 10)).collect();
        let shares = equal_shares(6);
        // Same seed, same round: identical result.
        assert_eq!(a.plan(&shares, &reports), b.plan(&shares, &reports));
        // Different rounds shuffle differently (pairs method is private:
        // compare over several rounds that at least one differs).
        let p1 = a.pairs(&reports);
        a.round += 1;
        let p2 = a.pairs(&reports);
        a.round += 1;
        let p3 = a.pairs(&reports);
        assert!(p1 != p2 || p2 != p3, "matching never re-shuffles");
    }

    #[test]
    fn exchange_conserves_total_share() {
        let mut t = PairwiseTuner::new(TuningConfig::plain(), Matching::HiLo, 1);
        let shares = equal_shares(4);
        let reports = vec![
            report(0, 900.0, 50),
            report(1, 30.0, 200),
            report(2, 400.0, 80),
            report(3, 60.0, 150),
        ];
        let t2 = t.plan(&shares, &reports).expect("imbalance plans");
        let before: f64 = shares.values().sum();
        let after: f64 = t2.values().sum();
        assert!((before - after).abs() < 1e-12, "{before} vs {after}");
        // Overloaded servers shed to their partners.
        assert!(t2[&ServerId(0)] < shares[&ServerId(0)]);
        assert!(t2[&ServerId(1)] > shares[&ServerId(1)]);
        assert!(t2[&ServerId(2)] < shares[&ServerId(2)]);
        assert!(t2[&ServerId(3)] > shares[&ServerId(3)]);
    }

    #[test]
    fn balanced_pairs_do_not_move() {
        let mut t = PairwiseTuner::new(TuningConfig::paper(), Matching::HiLo, 1);
        let shares = equal_shares(4);
        let reports: Vec<LoadReport> = (0..4).map(|i| report(i, 100.0, 50)).collect();
        assert!(t.plan(&shares, &reports).is_none());
    }

    #[test]
    fn odd_server_sits_out() {
        let mut t = PairwiseTuner::new(TuningConfig::plain(), Matching::HiLo, 1);
        let shares = equal_shares(3);
        let reports = vec![
            report(0, 900.0, 50),
            report(1, 30.0, 200),
            report(2, 100.0, 80), // middle: unpaired under HiLo with n=3
        ];
        let t2 = t.plan(&shares, &reports).expect("pair 0-1 exchanges");
        assert!((t2[&ServerId(2)] - shares[&ServerId(2)]).abs() < 1e-12);
    }

    #[test]
    fn iterated_gossip_converges_to_capacity_proportional_shares() {
        // Closed-loop toy model: latency inversely tracks share/speed
        // headroom; iterate gossip rounds and check shares approach the
        // speed ratio.
        let speeds = [1.0f64, 3.0, 5.0, 7.0];
        let mut shares = equal_shares(4);
        let mut t = PairwiseTuner::new(TuningConfig::plain(), Matching::HiLo, 3);
        for _ in 0..60 {
            let reports: Vec<LoadReport> = (0..4)
                .map(|i| {
                    // Latency model: proportional to load per capacity.
                    let l = 100.0 * shares[&ServerId(i)] / speeds[i as usize];
                    report(i, l, 100)
                })
                .collect();
            if let Some(next) = t.plan(&shares, &reports) {
                shares = next;
            }
        }
        let total_speed: f64 = speeds.iter().sum();
        for i in 0..4u32 {
            let want = speeds[i as usize] / total_speed;
            let got = shares[&ServerId(i)];
            assert!(
                (got - want).abs() < 0.08,
                "server {i}: share {got:.3}, capacity-fair {want:.3}"
            );
        }
    }

    #[test]
    fn no_requests_no_plan() {
        let mut t = PairwiseTuner::new(TuningConfig::plain(), Matching::HiLo, 1);
        let shares = equal_shares(2);
        assert!(t
            .plan(&shares, &[report(0, 0.0, 0), report(1, 0.0, 0)])
            .is_none());
    }

    #[test]
    fn forget_state_resets_divergence() {
        let mut t = PairwiseTuner::new(TuningConfig::divergent_only(), Matching::HiLo, 1);
        let shares = equal_shares(2);
        t.plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)]);
        t.forget_state();
        // With no prev state, divergence abstains: the exchange proceeds.
        let plan = t.plan(&shares, &[report(0, 300.0, 100), report(1, 150.0, 100)]);
        assert!(plan.is_some());
    }
}
