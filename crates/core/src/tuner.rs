//! The delegate's load-update algorithm.
//!
//! Each server monitors its request latency over a tuning interval and
//! reports it to an elected delegate. The delegate condenses the reports
//! into an average `μ`, scales down the mapped regions of servers above it
//! and (heuristics permitting) scales up the regions of servers below it,
//! then renormalizes so the half-occupancy invariant holds.
//!
//! The base algorithm is **stateless**: the new configuration is computed
//! solely from the latencies reported against the current configuration, so
//! a delegate failover loses nothing — the next delegate runs the same
//! protocol with the same information. Divergent tuning is the single
//! stateful extension and degrades gracefully when the state is missing
//! (see [`crate::heuristics`]).

use crate::heuristics::{AverageKind, TuningConfig, MAX_REPORT_AGE, MIN_QUORUM};
use crate::ids::ServerId;
use crate::json::{Json, ToJson};
use std::collections::BTreeMap;

/// One server's performance report for the last tuning interval.
///
/// Latency is the metric: the metadata workload consists of small,
/// short-lived transactions with low service-time variance, so request
/// latency tracks load directly (paper §2). A server that completed no
/// requests reports zero latency.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LoadReport {
    /// Reporting server.
    pub server: ServerId,
    /// Mean request latency over the interval, in milliseconds.
    pub mean_latency_ms: f64,
    /// Number of requests completed in the interval.
    pub requests: u64,
    /// How many ticks old the report is. `0` is a fresh report; a report
    /// delayed in flight arrives with `1`. Reports older than
    /// [`MAX_REPORT_AGE`] are discarded by the delegate and
    /// the server's share is frozen ([`TuneOutcome::NoReport`]) instead of
    /// being mistaken for an idle server.
    pub age_ticks: u32,
}

/// The request-weighted mean latency (ms) of `reports`; `None` when
/// nothing completed anywhere (an idle epoch carries no signal). The
/// delegate's default average and the autoscaler's load signal.
pub fn weighted_mean_latency(reports: &[LoadReport]) -> Option<f64> {
    let total: u64 = reports.iter().map(|r| r.requests).sum();
    if total == 0 {
        return None;
    }
    let sum: f64 = reports
        .iter()
        .map(|r| r.mean_latency_ms * r.requests as f64)
        .sum();
    Some(sum / total as f64)
}

/// Why the tuner arrived at a server's new share — which heuristic fired,
/// or which clamp bounded the move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneOutcome {
    /// The raw scaling factor was applied unmodified. An idle server's
    /// raw factor is [`MAX_FACTOR`] itself, so it grows as `Scaled` (or
    /// `Floored`).
    ///
    /// [`MAX_FACTOR`]: crate::heuristics::MAX_FACTOR
    Scaled,
    /// The raw factor exceeded [`MAX_FACTOR`] or fell below its inverse
    /// and was clamped.
    ///
    /// [`MAX_FACTOR`]: crate::heuristics::MAX_FACTOR
    Clamped,
    /// The share was floored at [`MIN_GROW_SHARE`] before growing, so a
    /// collapsed region could re-enter.
    ///
    /// [`MIN_GROW_SHARE`]: crate::heuristics::MIN_GROW_SHARE
    Floored,
    /// Thresholding froze the server: its latency was within the band
    /// around `μ`.
    FrozenBand,
    /// Divergent tuning froze the server: it was already converging on
    /// its own.
    FrozenDivergent,
    /// The delegate had no usable report for the server (lost in flight or
    /// older than [`MAX_REPORT_AGE`]), or the whole epoch fell below
    /// [`MIN_QUORUM`]. The share is carried forward unchanged — a missing
    /// report is missing information, not zero latency.
    NoReport,
}

impl TuneOutcome {
    /// Stable lowercase label for CSV / JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            TuneOutcome::Scaled => "scaled",
            TuneOutcome::Clamped => "clamped",
            TuneOutcome::Floored => "floored",
            TuneOutcome::FrozenBand => "frozen_band",
            TuneOutcome::FrozenDivergent => "frozen_divergent",
            TuneOutcome::NoReport => "no_report",
        }
    }
}

/// One server's record in a tuning epoch: old → new region width (as
/// normalized shares) and the heuristic that shaped the move.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuneDecision {
    /// The server tuned.
    pub server: ServerId,
    /// The latency (ms) the server reported for the interval.
    pub latency_ms: f64,
    /// Normalized share before the pass.
    pub old_share: f64,
    /// Normalized share the tuner asked for (equals `old_share` for
    /// frozen servers modulo renormalization slack).
    pub new_share: f64,
    /// Share actually applied after the placement map quantized the
    /// target to whole region boundaries. Equals `new_share` until the
    /// policy layer fills it in.
    pub applied_share: f64,
    /// Which heuristic or clamp shaped this decision.
    pub outcome: TuneOutcome,
}

/// Full telemetry for one delegate tuning pass: the average, whether a
/// plan was produced, and every per-server decision.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneEpoch {
    /// The average latency (ms) the pass compared against.
    pub mu_ms: f64,
    /// True when the pass produced new targets (some mover scaled); false
    /// when every server was frozen and the configuration stood.
    pub planned: bool,
    /// Per-server decisions, in `ServerId` order.
    pub decisions: Vec<TuneDecision>,
}

impl ToJson for TuneDecision {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("server", Json::u32(self.server.0)),
            ("latency_ms", Json::f64(self.latency_ms)),
            ("old", Json::f64(self.old_share)),
            ("new", Json::f64(self.new_share)),
            ("applied", Json::f64(self.applied_share)),
            ("outcome", Json::str(self.outcome.name())),
        ])
    }
}

impl ToJson for TuneEpoch {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mu_ms", Json::f64(self.mu_ms)),
            ("planned", Json::bool(self.planned)),
            (
                "decisions",
                Json::arr(self.decisions.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

/// Anything that can turn latency reports into new share targets.
///
/// Two implementations ship: the centralized delegate [`Tuner`] (the
/// paper's algorithm) and the decentralized
/// [`PairwiseTuner`](crate::pairwise::PairwiseTuner) (the paper's §5
/// future-work design). The ANU policy is generic over this, so the two
/// can be compared under identical cluster conditions.
pub trait SharePlanner: Send {
    /// Compute new relative share targets from the current shares and the
    /// last interval's reports; `None` means "leave the configuration
    /// untouched".
    fn plan(
        &mut self,
        shares: &BTreeMap<ServerId, f64>,
        reports: &[LoadReport],
    ) -> Option<BTreeMap<ServerId, f64>>;

    /// Drop any cross-interval state (delegate failover / peer restart).
    fn forget(&mut self);

    /// Drop all per-server cross-interval state for `server` — the server
    /// left the membership (failure or autoscaler decommission). Unlike
    /// [`forget`](SharePlanner::forget) this is surgical: the other
    /// servers' history survives, so tuning continues uninterrupted. A
    /// planner that keeps no per-server state uses the no-op default.
    fn forget_server(&mut self, _server: ServerId) {}

    /// Telemetry from the most recent [`plan`] call, consumed on read.
    /// Planners without per-epoch telemetry return `None` (the default),
    /// which costs nothing.
    ///
    /// [`plan`]: SharePlanner::plan
    fn take_epoch(&mut self) -> Option<TuneEpoch> {
        None
    }
}

impl SharePlanner for Tuner {
    /// Run one tuning pass.
    ///
    /// `shares` are the current relative shares (any non-negative scale);
    /// `reports` cover the last interval. Returns the new relative shares
    /// (sum 1) to apply via
    /// [`PlacementMap::rebalance`](crate::placement::PlacementMap::rebalance),
    /// or `None` if the system is considered balanced (no mover selected) —
    /// the configuration should then be left untouched. Previous-interval
    /// state is updated either way, and the pass's μ and per-server
    /// decisions are kept for [`SharePlanner::take_epoch`].
    ///
    /// Robustness: reports older than [`MAX_REPORT_AGE`] ticks are discarded;
    /// a share-holding server with no usable report is frozen at its
    /// current share ([`TuneOutcome::NoReport`]); if fewer than [`MIN_QUORUM`]
    /// of the share holders have a usable report, the whole pass freezes.
    fn plan(
        &mut self,
        shares: &BTreeMap<ServerId, f64>,
        reports: &[LoadReport],
    ) -> Option<BTreeMap<ServerId, f64>> {
        // Age out stale reports, then keep only the freshest report per
        // server: a delayed report delivered alongside the next fresh one
        // must not double-count that server in the cluster average.
        let mut freshest: BTreeMap<ServerId, LoadReport> = BTreeMap::new();
        for r in reports {
            // A report from a server outside the current membership (it
            // failed or was decommissioned after transmitting) is dropped
            // outright rather than aged out: it must neither skew μ nor
            // seed a ghost share for a later re-add.
            if !shares.contains_key(&r.server) {
                continue;
            }
            if r.age_ticks > MAX_REPORT_AGE {
                continue;
            }
            match freshest.get(&r.server) {
                Some(kept) if kept.age_ticks <= r.age_ticks => {}
                _ => {
                    freshest.insert(r.server, *r);
                }
            }
        }
        let usable: Vec<LoadReport> = freshest.into_values().collect();
        let lat: BTreeMap<ServerId, f64> = usable
            .iter()
            .map(|r| (r.server, r.mean_latency_ms))
            .collect();
        let (result, epoch) = self.plan_inner(shares, &usable, &lat);
        self.prev = Some(lat);
        self.last_epoch = epoch;
        result
    }

    /// Drop the previous-interval state, as a delegate failover would.
    fn forget(&mut self) {
        self.prev = None;
    }

    /// Drop the previous-interval latency recorded for one server — it
    /// left the membership. Without this, a decommissioned server's last
    /// latency would survive as a ghost entry and poison divergent tuning
    /// if the server is re-added later; the rest of the history stays.
    fn forget_server(&mut self, server: ServerId) {
        if let Some(prev) = self.prev.as_mut() {
            prev.remove(&server);
        }
    }

    fn take_epoch(&mut self) -> Option<TuneEpoch> {
        self.last_epoch.take()
    }
}

/// The delegate's tuner: consumes [`LoadReport`]s, produces share targets.
#[derive(Clone, Debug, Default)]
pub struct Tuner {
    cfg: TuningConfig,
    /// Latencies from the previous interval, for divergent tuning. `None`
    /// until the first pass completes — and after any simulated delegate
    /// failover via [`SharePlanner::forget`].
    prev: Option<BTreeMap<ServerId, f64>>,
    /// Telemetry from the last [`SharePlanner::plan`] call, for
    /// [`SharePlanner::take_epoch`]. Recording it is a handful of copies
    /// per pass; a pass runs once per tuning interval, so this costs
    /// nothing measurable.
    last_epoch: Option<TuneEpoch>,
}

impl Tuner {
    /// Create a tuner with the given configuration.
    pub fn new(cfg: TuningConfig) -> Self {
        Tuner {
            cfg,
            prev: None,
            last_epoch: None,
        }
    }

    /// Compute the delegate's average latency from `reports`.
    ///
    /// Returns `None` when there is no information to act on (no requests
    /// completed anywhere).
    pub fn average(&self, reports: &[LoadReport]) -> Option<f64> {
        match self.cfg.average {
            AverageKind::WeightedMean => weighted_mean_latency(reports),
            AverageKind::Median => {
                if reports.iter().all(|r| r.requests == 0) {
                    return None;
                }
                let mut lats: Vec<f64> = reports.iter().map(|r| r.mean_latency_ms).collect();
                lats.sort_by(f64::total_cmp);
                let n = lats.len();
                Some(if n % 2 == 1 {
                    lats[n / 2]
                } else {
                    (lats[n / 2 - 1] + lats[n / 2]) / 2.0
                })
            }
        }
    }

    fn plan_inner(
        &self,
        shares: &BTreeMap<ServerId, f64>,
        reports: &[LoadReport],
        lat: &BTreeMap<ServerId, f64>,
    ) -> (Option<BTreeMap<ServerId, f64>>, Option<TuneEpoch>) {
        let Some(mu) = self.average(reports) else {
            return (None, None);
        };
        if mu <= 0.0 {
            return (None, None); // nothing is queuing anywhere
        }
        let share_total: f64 = shares.values().sum();
        if share_total <= 0.0 {
            return (None, None);
        }

        // Partial-quorum gate: tuning from a sliver of the cluster would
        // chase a μ computed over whoever happened to report. Below quorum
        // the configuration stands; every decision records `no_report` so
        // the telemetry shows *why* the epoch froze.
        let reporting = shares.keys().filter(|s| lat.contains_key(s)).count();
        if !shares.is_empty() && (reporting as f64) < MIN_QUORUM * shares.len() as f64 {
            let decisions = shares
                .iter()
                .map(|(&s, &share)| {
                    let old_share = share / share_total;
                    TuneDecision {
                        server: s,
                        latency_ms: lat.get(&s).copied().unwrap_or(0.0),
                        old_share,
                        new_share: old_share,
                        applied_share: old_share,
                        outcome: TuneOutcome::NoReport,
                    }
                })
                .collect();
            let epoch = TuneEpoch {
                mu_ms: mu,
                planned: false,
                decisions,
            };
            return (None, Some(epoch));
        }

        let mut targets = BTreeMap::new();
        let mut moved = false;
        let mut decisions = Vec::with_capacity(shares.len());
        for (&s, &share) in shares {
            let old_share = share / share_total;
            let Some(&latency) = lat.get(&s) else {
                // Missing report: freeze the share. The old code treated
                // this as zero latency, which grew the silent server at the
                // clamp — exactly wrong for a server that is slow or
                // partitioned rather than idle.
                targets.insert(s, share);
                decisions.push(TuneDecision {
                    server: s,
                    latency_ms: 0.0,
                    old_share,
                    new_share: old_share,
                    applied_share: old_share,
                    outcome: TuneOutcome::NoReport,
                });
                continue;
            };
            let outcome = if self.cfg.within_band(latency, mu) {
                TuneOutcome::FrozenBand
            } else if !self.cfg.divergence_allows(
                latency,
                mu,
                self.prev.as_ref().and_then(|p| p.get(&s).copied()),
            ) {
                TuneOutcome::FrozenDivergent
            } else {
                TuneOutcome::Scaled // refined below once the clamp is known
            };
            if outcome != TuneOutcome::Scaled {
                targets.insert(s, share);
                decisions.push(TuneDecision {
                    server: s,
                    latency_ms: latency,
                    old_share,
                    new_share: old_share,
                    applied_share: old_share,
                    outcome,
                });
                continue;
            }
            moved = true;
            let (target, outcome) = self.cfg.scale_share(share, share_total, latency, mu);
            targets.insert(s, target);
            decisions.push(TuneDecision {
                server: s,
                latency_ms: latency,
                old_share,
                new_share: old_share, // overwritten after renormalization
                applied_share: old_share,
                outcome,
            });
        }

        if !moved {
            // Every server frozen: the configuration stands; decisions
            // already carry new == old.
            let epoch = TuneEpoch {
                mu_ms: mu,
                planned: false,
                decisions,
            };
            return (None, Some(epoch));
        }
        // Renormalize to sum 1. Frozen servers absorb the slack — that is
        // the "implicit" gain/loss that preserves half occupancy.
        let total: f64 = targets.values().sum();
        for v in targets.values_mut() {
            *v /= total;
        }
        for d in &mut decisions {
            let t = targets[&d.server];
            d.new_share = t;
            d.applied_share = t;
        }
        let epoch = TuneEpoch {
            mu_ms: mu,
            planned: true,
            decisions,
        };
        (Some(targets), Some(epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(s: u32, lat: f64, req: u64) -> LoadReport {
        LoadReport {
            server: ServerId(s),
            mean_latency_ms: lat,
            requests: req,
            age_ticks: 0,
        }
    }

    fn equal_shares(n: u32) -> BTreeMap<ServerId, f64> {
        (0..n).map(|i| (ServerId(i), 1.0 / n as f64)).collect()
    }

    /// The servers a pass scaled: the decisions that no heuristic froze
    /// and no missing report held.
    fn movers(epoch: &TuneEpoch) -> Vec<ServerId> {
        let scaled = [
            TuneOutcome::Scaled,
            TuneOutcome::Clamped,
            TuneOutcome::Floored,
        ];
        epoch
            .decisions
            .iter()
            .filter(|d| scaled.contains(&d.outcome))
            .map(|d| d.server)
            .collect()
    }

    #[test]
    fn weighted_mean_average() {
        let t = Tuner::new(TuningConfig::plain());
        let mu = t
            .average(&[report(0, 100.0, 300), report(1, 10.0, 100)])
            .unwrap();
        assert!((mu - (100.0 * 300.0 + 10.0 * 100.0) / 400.0).abs() < 1e-9);
    }

    #[test]
    fn median_average() {
        let mut cfg = TuningConfig::plain();
        cfg.average = AverageKind::Median;
        let t = Tuner::new(cfg);
        let mu = t
            .average(&[report(0, 5.0, 1), report(1, 100.0, 1), report(2, 10.0, 1)])
            .unwrap();
        assert_eq!(mu, 10.0);
        let mu2 = t.average(&[report(0, 5.0, 1), report(1, 15.0, 1)]).unwrap();
        assert_eq!(mu2, 10.0);
    }

    #[test]
    fn no_requests_no_plan() {
        let mut t = Tuner::new(TuningConfig::plain());
        assert!(t
            .plan(&equal_shares(3), &[report(0, 0.0, 0), report(1, 0.0, 0)])
            .is_none());
    }

    #[test]
    fn overloaded_server_shrinks() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        let targets = t
            .plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)])
            .unwrap();
        assert!(targets[&ServerId(0)] < shares[&ServerId(0)]);
        assert!(targets[&ServerId(1)] > shares[&ServerId(1)]);
        let sum: f64 = targets.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(movers(&t.take_epoch().unwrap()).len(), 2);
    }

    #[test]
    fn scaling_rule_sqrt() {
        // With gamma = 0.5 and latency 4x the average, the raw factor is
        // (1/4)^0.5 = 0.5 before renormalization.
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        // mu = (400*100 + 100*300)/400 = 175; factor0 = (175/400)^0.5.
        let targets = t
            .plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 300)])
            .unwrap();
        let raw0 = 0.5 * (175.0f64 / 400.0).sqrt();
        let raw1 = 0.5 * (175.0f64 / 100.0).sqrt();
        let want0 = raw0 / (raw0 + raw1);
        assert!((targets[&ServerId(0)] - want0).abs() < 1e-9);
    }

    #[test]
    fn factor_clamped() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        // mu ~= 1.0; server 0 is 10000x over (raw factor 0.01 -> clamp 0.5)
        // and server 1 is 1000x under (raw factor ~31.6 -> clamp 2.0).
        let targets = t
            .plan(&shares, &[report(0, 10_000.0, 1), report(1, 0.001, 10_000)])
            .unwrap();
        // raw shares: s0 = 0.5*0.5 = 0.25, s1 = 0.5*2.0 = 1.0.
        assert!(
            (targets[&ServerId(0)] - 0.25 / 1.25).abs() < 1e-3,
            "got {}",
            targets[&ServerId(0)]
        );
    }

    #[test]
    fn idle_server_regrows_without_top_off() {
        let mut t = Tuner::new(TuningConfig::plain());
        let mut shares = equal_shares(2);
        *shares.get_mut(&ServerId(0)).unwrap() = 0.0; // collapsed
        *shares.get_mut(&ServerId(1)).unwrap() = 1.0;
        let targets = t
            .plan(&shares, &[report(0, 0.0, 0), report(1, 100.0, 500)])
            .unwrap();
        assert!(
            targets[&ServerId(0)] > 0.0,
            "MIN_GROW_SHARE must restart the idle server"
        );
    }

    #[test]
    fn top_off_leaves_idle_server_alone() {
        let mut t = Tuner::new(TuningConfig::top_off_only());
        let shares = equal_shares(3);
        let targets = t
            .plan(
                &shares,
                &[
                    report(0, 0.0, 0),     // idle: inside [0, mu(1+t)]
                    report(1, 500.0, 100), // overloaded
                    report(2, 100.0, 400), // fine
                ],
            )
            .unwrap();
        assert_eq!(movers(&t.take_epoch().unwrap()), vec![ServerId(1)]);
        // Idle server 0 still gains implicitly via renormalization.
        assert!(targets[&ServerId(0)] > shares[&ServerId(0)]);
        assert!(targets[&ServerId(1)] < shares[&ServerId(1)]);
    }

    #[test]
    fn thresholding_freezes_in_band() {
        let mut t = Tuner::new(TuningConfig::thresholding_only());
        let shares = equal_shares(2);
        // Both servers within ±50% of mu: no plan.
        assert!(t
            .plan(&shares, &[report(0, 120.0, 100), report(1, 90.0, 100)])
            .is_none());
    }

    #[test]
    fn divergent_blocks_converging_server() {
        let mut t = Tuner::new(TuningConfig::divergent_only());
        let shares = equal_shares(2);
        // First pass establishes state (and plans, since no prev state).
        t.plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)]);
        // Second pass: server 0 fell from 400 to 300 (converging): frozen.
        // Server 1 rose from 100 to 150 but is below mu: rising = converging
        // from below? mu = (300*100+150*100)/200 = 225; s1 at 150 < mu and
        // rising => blocked; s0 at 300 > mu and falling => blocked.
        let plan = t.plan(&shares, &[report(0, 300.0, 100), report(1, 150.0, 100)]);
        assert!(plan.is_none(), "both servers converging on their own");
    }

    #[test]
    fn forget_state_disables_divergence_once() {
        let mut t = Tuner::new(TuningConfig::divergent_only());
        let shares = equal_shares(2);
        t.plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)]);
        t.forget(); // delegate failover
                    // Without prev state, divergence abstains: plan proceeds.
        let plan = t.plan(&shares, &[report(0, 300.0, 100), report(1, 150.0, 100)]);
        assert!(plan.is_some());
    }

    #[test]
    fn non_member_reports_are_dropped_not_aged() {
        // Server 2 left the membership (shares only cover 0 and 1); its
        // perfectly fresh report must not contribute to μ. With it
        // included, μ would be pulled far up by the 9000 ms outlier.
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        let plan = t.plan(
            &shares,
            &[
                report(0, 100.0, 100),
                report(1, 100.0, 100),
                report(2, 9_000.0, 100),
            ],
        );
        // Balanced members => no plan at all; the ghost report is ignored.
        assert!(plan.is_none(), "ghost report skewed the average: {plan:?}");
    }

    #[test]
    fn forget_server_drops_ghost_share_history() {
        let mut t = Tuner::new(TuningConfig::divergent_only());
        let shares = equal_shares(2);
        // Establish prev state for both servers.
        t.plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)]);
        // Server 0 is decommissioned; its history must vanish while
        // server 1's survives.
        t.forget_server(ServerId(0));
        // Re-added later: with no prev entry, divergence abstains for
        // server 0 (it cannot be judged "already converging"), so the
        // pass plans instead of freezing on ghost state.
        let plan = t.plan(&shares, &[report(0, 300.0, 100), report(1, 150.0, 100)]);
        assert!(plan.is_some(), "ghost prev-latency froze a re-added server");
    }

    #[test]
    fn all_balanced_exact_no_plan() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        assert!(t
            .plan(&shares, &[report(0, 100.0, 50), report(1, 100.0, 50)])
            .is_none());
    }

    #[test]
    fn mu_zero_no_plan() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        assert!(t
            .plan(&shares, &[report(0, 0.0, 10), report(1, 0.0, 10)])
            .is_none());
    }

    #[test]
    fn epoch_telemetry_records_decisions() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        let targets = t
            .plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)])
            .unwrap();
        let epoch = t.take_epoch().expect("plan produced telemetry");
        assert!(epoch.planned);
        // μ weights each latency by its requests: (400 + 100) / 2.
        assert_eq!(epoch.mu_ms, 250.0);
        assert_eq!(epoch.decisions.len(), 2);
        for d in &epoch.decisions {
            assert_eq!(d.outcome, TuneOutcome::Scaled);
            assert!((d.new_share - targets[&d.server]).abs() < 1e-12);
            assert_eq!(d.applied_share, d.new_share);
        }
        assert!((epoch.decisions[0].old_share - 0.5).abs() < 1e-12);
        // take_epoch consumes.
        assert!(t.take_epoch().is_none());
    }

    #[test]
    fn epoch_telemetry_names_the_freezing_heuristic() {
        let mut t = Tuner::new(TuningConfig::thresholding_only());
        let shares = equal_shares(2);
        assert!(t
            .plan(&shares, &[report(0, 120.0, 100), report(1, 90.0, 100)])
            .is_none());
        let epoch = t.take_epoch().expect("frozen pass still records");
        assert!(!epoch.planned);
        assert!(epoch
            .decisions
            .iter()
            .all(|d| d.outcome == TuneOutcome::FrozenBand && d.new_share == d.old_share));
    }

    #[test]
    fn epoch_telemetry_marks_clamped_movers() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        t.plan(&shares, &[report(0, 10_000.0, 1), report(1, 0.001, 10_000)])
            .unwrap();
        let epoch = t.take_epoch().unwrap();
        assert!(epoch
            .decisions
            .iter()
            .all(|d| d.outcome == TuneOutcome::Clamped));
    }

    #[test]
    fn no_information_no_epoch() {
        let mut t = Tuner::new(TuningConfig::plain());
        assert!(t
            .plan(&equal_shares(2), &[report(0, 0.0, 0), report(1, 0.0, 0)])
            .is_none());
        assert!(t.take_epoch().is_none());
    }

    fn stale(s: u32, lat: f64, req: u64, age: u32) -> LoadReport {
        LoadReport {
            age_ticks: age,
            ..report(s, lat, req)
        }
    }

    #[test]
    fn missing_report_freezes_share_instead_of_growing_it() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(3);
        // Server 2 filed no report. The old behavior treated it as idle
        // (zero latency) and grew it at the clamp; it must now hold its
        // share exactly while the reporting pair rebalances around it.
        let targets = t
            .plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)])
            .unwrap();
        let s2 = ServerId(2);
        // Frozen means "not a mover": like the band-frozen case, the share
        // only drifts by the renormalization slack (here within ±15%), far
        // from the ~2x the old zero-latency clamp growth produced.
        let epoch = t.take_epoch().unwrap();
        assert!(!movers(&epoch).contains(&s2));
        let drift = targets[&s2] / shares[&s2];
        assert!(
            (0.85..=1.15).contains(&drift),
            "silent server share moved: {} -> {}",
            shares[&s2],
            targets[&s2]
        );
        let d2 = epoch.decisions.iter().find(|d| d.server == s2).unwrap();
        assert_eq!(d2.outcome, TuneOutcome::NoReport);
        assert_eq!(d2.new_share, targets[&s2]);
    }

    #[test]
    fn stale_report_is_aged_out() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(3);
        // Server 2's report is two ticks old: discarded, share frozen.
        let targets = t
            .plan(
                &shares,
                &[
                    report(0, 400.0, 100),
                    report(1, 100.0, 100),
                    stale(2, 1.0, 100, 2),
                ],
            )
            .unwrap();
        let s2 = ServerId(2);
        let epoch = t.take_epoch().unwrap();
        assert!(!movers(&epoch).contains(&s2), "aged-out server is frozen");
        let drift = targets[&s2] / shares[&s2];
        assert!((0.85..=1.15).contains(&drift), "drift {drift}");
        let d2 = epoch.decisions.iter().find(|d| d.server == s2).unwrap();
        assert_eq!(d2.outcome, TuneOutcome::NoReport);
        // A one-tick-stale report (ReportDelay) is still usable.
        let targets = t
            .plan(
                &shares,
                &[
                    report(0, 400.0, 100),
                    report(1, 100.0, 100),
                    stale(2, 1.0, 100, 1),
                ],
            )
            .unwrap();
        assert!(
            targets[&s2] > shares[&s2],
            "delayed report still tunes the fast server up"
        );
    }

    #[test]
    fn duplicate_reports_keep_only_the_freshest() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        // Server 0's delayed report from last tick (age 1, latency 900)
        // arrives alongside its fresh one (age 0, latency 400). Only the
        // fresh number may enter the cluster average; the result must be
        // identical to a run that never saw the stale duplicate.
        let duped = t
            .plan(
                &shares,
                &[
                    stale(0, 900.0, 100, 1),
                    report(0, 400.0, 100),
                    report(1, 100.0, 100),
                ],
            )
            .unwrap();
        let mut t2 = Tuner::new(TuningConfig::plain());
        let clean = t2
            .plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)])
            .unwrap();
        assert_eq!(duped, clean);
        assert_eq!(
            movers(&t.take_epoch().unwrap()),
            movers(&t2.take_epoch().unwrap())
        );
    }

    #[test]
    fn below_quorum_freezes_the_whole_epoch() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(5);
        // Only one of five share holders reported: below the 50% quorum,
        // the configuration stands and every decision says why.
        assert!(t.plan(&shares, &[report(0, 400.0, 100)]).is_none());
        let epoch = t.take_epoch().expect("quorum freeze still records");
        assert!(!epoch.planned);
        assert_eq!(epoch.decisions.len(), 5);
        assert!(epoch
            .decisions
            .iter()
            .all(|d| d.outcome == TuneOutcome::NoReport && d.new_share == d.old_share));
        // Three of five meets quorum: the pass plans normally.
        let plan = t.plan(
            &shares,
            &[
                report(0, 400.0, 100),
                report(1, 100.0, 100),
                report(2, 100.0, 100),
            ],
        );
        assert!(plan.is_some());
    }

    #[test]
    fn epoch_json_shape() {
        let mut t = Tuner::new(TuningConfig::plain());
        let shares = equal_shares(2);
        t.plan(&shares, &[report(0, 400.0, 100), report(1, 100.0, 100)])
            .unwrap();
        let j = t.take_epoch().unwrap().to_json();
        assert!(j.get("mu_ms").is_ok());
        assert!(j.get("planned").unwrap().as_bool().unwrap());
        assert_eq!(j.get("decisions").unwrap().as_arr().unwrap().len(), 2);
    }
}
