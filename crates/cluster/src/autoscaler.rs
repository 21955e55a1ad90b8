//! Latency-driven elasticity: commission/decommission standby servers.
//!
//! The autoscaler watches the same per-epoch latency reports the tuner
//! consumes and grows or shrinks the cluster by toggling servers from a
//! fixed *standby pool* (ROADMAP item 4: elasticity and churn as a
//! first-class experiment). Scaling is deliberately conservative:
//!
//! * **hysteresis** — scale up only above `high_latency_ms`, down only
//!   below `low_latency_ms`, with a mandatory gap between the two, so a
//!   latency level can never trigger both directions;
//! * **cooldown** — after any action the autoscaler sits out
//!   `cooldown_ticks` epochs, giving migrations and cold caches time to
//!   settle before the next decision (at most one action per epoch, so a
//!   commission can never be answered by a decommission inside the
//!   window: zero flap by construction);
//! * **floor** — it never lets the live-server count drop below
//!   `min_servers`, and it only ever touches the standby pool: the core
//!   servers (everything outside `standby`) are beyond its reach, so a
//!   scale-down can never collide with the fault script, which targets
//!   core servers only (enforced by `ClusterConfig::validate_faults`).
//!
//! Every scale event flows through the world's one bring-up and take-down
//! path, the same one scripted repairs and crashes use —
//! `PlacementPolicy::on_commission` / `on_decommission` (by default
//! `on_recover` / `on_fail`) plus the minimal-movement placement map — and
//! the world audits invariants at each boundary.
//!
//! The decision procedure is a pure function of the observed latency
//! sequence, so runs are byte-identical at any worker count.

use anu_core::{LoadReport, ServerId};

/// Autoscaler knobs, carried on
/// [`ClusterConfig::autoscaler`](crate::ClusterConfig::autoscaler).
#[derive(Clone, Debug, PartialEq)]
pub struct AutoscalerConfig {
    /// Commission a standby when the fleet-wide mean report latency
    /// exceeds this (ms). Must be strictly greater than `low_latency_ms`.
    pub high_latency_ms: f64,
    /// Decommission the newest standby when mean latency falls below
    /// this (ms).
    pub low_latency_ms: f64,
    /// Epochs to sit out after any scale action (≥ 1).
    pub cooldown_ticks: u32,
    /// Hard floor on the live-server count; a decommission that would go
    /// below it is refused. Scale-downs only ever target the standby
    /// pool, so the core servers are a floor regardless.
    pub min_servers: usize,
    /// The standby pool, in commission order: scale-ups take the first
    /// dormant entry, scale-downs retire the last active one (LIFO).
    /// Every id must exist in `ClusterConfig::servers`; standby servers
    /// start the run dormant.
    pub standby: Vec<ServerId>,
}

impl AutoscalerConfig {
    /// Sanity-check the knobs (ids are checked against the server set by
    /// [`ClusterConfig::validate`](crate::ClusterConfig::validate)).
    pub fn validate(&self) -> Result<(), String> {
        if !self.high_latency_ms.is_finite() || !self.low_latency_ms.is_finite() {
            return Err("non-finite autoscaler thresholds".into());
        }
        if self.low_latency_ms <= 0.0 {
            return Err("autoscaler low threshold must be positive".into());
        }
        if self.high_latency_ms <= self.low_latency_ms {
            return Err("autoscaler hysteresis requires high > low".into());
        }
        if self.cooldown_ticks == 0 {
            return Err("autoscaler cooldown must be at least one tick".into());
        }
        if self.min_servers == 0 {
            return Err("autoscaler floor must keep at least one server".into());
        }
        if self.standby.is_empty() {
            return Err("autoscaler with an empty standby pool".into());
        }
        let mut ids = self.standby.clone();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.standby.len() {
            return Err("duplicate standby server ids".into());
        }
        Ok(())
    }
}

/// One scale action, phrased as a slot into the configured standby pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScaleAction {
    /// Bring `standby[slot]` online.
    Commission(usize),
    /// Retire `standby[slot]` (currently online).
    Decommission(usize),
}

/// The runtime decision state: cooldown counter plus the config.
///
/// The world owns one per run (when configured) and calls
/// [`Autoscaler::decide`] once per tuning tick, *before* the placement
/// policy runs, so the policy always plans against the post-scale
/// membership.
#[derive(Clone, Debug)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    cooldown_left: u32,
}

impl Autoscaler {
    /// Build from a validated config.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        Autoscaler {
            cfg,
            cooldown_left: 0,
        }
    }

    /// Request-weighted mean latency across this epoch's reports; `None`
    /// when nothing completed anywhere (an idle epoch carries no signal).
    pub fn mean_latency_ms(reports: &[LoadReport]) -> Option<f64> {
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

    /// One decision per tuning tick. `standby_online[i]` says whether
    /// `cfg.standby[i]` is currently live; `live_servers` counts all live
    /// servers (core + commissioned standby). Ticks inside the cooldown
    /// window only decrement it; an idle epoch (no latency signal) makes
    /// no decision.
    pub fn decide(
        &mut self,
        mean_latency_ms: Option<f64>,
        standby_online: &[bool],
        live_servers: usize,
    ) -> Option<ScaleAction> {
        debug_assert_eq!(standby_online.len(), self.cfg.standby.len());
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }
        let lat = mean_latency_ms?;
        if lat >= self.cfg.high_latency_ms {
            if let Some(slot) = standby_online.iter().position(|&on| !on) {
                self.cooldown_left = self.cfg.cooldown_ticks;
                return Some(ScaleAction::Commission(slot));
            }
        } else if lat <= self.cfg.low_latency_ms && live_servers > self.cfg.min_servers {
            if let Some(slot) = standby_online.iter().rposition(|&on| on) {
                self.cooldown_left = self.cfg.cooldown_ticks;
                return Some(ScaleAction::Decommission(slot));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(standby: usize) -> AutoscalerConfig {
        AutoscalerConfig {
            high_latency_ms: 400.0,
            low_latency_ms: 100.0,
            cooldown_ticks: 3,
            min_servers: 2,
            standby: (0..standby as u32).map(|i| ServerId(100 + i)).collect(),
        }
    }

    fn report(lat: f64, req: u64) -> LoadReport {
        LoadReport {
            server: ServerId(0),
            mean_latency_ms: lat,
            requests: req,
            age_ticks: 0,
        }
    }

    #[test]
    fn config_validation() {
        assert!(cfg(2).validate().is_ok());
        let mut c = cfg(2);
        c.high_latency_ms = c.low_latency_ms;
        assert!(c.validate().is_err(), "no hysteresis gap");
        let mut c = cfg(2);
        c.cooldown_ticks = 0;
        assert!(c.validate().is_err(), "zero cooldown");
        let mut c = cfg(2);
        c.standby.clear();
        assert!(c.validate().is_err(), "empty pool");
        let mut c = cfg(2);
        c.standby[1] = c.standby[0];
        assert!(c.validate().is_err(), "duplicate standby");
        let mut c = cfg(2);
        c.min_servers = 0;
        assert!(c.validate().is_err(), "zero floor");
    }

    #[test]
    fn weighted_mean_ignores_idle() {
        assert_eq!(Autoscaler::mean_latency_ms(&[]), None);
        assert_eq!(Autoscaler::mean_latency_ms(&[report(500.0, 0)]), None);
        let m = Autoscaler::mean_latency_ms(&[report(100.0, 300), report(500.0, 100)]).unwrap();
        assert!((m - 200.0).abs() < 1e-9, "{m}");
    }

    #[test]
    fn commissions_first_dormant_and_retires_last_active() {
        let mut a = Autoscaler::new(cfg(2));
        assert_eq!(
            a.decide(Some(900.0), &[false, false], 3),
            Some(ScaleAction::Commission(0))
        );
        // Cooldown exhausts before the next action.
        for _ in 0..3 {
            assert_eq!(a.decide(Some(900.0), &[true, false], 4), None);
        }
        assert_eq!(
            a.decide(Some(900.0), &[true, false], 4),
            Some(ScaleAction::Commission(1))
        );
        for _ in 0..3 {
            assert_eq!(a.decide(Some(10.0), &[true, true], 5), None);
        }
        assert_eq!(
            a.decide(Some(10.0), &[true, true], 5),
            Some(ScaleAction::Decommission(1))
        );
    }

    #[test]
    fn floor_refuses_scale_down() {
        let mut a = Autoscaler::new(cfg(1));
        // live == min_servers: refuse even with an active standby.
        assert_eq!(a.decide(Some(1.0), &[true], 2), None);
        // Above the floor it proceeds.
        assert_eq!(
            a.decide(Some(1.0), &[true], 3),
            Some(ScaleAction::Decommission(0))
        );
    }

    #[test]
    fn dead_band_and_idle_epochs_hold() {
        let mut a = Autoscaler::new(cfg(1));
        // Latency between low and high: no action either way.
        assert_eq!(a.decide(Some(250.0), &[false], 3), None);
        assert_eq!(a.decide(Some(250.0), &[true], 4), None);
        // No signal: no action.
        assert_eq!(a.decide(None, &[false], 3), None);
    }

    #[test]
    fn oscillating_latency_produces_zero_flap() {
        // Latency alternates violently every tick. With cooldown 3, an
        // action must never be followed by the opposite action within the
        // cooldown window — count transitions to prove zero flap.
        let mut a = Autoscaler::new(cfg(1));
        let mut online = false;
        let mut live = 3usize;
        let mut history: Vec<(u64, ScaleAction)> = Vec::new();
        for tick in 0..100u64 {
            let lat = if tick % 2 == 0 { 1_000.0 } else { 1.0 };
            if let Some(act) = a.decide(Some(lat), &[online], live) {
                match act {
                    ScaleAction::Commission(_) => {
                        online = true;
                        live += 1;
                    }
                    ScaleAction::Decommission(_) => {
                        online = false;
                        live -= 1;
                    }
                }
                history.push((tick, act));
            }
        }
        for pair in history.windows(2) {
            let ((t0, a0), (t1, a1)) = (pair[0], pair[1]);
            let flipped = matches!(
                (a0, a1),
                (ScaleAction::Commission(_), ScaleAction::Decommission(_))
                    | (ScaleAction::Decommission(_), ScaleAction::Commission(_))
            );
            assert!(
                !flipped || t1 - t0 > 3,
                "flap: {a0:?}@{t0} then {a1:?}@{t1} within cooldown"
            );
        }
        assert!(!history.is_empty(), "the storm must trigger some scaling");
    }
}
