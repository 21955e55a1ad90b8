//! Deterministic fault-plan generation for chaos runs.
//!
//! A [`FaultPlanConfig`] describes a stochastic fault environment — mean
//! time to failure and repair, limping-server slowdowns, latency-report
//! loss, delegate crashes, correlated group failures — and
//! [`plan_faults`] compiles it into a concrete [`FaultEvent`] script.
//! Every draw comes from dedicated, labeled [`RngStream`]s seeded from
//! the plan seed, so the same `(config, servers, seed)` triple always
//! yields a byte-identical script and the generator never perturbs the
//! workload's or any other component's random streams.
//!
//! The raw per-server draws are *candidates*: a final replay pass, by
//! the same step [`ClusterConfig::validate_faults`] replays with, drops
//! any candidate that would contradict the evolving cluster state —
//! double failures, repairs of live servers, slowdowns of dead servers,
//! or a failure that would leave fewer than two servers alive. The
//! returned script therefore always validates.
//!
//! [`ClusterConfig::validate_faults`]: crate::spec::ClusterConfig::validate_faults

use crate::spec::FaultEvent;
use anu_core::ServerId;
use anu_des::{RngStream, SimDuration, SimTime};

/// Service-time inflation while a server limps.
const SLOWDOWN_FACTOR: f64 = 6.0;
/// A slowdown's mean duration is the horizon divided by this.
const SLOWDOWN_DIVISOR: f64 = 10.0;
/// Tuning ticks the policy pauses for after each delegate crash.
const DELEGATE_PAUSE_TICKS: u32 = 1;
/// Probability that a server crash takes the next server (cyclic in id
/// order) down with it at the same instant: correlated failures of
/// servers sharing a rack or power domain.
const GROUP_FAIL_PROB: f64 = 0.25;
/// The generator never lets the plan take the cluster below this many
/// live servers.
const MIN_LIVE: usize = 2;

/// Parameters of a stochastic fault environment.
///
/// All times are in seconds of simulated time. Setting a mean to zero
/// (or the slowdown share to zero) disables that fault class entirely.
/// The rest is the same in every environment: a slowdown inflates
/// service times 6× for a mean of a tenth of the horizon, a delegate
/// crash pauses tuning for one tick, a crash drags its neighbour down
/// with probability 0.25, and no plan leaves fewer than two servers
/// alive.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlanConfig {
    /// Length of the window faults are drawn over; no fault fires at or
    /// after this time.
    pub horizon_secs: f64,
    /// Mean time between one server's failures (exponential). Zero
    /// disables fail/recover and slowdown faults.
    pub mttf_secs: f64,
    /// Mean repair time of a failed server (exponential).
    pub mttr_secs: f64,
    /// Fraction of drawn failures that materialize as a limping-server
    /// slowdown instead of a crash.
    pub slowdown_share: f64,
    /// Mean time between one server's latency-report faults
    /// (exponential); each is a loss or a one-tick delay with equal
    /// probability. Zero disables report faults.
    pub mean_report_fault_secs: f64,
    /// Mean time between delegate crashes (exponential). Zero disables
    /// delegate faults.
    pub delegate_mttf_secs: f64,
}

impl FaultPlanConfig {
    /// A one-knob environment: `level` scales how hostile the window is.
    ///
    /// At `level = 0` the plan is empty. At `level = 1` each server
    /// expects roughly one failure-class fault over the horizon, with
    /// report faults and delegate crashes at comparable rates; larger
    /// levels shorten every mean proportionally.
    pub fn intensity(level: f64, horizon_secs: f64) -> Self {
        let scaled = |mean: f64| if level > 0.0 { mean / level } else { 0.0 };
        FaultPlanConfig {
            horizon_secs,
            mttf_secs: scaled(horizon_secs),
            mttr_secs: horizon_secs / 8.0,
            slowdown_share: 0.3,
            mean_report_fault_secs: scaled(horizon_secs / 2.0),
            delegate_mttf_secs: scaled(horizon_secs),
        }
    }

    /// A membership-churn storm: rapid flapping add/remove with quick
    /// repairs, and nothing else — no slowdowns, no report faults, no
    /// delegate crashes. At `level = 1` each server expects roughly three
    /// fail/recover round-trips over the horizon; larger levels flap
    /// proportionally faster. Pair with a storm workload (flash crowd,
    /// Pareto costs, adversarial popularity) to stress provisioning under
    /// adversarial load — the fault dimension of the storm engine.
    ///
    /// Target the *core* server ids only
    /// ([`ClusterConfig::core_server_ids`]): scripted faults on autoscaler
    /// standby servers are rejected by `validate_faults`.
    ///
    /// [`ClusterConfig::core_server_ids`]: crate::spec::ClusterConfig::core_server_ids
    pub fn churn_storm(level: f64, horizon_secs: f64) -> Self {
        let scaled = |mean: f64| if level > 0.0 { mean / level } else { 0.0 };
        FaultPlanConfig {
            horizon_secs,
            mttf_secs: scaled(horizon_secs / 3.0),
            mttr_secs: horizon_secs / 50.0,
            slowdown_share: 0.0,
            mean_report_fault_secs: 0.0,
            delegate_mttf_secs: 0.0,
        }
    }
}

/// Candidate sort rank, so simultaneous candidates replay in a fixed,
/// seed-independent order.
fn rank(ev: &FaultEvent) -> u8 {
    match ev {
        FaultEvent::Recover { .. } => 0,
        FaultEvent::Fail { .. } => 1,
        FaultEvent::Slowdown { .. } => 2,
        FaultEvent::ReportLoss { .. } => 3,
        FaultEvent::ReportDelay { .. } => 4,
        FaultEvent::DelegateFail { .. } => 5,
    }
}

/// Sort tie-break key: server id where one exists, last otherwise.
fn server_key(ev: &FaultEvent) -> u32 {
    ev.server().map_or(u32::MAX, |s| s.0)
}

/// Compile `cfg` into a concrete fault script over `servers`.
///
/// Deterministic in `(cfg, servers, seed)`; the result always passes
/// [`ClusterConfig::validate_faults`](crate::spec::ClusterConfig::validate_faults)
/// for a cluster with exactly these servers.
pub fn plan_faults(cfg: &FaultPlanConfig, servers: &[ServerId], seed: u64) -> Vec<FaultEvent> {
    let mut candidates: Vec<FaultEvent> = Vec::new();
    // Exponential draws are strictly positive but can underflow toward
    // zero; durations are floored so a slowdown never has zero length.
    let floor = 1e-3;

    // Per-server failure/slowdown timeline, each on its own stream.
    if cfg.mttf_secs > 0.0 {
        for (pos, &s) in servers.iter().enumerate() {
            let mut rng = RngStream::new(seed, &format!("chaos/server/{}", s.0));
            let mut t = 0.0_f64;
            loop {
                t += rng.exponential(1.0 / cfg.mttf_secs).max(floor);
                if t >= cfg.horizon_secs {
                    break;
                }
                if cfg.slowdown_share > 0.0 && rng.chance(cfg.slowdown_share) {
                    let mean_slowdown_secs = cfg.horizon_secs / SLOWDOWN_DIVISOR;
                    let lasts = rng.exponential(1.0 / mean_slowdown_secs).max(floor);
                    candidates.push(FaultEvent::Slowdown {
                        at: SimTime::from_secs_f64(t),
                        server: s,
                        factor: SLOWDOWN_FACTOR,
                        lasts: SimDuration::from_secs_f64(lasts),
                    });
                    t += lasts;
                } else {
                    let repair = rng.exponential(1.0 / cfg.mttr_secs).max(floor);
                    candidates.push(FaultEvent::Fail {
                        at: SimTime::from_secs_f64(t),
                        server: s,
                    });
                    // A correlated group failure drags the next server
                    // (cyclically) down at the same instant, with its own
                    // repair draw.
                    if servers.len() > 1 {
                        let partner = servers[(pos + 1) % servers.len()];
                        let partner_repair = rng.exponential(1.0 / cfg.mttr_secs).max(floor);
                        if rng.chance(GROUP_FAIL_PROB) {
                            candidates.push(FaultEvent::Fail {
                                at: SimTime::from_secs_f64(t),
                                server: partner,
                            });
                            if t + partner_repair < cfg.horizon_secs {
                                candidates.push(FaultEvent::Recover {
                                    at: SimTime::from_secs_f64(t + partner_repair),
                                    server: partner,
                                });
                            }
                        }
                    }
                    if t + repair < cfg.horizon_secs {
                        candidates.push(FaultEvent::Recover {
                            at: SimTime::from_secs_f64(t + repair),
                            server: s,
                        });
                        t += repair;
                    } else {
                        break; // stays down past the horizon
                    }
                }
            }
        }
    }

    // Per-server report faults.
    if cfg.mean_report_fault_secs > 0.0 {
        for &s in servers {
            let mut rng = RngStream::new(seed, &format!("chaos/report/{}", s.0));
            let mut t = 0.0_f64;
            loop {
                t += rng.exponential(1.0 / cfg.mean_report_fault_secs).max(floor);
                if t >= cfg.horizon_secs {
                    break;
                }
                let at = SimTime::from_secs_f64(t);
                candidates.push(if rng.chance(0.5) {
                    FaultEvent::ReportDelay { at, server: s }
                } else {
                    FaultEvent::ReportLoss { at, server: s }
                });
            }
        }
    }

    // Delegate crashes.
    if cfg.delegate_mttf_secs > 0.0 {
        let mut rng = RngStream::new(seed, "chaos/delegate");
        let mut t = 0.0_f64;
        loop {
            t += rng.exponential(1.0 / cfg.delegate_mttf_secs).max(floor);
            if t >= cfg.horizon_secs {
                break;
            }
            candidates.push(FaultEvent::DelegateFail {
                at: SimTime::from_secs_f64(t),
                pause_ticks: DELEGATE_PAUSE_TICKS,
            });
        }
    }

    // Replay in delivery order and drop every candidate that would
    // contradict the evolving cluster state, by the step `validate_faults`
    // replays with: the surviving script is exactly what it accepts.
    candidates.sort_by_key(|ev| (ev.at(), server_key(ev), rank(ev)));
    let mut alive = vec![false; servers.iter().map(|s| s.0 as usize + 1).max().unwrap_or(0)];
    for s in servers {
        alive[s.0 as usize] = true;
    }
    candidates.retain(|ev| ev.replay(&mut alive, MIN_LIVE).is_ok());
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterConfig;

    fn paper_servers() -> Vec<ServerId> {
        ClusterConfig::paper()
            .servers
            .iter()
            .map(|s| s.id)
            .collect()
    }

    #[test]
    fn zero_intensity_is_empty() {
        let cfg = FaultPlanConfig::intensity(0.0, 600.0);
        assert!(plan_faults(&cfg, &paper_servers(), 7).is_empty());
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let cfg = FaultPlanConfig::intensity(2.0, 600.0);
        let servers = paper_servers();
        let a = plan_faults(&cfg, &servers, 42);
        let b = plan_faults(&cfg, &servers, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn plans_always_validate() {
        let servers = paper_servers();
        let envs = [0.5, 1.0, 2.0, 4.0, 8.0].map(|level| FaultPlanConfig::intensity(level, 600.0));
        for (i, pc) in envs.iter().enumerate() {
            for seed in 0..20 {
                let mut cfg = ClusterConfig::paper();
                cfg.faults = plan_faults(pc, &servers, seed);
                cfg.validate_faults().unwrap_or_else(|e| {
                    panic!("environment {i} seed {seed}: {e}");
                });
            }
        }
    }

    #[test]
    fn plans_respect_the_min_live_floor() {
        let servers = paper_servers();
        let pc = FaultPlanConfig::intensity(8.0, 600.0);
        for seed in 0..20 {
            let plan = plan_faults(&pc, &servers, seed);
            let mut live = servers.len();
            for ev in &plan {
                match ev {
                    FaultEvent::Fail { .. } => live -= 1,
                    FaultEvent::Recover { .. } => live += 1,
                    _ => {}
                }
                assert!(live >= MIN_LIVE, "seed {seed} dipped to {live}");
            }
        }
    }

    #[test]
    fn hostile_plans_cover_every_fault_kind() {
        let servers = paper_servers();
        let pc = FaultPlanConfig::intensity(6.0, 3_600.0);
        let (mut fails, mut slows, mut reports, mut delegates) = (0, 0, 0, 0);
        for seed in 0..5 {
            for ev in plan_faults(&pc, &servers, seed) {
                match ev {
                    FaultEvent::Fail { .. } => fails += 1,
                    FaultEvent::Slowdown { .. } => slows += 1,
                    FaultEvent::ReportLoss { .. } | FaultEvent::ReportDelay { .. } => {
                        reports += 1;
                    }
                    FaultEvent::DelegateFail { .. } => delegates += 1,
                    FaultEvent::Recover { .. } => {}
                }
            }
        }
        assert!(fails > 0, "no failures drawn");
        assert!(slows > 0, "no slowdowns drawn");
        assert!(reports > 0, "no report faults drawn");
        assert!(delegates > 0, "no delegate crashes drawn");
    }

    #[test]
    fn churn_storms_flap_hard_and_stay_valid() {
        let servers = paper_servers();
        for level in [0.5, 1.0, 2.0] {
            for seed in 0..10 {
                let pc = FaultPlanConfig::churn_storm(level, 600.0);
                let plan = plan_faults(&pc, &servers, seed);
                // Pure membership churn: only fail/recover events.
                assert!(plan
                    .iter()
                    .all(|ev| matches!(ev, FaultEvent::Fail { .. } | FaultEvent::Recover { .. })));
                let mut cfg = ClusterConfig::paper();
                cfg.faults = plan;
                cfg.validate_faults().unwrap_or_else(|e| {
                    panic!("level {level} seed {seed}: {e}");
                });
            }
        }
        // At full intensity the storm actually flaps: multiple round
        // trips across the fleet.
        let pc = FaultPlanConfig::churn_storm(1.0, 600.0);
        let recoveries = plan_faults(&pc, &servers, 3)
            .iter()
            .filter(|ev| matches!(ev, FaultEvent::Recover { .. }))
            .count();
        assert!(recoveries >= 3, "only {recoveries} recoveries");
    }

    #[test]
    fn all_faults_land_inside_the_horizon() {
        let servers = paper_servers();
        let pc = FaultPlanConfig::intensity(4.0, 600.0);
        for seed in 0..10 {
            for ev in plan_faults(&pc, &servers, seed) {
                assert!(
                    ev.at() < SimTime::from_secs_f64(600.0),
                    "{ev:?} past horizon"
                );
            }
        }
    }
}
