//! Cluster configuration: servers, tuning tick, migration costs, faults.

use crate::autoscaler::AutoscalerConfig;
use anu_core::ServerId;
use anu_des::{SimDuration, SimTime};

/// Delay before a failed server's orphaned file sets restart on their new
/// owners (failure detection + reassignment).
pub const FAILOVER_DELAY: SimDuration = SimDuration::from_secs(5);

/// Bucket width of the recorded per-server latency time series: the
/// figures plot one point per minute.
pub const SERIES_BUCKET: SimDuration = SimDuration::from_secs(60);

/// One metadata server's static description.
///
/// `speed` is relative processing power: a request with service demand `d`
/// (at speed 1) takes `d / speed` on this server. The paper's five-server
/// cluster uses speeds 1, 3, 5, 7, 9 — the most powerful server is nine
/// times the least (§7).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ServerSpec {
    /// Server id: its position in [`ClusterConfig::servers`].
    pub id: ServerId,
    /// Relative processing power (> 0).
    pub speed: f64,
}

/// Cost model for moving a file set between servers.
///
/// "It takes five to ten seconds to move a file set from one server to
/// another in our target system. The releasing server needs to flush its
/// cache […]. The acquiring server must initialize the file set.
/// Furthermore, the acquiring file server starts with a cold cache, which
/// hinders performance initially." (§7)
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MigrationConfig {
    /// Releasing server's cache flush time.
    pub flush: SimDuration,
    /// Acquiring server's file set initialization time.
    pub init: SimDuration,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        // 2 s flush + 5 s init = 7 s per move, inside the paper's 5-10 s.
        MigrationConfig {
            flush: SimDuration::from_secs(2),
            init: SimDuration::from_secs(5),
        }
    }
}

impl MigrationConfig {
    /// Total wall time of one file-set move.
    pub fn total(&self) -> SimDuration {
        self.flush + self.init
    }
}

/// Cold-cache penalty after a file set lands on a new server.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ColdCacheConfig {
    /// Service-time multiplier at a completely cold cache.
    pub multiplier: f64,
    /// Number of requests over which the cache warms back to 1.0x.
    pub warm_after: u32,
}

impl Default for ColdCacheConfig {
    fn default() -> Self {
        ColdCacheConfig {
            multiplier: 2.0,
            warm_after: 50,
        }
    }
}

impl ColdCacheConfig {
    /// Multiplier after `served` requests since acquiring the file set.
    pub fn factor(&self, served: u32) -> f64 {
        if served >= self.warm_after || self.warm_after == 0 {
            1.0
        } else {
            let progress = served as f64 / self.warm_after as f64;
            1.0 + (self.multiplier - 1.0) * (1.0 - progress)
        }
    }
}

/// Graceful-degradation knob: deterministic load shedding.
///
/// When a server's queue (waiting + in service) already holds `max_queue`
/// requests, a newly arriving request routed to it is *shed* — dropped at
/// admission instead of queued — and the world opens a `degraded` trace
/// span covering the overloaded stretch. Shedding bounds queue growth when
/// offered load exceeds live capacity (churn storms, flash crowds), so the
/// run degrades predictably instead of diverging. Requests already
/// buffered behind an in-flight migration are never shed: they were
/// admitted before the overload decision point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ShedConfig {
    /// Per-server queue-depth ceiling (≥ 1) above which arrivals are shed.
    pub max_queue: usize,
}

impl ShedConfig {
    /// Sanity-check the knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_queue == 0 {
            return Err("shed ceiling must admit at least one request".into());
        }
        Ok(())
    }
}

/// A scheduled fault-injection event.
///
/// Events fire in `(time, list index)` order — ties at the same instant
/// are applied in the order they appear in [`ClusterConfig::faults`], which
/// is exactly the order the calendar delivers them, so
/// [`ClusterConfig::validate_faults`] can check a script against the same
/// timeline the run will see.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FaultEvent {
    /// Server fails (crash) at the given time.
    Fail {
        /// When.
        at: SimTime,
        /// Which server.
        server: ServerId,
    },
    /// Server recovers (or a new server is commissioned) at the given time.
    Recover {
        /// When.
        at: SimTime,
        /// Which server.
        server: ServerId,
    },
    /// Server limps: its effective speed is divided by `factor` for the
    /// next `lasts` of simulated time, then restores. A limping server
    /// keeps serving (slowly) — the failure mode crash-only fault models
    /// miss, and the one that most stresses latency-driven tuning.
    Slowdown {
        /// When the slowdown starts.
        at: SimTime,
        /// Which server.
        server: ServerId,
        /// Speed divisor (≥ 1; 4.0 means a quarter-speed server).
        factor: f64,
        /// How long the slowdown lasts.
        lasts: SimDuration,
    },
    /// The server's next latency report never reaches the delegate (the
    /// first tick at or after `at`). The server keeps serving; the delegate
    /// must tune around the hole instead of mistaking silence for idleness.
    ReportLoss {
        /// When the loss arms.
        at: SimTime,
        /// Which server's report is dropped.
        server: ServerId,
    },
    /// The server's next latency report arrives one tick late (delivered
    /// at the following tick with `age_ticks = 1`).
    ReportDelay {
        /// When the delay arms.
        at: SimTime,
        /// Which server's report is delayed.
        server: ServerId,
    },
    /// The tuning delegate dies. A deterministic re-election pauses tuning
    /// for `pause_ticks` tuning intervals; the new delegate then resumes
    /// from the last applied shares (the base algorithm is stateless, so
    /// only cross-interval heuristic state is lost).
    DelegateFail {
        /// When the delegate dies.
        at: SimTime,
        /// Tuning intervals the re-election outage lasts.
        pause_ticks: u32,
    },
}

impl FaultEvent {
    /// The event's time.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::Fail { at, .. }
            | FaultEvent::Recover { at, .. }
            | FaultEvent::Slowdown { at, .. }
            | FaultEvent::ReportLoss { at, .. }
            | FaultEvent::ReportDelay { at, .. }
            | FaultEvent::DelegateFail { at, .. } => at,
        }
    }

    /// The server the event targets, if it targets one (`DelegateFail`
    /// targets the delegate role, not a simulated server).
    pub fn server(&self) -> Option<ServerId> {
        match *self {
            FaultEvent::Fail { server, .. }
            | FaultEvent::Recover { server, .. }
            | FaultEvent::Slowdown { server, .. }
            | FaultEvent::ReportLoss { server, .. }
            | FaultEvent::ReportDelay { server, .. } => Some(server),
            FaultEvent::DelegateFail { .. } => None,
        }
    }
}

/// Full cluster configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Server descriptions. Server `i` has id `i`: the world indexes its
    /// per-server state by id.
    pub servers: Vec<ServerSpec>,
    /// Tuning interval — "the prescient policy and ANU randomization update
    /// the workload configuration every two minutes" (§7).
    pub tick: SimDuration,
    /// File-set migration cost.
    pub migration: MigrationConfig,
    /// Cold-cache penalty after migration.
    pub cold_cache: ColdCacheConfig,
    /// Fault injections, if any.
    pub faults: Vec<FaultEvent>,
    /// Latency-driven elasticity over a standby pool, if any. Servers
    /// listed in [`AutoscalerConfig::standby`] start the run dormant
    /// (alive but unprovisioned: they hold no file sets and serve
    /// nothing) until the autoscaler commissions them. The fault script
    /// must not target standby servers — the two mechanisms own disjoint
    /// server sets.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Deterministic load shedding at a per-server queue ceiling, if any.
    pub shed: Option<ShedConfig>,
}

impl ClusterConfig {
    /// The paper's evaluation cluster: five servers with processing powers
    /// 1, 3, 5, 7, 9 and a two-minute tuning interval (§7).
    pub fn paper() -> Self {
        ClusterConfig {
            servers: [1.0, 3.0, 5.0, 7.0, 9.0]
                .iter()
                .enumerate()
                .map(|(i, &speed)| ServerSpec {
                    id: ServerId(i as u32),
                    speed,
                })
                .collect(),
            tick: SimDuration::from_secs(120),
            migration: MigrationConfig::default(),
            cold_cache: ColdCacheConfig::default(),
            faults: Vec::new(),
            autoscaler: None,
            shed: None,
        }
    }

    /// A homogeneous cluster of `n` speed-1 servers (for the
    /// ANU-beats-simple-randomization-even-homogeneous experiment).
    pub fn homogeneous(n: usize) -> Self {
        let mut c = ClusterConfig::paper();
        c.servers = (0..n as u32)
            .map(|i| ServerSpec {
                id: ServerId(i),
                speed: 1.0,
            })
            .collect();
        c
    }

    /// Total processing power.
    pub fn total_speed(&self) -> f64 {
        self.servers.iter().map(|s| s.speed).sum()
    }

    /// The autoscaler's standby pool (empty when no autoscaler).
    pub fn standby_ids(&self) -> &[ServerId] {
        self.autoscaler
            .as_ref()
            .map(|a| a.standby.as_slice())
            .unwrap_or(&[])
    }

    /// Server ids outside the standby pool — the core membership the
    /// fault script may target.
    pub fn core_server_ids(&self) -> Vec<ServerId> {
        let standby = self.standby_ids();
        self.servers
            .iter()
            .map(|s| s.id)
            .filter(|id| !standby.contains(id))
            .collect()
    }

    /// Validate: non-empty, each server's id its position, positive
    /// speeds, positive tick.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers.is_empty() {
            return Err("no servers".into());
        }
        if let Some((i, s)) = self
            .servers
            .iter()
            .enumerate()
            .find(|&(i, s)| s.id.0 as usize != i)
        {
            return Err(format!(
                "server {} at position {i}: ids must be 0..n in order",
                s.id
            ));
        }
        if self
            .servers
            .iter()
            .any(|s| s.speed <= 0.0 || !s.speed.is_finite())
        {
            return Err("non-positive server speed".into());
        }
        if self.tick.0 == 0 {
            return Err("zero tick".into());
        }
        if let Some(a) = &self.autoscaler {
            a.validate()?;
            for s in &a.standby {
                if s.0 as usize >= self.servers.len() {
                    return Err(format!("standby {s} is not a cluster server"));
                }
            }
            if a.standby.len() == self.servers.len() {
                return Err("every server is standby; no core membership".into());
            }
            if a.min_servers > self.servers.len() - a.standby.len() {
                return Err("autoscaler floor exceeds the core server count".into());
            }
        }
        if let Some(sh) = &self.shed {
            sh.validate()?;
        }
        Ok(())
    }

    /// Validate the fault script against the alive-set timeline it would
    /// produce, *before* the run starts.
    ///
    /// Replays the events in the exact order the calendar will deliver them
    /// (time, then list position for ties) and rejects, with a structured
    /// [`AnuError::BadFaultScript`](anu_core::AnuError::BadFaultScript) naming the offending event:
    ///
    /// * any event targeting a server id not in the cluster,
    /// * failing a server that is already down (double fail),
    /// * recovering a server that is already up,
    /// * failing the last live server (the cluster would lose all data
    ///   paths and no placement could be valid),
    /// * a `Slowdown` with a non-finite or `< 1` factor or zero duration,
    /// * a `Slowdown`/`ReportLoss`/`ReportDelay` targeting a server that is
    ///   down at that instant (a dead server neither serves nor reports),
    /// * any event targeting an autoscaler standby server — elasticity and
    ///   fault injection own disjoint server sets, so a scale decision can
    ///   never race a scripted fault on the same server.
    pub fn validate_faults(&self) -> anu_core::Result<()> {
        use anu_core::AnuError;
        let bad = |index: usize, reason: String| AnuError::BadFaultScript { index, reason };

        let standby = self.standby_ids();
        let mut alive: Vec<bool> = self
            .servers
            .iter()
            .map(|s| !standby.contains(&s.id))
            .collect();

        // Calendar delivery order: time, then schedule (= list) order.
        let mut order: Vec<usize> = (0..self.faults.len()).collect();
        order.sort_by_key(|&i| (self.faults[i].at(), i));

        for i in order {
            let f = &self.faults[i];
            let s = match f.server() {
                Some(server) => {
                    // A server's id is its position (`validate`).
                    let slot = server.0 as usize;
                    if slot >= alive.len() {
                        return Err(bad(i, format!("unknown server {server}")));
                    }
                    if standby.contains(&server) {
                        return Err(bad(i, format!("fault targets standby {server}")));
                    }
                    Some((server, slot))
                }
                None => None,
            };
            match (*f, s) {
                (FaultEvent::Fail { .. }, Some((server, slot))) => {
                    if !alive[slot] {
                        return Err(bad(i, format!("double failure of {server}")));
                    }
                    if alive.iter().filter(|&&a| a).count() == 1 {
                        return Err(bad(i, format!("failing {server} leaves no live server")));
                    }
                    alive[slot] = false;
                }
                (FaultEvent::Recover { .. }, Some((server, slot))) => {
                    if alive[slot] {
                        return Err(bad(i, format!("recovery of alive {server}")));
                    }
                    alive[slot] = true;
                }
                (FaultEvent::Slowdown { factor, lasts, .. }, Some((server, slot))) => {
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(bad(i, format!("slowdown factor {factor} must be >= 1")));
                    }
                    if lasts.0 == 0 {
                        return Err(bad(i, "zero-duration slowdown".to_string()));
                    }
                    if !alive[slot] {
                        return Err(bad(i, format!("slowdown of failed {server}")));
                    }
                }
                (
                    FaultEvent::ReportLoss { .. } | FaultEvent::ReportDelay { .. },
                    Some((server, slot)),
                ) if !alive[slot] => {
                    return Err(bad(i, format!("report fault on failed {server}")));
                }
                (FaultEvent::DelegateFail { .. }, _) => {}
                // `server()` returns Some for every server-targeting kind,
                // so the remaining combinations cannot occur.
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterConfig::paper();
        assert_eq!(c.servers.len(), 5);
        assert_eq!(c.total_speed(), 25.0);
        assert_eq!(c.tick, SimDuration::from_secs(120));
        assert!(c.validate().is_ok());
        // Server 4 is nine times server 0 (paper §7).
        assert_eq!(c.servers[4].speed / c.servers[0].speed, 9.0);
    }

    #[test]
    fn migration_total_in_paper_range() {
        let m = MigrationConfig::default();
        let secs = m.total().as_secs_f64();
        assert!((5.0..=10.0).contains(&secs), "{secs}");
    }

    #[test]
    fn cold_cache_warms_linearly() {
        let c = ColdCacheConfig {
            multiplier: 3.0,
            warm_after: 10,
        };
        assert!((c.factor(0) - 3.0).abs() < 1e-12);
        assert!((c.factor(5) - 2.0).abs() < 1e-12);
        assert!((c.factor(10) - 1.0).abs() < 1e-12);
        assert!((c.factor(100) - 1.0).abs() < 1e-12);
        // Degenerate config: no warm-up phase.
        let z = ColdCacheConfig {
            multiplier: 2.0,
            warm_after: 0,
        };
        assert_eq!(z.factor(0), 1.0);
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = ClusterConfig::paper();
        c.servers[1].id = c.servers[0].id;
        assert!(c.validate().is_err());
        // A server's id is its position: a gap, a swap and an id past the
        // server count are each rejected.
        let with_ids = |ids: &[u32]| {
            let mut c = ClusterConfig::homogeneous(ids.len());
            for (s, &id) in c.servers.iter_mut().zip(ids) {
                s.id = ServerId(id);
            }
            c
        };
        assert!(with_ids(&[0, 1]).validate().is_ok());
        assert!(with_ids(&[0, 2]).validate().is_err());
        assert!(with_ids(&[1, 0]).validate().is_err());
        assert!(with_ids(&[0, 1, 7]).validate().is_err());
        let mut c = ClusterConfig::paper();
        c.servers[0].speed = 0.0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::paper();
        c.tick = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::paper();
        c.servers.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn homogeneous_cluster() {
        let c = ClusterConfig::homogeneous(4);
        assert_eq!(c.servers.len(), 4);
        assert!(c.servers.iter().all(|s| s.speed == 1.0));
    }

    #[test]
    fn fault_event_time() {
        let f = FaultEvent::Fail {
            at: SimTime::from_secs_f64(10.0),
            server: ServerId(1),
        };
        assert_eq!(f.at(), SimTime::from_secs_f64(10.0));
        let d = FaultEvent::DelegateFail {
            at: SimTime::from_secs_f64(20.0),
            pause_ticks: 2,
        };
        assert_eq!(d.at(), SimTime::from_secs_f64(20.0));
        assert_eq!(d.server(), None);
        assert_eq!(f.server(), Some(ServerId(1)));
    }

    fn at(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn reason_of(err: anu_core::AnuError) -> (usize, String) {
        match err {
            anu_core::AnuError::BadFaultScript { index, reason } => (index, reason),
            other => panic!("expected BadFaultScript, got {other:?}"),
        }
    }

    #[test]
    fn validate_faults_accepts_sane_scripts() {
        let mut c = ClusterConfig::paper();
        c.faults = vec![
            FaultEvent::Slowdown {
                at: at(5.0),
                server: ServerId(4),
                factor: 4.0,
                lasts: SimDuration::from_secs(60),
            },
            FaultEvent::Fail {
                at: at(10.0),
                server: ServerId(1),
            },
            FaultEvent::ReportLoss {
                at: at(15.0),
                server: ServerId(2),
            },
            FaultEvent::DelegateFail {
                at: at(20.0),
                pause_ticks: 1,
            },
            FaultEvent::Recover {
                at: at(30.0),
                server: ServerId(1),
            },
            // Re-fail after recovery is fine.
            FaultEvent::Fail {
                at: at(40.0),
                server: ServerId(1),
            },
        ];
        assert!(c.validate_faults().is_ok());
    }

    #[test]
    fn validate_faults_rejects_unknown_server() {
        let mut c = ClusterConfig::paper();
        c.faults = vec![FaultEvent::Fail {
            at: at(1.0),
            server: ServerId(99),
        }];
        let (index, reason) = reason_of(c.validate_faults().unwrap_err());
        assert_eq!(index, 0);
        assert!(reason.contains("unknown server"), "{reason}");
    }

    #[test]
    fn validate_faults_rejects_double_fail_and_alive_recover() {
        let mut c = ClusterConfig::paper();
        c.faults = vec![
            FaultEvent::Fail {
                at: at(1.0),
                server: ServerId(1),
            },
            FaultEvent::Fail {
                at: at(2.0),
                server: ServerId(1),
            },
        ];
        let (index, reason) = reason_of(c.validate_faults().unwrap_err());
        assert_eq!(index, 1);
        assert!(reason.contains("double failure"), "{reason}");

        c.faults = vec![FaultEvent::Recover {
            at: at(1.0),
            server: ServerId(1),
        }];
        let (_, reason) = reason_of(c.validate_faults().unwrap_err());
        assert!(reason.contains("recovery of alive"), "{reason}");
    }

    #[test]
    fn validate_faults_rejects_killing_the_last_server() {
        let mut c = ClusterConfig::homogeneous(2);
        c.faults = vec![
            FaultEvent::Fail {
                at: at(1.0),
                server: ServerId(0),
            },
            FaultEvent::Fail {
                at: at(2.0),
                server: ServerId(1),
            },
        ];
        let (index, reason) = reason_of(c.validate_faults().unwrap_err());
        assert_eq!(index, 1);
        assert!(reason.contains("no live server"), "{reason}");
        // A recovery in between makes the same final fail legal.
        c.faults.insert(
            1,
            FaultEvent::Recover {
                at: at(1.5),
                server: ServerId(0),
            },
        );
        assert!(c.validate_faults().is_ok());
    }

    #[test]
    fn validate_faults_rejects_faults_on_dead_servers_and_bad_slowdowns() {
        let mut c = ClusterConfig::paper();
        let dead = FaultEvent::Fail {
            at: at(1.0),
            server: ServerId(1),
        };
        c.faults = vec![
            dead,
            FaultEvent::ReportLoss {
                at: at(2.0),
                server: ServerId(1),
            },
        ];
        let (_, reason) = reason_of(c.validate_faults().unwrap_err());
        assert!(reason.contains("report fault on failed"), "{reason}");

        c.faults = vec![
            dead,
            FaultEvent::Slowdown {
                at: at(2.0),
                server: ServerId(1),
                factor: 2.0,
                lasts: SimDuration::from_secs(10),
            },
        ];
        let (_, reason) = reason_of(c.validate_faults().unwrap_err());
        assert!(reason.contains("slowdown of failed"), "{reason}");

        c.faults = vec![FaultEvent::Slowdown {
            at: at(2.0),
            server: ServerId(1),
            factor: 0.5,
            lasts: SimDuration::from_secs(10),
        }];
        let (_, reason) = reason_of(c.validate_faults().unwrap_err());
        assert!(reason.contains("must be >= 1"), "{reason}");

        c.faults = vec![FaultEvent::Slowdown {
            at: at(2.0),
            server: ServerId(1),
            factor: 2.0,
            lasts: SimDuration::ZERO,
        }];
        let (_, reason) = reason_of(c.validate_faults().unwrap_err());
        assert!(reason.contains("zero-duration"), "{reason}");
    }

    fn with_standby() -> ClusterConfig {
        let mut c = ClusterConfig::paper();
        c.servers.push(ServerSpec {
            id: ServerId(5),
            speed: 5.0,
        });
        c.autoscaler = Some(AutoscalerConfig {
            high_latency_ms: 400.0,
            low_latency_ms: 100.0,
            cooldown_ticks: 2,
            min_servers: 3,
            standby: vec![ServerId(5)],
        });
        c
    }

    #[test]
    fn validate_checks_autoscaler_and_shed() {
        let c = with_standby();
        assert!(c.validate().is_ok());
        let mut c = with_standby();
        c.autoscaler.as_mut().unwrap().standby = vec![ServerId(42)];
        assert!(c.validate().unwrap_err().contains("not a cluster server"));
        let mut c = with_standby();
        c.autoscaler.as_mut().unwrap().min_servers = 6;
        assert!(c.validate().unwrap_err().contains("floor exceeds"));
        let mut c = with_standby();
        c.autoscaler.as_mut().unwrap().standby = (0..6).map(ServerId).collect();
        assert!(c.validate().unwrap_err().contains("no core membership"));
        let mut c = ClusterConfig::paper();
        c.shed = Some(ShedConfig { max_queue: 0 });
        assert!(c.validate().is_err());
        c.shed = Some(ShedConfig { max_queue: 64 });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_faults_rejects_standby_targets_and_starts_them_dormant() {
        let mut c = with_standby();
        c.faults = vec![FaultEvent::Fail {
            at: at(1.0),
            server: ServerId(5),
        }];
        let (index, reason) = reason_of(c.validate_faults().unwrap_err());
        assert_eq!(index, 0);
        assert!(reason.contains("targets standby"), "{reason}");
        // Core faults remain legal alongside a standby pool.
        c.faults = vec![
            FaultEvent::Fail {
                at: at(1.0),
                server: ServerId(1),
            },
            FaultEvent::Recover {
                at: at(30.0),
                server: ServerId(1),
            },
        ];
        assert!(c.validate_faults().is_ok());
    }

    #[test]
    fn validate_faults_replays_ties_in_list_order() {
        // Two events at the same instant: the calendar fires them in list
        // order, so (Recover, Fail) at t=2 on a down server is legal while
        // the reversed list is a double fail.
        let mut c = ClusterConfig::paper();
        let fail = |server| FaultEvent::Fail {
            at: at(2.0),
            server,
        };
        let recover = |server| FaultEvent::Recover {
            at: at(2.0),
            server,
        };
        c.faults = vec![
            FaultEvent::Fail {
                at: at(1.0),
                server: ServerId(1),
            },
            recover(ServerId(1)),
            fail(ServerId(1)),
        ];
        assert!(c.validate_faults().is_ok());
        c.faults = vec![
            FaultEvent::Fail {
                at: at(1.0),
                server: ServerId(1),
            },
            fail(ServerId(1)),
            recover(ServerId(1)),
        ];
        assert!(c.validate_faults().is_err());
    }
}
