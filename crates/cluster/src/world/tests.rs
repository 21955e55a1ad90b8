//! Tests for the world: routing, migration, faults, shedding, autoscaling,
//! metrics and tracing, driven through [`run`] and its traced variants.
#![cfg(test)]

use super::observe::SET_LATENCY_BATCH;
use super::*;
use crate::policy::MoveSet;
use crate::spec::FaultEvent;
use anu_core::ServerId;
use anu_trace::LogHistogram;
use anu_workload::{CostModel, SyntheticConfig, WeightDist};

/// Static modulo policy for world and closed-loop tests: set j -> alive
/// server j % n.
pub(crate) struct Modulo;

impl PlacementPolicy for Modulo {
    fn name(&self) -> &str {
        "modulo"
    }
    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        let alive = view.alive();
        (0..file_sets.len())
            .map(|i| Some(alive[i % alive.len()]))
            .collect()
    }
    fn on_tick(&mut self, _: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
    fn on_fail(
        &mut self,
        view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        let alive = view.alive();
        assignment
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == Some(failed))
            .enumerate()
            .map(|(k, (i, _))| MoveSet {
                set: FileSetId(i as u64),
                to: alive[k % alive.len()],
            })
            .collect()
    }
    fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
}

/// A mover policy that bounces one set between two servers every tick,
/// to exercise migration buffering.
struct PingPong {
    flip: bool,
}

impl PlacementPolicy for PingPong {
    fn name(&self) -> &str {
        "pingpong"
    }
    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        vec![Some(view.alive()[0]); file_sets.len()]
    }
    fn on_tick(&mut self, view: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
        self.flip = !self.flip;
        let alive = view.alive();
        vec![MoveSet {
            set: FileSetId(0),
            to: alive[usize::from(self.flip) % alive.len()],
        }]
    }
    fn on_fail(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
    fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
}

fn small_workload(seed: u64) -> Workload {
    SyntheticConfig {
        n_file_sets: 20,
        total_requests: 4_000,
        duration_secs: 600.0,
        weights: WeightDist::Constant,
        mean_cost_secs: 0.02,
        cost: CostModel::UniformSpread { spread: 0.2 },
        seed,
    }
    .generate()
}

#[test]
fn all_requests_complete() {
    let cfg = ClusterConfig::paper();
    let w = small_workload(1);
    let r = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    assert_eq!(r.summary.migrations, 0);
    assert!(r.summary.mean_latency_ms > 0.0);
    // Every request is at least an arrival plus a completion event.
    assert!(r.summary.sim_events >= 2 * r.summary.offered_requests);
}

#[test]
fn deterministic_runs() {
    let cfg = ClusterConfig::paper();
    let w = small_workload(2);
    let a = run(&cfg, &w, &mut Modulo);
    let b = run(&cfg, &w, &mut Modulo);
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.epochs, b.epochs);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // The tentpole's core invariant: attaching a sink changes what is
    // *recorded*, never what is *simulated*.
    let cfg = ClusterConfig::paper();
    let w = small_workload(2);
    let untraced = run(&cfg, &w, &mut PingPong { flip: false });
    let mut ring = anu_trace::RingSink::new(TraceLevel::Request);
    let traced = run_traced(&cfg, &w, &mut PingPong { flip: false }, &mut ring);
    assert_eq!(untraced.summary, traced.summary);
    assert_eq!(untraced.epochs, traced.epochs);
    // The request-level stream covers at least arrival + completion
    // per request, and every line is parseable JSON.
    let lines = ring.decode_lines();
    assert!(lines.len() >= 2 * w.requests.len());
    for line in lines.iter().take(50) {
        assert!(anu_core::Json::parse(line).is_ok(), "bad JSONL: {line}");
    }
    // Byte-determinism of the stream itself.
    let mut ring2 = anu_trace::RingSink::new(TraceLevel::Request);
    run_traced(&cfg, &w, &mut PingPong { flip: false }, &mut ring2);
    assert_eq!(lines, ring2.decode_lines());
}

/// A two-server cluster with one standby that every counter of the
/// metric table sees move: under [`burst_then_trickle`] it sheds, a crash
/// drains and requeues a busy server's queue and migrates its sets, a
/// slowdown ends, and the autoscaler commissions and retires the standby.
fn stormy_config() -> ClusterConfig {
    use crate::autoscaler::AutoscalerConfig;
    let mut cfg = ClusterConfig::homogeneous(3);
    cfg.autoscaler = Some(AutoscalerConfig {
        high_latency_ms: 1_000.0,
        low_latency_ms: 10.0,
        cooldown_ticks: 1,
        min_servers: 2,
        standby: vec![ServerId(2)],
    });
    cfg.shed = Some(crate::spec::ShedConfig { max_queue: 5 });
    cfg.faults = vec![
        FaultEvent::Fail {
            at: SimTime::from_secs_f64(5.0),
            server: ServerId(1),
        },
        FaultEvent::Slowdown {
            at: SimTime::from_secs_f64(200.0),
            server: ServerId(0),
            factor: 2.0,
            lasts: SimDuration::from_secs(30),
        },
        FaultEvent::Recover {
            at: SimTime::from_secs_f64(300.0),
            server: ServerId(1),
        },
    ];
    cfg
}

#[test]
fn metrics_registry_is_deterministic_and_conserves_events() {
    use anu_metrics::MetricKind::{Counter, Gauge, Histogram};
    let quiet = (ClusterConfig::paper(), small_workload(2));
    let stormy = (stormy_config(), burst_then_trickle(200, 1.0));
    for (case, (cfg, w)) in [quiet, stormy].into_iter().enumerate() {
        let a = run(&cfg, &w, &mut Modulo);
        let b = run(&cfg, &w, &mut Modulo);
        assert_eq!(a.metrics, b.metrics, "registry must be run-deterministic");
        // ...and identical with a sink attached: metrics are a function of
        // the simulated trajectory, which tracing never perturbs.
        let mut ring = anu_trace::RingSink::new(TraceLevel::Request);
        let traced = run_traced(&cfg, &w, &mut Modulo, &mut ring);
        assert_eq!(a.metrics, traced.metrics);

        // The registration order is the metrics CSVs' column contract:
        // the scalar table, each server's gauges, then the histograms.
        let reg = &a.metrics;
        let mut want = vec![
            ("world.events.arrival", Counter),
            ("world.events.complete", Counter),
            ("world.events.tick", Counter),
            ("world.events.migration_done", Counter),
            ("world.events.fault", Counter),
            ("world.events.slowdown_end", Counter),
            ("des.calendar.scheduled", Counter),
            ("des.calendar.fired", Counter),
            ("des.calendar.cancelled", Counter),
            ("des.calendar.pending", Gauge),
            ("des.calendar.max_pending", Gauge),
            ("migrations.total", Counter),
            ("migrations.in_flight", Gauge),
            ("requests.requeued", Counter),
            ("requests.shed", Counter),
            ("scale.commissions", Counter),
            ("scale.decommissions", Counter),
            ("world.degraded", Gauge),
        ]
        .into_iter()
        .map(|(name, kind)| (name.to_string(), kind))
        .collect::<Vec<_>>();
        for s in 0..cfg.servers.len() {
            for g in ["occupancy", "alive", "completed"] {
                want.push((format!("server.{s}.{g}"), Gauge));
            }
        }
        want.push(("latency.us".to_string(), Histogram));
        for i in 0..w.n_file_sets {
            want.push((format!("set.{i}.latency_us"), Histogram));
        }
        let got: Vec<_> = reg
            .ids()
            .map(|id| (reg.name(id).to_string(), reg.kind(id)))
            .collect();
        assert_eq!(got, want, "case {case}");

        // Each counter equals its twin in the result.
        let value = |name: &str| reg.value(reg.find(name).expect("registered"));
        let s = &a.summary;
        let twins = [
            ("world.events.arrival", s.offered_requests),
            ("world.events.complete", s.completed_requests),
            ("world.events.tick", a.epochs.len() as u64),
            ("world.events.migration_done", s.migrations),
            ("world.events.fault", cfg.faults.len() as u64),
            ("des.calendar.fired", s.sim_events),
            ("migrations.total", s.migrations),
            ("requests.requeued", s.requests_requeued),
            ("requests.shed", s.requests_shed),
            ("scale.commissions", s.scale_ups),
            ("scale.decommissions", s.scale_downs),
        ];
        for (name, twin) in twins {
            assert_eq!(value(name), twin, "case {case}: {name}");
        }
        // The event-mix counters partition the simulated event count, and
        // the drained calendar fired or cancelled everything it scheduled.
        let mix_total: u64 = got[..6].iter().map(|(n, _)| value(n)).sum();
        assert_eq!(mix_total, s.sim_events, "case {case}");
        assert_eq!(
            value("des.calendar.scheduled"),
            value("des.calendar.fired") + value("des.calendar.cancelled"),
            "case {case}"
        );
        // The overall latency histogram saw every completed request, and
        // the per-set histogram counts sum to it.
        assert_eq!(value("latency.us"), s.completed_requests);
        let per_set: u64 = (0..w.n_file_sets)
            .map(|i| value(&format!("set.{i}.latency_us")))
            .sum();
        assert_eq!(per_set, s.completed_requests);
        // One scalar snapshot per tuning epoch, taken after its tick
        // fired; no standby retires before it was commissioned.
        assert_eq!(reg.snapshots().len(), a.epochs.len());
        let id = |name: &str| reg.find(name).expect("registered").index();
        let (tick, ups, downs) = (
            id("world.events.tick"),
            id("scale.commissions"),
            id("scale.decommissions"),
        );
        for snap in reg.snapshots() {
            let at = |i: usize| snap.scalars[i].1;
            assert_eq!(at(tick), snap.epoch + 1, "case {case}");
            assert!(at(ups) >= at(downs), "case {case} epoch {}", snap.epoch);
        }
        if case == 1 {
            for id in reg.ids().filter(|&id| reg.kind(id) == Counter) {
                assert!(reg.value(id) > 0, "{} never moved", reg.name(id));
            }
        }
    }
}

#[test]
fn per_set_histograms_match_the_request_trace() {
    // Reference check for the batched per-set records: rebuild every
    // set's histogram from the request-level trace, one record per
    // completion. The run completes more than two batches plus a partial
    // one that only `finish` folds, and a crash migrates orphaned sets.
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![FaultEvent::Fail {
        at: SimTime::from_secs_f64(200.0),
        server: ServerId(2),
    }];
    let w = small_workload(5);
    let mut ring = anu_trace::RingSink::new(TraceLevel::Request);
    let r = run_traced(&cfg, &w, &mut Modulo, &mut ring);
    let completed = r.summary.completed_requests as usize;
    assert!(completed > 2 * SET_LATENCY_BATCH, "{completed}");
    assert_ne!(completed % SET_LATENCY_BATCH, 0, "a partial batch remains");
    assert!(r.summary.migrations >= 1);
    let mut want = vec![LogHistogram::new(); w.n_file_sets];
    for (_, ev) in ring.decode_events() {
        if let TraceEvent::RequestComplete {
            set, latency_us, ..
        } = ev
        {
            want[set as usize].record(latency_us);
        }
    }
    for (i, h) in want.iter().enumerate() {
        let id = r.metrics.find(&format!("set.{i}.latency_us"));
        assert_eq!(id.and_then(|id| r.metrics.hist(id)), Some(h), "set {i}");
    }
}

#[test]
fn profiler_scopes_balance_and_do_not_perturb() {
    struct Balance {
        depth: u32,
        enters: u32,
    }
    impl RunProfiler for Balance {
        fn enter(&mut self, _s: ProfileScope) {
            self.depth += 1;
            self.enters += 1;
            assert_eq!(self.depth, 1, "scopes never nest");
        }
        fn exit(&mut self, _s: ProfileScope) {
            assert_eq!(self.depth, 1, "exit without enter");
            self.depth -= 1;
        }
    }
    let cfg = ClusterConfig::paper();
    let w = small_workload(2);
    let plain = run(&cfg, &w, &mut Modulo);
    let mut prof = Balance {
        depth: 0,
        enters: 0,
    };
    let profiled = run_traced_profiled(&cfg, &w, &mut Modulo, &mut NullSink, &mut prof);
    assert_eq!(plain.summary, profiled.summary);
    assert_eq!(plain.metrics, profiled.metrics);
    assert_eq!(prof.depth, 0, "all scopes closed");
    // One MetricsUpdate per tick, plus the final metrics publish.
    assert_eq!(prof.enters as usize, plain.epochs.len() + 1);
}

#[test]
fn percentiles_and_depth_are_populated() {
    let cfg = ClusterConfig::paper();
    let w = small_workload(1);
    let r = run(&cfg, &w, &mut Modulo);
    assert!(r.summary.p50_latency_ms > 0.0);
    assert!(r.summary.p50_latency_ms <= r.summary.p95_latency_ms);
    assert!(r.summary.p95_latency_ms <= r.summary.p99_latency_ms);
    // Bucket upper bounds can overshoot the true max by <2x, but the
    // median must sit at or below the recorded maximum's bucket bound.
    assert!(r.summary.p99_latency_ms <= 2.0 * r.summary.max_latency_ms.max(1.0));
    assert!(r.summary.max_queue_depth >= 1);
    // Static policy: the tuner never ran, epochs carry no tune data.
    assert!(!r.epochs.is_empty());
    assert!(r.epochs.iter().all(|e| e.tune.is_none() && e.moves == 0));
    assert_eq!(r.summary.band_freezes, 0);
}

#[test]
fn slow_server_has_higher_latency_under_static_policy() {
    // Equal sets per server but 9x speed difference: the slow server
    // must show clearly worse latency.
    let cfg = ClusterConfig::paper();
    let w = small_workload(3);
    let r = run(&cfg, &w, &mut Modulo);
    let slow = r.summary.per_server_mean_ms[&ServerId(0)];
    let fast = r.summary.per_server_mean_ms[&ServerId(4)];
    assert!(slow > 3.0 * fast, "slow {slow:.2}ms vs fast {fast:.2}ms");
}

#[test]
fn migrations_buffer_and_complete() {
    let cfg = ClusterConfig::paper();
    let w = small_workload(4);
    let r = run(&cfg, &w, &mut PingPong { flip: false });
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    // 600 s / 120 s tick = 5 ticks; first flip moves to alive[1], and
    // every subsequent tick alternates: one migration per tick.
    assert!(r.summary.migrations >= 3, "{}", r.summary.migrations);
}

#[test]
fn failure_rehomes_and_completes_everything() {
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![FaultEvent::Fail {
        at: SimTime::from_secs_f64(200.0),
        server: ServerId(2),
    }];
    let w = small_workload(5);
    let r = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    // The failed server stops serving: its request count is well below
    // a fair share of the run.
    let failed = r.summary.per_server_requests[&ServerId(2)];
    let healthy = r.summary.per_server_requests[&ServerId(3)];
    assert!(failed < healthy, "failed {failed} vs healthy {healthy}");
    assert!(r.summary.migrations >= 4, "orphans must migrate");
}

#[test]
fn failure_and_recovery_roundtrip() {
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![
        FaultEvent::Fail {
            at: SimTime::from_secs_f64(150.0),
            server: ServerId(1),
        },
        FaultEvent::Recover {
            at: SimTime::from_secs_f64(350.0),
            server: ServerId(1),
        },
    ];
    let w = small_workload(6);
    let r = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
}

#[test]
fn utilization_tracks_speed() {
    let cfg = ClusterConfig::paper();
    let w = small_workload(7);
    let r = run(&cfg, &w, &mut Modulo);
    // Same per-server load, so utilization is inversely ordered by
    // speed.
    let u0 = r.summary.per_server_utilization[&ServerId(0)];
    let u4 = r.summary.per_server_utilization[&ServerId(4)];
    assert!(u0 > 2.0 * u4, "u0 {u0:.3} vs u4 {u4:.3}");
}

#[test]
fn series_cover_run() {
    let cfg = ClusterConfig::paper();
    let w = small_workload(8);
    let r = run(&cfg, &w, &mut Modulo);
    for ts in r.series.values() {
        assert!(ts.buckets().len() >= 10); // 600 s / 60 s buckets
    }
    let total: u64 = r
        .series
        .values()
        .flat_map(|ts| ts.buckets().iter().map(|b| b.count))
        .sum();
    assert_eq!(total, r.summary.completed_requests);
}

/// Modulo placement plus instrumentation: records the reports each tick
/// delivered, how often the delegate failed over, and each tick, failure
/// and audit with the assignment and in-flight sets it was shown. With
/// `move_first` set, it moves set 0 to the second alive server at the
/// first tick.
#[derive(Default)]
struct Probe {
    move_first: bool,
    seen: Vec<Vec<LoadReport>>,
    delegate_fails: u32,
    shown: std::cell::RefCell<Vec<(&'static str, Assignment, Vec<FileSetId>)>>,
}

impl PlacementPolicy for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        Modulo.initial(view, file_sets)
    }
    fn on_tick(
        &mut self,
        view: &ClusterView,
        reports: &[LoadReport],
        a: &Assignment,
    ) -> Vec<MoveSet> {
        self.seen.push(reports.to_vec());
        self.shown.get_mut().push(("tick", a.clone(), Vec::new()));
        if self.move_first && self.seen.len() == 1 {
            return vec![MoveSet {
                set: FileSetId(0),
                to: view.alive()[1],
            }];
        }
        Vec::new()
    }
    fn on_fail(&mut self, view: &ClusterView, failed: ServerId, a: &Assignment) -> Vec<MoveSet> {
        self.shown.get_mut().push(("fail", a.clone(), Vec::new()));
        Modulo.on_fail(view, failed, a)
    }
    fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
        Vec::new()
    }
    fn on_delegate_fail(&mut self, _pause_ticks: u32) {
        self.delegate_fails += 1;
    }
    fn audit(&self, a: &Assignment, in_flight: &[FileSetId]) -> Vec<String> {
        self.shown
            .borrow_mut()
            .push(("audit", a.clone(), in_flight.to_vec()));
        Vec::new()
    }
}

#[test]
fn policies_plan_at_the_destination_and_audit_at_the_releasing_owner() {
    // Set 0 leaves server 0 for server 1 at the 120 s tick and lands 7 s
    // later. Server 2 crashes at 123 s, while set 0 is in flight; its
    // sets 2, 7, 12 and 17 re-home 5 s later.
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![FaultEvent::Fail {
        at: SimTime::from_secs_f64(123.0),
        server: ServerId(2),
    }];
    let mut p = Probe {
        move_first: true,
        ..Probe::default()
    };
    run(&cfg, &small_workload(16), &mut p);
    let shown = p.shown.into_inner();
    let calls: Vec<&str> = shown.iter().take(4).map(|s| s.0).collect();
    assert_eq!(calls, ["tick", "audit", "fail", "audit"]);
    let at = |call: usize, sets: &[usize]| -> Vec<Option<ServerId>> {
        sets.iter().map(|&i| shown[call].1[i]).collect()
    };
    let orphans = [2, 7, 12, 17];
    // The tick plans against set 0 at its owner, and its audit sees set 0
    // still there, in flight.
    assert_eq!(at(0, &[0]), [Some(ServerId(0))]);
    assert_eq!(at(1, &[0]), [Some(ServerId(0))]);
    assert_eq!(shown[1].2, [FileSetId(0)]);
    // The failure plans against set 0 at its destination and the crashed
    // server's sets where they were.
    assert_eq!(at(2, &[0]), [Some(ServerId(1))]);
    assert_eq!(at(2, &orphans), [Some(ServerId(2)); 4]);
    // Its audit sees set 0 at its releasing owner and the re-homed sets
    // unassigned, all five in flight.
    assert_eq!(at(3, &[0]), [Some(ServerId(0))]);
    assert_eq!(at(3, &orphans), [None; 4]);
    assert_eq!(shown[3].2, [0, 2, 7, 12, 17].map(FileSetId));
}

#[test]
fn slowdown_degrades_capacity_and_latency() {
    let base = ClusterConfig::paper();
    let w = small_workload(10);
    let clean = run(&base, &w, &mut Modulo);

    let mut cfg = base.clone();
    cfg.faults = vec![FaultEvent::Slowdown {
        at: SimTime::from_secs_f64(100.0),
        server: ServerId(4),
        factor: 10.0,
        lasts: SimDuration::from_secs(200),
    }];
    let r = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    // The limping server serves its load 10x slower for 200 s.
    let slow = r.summary.per_server_mean_ms[&ServerId(4)];
    let fast = clean.summary.per_server_mean_ms[&ServerId(4)];
    assert!(
        slow > 2.0 * fast,
        "slowdown {slow:.3}ms vs clean {fast:.3}ms"
    );
    // Capacity integral is exact: 200 s at (1 - 1/10) lost capacity.
    assert!(
        (r.summary.degraded_capacity_secs - 180.0).abs() < 1e-6,
        "degraded {:.6}",
        r.summary.degraded_capacity_secs
    );
    // No downtime: a limping server is degraded, not unavailable.
    assert_eq!(r.summary.unavailability_windows, 0);
    assert!(r.summary.unavailable_secs.abs() < 1e-12);
    // The auditor armed (chaos run) and found nothing.
    assert!(r.summary.audit_checks > 0);
    assert_eq!(r.summary.audit_violations, 0);
}

#[test]
fn report_faults_reach_the_policy_late_or_never() {
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![
        FaultEvent::ReportLoss {
            at: SimTime::from_secs_f64(100.0),
            server: ServerId(1),
        },
        FaultEvent::ReportDelay {
            at: SimTime::from_secs_f64(150.0),
            server: ServerId(1),
        },
    ];
    let w = small_workload(11);
    let mut p = Probe::default();
    let r = run(&cfg, &w, &mut p);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    assert!(
        p.seen.len() >= 3,
        "expected >=3 ticks, got {}",
        p.seen.len()
    );
    let from_s1 = |tick: &Vec<LoadReport>| -> Vec<u32> {
        tick.iter()
            .filter(|rep| rep.server == ServerId(1))
            .map(|rep| rep.age_ticks)
            .collect()
    };
    // Tick 0 (t=120 s): the report was lost outright.
    assert!(from_s1(&p.seen[0]).is_empty(), "lost report delivered");
    // Tick 1 (t=240 s): the report is held in transit.
    assert!(from_s1(&p.seen[1]).is_empty(), "delayed report not held");
    // Tick 2 (t=360 s): the held report lands one tick stale, next to
    // the fresh one.
    let mut ages = from_s1(&p.seen[2]);
    ages.sort_unstable();
    assert_eq!(ages, vec![0, 1], "held + fresh reports expected");
    assert_eq!(r.summary.audit_violations, 0);
}

#[test]
fn delegate_fail_reaches_the_policy() {
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![FaultEvent::DelegateFail {
        at: SimTime::from_secs_f64(130.0),
        pause_ticks: 2,
    }];
    let w = small_workload(12);
    let mut p = Probe::default();
    let r = run(&cfg, &w, &mut p);
    assert_eq!(p.delegate_fails, 1);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    assert_eq!(r.summary.audit_violations, 0);
}

#[test]
fn fail_recover_records_availability_metrics() {
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![
        FaultEvent::Fail {
            at: SimTime::from_secs_f64(150.0),
            server: ServerId(1),
        },
        FaultEvent::Recover {
            at: SimTime::from_secs_f64(350.0),
            server: ServerId(1),
        },
    ];
    let w = small_workload(13);
    let r = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    assert_eq!(r.summary.unavailability_windows, 1);
    // Down 150 s → 350 s exactly; a dead server loses full capacity.
    assert!(
        (r.summary.unavailable_secs - 200.0).abs() < 1e-6,
        "unavailable {:.6}",
        r.summary.unavailable_secs
    );
    assert!(
        (r.summary.degraded_capacity_secs - 200.0).abs() < 1e-6,
        "degraded {:.6}",
        r.summary.degraded_capacity_secs
    );
    // Orphans re-home after exactly the failover delay.
    assert!(
        (r.summary.mean_rebalance_secs - crate::spec::FAILOVER_DELAY.as_secs_f64()).abs() < 1e-6,
        "rebalance {:.6}",
        r.summary.mean_rebalance_secs
    );
    assert!(r.summary.max_rebalance_secs >= r.summary.mean_rebalance_secs);
    assert!(r.summary.audit_checks > 0);
    assert_eq!(r.summary.audit_violations, 0);
}

#[test]
fn fault_free_runs_do_not_audit() {
    let cfg = ClusterConfig::paper();
    let w = small_workload(14);
    let r = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary.audit_checks, 0);
    assert_eq!(r.summary.degraded_capacity_secs, 0.0);
    assert_eq!(r.summary.unavailable_secs, 0.0);
}

#[test]
#[should_panic(expected = "invalid fault script")]
fn contradictory_fault_script_is_rejected_up_front() {
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![FaultEvent::Recover {
        at: SimTime::from_secs_f64(10.0),
        server: ServerId(0),
    }];
    let w = small_workload(15);
    run(&cfg, &w, &mut Modulo);
}

#[test]
#[should_panic(expected = "left orphan")]
fn policy_ignoring_failure_is_caught() {
    struct BadPolicy;
    impl PlacementPolicy for BadPolicy {
        fn name(&self) -> &str {
            "bad"
        }
        fn initial(&mut self, view: &ClusterView, fs: &[FileSetId]) -> Assignment {
            Modulo.initial(view, fs)
        }
        fn on_tick(&mut self, _: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
        fn on_fail(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new() // bug: ignores orphans
        }
        fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
    }
    let mut cfg = ClusterConfig::paper();
    cfg.faults = vec![FaultEvent::Fail {
        at: SimTime::from_secs_f64(100.0),
        server: ServerId(0),
    }];
    let w = small_workload(9);
    run(&cfg, &w, &mut BadPolicy);
}

/// An overloading workload for the shed and autoscaler tests: `n`
/// expensive requests in the first 10 s, then a light trickle of
/// cheap ones for the rest of the run.
fn burst_then_trickle(burst: usize, burst_cost_secs: f64) -> Workload {
    let mut requests = Vec::new();
    for i in 0..burst {
        requests.push(
            anu_workload::Request::new(
                SimTime::from_secs_f64(i as f64 * 10.0 / burst as f64),
                FileSetId((i % 4) as u64),
                SimDuration::from_secs_f64(burst_cost_secs),
            )
            .unwrap(),
        );
    }
    let mut t = 130.0;
    while t < 590.0 {
        requests.push(
            anu_workload::Request::new(
                SimTime::from_secs_f64(t),
                FileSetId((t as u64) % 4),
                SimDuration::from_secs_f64(0.001),
            )
            .unwrap(),
        );
        t += 2.0;
    }
    Workload::new("burst", 4, SimDuration::from_secs(600), requests)
}

#[test]
fn shedding_bounds_queues_and_conserves_requests() {
    let mut cfg = ClusterConfig::homogeneous(2);
    cfg.shed = Some(crate::spec::ShedConfig { max_queue: 5 });
    // 200 one-second requests in 10 s on two speed-1 servers: far
    // beyond capacity — without shedding the queues would reach ~100.
    let w = burst_then_trickle(200, 1.0);
    let r = run(&cfg, &w, &mut Modulo);
    assert!(r.summary.requests_shed > 0, "overload must shed");
    assert_eq!(
        r.summary.completed_requests + r.summary.requests_shed,
        r.summary.offered_requests,
        "every request either completes or is shed"
    );
    assert!(
        r.summary.max_queue_depth <= 5,
        "ceiling bounds the queues: {}",
        r.summary.max_queue_depth
    );
    let shed = r.metrics.find("requests.shed").expect("registered");
    assert_eq!(r.metrics.value(shed), r.summary.requests_shed);
    // Deterministic, and identical under tracing (the degraded span
    // changes what is recorded, never what is simulated).
    let mut ring = anu_trace::RingSink::new(TraceLevel::Epoch);
    let traced = run_traced(&cfg, &w, &mut Modulo, &mut ring);
    assert_eq!(r.summary, traced.summary);
    let degraded_spans = ring
        .decode_lines()
        .iter()
        .filter(|l| l.contains("\"degraded\""))
        .count();
    assert!(degraded_spans >= 1, "shedding must open a degraded span");
}

#[test]
fn autoscaler_commissions_under_load_and_retires_when_idle() {
    use crate::autoscaler::AutoscalerConfig;
    let mut cfg = ClusterConfig::homogeneous(2);
    cfg.servers.push(crate::spec::ServerSpec {
        id: ServerId(2),
        speed: 1.0,
    });
    cfg.autoscaler = Some(AutoscalerConfig {
        high_latency_ms: 1_000.0,
        low_latency_ms: 10.0,
        cooldown_ticks: 1,
        min_servers: 2,
        standby: vec![ServerId(2)],
    });
    // Heavy burst -> first tick's mean latency is tens of seconds ->
    // commission. The trickle afterwards runs at ~1 ms -> once the
    // cooldown passes, the standby is retired again.
    let w = burst_then_trickle(200, 1.0);
    let r = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    assert_eq!(r.summary.scale_ups, 1, "burst must commission");
    assert_eq!(r.summary.scale_downs, 1, "idle must decommission");
    // The autoscaler arms the auditor; membership boundaries stay
    // invariant-clean.
    assert!(r.summary.audit_checks > 0);
    assert_eq!(r.summary.audit_violations, 0);
    // Elasticity opens no availability windows: a dormant standby was
    // never "down".
    assert_eq!(r.summary.unavailability_windows, 0);
    assert_eq!(r.summary.unavailable_secs, 0.0);
    // Deterministic repeat, registry included.
    let b = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary, b.summary);
    assert_eq!(r.metrics, b.metrics);
    let ups = r.metrics.find("scale.commissions").expect("registered");
    assert_eq!(r.metrics.value(ups), 1);
    let downs = r.metrics.find("scale.decommissions").expect("registered");
    assert_eq!(r.metrics.value(downs), 1);
}

#[test]
fn standby_servers_start_dormant_and_unassigned() {
    use crate::autoscaler::AutoscalerConfig;
    let mut cfg = ClusterConfig::homogeneous(2);
    cfg.servers.push(crate::spec::ServerSpec {
        id: ServerId(2),
        speed: 1.0,
    });
    cfg.autoscaler = Some(AutoscalerConfig {
        high_latency_ms: 1_000_000.0,
        low_latency_ms: 1.0e-3,
        cooldown_ticks: 1,
        min_servers: 2,
        standby: vec![ServerId(2)],
    });
    // Light load, unreachable thresholds: the standby never wakes.
    let w = small_workload(11);
    let r = run(&cfg, &w, &mut Modulo);
    assert_eq!(r.summary.scale_ups, 0);
    assert_eq!(r.summary.per_server_requests[&ServerId(2)], 0);
    assert_eq!(r.summary.per_server_utilization[&ServerId(2)], 0.0);
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    assert_eq!(r.summary.audit_violations, 0);
}

#[test]
fn fairness_fields_are_populated() {
    let cfg = ClusterConfig::paper();
    let w = small_workload(12);
    let r = run(&cfg, &w, &mut Modulo);
    assert!(r.summary.jain_fairness > 0.0 && r.summary.jain_fairness <= 1.0);
    // Equal per-set load on a 9x-heterogeneous cluster under a static
    // policy: treatment is measurably uneven.
    assert!(
        r.summary.jain_fairness < 0.999,
        "{}",
        r.summary.jain_fairness
    );
    assert!(r.summary.p99_per_file_set_max >= r.summary.p99_latency_ms);
}
