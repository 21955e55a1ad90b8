//! Seeded fault storms through the full world (ISSUE 4 satellite).
//!
//! Fifty deterministic fault scripts of varying intensity — crashes with
//! repairs, correlated group failures, limping-server slowdowns, report
//! loss/delay, delegate crashes — drive the ANU policy end to end. Every
//! storm must (a) pass up-front script validation, (b) keep the invariant
//! auditor completely silent while it checks every fault/tick boundary,
//! (c) account for every offered request, and (d) resume tuning after the
//! last delegate crash. Closed-loop clients run through the same world,
//! so ten storms also drive them, with the same checks, and their results
//! are pinned: they are the one faulted closed-loop run, so the pin is what
//! checks a drained client request's re-cost.

use anu::cluster::{
    plan_faults, run, run_closed_loop, ClusterConfig, FaultEvent, FaultPlanConfig,
    CLOSED_LOOP_DURATION,
};
use anu::core::hash::fnv1a64;
use anu::core::{AnuConfig, TuningConfig};
use anu::harness::PolicyKind;
use anu::workload::{CostModel, SyntheticConfig, WeightDist};

const STORMS: u64 = 50;
const HORIZON_SECS: f64 = 600.0;

/// FNV-1a over the ten closed-loop storms' results, in storm order: the
/// summary fields `e2e-bench` fingerprints (offered, completed and shed
/// requests, migrations, simulated events, the bits of the mean and
/// maximum latency, and each server's id and completed requests), then
/// the completed client cycles.
const CLOSED_LOOP_STORMS_PIN: u64 = 0x978e_2762_3ab9_d210;

/// A small-but-real workload: enough requests that every server stays
/// busy across the horizon, small enough that fifty runs stay cheap.
fn storm_workload(seed: u64) -> anu::workload::Workload {
    SyntheticConfig {
        n_file_sets: 30,
        total_requests: 2_500,
        duration_secs: HORIZON_SECS,
        weights: WeightDist::PowerOfUniform { alpha: 50.0 },
        mean_cost_secs: 0.5,
        cost: CostModel::UniformSpread { spread: 0.2 },
        seed,
    }
    .generate()
}

#[test]
fn fifty_fault_storms_hold_every_invariant() {
    let mut delegate_storms = 0u32;
    let mut crash_storms = 0u32;
    let mut slowdown_storms = 0u32;
    let mut report_storms = 0u32;

    for storm in 0..STORMS {
        // Intensities cycle 0.5, 1.0, …, 4.0 so the suite covers gentle
        // and brutal environments; the fault seed is decoupled from the
        // workload seed so scripts don't correlate with demand.
        let level = 0.5 * (1 + storm % 8) as f64;
        let mut cluster = ClusterConfig::paper();
        let workload = storm_workload(storm);
        let env = FaultPlanConfig::intensity(level, HORIZON_SECS);
        cluster.faults = plan_faults(&env, &cluster.core_server_ids(), storm ^ 0x5707_0123);
        cluster
            .validate_faults()
            .unwrap_or_else(|e| panic!("storm {storm}: generated script invalid: {e}"));

        let kind = PolicyKind::Anu {
            tuning: TuningConfig::paper(),
        };
        let mut policy = kind.build(&cluster, &workload, storm);
        let r = run(&cluster, &workload, policy.as_mut());
        let s = &r.summary;

        // (b) The auditor armed (non-empty script ⇒ chaos run) and found
        // nothing at any fault or tick boundary.
        assert!(
            cluster.faults.is_empty() || s.audit_checks > 0,
            "storm {storm}: auditor never ran over {} faults",
            cluster.faults.len()
        );
        assert_eq!(
            s.audit_violations, 0,
            "storm {storm} (level {level}): auditor found violations"
        );

        // (c) Request accounting: nothing offered is ever lost — failed
        // servers drain and requeue, migrations buffer and replay.
        assert_eq!(
            s.completed_requests, s.offered_requests,
            "storm {storm}: lost requests"
        );
        let per_server: u64 = s.per_server_requests.values().sum();
        assert_eq!(
            per_server, s.completed_requests,
            "storm {storm}: per-server counts disagree with the total"
        );

        let crashes = count(&cluster.faults, |f| matches!(f, FaultEvent::Fail { .. }));
        if s.requests_requeued > 0 {
            assert!(
                crashes > 0,
                "storm {storm}: requeues without any crash in the script"
            );
        }
        if crashes > 0 {
            assert!(
                s.unavailability_windows as usize == crashes,
                "storm {storm}: {} windows for {crashes} crashes",
                s.unavailability_windows
            );
            crash_storms += 1;
        }
        slowdown_storms += u32::from(
            count(&cluster.faults, |f| {
                matches!(f, FaultEvent::Slowdown { .. })
            }) > 0,
        );
        report_storms += u32::from(
            count(&cluster.faults, |f| {
                matches!(
                    f,
                    FaultEvent::ReportLoss { .. } | FaultEvent::ReportDelay { .. }
                )
            }) > 0,
        );

        // (d) After the last delegate crash (if one leaves room for the
        // pause to expire before the horizon) a tuner epoch runs again.
        let tick = cluster.tick.as_secs_f64();
        let last_delegate_fail = cluster
            .faults
            .iter()
            .filter_map(|f| match f {
                FaultEvent::DelegateFail { at, .. } => Some(at.as_secs_f64()),
                _ => None,
            })
            .fold(None::<f64>, |acc, t| Some(acc.map_or(t, |a| a.max(t))));
        if let Some(t_fail) = last_delegate_fail {
            if t_fail + 2.0 * tick <= HORIZON_SECS {
                assert!(
                    r.epochs
                        .iter()
                        .any(|e| e.time_s > t_fail && e.tune.is_some()),
                    "storm {storm}: tuning never resumed after delegate crash at {t_fail}s"
                );
                delegate_storms += 1;
            }
        }
    }

    // The suite only proves something if the storms actually exercised
    // every fault class.
    assert!(
        delegate_storms >= 5,
        "only {delegate_storms} delegate-crash storms"
    );
    assert!(crash_storms >= 10, "only {crash_storms} crash storms");
    assert!(
        slowdown_storms >= 5,
        "only {slowdown_storms} slowdown storms"
    );
    assert!(
        report_storms >= 10,
        "only {report_storms} report-fault storms"
    );
}

#[test]
fn closed_loop_clients_hold_every_invariant_under_storms() {
    // Ten storm scripts planned over the closed-loop run's duration. The
    // auditor checks every boundary, every admitted request completes
    // after the drain, and each crash opens one downtime window.
    let mut pinned = Vec::new();
    for storm in 0..10 {
        let level = 0.5 * (1 + storm % 8) as f64;
        let mut cluster = ClusterConfig::paper();
        let env = FaultPlanConfig::intensity(level, CLOSED_LOOP_DURATION.as_secs_f64());
        cluster.faults = plan_faults(&env, &cluster.core_server_ids(), storm ^ 0x5707_0123);
        let mut policy = anu::policies::AnuPolicy::new(AnuConfig {
            seed: storm,
            tuning: TuningConfig::paper(),
        });
        let r = run_closed_loop(&cluster, storm, &mut policy);
        let s = &r.run.summary;
        assert!(
            s.audit_checks > 0,
            "storm {storm}: auditor never ran over {} faults",
            cluster.faults.len()
        );
        assert_eq!(
            s.audit_violations, 0,
            "storm {storm} (level {level}): auditor found violations"
        );
        assert_eq!(
            s.completed_requests + s.requests_shed,
            s.offered_requests,
            "storm {storm}: lost requests"
        );
        let crashes = count(&cluster.faults, |f| matches!(f, FaultEvent::Fail { .. }));
        assert_eq!(
            s.unavailability_windows as usize, crashes,
            "storm {storm}: downtime windows vs crashes"
        );
        assert!(
            r.completed_ops > 0,
            "storm {storm}: no client cycle completed"
        );
        for v in [
            s.offered_requests,
            s.completed_requests,
            s.requests_shed,
            s.migrations,
            s.sim_events,
            s.mean_latency_ms.to_bits(),
            s.max_latency_ms.to_bits(),
        ] {
            pinned.extend_from_slice(&v.to_le_bytes());
        }
        for (server, n) in &s.per_server_requests {
            pinned.extend_from_slice(&server.0.to_le_bytes());
            pinned.extend_from_slice(&n.to_le_bytes());
        }
        pinned.extend_from_slice(&r.completed_ops.to_le_bytes());
    }
    let got = fnv1a64(&pinned);
    assert_eq!(
        got, CLOSED_LOOP_STORMS_PIN,
        "closed-loop storm results moved: {got:#018x}"
    );
}

fn count(faults: &[FaultEvent], pred: impl Fn(&FaultEvent) -> bool) -> usize {
    faults.iter().filter(|f| pred(f)).count()
}
