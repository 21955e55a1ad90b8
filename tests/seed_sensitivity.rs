//! Every random stream the library builds is seeded from the experiment
//! seed.
//!
//! A stream built from a constant, `RngStream::new(42, "costs")`, draws
//! the same numbers under every seed, and every determinism gate still
//! passes: runs stay reproducible, only the seed stops mattering. So for
//! each stream in the workload generators, the closed-loop clients and
//! the fault planner, this test observes something that stream's draws
//! alone decide, and requires it to repeat under one seed and to differ
//! between two.

use anu_cluster::{plan_faults, run_closed_loop, ClusterConfig, FaultPlanConfig};
use anu_core::ServerId;
use anu_policies::RoundRobin;
use anu_workload::{
    CostModel, DfsLikeConfig, Request, StormConfig, StormKind, SyntheticConfig, WeightDist,
    Workload,
};
use std::fmt::Debug;

/// `observe(seed)` must repeat under one seed and differ between two.
fn assert_seeded<T: PartialEq + Debug>(stream: &str, observe: impl Fn(u64) -> T) {
    let first = observe(1);
    assert_eq!(first, observe(1), "{stream}: one seed must repeat");
    assert_ne!(first, observe(2), "{stream}: two seeds must differ");
}

/// The three streams of a generated workload, each through what only it
/// decides: the weights stream fixes the per-set request counts; the
/// arrivals and costs streams are drawn once per request in a fixed
/// sequence, so their sorted draws do not depend on the other streams.
fn assert_workload_seeded(name: &str, generate: impl Fn(u64) -> Workload) {
    let sorted = |seed, field: fn(&Request) -> u64| {
        let mut v: Vec<u64> = generate(seed).requests.iter().map(field).collect();
        v.sort_unstable();
        v
    };
    assert_seeded(&format!("{name}/weights"), |seed| {
        let w = generate(seed);
        let mut counts = vec![0u32; w.n_file_sets];
        for r in w.requests.iter() {
            counts[r.file_set().0 as usize] += 1;
        }
        counts
    });
    assert_seeded(&format!("{name}/arrivals"), |seed| {
        sorted(seed, |r| r.arrival.0)
    });
    assert_seeded(&format!("{name}/costs"), |seed| {
        sorted(seed, |r| r.cost().0)
    });
}

fn synthetic(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n_file_sets: 20,
        total_requests: 500,
        duration_secs: 100.0,
        weights: WeightDist::PowerOfUniform { alpha: 100.0 },
        mean_cost_secs: 0.1,
        cost: CostModel::UniformSpread { spread: 0.2 },
        seed,
    }
}

#[test]
fn workload_generators_draw_from_the_seed() {
    assert_workload_seeded("synthetic", |seed| synthetic(seed).generate());
    // The sets' request counts, ranked, do not depend on which set holds
    // which count, and each rank draws its arrivals from its own burst
    // schedule in rank order, so the sorted arrivals depend on the
    // arrivals stream alone.
    assert_workload_seeded("dfslike", |seed| {
        DfsLikeConfig {
            total_requests: 500,
            ..DfsLikeConfig::paper(seed)
        }
        .generate()
    });
    // Popularity shifts draw each phase's weights from their own stream;
    // the rate-shaping storms reuse the synthetic streams above.
    assert_workload_seeded("storm", |seed| {
        StormConfig {
            kind: StormKind::PopularityShift,
            intensity: 1.0,
            base: synthetic(seed),
        }
        .generate()
    });
}

#[test]
fn closed_loop_clients_draw_from_the_seed() {
    assert_seeded("closed-loop", |seed| {
        let r = run_closed_loop(&ClusterConfig::paper(), seed, &mut RoundRobin::new());
        (r.completed_ops, r.mean_cycle_ms.to_bits())
    });
}

#[test]
fn fault_plans_draw_from_the_seed() {
    let servers: Vec<ServerId> = (0..5).map(ServerId).collect();
    // Each stream family alone: per-server failures and slowdowns, report
    // faults, delegate crashes.
    for (stream, mttf, report, delegate) in [
        ("chaos/server", 200.0, 0.0, 0.0),
        ("chaos/report", 0.0, 100.0, 0.0),
        ("chaos/delegate", 0.0, 0.0, 100.0),
    ] {
        let cfg = FaultPlanConfig {
            horizon_secs: 1_000.0,
            mttf_secs: mttf,
            mttr_secs: 20.0,
            slowdown_share: 0.3,
            mean_report_fault_secs: report,
            delegate_mttf_secs: delegate,
        };
        assert_seeded(stream, |seed| plan_faults(&cfg, &servers, seed));
    }
}
