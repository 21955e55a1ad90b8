//! End-to-end integration tests spanning every crate: workload generation
//! → cluster simulation → policies → metrics, asserting the paper's
//! headline qualitative results on reduced-size experiments (seconds, not
//! minutes, so they run in CI).

use anu::cluster::{run, run_closed_loop, ClusterConfig, FaultEvent};
use anu::core::{AnuConfig, ServerId, TuningConfig};
use anu::des::SimTime;
use anu::policies::{AnuPolicy, Prescient, RoundRobin, SimpleRandom};
use anu::workload::{CostModel, SyntheticConfig, WeightDist, Workload};
use std::collections::BTreeMap;

fn skewed_workload(seed: u64, requests: u64, duration: f64) -> Workload {
    let cluster = ClusterConfig::paper();
    SyntheticConfig {
        n_file_sets: 120,
        total_requests: requests,
        duration_secs: duration,
        weights: WeightDist::PowerOfUniform { alpha: 200.0 },
        mean_cost_secs: 0.0,
        cost: CostModel::UniformSpread,
        seed,
    }
    .with_offered_load(0.5, cluster.total_speed())
    .generate()
}

fn anu_policy(seed: u64, tuning: TuningConfig) -> AnuPolicy {
    AnuPolicy::new(AnuConfig { seed, tuning })
}

#[test]
fn anu_beats_static_policies_on_heterogeneous_cluster() {
    let cluster = ClusterConfig::paper();
    let w = skewed_workload(1, 30_000, 3_000.0);

    let anu = run(&cluster, &w, &mut anu_policy(1, TuningConfig::paper()));
    let rr = run(&cluster, &w, &mut RoundRobin::new());
    let sr = run(&cluster, &w, &mut SimpleRandom::new(1));

    let lm_anu = anu.summary.late_mean_latency_ms;
    assert!(
        lm_anu < rr.summary.late_mean_latency_ms,
        "anu {lm_anu} vs round-robin {}",
        rr.summary.late_mean_latency_ms
    );
    assert!(
        lm_anu < sr.summary.late_mean_latency_ms,
        "anu {lm_anu} vs simple-random {}",
        sr.summary.late_mean_latency_ms
    );
}

#[test]
fn anu_comparable_to_prescient() {
    let cluster = ClusterConfig::paper();
    let w = skewed_workload(2, 30_000, 3_000.0);
    let speeds: BTreeMap<ServerId, f64> = cluster.servers.iter().map(|s| (s.id, s.speed)).collect();

    let anu = run(&cluster, &w, &mut anu_policy(2, TuningConfig::paper()));
    let mut prescient = Prescient::new(w.clone(), speeds, w.duration());
    let presc = run(&cluster, &w, &mut prescient);

    // Steady state: within 3x of the perfect-knowledge upper bound.
    assert!(
        anu.summary.late_mean_latency_ms <= 3.0 * presc.summary.late_mean_latency_ms.max(1.0),
        "anu {} vs prescient {}",
        anu.summary.late_mean_latency_ms,
        presc.summary.late_mean_latency_ms
    );
}

#[test]
fn heuristics_cut_migration_churn() {
    let cluster = ClusterConfig::paper();
    let w = skewed_workload(3, 30_000, 3_000.0);

    let plain = run(&cluster, &w, &mut anu_policy(3, TuningConfig::plain()));
    let cured = run(&cluster, &w, &mut anu_policy(3, TuningConfig::paper()));
    assert!(
        cured.summary.migrations * 2 < plain.summary.migrations,
        "heuristics: {} moves, plain: {} moves",
        cured.summary.migrations,
        plain.summary.migrations
    );
}

#[test]
fn failure_recovery_preserves_service() {
    let mut cluster = ClusterConfig::paper();
    cluster.faults = vec![
        FaultEvent::Fail {
            at: SimTime::from_secs_f64(800.0),
            server: ServerId(4),
        },
        FaultEvent::Recover {
            at: SimTime::from_secs_f64(1_800.0),
            server: ServerId(4),
        },
    ];
    let w = skewed_workload(4, 25_000, 3_000.0);
    let r = run(&cluster, &w, &mut anu_policy(4, TuningConfig::paper()));
    assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    // The failed (fastest) server served nothing in the dead window.
    let s4 = &r.series[&ServerId(4)];
    let dead: u64 = s4.buckets()[15..28].iter().map(|b| b.count).sum();
    assert_eq!(dead, 0, "server 4 completed requests while dead");
}

#[test]
fn metadata_balance_buys_san_throughput() {
    // The paper's §2 claim, with the real policies: "Clients blocked on
    // metadata may leave the high bandwidth SAN underutilized." Under
    // skewed popularity on the heterogeneous cluster, ANU's balanced
    // metadata tier completes far more closed-loop cycles than static
    // placement and keeps the SAN busier than either static policy.
    let cluster = ClusterConfig::paper();
    for seed in 1..=3 {
        let anu = run_closed_loop(&cluster, seed, &mut anu_policy(seed, TuningConfig::paper()));
        let rr = run_closed_loop(&cluster, seed, &mut RoundRobin::new());
        let sr = run_closed_loop(&cluster, seed, &mut SimpleRandom::new(seed));
        assert!(
            anu.completed_ops as f64 >= 2.5 * rr.completed_ops as f64,
            "seed {seed}: anu {} cycles vs round-robin {}",
            anu.completed_ops,
            rr.completed_ops
        );
        for (name, other) in [("round-robin", &rr), ("simple-random", &sr)] {
            assert!(
                anu.san_utilization > other.san_utilization,
                "seed {seed}: anu SAN {:.3} vs {name} {:.3}",
                anu.san_utilization,
                other.san_utilization
            );
        }
    }
}

#[test]
fn determinism_across_full_stack() {
    let cluster = ClusterConfig::paper();
    let w = skewed_workload(5, 10_000, 1_000.0);
    let a = run(&cluster, &w, &mut anu_policy(5, TuningConfig::paper()));
    let b = run(&cluster, &w, &mut anu_policy(5, TuningConfig::paper()));
    assert_eq!(a.summary, b.summary);
}

#[test]
fn homogeneous_cluster_anu_beats_simple_randomization() {
    // Paper §4: "server scaling results in better load balance than simple
    // randomization even when all servers and all file sets are
    // homogeneous." With few indivisible file sets, randomization's
    // placement variance oversubscribes an unlucky server; tuning removes
    // it. (With many small sets both balance trivially, so this uses 40
    // sets at high load, where the variance bites.)
    let cluster = ClusterConfig::homogeneous(5);
    let w = SyntheticConfig {
        n_file_sets: 40,
        total_requests: 30_000,
        duration_secs: 3_000.0,
        weights: WeightDist::Constant,
        mean_cost_secs: 0.0,
        cost: CostModel::UniformSpread,
        seed: 6,
    }
    .with_offered_load(0.75, cluster.total_speed())
    .generate();

    let anu = run(&cluster, &w, &mut anu_policy(6, TuningConfig::paper()));
    let sr = run(&cluster, &w, &mut SimpleRandom::new(6));
    assert!(
        anu.summary.late_imbalance_cov < sr.summary.late_imbalance_cov
            && anu.summary.late_mean_latency_ms <= sr.summary.late_mean_latency_ms,
        "anu CoV {} / late {} vs simple CoV {} / late {}",
        anu.summary.late_imbalance_cov,
        anu.summary.late_mean_latency_ms,
        sr.summary.late_imbalance_cov,
        sr.summary.late_mean_latency_ms
    );
}

#[test]
fn trace_and_synthetic_workloads_replay_identically() {
    // Cross-crate: a workload serialized to CSV and reloaded drives the
    // simulation to the identical result.
    let cluster = ClusterConfig::paper();
    let w = skewed_workload(7, 5_000, 600.0);
    let mut buf = Vec::new();
    anu::workload::write_csv(&w, &mut buf).unwrap();
    let w2 = anu::workload::read_csv(buf.as_slice()).unwrap();

    let a = run(&cluster, &w, &mut RoundRobin::new());
    let b = run(&cluster, &w2, &mut RoundRobin::new());
    assert_eq!(a.summary, b.summary);
}

#[test]
fn figure_experiments_construct_and_run_reduced() {
    // The figure definitions themselves, at reduced scale: take fig10's
    // policy lineup but swap in a small workload, and check the over-tuning
    // ordering holds end to end through the harness path.
    use anu::harness::{Experiment, PolicyKind};
    let exp = Experiment {
        name: "mini-fig10".into(),
        cluster: ClusterConfig::paper(),
        workload: skewed_workload(8, 20_000, 2_000.0),
        policies: vec![
            (
                "plain".into(),
                PolicyKind::Anu {
                    tuning: TuningConfig::plain(),
                },
            ),
            (
                "paper".into(),
                PolicyKind::Anu {
                    tuning: TuningConfig::paper(),
                },
            ),
        ],
        seed: 8,
    };
    let results = exp.run_all();
    assert_eq!(results.len(), 2);
    assert!(results[1].summary.migrations < results[0].summary.migrations);
}
