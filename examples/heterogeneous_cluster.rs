//! Heterogeneous cluster: ANU vs a static policy, end to end.
//!
//! Run with: `cargo run --release --example heterogeneous_cluster`
//!
//! Simulates the paper's five-server cluster (processing powers 1, 3, 5,
//! 7, 9) under a skewed synthetic metadata workload, once with static
//! round-robin placement and once with ANU randomization, and prints the
//! per-server outcome. Round-robin oversubscribes the weak servers; ANU —
//! with no knowledge of speeds — discovers the heterogeneity from latency
//! and converges.

use anu::cluster::{run, ClusterConfig};
use anu::core::TuningConfig;
use anu::policies::{AnuPolicy, RoundRobin};
use anu::workload::{CostModel, SyntheticConfig, WeightDist};

fn main() {
    let cluster = ClusterConfig::paper();
    let workload = SyntheticConfig {
        n_file_sets: 200,
        total_requests: 40_000,
        duration_secs: 4_000.0,
        weights: WeightDist::PowerOfUniform { alpha: 200.0 },
        mean_cost_secs: 0.0, // set below via offered load
        cost: CostModel::UniformSpread { spread: 0.2 },
        seed: 2024,
    }
    .with_offered_load(0.5, cluster.total_speed())
    .generate();

    println!(
        "workload: {} requests, {} file sets, heterogeneity ratio {:.0}x, offered load {:.2}",
        workload.requests.len(),
        workload.n_file_sets,
        workload.stats().heterogeneity_ratio,
        workload.offered_load(cluster.total_speed()),
    );

    let mut rr = RoundRobin::new();
    let static_run = run(&cluster, &workload, &mut rr);

    let mut anu = AnuPolicy::new(anu::core::AnuConfig {
        seed: 2024,
        tuning: TuningConfig::paper(),
    });
    let anu_run = run(&cluster, &workload, &mut anu);

    for r in [&static_run, &anu_run] {
        println!("\n--- {} ---", r.policy);
        println!(
            "  mean latency {:.1} ms   steady-state {:.1} ms   migrations {}",
            r.summary.mean_latency_ms, r.summary.late_mean_latency_ms, r.summary.migrations
        );
        for (s, mean) in &r.summary.per_server_mean_ms {
            println!(
                "  {s}: mean {mean:>10.1} ms   served {:>6}   utilization {:.2}",
                r.summary.per_server_requests[s], r.summary.per_server_utilization[s]
            );
        }
        println!("  late imbalance CoV {:.2}", r.summary.late_imbalance_cov);
    }

    let improvement =
        static_run.summary.late_mean_latency_ms / anu_run.summary.late_mean_latency_ms.max(1.0);
    println!(
        "\nANU steady-state latency is {improvement:.0}x better than round-robin on this cluster"
    );
    assert!(
        anu_run.summary.late_mean_latency_ms < static_run.summary.late_mean_latency_ms,
        "ANU must beat the static policy on a heterogeneous cluster"
    );
}
