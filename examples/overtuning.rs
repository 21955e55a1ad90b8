//! The over-tuning problem, reproduced in miniature.
//!
//! Run with: `cargo run --release --example overtuning`
//!
//! ANU's early versions "continued to tune load, moving file sets from
//! server to server, without improving load balance" (paper §6). This
//! example runs the same skewed workload twice — once with the raw
//! tuning rule, once with thresholding + top-off + divergent tuning — and
//! prints the weakest server's latency trajectory side by side, plus the
//! migration counts that make the over-tuning visible.

use anu::cluster::{flip_count, run, ClusterConfig};
use anu::core::{ServerId, TuningConfig};
use anu::policies::AnuPolicy;
use anu::workload::{CostModel, SyntheticConfig, WeightDist};

fn run_with(tuning: TuningConfig, label: &str) -> anu::cluster::RunResult {
    let cluster = ClusterConfig::paper();
    let workload = SyntheticConfig {
        n_file_sets: 300,
        total_requests: 60_000,
        duration_secs: 6_000.0,
        weights: WeightDist::PowerOfUniform { alpha: 500.0 },
        mean_cost_secs: 0.0,
        cost: CostModel::UniformSpread { spread: 0.2 },
        seed: 11,
    }
    .with_offered_load(0.5, cluster.total_speed())
    .generate();
    let mut policy = AnuPolicy::new(anu::core::AnuConfig { seed: 11, tuning });
    let mut r = run(&cluster, &workload, &mut policy);
    r.policy = label.to_string();
    r
}

fn main() {
    let plain = run_with(TuningConfig::plain(), "no heuristics");
    let cured = run_with(TuningConfig::paper(), "all three heuristics");

    println!("weakest server (speed 1) mean latency per 5 min (ms):");
    println!(
        "{:>6} {:>16} {:>22}",
        "min", "no heuristics", "with heuristics"
    );
    let s0 = ServerId(0);
    let n = plain.series[&s0].buckets().len();
    for w in (0..n).step_by(5) {
        let avg = |r: &anu::cluster::RunResult| {
            let b = &r.series[&s0].buckets()[w..(w + 5).min(n)];
            let (s, c) = b
                .iter()
                .fold((0.0, 0u64), |(s, c), b| (s + b.sum, c + b.count));
            if c == 0 {
                0.0
            } else {
                s / c as f64
            }
        };
        println!("{:>6} {:>16.1} {:>22.1}", w, avg(&plain), avg(&cured));
    }

    let flips = |r: &anu::cluster::RunResult| flip_count(&r.series[&s0], 10.0, 500.0);
    println!("\nover-tuning signature:");
    println!(
        "  {:<22} migrations {:>5}   server0 busy/idle flips {:>3}   steady-state latency {:>8.1} ms",
        plain.policy,
        plain.summary.migrations,
        flips(&plain),
        plain.summary.late_mean_latency_ms
    );
    println!(
        "  {:<22} migrations {:>5}   server0 busy/idle flips {:>3}   steady-state latency {:>8.1} ms",
        cured.policy,
        cured.summary.migrations,
        flips(&cured),
        cured.summary.late_mean_latency_ms
    );

    assert!(
        cured.summary.migrations < plain.summary.migrations,
        "heuristics must reduce tuning churn"
    );
}
