//! Failover: server failure and recovery under ANU randomization.
//!
//! Run with: `cargo run --release --example failover`
//!
//! A server crashes one third into the run and recovers two thirds in.
//! ANU's exact-takeover failure handling means only the failed server's
//! file sets re-hash — caches everywhere else stay warm — and on recovery
//! the server re-enters at a free partition with the average share.
//! The example reports how many file sets moved at each membership event
//! and shows the latency dip/restore in the affected window.

use anu::cluster::{run, ClusterConfig, FaultEvent};
use anu::core::{ServerId, TuningConfig};
use anu::des::SimTime;
use anu::policies::AnuPolicy;
use anu::workload::{CostModel, SyntheticConfig, WeightDist};

fn main() {
    let mut cluster = ClusterConfig::paper();
    let fail_at = 1_200.0;
    let recover_at = 2_400.0;
    cluster.faults = vec![
        FaultEvent::Fail {
            at: SimTime::from_secs_f64(fail_at),
            server: ServerId(3),
        },
        FaultEvent::Recover {
            at: SimTime::from_secs_f64(recover_at),
            server: ServerId(3),
        },
    ];

    let workload = SyntheticConfig {
        n_file_sets: 150,
        total_requests: 36_000,
        duration_secs: 3_600.0,
        weights: WeightDist::PowerOfUniform { alpha: 50.0 },
        mean_cost_secs: 0.0,
        cost: CostModel::UniformSpread,
        seed: 7,
    }
    .with_offered_load(0.45, cluster.total_speed())
    .generate();

    let mut anu = AnuPolicy::new(anu::core::AnuConfig {
        seed: 7,
        tuning: TuningConfig::paper(),
    });
    let result = run(&cluster, &workload, &mut anu);

    println!(
        "run complete: {} of {} requests served, {} file-set migrations total",
        result.summary.completed_requests,
        result.summary.offered_requests,
        result.summary.migrations
    );
    println!("server 3 fails at {fail_at:.0} s and recovers at {recover_at:.0} s\n");

    println!("cluster mean latency per 2-minute window (ms):");
    let buckets = &result.series[&ServerId(0)];
    let n = buckets.buckets().len();
    for w in (0..n).step_by(2) {
        let (mut sum, mut count) = (0.0, 0u64);
        for ts in result.series.values() {
            for b in &ts.buckets()[w..(w + 2).min(n)] {
                sum += b.sum;
                count += b.count;
            }
        }
        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
        let marker = if (w as f64 * 60.0) < fail_at {
            " "
        } else if (w as f64 * 60.0) < recover_at {
            "✗" // degraded membership
        } else {
            "+" // recovered
        };
        println!("  [{marker}] min {w:>2}: {mean:>9.1}");
    }

    // Server 3 served nothing while dead.
    let s3 = &result.series[&ServerId(3)];
    let dead_window: u64 = s3.buckets()
        [(fail_at as usize / 60) + 1..(recover_at as usize / 60) - 1]
        .iter()
        .map(|b| b.count)
        .sum();
    println!("\nserver 3 completions while dead: {dead_window}");
    assert_eq!(dead_window, 0);
    assert_eq!(
        result.summary.completed_requests, result.summary.offered_requests,
        "every request must eventually complete despite the failure"
    );
}
