//! ANU beyond file systems: balancing virtual hosts on a web cluster.
//!
//! Run with: `cargo run --release --example web_cluster`
//!
//! The paper closes: "Although it is designed for a shared-disk file
//! system, it suits any architecture in which data are partitioned among
//! servers at runtime, but can be moved from server to server. This
//! includes Web servers, clustered databases, and NFS servers."
//!
//! Here the indivisible workload units are *virtual hosts* (string names),
//! the servers are a rack of twelve mixed-generation web nodes, and the
//! "latency" is a simple closed-loop model (load over capacity). The
//! example tunes to convergence, then decommissions two nodes at runtime
//! and rebalances — all through the same public API the file system uses,
//! with names as plain strings.

use anu::core::{LoadReport, PlacementMap, ServerId, Tuner, TuningConfig};
use std::collections::BTreeMap;

/// Closed-loop latency model: response time grows with load per capacity.
fn model_latency(load: f64, capacity: f64) -> f64 {
    20.0 + 200.0 * (load / capacity)
}

fn main() {
    // Twelve nodes across three hardware generations.
    let capacities: Vec<f64> = (0..12)
        .map(|i| match i % 3 {
            0 => 1.0, // old
            1 => 2.5, // mid
            _ => 4.0, // new
        })
        .collect();
    let servers: Vec<ServerId> = (0..12).map(ServerId).collect();
    let mut map = PlacementMap::with_default_rounds(&servers, 0x0003_EBC1_u64).unwrap();

    // Two thousand virtual hosts with Zipf-ish popularity.
    let vhosts: Vec<String> = (0..2000).map(|i| format!("vhost-{i:04}.example")).collect();
    let demand: Vec<f64> = (0..2000)
        .map(|i| 1.0 / (1.0 + i as f64 / 50.0)) // heavy head, long tail
        .collect();

    let mut tuner = Tuner::new(TuningConfig::paper());

    let tick = |map: &mut PlacementMap, tuner: &mut Tuner| -> (f64, f64) {
        // Aggregate demand per node under the current placement.
        let mut load: BTreeMap<ServerId, f64> =
            map.servers().into_iter().map(|s| (s, 0.0)).collect();
        for (v, d) in vhosts.iter().zip(&demand) {
            *load.get_mut(&map.locate(v)).unwrap() += d;
        }
        let reports: Vec<LoadReport> = load
            .iter()
            .map(|(&s, &l)| LoadReport {
                server: s,
                mean_latency_ms: model_latency(l, capacities[s.0 as usize]),
                requests: (l * 100.0) as u64,
                age_ticks: 0,
            })
            .collect();
        let worst = reports
            .iter()
            .map(|r| r.mean_latency_ms)
            .fold(0.0f64, f64::max);
        let best = reports
            .iter()
            .map(|r| r.mean_latency_ms)
            .fold(f64::MAX, f64::min);
        if let Some(targets) = tuner.plan(&map.share_fractions(), &reports) {
            map.rebalance(&targets).unwrap();
        }
        (worst, best)
    };

    println!("tuning 2000 virtual hosts across 12 mixed-generation nodes:");
    for round in 1..=10 {
        let (worst, best) = tick(&mut map, &mut tuner);
        println!("  round {round:>2}: node latency spread {best:.0}..{worst:.0} ms");
    }

    // Decommission the two oldest nodes at runtime: ANU treats this like
    // failure — only their vhosts re-hash.
    println!("\ndecommissioning nodes s0 and s3 (old generation):");
    let before: Vec<ServerId> = vhosts.iter().map(|v| map.locate(v)).collect();
    map.remove_server(ServerId(0)).unwrap();
    map.remove_server(ServerId(3)).unwrap();
    map.restore_half_occupancy().unwrap();
    let moved = vhosts
        .iter()
        .zip(&before)
        .filter(|(v, &b)| map.locate(*v) != b)
        .count();
    let orphaned = before
        .iter()
        .filter(|&&s| s == ServerId(0) || s == ServerId(3))
        .count();
    println!("  vhosts moved: {moved} (orphaned: {orphaned} — the unavoidable minimum)");

    for round in 11..=16 {
        let (worst, best) = tick(&mut map, &mut tuner);
        println!("  round {round:>2}: node latency spread {best:.0}..{worst:.0} ms");
    }
    println!("\nthe same map, tuner and invariants drive web placement as file sets — no code specialization needed");
}
