//! Quickstart: the ANU placement map and delegate tuner, step by step.
//!
//! Run with: `cargo run --example quickstart`
//!
//! This walks the core mechanism without any simulation: build a map,
//! locate file sets by hashing their unique names, feed the delegate a
//! round of latency reports, and watch mapped regions — and therefore
//! file-set ownership — shift toward the fast servers with minimal
//! movement.

use anu::core::{LoadReport, PlacementMap, ServerId, SharePlanner, Tuner, TuningConfig};

fn main() {
    // A four-server cluster. ANU knows nothing about their speeds.
    let servers: Vec<ServerId> = (0..4).map(ServerId).collect();
    let mut map = PlacementMap::with_default_rounds(&servers, 0xF11E_5E75).unwrap();

    // File sets are subtrees of the namespace with administrator-assigned
    // unique names. Locating one is a pure hash computation.
    let file_sets: Vec<String> = (0..64).map(|i| format!("projects/fs{i:02}")).collect();

    println!("initial shares (equal, no a-priori knowledge):");
    for (s, f) in map.share_fractions() {
        println!("  {s}: {f:.3}");
    }
    let count_owned =
        |map: &PlacementMap, s: ServerId| file_sets.iter().filter(|n| map.locate(n) == s).count();
    println!("initial ownership:");
    for &s in &servers {
        println!(
            "  {s}: {} of {} file sets",
            count_owned(&map, s),
            file_sets.len()
        );
    }

    // Pretend server 0 is slow hardware: it reports much higher request
    // latency than the others. The delegate scales the regions.
    let mut tuner = Tuner::new(TuningConfig::paper());
    let owners_before: Vec<ServerId> = file_sets.iter().map(|n| map.locate(n)).collect();
    for round in 1..=4 {
        let reports: Vec<LoadReport> = servers
            .iter()
            .map(|&s| LoadReport {
                server: s,
                mean_latency_ms: if s.0 == 0 { 600.0 } else { 90.0 },
                requests: 250,
                age_ticks: 0,
            })
            .collect();
        let targets = tuner.plan(&map.share_fractions(), &reports);
        // The pass records μ and what it decided for each server, and why.
        let epoch = tuner.take_epoch();
        match (targets, epoch) {
            (Some(targets), Some(epoch)) => {
                map.rebalance(&targets).unwrap();
                let outcomes: Vec<String> = epoch
                    .decisions
                    .iter()
                    .map(|d| format!("{} {}", d.server, d.outcome.name()))
                    .collect();
                println!(
                    "round {round}: mu = {:.0} ms, {}",
                    epoch.mu_ms,
                    outcomes.join(", ")
                );
            }
            _ => println!("round {round}: balanced within threshold — no change"),
        }
    }

    println!("shares after tuning (server 0 shed load):");
    for (s, f) in map.share_fractions() {
        println!("  {s}: {f:.3}");
    }
    println!("ownership after tuning:");
    for &s in &servers {
        println!(
            "  {s}: {} of {} file sets",
            count_owned(&map, s),
            file_sets.len()
        );
    }

    // Minimal movement: only file sets whose probe path crossed a changed
    // region moved.
    let moved = file_sets
        .iter()
        .zip(&owners_before)
        .filter(|(n, &before)| map.locate(n) != before)
        .count();
    println!(
        "file sets that changed owner across all rounds: {moved} of {}",
        file_sets.len()
    );
    assert!(
        moved < file_sets.len() / 2,
        "tuning must not reshuffle the world"
    );
}
