//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! the delegate's average (weighted mean vs median), the scaling exponent,
//! per-heuristic tuner cost, and the movement cost of membership churn
//! versus a naive re-randomization.

use anu_bench::bench;
use anu_core::{
    AverageKind, FileSetId, LoadReport, PlacementMap, ServerId, SharePlanner, Tuner, TuningConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;

fn reports(n: u32) -> Vec<LoadReport> {
    (0..n)
        .map(|i| LoadReport {
            server: ServerId(i),
            // A deterministic spread of latencies around 100 ms.
            mean_latency_ms: 40.0 + (f64::from(i) * 37.0) % 160.0,
            requests: 100 + (u64::from(i) * 13) % 50,
            age_ticks: 0,
        })
        .collect()
}

fn shares(n: u32) -> BTreeMap<ServerId, f64> {
    (0..n).map(|i| (ServerId(i), 1.0 / f64::from(n))).collect()
}

fn bench_tuner_plan() {
    for n in [5u32, 50, 500] {
        let rs = reports(n);
        let sh = shares(n);
        for (label, cfg) in [
            ("plain", TuningConfig::plain()),
            ("paper", TuningConfig::paper()),
            ("median", {
                let mut t = TuningConfig::paper();
                t.average = AverageKind::Median;
                t
            }),
        ] {
            let mut tuner = Tuner::new(cfg);
            bench(&format!("tuner_plan/{label}/servers={n}"), || {
                tuner.plan(black_box(&sh), black_box(&rs))
            });
        }
    }
}

fn bench_tune_cycle() {
    // A full delegate cycle: plan + rebalance + relocate 1000 file sets.
    let servers: Vec<ServerId> = (0..10).map(ServerId).collect();
    let names: Vec<[u8; 8]> = (0..1000u64).map(|i| FileSetId(i).name_bytes()).collect();
    let mut map = PlacementMap::with_default_rounds(&servers, 3).unwrap();
    let mut tuner = Tuner::new(TuningConfig::plain());
    let mut tick = 0u32;
    bench(
        "tune_cycle/plan+rebalance+relocate (10 servers, 1k sets)",
        || {
            tick = tick.wrapping_add(1);
            // Rotating imbalance so every cycle produces movement.
            let rs: Vec<LoadReport> = (0..10)
                .map(|i| LoadReport {
                    server: ServerId(i),
                    mean_latency_ms: if (i + tick).is_multiple_of(10) {
                        900.0
                    } else {
                        90.0
                    },
                    requests: 100,
                    age_ticks: 0,
                })
                .collect();
            if let Some(targets) = tuner.plan(&map.share_fractions(), &rs) {
                map.rebalance(&targets).unwrap();
            }
            let mut acc = 0u64;
            for n in &names {
                acc = acc.wrapping_add(u64::from(map.locate(n).0));
            }
            acc
        },
    );
}

fn bench_membership_movement() {
    // Not a timing question but a cost-model one; expressed as a benchmark
    // over the relocation scan so regressions in movement volume surface as
    // time (more moved sets => more downstream migration work). The actual
    // movement *counts* are the `churn` study's, in `studies_churn.csv`
    // from `figures --studies`.
    let servers: Vec<ServerId> = (0..20).map(ServerId).collect();
    let names: Vec<[u8; 8]> = (0..5000u64).map(|i| FileSetId(i).name_bytes()).collect();
    bench(
        "membership/fail+restore relocation (20 servers, 5k sets)",
        || {
            let mut map = PlacementMap::with_default_rounds(&servers, 5).unwrap();
            map.remove_server(ServerId(7)).unwrap();
            map.restore_half_occupancy().unwrap();
            let mut acc = 0u64;
            for n in &names {
                acc = acc.wrapping_add(u64::from(map.locate(n).0));
            }
            acc
        },
    );
}

fn main() {
    bench_tuner_plan();
    bench_tune_cycle();
    bench_membership_movement();
}
