//! Property-based tests for the ANU core invariants.
//!
//! These exercise the claims the paper's correctness rests on:
//! half occupancy, the per-server shape invariant, minimal movement under
//! rescaling, exact takeover on failure, and zero movement on
//! repartitioning — across randomized cluster sizes, share vectors, and
//! operation sequences.
//!
//! The repo builds fully offline, so instead of proptest each property is
//! driven by a seeded SplitMix64 case generator: 64 deterministic cases
//! per property, reproducible from the printed case seed on failure.

use anu_core::{shares, FileSetId, PartitionState, PlacementMap, ServerId, HALF_UNIT};
use std::collections::BTreeMap;

/// Deterministic case generator (SplitMix64).
struct Cases(u64);

impl Cases {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` (integer).
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        lo + u * (hi - lo)
    }

    fn weights(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }
}

const CASES: u64 = 64;

fn server_ids(n: usize) -> Vec<ServerId> {
    (0..n as u32).map(ServerId).collect()
}

fn names(n: u64) -> Vec<[u8; 8]> {
    (0..n).map(|i| FileSetId(i).name_bytes()).collect()
}

#[test]
fn normalize_always_sums_to_half() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0001 ^ case);
        let n = c.usize_in(1, 12);
        let ws = c.weights(n, 0.0, 1e6);
        let map: BTreeMap<ServerId, f64> = server_ids(n).into_iter().zip(ws).collect();
        let t = shares::normalize_targets(&map);
        assert_eq!(t.values().sum::<u64>(), HALF_UNIT, "case {case}");
    }
}

#[test]
fn rebalance_keeps_invariants() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0002 ^ case);
        let n = c.usize_in(2, 10);
        let seed = c.next_u64();
        let servers = server_ids(n);
        let mut m = PlacementMap::new(&servers, seed, 16).unwrap();
        let w: BTreeMap<ServerId, f64> = servers
            .iter()
            .map(|&s| (s, c.f64_in(0.0, 100.0) + 1e-6))
            .collect();
        m.rebalance(&w).unwrap();
        assert!(m.check_invariants().is_ok(), "case {case}");
        assert_eq!(m.table().total_share(), HALF_UNIT, "case {case}");
        // Shape, read off the partitions: every partial is in (0, w), and
        // no server holds two.
        let t = m.table();
        let mut with_partial = Vec::new();
        for i in 0..t.num_parts() as u32 {
            if let PartitionState::Partial { server, len } = t.part(i) {
                assert!(len > 0 && len < t.part_width(), "case {case}");
                assert!(!with_partial.contains(&server), "case {case}");
                with_partial.push(server);
            }
        }
    }
}

#[test]
fn rebalance_hits_targets_exactly() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0003 ^ case);
        let n = c.usize_in(2, 8);
        let seed = c.next_u64();
        let servers = server_ids(n);
        let mut m = PlacementMap::new(&servers, seed, 16).unwrap();
        let w: BTreeMap<ServerId, f64> = servers
            .iter()
            .map(|&s| (s, c.f64_in(0.0, 100.0) + 1e-6))
            .collect();
        m.rebalance(&w).unwrap();
        let targets = shares::normalize_targets(&w);
        assert_eq!(m.table().shares(), targets, "case {case}");
    }
}

#[test]
fn movement_bounded_by_changed_width() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0004 ^ case);
        let n = c.usize_in(2, 8);
        let seed = c.next_u64();
        // Movement after a rescale only affects names whose probe path
        // crosses a position that changed owner; names probing only
        // unchanged mapped regions keep their owner.
        let servers = server_ids(n);
        let mut m = PlacementMap::new(&servers, seed, 16).unwrap();
        let all = names(400);
        let before: Vec<ServerId> = all.iter().map(|x| m.locate(x)).collect();
        let layout = m.table().clone();
        let w: BTreeMap<ServerId, f64> = servers
            .iter()
            .map(|&s| (s, c.f64_in(0.0, 100.0) + 0.05))
            .collect();
        m.rebalance(&w).unwrap();
        for (name, &old) in all.iter().zip(&before) {
            let new = m.locate(name);
            if new != old {
                // Some probe position must have changed owner.
                let base = m.hasher().base(name);
                let hit = (0..m.hasher().rounds()).any(|k| {
                    let p = m.hasher().probe(base, k);
                    layout.lookup(p) != m.table().lookup(p)
                });
                assert!(hit, "case {case}: owner changed without probe-path change");
            }
        }
    }
}

#[test]
fn failure_moves_only_failed_sets() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0005 ^ case);
        let n = c.usize_in(3, 9);
        let seed = c.next_u64();
        let servers = server_ids(n);
        let victim = ServerId(c.usize_in(0, n) as u32);
        let mut m = PlacementMap::new(&servers, seed, 24).unwrap();
        let all = names(600);
        let before: BTreeMap<_, _> = all.iter().map(|x| (*x, m.locate(x))).collect();
        m.remove_server(victim).unwrap();
        assert!(m.check_invariants().is_ok(), "case {case}");
        for name in &all {
            let now = m.locate(name);
            assert_ne!(now, victim, "case {case}");
            if before[name] != victim {
                assert_eq!(
                    now, before[name],
                    "case {case}: third-party set moved on failure"
                );
            }
        }
    }
}

#[test]
fn repartition_moves_nothing() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0006 ^ case);
        let n = c.usize_in(1, 9);
        let seed = c.next_u64();
        let servers = server_ids(n);
        let mut m = PlacementMap::new(&servers, seed, 16).unwrap();
        let w: BTreeMap<ServerId, f64> = servers
            .iter()
            .map(|&s| (s, c.f64_in(0.0, 100.0) + 1e-3))
            .collect();
        m.rebalance(&w).unwrap();
        let all = names(400);
        // Adding many servers forces repartitioning; instead test the
        // table-level doubling directly through a clone.
        let mut t = m.table().clone();
        t.repartition_double().unwrap();
        for name in &all {
            let base = m.hasher().base(name);
            for k in 0..m.hasher().rounds() {
                let p = m.hasher().probe(base, k);
                assert_eq!(t.lookup(p), m.table().lookup(p), "case {case}");
            }
        }
    }
}

#[test]
fn locate_total_and_deterministic() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0007 ^ case);
        let n = c.usize_in(1, 10);
        let seed = c.next_u64();
        let servers = server_ids(n);
        let m = PlacementMap::new(&servers, seed, 8).unwrap();
        for name in names(200) {
            let a = m.locate(name);
            assert!(servers.contains(&a), "case {case}");
            assert_eq!(a, m.locate(name), "case {case}");
        }
    }
}

#[test]
fn churn_sequence_preserves_invariants() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0008 ^ case);
        let seed = c.next_u64();
        let n_ops = c.usize_in(1, 20);
        // Random add/remove/rebalance churn never corrupts the table.
        let mut m = PlacementMap::new(&server_ids(3), seed, 16).unwrap();
        let mut next_id = 3u32;
        for i in 0..n_ops {
            let op = c.usize_in(0, 3) as u8;
            let n = m.num_servers();
            match op {
                0 => {
                    m.add_server(ServerId(next_id)).unwrap();
                    next_id += 1;
                }
                1 if n > 1 => {
                    let victims = m.servers();
                    let v = victims[c.usize_in(0, victims.len())];
                    m.remove_server(v).unwrap();
                    // The ANU policy restores exact half occupancy at the
                    // next tuning tick; mirror that here so dips from
                    // repeated failures do not accumulate.
                    m.restore_half_occupancy().unwrap();
                }
                _ => {
                    let w: BTreeMap<ServerId, f64> = m
                        .servers()
                        .into_iter()
                        .enumerate()
                        .map(|(i, s)| (s, 1.0 + i as f64))
                        .collect();
                    m.rebalance(&w).unwrap();
                }
            }
            assert!(
                m.check_invariants().is_ok(),
                "case {case} op {i} ({op}): {:?}",
                m.check_invariants()
            );
        }
    }
}

/// FNV-1a over `words`' little-endian bytes, continuing from `acc`.
fn fnv1a(mut acc: u64, words: &[u64]) -> u64 {
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// Hash of every partition's state after every step of the walks in
/// [`layout_walks_are_pinned`], as the table laid them out when the pin
/// was taken. Any change to which partitions a shrink, grow, takeover or
/// takeover-add picks moves it.
const LAYOUT_PIN: u64 = 0x5d96_0165_7240_ac79;

#[test]
fn layout_walks_are_pinned() {
    const WALKS: u64 = 400;
    const STEPS: usize = 30;
    const MAX_SERVERS: usize = 12;
    let mut h = 0xcbf2_9ce4_8422_2325;
    for walk in 0..WALKS {
        let mut c = Cases(0xA110_000C ^ walk);
        let n = c.usize_in(1, 7);
        let mut m = PlacementMap::new(&server_ids(n), c.next_u64(), 16).unwrap();
        let mut next_id = n as u32;
        for step in 0..STEPS {
            let servers = m.servers();
            let op = c.usize_in(0, 5);
            match op {
                1 | 2 if servers.len() < MAX_SERVERS => {
                    let id = ServerId(next_id);
                    next_id += 1;
                    if op == 1 {
                        m.add_server(id).unwrap();
                    } else {
                        m.add_server_takeover(id).unwrap();
                    }
                }
                3 if servers.len() > 1 => {
                    m.remove_server(servers[c.usize_in(0, servers.len())])
                        .unwrap();
                    // What the ANU policy does after a failure: restore
                    // half occupancy only once the dip leaves the window.
                    if m.check_invariants().is_err() {
                        m.restore_half_occupancy().unwrap();
                    }
                }
                4 => m.restore_half_occupancy().unwrap(),
                _ => {
                    // One weight in four is zero: shrink-to-nothing and
                    // regrow from nothing are part of the walk.
                    let w: BTreeMap<ServerId, f64> = servers
                        .iter()
                        .map(|&s| {
                            let zero = c.usize_in(0, 4) == 0;
                            (s, if zero { 0.0 } else { c.f64_in(0.0, 10.0) })
                        })
                        .collect();
                    m.rebalance(&w).unwrap();
                }
            }
            let checked = m.check_invariants();
            assert!(
                checked.is_ok(),
                "walk {walk} step {step} op {op}: {checked:?}"
            );
            let t = m.table();
            for i in 0..t.num_parts() as u32 {
                h = match t.part(i) {
                    PartitionState::Free => fnv1a(h, &[0]),
                    PartitionState::Full(s) => fnv1a(h, &[1, u64::from(s.0)]),
                    PartitionState::Partial { server, len } => {
                        fnv1a(h, &[2, u64::from(server.0), len])
                    }
                };
            }
            h = fnv1a(h, &[u64::MAX]);
        }
    }
    assert_eq!(h, LAYOUT_PIN, "layout hash {h:#018x}");
}

#[test]
fn equal_share_balance_beats_nothing() {
    for case in 0..CASES {
        let mut c = Cases(0xA110_0009 ^ case);
        let seed = c.next_u64();
        // With equal shares, assignment counts concentrate near n/servers:
        // sanity guard on hashing quality for arbitrary seeds.
        let m = PlacementMap::new(&server_ids(4), seed, 32).unwrap();
        let mut counts = BTreeMap::new();
        for name in names(2000) {
            *counts.entry(m.locate(name)).or_insert(0usize) += 1;
        }
        for &cnt in counts.values() {
            assert!(
                cnt > 250 && cnt < 850,
                "case {case}: count {cnt} far from 500"
            );
        }
    }
}

/// Pairwise-tuner properties: every gossip round conserves total share
/// exactly (the decentralization invariant) and never produces negative
/// or non-finite shares.
mod pairwise_props {
    use super::Cases;
    use anu_core::{LoadReport, Matching, PairwiseTuner, PlacementMap, ServerId, TuningConfig};
    use std::collections::BTreeMap;

    #[test]
    fn gossip_conserves_share_sum() {
        for case in 0..super::CASES {
            let mut c = Cases(0xA110_000A ^ case);
            let seed = c.next_u64();
            let n = c.usize_in(2, 12);
            let lats: Vec<f64> = (0..n).map(|_| c.f64_in(0.0, 1000.0)).collect();
            let reqs: Vec<u64> = (0..n).map(|_| c.next_u64() % 500).collect();
            let hilo = c.next_u64() & 1 == 0;
            let shares: BTreeMap<ServerId, f64> = (0..n as u32)
                .map(|i| (ServerId(i), 1.0 / n as f64))
                .collect();
            let reports: Vec<LoadReport> = (0..n)
                .map(|i| LoadReport {
                    server: ServerId(i as u32),
                    mean_latency_ms: lats[i],
                    requests: reqs[i],
                    age_ticks: 0,
                })
                .collect();
            let matching = if hilo {
                Matching::HiLo
            } else {
                Matching::Random
            };
            let mut t = PairwiseTuner::new(TuningConfig::paper(), matching, seed);
            for _ in 0..5 {
                if let Some(next) = t.plan(&shares, &reports) {
                    let before: f64 = shares.values().sum();
                    let after: f64 = next.values().sum();
                    assert!(
                        (before - after).abs() < 1e-9,
                        "case {case}: {before} vs {after}"
                    );
                    assert!(
                        next.values().all(|v| v.is_finite() && *v >= 0.0),
                        "case {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn gossip_targets_feed_rebalance() {
        for case in 0..super::CASES {
            let mut c = Cases(0xA110_000B ^ case);
            let seed = c.next_u64();
            let n = c.usize_in(4, 8);
            let lats: Vec<f64> = (0..n).map(|_| c.f64_in(1.0, 1000.0)).collect();
            // Round-trip: gossip targets must always be valid rebalance
            // input (PlacementMap normalizes and applies them).
            let servers: Vec<ServerId> = (0..n as u32).map(ServerId).collect();
            let mut map = PlacementMap::new(&servers, seed, 16).unwrap();
            let mut t = PairwiseTuner::new(TuningConfig::paper(), Matching::HiLo, seed);
            for round in 0..4 {
                let reports: Vec<LoadReport> = (0..n)
                    .map(|i| LoadReport {
                        server: ServerId(i as u32),
                        mean_latency_ms: lats[i] * (1.0 + round as f64 * 0.1),
                        requests: 50,
                        age_ticks: 0,
                    })
                    .collect();
                if let Some(targets) = t.plan(&map.share_fractions(), &reports) {
                    map.rebalance(&targets).unwrap();
                    assert!(map.check_invariants().is_ok(), "case {case}");
                }
            }
        }
    }
}
