//! Fingerprints of simulation results, and the pinned values they are
//! checked against.
//!
//! A fingerprint is FNV-1a over a fixed list of [`RunSummary`] fields,
//! not over its `Debug` rendering, so adding a field to the summary does
//! not move any pinned value.

use anu_cluster::RunSummary;
use anu_core::hash::fnv1a64;

/// Pinned pass fingerprints, one `workload seed fingerprint` line each.
const PINNED: &str = include_str!("../fingerprints.txt");

/// The fingerprint of one simulation's summary: offered, completed and
/// shed requests, migrations, simulated events, the bits of the mean and
/// maximum latency, and the per-server completed-request counts in server
/// order.
pub fn task_fingerprint(s: &RunSummary) -> u64 {
    let mut bytes = Vec::with_capacity(64 + 12 * s.per_server_requests.len());
    for v in [
        s.offered_requests,
        s.completed_requests,
        s.requests_shed,
        s.migrations,
        s.sim_events,
        s.mean_latency_ms.to_bits(),
        s.max_latency_ms.to_bits(),
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    for (server, n) in &s.per_server_requests {
        bytes.extend_from_slice(&server.0.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The fingerprint of a pass: FNV-1a over its task fingerprints in task
/// order.
pub fn pass_fingerprint(tasks: &[u64]) -> u64 {
    let bytes: Vec<u8> = tasks.iter().flat_map(|f| f.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// The pinned pass fingerprint of `workload` at `seed`, if one is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, f) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f, 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_line_parses() {
        let lines: Vec<&str> = PINNED.lines().filter(|l| !l.trim().is_empty()).collect();
        assert!(!lines.is_empty());
        for line in lines {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "{line}");
            let seed: u64 = f[1].parse().expect("seed");
            assert!(pinned(f[0], seed).is_some(), "{line}");
        }
    }
}
