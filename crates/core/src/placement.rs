//! The placement map: hashing + partition table + membership.
//!
//! [`PlacementMap`] is the replicated state of ANU randomization. It is the
//! only state shared among cluster nodes, and it scales with the number of
//! *servers*, not the number of file sets: a node locates any file set by
//! hashing its unique name against the map, with no I/O and no per-file-set
//! table.

#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::float_cmp))]

use crate::error::{AnuError, Result};
use crate::hash::HashFamily;
use crate::ids::ServerId;
use crate::interval::HALF_UNIT;
use crate::num;
use crate::partition::PartitionTable;
use crate::shares;
use std::collections::BTreeMap;

/// Default number of re-hash rounds before the direct-to-server fallback.
/// With half the interval mapped, the fallback probability is `2^-32`.
pub const DEFAULT_ROUNDS: u32 = 32;

/// Where and how a file set was placed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Placement {
    /// The server that owns the file set under the current configuration.
    pub server: ServerId,
    /// Number of hash probes used (1 = first hash hit a mapped region).
    pub probes: u32,
    /// True if every probe missed and the direct-to-server fallback fired.
    pub fallback: bool,
}

/// The complete, replicated placement state: a seeded hash family plus the
/// servers' mapped regions over the partitioned unit interval.
#[derive(Clone, Debug)]
pub struct PlacementMap {
    table: PartitionTable,
    hasher: HashFamily,
}

impl PlacementMap {
    /// Create a map for `servers` with equal mapped regions, hashing with
    /// the family derived from `seed` and `rounds` re-hash rounds.
    ///
    /// ANU randomization starts with equal regions because it has no
    /// a-priori knowledge of server capabilities; the tuner skews the
    /// regions from observed latency afterwards.
    pub fn new(servers: &[ServerId], seed: u64, rounds: u32) -> Result<Self> {
        if servers.is_empty() {
            return Err(AnuError::EmptyCluster);
        }
        let k = PartitionTable::required_log2_parts(servers.len());
        Ok(PlacementMap {
            table: PartitionTable::with_equal_shares(servers, k)?,
            hasher: HashFamily::new(seed, rounds),
        })
    }

    /// Create a map with the default number of rounds.
    pub fn with_default_rounds(servers: &[ServerId], seed: u64) -> Result<Self> {
        Self::new(servers, seed, DEFAULT_ROUNDS)
    }

    /// The underlying partition table (read-only).
    pub fn table(&self) -> &PartitionTable {
        &self.table
    }

    /// Servers currently in the map, in id order.
    pub fn servers(&self) -> Vec<ServerId> {
        self.table.servers().collect()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.table.num_servers()
    }

    /// Current shares as fractions of the mapped total (sum ≈ 1).
    pub fn share_fractions(&self) -> BTreeMap<ServerId, f64> {
        shares::as_fractions(&self.table.shares())
    }

    /// Locate the server for a file set's unique name.
    ///
    /// Probes `H_0, H_1, …` until a probe lands in a mapped region; after
    /// all rounds miss, hashes directly onto the live-server list. Pure and
    /// deterministic: every node computes the same answer.
    #[inline]
    pub fn locate<N: AsRef<[u8]>>(&self, name: N) -> ServerId {
        self.locate_verbose(name).server
    }

    /// [`Self::locate`] with probe diagnostics.
    pub fn locate_verbose<N: AsRef<[u8]>>(&self, name: N) -> Placement {
        let base = self.hasher.base(name);
        for k in 0..self.hasher.rounds() {
            if let Some(server) = self.table.lookup(self.hasher.probe(base, k)) {
                return Placement {
                    server,
                    probes: k + 1,
                    fallback: false,
                };
            }
        }
        let servers = self.servers();
        let idx = self.hasher.fallback_index(base, servers.len());
        Placement {
            server: servers[idx],
            probes: self.hasher.rounds(),
            fallback: true,
        }
    }

    /// Rebalance mapped regions to `fractions` (relative weights; they are
    /// normalized, so any non-negative scale works).
    pub fn rebalance(&mut self, fractions: &BTreeMap<ServerId, f64>) -> Result<()> {
        let targets = shares::normalize_targets(fractions);
        self.table.rebalance(&targets)
    }

    /// Add a server (commissioning or recovery).
    ///
    /// Repartitions (doubling) until `P >= 2n`, registers the server, then
    /// scales every existing server back proportionally so the newcomer
    /// receives the average share `1/n` — the framework treats commissioning
    /// the same as recovery (paper §4).
    pub fn add_server(&mut self, s: ServerId) -> Result<()> {
        if self.table.contains_server(s) {
            return Err(AnuError::DuplicateServer(s));
        }
        let n_after = self.table.num_servers() + 1;
        while num::u64_of_usize(self.table.num_parts()) < 2 * num::u64_of_usize(n_after) {
            self.table.repartition_double()?;
        }
        self.table.register_server(s)?;
        // Existing shares scaled by n/(n+1); newcomer gets the remainder.
        let old = self.table.shares();
        let mut weights: BTreeMap<ServerId, f64> = old
            .iter()
            .map(|(&id, &sh)| {
                (
                    id,
                    num::f64_of(sh) * (num::f64_of_usize(n_after) - 1.0)
                        / num::f64_of_usize(n_after),
                )
            })
            .collect();
        weights.insert(s, num::f64_of(HALF_UNIT) / num::f64_of_usize(n_after));
        let targets = shares::normalize_targets(&weights);
        self.table.rebalance(&targets)
    }

    /// Add a server with **minimal movement** (extension beyond the paper).
    ///
    /// Instead of growing the newcomer into free space and scaling
    /// everyone back (which re-hashes shed regions and scatters some load
    /// among the old servers), the newcomer **takes over whole partitions**
    /// from the servers with the largest shares. Every taken partition's
    /// coverage is unchanged, so the *only* file sets that move are the
    /// ones in the taken partitions — and they all move to the newcomer.
    ///
    /// The trade-off is granularity: the newcomer's initial share is the
    /// nearest whole number of partitions to the fair share `1/n` (at
    /// least one), so it starts within ±50% of fair; the tuner smooths
    /// that within a tick or two. Compare the two strategies with the
    /// `churn` study of `figures --studies` or the `membership_churn`
    /// bench.
    ///
    /// A failure leaves occupancy below half by less than one partition
    /// (see [`Self::remove_server`]), and doubling the partitions halves
    /// that window. When the dip is a whole partition wide or more after
    /// the take, the newcomer also grows into free space by the dip,
    /// which restores exact half occupancy and still moves file sets only
    /// to the newcomer.
    pub fn add_server_takeover(&mut self, s: ServerId) -> Result<()> {
        if self.table.contains_server(s) {
            return Err(AnuError::DuplicateServer(s));
        }
        let n_after = self.table.num_servers() + 1;
        while num::u64_of_usize(self.table.num_parts()) < 2 * num::u64_of_usize(n_after) {
            self.table.repartition_double()?;
        }
        self.table.register_server(s)?;
        let w = self.table.part_width();
        let fair = num::f64_of(HALF_UNIT) / num::f64_of_usize(n_after);
        let parts_to_take = num::round_usize(fair / num::f64_of(w)).max(1);
        self.table.take_full_partitions(s, parts_to_take)?;
        let dip = HALF_UNIT - self.table.total_share();
        if dip >= w {
            let mut targets = self.table.shares();
            *targets.entry(s).or_default() += dip;
            self.table.rebalance(&targets)?;
        }
        Ok(())
    }

    /// Remove a server (failure or decommissioning).
    ///
    /// Survivors increase their mapped regions by **taking over the failed
    /// server's full partitions wholesale**, so the interval coverage seen
    /// by every other file set's probe path is unchanged: *only* the file
    /// sets previously served by the removed server are re-hashed to locate
    /// a new server — load locality and caches are preserved (paper §4).
    ///
    /// The failed server's partial partition (if any, width < one
    /// partition) is left unmapped, so total occupancy transiently dips
    /// below half by less than one partition width; the next rebalance
    /// (tuning tick or membership change) restores it exactly. Growing a
    /// survivor there would let it capture unrelated file sets whose probe
    /// chains pass through the region.
    pub fn remove_server(&mut self, s: ServerId) -> Result<()> {
        if self.table.num_servers() <= 1 {
            return Err(AnuError::EmptyCluster);
        }
        let freed = self.table.takeover_remove_server(s)?;
        debug_assert!(freed < self.table.part_width());
        Ok(())
    }

    /// Restore exact half occupancy after failures, keeping shares
    /// proportional to the current ones. Call at the next tuning tick (the
    /// ANU policy adapter does this automatically).
    pub fn restore_half_occupancy(&mut self) -> Result<()> {
        if self.table.total_share() == HALF_UNIT {
            return Ok(());
        }
        let cur = self.table.shares();
        let targets = shares::normalize_targets(
            &cur.iter().map(|(&id, &sh)| (id, num::f64_of(sh))).collect(),
        );
        self.table.rebalance(&targets)
    }

    /// Compute the assignment of every name in `names`.
    pub fn assignment<'a, I, N>(&self, names: I) -> BTreeMap<N, ServerId>
    where
        I: IntoIterator<Item = N>,
        N: AsRef<[u8]> + Ord + 'a,
    {
        names
            .into_iter()
            .map(|n| {
                let s = self.locate(&n);
                (n, s)
            })
            .collect()
    }

    /// Validate internal invariants (for tests/debugging): structural shape
    /// plus half occupancy, tolerating the sub-partition-width dip that a
    /// failure leaves until the next rebalance.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.table.check_invariants_shape()?;
        let total = self.table.total_share();
        let slack = self.table.part_width();
        if total > HALF_UNIT || HALF_UNIT - total >= slack {
            return Err(format!(
                "occupancy {total} outside (HALF-partition, HALF] window"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FileSetId;

    fn ids(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    fn names(n: u64) -> Vec<[u8; 8]> {
        (0..n).map(|i| FileSetId(i).name_bytes()).collect()
    }

    #[test]
    fn new_rejects_empty() {
        assert!(PlacementMap::new(&[], 1, 4).is_err());
    }

    #[test]
    fn locate_is_deterministic() {
        let m = PlacementMap::new(&ids(5), 42, 16).unwrap();
        let m2 = PlacementMap::new(&ids(5), 42, 16).unwrap();
        for n in names(200) {
            assert_eq!(m.locate(n), m2.locate(n));
        }
    }

    #[test]
    fn expected_probes_near_two() {
        // Half the interval is mapped, so probes are geometric(1/2):
        // expectation 2 (paper §4).
        let m = PlacementMap::new(&ids(5), 7, 32).unwrap();
        let mut total = 0u64;
        let count = 20_000u64;
        for n in names(count) {
            total += m.locate_verbose(n).probes as u64;
        }
        let mean = total as f64 / count as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean probes {mean}");
    }

    #[test]
    fn fallback_is_rare() {
        let m = PlacementMap::new(&ids(3), 11, 20).unwrap();
        let fallbacks = names(50_000)
            .into_iter()
            .filter(|n| m.locate_verbose(n).fallback)
            .count();
        assert_eq!(fallbacks, 0, "2^-20 per name, none expected in 50k");
    }

    #[test]
    fn equal_shares_give_roughly_equal_assignment() {
        let m = PlacementMap::new(&ids(4), 1, 32).unwrap();
        let mut counts = BTreeMap::new();
        for n in names(8000) {
            *counts.entry(m.locate(n)).or_insert(0usize) += 1;
        }
        for (&s, &c) in &counts {
            assert!(c > 1500 && c < 2500, "{s} got {c} of 8000, expected ~2000");
        }
    }

    #[test]
    fn rebalance_shifts_assignment_mass() {
        let mut m = PlacementMap::new(&ids(2), 5, 32).unwrap();
        let mut w = BTreeMap::new();
        w.insert(ServerId(0), 3.0);
        w.insert(ServerId(1), 1.0);
        m.rebalance(&w).unwrap();
        m.check_invariants().unwrap();
        let mut counts = BTreeMap::new();
        for n in names(8000) {
            *counts.entry(m.locate(n)).or_insert(0usize) += 1;
        }
        let c0 = counts[&ServerId(0)] as f64;
        let c1 = counts[&ServerId(1)] as f64;
        let ratio = c0 / c1;
        assert!(ratio > 2.5 && ratio < 3.6, "ratio {ratio}, expected ~3");
    }

    #[test]
    fn rebalance_minimal_movement() {
        let mut m = PlacementMap::new(&ids(5), 9, 32).unwrap();
        let all = names(2000);
        let before: Vec<ServerId> = all.iter().map(|n| m.locate(n)).collect();
        // Mild retune: shift 10% of server 4's share to server 0.
        let mut w = m.share_fractions();
        let d = w[&ServerId(4)] * 0.1;
        *w.get_mut(&ServerId(0)).unwrap() += d;
        *w.get_mut(&ServerId(4)).unwrap() -= d;
        m.rebalance(&w).unwrap();
        let moved = all
            .iter()
            .zip(&before)
            .filter(|(n, &b)| m.locate(*n) != b)
            .count();
        // Changed width is 2*d of the mapped half => expected moved fraction
        // is on that order; assert it is a small minority, not a reshuffle.
        assert!(moved < 200, "moved {moved} of 2000 for a 2% retune");
    }

    #[test]
    fn remove_server_moves_only_its_sets() {
        let mut m = PlacementMap::new(&ids(5), 3, 32).unwrap();
        let all = names(3000);
        let before: BTreeMap<_, _> = all.iter().map(|n| (*n, m.locate(n))).collect();
        m.remove_server(ServerId(2)).unwrap();
        m.check_invariants().unwrap();
        for n in &all {
            let now = m.locate(n);
            assert_ne!(now, ServerId(2));
            if before[n] != ServerId(2) {
                assert_eq!(now, before[n], "set not on failed server moved: {n:?}");
            }
        }
    }

    #[test]
    fn add_server_repartitions_when_needed() {
        let mut m = PlacementMap::new(&ids(8), 3, 32).unwrap();
        assert_eq!(m.table().num_parts(), 16);
        m.add_server(ServerId(8)).unwrap(); // 9 servers need 32 parts
        m.check_invariants().unwrap();
        assert_eq!(m.table().num_parts(), 32);
        assert_eq!(m.num_servers(), 9);
        let f = m.share_fractions();
        assert!((f[&ServerId(8)] - 1.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn add_server_bounded_movement() {
        let mut m = PlacementMap::new(&ids(4), 13, 32).unwrap();
        let all = names(4000);
        let before: Vec<ServerId> = all.iter().map(|n| m.locate(n)).collect();
        m.add_server(ServerId(4)).unwrap();
        let moved = all
            .iter()
            .zip(&before)
            .filter(|(n, &b)| m.locate(*n) != b)
            .count();
        // Ideal minimal movement for n->n+1 is 1/(n+1) = 20%; rehashing can
        // touch a little more because freed regions redirect probe paths.
        let frac = moved as f64 / all.len() as f64;
        assert!(frac < 0.45, "moved {frac:.2} of sets on add");
        // And most sets must not move.
        assert!(frac > 0.05, "suspiciously little movement: {frac:.3}");
    }

    #[test]
    fn add_server_takeover_moves_only_to_newcomer() {
        let mut m = PlacementMap::new(&ids(4), 21, 32).unwrap();
        let all = names(4000);
        let before: Vec<ServerId> = all.iter().map(|n| m.locate(n)).collect();
        m.add_server_takeover(ServerId(4)).unwrap();
        let mut moved = 0usize;
        for (n, &b) in all.iter().zip(&before) {
            let now = m.locate(n);
            if now != b {
                assert_eq!(now, ServerId(4), "takeover moved a set to an old server");
                moved += 1;
            }
        }
        // Newcomer receives a nonzero, bounded-by-fair-ish share of sets.
        let frac = moved as f64 / all.len() as f64;
        assert!(frac > 0.02 && frac < 0.4, "moved fraction {frac}");
        assert_eq!(m.num_servers(), 5);
    }

    #[test]
    fn add_server_takeover_vs_paper_add_movement() {
        // The takeover path must move strictly fewer (or equal) sets than
        // the paper's grow-and-scale-back path, and never to third parties.
        let all = names(4000);
        let base = PlacementMap::new(&ids(5), 33, 32).unwrap();
        let before: Vec<ServerId> = all.iter().map(|n| base.locate(n)).collect();

        let mut takeover = base.clone();
        takeover.add_server_takeover(ServerId(5)).unwrap();
        let moved_takeover = all
            .iter()
            .zip(&before)
            .filter(|(n, &b)| takeover.locate(*n) != b)
            .count();

        let mut paper = base.clone();
        paper.add_server(ServerId(5)).unwrap();
        let moved_paper = all
            .iter()
            .zip(&before)
            .filter(|(n, &b)| paper.locate(*n) != b)
            .count();

        assert!(
            moved_takeover <= moved_paper,
            "takeover {moved_takeover} vs paper {moved_paper}"
        );
    }

    #[test]
    fn add_server_takeover_after_a_failure_keeps_half_occupancy_when_it_doubles() {
        // Two servers on 4 partitions at 3:7 leave one a 0.6-partition
        // partial. Its failure dips occupancy by 0.6 of a partition; the
        // second takeover-add doubles to 8 partitions, where the dip is
        // 1.2 partitions wide.
        let mut m = PlacementMap::with_default_rounds(&ids(2), 9).unwrap();
        let skew = [(ServerId(0), 3.0), (ServerId(1), 7.0)]
            .into_iter()
            .collect();
        m.rebalance(&skew).unwrap();
        m.remove_server(ServerId(0)).unwrap();
        m.check_invariants().unwrap();
        let names = names(2_000);
        for (id, parts) in [(2, 4), (3, 8)] {
            let before = m.assignment(names.iter());
            m.add_server_takeover(ServerId(id)).unwrap();
            assert_eq!(m.table().num_parts(), parts);
            m.check_invariants().unwrap();
            for (n, s) in m.assignment(names.iter()) {
                assert!(
                    s == before[&n] || s == ServerId(id),
                    "a set moved between old servers"
                );
            }
        }
        assert_eq!(m.table().total_share(), HALF_UNIT);
    }

    #[test]
    fn add_server_takeover_rejects_duplicates() {
        let mut m = PlacementMap::new(&ids(3), 1, 8).unwrap();
        assert_eq!(
            m.add_server_takeover(ServerId(2)),
            Err(AnuError::DuplicateServer(ServerId(2)))
        );
    }

    #[test]
    fn remove_last_server_rejected() {
        let mut m = PlacementMap::new(&ids(1), 1, 8).unwrap();
        assert_eq!(m.remove_server(ServerId(0)), Err(AnuError::EmptyCluster));
    }

    #[test]
    fn zero_rounds_always_falls_back() {
        // With no probe rounds, every lookup uses the direct-to-server
        // fallback — still total, deterministic and roughly uniform.
        let m = PlacementMap::new(&ids(4), 5, 0).unwrap();
        let mut counts = BTreeMap::new();
        for n in names(2000) {
            let p = m.locate_verbose(n);
            assert!(p.fallback);
            *counts.entry(p.server).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 4);
        for &c in counts.values() {
            assert!((300..700).contains(&c), "{c}");
        }
    }

    #[test]
    fn single_server_owns_everything() {
        let m = PlacementMap::new(&[ServerId(9)], 3, 8).unwrap();
        for n in names(100) {
            assert_eq!(m.locate(n), ServerId(9));
        }
        assert!((m.share_fractions()[&ServerId(9)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rebalance_to_same_shares_moves_only_rounding_dust() {
        // Round-tripping shares through f64 fractions can perturb each
        // share by a few fixed-point units (~1e-19 of the interval); the
        // resulting movement must be negligible, never structural.
        let mut m = PlacementMap::new(&ids(5), 17, 16).unwrap();
        let before = m.table().shares();
        m.rebalance(&m.share_fractions()).unwrap();
        let moved: u64 = m
            .table()
            .shares()
            .iter()
            .map(|(s, &after)| after.abs_diff(before[s]))
            .sum();
        assert!(moved < 1_000_000, "moved {moved} fixed-point units");
    }

    #[test]
    fn mapped_fraction_reports_dip_after_failure() {
        let mut m = PlacementMap::new(&ids(4), 3, 16).unwrap();
        assert_eq!(m.table().total_share(), HALF_UNIT);
        m.remove_server(ServerId(1)).unwrap();
        // A failure leaves the map less than one partition width short of
        // half occupancy: 1/8 of the unit interval with four servers.
        let dip = HALF_UNIT - m.table().total_share();
        assert!(dip < HALF_UNIT / 4, "{dip}");
        m.restore_half_occupancy().unwrap();
        assert_eq!(m.table().total_share(), HALF_UNIT);
    }
}
