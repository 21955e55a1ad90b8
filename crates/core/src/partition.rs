//! The partition table: servers' mapped regions over the unit interval.
//!
//! The unit interval is divided into `P = 2^k` *partitions* of equal width.
//! Each partition is in one of three states:
//!
//! * `Free` — no server mapped; file sets hashing here are re-hashed,
//! * `Full(s)` — entirely occupied by server `s`,
//! * `Partial { s, len }` — server `s` occupies the prefix `[0, len)` of the
//!   partition; the suffix is free.
//!
//! The partition states are the table's only record of the layout: a
//! server's share, its partial and full partitions, and the free
//! partitions are read off them by a scan. Two structural invariants are
//! maintained at all times (checked by [`PartitionTable::check_invariants`]
//! and exercised by property tests):
//!
//! 1. **Half occupancy** — the widths of all mapped regions sum to exactly
//!    half the unit interval ([`HALF_UNIT`]). This guarantees both that any
//!    share assignment is satisfiable and that a free partition exists for a
//!    recovered or newly added server.
//! 2. **Shape** — each server owns a set of full partitions plus *at most
//!    one* partial partition. Together with `P >= 2n` this bounds the
//!    number of occupied partitions by `P/2 + n <= P`, so growth never runs
//!    out of free partitions.
//!
//! Regions are only ever grown into free space and shrunk from the tail, and
//! a removed server's full partitions pass whole to survivors, so a
//! reconfiguration moves the minimum amount of workload: a file set changes
//! owner only if one of its probe positions did, which a [`lookup`] on a
//! clone of the table taken before the change shows.
//!
//! [`lookup`]: PartitionTable::lookup

#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::float_cmp))]

use crate::error::{AnuError, Result};
use crate::ids::ServerId;
use crate::interval::{Pos, HALF_UNIT};
use crate::num;
use std::collections::{BTreeMap, BTreeSet};

/// State of one partition of the unit interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PartitionState {
    /// Unmapped; hashes landing here are re-hashed.
    Free,
    /// Entirely occupied by one server.
    Full(ServerId),
    /// Prefix `[0, len)` occupied by one server; `0 < len < width`.
    Partial {
        /// Occupying server.
        server: ServerId,
        /// Occupied prefix length in fixed-point units.
        len: u64,
    },
}

impl PartitionState {
    /// Server `s` occupying the prefix `[0, len)` of a partition of width
    /// `w`: free when `len` is 0, full when it is `w`.
    fn prefix(s: ServerId, len: u64, w: u64) -> Self {
        if len == 0 {
            PartitionState::Free
        } else if len == w {
            PartitionState::Full(s)
        } else {
            PartitionState::Partial { server: s, len }
        }
    }

    /// The occupying server and its mapped width, in a partition of width
    /// `w`; `None` when free.
    fn mapped(self, w: u64) -> Option<(ServerId, u64)> {
        match self {
            PartitionState::Free => None,
            PartitionState::Full(s) => Some((s, w)),
            PartitionState::Partial { server, len } => Some((server, len)),
        }
    }
}

/// One server's mapped width and its partial partition, as
/// `(index, len)`, read off the partitions by a scan.
#[derive(Clone, Copy, Default)]
struct Holding {
    share: u64,
    partial: Option<(usize, u64)>,
}

/// Mapped regions of all servers over the partitioned unit interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionTable {
    log2_parts: u32,
    parts: Vec<PartitionState>,
    servers: BTreeSet<ServerId>,
}

impl PartitionTable {
    /// Create an empty table with `2^log2_parts` partitions.
    ///
    /// `log2_parts` must be in `1..=20`; `2^20` partitions is already far
    /// beyond any realistic cluster (`P >= 2n` means half a million servers).
    pub fn new(log2_parts: u32) -> Result<Self> {
        if !(1..=20).contains(&log2_parts) {
            return Err(AnuError::BadPartitionCount(log2_parts));
        }
        Ok(PartitionTable {
            log2_parts,
            parts: vec![PartitionState::Free; 1usize << log2_parts],
            servers: BTreeSet::new(),
        })
    }

    /// The minimum `log2_parts` for a cluster of `n` servers: the smallest
    /// power of two with at least `2n` partitions (paper §4).
    pub fn required_log2_parts(n_servers: usize) -> u32 {
        let need = num::u64_of_usize(2 * n_servers.max(1));
        64 - (need - 1).leading_zeros().max(44) // ceil(log2(need)), clamped to 1..=20
    }

    /// Number of partitions `P`.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// `log2(P)`.
    #[inline]
    pub fn log2_parts(&self) -> u32 {
        self.log2_parts
    }

    /// Width of one partition in fixed-point units.
    #[inline]
    pub fn part_width(&self) -> u64 {
        1u64 << (64 - self.log2_parts)
    }

    /// Number of servers registered in the table.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Iterate over registered servers in id order.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.servers.iter().copied()
    }

    /// Is `s` registered?
    pub fn contains_server(&self, s: ServerId) -> bool {
        self.servers.contains(&s)
    }

    /// The occupied partitions' owners and mapped widths, in index order.
    fn mapped(&self) -> impl Iterator<Item = (ServerId, u64)> + '_ {
        let w = self.part_width();
        self.parts.iter().filter_map(move |p| p.mapped(w))
    }

    /// Every registered server's holding, in one scan.
    fn holdings(&self) -> BTreeMap<ServerId, Holding> {
        let w = self.part_width();
        let mut holdings: BTreeMap<ServerId, Holding> =
            self.servers().map(|s| (s, Holding::default())).collect();
        for (i, &p) in self.parts.iter().enumerate() {
            if let Some((s, len)) = p.mapped(w) {
                let h = holdings.entry(s).or_default();
                h.share += len;
                if len < w {
                    h.partial = Some((i, len));
                }
            }
        }
        holdings
    }

    /// All shares, in fixed-point units, keyed by server.
    pub fn shares(&self) -> BTreeMap<ServerId, u64> {
        self.holdings()
            .into_iter()
            .map(|(s, h)| (s, h.share))
            .collect()
    }

    /// Total mapped width. Equals [`HALF_UNIT`] whenever the table is in a
    /// balanced state (after construction via `with_equal_shares` or any
    /// rebalance); transiently differs inside multi-step operations.
    pub fn total_share(&self) -> u64 {
        self.mapped().map(|(_, len)| len).sum()
    }

    /// State of partition `idx`.
    pub fn part(&self, idx: u32) -> PartitionState {
        self.parts[num::usize_of_u32(idx)]
    }

    /// Register a new server with an empty mapped region.
    pub fn register_server(&mut self, s: ServerId) -> Result<()> {
        if !self.servers.insert(s) {
            return Err(AnuError::DuplicateServer(s));
        }
        Ok(())
    }

    /// Build a table for `servers` with equal shares summing to half the
    /// interval, using `2^log2_parts` partitions (must be `>= 2n`).
    pub fn with_equal_shares(servers: &[ServerId], log2_parts: u32) -> Result<Self> {
        if servers.is_empty() {
            return Err(AnuError::EmptyCluster);
        }
        let mut t = PartitionTable::new(log2_parts)?;
        for &s in servers {
            t.register_server(s)?;
        }
        let targets = crate::shares::equal_targets(&t.servers().collect::<Vec<_>>());
        t.rebalance(&targets)?;
        Ok(t)
    }

    /// Which server (if any) owns position `p`?
    #[inline]
    pub fn lookup(&self, p: Pos) -> Option<ServerId> {
        let idx = num::usize_of(p.0 >> (64 - self.log2_parts));
        let offset = p.0 & (self.part_width() - 1);
        match self.parts[idx] {
            PartitionState::Free => None,
            PartitionState::Full(s) => Some(s),
            PartitionState::Partial { server, len } => (offset < len).then_some(server),
        }
    }

    /// Shrink server `s`, whose partial is `partial`, by `amount`
    /// fixed-point units: cut the partial first, then full partitions from
    /// the highest index down, in one pass that stops once `amount` is cut.
    ///
    /// Cutting stops at the server's current share; the caller ensures
    /// amounts come from a valid target vector, so that only guards
    /// against rounding dust.
    fn shrink_server(&mut self, s: ServerId, partial: Option<(usize, u64)>, amount: u64) {
        let w = self.part_width();
        let mut remaining = amount;
        if let Some((i, len)) = partial {
            let cut = remaining.min(len);
            self.parts[i] = PartitionState::prefix(s, len - cut, w);
            remaining -= cut;
        }
        for p in self.parts.iter_mut().rev() {
            if remaining == 0 {
                break;
            }
            if *p == PartitionState::Full(s) {
                let cut = remaining.min(w);
                *p = PartitionState::prefix(s, w - cut, w);
                remaining -= cut;
            }
        }
    }

    /// Grow server `s`, whose partial is `partial`, by `amount` fixed-point
    /// units: extend the partial toward the end of its partition, then
    /// claim the lowest free partitions, the last one partially, in one
    /// pass that stops once `amount` is placed.
    fn grow_server(
        &mut self,
        s: ServerId,
        partial: Option<(usize, u64)>,
        amount: u64,
    ) -> Result<()> {
        let w = self.part_width();
        let mut remaining = amount;
        if let Some((i, len)) = partial {
            let add = remaining.min(w - len);
            self.parts[i] = PartitionState::prefix(s, len + add, w);
            remaining -= add;
        }
        for p in &mut self.parts {
            if remaining == 0 {
                break;
            }
            if *p == PartitionState::Free {
                let add = remaining.min(w);
                *p = PartitionState::prefix(s, add, w);
                remaining -= add;
            }
        }
        if remaining > 0 {
            return Err(AnuError::NoFreePartition);
        }
        Ok(())
    }

    /// Rebalance all servers to `targets` (fixed-point shares summing to
    /// exactly [`HALF_UNIT`], covering exactly the registered servers).
    ///
    /// Shrinks run before grows so freed partitions are available; within
    /// each phase servers are processed in id order for determinism. Only
    /// the shed and gained width changes owner — the minimal movement.
    /// Each server touches only its own partial and full partitions and
    /// free ones, so the partials read before the first shrink stay valid.
    pub fn rebalance(&mut self, targets: &BTreeMap<ServerId, u64>) -> Result<()> {
        if targets.len() != self.servers.len() || !targets.keys().all(|s| self.servers.contains(s))
        {
            return Err(AnuError::TargetServerMismatch);
        }
        let sum: u64 = targets.values().copied().sum();
        if sum != HALF_UNIT {
            return Err(AnuError::BadTargetSum {
                got: sum,
                want: HALF_UNIT,
            });
        }
        let current = self.holdings();
        for (&s, &t) in targets {
            let Holding { share, partial } = current[&s];
            if t < share {
                self.shrink_server(s, partial, share - t);
            }
        }
        for (&s, &t) in targets {
            let Holding { share, partial } = current[&s];
            if t > share {
                self.grow_server(s, partial, t - share)?;
            }
        }
        debug_assert!(self.check_invariants().is_ok());
        Ok(())
    }

    /// Remove server `s` with **exact takeover**: every full partition of
    /// `s`, in ascending index, is handed wholesale to the survivor with
    /// the largest deficit versus its proportional post-failure share
    /// (ties to the lowest id), and the partial partition of `s` (if any)
    /// is freed. Because takeover keeps the mapped coverage of every
    /// handed-over partition identical, no probe path of any file set not
    /// owned by `s` changes.
    ///
    /// Returns the width left unmapped (the freed partial), which is less
    /// than one partition; the caller restores exact half occupancy at the
    /// next rebalance.
    pub fn takeover_remove_server(&mut self, s: ServerId) -> Result<u64> {
        let w = self.part_width();
        if !self.servers.contains(&s) {
            return Err(AnuError::UnknownServer(s));
        }
        if self.servers.len() <= 1 {
            return Err(AnuError::EmptyCluster);
        }
        let mut shares = self.shares();
        let removed_share = shares.remove(&s).unwrap_or(0);
        self.servers.remove(&s);

        // Proportional post-failure targets for the survivors:
        // deficit(survivor) = target - current; target grows current shares
        // by the factor (surviving + removed) / surviving.
        let surviving_total = shares.values().sum::<u64>().max(1);
        let mut deficits: Vec<(ServerId, f64)> = shares
            .into_iter()
            .map(|(id, share)| {
                let cur = num::f64_of(share);
                let target = cur * num::f64_of(surviving_total + removed_share)
                    / num::f64_of(surviving_total);
                (id, target - cur)
            })
            .collect();

        let mut unmapped = 0;
        for p in &mut self.parts {
            match *p {
                PartitionState::Full(owner) if owner == s => {
                    let Some((taker, deficit)) = deficits
                        .iter_mut()
                        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                    else {
                        unreachable!("entry check guarantees >= 1 survivor")
                    };
                    *deficit -= num::f64_of(w);
                    *p = PartitionState::Full(*taker);
                }
                PartitionState::Partial { server, len } if server == s => {
                    *p = PartitionState::Free;
                    unmapped = len;
                }
                _ => {}
            }
        }
        debug_assert!(self.check_invariants_shape().is_ok());
        Ok(unmapped)
    }

    /// Hand `count` full partitions to server `to`, one at a time from the
    /// donor with the largest share among those holding a full partition
    /// (ties to the lowest id), starting at the donor's highest full
    /// partition. Coverage of each taken partition is unchanged, so only
    /// file sets inside the taken partitions change owner — the
    /// minimal-movement commissioning path. Stops early (without error) if
    /// donors run out of full partitions.
    pub fn take_full_partitions(&mut self, to: ServerId, count: usize) -> Result<()> {
        if !self.servers.contains(&to) {
            return Err(AnuError::UnknownServer(to));
        }
        for _ in 0..count {
            let shares = self.shares();
            // `max_by` keeps the last of equal elements, so among one
            // donor's full partitions it picks the highest index.
            let Some((_, top)) = self
                .parts
                .iter()
                .enumerate()
                .filter_map(|(i, &p)| match p {
                    PartitionState::Full(owner) if owner != to => Some((owner, i)),
                    _ => None,
                })
                .max_by(|a, b| shares[&a.0].cmp(&shares[&b.0]).then(b.0.cmp(&a.0)))
            else {
                break;
            };
            self.parts[top] = PartitionState::Full(to);
        }
        debug_assert!(self.check_invariants_shape().is_ok());
        Ok(())
    }

    /// Double the number of partitions by splitting every partition in two.
    ///
    /// Coverage is unchanged — no load moves and the hash functions that
    /// address load are untouched (unlike linear hashing; paper §4). Each
    /// partial splits into at most one full child and one partial child, so
    /// the shape invariant is preserved.
    pub fn repartition_double(&mut self) -> Result<()> {
        if self.log2_parts >= 20 {
            return Err(AnuError::BadPartitionCount(self.log2_parts + 1));
        }
        let w = self.part_width();
        let half = w / 2;
        // Each child holds its half's piece of the parent's prefix.
        let parts = self
            .parts
            .iter()
            .flat_map(|p| match p.mapped(w) {
                None => [PartitionState::Free; 2],
                Some((s, len)) => {
                    let first = len.min(half);
                    [
                        PartitionState::prefix(s, first, half),
                        PartitionState::prefix(s, len - first, half),
                    ]
                }
            })
            .collect();
        self.log2_parts += 1;
        self.parts = parts;
        debug_assert!(self.check_invariants_shape().is_ok());
        Ok(())
    }

    /// Verify the shape invariant and the half-occupancy invariant.
    /// Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.check_invariants_shape()?;
        let total = self.total_share();
        if total != HALF_UNIT {
            return Err(format!(
                "half-occupancy violated: total share {total} != {HALF_UNIT}"
            ));
        }
        Ok(())
    }

    /// The shape invariant only (no half-occupancy check), valid even in
    /// transient states such as just after a failure: every owner is
    /// registered, each partial's length is in `(0, w)`, and no server has
    /// two partials.
    pub fn check_invariants_shape(&self) -> std::result::Result<(), String> {
        let w = self.part_width();
        let mut with_partial = BTreeSet::new();
        for (i, &p) in self.parts.iter().enumerate() {
            let Some((s, len)) = p.mapped(w) else {
                continue;
            };
            if !self.servers.contains(&s) {
                return Err(format!("partition {i} owned by unknown {s}"));
            }
            if let PartitionState::Partial { .. } = p {
                if len == 0 || len >= w {
                    return Err(format!("partition {i} partial len {len} out of (0,{w})"));
                }
                if !with_partial.insert(s) {
                    return Err(format!("{s} has a second partial at partition {i}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn required_parts() {
        assert_eq!(PartitionTable::required_log2_parts(1), 1); // 2 parts
        assert_eq!(PartitionTable::required_log2_parts(2), 2); // 4
        assert_eq!(PartitionTable::required_log2_parts(3), 3); // 8
        assert_eq!(PartitionTable::required_log2_parts(4), 3); // 8
        assert_eq!(PartitionTable::required_log2_parts(5), 4); // 16
        assert_eq!(PartitionTable::required_log2_parts(8), 4); // 16
        assert_eq!(PartitionTable::required_log2_parts(9), 5); // 32
    }

    #[test]
    fn equal_shares_half_occupancy() {
        for n in 1..=9u32 {
            let k = PartitionTable::required_log2_parts(n as usize);
            let t = PartitionTable::with_equal_shares(&ids(n), k).unwrap();
            t.check_invariants().unwrap();
            assert_eq!(t.total_share(), HALF_UNIT);
            // Equal within one fixed-point unit.
            let shares = t.shares();
            let min = shares.values().min().unwrap();
            let max = shares.values().max().unwrap();
            assert!(max - min <= 1, "n={n}: {min}..{max}");
        }
    }

    #[test]
    fn lookup_respects_regions() {
        let t = PartitionTable::with_equal_shares(&ids(2), 2).unwrap();
        // 4 partitions; two servers, each with share = 1/4 of interval =
        // exactly one full partition each (HALF/2 = part width when P=4).
        let w = t.part_width();
        let mut owners = BTreeMap::new();
        for i in 0..4u32 {
            let mid = Pos((i as u64) * w + w / 2);
            if let Some(s) = t.lookup(mid) {
                *owners.entry(s).or_insert(0) += 1;
            }
        }
        assert_eq!(owners.values().sum::<i32>(), 2); // half the interval mapped
    }

    #[test]
    fn lookup_partial_boundary() {
        let mut t = PartitionTable::new(2).unwrap();
        t.register_server(ServerId(0)).unwrap();
        t.register_server(ServerId(1)).unwrap();
        let w = t.part_width();
        let mut targets = BTreeMap::new();
        targets.insert(ServerId(0), w + w / 2); // 1.5 partitions
        targets.insert(ServerId(1), HALF_UNIT - w - w / 2); // 0.5
        t.rebalance(&targets).unwrap();
        t.check_invariants().unwrap();
        let (p, len) = (0..4u32)
            .find_map(|i| match t.part(i) {
                PartitionState::Partial {
                    server: ServerId(0),
                    len,
                } => Some((i, len)),
                _ => None,
            })
            .unwrap();
        assert_eq!(len, w / 2);
        let start = (p as u64) * w;
        assert_eq!(t.lookup(Pos(start)), Some(ServerId(0)));
        assert_eq!(t.lookup(Pos(start + len - 1)), Some(ServerId(0)));
        assert_ne!(t.lookup(Pos(start + len)), Some(ServerId(0)));
    }

    #[test]
    fn rebalance_rejects_bad_sum() {
        let mut t = PartitionTable::with_equal_shares(&ids(2), 2).unwrap();
        let mut targets = BTreeMap::new();
        targets.insert(ServerId(0), 10);
        targets.insert(ServerId(1), 20);
        assert!(matches!(
            t.rebalance(&targets),
            Err(AnuError::BadTargetSum { .. })
        ));
    }

    #[test]
    fn rebalance_rejects_wrong_servers() {
        let mut t = PartitionTable::with_equal_shares(&ids(2), 2).unwrap();
        let mut targets = BTreeMap::new();
        targets.insert(ServerId(0), HALF_UNIT);
        assert_eq!(t.rebalance(&targets), Err(AnuError::TargetServerMismatch));
    }

    /// Width of the interval whose owner differs between two layouts with
    /// the same partition count. Within a partition, one owner's prefixes
    /// differ by their lengths' difference; otherwise the whole longer
    /// prefix changed hands (or between mapped and free).
    fn changed_width(a: &PartitionTable, b: &PartitionTable) -> u64 {
        let w = a.part_width();
        (0..a.num_parts() as u32)
            .map(|i| match (a.part(i).mapped(w), b.part(i).mapped(w)) {
                (Some((x, la)), Some((y, lb))) if x == y => la.abs_diff(lb),
                (x, y) => x.map_or(0, |m| m.1).max(y.map_or(0, |m| m.1)),
            })
            .sum()
    }

    #[test]
    fn rebalance_moves_only_deltas() {
        let servers = ids(4);
        let mut t = PartitionTable::with_equal_shares(&servers, 3).unwrap();
        let before = t.shares();
        // Double server 0 at the expense of server 3.
        let mut targets = before.clone();
        let delta = before[&ServerId(3)] / 2;
        *targets.get_mut(&ServerId(0)).unwrap() += delta;
        *targets.get_mut(&ServerId(3)).unwrap() -= delta;
        let layout = t.clone();
        t.rebalance(&targets).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.shares(), targets);
        // Total changed width = shed + gained = 2 * delta.
        assert_eq!(changed_width(&layout, &t), 2 * delta);
        // Untouched servers' shares unchanged.
        let after = t.shares();
        assert_eq!(after[&ServerId(1)], before[&ServerId(1)]);
        assert_eq!(after[&ServerId(2)], before[&ServerId(2)]);
    }

    #[test]
    fn shrink_to_zero_and_regrow() {
        let mut t = PartitionTable::with_equal_shares(&ids(3), 3).unwrap();
        let mut targets = t.shares();
        let s2 = targets[&ServerId(2)];
        *targets.get_mut(&ServerId(0)).unwrap() += s2;
        *targets.get_mut(&ServerId(2)).unwrap() = 0;
        t.rebalance(&targets).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.shares()[&ServerId(2)], 0);
        // Regrow from zero.
        let mut targets2 = t.shares();
        *targets2.get_mut(&ServerId(0)).unwrap() -= 1000;
        *targets2.get_mut(&ServerId(2)).unwrap() += 1000;
        t.rebalance(&targets2).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.shares()[&ServerId(2)], 1000);
    }

    #[test]
    fn repartition_preserves_coverage() {
        let mut t = PartitionTable::with_equal_shares(&ids(5), 4).unwrap();
        // Skew the shares first so partials exist.
        let mut targets = t.shares();
        let d = targets[&ServerId(4)] / 3;
        *targets.get_mut(&ServerId(0)).unwrap() += d;
        *targets.get_mut(&ServerId(4)).unwrap() -= d;
        t.rebalance(&targets).unwrap();

        let before = t.clone();
        t.repartition_double().unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.num_parts(), before.num_parts() * 2);
        assert_eq!(t.shares(), before.shares());
        // Every sampled position has the same owner as before.
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for _ in 0..10_000 {
            x = crate::hash::mix64(x);
            assert_eq!(t.lookup(Pos(x)), before.lookup(Pos(x)));
        }
    }

    #[test]
    fn duplicate_server_rejected() {
        let mut t = PartitionTable::new(2).unwrap();
        t.register_server(ServerId(0)).unwrap();
        assert_eq!(
            t.register_server(ServerId(0)),
            Err(AnuError::DuplicateServer(ServerId(0)))
        );
    }

    #[test]
    fn bad_partition_count_rejected() {
        assert!(PartitionTable::new(0).is_err());
        assert!(PartitionTable::new(21).is_err());
        assert!(PartitionTable::new(20).is_ok());
    }

    #[test]
    fn empty_cluster_rejected() {
        assert_eq!(
            PartitionTable::with_equal_shares(&[], 2).unwrap_err(),
            AnuError::EmptyCluster
        );
    }
}
