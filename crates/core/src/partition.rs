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
//! Two structural invariants are maintained at all times (checked by
//! [`PartitionTable::check_invariants`] and exercised by property tests):
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
//! Regions are only ever grown into free space and shrunk from the tail, so
//! a reconfiguration moves the minimum amount of workload: only file sets
//! whose probe path intersects a changed segment change owner.

#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::float_cmp))]

use crate::error::{AnuError, Result};
use crate::ids::ServerId;
use crate::interval::{Pos, Segment, HALF_UNIT};
use crate::json::{FromJson, Json, JsonError, ToJson};
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

/// Per-server index of owned partitions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerRegions {
    /// Indices of partitions fully owned by the server.
    pub fulls: BTreeSet<u32>,
    /// The single partial partition, if any: `(index, occupied prefix len)`.
    pub partial: Option<(u32, u64)>,
}

impl ServerRegions {
    /// Total mapped width of this server, given the partition width.
    pub fn share(&self, part_width: u64) -> u64 {
        num::u64_of_usize(self.fulls.len()) * part_width + self.partial.map_or(0, |(_, l)| l)
    }
}

/// A single ownership change of a segment of the interval, produced by
/// rescaling, membership changes, or failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionChange {
    /// The segment that changed hands.
    pub segment: Segment,
    /// Previous owner (`None` = was free).
    pub from: Option<ServerId>,
    /// New owner (`None` = now free).
    pub to: Option<ServerId>,
}

/// Mapped regions of all servers over the partitioned unit interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionTable {
    log2_parts: u32,
    parts: Vec<PartitionState>,
    regions: BTreeMap<ServerId, ServerRegions>,
    free: BTreeSet<u32>,
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
        let n = 1usize << log2_parts;
        Ok(PartitionTable {
            log2_parts,
            parts: vec![PartitionState::Free; n],
            regions: BTreeMap::new(),
            free: (0..num::u32_of_usize(n)).collect(),
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
        self.regions.len()
    }

    /// Iterate over registered servers in id order.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.regions.keys().copied()
    }

    /// Is `s` registered?
    pub fn contains_server(&self, s: ServerId) -> bool {
        self.regions.contains_key(&s)
    }

    /// The regions index of server `s`.
    pub fn regions_of(&self, s: ServerId) -> Option<&ServerRegions> {
        self.regions.get(&s)
    }

    /// Mapped width of server `s` in fixed-point units.
    pub fn share(&self, s: ServerId) -> u64 {
        self.regions
            .get(&s)
            .map_or(0, |r| r.share(self.part_width()))
    }

    /// All shares, in fixed-point units, keyed by server.
    pub fn shares(&self) -> BTreeMap<ServerId, u64> {
        let w = self.part_width();
        self.regions.iter().map(|(&s, r)| (s, r.share(w))).collect()
    }

    /// Total mapped width. Equals [`HALF_UNIT`] whenever the table is in a
    /// balanced state (after construction via `with_equal_shares` or any
    /// rebalance); transiently differs inside multi-step operations.
    pub fn total_share(&self) -> u64 {
        let w = self.part_width();
        self.regions.values().map(|r| r.share(w)).sum()
    }

    /// State of partition `idx`.
    pub fn part(&self, idx: u32) -> PartitionState {
        self.parts[num::usize_of_u32(idx)]
    }

    /// Register a new server with an empty mapped region.
    pub fn register_server(&mut self, s: ServerId) -> Result<()> {
        if self.regions.contains_key(&s) {
            return Err(AnuError::DuplicateServer(s));
        }
        self.regions.insert(s, ServerRegions::default());
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

    /// Absolute start position of partition `idx`.
    #[inline]
    fn part_start(&self, idx: u32) -> Pos {
        Pos(u64::from(idx) << (64 - self.log2_parts))
    }

    fn seg(&self, idx: u32, from_off: u64, to_off: u64) -> Segment {
        debug_assert!(to_off > from_off);
        Segment::new(Pos(self.part_start(idx).0 + from_off), to_off - from_off)
    }

    /// The region index of a server already validated as registered
    /// (every public entry point returns `UnknownServer` first). Reaching
    /// this with an unregistered id means the index is corrupt, which is
    /// worth halting on.
    #[inline]
    fn region_mut(&mut self, s: ServerId) -> &mut ServerRegions {
        let Some(reg) = self.regions.get_mut(&s) else {
            unreachable!("server validated as registered at entry")
        };
        reg
    }

    /// Shrink server `s` by `amount` fixed-point units, shedding from its
    /// partial first and then demoting full partitions (highest index
    /// first). Appends the freed segments to `changes`.
    ///
    /// Shedding clips at the server's current share; the caller ensures
    /// amounts come from a valid target vector, so clipping only guards
    /// against rounding dust.
    pub(crate) fn shrink_server(
        &mut self,
        s: ServerId,
        amount: u64,
        changes: &mut Vec<RegionChange>,
    ) -> Result<()> {
        let w = self.part_width();
        let reg = self.regions.get_mut(&s).ok_or(AnuError::UnknownServer(s))?;
        let mut remaining = amount.min(reg.share(w));

        // Phase 1: cut the tail of the partial region.
        if remaining > 0 {
            if let Some((p, len)) = reg.partial {
                let cut = remaining.min(len);
                let new_len = len - cut;
                if new_len == 0 {
                    reg.partial = None;
                    self.parts[num::usize_of_u32(p)] = PartitionState::Free;
                    self.free.insert(p);
                } else {
                    reg.partial = Some((p, new_len));
                    self.parts[num::usize_of_u32(p)] = PartitionState::Partial {
                        server: s,
                        len: new_len,
                    };
                }
                remaining -= cut;
                changes.push(RegionChange {
                    segment: self.seg(p, new_len, len),
                    from: Some(s),
                    to: None,
                });
            }
        }

        // Phase 2: release or demote full partitions, highest index first.
        while remaining > 0 {
            let Some(reg) = self.regions.get_mut(&s) else {
                unreachable!("`s` was validated at entry (UnknownServer)")
            };
            let Some(&p) = reg.fulls.iter().next_back() else {
                break; // share exhausted (clipped by `min` above)
            };
            reg.fulls.remove(&p);
            if remaining >= w {
                self.parts[num::usize_of_u32(p)] = PartitionState::Free;
                self.free.insert(p);
                remaining -= w;
                changes.push(RegionChange {
                    segment: self.seg(p, 0, w),
                    from: Some(s),
                    to: None,
                });
            } else {
                let new_len = w - remaining;
                debug_assert!(reg.partial.is_none(), "partial was drained in phase 1");
                reg.partial = Some((p, new_len));
                self.parts[num::usize_of_u32(p)] = PartitionState::Partial {
                    server: s,
                    len: new_len,
                };
                changes.push(RegionChange {
                    segment: self.seg(p, new_len, w),
                    from: Some(s),
                    to: None,
                });
                remaining = 0;
            }
        }
        Ok(())
    }

    /// Grow server `s` by `amount` fixed-point units: extend its partial to
    /// the end of its partition, then claim free partitions (lowest index
    /// first). Appends the gained segments to `changes`.
    pub(crate) fn grow_server(
        &mut self,
        s: ServerId,
        amount: u64,
        changes: &mut Vec<RegionChange>,
    ) -> Result<()> {
        let w = self.part_width();
        if !self.regions.contains_key(&s) {
            return Err(AnuError::UnknownServer(s));
        }
        let mut remaining = amount;

        // Phase 1: extend the existing partial toward the partition end.
        {
            let Some(reg) = self.regions.get_mut(&s) else {
                unreachable!("`s` was validated at entry (UnknownServer)")
            };
            if let Some((p, len)) = reg.partial {
                let add = remaining.min(w - len);
                if add > 0 {
                    let new_len = len + add;
                    if new_len == w {
                        reg.partial = None;
                        reg.fulls.insert(p);
                        self.parts[num::usize_of_u32(p)] = PartitionState::Full(s);
                    } else {
                        reg.partial = Some((p, new_len));
                        self.parts[num::usize_of_u32(p)] = PartitionState::Partial {
                            server: s,
                            len: new_len,
                        };
                    }
                    remaining -= add;
                    changes.push(RegionChange {
                        segment: self.seg(p, len, new_len),
                        from: None,
                        to: Some(s),
                    });
                }
            }
        }

        // Phase 2: claim whole free partitions.
        while remaining >= w {
            let Some(&p) = self.free.iter().next() else {
                return Err(AnuError::NoFreePartition);
            };
            self.free.remove(&p);
            self.parts[num::usize_of_u32(p)] = PartitionState::Full(s);
            self.region_mut(s).fulls.insert(p);
            remaining -= w;
            changes.push(RegionChange {
                segment: self.seg(p, 0, w),
                from: None,
                to: Some(s),
            });
        }

        // Phase 3: claim one free partition partially.
        if remaining > 0 {
            let Some(&p) = self.free.iter().next() else {
                return Err(AnuError::NoFreePartition);
            };
            self.free.remove(&p);
            self.parts[num::usize_of_u32(p)] = PartitionState::Partial {
                server: s,
                len: remaining,
            };
            let reg = self.region_mut(s);
            debug_assert!(reg.partial.is_none(), "phase 1 drained or promoted it");
            reg.partial = Some((p, remaining));
            changes.push(RegionChange {
                segment: self.seg(p, 0, remaining),
                from: None,
                to: Some(s),
            });
        }
        Ok(())
    }

    /// Rebalance all servers to `targets` (fixed-point shares summing to
    /// exactly [`HALF_UNIT`], covering exactly the registered servers).
    ///
    /// Shrinks run before grows so freed partitions are available; within
    /// each phase servers are processed in id order for determinism. Returns
    /// the list of segments that changed hands — the minimal movement.
    pub fn rebalance(&mut self, targets: &BTreeMap<ServerId, u64>) -> Result<Vec<RegionChange>> {
        if targets.len() != self.regions.len()
            || !targets.keys().all(|s| self.regions.contains_key(s))
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
        let current = self.shares();
        let mut changes = Vec::new();
        for (&s, &t) in targets {
            let cur = current[&s];
            if t < cur {
                self.shrink_server(s, cur - t, &mut changes)?;
            }
        }
        for (&s, &t) in targets {
            let cur = current[&s];
            if t > cur {
                self.grow_server(s, t - cur, &mut changes)?;
            }
        }
        debug_assert!(self.check_invariants().is_ok());
        Ok(changes)
    }

    /// Remove server `s`, freeing all its regions (used for failure,
    /// decommissioning). Returns the freed share; the caller restores the
    /// half-occupancy invariant by growing the survivors.
    pub fn remove_server(&mut self, s: ServerId, changes: &mut Vec<RegionChange>) -> Result<u64> {
        let w = self.part_width();
        let reg = self.regions.remove(&s).ok_or(AnuError::UnknownServer(s))?;
        let freed = reg.share(w);
        for p in reg.fulls {
            self.parts[num::usize_of_u32(p)] = PartitionState::Free;
            self.free.insert(p);
            changes.push(RegionChange {
                segment: self.seg(p, 0, w),
                from: Some(s),
                to: None,
            });
        }
        if let Some((p, len)) = reg.partial {
            self.parts[num::usize_of_u32(p)] = PartitionState::Free;
            self.free.insert(p);
            changes.push(RegionChange {
                segment: self.seg(p, 0, len),
                from: Some(s),
                to: None,
            });
        }
        Ok(freed)
    }

    /// Remove server `s` with **exact takeover**: every full partition of
    /// `s` is handed wholesale to a survivor (greedily, to the survivor
    /// with the largest deficit versus its proportional post-failure
    /// share), and the partial partition of `s` (if any) is freed. Because
    /// takeover keeps the mapped coverage of every handed-over segment
    /// identical, no probe path of any file set not owned by `s` changes.
    ///
    /// Returns the width left unmapped (the freed partial), which is less
    /// than one partition; the caller restores exact half occupancy at the
    /// next rebalance.
    pub fn takeover_remove_server(
        &mut self,
        s: ServerId,
        changes: &mut Vec<RegionChange>,
    ) -> Result<u64> {
        let w = self.part_width();
        if !self.regions.contains_key(&s) {
            return Err(AnuError::UnknownServer(s));
        }
        if self.regions.len() <= 1 {
            return Err(AnuError::EmptyCluster);
        }
        let Some(reg) = self.regions.remove(&s) else {
            unreachable!("membership checked two lines up")
        };
        let removed_share = reg.share(w);

        // Proportional post-failure targets for the survivors.
        let surviving_total: u64 = {
            let sum: u64 = self.regions.values().map(|r| r.share(w)).sum();
            sum.max(1)
        };
        // deficit(survivor) = target - current; target grows current shares
        // by the factor (surviving + removed) / surviving.
        let mut deficits: BTreeMap<ServerId, f64> = self
            .regions
            .iter()
            .map(|(&id, r)| {
                let cur = num::f64_of(r.share(w));
                let target = cur * num::f64_of(surviving_total + removed_share)
                    / num::f64_of(surviving_total);
                (id, target - cur)
            })
            .collect();

        for p in reg.fulls {
            // Hand partition `p` to the survivor with the largest deficit.
            let Some((&taker, _)) = deficits
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
            else {
                unreachable!("entry check guarantees >= 1 survivor")
            };
            *deficits.entry(taker).or_insert(0.0) -= num::f64_of(w);
            self.parts[num::usize_of_u32(p)] = PartitionState::Full(taker);
            self.region_mut(taker).fulls.insert(p);
            changes.push(RegionChange {
                segment: self.seg(p, 0, w),
                from: Some(s),
                to: Some(taker),
            });
        }
        let mut unmapped = 0;
        if let Some((p, len)) = reg.partial {
            self.parts[num::usize_of_u32(p)] = PartitionState::Free;
            self.free.insert(p);
            unmapped = len;
            changes.push(RegionChange {
                segment: self.seg(p, 0, len),
                from: Some(s),
                to: None,
            });
        }
        debug_assert!(self.check_invariants_shape().is_ok());
        Ok(unmapped)
    }

    /// Hand `count` full partitions to server `to`, taking them from the
    /// donors with the largest shares (their highest-index full partitions
    /// first). Coverage of each taken partition is unchanged, so only file
    /// sets inside the taken partitions change owner — the minimal-movement
    /// commissioning path. Stops early (without error) if donors run out
    /// of full partitions.
    pub fn take_full_partitions(
        &mut self,
        to: ServerId,
        count: usize,
    ) -> Result<Vec<RegionChange>> {
        let w = self.part_width();
        if !self.regions.contains_key(&to) {
            return Err(AnuError::UnknownServer(to));
        }
        let mut changes = Vec::with_capacity(count);
        for _ in 0..count {
            // Donor = largest current share among servers with >= 1 full
            // partition (excluding the receiver); ties to the lowest id.
            let donor = self
                .regions
                .iter()
                .filter(|(&id, r)| id != to && !r.fulls.is_empty())
                .max_by(|a, b| a.1.share(w).cmp(&b.1.share(w)).then(b.0.cmp(a.0)))
                .map(|(&id, _)| id);
            let Some(donor) = donor else { break };
            let reg = self.region_mut(donor);
            let Some(&p) = reg.fulls.iter().next_back() else {
                unreachable!("donor filter requires a non-empty full set")
            };
            reg.fulls.remove(&p);
            self.parts[num::usize_of_u32(p)] = PartitionState::Full(to);
            self.region_mut(to).fulls.insert(p);
            changes.push(RegionChange {
                segment: self.seg(p, 0, w),
                from: Some(donor),
                to: Some(to),
            });
        }
        debug_assert!(self.check_invariants_shape().is_ok());
        Ok(changes)
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
        let half = self.part_width() / 2;
        let mut parts = Vec::with_capacity(self.parts.len() * 2);
        for &p in &self.parts {
            match p {
                PartitionState::Free => {
                    parts.push(PartitionState::Free);
                    parts.push(PartitionState::Free);
                }
                PartitionState::Full(s) => {
                    parts.push(PartitionState::Full(s));
                    parts.push(PartitionState::Full(s));
                }
                PartitionState::Partial { server, len } => {
                    if len < half {
                        parts.push(PartitionState::Partial { server, len });
                        parts.push(PartitionState::Free);
                    } else if len == half {
                        parts.push(PartitionState::Full(server));
                        parts.push(PartitionState::Free);
                    } else {
                        parts.push(PartitionState::Full(server));
                        parts.push(PartitionState::Partial {
                            server,
                            len: len - half,
                        });
                    }
                }
            }
        }
        self.log2_parts += 1;
        self.parts = parts;
        // Rebuild the per-server and free indexes from the new layout.
        self.free.clear();
        for reg in self.regions.values_mut() {
            reg.fulls.clear();
            reg.partial = None;
        }
        for (i, &p) in self.parts.iter().enumerate() {
            let i = num::u32_of_usize(i);
            match p {
                PartitionState::Free => {
                    self.free.insert(i);
                }
                PartitionState::Full(s) => {
                    let Some(reg) = self.regions.get_mut(&s) else {
                        unreachable!("partitions only reference registered servers")
                    };
                    reg.fulls.insert(i);
                }
                PartitionState::Partial { server, len } => {
                    let Some(reg) = self.regions.get_mut(&server) else {
                        unreachable!("partitions only reference registered servers")
                    };
                    debug_assert!(reg.partial.is_none());
                    reg.partial = Some((i, len));
                }
            }
        }
        debug_assert!(self.check_invariants_shape().is_ok());
        Ok(())
    }

    /// Render the interval as an ASCII strip of `width` cells — `.` for
    /// free space, the server id's last hex digit for mapped cells, with
    /// `|` partition boundaries. A debugging aid:
    ///
    /// ```text
    /// |0000|1111|2222|....|3333|....|....|....|
    /// ```
    pub fn render(&self, cells_per_part: usize) -> String {
        let cells = cells_per_part.max(1);
        let w = self.part_width();
        let mut out = String::with_capacity(self.parts.len() * (cells + 1) + 1);
        for p in &self.parts {
            out.push('|');
            for c in 0..cells {
                // Sample the midpoint of the c-th cell of this partition.
                let off = (w / num::u64_of_usize(cells)) * num::u64_of_usize(c)
                    + w / (2 * num::u64_of_usize(cells));
                let ch = match *p {
                    PartitionState::Free => '.',
                    PartitionState::Full(s) => id_char(s),
                    PartitionState::Partial { server, len } => {
                        if off < len {
                            id_char(server)
                        } else {
                            '.'
                        }
                    }
                };
                out.push(ch);
            }
        }
        out.push('|');
        out
    }

    /// Verify the structural invariants (shape + index consistency) and the
    /// half-occupancy invariant. Intended for tests and debug assertions.
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

    /// Shape/index consistency only (no half-occupancy check); valid even in
    /// transient states such as just after a failure.
    pub fn check_invariants_shape(&self) -> std::result::Result<(), String> {
        let w = self.part_width();
        let mut seen_free = BTreeSet::new();
        for (i, &p) in self.parts.iter().enumerate() {
            let i = num::u32_of_usize(i);
            match p {
                PartitionState::Free => {
                    if !self.free.contains(&i) {
                        return Err(format!("partition {i} free but not in free set"));
                    }
                    seen_free.insert(i);
                }
                PartitionState::Full(s) => {
                    let reg = self
                        .regions
                        .get(&s)
                        .ok_or(format!("partition {i} owned by unknown {s}"))?;
                    if !reg.fulls.contains(&i) {
                        return Err(format!("partition {i} full({s}) not in index"));
                    }
                }
                PartitionState::Partial { server, len } => {
                    if len == 0 || len >= w {
                        return Err(format!("partition {i} partial len {len} out of (0,{w})"));
                    }
                    let reg = self
                        .regions
                        .get(&server)
                        .ok_or(format!("partition {i} owned by unknown {server}"))?;
                    if reg.partial != Some((i, len)) {
                        return Err(format!("partition {i} partial({server}) not in index"));
                    }
                }
            }
        }
        if seen_free != self.free {
            return Err("free set inconsistent with partition states".into());
        }
        for (s, reg) in &self.regions {
            for &p in &reg.fulls {
                if self.parts[num::usize_of_u32(p)] != PartitionState::Full(*s) {
                    return Err(format!("{s} claims full {p} but partition disagrees"));
                }
            }
            if let Some((p, len)) = reg.partial {
                if (self.parts[num::usize_of_u32(p)] != PartitionState::Partial { server: *s, len })
                {
                    return Err(format!("{s} claims partial {p} but partition disagrees"));
                }
            }
        }
        Ok(())
    }
}

impl ToJson for PartitionTable {
    fn to_json(&self) -> Json {
        // Servers are listed explicitly so zero-share servers survive the
        // round trip; partitions encode as null (free), {"s": id} (full) or
        // {"s": id, "len": l} (partial). The per-server and free indexes
        // are derived state and are rebuilt on load.
        let servers = Json::arr(self.servers().map(|s| Json::u32(s.0)).collect());
        let parts = Json::arr(
            self.parts
                .iter()
                .map(|p| match *p {
                    PartitionState::Free => Json::Null,
                    PartitionState::Full(s) => Json::obj(vec![("s", Json::u32(s.0))]),
                    PartitionState::Partial { server, len } => {
                        Json::obj(vec![("s", Json::u32(server.0)), ("len", Json::u64(len))])
                    }
                })
                .collect(),
        );
        Json::obj(vec![
            ("log2_parts", Json::u32(self.log2_parts)),
            ("servers", servers),
            ("parts", parts),
        ])
    }
}

impl FromJson for PartitionTable {
    fn from_json(j: &Json) -> std::result::Result<Self, JsonError> {
        let log2_parts = j.get("log2_parts")?.as_u32()?;
        let mut table = PartitionTable::new(log2_parts)
            .map_err(|e| JsonError::shape(format!("bad partition table: {e}")))?;
        for s in j.get("servers")?.as_arr()? {
            let id = ServerId(s.as_u32()?);
            table
                .register_server(id)
                .map_err(|e| JsonError::shape(format!("bad server list: {e}")))?;
        }
        let parts = j.get("parts")?.as_arr()?;
        if parts.len() != table.parts.len() {
            return Err(JsonError::shape(format!(
                "expected {} partitions, got {}",
                table.parts.len(),
                parts.len()
            )));
        }
        let width = table.part_width();
        for (i, p) in parts.iter().enumerate() {
            if p.is_null() {
                continue;
            }
            let server = ServerId(p.get("s")?.as_u32()?);
            let reg = table
                .regions
                .get_mut(&server)
                .ok_or_else(|| JsonError::shape(format!("partition owned by unlisted {server}")))?;
            let idx = u32::try_from(i).map_err(|_| JsonError::shape("partition index overflow"))?;
            match p.get("len") {
                Err(_) => {
                    table.parts[i] = PartitionState::Full(server);
                    reg.fulls.insert(idx);
                }
                Ok(l) => {
                    let len = l.as_u64()?;
                    if len == 0 || len >= width || reg.partial.is_some() {
                        return Err(JsonError::shape(format!(
                            "invalid partial partition {i} for {server}"
                        )));
                    }
                    table.parts[i] = PartitionState::Partial { server, len };
                    reg.partial = Some((idx, len));
                }
            }
            table.free.remove(&idx);
        }
        table.check_invariants_shape().map_err(JsonError::shape)?;
        Ok(table)
    }
}

/// Last hex digit of a server id, for [`PartitionTable::render`].
fn id_char(s: ServerId) -> char {
    char::from_digit(s.0 % 16, 16).unwrap_or('?')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn render_shows_layout() {
        let t = PartitionTable::with_equal_shares(&ids(2), 2).unwrap();
        // 4 partitions, two servers with one full partition each.
        let r = t.render(2);
        assert_eq!(r.matches('|').count(), 5);
        assert_eq!(r.matches('0').count(), 2);
        assert_eq!(r.matches('1').count(), 2);
        assert_eq!(r.matches('.').count(), 4);
    }

    #[test]
    fn render_partial_shows_prefix() {
        let mut t = PartitionTable::new(1).unwrap();
        t.register_server(ServerId(0)).unwrap();
        let mut targets = BTreeMap::new();
        targets.insert(ServerId(0), HALF_UNIT);
        t.rebalance(&targets).unwrap();
        // One server holds exactly one of the two partitions.
        let r = t.render(4);
        assert_eq!(r, "|0000|....|");
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
        let r0 = t.regions_of(ServerId(0)).unwrap();
        let (p, len) = r0.partial.unwrap();
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
        let changes = t.rebalance(&targets).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.shares(), targets);
        // Total changed width = shed + gained = 2 * delta.
        let moved: u64 = changes.iter().map(|c| c.segment.len).sum();
        assert_eq!(moved, 2 * delta);
        // Untouched servers' shares unchanged.
        assert_eq!(t.share(ServerId(1)), before[&ServerId(1)]);
        assert_eq!(t.share(ServerId(2)), before[&ServerId(2)]);
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
        assert_eq!(t.share(ServerId(2)), 0);
        // Regrow from zero.
        let mut targets2 = t.shares();
        *targets2.get_mut(&ServerId(0)).unwrap() -= 1000;
        *targets2.get_mut(&ServerId(2)).unwrap() += 1000;
        t.rebalance(&targets2).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.share(ServerId(2)), 1000);
    }

    #[test]
    fn remove_server_frees_regions() {
        let mut t = PartitionTable::with_equal_shares(&ids(4), 3).unwrap();
        let share1 = t.share(ServerId(1));
        let mut changes = Vec::new();
        let freed = t.remove_server(ServerId(1), &mut changes).unwrap();
        assert_eq!(freed, share1);
        assert_eq!(t.num_servers(), 3);
        let freed_width: u64 = changes.iter().map(|c| c.segment.len).sum();
        assert_eq!(freed_width, share1);
        t.check_invariants_shape().unwrap();
        assert_eq!(t.total_share(), HALF_UNIT - share1);
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
