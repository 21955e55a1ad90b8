//! Conversion of fractional share targets into exact fixed-point shares.
//!
//! The tuner computes *relative* shares as `f64` fractions; the partition
//! table needs fixed-point widths that sum to exactly [`HALF_UNIT`]. The
//! conversion uses largest-remainder rounding so the sum is always exact and
//! the per-server error is below one fixed-point unit (≈ 5·10⁻²⁰ of the
//! interval).

#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::float_cmp))]

use crate::ids::ServerId;
use crate::interval::HALF_UNIT;
use crate::num;
use std::collections::BTreeMap;

/// Equal fixed-point shares for `servers`, summing to exactly
/// [`HALF_UNIT`]. Remainder units go to the lowest-id servers.
pub fn equal_targets(servers: &[ServerId]) -> BTreeMap<ServerId, u64> {
    assert!(!servers.is_empty(), "equal_targets of empty server list");
    let n = num::u64_of_usize(servers.len());
    let base = HALF_UNIT / n;
    let extra = HALF_UNIT % n;
    let mut sorted: Vec<ServerId> = servers.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), servers.len(), "duplicate server ids");
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, base + u64::from(num::u64_of_usize(i) < extra)))
        .collect()
}

/// Normalize arbitrary non-negative weights into fixed-point shares summing
/// to exactly [`HALF_UNIT`].
///
/// * Negative or non-finite weights are treated as zero.
/// * If every weight is zero, shares are equal.
/// * Rounding uses largest remainder (ties broken by server id) so the sum
///   is exact.
pub fn normalize_targets(weights: &BTreeMap<ServerId, f64>) -> BTreeMap<ServerId, u64> {
    assert!(!weights.is_empty(), "normalize_targets of empty map");
    let clean: Vec<(ServerId, f64)> = weights
        .iter()
        .map(|(&s, &w)| (s, if w.is_finite() && w > 0.0 { w } else { 0.0 }))
        .collect();
    let total: f64 = clean.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return equal_targets(&clean.iter().map(|(s, _)| *s).collect::<Vec<_>>());
    }

    // First pass: floor of the exact share, remembering the remainder.
    let mut out = BTreeMap::new();
    let mut remainders: Vec<(f64, ServerId)> = Vec::with_capacity(clean.len());
    let mut assigned: u64 = 0;
    for (s, w) in &clean {
        let exact = (w / total) * num::f64_of(HALF_UNIT);
        let floor = num::trunc_u64(exact.floor().min(num::f64_of(HALF_UNIT)).max(0.0));
        assigned += floor;
        remainders.push((exact - num::f64_of(floor), *s));
        out.insert(*s, floor);
    }

    // Second pass: fix the sum exactly. `f64` has 53 bits of mantissa, so
    // with shares near 2^63 each floor can be off by ~2^10 units in either
    // direction; distribute the shortfall by largest remainder, or claw back
    // any excess from the largest shares.
    if assigned <= HALF_UNIT {
        let mut leftover = HALF_UNIT - assigned;
        remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut i = 0;
        while leftover > 0 {
            let (_, s) = remainders[i % remainders.len()];
            let give = (leftover / num::u64_of_usize(remainders.len()))
                .max(1)
                .min(leftover);
            *out.entry(s).or_insert(0) += give;
            leftover -= give;
            i += 1;
        }
    } else {
        let mut excess = assigned - HALF_UNIT;
        let mut order: Vec<ServerId> = out.keys().copied().collect();
        order.sort_by_key(|s| std::cmp::Reverse(out[s]));
        let mut i = 0;
        while excess > 0 {
            let s = order[i % order.len()];
            let v = out.entry(s).or_insert(0);
            let take = excess.min(*v);
            *v -= take;
            excess -= take;
            i += 1;
        }
    }
    debug_assert_eq!(out.values().sum::<u64>(), HALF_UNIT);
    out
}

/// The shares as fractions of the total mapped region (sum ≈ 1).
pub fn as_fractions(shares: &BTreeMap<ServerId, u64>) -> BTreeMap<ServerId, f64> {
    shares
        .iter()
        .map(|(&s, &v)| (s, num::f64_of(v) / num::f64_of(HALF_UNIT)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn equal_targets_exact_sum() {
        for n in 1..=17u32 {
            let t = equal_targets(&ids(n));
            assert_eq!(t.values().sum::<u64>(), HALF_UNIT, "n={n}");
            let min = *t.values().min().unwrap();
            let max = *t.values().max().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn normalize_proportional() {
        let mut w = BTreeMap::new();
        w.insert(ServerId(0), 1.0);
        w.insert(ServerId(1), 3.0);
        let t = normalize_targets(&w);
        assert_eq!(t.values().sum::<u64>(), HALF_UNIT);
        let ratio = t[&ServerId(1)] as f64 / t[&ServerId(0)] as f64;
        assert!((ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_handles_zero_and_nan() {
        let mut w = BTreeMap::new();
        w.insert(ServerId(0), 0.0);
        w.insert(ServerId(1), f64::NAN);
        w.insert(ServerId(2), -5.0);
        let t = normalize_targets(&w);
        // All invalid -> equal shares.
        assert_eq!(t.values().sum::<u64>(), HALF_UNIT);
        let min = *t.values().min().unwrap();
        let max = *t.values().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn normalize_zero_weight_gets_zero_share() {
        let mut w = BTreeMap::new();
        w.insert(ServerId(0), 0.0);
        w.insert(ServerId(1), 2.0);
        let t = normalize_targets(&w);
        assert_eq!(t[&ServerId(0)], 0);
        assert_eq!(t[&ServerId(1)], HALF_UNIT);
    }

    #[test]
    fn fractions_sum_to_one() {
        let t = equal_targets(&ids(7));
        let f = as_fractions(&t);
        let sum: f64 = f.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn equal_targets_rejects_duplicates() {
        equal_targets(&[ServerId(1), ServerId(1)]);
    }
}
