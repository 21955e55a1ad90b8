//! Fixed-point arithmetic on the unit interval.
//!
//! ANU randomization hashes file sets to offsets in a *unit interval* and
//! assigns servers to sub-regions of it. We represent the interval as the
//! full range of `u64`: a position is a 64-bit fixed-point fraction in
//! `[0, 1)`, so hash values map onto positions directly and all region
//! arithmetic is exact — there is no floating-point drift in the invariants.
//!
//! The whole interval has width `2^64`, which does not fit in `u64`; the
//! algorithm never needs it, because the half-occupancy invariant means the
//! total mapped width is exactly [`HALF_UNIT`] = `2^63`.

#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use crate::num;
use std::fmt;

/// Total mapped width under the half-occupancy invariant: half of `2^64`.
pub const HALF_UNIT: u64 = 1 << 63;

/// A position in the unit interval, as a 64-bit fixed-point fraction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pos(pub u64);

impl Pos {
    /// The position as a floating-point fraction in `[0, 1)`.
    #[inline]
    pub fn as_fraction(self) -> f64 {
        num::f64_of(self.0) / num::UNIT_WIDTH_F64
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_fraction())
    }
}

/// Convert a width in fixed-point units to a fraction of the unit interval.
#[inline]
pub fn width_fraction(width: u64) -> f64 {
    num::f64_of(width) / num::UNIT_WIDTH_F64
}

/// Convert a fraction of *half* the interval (i.e. of the total mapped
/// region) into fixed-point units. `1.0` maps to [`HALF_UNIT`].
#[inline]
pub fn half_units(fraction_of_half: f64) -> u64 {
    debug_assert!(fraction_of_half.is_finite());
    let clamped = fraction_of_half.clamp(0.0, 1.0);
    // `f64_of(HALF_UNIT)` is exact (power of two); the product rounds to the
    // nearest representable value, which is fine — exact sums are restored
    // by the largest-remainder pass in `shares`.
    num::trunc_u64(clamped * num::f64_of(HALF_UNIT))
}

/// A half-open segment `[start, start + len)` of the unit interval.
///
/// Used to report region ownership changes so callers (and tests) can reason
/// about exactly which parts of the interval changed hands during a
/// reconfiguration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Segment {
    /// Inclusive start position.
    pub start: Pos,
    /// Width in fixed-point units; never zero.
    pub len: u64,
}

impl Segment {
    /// Create a segment; panics (debug only) on zero length.
    #[inline]
    pub fn new(start: Pos, len: u64) -> Self {
        debug_assert!(len > 0, "zero-length segment");
        Segment { start, len }
    }

    /// Exclusive end position. Saturates at the top of the interval; the
    /// partition geometry guarantees segments never actually wrap.
    #[inline]
    pub fn end(&self) -> Pos {
        Pos(self.start.0.saturating_add(self.len))
    }

    /// Does the segment contain `p`?
    #[inline]
    pub fn contains(&self, p: Pos) -> bool {
        p >= self.start && p.0.saturating_sub(self.start.0) < self.len
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_of_positions() {
        assert_eq!(Pos(0).as_fraction(), 0.0);
        assert!((Pos(HALF_UNIT).as_fraction() - 0.5).abs() < 1e-12);
        // u64::MAX rounds up to 2^64 in f64, so the fraction saturates at 1.
        assert!(Pos(u64::MAX).as_fraction() <= 1.0);
    }

    #[test]
    fn half_units_roundtrip() {
        assert_eq!(half_units(1.0), HALF_UNIT);
        assert_eq!(half_units(0.0), 0);
        let q = half_units(0.25);
        assert!((width_fraction(q) - 0.125).abs() < 1e-12); // quarter of half = eighth of unit
    }

    #[test]
    fn half_units_clamps() {
        assert_eq!(half_units(2.0), HALF_UNIT);
        assert_eq!(half_units(-3.0), 0);
    }

    #[test]
    fn segment_contains() {
        let s = Segment::new(Pos(100), 50);
        assert!(s.contains(Pos(100)));
        assert!(s.contains(Pos(149)));
        assert!(!s.contains(Pos(150)));
        assert!(!s.contains(Pos(99)));
        assert_eq!(s.end(), Pos(150));
    }

    #[test]
    fn segment_display() {
        let s = Segment::new(Pos(0), HALF_UNIT);
        let text = s.to_string();
        assert!(text.starts_with("[0.000000"));
    }
}
