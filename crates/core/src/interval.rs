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
}
