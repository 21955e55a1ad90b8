//! Checked numeric conversions for the fixed-point share arithmetic.
//!
//! The fixed-point modules ([`crate::interval`], [`crate::shares`],
//! [`crate::partition`], [`crate::placement`]) are forbidden from using bare
//! `as` casts (each denies `clippy::as_conversions`): a silent truncation
//! there corrupts share invariants without failing any assertion. Every
//! conversion they need goes through one of these helpers instead, so the
//! rounding/saturation semantics are named and documented at the call site.
//!
//! This module is the one place allowed to spell out the primitive casts.

/// The width of the whole unit interval, `2^64`, as an `f64`.
///
/// Exact: powers of two are representable at any magnitude. Spelled as a
/// cast because the decimal literal re-prints with different digits, which
/// trips `clippy::lossy_float_literal` despite being lossless.
pub const UNIT_WIDTH_F64: f64 = (1u128 << 64) as f64;

/// `u64` → `f64`, rounding to the nearest representable value.
///
/// Exact for inputs below `2^53`; above that the relative error is at most
/// `2^-53`, which is far below the tolerances used anywhere shares are
/// compared.
#[inline]
pub fn f64_of(x: u64) -> f64 {
    x as f64
}

/// `usize` → `f64`, rounding to the nearest representable value.
///
/// Same semantics as [`f64_of`]; collection sizes in this codebase are far
/// below `2^53`, so in practice the conversion is exact.
#[inline]
pub fn f64_of_usize(x: usize) -> f64 {
    x as f64
}

/// `f64` → `u64` by truncation toward zero, clamped to `[0, u64::MAX]`.
///
/// NaN maps to `0`. This is the conversion used to turn a (clamped)
/// fractional share into fixed-point units; callers restore exact sums with
/// a largest-remainder pass afterwards.
#[inline]
pub fn trunc_u64(x: f64) -> u64 {
    if x.is_nan() {
        return 0;
    }
    // Saturating float-to-int semantics of `as` (Rust ≥ 1.45) are exactly
    // the clamp we document.
    x as u64
}

/// `f64` → `usize` by rounding to nearest, clamped to `[0, usize::MAX]`.
///
/// NaN maps to `0`. Used to size partition take-counts from fractional
/// ratios.
#[inline]
pub fn round_usize(x: f64) -> usize {
    if x.is_nan() {
        return 0;
    }
    x.round() as usize
}

/// `usize` → `u64`, lossless on every platform Rust supports (usize is at
/// most 64 bits).
#[inline]
pub fn u64_of_usize(x: usize) -> u64 {
    x as u64
}

/// `u64` → `usize`, saturating on 32-bit targets.
///
/// Partition indices are bounded by the number of parts (a small power of
/// two), so the saturation never fires there; it exists so the conversion is
/// total instead of silently wrapping.
#[inline]
pub fn usize_of(x: u64) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// `u32` → `usize`, lossless on every platform Rust supports (usize is at
/// least 32 bits — Rust does not target 16-bit address spaces).
#[inline]
pub fn usize_of_u32(x: u32) -> usize {
    x as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_exact_small() {
        assert_eq!(f64_of(0), 0.0);
        assert_eq!(f64_of(1 << 52), 4_503_599_627_370_496.0);
        assert_eq!(f64_of_usize(12345), 12345.0);
    }

    #[test]
    fn trunc_clamps_and_truncates() {
        assert_eq!(trunc_u64(3.9), 3);
        assert_eq!(trunc_u64(-1.0), 0);
        assert_eq!(trunc_u64(f64::NAN), 0);
        assert_eq!(trunc_u64(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn round_usize_semantics() {
        assert_eq!(round_usize(2.5), 3);
        assert_eq!(round_usize(2.4), 2);
        assert_eq!(round_usize(-7.0), 0);
        assert_eq!(round_usize(f64::NAN), 0);
    }

    #[test]
    fn widening_is_lossless() {
        assert_eq!(u64_of_usize(usize::MAX), usize::MAX as u64);
        assert_eq!(usize_of_u32(u32::MAX), u32::MAX as usize);
    }

    #[test]
    fn narrowing_saturates() {
        assert_eq!(usize_of(42), 42);
    }
}
