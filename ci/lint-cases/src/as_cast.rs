//! Fails with: silent `as` conversion
//!
//! Beside the rejected cast: lossless conversions spelled as `From`.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::float_cmp))]

/// A bare cast in a fixed-point module.
pub fn widen(x: u64) -> f64 {
    x as f64
}

/// Lossless widenings, which say so in their types.
pub fn widen_exactly(x: u32) -> (f64, u64) {
    (f64::from(x), u64::from(x))
}
