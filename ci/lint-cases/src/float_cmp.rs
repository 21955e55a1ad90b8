//! Fails with: strict comparison of `f32` or `f64`
//!
//! Beside the rejected comparison: comparisons with zero and with
//! infinity, which are exact.
#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::float_cmp))]

/// Float equality in a fixed-point module.
pub fn is_half(a: f64) -> bool {
    a == 0.5
}

/// Whether a share is empty.
pub fn is_empty(a: f64) -> bool {
    a == 0.0
}

/// Whether a latency is unbounded.
pub fn is_unbounded(a: f64) -> bool {
    a == f64::INFINITY
}
