//! Fails with: arithmetic operation that can potentially result in unexpected side-effects
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

/// Bare scaling of a tick count to microseconds.
pub fn scale(a: u64) -> u64 {
    a * 1_000
}
