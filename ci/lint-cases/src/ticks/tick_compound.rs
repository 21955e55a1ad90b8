//! Fails with: arithmetic operation that can potentially result in unexpected side-effects
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

/// A tick counter advanced in place.
pub fn advance(mut ticks: u64) -> u64 {
    ticks += 1;
    ticks
}
