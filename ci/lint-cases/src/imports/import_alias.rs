//! Fails with: use of a disallowed method `std::time::Instant::now`
use std::time::Instant as Clock;

/// Reads the wall clock through an alias.
pub fn clock() {
    let _t = Clock::now();
}
