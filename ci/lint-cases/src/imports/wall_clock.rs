//! Fails with: use of a disallowed method `std::time::Instant::now`
//!
//! Beside the rejected clock read: a `Duration`, which is a plain amount
//! of time and reads no clock.

/// Reads the wall clock.
pub fn clock() {
    let _t = std::time::Instant::now();
}

/// A timeout as a plain amount of time.
pub fn timeout() -> std::time::Duration {
    std::time::Duration::from_millis(250)
}
