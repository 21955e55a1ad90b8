//! Fails with: this lint expectation is unfulfilled
//!
//! Beside the rejected exception: one that still suppresses its lint.

/// A lint exception that no longer suppresses anything.
#[expect(clippy::unwrap_used, reason = "nothing here unwraps any more")]
pub fn stale() {}

/// A lint exception that still excuses the call below it.
#[expect(clippy::unwrap_used, reason = "the caller checked")]
pub fn used(x: Option<u32>) -> u32 {
    x.unwrap()
}
