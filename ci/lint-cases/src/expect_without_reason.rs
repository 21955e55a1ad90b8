//! Fails with: without specifying a reason
//!
//! Beside the rejected exception: one with a written reason, on the
//! statement it excuses.

/// A lint exception with no written reason.
pub fn badly_waived(x: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used)]
    x.unwrap()
}

/// A lint exception with its reason.
pub fn waived(x: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used, reason = "the caller checked")]
    let value = x.unwrap();
    value.max(1)
}
