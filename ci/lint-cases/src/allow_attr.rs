//! Fails with: #[allow] attribute found
/// A silent exception: `#[allow]` never reports that it went stale.
#[allow(clippy::unwrap_used, reason = "an allow, even with a reason")]
pub fn allowed(x: Option<u32>) -> u32 {
    x.unwrap()
}
