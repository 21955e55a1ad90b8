//! Fails with: unknown lint: `clippy::nonsense`
/// A lint exception naming no lint.
#[expect(clippy::nonsense, reason = "not a lint name")]
pub fn unknown_waiver() {}
