//! Fails with: missing documentation for a function
//!
//! Beside the rejected item: items rustc's `missing_docs` does not ask
//! documentation of.

pub fn undocumented() {}

pub use std::cmp::max;

/// A documented item with attributes between its doc and its name.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Documented(pub u32);

/// Calls a helper that is not public outside the crate.
pub fn documented() -> u32 {
    crate_only()
}

pub(crate) fn crate_only() -> u32 {
    1
}

#[cfg(test)]
pub mod tests {
    pub fn test_helper() {}
}
