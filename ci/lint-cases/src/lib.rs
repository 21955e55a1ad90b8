//! Lint cases: constructs the lint gate must reject, each beside near
//! misses it must accept, and the tests that check both.
//!
//! Each case module sits behind the feature of the same name; none is on
//! by default, so with no feature enabled the crate is clean and the
//! workspace's own clippy steps pass over it. The tests check each case
//! alone, with the library lint flags `ci/check.sh` uses (read from that
//! script) and the sim-path `clippy.toml` the workspace uses. A case must
//! fail with the text on its `Fails with:` line, and no diagnostic may
//! point at a near miss. The cases are grouped as the rules are: the
//! modules here hold the library rules (no panics, no stdio, documented
//! items, reasoned exceptions, exact fixed point), [`ticks`] the tick
//! arithmetic, [`imports`] what a sim-path crate may reach, and [`rng`]
//! how random streams are shared. A constant seed, the one determinism
//! hazard no compiler check sees, is caught by `tests/seed_sensitivity.rs`
//! at the workspace root instead.

pub mod imports;
pub mod rng;
pub mod ticks;

#[cfg(feature = "allow_attr")]
pub mod allow_attr;
#[cfg(feature = "as_cast")]
pub mod as_cast;
/// A `///` line that lost two slashes. rustfmt parses every `mod` file and
/// this one does not parse, so it comes in through `include!`.
#[cfg(feature = "doc_slash")]
pub mod doc_slash {
    include!("doc_slash.rs");
}
#[cfg(feature = "expect_panic")]
pub mod expect_panic;
#[cfg(feature = "expect_without_reason")]
pub mod expect_without_reason;
#[cfg(feature = "float_cmp")]
pub mod float_cmp;
#[cfg(feature = "missing_docs")]
pub mod missing_docs;
#[cfg(feature = "print")]
pub mod print;
#[cfg(feature = "stale_expect")]
pub mod stale_expect;
#[cfg(feature = "unknown_lint")]
pub mod unknown_lint;
#[cfg(feature = "unwrap")]
pub mod unwrap;

#[cfg(test)]
mod deps;
#[cfg(test)]
mod tests;
