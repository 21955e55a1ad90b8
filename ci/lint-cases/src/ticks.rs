//! Tick arithmetic: bare integer arithmetic in the files that hold tick
//! and fixed-point math, which must saturate or check instead of wrapping.
//!
//! `crates/des/src/time.rs` and `crates/core/src/interval.rs` deny
//! `clippy::arithmetic_side_effects` in library code; so does each case
//! here.

#[cfg(feature = "tick_add")]
pub mod tick_add;
#[cfg(feature = "tick_compound")]
pub mod tick_compound;
#[cfg(feature = "tick_scale")]
pub mod tick_scale;

#[cfg(test)]
mod tests {
    use crate::tests::{rejects, rust_files_containing};

    /// The attribute each tick-arithmetic file carries.
    const DENY: &str = "#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]";

    #[test]
    fn bare_add_in_time_rs_is_flagged() {
        rejects("ticks/tick_add").flags("a + b");
        assert!(rust_files_containing(DENY).contains(&"crates/des/src/time.rs".to_owned()));
    }

    #[test]
    fn integer_multiply_is_flagged() {
        rejects("ticks/tick_scale").flags("a * 1_000");
    }

    #[test]
    fn compound_assign_is_flagged() {
        rejects("ticks/tick_compound").flags("ticks += 1");
    }

    #[test]
    fn saturating_helpers_pass() {
        rejects("ticks/tick_add").accepts("(a.saturating_add(b), a.checked_add(b))");
    }

    #[test]
    fn float_arithmetic_is_exempt() {
        rejects("ticks/tick_add").accepts("events * 1_000.0 / seconds + 0.5");
    }

    #[test]
    fn generic_angle_brackets_do_not_confuse() {
        rejects("ticks/tick_add")
            .accepts("pub fn longest<'a>(queues: &'a [Vec<u64>]")
            .accepts(".filter(|q| q.len() < 8 && q.first() > Some(limit))");
    }

    #[test]
    fn test_code_is_exempt() {
        rejects("ticks/tick_add").accepts("assert_eq!(super::add(1, 2), 1 + 2);");
    }

    #[test]
    fn only_designated_files_are_checked() {
        assert_eq!(
            rust_files_containing(DENY),
            ["crates/core/src/interval.rs", "crates/des/src/time.rs"]
        );
    }
}
