//! Fails with: arithmetic operation that can potentially result in unexpected side-effects
//!
//! Beside the rejected sum: the saturating and checked helpers tick
//! arithmetic goes through, float arithmetic, generic types and
//! comparisons, a dereference, and sums in test code.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

/// Bare addition of two tick counts.
pub fn add(a: u64, b: u64) -> u64 {
    a + b
}

/// The saturating and checked sums.
pub fn add_exactly(a: u64, b: u64) -> (u64, Option<u64>) {
    (a.saturating_add(b), a.checked_add(b))
}

/// A rate in floating point, which cannot wrap.
pub fn rate(events: f64, seconds: f64) -> f64 {
    events * 1_000.0 / seconds + 0.5
}

/// Generic angle brackets and comparisons are not arithmetic.
pub fn longest<'a>(queues: &'a [Vec<u64>], limit: &u64) -> Option<&'a Vec<u64>> {
    queues
        .iter()
        .filter(|q| q.len() < 8 && q.first() > Some(limit))
        .max_by_key(|q| q.len())
}

/// A dereference is not arithmetic.
pub fn copied(t: &u64) -> u64 {
    *t
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_add() {
        assert_eq!(super::add(1, 2), 1 + 2);
    }
}
