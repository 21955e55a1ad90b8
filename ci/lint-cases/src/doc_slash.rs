// Fails with: expected item after doc comment
//
// Before the rejected line: a division split over lines, and prose with a
// slash at the start of a line inside a raw string.

/// The mean of two tick counts, rounded down.
pub fn mean(a: f64, b: f64) -> f64 {
    (a + b)
        / 2.0
}

/// Prose whose lines start with a slash, as text.
pub const PROSE: &str = r"
/ a slash at the start of a line
/ is text inside a string
";

/// Documented, except the continuation below lost two slashes,
/ so the line is not part of the doc comment.
pub fn mangled_doc() {}
