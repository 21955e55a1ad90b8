//! Fails with: used `unwrap()` on an `Option` value
//!
//! Before the rejected call: the call's name in strings of every kind and
//! in comments, and a lifetime beside a quote char, none of which may hide
//! the code after it. Beside it: a fallback is not a panic, and test code
//! may unwrap.

/// Text that spells the call, in a string that continues over lines.
pub const TEXT: &str = "x.unwrap() is \
    not a call";

/// The call's name in a raw string, a byte string and a raw byte string.
pub const SPELLED: [&[u8]; 3] = [
    r#"x.unwrap() "quoted""#.as_bytes(),
    b"x.unwrap()",
    br#"x.unwrap() "quoted""#,
];

// A comment that calls x.unwrap() is not code. /* Nor is x.unwrap() here. */
/// A lifetime and a quote char: neither opens a literal.
pub fn first<'a>(s: &'a str, fallback: &str) -> (&'a str, char) {
    (s, fallback.chars().next().unwrap_or('\''))
}

/// Panics in library code.
pub fn panicky(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Falls back instead of panicking.
pub fn fallback(x: Option<u32>, y: Result<u32, u32>) -> u32 {
    x.unwrap_or(0).max(y.unwrap_or_else(|e| e))
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(super::panicky(Some(1)), Some(1).unwrap());
    }
}
