//! Fails with: used `expect()` on an `Option` value

/// Panics with a message.
pub fn expecting(x: Option<u32>) -> u32 {
    x.expect("a value")
}

/// Panics outright.
pub fn giving_up() {
    panic!("gave up");
}
