//! Fails with: use of `println!`
//!
//! Beside the rejected prints: a print under a reasoned exception, and
//! prints in test code.

/// Prints from library code.
pub fn chatty() {
    println!("hello");
    eprintln!("hello again");
}

/// Prints under a reasoned exception.
#[expect(clippy::print_stdout, reason = "a reviewed exception")]
pub fn excused() {
    println!("excused");
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_print() {
        println!("from a test");
    }
}
