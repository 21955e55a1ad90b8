//! Fails with: use of a disallowed type `std::collections::HashMap`
/// Builds a hash-ordered map.
pub fn hashed() -> usize {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.len()
}
