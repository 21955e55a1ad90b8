//! Fails with: use of a disallowed type `std::hash::RandomState`
use std::hash::{BuildHasher, DefaultHasher as Plain, RandomState as Seeded};

/// Hashes with process entropy and with an unspecified algorithm, both
/// under other names.
pub fn entropy() -> u64 {
    let _plain = Plain::new();
    Seeded::new().hash_one(1_u32)
}
