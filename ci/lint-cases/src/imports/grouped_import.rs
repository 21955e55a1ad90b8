//! Fails with: use of a disallowed type `std::collections::HashSet`
use std::{collections::HashSet, time::SystemTime};

/// Imports two banned types in one grouped `use`.
pub fn grouped() -> (HashSet<u32>, SystemTime) {
    (HashSet::new(), SystemTime::UNIX_EPOCH)
}
