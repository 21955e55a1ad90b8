//! Identifier newtypes shared across the ANU stack.
//!
//! Servers and file sets are identified by small integer ids. File sets in
//! Storage Tank carry an administrator-assigned *unique name*; the hash-based
//! placement operates on the bytes of that name. [`FileSetId`] doubles as a
//! compact unique name (its little-endian bytes) while [`SetName`] lets
//! callers use arbitrary byte strings (e.g. path names) instead.

use std::fmt;

/// Identifier of a metadata server (cluster node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for ServerId {
    fn from(v: u32) -> Self {
        ServerId(v)
    }
}

/// Identifier of a file set — the indivisible unit of workload assignment.
///
/// A file set is a subtree of the global namespace. The id's little-endian
/// byte representation is used as the file set's unique name when hashing it
/// into the unit interval.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FileSetId(pub u64);

impl fmt::Display for FileSetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fs{}", self.0)
    }
}

impl From<u64> for FileSetId {
    fn from(v: u64) -> Self {
        FileSetId(v)
    }
}

impl FileSetId {
    /// The unique name bytes of this file set, fed to the placement hash.
    #[inline]
    pub fn name_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }
}

/// A borrowed file-set unique name: any byte string.
///
/// In the target architecture the unique name is assigned by an
/// administrator; in other systems it might be a pathname in a global
/// namespace or a fingerprint of the data contents. Placement only ever
/// observes the bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SetName<'a>(pub &'a [u8]);

impl<'a> AsRef<[u8]> for SetName<'a> {
    fn as_ref(&self) -> &[u8] {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ServerId(3).to_string(), "s3");
        assert_eq!(FileSetId(17).to_string(), "fs17");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(ServerId(2) < ServerId(10));
        assert!(FileSetId(2) < FileSetId(10));
    }

    #[test]
    fn name_bytes_roundtrip() {
        let id = FileSetId(0xdead_beef_0123_4567);
        assert_eq!(u64::from_le_bytes(id.name_bytes()), id.0);
    }

    #[test]
    fn set_name_from_str() {
        let n = SetName("projects/alpha".as_bytes());
        assert_eq!(n.as_ref(), b"projects/alpha");
    }
}
