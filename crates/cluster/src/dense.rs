//! Compact server-id interning for the simulation hot path.
//!
//! The event loop addresses per-server state millions of times per run.
//! Keying that state by `BTreeMap<ServerId, …>` costs an ordered tree walk
//! per touch; interning the (fixed) id universe once at setup turns every
//! touch into a `Vec` index. Sorted interning order means dense index
//! order *is* id order, so iterating a dense table yields exactly the
//! sequence a `BTreeMap` would — report and CSV boundaries stay
//! byte-identical without any re-sorting. File sets need no interner: a
//! workload's sets are `0..n`, so a set's id is already its index.

use anu_core::ServerId;

/// A frozen, sorted server-id universe mapping ids to dense indices `0..len`.
///
/// Ids are typically contiguous from zero (server ids in configs), in
/// which case `index` is a bounds check and an equality compare;
/// non-contiguous universes fall back to binary search. Either way, index
/// order equals sorted id order.
pub(crate) struct Interner {
    ids: Vec<ServerId>,
}

impl Interner {
    /// Intern `ids` (deduplicated, sorted).
    pub(crate) fn new(mut ids: Vec<ServerId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Interner { ids }
    }

    /// Number of interned ids.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Dense index of `id`, or `None` if it was never interned.
    #[inline]
    pub(crate) fn try_index(&self, id: ServerId) -> Option<usize> {
        let raw = id.0 as usize;
        // Contiguous-from-zero fast path: the id *is* its index.
        if self.ids.get(raw).is_some_and(|&k| k == id) {
            return Some(raw);
        }
        self.ids.binary_search(&id).ok()
    }

    /// Dense index of `id`.
    ///
    /// # Panics
    /// Panics if `id` was never interned — on the simulation paths this
    /// means an event or policy referenced an id outside the universe
    /// fixed at setup, which is a contract violation worth halting on.
    #[inline]
    pub(crate) fn index(&self, id: ServerId) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "ids outside the setup-time universe are a caller bug"
        )]
        self.try_index(id)
            .expect("id outside the interned universe")
    }

    /// The id at dense index `idx`.
    #[inline]
    pub(crate) fn get(&self, idx: usize) -> ServerId {
        self.ids[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_ids_use_identity_indexing() {
        let i = Interner::new((0..5).map(ServerId).collect());
        for k in 0..5 {
            assert_eq!(i.index(ServerId(k)), k as usize);
            assert_eq!(i.get(k as usize), ServerId(k));
        }
        assert_eq!(i.try_index(ServerId(5)), None);
    }

    #[test]
    fn sparse_ids_fall_back_to_search() {
        let i = Interner::new(vec![ServerId(10), ServerId(3), ServerId(700)]);
        assert_eq!(i.len(), 3);
        assert_eq!(i.index(ServerId(3)), 0);
        assert_eq!(i.index(ServerId(10)), 1);
        assert_eq!(i.index(ServerId(700)), 2);
        assert_eq!(i.try_index(ServerId(4)), None);
        assert_eq!(
            (0..3).map(|k| i.get(k)).collect::<Vec<_>>(),
            [ServerId(3), ServerId(10), ServerId(700)]
        );
    }

    #[test]
    fn duplicates_are_collapsed() {
        let i = Interner::new(vec![ServerId(1), ServerId(1), ServerId(0)]);
        assert_eq!(i.len(), 2);
        assert_eq!(i.index(ServerId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "outside the interned universe")]
    fn unknown_id_panics() {
        let i = Interner::new(vec![ServerId(0)]);
        let _ = i.index(ServerId(9));
    }
}
