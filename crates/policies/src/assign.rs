//! Assignment helpers shared by all policies: the sets a server holds,
//! and the moves that turn an assignment into a target.

use anu_cluster::{Assignment, MoveSet};
use anu_core::{FileSetId, ServerId};

/// The file sets `assignment` places on `server`, in id order.
pub(crate) fn sets_on(
    assignment: &Assignment,
    server: ServerId,
) -> impl Iterator<Item = FileSetId> + '_ {
    assignment
        .iter()
        .enumerate()
        .filter(move |&(_, &s)| s == Some(server))
        .map(|(i, _)| FileSetId(i as u64))
}

/// Compute the moves turning `current` into `target`, both indexed by
/// file set. A set orphaned by a failure (`None` in `current`) is moved
/// unconditionally.
pub fn diff_moves(current: &Assignment, target: &[ServerId]) -> Vec<MoveSet> {
    target
        .iter()
        .enumerate()
        .filter(|&(i, &to)| current.get(i).copied().flatten() != Some(to))
        .map(|(i, &to)| MoveSet {
            set: FileSetId(i as u64),
            to,
        })
        .collect()
}

/// Fixtures shared by the policies' tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use anu_cluster::ClusterView;
    use anu_des::SimTime;

    /// `n` alive servers with ids `0..n`, at time zero.
    pub(crate) fn view(n: u32) -> ClusterView {
        ClusterView {
            servers: (0..n).map(|i| (ServerId(i), true)).collect(),
            now: SimTime::ZERO,
        }
    }

    /// File sets `0..n`.
    pub(crate) fn sets(n: u64) -> Vec<FileSetId> {
        (0..n).map(FileSetId).collect()
    }

    /// Apply `moves` to `assignment`, as the world does once they land.
    pub(crate) fn apply(assignment: &mut Assignment, moves: Vec<MoveSet>) {
        for m in moves {
            assignment[m.set.0 as usize] = Some(m.to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_finds_changes_only() {
        let cur = vec![Some(ServerId(0)), Some(ServerId(1)), None];
        let tgt = [
            ServerId(0), // unchanged
            ServerId(2), // moved
            ServerId(0), // orphaned
        ];
        let mv = diff_moves(&cur, &tgt);
        assert_eq!(mv.len(), 2);
        assert!(mv.contains(&MoveSet {
            set: FileSetId(1),
            to: ServerId(2)
        }));
        assert!(mv.contains(&MoveSet {
            set: FileSetId(2),
            to: ServerId(0)
        }));
    }

    #[test]
    fn empty_diff() {
        assert!(diff_moves(&Assignment::new(), &[]).is_empty());
    }
}
