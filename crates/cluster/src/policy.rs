//! The placement-policy interface the cluster world drives.
//!
//! A policy decides which server owns each file set. The world calls it at
//! startup, at every tuning tick (with the servers' latency reports), and
//! on membership changes. Policies see only server *identities and
//! liveness* through [`ClusterView`] — never speeds; a policy that wants
//! capability knowledge (the prescient baseline) must be constructed with
//! it explicitly, which keeps the "no a-priori knowledge" property of ANU
//! auditable at the type level.

use anu_core::{FileSetId, LoadReport, ServerId};
use anu_des::SimTime;

/// What a policy can see of the cluster at a decision point.
#[derive(Clone, Debug)]
pub struct ClusterView {
    /// All servers and whether each is alive, in id order.
    pub servers: Vec<(ServerId, bool)>,
    /// Current simulated time.
    pub now: SimTime,
}

impl ClusterView {
    /// Ids of alive servers.
    pub fn alive(&self) -> Vec<ServerId> {
        self.servers
            .iter()
            .filter(|(_, a)| *a)
            .map(|(s, _)| *s)
            .collect()
    }
}

/// A single file-set move order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MoveSet {
    /// The file set to move.
    pub set: FileSetId,
    /// Destination server.
    pub to: ServerId,
}

/// The file-set → server assignment: one entry per file set, indexed by
/// [`FileSetId`]`.0` (file sets are `0..n`), `None` while a set is
/// orphaned (its owner crashed or retired and it has not landed yet).
pub type Assignment = Vec<Option<ServerId>>;

/// A load-placement policy.
///
/// All methods are infallible: a policy must always produce a decision
/// (possibly "no moves"). Moves targeting dead servers are rejected by the
/// world with a panic, as that is a policy bug, not an environment error.
pub trait PlacementPolicy {
    /// Human-readable policy name (figure labels).
    fn name(&self) -> &str;

    /// Initial placement of `file_sets`, which are `0..n`, before the
    /// workload starts. Every entry of the result must be `Some`.
    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment;

    /// Tuning tick: latency reports for the last interval are in. Return
    /// the file sets to move. Static policies return no moves.
    fn on_tick(
        &mut self,
        view: &ClusterView,
        reports: &[LoadReport],
        assignment: &Assignment,
    ) -> Vec<MoveSet>;

    /// Server `failed` just died. Return moves that re-home every file set
    /// currently assigned to it (the world passes the same view/assignment
    /// it would for a tick). Moves for non-orphaned sets are allowed.
    fn on_fail(
        &mut self,
        view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet>;

    /// Server `recovered` just came (back) up. Return any rebalancing
    /// moves toward it.
    fn on_recover(
        &mut self,
        view: &ClusterView,
        recovered: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet>;

    /// Server `commissioned` was brought online by a *planned* membership
    /// change (the autoscaler), not a crash recovery. Defaults to
    /// [`on_recover`](PlacementPolicy::on_recover); adaptive policies may
    /// override it to carry tuner state across the planned transition —
    /// a standby that retired cleanly can resume at the share the tuner
    /// had already learned for it instead of re-converging from scratch.
    fn on_commission(
        &mut self,
        view: &ClusterView,
        commissioned: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.on_recover(view, commissioned, assignment)
    }

    /// Server `decommissioned` is being retired by a *planned* membership
    /// change (the autoscaler), not a crash. Defaults to
    /// [`on_fail`](PlacementPolicy::on_fail); adaptive policies may
    /// override it to park tuner state for the server instead of
    /// forgetting it — the retirement is orderly, so the last measurements
    /// are trustworthy, unlike a crashed server's.
    fn on_decommission(
        &mut self,
        view: &ClusterView,
        decommissioned: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.on_fail(view, decommissioned, assignment)
    }

    /// Per-epoch tuner telemetry from the most recent [`on_tick`],
    /// consumed on read. Policies without a tuner (the static baselines)
    /// return `None`, the default.
    ///
    /// [`on_tick`]: PlacementPolicy::on_tick
    fn take_epoch(&mut self) -> Option<anu_core::TuneEpoch> {
        None
    }

    /// The tuning delegate died (fault injection). A deterministic
    /// re-election pauses tuning for `pause_ticks` tuning intervals; the
    /// new delegate then resumes from the last applied shares. Policies
    /// without a delegate (the static baselines) ignore it, the default.
    fn on_delegate_fail(&mut self, _pause_ticks: u32) {}

    /// Audit policy-internal placement invariants at a fault/tick
    /// boundary. `in_flight` lists file sets currently migrating, in id
    /// order; their `assignment` entry is the releasing owner, or `None`
    /// for a set a crash orphaned, and may legitimately lag the policy's
    /// target. Return
    /// one message per violation; policies without internal placement
    /// state report none, the default.
    fn audit(&self, _assignment: &Assignment, _in_flight: &[FileSetId]) -> Vec<String> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_alive_filters() {
        let v = ClusterView {
            servers: vec![
                (ServerId(0), true),
                (ServerId(1), false),
                (ServerId(2), true),
            ],
            now: SimTime::ZERO,
        };
        assert_eq!(v.alive(), vec![ServerId(0), ServerId(2)]);
    }
}
