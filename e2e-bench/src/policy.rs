//! A [`PlacementPolicy`] wrapper that times every call into the policy.
//!
//! It forwards every trait method, the defaulted ones included. A wrapper
//! that left `on_commission` or `on_decommission` to the trait defaults
//! would send ANU's planned membership changes through its crash arms and
//! change the simulation; `tests/e2e_smoke.rs` pins that it does not.

use crate::spans::Clock;
use anu_cluster::{Assignment, ClusterView, MoveSet, PlacementPolicy};
use anu_core::{FileSetId, LoadReport, ServerId, TuneEpoch};
use std::cell::RefCell;

/// Which layer boundary a policy call belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyCall {
    /// `initial`.
    Initial,
    /// `on_tick`.
    Tick,
    /// `take_epoch`, the tuner telemetry handoff after each tick.
    Epoch,
    /// `on_fail`, `on_recover`, `on_commission`, `on_decommission` and
    /// `on_delegate_fail`.
    Membership,
    /// `audit`.
    Audit,
}

impl PolicyCall {
    /// The span name.
    pub fn span_name(self) -> &'static str {
        match self {
            PolicyCall::Initial => "policy.initial",
            PolicyCall::Tick => "policy.tick",
            PolicyCall::Epoch => "policy.epoch",
            PolicyCall::Membership => "policy.membership",
            PolicyCall::Audit => "policy.audit",
        }
    }
}

/// Times each call into `inner` and counts the moves it orders.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn PlacementPolicy,
    clock: Clock,
    /// `(call, start_ns, end_ns)` of every call, in order. A cell because
    /// `audit` takes `&self`.
    calls: RefCell<Vec<(PolicyCall, u64, u64)>>,
    /// File-set moves the policy returned, over every call.
    pub moves_ordered: u64,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`, timing against `clock`.
    pub fn new(inner: &'a mut dyn PlacementPolicy, clock: Clock) -> Self {
        TimedPolicy {
            inner,
            clock,
            calls: RefCell::new(Vec::new()),
            moves_ordered: 0,
        }
    }

    /// `(call, start_ns, end_ns)` of every call so far, in order.
    pub fn into_calls(self) -> Vec<(PolicyCall, u64, u64)> {
        self.calls.into_inner()
    }

    fn record(&self, call: PolicyCall, start: u64) {
        self.calls
            .borrow_mut()
            .push((call, start, self.clock.now_ns()));
    }

    fn timed<T>(&mut self, call: PolicyCall, f: impl FnOnce(&mut dyn PlacementPolicy) -> T) -> T {
        let start = self.clock.now_ns();
        let out = f(&mut *self.inner);
        self.record(call, start);
        out
    }

    fn moves(
        &mut self,
        call: PolicyCall,
        f: impl FnOnce(&mut dyn PlacementPolicy) -> Vec<MoveSet>,
    ) -> Vec<MoveSet> {
        let moves = self.timed(call, f);
        self.moves_ordered += moves.len() as u64;
        moves
    }
}

impl PlacementPolicy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        self.timed(PolicyCall::Initial, |p| p.initial(view, file_sets))
    }

    fn on_tick(
        &mut self,
        view: &ClusterView,
        reports: &[LoadReport],
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves(PolicyCall::Tick, |p| p.on_tick(view, reports, assignment))
    }

    fn on_fail(
        &mut self,
        view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves(PolicyCall::Membership, |p| {
            p.on_fail(view, failed, assignment)
        })
    }

    fn on_recover(
        &mut self,
        view: &ClusterView,
        recovered: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves(PolicyCall::Membership, |p| {
            p.on_recover(view, recovered, assignment)
        })
    }

    fn on_commission(
        &mut self,
        view: &ClusterView,
        commissioned: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves(PolicyCall::Membership, |p| {
            p.on_commission(view, commissioned, assignment)
        })
    }

    fn on_decommission(
        &mut self,
        view: &ClusterView,
        decommissioned: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves(PolicyCall::Membership, |p| {
            p.on_decommission(view, decommissioned, assignment)
        })
    }

    fn take_epoch(&mut self) -> Option<TuneEpoch> {
        self.timed(PolicyCall::Epoch, |p| p.take_epoch())
    }

    fn on_delegate_fail(&mut self, pause_ticks: u32) {
        self.timed(PolicyCall::Membership, |p| p.on_delegate_fail(pause_ticks));
    }

    fn audit(&self, assignment: &Assignment, in_flight: &[FileSetId]) -> Vec<String> {
        let start = self.clock.now_ns();
        let out = self.inner.audit(assignment, in_flight);
        self.record(PolicyCall::Audit, start);
        out
    }
}
