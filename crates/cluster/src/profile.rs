//! Wall-clock self-profiling hooks for the simulation event loop.
//!
//! The world reports scoped regions to a profiler by calling
//! [`RunProfiler::enter`] / [`RunProfiler::exit`] around them. The trait
//! lives here so the sim path stays free of timing concerns: the default
//! [`NoProfiler`] is a pair of empty inline calls, and any implementation
//! that reads a clock belongs to the caller (the `e2e-bench` harness
//! times metrics publication through it). Profiling never touches
//! simulated time or the calendar, so a profiled run executes the exact
//! same event sequence as an unprofiled one.

/// Subsystems the world reports scope boundaries for. Scopes are entered
/// only at tick boundaries and at the end of the run — never on the
/// per-request path — so profiling overhead stays negligible at any
/// event rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileScope {
    /// Metrics publication: folding local accumulators into the registry
    /// and taking the per-epoch snapshot.
    MetricsUpdate,
}

/// Receives scope boundaries from the event loop.
///
/// Calls are strictly nested and never overlap (the world holds one
/// scope at a time). Implementations must not perturb the simulation:
/// no calendar access, no sim-time reads — wall-clock accounting only.
pub trait RunProfiler {
    /// A scoped region begins now.
    fn enter(&mut self, scope: ProfileScope);
    /// The region opened by the matching [`enter`] ends now.
    ///
    /// [`enter`]: RunProfiler::enter
    fn exit(&mut self, scope: ProfileScope);
}

/// Ignores every scope; the default for unprofiled runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProfiler;

impl RunProfiler for NoProfiler {
    #[inline]
    fn enter(&mut self, _scope: ProfileScope) {}
    #[inline]
    fn exit(&mut self, _scope: ProfileScope) {}
}
