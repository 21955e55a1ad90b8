//! Fails with: cannot find module or crate `anu_harness`
use anu_harness::runner::Sweep;

/// Names a crate outside this crate's dependencies.
pub fn sweeps(_: &Sweep) {}
