//! # anu-cluster — shared-disk metadata cluster simulation
//!
//! The simulated Storage Tank metadata tier the paper evaluates on (§2,
//! §7), built on the [`anu_des`] kernel:
//!
//! * [`spec`] — server specs (relative speeds), tuning tick, migration
//!   cost (5–10 s flush + init), cold-cache penalty, fault schedule;
//! * [`policy`] — the [`PlacementPolicy`] trait the world drives; policies
//!   see server identity and liveness only, never capability;
//! * [`world`] — the one deterministic event loop, whatever the arrival
//!   process (trace replay or closed-loop clients): request routing, FIFO
//!   service, file-set migration with request buffering, failure draining
//!   and failover, autoscaling and shedding;
//! * [`closed_loop`] — closed-loop clients and the SAN data path (the
//!   paper's §2 motivation), an arrival source of the world;
//! * [`faults`] — deterministic chaos: compiles MTTF/MTTR-style fault
//!   environments into concrete, pre-validated fault scripts;
//! * [`autoscaler`] — latency-driven elasticity: commissions and retires
//!   servers from a standby pool with hysteresis, cooldown, and a quorum
//!   floor, through the same membership path failures use;
//! * [`metrics`] — per-server latency time series and run summaries
//!   (imbalance CoV, flip count, availability, …);
//! * [`profile`] — self-profiling hooks: the world reports
//!   metrics-publication scope boundaries to a [`RunProfiler`], with time
//!   measurement owned by the caller.
//!
//! The concrete policies (simple randomization, round-robin, prescient,
//! ANU) live in `anu-policies`; this crate only defines the contract so
//! the dependency graph stays acyclic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autoscaler;
pub mod closed_loop;
mod dense;
pub mod faults;
pub mod metrics;
pub mod policy;
pub mod profile;
pub mod spec;
pub mod world;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleAction};
pub use closed_loop::{run_closed_loop, ClosedLoopConfig, ClosedLoopResult};
pub use faults::{plan_faults, FaultPlanConfig};
pub use metrics::{flip_count, late_imbalance, late_mean, EpochRecord, RunResult, RunSummary};
pub use policy::{Assignment, ClusterView, MoveSet, PlacementPolicy};
pub use profile::{NoProfiler, ProfileScope, RunProfiler};
pub use spec::{
    ClusterConfig, ColdCacheConfig, FaultEvent, MigrationConfig, ServerSpec, ShedConfig,
};
pub use world::{run, run_traced, run_traced_profiled};
