//! # anu-core — Adaptive, Non-Uniform (ANU) randomization
//!
//! A from-scratch implementation of the load-placement technique of
//! **Wu & Burns, "Handling Heterogeneity in Shared-Disk File Systems"
//! (SC'03)**, derived from the SIEVE adaptive hashing strategy of
//! Brinkmann et al.
//!
//! ANU randomization places indivisible workload units (*file sets*) onto a
//! set of servers by hashing each unit's unique name into a unit interval in
//! which servers occupy tunable *mapped regions*:
//!
//! * the interval is split into `P = 2^⌈log2(2n)⌉` equal **partitions**;
//! * each server owns whole partitions plus at most one partial partition;
//! * mapped regions sum to exactly **half** the interval, so a free
//!   partition always exists for a recovering or added server;
//! * names hashing into unmapped space are **re-hashed** with the next
//!   function of an agreed-upon family (expected two probes, no I/O);
//! * a **delegate** periodically rescales the regions from observed request
//!   latencies, with three heuristics (thresholding, top-off, divergent
//!   tuning) suppressing over-tuning.
//!
//! Compared to simple randomization this makes placement *tunable* — it
//! absorbs arbitrary server and workload heterogeneity — while keeping the
//! scalability of hashing: shared state grows with servers, not file sets,
//! and reconfiguration moves the minimum amount of load, preserving caches.
//!
//! ## Quick example
//!
//! ```
//! use anu_core::{PlacementMap, ServerId, Tuner, TuningConfig, LoadReport};
//!
//! let servers: Vec<ServerId> = (0..4).map(ServerId).collect();
//! let mut map = PlacementMap::with_default_rounds(&servers, 42).unwrap();
//!
//! // Every node can locate any file set by hashing its unique name.
//! let owner = map.locate(b"projects/alpha");
//! assert!(servers.contains(&owner));
//!
//! // The delegate tunes shares from latency reports.
//! let mut tuner = Tuner::new(TuningConfig::paper());
//! let reports: Vec<LoadReport> = servers
//!     .iter()
//!     .map(|&s| LoadReport {
//!         server: s,
//!         mean_latency_ms: if s.0 == 0 { 900.0 } else { 80.0 },
//!         requests: 100,
//!         age_ticks: 0,
//!     })
//!     .collect();
//! if let Some(targets) = tuner.plan(&map.share_fractions(), &reports) {
//!     map.rebalance(&targets).unwrap();
//! }
//! // The slow server's mapped region shrank; it now owns fewer file sets.
//! assert!(map.share_fractions()[&ServerId(0)] < 0.25);
//! ```

pub mod config;
pub mod error;
pub mod hash;
pub mod heuristics;
pub mod ids;
pub mod interval;
pub mod json;
pub mod num;
pub mod pairwise;
pub mod partition;
pub mod placement;
pub mod shares;
pub mod tuner;

pub use config::AnuConfig;
pub use error::{AnuError, Result};
pub use hash::HashFamily;
pub use heuristics::{AverageKind, TuningConfig};
pub use ids::{FileSetId, ServerId, SetName};
pub use interval::{Pos, HALF_UNIT};
pub use json::{Json, JsonError, ToJson};
pub use pairwise::{Matching, PairwiseTuner};
pub use partition::{PartitionState, PartitionTable};
pub use placement::{Placement, PlacementMap, DEFAULT_ROUNDS};
pub use tuner::{
    weighted_mean_latency, LoadReport, SharePlanner, TuneDecision, TuneEpoch, TuneOutcome, Tuner,
};
