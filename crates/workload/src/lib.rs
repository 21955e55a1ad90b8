//! # anu-workload — metadata workload generation
//!
//! Workloads for the shared-disk metadata cluster simulation, matching the
//! two workload families of the paper's evaluation (§7):
//!
//! * [`synthetic`] — the synthetic workload: 100,000 Poisson requests
//!   against 500 file sets over 10,000 s with extreme, stable per-file-set
//!   heterogeneity (`alpha^x` weights);
//! * [`dfslike`] — a DFSTrace-like one-hour trace: 21 file sets, 112,590
//!   requests, >100x activity spread, bursts concentrated in the most
//!   active file sets (a documented substitution for the original
//!   DFSTrace data — see DESIGN.md);
//! * [`weights`] — the per-file-set weight distributions;
//! * [`storm`] — storm workloads for elasticity testing: flash crowds,
//!   diurnal curves, correlated popularity shifts, and an adversarial
//!   rotating-hot-set generator, all deterministic time-warps or phased
//!   re-draws of the synthetic base;
//! * [`request`] — the common representation and the prescient oracle
//!   ([`Workload::window_demands`]). A [`Request`] is 12 bytes and holds
//!   an arrival below 2^40 µs (about 12.7 days), a file set below 2^24
//!   and a cost below 2^32 µs (about 71.6 minutes); the generators and
//!   the storm warp refuse anything past these bounds rather than
//!   truncate it.

//! ```
//! use anu_workload::{CostModel, SyntheticConfig, WeightDist};
//!
//! // A small paper-style synthetic workload, exactly 1000 requests.
//! let w = SyntheticConfig {
//!     n_file_sets: 20,
//!     total_requests: 1_000,
//!     duration_secs: 100.0,
//!     weights: WeightDist::PowerOfUniform { alpha: 100.0 },
//!     mean_cost_secs: 0.0,
//!     cost: CostModel::UniformSpread,
//!     seed: 7,
//! }
//! .with_offered_load(0.5, 25.0) // rho = 0.5 against the paper's cluster
//! .generate();
//! assert_eq!(w.requests.len(), 1_000);
//! assert!((w.offered_load(25.0) - 0.5).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dfslike;
pub mod request;
pub mod storm;
pub mod synthetic;
pub mod weights;

pub use dfslike::DfsLikeConfig;
pub use request::{Request, Workload, WorkloadStats};
pub use storm::{StormConfig, StormKind};
pub use synthetic::{CostModel, SyntheticConfig};
pub use weights::WeightDist;
