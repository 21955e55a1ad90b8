//! # anu-policies — the four placement policies of the evaluation
//!
//! Concrete [`anu_cluster::PlacementPolicy`] implementations (§7):
//!
//! * [`SimpleRandom`] — static, each file set on a hash-random server;
//! * [`RoundRobin`] — static, equal file-set counts per server;
//! * [`Prescient`] — dynamic bin-packing with perfect knowledge of server
//!   speeds and the *future* workload (the upper-bound comparator);
//! * [`AnuPolicy`] — adaptive, non-uniform randomization: no knowledge,
//!   latency-driven region tuning (the paper's contribution).
//!
//! [`lpt`] holds the makespan solver behind the prescient policy, and
//! [`rendezvous`] adds an HRW/CRUSH-style hashing baseline (static and
//! statically-weighted) for the related-work comparison.

//! ```
//! use anu_cluster::{run, ClusterConfig};
//! use anu_policies::{AnuPolicy, RoundRobin};
//! use anu_workload::{CostModel, SyntheticConfig, WeightDist};
//!
//! let cluster = ClusterConfig::paper(); // speeds 1/3/5/7/9, 2-min tick
//! let workload = SyntheticConfig {
//!     n_file_sets: 30,
//!     total_requests: 2_000,
//!     duration_secs: 400.0,
//!     weights: WeightDist::PowerOfUniform { alpha: 50.0 },
//!     mean_cost_secs: 0.1,
//!     cost: CostModel::UniformSpread { spread: 0.2 },
//!     seed: 3,
//! }
//! .generate();
//!
//! let result = run(&cluster, &workload, &mut AnuPolicy::with_seed(3));
//! assert_eq!(result.summary.completed_requests, 2_000);
//!
//! let baseline = run(&cluster, &workload, &mut RoundRobin::new());
//! assert_eq!(baseline.summary.migrations, 0); // static policy never moves
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anu;
pub mod assign;
pub mod lpt;
pub mod prescient;
pub mod rendezvous;
pub mod round_robin;
pub mod simple_random;

pub use anu::AnuPolicy;
pub use assign::diff_moves;
pub use lpt::Instance;
pub use prescient::Prescient;
pub use rendezvous::Rendezvous;
pub use round_robin::RoundRobin;
pub use simple_random::SimpleRandom;
