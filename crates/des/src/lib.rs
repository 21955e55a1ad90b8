//! # anu-des — a discrete-event simulation kernel
//!
//! A from-scratch Rust replacement for YACSIM, the C discrete-event
//! simulation library the paper's evaluation uses (§7). It provides exactly
//! the pieces a queueing-cluster simulation needs, with determinism as the
//! first design constraint:
//!
//! * [`time`] — integer microsecond [`SimTime`]/[`SimDuration`];
//! * [`calendar`] — the future-event list with `(time, schedule-order)`
//!   total ordering and O(1) cancellation;
//! * [`resource`] — a single-server FIFO service station (the paper's
//!   queuing discipline) with utilization accounting;
//! * [`random`] — labelled deterministic RNG streams plus the
//!   exponential sampler and an alias table for weighted draws;
//! * [`stats`] — online moments, per-interval latency collection, and the
//!   bucketed time series behind every latency-vs-time figure.
//!
//! The kernel is *passive*: it owns no event loop. A world struct pops
//! events from its [`Calendar`] and drives its stations, keeping all
//! domain logic (and all mutable state) in one place — the natural shape
//! for Rust's ownership model, and trivially reproducible.
//!
//! ```
//! use anu_des::{Calendar, FifoStation, Job, SimDuration, SimTime, StartService};
//!
//! #[derive(Debug)]
//! enum Ev { Arrive, Done }
//!
//! let mut cal = Calendar::new();
//! let mut station: FifoStation<u32> = FifoStation::new();
//! cal.schedule(SimTime::from_secs_f64(1.0), Ev::Arrive);
//! let mut completed = 0;
//! while let Some((now, ev)) = cal.pop() {
//!     match ev {
//!         Ev::Arrive => {
//!             let job = Job { arrival: now, service: SimDuration::from_millis(5), meta: 0 };
//!             if let StartService::At(t) = station.arrive(now, job) {
//!                 cal.schedule(t, Ev::Done);
//!             }
//!         }
//!         Ev::Done => {
//!             let (_job, next) = station.complete(now);
//!             completed += 1;
//!             if let Some(t) = next {
//!                 cal.schedule(t, Ev::Done);
//!             }
//!         }
//!     }
//! }
//! assert_eq!(completed, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod random;
pub mod resource;
pub mod stats;
pub mod time;

pub use calendar::{Calendar, CalendarStats, EventHandle};
pub use random::{task_seed, AliasTable, RngStream};
pub use resource::{FifoStation, Job, StartService};
pub use stats::{Bucket, IntervalStats, OnlineStats, TimeSeries};
pub use time::{SimDuration, SimTime};
