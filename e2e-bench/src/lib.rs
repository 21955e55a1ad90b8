#![doc = include_str!("../README.md")]

pub mod bench;
pub mod fingerprint;
pub mod host;
pub mod policy;
pub mod spans;
pub mod workload;

pub use bench::{run_bench, Config, Metric, Report};
pub use workload::Workload;
