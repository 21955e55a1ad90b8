//! # anu-bench
//!
//! Micro-benchmark harness for the ANU reproduction. The repo builds
//! fully offline, so instead of an external benchmark framework this
//! crate ships a small std-only timing loop ([`bench()`]) and the actual
//! benchmarks live in `benches/` as plain `harness = false` binaries:
//!
//! * `placement` — micro-benches of the core data structures (hash family,
//!   locate, rebalance, membership);
//! * `simulation` — DES kernel costs: the event calendar and FIFO
//!   stations;
//! * `ablations` — tuner cost per heuristic configuration, full delegate
//!   cycles, membership-churn relocation.
//!
//! Run with `cargo bench -p anu-bench`. Whole simulations are timed by
//! `e2e-bench/`, the repo's end-to-end benchmark; the figure *data* comes
//! from the `figures` binary in `anu-harness`.
//!
//! Timing methodology: each benchmark warms up until ~50 ms of work has
//! run, then takes [`SAMPLES`] timed batches and reports the median and
//! min batch time per iteration. The median is robust to scheduler noise;
//! the min approximates the noise-free cost.

use std::hint::black_box;
use std::time::Instant;

/// Number of timed batches per benchmark.
pub const SAMPLES: usize = 12;

/// Target wall time per timed batch, in nanoseconds (~20 ms).
const TARGET_BATCH_NS: u128 = 20_000_000;

/// Result of one benchmark: nanoseconds per iteration.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Median batch time divided by iterations per batch.
    pub median_ns: f64,
    /// Fastest batch time divided by iterations per batch.
    pub min_ns: f64,
    /// Iterations executed per timed batch.
    pub iters_per_batch: u64,
}

/// Time `f`, printing a `name: median .. min` line, and return the numbers.
///
/// `f` is the complete unit of work; wrap inputs in
/// [`std::hint::black_box`] yourself where the optimizer could otherwise
/// hoist them.
#[expect(
    clippy::print_stdout,
    reason = "the bench harness's whole job is printing measurements to the terminal"
)]
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    // Calibrate: grow the batch size until one batch takes ~TARGET_BATCH_NS.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed().as_nanos();
        if dt >= TARGET_BATCH_NS / 4 || iters >= 1 << 30 {
            if let Some(scaled) = (iters as u128 * TARGET_BATCH_NS).checked_div(dt) {
                iters = scaled.clamp(1, 1 << 30) as u64;
            }
            break;
        }
        iters = iters.saturating_mul(8);
    }

    let mut batches_ns: Vec<u128> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        batches_ns.push(t0.elapsed().as_nanos());
    }
    batches_ns.sort_unstable();
    let median = batches_ns[batches_ns.len() / 2] as f64 / iters as f64;
    let min = batches_ns[0] as f64 / iters as f64;
    let m = Measurement {
        median_ns: median,
        min_ns: min,
        iters_per_batch: iters,
    };
    println!(
        "{:<55} {:>12}/iter  (min {}, {} iters/batch)",
        name,
        fmt_ns(median),
        fmt_ns(min),
        iters
    );
    m
}

/// Render a nanosecond quantity with a human-readable unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let m = bench("noop-ish", || black_box(1u64 + 1));
        assert!(m.median_ns >= 0.0);
        assert!(m.iters_per_batch >= 1);
    }

    #[test]
    fn formats_units() {
        assert!(fmt_ns(12.3).ends_with("ns"));
        assert!(fmt_ns(12_300.0).ends_with("us"));
        assert!(fmt_ns(12_300_000.0).ends_with("ms"));
        assert!(fmt_ns(2_300_000_000.0).ends_with('s'));
    }
}
