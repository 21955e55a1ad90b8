//! A fixed reference computation, timed between simulations so that
//! drift in host speed can be divided out of the end-to-end times.
//!
//! On a shared host the speed available to one thread drifts by ±15% over
//! minutes, and by 2× at worst. Medians within a run cannot remove drift
//! that lasts longer than the run. The reference computation resembles
//! the simulator's event loop (a binary-heap calendar with random reads
//! and writes in a table), but it is this package's own code, so a change
//! to the simulator cannot change it. Its table fits in a 2 MiB L2 cache
//! and is warmed before each timing, so the memory a simulation leaves
//! behind does not move the sample.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference computation took on the 2-vCPU Xeon this
/// benchmark was defined on, when that host was quiet. Times are reported
/// as seconds at this host speed.
pub const REF_NOMINAL_S: f64 = 0.0037;

/// Heap operations per reference computation.
const REF_OPS: u64 = 40_000;
/// Pending entries in the reference calendar.
const REF_PENDING: u64 = 2_048;
/// `u64` slots in the reference table: 1 MiB.
const REF_TABLE: usize = 1 << 17;

/// The reference computation and its table.
pub struct HostRef {
    table: Vec<u64>,
}

impl Default for HostRef {
    fn default() -> Self {
        HostRef {
            table: (0..REF_TABLE as u64).collect(),
        }
    }
}

impl HostRef {
    /// Host seconds the reference computation takes now: the median of
    /// three runs after an untimed one.
    pub fn sample(&mut self) -> f64 {
        black_box(self.run());
        let mut t = [0.0; 3];
        for slot in &mut t {
            let t0 = Instant::now();
            black_box(self.run());
            *slot = t0.elapsed().as_secs_f64();
        }
        t.sort_by(f64::total_cmp);
        t[1]
    }

    fn run(&mut self) -> u64 {
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..REF_PENDING)
            .map(|i| Reverse(((i * 7_919) % 100_000, i)))
            .collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..REF_OPS {
            let Some(Reverse((t, id))) = heap.pop() else {
                break;
            };
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let n = self.table.len();
            let slot = (x % n as u64) as usize;
            self.table[slot] = self.table[slot].wrapping_add(id ^ t);
            acc = acc.wrapping_add(self.table[(x >> 32) as usize % n]);
            let dt = if x & 1 == 0 { x % 1_000 } else { (x >> 8) % 50 };
            heap.push(Reverse((t + dt + 1, id)));
        }
        acc
    }
}

/// `raw_s` measured between reference samples `before` and `after`,
/// converted to seconds at [`REF_NOMINAL_S`] host speed.
pub fn normalize(raw_s: f64, before: f64, after: f64) -> f64 {
    raw_s * REF_NOMINAL_S / ((before + after) / 2.0)
}
