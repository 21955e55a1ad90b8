//! Benchmarks of the simulation substrates: the DES kernel's event
//! calendar and FIFO stations.

use anu_bench::bench;
use anu_des::{Calendar, FifoStation, Job, SimDuration, SimTime, StartService};
use std::hint::black_box;

fn bench_calendar() {
    bench("calendar/schedule+pop 1024 events", || {
        let mut cal = Calendar::new();
        for i in 0..1024u64 {
            // Scatter times to exercise heap reordering.
            cal.schedule(SimTime((i * 2_654_435_761) % 1_000_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = cal.pop() {
            acc = acc.wrapping_add(v);
        }
        black_box(acc)
    });
}

fn bench_calendar_hold() {
    // The hold model: a few events pending, each pop followed by one
    // schedule, as in the world's event loop (trace replay chains its
    // next arrival right after the current one fires). With i.i.d.
    // increments the entry beside the heap is the earliest only about one
    // pop in eight, where replay pops it for every arrival. Draining a
    // filled calendar, as above, never refills that entry.
    let mut cal = Calendar::new();
    for i in 0..8u64 {
        cal.schedule(SimTime(i * 100), i);
    }
    let mut x = 1u64;
    bench("calendar/hold 8 pending: pop+schedule", || {
        // A 64-bit LCG spreads the next time over 0..1024 µs ahead.
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if let Some((now, v)) = cal.pop() {
            cal.schedule(now + SimDuration(x >> 54), v);
        }
        cal.pending()
    });
}

/// The world's queued job: its service demand, then its request's tag
/// and file set.
type WorldJob = Job<(u32, u32)>;
const _: () = assert!(size_of::<WorldJob>() == 16);

fn bench_station() {
    bench("fifo_station/arrive+complete", || {
        let mut st: FifoStation<(u32, u32)> = FifoStation::new();
        let mut t = SimTime::ZERO;
        for i in 0..256u32 {
            t += SimDuration(10);
            if let StartService::At(done) = st.arrive(
                t,
                WorldJob {
                    service: SimDuration(25),
                    meta: (i, i % 16),
                },
            ) {
                black_box(done);
            }
        }
        let mut now = t;
        while st.population() > 0 {
            now += SimDuration(25);
            black_box(st.complete(now));
        }
        st.busy_time()
    });
}

fn main() {
    bench_calendar();
    bench_calendar_hold();
    bench_station();
}
