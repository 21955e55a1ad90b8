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

fn bench_station() {
    bench("fifo_station/arrive+complete", || {
        let mut st: FifoStation<u32> = FifoStation::new();
        let mut t = SimTime::ZERO;
        for i in 0..256u32 {
            t += SimDuration(10);
            if let StartService::At(done) = st.arrive(
                t,
                Job {
                    arrival: t,
                    service: SimDuration(25),
                    meta: i,
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
        st.counters()
    });
}

fn main() {
    bench_calendar();
    bench_station();
}
