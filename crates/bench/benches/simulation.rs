//! Benchmarks of the simulation substrates: the DES kernel's event
//! calendar and FIFO stations. `calendar/replay` is the calendar bench
//! shaped like the world's event loop; the other two calendar benches
//! never pop the entry beside the heap the way replay does.

use anu_bench::bench;
use anu_des::{
    AliasTable, Calendar, FifoStation, Job, RngStream, SimDuration, SimTime, StartService,
};
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

/// An event of the replay bench, the size of the world's: a request's
/// arrival by its position in the arrival ring, or a station's completion.
#[derive(Clone, Copy)]
enum ReplayEvent {
    Arrival(u32),
    Complete(u32),
}

fn bench_calendar_replay() {
    // Trace replay's shape. A Poisson arrival stream pops from the entry
    // beside the heap, and each arrival first chains its successor at the
    // successor's own time, so the stream never enters the heap. It then
    // routes its request to one of five FIFO stations with speeds 1, 3, 5,
    // 7 and 9, in proportion to speed, so each runs at load 0.5. A
    // station's completions go into the heap, one per busy station, as
    // `handle_arrival` and `handle_complete` schedule them. One iteration
    // pops one event and handles it; the stream cycles through a ring of
    // pre-drawn gaps and routes, so it never runs dry.
    const RING: u32 = 1 << 16;
    const SPEEDS: [u64; 5] = [1, 3, 5, 7, 9];
    const GAP_US: f64 = 1_000.0;
    // The speed-1 service time at which each station's load is 0.5:
    // 0.5 × GAP_US × (1 + 3 + 5 + 7 + 9).
    const COST_US: u64 = 12_500;
    let mut rng = RngStream::new(1, "bench/calendar-replay");
    let route = AliasTable::new(&SPEEDS.map(|s| s as f64));
    // Entry i: the gap to arrival i + 1, and the station arrival i joins.
    let ring: Vec<(SimDuration, usize)> = (0..RING)
        .map(|_| {
            let gap = SimDuration(rng.exponential(1.0 / GAP_US).round() as u64);
            (gap, route.sample(&mut rng))
        })
        .collect();
    let service = SPEEDS.map(|s| SimDuration(COST_US / s));
    let mut queued = [0u32; 5];
    let mut cal = Calendar::new();
    cal.schedule(SimTime::ZERO, ReplayEvent::Arrival(0));
    bench("calendar/replay 5 stations: pop+handle one event", || {
        let Some((now, event)) = cal.pop() else {
            unreachable!("the arrival stream never runs dry")
        };
        match event {
            ReplayEvent::Arrival(i) => {
                let (gap, s) = ring[i as usize];
                cal.schedule(now + gap, ReplayEvent::Arrival((i + 1) % RING));
                queued[s] += 1;
                if queued[s] == 1 {
                    cal.schedule(now + service[s], ReplayEvent::Complete(s as u32));
                }
            }
            ReplayEvent::Complete(s) => {
                let s = s as usize;
                queued[s] -= 1;
                if queued[s] > 0 {
                    cal.schedule(now + service[s], ReplayEvent::Complete(s as u32));
                }
            }
        }
        now
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
    bench_calendar_replay();
    bench_station();
}
