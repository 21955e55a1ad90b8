//! Model-based property tests for the DES kernel.
//!
//! The calendar is checked against a naive sorted-vector model under random
//! schedule/cancel/pop interleavings and under the pop-then-schedule shape
//! trace replay drives; the FIFO station against a hand-rolled
//! queue simulation; the statistics against exact recomputation.
//!
//! Cases are generated by the kernel's own seeded [`RngStream`] so the
//! suite is deterministic and needs no external property-test framework:
//! 128 cases per property, reproducible from the printed case index.

use anu_des::{
    Calendar, CalendarStats, FifoStation, Job, OnlineStats, RngStream, SimDuration, SimTime,
    StartService,
};

const CASES: u64 = 128;

/// Operations for the calendar model test.
#[derive(Clone, Debug)]
enum CalOp {
    /// Schedule at now + delta.
    Schedule(u64),
    /// Cancel the k-th handle issued so far (if any).
    Cancel(usize),
    /// Cancel the newest handle (if any). Right after a pop, that is the
    /// entry held beside the heap.
    CancelNewest,
    /// Pop one event.
    Pop,
}

fn random_ops(rng: &mut RngStream, len: usize) -> Vec<CalOp> {
    (0..len)
        .map(|_| match rng.index(3) {
            0 => CalOp::Schedule(random_offset(rng)),
            1 => CalOp::Cancel(rng.index(64)),
            _ => CalOp::Pop,
        })
        .collect()
}

/// The shape trace replay drives: pop an event, then schedule its
/// successor at `now + dt` (often `dt = 0`), with other events and
/// cancels mixed in.
fn replay_ops(rng: &mut RngStream, len: usize) -> Vec<CalOp> {
    let mut ops = Vec::with_capacity(len + 1);
    while ops.len() < len {
        match rng.index(8) {
            0 => ops.push(CalOp::Schedule(random_offset(rng))),
            1 => ops.push(CalOp::CancelNewest),
            2 => ops.push(CalOp::Cancel(rng.index(64))),
            _ => {
                ops.push(CalOp::Pop);
                let dt = match rng.index(4) {
                    0 | 1 => 0,
                    _ => random_offset(rng),
                };
                ops.push(CalOp::Schedule(dt));
            }
        }
    }
    ops
}

/// A schedule offset in µs: exact ties at `now`, near ties, a
/// sub-millisecond spread, and far-future jumps up to 1e10 µs.
fn random_offset(rng: &mut RngStream) -> u64 {
    match rng.index(4) {
        0 => 0,
        1 => rng.next_u64() % 64,
        2 => rng.next_u64() % 1000,
        _ => rng.next_u64() % 10_000_000_000,
    }
}

/// Index of the model's earliest live `(time, seq)` entry.
fn earliest_live(model: &[(SimTime, u64, u64, bool)]) -> Option<usize> {
    model
        .iter()
        .enumerate()
        .filter(|(_, e)| e.3)
        .min_by_key(|(_, e)| (e.0, e.1))
        .map(|(i, _)| i)
}

/// Drive a calendar and a sorted-vector model through `ops`. After every
/// op, pop results, `pending()` and every field of `stats()` must equal
/// what the model counted.
fn check_against_model(case: u64, ops: Vec<CalOp>) {
    let mut cal: Calendar<u64> = Calendar::new();
    // Model: (time, seq, payload, alive).
    let mut model: Vec<(SimTime, u64, u64, bool)> = Vec::new();
    let mut handles = Vec::new();
    let mut now = SimTime::ZERO;
    let mut want = CalendarStats::default();

    for op in ops {
        let cancel = match op {
            CalOp::Schedule(dt) => {
                let at = now + SimDuration(dt);
                let seq = handles.len() as u64;
                handles.push(cal.schedule(at, seq));
                model.push((at, seq, seq, true));
                want.scheduled += 1;
                None
            }
            CalOp::Cancel(k) if !handles.is_empty() => Some(k % handles.len()),
            CalOp::CancelNewest if !handles.is_empty() => Some(handles.len() - 1),
            CalOp::Cancel(_) | CalOp::CancelNewest => None,
            CalOp::Pop => {
                let got = cal.pop();
                match earliest_live(&model) {
                    Some(i) => {
                        let e = model[i];
                        model[i].3 = false;
                        assert_eq!(got, Some((e.0, e.2)), "case {case}");
                        now = e.0;
                        want.fired += 1;
                    }
                    None => assert_eq!(got, None, "case {case}"),
                }
                None
            }
        };
        if let Some(k) = cancel {
            let got = cal.cancel(handles[k]);
            // Model cancel: alive entry with matching seq.
            let hit = model
                .iter_mut()
                .find(|e| e.1 == k as u64 && e.3)
                .map(|e| e.3 = false)
                .is_some();
            assert_eq!(got, hit, "case {case}");
            want.cancelled += u64::from(hit);
        }
        let pending = model.iter().filter(|e| e.3).count();
        want.max_pending = want.max_pending.max(pending as u64);
        assert_eq!(cal.pending(), pending, "case {case}");
        assert_eq!(cal.stats(), want, "case {case}");
    }
}

#[test]
fn calendar_matches_sorted_model() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "calendar-model");
        let len = 1 + rng.index(119);
        check_against_model(case, random_ops(&mut rng, len));
    }
}

#[test]
fn calendar_matches_sorted_model_under_replay_shape() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "calendar-replay-model");
        let len = 1 + rng.index(199);
        check_against_model(case, replay_ops(&mut rng, len));
    }
}

fn random_jobs(rng: &mut RngStream, max_len: usize) -> Vec<(u64, u64)> {
    let len = 1 + rng.index(max_len - 1);
    (0..len)
        .map(|_| (1 + rng.next_u64() % 99, 1 + rng.next_u64() % 49))
        .collect()
}

#[test]
fn station_matches_reference_queue() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "station-model");
        let jobs = random_jobs(&mut rng, 40);
        // Arrivals at strictly increasing times with given gaps; compare
        // against an exact single-server FIFO recurrence:
        //   start_i = max(arrival_i, completion_{i-1}), completion = start + service.
        let mut st: FifoStation<usize> = FifoStation::new();

        let mut t = 0u64;
        let mut arrivals = Vec::new();
        for &(gap, service) in &jobs {
            t += gap;
            arrivals.push((SimTime(t), SimDuration(service)));
        }

        // Expected completions by the recurrence.
        let mut expect = Vec::new();
        let mut prev_done = 0u64;
        for &(a, s) in &arrivals {
            let start = a.0.max(prev_done);
            prev_done = start + s.0;
            expect.push(prev_done);
        }

        // Drive the station through a two-event-type loop.
        #[derive(Clone, Copy)]
        enum Ev {
            Arrive(usize),
            Done,
        }
        let mut ev_cal: Calendar<Ev> = Calendar::new();
        for (i, &(a, _)) in arrivals.iter().enumerate() {
            ev_cal.schedule(a, Ev::Arrive(i));
        }
        let mut completions = Vec::new();
        while let Some((nowt, ev)) = ev_cal.pop() {
            match ev {
                Ev::Arrive(i) => {
                    let (_, s) = arrivals[i];
                    if let StartService::At(done) = st.arrive(
                        nowt,
                        Job {
                            service: s,
                            meta: i,
                        },
                    ) {
                        ev_cal.schedule(done, Ev::Done);
                    }
                }
                Ev::Done => {
                    let (job, next) = st.complete(nowt);
                    completions.push((job.meta, nowt.0));
                    if let Some(d) = next {
                        ev_cal.schedule(d, Ev::Done);
                    }
                }
            }
        }
        assert_eq!(completions.len(), jobs.len(), "case {case}");
        // FIFO: completions in arrival order with recurrence times.
        for (k, &(meta, done)) in completions.iter().enumerate() {
            assert_eq!(meta, k, "case {case}");
            assert_eq!(done, expect[k], "case {case} job {k}");
        }
    }
}

#[test]
fn online_stats_match_exact() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "online-stats");
        let len = 1 + rng.index(199);
        let xs: Vec<f64> = (0..len).map(|_| (rng.uniform() - 0.5) * 2e6).collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!(
            (s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0),
            "case {case}"
        );
        assert!(
            (s.variance() - var).abs() <= 1e-4 * var.max(1.0),
            "case {case}"
        );
        let mx = xs.iter().cloned().fold(f64::MIN, f64::max);
        let mn = xs.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(s.max(), Some(mx), "case {case}");
        assert_eq!(s.min(), Some(mn), "case {case}");
    }
}

#[test]
fn station_utilization_bounded() {
    for case in 0..CASES {
        let mut rng = RngStream::new(case, "station-util");
        let jobs = random_jobs(&mut rng, 30);
        let mut st: FifoStation<u32> = FifoStation::new();
        let mut t = SimTime::ZERO;
        let mut done_events: Vec<SimTime> = Vec::new();
        for (i, &(gap, service)) in jobs.iter().enumerate() {
            t += SimDuration(gap);
            // Drain any completions due before this arrival.
            while let Some(&d) = done_events.first() {
                if d <= t {
                    done_events.remove(0);
                    let (_, next) = st.complete(d);
                    if let Some(nd) = next {
                        done_events.push(nd);
                    }
                } else {
                    break;
                }
            }
            if let StartService::At(d) = st.arrive(
                t,
                Job {
                    service: SimDuration(service),
                    meta: i as u32,
                },
            ) {
                done_events.push(d);
            }
        }
        let u = st.utilization(t);
        assert!(
            (0.0..=1.0 + 1e-9).contains(&u),
            "case {case}: utilization {u}"
        );
    }
}
