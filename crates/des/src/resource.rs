//! A single-server FIFO service station.
//!
//! YACSIM's resources with a first-in-first-out queuing discipline are the
//! only service model the paper's simulator uses (§7). [`FifoStation`] is a
//! passive building block: it never touches the calendar itself. The world
//! drives it — on job arrival it reports whether service starts immediately
//! (so the world schedules the completion event); on completion it hands
//! back the finished job and the next one to start. This keeps borrows
//! simple and the event loop in one place.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A job queued at a station: what the station serves, and the caller's
/// name for it.
///
/// The station reads only `service`. A caller that measures latency keeps
/// the job's arrival where `meta` finds it, so a deep queue holds no copy
/// of what the caller already holds. The world's `meta` is its request's
/// tag and file set, 8 bytes, so its jobs are 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Job<M> {
    /// Service demand at this station (already divided by server speed).
    pub service: SimDuration,
    /// Caller-defined metadata (e.g. which request this is).
    pub meta: M,
}

/// What to do after an event, as reported by the station.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StartService {
    /// The station was idle; schedule a completion at the given time.
    At(SimTime),
    /// The job joined the queue; no event to schedule.
    Queued,
}

/// A single-server FIFO queue with utilization accounting.
#[derive(Clone, Debug)]
pub struct FifoStation<M> {
    queue: VecDeque<Job<M>>,
    in_service: Option<Job<M>>,
    /// Accumulated busy time.
    busy: SimDuration,
    /// When the current service started (valid while `in_service`).
    service_start: SimTime,
}

impl<M> Default for FifoStation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> FifoStation<M> {
    /// An idle, empty station.
    pub fn new() -> Self {
        FifoStation {
            queue: VecDeque::new(),
            in_service: None,
            busy: SimDuration::ZERO,
            service_start: SimTime::ZERO,
        }
    }

    /// Jobs at the station including the one in service.
    pub fn population(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    /// The job currently in service, if any (read-only: tracing needs to
    /// identify the request that just entered service).
    pub fn in_service(&self) -> Option<&Job<M>> {
        self.in_service.as_ref()
    }

    /// Accumulated busy time (through the last completion).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// A job arrives at time `now`. If the station was idle it enters
    /// service immediately and the completion time is returned.
    pub fn arrive(&mut self, now: SimTime, job: Job<M>) -> StartService {
        if self.in_service.is_none() {
            let done = now + job.service;
            self.service_start = now;
            self.in_service = Some(job);
            StartService::At(done)
        } else {
            self.queue.push_back(job);
            StartService::Queued
        }
    }

    /// The in-service job completes at time `now`. Returns the finished job
    /// and, if another job starts, its completion time.
    ///
    /// # Panics
    /// Panics if no job is in service — a completion event fired for an
    /// idle station indicates a world/event-loop bug.
    pub fn complete(&mut self, now: SimTime) -> (Job<M>, Option<SimTime>) {
        #[expect(
            clippy::expect_used,
            reason = "a Complete event is only scheduled while a job is in service"
        )]
        let job = self
            .in_service
            .take()
            .expect("completion event for idle station");
        self.busy += now.since(self.service_start);
        let next = self.queue.pop_front().map(|j| {
            let done = now + j.service;
            self.service_start = now;
            self.in_service = Some(j);
            done
        });
        (job, next)
    }

    /// Drain every job (queued and in-service), e.g. when the server fails.
    /// The in-service job is returned first. Utilization accounting charges
    /// the partial service time up to `now`.
    pub fn drain(&mut self, now: SimTime) -> Vec<Job<M>> {
        let mut out = Vec::with_capacity(self.population());
        if let Some(j) = self.in_service.take() {
            self.busy += now.since(self.service_start);
            out.push(j);
        }
        out.extend(self.queue.drain(..));
        out
    }

    /// Give back the queue's buffer, as far as what is queued allows: a
    /// queue that once ran deep keeps its high-water capacity until this.
    /// The world calls it once the calendar is dry and every queue empty.
    pub fn shrink_queue(&mut self) {
        self.queue.shrink_to_fit();
    }

    /// Utilization over `[0, now]`: busy time / elapsed time. Counts the
    /// in-progress service up to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let mut busy = self.busy;
        if self.in_service.is_some() {
            busy += now.since(self.service_start);
        }
        busy.as_secs_f64() / now.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(svc: u64) -> Job<u32> {
        Job {
            service: SimDuration(svc),
            meta: 0,
        }
    }

    #[test]
    fn idle_station_starts_immediately() {
        let mut st = FifoStation::new();
        match st.arrive(SimTime(10), job(5)) {
            StartService::At(t) => assert_eq!(t, SimTime(15)),
            StartService::Queued => panic!("should start immediately"),
        }
        assert!(st.in_service().is_some());
        assert_eq!(st.population(), 1);
    }

    #[test]
    fn busy_station_queues() {
        let mut st = FifoStation::new();
        st.arrive(SimTime(0), job(10));
        assert_eq!(st.arrive(SimTime(1), job(10)), StartService::Queued);
        assert_eq!(st.population(), 2);
    }

    #[test]
    fn fifo_order_and_completion_chain() {
        let mut st = FifoStation::new();
        st.arrive(
            SimTime(0),
            Job {
                service: SimDuration(10),
                meta: 1u32,
            },
        );
        st.arrive(
            SimTime(2),
            Job {
                service: SimDuration(5),
                meta: 2,
            },
        );
        st.arrive(
            SimTime(3),
            Job {
                service: SimDuration(7),
                meta: 3,
            },
        );
        let (j1, next) = st.complete(SimTime(10));
        assert_eq!(j1.meta, 1);
        assert_eq!(next, Some(SimTime(15)));
        let (j2, next) = st.complete(SimTime(15));
        assert_eq!(j2.meta, 2);
        assert_eq!(next, Some(SimTime(22)));
        let (j3, next) = st.complete(SimTime(22));
        assert_eq!(j3.meta, 3);
        assert_eq!(next, None);
        assert!(st.in_service().is_none());
        assert_eq!(st.busy_time(), SimDuration(22));
    }

    #[test]
    #[should_panic(expected = "completion event for idle station")]
    fn complete_on_idle_panics() {
        let mut st: FifoStation<u32> = FifoStation::new();
        st.complete(SimTime(1));
    }

    #[test]
    fn drain_returns_all_jobs() {
        let mut st = FifoStation::new();
        st.arrive(
            SimTime(0),
            Job {
                service: SimDuration(10),
                meta: 1u32,
            },
        );
        st.arrive(
            SimTime(1),
            Job {
                service: SimDuration(5),
                meta: 2,
            },
        );
        let drained = st.drain(SimTime(4));
        assert_eq!(
            drained.iter().map(|j| j.meta).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(st.in_service().is_none());
        assert_eq!(st.population(), 0);
        // Partial service charged: 4 of 10.
        assert_eq!(st.busy_time(), SimDuration(4));
    }

    #[test]
    fn shrinking_the_queue_keeps_its_jobs_and_state() {
        let mut st = FifoStation::new();
        for t in 0..1_000 {
            st.arrive(SimTime(t), job(10));
        }
        st.shrink_queue();
        assert_eq!(st.population(), 1_000);
        for k in 1..=1_000 {
            st.complete(SimTime(10 * k));
        }
        assert_eq!(st.population(), 0);
        st.shrink_queue();
        assert_eq!(st.busy_time(), SimDuration(10_000));
        assert_eq!(
            st.arrive(SimTime(20_000), job(5)),
            StartService::At(SimTime(20_005))
        );
    }

    #[test]
    fn utilization_counts_in_progress() {
        let mut st = FifoStation::new();
        st.arrive(SimTime::ZERO, job(1_000_000));
        assert!((st.utilization(SimTime(500_000)) - 1.0).abs() < 1e-9);
        st.complete(SimTime(1_000_000));
        assert!((st.utilization(SimTime(2_000_000)) - 0.5).abs() < 1e-9);
        assert_eq!(st.utilization(SimTime::ZERO), 0.0);
    }
}
