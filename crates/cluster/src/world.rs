//! The cluster simulation world: event loop, routing, migration, failure.
//!
//! Models the Storage Tank metadata tier the paper simulates (§2, §7):
//! clients direct each metadata request to the server owning the target
//! file set; servers are FIFO queues with relative speeds; a policy
//! periodically reassigns file sets; moving a file set costs flush + init
//! time, during which its requests buffer at the destination, and the
//! destination starts with a cold cache. Failures drain a server's queue
//! and re-home its file sets after a failover delay.

use crate::autoscaler::{Autoscaler, ScaleAction};
use crate::dense::Interner;
use crate::metrics::{late_imbalance, late_mean, EpochRecord, RunResult, RunSummary};
use crate::policy::{Assignment, ClusterView, MoveSet, PlacementPolicy};
use crate::profile::{NoProfiler, ProfileScope, RunProfiler};
use crate::spec::{ClusterConfig, FaultEvent};
use anu_core::{FileSetId, LoadReport, ServerId};
use anu_des::{
    Calendar, FifoStation, IntervalStats, Job, OnlineStats, SimDuration, SimTime, StartService,
    TimeSeries,
};
use anu_metrics::{MetricId, Registry};
use anu_trace::{LogHistogram, NullSink, TraceEvent, TraceLevel, TraceSink, Tracer, WarnCode};
use anu_workload::Workload;
use std::collections::BTreeMap;

/// Events of the cluster simulation. Server and file-set payloads are
/// *dense indices* into the world's interned tables, not raw ids: the
/// hot loop never touches an ordered map. Trace emission maps indices
/// back to raw ids, so trace event ids are unchanged.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// The `i`-th request of the workload arrives.
    Arrival(u32),
    /// The in-service job at a server (dense index) completes.
    Complete(u32),
    /// Delegate tuning tick.
    Tick,
    /// A file-set (dense index) migration finishes at its destination.
    MigrationDone(u32),
    /// The `i`-th configured fault fires.
    Fault(u32),
    /// A limping server's (dense index) slowdown lifts.
    SlowdownEnd(u32),
}

impl Event {
    /// Position in the event-mix counter array — declaration order, the
    /// same order the `world.events.*` metrics are registered in.
    #[inline]
    fn mix(self) -> usize {
        match self {
            Event::Arrival(_) => 0,
            Event::Complete(_) => 1,
            Event::Tick => 2,
            Event::MigrationDone(_) => 3,
            Event::Fault(_) => 4,
            Event::SlowdownEnd(_) => 5,
        }
    }
}

/// Metric names for the event-mix counters, indexed by [`Event::mix`].
const EVENT_MIX_NAMES: [&str; 6] = [
    "world.events.arrival",
    "world.events.complete",
    "world.events.tick",
    "world.events.migration_done",
    "world.events.fault",
    "world.events.slowdown_end",
];

/// The world's metrics registry plus every id it publishes to, cached at
/// setup so the per-tick publish path does zero name lookups. Counters
/// fold in as deltas against `prev_*` shadows of the world's local
/// accumulators — the hot loop bumps plain fields and histograms; the
/// registry is touched only at tick boundaries and at the end of the run.
struct WorldMetrics {
    reg: Registry,
    ev_mix: [MetricId; 6],
    prev_mix: [u64; 6],
    cal_scheduled: MetricId,
    cal_fired: MetricId,
    cal_cancelled: MetricId,
    cal_pending: MetricId,
    cal_max_pending: MetricId,
    prev_cal: (u64, u64, u64),
    migrations_total: MetricId,
    prev_migrations: u64,
    migrations_in_flight: MetricId,
    requests_requeued: MetricId,
    prev_requeued: u64,
    requests_shed: MetricId,
    prev_shed: u64,
    scale_ups: MetricId,
    prev_scale_ups: u64,
    scale_downs: MetricId,
    prev_scale_downs: u64,
    /// 1 while a `degraded` span is open (the shed ceiling is biting).
    degraded: MetricId,
    /// Jain's fairness index over per-set mean latencies, in millionths
    /// (gauges are integers), set once at the end of the run.
    jain_millionths: MetricId,
    /// Worst per-file-set p99 latency (µs), set once at the end of the run.
    p99_set_max_us: MetricId,
    /// Per server (dense index): queue population gauge.
    server_occupancy: Vec<MetricId>,
    /// Per server (dense index): fault-state gauge (1 = alive, 0 = down).
    server_alive: Vec<MetricId>,
    /// Per server (dense index): completed-request gauge.
    server_completed: Vec<MetricId>,
    /// Overall request-latency histogram (µs), installed at run end.
    latency_all: MetricId,
    /// Per file set (dense index): latency histogram (µs), installed at
    /// run end from the world's local accumulators.
    set_latency: Vec<MetricId>,
}

impl WorldMetrics {
    /// Register every metric in one deterministic order: event mix,
    /// calendar, migration and requeue counters, per-server gauges in
    /// sorted id order, then the latency histograms.
    fn new(server_ids: &Interner<ServerId>, set_ids: &Interner<FileSetId>) -> Self {
        let mut reg = Registry::new();
        let ev_mix = EVENT_MIX_NAMES.map(|n| reg.counter(n));
        let cal_scheduled = reg.counter("des.calendar.scheduled");
        let cal_fired = reg.counter("des.calendar.fired");
        let cal_cancelled = reg.counter("des.calendar.cancelled");
        let cal_pending = reg.gauge("des.calendar.pending");
        let cal_max_pending = reg.gauge("des.calendar.max_pending");
        let migrations_total = reg.counter("migrations.total");
        let migrations_in_flight = reg.gauge("migrations.in_flight");
        let requests_requeued = reg.counter("requests.requeued");
        let requests_shed = reg.counter("requests.shed");
        let scale_ups = reg.counter("scale.commissions");
        let scale_downs = reg.counter("scale.decommissions");
        let degraded = reg.gauge("world.degraded");
        let jain_millionths = reg.gauge("fairness.jain_millionths");
        let p99_set_max_us = reg.gauge("fairness.p99_set_max_us");
        let mut server_occupancy = Vec::with_capacity(server_ids.len());
        let mut server_alive = Vec::with_capacity(server_ids.len());
        let mut server_completed = Vec::with_capacity(server_ids.len());
        for i in 0..server_ids.len() {
            let s = server_ids.get(i).0;
            server_occupancy.push(reg.gauge(&format!("server.{s}.occupancy")));
            server_alive.push(reg.gauge(&format!("server.{s}.alive")));
            server_completed.push(reg.gauge(&format!("server.{s}.completed")));
        }
        let latency_all = reg.histogram("latency.us");
        let set_latency = (0..set_ids.len())
            .map(|i| reg.histogram(&format!("set.{}.latency_us", set_ids.get(i).0)))
            .collect();
        WorldMetrics {
            reg,
            ev_mix,
            prev_mix: [0; 6],
            cal_scheduled,
            cal_fired,
            cal_cancelled,
            cal_pending,
            cal_max_pending,
            prev_cal: (0, 0, 0),
            migrations_total,
            prev_migrations: 0,
            migrations_in_flight,
            requests_requeued,
            prev_requeued: 0,
            requests_shed,
            prev_shed: 0,
            scale_ups,
            prev_scale_ups: 0,
            scale_downs,
            prev_scale_downs: 0,
            degraded,
            jain_millionths,
            p99_set_max_us,
            server_occupancy,
            server_alive,
            server_completed,
            latency_all,
            set_latency,
        }
    }
}

/// Job metadata: which set (dense index) the request targets, and the raw
/// (speed-1) service demand so a drained job can be re-costed on its new
/// server.
#[derive(Clone, Copy, Debug)]
struct JobInfo {
    set: u32,
    cost: SimDuration,
}

struct ServerState {
    speed: f64,
    alive: bool,
    station: FifoStation<JobInfo>,
    interval: IntervalStats,
    series: TimeSeries,
    all: OnlineStats,
    completed: u64,
    /// Requests served per file set (dense index) since that set was
    /// acquired — drives the cold-cache factor. Zero means "not warmed",
    /// exactly the absent-key reading of the old map.
    warmth: Vec<u32>,
    /// The pending completion event for the in-service job, so a failure
    /// that drains the station can cancel it (otherwise the stale event
    /// would fire against an idle — or worse, re-busy — station).
    completion: Option<anu_des::EventHandle>,
    /// Service-time inflation while the server limps (1.0 = healthy).
    /// Applies to newly enqueued jobs only; in-service work keeps its
    /// already-drawn service time.
    slow_factor: f64,
    /// Pending [`Event::SlowdownEnd`], so a newer slowdown (or a failure)
    /// can cancel it.
    slow_end: Option<anu_des::EventHandle>,
    /// The next latency report is dropped in transit.
    lose_report: bool,
    /// The next latency report is held one tick and delivered stale.
    delay_report: bool,
    /// A report held by `delay_report`, delivered at the next tick with
    /// `age_ticks = 1`.
    held_report: Option<LoadReport>,
    /// When the server went down; closes at recovery or end of run.
    down_since: Option<SimTime>,
    /// Current serving-capacity fraction: 0 while dead, `1/slow_factor`
    /// while limping, 1 otherwise. Piecewise constant between transitions.
    cap_frac: f64,
    /// When `cap_frac` last changed — the integration mark for
    /// degraded-capacity accounting.
    cap_since: SimTime,
}

/// Tracks how long one failure's orphaned file sets took to re-home.
struct RebalanceClock {
    /// When the failure fired.
    start: SimTime,
    /// Orphaned sets still in flight.
    outstanding: usize,
}

struct Migration {
    /// Destination server (dense index).
    to: u32,
    /// Requests that arrived while the set was in flight: `(arrival, cost)`.
    buffered: Vec<(SimTime, SimDuration)>,
}

/// The simulation state, dense-indexed on the per-event path.
///
/// Server and file-set universes are fixed at setup, interned in sorted
/// order, and every per-event structure (server table, routing
/// assignment, in-flight migrations, per-server/per-set accumulators) is
/// a `Vec` indexed by the dense id. `BTreeMap`s appear only at the
/// policy/report boundaries (`planning_assignment`, `view`, result
/// assembly), rebuilt per tick — and since dense index order equals
/// sorted id order, every boundary iteration yields the exact sequence
/// the old map-keyed world produced, byte for byte.
struct World<'a> {
    cfg: &'a ClusterConfig,
    workload: &'a Workload,
    cal: Calendar<Event>,
    server_ids: Interner<ServerId>,
    set_ids: Interner<FileSetId>,
    servers: Vec<ServerState>,
    /// Owning server (dense index) per file set (dense index); `None`
    /// while orphaned by a failure.
    assignment: Vec<Option<u32>>,
    /// In-flight migration per file set (dense index).
    migrations: Vec<Option<Migration>>,
    horizon: SimTime,
    migration_count: u64,
    max_latency_ms: f64,
    event_count: u64,
    /// Structured-trace emitter. With a `NullSink` every emission site is
    /// one integer compare; the tracer never schedules calendar events, so
    /// traced and untraced runs execute identical event sequences.
    tracer: Tracer<'a>,
    /// Log-scaled request-latency histogram (µs), always recorded — the
    /// p50/p95/p99 summary fields come from here.
    latency_hist: LogHistogram,
    /// Largest queue population seen at any server at any enqueue.
    max_queue_depth: u64,
    /// One record per tuning tick (telemetry CSV + `RunResult::epochs`).
    epochs: Vec<EpochRecord>,
    /// Tuner decisions frozen by thresholding, across all epochs.
    band_freezes: u64,
    /// Tuner decisions frozen by divergent tuning.
    divergent_freezes: u64,
    /// Tuner moves bounded by the max-factor clamp.
    factor_clamps: u64,
    /// Requests that completed after the nominal horizon (stragglers).
    post_horizon_completions: u64,
    /// Requests admitted so far (enqueued or buffered) — the conservation
    /// denominator the auditor checks against.
    arrived: u64,
    /// Requests drained from failed servers and requeued elsewhere.
    requests_requeued: u64,
    /// Requests refused at admission by the shed ceiling (not admitted:
    /// excluded from `arrived`, so request conservation still holds).
    requests_shed: u64,
    /// Whether any request was shed since the last tick boundary — the
    /// degraded span stays open until a full tick passes shed-free.
    shed_since_tick: bool,
    /// The open `degraded` span, if the run is currently shedding. Opened
    /// and closed only when the span stack is exactly `[run]` (arrivals
    /// and tick/drain boundaries), so span nesting stays LIFO.
    degraded_span: Option<u64>,
    /// Latency-driven elasticity, when configured.
    autoscaler: Option<Autoscaler>,
    /// Dense server index of each standby-pool entry, in pool order.
    standby_slots: Vec<u32>,
    /// Standby servers commissioned / decommissioned over the run.
    scale_ups: u64,
    scale_downs: u64,
    /// Time-integral of lost serving capacity, in server-seconds.
    degraded_capacity_secs: f64,
    /// Closed downtime, in seconds, summed across servers.
    unavailable_secs: f64,
    /// Downtime windows opened.
    unavailability_windows: u64,
    /// One clock per failure that orphaned at least one set.
    rebalance_clocks: Vec<RebalanceClock>,
    /// Completed failure→fully-re-homed durations, in seconds.
    rebalance_secs: Vec<f64>,
    /// Per file set (dense index): the rebalance clock an in-flight
    /// orphaned set closes on landing.
    orphan_fault: Vec<Option<u32>>,
    /// The invariant auditor arms only for chaos runs (non-empty fault
    /// script), so fault-free runs pay nothing at tick boundaries.
    auditing: bool,
    /// Auditor boundary checks executed.
    audit_checks: u64,
    /// Invariant violations detected.
    audit_violations: u64,
    /// Local event-mix accumulators (indexed by [`Event::mix`]) — plain
    /// increments on the hot path, folded into the registry at ticks.
    event_mix: [u64; 6],
    /// Per file set (dense index) latency histograms, accumulated locally
    /// and installed into the registry once at the end of the run.
    set_hists: Vec<LogHistogram>,
    /// Per file set (dense index) admission-shed counts — which sets paid
    /// for graceful degradation. Feeds the completion-fairness index.
    set_shed: Vec<u64>,
    /// The metrics registry and its cached publish ids.
    metrics: WorldMetrics,
}

impl<'a> World<'a> {
    fn view(&self) -> ClusterView {
        ClusterView {
            servers: self
                .servers
                .iter()
                .enumerate()
                .map(|(i, st)| (self.server_ids.get(i), st.alive))
                .collect(),
            now: self.cal.now(),
        }
    }

    fn enqueue(&mut self, server: u32, arrival: SimTime, set: u32, cost: SimDuration) {
        let now = self.cal.now();
        let st = &mut self.servers[server as usize];
        debug_assert!(
            st.alive,
            "routing to dead server {}",
            self.server_ids.get(server as usize)
        );
        let served = st.warmth[set as usize];
        let factor = self.cfg.cold_cache.factor(served);
        st.warmth[set as usize] += 1;
        let service =
            SimDuration::from_secs_f64(cost.as_secs_f64() / st.speed * factor * st.slow_factor);
        let job = Job {
            arrival,
            service,
            meta: JobInfo { set, cost },
        };
        let started = st.station.arrive(now, job);
        let depth = st.station.population() as u64;
        self.max_queue_depth = self.max_queue_depth.max(depth);
        if self.tracer.enabled(TraceLevel::Request) {
            self.tracer.emit(
                TraceLevel::Request,
                now,
                &TraceEvent::QueueDepth {
                    server: self.server_ids.get(server as usize).0,
                    depth,
                },
            );
            if let StartService::At(_) = started {
                self.tracer.emit(
                    TraceLevel::Request,
                    now,
                    &TraceEvent::RequestDispatch {
                        server: self.server_ids.get(server as usize).0,
                        set: self.set_ids.get(set as usize).0,
                        wait_us: now.since(arrival).0,
                    },
                );
            }
        }
        if let StartService::At(t) = started {
            let h = self.cal.schedule(t, Event::Complete(server));
            self.servers[server as usize].completion = Some(h);
        }
    }

    fn handle_arrival(&mut self, idx: u32) {
        // Chain the next arrival so the calendar stays small.
        if (idx as usize + 1) < self.workload.requests.len() {
            let next = &self.workload.requests[idx as usize + 1];
            self.cal.schedule(next.arrival, Event::Arrival(idx + 1));
        }
        let req = self.workload.requests[idx as usize];
        let set = self.set_ids.index(req.file_set) as u32;
        if let Some(m) = self.migrations[set as usize].as_mut() {
            self.arrived += 1;
            m.buffered.push((req.arrival, req.cost));
            if self.tracer.enabled(TraceLevel::Request) {
                self.tracer.emit(
                    TraceLevel::Request,
                    req.arrival,
                    &TraceEvent::RequestArrival {
                        server: None,
                        set: req.file_set.0,
                        buffered: true,
                    },
                );
            }
            return;
        }
        let server = self.assignment[set as usize]
            // anu-lint: allow(panic) -- setup assigns every file set before the run starts
            .expect("every file set is assigned");
        if let Some(shed) = &self.cfg.shed {
            if self.servers[server as usize].station.population() >= shed.max_queue {
                // Graceful degradation: refuse the request at admission
                // instead of letting the queue diverge. Shed requests are
                // never admitted — they stay out of `arrived`, the trace,
                // and the latency statistics — and the overloaded stretch
                // is covered by one `degraded` span rather than a
                // per-request event.
                self.requests_shed += 1;
                self.set_shed[set as usize] += 1;
                self.shed_since_tick = true;
                if self.degraded_span.is_none() {
                    self.degraded_span = Some(self.tracer.open(req.arrival, "degraded"));
                }
                return;
            }
        }
        self.arrived += 1;
        if self.tracer.enabled(TraceLevel::Request) {
            self.tracer.emit(
                TraceLevel::Request,
                req.arrival,
                &TraceEvent::RequestArrival {
                    server: Some(self.server_ids.get(server as usize).0),
                    set: req.file_set.0,
                    buffered: false,
                },
            );
        }
        self.enqueue(server, req.arrival, set, req.cost);
    }

    fn handle_complete(&mut self, server: u32) {
        let now = self.cal.now();
        let st = &mut self.servers[server as usize];
        let (job, next) = st.station.complete(now);
        let latency = now.since(job.arrival);
        st.interval.record(latency);
        st.series.record(now, latency.as_millis_f64());
        st.all.push(latency.as_millis_f64());
        st.completed += 1;
        self.max_latency_ms = self.max_latency_ms.max(latency.as_millis_f64());
        self.latency_hist.record(latency.0);
        self.set_hists[job.meta.set as usize].record(latency.0);
        if now > self.horizon {
            self.post_horizon_completions += 1;
        }
        if self.tracer.enabled(TraceLevel::Request) {
            let depth = st.station.population() as u64;
            // The next queued job (if any) enters service now.
            let dispatched = st
                .station
                .in_service()
                .map(|j| (j.meta.set, now.since(j.arrival).0));
            self.tracer.emit(
                TraceLevel::Request,
                now,
                &TraceEvent::RequestComplete {
                    server: self.server_ids.get(server as usize).0,
                    set: self.set_ids.get(job.meta.set as usize).0,
                    latency_us: latency.0,
                    depth,
                },
            );
            if let Some((set, wait_us)) = dispatched {
                self.tracer.emit(
                    TraceLevel::Request,
                    now,
                    &TraceEvent::RequestDispatch {
                        server: self.server_ids.get(server as usize).0,
                        set: self.set_ids.get(set as usize).0,
                        wait_us,
                    },
                );
            }
        }
        self.servers[server as usize].completion = match next {
            Some(t) => Some(self.cal.schedule(t, Event::Complete(server))),
            None => None,
        };
    }

    /// Update `server`'s capacity fraction, integrating the lost capacity
    /// accrued at the old fraction since the last transition.
    fn set_capacity(&mut self, server: u32, now: SimTime, frac: f64) {
        let st = &mut self.servers[server as usize];
        self.degraded_capacity_secs += (1.0 - st.cap_frac) * now.since(st.cap_since).as_secs_f64();
        st.cap_frac = frac;
        st.cap_since = now;
    }

    fn collect_reports(&mut self) -> Vec<LoadReport> {
        let mut reports = Vec::new();
        for (i, st) in self.servers.iter_mut().enumerate() {
            let s = self.server_ids.get(i);
            if !st.alive {
                // A dead server transmits nothing; pending report faults
                // are moot once the server itself is down.
                st.held_report = None;
                st.lose_report = false;
                st.delay_report = false;
                continue;
            }
            // A report held last tick arrives one tick stale, alongside
            // the fresh one; the tuner keeps the freshest per server.
            if let Some(mut held) = st.held_report.take() {
                held.age_ticks = 1;
                reports.push(held);
            }
            let (mean_ms, count) = st.interval.take();
            let fresh = LoadReport {
                server: s,
                mean_latency_ms: mean_ms,
                requests: count,
                age_ticks: 0,
            };
            if st.lose_report {
                st.lose_report = false;
            } else if st.delay_report {
                st.delay_report = false;
                st.held_report = Some(fresh);
            } else {
                reports.push(fresh);
            }
        }
        reports
    }

    /// The placement the policy should plan against: settled sets at
    /// their owner, in-flight sets at their current *destination*. The
    /// routing assignment keeps the old owner while a set is mid-flush,
    /// and planning against that hides a destination the map no longer
    /// agrees with — the diff sees owner == target, issues nothing, and
    /// the set lands misplaced until the next planned epoch (the
    /// invariant auditor flags exactly that).
    fn planning_assignment(&self) -> Assignment {
        let mut a = self.assignment_map();
        for (i, m) in self.migrations.iter().enumerate() {
            if let Some(m) = m {
                a.insert(self.set_ids.get(i), self.server_ids.get(m.to as usize));
            }
        }
        a
    }

    /// The routing assignment as an ordered map — the policy-facing
    /// boundary type, rebuilt per tick from the dense table.
    fn assignment_map(&self) -> Assignment {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (self.set_ids.get(i), self.server_ids.get(s as usize))))
            .collect()
    }

    fn apply_moves(&mut self, moves: Vec<MoveSet>, delay: SimDuration, policy_name: &str) {
        let now = self.cal.now();
        for mv in moves {
            let to = self
                .server_ids
                .try_index(mv.to)
                .filter(|&i| self.servers[i].alive);
            assert!(
                to.is_some(),
                "{policy_name} moved {} to dead/unknown server {}",
                mv.set,
                mv.to
            );
            // anu-lint: allow(panic) -- asserted Some just above
            let to = to.expect("alive destination") as u32;
            let set = self.set_ids.index(mv.set);
            if let Some(m) = self.migrations[set].as_mut() {
                // Already in flight: honor the newest placement. A
                // failure or recovery can re-partition the map while a
                // set is mid-flush, and letting it land at the stale
                // destination would leave it misplaced until the next
                // planned epoch (the invariant auditor flags exactly
                // that).
                m.to = to;
                continue;
            }
            if self.assignment[set] == Some(to) {
                continue;
            }
            // The releasing server drops the set: its cache is flushed.
            // Queued jobs either complete at the releasing server (the
            // paper's flush semantics — leaving the "memento" tasks that
            // divergent tuning compensates for) or, optionally, follow the
            // set to its new owner.
            let mut buffered = Vec::new();
            let from = self.assignment[set];
            if let Some(from) = from {
                {
                    let st = &mut self.servers[from as usize];
                    st.warmth[set] = 0;
                    if self.cfg.migration.queued_follow {
                        for job in st.station.remove_queued(|m| m.set as usize == set) {
                            buffered.push((job.arrival, job.meta.cost));
                        }
                    }
                }
            }
            if self.tracer.enabled(TraceLevel::Epoch) {
                let from_id = from.map(|s| self.server_ids.get(s as usize).0);
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::MigrationStart {
                        set: mv.set.0,
                        from: from_id,
                        to: mv.to.0,
                    },
                );
                // Emitted eagerly: tracing must never schedule calendar
                // events, so the *scheduled* flush completion rides in the
                // payload instead of arriving as its own timestamped line.
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::MigrationFlush {
                        set: mv.set.0,
                        from: from_id,
                        done_us: (now + self.cfg.migration.flush).0,
                    },
                );
            }
            self.migrations[set] = Some(Migration { to, buffered });
            self.cal
                .schedule(now + delay, Event::MigrationDone(set as u32));
            self.migration_count += 1;
        }
    }

    fn handle_migration_done(&mut self, set: u32) {
        let m = self.migrations[set as usize]
            .take()
            // anu-lint: allow(panic) -- MigrationDone is scheduled only when the entry is inserted
            .expect("migration exists");
        // If the destination died while the set was in flight and no
        // retarget arrived, fall back to the releasing owner (still the
        // policy's placement for the set — its diff saw the set as
        // already home, so inventing any other owner would contradict
        // the policy's map), then to the lowest-index alive server
        // (= lowest-id: index order is sorted id order).
        let to = if self.servers[m.to as usize].alive {
            m.to
        } else {
            self.assignment[set as usize]
                .filter(|&s| self.servers[s as usize].alive)
                .unwrap_or_else(|| {
                    self.servers
                        .iter()
                        .position(|st| st.alive)
                        // anu-lint: allow(panic) -- a cluster with zero alive servers has no valid placement
                        .expect("an alive server") as u32
                })
        };
        self.assignment[set as usize] = Some(to);
        // Acquiring server starts with a cold cache.
        self.servers[to as usize].warmth[set as usize] = 0;
        self.tracer.emit(
            TraceLevel::Epoch,
            self.cal.now(),
            &TraceEvent::MigrationFinish {
                set: self.set_ids.get(set as usize).0,
                to: self.server_ids.get(to as usize).0,
                buffered: m.buffered.len() as u64,
            },
        );
        for (arrival, cost) in m.buffered {
            self.enqueue(to, arrival, set, cost);
        }
        // If this set was orphaned by a failure, its landing may close
        // that failure's rebalance clock.
        if let Some(idx) = self.orphan_fault[set as usize].take() {
            let c = &mut self.rebalance_clocks[idx as usize];
            c.outstanding -= 1;
            if c.outstanding == 0 {
                self.rebalance_secs
                    .push(self.cal.now().since(c.start).as_secs_f64());
            }
        }
    }

    /// One autoscaler decision at the tick boundary, between report
    /// collection and the policy's own tuning pass, so the policy always
    /// plans against the post-scale membership. At most one commission or
    /// decommission per tick; the membership change flows through the
    /// same `on_recover` / `on_fail` path scripted faults use, and the
    /// invariant auditor runs at the boundary.
    fn autoscale(
        &mut self,
        reports: &[LoadReport],
        policy: &mut dyn PlacementPolicy,
        profiler: &mut dyn RunProfiler,
    ) {
        if self.autoscaler.is_none() {
            return;
        }
        let standby_online: Vec<bool> = self
            .standby_slots
            .iter()
            .map(|&si| self.servers[si as usize].alive)
            .collect();
        let live = self.servers.iter().filter(|st| st.alive).count();
        let mean = Autoscaler::mean_latency_ms(reports);
        let action = match self.autoscaler.as_mut() {
            Some(scaler) => scaler.decide(mean, &standby_online, live),
            None => None,
        };
        match action {
            Some(ScaleAction::Commission(slot)) => {
                self.commission(self.standby_slots[slot], policy, profiler);
            }
            Some(ScaleAction::Decommission(slot)) => {
                self.decommission(self.standby_slots[slot], policy, profiler);
            }
            None => return,
        }
        self.audit(&*policy);
    }

    /// Bring a dormant standby server online. The recovery arm of the
    /// fault loop minus the availability bookkeeping: a standby was never
    /// "down", so it opens no unavailability window and accrues no
    /// degraded capacity.
    fn commission(
        &mut self,
        si: u32,
        policy: &mut dyn PlacementPolicy,
        profiler: &mut dyn RunProfiler,
    ) {
        let now = self.cal.now();
        let server = self.server_ids.get(si as usize);
        let st = &mut self.servers[si as usize];
        debug_assert!(!st.alive, "commission of live {server}");
        st.alive = true;
        self.scale_ups += 1;
        self.tracer.emit(
            TraceLevel::Epoch,
            now,
            &TraceEvent::Recover { server: server.0 },
        );
        let view = self.view();
        profiler.enter(ProfileScope::PolicyDecide);
        let moves = policy.on_commission(&view, server, &self.planning_assignment());
        profiler.exit(ProfileScope::PolicyDecide);
        self.apply_moves(moves, self.cfg.migration.total(), policy.name());
    }

    /// Retire a commissioned standby server. The failure arm of the fault
    /// loop minus the availability bookkeeping: a planned removal drains
    /// and re-homes exactly like a crash, but opens no downtime window,
    /// accrues no degraded capacity, pays the ordinary migration cost
    /// (not the failover delay — there is nothing to detect), and starts
    /// no rebalance clock.
    fn decommission(
        &mut self,
        si: u32,
        policy: &mut dyn PlacementPolicy,
        profiler: &mut dyn RunProfiler,
    ) {
        let now = self.cal.now();
        let server = self.server_ids.get(si as usize);
        let st = &mut self.servers[si as usize];
        debug_assert!(st.alive, "decommission of dormant {server}");
        // Faults never target standby servers (validate_faults), so no
        // slowdown or report fault can be pending here.
        debug_assert!(
            st.slow_end.is_none(),
            "slowdown pending on standby {server}"
        );
        st.alive = false;
        let drained = st.station.drain(now);
        st.warmth.fill(0);
        if let Some(h) = st.completion.take() {
            self.cal.cancel(h);
        }
        self.tracer.emit(
            TraceLevel::Epoch,
            now,
            &TraceEvent::Fault {
                server: server.0,
                drained: drained.len() as u64,
            },
        );
        let view = self.view();
        profiler.enter(ProfileScope::PolicyDecide);
        let moves = policy.on_decommission(&view, server, &self.planning_assignment());
        profiler.exit(ProfileScope::PolicyDecide);
        self.apply_moves(moves, self.cfg.migration.total(), policy.name());
        // Every set the retiring server owned must now be in flight.
        let orphans: Vec<usize> = (0..self.set_ids.len())
            .filter(|&fi| self.assignment[fi] == Some(si))
            .collect();
        for fi in orphans {
            assert!(
                self.migrations[fi].is_some(),
                "{} left orphan {} on decommissioned {server}",
                policy.name(),
                self.set_ids.get(fi)
            );
            self.assignment[fi] = None;
        }
        self.requests_requeued += drained.len() as u64;
        for job in drained {
            if let Some(m) = self.migrations[job.meta.set as usize].as_mut() {
                m.buffered.push((job.arrival, job.meta.cost));
            } else {
                let owner = self.assignment[job.meta.set as usize]
                    // anu-lint: allow(panic) -- decommission re-assigns every set before requeueing
                    .expect("set is assigned or migrating");
                self.enqueue(owner, job.arrival, job.meta.set, job.meta.cost);
            }
        }
        self.scale_downs += 1;
    }

    /// The invariant auditor: runs at every tick and fault boundary of a
    /// chaos run (no-op otherwise). Checks request conservation, that no
    /// file set is assigned to a dead server, that every file set is
    /// either assigned or in flight, and the policy's own placement
    /// invariants. Violations are counted and surfaced as `invariant`
    /// trace warnings instead of panicking mid-run.
    fn audit(&mut self, policy: &dyn PlacementPolicy) {
        if !self.auditing {
            return;
        }
        self.audit_checks += 1;
        let mut violations: Vec<String> = Vec::new();
        let completed: u64 = self.servers.iter().map(|st| st.completed).sum();
        let queued: u64 = self
            .servers
            .iter()
            .map(|st| st.station.population() as u64)
            .sum();
        let buffered: u64 = self
            .migrations
            .iter()
            .flatten()
            .map(|m| m.buffered.len() as u64)
            .sum();
        if completed + queued + buffered != self.arrived {
            violations.push(format!(
                "conservation: completed {completed} + queued {queued} + \
                 buffered {buffered} != admitted {}",
                self.arrived
            ));
        }
        // Dense index order is sorted id order, so violation order (and
        // the trace bytes built from it) matches the map-keyed world.
        for (i, owner) in self.assignment.iter().enumerate() {
            if let Some(s) = owner {
                if !self.servers[*s as usize].alive {
                    violations.push(format!(
                        "{} assigned to dead {}",
                        self.set_ids.get(i),
                        self.server_ids.get(*s as usize)
                    ));
                }
            }
        }
        for i in 0..self.set_ids.len() {
            if self.assignment[i].is_none() && self.migrations[i].is_none() {
                violations.push(format!(
                    "{} neither assigned nor migrating",
                    self.set_ids.get(i)
                ));
            }
        }
        let in_flight: Vec<FileSetId> = self
            .migrations
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|_| self.set_ids.get(i)))
            .collect();
        violations.extend(policy.audit(&self.assignment_map(), &in_flight));
        if !violations.is_empty() {
            self.audit_violations += violations.len() as u64;
            let now = self.cal.now();
            for v in violations {
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::Warning {
                        code: WarnCode::Invariant,
                        detail: v,
                        count: 1,
                    },
                );
            }
        }
    }

    /// Fold the local accumulators into the registry: counter deltas
    /// against the `prev_*` shadows, fresh gauge values, calendar stats.
    /// Runs at tick boundaries (taking a per-epoch scalar snapshot) and
    /// once at the end of the run — never on the per-request path.
    fn publish_metrics(&mut self, snapshot_at: Option<(u64, SimTime)>) {
        let m = &mut self.metrics;
        for k in 0..EVENT_MIX_NAMES.len() {
            m.reg.inc(m.ev_mix[k], self.event_mix[k] - m.prev_mix[k]);
            m.prev_mix[k] = self.event_mix[k];
        }
        let stats = self.cal.stats();
        m.reg.inc(m.cal_scheduled, stats.scheduled - m.prev_cal.0);
        m.reg.inc(m.cal_fired, stats.fired - m.prev_cal.1);
        m.reg.inc(m.cal_cancelled, stats.cancelled - m.prev_cal.2);
        m.prev_cal = (stats.scheduled, stats.fired, stats.cancelled);
        m.reg.set(m.cal_pending, self.cal.pending() as u64);
        m.reg.set(m.cal_max_pending, stats.max_pending);
        m.reg
            .inc(m.migrations_total, self.migration_count - m.prev_migrations);
        m.prev_migrations = self.migration_count;
        let in_flight = self.migrations.iter().flatten().count() as u64;
        m.reg.set(m.migrations_in_flight, in_flight);
        m.reg.inc(
            m.requests_requeued,
            self.requests_requeued - m.prev_requeued,
        );
        m.prev_requeued = self.requests_requeued;
        m.reg.inc(m.requests_shed, self.requests_shed - m.prev_shed);
        m.prev_shed = self.requests_shed;
        m.reg.inc(m.scale_ups, self.scale_ups - m.prev_scale_ups);
        m.prev_scale_ups = self.scale_ups;
        m.reg
            .inc(m.scale_downs, self.scale_downs - m.prev_scale_downs);
        m.prev_scale_downs = self.scale_downs;
        m.reg
            .set(m.degraded, u64::from(self.degraded_span.is_some()));
        for (i, st) in self.servers.iter().enumerate() {
            m.reg
                .set(m.server_occupancy[i], st.station.population() as u64);
            m.reg.set(m.server_alive[i], u64::from(st.alive));
            m.reg.set(m.server_completed[i], st.completed);
        }
        if let Some((epoch, at)) = snapshot_at {
            m.reg.snapshot(epoch, at.0);
        }
    }
}

/// Jain's fairness index over per-file-set mean latencies, plus the worst
/// per-set p99 (µs), from the per-set log-scaled histograms.
///
/// `J = (Σmᵢ)² / (n · Σmᵢ²)` over the `n` sets that completed at least one
/// request, with each set's mean approximated from its histogram buckets
/// (Σ upper_bound·count / count) — the same ≤2× resolution as the p50/p95/
/// p99 summary fields. `J = 1.0` means every file set saw the same mean
/// latency; maximal skew drives it toward `1/n`. With no active sets (or
/// all-zero means) the index is defined as 1.0 — an idle system treats
/// everyone equally.
fn fairness(set_hists: &[LogHistogram]) -> (f64, u64) {
    let (mut n, mut sum, mut sumsq, mut worst) = (0u64, 0.0f64, 0.0f64, 0u64);
    for h in set_hists {
        let count = h.count();
        if count == 0 {
            continue;
        }
        let total: f64 = h
            .nonzero()
            .iter()
            .map(|&(ub, c)| ub as f64 * c as f64)
            .sum();
        let mean = total / count as f64;
        n += 1;
        sum += mean;
        sumsq += mean * mean;
        worst = worst.max(h.quantile(0.99));
    }
    let jain = if n == 0 || sumsq == 0.0 {
        1.0
    } else {
        (sum * sum) / (n as f64 * sumsq)
    };
    (jain, worst)
}

/// Jain's fairness index over per-file-set *served fractions*.
///
/// Each set's score is `completed / (completed + shed)`; sets that were
/// never offered a request (neither completed nor shed) don't participate.
/// Latency-based fairness only sees completed requests, so an aggressive
/// shed policy gets *credit* for truncating a slow server's tail — this
/// index charges every shed back to the file set that suffered it. With no
/// shedding every fraction is 1.0 and so is the index.
fn completion_fairness(set_hists: &[LogHistogram], set_shed: &[u64]) -> f64 {
    let (mut n, mut sum, mut sumsq) = (0u64, 0.0f64, 0.0f64);
    for (h, &shed) in set_hists.iter().zip(set_shed) {
        let offered = h.count() + shed;
        if offered == 0 {
            continue;
        }
        let served = h.count() as f64 / offered as f64;
        n += 1;
        sum += served;
        sumsq += served * served;
    }
    if n == 0 || sumsq == 0.0 {
        1.0
    } else {
        (sum * sum) / (n as f64 * sumsq)
    }
}

/// Run `workload` against `cfg` under `policy`; returns the latency series
/// and summary the figures are built from.
///
/// The run is fully deterministic: same config, workload and policy state
/// produce identical results. Equivalent to [`run_traced`] with a
/// [`NullSink`].
pub fn run(
    cfg: &ClusterConfig,
    workload: &Workload,
    policy: &mut dyn PlacementPolicy,
) -> RunResult {
    run_traced(cfg, workload, policy, &mut NullSink)
}

/// [`run`], with structured-trace events delivered to `sink`.
///
/// The sink's [`TraceSink::level`] selects the event taxonomy:
/// [`TraceLevel::Epoch`] records tuner epochs, migrations, faults and
/// spans; [`TraceLevel::Request`] adds per-request arrival / dispatch /
/// complete records. Tracing never schedules calendar events, so the
/// simulated trajectory — and every figure built from it — is identical
/// whether or not a sink is attached, and trace bytes are deterministic
/// at any worker count.
pub fn run_traced(
    cfg: &ClusterConfig,
    workload: &Workload,
    policy: &mut dyn PlacementPolicy,
    sink: &mut dyn TraceSink,
) -> RunResult {
    run_traced_profiled(cfg, workload, policy, sink, &mut NoProfiler)
}

/// [`run_traced`], with wall-clock subsystem attribution delivered to
/// `profiler` at tick and fault boundaries.
///
/// The profiler observes real elapsed time only — it never reads or
/// advances simulated time, so a profiled run simulates the exact same
/// trajectory as [`run`] and stays byte-deterministic. Scopes are entered
/// only at epoch granularity; per-request events are never bracketed.
pub fn run_traced_profiled(
    cfg: &ClusterConfig,
    workload: &Workload,
    policy: &mut dyn PlacementPolicy,
    sink: &mut dyn TraceSink,
    profiler: &mut dyn RunProfiler,
) -> RunResult {
    // anu-lint: allow(panic) -- entry precondition: results on an invalid config are meaningless
    cfg.validate().expect("invalid cluster config");
    // Fault scripts are validated up front, replaying the whole schedule
    // against the server set, so mid-run fault handling never has to
    // panic on a contradictory script.
    // anu-lint: allow(panic) -- entry precondition: a contradictory fault script has no meaningful result
    cfg.validate_faults().expect("invalid fault script");
    let horizon = SimTime::ZERO + workload.duration();
    let series_len = workload.duration() + cfg.series_bucket;

    // Intern the id universes up front; every per-event structure below
    // is indexed by these dense ids.
    let server_ids = Interner::new(cfg.servers.iter().map(|s| s.id).collect());
    let set_ids = Interner::new(workload.file_sets());
    let n_sets = set_ids.len();
    let mut speeds = vec![0.0; server_ids.len()];
    for s in &cfg.servers {
        speeds[server_ids.index(s.id)] = s.speed;
    }
    let metrics = WorldMetrics::new(&server_ids, &set_ids);
    // Standby servers are part of the interned universe (dense ids, trace
    // ids and metric names are fixed at setup) but start dormant: not
    // alive, so the initial placement and the fault script never see them.
    let mut standby_dense = vec![false; server_ids.len()];
    for s in cfg.standby_ids() {
        standby_dense[server_ids.index(*s)] = true;
    }
    let standby_slots: Vec<u32> = cfg
        .standby_ids()
        .iter()
        .map(|&s| server_ids.index(s) as u32)
        .collect();

    let mut world = World {
        cfg,
        workload,
        cal: Calendar::new(),
        servers: speeds
            .iter()
            .enumerate()
            .map(|(i, &speed)| ServerState {
                speed,
                alive: !standby_dense[i],
                station: FifoStation::new(),
                interval: IntervalStats::new(),
                series: TimeSeries::new(cfg.series_bucket, series_len),
                all: OnlineStats::new(),
                completed: 0,
                warmth: vec![0; n_sets],
                completion: None,
                slow_factor: 1.0,
                slow_end: None,
                lose_report: false,
                delay_report: false,
                held_report: None,
                down_since: None,
                cap_frac: 1.0,
                cap_since: SimTime::ZERO,
            })
            .collect(),
        assignment: vec![None; n_sets],
        migrations: (0..n_sets).map(|_| None).collect(),
        server_ids,
        set_ids,
        horizon,
        migration_count: 0,
        max_latency_ms: 0.0,
        event_count: 0,
        tracer: Tracer::new(sink),
        latency_hist: LogHistogram::new(),
        max_queue_depth: 0,
        epochs: Vec::new(),
        band_freezes: 0,
        divergent_freezes: 0,
        factor_clamps: 0,
        post_horizon_completions: 0,
        arrived: 0,
        requests_requeued: 0,
        requests_shed: 0,
        shed_since_tick: false,
        degraded_span: None,
        autoscaler: cfg.autoscaler.clone().map(Autoscaler::new),
        standby_slots,
        scale_ups: 0,
        scale_downs: 0,
        degraded_capacity_secs: 0.0,
        unavailable_secs: 0.0,
        unavailability_windows: 0,
        rebalance_clocks: Vec::new(),
        rebalance_secs: Vec::new(),
        orphan_fault: vec![None; n_sets],
        auditing: !cfg.faults.is_empty() || cfg.autoscaler.is_some(),
        audit_checks: 0,
        audit_violations: 0,
        event_mix: [0; 6],
        set_hists: vec![LogHistogram::new(); n_sets],
        set_shed: vec![0; n_sets],
        metrics,
    };

    // Initial placement: every file set must land on an alive server.
    let file_sets = workload.file_sets();
    let view = world.view();
    let initial = policy.initial(&view, &file_sets);
    for fs in &file_sets {
        let s = *initial
            .get(fs)
            // anu-lint: allow(panic) -- a policy that skips a file set is a contract violation worth halting on
            .unwrap_or_else(|| panic!("{} left {fs} unassigned", policy.name()));
        let si = world.server_ids.index(s) as u32;
        assert!(world.servers[si as usize].alive);
        let fi = world.set_ids.index(*fs);
        world.assignment[fi] = Some(si);
        // Initial placement starts warm: the system has been serving these
        // sets; the paper penalizes only post-move cold caches.
        world.servers[si as usize].warmth[fi] = cfg.cold_cache.warm_after;
    }

    // Seed events: first arrival, first tick, faults.
    if !workload.requests.is_empty() {
        world
            .cal
            .schedule(workload.requests[0].arrival, Event::Arrival(0));
    }
    world.cal.schedule(SimTime::ZERO + cfg.tick, Event::Tick);
    for (i, f) in cfg.faults.iter().enumerate() {
        world.cal.schedule(f.at(), Event::Fault(i as u32));
    }

    // Main loop.
    let run_span = world.tracer.open(SimTime::ZERO, "run");
    while let Some((now, ev)) = world.cal.pop() {
        world.event_count += 1;
        world.event_mix[ev.mix()] += 1;
        match ev {
            Event::Arrival(i) => world.handle_arrival(i),
            Event::Complete(s) => world.handle_complete(s),
            Event::MigrationDone(set) => world.handle_migration_done(set),
            Event::Tick => {
                // A full tick passed without a shed: the overload is
                // over, close the degraded span at this quiet boundary
                // (the span stack is exactly [run] here, keeping
                // open/close strictly LIFO).
                if !world.shed_since_tick {
                    if let Some(id) = world.degraded_span.take() {
                        world.tracer.close(now, id);
                    }
                }
                world.shed_since_tick = false;
                let epoch = world.epochs.len() as u64;
                let span = world.tracer.open(now, "epoch");
                world
                    .tracer
                    .emit(TraceLevel::Epoch, now, &TraceEvent::EpochBegin { epoch });
                let reports = world.collect_reports();
                world.autoscale(&reports, policy, profiler);
                let view = world.view();
                profiler.enter(ProfileScope::PolicyDecide);
                let moves = policy.on_tick(&view, &reports, &world.planning_assignment());
                let move_count = moves.len() as u64;
                let tune = policy.take_epoch();
                profiler.exit(ProfileScope::PolicyDecide);
                if let Some(t) = &tune {
                    for d in &t.decisions {
                        match d.outcome {
                            anu_core::TuneOutcome::FrozenBand => world.band_freezes += 1,
                            anu_core::TuneOutcome::FrozenDivergent => {
                                world.divergent_freezes += 1;
                            }
                            anu_core::TuneOutcome::Clamped => world.factor_clamps += 1,
                            _ => {}
                        }
                    }
                }
                let delay = cfg.migration.total();
                world.apply_moves(moves, delay, policy.name());
                if world.tracer.enabled(TraceLevel::Epoch) {
                    // Queue-depth samples at the tick boundary, one per
                    // live server, then the epoch record itself.
                    let depths: Vec<(u32, u64)> = world
                        .servers
                        .iter()
                        .enumerate()
                        .filter(|(_, st)| st.alive)
                        .map(|(i, st)| (world.server_ids.get(i).0, st.station.population() as u64))
                        .collect();
                    for (server, depth) in depths {
                        world.tracer.emit(
                            TraceLevel::Epoch,
                            now,
                            &TraceEvent::QueueDepth { server, depth },
                        );
                    }
                    world.tracer.emit(
                        TraceLevel::Epoch,
                        now,
                        &TraceEvent::EpochEnd {
                            epoch,
                            moves: move_count,
                            tune: tune.clone(),
                        },
                    );
                }
                world.audit(&*policy);
                world.tracer.close(now, span);
                world.epochs.push(EpochRecord {
                    index: epoch,
                    time_s: now.as_secs_f64(),
                    moves: move_count,
                    tune,
                });
                profiler.enter(ProfileScope::MetricsUpdate);
                world.publish_metrics(Some((epoch, now)));
                profiler.exit(ProfileScope::MetricsUpdate);
                let next = now + cfg.tick;
                if next <= world.horizon {
                    world.cal.schedule(next, Event::Tick);
                }
            }
            Event::SlowdownEnd(server) => {
                let st = &mut world.servers[server as usize];
                st.slow_factor = 1.0;
                st.slow_end = None;
                world.set_capacity(server, now, 1.0);
            }
            Event::Fault(i) => {
                match cfg.faults[i as usize] {
                    FaultEvent::Fail { server, .. } => {
                        // Fault scripts are validated against the server
                        // set, so interning the id always succeeds.
                        let si = world.server_ids.index(server) as u32;
                        let st = &mut world.servers[si as usize];
                        debug_assert!(st.alive, "double failure of {server}");
                        st.alive = false;
                        let drained = st.station.drain(now);
                        st.warmth.fill(0);
                        // The in-service job (if any) died with the server:
                        // its completion event must not fire. Likewise any
                        // pending slowdown end — the failure supersedes it.
                        if let Some(h) = st.completion.take() {
                            world.cal.cancel(h);
                        }
                        if let Some(h) = st.slow_end.take() {
                            world.cal.cancel(h);
                        }
                        st.slow_factor = 1.0;
                        st.down_since = Some(now);
                        world.unavailability_windows += 1;
                        world.set_capacity(si, now, 0.0);
                        world.tracer.emit(
                            TraceLevel::Epoch,
                            now,
                            &TraceEvent::Fault {
                                server: server.0,
                                drained: drained.len() as u64,
                            },
                        );
                        let view = world.view();
                        profiler.enter(ProfileScope::PolicyDecide);
                        let moves = policy.on_fail(&view, server, &world.planning_assignment());
                        profiler.exit(ProfileScope::PolicyDecide);
                        world.apply_moves(moves, cfg.failover_delay, policy.name());
                        // Every orphaned set must now be in flight; queued
                        // work follows its set to the new owner. Dense
                        // index order keeps the scan in sorted set order.
                        let orphans: Vec<usize> = (0..world.set_ids.len())
                            .filter(|&fi| world.assignment[fi] == Some(si))
                            .collect();
                        if !orphans.is_empty() {
                            let idx = world.rebalance_clocks.len() as u32;
                            world.rebalance_clocks.push(RebalanceClock {
                                start: now,
                                outstanding: orphans.len(),
                            });
                            for &fi in &orphans {
                                world.orphan_fault[fi] = Some(idx);
                            }
                        }
                        for fi in orphans {
                            assert!(
                                world.migrations[fi].is_some(),
                                "{} left orphan {} on failed {server}",
                                policy.name(),
                                world.set_ids.get(fi)
                            );
                            world.assignment[fi] = None;
                        }
                        world.requests_requeued += drained.len() as u64;
                        for job in drained {
                            // Most drained jobs belong to orphaned sets (now
                            // in flight); a few may belong to sets that
                            // migrated away earlier but still had queued
                            // work here.
                            if let Some(m) = world.migrations[job.meta.set as usize].as_mut() {
                                m.buffered.push((job.arrival, job.meta.cost));
                            } else {
                                let owner = world.assignment[job.meta.set as usize]
                                    // anu-lint: allow(panic) -- failover re-assigns every set before requeueing
                                    .expect("set is assigned or migrating");
                                world.enqueue(owner, job.arrival, job.meta.set, job.meta.cost);
                            }
                        }
                    }
                    FaultEvent::Recover { server, .. } => {
                        // Fault scripts are validated against the server
                        // set, so interning the id always succeeds.
                        let si = world.server_ids.index(server) as u32;
                        let st = &mut world.servers[si as usize];
                        debug_assert!(!st.alive, "recovery of alive {server}");
                        st.alive = true;
                        if let Some(d) = st.down_since.take() {
                            world.unavailable_secs += now.since(d).as_secs_f64();
                        }
                        world.set_capacity(si, now, 1.0);
                        world.tracer.emit(
                            TraceLevel::Epoch,
                            now,
                            &TraceEvent::Recover { server: server.0 },
                        );
                        let view = world.view();
                        profiler.enter(ProfileScope::PolicyDecide);
                        let moves = policy.on_recover(&view, server, &world.planning_assignment());
                        profiler.exit(ProfileScope::PolicyDecide);
                        let delay = cfg.migration.total();
                        world.apply_moves(moves, delay, policy.name());
                    }
                    FaultEvent::Slowdown {
                        server,
                        factor,
                        lasts,
                        ..
                    } => {
                        // Fault scripts are validated against the server
                        // set, so interning the id always succeeds.
                        let si = world.server_ids.index(server) as u32;
                        let st = &mut world.servers[si as usize];
                        debug_assert!(st.alive, "slowdown of failed {server}");
                        // A newer slowdown replaces a pending one outright.
                        if let Some(h) = st.slow_end.take() {
                            world.cal.cancel(h);
                        }
                        st.slow_factor = factor;
                        let until = now + lasts;
                        let h = world.cal.schedule(until, Event::SlowdownEnd(si));
                        world.servers[si as usize].slow_end = Some(h);
                        world.set_capacity(si, now, 1.0 / factor);
                        world.tracer.emit(
                            TraceLevel::Epoch,
                            now,
                            &TraceEvent::Slowdown {
                                server: server.0,
                                factor,
                                until_us: until.0,
                            },
                        );
                    }
                    FaultEvent::ReportLoss { server, .. } => {
                        let st = &mut world.servers[world.server_ids.index(server)];
                        debug_assert!(st.alive, "report fault on failed {server}");
                        st.lose_report = true;
                        world.tracer.emit(
                            TraceLevel::Epoch,
                            now,
                            &TraceEvent::ReportFault {
                                server: server.0,
                                delayed: false,
                            },
                        );
                    }
                    FaultEvent::ReportDelay { server, .. } => {
                        let st = &mut world.servers[world.server_ids.index(server)];
                        debug_assert!(st.alive, "report fault on failed {server}");
                        st.delay_report = true;
                        world.tracer.emit(
                            TraceLevel::Epoch,
                            now,
                            &TraceEvent::ReportFault {
                                server: server.0,
                                delayed: true,
                            },
                        );
                    }
                    FaultEvent::DelegateFail { pause_ticks, .. } => {
                        policy.on_delegate_fail(pause_ticks);
                        world.tracer.emit(
                            TraceLevel::Epoch,
                            now,
                            &TraceEvent::DelegateFail { pause_ticks },
                        );
                    }
                }
                world.audit(&*policy);
            }
        }
    }

    // The calendar is empty: the workload has fully drained.
    let end_time = world.cal.now().max(horizon);
    if let Some(id) = world.degraded_span.take() {
        // Still shedding when the workload ran out: the degraded stretch
        // extends to the end of the run.
        world.tracer.close(end_time, id);
    }
    world.tracer.close(end_time, run_span);
    if world.tracer.enabled(TraceLevel::Epoch) {
        // Conservation check, active only in traced builds so untraced
        // production runs pay nothing: every offered request either
        // completed, was shed at admission, or is still in flight — and
        // after a drained calendar, in-flight must be zero.
        let completed_total: u64 = world.servers.iter().map(|st| st.completed).sum();
        let in_flight: u64 = world
            .servers
            .iter()
            .map(|st| st.station.population() as u64)
            .sum();
        debug_assert_eq!(
            completed_total + in_flight + world.requests_shed,
            workload.requests.len() as u64,
            "request conservation at drain"
        );
        if world.post_horizon_completions > 0 {
            world.tracer.emit(
                TraceLevel::Epoch,
                end_time,
                &TraceEvent::Warning {
                    code: WarnCode::Stragglers,
                    detail: "requests completed after the nominal horizon".into(),
                    count: world.post_horizon_completions,
                },
            );
        }
    }

    // Close open availability windows: a server still dead (or limping)
    // at drain time accrues downtime/degradation up to the run's end.
    for st in world.servers.iter_mut() {
        world.degraded_capacity_secs +=
            (1.0 - st.cap_frac) * end_time.since(st.cap_since).as_secs_f64();
        st.cap_frac = 1.0;
        st.cap_since = end_time;
        if let Some(d) = st.down_since.take() {
            world.unavailable_secs += end_time.since(d).as_secs_f64();
        }
    }

    // Final metrics publish: fold the remaining counter deltas and the
    // end-state gauges, then install the locally accumulated latency
    // histograms. No snapshot — snapshots are per-epoch only.
    profiler.enter(ProfileScope::MetricsUpdate);
    world.publish_metrics(None);
    // Fairness across file sets, from the per-set histograms (before
    // they are moved into the registry).
    let (jain_fairness, p99_set_max_us) = fairness(&world.set_hists);
    let completion_fairness = completion_fairness(&world.set_hists, &world.set_shed);
    world.metrics.reg.set(
        world.metrics.jain_millionths,
        (jain_fairness * 1_000_000.0).round() as u64,
    );
    world
        .metrics
        .reg
        .set(world.metrics.p99_set_max_us, p99_set_max_us);
    world
        .metrics
        .reg
        .install_histogram(world.metrics.latency_all, world.latency_hist.clone());
    let set_hists = std::mem::take(&mut world.set_hists);
    for (i, h) in set_hists.into_iter().enumerate() {
        let id = world.metrics.set_latency[i];
        world.metrics.reg.install_histogram(id, h);
    }
    profiler.exit(ProfileScope::MetricsUpdate);

    // Assemble results.
    let mut series = BTreeMap::new();
    let mut per_server_mean_ms = BTreeMap::new();
    let mut per_server_requests = BTreeMap::new();
    let mut per_server_utilization = BTreeMap::new();
    let mut total_lat = OnlineStats::new();
    let end = world.cal.now().max(horizon);
    let mut completed = 0;
    for (i, st) in world.servers.iter().enumerate() {
        let s = world.server_ids.get(i);
        series.insert(s, st.series.clone());
        per_server_mean_ms.insert(s, st.all.mean());
        per_server_requests.insert(s, st.completed);
        per_server_utilization.insert(s, st.station.utilization(end));
        total_lat.merge(&st.all);
        completed += st.completed;
    }
    let summary = RunSummary {
        offered_requests: workload.requests.len() as u64,
        completed_requests: completed,
        mean_latency_ms: total_lat.mean(),
        max_latency_ms: world.max_latency_ms,
        per_server_mean_ms,
        per_server_requests,
        per_server_utilization,
        migrations: world.migration_count,
        sim_events: world.event_count,
        late_imbalance_cov: late_imbalance(&series),
        late_mean_latency_ms: late_mean(&series),
        p50_latency_ms: world.latency_hist.quantile(0.50) as f64 / 1000.0,
        p95_latency_ms: world.latency_hist.quantile(0.95) as f64 / 1000.0,
        p99_latency_ms: world.latency_hist.quantile(0.99) as f64 / 1000.0,
        max_queue_depth: world.max_queue_depth,
        band_freezes: world.band_freezes,
        divergent_freezes: world.divergent_freezes,
        factor_clamps: world.factor_clamps,
        unavailable_secs: world.unavailable_secs,
        unavailability_windows: world.unavailability_windows,
        mean_rebalance_secs: if world.rebalance_secs.is_empty() {
            0.0
        } else {
            world.rebalance_secs.iter().sum::<f64>() / world.rebalance_secs.len() as f64
        },
        max_rebalance_secs: world.rebalance_secs.iter().fold(0.0, |a: f64, &b| a.max(b)),
        requests_requeued: world.requests_requeued,
        degraded_capacity_secs: world.degraded_capacity_secs,
        audit_checks: world.audit_checks,
        audit_violations: world.audit_violations,
        requests_shed: world.requests_shed,
        scale_ups: world.scale_ups,
        scale_downs: world.scale_downs,
        jain_fairness,
        completion_fairness,
        p99_per_file_set_max: p99_set_max_us as f64 / 1000.0,
    };
    RunResult {
        policy: policy.name().to_string(),
        workload: workload.label.clone(),
        series,
        epochs: world.epochs,
        summary,
        metrics: world.metrics.reg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anu_workload::{CostModel, SyntheticConfig, WeightDist};

    /// Static modulo policy for world tests: set j -> alive server j % n.
    struct Modulo;

    impl PlacementPolicy for Modulo {
        fn name(&self) -> &str {
            "modulo"
        }
        fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
            let alive = view.alive();
            file_sets
                .iter()
                .enumerate()
                .map(|(i, &fs)| (fs, alive[i % alive.len()]))
                .collect()
        }
        fn on_tick(&mut self, _: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
        fn on_fail(
            &mut self,
            view: &ClusterView,
            failed: ServerId,
            assignment: &Assignment,
        ) -> Vec<MoveSet> {
            let alive = view.alive();
            assignment
                .iter()
                .filter(|&(_, &s)| s == failed)
                .enumerate()
                .map(|(i, (&fs, _))| MoveSet {
                    set: fs,
                    to: alive[i % alive.len()],
                })
                .collect()
        }
        fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
    }

    /// A mover policy that bounces one set between two servers every tick,
    /// to exercise migration buffering.
    struct PingPong {
        flip: bool,
    }

    impl PlacementPolicy for PingPong {
        fn name(&self) -> &str {
            "pingpong"
        }
        fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
            let alive = view.alive();
            file_sets.iter().map(|&fs| (fs, alive[0])).collect()
        }
        fn on_tick(
            &mut self,
            view: &ClusterView,
            _: &[LoadReport],
            _: &Assignment,
        ) -> Vec<MoveSet> {
            self.flip = !self.flip;
            let alive = view.alive();
            vec![MoveSet {
                set: FileSetId(0),
                to: alive[usize::from(self.flip) % alive.len()],
            }]
        }
        fn on_fail(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
        fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
    }

    fn small_workload(seed: u64) -> Workload {
        SyntheticConfig {
            n_file_sets: 20,
            total_requests: 4_000,
            duration_secs: 600.0,
            weights: WeightDist::Constant,
            mean_cost_secs: 0.02,
            cost: CostModel::Deterministic,
            seed,
        }
        .generate()
    }

    #[test]
    fn all_requests_complete() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(1);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        assert_eq!(r.summary.migrations, 0);
        assert!(r.summary.mean_latency_ms > 0.0);
        // Every request is at least an arrival plus a completion event.
        assert!(r.summary.sim_events >= 2 * r.summary.offered_requests);
    }

    #[test]
    fn deterministic_runs() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(2);
        let a = run(&cfg, &w, &mut Modulo);
        let b = run(&cfg, &w, &mut Modulo);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        // The tentpole's core invariant: attaching a sink changes what is
        // *recorded*, never what is *simulated*.
        let cfg = ClusterConfig::paper();
        let w = small_workload(2);
        let untraced = run(&cfg, &w, &mut PingPong { flip: false });
        let mut buf = anu_trace::JsonlBuffer::new(TraceLevel::Request);
        let traced = run_traced(&cfg, &w, &mut PingPong { flip: false }, &mut buf);
        assert_eq!(untraced.summary, traced.summary);
        assert_eq!(untraced.epochs, traced.epochs);
        // The request-level stream covers at least arrival + completion
        // per request, and every line is parseable JSON.
        assert!(buf.lines().len() >= 2 * w.requests.len());
        for line in buf.lines().iter().take(50) {
            assert!(anu_core::Json::parse(line).is_ok(), "bad JSONL: {line}");
        }
        // Byte-determinism of the stream itself.
        let mut buf2 = anu_trace::JsonlBuffer::new(TraceLevel::Request);
        run_traced(&cfg, &w, &mut PingPong { flip: false }, &mut buf2);
        assert_eq!(buf.lines(), buf2.lines());
    }

    #[test]
    fn metrics_registry_is_deterministic_and_conserves_events() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(2);
        let a = run(&cfg, &w, &mut Modulo);
        let b = run(&cfg, &w, &mut Modulo);
        assert_eq!(a.metrics, b.metrics, "registry must be run-deterministic");
        // ...and identical with a sink attached: metrics are a function of
        // the simulated trajectory, which tracing never perturbs.
        let mut buf = anu_trace::JsonlBuffer::new(TraceLevel::Request);
        let traced = run_traced(&cfg, &w, &mut Modulo, &mut buf);
        assert_eq!(a.metrics, traced.metrics);

        // The event-mix counters partition the simulated event count.
        let mix_total: u64 = EVENT_MIX_NAMES
            .iter()
            .map(|n| {
                let id = a.metrics.find(n).expect("event-mix metric registered");
                a.metrics.value(id)
            })
            .sum();
        assert_eq!(mix_total, a.summary.sim_events);
        // Calendar fires equal the event count too — every pop is an event.
        let fired = a.metrics.find("des.calendar.fired").expect("registered");
        assert_eq!(a.metrics.value(fired), a.summary.sim_events);
        // The overall latency histogram saw every completed request.
        let lat = a.metrics.find("latency.us").expect("registered");
        assert_eq!(a.metrics.value(lat), a.summary.completed_requests);
        // Per-set histogram counts sum to the overall count.
        let per_set: u64 = w
            .file_sets()
            .iter()
            .map(|fs| {
                let id = a
                    .metrics
                    .find(&format!("set.{}.latency_us", fs.0))
                    .expect("per-set histogram registered");
                a.metrics.value(id)
            })
            .sum();
        assert_eq!(per_set, a.summary.completed_requests);
        // One scalar snapshot per tuning epoch.
        assert_eq!(a.metrics.snapshots().len(), a.epochs.len());
    }

    #[test]
    fn profiler_scopes_balance_and_do_not_perturb() {
        struct Balance {
            depth: u32,
            enters: u32,
        }
        impl RunProfiler for Balance {
            fn enter(&mut self, _s: ProfileScope) {
                self.depth += 1;
                self.enters += 1;
                assert_eq!(self.depth, 1, "scopes never nest");
            }
            fn exit(&mut self, _s: ProfileScope) {
                assert_eq!(self.depth, 1, "exit without enter");
                self.depth -= 1;
            }
        }
        let cfg = ClusterConfig::paper();
        let w = small_workload(2);
        let plain = run(&cfg, &w, &mut Modulo);
        let mut prof = Balance {
            depth: 0,
            enters: 0,
        };
        let profiled = run_traced_profiled(&cfg, &w, &mut Modulo, &mut NullSink, &mut prof);
        assert_eq!(plain.summary, profiled.summary);
        assert_eq!(plain.metrics, profiled.metrics);
        assert_eq!(prof.depth, 0, "all scopes closed");
        // One PolicyDecide + one MetricsUpdate per tick, plus the final
        // metrics publish.
        assert_eq!(prof.enters as usize, 2 * plain.epochs.len() + 1);
    }

    #[test]
    fn percentiles_and_depth_are_populated() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(1);
        let r = run(&cfg, &w, &mut Modulo);
        assert!(r.summary.p50_latency_ms > 0.0);
        assert!(r.summary.p50_latency_ms <= r.summary.p95_latency_ms);
        assert!(r.summary.p95_latency_ms <= r.summary.p99_latency_ms);
        // Bucket upper bounds can overshoot the true max by <2x, but the
        // median must sit at or below the recorded maximum's bucket bound.
        assert!(r.summary.p99_latency_ms <= 2.0 * r.summary.max_latency_ms.max(1.0));
        assert!(r.summary.max_queue_depth >= 1);
        // Static policy: the tuner never ran, epochs carry no tune data.
        assert!(!r.epochs.is_empty());
        assert!(r.epochs.iter().all(|e| e.tune.is_none() && e.moves == 0));
        assert_eq!(r.summary.band_freezes, 0);
    }

    #[test]
    fn slow_server_has_higher_latency_under_static_policy() {
        // Equal sets per server but 9x speed difference: the slow server
        // must show clearly worse latency.
        let cfg = ClusterConfig::paper();
        let w = small_workload(3);
        let r = run(&cfg, &w, &mut Modulo);
        let slow = r.summary.per_server_mean_ms[&ServerId(0)];
        let fast = r.summary.per_server_mean_ms[&ServerId(4)];
        assert!(slow > 3.0 * fast, "slow {slow:.2}ms vs fast {fast:.2}ms");
    }

    #[test]
    fn migrations_buffer_and_complete() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(4);
        let r = run(&cfg, &w, &mut PingPong { flip: false });
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        // 600 s / 120 s tick = 5 ticks; first flip moves to alive[1], and
        // every subsequent tick alternates: one migration per tick.
        assert!(r.summary.migrations >= 3, "{}", r.summary.migrations);
    }

    #[test]
    fn failure_rehomes_and_completes_everything() {
        let mut cfg = ClusterConfig::paper();
        cfg.faults = vec![FaultEvent::Fail {
            at: SimTime::from_secs_f64(200.0),
            server: ServerId(2),
        }];
        let w = small_workload(5);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        // The failed server stops serving: its request count is well below
        // a fair share of the run.
        let failed = r.summary.per_server_requests[&ServerId(2)];
        let healthy = r.summary.per_server_requests[&ServerId(3)];
        assert!(failed < healthy, "failed {failed} vs healthy {healthy}");
        assert!(r.summary.migrations >= 4, "orphans must migrate");
    }

    #[test]
    fn failure_and_recovery_roundtrip() {
        let mut cfg = ClusterConfig::paper();
        cfg.faults = vec![
            FaultEvent::Fail {
                at: SimTime::from_secs_f64(150.0),
                server: ServerId(1),
            },
            FaultEvent::Recover {
                at: SimTime::from_secs_f64(350.0),
                server: ServerId(1),
            },
        ];
        let w = small_workload(6);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
    }

    #[test]
    fn utilization_tracks_speed() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(7);
        let r = run(&cfg, &w, &mut Modulo);
        // Same per-server load, so utilization is inversely ordered by
        // speed.
        let u0 = r.summary.per_server_utilization[&ServerId(0)];
        let u4 = r.summary.per_server_utilization[&ServerId(4)];
        assert!(u0 > 2.0 * u4, "u0 {u0:.3} vs u4 {u4:.3}");
    }

    #[test]
    fn series_cover_run() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(8);
        let r = run(&cfg, &w, &mut Modulo);
        for ts in r.series.values() {
            assert!(ts.buckets().len() >= 10); // 600 s / 60 s buckets
        }
        let total: u64 = r
            .series
            .values()
            .flat_map(|ts| ts.buckets().iter().map(|b| b.count))
            .sum();
        assert_eq!(total, r.summary.completed_requests);
    }

    /// Modulo placement plus instrumentation: records the reports each
    /// tick delivered and how often the delegate failed over.
    struct Probe {
        seen: Vec<Vec<LoadReport>>,
        delegate_fails: u32,
    }

    impl Probe {
        fn new() -> Self {
            Probe {
                seen: Vec::new(),
                delegate_fails: 0,
            }
        }
    }

    impl PlacementPolicy for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
            let alive = view.alive();
            file_sets
                .iter()
                .enumerate()
                .map(|(i, &fs)| (fs, alive[i % alive.len()]))
                .collect()
        }
        fn on_tick(
            &mut self,
            _: &ClusterView,
            reports: &[LoadReport],
            _: &Assignment,
        ) -> Vec<MoveSet> {
            self.seen.push(reports.to_vec());
            Vec::new()
        }
        fn on_fail(
            &mut self,
            view: &ClusterView,
            failed: ServerId,
            assignment: &Assignment,
        ) -> Vec<MoveSet> {
            let alive = view.alive();
            assignment
                .iter()
                .filter(|&(_, &s)| s == failed)
                .enumerate()
                .map(|(i, (&fs, _))| MoveSet {
                    set: fs,
                    to: alive[i % alive.len()],
                })
                .collect()
        }
        fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
        fn on_delegate_fail(&mut self, _pause_ticks: u32) {
            self.delegate_fails += 1;
        }
    }

    #[test]
    fn slowdown_degrades_capacity_and_latency() {
        let base = ClusterConfig::paper();
        let w = small_workload(10);
        let clean = run(&base, &w, &mut Modulo);

        let mut cfg = base.clone();
        cfg.faults = vec![FaultEvent::Slowdown {
            at: SimTime::from_secs_f64(100.0),
            server: ServerId(4),
            factor: 10.0,
            lasts: SimDuration::from_secs(200),
        }];
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        // The limping server serves its load 10x slower for 200 s.
        let slow = r.summary.per_server_mean_ms[&ServerId(4)];
        let fast = clean.summary.per_server_mean_ms[&ServerId(4)];
        assert!(
            slow > 2.0 * fast,
            "slowdown {slow:.3}ms vs clean {fast:.3}ms"
        );
        // Capacity integral is exact: 200 s at (1 - 1/10) lost capacity.
        assert!(
            (r.summary.degraded_capacity_secs - 180.0).abs() < 1e-6,
            "degraded {:.6}",
            r.summary.degraded_capacity_secs
        );
        // No downtime: a limping server is degraded, not unavailable.
        assert_eq!(r.summary.unavailability_windows, 0);
        assert!(r.summary.unavailable_secs.abs() < 1e-12);
        // The auditor armed (chaos run) and found nothing.
        assert!(r.summary.audit_checks > 0);
        assert_eq!(r.summary.audit_violations, 0);
    }

    #[test]
    fn report_faults_reach_the_policy_late_or_never() {
        let mut cfg = ClusterConfig::paper();
        cfg.faults = vec![
            FaultEvent::ReportLoss {
                at: SimTime::from_secs_f64(100.0),
                server: ServerId(1),
            },
            FaultEvent::ReportDelay {
                at: SimTime::from_secs_f64(150.0),
                server: ServerId(1),
            },
        ];
        let w = small_workload(11);
        let mut p = Probe::new();
        let r = run(&cfg, &w, &mut p);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        assert!(
            p.seen.len() >= 3,
            "expected >=3 ticks, got {}",
            p.seen.len()
        );
        let from_s1 = |tick: &Vec<LoadReport>| -> Vec<u32> {
            tick.iter()
                .filter(|rep| rep.server == ServerId(1))
                .map(|rep| rep.age_ticks)
                .collect()
        };
        // Tick 0 (t=120 s): the report was lost outright.
        assert!(from_s1(&p.seen[0]).is_empty(), "lost report delivered");
        // Tick 1 (t=240 s): the report is held in transit.
        assert!(from_s1(&p.seen[1]).is_empty(), "delayed report not held");
        // Tick 2 (t=360 s): the held report lands one tick stale, next to
        // the fresh one.
        let mut ages = from_s1(&p.seen[2]);
        ages.sort_unstable();
        assert_eq!(ages, vec![0, 1], "held + fresh reports expected");
        assert_eq!(r.summary.audit_violations, 0);
    }

    #[test]
    fn delegate_fail_reaches_the_policy() {
        let mut cfg = ClusterConfig::paper();
        cfg.faults = vec![FaultEvent::DelegateFail {
            at: SimTime::from_secs_f64(130.0),
            pause_ticks: 2,
        }];
        let w = small_workload(12);
        let mut p = Probe::new();
        let r = run(&cfg, &w, &mut p);
        assert_eq!(p.delegate_fails, 1);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        assert_eq!(r.summary.audit_violations, 0);
    }

    #[test]
    fn fail_recover_records_availability_metrics() {
        let mut cfg = ClusterConfig::paper();
        cfg.faults = vec![
            FaultEvent::Fail {
                at: SimTime::from_secs_f64(150.0),
                server: ServerId(1),
            },
            FaultEvent::Recover {
                at: SimTime::from_secs_f64(350.0),
                server: ServerId(1),
            },
        ];
        let w = small_workload(13);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        assert_eq!(r.summary.unavailability_windows, 1);
        // Down 150 s → 350 s exactly; a dead server loses full capacity.
        assert!(
            (r.summary.unavailable_secs - 200.0).abs() < 1e-6,
            "unavailable {:.6}",
            r.summary.unavailable_secs
        );
        assert!(
            (r.summary.degraded_capacity_secs - 200.0).abs() < 1e-6,
            "degraded {:.6}",
            r.summary.degraded_capacity_secs
        );
        // Orphans re-home after exactly the failover delay.
        assert!(
            (r.summary.mean_rebalance_secs - cfg.failover_delay.as_secs_f64()).abs() < 1e-6,
            "rebalance {:.6}",
            r.summary.mean_rebalance_secs
        );
        assert!(r.summary.max_rebalance_secs >= r.summary.mean_rebalance_secs);
        assert!(r.summary.audit_checks > 0);
        assert_eq!(r.summary.audit_violations, 0);
    }

    #[test]
    fn fault_free_runs_do_not_audit() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(14);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.audit_checks, 0);
        assert_eq!(r.summary.degraded_capacity_secs, 0.0);
        assert_eq!(r.summary.unavailable_secs, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid fault script")]
    fn contradictory_fault_script_is_rejected_up_front() {
        let mut cfg = ClusterConfig::paper();
        cfg.faults = vec![FaultEvent::Recover {
            at: SimTime::from_secs_f64(10.0),
            server: ServerId(0),
        }];
        let w = small_workload(15);
        run(&cfg, &w, &mut Modulo);
    }

    #[test]
    #[should_panic(expected = "left orphan")]
    fn policy_ignoring_failure_is_caught() {
        struct BadPolicy;
        impl PlacementPolicy for BadPolicy {
            fn name(&self) -> &str {
                "bad"
            }
            fn initial(&mut self, view: &ClusterView, fs: &[FileSetId]) -> Assignment {
                let alive = view.alive();
                fs.iter()
                    .enumerate()
                    .map(|(i, &f)| (f, alive[i % alive.len()]))
                    .collect()
            }
            fn on_tick(
                &mut self,
                _: &ClusterView,
                _: &[LoadReport],
                _: &Assignment,
            ) -> Vec<MoveSet> {
                Vec::new()
            }
            fn on_fail(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
                Vec::new() // bug: ignores orphans
            }
            fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
                Vec::new()
            }
        }
        let mut cfg = ClusterConfig::paper();
        cfg.faults = vec![FaultEvent::Fail {
            at: SimTime::from_secs_f64(100.0),
            server: ServerId(0),
        }];
        let w = small_workload(9);
        run(&cfg, &w, &mut BadPolicy);
    }

    /// An overloading workload for the shed and autoscaler tests: `n`
    /// expensive requests in the first 10 s, then a light trickle of
    /// cheap ones for the rest of the run.
    fn burst_then_trickle(burst: usize, burst_cost_secs: f64) -> Workload {
        let mut requests = Vec::new();
        for i in 0..burst {
            requests.push(anu_workload::Request {
                arrival: SimTime::from_secs_f64(i as f64 * 10.0 / burst as f64),
                file_set: FileSetId((i % 4) as u64),
                cost: SimDuration::from_secs_f64(burst_cost_secs),
            });
        }
        let mut t = 130.0;
        while t < 590.0 {
            requests.push(anu_workload::Request {
                arrival: SimTime::from_secs_f64(t),
                file_set: FileSetId((t as u64) % 4),
                cost: SimDuration::from_secs_f64(0.001),
            });
            t += 2.0;
        }
        Workload::new("burst", 4, SimDuration::from_secs(600), requests)
    }

    #[test]
    fn shedding_bounds_queues_and_conserves_requests() {
        let mut cfg = ClusterConfig::homogeneous(2);
        cfg.shed = Some(crate::spec::ShedConfig { max_queue: 5 });
        // 200 one-second requests in 10 s on two speed-1 servers: far
        // beyond capacity — without shedding the queues would reach ~100.
        let w = burst_then_trickle(200, 1.0);
        let r = run(&cfg, &w, &mut Modulo);
        assert!(r.summary.requests_shed > 0, "overload must shed");
        assert_eq!(
            r.summary.completed_requests + r.summary.requests_shed,
            r.summary.offered_requests,
            "every request either completes or is shed"
        );
        assert!(
            r.summary.max_queue_depth <= 5,
            "ceiling bounds the queues: {}",
            r.summary.max_queue_depth
        );
        let shed = r.metrics.find("requests.shed").expect("registered");
        assert_eq!(r.metrics.value(shed), r.summary.requests_shed);
        // Deterministic, and identical under tracing (the degraded span
        // changes what is recorded, never what is simulated).
        let mut buf = anu_trace::JsonlBuffer::new(TraceLevel::Epoch);
        let traced = run_traced(&cfg, &w, &mut Modulo, &mut buf);
        assert_eq!(r.summary, traced.summary);
        let degraded_spans = buf
            .lines()
            .iter()
            .filter(|l| l.contains("\"degraded\""))
            .count();
        assert!(degraded_spans >= 1, "shedding must open a degraded span");
    }

    #[test]
    fn autoscaler_commissions_under_load_and_retires_when_idle() {
        use crate::autoscaler::AutoscalerConfig;
        let mut cfg = ClusterConfig::homogeneous(2);
        cfg.servers.push(crate::spec::ServerSpec {
            id: ServerId(2),
            speed: 1.0,
        });
        cfg.autoscaler = Some(AutoscalerConfig {
            high_latency_ms: 1_000.0,
            low_latency_ms: 10.0,
            cooldown_ticks: 1,
            min_servers: 2,
            standby: vec![ServerId(2)],
        });
        // Heavy burst -> first tick's mean latency is tens of seconds ->
        // commission. The trickle afterwards runs at ~1 ms -> once the
        // cooldown passes, the standby is retired again.
        let w = burst_then_trickle(200, 1.0);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        assert_eq!(r.summary.scale_ups, 1, "burst must commission");
        assert_eq!(r.summary.scale_downs, 1, "idle must decommission");
        // The autoscaler arms the auditor; membership boundaries stay
        // invariant-clean.
        assert!(r.summary.audit_checks > 0);
        assert_eq!(r.summary.audit_violations, 0);
        // Elasticity opens no availability windows: a dormant standby was
        // never "down".
        assert_eq!(r.summary.unavailability_windows, 0);
        assert_eq!(r.summary.unavailable_secs, 0.0);
        // Deterministic repeat, registry included.
        let b = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary, b.summary);
        assert_eq!(r.metrics, b.metrics);
        let ups = r.metrics.find("scale.commissions").expect("registered");
        assert_eq!(r.metrics.value(ups), 1);
        let downs = r.metrics.find("scale.decommissions").expect("registered");
        assert_eq!(r.metrics.value(downs), 1);
    }

    #[test]
    fn standby_servers_start_dormant_and_unassigned() {
        use crate::autoscaler::AutoscalerConfig;
        let mut cfg = ClusterConfig::homogeneous(2);
        cfg.servers.push(crate::spec::ServerSpec {
            id: ServerId(2),
            speed: 1.0,
        });
        cfg.autoscaler = Some(AutoscalerConfig {
            high_latency_ms: 1_000_000.0,
            low_latency_ms: 1.0e-3,
            cooldown_ticks: 1,
            min_servers: 2,
            standby: vec![ServerId(2)],
        });
        // Light load, unreachable thresholds: the standby never wakes.
        let w = small_workload(11);
        let r = run(&cfg, &w, &mut Modulo);
        assert_eq!(r.summary.scale_ups, 0);
        assert_eq!(r.summary.per_server_requests[&ServerId(2)], 0);
        assert_eq!(r.summary.per_server_utilization[&ServerId(2)], 0.0);
        assert_eq!(r.summary.completed_requests, r.summary.offered_requests);
        assert_eq!(r.summary.audit_violations, 0);
    }

    #[test]
    fn fairness_fields_are_populated() {
        let cfg = ClusterConfig::paper();
        let w = small_workload(12);
        let r = run(&cfg, &w, &mut Modulo);
        assert!(r.summary.jain_fairness > 0.0 && r.summary.jain_fairness <= 1.0);
        // Equal per-set load on a 9x-heterogeneous cluster under a static
        // policy: treatment is measurably uneven.
        assert!(
            r.summary.jain_fairness < 0.999,
            "{}",
            r.summary.jain_fairness
        );
        assert!(r.summary.p99_per_file_set_max >= r.summary.p99_latency_ms);
        let g = r
            .metrics
            .find("fairness.jain_millionths")
            .expect("registered");
        assert_eq!(
            r.metrics.value(g),
            (r.summary.jain_fairness * 1_000_000.0).round() as u64
        );
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::policy::MoveSet;
    use anu_workload::{CostModel, SyntheticConfig, WeightDist};

    /// Moves one chosen set to a chosen destination at the first tick.
    struct OneMove {
        set: FileSetId,
        to: ServerId,
        done: bool,
    }

    impl PlacementPolicy for OneMove {
        fn name(&self) -> &str {
            "one-move"
        }
        fn initial(&mut self, view: &ClusterView, fs: &[FileSetId]) -> Assignment {
            let alive = view.alive();
            // Everything except the destination gets the sets, so the move
            // is guaranteed to change servers.
            fs.iter()
                .map(|&f| {
                    (
                        f,
                        if alive[0] == self.to {
                            alive[1]
                        } else {
                            alive[0]
                        },
                    )
                })
                .collect()
        }
        fn on_tick(&mut self, _: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
            if self.done {
                return Vec::new();
            }
            self.done = true;
            vec![MoveSet {
                set: self.set,
                to: self.to,
            }]
        }
        fn on_fail(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
        fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
    }

    fn uniform_workload(seed: u64) -> Workload {
        SyntheticConfig {
            n_file_sets: 4,
            total_requests: 4_000,
            duration_secs: 800.0,
            weights: WeightDist::Constant,
            mean_cost_secs: 0.01,
            cost: CostModel::Deterministic,
            seed,
        }
        .generate()
    }

    #[test]
    fn cold_cache_inflates_post_move_service() {
        // Same scenario with and without a cold-cache penalty: the moved
        // set's requests right after the migration must be slower under
        // the penalty, and only transiently.
        let base = ClusterConfig::paper();
        let w = uniform_workload(21);
        let moved = FileSetId(0);
        let dest = ServerId(4);

        let run_with_penalty = |mult: f64| {
            let mut cfg = base.clone();
            cfg.cold_cache = crate::spec::ColdCacheConfig {
                multiplier: mult,
                warm_after: 100,
            };
            let mut p = OneMove {
                set: moved,
                to: dest,
                done: false,
            };
            run(&cfg, &w, &mut p)
        };

        let cold = run_with_penalty(4.0);
        let warm = run_with_penalty(1.0);
        assert_eq!(
            cold.summary.completed_requests,
            warm.summary.completed_requests
        );
        // The destination's total busy time is strictly larger with the
        // penalty (it served the same requests, each inflated at first).
        let u_cold = cold.summary.per_server_utilization[&dest];
        let u_warm = warm.summary.per_server_utilization[&dest];
        assert!(
            u_cold > u_warm,
            "cold-cache utilization {u_cold:.4} must exceed warm {u_warm:.4}"
        );
    }

    #[test]
    fn queued_follow_moves_waiting_requests() {
        // With queued_follow, the destination serves strictly more of the
        // moved set's requests (it also gets the backlog).
        let w = uniform_workload(22);
        let moved = FileSetId(0);
        let dest = ServerId(4);
        let run_mode = |follow: bool| {
            let mut cfg = ClusterConfig::paper();
            cfg.migration.queued_follow = follow;
            let mut p = OneMove {
                set: moved,
                to: dest,
                done: false,
            };
            run(&cfg, &w, &mut p).summary.per_server_requests[&dest]
        };
        let with_follow = run_mode(true);
        let without = run_mode(false);
        assert!(
            with_follow >= without,
            "queued_follow {with_follow} vs flush-at-source {without}"
        );
    }
}
