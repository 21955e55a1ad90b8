//! The cluster simulation world: one event loop, whatever the arrival
//! process.
//!
//! Models the Storage Tank metadata tier the paper simulates (§2, §7):
//! clients direct each metadata request to the server owning the target
//! file set; servers are FIFO queues with relative speeds; a policy
//! periodically reassigns file sets; moving a file set costs flush + init
//! time, during which its requests buffer at the destination, and the
//! destination starts with a cold cache. Failures drain a server's queue
//! and re-home its file sets after a failover delay.
//!
//! Requests come from an `ArrivalSource`: trace replay for [`run`] and
//! its traced variants, or the closed-loop clients of
//! [`crate::closed_loop`]. This module holds the entry points, setup, the
//! loop and the arrival, completion and tick handlers; `membership` holds
//! migration, faults, autoscaling and the invariant auditor; `observe`
//! holds metrics publication and result assembly.

mod membership;
mod observe;

use crate::autoscaler::Autoscaler;
use crate::metrics::{EpochRecord, RunResult};
use crate::policy::{Assignment, ClusterView, PlacementPolicy};
use crate::profile::{NoProfiler, ProfileScope, RunProfiler};
use crate::spec::{ClusterConfig, SERIES_BUCKET};
use anu_core::{FileSetId, LoadReport, ServerId};
use anu_des::{
    Calendar, FifoStation, IntervalStats, Job, OnlineStats, SimDuration, SimTime, StartService,
    TimeSeries,
};
use anu_metrics::Registry;
use anu_trace::{NullSink, TraceEvent, TraceLevel, TraceSink, Tracer};
use anu_workload::Workload;
use observe::SetLatency;

/// Events of the cluster simulation. Server and file-set payloads are
/// ids' values, which are also indices: a server's id is its position in
/// [`ClusterConfig::servers`] (`ClusterConfig::validate` requires it) and
/// file sets are `0..n`, so the hot loop never touches an ordered map.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// The request its source tagged with this number arrives.
    Arrival(u32),
    /// The in-service job at a server completes.
    Complete(u32),
    /// Delegate tuning tick.
    Tick,
    /// A file set's migration finishes at its destination.
    MigrationDone(u32),
    /// The `i`-th configured fault fires.
    Fault(u32),
    /// A limping server's slowdown lifts.
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

/// Where requests come from. The world's one loop drives any source: it
/// seeds the calendar with the source's first arrivals, asks the source
/// to resolve each `Arrival(tag)` it fires, and reports each request's
/// departure back. The tag is opaque to the world (a trace position for
/// replay, a client number for closed-loop clients); it rides in the job
/// and in any migration buffer until the request departs.
///
/// A request's fields stay with its source: the world holds only its tag
/// and file set, and reads the arrival and cost back through
/// [`ArrivalSource::admitted`] when a completion measures latency or a
/// drained or buffered job is re-costed.
///
/// The loop is generic over the source, so each source compiles to its
/// own loop with no dynamic call per event.
pub(crate) trait ArrivalSource {
    /// File sets are `0..n_file_sets()`.
    fn n_file_sets(&self) -> usize;
    /// Nominal duration: ticks stop there, and the series cover it.
    fn duration(&self) -> SimDuration;
    /// The workload label the result carries.
    fn label(&self) -> &str;
    /// The arrivals to seed the calendar with, as `(time, tag)`.
    fn first_arrivals(&mut self) -> Vec<(SimTime, u32)>;
    /// Resolve the request tagged `tag`, arriving `now`.
    fn arrive(&mut self, tag: u32, now: SimTime) -> Arrival;
    /// The arrival and speed-1 cost of the admitted request tagged `tag`:
    /// the `now` it arrived at and the cost [`ArrivalSource::arrive`]
    /// resolved. Valid from its admission until its departure.
    fn admitted(&self, tag: u32) -> (SimTime, SimDuration);
    /// The request tagged `tag` left `now`: served, or shed at admission.
    /// Returns the arrival its departure causes, as `(time, tag)`.
    fn depart(&mut self, tag: u32, now: SimTime, served: bool) -> Option<(SimTime, u32)>;
}

/// One request, as its source resolves an `Arrival(tag)`.
pub(crate) struct Arrival {
    /// Target file set.
    pub set: u32,
    /// Service demand on a speed-1 server.
    pub cost: SimDuration,
    /// The next arrival to chain, as `(time, tag)`; it is scheduled
    /// before this request is admitted.
    pub next: Option<(SimTime, u32)>,
}

/// Trace replay: the workload's requests in arrival order, one pending
/// arrival at a time. A request's tag is its position in the trace, and a
/// departure causes nothing.
///
/// Each arrival is chained at its request's own arrival time, never before
/// the one firing, so the calendar never clamps it: an admitted request
/// arrived at exactly its trace arrival, which [`ArrivalSource::admitted`]
/// reads back from the stream.
struct Replay<'w> {
    workload: &'w Workload,
    requests: &'w [anu_workload::Request],
}

impl ArrivalSource for Replay<'_> {
    fn n_file_sets(&self) -> usize {
        self.workload.n_file_sets
    }

    fn duration(&self) -> SimDuration {
        self.workload.duration()
    }

    fn label(&self) -> &str {
        &self.workload.label
    }

    fn first_arrivals(&mut self) -> Vec<(SimTime, u32)> {
        self.requests
            .first()
            .map(|r| (r.arrival(), 0))
            .into_iter()
            .collect()
    }

    #[inline]
    fn arrive(&mut self, tag: u32, _now: SimTime) -> Arrival {
        let req = self.requests[tag as usize];
        let set = req.file_set().0;
        debug_assert!((set as usize) < self.workload.n_file_sets);
        // Chain the next arrival so the calendar stays small.
        let next = self
            .requests
            .get(tag as usize + 1)
            .map(|r| (r.arrival(), tag + 1));
        Arrival {
            // A request's set index is below 2^24.
            set: set as u32,
            cost: req.cost(),
            next,
        }
    }

    #[inline]
    fn admitted(&self, tag: u32) -> (SimTime, SimDuration) {
        let req = self.requests[tag as usize];
        (req.arrival(), req.cost())
    }

    #[inline]
    fn depart(&mut self, _tag: u32, _now: SimTime, _served: bool) -> Option<(SimTime, u32)> {
        None
    }
}

/// Job metadata: the request's source tag and the set it targets. The
/// request's arrival and raw (speed-1) cost stay with its source, which
/// [`ArrivalSource::admitted`] reads back by tag, so a queued job is 16
/// bytes: its service demand and these 8.
#[derive(Clone, Copy, Debug)]
struct JobInfo {
    tag: u32,
    set: u32,
}
const _: () = assert!(size_of::<Job<JobInfo>>() == 16);

/// No server: the owner of an orphaned file set, or the destination of
/// a settled one.
const NO_SERVER: u32 = u32::MAX;

/// One file set's routing and cache state: everything an arrival reads
/// about its set, in one 12-byte row (five rows to a cache line).
///
/// Warmth lives here rather than per server because at most one server
/// ever holds a non-zero count for a set, and that server is the owner:
/// requests are only ever enqueued at the set's owner, and the count
/// restarts at zero when a migration starts (the releasing owner flushes)
/// and again when it lands (the new owner starts cold).
#[derive(Clone, Copy)]
struct SetRow {
    /// Owning server; `NO_SERVER` while orphaned by a
    /// failure. While the set is in flight this is still the releasing
    /// owner, which the auditor's assignment shows and a landing at a
    /// dead destination falls back to; the planning assignment shows the
    /// destination instead.
    owner: u32,
    /// Destination while a migration is in flight;
    /// `NO_SERVER` when settled.
    dest: u32,
    /// Requests the owner has served for this set since acquiring it —
    /// drives the cold-cache factor.
    warmth: u32,
}
const _: () = assert!(size_of::<SetRow>() == 12);

impl SetRow {
    /// The owning server, unless the set is orphaned.
    #[inline]
    fn owner(self) -> Option<u32> {
        (self.owner != NO_SERVER).then_some(self.owner)
    }

    /// The destination, while a migration is in flight.
    #[inline]
    fn dest(self) -> Option<u32> {
        (self.dest != NO_SERVER).then_some(self.dest)
    }
}

/// One server's queue, statistics and fault state, at the server id's
/// index of the world's server table. Nothing here is per file set: a
/// set's warmth lives in its [`SetRow`].
struct ServerState {
    speed: f64,
    alive: bool,
    station: FifoStation<JobInfo>,
    interval: IntervalStats,
    series: TimeSeries,
    /// Every completion's latency (ms); its count is the server's
    /// completed requests.
    all: OnlineStats,
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

/// The simulation state, indexed by id on the per-event path.
///
/// Server and file-set universes are fixed at setup (servers `0..n` in
/// declaration order, file sets `0..n`), and every per-event structure
/// (server table, per-set rows, migration buffers, per-server/per-set
/// accumulators) is a `Vec` indexed by the id's value. The policy
/// boundary is indexed the same way: the [`Assignment`] a policy reads is
/// one owner entry per set, filled from the rows per call. `BTreeMap`s
/// appear only in result assembly — and since index order is id order,
/// every boundary iteration yields the exact sequence the old map-keyed
/// world produced, byte for byte.
///
/// Each count is kept once. The hot path bumps plain fields here (or the
/// calendar's and the stations' own statistics); the metrics registry
/// receives their current totals at each publication, and the result's
/// tallies are read off the same fields, or off `epochs` for the tuner's
/// decisions, when the run ends.
struct World<'a> {
    cfg: &'a ClusterConfig,
    cal: Calendar<Event>,
    servers: Vec<ServerState>,
    /// Owner, in-flight destination and warmth per file set: the one
    /// per-set table the arrival path reads.
    sets: Vec<SetRow>,
    /// Per file set: the tags of requests that arrived while the set was
    /// in flight, in arrival order. Only in-flight sets touch it.
    buffered: Vec<Vec<u32>>,
    horizon: SimTime,
    migration_count: u64,
    /// Structured-trace emitter. With a `NullSink` every emission site is
    /// one integer compare; the tracer never schedules calendar events, so
    /// traced and untraced runs execute identical event sequences.
    tracer: Tracer<'a>,
    /// Largest queue population seen at any server at any enqueue.
    max_queue_depth: u64,
    /// One record per tuning tick (telemetry CSV + `RunResult::epochs`).
    epochs: Vec<EpochRecord>,
    /// Requests that completed after the nominal horizon (stragglers).
    post_horizon_completions: u64,
    /// Requests drained from failed servers and requeued elsewhere.
    requests_requeued: u64,
    /// Requests refused at admission by the shed ceiling.
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
    /// Per file set: the rebalance clock an in-flight
    /// orphaned set closes on landing.
    orphan_fault: Vec<Option<u32>>,
    /// The invariant auditor arms only when membership can change (a
    /// non-empty fault script or an autoscaler), so static runs pay
    /// nothing at tick boundaries.
    auditing: bool,
    /// Auditor boundary checks executed.
    audit_checks: u64,
    /// Invariant violations detected.
    audit_violations: u64,
    /// Events fired, by kind (indexed by [`Event::mix`]): plain increments
    /// on the hot path. Their sum is the run's event count.
    event_mix: [u64; 6],
    /// Per file set latency counts, one cache line a set, built
    /// into histograms and installed into the registry once at the end of
    /// the run.
    set_latency: SetLatency,
    /// Per file set admission-shed counts — which sets paid
    /// for graceful degradation. Feeds the completion-fairness index.
    set_shed: Vec<u64>,
    /// The metrics registry: the metric table's rows and the per-server
    /// gauges, set from the fields above at each publication.
    metrics: Registry,
}

impl<'a> World<'a> {
    fn view(&self) -> ClusterView {
        ClusterView {
            servers: self
                .servers
                .iter()
                .enumerate()
                .map(|(i, st)| (ServerId(i as u32), st.alive))
                .collect(),
            now: self.cal.now(),
        }
    }

    /// Queue the request `info` names at `server`, the set's owner, with
    /// its arrival and speed-1 cost.
    fn enqueue(&mut self, server: u32, info: JobInfo, (arrival, cost): (SimTime, SimDuration)) {
        let set = info.set;
        let now = self.cal.now();
        let row = &mut self.sets[set as usize];
        debug_assert_eq!(row.owner, server, "enqueue away from the owner");
        let factor = self.cfg.cold_cache.factor(row.warmth);
        row.warmth += 1;
        let st = &mut self.servers[server as usize];
        debug_assert!(st.alive, "routing to dead server {}", ServerId(server));
        let service =
            SimDuration::from_secs_f64(cost.as_secs_f64() / st.speed * factor * st.slow_factor);
        let job = Job {
            service,
            meta: info,
        };
        let started = st.station.arrive(now, job);
        let depth = st.station.population() as u64;
        self.max_queue_depth = self.max_queue_depth.max(depth);
        if self.tracer.enabled(TraceLevel::Request) {
            self.tracer.emit(
                TraceLevel::Request,
                now,
                &TraceEvent::QueueDepth { server, depth },
            );
            if let StartService::At(_) = started {
                self.tracer.emit(
                    TraceLevel::Request,
                    now,
                    &TraceEvent::RequestDispatch {
                        server,
                        set: u64::from(set),
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

    /// Requests admitted so far, enqueued or buffered: the conservation
    /// total the auditor checks against. Each fired arrival event admits
    /// its request or sheds it, and no arrival is ever cancelled.
    fn admitted_requests(&self) -> u64 {
        self.event_mix[0] - self.requests_shed
    }

    /// Schedule the arrival a source chained, if any.
    #[inline]
    fn chain(&mut self, next: Option<(SimTime, u32)>) {
        if let Some((at, tag)) = next {
            self.cal.schedule(at, Event::Arrival(tag));
        }
    }

    fn handle_arrival<S: ArrivalSource>(&mut self, tag: u32, source: &mut S) {
        let now = self.cal.now();
        let req = source.arrive(tag, now);
        // The source reads back what it resolved: a queued or buffered
        // job's arrival and cost are this `now` and this cost.
        debug_assert_eq!(source.admitted(tag), (now, req.cost));
        self.chain(req.next);
        let set = req.set;
        let row = self.sets[set as usize];
        if row.dest().is_some() {
            self.buffered[set as usize].push(tag);
            if self.tracer.enabled(TraceLevel::Request) {
                self.tracer.emit(
                    TraceLevel::Request,
                    now,
                    &TraceEvent::RequestArrival {
                        server: None,
                        set: u64::from(set),
                        buffered: true,
                    },
                );
            }
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "setup assigns every file set before the run starts"
        )]
        let server = row.owner().expect("every file set is assigned");
        if let Some(shed) = &self.cfg.shed {
            if self.servers[server as usize].station.population() >= shed.max_queue {
                // Graceful degradation: refuse the request at admission
                // instead of letting the queue diverge. Shed requests are
                // never admitted — they stay out of the admitted count,
                // the trace, and the latency statistics — and the
                // overloaded stretch is covered by one `degraded` span
                // rather than a per-request event.
                self.requests_shed += 1;
                self.set_shed[set as usize] += 1;
                self.shed_since_tick = true;
                if self.degraded_span.is_none() {
                    self.degraded_span = Some(self.tracer.open(now, "degraded"));
                }
                let next = source.depart(tag, now, false);
                self.chain(next);
                return;
            }
        }
        if self.tracer.enabled(TraceLevel::Request) {
            self.tracer.emit(
                TraceLevel::Request,
                now,
                &TraceEvent::RequestArrival {
                    server: Some(server),
                    set: u64::from(set),
                    buffered: false,
                },
            );
        }
        self.enqueue(server, JobInfo { tag, set }, (now, req.cost));
    }

    fn handle_complete<S: ArrivalSource>(&mut self, server: u32, source: &mut S) {
        let now = self.cal.now();
        let st = &mut self.servers[server as usize];
        let (job, next) = st.station.complete(now);
        let latency = now.since(source.admitted(job.meta.tag).0);
        st.interval.record(latency);
        st.series.record(now, latency.as_millis_f64());
        st.all.push(latency.as_millis_f64());
        self.set_latency.record(job.meta.set, latency.0);
        if now > self.horizon {
            self.post_horizon_completions += 1;
        }
        if self.tracer.enabled(TraceLevel::Request) {
            let depth = st.station.population() as u64;
            // The next queued job (if any) enters service now.
            let dispatched = st
                .station
                .in_service()
                .map(|j| (j.meta.set, now.since(source.admitted(j.meta.tag).0).0));
            self.tracer.emit(
                TraceLevel::Request,
                now,
                &TraceEvent::RequestComplete {
                    server,
                    set: u64::from(job.meta.set),
                    latency_us: latency.0,
                    depth,
                },
            );
            if let Some((set, wait_us)) = dispatched {
                self.tracer.emit(
                    TraceLevel::Request,
                    now,
                    &TraceEvent::RequestDispatch {
                        server,
                        set: u64::from(set),
                        wait_us,
                    },
                );
            }
        }
        self.servers[server as usize].completion = match next {
            Some(t) => Some(self.cal.schedule(t, Event::Complete(server))),
            None => None,
        };
        let next = source.depart(job.meta.tag, now, true);
        self.chain(next);
    }

    fn collect_reports(&mut self) -> Vec<LoadReport> {
        let mut reports = Vec::new();
        for (i, st) in self.servers.iter_mut().enumerate() {
            let s = ServerId(i as u32);
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
        self.sets
            .iter()
            .map(|row| row.dest().or(row.owner()).map(ServerId))
            .collect()
    }

    /// The routing assignment the auditor hands the policy: an in-flight
    /// set at its releasing owner, an orphaned one at `None`.
    fn assignment_map(&self) -> Assignment {
        self.sets
            .iter()
            .map(|row| row.owner().map(ServerId))
            .collect()
    }

    /// A tuning tick: collect the servers' reports, let the autoscaler and
    /// then the policy act on them, record the epoch, publish metrics, and
    /// schedule the next tick while it falls within the horizon.
    fn handle_tick<S: ArrivalSource>(
        &mut self,
        policy: &mut dyn PlacementPolicy,
        profiler: &mut dyn RunProfiler,
        source: &S,
    ) {
        let now = self.cal.now();
        // A full tick passed without a shed: the overload is
        // over, close the degraded span at this quiet boundary
        // (the span stack is exactly [run] here, keeping
        // open/close strictly LIFO).
        if !self.shed_since_tick {
            if let Some(id) = self.degraded_span.take() {
                self.tracer.close(now, id);
            }
        }
        self.shed_since_tick = false;
        let epoch = self.epochs.len() as u64;
        let span = self.tracer.open(now, "epoch");
        self.tracer
            .emit(TraceLevel::Epoch, now, &TraceEvent::EpochBegin { epoch });
        let reports = self.collect_reports();
        self.autoscale(&reports, policy, source);
        let view = self.view();
        let moves = policy.on_tick(&view, &reports, &self.planning_assignment());
        let move_count = moves.len() as u64;
        let tune = policy.take_epoch();
        let delay = self.cfg.migration.total();
        self.apply_moves(moves, delay, policy.name());
        if self.tracer.enabled(TraceLevel::Epoch) {
            // Queue-depth samples at the tick boundary, one per
            // live server, then the epoch record itself.
            let depths: Vec<(u32, u64)> = self
                .servers
                .iter()
                .enumerate()
                .filter(|(_, st)| st.alive)
                .map(|(i, st)| (i as u32, st.station.population() as u64))
                .collect();
            for (server, depth) in depths {
                self.tracer.emit(
                    TraceLevel::Epoch,
                    now,
                    &TraceEvent::QueueDepth { server, depth },
                );
            }
            self.tracer.emit(
                TraceLevel::Epoch,
                now,
                &TraceEvent::EpochEnd {
                    epoch,
                    moves: move_count,
                    tune: tune.clone(),
                },
            );
        }
        self.audit(&*policy);
        self.tracer.close(now, span);
        self.epochs.push(EpochRecord {
            index: epoch,
            time_s: now.as_secs_f64(),
            moves: move_count,
            tune,
        });
        profiler.enter(ProfileScope::MetricsUpdate);
        self.publish_metrics(Some((epoch, now)));
        profiler.exit(ProfileScope::MetricsUpdate);
        let next = now + self.cfg.tick;
        if next <= self.horizon {
            self.cal.schedule(next, Event::Tick);
        }
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

/// [`run_traced`], with metrics-publication scope boundaries delivered
/// to `profiler` at every tick and once at the end of the run.
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
    let mut replay = Replay {
        workload,
        requests: &workload.requests,
    };
    simulate(cfg, &mut replay, policy, sink, profiler)
}

/// The one event loop. Sets up the world for `source`'s file sets and
/// duration, places every file set, seeds the calendar with the source's
/// first arrivals, the first tick and the fault script, and runs the
/// calendar dry.
pub(crate) fn simulate<S: ArrivalSource>(
    cfg: &ClusterConfig,
    source: &mut S,
    policy: &mut dyn PlacementPolicy,
    sink: &mut dyn TraceSink,
    profiler: &mut dyn RunProfiler,
) -> RunResult {
    #[expect(
        clippy::expect_used,
        reason = "entry precondition: results on an invalid config are meaningless"
    )]
    cfg.validate().expect("invalid cluster config");
    // Fault scripts are validated up front, replaying the whole schedule
    // against the server set, so mid-run fault handling never has to
    // panic on a contradictory script.
    #[expect(
        clippy::expect_used,
        reason = "entry precondition: a contradictory fault script has no meaningful result"
    )]
    cfg.validate_faults().expect("invalid fault script");
    let horizon = SimTime::ZERO + source.duration();
    let series_len = source.duration() + SERIES_BUCKET;

    // Every per-event structure below is indexed by id: validation made
    // each server's id its position, and file sets are `0..n`.
    let n_sets = source.n_file_sets();
    // The registry is allocated before the per-set tables. Allocated after
    // them, the same blocks landed worse: `e2e-bench`'s `scale_hotpath`
    // peaked at 181.5 MB instead of 175.4 MB (seed 7, glibc malloc on
    // x86-64 Linux).
    let metrics = observe::registry(cfg.servers.len());
    // Standby servers have their slots (trace ids and metric names are
    // fixed at setup) but start dormant: not alive, so the initial
    // placement and the fault script never see them.
    let standby = cfg.standby_ids();

    let mut world = World {
        cfg,
        cal: Calendar::new(),
        servers: cfg
            .servers
            .iter()
            .map(|s| ServerState {
                speed: s.speed,
                alive: !standby.contains(&s.id),
                station: FifoStation::new(),
                interval: IntervalStats::new(),
                series: TimeSeries::new(SERIES_BUCKET, series_len),
                all: OnlineStats::new(),
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
        // Initial placement starts warm: the system has been serving these
        // sets; the paper penalizes only post-move cold caches.
        sets: vec![
            SetRow {
                owner: NO_SERVER,
                dest: NO_SERVER,
                warmth: cfg.cold_cache.warm_after,
            };
            n_sets
        ],
        buffered: vec![Vec::new(); n_sets],
        horizon,
        migration_count: 0,
        tracer: Tracer::new(sink),
        max_queue_depth: 0,
        epochs: Vec::new(),
        post_horizon_completions: 0,
        requests_requeued: 0,
        requests_shed: 0,
        shed_since_tick: false,
        degraded_span: None,
        autoscaler: cfg.autoscaler.clone().map(Autoscaler::new),
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
        set_latency: SetLatency::new(n_sets),
        set_shed: vec![0; n_sets],
        metrics,
    };

    // Initial placement: every file set must land on an alive server.
    let file_sets: Vec<FileSetId> = (0..n_sets as u64).map(FileSetId).collect();
    let view = world.view();
    let initial = policy.initial(&view, &file_sets);
    for (i, fs) in file_sets.iter().enumerate() {
        #[expect(
            clippy::panic,
            reason = "a policy that skips a file set is a contract violation worth halting on"
        )]
        let s = initial[i].unwrap_or_else(|| panic!("{} left {fs} unassigned", policy.name()));
        assert!(world.servers[s.0 as usize].alive);
        world.sets[i].owner = s.0;
    }

    // Seed events: first arrivals, first tick, faults.
    for (at, tag) in source.first_arrivals() {
        world.cal.schedule(at, Event::Arrival(tag));
    }
    world.cal.schedule(SimTime::ZERO + cfg.tick, Event::Tick);
    for (i, f) in cfg.faults.iter().enumerate() {
        world.cal.schedule(f.at(), Event::Fault(i as u32));
    }

    // Main loop.
    let run_span = world.tracer.open(SimTime::ZERO, "run");
    while let Some((_, ev)) = world.cal.pop() {
        world.event_mix[ev.mix()] += 1;
        match ev {
            Event::Arrival(tag) => world.handle_arrival(tag, source),
            Event::Complete(s) => world.handle_complete(s, source),
            Event::MigrationDone(set) => world.handle_migration_done(set, source),
            Event::Tick => world.handle_tick(policy, profiler, source),
            Event::SlowdownEnd(s) => world.handle_slowdown_end(s),
            Event::Fault(i) => world.handle_fault(i, policy, source),
        }
    }
    world.finish(run_span, policy.name(), source.label(), profiler)
}

#[cfg(test)]
pub(crate) mod tests;

#[cfg(test)]
mod cache_tests;
