//! Observation: the metrics registry the world publishes to, the batched
//! per-file-set latency records, the two fairness indices, and result
//! assembly once the calendar runs dry.

use super::World;
use crate::metrics::{late_imbalance, late_mean, RunResult, RunSummary};
use crate::profile::{ProfileScope, RunProfiler};
use anu_core::ServerId;
use anu_des::{OnlineStats, SimTime};
use anu_metrics::{MetricId, Registry};
use anu_trace::{LogHistogram, TraceEvent, TraceLevel, WarnCode};
use std::collections::BTreeMap;

/// Metric names for the event-mix counters, indexed by `Event::mix`.
pub(super) const EVENT_MIX_NAMES: [&str; 6] = [
    "world.events.arrival",
    "world.events.complete",
    "world.events.tick",
    "world.events.migration_done",
    "world.events.fault",
    "world.events.slowdown_end",
];

/// Per-set latency records buffered before they reach a histogram.
pub(super) const SET_LATENCY_BATCH: usize = 1024;

/// Per-file-set latency histograms (µs), recorded in batches.
///
/// With tens of thousands of sets the histograms (520 bytes each) far
/// outgrow the cache, so recording each completion straight into its
/// set's histogram costs a cache miss or two per request. Records queue
/// in a small buffer instead, and fold into the histograms a batch at a
/// time: a loop of independent increments whose misses the CPU overlaps.
/// Counts commute, so the histograms equal per-completion recording.
/// Nothing reads them before [`SetLatency::into_hists`] folds the rest.
///
/// The table is fixed at setup, one histogram per set, and each histogram
/// is boxed so that the end of the run moves it into the registry as it
/// is: the run holds one copy of each.
#[derive(Default)]
pub(super) struct SetLatency {
    hists: Box<[Box<LogHistogram>]>,
    /// `(set, latency_us)` records not yet folded into `hists`.
    pending: Vec<(u32, u64)>,
}

impl SetLatency {
    pub(super) fn new(n_sets: usize) -> Self {
        SetLatency {
            hists: (0..n_sets).map(|_| Box::default()).collect(),
            pending: Vec::with_capacity(SET_LATENCY_BATCH),
        }
    }

    /// Record one completion of `set` after `latency_us`.
    #[inline]
    pub(super) fn record(&mut self, set: u32, latency_us: u64) {
        self.pending.push((set, latency_us));
        if self.pending.len() == SET_LATENCY_BATCH {
            self.fold();
        }
    }

    fn fold(&mut self) {
        for &(set, us) in &self.pending {
            self.hists[set as usize].record(us);
        }
        self.pending.clear();
    }

    /// Fold the records still pending and hand over the histograms.
    pub(super) fn into_hists(mut self) -> Box<[Box<LogHistogram>]> {
        self.fold();
        self.hists
    }
}

/// The world's metrics registry plus every id it publishes to, cached at
/// setup so the per-tick publish path does zero name lookups. Counters
/// fold in as deltas against `prev_*` shadows of the world's local
/// accumulators — the hot loop bumps plain fields and histograms; the
/// registry is touched only at tick boundaries and at the end of the run.
pub(super) struct WorldMetrics {
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
    /// Per server: queue population gauge.
    server_occupancy: Vec<MetricId>,
    /// Per server: fault-state gauge (1 = alive, 0 = down).
    server_alive: Vec<MetricId>,
    /// Per server: completed-request gauge.
    server_completed: Vec<MetricId>,
}

impl WorldMetrics {
    /// Register every counter and gauge in one deterministic order: event
    /// mix, calendar, migration and requeue counters, then per-server
    /// gauges in id order. The latency histograms follow at the end of the
    /// run, registered with their contents (see `World::finish`).
    pub(super) fn new(n_servers: usize) -> Self {
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
        let mut server_occupancy = Vec::with_capacity(n_servers);
        let mut server_alive = Vec::with_capacity(n_servers);
        let mut server_completed = Vec::with_capacity(n_servers);
        for s in 0..n_servers {
            server_occupancy.push(reg.gauge(&format!("server.{s}.occupancy")));
            server_alive.push(reg.gauge(&format!("server.{s}.alive")));
            server_completed.push(reg.gauge(&format!("server.{s}.completed")));
        }
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
        }
    }
}

impl World<'_> {
    /// Fold the local accumulators into the registry: counter deltas
    /// against the `prev_*` shadows, fresh gauge values, calendar stats.
    /// Runs at tick boundaries (taking a per-epoch scalar snapshot) and
    /// once at the end of the run — never on the per-request path.
    pub(super) fn publish_metrics(&mut self, snapshot_at: Option<(u64, SimTime)>) {
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
        let in_flight = self.sets.iter().filter(|r| r.dest().is_some()).count() as u64;
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
            m.reg.set(m.server_completed[i], st.all.count());
        }
        if let Some((epoch, at)) = snapshot_at {
            m.reg.snapshot(epoch, at.0);
        }
    }

    /// Close the run once the calendar is dry: end the open spans and
    /// availability windows, publish the final metrics, and assemble the
    /// result.
    pub(super) fn finish(
        mut self,
        run_span: u64,
        policy: &str,
        workload: &str,
        profiler: &mut dyn RunProfiler,
    ) -> RunResult {
        let set_hists = std::mem::take(&mut self.set_latency).into_hists();
        // Every completion is recorded once per set; the run's histogram
        // (the p50/p95/p99 summary fields) is their sum.
        let mut latency_hist = Box::new(LogHistogram::new());
        for h in &set_hists {
            latency_hist.merge(h);
        }
        let quantile_ms = |q| latency_hist.quantile(q) as f64 / 1000.0;
        let (p50_latency_ms, p95_latency_ms, p99_latency_ms) =
            (quantile_ms(0.50), quantile_ms(0.95), quantile_ms(0.99));
        // The calendar is empty: the workload has fully drained.
        let end_time = self.cal.now().max(self.horizon);
        if let Some(id) = self.degraded_span.take() {
            // Still shedding when the workload ran out: the degraded stretch
            // extends to the end of the run.
            self.tracer.close(end_time, id);
        }
        self.tracer.close(end_time, run_span);
        if self.tracer.enabled(TraceLevel::Epoch) {
            // Conservation check, active only in traced builds so untraced
            // production runs pay nothing: every admitted request (sheds
            // never are) either completed or is still in flight — and after
            // a drained calendar, in-flight must be zero.
            let completed_total: u64 = self.servers.iter().map(|st| st.all.count()).sum();
            let in_flight: u64 = self
                .servers
                .iter()
                .map(|st| st.station.population() as u64)
                .sum();
            debug_assert_eq!(
                completed_total + in_flight,
                self.arrived,
                "request conservation at drain"
            );
            if self.post_horizon_completions > 0 {
                self.tracer.emit(
                    TraceLevel::Epoch,
                    end_time,
                    &TraceEvent::Warning {
                        code: WarnCode::Stragglers,
                        detail: "requests completed after the nominal horizon".into(),
                        count: self.post_horizon_completions,
                    },
                );
            }
        }

        // Close open availability windows: a server still dead (or limping)
        // at drain time accrues downtime/degradation up to the run's end.
        for st in self.servers.iter_mut() {
            self.degraded_capacity_secs +=
                (1.0 - st.cap_frac) * end_time.since(st.cap_since).as_secs_f64();
            st.cap_frac = 1.0;
            st.cap_since = end_time;
            if let Some(d) = st.down_since.take() {
                self.unavailable_secs += end_time.since(d).as_secs_f64();
            }
        }

        // Final metrics publish: fold the remaining counter deltas and the
        // end-state gauges, then register the latency histograms after
        // every scalar, the run's first and then each set's in set order.
        // No snapshot — snapshots are per-epoch only.
        profiler.enter(ProfileScope::MetricsUpdate);
        self.publish_metrics(None);
        // Fairness across file sets, from the per-set histograms (before
        // they are moved into the registry).
        let (jain_fairness, p99_set_max_us) = fairness(&set_hists);
        let completion_fairness = completion_fairness(&set_hists, &self.set_shed);
        self.metrics.reg.set(
            self.metrics.jain_millionths,
            (jain_fairness * 1_000_000.0).round() as u64,
        );
        self.metrics
            .reg
            .set(self.metrics.p99_set_max_us, p99_set_max_us);
        self.metrics.reg.histogram("latency.us", latency_hist);
        for (i, h) in set_hists.into_vec().into_iter().enumerate() {
            self.metrics
                .reg
                .histogram(&format!("set.{i}.latency_us"), h);
        }
        profiler.exit(ProfileScope::MetricsUpdate);

        // Assemble results.
        let mut series = BTreeMap::new();
        let mut per_server_mean_ms = BTreeMap::new();
        let mut per_server_requests = BTreeMap::new();
        let mut per_server_utilization = BTreeMap::new();
        let mut total_lat = OnlineStats::new();
        for (i, st) in self.servers.iter().enumerate() {
            let s = ServerId(i as u32);
            series.insert(s, st.series.clone());
            per_server_mean_ms.insert(s, st.all.mean());
            per_server_requests.insert(s, st.all.count());
            per_server_utilization.insert(s, st.station.utilization(end_time));
            total_lat.merge(&st.all);
        }
        let summary = RunSummary {
            offered_requests: self.arrived + self.requests_shed,
            completed_requests: total_lat.count(),
            mean_latency_ms: total_lat.mean(),
            max_latency_ms: total_lat.max().unwrap_or(0.0),
            per_server_mean_ms,
            per_server_requests,
            per_server_utilization,
            migrations: self.migration_count,
            sim_events: self.event_count,
            late_imbalance_cov: late_imbalance(&series),
            late_mean_latency_ms: late_mean(&series),
            p50_latency_ms,
            p95_latency_ms,
            p99_latency_ms,
            max_queue_depth: self.max_queue_depth,
            band_freezes: self.band_freezes,
            divergent_freezes: self.divergent_freezes,
            factor_clamps: self.factor_clamps,
            unavailable_secs: self.unavailable_secs,
            unavailability_windows: self.unavailability_windows,
            mean_rebalance_secs: if self.rebalance_secs.is_empty() {
                0.0
            } else {
                self.rebalance_secs.iter().sum::<f64>() / self.rebalance_secs.len() as f64
            },
            max_rebalance_secs: self.rebalance_secs.iter().fold(0.0, |a: f64, &b| a.max(b)),
            requests_requeued: self.requests_requeued,
            degraded_capacity_secs: self.degraded_capacity_secs,
            audit_checks: self.audit_checks,
            audit_violations: self.audit_violations,
            requests_shed: self.requests_shed,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            jain_fairness,
            completion_fairness,
            p99_per_file_set_max: p99_set_max_us as f64 / 1000.0,
        };
        RunResult {
            policy: policy.to_string(),
            workload: workload.to_string(),
            series,
            epochs: self.epochs,
            summary,
            metrics: self.metrics.reg,
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
fn fairness(set_hists: &[Box<LogHistogram>]) -> (f64, u64) {
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
fn completion_fairness(set_hists: &[Box<LogHistogram>], set_shed: &[u64]) -> f64 {
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
