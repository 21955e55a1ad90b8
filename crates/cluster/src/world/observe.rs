//! Observation: the metrics registry the world publishes to, the per-set
//! latency counts, the two fairness indices, and result assembly once the
//! calendar runs dry.

use super::{ServerState, World};
use crate::metrics::{late_imbalance, late_mean, RunResult, RunSummary};
use crate::profile::{ProfileScope, RunProfiler};
use anu_core::{ServerId, TuneOutcome};
use anu_des::{OnlineStats, SimTime};
use anu_metrics::MetricKind::{self, Counter, Gauge};
use anu_metrics::Registry;
use anu_trace::{LogHistogram, TraceEvent, TraceLevel, WarnCode};
use std::collections::BTreeMap;

/// One scalar metric: its name, its kind, and where the world keeps its
/// value. A counter's value is its running total.
type Scalar = (&'static str, MetricKind, fn(&World<'_>) -> u64);

/// The world's scalar metrics, in registration order: the event mix, the
/// calendar, migrations, requeues, sheds, scaling and the degraded flag.
/// Setup registers these rows first and each publication writes their
/// values in the same order. The per-server gauges follow, then the
/// histograms the end of the run registers. This order is the column
/// order of the metrics CSVs.
const SCALARS: [Scalar; 18] = [
    ("world.events.arrival", Counter, |w| w.event_mix[0]),
    ("world.events.complete", Counter, |w| w.event_mix[1]),
    ("world.events.tick", Counter, |w| w.event_mix[2]),
    ("world.events.migration_done", Counter, |w| w.event_mix[3]),
    ("world.events.fault", Counter, |w| w.event_mix[4]),
    ("world.events.slowdown_end", Counter, |w| w.event_mix[5]),
    ("des.calendar.scheduled", Counter, |w| {
        w.cal.stats().scheduled
    }),
    ("des.calendar.fired", Counter, |w| w.cal.stats().fired),
    ("des.calendar.cancelled", Counter, |w| {
        w.cal.stats().cancelled
    }),
    ("des.calendar.pending", Gauge, |w| w.cal.pending() as u64),
    ("des.calendar.max_pending", Gauge, |w| {
        w.cal.stats().max_pending
    }),
    ("migrations.total", Counter, |w| w.migration_count),
    // Each started migration schedules one `MigrationDone`, never
    // cancelled, and a retarget starts none: started minus landed.
    ("migrations.in_flight", Gauge, |w| {
        w.migration_count - w.event_mix[3]
    }),
    ("requests.requeued", Counter, |w| w.requests_requeued),
    ("requests.shed", Counter, |w| w.requests_shed),
    ("scale.commissions", Counter, |w| w.scale_ups),
    ("scale.decommissions", Counter, |w| w.scale_downs),
    // 1 while a `degraded` span is open (the shed ceiling is biting).
    ("world.degraded", Gauge, |w| {
        u64::from(w.degraded_span.is_some())
    }),
];

/// One per-server gauge: its name and where the server keeps its value.
type ServerGauge = (&'static str, fn(&ServerState) -> u64);

/// Gauges registered per server, as `server.{id}.{name}` in id order
/// after [`SCALARS`]: queue population, fault state (1 = alive) and
/// completed requests.
const SERVER_GAUGES: [ServerGauge; 3] = [
    ("occupancy", |st| st.station.population() as u64),
    ("alive", |st| u64::from(st.alive)),
    ("completed", |st| st.all.count()),
];

/// A registry with the world's scalar metrics and `n_servers` servers'
/// gauges registered in table order.
pub(super) fn registry(n_servers: usize) -> Registry {
    let mut reg = Registry::new();
    for (name, kind, _) in SCALARS {
        if kind == Counter {
            reg.counter(name);
        } else {
            reg.gauge(name);
        }
    }
    for s in 0..n_servers {
        for (gauge, _) in SERVER_GAUGES {
            reg.gauge(&format!("server.{s}.{gauge}"));
        }
    }
    reg
}

/// The first [`LogHistogram`] bucket a set's line counts: latencies of
/// 128 µs and more.
const LINE_FIRST_BUCKET: usize = 8;

/// One file set's latency counts while the run lasts, in 32 bytes (half
/// a cache line): `counts[i]` counts the latencies in [`LogHistogram`]
/// bucket `LINE_FIRST_BUCKET + i`, so the line covers 128 µs to
/// 2^39 − 1 µs (about 6.4 days).
#[derive(Clone, Copy, Default)]
#[repr(align(32))]
struct SetLine {
    counts: [u8; 32],
}
const _: () = assert!(size_of::<SetLine>() == 32);

/// Per-file-set latency histograms (µs), held as one line of counts per
/// set until the end of the run.
///
/// Full histograms (520 bytes each) for tens of thousands of sets far
/// outgrow the cache, so recording each completion straight into its
/// set's histogram costs a cache miss or two per request, and the boxes
/// sit beside the run's deepest queues. A set's line instead holds `u8`
/// counts for the 32 buckets from 128 µs to about 6.4 days, where every
/// latency of the benchmark's runs falls, so two sets share a cache line
/// and the lines of 25,000 sets take 800 KB. A record its line cannot
/// take — a latency outside the line's buckets, or a count that would
/// pass `u8::MAX` — spills into the set's full histogram, made at its
/// first spill, so a set spills once per 256 records in one bucket.
/// [`SetLatency::into_hists`] adds each line to its set's spills; counts
/// commute, so the histograms equal per-completion recording.
#[derive(Default)]
pub(super) struct SetLatency {
    lines: Vec<SetLine>,
    /// The full histogram of each set that spilled, by set.
    spills: BTreeMap<u32, Box<LogHistogram>>,
}

impl SetLatency {
    pub(super) fn new(n_sets: usize) -> Self {
        SetLatency {
            lines: vec![SetLine::default(); n_sets],
            spills: BTreeMap::new(),
        }
    }

    /// Record one completion of `set` after `latency_us`.
    #[inline]
    pub(super) fn record(&mut self, set: u32, latency_us: u64) {
        let bucket = LogHistogram::bucket_of(latency_us);
        let line = &mut self.lines[set as usize];
        match line_slot(line, bucket) {
            Some(count) if *count < u8::MAX => *count += 1,
            _ => self.spill(set, bucket),
        }
    }

    /// Record one latency in `bucket` that `set`'s line cannot take: it
    /// moves the line's full count, if there is one, into the set's
    /// histogram with this record.
    #[cold]
    fn spill(&mut self, set: u32, bucket: usize) {
        let moved = line_slot(&mut self.lines[set as usize], bucket).map_or(0, std::mem::take);
        self.spills
            .entry(set)
            .or_default()
            .record_bucket(bucket, u64::from(moved) + 1);
    }

    /// Every set's full histogram, in set order: its spills plus its
    /// line's counts.
    pub(super) fn into_hists(self) -> Box<[Box<LogHistogram>]> {
        let mut spills = self.spills;
        self.lines
            .iter()
            .enumerate()
            .map(|(set, line)| {
                let mut hist = spills.remove(&(set as u32)).unwrap_or_default();
                for (i, &n) in line.counts.iter().enumerate() {
                    hist.record_bucket(LINE_FIRST_BUCKET + i, u64::from(n));
                }
                hist
            })
            .collect()
    }
}

/// The count `line` keeps for `bucket`, if the line covers the bucket.
#[inline]
fn line_slot(line: &mut SetLine, bucket: usize) -> Option<&mut u8> {
    bucket
        .checked_sub(LINE_FIRST_BUCKET)
        .and_then(|i| line.counts.get_mut(i))
}

impl World<'_> {
    /// Write the world's current values into the registry, paired with
    /// the ids in registration order: each [`SCALARS`] row, then each
    /// server's gauges. Runs at tick boundaries (taking a per-epoch scalar
    /// snapshot) and once at the end of the run, never on the per-request
    /// path.
    pub(super) fn publish_metrics(&mut self, snapshot_at: Option<(u64, SimTime)>) {
        // The in-flight gauge against its reference, the set rows.
        debug_assert_eq!(
            self.migration_count - self.event_mix[3],
            self.sets.iter().filter(|r| r.dest().is_some()).count() as u64,
            "migrations in flight"
        );
        let scalars = SCALARS.map(|(_, _, value)| value(self));
        let servers = self
            .servers
            .iter()
            .flat_map(|st| SERVER_GAUGES.map(|(_, value)| value(st)));
        let reg = &mut self.metrics;
        for (id, v) in reg.ids().zip(scalars.into_iter().chain(servers)) {
            reg.set(id, v);
        }
        if let Some((epoch, at)) = snapshot_at {
            reg.snapshot(epoch, at.0);
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
        // The calendar is dry, so every queue is empty: give back the
        // buffers the deepest queues grew before the per-set histograms
        // are built, so the two never sit side by side.
        for st in &mut self.servers {
            st.station.shrink_queue();
        }
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
                self.admitted_requests(),
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

        // Final metrics publish: the end-state totals, then the latency
        // histograms after every scalar, the run's first and then each
        // set's in set order. No snapshot: snapshots are per-epoch only.
        profiler.enter(ProfileScope::MetricsUpdate);
        // Fairness across file sets, from the per-set histograms (before
        // they are moved into the registry).
        let (jain_fairness, p99_set_max_us) = fairness(&set_hists);
        let completion_fairness = completion_fairness(&set_hists, &self.set_shed);
        self.publish_metrics(None);
        self.metrics.histogram("latency.us", latency_hist);
        for (i, h) in set_hists.into_vec().into_iter().enumerate() {
            self.metrics.histogram(&format!("set.{i}.latency_us"), h);
        }
        profiler.exit(ProfileScope::MetricsUpdate);

        // Assemble results.
        let tuner_decisions = |outcome| {
            self.epochs
                .iter()
                .flat_map(|e| e.tune.iter().flat_map(|t| &t.decisions))
                .filter(|d| d.outcome == outcome)
                .count() as u64
        };
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
            offered_requests: self.event_mix[0],
            completed_requests: total_lat.count(),
            mean_latency_ms: total_lat.mean(),
            max_latency_ms: total_lat.max().unwrap_or(0.0),
            per_server_mean_ms,
            per_server_requests,
            per_server_utilization,
            migrations: self.migration_count,
            sim_events: self.event_mix.iter().sum(),
            late_imbalance_cov: late_imbalance(&series),
            late_mean_latency_ms: late_mean(&series),
            p50_latency_ms,
            p95_latency_ms,
            p99_latency_ms,
            max_queue_depth: self.max_queue_depth,
            band_freezes: tuner_decisions(TuneOutcome::FrozenBand),
            divergent_freezes: tuner_decisions(TuneOutcome::FrozenDivergent),
            factor_clamps: tuner_decisions(TuneOutcome::Clamped),
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
            metrics: self.metrics,
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
