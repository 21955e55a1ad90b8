//! Run results: per-server latency series, per-epoch tuner telemetry and
//! summary statistics.

use anu_core::{ServerId, TuneEpoch};
use anu_des::{OnlineStats, TimeSeries};
use std::collections::BTreeMap;

/// Result of one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Policy name (figure label).
    pub policy: String,
    /// Workload label.
    pub workload: String,
    /// Per-server latency time series (mean latency per bucket, ms).
    pub series: BTreeMap<ServerId, TimeSeries>,
    /// One record per tuning tick, in tick order — the epoch-by-epoch
    /// trajectory the paper's §7 figures reason about. Always collected
    /// (one small struct per tick); the tuner decision payload is present
    /// for policies that expose one via
    /// [`PlacementPolicy::take_epoch`](crate::PlacementPolicy::take_epoch).
    pub epochs: Vec<EpochRecord>,
    /// Summary numbers.
    pub summary: RunSummary,
    /// The run's metrics registry: event-mix and calendar counters,
    /// per-server occupancy / fault-state gauges, and latency histograms
    /// (overall and per file set), with one scalar snapshot per tuning
    /// epoch. Deterministic — identical for traced and untraced runs and
    /// at any worker count.
    pub metrics: anu_metrics::Registry,
}

/// What happened at one tuning tick.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    /// Zero-based tick index.
    pub index: u64,
    /// Simulated time of the tick, in seconds.
    pub time_s: f64,
    /// File-set migrations the policy ordered at this tick.
    pub moves: u64,
    /// The tuner's per-server decision record, when the policy ran one.
    pub tune: Option<TuneEpoch>,
}

/// Aggregate outcome of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Requests offered by the workload.
    pub offered_requests: u64,
    /// Requests completed by the end of the run. The world runs its
    /// calendar dry, draining stragglers past the nominal horizon, so this
    /// equals offered minus shed.
    pub completed_requests: u64,
    /// Overall mean latency (ms) across all completed requests.
    pub mean_latency_ms: f64,
    /// Maximum single-request latency (ms).
    pub max_latency_ms: f64,
    /// Per-server mean latency (ms).
    pub per_server_mean_ms: BTreeMap<ServerId, f64>,
    /// Per-server completed request counts.
    pub per_server_requests: BTreeMap<ServerId, u64>,
    /// Per-server utilization over the run.
    pub per_server_utilization: BTreeMap<ServerId, f64>,
    /// Number of file-set migrations performed.
    pub migrations: u64,
    /// Total discrete events processed by the simulation loop (arrivals,
    /// completions, ticks, migrations, faults) — the denominator-free
    /// measure of simulation work that perf manifests report as
    /// events/second.
    pub sim_events: u64,
    /// Steady-state imbalance: coefficient of variation of per-server mean
    /// latency over the second half of the run (idle servers included).
    pub late_imbalance_cov: f64,
    /// Mean latency (ms) over the second half of the run only — the
    /// converged regime for adaptive policies.
    pub late_mean_latency_ms: f64,
    /// Median request latency (ms), from the log-scaled histogram: the
    /// reported value is the containing power-of-two bucket's upper bound
    /// (≤2× coarse, deterministic).
    pub p50_latency_ms: f64,
    /// 95th-percentile request latency (ms), same histogram resolution.
    pub p95_latency_ms: f64,
    /// 99th-percentile request latency (ms), same histogram resolution.
    pub p99_latency_ms: f64,
    /// Largest queue population (waiting + in service) observed at any
    /// server at any enqueue.
    pub max_queue_depth: u64,
    /// Tuner decisions frozen by the thresholding band, summed over all
    /// epochs and servers.
    pub band_freezes: u64,
    /// Tuner decisions frozen by divergent tuning.
    pub divergent_freezes: u64,
    /// Tuner moves bounded by the [`MAX_FACTOR`](anu_core::heuristics::MAX_FACTOR) clamp.
    pub factor_clamps: u64,
    /// Server downtime in seconds, summed across servers. A window opens
    /// at a `Fail` fault and closes at the matching recovery (or the end
    /// of the run).
    pub unavailable_secs: f64,
    /// Downtime windows opened (= `Fail` faults fired).
    pub unavailability_windows: u64,
    /// Mean seconds from a server failure until every file set it owned
    /// re-homed on a live server (0 when no failures fired).
    pub mean_rebalance_secs: f64,
    /// Worst single failure's re-home time, in seconds.
    pub max_rebalance_secs: f64,
    /// Requests drained from failed servers and requeued on the orphans'
    /// new owners (or buffered into an in-flight migration) — work
    /// displaced, not lost.
    pub requests_requeued: u64,
    /// Time-integral of lost serving capacity, in server-seconds: a dead
    /// server accrues 1 per second, a server slowed by factor `f` accrues
    /// `1 - 1/f` per second.
    pub degraded_capacity_secs: f64,
    /// Invariant-auditor boundary checks executed. Non-zero only when
    /// membership can change: the auditor arms when the fault script is
    /// non-empty or an autoscaler is configured.
    pub audit_checks: u64,
    /// Invariant violations the auditor detected (a correct system holds
    /// this at zero under any fault storm).
    pub audit_violations: u64,
    /// Requests shed at admission by the graceful-degradation ceiling
    /// ([`ShedConfig`](crate::ShedConfig)); 0 when shedding is off.
    pub requests_shed: u64,
    /// Standby servers the autoscaler commissioned over the run.
    pub scale_ups: u64,
    /// Standby servers the autoscaler decommissioned over the run.
    pub scale_downs: u64,
    /// Jain's fairness index over per-file-set mean latencies,
    /// `(Σmᵢ)² / (n·Σmᵢ²)` across the file sets that completed at least
    /// one request (1.0 = perfectly even treatment, →1/n under maximal
    /// skew; 1.0 when no set completed anything). Means come from the
    /// log-scaled per-set histograms, so the index shares their ≤2×
    /// bucket resolution.
    pub jain_fairness: f64,
    /// Jain's fairness index over per-file-set *served fractions*
    /// (completed / offered, counting admission sheds against the set that
    /// issued them). [`jain_fairness`](RunSummary::jain_fairness) only sees
    /// completed requests, so a policy that sheds a slow server's tail
    /// *improves* its latency fairness; this index charges the shed back to
    /// the file set that suffered it. 1.0 when nothing is shed (or nothing
    /// offered); it drops as shedding concentrates on a few sets.
    pub completion_fairness: f64,
    /// Worst per-file-set p99 latency (ms): the maximum across file sets
    /// of each set's own 99th-percentile, at histogram resolution. The
    /// fleet-wide [`p99_latency_ms`](RunSummary::p99_latency_ms) hides a
    /// single starved set; this does not.
    pub p99_per_file_set_max: f64,
}

/// Build the late-half imbalance CoV from the per-server series.
///
/// For each server, take its mean latency over the buckets in the second
/// half of the run; the CoV of those per-server numbers is the imbalance
/// measure. A perfectly balanced system scores 0.
pub(crate) fn late_imbalance(series: &BTreeMap<ServerId, TimeSeries>) -> f64 {
    let mut per_server = OnlineStats::new();
    for ts in series.values() {
        let buckets = ts.buckets();
        let half = buckets.len() / 2;
        let (sum, count) = buckets[half..]
            .iter()
            .fold((0.0, 0u64), |(s, c), b| (s + b.sum, c + b.count));
        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
        per_server.push(mean);
    }
    per_server.cov()
}

/// Mean latency across all servers over the second half of the run.
pub(crate) fn late_mean(series: &BTreeMap<ServerId, TimeSeries>) -> f64 {
    let (mut sum, mut count) = (0.0, 0u64);
    for ts in series.values() {
        let buckets = ts.buckets();
        let half = buckets.len() / 2;
        for b in &buckets[half..] {
            sum += b.sum;
            count += b.count;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Count busy↔idle flips of one server's series — the over-tuning
/// signature the paper describes: the weakest server "cyclically takes on
/// workload, exhibits high latency, releases workload, and goes to zero
/// latency" (§7). A bucket is *idle* when its mean latency is below
/// `idle_below` ms and *busy* when above `busy_above` ms; intermediate
/// buckets keep the previous state. Returns the number of state changes.
pub fn flip_count(ts: &TimeSeries, idle_below: f64, busy_above: f64) -> u32 {
    debug_assert!(idle_below <= busy_above);
    let mut state: Option<bool> = None; // Some(true) = busy
    let mut flips = 0;
    for (_, m) in ts.means() {
        let new = if m <= idle_below {
            Some(false)
        } else if m >= busy_above {
            Some(true)
        } else {
            state
        };
        if let (Some(a), Some(b)) = (state, new) {
            if a != b {
                flips += 1;
            }
        }
        state = new.or(state);
    }
    flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use anu_des::{SimDuration, SimTime};

    fn series_with(values: &[f64]) -> TimeSeries {
        let mut ts = TimeSeries::new(
            SimDuration::from_secs(60),
            SimDuration::from_secs(60 * values.len() as u64),
        );
        for (i, &v) in values.iter().enumerate() {
            ts.record(SimTime::from_secs_f64(i as f64 * 60.0 + 1.0), v);
        }
        ts
    }

    #[test]
    fn late_imbalance_zero_when_equal() {
        let mut m = BTreeMap::new();
        m.insert(ServerId(0), series_with(&[50.0, 50.0, 10.0, 10.0]));
        m.insert(ServerId(1), series_with(&[99.0, 1.0, 10.0, 10.0]));
        assert!(late_imbalance(&m).abs() < 1e-12);
    }

    #[test]
    fn late_imbalance_positive_when_skewed() {
        let mut m = BTreeMap::new();
        m.insert(ServerId(0), series_with(&[10.0, 10.0, 100.0, 100.0]));
        m.insert(ServerId(1), series_with(&[10.0, 10.0, 0.0, 0.0]));
        assert!(late_imbalance(&m) > 0.5);
    }

    #[test]
    fn late_mean_uses_second_half() {
        let mut m = BTreeMap::new();
        m.insert(ServerId(0), series_with(&[1000.0, 1000.0, 10.0, 20.0]));
        assert!((late_mean(&m) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn flip_count_detects_cycling() {
        let cycling = series_with(&[0.0, 500.0, 0.0, 500.0, 0.0, 500.0]);
        assert_eq!(flip_count(&cycling, 10.0, 100.0), 5);
        let parked = series_with(&[500.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(flip_count(&parked, 10.0, 100.0), 1);
        let steady = series_with(&[50.0, 60.0, 55.0, 58.0]);
        assert_eq!(flip_count(&steady, 10.0, 100.0), 0);
        // Intermediate buckets keep the previous state.
        let decay = series_with(&[500.0, 50.0, 50.0, 0.0, 500.0]);
        assert_eq!(flip_count(&decay, 10.0, 100.0), 2);
    }
}
