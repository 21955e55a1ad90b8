//! # anu-metrics — the deterministic metrics registry
//!
//! Counters, gauges and log-scaled histograms behind interned names, with
//! per-epoch snapshotting. This is the middle layer of the observability
//! stack: `anu-trace` records *events*, this crate aggregates *state*,
//! and `anu-inspect` turns recorded traces back into per-request
//! attribution.
//!
//! Design rules, in order of priority:
//!
//! 1. **Determinism.** A registry is a pure function of the update
//!    sequence. Metric ids are assigned in registration order, iteration
//!    follows registration order, and every value is integer arithmetic —
//!    two runs of the same simulation produce byte-identical exports at
//!    any worker count.
//! 2. **Metrics never schedule calendar events.** The registry has no
//!    handle to any event queue and cannot acquire one: this crate does
//!    not depend on `anu-des`, so an update can only mutate local state.
//!    Instrumented code observes the simulation; it must never perturb it.
//! 3. **Cheap on the hot path.** An update is an index into a slot vector
//!    plus an add — name lookup happens once, at registration, and the
//!    returned [`MetricId`] is cached by the instrumented site.
//!
//! Histograms reuse [`anu_trace::LogHistogram`] (power-of-two buckets,
//! integer quantiles), so percentiles exported here agree bucket-for-
//! bucket with the trace layer's summaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use anu_trace::LogHistogram;
use std::collections::BTreeMap;

/// Handle to one registered metric: an index into the registry's slot
/// vector, assigned in registration order. Cache it at the instrumented
/// site — updates through an id are a bounds-checked array access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId(u32);

impl MetricId {
    /// The raw registration index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a metric slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count (`inc`).
    Counter,
    /// Last-write-wins level (`set`).
    Gauge,
    /// Log-scaled value distribution, registered with its observations.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase name used in CSV and manifest exports.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric's storage.
#[derive(Clone, Debug, PartialEq)]
enum Slot {
    Counter(u64),
    Gauge(u64),
    // Boxed: a LogHistogram is ~64 buckets wide, and keeping it inline
    // would bloat every counter/gauge slot to the same size.
    Histogram(Box<LogHistogram>),
}

impl Slot {
    fn kind(&self) -> MetricKind {
        match self {
            Slot::Counter(_) => MetricKind::Counter,
            Slot::Gauge(_) => MetricKind::Gauge,
            Slot::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Scalar values of every counter and gauge at one epoch boundary, in
/// metric-id order. Histograms are excluded from snapshots by design —
/// they are cumulative distributions, and copying 65 buckets per metric
/// per epoch would make snapshotting cost scale with taxonomy size.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Zero-based epoch index the snapshot was taken at.
    pub epoch: u64,
    /// Simulated time of the snapshot, in microseconds.
    pub t_us: u64,
    /// `(id, value)` for every counter and gauge registered at snapshot
    /// time, ascending by id.
    pub scalars: Vec<(MetricId, u64)>,
}

/// The deterministic metrics registry.
///
/// Register once (name → [`MetricId`]), update through the id, export at
/// the end. Registration order is the canonical iteration order for every
/// export, so identical update sequences produce identical bytes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    names: Vec<String>,
    slots: Vec<Slot>,
    by_name: BTreeMap<String, u32>,
    snapshots: Vec<Snapshot>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn register(&mut self, name: &str, slot: Slot) -> MetricId {
        if let Some(&i) = self.by_name.get(name) {
            debug_assert_eq!(
                self.slots[i as usize].kind(),
                slot.kind(),
                "metric {name} re-registered with a different kind"
            );
            return MetricId(i);
        }
        let id = self.slots.len() as u32;
        self.names.push(name.to_string());
        self.slots.push(slot);
        self.by_name.insert(name.to_string(), id);
        MetricId(id)
    }

    /// Register (or look up) a counter. Re-registering an existing name
    /// returns the original id and keeps its accumulated value.
    pub fn counter(&mut self, name: &str) -> MetricId {
        self.register(name, Slot::Counter(0))
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &str) -> MetricId {
        self.register(name, Slot::Gauge(0))
    }

    /// Register a histogram that holds `h`'s observations, moving the box
    /// in without copying it: hot loops accumulate into their own
    /// histograms and publish each once, at the end of the run.
    /// Re-registering an existing name returns the original id and keeps
    /// its histogram; `h` is dropped.
    pub fn histogram(&mut self, name: &str, h: Box<LogHistogram>) -> MetricId {
        self.register(name, Slot::Histogram(h))
    }

    /// Add `by` to a counter (saturating — a counter never wraps back).
    #[inline]
    pub fn inc(&mut self, id: MetricId, by: u64) {
        if let Some(Slot::Counter(v)) = self.slots.get_mut(id.index()) {
            *v = v.saturating_add(by);
        } else {
            debug_assert!(false, "inc on a non-counter id {id:?}");
        }
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn set(&mut self, id: MetricId, v: u64) {
        if let Some(Slot::Gauge(g)) = self.slots.get_mut(id.index()) {
            *g = v;
        } else {
            debug_assert!(false, "set on a non-gauge id {id:?}");
        }
    }

    /// Current scalar value: a counter's or gauge's value, a histogram's
    /// observation count.
    pub fn value(&self, id: MetricId) -> u64 {
        match self.slots.get(id.index()) {
            Some(Slot::Counter(v)) | Some(Slot::Gauge(v)) => *v,
            Some(Slot::Histogram(h)) => h.count(),
            None => 0,
        }
    }

    /// The histogram behind `id`, when it is one.
    pub fn hist(&self, id: MetricId) -> Option<&LogHistogram> {
        match self.slots.get(id.index()) {
            Some(Slot::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// A histogram metric's quantile (0 for scalars and unknown ids).
    pub fn quantile(&self, id: MetricId, q: f64) -> u64 {
        self.hist(id).map_or(0, |h| h.quantile(q))
    }

    /// The metric's interned name.
    pub fn name(&self, id: MetricId) -> &str {
        self.names.get(id.index()).map_or("", String::as_str)
    }

    /// The metric's kind (counters report `Counter` for unknown ids only
    /// in release builds; debug builds assert on misuse instead).
    pub fn kind(&self, id: MetricId) -> MetricKind {
        self.slots
            .get(id.index())
            .map_or(MetricKind::Counter, Slot::kind)
    }

    /// Look up a metric id by name.
    pub fn find(&self, name: &str) -> Option<MetricId> {
        self.by_name.get(name).copied().map(MetricId)
    }

    /// Every metric id in registration order — the canonical export order.
    pub fn ids(&self) -> impl Iterator<Item = MetricId> + '_ {
        (0..self.slots.len() as u32).map(MetricId)
    }

    /// Record a snapshot of every counter and gauge at epoch boundary
    /// `epoch` / simulated time `t_us`. Snapshots accumulate in call
    /// order; [`snapshots`](Registry::snapshots) returns them unchanged.
    pub fn snapshot(&mut self, epoch: u64, t_us: u64) {
        let scalars = self
            .ids()
            .filter(|id| self.kind(*id) != MetricKind::Histogram)
            .map(|id| (id, self.value(id)))
            .collect();
        self.snapshots.push(Snapshot {
            epoch,
            t_us,
            scalars,
        });
    }

    /// The per-epoch snapshots, in the order they were taken.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A histogram holding `values`.
    fn hist_of(values: &[u64]) -> Box<LogHistogram> {
        let mut h = Box::new(LogHistogram::new());
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn register_update_export_roundtrip() {
        let mut r = Registry::new();
        let c = r.counter("events_total");
        let g = r.gauge("queue_depth");
        let h = r.histogram("latency_us", hist_of(&[1, 1, 1000]));
        r.inc(c, 3);
        r.inc(c, 2);
        r.set(g, 7);
        r.set(g, 4);
        assert_eq!(r.value(c), 5);
        assert_eq!(r.value(g), 4);
        assert_eq!(r.value(h), 3);
        assert_eq!(r.quantile(h, 0.5), 1);
        assert_eq!(r.quantile(h, 1.0), 1023);
        assert_eq!(r.name(c), "events_total");
        assert_eq!(r.kind(h), MetricKind::Histogram);
        assert_eq!(r.find("queue_depth"), Some(g));
        assert_eq!(r.find("nope"), None);
    }

    #[test]
    fn interning_returns_the_same_id() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a, 1);
        r.inc(b, 1);
        assert_eq!(r.value(a), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ids_iterate_in_registration_order() {
        let mut r = Registry::new();
        // Names deliberately out of lexicographic order: registration
        // order, not name order, is the export contract.
        let ids = [r.counter("zeta"), r.counter("alpha"), r.gauge("mid")];
        let walked: Vec<MetricId> = r.ids().collect();
        assert_eq!(walked, ids);
        let names: Vec<&str> = walked.iter().map(|&i| r.name(i)).collect();
        assert_eq!(names, ["zeta", "alpha", "mid"]);
    }

    #[test]
    fn snapshots_preserve_order_and_scalar_layout() {
        let mut r = Registry::new();
        let c = r.counter("done");
        r.histogram("lat", hist_of(&[5]));
        let g = r.gauge("depth");
        r.inc(c, 1);
        r.set(g, 9);
        r.snapshot(0, 1_000_000);
        r.inc(c, 1);
        // A metric registered after the first snapshot appears only in
        // later snapshots.
        let late = r.gauge("late");
        r.set(late, 2);
        r.snapshot(1, 2_000_000);
        let snaps = r.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!((snaps[0].epoch, snaps[0].t_us), (0, 1_000_000));
        assert_eq!((snaps[1].epoch, snaps[1].t_us), (1, 2_000_000));
        // Histograms are excluded; scalars ascend by id.
        assert_eq!(snaps[0].scalars, vec![(c, 1), (g, 9)]);
        assert_eq!(snaps[1].scalars, vec![(c, 2), (g, 9), (late, 2)]);
    }

    #[test]
    fn a_histogram_registers_with_its_observations() {
        let mut r = Registry::new();
        let id = r.histogram("lat", hist_of(&[7, 9]));
        assert_eq!(r.value(id), 2);
        assert_eq!(r.quantile(id, 1.0), 15);
        // A second registration under the name keeps the first histogram.
        assert_eq!(r.histogram("lat", hist_of(&[1 << 40])), id);
        assert_eq!(r.quantile(id, 1.0), 15);
    }
}
