//! Deterministic structured tracing for the simulation stack.
//!
//! The paper's claims are about *trajectories* — how the delegate rescales
//! mapped regions epoch by epoch, when the thresholding / top-off /
//! divergent-tuning heuristics fire, and how migrations ripple through
//! server queues. End-of-run aggregates cannot answer "which epoch
//! diverged"; this crate can.
//!
//! Design rules, in order of priority:
//!
//! 1. **Determinism.** Trace events are keyed by *simulated* time only.
//!    Nothing in this crate reads the wall clock, allocates event ids from
//!    shared state, or — critically — schedules calendar events. A traced
//!    run and an untraced run execute the exact same event sequence, and a
//!    traced run is byte-identical at any `--jobs N`.
//! 2. **Near-zero cost when off.** The [`Tracer`] caches its sink's
//!    [`TraceLevel`] in a plain enum; every instrumentation site guards on
//!    [`Tracer::enabled`], a single integer compare, before constructing an
//!    event. With a [`NullSink`] no event is ever built.
//! 3. **No I/O here.** Sinks hold events in memory ([`RingSink`], which
//!    renders them to JSONL on request) or drop them ([`NullSink`]);
//!    callers decide what reaches disk, so the simulation core stays free
//!    of filesystem effects.
//!
//! Event records are rendered as one JSON object per line (JSONL) through
//! the hand-rolled [`anu_core::json`] module, keeping the workspace
//! std-only.

mod event;
mod hist;
mod ring;

pub use event::{TraceEvent, WarnCode};
pub use hist::LogHistogram;
pub use ring::RingSink;

use anu_des::SimTime;

/// Render one event as its canonical JSONL line: `{"t_us":…,"ev":…,…}`.
///
/// This is the single rendering path: [`RingSink::decode_lines`] calls
/// it at flush time. Rendering goes through [`anu_core::json`], so float
/// and escape behavior is identical to every other artifact the
/// workspace writes — and byte-stable across runs.
pub fn render_line(at: SimTime, event: &TraceEvent) -> String {
    let mut obj = vec![("t_us".to_string(), anu_core::Json::u64(at.0))];
    let anu_core::Json::Obj(fields) = event.to_json() else {
        unreachable!("TraceEvent::to_json always yields an object");
    };
    obj.extend(fields);
    anu_core::Json::Obj(obj).render()
}

/// How much of the event taxonomy a sink wants.
///
/// Levels are ordered: `Off < Epoch < Request`. An event tagged `Epoch`
/// is recorded at both `Epoch` and `Request` level; per-request events
/// only at `Request`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the [`NullSink`] default).
    Off,
    /// Per-epoch telemetry: tuner decisions, migrations, faults, spans,
    /// queue-depth samples at tick boundaries.
    Epoch,
    /// Everything, including per-request arrival / dispatch / complete
    /// events. Verbose: roughly three lines per simulated request.
    Request,
}

impl TraceLevel {
    /// Stable lowercase name, used in manifests and `--trace-level`.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Epoch => "epoch",
            TraceLevel::Request => "request",
        }
    }

    /// Parse a `--trace-level` argument.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "epoch" => Some(TraceLevel::Epoch),
            "request" => Some(TraceLevel::Request),
            _ => None,
        }
    }
}

/// Receives trace events at simulated timestamps.
///
/// Implementations must be deterministic functions of the event stream:
/// no wall-clock reads, no ambient entropy. The sink's [`level`] is read
/// once when a [`Tracer`] is built, so it must be constant for the
/// sink's lifetime.
///
/// [`level`]: TraceSink::level
pub trait TraceSink {
    /// The maximum level of events this sink wants.
    fn level(&self) -> TraceLevel;
    /// Record one event at simulated time `at`.
    fn record(&mut self, at: SimTime, event: &TraceEvent);
}

/// Discards everything; reports [`TraceLevel::Off`].
///
/// With this sink every instrumentation site reduces to one integer
/// compare — the "near-zero when disabled" guarantee.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn level(&self) -> TraceLevel {
        TraceLevel::Off
    }
    fn record(&mut self, _at: SimTime, _event: &TraceEvent) {}
}

/// The instrumentation handle threaded through a simulation run.
///
/// Wraps a sink, caches its level, and allocates span ids. All state is
/// local to one run, so concurrent runs on different worker threads
/// cannot perturb each other's ids — a requirement for `--jobs N`
/// byte-determinism.
pub struct Tracer<'a> {
    sink: &'a mut dyn TraceSink,
    level: TraceLevel,
    next_span: u64,
    stack: Vec<u64>,
}

impl<'a> Tracer<'a> {
    /// Wrap `sink`, caching its level for cheap `enabled` checks.
    pub fn new(sink: &'a mut dyn TraceSink) -> Self {
        let level = sink.level();
        Tracer {
            sink,
            level,
            next_span: 0,
            stack: Vec::new(),
        }
    }

    /// The cached sink level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Would an event tagged `at` be recorded? One integer compare; call
    /// this before building any event payload.
    #[inline]
    pub fn enabled(&self, at: TraceLevel) -> bool {
        at <= self.level
    }

    /// Record `event` if the sink's level admits `lvl`.
    #[inline]
    pub fn emit(&mut self, lvl: TraceLevel, at: SimTime, event: &TraceEvent) {
        if self.enabled(lvl) {
            self.sink.record(at, event);
        }
    }

    /// Open a sim-time span (epoch-level). Returns the span id to pass to
    /// [`close`]; ids are allocated sequentially per run and the parent
    /// link reflects the current nesting.
    ///
    /// [`close`]: Tracer::close
    pub fn open(&mut self, at: SimTime, label: &str) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        if self.enabled(TraceLevel::Epoch) {
            let parent = self.stack.last().copied();
            let ev = TraceEvent::SpanBegin {
                id,
                parent,
                label: label.to_string(),
            };
            self.sink.record(at, &ev);
        }
        self.stack.push(id);
        id
    }

    /// Close the innermost span, which must be `id` (enforced with a
    /// debug assertion so unbalanced instrumentation fails loudly in
    /// tests, not silently in traces).
    pub fn close(&mut self, at: SimTime, id: u64) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "span close out of order");
        if self.enabled(TraceLevel::Epoch) {
            self.sink.record(at, &TraceEvent::SpanEnd { id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_gates_events() {
        assert!(TraceLevel::Off < TraceLevel::Epoch);
        assert!(TraceLevel::Epoch < TraceLevel::Request);
        let mut sink = NullSink;
        let t = Tracer::new(&mut sink);
        assert!(!t.enabled(TraceLevel::Epoch));
        assert!(!t.enabled(TraceLevel::Request));

        let mut ring = RingSink::new(TraceLevel::Epoch);
        let t = Tracer::new(&mut ring);
        assert!(t.enabled(TraceLevel::Epoch));
        assert!(!t.enabled(TraceLevel::Request));
    }

    #[test]
    fn level_names_round_trip() {
        for lvl in [TraceLevel::Off, TraceLevel::Epoch, TraceLevel::Request] {
            assert_eq!(TraceLevel::parse(lvl.name()), Some(lvl));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn jsonl_buffer_renders_timestamp_first() {
        let mut ring = RingSink::new(TraceLevel::Request);
        let mut t = Tracer::new(&mut ring);
        t.emit(
            TraceLevel::Request,
            SimTime(1500),
            &TraceEvent::QueueDepth {
                server: 2,
                depth: 7,
            },
        );
        assert_eq!(
            ring.decode_lines(),
            [r#"{"t_us":1500,"ev":"queue_depth","server":2,"depth":7}"#]
        );
    }

    #[test]
    fn spans_nest_and_balance() {
        let mut ring = RingSink::new(TraceLevel::Epoch);
        let mut t = Tracer::new(&mut ring);
        let outer = t.open(SimTime(0), "run");
        let inner = t.open(SimTime(10), "epoch");
        t.close(SimTime(20), inner);
        t.close(SimTime(30), outer);
        let lines = ring.decode_lines();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""ev":"span_begin","id":0,"parent":null,"label":"run""#));
        assert!(lines[1].contains(r#""id":1,"parent":0,"label":"epoch""#));
        assert!(lines[2].contains(r#""ev":"span_end","id":1"#));
        assert!(lines[3].contains(r#""ev":"span_end","id":0"#));
    }

    #[test]
    fn span_ids_advance_even_when_off() {
        // Ids are part of the Tracer's local state, not the sink's, so a
        // NullSink run and a recorded run walk the same id sequence.
        let mut sink = NullSink;
        let mut t = Tracer::new(&mut sink);
        let a = t.open(SimTime(0), "run");
        let b = t.open(SimTime(1), "epoch");
        assert_eq!((a, b), (0, 1));
        t.close(SimTime(2), b);
        t.close(SimTime(3), a);
    }
}
