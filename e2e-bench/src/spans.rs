//! The benchmark's own spans: recorded in memory around calls into each
//! layer, written as JSONL when the run ends.
//!
//! A span has a name, start and end (nanoseconds since the run's
//! [`Clock`] origin), the span that caused it, and the simulation task it
//! belongs to. A span's self time is its duration minus the time its
//! children cover.

use anu_cluster::{ProfileScope, RunProfiler};
use anu_core::Json;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// A shared time origin: every span of a run counts from it.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in its log.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The simulation task (index in pass order) the span belongs to.
    pub task: Option<u32>,
    /// The pass the span was recorded in; `None` during set-up.
    pub pass: Option<u32>,
    /// Layer boundary name, e.g. `policy.tick`.
    pub name: &'static str,
    /// Start, in nanoseconds since the clock origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the clock origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
#[derive(Clone, Debug)]
pub struct SpanLog {
    clock: Clock,
    pass: Option<u32>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log counting from `clock`.
    pub fn new(clock: Clock) -> Self {
        SpanLog {
            clock,
            pass: None,
            spans: Vec::new(),
        }
    }

    /// The log's clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Tag spans recorded from now on with `pass`.
    pub fn set_pass(&mut self, pass: Option<u32>) {
        self.pass = pass;
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a finished span; returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        task: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            task,
            pass: self.pass,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span that [`close`](SpanLog::close) ends; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, task: Option<u32>) -> u32 {
        let now = self.clock.now_ns();
        self.push(name, parent, task, now, now)
    }

    /// End the span `id` now.
    pub fn close(&mut self, id: u32) {
        let now = self.clock.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        task: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.clock.now_ns();
        let out = f();
        let end = self.clock.now_ns();
        self.push(name, parent, task, start, end);
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let opt = |v: Option<u32>| v.map_or(Json::Null, Json::u32);
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("id", Json::u32(s.id)),
                ("parent", opt(s.parent)),
                ("task", opt(s.task)),
                ("pass", opt(s.pass)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::u64(s.start_ns)),
                ("end_ns", Json::u64(s.end_ns)),
            ]);
            writeln!(f, "{}", line.render())?;
        }
        f.flush()
    }
}

/// Total duration, in seconds, of the spans named `name` among `spans`.
/// (A fold from `0.0`: an empty `f64` sum is `-0.0`.)
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .fold(0.0, |a, b| a + b)
}

/// Total self time, in seconds, of the spans named `name`: their
/// durations minus the durations of their direct children. Children of
/// one span never overlap here, since the benchmark runs one thread.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            s.dur_ns().saturating_sub(children) as f64 / 1e9
        })
        .fold(0.0, |a, b| a + b)
}

/// A [`RunProfiler`] that records each metrics publication as a
/// `metrics.publish` span. Policy scopes are ignored: the policy wrapper
/// times each policy call itself.
#[derive(Debug)]
pub struct PublishProfiler {
    clock: Clock,
    since: Option<u64>,
    /// `(start_ns, end_ns)` of every publication, in order.
    pub spans: Vec<(u64, u64)>,
}

impl PublishProfiler {
    /// A profiler counting from `clock`.
    pub fn new(clock: Clock) -> Self {
        PublishProfiler {
            clock,
            since: None,
            spans: Vec::new(),
        }
    }
}

impl RunProfiler for PublishProfiler {
    fn enter(&mut self, scope: ProfileScope) {
        if scope == ProfileScope::MetricsUpdate {
            self.since = Some(self.clock.now_ns());
        }
    }

    fn exit(&mut self, scope: ProfileScope) {
        if scope == ProfileScope::MetricsUpdate {
            if let Some(start) = self.since.take() {
                self.spans.push((start, self.clock.now_ns()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::new(Clock::start());
        let root = log.push("world.run", None, Some(0), 0, 100);
        log.push("policy.tick", Some(root), Some(0), 10, 30);
        log.push("metrics.publish", Some(root), Some(0), 40, 45);
        let spans = log.spans();
        assert_eq!(total_s(spans, "world.run"), 100e-9);
        assert!((self_s(spans, "world.run") - 75e-9).abs() < 1e-15);
        assert_eq!(self_s(spans, "policy.tick"), 20e-9);
    }
}
