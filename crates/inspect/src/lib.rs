//! # anu-inspect — offline trace analysis
//!
//! Reads a recorded simulation trace — the JSONL rendering every traced
//! run writes — and turns the flat event stream back into per-request
//! structure:
//!
//! * **Span reconstruction**: every `arrival` is matched to its
//!   `dispatch`(es) and `complete` via the `(file set, arrival time)`
//!   key both carry (`dispatch.t − wait_us` and `complete.t − latency_us`
//!   recover the arrival timestamp, even across fault requeues and
//!   migration buffering).
//! * **Latency attribution**: each completed request's end-to-end latency
//!   is split into rebalance stall (buffered behind a migration), queue
//!   wait, requeue-after-fault, and service time — the four parts
//!   telescope back to the recorded `latency_us` exactly, and any span
//!   where they don't (or where their sum overflows `u64`) is counted as
//!   an integrity violation. Totals saturate, so hostile timestamps can
//!   skew a report but never panic the analyzer.
//! * **Integrity checking**: zero orphaned dispatches/completes, zero
//!   unmatched span markers, and per-span attribution sums are the
//!   "trace is trustworthy" bar the CI smoke test holds.
//! * **Decision timelines**: the per-epoch tuner telemetry (`epoch_end`
//!   records) rendered as a timeline of µ, moves and per-outcome counts.
//!
//! This crate performs no I/O: callers (the `anu-inspect` binary, tests)
//! hand in text or decoded events and receive an [`Analysis`] value. That
//! keeps the analysis deterministic and reusable from any harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use anu_core::{Json, ServerId, TuneDecision, TuneEpoch, TuneOutcome};
use anu_des::SimTime;
use anu_trace::{TraceEvent, WarnCode};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parse a JSONL trace (one `{"t_us":…,"ev":…,…}` object per line) back
/// into `(timestamp, event)` pairs. Blank lines are skipped; the first
/// malformed line aborts with a message naming it.
pub fn parse_jsonl(text: &str) -> Result<Vec<(SimTime, TraceEvent)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        out.push(parse_line(&j).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).map_err(|_| format!("missing field {key:?}"))
}

fn u64_of(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key)?
        .as_u64()
        .map_err(|_| format!("field {key:?} is not a u64"))
}

fn u32_of(j: &Json, key: &str) -> Result<u32, String> {
    field(j, key)?
        .as_u32()
        .map_err(|_| format!("field {key:?} is not a u32"))
}

fn f64_of(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?
        .as_f64()
        .map_err(|_| format!("field {key:?} is not an f64"))
}

fn bool_of(j: &Json, key: &str) -> Result<bool, String> {
    field(j, key)?
        .as_bool()
        .map_err(|_| format!("field {key:?} is not a bool"))
}

fn str_of<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    field(j, key)?
        .as_str()
        .map_err(|_| format!("field {key:?} is not a string"))
}

/// `null` → `None`, number → `Some(u32)`.
fn opt_u32_of(j: &Json, key: &str) -> Result<Option<u32>, String> {
    let v = field(j, key)?;
    if v.is_null() {
        Ok(None)
    } else {
        v.as_u32()
            .map(Some)
            .map_err(|_| format!("field {key:?} is not a u32 or null"))
    }
}

fn parse_tune(j: &Json) -> Result<TuneEpoch, String> {
    let mut decisions = Vec::new();
    for d in field(j, "decisions")?
        .as_arr()
        .map_err(|_| "decisions is not an array".to_string())?
    {
        decisions.push(TuneDecision {
            server: ServerId(u32_of(d, "server")?),
            latency_ms: f64_of(d, "latency_ms")?,
            old_share: f64_of(d, "old")?,
            new_share: f64_of(d, "new")?,
            applied_share: f64_of(d, "applied")?,
            outcome: str_of(d, "outcome").and_then(|name| {
                TuneOutcome::parse(name).ok_or_else(|| format!("unknown tune outcome {name:?}"))
            })?,
        });
    }
    Ok(TuneEpoch {
        mu_ms: f64_of(j, "mu_ms")?,
        planned: bool_of(j, "planned")?,
        decisions,
    })
}

/// Decode one parsed JSONL object into its event value (inverse of
/// [`anu_trace::render_line`]).
fn parse_line(j: &Json) -> Result<(SimTime, TraceEvent), String> {
    let at = SimTime(u64_of(j, "t_us")?);
    let kind = str_of(j, "ev")?;
    let ev = match kind {
        "arrival" => TraceEvent::RequestArrival {
            server: opt_u32_of(j, "server")?,
            set: u64_of(j, "set")?,
            buffered: bool_of(j, "buffered")?,
        },
        "dispatch" => TraceEvent::RequestDispatch {
            server: u32_of(j, "server")?,
            set: u64_of(j, "set")?,
            wait_us: u64_of(j, "wait_us")?,
        },
        "complete" => TraceEvent::RequestComplete {
            server: u32_of(j, "server")?,
            set: u64_of(j, "set")?,
            latency_us: u64_of(j, "latency_us")?,
            depth: u64_of(j, "depth")?,
        },
        "queue_depth" => TraceEvent::QueueDepth {
            server: u32_of(j, "server")?,
            depth: u64_of(j, "depth")?,
        },
        "epoch_begin" => TraceEvent::EpochBegin {
            epoch: u64_of(j, "epoch")?,
        },
        "epoch_end" => {
            let tune_field = field(j, "tune")?;
            TraceEvent::EpochEnd {
                epoch: u64_of(j, "epoch")?,
                moves: u64_of(j, "moves")?,
                tune: if tune_field.is_null() {
                    None
                } else {
                    Some(parse_tune(tune_field)?)
                },
            }
        }
        "migration_start" => TraceEvent::MigrationStart {
            set: u64_of(j, "set")?,
            from: opt_u32_of(j, "from")?,
            to: u32_of(j, "to")?,
        },
        "migration_flush" => TraceEvent::MigrationFlush {
            set: u64_of(j, "set")?,
            from: opt_u32_of(j, "from")?,
            done_us: u64_of(j, "done_us")?,
        },
        "migration_finish" => TraceEvent::MigrationFinish {
            set: u64_of(j, "set")?,
            to: u32_of(j, "to")?,
            buffered: u64_of(j, "buffered")?,
        },
        "fault" => TraceEvent::Fault {
            server: u32_of(j, "server")?,
            drained: u64_of(j, "drained")?,
        },
        "recover" => TraceEvent::Recover {
            server: u32_of(j, "server")?,
        },
        "slowdown" => TraceEvent::Slowdown {
            server: u32_of(j, "server")?,
            factor: f64_of(j, "factor")?,
            until_us: u64_of(j, "until_us")?,
        },
        "delegate_fail" => TraceEvent::DelegateFail {
            pause_ticks: u32_of(j, "pause_ticks")?,
        },
        "report_fault" => TraceEvent::ReportFault {
            server: u32_of(j, "server")?,
            delayed: bool_of(j, "delayed")?,
        },
        "warning" => {
            let code_str = str_of(j, "code")?;
            TraceEvent::Warning {
                code: WarnCode::parse(code_str)
                    .ok_or_else(|| format!("unknown warning code {code_str:?}"))?,
                detail: str_of(j, "detail")?.to_string(),
                count: u64_of(j, "count")?,
            }
        }
        "span_begin" => {
            let parent = field(j, "parent")?;
            TraceEvent::SpanBegin {
                id: u64_of(j, "id")?,
                parent: if parent.is_null() {
                    None
                } else {
                    Some(
                        parent
                            .as_u64()
                            .map_err(|_| "parent is not a u64 or null".to_string())?,
                    )
                },
                label: str_of(j, "label")?.to_string(),
            }
        }
        "span_end" => TraceEvent::SpanEnd {
            id: u64_of(j, "id")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok((at, ev))
}

/// One service start of a reconstructed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dispatch {
    /// Simulated time (µs) service began.
    pub t_us: u64,
    /// Serving server.
    pub server: u32,
    /// Recorded queue wait (µs since the original arrival).
    pub wait_us: u64,
}

/// The completion of a reconstructed request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Simulated time (µs) the request finished.
    pub t_us: u64,
    /// Server that finished it.
    pub server: u32,
    /// Recorded end-to-end latency (µs).
    pub latency_us: u64,
}

/// One request's reconstructed lifetime with its latency attribution.
///
/// For a completed span the four attribution parts telescope exactly:
/// `stall + queue + requeue + service == completion.latency_us`
/// (violations, including a sum that overflows `u64`, are counted in
/// [`Integrity::attribution_mismatches`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestSpan {
    /// File set the request touched (raw workload id).
    pub set: u64,
    /// Arrival time (µs).
    pub arrival_us: u64,
    /// True when the request arrived while its set was mid-migration and
    /// buffered instead of enqueueing.
    pub buffered: bool,
    /// Every service start, in time order — more than one after a fault
    /// drained the request from a dead server and requeued it.
    pub dispatches: Vec<Dispatch>,
    /// The completion, when the trace saw one.
    pub completion: Option<Completion>,
    /// Time buffered behind an in-flight migration before the request
    /// could enqueue anywhere (µs; 0 unless `buffered`).
    pub stall_us: u64,
    /// Time queued waiting for service after any stall (µs).
    pub queue_us: u64,
    /// Time lost to fault requeues: first service start → last service
    /// start (µs; 0 when the first dispatch ran to completion).
    pub requeue_us: u64,
    /// Final service time: last dispatch → completion (µs).
    pub service_us: u64,
}

impl RequestSpan {
    /// Sum of the four attribution parts; equals the recorded
    /// end-to-end latency for every clean completed span. `None` when the
    /// sum overflows `u64`, which only a hostile trace can cause.
    pub fn attributed_us(&self) -> Option<u64> {
        self.stall_us
            .checked_add(self.queue_us)?
            .checked_add(self.requeue_us)?
            .checked_add(self.service_us)
    }
}

/// Trace-integrity verdict: all-zero means every request-level event
/// matched a span, every span marker paired up, and every completed
/// span's attribution telescopes to its recorded latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Integrity {
    /// `dispatch` events whose `(set, t − wait_us)` key matched no open
    /// request.
    pub orphan_dispatches: u64,
    /// `complete` events whose `(set, t − latency_us)` key matched no
    /// open request.
    pub orphan_completes: u64,
    /// Requests that arrived but never completed in the trace.
    pub open_requests: u64,
    /// Completed spans whose attribution parts do not sum to the
    /// recorded `latency_us`.
    pub attribution_mismatches: u64,
    /// `span_end` markers with no matching open `span_begin`.
    pub orphan_span_ends: u64,
    /// `span_begin` markers never closed by the end of the trace.
    pub unclosed_spans: u64,
}

impl Integrity {
    /// True when every check passed.
    pub fn clean(&self) -> bool {
        *self == Integrity::default()
    }
}

/// Attribution totals over every completed request (µs), saturating at
/// `u64::MAX`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Total rebalance-stall time.
    pub stall_us: u64,
    /// Total queue-wait time.
    pub queue_us: u64,
    /// Total requeue-after-fault time.
    pub requeue_us: u64,
    /// Total service time.
    pub service_us: u64,
    /// Total recorded end-to-end latency (the other four sum to this on
    /// a clean trace).
    pub latency_us: u64,
    /// Completed requests the totals cover.
    pub completed: u64,
}

/// One tuning epoch from the trace's `epoch_end` records.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSummary {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Simulated time (µs) of the tick.
    pub t_us: u64,
    /// Migrations the policy ordered.
    pub moves: u64,
    /// The tuner's decision record, when the policy ran one.
    pub tune: Option<TuneEpoch>,
}

/// Everything [`analyze`] extracts from one trace.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Total events in the trace.
    pub events: usize,
    /// Reconstructed request spans, in arrival order. Empty for
    /// epoch-level traces (they carry no request events).
    pub spans: Vec<RequestSpan>,
    /// Integrity verdict.
    pub integrity: Integrity,
    /// Attribution totals over completed spans.
    pub attribution: Attribution,
    /// Per-epoch decision timeline.
    pub epochs: Vec<EpochSummary>,
    /// Server failures observed.
    pub faults: u64,
    /// Server recoveries observed.
    pub recovers: u64,
    /// Migrations started.
    pub migrations: u64,
    /// Diagnostic warnings, as `(t_us, code, detail, count)`.
    pub warnings: Vec<(u64, WarnCode, String, u64)>,
}

/// Reconstruct request spans, attribution, integrity and timelines from
/// a decoded event stream (see the crate docs for the matching rules).
pub fn analyze(events: &[(SimTime, TraceEvent)]) -> Analysis {
    let mut a = Analysis {
        events: events.len(),
        ..Analysis::default()
    };
    // (set, arrival_t) → span indices in arrival order. Dispatches and
    // completes recover the key from their payloads; collisions (two
    // same-set arrivals in the same microsecond) resolve FIFO.
    let mut by_key: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    // set → migration-finish times, ascending (trace is time-ordered).
    let mut mig_finishes: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut open_markers: BTreeMap<u64, ()> = BTreeMap::new();

    for (at, ev) in events {
        match ev {
            TraceEvent::RequestArrival {
                set,
                buffered,
                server: _,
            } => {
                by_key.entry((*set, at.0)).or_default().push(a.spans.len());
                a.spans.push(RequestSpan {
                    set: *set,
                    arrival_us: at.0,
                    buffered: *buffered,
                    dispatches: Vec::new(),
                    completion: None,
                    stall_us: 0,
                    queue_us: 0,
                    requeue_us: 0,
                    service_us: 0,
                });
            }
            TraceEvent::RequestDispatch {
                server,
                set,
                wait_us,
            } => {
                let matched = at.0.checked_sub(*wait_us).and_then(|arr| {
                    by_key
                        .get(&(*set, arr))?
                        .iter()
                        .find(|&&i| a.spans[i].completion.is_none())
                        .copied()
                });
                match matched {
                    Some(i) => a.spans[i].dispatches.push(Dispatch {
                        t_us: at.0,
                        server: *server,
                        wait_us: *wait_us,
                    }),
                    None => a.integrity.orphan_dispatches += 1,
                }
            }
            TraceEvent::RequestComplete {
                server,
                set,
                latency_us,
                depth: _,
            } => {
                let matched = at.0.checked_sub(*latency_us).and_then(|arr| {
                    by_key
                        .get(&(*set, arr))?
                        .iter()
                        .find(|&&i| a.spans[i].completion.is_none())
                        .copied()
                });
                match matched {
                    Some(i) => {
                        a.spans[i].completion = Some(Completion {
                            t_us: at.0,
                            server: *server,
                            latency_us: *latency_us,
                        });
                    }
                    None => a.integrity.orphan_completes += 1,
                }
            }
            TraceEvent::EpochEnd { epoch, moves, tune } => {
                a.epochs.push(EpochSummary {
                    epoch: *epoch,
                    t_us: at.0,
                    moves: *moves,
                    tune: tune.clone(),
                });
            }
            TraceEvent::MigrationStart { .. } => a.migrations += 1,
            TraceEvent::MigrationFinish { set, .. } => {
                mig_finishes.entry(*set).or_default().push(at.0);
            }
            TraceEvent::Fault { .. } => a.faults += 1,
            TraceEvent::Recover { .. } => a.recovers += 1,
            TraceEvent::Warning {
                code,
                detail,
                count,
            } => a.warnings.push((at.0, *code, detail.clone(), *count)),
            TraceEvent::SpanBegin { id, .. } => {
                open_markers.insert(*id, ());
            }
            TraceEvent::SpanEnd { id } if open_markers.remove(id).is_none() => {
                a.integrity.orphan_span_ends += 1;
            }
            TraceEvent::SpanEnd { .. } => {}
            _ => {}
        }
    }
    a.integrity.unclosed_spans = open_markers.len() as u64;

    // Attribution pass: split each completed span's latency into
    // stall / queue / requeue / service so the parts telescope.
    for span in &mut a.spans {
        let Some(done) = span.completion else {
            a.integrity.open_requests += 1;
            continue;
        };
        let first_seg_end = span.dispatches.first().map_or(done.t_us, |d| d.t_us);
        if span.buffered {
            // Buffered requests stall until their set's migration lands;
            // the first finish at or after arrival released them.
            let released = mig_finishes
                .get(&span.set)
                .and_then(|ts| ts.iter().find(|&&t| t >= span.arrival_us))
                .copied()
                .unwrap_or(span.arrival_us);
            span.stall_us = released.min(first_seg_end).saturating_sub(span.arrival_us);
        }
        span.queue_us = first_seg_end
            .saturating_sub(span.arrival_us)
            .saturating_sub(span.stall_us);
        if let (Some(first), Some(last)) = (span.dispatches.first(), span.dispatches.last()) {
            span.requeue_us = last.t_us.saturating_sub(first.t_us);
            span.service_us = done.t_us.saturating_sub(last.t_us);
        }
        if span.attributed_us() != Some(done.latency_us) {
            a.integrity.attribution_mismatches += 1;
        }
        let t = &mut a.attribution;
        t.stall_us = t.stall_us.saturating_add(span.stall_us);
        t.queue_us = t.queue_us.saturating_add(span.queue_us);
        t.requeue_us = t.requeue_us.saturating_add(span.requeue_us);
        t.service_us = t.service_us.saturating_add(span.service_us);
        t.latency_us = t.latency_us.saturating_add(done.latency_us);
        t.completed += 1;
    }
    a
}

impl Analysis {
    /// The `k` completed spans with the largest end-to-end latency,
    /// slowest first (ties resolve to earlier arrivals).
    pub fn slowest(&self, k: usize) -> Vec<&RequestSpan> {
        let mut done: Vec<&RequestSpan> = self
            .spans
            .iter()
            .filter(|s| s.completion.is_some())
            .collect();
        done.sort_by_key(|s| {
            (
                std::cmp::Reverse(s.completion.map_or(0, |c| c.latency_us)),
                s.arrival_us,
            )
        });
        done.truncate(k);
        done
    }

    /// Render the human-readable report the `anu-inspect` binary prints:
    /// trace summary, integrity verdict, attribution totals, the
    /// decision timeline, and the `top_k` slowest requests.
    pub fn report(&self, top_k: usize) -> String {
        let mut out = String::new();
        let completed = self.attribution.completed;
        writeln!(
            out,
            "trace: {} events, {} requests ({completed} completed), {} epochs, {} migrations, {} faults, {} warnings",
            self.events,
            self.spans.len(),
            self.epochs.len(),
            self.migrations,
            self.faults,
            self.warnings.len()
        )
        .ok();
        let i = &self.integrity;
        writeln!(
            out,
            "integrity: {} (orphan dispatches {}, orphan completes {}, open requests {}, attribution mismatches {}, orphan span ends {}, unclosed spans {})",
            if i.clean() { "OK" } else { "VIOLATED" },
            i.orphan_dispatches,
            i.orphan_completes,
            i.open_requests,
            i.attribution_mismatches,
            i.orphan_span_ends,
            i.unclosed_spans
        )
        .ok();
        if completed > 0 {
            let t = &self.attribution;
            let pct = |part: u64| 100.0 * part as f64 / (t.latency_us.max(1)) as f64;
            writeln!(out, "latency attribution ({completed} completed requests):").ok();
            for (label, part) in [
                ("queue", t.queue_us),
                ("service", t.service_us),
                ("requeue_after_fault", t.requeue_us),
                ("rebalance_stall", t.stall_us),
            ] {
                writeln!(out, "  {label:<20} {part:>14} us  ({:5.1}%)", pct(part)).ok();
            }
            writeln!(out, "  {:<20} {:>14} us", "end_to_end", t.latency_us).ok();
        }
        if !self.epochs.is_empty() {
            writeln!(out, "decision timeline ({} epochs):", self.epochs.len()).ok();
            for e in &self.epochs {
                match &e.tune {
                    Some(tune) => {
                        // Counted in declaration order, the timeline's
                        // column order.
                        let mut counts = [0u64; TuneOutcome::ALL.len()];
                        for d in &tune.decisions {
                            counts[d.outcome as usize] += 1;
                        }
                        let outcomes: Vec<String> = TuneOutcome::ALL
                            .iter()
                            .zip(counts)
                            .filter(|(_, n)| *n > 0)
                            .map(|(o, n)| format!("{} {n}", o.name()))
                            .collect();
                        writeln!(
                            out,
                            "  epoch {:>3} @{:>8.1}s  mu {:>8.2} ms  moves {:>2}  {}",
                            e.epoch,
                            e.t_us as f64 / 1e6,
                            tune.mu_ms,
                            e.moves,
                            if outcomes.is_empty() {
                                "no decisions".to_string()
                            } else {
                                outcomes.join(", ")
                            }
                        )
                        .ok();
                    }
                    None => {
                        writeln!(
                            out,
                            "  epoch {:>3} @{:>8.1}s  (no tuner)      moves {:>2}",
                            e.epoch,
                            e.t_us as f64 / 1e6,
                            e.moves
                        )
                        .ok();
                    }
                }
            }
        }
        let slowest = self.slowest(top_k);
        if !slowest.is_empty() {
            writeln!(out, "top {} slowest requests:", slowest.len()).ok();
            for (rank, s) in slowest.iter().enumerate() {
                let Some(done) = s.completion else { continue };
                writeln!(
                    out,
                    "  {:>2}. set {:>4} arrived {:>9.3}s  latency {:>10} us = queue {} + service {} + requeue {} + stall {}  (server {}, {} dispatch{})",
                    rank + 1,
                    s.set,
                    s.arrival_us as f64 / 1e6,
                    done.latency_us,
                    s.queue_us,
                    s.service_us,
                    s.requeue_us,
                    s.stall_us,
                    done.server,
                    s.dispatches.len(),
                    if s.dispatches.len() == 1 { "" } else { "es" }
                )
                .ok();
            }
        }
        for (t, code, detail, count) in &self.warnings {
            writeln!(
                out,
                "warning @{:.1}s [{}] {} (count {})",
                *t as f64 / 1e6,
                code.as_str(),
                detail,
                count
            )
            .ok();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, e: TraceEvent) -> (SimTime, TraceEvent) {
        (SimTime(t), e)
    }

    /// Minimal clean trace: one plain request, one buffered request
    /// released by a migration, one epoch.
    fn sample() -> Vec<(SimTime, TraceEvent)> {
        vec![
            ev(
                100,
                TraceEvent::RequestArrival {
                    server: Some(0),
                    set: 7,
                    buffered: false,
                },
            ),
            ev(
                100,
                TraceEvent::RequestDispatch {
                    server: 0,
                    set: 7,
                    wait_us: 0,
                },
            ),
            ev(
                200,
                TraceEvent::MigrationStart {
                    set: 9,
                    from: Some(0),
                    to: 1,
                },
            ),
            ev(
                250,
                TraceEvent::RequestArrival {
                    server: None,
                    set: 9,
                    buffered: true,
                },
            ),
            ev(
                600,
                TraceEvent::RequestComplete {
                    server: 0,
                    set: 7,
                    latency_us: 500,
                    depth: 0,
                },
            ),
            ev(
                1000,
                TraceEvent::MigrationFinish {
                    set: 9,
                    to: 1,
                    buffered: 1,
                },
            ),
            ev(
                1100,
                TraceEvent::RequestDispatch {
                    server: 1,
                    set: 9,
                    wait_us: 850,
                },
            ),
            ev(
                1500,
                TraceEvent::RequestComplete {
                    server: 1,
                    set: 9,
                    latency_us: 1250,
                    depth: 0,
                },
            ),
            ev(
                2000,
                TraceEvent::EpochEnd {
                    epoch: 0,
                    moves: 1,
                    tune: None,
                },
            ),
        ]
    }

    #[test]
    fn spans_reconstruct_and_attribution_telescopes() {
        let a = analyze(&sample());
        assert!(a.integrity.clean(), "{:?}", a.integrity);
        assert_eq!(a.spans.len(), 2);

        let plain = &a.spans[0];
        assert_eq!(
            (
                plain.stall_us,
                plain.queue_us,
                plain.requeue_us,
                plain.service_us
            ),
            (0, 0, 0, 500)
        );

        let buffered = &a.spans[1];
        assert!(buffered.buffered);
        // Stalled 250→1000 behind the migration, queued 1000→1100,
        // served 1100→1500.
        assert_eq!(
            (
                buffered.stall_us,
                buffered.queue_us,
                buffered.requeue_us,
                buffered.service_us
            ),
            (750, 100, 0, 400)
        );
        assert_eq!(buffered.attributed_us(), Some(1250));

        assert_eq!(a.attribution.latency_us, 1750);
        assert_eq!(
            a.attribution.stall_us
                + a.attribution.queue_us
                + a.attribution.requeue_us
                + a.attribution.service_us,
            a.attribution.latency_us
        );
        assert_eq!(a.epochs.len(), 1);
        assert_eq!(a.migrations, 1);
    }

    #[test]
    fn requeue_after_fault_is_attributed() {
        let events = vec![
            ev(
                0,
                TraceEvent::RequestArrival {
                    server: Some(2),
                    set: 3,
                    buffered: false,
                },
            ),
            ev(
                10,
                TraceEvent::RequestDispatch {
                    server: 2,
                    set: 3,
                    wait_us: 10,
                },
            ),
            ev(
                50,
                TraceEvent::Fault {
                    server: 2,
                    drained: 1,
                },
            ),
            // Requeued on server 0 and dispatched again.
            ev(
                80,
                TraceEvent::RequestDispatch {
                    server: 0,
                    set: 3,
                    wait_us: 80,
                },
            ),
            ev(
                200,
                TraceEvent::RequestComplete {
                    server: 0,
                    set: 3,
                    latency_us: 200,
                    depth: 0,
                },
            ),
        ];
        let a = analyze(&events);
        assert!(a.integrity.clean(), "{:?}", a.integrity);
        let s = &a.spans[0];
        assert_eq!(s.dispatches.len(), 2);
        // queue 0→10, requeue 10→80, service 80→200.
        assert_eq!(
            (s.stall_us, s.queue_us, s.requeue_us, s.service_us),
            (0, 10, 70, 120)
        );
        assert_eq!(s.attributed_us(), Some(200));
        assert_eq!(a.faults, 1);
    }

    #[test]
    fn orphans_and_open_requests_are_counted() {
        let events = vec![
            // Dispatch with no arrival.
            ev(
                100,
                TraceEvent::RequestDispatch {
                    server: 0,
                    set: 1,
                    wait_us: 50,
                },
            ),
            // Complete with no arrival.
            ev(
                200,
                TraceEvent::RequestComplete {
                    server: 0,
                    set: 1,
                    latency_us: 10,
                    depth: 0,
                },
            ),
            // Arrival that never completes.
            ev(
                300,
                TraceEvent::RequestArrival {
                    server: Some(0),
                    set: 2,
                    buffered: false,
                },
            ),
            // Unmatched span end, unclosed span begin.
            ev(400, TraceEvent::SpanEnd { id: 99 }),
            ev(
                500,
                TraceEvent::SpanBegin {
                    id: 1,
                    parent: None,
                    label: "run".into(),
                },
            ),
        ];
        let a = analyze(&events);
        assert_eq!(a.integrity.orphan_dispatches, 1);
        assert_eq!(a.integrity.orphan_completes, 1);
        assert_eq!(a.integrity.open_requests, 1);
        assert_eq!(a.integrity.orphan_span_ends, 1);
        assert_eq!(a.integrity.unclosed_spans, 1);
        assert!(!a.integrity.clean());
    }

    #[test]
    fn jsonl_round_trips_through_render() {
        use anu_trace::render_line;
        let events = sample();
        let text: String = events
            .iter()
            .map(|(t, e)| render_line(*t, e) + "\n")
            .collect();
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed, events);
        // Blank lines are tolerated; garbage is not.
        assert!(parse_jsonl("\n\n").expect("blank").is_empty());
        assert!(parse_jsonl("{\"t_us\":1}").is_err());
        assert!(parse_jsonl("not json").is_err());
    }

    #[test]
    fn jsonl_parses_tune_payloads() {
        use anu_trace::render_line;
        let tune = TuneEpoch {
            mu_ms: 12.5,
            planned: true,
            decisions: vec![TuneDecision {
                server: ServerId(3),
                latency_ms: 20.25,
                old_share: 0.5,
                new_share: 0.25,
                applied_share: 0.25,
                outcome: TuneOutcome::Clamped,
            }],
        };
        let ev = TraceEvent::EpochEnd {
            epoch: 4,
            moves: 2,
            tune: Some(tune),
        };
        let line = render_line(SimTime(1), &ev);
        let parsed = parse_jsonl(&line).expect("parse");
        assert_eq!(parsed, vec![(SimTime(1), ev)]);
    }

    #[test]
    fn hostile_latencies_saturate_the_totals() {
        // Two requests whose recorded latencies each take most of the
        // u64 range: every span telescopes, but the totals would overflow.
        let big = u64::MAX - 1;
        let arrival = || {
            ev(
                0,
                TraceEvent::RequestArrival {
                    server: Some(0),
                    set: 7,
                    buffered: false,
                },
            )
        };
        let complete = || {
            ev(
                big,
                TraceEvent::RequestComplete {
                    server: 0,
                    set: 7,
                    latency_us: big,
                    depth: 0,
                },
            )
        };
        let a = analyze(&[arrival(), arrival(), complete(), complete()]);
        assert!(a.integrity.clean(), "{:?}", a.integrity);
        assert_eq!(a.attribution.completed, 2);
        assert_eq!(a.attribution.queue_us, u64::MAX);
        assert_eq!(a.attribution.latency_us, u64::MAX);
        assert!(a.report(5).contains("integrity: OK"));
    }

    #[test]
    fn overflowing_attribution_is_a_mismatch() {
        // Dispatches out of time order make queue and service each take
        // most of the u64 range, so their sum overflows.
        let big = u64::MAX - 1;
        let events = [
            ev(
                0,
                TraceEvent::RequestArrival {
                    server: Some(0),
                    set: 3,
                    buffered: false,
                },
            ),
            ev(
                big,
                TraceEvent::RequestDispatch {
                    server: 0,
                    set: 3,
                    wait_us: big,
                },
            ),
            ev(
                1,
                TraceEvent::RequestDispatch {
                    server: 0,
                    set: 3,
                    wait_us: 1,
                },
            ),
            ev(
                u64::MAX,
                TraceEvent::RequestComplete {
                    server: 0,
                    set: 3,
                    latency_us: u64::MAX,
                    depth: 0,
                },
            ),
        ];
        let a = analyze(&events);
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.spans[0].attributed_us(), None);
        assert_eq!(
            a.integrity,
            Integrity {
                attribution_mismatches: 1,
                ..Integrity::default()
            }
        );
        assert!(a.report(5).contains("integrity: VIOLATED"));
    }

    #[test]
    fn report_renders_every_section() {
        let a = analyze(&sample());
        let r = a.report(5);
        assert!(r.contains("integrity: OK"));
        assert!(r.contains("latency attribution"));
        assert!(r.contains("decision timeline"));
        assert!(r.contains("top 2 slowest requests"));
        assert!(r.contains("end_to_end"), "{r}");
    }
}
