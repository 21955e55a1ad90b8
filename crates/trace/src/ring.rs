//! The binary ring-buffer sink: fixed-width event records, decoded to
//! JSONL only at flush.
//!
//! Rendering JSON inside the simulation hot loop — field-name strings,
//! number formatting, per-line `String` allocation, once per event —
//! dominated traced runs (97% throughput loss at request level).
//! [`RingSink`] moves all of it out of the loop: [`record`] packs each
//! [`TraceEvent`] into a fixed-width binary record — six `u64` words
//! appended to a chain of preallocated segments — and the JSONL bytes are
//! produced only when the caller asks for them, after the simulation
//! ends. The records live in memory only; the JSONL rendering is the one
//! on-disk trace format.
//!
//! The decode path reconstructs each `TraceEvent` value and renders it
//! through [`render_line`], so the flushed lines are exactly the
//! rendering of the recorded events — the committed trace goldens and
//! the jobs-1-vs-N determinism gates pin those bytes.
//!
//! ## Record layout (pinned by the `ring_golden` fixture test)
//!
//! One record is [`WORDS_PER_RECORD`] = 6 little-endian `u64` words:
//!
//! | word | contents                                                    |
//! |------|-------------------------------------------------------------|
//! | 0    | variant tag (bits 0–7) \| presence flags (bits 8–15)        |
//! | 1    | simulated timestamp `t_us`                                  |
//! | 2–5  | payload words `a`–`d`, variant-specific, zero when unused   |
//!
//! Flag bit 8 marks an `Option` payload as present (`RequestArrival`'s
//! server, `EpochEnd`'s tune record, `MigrationStart`/`Flush`'s source,
//! `SpanBegin`'s parent). Strings live in a shared byte arena and ride
//! in a payload word as `offset << 32 | len`; `f64` payloads travel via
//! `to_bits`. The one non-fixed-width payload, `EpochEnd`'s optional
//! [`TuneEpoch`] decision record, is cloned into a side table with its
//! index in a payload word — it appears at most once per tuning epoch,
//! so the hot request-level path stays allocation-free.
//!
//! Segments hold [`SEG_RECORDS`] records each and are written through
//! preallocated capacity — an append never copies existing records. A
//! fresh segment is allocated once every `SEG_RECORDS` events, which is
//! the only allocation the recording path performs.
//!
//! [`record`]: TraceSink::record
//! [`render_line`]: crate::render_line

use crate::event::{TraceEvent, WarnCode};
use crate::{render_line, TraceLevel, TraceSink};
use anu_core::TuneEpoch;
use anu_des::SimTime;

/// Fixed width of one encoded record, in `u64` words.
pub(crate) const WORDS_PER_RECORD: usize = 6;

/// Records per preallocated segment (6 words × 8 bytes × 8192 = 384 KiB).
pub(crate) const SEG_RECORDS: usize = 8192;

const SEG_WORDS: usize = SEG_RECORDS * WORDS_PER_RECORD;

/// Variant tags, in declaration order of [`TraceEvent`]. Pinned by the
/// golden layout fixture — append new variants, never renumber.
const TAG_ARRIVAL: u64 = 0;
const TAG_DISPATCH: u64 = 1;
const TAG_COMPLETE: u64 = 2;
const TAG_QUEUE_DEPTH: u64 = 3;
const TAG_EPOCH_BEGIN: u64 = 4;
const TAG_EPOCH_END: u64 = 5;
const TAG_MIGRATION_START: u64 = 6;
const TAG_MIGRATION_FLUSH: u64 = 7;
const TAG_MIGRATION_FINISH: u64 = 8;
const TAG_FAULT: u64 = 9;
const TAG_RECOVER: u64 = 10;
const TAG_SLOWDOWN: u64 = 11;
const TAG_DELEGATE_FAIL: u64 = 12;
const TAG_REPORT_FAULT: u64 = 13;
const TAG_WARNING: u64 = 14;
const TAG_SPAN_BEGIN: u64 = 15;
const TAG_SPAN_END: u64 = 16;

/// Presence flag for the variant's `Option` payload, stored in word 0.
const FLAG_SOME: u64 = 1 << 8;

/// Binary trace sink: records events as fixed-width words, renders JSONL
/// only on [`decode_lines`].
///
/// Deterministic like every sink — the encoded words are a pure function
/// of the event stream, and the decoded lines are the [`render_line`]
/// renderings of the events the sink's level admits.
///
/// [`decode_lines`]: RingSink::decode_lines
/// [`render_line`]: crate::render_line
#[derive(Clone, Debug)]
pub struct RingSink {
    level: TraceLevel,
    /// The chain of segments; each has capacity `SEG_WORDS` and only the
    /// last is partially filled.
    segs: Vec<Vec<u64>>,
    /// Total records encoded.
    records: usize,
    /// Byte arena for string payloads (warning codes/details, span
    /// labels), referenced as `offset << 32 | len` words.
    text: Vec<u8>,
    /// Side table for the one variable-width payload: `EpochEnd`'s
    /// optional tuner decision record, referenced by index.
    tunes: Vec<TuneEpoch>,
}

impl RingSink {
    /// A sink capturing events up to `level`, with the first segment
    /// preallocated.
    pub fn new(level: TraceLevel) -> Self {
        RingSink {
            level,
            segs: vec![Vec::with_capacity(SEG_WORDS)],
            records: 0,
            text: Vec::new(),
            tunes: Vec::new(),
        }
    }

    /// Number of records encoded so far.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Has nothing been recorded yet?
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The raw words of record `idx`, for layout tests and tooling.
    pub fn record_words(&self, idx: usize) -> Option<[u64; WORDS_PER_RECORD]> {
        if idx >= self.records {
            return None;
        }
        let seg = &self.segs[idx / SEG_RECORDS];
        let at = (idx % SEG_RECORDS) * WORDS_PER_RECORD;
        let mut w = [0u64; WORDS_PER_RECORD];
        w.copy_from_slice(&seg[at..at + WORDS_PER_RECORD]);
        Some(w)
    }

    /// The string arena backing packed `offset << 32 | len` payload words.
    pub fn text_bytes(&self) -> &[u8] {
        &self.text
    }

    /// Intern `s` into the text arena, returning the packed reference.
    fn pack_str(&mut self, s: &str) -> u64 {
        let off = self.text.len() as u64;
        self.text.extend_from_slice(s.as_bytes());
        off << 32 | s.len() as u64
    }

    /// Slice the text arena by a packed reference. Encoded offsets always
    /// point at valid UTF-8 (they were copied from `&str`s), so a
    /// corrupt reference decodes to an empty string rather than panicking.
    fn unpack_str(&self, packed: u64) -> &str {
        let (off, len) = ((packed >> 32) as usize, (packed & 0xFFFF_FFFF) as usize);
        self.text
            .get(off..off + len)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or("")
    }

    /// Append one encoded record.
    #[inline]
    fn push(&mut self, tag: u64, flags: u64, t_us: u64, payload: [u64; 4]) {
        // The last segment always exists: `new()` seeds one.
        if self.segs.last().is_some_and(|s| s.len() == SEG_WORDS) {
            self.segs.push(Vec::with_capacity(SEG_WORDS));
        }
        if let Some(seg) = self.segs.last_mut() {
            seg.extend_from_slice(&[
                tag | flags,
                t_us,
                payload[0],
                payload[1],
                payload[2],
                payload[3],
            ]);
        }
        self.records += 1;
    }

    /// Decode record `idx` back into its event value and timestamp.
    fn decode_record(&self, words: [u64; WORDS_PER_RECORD]) -> (SimTime, TraceEvent) {
        let tag = words[0] & 0xFF;
        let some = words[0] & FLAG_SOME != 0;
        let at = SimTime(words[1]);
        let [a, b, c, d] = [words[2], words[3], words[4], words[5]];
        let ev = match tag {
            TAG_ARRIVAL => TraceEvent::RequestArrival {
                server: some.then_some(a as u32),
                set: b,
                buffered: c != 0,
            },
            TAG_DISPATCH => TraceEvent::RequestDispatch {
                server: a as u32,
                set: b,
                wait_us: c,
            },
            TAG_COMPLETE => TraceEvent::RequestComplete {
                server: a as u32,
                set: b,
                latency_us: c,
                depth: d,
            },
            TAG_QUEUE_DEPTH => TraceEvent::QueueDepth {
                server: a as u32,
                depth: b,
            },
            TAG_EPOCH_BEGIN => TraceEvent::EpochBegin { epoch: a },
            TAG_EPOCH_END => TraceEvent::EpochEnd {
                epoch: a,
                moves: b,
                tune: some.then(|| self.tunes[c as usize].clone()),
            },
            TAG_MIGRATION_START => TraceEvent::MigrationStart {
                set: a,
                from: some.then_some(b as u32),
                to: c as u32,
            },
            TAG_MIGRATION_FLUSH => TraceEvent::MigrationFlush {
                set: a,
                from: some.then_some(b as u32),
                done_us: c,
            },
            TAG_MIGRATION_FINISH => TraceEvent::MigrationFinish {
                set: a,
                to: b as u32,
                buffered: c,
            },
            TAG_FAULT => TraceEvent::Fault {
                server: a as u32,
                drained: b,
            },
            TAG_RECOVER => TraceEvent::Recover { server: a as u32 },
            TAG_SLOWDOWN => TraceEvent::Slowdown {
                server: a as u32,
                factor: f64::from_bits(b),
                until_us: c,
            },
            TAG_DELEGATE_FAIL => TraceEvent::DelegateFail {
                pause_ticks: a as u32,
            },
            TAG_REPORT_FAULT => TraceEvent::ReportFault {
                server: a as u32,
                delayed: b != 0,
            },
            TAG_WARNING => TraceEvent::Warning {
                // Ids come from `WarnCode::id` at record time; an unknown
                // one would fall back to the first code rather than
                // panicking, mirroring `unpack_str`'s tolerance.
                code: WarnCode::from_id(a).unwrap_or(WarnCode::Invariant),
                detail: self.unpack_str(b).to_string(),
                count: c,
            },
            TAG_SPAN_BEGIN => TraceEvent::SpanBegin {
                id: a,
                parent: some.then_some(b),
                label: self.unpack_str(c).to_string(),
            },
            TAG_SPAN_END => TraceEvent::SpanEnd { id: a },
            _ => unreachable!("unknown ring record tag {tag}"),
        };
        (at, ev)
    }

    /// Decode every record back to `(timestamp, event)`, in emission order.
    pub fn decode_events(&self) -> Vec<(SimTime, TraceEvent)> {
        (0..self.records)
            .filter_map(|i| self.record_words(i))
            .map(|w| self.decode_record(w))
            .collect()
    }

    /// Render every record as its canonical JSONL line, in emission order.
    pub fn decode_lines(&self) -> Vec<String> {
        (0..self.records)
            .filter_map(|i| self.record_words(i))
            .map(|w| {
                let (at, ev) = self.decode_record(w);
                render_line(at, &ev)
            })
            .collect()
    }
}

impl TraceSink for RingSink {
    fn level(&self) -> TraceLevel {
        self.level
    }

    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        // Level filtering happens *before* the encode match: a filtered
        // event costs one integer compare — no words appended, no string
        // interned, no tune record cloned. (Emission sites already gate
        // on the site level via `Tracer::enabled`; this second gate keys
        // on the event's intrinsic level, so a directly-driven sink
        // behaves identically to a Tracer-driven one.)
        if event.level() > self.level {
            return;
        }
        let t = at.0;
        match event {
            TraceEvent::RequestArrival {
                server,
                set,
                buffered,
            } => self.push(
                TAG_ARRIVAL,
                flag(server.is_some()),
                t,
                [
                    u64::from(server.unwrap_or(0)),
                    *set,
                    u64::from(*buffered),
                    0,
                ],
            ),
            TraceEvent::RequestDispatch {
                server,
                set,
                wait_us,
            } => self.push(TAG_DISPATCH, 0, t, [u64::from(*server), *set, *wait_us, 0]),
            TraceEvent::RequestComplete {
                server,
                set,
                latency_us,
                depth,
            } => self.push(
                TAG_COMPLETE,
                0,
                t,
                [u64::from(*server), *set, *latency_us, *depth],
            ),
            TraceEvent::QueueDepth { server, depth } => {
                self.push(TAG_QUEUE_DEPTH, 0, t, [u64::from(*server), *depth, 0, 0]);
            }
            TraceEvent::EpochBegin { epoch } => {
                self.push(TAG_EPOCH_BEGIN, 0, t, [*epoch, 0, 0, 0]);
            }
            TraceEvent::EpochEnd { epoch, moves, tune } => {
                let idx = match tune {
                    Some(rec) => {
                        self.tunes.push(rec.clone());
                        self.tunes.len() as u64 - 1
                    }
                    None => 0,
                };
                self.push(
                    TAG_EPOCH_END,
                    flag(tune.is_some()),
                    t,
                    [*epoch, *moves, idx, 0],
                );
            }
            TraceEvent::MigrationStart { set, from, to } => self.push(
                TAG_MIGRATION_START,
                flag(from.is_some()),
                t,
                [*set, u64::from(from.unwrap_or(0)), u64::from(*to), 0],
            ),
            TraceEvent::MigrationFlush { set, from, done_us } => self.push(
                TAG_MIGRATION_FLUSH,
                flag(from.is_some()),
                t,
                [*set, u64::from(from.unwrap_or(0)), *done_us, 0],
            ),
            TraceEvent::MigrationFinish { set, to, buffered } => self.push(
                TAG_MIGRATION_FINISH,
                0,
                t,
                [*set, u64::from(*to), *buffered, 0],
            ),
            TraceEvent::Fault { server, drained } => {
                self.push(TAG_FAULT, 0, t, [u64::from(*server), *drained, 0, 0]);
            }
            TraceEvent::Recover { server } => {
                self.push(TAG_RECOVER, 0, t, [u64::from(*server), 0, 0, 0]);
            }
            TraceEvent::Slowdown {
                server,
                factor,
                until_us,
            } => self.push(
                TAG_SLOWDOWN,
                0,
                t,
                [u64::from(*server), factor.to_bits(), *until_us, 0],
            ),
            TraceEvent::DelegateFail { pause_ticks } => {
                self.push(TAG_DELEGATE_FAIL, 0, t, [u64::from(*pause_ticks), 0, 0, 0]);
            }
            TraceEvent::ReportFault { server, delayed } => self.push(
                TAG_REPORT_FAULT,
                0,
                t,
                [u64::from(*server), u64::from(*delayed), 0, 0],
            ),
            TraceEvent::Warning {
                code,
                detail,
                count,
            } => {
                // Codes are interned enum ids (the `WarnCode` decode
                // table); only the free-form detail rides in the arena.
                let d = self.pack_str(detail);
                self.push(TAG_WARNING, 0, t, [code.id(), d, *count, 0]);
            }
            TraceEvent::SpanBegin { id, parent, label } => {
                let l = self.pack_str(label);
                self.push(
                    TAG_SPAN_BEGIN,
                    flag(parent.is_some()),
                    t,
                    [*id, parent.unwrap_or(0), l, 0],
                );
            }
            TraceEvent::SpanEnd { id } => {
                self.push(TAG_SPAN_END, 0, t, [*id, 0, 0, 0]);
            }
        }
    }
}

/// `FLAG_SOME` when the variant's optional payload is present.
#[inline]
fn flag(some: bool) -> u64 {
    if some {
        FLAG_SOME
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_events() -> Vec<(SimTime, TraceEvent)> {
        vec![
            (
                SimTime(10),
                TraceEvent::RequestArrival {
                    server: Some(3),
                    set: 7,
                    buffered: false,
                },
            ),
            (
                SimTime(11),
                TraceEvent::RequestArrival {
                    server: None,
                    set: 8,
                    buffered: true,
                },
            ),
            (
                SimTime(12),
                TraceEvent::Warning {
                    code: WarnCode::Stragglers,
                    detail: "tail requests".into(),
                    count: 4,
                },
            ),
            (
                SimTime(13),
                TraceEvent::Slowdown {
                    server: 1,
                    factor: 2.5,
                    until_us: 99,
                },
            ),
            (
                SimTime(14),
                TraceEvent::SpanBegin {
                    id: 0,
                    parent: None,
                    label: "run".into(),
                },
            ),
            (SimTime(15), TraceEvent::SpanEnd { id: 0 }),
        ]
    }

    #[test]
    fn decode_matches_jsonl_buffer_bytes() {
        let mut ring = RingSink::new(TraceLevel::Request);
        let events = sample_events();
        for (at, ev) in &events {
            ring.record(*at, ev);
        }
        let expected: Vec<String> = events
            .iter()
            .filter(|(_, ev)| ev.level() <= TraceLevel::Request)
            .map(|(at, ev)| render_line(*at, ev))
            .collect();
        assert_eq!(ring.decode_lines(), expected);
    }

    #[test]
    fn decode_events_round_trips_values() {
        let mut ring = RingSink::new(TraceLevel::Request);
        let events = sample_events();
        for (at, ev) in &events {
            ring.record(*at, ev);
        }
        assert_eq!(ring.decode_events(), events);
    }

    #[test]
    fn segment_boundary_preserves_order() {
        let mut ring = RingSink::new(TraceLevel::Request);
        let n = SEG_RECORDS * 2 + 17;
        for i in 0..n {
            ring.record(
                SimTime(i as u64),
                &TraceEvent::QueueDepth {
                    server: 1,
                    depth: i as u64,
                },
            );
        }
        assert_eq!(ring.len(), n);
        assert_eq!(ring.segs.len(), 3, "two full segments plus a partial");
        let lines = ring.decode_lines();
        assert_eq!(lines.len(), n);
        assert!(lines[SEG_RECORDS].contains(&format!("\"depth\":{SEG_RECORDS}")));
    }

    #[test]
    fn segments_never_reallocate() {
        let mut ring = RingSink::new(TraceLevel::Request);
        for i in 0..(SEG_RECORDS * 2) as u64 {
            ring.record(SimTime(i), &TraceEvent::EpochBegin { epoch: i });
            for seg in &ring.segs {
                assert_eq!(seg.capacity(), SEG_WORDS, "append must not grow a segment");
            }
        }
    }

    #[test]
    fn intrinsic_level_filters_before_encode() {
        // An Epoch-level ring driven directly with request events must
        // drop them before interning or encoding anything — and render
        // exactly the events the level admits.
        let mut ring = RingSink::new(TraceLevel::Epoch);
        let events = sample_events();
        for (at, ev) in &events {
            ring.record(*at, ev);
        }
        let expected: Vec<String> = events
            .iter()
            .filter(|(_, ev)| ev.level() <= TraceLevel::Epoch)
            .map(|(at, ev)| render_line(*at, ev))
            .collect();
        // Arrivals filtered; Warning/Slowdown/spans kept (Epoch level).
        assert_eq!(ring.len(), 4);
        assert_eq!(
            ring.text_bytes(),
            b"tail requestsrun",
            "arena holds only surviving events' strings"
        );
        assert_eq!(ring.decode_lines(), expected);

        let mut off = RingSink::new(TraceLevel::Off);
        for (at, ev) in sample_events() {
            off.record(at, &ev);
        }
        assert!(off.is_empty());
        assert!(
            off.text_bytes().is_empty(),
            "filtered events intern nothing"
        );
    }

    #[test]
    fn works_as_tracer_sink() {
        let mut ring = RingSink::new(TraceLevel::Epoch);
        let mut t = Tracer::new(&mut ring);
        assert!(t.enabled(TraceLevel::Epoch));
        assert!(!t.enabled(TraceLevel::Request));
        let id = t.open(SimTime(5), "run");
        t.close(SimTime(9), id);
        let lines = ring.decode_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""ev":"span_begin","id":0,"parent":null,"label":"run""#));
    }
}
