//! Pins the binary ring-sink record layout and proves encode→decode
//! reproduces the `render_line` JSONL of the recorded events
//! byte-for-byte across every `TraceEvent` variant.
//!
//! The golden fixture here is the compatibility contract for the on-wire
//! record shape: six little-endian `u64` words per record — word 0 is
//! `tag | flags<<8`, word 1 the timestamp, words 2–5 the payload — with
//! strings packed into a shared arena as `offset << 32 | len`. If this
//! test fails after an intentional layout change, the change must bump a
//! reader somewhere; tags are append-only and never renumbered.

use anu_core::{TuneDecision, TuneEpoch, TuneOutcome};
use anu_des::SimTime;
use anu_trace::{render_line, RingSink, TraceEvent, TraceLevel, TraceSink, WarnCode};

/// Presence flag for a variant's `Option` payload (bit 8 of word 0).
const FLAG_SOME: u64 = 1 << 8;

/// `offset << 32 | len` arena reference, as the encoder packs strings.
fn sref(offset: u64, len: u64) -> u64 {
    offset << 32 | len
}

#[test]
fn golden_record_layout_is_pinned() {
    let mut sink = RingSink::new(TraceLevel::Request);
    let events: Vec<(u64, TraceEvent)> = vec![
        (
            1000,
            TraceEvent::RequestArrival {
                server: Some(3),
                set: 42,
                buffered: true,
            },
        ),
        (
            1001,
            TraceEvent::RequestArrival {
                server: None,
                set: 7,
                buffered: false,
            },
        ),
        (
            2000,
            TraceEvent::RequestDispatch {
                server: 1,
                set: 9,
                wait_us: 55,
            },
        ),
        (
            3000,
            TraceEvent::RequestComplete {
                server: 2,
                set: 10,
                latency_us: 77,
                depth: 4,
            },
        ),
        (
            3500,
            TraceEvent::QueueDepth {
                server: 5,
                depth: 6,
            },
        ),
        (4000, TraceEvent::EpochBegin { epoch: 12 }),
        (
            4500,
            TraceEvent::EpochEnd {
                epoch: 12,
                moves: 2,
                tune: None,
            },
        ),
        (
            5000,
            TraceEvent::MigrationStart {
                set: 8,
                from: Some(0),
                to: 1,
            },
        ),
        (
            5500,
            TraceEvent::MigrationFlush {
                set: 8,
                from: None,
                done_us: 6000,
            },
        ),
        (
            6000,
            TraceEvent::MigrationFinish {
                set: 8,
                to: 1,
                buffered: 3,
            },
        ),
        (
            6500,
            TraceEvent::Fault {
                server: 4,
                drained: 2,
            },
        ),
        (7000, TraceEvent::Recover { server: 4 }),
        (
            7500,
            TraceEvent::Slowdown {
                server: 2,
                factor: 1.5,
                until_us: 9000,
            },
        ),
        (8000, TraceEvent::DelegateFail { pause_ticks: 3 }),
        (
            8500,
            TraceEvent::ReportFault {
                server: 6,
                delayed: true,
            },
        ),
        (
            9000,
            TraceEvent::Warning {
                code: WarnCode::Stragglers,
                detail: "q".into(),
                count: 7,
            },
        ),
        (
            9500,
            TraceEvent::SpanBegin {
                id: 5,
                parent: None,
                label: "run".into(),
            },
        ),
        (9600, TraceEvent::SpanEnd { id: 5 }),
    ];
    for (t, ev) in &events {
        sink.record(SimTime(*t), ev);
    }
    assert_eq!(sink.len(), events.len());

    // Word-for-word golden: [tag|flags, t_us, a, b, c, d] per record.
    // Tags are TraceEvent declaration order (0..=16), pinned forever.
    let expected: Vec<[u64; 6]> = vec![
        [FLAG_SOME, 1000, 3, 42, 1, 0],
        [0, 1001, 0, 7, 0, 0],
        [1, 2000, 1, 9, 55, 0],
        [2, 3000, 2, 10, 77, 4],
        [3, 3500, 5, 6, 0, 0],
        [4, 4000, 12, 0, 0, 0],
        [5, 4500, 12, 2, 0, 0],
        [6 | FLAG_SOME, 5000, 8, 0, 1, 0],
        [7, 5500, 8, 0, 6000, 0],
        [8, 6000, 8, 1, 3, 0],
        [9, 6500, 4, 2, 0, 0],
        [10, 7000, 4, 0, 0, 0],
        [11, 7500, 2, 1.5f64.to_bits(), 9000, 0],
        [12, 8000, 3, 0, 0, 0],
        [13, 8500, 6, 1, 0, 0],
        [14, 9000, 1, sref(0, 1), 7, 0],
        [15, 9500, 5, 0, sref(1, 3), 0],
        [16, 9600, 5, 0, 0, 0],
    ];
    for (i, want) in expected.iter().enumerate() {
        let got = sink.record_words(i).expect("record exists");
        assert_eq!(&got, want, "record {i} ({:?})", events[i].1);
    }
    // The string arena packs payloads in emission order, no separators.
    // Warning codes are interned enum ids (word 2 above), not arena
    // strings — only the free-form detail and span label land here.
    assert_eq!(sink.text_bytes(), b"qrun");

    // And the decoded JSONL is pinned too — the flush format is part of
    // the contract, not just the binary words.
    let lines = sink.decode_lines();
    assert_eq!(
        lines[0],
        r#"{"t_us":1000,"ev":"arrival","server":3,"set":42,"buffered":true}"#
    );
    assert_eq!(
        lines[1],
        r#"{"t_us":1001,"ev":"arrival","server":null,"set":7,"buffered":false}"#
    );
    assert_eq!(
        lines[15],
        r#"{"t_us":9000,"ev":"warning","code":"stragglers","detail":"q","count":7}"#
    );
}

/// Deterministic SplitMix64 — the same generator the simulator's seed
/// derivation uses, reimplemented locally so this test depends only on
/// the trace crate.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn gen_string(state: &mut u64) -> String {
    // Exercise the arena and the JSON escaper: empty strings, quotes,
    // backslashes, newlines, multi-byte UTF-8.
    const POOL: &[&str] = &[
        "",
        "stragglers",
        "a \"quoted\" thing",
        "back\\slash",
        "line\nbreak",
        "µ-latency",
        "plain",
    ];
    POOL[(next(state) % POOL.len() as u64) as usize].to_string()
}

fn gen_opt_u32(state: &mut u64) -> Option<u32> {
    if next(state).is_multiple_of(3) {
        None
    } else {
        Some((next(state) % 64) as u32)
    }
}

fn gen_tune(state: &mut u64) -> Option<TuneEpoch> {
    if next(state).is_multiple_of(2) {
        return None;
    }
    let n = next(state) % 4;
    let decisions = (0..n)
        .map(|i| TuneDecision {
            server: anu_core::ServerId(i as u32),
            latency_ms: (next(state) % 1000) as f64 / 8.0,
            old_share: (next(state) % 100) as f64 / 100.0,
            new_share: (next(state) % 100) as f64 / 100.0,
            applied_share: (next(state) % 100) as f64 / 100.0,
            outcome: TuneOutcome::ALL[(next(state) % 6) as usize],
        })
        .collect();
    Some(TuneEpoch {
        mu_ms: (next(state) % 10_000) as f64 / 16.0,
        planned: next(state).is_multiple_of(2),
        decisions,
    })
}

fn gen_event(state: &mut u64) -> TraceEvent {
    match next(state) % 17 {
        0 => TraceEvent::RequestArrival {
            server: gen_opt_u32(state),
            set: next(state) % 10_000,
            buffered: next(state).is_multiple_of(2),
        },
        1 => TraceEvent::RequestDispatch {
            server: (next(state) % 64) as u32,
            set: next(state) % 10_000,
            wait_us: next(state) % 1_000_000,
        },
        2 => TraceEvent::RequestComplete {
            server: (next(state) % 64) as u32,
            set: next(state) % 10_000,
            latency_us: next(state) % 1_000_000,
            depth: next(state) % 100,
        },
        3 => TraceEvent::QueueDepth {
            server: (next(state) % 64) as u32,
            depth: next(state) % 100,
        },
        4 => TraceEvent::EpochBegin {
            epoch: next(state) % 1000,
        },
        5 => TraceEvent::EpochEnd {
            epoch: next(state) % 1000,
            moves: next(state) % 10,
            tune: gen_tune(state),
        },
        6 => TraceEvent::MigrationStart {
            set: next(state) % 10_000,
            from: gen_opt_u32(state),
            to: (next(state) % 64) as u32,
        },
        7 => TraceEvent::MigrationFlush {
            set: next(state) % 10_000,
            from: gen_opt_u32(state),
            done_us: next(state) % 1_000_000,
        },
        8 => TraceEvent::MigrationFinish {
            set: next(state) % 10_000,
            to: (next(state) % 64) as u32,
            buffered: next(state) % 50,
        },
        9 => TraceEvent::Fault {
            server: (next(state) % 64) as u32,
            drained: next(state) % 50,
        },
        10 => TraceEvent::Recover {
            server: (next(state) % 64) as u32,
        },
        11 => TraceEvent::Slowdown {
            server: (next(state) % 64) as u32,
            factor: 1.0 + (next(state) % 400) as f64 / 100.0,
            until_us: next(state) % 10_000_000,
        },
        12 => TraceEvent::DelegateFail {
            pause_ticks: (next(state) % 10) as u32,
        },
        13 => TraceEvent::ReportFault {
            server: (next(state) % 64) as u32,
            delayed: next(state).is_multiple_of(2),
        },
        14 => TraceEvent::Warning {
            code: WarnCode::ALL[(next(state) % WarnCode::ALL.len() as u64) as usize],
            detail: gen_string(state),
            count: next(state) % 1000,
        },
        15 => TraceEvent::SpanBegin {
            id: next(state) % 1000,
            parent: if next(state).is_multiple_of(2) {
                None
            } else {
                Some(next(state) % 1000)
            },
            label: gen_string(state),
        },
        _ => TraceEvent::SpanEnd {
            id: next(state) % 1000,
        },
    }
}

#[test]
fn ring_matches_jsonl_buffer_bytes_across_all_variants() {
    for seed in 0..8u64 {
        let mut state = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(seed);
        let mut ring = RingSink::new(TraceLevel::Request);
        let mut t = 0u64;
        let mut originals = Vec::new();
        for _ in 0..1200 {
            // Non-decreasing timestamps with occasional ties, like a run.
            t += next(&mut state) % 3;
            let ev = gen_event(&mut state);
            ring.record(SimTime(t), &ev);
            originals.push((SimTime(t), ev));
        }
        assert_eq!(ring.len(), originals.len());
        // Byte-identical flush output...
        let expected: Vec<String> = originals
            .iter()
            .filter(|(_, ev)| ev.level() <= TraceLevel::Request)
            .map(|(at, ev)| render_line(*at, ev))
            .collect();
        assert_eq!(
            ring.decode_lines(),
            expected,
            "seed {seed}: ring JSONL diverged from render_line"
        );
        // ...and value-identical reconstruction.
        assert_eq!(
            ring.decode_events(),
            originals,
            "seed {seed}: decoded events diverged"
        );
    }
}
