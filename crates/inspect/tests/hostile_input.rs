//! Hostile trace input never panics the analyzer.
//!
//! `anu-inspect` reads traces from disk, so every byte it parses comes
//! from outside the process. This test records a real request-level
//! trace (a reduced fig6 run under ANU), cuts short windows out of its
//! JSONL rendering, and mutates them with a seeded generator: truncation
//! at a random byte, single bit flips, and splices of two lines. Bytes
//! that stop being UTF-8 go through `String::from_utf8_lossy`, as a
//! reader of an arbitrary file would. Two deeply nested lines probe the
//! JSON parser's recursion. Every mutant goes through `parse_jsonl`, and
//! every one that parses goes through `analyze` and the text report;
//! each must return, `Ok` or `Err`, without panicking.

use anu_des::RngStream;
use anu_inspect::{analyze, parse_jsonl};
use anu_trace::{RingSink, TraceLevel};
use std::panic;

/// Lines per window cut from the trace.
const WINDOW: usize = 8;
/// Windows per mutation kind.
const WINDOWS: usize = 120;

/// Parse `text` and, when it parses, analyze and report it. Returns
/// whether it parsed.
fn feed(text: &str) -> bool {
    match parse_jsonl(text) {
        Ok(events) => {
            let analysis = analyze(&events);
            let _ = analysis.report(3);
            true
        }
        Err(_) => false,
    }
}

fn recorded_lines() -> Vec<String> {
    let exp = anu_harness::reduced(
        anu_harness::fig6(anu_harness::DEFAULT_SEED),
        anu_harness::DEFAULT_SEED,
    );
    let (_, kind) = exp
        .policies
        .iter()
        .find(|(label, _)| label.starts_with("anu"))
        .expect("fig6 runs ANU");
    let mut policy = kind.build(&exp.cluster, &exp.workload, exp.seed);
    let mut ring = RingSink::new(TraceLevel::Request);
    anu_cluster::run_traced(&exp.cluster, &exp.workload, policy.as_mut(), &mut ring);
    ring.decode_lines()
}

/// `WINDOW` consecutive lines starting at `start`, newline-terminated.
fn window(lines: &[String], start: usize) -> String {
    lines[start..(start + WINDOW).min(lines.len())]
        .iter()
        .map(|l| l.clone() + "\n")
        .collect()
}

#[test]
fn mutated_traces_never_panic() {
    let lines = recorded_lines();
    assert!(lines.len() > WINDOW, "trace too short: {}", lines.len());
    // Half the windows start at a per-epoch line (tuner records,
    // migrations, spans), which a uniform pick over a request-level
    // trace would rarely hit.
    let epoch_starts: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].contains(r#""ev":"arrival""#))
        .filter(|&i| !lines[i].contains(r#""ev":"dispatch""#))
        .filter(|&i| !lines[i].contains(r#""ev":"complete""#))
        .collect();
    assert!(!epoch_starts.is_empty(), "trace has no epoch-level lines");

    let mut rng = RngStream::new(0x5eed, "hostile-input");
    let mut mutants: Vec<(String, String)> = Vec::new();
    for w in 0..WINDOWS {
        let start = if w % 2 == 0 {
            rng.index(lines.len())
        } else {
            epoch_starts[rng.index(epoch_starts.len())]
        };
        let text = window(&lines, start);
        assert!(feed(&text), "unmutated window at line {start} must parse");
        let bytes = text.as_bytes();

        let cut = rng.index(bytes.len());
        mutants.push((
            format!("truncate window@{start} at byte {cut}"),
            String::from_utf8_lossy(&bytes[..cut]).into_owned(),
        ));

        let mut flipped = bytes.to_vec();
        let at = rng.index(flipped.len());
        let bit = rng.index(8);
        flipped[at] ^= 1 << bit;
        mutants.push((
            format!("flip window@{start} byte {at} bit {bit}"),
            String::from_utf8_lossy(&flipped).into_owned(),
        ));

        let a = &lines[start + rng.index(WINDOW.min(lines.len() - start))];
        let b = &lines[rng.index(lines.len())];
        let (i, j) = (rng.index(a.len() + 1), rng.index(b.len() + 1));
        let spliced = [&a.as_bytes()[..i], &b.as_bytes()[j..]].concat();
        mutants.push((
            format!("splice window@{start} a[..{i}] + b[{j}..]"),
            String::from_utf8_lossy(&spliced).into_owned() + "\n" + &text,
        ));
    }
    let deep = 100_000;
    mutants.push((
        format!("line wrapped in {deep} brackets"),
        "[".repeat(deep) + &lines[0] + &"]".repeat(deep),
    ));
    mutants.push((
        format!("event field opening {deep} arrays"),
        r#"{"t_us":1,"ev":"arrival","x":"#.to_string() + &"[".repeat(deep),
    ));

    let mut parsed = 0;
    let mut panicked = Vec::new();
    for (name, text) in &mutants {
        match panic::catch_unwind(|| feed(text)) {
            Ok(ok) => parsed += usize::from(ok),
            Err(_) => panicked.push(name.as_str()),
        }
    }
    assert!(panicked.is_empty(), "mutants panicked: {panicked:#?}");
    // Some mutants stay well-formed (a flipped digit, a cut at a line
    // end), so `analyze` sees altered but parseable streams too.
    assert!(parsed > 0, "no mutant parsed; analyze was never reached");
}
