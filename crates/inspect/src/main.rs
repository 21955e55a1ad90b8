//! `anu-inspect` — offline analysis of recorded simulation traces.
//!
//! ```text
//! anu-inspect [--top K] [--check] TRACE...
//! ```
//!
//! Each `TRACE` is a JSONL trace (the `*.jsonl` files `figures
//! --trace-out` writes). For each file the tool reconstructs per-request
//! spans, attributes latency to queue / service / requeue-after-fault /
//! rebalance-stall, and prints the decision timeline and the `K` slowest
//! requests (default 10).
//!
//! `--check` exits non-zero if any trace fails integrity (orphaned
//! dispatches or completes, unmatched span markers, or attribution that
//! does not telescope to the recorded end-to-end latency) — the mode the
//! CI smoke test runs in.

use anu_inspect::{analyze, parse_jsonl, Analysis};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: anu-inspect [--top K] [--check] TRACE...");
    eprintln!("  TRACE    JSONL trace file");
    eprintln!("  --top K  show the K slowest requests (default 10)");
    eprintln!("  --check  exit 1 if any trace fails integrity checks");
    ExitCode::from(2)
}

fn load(path: &Path) -> Result<Analysis, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    Ok(analyze(&parse_jsonl(&text)?))
}

fn main() -> ExitCode {
    let mut top_k = 10usize;
    let mut check = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let Some(k) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                top_k = k;
            }
            "--check" => check = true,
            "--help" | "-h" => return usage(),
            _ if arg.starts_with('-') => return usage(),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return usage();
    }

    let mut violated = false;
    let mut errored = false;
    for file in &files {
        if files.len() > 1 {
            println!("== {file} ==");
        }
        match load(Path::new(file)) {
            Ok(analysis) => {
                print!("{}", analysis.report(top_k));
                if !analysis.integrity.clean() {
                    violated = true;
                }
            }
            Err(e) => {
                eprintln!("anu-inspect: {file}: {e}");
                errored = true;
            }
        }
    }
    if errored || (check && violated) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
