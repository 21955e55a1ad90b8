//! The perf ratchet: committed per-commit throughput history, hard-gated.
//!
//! `BENCH_history.jsonl` (committed at the workspace root) is an
//! append-only log of throughput baselines, one JSON object per line:
//!
//! ```text
//! {"schema": "anu-bench-history/v1", "commit": "4b7dad6", "scale1_events_per_sec": 11854120.0, ...}
//! ```
//!
//! `anu-xtask bench-ratchet` reads the freshly generated
//! `BENCH_figures.json` manifest (which must contain a `bench` section —
//! run `figures --scale-bench N` first), compares its scale-1 fig6
//! throughput against the *best* recorded history entry, and:
//!
//! - **fails** if the fresh number falls below [`BENCH_RATCHET_THRESHOLD`]
//!   of the best baseline — unlike the in-process `PERF-GATE` line this
//!   is a hard CI gate, because the comparison is against numbers
//!   recorded on the same class of machine and committed to the repo;
//! - **passes with a hint** when the fresh number beats the best —
//!   `--update` appends a new record to bank the improvement;
//! - **passes silently** otherwise.
//!
//! `--update` only ever appends: history lines are never rewritten or
//! deleted, so the full trajectory stays reviewable in git. Appending a
//! record that *regresses* is refused — raising the floor is automatic,
//! lowering it is a hand edit in a reviewed commit (same contract as the
//! lint ratchet in [`crate::ratchet`]).
//!
//! Both inputs (the manifest and the history lines) are read with the
//! workspace's own [`anu_core::Json`] parser.

use crate::json_str;
use anu_core::Json;

/// Hard-gate threshold: a fresh run below this fraction of the best
/// recorded baseline fails the ratchet. Mirrors the harness's soft
/// `PERF_GATE_THRESHOLD` (the two gates answer the same question against
/// different baselines; keep them in sync when retuning).
pub const BENCH_RATCHET_THRESHOLD: f64 = 0.8;

/// Schema tag every history line must carry.
pub const HISTORY_SCHEMA: &str = "anu-bench-history/v1";

/// One committed throughput baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Commit the numbers were recorded on (short hash, or "unknown").
    pub commit: String,
    /// Scale-1 fig6 events/sec — the gated number.
    pub scale1_events_per_sec: f64,
    /// Scale-N fig6 events/sec (context, not gated).
    pub scale_n_events_per_sec: Option<f64>,
    /// Trace overhead percentage at record time (context, not gated).
    pub overhead_pct: Option<f64>,
}

impl Record {
    /// Render as one history line (no trailing newline).
    pub fn render(&self) -> String {
        let mut line = format!(
            "{{\"schema\": {}, \"commit\": {}, \"scale1_events_per_sec\": {}}}",
            json_str(HISTORY_SCHEMA),
            json_str(&self.commit),
            fmt_f64(self.scale1_events_per_sec),
        );
        // Optional context fields slot in before the closing brace.
        let mut extras = String::new();
        if let Some(n) = self.scale_n_events_per_sec {
            extras.push_str(&format!(", \"scale_n_events_per_sec\": {}", fmt_f64(n)));
        }
        if let Some(p) = self.overhead_pct {
            extras.push_str(&format!(", \"overhead_pct\": {}", fmt_f64(p)));
        }
        if !extras.is_empty() {
            line.insert_str(line.len() - 1, &extras);
        }
        line
    }
}

/// Format a float so it round-trips through the reader (always with a
/// decimal point or exponent, never as a bare integer JSON would coerce).
fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Parse the whole history file. Blank lines are ignored; every other
/// line must be a valid v1 record (a corrupted history should stop the
/// gate, not silently shrink it).
pub fn parse_history(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("history line {}: {e}", idx + 1))?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .map_err(|_| format!("history line {}: missing `schema`", idx + 1))?;
        if schema != HISTORY_SCHEMA {
            return Err(format!(
                "history line {}: unsupported schema `{schema}` (want `{HISTORY_SCHEMA}`)",
                idx + 1
            ));
        }
        let commit = v
            .get("commit")
            .and_then(Json::as_str)
            .map_err(|_| format!("history line {}: missing `commit`", idx + 1))?
            .to_string();
        let scale1 = optional_f64(&v, "scale1_events_per_sec")
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| {
                format!(
                    "history line {}: missing or non-positive `scale1_events_per_sec`",
                    idx + 1
                )
            })?;
        records.push(Record {
            commit,
            scale1_events_per_sec: scale1,
            scale_n_events_per_sec: optional_f64(&v, "scale_n_events_per_sec"),
            overhead_pct: optional_f64(&v, "overhead_pct"),
        });
    }
    Ok(records)
}

/// The number under `key`, if `v` is an object holding one there.
fn optional_f64(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64).ok()
}

/// The bench numbers `bench-ratchet` needs from `BENCH_figures.json`.
#[derive(Clone, Copy, Debug)]
pub struct BenchPoint {
    /// `bench.scale1_events_per_sec` — the gated number.
    pub scale1_events_per_sec: f64,
    /// `bench.scale_n_events_per_sec` (recorded as context on `--update`).
    pub scale_n_events_per_sec: Option<f64>,
    /// `trace_overhead.overhead_pct` when the manifest has one.
    pub overhead_pct: Option<f64>,
}

/// Pull the gated numbers out of a figures manifest. Fails when the
/// manifest has no `bench` section — the gate needs `--scale-bench` to
/// have run, and a silent pass on a probe-less manifest would defeat it.
pub fn extract_manifest(text: &str) -> Result<BenchPoint, String> {
    let v = Json::parse(text).map_err(|e| format!("manifest: {e}"))?;
    let bench = v.get("bench").map_err(|_| "manifest has no `bench` key")?;
    if bench.is_null() {
        return Err(
            "manifest `bench` section is null — regenerate with `figures --scale-bench N`"
                .to_string(),
        );
    }
    let scale1 = optional_f64(bench, "scale1_events_per_sec")
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("manifest bench has no positive `scale1_events_per_sec`")?;
    Ok(BenchPoint {
        scale1_events_per_sec: scale1,
        scale_n_events_per_sec: optional_f64(bench, "scale_n_events_per_sec"),
        overhead_pct: v
            .get("trace_overhead")
            .ok()
            .and_then(|t| optional_f64(t, "overhead_pct")),
    })
}

/// Outcome of gating a fresh bench point against the history.
#[derive(Clone, Debug)]
pub struct BenchComparison {
    /// Best recorded scale-1 throughput.
    pub best: f64,
    /// Commit that recorded it.
    pub best_commit: String,
    /// The fresh run's scale-1 throughput.
    pub current: f64,
    /// `current / best`.
    pub ratio: f64,
}

impl BenchComparison {
    /// Does the fresh run hold the ratchet?
    pub fn ok(&self) -> bool {
        self.ratio >= BENCH_RATCHET_THRESHOLD
    }

    /// Did the fresh run beat the best baseline (bankable via `--update`)?
    pub fn improved(&self) -> bool {
        self.current > self.best
    }

    /// One-line verdict for logs and the CI report artifact.
    pub fn verdict_line(&self) -> String {
        format!(
            "BENCH-RATCHET {}: scale-1 {:.0} ev/s = {:.2}x best recorded {:.0} ev/s (commit {}, hard threshold {:.2}x)",
            if self.ok() { "OK" } else { "FAIL" },
            self.current,
            self.ratio,
            self.best,
            self.best_commit,
            BENCH_RATCHET_THRESHOLD,
        )
    }
}

/// Gate `current` against the best history entry. An empty history is an
/// error — bootstrap with `--update` first.
pub fn compare(history: &[Record], current: f64) -> Result<BenchComparison, String> {
    let best = history
        .iter()
        .max_by(|a, b| a.scale1_events_per_sec.total_cmp(&b.scale1_events_per_sec))
        .ok_or("history is empty — run `anu-xtask bench-ratchet --update` to bootstrap")?;
    Ok(BenchComparison {
        best: best.scale1_events_per_sec,
        best_commit: best.commit.clone(),
        current,
        ratio: current / best.scale1_events_per_sec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(commit: &str, scale1: f64) -> Record {
        Record {
            commit: commit.to_string(),
            scale1_events_per_sec: scale1,
            scale_n_events_per_sec: None,
            overhead_pct: None,
        }
    }

    #[test]
    fn record_render_parse_round_trip() {
        let full = Record {
            commit: "abc123".to_string(),
            scale1_events_per_sec: 12_345_678.5,
            scale_n_events_per_sec: Some(2.5e7),
            overhead_pct: Some(42.25),
        };
        let text = format!("{}\n\n{}\n", full.render(), rec("def", 1.0e6).render());
        let parsed = parse_history(&text).expect("round trip");
        assert_eq!(parsed, vec![full, rec("def", 1.0e6)]);
    }

    #[test]
    fn history_rejects_bad_lines() {
        assert!(parse_history("not json\n").is_err());
        assert!(parse_history(
            "{\"schema\": \"other/v9\", \"commit\": \"x\", \"scale1_events_per_sec\": 1.0}"
        )
        .is_err());
        assert!(
            parse_history("{\"schema\": \"anu-bench-history/v1\", \"commit\": \"x\"}").is_err()
        );
        assert!(parse_history(
            "{\"schema\": \"anu-bench-history/v1\", \"commit\": \"x\", \"scale1_events_per_sec\": 0.0}"
        )
        .is_err());
    }

    #[test]
    fn compare_gates_at_threshold_of_best() {
        let history = vec![rec("old", 1.0e7), rec("best", 2.0e7), rec("mid", 1.5e7)];
        let pass = compare(&history, 1.7e7).expect("nonempty");
        assert!(pass.ok());
        assert!(!pass.improved());
        assert_eq!(pass.best_commit, "best");
        assert!(pass.verdict_line().starts_with("BENCH-RATCHET OK"));
        let fail = compare(&history, 1.5e7).expect("nonempty");
        assert!(!fail.ok(), "0.75x of best must fail");
        assert!(fail.verdict_line().starts_with("BENCH-RATCHET FAIL"));
        let better = compare(&history, 2.5e7).expect("nonempty");
        assert!(better.ok() && better.improved());
        assert!(compare(&[], 1.0e7).is_err(), "empty history cannot gate");
    }

    #[test]
    fn extract_manifest_reads_bench_and_overhead() {
        let manifest = r#"{
            "schema": "anu-bench-figures/v5",
            "trace_overhead": {"off_events_per_sec": 1e6, "on_events_per_sec": 9e5, "overhead_pct": 10.0},
            "bench": {
                "scale1_events_per_sec": 12000000.0,
                "scale_n_events_per_sec": 15000000.0
            }
        }"#;
        let p = extract_manifest(manifest).expect("valid manifest");
        assert!((p.scale1_events_per_sec - 1.2e7).abs() < 1.0);
        assert_eq!(p.scale_n_events_per_sec, Some(1.5e7));
        assert_eq!(p.overhead_pct, Some(10.0));
    }

    #[test]
    fn extract_manifest_requires_a_bench_section() {
        assert!(extract_manifest(r#"{"bench": null}"#).is_err());
        assert!(extract_manifest(r#"{"schema": "x"}"#).is_err());
        assert!(extract_manifest("nope").is_err());
    }

    #[test]
    fn json_reader_handles_the_manifest_shapes() {
        // Exponent numbers, an escaped string, and trailing data or a
        // missing colon rejected.
        let p = extract_manifest(
            r#"{"bench": {"scale1_events_per_sec": 1.2e7, "note": "x\"y", "ok": true, "d": null}}"#,
        )
        .expect("parses");
        assert_eq!(p.scale1_events_per_sec, 1.2e7);
        assert_eq!(p.scale_n_events_per_sec, None);
        assert_eq!(p.overhead_pct, None);
        assert!(extract_manifest(r#"{"bench": {"scale1_events_per_sec": 1.0}} junk"#).is_err());
        assert!(extract_manifest(r#"{"bench" {"scale1_events_per_sec": 1.0}}"#).is_err());
    }

    #[test]
    fn non_ascii_commit_round_trips() {
        let r = rec("zürich-β→𝄞", 1.0e7);
        let parsed = parse_history(&r.render()).expect("round trip");
        assert_eq!(parsed, vec![r]);
    }
}
