//! Golden regression pins for the `figures` outputs.
//!
//! The committed `BENCH_figures.json` is the one hash list: its
//! `outputs[]` pins the length and FNV-1a hash of every file the CI
//! figures run writes, and `ci/check.sh` fails when a run changes it.
//! These tests regenerate the Figure 6 grid, the chaos sweep and the
//! mean-field sweep through the same sweep API and writers as the
//! `figures` binary, and require every file they write to match its pin
//! — so a behavioural change shows up in `cargo test`, long before the
//! full figures gate runs — and to match its copy under `out/` when the
//! checkout has one (the four committed summary tables, or a local run).
//!
//! A mismatch means simulator behaviour changed at the default seed. If
//! the change is intentional, regenerate the manifest and `out/` with
//! [`REGENERATE`] and commit both.

use anu_core::{Json, ToJson};
use anu_harness::{
    chaos_sweep, figures_sweep, meanfield_sweep, Output, Sweep, CHAOS_LEVELS, DEFAULT_SEED,
};
use anu_trace::TraceLevel;

/// The `ci/check.sh` figures step, which writes the committed manifest.
const REGENERATE: &str = "cargo build --release && ./target/release/figures --chaos --storm \
     --meanfield --out out --bench-out BENCH_figures.json --trace-out out/trace \
     --trace-level epoch";

/// The committed manifest's `outputs[]` pins.
fn pins() -> Vec<Json> {
    let text = std::fs::read_to_string("BENCH_figures.json").expect("read BENCH_figures.json");
    let manifest = Json::parse(&text).expect("BENCH_figures.json parses");
    let outputs = manifest.get("outputs").and_then(Json::as_arr);
    outputs.map_or_else(|_| Vec::new(), <[Json]>::to_vec)
}

/// Run `sweep` the way the `figures` binary does — epoch traces, per-run
/// CSVs, then `finish` — into a temporary directory, check every file
/// written against its pin, and return their names.
fn check_sweep(sweep: &Sweep, tag: &str) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("anu_golden_{tag}_{}", std::process::id()));
    // Worker count never changes the bytes (the determinism gate proves
    // it on every run); use the auto pool to keep the debug-mode test
    // tolerable.
    let (outcomes, grouped) = sweep.run(0, TraceLevel::Epoch);
    let mut written = sweep
        .write_run_files(&outcomes, &grouped, &dir, Some(&dir))
        .expect("write per-run files");
    let finished = sweep.finish(&grouped, &dir).expect("finish sweep");
    written.extend(finished.files);

    let pins = pins();
    let mut names = Vec::new();
    for path in &written {
        let got = Output::read(path).expect("read back regenerated file");
        let pin = pins
            .iter()
            .find(|p| p.get("file").and_then(Json::as_str) == Ok(&got.file));
        assert_eq!(
            pin,
            Some(&got.to_json()),
            "{}: regenerated bytes differ from the BENCH_figures.json pin; if the change is \
             intended, regenerate with: {REGENERATE}",
            got.file
        );
        if let Ok(committed) = std::fs::read(std::path::Path::new("out").join(&got.file)) {
            assert!(
                committed == std::fs::read(path).expect("read regenerated file"),
                "out/{} differs from the regenerated bytes; regenerate with: {REGENERATE}",
                got.file
            );
        }
        names.push(got.file);
    }
    let _ = std::fs::remove_dir_all(&dir);
    names
}

#[test]
fn fig6_csvs_match_golden_at_default_seed() {
    let names = check_sweep(&figures_sweep(&[6], &[DEFAULT_SEED]).expect("fig6"), "fig6");
    // Four series CSVs and traces, the tuner epochs and the metrics.
    assert_eq!(names.len(), 10, "unexpected artifact count: {names:?}");
    assert!(names.contains(&"fig6_tuner_epochs.csv".to_string()));
}

#[test]
fn chaos_summary_matches_golden_at_default_seed() {
    let names = check_sweep(&chaos_sweep(&CHAOS_LEVELS, DEFAULT_SEED), "chaos");
    // Per cell: four series CSVs and traces, tuner epochs and metrics;
    // then the summary.
    assert_eq!(names.len(), CHAOS_LEVELS.len() * 10 + 1);
    assert_eq!(names.last().map(String::as_str), Some("chaos_summary.csv"));
}

#[test]
fn meanfield_csvs_match_golden_at_default_seed() {
    let names = check_sweep(&meanfield_sweep(DEFAULT_SEED), "meanfield");
    assert_eq!(
        names,
        ["meanfield_cells.csv", "meanfield_convergence.csv"],
        "the meanfield sweep writes its two summaries and no per-run files"
    );
}
