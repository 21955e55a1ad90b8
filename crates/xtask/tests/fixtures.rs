//! Integration tests for `anu-xtask` against the fixture trees: the
//! single-file trees under `tests/fixtures/` (exact findings, waiver
//! honoring, the JSON report shape) and the lexer and cross-file trees
//! under `fixtures/trees/` (raw-string false positives stay fixed; import
//! aliases, shared RNG streams and tick arithmetic are caught).

use anu_xtask::{scan_workspace, Lint, Report};
use std::path::PathBuf;

fn scan_fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    scan_workspace(&root).expect("fixture tree readable")
}

fn scan_tree(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/trees")
        .join(name);
    scan_workspace(&root).expect("fixture tree readable")
}

fn count(report: &Report, lint: Lint) -> usize {
    report.violations.iter().filter(|v| v.lint == lint).count()
}

#[test]
fn violations_fixture_exact_counts() {
    let r = scan_fixture("violations");
    assert_eq!(r.files_scanned, 3);
    assert_eq!(count(&r, Lint::WallClock), 1);
    assert_eq!(count(&r, Lint::ThreadRng), 1);
    assert_eq!(count(&r, Lint::HashIteration), 1);
    // One bare unwrap, plus one whose waiver lacks a justification.
    assert_eq!(count(&r, Lint::Panic), 2);
    // `undocumented`, plus `mangled_doc` (its doc line degraded to code).
    assert_eq!(count(&r, Lint::MissingDocs), 2);
    assert_eq!(count(&r, Lint::AsCast), 1);
    assert_eq!(count(&r, Lint::FloatCmp), 1);
    // The `/ so the doc-slash lint…` line beside a `///`; the division
    // continuation in `ratio` must NOT count.
    assert_eq!(count(&r, Lint::DocSlash), 1);
    // The justification-less waiver and the unknown-lint waiver.
    assert_eq!(count(&r, Lint::Waiver), 2);
    assert_eq!(r.violations.len(), 12);
    assert_eq!(r.waived, 0);
    assert!(!r.clean());
}

#[test]
fn violations_fixture_locations() {
    // Every finding, in report order, as `file:line: [lint] message`.
    let r = scan_fixture("violations");
    let got: Vec<String> = r.violations.iter().map(ToString::to_string).collect();
    assert_eq!(
        got,
        [
            "crates/core/src/interval.rs:5: [as-cast] bare `as` cast in fixed-point arithmetic; use the checked num helpers",
            "crates/core/src/interval.rs:6: [float-cmp] float equality in fixed-point arithmetic; compare exact fixed-point units",
            "crates/core/src/lib.rs:6: [wall-clock] `Instant::now` reads the wall clock; simulations must be a pure function of seed and input",
            "crates/core/src/lib.rs:11: [thread-rng] `thread_rng` draws ambient entropy; use a seeded RngStream",
            "crates/core/src/lib.rs:16: [hash-iteration] `HashMap` has nondeterministic iteration order; use BTreeMap/BTreeSet",
            "crates/core/src/lib.rs:21: [panic] `.unwrap()` in library code; return Result or restructure",
            "crates/core/src/lib.rs:24: [missing-docs] public item `undocumented` has no doc comment",
            "crates/core/src/lib.rs:28: [waiver] waiver needs a justification: `-- <reason>`",
            "crates/core/src/lib.rs:29: [panic] `.unwrap()` in library code; return Result or restructure",
            "crates/core/src/lib.rs:34: [waiver] unknown lint `nonsense` in waiver",
            "crates/core/src/lib.rs:38: [doc-slash] line starts with a single `/` beside a doc comment; a `///` doc line lost its slashes",
            "crates/core/src/lib.rs:39: [missing-docs] public item `mangled_doc` has no doc comment",
        ]
    );
}

#[test]
fn binary_entry_points_are_exempt_from_panic_policy() {
    let r = scan_fixture("violations");
    assert!(
        !r.violations.iter().any(|v| v.file == "src/main.rs"),
        "src/main.rs must be exempt, got: {:?}",
        r.violations
    );
}

#[test]
fn waived_fixture_suppresses_everything() {
    let r = scan_fixture("waived");
    assert!(r.clean(), "unexpected violations: {:?}", r.violations);
    // wall-clock + same-line hash-iteration + (thread-rng, panic) pair.
    assert_eq!(r.waived, 4);
    assert_eq!(r.files_scanned, 1);
    let cov = &r.doc_coverage["anu-core"];
    assert_eq!((cov.documented, cov.total), (3, 3));
}

#[test]
fn clean_fixture_is_clean() {
    let r = scan_fixture("clean");
    assert!(r.clean());
    assert_eq!(r.waived, 0);
    assert_eq!(r.files_scanned, 1);
    let cov = &r.doc_coverage["anu"];
    assert_eq!((cov.documented, cov.total), (1, 1));
}

#[test]
fn json_report_shape() {
    let r = scan_fixture("violations");
    let json = r.render_json();
    // Top-level keys, in a stable order.
    for key in [
        "\"ok\": false",
        "\"files_scanned\": 3",
        "\"waived\": 0",
        "\"violations\": [",
        "\"doc_coverage\": {",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    // Every violation entry carries the four fields.
    assert_eq!(json.matches("\"lint\": ").count(), 12);
    assert_eq!(json.matches("\"file\": ").count(), 12);
    assert_eq!(json.matches("\"line\": ").count(), 12);
    assert_eq!(json.matches("\"message\": ").count(), 12);
    assert!(json.contains("\"lint\": \"wall-clock\""));
    assert!(json.contains("\"lint\": \"doc-slash\""));
    assert!(json.contains("\"anu-core\": {\"documented\": 8, \"total\": 10"));
    // Balanced braces/brackets (the report is hand-rendered, not serde).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // A clean report says so.
    let clean = scan_fixture("clean").render_json();
    assert!(clean.contains("\"ok\": true"));
    assert!(clean.contains("\"violations\": [],"));
}

#[test]
fn fp_fixes_tree_is_clean() {
    // Prose and a `pub fn` inside `br#"…"#`, and a `}` inside a raw
    // string in a cfg(test) region: the lexer sees each literal as one
    // token, so nothing leaks into the code view.
    let r = scan_tree("fp_fixes");
    assert!(
        r.clean(),
        "token scanner false positives: {:?}",
        r.violations
    );
    let core = &r.doc_coverage["anu-core"];
    assert_eq!((core.documented, core.total), (1, 1));
    let des = &r.doc_coverage["anu-des"];
    assert_eq!((des.documented, des.total), (1, 1));
}

#[test]
fn import_alias_tree_findings() {
    let r = scan_tree("import_alias");
    let got: Vec<(usize, Lint)> = r.violations.iter().map(|v| (v.line, v.lint)).collect();
    assert_eq!(
        got,
        [(7, Lint::ImportGraph), (9, Lint::ImportGraph)],
        "findings: {:?}",
        r.violations
    );
    assert!(r.violations[1].message.contains("Clock"), "alias named");
}

#[test]
fn rng_shared_tree_findings() {
    let r = scan_tree("rng_shared");
    let got: Vec<Lint> = r.violations.iter().map(|v| v.lint).collect();
    assert_eq!(
        got,
        [Lint::RngDiscipline, Lint::RngDiscipline],
        "findings: {:?}",
        r.violations
    );
    // One constant-seed construction, one stream shared across a scope.
    assert!(r.violations.iter().any(|v| v.message.contains("seed")));
    assert!(r.violations.iter().any(|v| v.message.contains("scope")));
}

#[test]
fn tick_arith_tree_findings() {
    let r = scan_tree("tick_arith");
    let got: Vec<(usize, Lint)> = r.violations.iter().map(|v| (v.line, v.lint)).collect();
    assert_eq!(
        got,
        [(5, Lint::TickArith), (10, Lint::TickArith)],
        "findings: {:?}",
        r.violations
    );
}
