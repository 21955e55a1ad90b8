//! The gate runner, and the tests of the library rules.
//!
//! [`rejects`] checks this crate with one case's feature on, under the
//! library lint flags `ci/check.sh` defines (read from the script, so the
//! two cannot drift) and the sim-path `clippy.toml` this crate links. Runs
//! go to their own target directory, `target/lint-cases`, and each feature
//! is checked once per test process however many tests ask for it.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the runner reads the workspace and starts cargo, which no simulation code may do"
)]

use std::collections::BTreeMap;
use std::env;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long one clippy run may take before the test fails.
const RUN_LIMIT: Duration = Duration::from_secs(300);

/// The workspace root.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A workspace file, by its path from the root.
pub(crate) fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Whether a workspace path exists.
pub(crate) fn exists(rel: &str) -> bool {
    root().join(rel).exists()
}

/// The directories under `crates/`, sorted.
pub(crate) fn crate_dirs() -> Vec<String> {
    let mut dirs: Vec<String> = fs::read_dir(root().join("crates"))
        .expect("crates/ lists")
        .map(|entry| {
            entry
                .expect("crates/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    dirs.sort();
    dirs
}

/// The Rust files under the workspace directory `dir`, as sorted paths
/// from the workspace root.
fn rust_files(dir: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut pending = vec![dir.to_owned()];
    while let Some(dir) = pending.pop() {
        for entry in fs::read_dir(root().join(&dir)).expect("source directory lists") {
            let entry = entry.expect("source directory entry");
            let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
            if entry.file_type().expect("file type").is_dir() {
                pending.push(rel);
            } else if rel.ends_with(".rs") {
                found.push(rel);
            }
        }
    }
    found.sort();
    found
}

/// The Rust files under `crates/*/src` whose text contains `needle`, as
/// sorted paths from the workspace root.
pub(crate) fn rust_files_containing(needle: &str) -> Vec<String> {
    crate_dirs()
        .iter()
        .flat_map(|dir| rust_files(&format!("crates/{dir}/src")))
        .filter(|file| read(file).contains(needle))
        .collect()
}

/// The flags of `ci/check.sh`'s library lint step.
fn lib_lints() -> Vec<String> {
    let script = read("ci/check.sh");
    let (_, rest) = script
        .split_once("LIB_LINTS=(")
        .expect("ci/check.sh defines LIB_LINTS");
    let (flags, _) = rest.split_once(')').expect("LIB_LINTS is closed");
    flags.split_whitespace().map(str::to_owned).collect()
}

/// One clippy run over this crate: whether it passed, and what it printed.
#[derive(Clone)]
struct Run {
    passed: bool,
    output: String,
}

/// Runs already made in this process, by feature.
static RUNS: Mutex<BTreeMap<String, Run>> = Mutex::new(BTreeMap::new());

/// Checks this crate with `feature` on (none if empty), once per process.
fn clippy(feature: &str) -> Run {
    // A run goes into the map only once it is complete, so a test that
    // panicked while holding the lock left the map whole.
    let mut runs = RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(run) = runs.get(feature) {
        return run.clone();
    }
    // Beside the test binary in `target/<profile>/deps/`.
    let exe = env::current_exe().expect("test binary path");
    let target = exe
        .ancestors()
        .nth(3)
        .expect("target directory")
        .join("lint-cases");
    fs::create_dir_all(&target).expect("lint case target directory");
    let log = target.join(format!(
        "{}.log",
        if feature.is_empty() { "none" } else { feature }
    ));
    let mut command = Command::new(env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    command
        .current_dir(root())
        .args(["clippy", "--quiet", "--offline", "--color", "never"])
        .args(["--package", "anu-lint-cases", "--lib", "--target-dir"])
        .arg(&target);
    if !feature.is_empty() {
        command.args(["--features", feature]);
    }
    command.arg("--").args(lib_lints());
    // To a file, not a pipe, so a long report cannot stall the child while
    // it is polled below.
    command
        .stdout(Stdio::null())
        .stderr(File::create(&log).expect("lint case log"));
    let mut child = command.spawn().expect("cargo clippy starts");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("cargo clippy runs") {
            break status;
        }
        if started.elapsed() > RUN_LIMIT {
            // Best effort: the test fails either way.
            let _killed = child.kill();
            let _reaped = child.wait();
            panic!("cargo clippy --features {feature:?} ran past {RUN_LIMIT:?}");
        }
        thread::sleep(Duration::from_millis(20));
    };
    let run = Run {
        passed: status.success(),
        output: fs::read_to_string(&log).expect("lint case log reads"),
    };
    runs.insert(feature.to_owned(), run.clone());
    run
}

/// A case the gate rejected: its source, and what the gate printed.
pub(crate) struct Gate {
    file: String,
    source: String,
    output: String,
}

/// Checks one case alone and requires the gate to reject it with the text
/// on the case's `Fails with:` line. `case` is the case file's path under
/// `src/` without `.rs`; its file name is its feature.
pub(crate) fn rejects(case: &str) -> Gate {
    let file = format!("ci/lint-cases/src/{case}.rs");
    let source = read(&file);
    let want = source
        .lines()
        .find_map(|line| {
            line.split_once("Fails with: ")
                .map(|(_, want)| want.to_owned())
        })
        .unwrap_or_else(|| panic!("{file} has no `Fails with:` line"));
    let feature = case.rsplit('/').next().unwrap_or(case);
    let run = clippy(feature);
    assert!(
        !run.passed,
        "lint case {case} passed the gate; it must fail:\n{}",
        run.output
    );
    assert!(
        run.output.contains(&want),
        "lint case {case} failed without {want:?}:\n{}",
        run.output
    );
    Gate {
        file,
        source,
        output: run.output,
    }
}

impl Gate {
    /// The one line of the case that starts, after indentation, with
    /// `snippet`.
    fn line_of(&self, snippet: &str) -> usize {
        let lines: Vec<usize> = (1..)
            .zip(self.source.lines())
            .filter(|(_, line)| line.trim_start().starts_with(snippet))
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            lines.len(),
            1,
            "{}: {snippet:?} must start one line",
            self.file
        );
        lines[0]
    }

    /// Whether a diagnostic points at `line` of the case.
    fn points_at(&self, line: usize) -> bool {
        let at = format!("{}:{line}:", self.file);
        self.output.lines().any(|l| {
            l.trim_start()
                .strip_prefix("--> ")
                .is_some_and(|span| span.starts_with(&at))
        })
    }

    /// Requires the gate's report to contain `text`.
    pub(crate) fn says(&self, text: &str) -> &Self {
        assert!(
            self.output.contains(text),
            "{}: no {text:?} in:\n{}",
            self.file,
            self.output
        );
        self
    }

    /// Requires a diagnostic at the line starting with `snippet`.
    pub(crate) fn flags(&self, snippet: &str) -> &Self {
        let line = self.line_of(snippet);
        assert!(
            self.points_at(line),
            "{}:{line} ({snippet:?}) is not flagged:\n{}",
            self.file,
            self.output
        );
        self
    }

    /// Requires no diagnostic at the line starting with `snippet`: the gate
    /// accepts that near miss while it rejects the case beside it.
    pub(crate) fn accepts(&self, snippet: &str) -> &Self {
        let line = self.line_of(snippet);
        assert!(
            !self.points_at(line),
            "{}:{line} ({snippet:?}) is flagged:\n{}",
            self.file,
            self.output
        );
        self
    }
}

/// The four files that hold ANU's fixed-point arithmetic.
const FIXED_POINT_FILES: [&str; 4] = [
    "crates/core/src/interval.rs",
    "crates/core/src/partition.rs",
    "crates/core/src/placement.rs",
    "crates/core/src/shares.rs",
];

#[test]
fn no_case_passes_the_gate() {
    let run = clippy("");
    assert!(run.passed && !run.output.contains("-->"), "{}", run.output);
}

#[test]
fn every_feature_is_a_case_the_gate_rejects() {
    // A case file opens with its `Fails with:` line, and its file name is
    // its feature.
    let cases: Vec<String> = rust_files("ci/lint-cases/src")
        .iter()
        .filter(|file| {
            read(file)
                .lines()
                .next()
                .is_some_and(|l| l.contains("Fails with: "))
        })
        .map(|file| file["ci/lint-cases/src/".len()..file.len() - ".rs".len()].to_owned())
        .collect();
    let manifest = read("ci/lint-cases/Cargo.toml");
    let (_, table) = manifest
        .split_once("[features]")
        .expect("a [features] table");
    let mut features: Vec<&str> = table
        .lines()
        .filter_map(|l| l.strip_suffix(" = []"))
        .collect();
    let mut stems: Vec<&str> = cases
        .iter()
        .map(|c| c.rsplit('/').next().unwrap_or(c))
        .collect();
    features.sort_unstable();
    stems.sort_unstable();
    assert_eq!(
        features, stems,
        "each case needs its feature, and each feature a case"
    );
    for case in &cases {
        rejects(case);
    }
}

#[test]
fn panic_flagged_in_library() {
    rejects("unwrap").flags("x.unwrap()");
    rejects("expect_panic")
        .flags("x.expect(")
        .flags("panic!(")
        .says("`panic` should not be present in production code");
}

#[test]
fn panic_allowed_in_cfg_test() {
    rejects("unwrap").accepts("assert_eq!(super::panicky(Some(1)), Some(1).unwrap());");
}

#[test]
fn unwrap_or_is_fine() {
    rejects("unwrap").accepts("x.unwrap_or(0)");
}

#[test]
fn strings_and_comments_ignored() {
    rejects("unwrap")
        .accepts("pub const TEXT")
        .accepts("// A comment that calls x.unwrap()")
        .flags("x.unwrap()");
}

#[test]
fn byte_raw_strings_do_not_leak_into_code() {
    rejects("unwrap")
        .accepts("b\"x.unwrap()\"")
        .accepts("br#\"x.unwrap()")
        .flags("x.unwrap()");
}

#[test]
fn lifetime_is_not_a_char_literal() {
    rejects("unwrap")
        .accepts("pub fn first<'a>")
        .accepts("(s, fallback.chars()")
        .flags("x.unwrap()");
}

#[test]
fn string_continuation_keeps_line_numbers_aligned() {
    let gate = rejects("unwrap");
    assert!(
        gate.source.contains("\\\n"),
        "the case keeps its continued string"
    );
    gate.flags("x.unwrap()").accepts("not a call\";");
}

#[test]
fn print_macros_flagged_in_library() {
    rejects("print")
        .flags("println!(\"hello\")")
        .flags("eprintln!(\"hello again\")")
        .says("use of `eprintln!`");
}

#[test]
fn print_allowed_in_binaries_tests_and_waived_lines() {
    rejects("print")
        .accepts("#[expect(clippy::print_stdout")
        .accepts("println!(\"excused\")")
        .accepts("println!(\"from a test\")");
    // Binaries, examples, benches and tests are outside the step that
    // carries these flags.
    assert!(read("ci/check.sh").contains("cargo clippy --workspace --lib -- \"${LIB_LINTS[@]}\""));
}

#[test]
fn as_cast_only_in_fixed_point_files() {
    rejects("as_cast")
        .flags("x as f64")
        .accepts("(f64::from(x), u64::from(x))");
    assert_eq!(
        rust_files_containing("deny(clippy::as_conversions, clippy::float_cmp)"),
        FIXED_POINT_FILES
    );
}

#[test]
fn float_cmp_in_fixed_point_files() {
    rejects("float_cmp")
        .flags("a == 0.5")
        .accepts("a == 0.0")
        .accepts("a == f64::INFINITY");
    for file in FIXED_POINT_FILES {
        assert!(
            read(file).contains(
                "#![cfg_attr(not(test), deny(clippy::as_conversions, clippy::float_cmp))]"
            ),
            "{file} must deny float comparison in library code"
        );
    }
}

#[test]
fn missing_docs_counted_per_crate() {
    rejects("missing_docs").flags("pub fn undocumented");
    // The lint is a workspace lint, and every crate takes the workspace's.
    assert!(read("Cargo.toml").contains("missing_docs = \"warn\""));
    let manifests = crate_dirs()
        .into_iter()
        .map(|dir| format!("crates/{dir}/Cargo.toml"));
    for manifest in manifests.chain(["Cargo.toml".into(), "ci/lint-cases/Cargo.toml".into()]) {
        assert!(
            read(&manifest).contains("[lints]\nworkspace = true"),
            "{manifest} does not take the workspace lints"
        );
    }
}

#[test]
fn pub_crate_needs_no_docs() {
    rejects("missing_docs").accepts("pub(crate) fn crate_only");
}

#[test]
fn pub_use_reexports_need_no_docs() {
    rejects("missing_docs").accepts("pub use std::cmp::max");
}

#[test]
fn pub_items_in_cfg_test_submodules_are_exempt() {
    rejects("missing_docs")
        .accepts("pub mod tests")
        .accepts("pub fn test_helper");
}

#[test]
fn attributes_between_doc_and_item_are_ok() {
    rejects("missing_docs")
        .accepts("#[derive(Debug, Clone, Copy)]")
        .accepts("pub struct Documented");
}

#[test]
fn flags_single_slash_beside_doc_comment() {
    rejects("doc_slash").flags("/// Documented, except the continuation");
}

#[test]
fn division_continuations_are_not_doc_slash() {
    rejects("doc_slash").accepts("/ 2.0");
}

#[test]
fn doc_slash_prose_in_raw_string_is_ignored() {
    rejects("doc_slash").accepts("/ a slash at the start");
}

#[test]
fn flags_wall_clock_in_sim_path() {
    rejects("imports/wall_clock").flags("let _t = std::time::Instant::now();");
}

#[test]
fn waiver_with_reason_suppresses() {
    rejects("expect_without_reason").accepts("let value = x.unwrap();");
}

#[test]
fn same_line_waiver_marks_its_own_line_used() {
    // An unused exception would be reported at its own line.
    rejects("expect_without_reason")
        .accepts("#[expect(clippy::unwrap_used, reason = \"the caller checked\")]");
}

#[test]
fn waiver_without_reason_is_reported() {
    rejects("expect_without_reason").flags("#[expect(clippy::unwrap_used)]");
    rejects("allow_attr").flags("#[allow(clippy::unwrap_used");
}

#[test]
fn waiver_audit_records_used_and_unused() {
    rejects("stale_expect")
        .flags("#[expect(clippy::unwrap_used, reason = \"nothing here")
        .accepts("#[expect(clippy::unwrap_used, reason = \"the caller checked\")]")
        .accepts("x.unwrap()");
}
