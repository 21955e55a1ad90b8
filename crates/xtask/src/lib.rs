//! `anu-xtask` — repo-specific static analysis for the ANU reproduction.
//!
//! The whole evaluation rests on bit-for-bit deterministic simulation:
//! placement must be a pure function of seed and input, fixed-point
//! interval arithmetic must never silently truncate, and library code must
//! not panic on untrusted input. This crate is a dependency-free lint
//! driver that lexes the workspace sources into real tokens (see
//! [`lexer`]) and mechanically enforces those conventions with
//! `file:line` diagnostics, a JSON report, a waiver syntax for the rare
//! justified exception, and a committed ratchet baseline
//! (`lint-baseline.json`) so waiver counts can only go down.
//!
//! ## Lints
//!
//! | name             | scope                         | forbids                                      |
//! |------------------|-------------------------------|----------------------------------------------|
//! | `wall-clock`     | sim-path crates               | `Instant::now`, `SystemTime`                 |
//! | `thread-rng`     | sim-path crates               | `thread_rng`, `from_entropy`, `OsRng`, …     |
//! | `hash-iteration` | sim-path crates               | `HashMap` / `HashSet` (iteration order)      |
//! | `as-cast`        | fixed-point files             | bare `as` casts                              |
//! | `float-cmp`      | fixed-point files             | `==` / `!=` involving floats                 |
//! | `panic`          | all library code              | `.unwrap()`, `.expect(`, `panic!(`           |
//! | `print`          | all library code              | `println!`, `eprintln!`, `print!`, `eprint!` |
//! | `missing-docs`   | all library code              | undocumented `pub` items                     |
//! | `doc-slash`      | everywhere                    | `///` doc lines degraded to a single `/`     |
//! | `import-graph`   | sim-path crates               | imports outside the allowed-dependency matrix: harness/bench/xtask crates, `std::{time,fs,io,net,process,env,thread}`, entropy types — aliases included |
//! | `rng-discipline` | sim-path crates               | `RngStream`s not derived from the experiment seed / without a literal fork label, or visibly shared across `thread::scope` |
//! | `tick-arith`     | tick/fixed-point modules      | bare `+` `-` `*` (`+=` `-=` `*=`) on tick values; use saturating/checked helpers |
//! | `waiver`         | everywhere                    | waivers without a written justification      |
//!
//! *Sim-path crates*: `anu-core`, `anu-des`, `anu-cluster`, `anu-trace`,
//! `anu-policies`, `anu-metrics` — the crates whose behavior feeds simulation results. *Fixed-point
//! files*: `interval.rs`, `shares.rs`, `partition.rs`, `placement.rs`.
//! *Tick/fixed-point modules* (for `tick-arith`): `crates/des/src/time.rs`
//! and `crates/core/src/interval.rs`, the newtype homes of `SimTime`,
//! `SimDuration` and interval positions. *Library code*: `src/` trees of
//! all workspace crates, excluding binary entry points (`src/main.rs`,
//! `src/bin/`), `tests/`, `benches/` and `examples/`, and excluding
//! `#[cfg(test)]` regions.
//!
//! ## Waivers
//!
//! A violation is waived by a comment on the same line or the line above:
//!
//! ```text
//! // anu-lint: allow(as-cast) -- u64->f64 rounding is intended here
//! ```
//!
//! The justification after `--` is mandatory; a waiver without one is
//! itself reported (lint `waiver`).
//!
//! ## Ratchet
//!
//! `anu-xtask ratchet` compares the current per-lint unwaived/waived
//! counts against the committed `lint-baseline.json` and fails on any
//! increase; on a decrease, `--update` rewrites the baseline. See
//! [`ratchet`].

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod bench;
pub mod deps;
mod imports;
pub mod legacy;
pub mod lexer;
pub mod ratchet;
mod rng;
mod ticks;

/// The lints the driver knows about.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Lint {
    /// Wall-clock reads in sim-path crates.
    WallClock,
    /// Ambient/entropy-seeded RNG in sim-path crates.
    ThreadRng,
    /// `HashMap`/`HashSet` in sim-path crates (iteration order is
    /// nondeterministic; use `BTreeMap`/`BTreeSet`).
    HashIteration,
    /// Bare `as` casts in fixed-point arithmetic files.
    AsCast,
    /// Float `==`/`!=` in fixed-point arithmetic files.
    FloatCmp,
    /// `.unwrap()` / `.expect(` / `panic!(` in library code.
    Panic,
    /// `println!` / `eprintln!` / `print!` / `eprint!` in library code
    /// (diagnostics belong in structured trace sinks, not on stdio).
    Print,
    /// Undocumented `pub` item in library code.
    MissingDocs,
    /// A line starting with a single `/` directly beside a doc comment —
    /// a `///` doc line that lost slashes in an edit or merge.
    DocSlash,
    /// A sim-path `use` declaration outside the allowed-dependency
    /// matrix: harness/bench/xtask crates, forbidden `std` surfaces
    /// (`time`, `fs`, `io`, `net`, `process`, `env`, `thread`), or
    /// entropy types — caught even through `use … as` aliases.
    ImportGraph,
    /// An `RngStream` constructed from something other than the
    /// experiment seed (`task_seed`/`*seed`), without a literal fork
    /// label, or visibly shared across `thread::scope` closures.
    RngDiscipline,
    /// Bare `+`/`-`/`*` (and compound assignment) on tick or fixed-point
    /// values in the designated newtype modules; arithmetic there must
    /// use saturating/checked helpers so overflow is impossible.
    TickArith,
    /// Malformed waiver (missing justification).
    Waiver,
}

/// Every lint, in reporting order.
pub const ALL_LINTS: [Lint; 13] = [
    Lint::WallClock,
    Lint::ThreadRng,
    Lint::HashIteration,
    Lint::AsCast,
    Lint::FloatCmp,
    Lint::Panic,
    Lint::Print,
    Lint::MissingDocs,
    Lint::DocSlash,
    Lint::ImportGraph,
    Lint::RngDiscipline,
    Lint::TickArith,
    Lint::Waiver,
];

impl Lint {
    /// The kebab-case name used in waivers, reports and `--lint` filters.
    pub fn name(self) -> &'static str {
        match self {
            Lint::WallClock => "wall-clock",
            Lint::ThreadRng => "thread-rng",
            Lint::HashIteration => "hash-iteration",
            Lint::AsCast => "as-cast",
            Lint::FloatCmp => "float-cmp",
            Lint::Panic => "panic",
            Lint::Print => "print",
            Lint::MissingDocs => "missing-docs",
            Lint::DocSlash => "doc-slash",
            Lint::ImportGraph => "import-graph",
            Lint::RngDiscipline => "rng-discipline",
            Lint::TickArith => "tick-arith",
            Lint::Waiver => "waiver",
        }
    }

    /// One-line description for `list-lints`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::WallClock => "wall-clock reads (Instant::now, SystemTime) in sim-path crates",
            Lint::ThreadRng => {
                "entropy-seeded RNG (thread_rng, OsRng, from_entropy) in sim-path crates"
            }
            Lint::HashIteration => {
                "HashMap/HashSet in sim-path crates; iteration order is nondeterministic"
            }
            Lint::AsCast => "bare `as` casts in fixed-point files; use the checked helpers",
            Lint::FloatCmp => "float ==/!= in fixed-point files; compare exact fixed-point units",
            Lint::Panic => ".unwrap()/.expect()/panic!() in library code; return Result instead",
            Lint::Print => {
                "println!/eprintln! in library code; emit trace events or return the text"
            }
            Lint::MissingDocs => "undocumented pub item in library code",
            Lint::DocSlash => {
                "single-`/` line beside a doc comment; a `///` doc line lost its slashes"
            }
            Lint::ImportGraph => {
                "sim-path import outside the allowed-dependency matrix (harness, std::time/fs/io/…, entropy types — aliases included)"
            }
            Lint::RngDiscipline => {
                "RngStream not derived from the experiment seed with a literal fork label, or shared across thread::scope"
            }
            Lint::TickArith => {
                "bare +/-/* on tick or fixed-point values; use saturating/checked helpers"
            }
            Lint::Waiver => "anu-lint waiver without a written justification",
        }
    }

    /// Parse a lint name as used in waivers.
    pub fn from_name(name: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// Path relative to the scanned root, with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Explanation of what was found.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Documentation coverage of one crate's library sources.
#[derive(Clone, Debug, Default)]
pub struct DocCoverage {
    /// Number of documented `pub` items.
    pub documented: usize,
    /// Total number of `pub` items.
    pub total: usize,
}

impl DocCoverage {
    /// Coverage as a percentage (100 for crates with no pub items).
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.documented as f64 / self.total as f64
        }
    }
}

/// One well-formed `anu-lint: allow(...)` waiver found in the tree,
/// whether or not it suppressed anything. The audit (`anu-xtask waivers`)
/// lists these so every exception to the lint wall stays reviewable in
/// one place — and so waivers that no longer suppress anything can be
/// deleted instead of rotting.
#[derive(Clone, Debug)]
pub struct WaiverRecord {
    /// Path relative to the scanned root, with `/` separators.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// Lints the waiver allows.
    pub lints: Vec<Lint>,
    /// The written justification after `--`.
    pub reason: String,
    /// Did the waiver suppress at least one violation on its line or the
    /// line below? `false` means the waiver is dead and should go.
    pub used: bool,
}

/// The result of scanning a workspace tree.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Violations that were not waived, in path/line order.
    pub violations: Vec<Violation>,
    /// Number of violations suppressed by a justified waiver.
    pub waived: usize,
    /// Waived-violation counts per lint name (the ratchet's raw data).
    pub waived_by_lint: BTreeMap<String, usize>,
    /// Every well-formed waiver in the tree, in path/line order.
    pub waivers: Vec<WaiverRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-crate `pub`-item documentation coverage, keyed by crate name.
    pub doc_coverage: BTreeMap<String, DocCoverage>,
}

impl Report {
    /// Did the tree pass (no unwaived violations)?
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Unwaived-violation counts per lint name (only lints that fired).
    pub fn violations_by_lint(&self) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = BTreeMap::new();
        for v in &self.violations {
            *out.entry(v.lint.name().to_string()).or_default() += 1;
        }
        out
    }

    /// Render the report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} violation(s), {} waived\n",
            self.files_scanned,
            self.violations.len(),
            self.waived
        ));
        out.push_str("doc coverage:\n");
        for (krate, cov) in &self.doc_coverage {
            out.push_str(&format!(
                "  {:<14} {:>4}/{:<4} pub items documented ({:.1}%)\n",
                krate,
                cov.documented,
                cov.total,
                cov.percent()
            ));
        }
        out
    }

    /// Render the report as a JSON document.
    ///
    /// Shape:
    /// ```json
    /// {
    ///   "ok": true,
    ///   "files_scanned": 60,
    ///   "waived": 2,
    ///   "waived_by_lint": {"panic": 2},
    ///   "violations": [{"lint": "...", "file": "...", "line": 3, "message": "..."}],
    ///   "doc_coverage": {"anu-core": {"documented": 10, "total": 10, "percent": 100.0}}
    /// }
    /// ```
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"ok\": {},\n", self.clean()));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"waived\": {},\n", self.waived));
        out.push_str("  \"waived_by_lint\": {");
        for (i, (lint, n)) in self.waived_by_lint.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(lint), n));
        }
        out.push_str("},\n");
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(v.lint.name()),
                json_str(&v.file),
                v.line,
                json_str(&v.message)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"doc_coverage\": {");
        for (i, (krate, cov)) in self.doc_coverage.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"documented\": {}, \"total\": {}, \"percent\": {:.1}}}",
                json_str(krate),
                cov.documented,
                cov.total,
                cov.percent()
            ));
        }
        if !self.doc_coverage.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Waivers that no longer suppress any violation.
    pub fn unused_waivers(&self) -> Vec<&WaiverRecord> {
        self.waivers.iter().filter(|w| !w.used).collect()
    }

    /// Render the waiver audit as human-readable text: one line per
    /// waiver with its location, lints, justification, and whether it
    /// still suppresses anything.
    pub fn render_waivers(&self) -> String {
        let mut out = String::new();
        for w in &self.waivers {
            let lints: Vec<&str> = w.lints.iter().map(|l| l.name()).collect();
            out.push_str(&format!(
                "  {} {}:{} allow({}) -- {}\n",
                if w.used { "[used]  " } else { "[UNUSED]" },
                w.file,
                w.line,
                lints.join(", "),
                w.reason
            ));
        }
        let unused = self.unused_waivers().len();
        out.push_str(&format!(
            "{} waiver(s), {} unused\n",
            self.waivers.len(),
            unused
        ));
        out
    }
}

/// Escape a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    anu_core::Json::str(s).render()
}

/// Crates whose code feeds simulation results and must therefore be
/// deterministic (no wall clock, no entropy, no hash-order iteration).
pub(crate) const SIM_PATH_CRATES: [&str; 7] = [
    "core", "des", "cluster", "trace", "policies", "metrics", "analytic",
];

/// Files implementing the fixed-point interval arithmetic, where bare
/// casts and float comparisons are forbidden.
const FIXED_POINT_FILES: [&str; 4] = ["interval.rs", "shares.rs", "partition.rs", "placement.rs"];

/// What the scanner knows about a file before reading it.
#[derive(Clone, Debug)]
pub(crate) struct FileContext {
    /// Path relative to the root, `/`-separated.
    pub(crate) rel: String,
    /// Crate name for doc coverage ("anu-core", "anu", …).
    pub(crate) krate: String,
    /// Crate directory under `crates/`, e.g. "core"; empty for the root.
    pub(crate) crate_dir: String,
    /// Is this library code (vs. a binary entry point)?
    pub(crate) library: bool,
}

impl FileContext {
    pub(crate) fn sim_path(&self) -> bool {
        SIM_PATH_CRATES.contains(&self.crate_dir.as_str())
    }

    pub(crate) fn fixed_point(&self) -> bool {
        let base = self.rel.rsplit('/').next().unwrap_or("");
        self.sim_path() && FIXED_POINT_FILES.contains(&base)
    }

    /// The file's basename ("time.rs").
    pub(crate) fn basename(&self) -> &str {
        self.rel.rsplit('/').next().unwrap_or("")
    }
}

/// Scan the workspace rooted at `root` with every lint enabled.
///
/// Only library sources are visited: `src/` of the root package and of
/// every `crates/*` member. `tests/`, `benches/`, `examples/`, and binary
/// entry points are out of scope by construction.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            let src = entry.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut report = Report::default();
    for path in files {
        let Some(ctx) = classify(root, &path) else {
            continue;
        };
        let text = fs::read_to_string(&path)?;
        report.files_scanned += 1;
        scan_file(&text, &ctx, &mut report);
    }
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    report
        .waivers
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(report)
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Work out the crate and role of a source file from its path.
pub(crate) fn classify(root: &Path, path: &Path) -> Option<FileContext> {
    let rel_path = path.strip_prefix(root).ok()?;
    let rel: String = rel_path
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_dir, krate, within): (String, String, &[&str]) = if parts.first() == Some(&"crates")
    {
        let dir = (*parts.get(1)?).to_string();
        let name = format!("anu-{dir}");
        (dir, name, parts.get(2..)?)
    } else {
        (String::new(), "anu".to_string(), &parts[..])
    };
    if within.first() != Some(&"src") {
        return None;
    }
    // Binary entry points are application code: the panic policy and doc
    // lints do not apply (a CLI may die loudly on bad arguments).
    let library = !(within.get(1) == Some(&"bin") || within.get(1) == Some(&"main.rs"));
    Some(FileContext {
        rel,
        krate,
        crate_dir,
        library,
    })
}

/// Per-line waiver state parsed from the comment view.
#[derive(Clone, Debug, Default)]
struct WaiverLine {
    /// Lints waived on this line (applies to this line and the next).
    waived: Vec<Lint>,
    /// The waiver's written justification, when one was parsed.
    reason: Option<String>,
    /// A waiver comment was present but malformed.
    bad: Option<String>,
}

/// Scan one file's text, appending findings to `report`.
fn scan_file(text: &str, ctx: &FileContext, report: &mut Report) {
    let tokens = lexer::lex(text);
    let views = lexer::line_views(text, &tokens);

    let waiver_lines: Vec<WaiverLine> = views
        .iter()
        .map(|view| {
            let mut w = WaiverLine::default();
            // Waivers are parsed from the comment view only, so string
            // literals mentioning the syntax (e.g. in this very crate)
            // are never mistaken for waivers; doc prose about the syntax
            // is skipped via the doc flag.
            if !view.doc_comment {
                if let Some(pos) = view.comment.find("anu-lint:") {
                    parse_waiver_into(
                        &view.comment[pos..],
                        &mut w.waived,
                        &mut w.reason,
                        &mut w.bad,
                    );
                }
            }
            w
        })
        .collect();

    let mut pending: Vec<(usize, Lint, String)> = Vec::new();

    for (idx, view) in views.iter().enumerate() {
        let lineno = idx + 1;
        if let Some(reason) = &waiver_lines[idx].bad {
            pending.push((lineno, Lint::Waiver, reason.clone()));
            continue;
        }
        if view.in_test_cfg {
            continue;
        }
        // A single-`/` line is only suspicious right next to a doc
        // comment: there it is almost certainly a `///` line that lost
        // slashes (rustc parses it as division and the diagnostics are
        // baffling). Division continuations sit between code lines and
        // never trip this.
        if view.doc_slash {
            let beside_doc = (idx > 0 && views[idx - 1].doc_comment)
                || views.get(idx + 1).is_some_and(|l| l.doc_comment);
            if beside_doc {
                pending.push((
                    lineno,
                    Lint::DocSlash,
                    "line starts with a single `/` beside a doc comment; a `///` doc line lost its slashes".to_string(),
                ));
            }
        }
        let code = view.code.as_str();

        if ctx.sim_path() {
            for token in ["Instant::now", "SystemTime"] {
                if code.contains(token) {
                    pending.push((
                        lineno,
                        Lint::WallClock,
                        format!("`{token}` reads the wall clock; simulations must be a pure function of seed and input"),
                    ));
                }
            }
            for token in [
                "thread_rng",
                "ThreadRng",
                "from_entropy",
                "OsRng",
                "getrandom",
            ] {
                if contains_word(code, token) {
                    pending.push((
                        lineno,
                        Lint::ThreadRng,
                        format!("`{token}` draws ambient entropy; use a seeded RngStream"),
                    ));
                }
            }
            for token in ["HashMap", "HashSet"] {
                if contains_word(code, token) {
                    pending.push((
                        lineno,
                        Lint::HashIteration,
                        format!(
                            "`{token}` has nondeterministic iteration order; use BTreeMap/BTreeSet"
                        ),
                    ));
                }
            }
        }
        if ctx.fixed_point() {
            if contains_word(code, "as") && !code.trim_start().starts_with("use ") {
                pending.push((
                    lineno,
                    Lint::AsCast,
                    "bare `as` cast in fixed-point arithmetic; use the checked num helpers"
                        .to_string(),
                ));
            }
            if (code.contains("==") || code.contains("!=")) && mentions_float(code) {
                pending.push((
                    lineno,
                    Lint::FloatCmp,
                    "float equality in fixed-point arithmetic; compare exact fixed-point units"
                        .to_string(),
                ));
            }
        }
        if ctx.library {
            for (token, what) in [
                (".unwrap()", "`.unwrap()`"),
                (".expect(", "`.expect()`"),
                ("panic!(", "`panic!`"),
            ] {
                if code.contains(token) {
                    pending.push((
                        lineno,
                        Lint::Panic,
                        format!("{what} in library code; return Result or restructure"),
                    ));
                }
            }
            for token in ["println!", "eprintln!", "print!", "eprint!"] {
                if contains_word(code, token) {
                    pending.push((
                        lineno,
                        Lint::Print,
                        format!("`{token}` in library code; emit a trace event or return the text to the caller"),
                    ));
                }
            }
            if let Some(item) = pub_item_name(code) {
                let cov = report.doc_coverage.entry(ctx.krate.clone()).or_default();
                cov.total += 1;
                if is_documented(&views, idx) {
                    cov.documented += 1;
                } else {
                    pending.push((
                        lineno,
                        Lint::MissingDocs,
                        format!("public item `{item}` has no doc comment"),
                    ));
                }
            }
        }
    }

    // Token-level analyses (the v2 lints): import graph, RNG-stream
    // discipline, tick arithmetic. Each returns (line, lint, message)
    // findings that join the same waiver pipeline as the line lints.
    pending.extend(imports::check(text, &tokens, &views, ctx));
    pending.extend(rng::check(text, &tokens, &views, ctx));
    pending.extend(ticks::check(text, &tokens, &views, ctx));

    // Apply waivers: a waiver on line N covers violations on N and N+1.
    let mut waiver_used = vec![false; views.len()];
    for (lineno, lint, message) in pending {
        let own = waiver_lines
            .get(lineno - 1)
            .map(|l| l.waived.contains(&lint))
            .unwrap_or(false);
        let above = lineno >= 2
            && waiver_lines
                .get(lineno - 2)
                .map(|l| l.waived.contains(&lint))
                .unwrap_or(false);
        if lint != Lint::Waiver && (own || above) {
            report.waived += 1;
            *report
                .waived_by_lint
                .entry(lint.name().to_string())
                .or_default() += 1;
            let at = if own { lineno - 1 } else { lineno - 2 };
            waiver_used[at] = true;
        } else {
            report.violations.push(Violation {
                lint,
                file: ctx.rel.clone(),
                line: lineno,
                message,
            });
        }
    }

    // Record every well-formed waiver for the audit, used or not. Note
    // that waivers inside `#[cfg(test)]` regions are inherently unused —
    // those regions produce no violations to suppress.
    for (idx, w) in waiver_lines.iter().enumerate() {
        if w.waived.is_empty() {
            continue;
        }
        report.waivers.push(WaiverRecord {
            file: ctx.rel.clone(),
            line: idx + 1,
            lints: w.waived.clone(),
            reason: w.reason.clone().unwrap_or_default(),
            used: waiver_used[idx],
        });
    }
}

/// Does `code` contain `word` delimited by non-identifier characters?
pub(crate) fn contains_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + word.len();
        let after_ok = after >= code.len()
            || !code[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + word.len();
    }
    false
}

/// Heuristic: does the line mention floating-point values (a float literal
/// like `1.5`, or the `f32`/`f64` type names)?
fn mentions_float(code: &str) -> bool {
    if contains_word(code, "f64") || contains_word(code, "f32") {
        return true;
    }
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'.'
            && i > 0
            && bytes[i - 1].is_ascii_digit()
            && bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit())
        {
            return true;
        }
    }
    false
}

/// If `code` declares a `pub` item, return the item's name.
///
/// `pub use` re-exports and `pub(crate)`/`pub(super)` items return
/// `None`: re-exports carry their docs at the definition site, and
/// restricted visibility is not public API.
fn pub_item_name(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("pub ")?;
    let mut tokens = rest.split_whitespace().peekable();
    // Skip qualifiers to find the item keyword.
    let mut keyword = None;
    while let Some(&tok) = tokens.peek() {
        match tok {
            "const" => {
                // `pub const fn` is a function; `pub const NAME` a constant.
                let mut clone = tokens.clone();
                clone.next();
                if clone.peek() == Some(&"fn") {
                    tokens.next();
                    continue;
                }
                keyword = Some("const");
                tokens.next();
                break;
            }
            "async" | "unsafe" | "extern" => {
                tokens.next();
            }
            "fn" | "struct" | "enum" | "trait" | "mod" | "static" | "type" | "union" => {
                keyword = Some(tok);
                tokens.next();
                break;
            }
            _ => return None,
        }
    }
    let kw = keyword?;
    let name = tokens.next()?;
    // `pub mod foo;` declares an external module whose documentation lives
    // as `//!` inner docs in the module file (rustc attributes them there);
    // only inline `pub mod foo { ... }` needs an outer doc comment.
    if kw == "mod" && trimmed.trim_end().ends_with(';') {
        return None;
    }
    let name: String = name
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Is the `pub` item on `idx` preceded by a doc comment (skipping
/// attributes)?
fn is_documented(lines: &[lexer::LineView], idx: usize) -> bool {
    let mut i = idx;
    let mut attr_depth: i32 = 0;
    while i > 0 {
        i -= 1;
        let view = &lines[i];
        if view.doc_comment {
            return true;
        }
        let t = view.code.trim();
        // Walk over attributes, including multi-line ones, by balancing
        // brackets on attribute lines.
        let opens = t.chars().filter(|&c| c == '[').count() as i32;
        let closes = t.chars().filter(|&c| c == ']').count() as i32;
        if t.starts_with("#[") || attr_depth > 0 {
            attr_depth += opens - closes;
            continue;
        }
        if t.is_empty() {
            continue;
        }
        return false;
    }
    false
}

/// Parse an `anu-lint: allow(a, b) -- reason` comment, filling the three
/// output slots (shared between the live scanner and [`legacy`]).
pub(crate) fn parse_waiver_into(
    text: &str,
    waived: &mut Vec<Lint>,
    reason_out: &mut Option<String>,
    bad: &mut Option<String>,
) {
    let fail = |msg: &str| Some(msg.to_string());
    let Some(open) = text.find("allow(") else {
        *bad = fail("waiver must use `anu-lint: allow(<lint>) -- <reason>`");
        return;
    };
    let Some(close) = text[open..].find(')') else {
        *bad = fail("unclosed `allow(` in waiver");
        return;
    };
    let list = &text[open + "allow(".len()..open + close];
    let mut lints = Vec::new();
    for name in list.split(',') {
        let name = name.trim();
        match Lint::from_name(name) {
            Some(l) => lints.push(l),
            None => {
                *bad = fail(&format!("unknown lint `{name}` in waiver"));
                return;
            }
        }
    }
    let after = &text[open + close + 1..];
    let Some(dashes) = after.find("--") else {
        *bad = fail("waiver needs a justification: `-- <reason>`");
        return;
    };
    let reason = after[dashes + 2..].trim();
    if reason.is_empty() {
        *bad = fail("waiver justification is empty");
        return;
    }
    *reason_out = Some(reason.to_string());
    *waived = lints;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rel: &str, crate_dir: &str, library: bool) -> FileContext {
        FileContext {
            rel: rel.to_string(),
            krate: if crate_dir.is_empty() {
                "anu".to_string()
            } else {
                format!("anu-{crate_dir}")
            },
            crate_dir: crate_dir.to_string(),
            library,
        }
    }

    fn run(text: &str, c: &FileContext) -> Report {
        let mut r = Report::default();
        scan_file(text, c, &mut r);
        r
    }

    #[test]
    fn flags_wall_clock_in_sim_path() {
        let c = ctx("crates/des/src/lib.rs", "des", true);
        let r = run(
            "/// d\npub fn f() {\n let t = std::time::Instant::now();\n}\n",
            &c,
        );
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].lint, Lint::WallClock);
        assert_eq!(r.violations[0].line, 3);
    }

    #[test]
    fn ignores_wall_clock_outside_sim_path() {
        let c = ctx("crates/harness/src/lib.rs", "harness", true);
        let r = run(
            "/// d\npub fn f() {\n let t = std::time::Instant::now();\n}\n",
            &c,
        );
        assert!(r.clean());
    }

    #[test]
    fn flags_single_slash_beside_doc_comment() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        // Degraded doc line below a `///` line.
        let r = run(
            "/// First doc line,\n/ second lost two slashes.\npub fn f() {}\n",
            &c,
        );
        assert!(
            r.violations
                .iter()
                .any(|v| v.lint == Lint::DocSlash && v.line == 2),
            "{:?}",
            r.violations
        );
        // Degraded doc line above a surviving `///` line.
        let r = run(
            "/ first lost two slashes,\n/// second doc line.\npub fn g() {}\n",
            &c,
        );
        assert!(
            r.violations
                .iter()
                .any(|v| v.lint == Lint::DocSlash && v.line == 1),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn division_continuations_are_not_doc_slash() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text =
            "/// Mean.\npub fn mean(s: f64, n: f64, d: f64) -> f64 {\n    s / n\n        / d\n}\n";
        let r = run(text, &c);
        assert!(r.clean(), "{:?}", r.violations);
        // A `/ …` line inside a block comment is prose, not a doc line.
        let r = run(
            "/// d\npub fn f() {}\n/*\n/ prose in a block comment\n*/\n",
            &c,
        );
        assert!(
            !r.violations.iter().any(|v| v.lint == Lint::DocSlash),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn doc_slash_prose_in_raw_string_is_ignored() {
        // The v1 false-positive class: `/`-prefixed prose inside a raw
        // string, directly under a line that *looks* like a doc comment.
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text =
            "/// Doc'd.\npub fn f() -> &'static str {\n    r#\"\n/// prose\n/ more prose\n\"#\n}\n";
        let r = run(text, &c);
        assert!(r.clean(), "{:?}", r.violations);
    }

    #[test]
    fn waiver_with_reason_suppresses() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "/// d\npub fn f() {\n // anu-lint: allow(hash-iteration) -- bounded scratch map, drained sorted\n let m: HashMap<u32, u32> = HashMap::new();\n}\n";
        let r = run(text, &c);
        assert!(r.clean(), "{:?}", r.violations);
        assert_eq!(r.waived, 1);
        assert_eq!(r.waived_by_lint.get("hash-iteration"), Some(&1));
    }

    #[test]
    fn waiver_without_reason_is_reported() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "// anu-lint: allow(panic)\n";
        let r = run(text, &c);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].lint, Lint::Waiver);
    }

    #[test]
    fn panic_allowed_in_cfg_test() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        let r = run(text, &c);
        assert!(r.clean(), "{:?}", r.violations);
    }

    #[test]
    fn pub_items_in_cfg_test_submodules_are_exempt() {
        // The other v1 false-positive class: a byte raw string leaking a
        // `}` desynced the brace tracking and `pub` test helpers were
        // flagged as missing docs. Tokens cannot desync.
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "#[cfg(test)]\nmod tests {\n    const F: &[u8] = br#\"x\" }\n\"y\"#;\n    pub fn helper() {}\n}\n";
        let r = run(text, &c);
        assert!(r.clean(), "{:?}", r.violations);
        assert!(r.doc_coverage.is_empty(), "{:?}", r.doc_coverage);
    }

    #[test]
    fn pub_use_reexports_need_no_docs() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "/// Doc'd.\npub mod inner {}\n\npub use inner as alias;\n";
        let r = run(text, &c);
        assert!(
            !r.violations.iter().any(|v| v.lint == Lint::MissingDocs),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn panic_flagged_in_library() {
        let c = ctx("crates/cluster/src/lib.rs", "cluster", true);
        let r = run(
            "fn f() { x.unwrap(); y.expect(\"z\"); panic!(\"no\"); }\n",
            &c,
        );
        assert_eq!(r.violations.len(), 3);
        assert!(r.violations.iter().all(|v| v.lint == Lint::Panic));
    }

    #[test]
    fn print_macros_flagged_in_library() {
        let c = ctx("crates/bench/src/lib.rs", "bench", true);
        let r = run(
            "fn f() { println!(\"x\"); eprintln!(\"y\"); print!(\"z\"); eprint!(\"w\"); }\n",
            &c,
        );
        assert_eq!(r.violations.len(), 4);
        assert!(r.violations.iter().all(|v| v.lint == Lint::Print));
    }

    #[test]
    fn print_allowed_in_binaries_tests_and_waived_lines() {
        // Binary entry points may print: they are the user interface.
        let bin = ctx("crates/harness/src/bin/figures.rs", "harness", false);
        assert!(run("fn main() { println!(\"hi\"); }\n", &bin).clean());
        // cfg(test) modules are out of scope.
        let lib = ctx("crates/core/src/lib.rs", "core", true);
        let text = "#[cfg(test)]\nmod tests {\n fn t() { println!(\"dbg\"); }\n}\n";
        assert!(run(text, &lib).clean());
        // A justified waiver suppresses the lint.
        let waived = "/// d\npub fn f() {\n // anu-lint: allow(print) -- progress line, explicitly requested by the caller\n println!(\"{}\", 1);\n}\n";
        let r = run(waived, &lib);
        assert!(r.clean(), "{:?}", r.violations);
        assert_eq!(r.waived, 1);
        // `writeln!` to a caller-provided sink is not a print macro.
        assert!(run("fn f(w: &mut String) { writeln!(w, \"x\").ok(); }\n", &lib).clean());
    }

    #[test]
    fn unwrap_or_is_fine() {
        let c = ctx("crates/cluster/src/lib.rs", "cluster", true);
        let r = run("fn f() { x.unwrap_or(0); x.unwrap_or_else(f); }\n", &c);
        assert!(r.clean());
    }

    #[test]
    fn strings_and_comments_ignored() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let r = run(
            "fn f() { let s = \"panic!( .unwrap() HashMap\"; } // .expect( too\n",
            &c,
        );
        assert!(r.clean(), "{:?}", r.violations);
    }

    #[test]
    fn byte_raw_strings_do_not_leak_into_code() {
        // `br#"…"#` defeated the v1 scanner; the lexer must blank it.
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let r = run(
            "/// d\npub fn f() -> &'static [u8] { br#\"panic!( x.unwrap() \"q\" {\"# }\n",
            &c,
        );
        assert!(r.clean(), "{:?}", r.violations);
    }

    #[test]
    fn as_cast_only_in_fixed_point_files() {
        let ok = ctx("crates/core/src/tuner.rs", "core", true);
        let bad = ctx("crates/core/src/interval.rs", "core", true);
        let text = "fn f(x: u64) -> f64 { x as f64 }\n";
        assert!(run(text, &ok).clean());
        let r = run(text, &bad);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].lint, Lint::AsCast);
    }

    #[test]
    fn float_cmp_in_fixed_point_files() {
        let c = ctx("crates/core/src/shares.rs", "core", true);
        let r = run("fn f(x: f64) -> bool { x == 0.5 }\n", &c);
        assert!(r.violations.iter().any(|v| v.lint == Lint::FloatCmp));
    }

    #[test]
    fn missing_docs_counted_per_crate() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "/// Documented.\npub fn a() {}\n\npub fn b() {}\n";
        let r = run(text, &c);
        let cov = &r.doc_coverage["anu-core"];
        assert_eq!((cov.documented, cov.total), (1, 2));
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].lint, Lint::MissingDocs);
        assert_eq!(r.violations[0].line, 4);
    }

    #[test]
    fn attributes_between_doc_and_item_are_ok() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "/// Documented.\n#[derive(Clone)]\n#[repr(C)]\npub struct S;\n";
        assert!(run(text, &c).clean());
    }

    #[test]
    fn pub_crate_needs_no_docs() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        assert!(run("pub(crate) fn hidden() {}\n", &c).clean());
    }

    #[test]
    fn lifetime_is_not_a_char_literal() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        // If the lifetime confused the lexer, the rest of the line would be
        // treated as a string and the unwrap would be missed.
        let r = run("fn f<'a>(x: &'a str) { x.unwrap(); }\n", &c);
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn waiver_audit_records_used_and_unused() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "/// d\npub fn f() {\n\
                    // anu-lint: allow(panic) -- bounded index, checked above\n\
                    x.unwrap();\n\
                    // anu-lint: allow(print) -- leftover from a removed progress line\n\
                    let y = 1;\n}\n";
        let r = run(text, &c);
        assert!(r.clean(), "{:?}", r.violations);
        assert_eq!(r.waivers.len(), 2);
        let panic_w = &r.waivers[0];
        assert_eq!(
            (panic_w.line, panic_w.used, panic_w.lints.as_slice()),
            (3, true, &[Lint::Panic][..])
        );
        assert_eq!(panic_w.reason, "bounded index, checked above");
        let print_w = &r.waivers[1];
        assert!(
            !print_w.used,
            "waiver suppressing nothing must audit unused"
        );
        assert_eq!(r.unused_waivers().len(), 1);
        let audit = r.render_waivers();
        assert!(audit.contains("[used]  "), "{audit}");
        assert!(audit.contains("[UNUSED]"), "{audit}");
        assert!(audit.contains("2 waiver(s), 1 unused"), "{audit}");
    }

    #[test]
    fn string_continuation_keeps_line_numbers_aligned() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text = "fn f() -> &'static str {\n    \"one \\\n     two\"\n}\n\n/// Documented.\npub fn g() {}\n";
        let r = run(text, &c);
        assert!(r.clean(), "{:?}", r.violations);
    }

    #[test]
    fn same_line_waiver_marks_its_own_line_used() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let text =
            "fn f() { x.unwrap(); } // anu-lint: allow(panic) -- infallible by construction\n";
        let r = run(text, &c);
        assert!(r.clean(), "{:?}", r.violations);
        assert_eq!(r.waivers.len(), 1);
        assert!(r.waivers[0].used);
    }

    #[test]
    fn json_report_shape() {
        let c = ctx("crates/core/src/lib.rs", "core", true);
        let r = run("pub fn b() {}\n", &c);
        let j = r.render_json();
        assert!(j.contains("\"ok\": false"));
        assert!(j.contains("\"lint\": \"missing-docs\""));
        assert!(j.contains("\"doc_coverage\""));
        assert!(j.contains("\"waived_by_lint\": {}"));
    }

    #[test]
    fn classify_paths() {
        let root = Path::new("/ws");
        let c = classify(root, Path::new("/ws/crates/core/src/interval.rs")).unwrap();
        assert!(c.sim_path() && c.fixed_point() && c.library);
        let c = classify(root, Path::new("/ws/crates/harness/src/bin/sweep.rs")).unwrap();
        assert!(!c.library);
        let c = classify(root, Path::new("/ws/src/lib.rs")).unwrap();
        assert_eq!(c.krate, "anu");
        assert!(classify(root, Path::new("/ws/crates/core/tests/x.rs")).is_none());
    }
}
