//! The lint ratchet: per-lint violation/waiver counts may only decrease.
//!
//! `lint-baseline.json` (committed at the workspace root) records, for
//! every lint, the number of unwaived violations (always zero on a green
//! tree — `check` gates that) and the number of *waived* violations.
//! `anu-xtask ratchet` recomputes both from a fresh scan and:
//!
//! - **fails** if any count exceeds the baseline — adding a waiver is a
//!   reviewed decision, made by editing `lint-baseline.json` by hand in
//!   the same commit, never a drive-by;
//! - **passes with a hint** if any count dropped — run with `--update`
//!   to rewrite the baseline and bank the improvement;
//! - **passes silently** when counts match.
//!
//! `--update` only ever tightens: it refuses to write a baseline with
//! regressions. The file format is a stable, hand-editable JSON document
//! read with the workspace's own [`anu_core::Json`] parser.

use std::collections::BTreeMap;

use anu_core::Json;

use crate::{json_str, Report, ALL_LINTS};

/// Per-lint counts tracked by the ratchet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintCounts {
    /// Unwaived violations (zero on a tree that passes `check`).
    pub violations: usize,
    /// Violations suppressed by a justified waiver.
    pub waived: usize,
}

/// The committed ratchet baseline: counts per lint name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Counts keyed by lint name, including zero entries for every lint.
    pub lints: BTreeMap<String, LintCounts>,
}

impl Baseline {
    /// Compute the baseline for a report: every known lint gets an entry,
    /// zero or not, so the committed file always lists the full set.
    pub fn from_report(report: &Report) -> Baseline {
        let viol = report.violations_by_lint();
        let mut lints = BTreeMap::new();
        for lint in ALL_LINTS {
            let name = lint.name();
            lints.insert(
                name.to_string(),
                LintCounts {
                    violations: viol.get(name).copied().unwrap_or(0),
                    waived: report.waived_by_lint.get(name).copied().unwrap_or(0),
                },
            );
        }
        Baseline { lints }
    }

    /// Render as the committed JSON document (stable formatting, one
    /// lint per line, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": 1,\n  \"lints\": {\n");
        for (i, (name, c)) in self.lints.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {{\"violations\": {}, \"waived\": {}}}{}\n",
                json_str(name),
                c.violations,
                c.waived,
                if i + 1 < self.lints.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a baseline document written by [`Baseline::render`] (or
    /// edited by hand). Accepts any whitespace; rejects unknown schema
    /// versions and malformed JSON with a descriptive message.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let mut schema: Option<u64> = None;
        let mut lints = BTreeMap::new();
        for (key, val) in object(&doc, "baseline")? {
            match key.as_str() {
                "schema" => {
                    schema = Some(val.as_u64().map_err(|e| format!("baseline schema: {e}"))?)
                }
                "lints" => {
                    for (lint, counts) in object(val, "baseline `lints`")? {
                        lints.insert(lint.clone(), lint_counts(lint, counts)?);
                    }
                }
                other => return Err(format!("unknown baseline key `{other}`")),
            }
        }
        match schema {
            Some(1) => Ok(Baseline { lints }),
            Some(v) => Err(format!("unsupported baseline schema {v}")),
            None => Err("baseline is missing the `schema` key".to_string()),
        }
    }
}

/// The `(key, value)` pairs of `j`, which must be an object.
fn object<'a>(j: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match j {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(format!("{what} must be a JSON object")),
    }
}

/// One lint's `{"violations": N, "waived": M}` entry.
fn lint_counts(lint: &str, j: &Json) -> Result<LintCounts, String> {
    let mut counts = LintCounts::default();
    for (key, n) in object(j, &format!("counts of `{lint}`"))? {
        let n = n.as_usize().map_err(|e| format!("`{lint}`.{key}: {e}"))?;
        match key.as_str() {
            "violations" => counts.violations = n,
            "waived" => counts.waived = n,
            other => return Err(format!("unknown count key `{other}`")),
        }
    }
    Ok(counts)
}

/// The outcome of comparing a fresh scan against the baseline.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Human-readable lines describing count increases (CI failures).
    pub regressions: Vec<String>,
    /// Human-readable lines describing count decreases (banked via
    /// `--update`).
    pub improvements: Vec<String>,
}

impl Comparison {
    /// Did the scan hold the ratchet (no increases)?
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compare `current` counts against `baseline`. A lint absent from the
/// baseline is treated as zero (new lints start tight).
pub fn compare(baseline: &Baseline, current: &Baseline) -> Comparison {
    let mut cmp = Comparison::default();
    let zero = LintCounts::default();
    let mut names: Vec<&String> = baseline.lints.keys().collect();
    for k in current.lints.keys() {
        if !baseline.lints.contains_key(k) {
            names.push(k);
        }
    }
    for name in names {
        let base = baseline.lints.get(name).unwrap_or(&zero);
        let cur = current.lints.get(name).unwrap_or(&zero);
        for (what, b, c) in [
            ("unwaived", base.violations, cur.violations),
            ("waived", base.waived, cur.waived),
        ] {
            if c > b {
                cmp.regressions
                    .push(format!("{name}: {what} count rose {b} -> {c}"));
            } else if c < b {
                cmp.improvements
                    .push(format!("{name}: {what} count fell {b} -> {c}"));
            }
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(entries: &[(&str, usize, usize)]) -> Baseline {
        let mut lints = BTreeMap::new();
        for &(name, violations, waived) in entries {
            lints.insert(name.to_string(), LintCounts { violations, waived });
        }
        Baseline { lints }
    }

    #[test]
    fn render_parse_round_trip() {
        let b = baseline(&[("panic", 0, 12), ("as-cast", 1, 3)]);
        let parsed = Baseline::parse(&b.render()).expect("round trip");
        assert_eq!(parsed, b);
    }

    #[test]
    fn parse_rejects_bad_schema_and_shape() {
        assert!(Baseline::parse("{\"schema\": 2, \"lints\": {}}").is_err());
        assert!(Baseline::parse("{\"lints\": {}}").is_err());
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{\"schema\": 1, \"bogus\": {}}").is_err());
    }

    #[test]
    fn increase_is_a_regression() {
        let base = baseline(&[("panic", 0, 10)]);
        let cur = baseline(&[("panic", 0, 11)]);
        let cmp = compare(&base, &cur);
        assert!(!cmp.ok());
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("rose 10 -> 11"));
    }

    #[test]
    fn decrease_is_an_improvement() {
        let base = baseline(&[("panic", 0, 10), ("print", 0, 2)]);
        let cur = baseline(&[("panic", 0, 7), ("print", 0, 2)]);
        let cmp = compare(&base, &cur);
        assert!(cmp.ok());
        assert_eq!(cmp.improvements.len(), 1);
        assert!(cmp.improvements[0].contains("fell 10 -> 7"));
    }

    #[test]
    fn lint_missing_from_baseline_starts_tight() {
        let base = baseline(&[]);
        let cur = baseline(&[("tick-arith", 0, 1)]);
        let cmp = compare(&base, &cur);
        assert!(!cmp.ok(), "new lints must not smuggle in waivers");
        // And a zero-count new lint is fine.
        let cur = baseline(&[("tick-arith", 0, 0)]);
        assert!(compare(&base, &cur).ok());
    }

    #[test]
    fn unwaived_violations_also_ratchet() {
        let base = baseline(&[("missing-docs", 0, 0)]);
        let cur = baseline(&[("missing-docs", 2, 0)]);
        assert!(!compare(&base, &cur).ok());
    }

    #[test]
    fn from_report_lists_every_lint() {
        let b = Baseline::from_report(&Report::default());
        assert_eq!(b.lints.len(), ALL_LINTS.len());
        assert!(b.lints.values().all(|c| c.violations == 0 && c.waived == 0));
    }
}
