//! CLI driver for the ANU repo lints.
//!
//! ```text
//! anu-xtask check [--root DIR] [--format text|json]
//! anu-xtask waivers [--root DIR]
//! anu-xtask ratchet [--root DIR] [--baseline FILE] [--update]
//! anu-xtask deps [--root DIR]
//! anu-xtask list-lints
//! ```
//!
//! `waivers` audits every `anu-lint: allow(...)` comment in the tree:
//! where it is, what it allows, its written justification, and whether it
//! still suppresses anything. Unused waivers fail the audit (exit 1) —
//! a waiver that no longer covers a violation should be deleted, not
//! left to mask a future one.
//!
//! `ratchet` compares a fresh scan's per-lint counts against the
//! committed `lint-baseline.json`: any increase fails; a decrease passes
//! and `--update` rewrites the baseline to bank it. `deps` parses
//! `Cargo.lock` and fails if any non-workspace package appears.
//!
//! Exit codes: 0 clean, 1 unwaived violations (or, for `waivers`, unused
//! waivers; for `ratchet`, count increases; for `deps`, external
//! packages) found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use anu_xtask::ratchet::Baseline;
use anu_xtask::{deps, scan_workspace, ALL_LINTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        usage();
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "list-lints" => {
            for lint in ALL_LINTS {
                println!("{:<15} {}", lint.name(), lint.describe());
            }
            ExitCode::SUCCESS
        }
        "check" => {
            let mut root: Option<PathBuf> = None;
            let mut format = "text".to_string();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--root" => match it.next() {
                        Some(dir) => root = Some(PathBuf::from(dir)),
                        None => {
                            eprintln!("error: --root needs a directory");
                            return ExitCode::from(2);
                        }
                    },
                    "--format" => match it.next().map(String::as_str) {
                        Some(f @ ("text" | "json")) => format = f.to_string(),
                        _ => {
                            eprintln!("error: --format must be `text` or `json`");
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("error: unknown argument `{other}`");
                        usage();
                        return ExitCode::from(2);
                    }
                }
            }
            let (report, _) = match scan(root) {
                Ok(r) => r,
                Err(code) => return code,
            };
            match format.as_str() {
                "json" => print!("{}", report.render_json()),
                _ => print!("{}", report.render_text()),
            }
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "waivers" => {
            let mut root: Option<PathBuf> = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--root" => match it.next() {
                        Some(dir) => root = Some(PathBuf::from(dir)),
                        None => {
                            eprintln!("error: --root needs a directory");
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("error: unknown argument `{other}`");
                        usage();
                        return ExitCode::from(2);
                    }
                }
            }
            let (report, _) = match scan(root) {
                Ok(r) => r,
                Err(code) => return code,
            };
            print!("{}", report.render_waivers());
            if report.unused_waivers().is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: unused waiver(s) — delete them rather than letting them mask future violations");
                ExitCode::FAILURE
            }
        }
        "ratchet" => {
            let mut root: Option<PathBuf> = None;
            let mut baseline_path: Option<PathBuf> = None;
            let mut update = false;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--root" => match it.next() {
                        Some(dir) => root = Some(PathBuf::from(dir)),
                        None => {
                            eprintln!("error: --root needs a directory");
                            return ExitCode::from(2);
                        }
                    },
                    "--baseline" => match it.next() {
                        Some(file) => baseline_path = Some(PathBuf::from(file)),
                        None => {
                            eprintln!("error: --baseline needs a file");
                            return ExitCode::from(2);
                        }
                    },
                    "--update" => update = true,
                    other => {
                        eprintln!("error: unknown argument `{other}`");
                        usage();
                        return ExitCode::from(2);
                    }
                }
            }
            let (report, root_dir) = match scan(root) {
                Ok(r) => r,
                Err(code) => return code,
            };
            let path = baseline_path.unwrap_or_else(|| root_dir.join("lint-baseline.json"));
            let current = Baseline::from_report(&report);
            let committed = match std::fs::read_to_string(&path) {
                Ok(text) => match Baseline::parse(&text) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("error: {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound && update => {
                    // Bootstrap: --update with no baseline writes the
                    // current counts as the first ratchet point.
                    if let Err(e) = std::fs::write(&path, current.render()) {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                    println!("ratchet: wrote initial baseline to {}", path.display());
                    return ExitCode::SUCCESS;
                }
                Err(e) => {
                    eprintln!(
                        "error: cannot read {}: {e} (run `anu-xtask ratchet --update` to bootstrap)",
                        path.display()
                    );
                    return ExitCode::from(2);
                }
            };
            let cmp = anu_xtask::ratchet::compare(&committed, &current);
            for line in &cmp.regressions {
                println!("ratchet regression: {line}");
            }
            for line in &cmp.improvements {
                println!("ratchet improvement: {line}");
            }
            if !cmp.ok() {
                eprintln!(
                    "error: lint counts rose above {}; fix the new violations, or raise the \
                     baseline by hand in a reviewed commit",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
            if !cmp.improvements.is_empty() {
                if update {
                    if let Err(e) = std::fs::write(&path, current.render()) {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                    println!("ratchet: baseline tightened in {}", path.display());
                } else {
                    println!(
                        "ratchet: counts improved; run `anu-xtask ratchet --update` to bank it"
                    );
                }
            } else {
                println!("ratchet: counts match {}", path.display());
            }
            ExitCode::SUCCESS
        }
        "deps" => {
            let mut root: Option<PathBuf> = None;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--root" => match it.next() {
                        Some(dir) => root = Some(PathBuf::from(dir)),
                        None => {
                            eprintln!("error: --root needs a directory");
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("error: unknown argument `{other}`");
                        usage();
                        return ExitCode::from(2);
                    }
                }
            }
            let root = resolve_root(root);
            if !root.is_dir() {
                eprintln!("error: {} is not a directory", root.display());
                return ExitCode::from(2);
            }
            match deps::audit(&root) {
                Ok(externals) if externals.is_empty() => {
                    println!("deps: Cargo.lock contains only workspace members");
                    ExitCode::SUCCESS
                }
                Ok(externals) => {
                    for pkg in &externals {
                        println!(
                            "external package: {} {} ({})",
                            pkg.name,
                            pkg.version,
                            pkg.source.as_deref().unwrap_or("unknown source")
                        );
                    }
                    eprintln!(
                        "error: {} non-workspace package(s) in Cargo.lock — the sim must stay \
                         dependency-free",
                        externals.len()
                    );
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            usage();
            ExitCode::from(2)
        }
    }
}

/// Default the root to the workspace when `--root` was not given.
fn resolve_root(root: Option<PathBuf>) -> PathBuf {
    root.unwrap_or_else(|| {
        // When run via `cargo run -p anu-xtask`, the workspace root
        // is one level above this crate's manifest dir.
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    })
}

/// Resolve the root (defaulting to the workspace) and scan it, mapping
/// failures to the process exit code.
fn scan(root: Option<PathBuf>) -> Result<(anu_xtask::Report, PathBuf), ExitCode> {
    let root = resolve_root(root);
    if !root.is_dir() {
        eprintln!("error: {} is not a directory", root.display());
        return Err(ExitCode::from(2));
    }
    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return Err(ExitCode::from(2));
        }
    };
    // A root with no sources is almost certainly a typo'd --root;
    // treat it as usage error rather than a clean pass.
    if report.files_scanned == 0 {
        eprintln!("error: no Rust sources under {}", root.display());
        return Err(ExitCode::from(2));
    }
    Ok((report, root))
}

fn usage() {
    eprintln!(
        "usage: anu-xtask <check [--root DIR] [--format text|json] | waivers [--root DIR] | \
         ratchet [--root DIR] [--baseline FILE] [--update] | \
         deps [--root DIR] | list-lints>"
    );
}
