//! The command-line contract of the harness binaries: a malformed command
//! line is a usage error — exit 2 with the message and the usage line on
//! stderr, before any run — never a panic (exit 101).

use std::path::Path;
use std::process::Command;

/// Run `bin` with `args`; return its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let code = out.status.code().expect("binary exited with a code");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, 2, "{args:?} must be a usage error, stderr:\n{stderr}");
    assert!(stderr.contains("usage:"), "{args:?} stderr:\n{stderr}");
}

#[test]
fn unknown_argument_is_a_usage_error() {
    let cases: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_figures"), &["--no-such-flag"]),
        // The hot-path stress mode lives in e2e-bench's `scale_hotpath`
        // workload; `figures` takes no scale factor.
        (env!("CARGO_BIN_EXE_figures"), &["--scale", "2"]),
        // The studies run as one sweep; there is no per-study selection.
        (env!("CARGO_BIN_EXE_figures"), &["--study", "churn"]),
        // Traces are written in one format, CSV.
        (env!("CARGO_BIN_EXE_tracegen"), &["--format", "json"]),
    ];
    for (bin, args) in cases {
        assert_usage_error(bin, args);
    }
}

#[test]
fn malformed_values_are_usage_errors() {
    let cases: [(&str, &[&str]); 5] = [
        (env!("CARGO_BIN_EXE_figures"), &["--fig", "x"]),
        (env!("CARGO_BIN_EXE_figures"), &["--trace-level", "loud"]),
        (env!("CARGO_BIN_EXE_figures"), &["--seed"]),
        (env!("CARGO_BIN_EXE_figures"), &["--jobs"]),
        (env!("CARGO_BIN_EXE_tracegen"), &["--seed", "x"]),
    ];
    for (bin, args) in cases {
        assert_usage_error(bin, args);
    }
}

/// An output path under a regular file cannot be created ("Not a
/// directory"): exit 2 with `<bin>: cannot write <path>: <error>` on
/// stderr, never a panic. `--out` and `--trace-out` fail before the first
/// simulation; `--bench-out` after the grid has run.
#[test]
fn unwritable_output_path_is_a_write_error() {
    let tmp = std::env::temp_dir().join(format!("anu_figures_cli_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    std::fs::write(tmp.join("F"), "").expect("write the blocking file");
    let (ok, f) = (tmp.display(), tmp.join("F").display().to_string());
    let (figures, tracegen) = (
        env!("CARGO_BIN_EXE_figures"),
        env!("CARGO_BIN_EXE_tracegen"),
    );
    let cases = [
        (
            figures,
            format!("--out {f}/out --bench-out {ok}/m.json"),
            "out",
        ),
        (
            figures,
            format!("--out {ok}/o --trace-out {f}/t --bench-out {ok}/m.json"),
            "t",
        ),
        (
            figures,
            format!("--out {ok}/o --bench-out {f}/m.json"),
            "m.json",
        ),
        (tracegen, format!("--out {f}/x.csv"), "x.csv"),
    ];
    for (bin, args, blocked) in cases {
        let mut args: Vec<&str> = args.split_whitespace().collect();
        if bin == figures {
            args.extend(["--fig", "7"]);
        }
        let (code, stderr) = run(bin, &args);
        assert_eq!(code, 2, "{args:?} must exit 2, stderr:\n{stderr}");
        let name = Path::new(bin)
            .file_name()
            .expect("binary name")
            .to_string_lossy();
        let expected = format!("{name}: cannot write {f}/{blocked}: ");
        assert!(stderr.contains(&expected), "{args:?} stderr:\n{stderr}");
    }
    std::fs::remove_dir_all(&tmp).ok();
}
