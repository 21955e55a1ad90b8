//! The command-line contract of the `figures` binary: a malformed command
//! line is a usage error — exit 2 with the message and the usage line on
//! stderr, before any run — never a panic (exit 101).

use std::process::Command;

/// Run `figures` with `args`; return its exit code and stderr.
fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn binary");
    let code = out.status.code().expect("binary exited with a code");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_error(args: &[&str]) {
    let (code, stderr) = run(args);
    assert_eq!(code, 2, "{args:?} must be a usage error, stderr:\n{stderr}");
    assert!(stderr.contains("usage:"), "{args:?} stderr:\n{stderr}");
}

#[test]
fn unknown_argument_is_a_usage_error() {
    let cases: [&[&str]; 3] = [
        &["--no-such-flag"],
        // The hot-path stress mode lives in e2e-bench's `scale_hotpath`
        // workload; `figures` takes no scale factor.
        &["--scale", "2"],
        // The studies run as one sweep; there is no per-study selection.
        &["--study", "churn"],
    ];
    for args in cases {
        assert_usage_error(args);
    }
}

#[test]
fn malformed_values_are_usage_errors() {
    let cases: [&[&str]; 4] = [
        &["--fig", "x"],
        &["--trace-level", "loud"],
        &["--seed"],
        &["--jobs"],
    ];
    for args in cases {
        assert_usage_error(args);
    }
}

/// An output path under a regular file cannot be created ("Not a
/// directory"): exit 2 with `figures: cannot write <path>: <error>` on
/// stderr, never a panic. `--out` and `--trace-out` fail before the first
/// simulation; `--bench-out` after the grid has run.
#[test]
fn unwritable_output_path_is_a_write_error() {
    let tmp = std::env::temp_dir().join(format!("anu_figures_cli_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    std::fs::write(tmp.join("F"), "").expect("write the blocking file");
    let (ok, f) = (tmp.display(), tmp.join("F").display().to_string());
    let cases = [
        (format!("--out {f}/out --bench-out {ok}/m.json"), "out"),
        (
            format!("--out {ok}/o --trace-out {f}/t --bench-out {ok}/m.json"),
            "t",
        ),
        (format!("--out {ok}/o --bench-out {f}/m.json"), "m.json"),
    ];
    for (args, blocked) in cases {
        let mut args: Vec<&str> = args.split_whitespace().collect();
        args.extend(["--fig", "7"]);
        let (code, stderr) = run(&args);
        assert_eq!(code, 2, "{args:?} must exit 2, stderr:\n{stderr}");
        let expected = format!("figures: cannot write {f}/{blocked}: ");
        assert!(stderr.contains(&expected), "{args:?} stderr:\n{stderr}");
    }
    std::fs::remove_dir_all(&tmp).ok();
}
