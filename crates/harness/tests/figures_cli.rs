//! The command-line contract of the harness binaries: a malformed command
//! line is a usage error — exit 2 with the message and the usage line on
//! stderr, before any run — never a panic (exit 101).

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
    let cases: [(&str, &[&str]); 3] = [
        (env!("CARGO_BIN_EXE_figures"), &["--no-such-flag"]),
        // The hot-path stress mode lives in e2e-bench's `scale_hotpath`
        // workload; neither binary takes a scale factor.
        (env!("CARGO_BIN_EXE_figures"), &["--scale", "2"]),
        (env!("CARGO_BIN_EXE_sweep"), &["--scale", "2"]),
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
        (env!("CARGO_BIN_EXE_sweep"), &["--jobs"]),
        (env!("CARGO_BIN_EXE_tracegen"), &["--seed", "x"]),
    ];
    for (bin, args) in cases {
        assert_usage_error(bin, args);
    }
}
