//! End-to-end benchmark of the ANU reproduction.
//!
//! ```text
//! e2e --workload <paper_grid|scale_hotpath|churn_storm> --seed <S>
//!     [--seconds <N>] [--trace <0|1>] [--spans <FILE>]
//! ```
//!
//! Prints every metric as `name value unit`, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer ones, and the spans are written as JSONL to `--spans`
//! (default `out/spans-<workload>-s<seed>.jsonl` in this package). Exits 1
//! when an output check fails and 2 on a usage error.

use anu_core::Json;
use anu_e2e_bench::{run_bench, Config, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: e2e --workload <paper_grid|scale_hotpath|churn_storm> --seed <S> [--seconds <N>] [--trace <0|1>] [--spans <FILE>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        scratch: out.clone(),
    };
    let report = match run_bench(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args.spans.unwrap_or_else(|| {
            out.join(format!(
                "spans-{}-s{}.jsonl",
                args.workload.name(),
                args.seed
            ))
        });
        if let Err(e) = report.spans.write_jsonl(&path) {
            eprintln!("e2e: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans {}", path.display());
    }

    match report.pinned {
        Some(p) => println!("fingerprint {:016x} pinned {p:016x}", report.fingerprint),
        None => println!("fingerprint {:016x} unpinned", report.fingerprint),
    }
    for m in report.raw.iter().chain(&report.metrics) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::f64(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::bool(report.correct())),
        ("attempted", Json::u64(report.attempted)),
        ("failed", Json::u64(report.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
