//! Generate and persist workload traces for replayable experiments.
//!
//! ```text
//! tracegen --kind dfslike|synthetic [--seed S] [--out FILE]
//!          [--requests N] [--file-sets N] [--duration SECS]
//! ```
//!
//! Writes the trace as CSV (`anu_workload::write_csv`) and prints its
//! statistics (request count, activity skew, offered load against the
//! paper's 25-speed-unit cluster). Traces replay bit-identically: the same
//! file driven through the simulator yields the same figures on any
//! machine.

use anu_workload::{write_csv, DfsLikeConfig, SyntheticConfig, TraceError, Workload};
use std::path::PathBuf;

const USAGE: &str = "usage: tracegen --kind dfslike|synthetic [--seed S] [--out FILE] \
     [--requests N] [--file-sets N] [--duration SECS]";

/// Report a malformed command line and exit with the usage code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    kind: String,
    seed: u64,
    out: PathBuf,
    requests: Option<u64>,
    file_sets: Option<usize>,
    duration: Option<f64>,
}

fn parse() -> Args {
    let mut args = Args {
        kind: "dfslike".into(),
        seed: 11,
        out: PathBuf::from("trace.csv"),
        requests: None,
        file_sets: None,
        duration: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} needs a value")))
        };
        match a.as_str() {
            "--kind" => args.kind = val("--kind"),
            "--seed" => {
                args.seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an integer"))
            }
            "--out" => args.out = PathBuf::from(val("--out")),
            "--requests" => {
                args.requests = Some(
                    val("--requests")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--requests needs an integer")),
                )
            }
            "--file-sets" => {
                args.file_sets = Some(
                    val("--file-sets")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--file-sets needs an integer")),
                )
            }
            "--duration" => {
                args.duration = Some(
                    val("--duration")
                        .parse()
                        .unwrap_or_else(|_| usage_error("--duration needs seconds")),
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    args
}

fn generate(args: &Args) -> Workload {
    match args.kind.as_str() {
        "dfslike" => {
            let mut cfg = DfsLikeConfig::paper(args.seed);
            if let Some(r) = args.requests {
                cfg.total_requests = r;
            }
            if let Some(n) = args.file_sets {
                cfg.n_file_sets = n;
            }
            if let Some(d) = args.duration {
                cfg.duration_secs = d;
            }
            cfg.generate()
        }
        "synthetic" => {
            let mut cfg = SyntheticConfig::paper(args.seed);
            if let Some(r) = args.requests {
                cfg.total_requests = r;
            }
            if let Some(n) = args.file_sets {
                cfg.n_file_sets = n;
            }
            if let Some(d) = args.duration {
                cfg.duration_secs = d;
            }
            cfg.generate()
        }
        other => usage_error(&format!("unknown kind {other}; use dfslike or synthetic")),
    }
}

fn main() {
    let args = parse();
    let w = generate(&args);
    let stats = w.stats();
    let written = std::fs::File::create(&args.out)
        .map_err(TraceError::from)
        .and_then(|f| write_csv(&w, f));
    if let Err(e) = written {
        eprintln!("tracegen: cannot write {}: {e}", args.out.display());
        std::process::exit(2);
    }
    println!("wrote {} (csv)", args.out.display());
    println!(
        "  {} requests, {} file sets ({} active), {:.0} s",
        stats.total_requests, w.n_file_sets, stats.active_file_sets, stats.duration_secs
    );
    println!(
        "  activity skew: most {} / least {} = {:.0}x",
        stats.max_set_requests, stats.min_set_requests, stats.heterogeneity_ratio
    );
    println!(
        "  offered load vs the paper's 25-unit cluster: {:.2}",
        w.offered_load(25.0)
    );
}
