//! Regenerate every evaluation figure of the paper on the parallel sweep
//! engine.
//!
//! ```text
//! figures [--fig N] [--seed S] [--seeds K] [--jobs J] [--out DIR]
//!         [--bench-out FILE] [--trace-out DIR] [--trace-level LVL]
//!         [--series] [--plot] [--chaos] [--storm] [--meanfield]
//! ```
//!
//! The full {figure × policy × seed} grid is enumerated as independent
//! tasks and drained by `J` workers (default: one per core). Results,
//! CSVs, traces, PASS/FAIL verdicts and the run manifest are
//! byte-identical at any `--jobs` value, including `--jobs 1` —
//! parallelism only changes wall time.
//!
//! For each figure: writes per-policy CSV series to `--out` (default
//! `out/`), prints the cross-policy summary table and the qualitative
//! shape-check verdicts. `--seeds K` widens the grid to `K` seeds (the
//! base seed plus `K-1` derived via the SplitMix64 task-seed path; derived
//! seeds' experiments, CSVs and traces are named `fig6_s<seed>`).
//! `--series` additionally prints the full minute-by-minute latency
//! table. A machine-readable run manifest (every simulation, the
//! verdicts, and the length and FNV-1a hash of every file the run wrote)
//! is written to `--bench-out` (default `BENCH_figures.json`).
//!
//! Every grid — the figures and each optional sweep below — runs through
//! the same steps: run the grid, write its traces and per-run CSVs, print
//! each experiment's summary table, then write the sweep's summary CSVs
//! and print its checks.
//!
//! Exit codes: 0 = every check passed, 1 = at least one check failed,
//! 2 = usage error (unknown flag or malformed value, reported before any
//! run) or an output path that cannot be written. The run reads no clock:
//! simulator speed is measured by the `e2e-bench` harness, not here.
//!
//! `--chaos` appends the fault-intensity sweep: the four-policy lineup
//! under escalating deterministic fault scripts (crashes, slowdowns,
//! report loss, delegate failures), writing `chaos_*.csv` series plus the
//! `chaos_summary.csv` availability table to `--out`. Its robustness
//! checks (auditor clean, no lost requests, tuning resumes after
//! re-election) give one verdict per intensity cell and count toward the
//! exit code like the figure shape checks.
//!
//! `--storm` appends the elasticity sweep: ANU on the standby-extended
//! paper cluster (autoscaler + shed) under every storm kind (flash crowd,
//! diurnal, popularity shift, adversarial hot set) at every intensity,
//! with heavy-tailed Pareto demands and membership-churn faults, plus the
//! balanced convergence cell. Writes `storm_*.csv` series and
//! `storm_summary.csv` (Jain fairness, per-file-set p99, shed/scale
//! counters) to `--out`; its robustness checks give one verdict and gate
//! the exit code like the figure checks.
//!
//! `--meanfield` appends the mean-field cross-validation sweep: every
//! modeled policy (the four-policy lineup plus rendezvous) on growing
//! scales of the synthetic cell, scored against the `anu-analytic`
//! oracle's fixed-point predictions. Writes `meanfield_cells.csv`
//! (prediction next to measurement, per server) and
//! `meanfield_convergence.csv` (request-weighted relative divergence per
//! policy and scale) to `--out`, and no per-run files or traces. Its
//! gate — divergence shrinks monotonically in scale and ends at or below
//! 10% for every policy — gives one verdict and counts toward the exit
//! code like the figure shape checks.
//!
//! Tracing: every figure, chaos and storm experiment additionally writes
//! its per-epoch tuner telemetry to `<experiment>_tuner_epochs.csv` and
//! its metrics registry (counters, gauges, histogram quantiles, per-epoch
//! snapshots) to `<experiment>_metrics.csv` in `--out`. `--trace-out DIR`
//! records a structured trace of every task of those sweeps at
//! `--trace-level` (`epoch` by default; `request` adds per-request
//! events) — one JSONL file per task, the format `anu-inspect` reads.

use anu_harness::runner;
use anu_harness::{
    chaos_sweep, checks_table, figures_sweep, meanfield_sweep, series_table, sparklines,
    storm_sweep, summary_table, Output, TaskOutcome, Verdict, CHAOS_LEVELS, DEFAULT_SEED,
    FIGURE_NUMBERS,
};
use anu_trace::TraceLevel;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: figures [--fig N] [--seed S] [--seeds K] [--jobs J] [--out DIR] \
     [--bench-out FILE] [--trace-out DIR] [--trace-level off|epoch|request] [--series] [--plot] \
     [--chaos] [--storm] [--meanfield]";

/// Report a malformed command line and exit with the usage code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parse a flag's value, or report `msg` as a usage error when it is
/// missing or malformed.
fn value<T: std::str::FromStr>(v: Option<String>, msg: &str) -> T {
    v.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(msg))
}

/// Report an output path that cannot be written and exit with code 2.
fn cannot_write(path: &Path, e: std::io::Error) -> ! {
    eprintln!("figures: cannot write {}: {e}", path.display());
    std::process::exit(2);
}

struct Args {
    fig: Option<u32>,
    seed: u64,
    seeds: u64,
    jobs: usize,
    out: PathBuf,
    bench_out: PathBuf,
    trace_out: Option<PathBuf>,
    trace_level: TraceLevel,
    series: bool,
    plot: bool,
    chaos: bool,
    storm: bool,
    meanfield: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        fig: None,
        seed: DEFAULT_SEED,
        seeds: 1,
        jobs: 0,
        out: PathBuf::from("out"),
        bench_out: PathBuf::from("BENCH_figures.json"),
        trace_out: None,
        trace_level: TraceLevel::Epoch,
        series: false,
        plot: false,
        chaos: false,
        storm: false,
        meanfield: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig" => args.fig = Some(value(it.next(), "--fig needs a figure number 6..=11")),
            "--seed" => args.seed = value(it.next(), "--seed needs an integer"),
            "--seeds" => {
                let k: std::num::NonZeroU64 = value(it.next(), "--seeds needs a count >= 1");
                args.seeds = k.get();
            }
            "--jobs" => {
                args.jobs = value(it.next(), "--jobs needs a worker count (0 = one per core)")
            }
            "--out" => args.out = value(it.next(), "--out needs a path"),
            "--bench-out" => args.bench_out = value(it.next(), "--bench-out needs a path"),
            "--trace-out" => args.trace_out = Some(value(it.next(), "--trace-out needs a path")),
            "--trace-level" => {
                args.trace_level = it
                    .next()
                    .as_deref()
                    .and_then(TraceLevel::parse)
                    .unwrap_or_else(|| usage_error("--trace-level needs off|epoch|request"))
            }
            "--series" => args.series = true,
            "--plot" => args.plot = true,
            "--chaos" => args.chaos = true,
            "--storm" => args.storm = true,
            "--meanfield" => args.meanfield = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let figures: Vec<u32> = match args.fig {
        Some(n) => vec![n],
        None => FIGURE_NUMBERS.to_vec(),
    };
    let seeds: Vec<u64> = (0..args.seeds)
        .map(|i| anu_des::task_seed(args.seed, i))
        .collect();
    let mut sweeps = vec![figures_sweep(&figures, &seeds).unwrap_or_else(|| {
        usage_error(&format!(
            "no figure {}; the evaluation figures are 6..=11",
            args.fig.unwrap_or_default()
        ))
    })];
    if args.chaos {
        sweeps.push(chaos_sweep(&CHAOS_LEVELS, args.seed));
    }
    if args.storm {
        sweeps.push(storm_sweep(args.seed));
    }
    if args.meanfield {
        sweeps.push(meanfield_sweep(args.seed));
    }

    // Fail on an unwritable destination before the first simulation.
    for dir in std::iter::once(&args.out).chain(&args.trace_out) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| cannot_write(dir, e));
    }
    let jobs = runner::effective_jobs(args.jobs);
    // Trace recording is opt-in: without a destination the sweep runs at
    // the zero-cost Off level regardless of the requested verbosity.
    let trace_level = if args.trace_out.is_some() {
        args.trace_level
    } else {
        TraceLevel::Off
    };

    let names: Vec<&str> = sweeps.iter().map(|s| s.name).collect();
    let tasks: usize = sweeps
        .iter()
        .map(|s| runner::plan(s.experiments()).len())
        .sum();
    let level = trace_level.name();
    println!(
        "running {}: {tasks} tasks on {jobs} workers (trace: {level})",
        names.join(", ")
    );
    let mut outcomes: Vec<TaskOutcome> = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut written: Vec<PathBuf> = Vec::new();
    for sweep in &sweeps {
        let (ran, grouped) = sweep.run(jobs, trace_level);
        let files = sweep
            .write_run_files(&ran, &grouped, &args.out, args.trace_out.as_deref())
            .unwrap_or_else(|(dir, e)| cannot_write(&dir, e));
        written.extend(files);
        for (exp, results) in sweep.shown().iter().zip(&grouped) {
            let stats = exp.workload.stats();
            println!(
                "\n=== {} (seed {}) — {} requests, {} file sets, {:.0} s, {} fault events, \
                 {} policies ===",
                exp.name,
                exp.seed,
                stats.total_requests,
                exp.workload.n_file_sets,
                stats.duration_secs,
                exp.cluster.faults.len(),
                exp.policies.len()
            );
            println!("{}", summary_table(results));
            if args.series {
                for r in results {
                    println!("{}", series_table(r));
                }
            }
            if args.plot {
                for r in results {
                    println!("{}", sparklines(r));
                }
            }
        }
        let finished = sweep
            .finish(&grouped, &args.out)
            .unwrap_or_else(|e| cannot_write(&args.out, e));
        for v in &finished.verdicts {
            println!("\n--- {} (seed {}) ---", v.name, v.seed);
            print!("{}", checks_table(&v.checks));
        }
        written.extend(finished.files);
        verdicts.extend(finished.verdicts);
        outcomes.extend(ran);
    }

    // Pin every file this run wrote by reading it back.
    let pins: Vec<Output> = written
        .iter()
        .map(|p| Output::read(p).unwrap_or_else(|e| cannot_write(p, e)))
        .collect();
    let manifest = runner::manifest(args.seed, &outcomes, &verdicts, trace_level, &pins);
    std::fs::write(&args.bench_out, manifest.render_pretty())
        .unwrap_or_else(|e| cannot_write(&args.bench_out, e));
    let events: u64 = outcomes.iter().map(|o| o.result.summary.sim_events).sum();
    println!(
        "\n{} tasks, {events} simulated events, {} files written -> {}",
        outcomes.len(),
        pins.len(),
        args.bench_out.display()
    );
    let all_pass = verdicts.iter().all(Verdict::pass);
    println!(
        "overall: {}",
        if all_pass {
            "all shape checks PASS"
        } else {
            "some shape checks FAILED"
        }
    );
    std::process::exit(if all_pass { 0 } else { 1 });
}
