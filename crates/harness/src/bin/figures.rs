//! Regenerate every evaluation figure of the paper on the parallel sweep
//! engine.
//!
//! ```text
//! figures [--fig N] [--seed S] [--seeds K] [--jobs J] [--out DIR]
//!         [--bench-out FILE] [--trace-out DIR] [--trace-level LVL]
//!         [--series] [--plot] [--chaos] [--storm] [--meanfield] [--scale N] [--scale-bench N]
//!         [--bench-reps R] [--bench-gate]
//!         [--multi-world W] [--multi-world-scale S]
//! ```
//!
//! The full {figure × policy × seed} grid is enumerated as independent
//! tasks and drained by `J` workers (default: one per core). Results,
//! CSVs and PASS/FAIL verdicts are byte-identical at any `--jobs` value,
//! including `--jobs 1` — parallelism only changes wall time.
//!
//! For each figure: writes per-policy CSV series to `--out` (default
//! `out/`), prints the cross-policy summary table and the qualitative
//! shape-check verdicts. `--seeds K` widens the grid to `K` seeds (the
//! base seed plus `K-1` derived via the SplitMix64 task-seed path; derived
//! seeds' CSVs are tagged `_s<seed>`). `--series` additionally prints the
//! full minute-by-minute latency table. A machine-readable perf manifest
//! (wall time, per-task simulated events/sec, verdicts) is written to
//! `--bench-out` (default `BENCH_figures.json`).
//!
//! `--chaos` appends the fault-intensity sweep: the four-policy lineup
//! under escalating deterministic fault scripts (crashes, slowdowns,
//! report loss, delegate failures), writing `chaos_*.csv` series plus the
//! `chaos_summary.csv` availability table to `--out` and a `chaos`
//! section into the manifest. Its robustness checks (auditor clean, no
//! lost requests, tuning resumes after re-election) count toward the exit
//! code like the figure shape checks.
//!
//! `--storm` appends the elasticity sweep: ANU on the standby-extended
//! paper cluster (autoscaler + shed) under every storm kind (flash crowd,
//! diurnal, popularity shift, adversarial hot set) at every intensity,
//! with heavy-tailed Pareto demands and membership-churn faults, plus the
//! balanced convergence cell. Writes `storm_*.csv` series and
//! `storm_summary.csv` (Jain fairness, per-file-set p99, shed/scale
//! counters) to `--out` and a `storm` section into the manifest (schema
//! v7); its robustness checks gate the exit code like the figure checks.
//!
//! `--meanfield` appends the mean-field cross-validation sweep: every
//! modeled policy (the four-policy lineup plus rendezvous) on growing
//! scales of the synthetic cell, scored against the `anu-analytic`
//! oracle's fixed-point predictions. Writes `meanfield_cells.csv`
//! (prediction next to measurement, per server) and
//! `meanfield_convergence.csv` (request-weighted relative divergence per
//! policy and scale) to `--out` and a `meanfield` section into the
//! manifest (schema v8). Its gate — divergence shrinks monotonically in
//! scale and ends at or below 10% for every policy — counts toward the
//! exit code like the figure shape checks.
//!
//! Scale mode: `--scale N` multiplies every figure's file-set and request
//! counts by `N` at constant offered load — a hot-path stress run over an
//! `N`× larger id universe. Scaled workloads are non-canonical, so CSV
//! emission and shape checks are skipped (completing the grid *is* the
//! check). `--scale-bench N` additionally runs the trace-off fig6 grid at
//! scale 1 (best of `--bench-reps`, default 3) and scale `N` on one
//! worker, records both throughputs plus the baseline into the
//! manifest's `bench` section (schema v9), and prints the `PERF-GATE
//! OK|WARN` verdict. By default the verdict is informational; with
//! `--bench-gate` a WARN turns into exit code 3 so callers get a real
//! exit-code contract instead of grepping log lines (0 = pass, 1 = shape
//! checks failed, 2 = usage error, 3 = perf gate warned). The baseline
//! can be overridden via the `ANU_PERF_BASELINE` environment variable.
//!
//! `--multi-world W` appends the partitioned multi-world probe: `W`
//! independent fig6 worlds (derived seeds, each at `--multi-world-scale`,
//! default 1) drained by the shared worker pool, recording aggregate
//! events/sec into the manifest's `multi_world` section. This is the
//! all-cores throughput number: worlds share nothing, so the pool stays
//! saturated without any cross-world synchronization.
//!
//! Tracing: every figure additionally writes its per-epoch tuner telemetry
//! to `<figure>_tuner_epochs.csv` and its metrics registry (counters,
//! gauges, histogram quantiles, per-epoch snapshots) to
//! `<figure>_metrics.csv` in `--out`. `--trace-out DIR` records a
//! structured trace of every task at `--trace-level` (`epoch` by default;
//! `request` adds per-request events) — one JSONL file plus one binary
//! `.ring` dump per task (the format `anu-inspect` reads) — and
//! calibrates the tracing overhead into the manifest. Traces, CSVs and
//! the manifest's deterministic sections are byte-identical at any
//! `--jobs` value.

use anu_harness::runner;
use anu_harness::{
    chaos_checks, chaos_experiments, chaos_manifest, chaos_rows, checks_for, checks_table, figure,
    figure_scaled, meanfield_checks, meanfield_experiments, meanfield_grid, meanfield_manifest,
    meanfield_rows, measure_trace_overhead, reduced, run_multi_world, run_scale_bench,
    series_table, sparklines, storm_cells, storm_checks, storm_experiments, storm_manifest,
    storm_rows, summary_table, write_chaos_summary_csv, write_figure_csvs_tagged,
    write_meanfield_cells_csv, write_meanfield_convergence_csv, write_metrics_csv,
    write_storm_summary_csv, write_tuner_epochs_csv, Experiment, FigureVerdict, CHAOS_LEVELS,
    DEFAULT_SEED, FIGURE_NUMBERS, MEANFIELD_REPLICAS, MEANFIELD_SCALES, PLAIN_ANU_LABEL,
    STORM_LEVELS,
};
use anu_trace::TraceLevel;
use std::path::PathBuf;
use std::time::Instant;

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
    scale: u64,
    scale_bench: u64,
    bench_reps: usize,
    bench_gate: bool,
    multi_world: u64,
    multi_world_scale: u64,
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
        scale: 1,
        scale_bench: 0,
        bench_reps: 3,
        bench_gate: false,
        multi_world: 0,
        multi_world_scale: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig" => {
                args.fig = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--fig needs a figure number 6..=11"),
                )
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs an integer")
            }
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k >= 1)
                    .expect("--seeds needs a count >= 1")
            }
            "--jobs" => {
                args.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a worker count (0 = one per core)")
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a path")),
            "--bench-out" => {
                args.bench_out = PathBuf::from(it.next().expect("--bench-out needs a path"))
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(it.next().expect("--trace-out needs a path")))
            }
            "--trace-level" => {
                args.trace_level = it
                    .next()
                    .as_deref()
                    .and_then(TraceLevel::parse)
                    .expect("--trace-level needs off|epoch|request")
            }
            "--series" => args.series = true,
            "--plot" => args.plot = true,
            "--chaos" => args.chaos = true,
            "--storm" => args.storm = true,
            "--meanfield" => args.meanfield = true,
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s >= 1)
                    .expect("--scale needs a factor >= 1")
            }
            "--scale-bench" => {
                args.scale_bench = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale-bench needs a factor (0 = disabled)")
            }
            "--bench-reps" => {
                args.bench_reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r >= 1)
                    .expect("--bench-reps needs a count >= 1")
            }
            "--bench-gate" => args.bench_gate = true,
            "--multi-world" => {
                args.multi_world = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--multi-world needs a world count (0 = disabled)")
            }
            "--multi-world-scale" => {
                args.multi_world_scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s >= 1)
                    .expect("--multi-world-scale needs a factor >= 1")
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig N] [--seed S] [--seeds K] [--jobs J] [--out DIR] [--bench-out FILE] [--trace-out DIR] [--trace-level off|epoch|request] [--series] [--plot] [--chaos] [--storm] [--meanfield] [--scale N] [--scale-bench N] [--bench-reps R] [--bench-gate] [--multi-world W] [--multi-world-scale S]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    if args.bench_gate && args.scale_bench == 0 {
        eprintln!("--bench-gate requires --scale-bench N (there is no probe to gate on)");
        std::process::exit(2);
    }
    args
}

/// One grid entry: an experiment plus what to do with its results.
struct Entry {
    figure: u32,
    seed: u64,
    /// CSV tag for derived seeds (None keeps the canonical names).
    tag: Option<String>,
    /// Print and write this entry (support runs are checks-only inputs).
    emit: bool,
}

/// Enumerate the figure/seed grid. When figure 11 is requested without
/// figure 10, a checks-only "support" run of the fig10 no-heuristics
/// policy is appended per seed, so the decomposition baseline comes from
/// the same pooled sweep instead of a separate serial run.
fn build_grid(figures: &[u32], seeds: &[u64], scale: u64) -> (Vec<Experiment>, Vec<Entry>) {
    let mut exps = Vec::new();
    let mut entries = Vec::new();
    let needs_support = figures.contains(&11) && !figures.contains(&10);
    for (si, &seed) in seeds.iter().enumerate() {
        let tag = (si > 0).then(|| format!("s{seed}"));
        for &n in figures {
            let exp = figure_scaled(n, seed, scale).unwrap_or_else(|| {
                eprintln!("no figure {n}; the evaluation figures are 6..=11");
                std::process::exit(2);
            });
            exps.push(exp);
            entries.push(Entry {
                figure: n,
                seed,
                tag: tag.clone(),
                emit: true,
            });
        }
        if needs_support {
            let mut plain = figure(10, seed).expect("figure 10 exists");
            plain
                .policies
                .retain(|(l, _)| l.as_str() == PLAIN_ANU_LABEL);
            plain.name = "fig10-plain".into();
            exps.push(plain);
            entries.push(Entry {
                figure: 10,
                seed,
                tag: tag.clone(),
                emit: false,
            });
        }
    }
    (exps, entries)
}

/// The `anu-no-heuristics` baseline result for `seed`, from whichever grid
/// entry ran it (the full figure 10 when present, the support run
/// otherwise).
fn find_plain<'a>(
    entries: &[Entry],
    grouped: &'a [Vec<runner::TaskOutcome>],
    seed: u64,
) -> Option<&'a anu_cluster::RunResult> {
    entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.figure == 10 && e.seed == seed)
        .flat_map(|(i, _)| &grouped[i])
        .map(|o| &o.result)
        .find(|r| r.policy == PLAIN_ANU_LABEL)
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

    let (exps, entries) = build_grid(&figures, &seeds, args.scale);
    let jobs = runner::effective_jobs(args.jobs);
    if args.scale > 1 {
        println!(
            "scale mode: {}x file sets and requests per figure; CSVs and shape checks are skipped (non-canonical workloads)",
            args.scale
        );
    }
    // Trace recording is opt-in: without a destination the sweep runs at
    // the zero-cost Off level regardless of the requested verbosity.
    let trace_level = if args.trace_out.is_some() {
        args.trace_level
    } else {
        TraceLevel::Off
    };
    println!(
        "sweep grid: {} figures x {} seeds -> {} tasks on {} workers (trace: {})",
        figures.len(),
        seeds.len(),
        runner::plan(&exps).len(),
        jobs,
        trace_level.name()
    );

    let t0 = Instant::now();
    let outcomes = runner::run_grid_traced(&exps, jobs, trace_level);
    let wall_secs = t0.elapsed().as_secs_f64();

    // Regroup outcomes per experiment, in task order.
    let mut grouped: Vec<Vec<runner::TaskOutcome>> = Vec::new();
    grouped.resize_with(exps.len(), Vec::new);
    for o in outcomes {
        grouped[o.task.experiment].push(o);
    }

    let mut verdicts: Vec<FigureVerdict> = Vec::new();
    let mut all_pass = true;
    // Wall seconds spent rendering CSV artifacts, for the manifest's
    // top-level profile section.
    let mut csv_render_secs = 0.0f64;
    for (i, entry) in entries.iter().enumerate() {
        if !entry.emit {
            continue;
        }
        let exp = &exps[i];
        let results: Vec<anu_cluster::RunResult> =
            grouped[i].iter().map(|o| o.result.clone()).collect();
        let stats = exp.workload.stats();
        println!(
            "\n=== Figure {} ({}, seed {}) — {} requests, {} file sets, {:.0} s, {} policies ===",
            entry.figure,
            exp.name,
            entry.seed,
            stats.total_requests,
            exp.workload.n_file_sets,
            stats.duration_secs,
            exp.policies.len()
        );
        println!("{}", summary_table(&results));
        if args.series {
            for r in &results {
                println!("{}", series_table(r));
            }
        }
        if args.plot {
            for r in &results {
                println!("{}", sparklines(r));
            }
        }
        if args.scale > 1 {
            // Scaled workloads are non-canonical: the committed CSVs and
            // the paper's shape claims only apply at scale 1. Finishing
            // the grid is the scale-mode check.
            println!("  SKIP: CSVs and shape checks (scale {}x)", args.scale);
            continue;
        }
        let csv0 = Instant::now();
        let paths = write_figure_csvs_tagged(&exp.name, entry.tag.as_deref(), &results, &args.out)
            .expect("write CSVs");
        write_tuner_epochs_csv(&exp.name, entry.tag.as_deref(), &results, &args.out)
            .expect("write tuner-epoch CSV");
        write_metrics_csv(&exp.name, entry.tag.as_deref(), &results, &args.out)
            .expect("write metrics CSV");
        csv_render_secs += csv0.elapsed().as_secs_f64();
        println!(
            "  wrote {} CSV series (+ tuner epochs, metrics) to {}",
            paths.len(),
            args.out.display()
        );

        let tick_buckets = (exp.cluster.tick.0 / exp.cluster.series_bucket.0).max(1) as usize;
        let plain = find_plain(&entries, &grouped, entry.seed);
        let checks = checks_for(entry.figure, &results, plain, tick_buckets);
        print!("{}", checks_table(&checks));
        all_pass &= checks.iter().all(|c| c.pass);
        verdicts.push(FigureVerdict {
            figure: entry.figure,
            seed: entry.seed,
            checks,
        });
    }

    // Optional throughput probe: trace-off fig6 at scale 1 and scale N,
    // compared against the baseline in effect.
    // The verdict is printed and recorded; with --bench-gate a WARN also
    // becomes exit code 3. Runs *before* the optional chaos/storm sweeps
    // so the probe always times the same warm-but-quiet process state —
    // tacking sweeps onto the command line must not skew the recorded
    // throughput (on small boxes the extra minutes of sweep load
    // measurably depress a probe taken afterwards).
    let bench = (args.scale_bench > 0).then(|| {
        println!(
            "\nscale bench: fig6 trace-off on 1 worker at scale 1 (best of {}) and scale {}",
            args.bench_reps, args.scale_bench
        );
        let b = run_scale_bench(args.seed, args.scale_bench, args.bench_reps);
        println!("{}", b.gate_line());
        b
    });

    // Optional fault-intensity sweep; its own grid, its own manifest
    // section, but the robustness verdicts gate the exit code like the
    // figure checks do.
    let chaos_fragment = if args.chaos {
        let chaos_exps = chaos_experiments(args.seed);
        println!(
            "\nchaos sweep: {} intensity levels {:?} x {} policies",
            CHAOS_LEVELS.len(),
            CHAOS_LEVELS,
            chaos_exps[0].policies.len()
        );
        let chaos_outcomes = runner::run_grid_traced(&chaos_exps, jobs, trace_level);
        if let Some(dir) = args.trace_out.as_deref() {
            std::fs::create_dir_all(dir).expect("create trace dir");
            for o in &chaos_outcomes {
                let safe: String = o
                    .task
                    .label
                    .chars()
                    .map(|c| if c.is_alphanumeric() { c } else { '_' })
                    .collect();
                let mut body = o.trace_lines.join("\n");
                if !body.is_empty() {
                    body.push('\n');
                }
                std::fs::write(dir.join(format!("{}_{safe}.jsonl", o.task.name)), body)
                    .expect("write trace");
                std::fs::write(
                    dir.join(format!("{}_{safe}.ring", o.task.name)),
                    &o.trace_ring,
                )
                .expect("write ring trace");
            }
        }
        let grouped = runner::group_results(chaos_outcomes, chaos_exps.len());
        for (exp, results) in chaos_exps.iter().zip(&grouped) {
            println!(
                "\n=== Chaos {} (intensity sweep, {} fault events, seed {}) ===",
                exp.name,
                exp.cluster.faults.len(),
                exp.seed
            );
            println!("{}", summary_table(results));
            let csv0 = Instant::now();
            write_figure_csvs_tagged(&exp.name, None, results, &args.out)
                .expect("write chaos CSVs");
            write_tuner_epochs_csv(&exp.name, None, results, &args.out)
                .expect("write chaos tuner-epoch CSV");
            write_metrics_csv(&exp.name, None, results, &args.out)
                .expect("write chaos metrics CSV");
            csv_render_secs += csv0.elapsed().as_secs_f64();
            let checks = chaos_checks(exp, results);
            print!("{}", checks_table(&checks));
            all_pass &= checks.iter().all(|c| c.pass);
        }
        let rows = chaos_rows(&CHAOS_LEVELS, &chaos_exps, &grouped);
        let summary_path = write_chaos_summary_csv(&rows, &args.out).expect("write chaos summary");
        println!("  wrote chaos series + {}", summary_path.display());
        Some(chaos_manifest(&rows))
    } else {
        None
    };

    // Optional elasticity sweep; same contract as the chaos sweep: its
    // own grid and manifest section, robustness verdicts gate the exit
    // code.
    let storm_fragment = if args.storm {
        let storm_exps = storm_experiments(args.seed);
        println!(
            "\nstorm sweep: 4 storm kinds x {} intensity levels {:?} + convergence cell",
            STORM_LEVELS.len(),
            STORM_LEVELS
        );
        let storm_outcomes = runner::run_grid_traced(&storm_exps, jobs, trace_level);
        if let Some(dir) = args.trace_out.as_deref() {
            std::fs::create_dir_all(dir).expect("create trace dir");
            for o in &storm_outcomes {
                let safe: String = o
                    .task
                    .label
                    .chars()
                    .map(|c| if c.is_alphanumeric() { c } else { '_' })
                    .collect();
                let mut body = o.trace_lines.join("\n");
                if !body.is_empty() {
                    body.push('\n');
                }
                std::fs::write(dir.join(format!("{}_{safe}.jsonl", o.task.name)), body)
                    .expect("write trace");
                std::fs::write(
                    dir.join(format!("{}_{safe}.ring", o.task.name)),
                    &o.trace_ring,
                )
                .expect("write ring trace");
            }
        }
        let grouped = runner::group_results(storm_outcomes, storm_exps.len());
        let csv0 = Instant::now();
        for (exp, results) in storm_exps.iter().zip(&grouped) {
            println!(
                "\n=== Storm {} ({} churn events, seed {}) ===",
                exp.name,
                exp.cluster.faults.len(),
                exp.seed
            );
            println!("{}", summary_table(results));
            write_figure_csvs_tagged(&exp.name, None, results, &args.out)
                .expect("write storm CSVs");
            write_tuner_epochs_csv(&exp.name, None, results, &args.out)
                .expect("write storm tuner-epoch CSV");
            write_metrics_csv(&exp.name, None, results, &args.out)
                .expect("write storm metrics CSV");
        }
        let rows = storm_rows(&storm_cells(), &storm_exps, &grouped);
        let summary_path = write_storm_summary_csv(&rows, &args.out).expect("write storm summary");
        csv_render_secs += csv0.elapsed().as_secs_f64();
        let checks = storm_checks(&rows);
        print!("{}", checks_table(&checks));
        all_pass &= checks.iter().all(|c| c.pass);
        println!("  wrote storm series + {}", summary_path.display());
        Some(storm_manifest(&rows))
    } else {
        None
    };

    // Optional mean-field cross-validation sweep: the analytic oracle's
    // fixed-point predictions next to simulated per-server means across
    // growing workload scales. Its shrinking-divergence checks gate the
    // exit code like the figure shape checks.
    let meanfield_fragment = if args.meanfield {
        let mf_exps = meanfield_experiments(args.seed);
        println!(
            "\nmeanfield sweep: scales {:?} x {} replicas x {} policies vs the analytic oracle",
            MEANFIELD_SCALES,
            MEANFIELD_REPLICAS,
            mf_exps[0].policies.len()
        );
        let mf_outcomes = runner::run_grid_traced(&mf_exps, jobs, trace_level);
        let grouped = runner::group_results(mf_outcomes, mf_exps.len());
        for (exp, results) in mf_exps.iter().zip(&grouped) {
            println!(
                "\n=== Meanfield {} ({} requests, {} file sets, seed {}) ===",
                exp.name,
                exp.workload.requests.len(),
                exp.workload.n_file_sets,
                exp.seed
            );
            println!("{}", summary_table(results));
        }
        let (rows, report) = meanfield_rows(&meanfield_grid(), &mf_exps, &grouped);
        let csv0 = Instant::now();
        let cells_path =
            write_meanfield_cells_csv(&rows, &args.out).expect("write meanfield cells");
        let conv_path =
            write_meanfield_convergence_csv(&report, &args.out).expect("write meanfield report");
        csv_render_secs += csv0.elapsed().as_secs_f64();
        let checks = meanfield_checks(&report);
        print!("{}", checks_table(&checks));
        all_pass &= checks.iter().all(|c| c.pass);
        println!("  wrote {} + {}", cells_path.display(), conv_path.display());
        Some(meanfield_manifest(&report))
    } else {
        None
    };

    // Flatten back to task order for the manifest.
    let outcomes: Vec<runner::TaskOutcome> = {
        let mut all: Vec<runner::TaskOutcome> = grouped.into_iter().flatten().collect();
        all.sort_by_key(|o| o.task.id);
        all
    };

    // Dump each task's JSONL trace (task order; names mirror the CSVs) and
    // calibrate the tracing overhead on a reduced figure-6 run.
    let overhead = args.trace_out.as_deref().map(|dir| {
        std::fs::create_dir_all(dir).expect("create trace dir");
        let mut written = 0usize;
        for o in &outcomes {
            let safe: String = o
                .task
                .label
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let stem = match &entries[o.task.experiment].tag {
                Some(t) => format!("{}_{t}_{safe}", o.task.name),
                None => format!("{}_{safe}", o.task.name),
            };
            let mut body = o.trace_lines.join("\n");
            if !body.is_empty() {
                body.push('\n');
            }
            std::fs::write(dir.join(format!("{stem}.jsonl")), body).expect("write trace");
            // The same trace as the binary ring dump `anu-inspect` reads.
            std::fs::write(dir.join(format!("{stem}.ring")), &o.trace_ring)
                .expect("write ring trace");
            written += 1;
        }
        println!("wrote {written} JSONL+ring traces to {}", dir.display());
        let probe = reduced(figure(6, args.seed).expect("figure 6 exists"), args.seed);
        let over = measure_trace_overhead(&probe);
        println!(
            "trace overhead (reduced fig6): off {:.0} ev/s, request-level {:.0} ev/s ({:+.2}%)",
            over.off_events_per_sec, over.on_events_per_sec, over.overhead_pct
        );
        over
    });

    // Optional partitioned multi-world probe: aggregate throughput of
    // independent derived-seed worlds saturating the worker pool.
    let multi_world = (args.multi_world > 0).then(|| {
        println!(
            "\nmulti-world: {} independent fig6 worlds at scale {} on {} workers",
            args.multi_world, args.multi_world_scale, jobs
        );
        let mw = run_multi_world(
            args.seed,
            args.multi_world,
            args.multi_world_scale,
            args.jobs,
        );
        println!(
            "multi-world aggregate: {} events in {:.2} s -> {:.0} ev/s across {} worlds",
            mw.sim_events, mw.wall_secs, mw.events_per_sec, mw.worlds
        );
        mw
    });

    let events: u64 = outcomes.iter().map(|o| o.result.summary.sim_events).sum();
    let manifest = runner::manifest(
        args.seed,
        jobs,
        args.scale,
        wall_secs,
        &outcomes,
        &verdicts,
        trace_level,
        overhead.as_ref(),
        chaos_fragment.as_ref(),
        storm_fragment.as_ref(),
        meanfield_fragment.as_ref(),
        bench.as_ref(),
        multi_world.as_ref(),
        csv_render_secs,
    );
    std::fs::write(&args.bench_out, manifest.render_pretty()).expect("write bench manifest");
    println!(
        "\n{} tasks, {events} simulated events in {wall_secs:.2} s on {jobs} workers ({:.0} events/s) -> {}",
        outcomes.len(),
        events as f64 / wall_secs.max(1e-9),
        args.bench_out.display()
    );
    println!(
        "overall: {}",
        if args.scale > 1 {
            "grid completed (shape checks skipped at scale > 1)"
        } else if all_pass {
            "all shape checks PASS"
        } else {
            "some shape checks FAILED"
        }
    );
    let bench_warn = args.bench_gate && bench.as_ref().is_some_and(|b| !b.gate_ok());
    std::process::exit(runner::gate_exit_code(all_pass, bench_warn));
}
