//! Deterministic parallel sweep engine.
//!
//! The paper's evaluation is a grid of {figure × policy × seed}
//! simulations, each an independent, fully deterministic unit of work.
//! This module enumerates that grid as [`SimTask`]s and drains it on a
//! fixed-size worker pool (std scoped threads over a shared atomic work
//! queue — no external dependencies). A [`Sweep`] is one such grid plus
//! what to do with its results; the `figures` binary runs every sweep
//! through the same steps and records the run in one [`manifest`].
//! Nothing here reads a clock except [`measure_trace_overhead`];
//! simulator speed is measured by the `e2e-bench` harness.
//!
//! ## Determinism contract
//!
//! Results are a pure function of the grid, never of the schedule:
//!
//! * every task's simulation inputs (workload, policy seed) are fixed at
//!   enumeration time — derived seeds come from
//!   [`anu_des::random::task_seed`]`(base_seed, task_id)`, a pure SplitMix64
//!   function of the task's stable id;
//! * workers only *pick* tasks through the shared queue; each simulation
//!   runs single-threaded and shares no mutable state with its siblings;
//! * outcomes are sorted by task id, so the returned order (and any CSV,
//!   trace, verdict or manifest derived from it) is identical at
//!   `--jobs 1` and `--jobs N`.

use crate::experiment::Experiment;
use crate::figures::ShapeCheck;
use crate::report::{write_figure_csvs_tagged, write_metrics_csv, write_tuner_epochs_csv};
use anu_cluster::RunResult;
use anu_core::hash::fnv1a64;
use anu_core::{Json, ToJson};
use anu_trace::{RingSink, TraceLevel};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Manifest schema identifier; bump when the shape of
/// `BENCH_figures.json` changes incompatibly. v2 added structured-trace
/// fields: per-task `trace_events`, top-level `trace_level` and
/// `trace_overhead`. v3 added the top-level `chaos` section (fault
/// intensity levels and per-cell availability metrics; `null` when the
/// sweep ran without `--chaos`). v4 added the top-level `scale` factor
/// the grid ran at, and a `bench` throughput-probe section. v5 added an
/// all-cores throughput section over independent seeds. v6 added the
/// per-task
/// `metrics` block (deterministic registry export: counters, gauges,
/// latency-histogram quantiles) and `profile` object (wall-clock seconds
/// attributed to event dispatch / policy decide / metrics update / trace
/// write — timing data, stripped before determinism comparisons), plus
/// the top-level `profile` totals section including CSV render time. v7
/// added the `storm` section (`null` unless `--storm` ran): the
/// elasticity sweep's kinds, levels, audit verdict, and per-cell
/// fairness/shed/scale rows. v8 added the `meanfield` section (`null`
/// unless `--meanfield` ran): the analytic-oracle convergence sweep's
/// scales, divergence ceiling, gate verdict, and per-(policy, scale)
/// divergence rows. v9 dropped the `bench.queue` block along with the
/// second event-queue backend. v10 dropped both throughput sections (the
/// v4 probe and the v5 all-cores run): simulator speed is measured by the
/// `e2e-bench` harness, not by the figures run. v11 dropped every timing
/// field (top-level `jobs`, `wall_secs`, `events_per_sec`,
/// `trace_overhead`, `profile`; per-task `wall_secs`, `events_per_sec`,
/// `profile`), the `scale` factor, and the per-task `metrics` blocks that
/// repeated `<figure>_metrics.csv`: the manifest is now byte-identical at
/// any worker count. v12 dropped the `chaos`, `storm` and `meanfield`
/// sections, which repeated their summary CSVs; renamed `figures[]` to
/// `verdicts[]`, one `{name, seed, pass, checks}` entry per figure, chaos
/// cell, storm sweep and meanfield sweep, so `all_pass` covers every
/// check the exit code does; widened `tasks[]` to every simulation of
/// the run; and added `outputs[]`, one `{file, bytes, fnv1a64}` pin per
/// file the run wrote.
pub const MANIFEST_SCHEMA: &str = "anu-bench-figures/v12";

/// Resolve a requested worker count: 0 (auto) becomes the number of
/// available cores, and anything else is used as-is.
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One cell of the sweep grid: a single `(experiment, policy)` simulation.
#[derive(Clone, Debug)]
pub struct SimTask {
    /// Stable id: the task's index in grid-enumeration order. Seed
    /// derivation and result ordering key off this, never off the
    /// execution schedule.
    pub id: u64,
    /// Index of the experiment in the submitted slice.
    pub experiment: usize,
    /// Index of the policy within that experiment's lineup.
    pub policy: usize,
    /// Experiment name (e.g. `fig8`), denormalized for reporting.
    pub name: String,
    /// Policy label (e.g. `anu-randomization`), denormalized for reporting.
    pub label: String,
    /// The experiment seed this task simulates under.
    pub seed: u64,
}

/// A completed [`SimTask`]: its simulation result and trace, both
/// identical at any worker count.
#[derive(Clone, Debug)]
pub struct TaskOutcome {
    /// The task that ran.
    pub task: SimTask,
    /// The simulation result (series + summary).
    pub result: RunResult,
    /// Structured trace of the run, one JSONL line per event, in emission
    /// order. Empty when the sweep ran at [`TraceLevel::Off`].
    pub trace_lines: Vec<String>,
}

/// Enumerate the sweep grid of `experiments` in declaration order:
/// experiment-major, then policy. Task ids are assigned sequentially, so
/// the grid — and every seed derived from it — is independent of how the
/// tasks later get scheduled.
pub fn plan(experiments: &[Experiment]) -> Vec<SimTask> {
    let mut tasks = Vec::new();
    for (ei, exp) in experiments.iter().enumerate() {
        for (pi, (label, _)) in exp.policies.iter().enumerate() {
            tasks.push(SimTask {
                id: tasks.len() as u64,
                experiment: ei,
                policy: pi,
                name: exp.name.clone(),
                label: label.clone(),
                seed: exp.seed,
            });
        }
    }
    tasks
}

/// Run every `(experiment, policy)` cell of the grid on `jobs` workers
/// (0 = auto) and return the outcomes in task order.
///
/// Workers share one atomic cursor over the planned task list: each
/// `fetch_add` claims the next undone task, so the pool drains the queue
/// without idle tails even when task durations are wildly uneven (a fig8
/// synthetic run costs ~10× a fig7 close-up). Each worker returns the
/// outcomes it ran with their task indices, and the joined outcomes are
/// sorted back into task order. A panicking simulation is re-raised when
/// its worker is joined and fails the whole sweep — partial grids are
/// never reported.
pub fn run_grid(experiments: &[Experiment], jobs: usize) -> Vec<TaskOutcome> {
    run_grid_traced(experiments, jobs, TraceLevel::Off)
}

/// [`run_grid`] with structured tracing: every task records its run into a
/// per-task binary [`RingSink`] at `level`, decoded to JSONL lines once
/// the simulation ends and returned as [`TaskOutcome::trace_lines`].
/// Tracing never schedules simulation events, so the results (and the
/// trace itself) stay byte-identical at any worker count;
/// [`TraceLevel::Off`] skips the sink entirely.
pub fn run_grid_traced(
    experiments: &[Experiment],
    jobs: usize,
    level: TraceLevel,
) -> Vec<TaskOutcome> {
    let tasks = plan(experiments);
    if tasks.is_empty() {
        return Vec::new();
    }
    let workers = effective_jobs(jobs).min(tasks.len()).max(1);
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, TaskOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ran = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break ran };
                        ran.push((i, run_task(task, &experiments[task.experiment], level)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Build policy `policy` of `exp` and simulate it, recording into a
/// binary [`RingSink`] when `level` is above [`TraceLevel::Off`].
fn simulate(exp: &Experiment, policy: usize, level: TraceLevel) -> (RunResult, Option<RingSink>) {
    let (label, kind) = &exp.policies[policy];
    let mut p = kind.build(&exp.cluster, &exp.workload, exp.seed);
    let (mut result, ring) = if level > TraceLevel::Off {
        let mut ring = RingSink::new(level);
        let r = anu_cluster::run_traced(&exp.cluster, &exp.workload, p.as_mut(), &mut ring);
        (r, Some(ring))
    } else {
        (
            anu_cluster::run(&exp.cluster, &exp.workload, p.as_mut()),
            None,
        )
    };
    result.policy = label.clone();
    (result, ring)
}

/// Run one task's simulation and render its trace, if any, to JSONL.
fn run_task(task: &SimTask, exp: &Experiment, level: TraceLevel) -> TaskOutcome {
    let (result, ring) = simulate(exp, task.policy, level);
    TaskOutcome {
        task: task.clone(),
        result,
        trace_lines: ring.map_or_else(Vec::new, |r| r.decode_lines()),
    }
}

/// Trace-overhead calibration: events/sec of the same experiment with
/// tracing off vs fully on ([`TraceLevel::Request`] into the binary
/// [`RingSink`]). Wall-clock data, so two runs never reproduce it exactly;
/// the `e2e-bench` harness reports it, the figures run does not.
#[derive(Clone, Copy, Debug)]
pub struct TraceOverhead {
    /// Simulated events per wall-clock second with the null sink.
    pub off_events_per_sec: f64,
    /// Events per second while recording a request-level binary trace.
    pub on_events_per_sec: f64,
    /// Relative slowdown in percent: `(off - on) / off * 100`.
    pub overhead_pct: f64,
}

/// Measure trace overhead on one experiment's first policy: run it once
/// with the null sink and once recording a request-level binary trace, and
/// compare events/sec. Each timed region covers the policy build and the
/// simulation; no JSONL is rendered. The simulation results are asserted
/// identical — tracing must observe, never perturb.
pub fn measure_trace_overhead(exp: &Experiment) -> TraceOverhead {
    let timed = |level: TraceLevel| {
        let t0 = Instant::now();
        let (result, _ring) = simulate(exp, 0, level);
        let secs = t0.elapsed().as_secs_f64();
        let events_per_sec = if secs > 0.0 {
            result.summary.sim_events as f64 / secs
        } else {
            0.0
        };
        (events_per_sec, result.summary)
    };
    // Warm-up run so neither measured pass pays first-touch costs.
    let _ = timed(TraceLevel::Off);
    let (off, off_summary) = timed(TraceLevel::Off);
    let (on, on_summary) = timed(TraceLevel::Request);
    assert_eq!(
        off_summary, on_summary,
        "tracing must not change simulation results"
    );
    let overhead_pct = if off > 0.0 {
        (off - on) / off * 100.0
    } else {
        0.0
    };
    TraceOverhead {
        off_events_per_sec: off,
        on_events_per_sec: on,
        overhead_pct,
    }
}

/// Regroup grid outcomes by experiment, preserving policy order — the
/// shape the per-figure check functions and CSV writers consume. The
/// returned vector has one entry per submitted experiment.
pub fn group_results(outcomes: &[TaskOutcome], n_experiments: usize) -> Vec<Vec<RunResult>> {
    let mut grouped: Vec<Vec<RunResult>> = Vec::new();
    grouped.resize_with(n_experiments, Vec::new);
    // Outcomes arrive in task order (experiment-major), so pushing in
    // sequence lands each result at its policy index.
    for o in outcomes {
        grouped[o.task.experiment].push(o.result.clone());
    }
    grouped
}

/// One verdict of the manifest: a figure, a chaos cell, or a whole storm
/// or meanfield sweep, with its checks.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// What was checked: an experiment name (`fig6`, `chaos_i10`) or a
    /// sweep name (`storm`, `meanfield`).
    pub name: String,
    /// Seed the checked runs were drawn from.
    pub seed: u64,
    /// The qualitative checks and their outcomes.
    pub checks: Vec<ShapeCheck>,
}

impl Verdict {
    /// Did every check pass?
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// What a sweep's `finish` step produced: the summary files it wrote and
/// its verdicts.
#[derive(Debug)]
pub struct Finished {
    /// Paths of the summary CSVs written.
    pub files: Vec<PathBuf>,
    /// The sweep's verdicts.
    pub verdicts: Vec<Verdict>,
}

/// One experiment of a sweep after its grid ran: its coordinates in the
/// sweep, the experiment, and its results in policy order.
#[derive(Clone, Copy, Debug)]
pub struct Cell<'a, C> {
    /// The cell's coordinates: a figure number, an intensity level, a
    /// `(kind, level)` or `(scale, replica)` pair.
    pub at: &'a C,
    /// The experiment the cell ran.
    pub exp: &'a Experiment,
    /// Its results, one per policy in lineup order.
    pub results: &'a [RunResult],
}

/// The type-erased `finish` step of a [`Sweep`].
type FinishFn = dyn Fn(&[Experiment], &[Vec<RunResult>], &Path) -> io::Result<Finished>;

/// One grid of the `figures` run — Figures 6–11, chaos, storm or
/// meanfield — and what to do with its results.
///
/// Every sweep goes through the same steps: run the grid, write the
/// per-run files (when [`Sweep::per_run_files`] is set), then
/// [`Sweep::finish`] writes the summary CSVs and returns the verdicts.
pub struct Sweep {
    /// Sweep name, as the run log shows it.
    pub name: &'static str,
    experiments: Vec<Experiment>,
    /// Whether each run writes its series, tuner-epoch and metrics CSVs
    /// and its JSONL trace. A sweep without them runs untraced.
    pub per_run_files: bool,
    /// How many trailing experiments are support runs: they run and
    /// trace, and only feed `finish` — no summary table, no CSVs.
    pub(crate) support: usize,
    finish: Box<FinishFn>,
}

impl Sweep {
    /// A sweep over `cells`, each an experiment with its coordinates.
    /// `finish` receives every cell with its results and `--out`, writes
    /// the sweep's summary CSVs, and returns them with its verdicts.
    pub fn new<C: 'static>(
        name: &'static str,
        cells: Vec<(C, Experiment)>,
        per_run_files: bool,
        finish: impl Fn(&[Cell<'_, C>], &Path) -> io::Result<Finished> + 'static,
    ) -> Sweep {
        let (coords, experiments): (Vec<C>, Vec<Experiment>) = cells.into_iter().unzip();
        Sweep {
            name,
            experiments,
            per_run_files,
            support: 0,
            finish: Box::new(move |exps, grouped, out| {
                let cells: Vec<Cell<'_, C>> = coords
                    .iter()
                    .zip(exps)
                    .zip(grouped)
                    .map(|((at, exp), results)| Cell { at, exp, results })
                    .collect();
                finish(&cells, out)
            }),
        }
    }

    /// The grid, in run order.
    pub fn experiments(&self) -> &[Experiment] {
        &self.experiments
    }

    /// Run the grid on `jobs` workers (0 = auto), tracing at `level` —
    /// or at [`TraceLevel::Off`] when the sweep writes no per-run files.
    /// Returns the outcomes in task order, and their results grouped per
    /// experiment by [`group_results`].
    pub fn run(&self, jobs: usize, level: TraceLevel) -> (Vec<TaskOutcome>, Vec<Vec<RunResult>>) {
        let level = if self.per_run_files {
            level
        } else {
            TraceLevel::Off
        };
        let outcomes = run_grid_traced(&self.experiments, jobs, level);
        let grouped = group_results(&outcomes, self.experiments.len());
        (outcomes, grouped)
    }

    /// The experiments whose results are shown and written: all but the
    /// trailing support runs.
    pub fn shown(&self) -> &[Experiment] {
        &self.experiments[..self.experiments.len() - self.support]
    }

    /// Write the per-run files, when the sweep has them: each run's JSONL
    /// trace to `trace_out`, when given, as `<experiment>_<label>.jsonl`,
    /// and the series, tuner-epoch and metrics CSVs of each shown
    /// experiment to `out`, from what [`Sweep::run`] returned. Returns
    /// the written paths, or the directory a write failed in with the
    /// error.
    pub fn write_run_files(
        &self,
        outcomes: &[TaskOutcome],
        grouped: &[Vec<RunResult>],
        out: &Path,
        trace_out: Option<&Path>,
    ) -> Result<Vec<PathBuf>, (PathBuf, io::Error)> {
        let mut written = Vec::new();
        if !self.per_run_files {
            return Ok(written);
        }
        if let Some(dir) = trace_out {
            let trace = |o: &TaskOutcome| -> io::Result<PathBuf> {
                // Non-alphanumerics in the label become `_`, as in CSV names.
                let label: String = o
                    .task
                    .label
                    .chars()
                    .map(|c| if c.is_alphanumeric() { c } else { '_' })
                    .collect();
                let path = dir.join(format!("{}_{label}.jsonl", o.task.name));
                let lines: String = o.trace_lines.iter().map(|l| format!("{l}\n")).collect();
                std::fs::create_dir_all(dir)?;
                std::fs::write(&path, lines)?;
                Ok(path)
            };
            for o in outcomes {
                written.push(trace(o).map_err(|e| (dir.to_path_buf(), e))?);
            }
        }
        for (exp, results) in self.shown().iter().zip(grouped) {
            let csvs = || -> io::Result<Vec<PathBuf>> {
                let mut paths = write_figure_csvs_tagged(&exp.name, None, results, out)?;
                paths.push(write_tuner_epochs_csv(&exp.name, None, results, out)?);
                paths.push(write_metrics_csv(&exp.name, None, results, out)?);
                Ok(paths)
            };
            written.extend(csvs().map_err(|e| (out.to_path_buf(), e))?);
        }
        Ok(written)
    }

    /// Write the summary CSVs to `out` and return them with the verdicts.
    /// `grouped` is what [`Sweep::run`] returned.
    pub fn finish(&self, grouped: &[Vec<RunResult>], out: &Path) -> io::Result<Finished> {
        (self.finish)(&self.experiments, grouped, out)
    }
}

/// One file a run wrote, pinned by length and FNV-1a hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    /// File name, without its directory.
    pub file: String,
    /// Length in bytes.
    pub bytes: u64,
    /// [`anu_core::hash::fnv1a64`] of the contents.
    pub fnv1a64: u64,
}

impl Output {
    /// Read the written file at `path` back and pin it.
    pub fn read(path: &Path) -> io::Result<Output> {
        let bytes = std::fs::read(path)?;
        Ok(Output {
            file: path
                .file_name()
                .map_or_else(String::new, |f| f.to_string_lossy().into_owned()),
            bytes: bytes.len() as u64,
            fnv1a64: fnv1a64(&bytes),
        })
    }
}

impl ToJson for Output {
    /// The manifest's `outputs[]` entry. The hash is 16 hex digits in a
    /// string, because JSON readers lose integers above 2^53.
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("file", Json::str(&self.file)),
            ("bytes", Json::u64(self.bytes)),
            ("fnv1a64", Json::str(format!("{:016x}", self.fnv1a64))),
        ])
    }
}

/// Build the machine-readable run manifest (`BENCH_figures.json`).
///
/// Every field — task grid, seeds, simulated event counts, verdicts,
/// output hashes — is a pure function of the seed and the grid, so the
/// rendered manifest is byte-identical at any worker count and CI
/// compares it with `cmp`. `all_pass` is the AND of every verdict, the
/// same condition as the `figures` exit code 0. `outputs` is sorted by
/// file name.
pub fn manifest(
    base_seed: u64,
    outcomes: &[TaskOutcome],
    verdicts: &[Verdict],
    trace_level: TraceLevel,
    outputs: &[Output],
) -> Json {
    let total_events: u64 = outcomes.iter().map(|o| o.result.summary.sim_events).sum();
    let tasks: Vec<Json> = outcomes
        .iter()
        .enumerate()
        .map(|(id, o)| {
            Json::obj(vec![
                ("id", Json::usize(id)),
                ("experiment", Json::str(&o.task.name)),
                ("policy", Json::str(&o.task.label)),
                ("seed", Json::u64(o.task.seed)),
                ("sim_events", Json::u64(o.result.summary.sim_events)),
                (
                    "completed_requests",
                    Json::u64(o.result.summary.completed_requests),
                ),
                ("migrations", Json::u64(o.result.summary.migrations)),
                ("trace_events", Json::usize(o.trace_lines.len())),
            ])
        })
        .collect();
    let verdict_rows: Vec<Json> = verdicts
        .iter()
        .map(|v| {
            let checks: Vec<Json> = v
                .checks
                .iter()
                .map(|c| {
                    Json::obj(vec![
                        ("claim", Json::str(&c.claim)),
                        ("measured", Json::str(&c.measured)),
                        ("pass", Json::bool(c.pass)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("name", Json::str(&v.name)),
                ("seed", Json::u64(v.seed)),
                ("pass", Json::bool(v.pass())),
                ("checks", Json::arr(checks)),
            ])
        })
        .collect();
    let mut sorted: Vec<&Output> = outputs.iter().collect();
    sorted.sort_by(|a, b| a.file.cmp(&b.file));
    let output_rows: Vec<Json> = sorted.into_iter().map(ToJson::to_json).collect();
    Json::obj(vec![
        ("schema", Json::str(MANIFEST_SCHEMA)),
        ("base_seed", Json::u64(base_seed)),
        ("tasks_total", Json::usize(outcomes.len())),
        ("sim_events_total", Json::u64(total_events)),
        ("trace_level", Json::str(trace_level.name())),
        ("all_pass", Json::bool(verdicts.iter().all(Verdict::pass))),
        ("tasks", Json::arr(tasks)),
        ("verdicts", Json::arr(verdict_rows)),
        ("outputs", Json::arr(output_rows)),
    ])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::experiment::PolicyKind;
    use anu_cluster::ClusterConfig;
    use anu_core::TuningConfig;
    use anu_workload::{CostModel, SyntheticConfig, WeightDist};

    /// Three policies on a 20-set, 2,000-request synthetic workload.
    pub(crate) fn tiny_experiment(name: &str, seed: u64) -> Experiment {
        Experiment {
            name: name.into(),
            cluster: ClusterConfig::paper(),
            workload: SyntheticConfig {
                n_file_sets: 20,
                total_requests: 2_000,
                duration_secs: 400.0,
                weights: WeightDist::PowerOfUniform { alpha: 50.0 },
                mean_cost_secs: 0.3,
                cost: CostModel::UniformSpread,
                seed,
            }
            .generate(),
            policies: vec![
                ("simple".into(), PolicyKind::SimpleRandom),
                ("rr".into(), PolicyKind::RoundRobin),
                (
                    "anu".into(),
                    PolicyKind::Anu {
                        tuning: TuningConfig::paper(),
                    },
                ),
            ],
            seed,
        }
    }

    fn grid() -> Vec<Experiment> {
        vec![
            tiny_experiment("expA", 5),
            tiny_experiment("expB", 6),
            tiny_experiment("expC", 7),
        ]
    }

    #[test]
    fn plan_enumerates_in_declaration_order() {
        let exps = grid();
        let tasks = plan(&exps);
        assert_eq!(tasks.len(), 9);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id, i as u64);
            assert_eq!(t.experiment, i / 3);
            assert_eq!(t.policy, i % 3);
        }
        assert_eq!(tasks[0].label, "simple");
        assert_eq!(tasks[4].name, "expB");
        assert_eq!(tasks[4].label, "rr");
    }

    #[test]
    fn pool_drains_queue_at_any_worker_count() {
        let exps = grid();
        let serial = run_grid(&exps, 1);
        assert_eq!(serial.len(), 9);
        for workers in [2usize, 8] {
            let parallel = run_grid(&exps, workers);
            assert_eq!(parallel.len(), serial.len(), "{workers} workers");
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.task.id, b.task.id);
                assert_eq!(a.task.label, b.task.label);
                assert_eq!(a.result.policy, b.result.policy);
                assert_eq!(
                    a.result.summary, b.result.summary,
                    "task {} differs at {workers} workers",
                    a.task.id
                );
            }
        }
    }

    #[test]
    fn group_results_preserves_policy_order() {
        let exps = grid();
        let grouped = group_results(&run_grid(&exps, 4), exps.len());
        assert_eq!(grouped.len(), 3);
        for results in &grouped {
            let labels: Vec<&str> = results.iter().map(|r| r.policy.as_str()).collect();
            assert_eq!(labels, ["simple", "rr", "anu"]);
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_grid(&[], 4).is_empty());
        assert!(plan(&[]).is_empty());
    }

    fn verdict(name: &str, pass: bool) -> Verdict {
        let check = |pass| ShapeCheck {
            claim: "c".into(),
            measured: "m".into(),
            pass,
        };
        Verdict {
            name: name.into(),
            seed: 5,
            checks: vec![check(true), check(pass)],
        }
    }

    /// A sweep over the tiny grid whose `finish` writes one summary file
    /// and gives one passing verdict.
    fn tiny_sweep() -> Sweep {
        let cells = grid().into_iter().map(|e| (e.name.clone(), e)).collect();
        Sweep::new("tiny", cells, true, |cells: &[Cell<'_, String>], out| {
            let path = out.join("tiny_summary.csv");
            let names: Vec<&str> = cells.iter().map(|c| c.at.as_str()).collect();
            std::fs::write(&path, names.join("\n"))?;
            Ok(Finished {
                files: vec![path],
                verdicts: vec![verdict("tiny", true)],
            })
        })
    }

    /// Run `sweep` the way the `figures` binary does — traces, per-run
    /// CSVs, then `finish` — into `dir`, and pin every file written.
    fn write_and_pin(sweep: &Sweep, jobs: usize, dir: &Path) -> (Vec<TaskOutcome>, Vec<Output>) {
        let (outcomes, grouped) = sweep.run(jobs, TraceLevel::Epoch);
        let trace_dir = dir.join("trace");
        let mut written = sweep
            .write_run_files(&outcomes, &grouped, dir, Some(&trace_dir))
            .unwrap();
        written.extend(sweep.finish(&grouped, dir).unwrap().files);
        let pins = written.iter().map(|p| Output::read(p).unwrap()).collect();
        (outcomes, pins)
    }

    /// The keys of a JSON object, comma-joined.
    fn keys(j: &Json) -> String {
        let Json::Obj(pairs) = j else {
            panic!("expected an object, got {j:?}")
        };
        pairs
            .iter()
            .map(|(k, _)| k.as_str())
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn manifest_bytes_identical_across_worker_counts() {
        let sweep = tiny_sweep();
        let verdicts = vec![verdict("fig8", true)];
        let root = std::env::temp_dir().join(format!("anu_manifest_jobs_{}", std::process::id()));
        let render = |jobs: usize| {
            let (outcomes, pins) = write_and_pin(&sweep, jobs, &root.join(format!("jobs{jobs}")));
            manifest(5, &outcomes, &verdicts, TraceLevel::Epoch, &pins).render_pretty()
        };
        let serial = render(1);
        assert!(serial.contains("\"sim_events\"") && serial.contains("\"fnv1a64\""));
        assert_eq!(
            serial,
            render(8),
            "manifest bytes, outputs[] included, differ across worker counts"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn outputs_pin_every_written_file_exactly_once() {
        let dir = std::env::temp_dir().join(format!("anu_manifest_outputs_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // A file the run does not write stays out of the list.
        std::fs::write(dir.join("stale.csv"), "old").unwrap();
        let (outcomes, pins) = write_and_pin(&tiny_sweep(), 2, &dir);
        let m = manifest(5, &outcomes, &[], TraceLevel::Epoch, &pins);
        let listed: Vec<String> = m
            .get("outputs")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|o| ["file", "bytes", "fnv1a64"].map(|k| o.get(k).unwrap().render()))
            .map(|fields| fields.join(" "))
            .collect();
        // Every file on disk but the stale one, sorted by name, with its
        // length and hash computed here.
        let mut on_disk: Vec<(String, Vec<u8>)> = [dir.clone(), dir.join("trace")]
            .iter()
            .flat_map(|d| std::fs::read_dir(d).unwrap())
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_file() && !p.ends_with("stale.csv"))
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        on_disk.sort();
        let expected: Vec<String> = on_disk
            .iter()
            .map(|(f, b)| format!("\"{f}\" {} \"{:016x}\"", b.len(), fnv1a64(b)))
            .collect();
        // 3 experiments x 3 policies: 9 traces, 9 series, 3 tuner-epoch
        // and 3 metrics CSVs, and the summary.
        assert_eq!(expected.len(), 9 + 9 + 3 + 3 + 1);
        assert_eq!(listed, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_pass_covers_every_verdict() {
        let outcomes = run_grid(&[tiny_experiment("fig8", 5)], 2);
        let all_pass = |verdicts: &[Verdict]| {
            let m = manifest(5, &outcomes, verdicts, TraceLevel::Off, &[]);
            m.get("all_pass").unwrap().as_bool().unwrap()
        };
        let names = ["fig8", "chaos_i10", "storm", "meanfield"];
        assert!(all_pass(&names.map(|n| verdict(n, true))));
        // A failing chaos, storm or meanfield verdict fails the run even
        // when every figure passes: `all_pass` means "exit code 0".
        for failing in &names[1..] {
            assert!(
                !all_pass(&names.map(|n| verdict(n, n != *failing))),
                "{failing}"
            );
        }
    }

    #[test]
    fn manifest_shape_is_schema_stable() {
        let outcomes = run_grid(&[tiny_experiment("fig8", 5)], 2);
        let pins = vec![Output {
            file: "fig8_rr.csv".into(),
            bytes: 3,
            fnv1a64: 0x0123_4567_89ab_cdef,
        }];
        let m = manifest(
            5,
            &outcomes,
            &[verdict("fig8", false)],
            TraceLevel::Epoch,
            &pins,
        );
        assert_eq!(m.get("schema").unwrap().as_str().unwrap(), MANIFEST_SCHEMA);
        assert_eq!(MANIFEST_SCHEMA, "anu-bench-figures/v12");
        assert_eq!(m.get("base_seed").unwrap().as_u64().unwrap(), 5);
        assert_eq!(m.get("tasks_total").unwrap().as_usize().unwrap(), 3);
        assert_eq!(m.get("trace_level").unwrap().as_str().unwrap(), "epoch");
        // The exact top-level shape: no timing field, scale factor,
        // throughput section or per-sweep section, not even as null.
        assert_eq!(
            keys(&m),
            "schema,base_seed,tasks_total,sim_events_total,trace_level,all_pass,tasks,verdicts,\
             outputs"
        );
        assert!(!m.get("all_pass").unwrap().as_bool().unwrap());
        let tasks = m.get("tasks").unwrap().as_arr().unwrap();
        assert_eq!(tasks.len(), 3);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(
                keys(t),
                "id,experiment,policy,seed,sim_events,completed_requests,migrations,trace_events"
            );
            assert_eq!(t.get("id").unwrap().as_usize().unwrap(), i);
            assert!(t.get("sim_events").unwrap().as_u64().unwrap() > 0);
        }
        let verdicts = m.get("verdicts").unwrap().as_arr().unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(keys(&verdicts[0]), "name,seed,pass,checks");
        assert_eq!(verdicts[0].get("name").unwrap().as_str().unwrap(), "fig8");
        assert!(!verdicts[0].get("pass").unwrap().as_bool().unwrap());
        let outputs = m.get("outputs").unwrap().as_arr().unwrap();
        assert_eq!(keys(&outputs[0]), "file,bytes,fnv1a64");
        let hash = outputs[0].get("fnv1a64").unwrap().as_str().unwrap();
        assert_eq!(hash, "0123456789abcdef");
        // Round-trips through the parser.
        assert_eq!(Json::parse(&m.render_pretty()).unwrap(), m);
    }

    #[test]
    fn traces_are_identical_across_worker_counts() {
        let exps = vec![tiny_experiment("expT", 9)];
        let serial = run_grid_traced(&exps, 1, TraceLevel::Request);
        let parallel = run_grid_traced(&exps, 8, TraceLevel::Request);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert!(!a.trace_lines.is_empty(), "request level records events");
            assert_eq!(
                a.trace_lines, b.trace_lines,
                "task {} trace differs across worker counts",
                a.task.id
            );
        }
        // Off-level sweeps carry no trace payload.
        let off = run_grid(&exps, 2);
        assert!(off.iter().all(|o| o.trace_lines.is_empty()));
    }

    #[test]
    fn trace_overhead_measures_both_modes() {
        let exp = tiny_experiment("expO", 11);
        let over = measure_trace_overhead(&exp);
        assert!(over.off_events_per_sec > 0.0);
        assert!(over.on_events_per_sec > 0.0);
        assert!(over.overhead_pct < 100.0);
    }

    #[test]
    fn effective_jobs_resolves_auto() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
    }
}
