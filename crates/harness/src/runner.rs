//! Deterministic parallel sweep engine.
//!
//! The paper's evaluation is a grid of {figure × policy × seed}
//! simulations, each an independent, fully deterministic unit of work.
//! This module enumerates that grid as [`SimTask`]s and drains it on a
//! fixed-size worker pool (std scoped threads over a shared atomic work
//! queue — no external dependencies), recording per-task wall time and
//! simulated-event throughput as it goes.
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
//! * outcomes are stored by task id, so the returned order (and any CSV or
//!   verdict derived from it) is identical at `--jobs 1` and `--jobs N`.
//!
//! Only the timing fields of a [`TaskOutcome`] (wall seconds, events/sec)
//! vary between runs; [`strip_timing`] removes them from a manifest so two
//! runs can be compared for semantic equality.

use crate::experiment::Experiment;
use crate::figures::ShapeCheck;
use anu_cluster::{ProfileScope, RunProfiler, RunResult};
use anu_core::Json;
use anu_trace::{NullSink, RingSink, TraceLevel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
/// `e2e-bench` harness, not by the figures run.
pub const MANIFEST_SCHEMA: &str = "anu-bench-figures/v10";

/// Requested worker count for [`Experiment::run_all`] when the caller does
/// not pass one explicitly; 0 means "one worker per available core".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the worker count used by [`Experiment::run_all`] (and therefore by
/// every sweep study) when no explicit count is given. 0 restores the
/// default of one worker per available core.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// Resolve a requested worker count: 0 (auto) becomes the number of
/// available cores, and anything else is used as-is.
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    let configured = DEFAULT_JOBS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
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

/// A completed [`SimTask`]: its simulation result plus performance
/// accounting. Everything except `wall_secs` / `events_per_sec` is
/// deterministic.
#[derive(Clone, Debug)]
pub struct TaskOutcome {
    /// The task that ran.
    pub task: SimTask,
    /// The simulation result (series + summary), identical at any worker
    /// count.
    pub result: RunResult,
    /// Wall-clock seconds this task's simulation took (timing field).
    pub wall_secs: f64,
    /// Simulated events per wall-clock second (timing field).
    pub events_per_sec: f64,
    /// Structured trace of the run, one JSONL line per event, in emission
    /// order. Empty when the sweep ran at [`TraceLevel::Off`]. Fully
    /// deterministic: byte-identical at any worker count.
    pub trace_lines: Vec<String>,
    /// The same trace serialized in the binary ring dump format
    /// ([`RingSink::to_bytes`]), for `.ring` artifacts `anu-inspect`
    /// reads. Empty at [`TraceLevel::Off`]. Byte-deterministic.
    pub trace_ring: Vec<u8>,
    /// Wall-clock self-profile: where this task's real time went
    /// (timing data, like `wall_secs`).
    pub profile: TaskProfile,
}

/// Wall-clock seconds of one task attributed to coarse subsystems.
///
/// `policy_decide` and `metrics_update` come from scoped [`RunProfiler`]
/// callbacks at tick/fault boundaries; `trace_write` is the ring→JSONL
/// decode after the timed simulation region; `event_dispatch` is the
/// remainder of the simulation wall time — the event loop proper. Pure
/// timing data: two runs never reproduce it, so the manifest treats the
/// whole `profile` object as a timing field (see [`TIMING_FIELDS`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskProfile {
    /// Wall seconds of the timed simulation region (== `wall_secs`).
    pub total_secs: f64,
    /// Seconds inside policy callbacks (`on_tick`, `on_fail`,
    /// `on_recover`, epoch handoff).
    pub policy_decide_secs: f64,
    /// Seconds folding local accumulators into the metrics registry.
    pub metrics_update_secs: f64,
    /// Seconds decoding the binary ring to JSONL lines (outside the
    /// timed simulation region; zero for untraced tasks).
    pub trace_write_secs: f64,
}

impl TaskProfile {
    /// Simulation wall time not attributed to a scoped subsystem: the
    /// event loop itself (dispatch, routing, FIFO service, tracing
    /// appends).
    pub fn event_dispatch_secs(&self) -> f64 {
        (self.total_secs - self.policy_decide_secs - self.metrics_update_secs).max(0.0)
    }

    /// Manifest fragment: seconds per subsystem plus each subsystem's
    /// share of the accounted total (simulation + trace decode).
    pub fn to_json(&self) -> Json {
        let accounted = self.total_secs + self.trace_write_secs;
        let share = |s: f64| {
            if accounted > 0.0 {
                s / accounted
            } else {
                0.0
            }
        };
        let dispatch = self.event_dispatch_secs();
        Json::obj(vec![
            ("total_secs", Json::f64(self.total_secs)),
            ("event_dispatch_secs", Json::f64(dispatch)),
            ("policy_decide_secs", Json::f64(self.policy_decide_secs)),
            ("metrics_update_secs", Json::f64(self.metrics_update_secs)),
            ("trace_write_secs", Json::f64(self.trace_write_secs)),
            ("event_dispatch_share", Json::f64(share(dispatch))),
            (
                "policy_decide_share",
                Json::f64(share(self.policy_decide_secs)),
            ),
            (
                "metrics_update_share",
                Json::f64(share(self.metrics_update_secs)),
            ),
            ("trace_write_share", Json::f64(share(self.trace_write_secs))),
        ])
    }

    /// Fold another task's profile into this one (for the manifest's
    /// top-level totals).
    pub fn accumulate(&mut self, other: &TaskProfile) {
        self.total_secs += other.total_secs;
        self.policy_decide_secs += other.policy_decide_secs;
        self.metrics_update_secs += other.metrics_update_secs;
        self.trace_write_secs += other.trace_write_secs;
    }
}

/// [`RunProfiler`] backed by `Instant`: accumulates elapsed wall time per
/// scope. Scopes never nest (the world holds one at a time), so a single
/// pending start mark suffices.
struct WallProfiler {
    profile: TaskProfile,
    since: Option<Instant>,
}

impl WallProfiler {
    fn new() -> Self {
        WallProfiler {
            profile: TaskProfile::default(),
            since: None,
        }
    }
}

impl RunProfiler for WallProfiler {
    fn enter(&mut self, _scope: ProfileScope) {
        self.since = Some(Instant::now());
    }

    fn exit(&mut self, scope: ProfileScope) {
        let Some(t0) = self.since.take() else { return };
        let secs = t0.elapsed().as_secs_f64();
        match scope {
            ProfileScope::PolicyDecide => self.profile.policy_decide_secs += secs,
            ProfileScope::MetricsUpdate => self.profile.metrics_update_secs += secs,
        }
    }
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
/// synthetic run costs ~10× a fig7 close-up). A panicking simulation
/// propagates out of the scope and fails the whole sweep — partial grids
/// are never reported.
pub fn run_grid(experiments: &[Experiment], jobs: usize) -> Vec<TaskOutcome> {
    run_grid_traced(experiments, jobs, TraceLevel::Off)
}

/// [`run_grid`] with structured tracing: every task records its run into a
/// per-task binary [`RingSink`] at `level`, decoded to JSONL lines after
/// the task's wall time is measured and returned as
/// [`TaskOutcome::trace_lines`]. Tracing never schedules simulation events,
/// so the results (and the trace itself) stay byte-identical at any worker
/// count; [`TraceLevel::Off`] skips the sink entirely.
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
    let done: Vec<Mutex<Option<TaskOutcome>>> = tasks.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let outcome = run_task(task, &experiments[task.experiment], level);
                // anu-lint: allow(panic) -- slot mutexes are uncontended (each task writes its own) and a poisoned lock means a sibling already aborted the sweep
                *done[i].lock().expect("unpoisoned slot") = Some(outcome);
            });
        }
    });

    done.into_iter()
        .map(|slot| {
            // anu-lint: allow(panic) -- the scope joins every worker, so each slot was filled exactly once
            slot.into_inner().expect("unpoisoned slot").expect("filled")
        })
        .collect()
}

/// Run one task's simulation, timing it.
///
/// Traced runs record into a binary [`RingSink`] and the wall clock stops
/// *before* the sink is decoded: `wall_secs` / `events_per_sec` measure
/// the simulation plus the fixed-width binary append only. The JSONL
/// rendering cost is paid at flush, outside the timed region, which is
/// what keeps the trace tax out of every recorded throughput number.
fn run_task(task: &SimTask, exp: &Experiment, level: TraceLevel) -> TaskOutcome {
    let (label, kind) = &exp.policies[task.policy];
    let mut profiler = WallProfiler::new();
    let t0 = Instant::now();
    let mut policy = kind.build(&exp.cluster, &exp.workload, exp.seed);
    let (mut result, sink) = if level > TraceLevel::Off {
        let mut ring = RingSink::new(level);
        let r = anu_cluster::run_traced_profiled(
            &exp.cluster,
            &exp.workload,
            policy.as_mut(),
            &mut ring,
            &mut profiler,
        );
        (r, Some(ring))
    } else {
        let r = anu_cluster::run_traced_profiled(
            &exp.cluster,
            &exp.workload,
            policy.as_mut(),
            &mut NullSink,
            &mut profiler,
        );
        (r, None)
    };
    result.policy = label.clone();
    let wall_secs = t0.elapsed().as_secs_f64();
    // Trace flush happens outside the timed region and is attributed to
    // the `trace_write` profile bucket: serialize the binary dump first
    // (cheap copy), then pay the JSONL render.
    let flush0 = Instant::now();
    let (trace_lines, trace_ring) = match sink {
        Some(ring) => (ring.decode_lines(), ring.to_bytes()),
        None => (Vec::new(), Vec::new()),
    };
    let mut profile = profiler.profile;
    profile.total_secs = wall_secs;
    profile.trace_write_secs = flush0.elapsed().as_secs_f64();
    let events_per_sec = if wall_secs > 0.0 {
        result.summary.sim_events as f64 / wall_secs
    } else {
        0.0
    };
    TaskOutcome {
        task: task.clone(),
        result,
        wall_secs,
        events_per_sec,
        trace_lines,
        trace_ring,
        profile,
    }
}

/// Trace-overhead calibration: events/sec of the same experiment with
/// tracing off vs fully on ([`TraceLevel::Request`] into the binary
/// [`RingSink`]; JSONL decode happens outside the timed region, as in any
/// traced sweep). Pure timing data — two runs never reproduce it exactly,
/// so the manifest treats it as a timing field (see [`TIMING_FIELDS`]).
#[derive(Clone, Copy, Debug)]
pub struct TraceOverhead {
    /// Simulated events per wall-clock second with the null sink.
    pub off_events_per_sec: f64,
    /// Events per second while recording a request-level JSONL trace.
    pub on_events_per_sec: f64,
    /// Relative slowdown in percent: `(off - on) / off * 100`.
    pub overhead_pct: f64,
}

impl TraceOverhead {
    /// Manifest fragment.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("off_events_per_sec", Json::f64(self.off_events_per_sec)),
            ("on_events_per_sec", Json::f64(self.on_events_per_sec)),
            ("overhead_pct", Json::f64(self.overhead_pct)),
        ])
    }
}

/// Measure trace overhead on one experiment's first policy: run it once
/// with the null sink and once recording a request-level binary trace, and
/// compare events/sec. The simulation results are asserted identical —
/// tracing must observe, never perturb.
pub fn measure_trace_overhead(exp: &Experiment) -> TraceOverhead {
    let timed = |level: TraceLevel| {
        let tasks = plan(std::slice::from_ref(exp));
        let o = run_task(&tasks[0], exp, level);
        (o.events_per_sec, o.result.summary)
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
pub fn group_results(outcomes: Vec<TaskOutcome>, n_experiments: usize) -> Vec<Vec<RunResult>> {
    let mut grouped: Vec<Vec<RunResult>> = Vec::new();
    grouped.resize_with(n_experiments, Vec::new);
    // Outcomes arrive in task order (experiment-major), so pushing in
    // sequence lands each result at its policy index.
    for o in outcomes {
        grouped[o.task.experiment].push(o.result);
    }
    grouped
}

/// One figure's shape-check verdicts for the manifest.
#[derive(Clone, Debug)]
pub struct FigureVerdict {
    /// Paper figure number (6–11).
    pub figure: u32,
    /// Seed the figure ran under.
    pub seed: u64,
    /// The qualitative checks and their outcomes.
    pub checks: Vec<ShapeCheck>,
}

impl FigureVerdict {
    /// Did every check pass?
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// Build the machine-readable run manifest (`BENCH_figures.json`).
///
/// The schema is stable so CI can archive one manifest per commit and
/// future changes can regress against the trajectory: timing fields
/// (`wall_secs`, `events_per_sec`, `jobs`) measure the run; everything
/// else — task grid, seeds, simulated event counts, verdicts — is
/// deterministic and must be identical at any worker count (see
/// [`strip_timing`]).
///
/// `chaos` is the [`crate::chaos::chaos_manifest`] fragment when the run
/// swept fault intensities, `None` otherwise (serialized as `null`);
/// `storm` likewise the [`crate::storm::storm_manifest`] fragment when
/// the elasticity sweep ran. `scale` is the factor the grid's workloads
/// were multiplied by (1 for the canonical figures).
// One parameter per manifest section, called from exactly one place (the
// figures binary); a builder would be ceremony without safety.
#[allow(clippy::too_many_arguments)]
pub fn manifest(
    base_seed: u64,
    jobs: usize,
    scale: u64,
    wall_secs: f64,
    outcomes: &[TaskOutcome],
    verdicts: &[FigureVerdict],
    trace_level: TraceLevel,
    overhead: Option<&TraceOverhead>,
    chaos: Option<&Json>,
    storm: Option<&Json>,
    meanfield: Option<&Json>,
    csv_render_secs: f64,
) -> Json {
    let total_events: u64 = outcomes.iter().map(|o| o.result.summary.sim_events).sum();
    let events_per_sec = if wall_secs > 0.0 {
        total_events as f64 / wall_secs
    } else {
        0.0
    };
    let mut totals = TaskProfile::default();
    for o in outcomes {
        totals.accumulate(&o.profile);
    }
    let tasks: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            Json::obj(vec![
                ("id", Json::u64(o.task.id)),
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
                ("metrics", o.result.metrics.to_json()),
                ("wall_secs", Json::f64(o.wall_secs)),
                ("events_per_sec", Json::f64(o.events_per_sec)),
                ("profile", o.profile.to_json()),
            ])
        })
        .collect();
    let figures: Vec<Json> = verdicts
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
                ("figure", Json::u32(v.figure)),
                ("seed", Json::u64(v.seed)),
                ("pass", Json::bool(v.pass())),
                ("checks", Json::arr(checks)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(MANIFEST_SCHEMA)),
        ("base_seed", Json::u64(base_seed)),
        ("jobs", Json::usize(jobs)),
        ("scale", Json::u64(scale)),
        ("tasks_total", Json::usize(outcomes.len())),
        ("sim_events_total", Json::u64(total_events)),
        ("wall_secs", Json::f64(wall_secs)),
        ("events_per_sec", Json::f64(events_per_sec)),
        ("trace_level", Json::str(trace_level.name())),
        (
            "trace_overhead",
            overhead.map_or(Json::Null, TraceOverhead::to_json),
        ),
        (
            "all_pass",
            Json::bool(verdicts.iter().all(FigureVerdict::pass)),
        ),
        ("chaos", chaos.cloned().unwrap_or(Json::Null)),
        ("storm", storm.cloned().unwrap_or(Json::Null)),
        ("meanfield", meanfield.cloned().unwrap_or(Json::Null)),
        (
            "profile",
            Json::obj(vec![
                ("tasks", totals.to_json()),
                ("csv_render_secs", Json::f64(csv_render_secs)),
            ]),
        ),
        ("tasks", Json::arr(tasks)),
        ("figures", Json::arr(figures)),
    ])
}

/// Keys of manifest fields that legitimately differ between two runs of
/// the same grid (they measure the run, not the simulation). The whole
/// `profile` section is timing: it records wall-clock attribution.
pub const TIMING_FIELDS: [&str; 5] = [
    "wall_secs",
    "events_per_sec",
    "jobs",
    "trace_overhead",
    "profile",
];

/// Copy of a manifest with every timing field removed, at every depth.
/// Two manifests of the same grid must be equal after stripping, whatever
/// `--jobs` each ran with — this is what the determinism tests and the CI
/// gate compare.
pub fn strip_timing(j: &Json) -> Json {
    match j {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !TIMING_FIELDS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip_timing(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PolicyKind;
    use anu_cluster::ClusterConfig;
    use anu_core::TuningConfig;
    use anu_workload::{CostModel, SyntheticConfig, WeightDist};

    fn tiny_experiment(name: &str, seed: u64) -> Experiment {
        Experiment {
            name: name.into(),
            cluster: ClusterConfig::paper(),
            workload: SyntheticConfig {
                n_file_sets: 20,
                total_requests: 2_000,
                duration_secs: 400.0,
                weights: WeightDist::PowerOfUniform { alpha: 50.0 },
                mean_cost_secs: 0.3,
                cost: CostModel::Deterministic,
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
        let grouped = group_results(run_grid(&exps, 4), exps.len());
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

    #[test]
    fn manifest_identical_modulo_timing_across_worker_counts() {
        let exps = grid();
        let checks = vec![ShapeCheck {
            claim: "c".into(),
            measured: "m".into(),
            pass: true,
        }];
        let verdicts = vec![FigureVerdict {
            figure: 8,
            seed: 5,
            checks,
        }];
        let a = run_grid(&exps, 1);
        let b = run_grid(&exps, 8);
        let over = TraceOverhead {
            off_events_per_sec: 1e6,
            on_events_per_sec: 9.9e5,
            overhead_pct: 1.0,
        };
        let chaos = Json::obj(vec![("levels", Json::arr(vec![Json::f64(1.0)]))]);
        let storm = Json::obj(vec![("kinds", Json::arr(vec![Json::str("flash_crowd")]))]);
        let meanfield = Json::obj(vec![("scales", Json::arr(vec![Json::u64(1)]))]);
        let ma = manifest(
            5,
            1,
            1,
            1.23,
            &a,
            &verdicts,
            TraceLevel::Off,
            Some(&over),
            Some(&chaos),
            Some(&storm),
            Some(&meanfield),
            0.02,
        );
        let mb = manifest(
            5,
            8,
            1,
            0.45,
            &b,
            &verdicts,
            TraceLevel::Off,
            None,
            Some(&chaos),
            Some(&storm),
            Some(&meanfield),
            0.01,
        );
        assert_ne!(ma, mb, "timing fields must differ");
        assert_eq!(strip_timing(&ma), strip_timing(&mb));
        // The stripped manifest still carries the deterministic payload.
        let stripped = strip_timing(&ma).render();
        assert!(stripped.contains("sim_events"));
        assert!(stripped.contains("\"schema\""));
        assert!(!stripped.contains("wall_secs"));
        assert!(!stripped.contains("events_per_sec"));
        assert!(
            !stripped.contains("\"profile\""),
            "profile sections are timing data and must strip"
        );
        assert!(
            stripped.contains("\"metrics\""),
            "per-task metrics are deterministic and must survive stripping"
        );
    }

    #[test]
    fn manifest_shape_is_schema_stable() {
        let exps = vec![tiny_experiment("fig8", 5)];
        let outcomes = run_grid(&exps, 2);
        let verdicts = vec![FigureVerdict {
            figure: 8,
            seed: 5,
            checks: vec![ShapeCheck {
                claim: "x".into(),
                measured: "y".into(),
                pass: false,
            }],
        }];
        let m = manifest(
            5,
            2,
            1,
            0.5,
            &outcomes,
            &verdicts,
            TraceLevel::Epoch,
            None,
            None,
            None,
            None,
            0.0,
        );
        assert_eq!(m.get("schema").unwrap().as_str().unwrap(), MANIFEST_SCHEMA);
        assert_eq!(MANIFEST_SCHEMA, "anu-bench-figures/v10");
        assert_eq!(m.get("base_seed").unwrap().as_u64().unwrap(), 5);
        assert_eq!(m.get("scale").unwrap().as_u64().unwrap(), 1);
        assert_eq!(m.get("tasks_total").unwrap().as_usize().unwrap(), 3);
        assert_eq!(m.get("trace_level").unwrap().as_str().unwrap(), "epoch");
        assert_eq!(m.get("trace_overhead").unwrap(), &Json::Null);
        assert_eq!(m.get("chaos").unwrap(), &Json::Null);
        assert_eq!(m.get("storm").unwrap(), &Json::Null);
        assert_eq!(m.get("meanfield").unwrap(), &Json::Null);
        // The exact top-level shape: the v4/v5 throughput sections are
        // gone, not null.
        let Json::Obj(pairs) = &m else {
            panic!("manifest should be an object, got {m:?}")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema",
                "base_seed",
                "jobs",
                "scale",
                "tasks_total",
                "sim_events_total",
                "wall_secs",
                "events_per_sec",
                "trace_level",
                "trace_overhead",
                "all_pass",
                "chaos",
                "storm",
                "meanfield",
                "profile",
                "tasks",
                "figures",
            ]
        );
        assert!(m.get("bench").is_err());
        assert!(!m.get("all_pass").unwrap().as_bool().unwrap());
        let tasks = m.get("tasks").unwrap().as_arr().unwrap();
        assert_eq!(tasks.len(), 3);
        for t in tasks {
            assert!(t.get("sim_events").unwrap().as_u64().unwrap() > 0);
            assert!(t.get("trace_events").is_ok());
            assert!(t.get("wall_secs").is_ok());
            assert!(t.get("events_per_sec").is_ok());
            let prof = t.get("profile").unwrap();
            assert!(prof.get("total_secs").is_ok());
            assert!(prof.get("policy_decide_secs").is_ok());
            assert!(prof.get("metrics_update_secs").is_ok());
            assert!(prof.get("event_dispatch_secs").is_ok());
            assert!(prof.get("trace_write_secs").is_ok());
            let metrics = t.get("metrics").unwrap();
            match metrics.get("counters").unwrap() {
                Json::Obj(pairs) => {
                    assert!(!pairs.is_empty(), "task metrics registry is populated");
                }
                other => panic!("metrics.counters should be an object, got {other:?}"),
            }
        }
        let profile = m.get("profile").unwrap();
        assert!(profile.get("tasks").is_ok());
        assert!(profile.get("csv_render_secs").is_ok());
        let figs = m.get("figures").unwrap().as_arr().unwrap();
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].get("figure").unwrap().as_u32().unwrap(), 8);
        assert!(!figs[0].get("pass").unwrap().as_bool().unwrap());
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
        let j = over.to_json();
        assert!(j.get("overhead_pct").is_ok());
    }

    #[test]
    fn effective_jobs_resolves_auto() {
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
        set_default_jobs(2);
        assert_eq!(effective_jobs(0), 2);
        set_default_jobs(0);
        assert!(effective_jobs(0) >= 1);
    }
}
