//! One benchmark run: set-up, warm-up, measured passes, checks and
//! metrics.
//!
//! End-to-end metrics come from untraced passes: the policy is called
//! directly, with no wrapper and no profiler. A traced run alternates
//! untraced and traced passes; per-layer metrics come from the traced
//! ones, and the gap between the two kinds is the tracing overhead.
//!
//! End-to-end times are converted to seconds at a reference host speed
//! (see [`crate::host`]); per-layer times are raw host seconds.

use crate::fingerprint::{pass_fingerprint, pinned, task_fingerprint};
use crate::host::{normalize, HostRef, REF_NOMINAL_S};
use crate::policy::TimedPolicy;
use crate::spans::{self_s, total_s, Clock, PublishProfiler, Span, SpanLog};
use crate::workload::{build_policies, Workload};
use anu_cluster::{run, run_traced_profiled, PlacementPolicy, RunResult};
use anu_harness::{
    fig6, measure_trace_overhead, plan, reduced, write_figure_csvs_tagged, write_metrics_csv,
    write_tuner_epochs_csv, Experiment, PolicyKind, SimTask,
};
use anu_trace::{LogHistogram, NullSink};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repeats at least this often, so `setup_s` is a median.
const SETUP_MIN_REPS: usize = 3;
/// Set-up repeats at most this often.
const SETUP_MAX_REPS: usize = 15;
/// Set-up stops repeating after [`SETUP_MIN_REPS`] once it has taken this
/// many seconds.
const SETUP_BUDGET_S: f64 = 1.0;
/// Seconds of warm-up before the first measured pass. A fresh process
/// once ran its first two seconds about 60% slower than the rest.
const WARMUP_S: f64 = 1.0;
/// Untraced passes a run measures at least, so every time is a median.
const MIN_PASSES: usize = 3;
/// Untraced/traced pass pairs a traced run measures at least.
const MIN_TRACED_PAIRS: usize = 2;

/// Every policy label the workloads run, in the order `policy.tick_s.*`
/// metrics are reported.
pub const POLICY_LABELS: [&str; 9] = [
    "simple-randomization",
    "round-robin",
    "dynamic-prescient",
    "anu-randomization",
    "anu-no-heuristics",
    "anu-all-heuristics",
    "thresholding-only",
    "top-off-only",
    "divergent-only",
];

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Seconds the measured passes may take; the minimum pass counts
    /// always run.
    pub seconds: f64,
    /// Measure per-layer metrics from traced passes instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Shrink every experiment to test size, skip warm-up, and ignore the
    /// pinned fingerprints (they are for full size).
    pub tiny: bool,
    /// Scratch directory for rendered CSVs; emptied after each pass.
    pub scratch: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Raw host-time counterparts of the end-to-end times, and the host
    /// slowdown they were divided by; printed, not part of the result.
    pub raw: Vec<Metric>,
    /// Simulations run in measured passes.
    pub attempted: u64,
    /// Simulations that failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Fingerprint of the first measured pass.
    pub fingerprint: u64,
    /// The fingerprint pinned for this workload and seed, if any.
    pub pinned: Option<u64>,
    /// Every span the run recorded.
    pub spans: SpanLog,
}

impl Report {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one pass measured.
struct Pass {
    traced: bool,
    /// Host seconds per task, in task order.
    task_s: Vec<f64>,
    /// `task_s` at reference host speed.
    task_ref_s: Vec<f64>,
    /// Host seconds spent rendering CSVs.
    render_s: f64,
    /// `render_s` at reference host speed.
    render_ref_s: f64,
    /// Reference-computation times sampled between the pass's tasks.
    host_s: Vec<f64>,
    /// Simulated events over every task.
    events: u64,
    /// Fingerprint of each task's summary, in task order.
    task_fp: Vec<u64>,
    /// Tasks that failed a per-task check: `(task, reason)`.
    failures: Vec<(usize, String)>,
    /// Per-layer values (traced passes only).
    layer: BTreeMap<String, f64>,
}

impl Pass {
    fn wall_ref_s(&self) -> f64 {
        self.task_ref_s.iter().sum::<f64>() + self.render_ref_s
    }

    /// Take the next reference sample and convert `raw_s`, measured since
    /// the previous one, to reference host speed.
    fn bracket(&mut self, raw_s: f64, host: &mut HostRef) -> f64 {
        let before = *self.host_s.last().expect("a sample before the first task");
        let after = host.sample();
        self.host_s.push(after);
        normalize(raw_s, before, after)
    }
}

/// Run the benchmark.
pub fn run_bench(cfg: &Config) -> io::Result<Report> {
    let clock = Clock::start();
    let mut log = SpanLog::new(clock);
    let mut host = HostRef::default();

    // Set-up: generate the inputs and build one pass's policies, several
    // times, keeping the last. The previous inputs are dropped before the
    // next are made, so peak memory holds one copy.
    let mut setup_s = Vec::new();
    let mut setup_ref_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut build_s = Vec::new();
    let mut inputs = None;
    while setup_s.len() < SETUP_MAX_REPS
        && (setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(inputs.take());
        let before = host.sample();
        let first = log.spans().len();
        let id = log.open("setup", None, None);
        let exps = cfg.workload.experiments(cfg.seed, cfg.tiny, &mut log, id);
        let tasks = plan(&exps);
        let policies = build_policies(&exps, &tasks, &mut log, Some(id));
        log.close(id);
        let after = host.sample();
        let spans = &log.spans()[first..];
        setup_s.push(total_s(spans, "setup"));
        setup_ref_s.push(normalize(total_s(spans, "setup"), before, after));
        generate_s.push(total_s(spans, "workload.generate"));
        build_s.push(total_s(spans, "policy.build"));
        inputs = Some((exps, tasks, policies));
    }
    let (exps, tasks, first_policies) = inputs.expect("set-up ran at least once");

    if !cfg.tiny {
        warm_up(&exps[tasks[0].experiment], &tasks[0]);
    }

    let mut passes: Vec<Pass> = Vec::new();
    let mut policies = Some(first_policies);
    let started = Instant::now();
    loop {
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let traced = passes.len() - untraced;
        let pass_index = u32::try_from(passes.len()).expect("few passes");
        let enough = if cfg.trace {
            untraced == traced && traced >= MIN_TRACED_PAIRS
        } else {
            untraced >= MIN_PASSES
        };
        if enough {
            // Stop unless one more pass (a pair, when tracing) still fits.
            let per_pass = started.elapsed().as_secs_f64() / passes.len() as f64;
            let next = if cfg.trace { 2.0 * per_pass } else { per_pass };
            if started.elapsed().as_secs_f64() + next > cfg.seconds {
                break;
            }
        }
        log.set_pass(Some(pass_index));
        let pols = match policies.take() {
            Some(p) => p,
            None => build_policies(&exps, &tasks, &mut log, None),
        };
        let traced_pass = cfg.trace && untraced > traced;
        let dir = cfg
            .scratch
            .join(format!("render-{}-{pass_index}", std::process::id()));
        passes.push(run_pass(
            cfg.workload,
            &exps,
            &tasks,
            pols,
            traced_pass.then_some(&mut log),
            &mut host,
            &dir,
        )?);
        log.set_pass(None);
    }

    // Output checks: per-task invariants, the same fingerprint from every
    // pass traced or not, and the pinned fingerprint at full size.
    let mut failures = Vec::new();
    let mut failed = 0u64;
    let reference = &passes[0].task_fp;
    for (p, pass) in passes.iter().enumerate() {
        let mut bad: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (task, why) in &pass.failures {
            bad.entry(*task).or_default().push(why.clone());
        }
        for (i, (fp, want)) in pass.task_fp.iter().zip(reference).enumerate() {
            if fp != want {
                bad.entry(i).or_default().push(format!(
                    "fingerprint {fp:016x} differs from the first pass's {want:016x}"
                ));
            }
        }
        failed += bad.len() as u64;
        for (i, whys) in bad {
            let t = &tasks[i];
            for why in whys {
                failures.push(format!("pass {p} {}/{}: {why}", t.name, t.label));
            }
        }
    }
    let fingerprint = pass_fingerprint(reference);
    let pin = if cfg.tiny {
        None
    } else {
        pinned(cfg.workload.name(), cfg.seed)
    };
    if let Some(want) = pin {
        if want != fingerprint {
            failures.push(format!(
                "{} seed {}: fingerprint {fingerprint:016x}, pinned {want:016x}",
                cfg.workload.name(),
                cfg.seed
            ));
        }
    }
    let attempted = (passes.len() * tasks.len()) as u64;

    let mut raw = Vec::new();
    let metrics = if cfg.trace {
        let mut layer = median_layers(passes.iter().filter(|p| p.traced));
        layer.insert("workload.generate_s".into(), median(&generate_s));
        layer.insert(
            "workload.requests".into(),
            exps.iter().map(|e| e.workload.requests.len() as f64).sum(),
        );
        layer.insert("policy.build_s".into(), median(&build_s));
        let overhead_exp = if cfg.tiny {
            reduced(fig6(cfg.seed), cfg.seed)
        } else {
            fig6(cfg.seed)
        };
        layer.insert(
            "trace.request_overhead_pct".into(),
            measure_trace_overhead(&overhead_exp).overhead_pct,
        );
        let wall = |traced: bool| {
            median(
                &passes
                    .iter()
                    .filter(|p| p.traced == traced)
                    .map(Pass::wall_ref_s)
                    .collect::<Vec<_>>(),
            )
        };
        layer.insert(
            "bench.span_overhead_pct".into(),
            100.0 * (wall(true) - wall(false)) / wall(false),
        );
        layer
            .into_iter()
            .map(|(name, value)| Metric {
                unit: layer_unit(&name),
                name,
                value,
            })
            .collect()
    } else {
        let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
        // Each task's median over passes, summed: one noisy stretch of
        // host time then spoils one sample of a task, not the total.
        let wall = |task: fn(&Pass) -> &[f64], render: fn(&Pass) -> f64| {
            (0..tasks.len())
                .map(|i| median(&untraced.iter().map(|p| task(p)[i]).collect::<Vec<_>>()))
                .sum::<f64>()
                + median(&untraced.iter().map(|p| render(p)).collect::<Vec<_>>())
        };
        let wall_s = wall(|p| &p.task_ref_s, |p| p.render_ref_s);
        let host_s: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.host_s.iter().copied())
            .collect();
        raw = vec![
            metric("raw.wall_s", wall(|p| &p.task_s, |p| p.render_s), "s"),
            metric("raw.setup_s", median(&setup_s), "s"),
            metric("host.slowdown", median(&host_s) / REF_NOMINAL_S, "ratio"),
        ];
        vec![
            metric("wall_s", wall_s, "s"),
            metric("events_per_s", passes[0].events as f64 / wall_s, "1/s"),
            metric("setup_s", median(&setup_ref_s), "s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ]
    };

    Ok(Report {
        metrics,
        raw,
        attempted,
        failed,
        failures,
        fingerprint,
        pinned: pin,
        spans: log,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Run `task` with fresh policies until [`WARMUP_S`] has passed, so
/// caches, the allocator and the CPU clock settle before measuring.
fn warm_up(exp: &Experiment, task: &SimTask) {
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < WARMUP_S {
        let mut policy = exp.policies[task.policy]
            .1
            .build(&exp.cluster, &exp.workload, exp.seed);
        std::hint::black_box(run(&exp.cluster, &exp.workload, policy.as_mut()));
    }
}

/// Run every task once with the given fresh policies, then render CSVs
/// when the workload does. With a span log the pass is traced: each
/// simulation runs through the policy wrapper and the publish profiler,
/// and per-layer values are computed from its spans.
fn run_pass(
    workload: Workload,
    exps: &[Experiment],
    tasks: &[SimTask],
    mut policies: Vec<Box<dyn PlacementPolicy>>,
    mut log: Option<&mut SpanLog>,
    host: &mut HostRef,
    render_dir: &Path,
) -> io::Result<Pass> {
    let first_span = log.as_ref().map_or(0, |l| l.spans().len());
    let mut pass = Pass {
        traced: log.is_some(),
        task_s: Vec::with_capacity(tasks.len()),
        task_ref_s: Vec::with_capacity(tasks.len()),
        render_s: 0.0,
        render_ref_s: 0.0,
        host_s: vec![host.sample()],
        events: 0,
        task_fp: Vec::with_capacity(tasks.len()),
        failures: Vec::new(),
        layer: BTreeMap::new(),
    };
    let mut counts = Counts::default();
    let mut results: Vec<Vec<RunResult>> = exps.iter().map(|_| Vec::new()).collect();

    for (i, (task, policy)) in tasks.iter().zip(policies.iter_mut()).enumerate() {
        let exp = &exps[task.experiment];
        let task_id = i as u32;
        let (mut result, secs) = match log.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let r = run(&exp.cluster, &exp.workload, policy.as_mut());
                (r, t0.elapsed().as_secs_f64())
            }
            Some(log) => {
                let clock = log.clock();
                let id = log.open("world.run", None, Some(task_id));
                let mut timed = TimedPolicy::new(policy.as_mut(), clock);
                let mut profiler = PublishProfiler::new(clock);
                let r = run_traced_profiled(
                    &exp.cluster,
                    &exp.workload,
                    &mut timed,
                    &mut NullSink,
                    &mut profiler,
                );
                log.close(id);
                counts.moves_ordered += timed.moves_ordered;
                for (call, start, end) in timed.into_calls() {
                    log.push(call.span_name(), Some(id), Some(task_id), start, end);
                }
                for (start, end) in profiler.spans {
                    log.push("metrics.publish", Some(id), Some(task_id), start, end);
                }
                let secs = log.spans()[id as usize].dur_ns() as f64 / 1e9;
                (r, secs)
            }
        };
        result.policy = task.label.clone();
        pass.task_s.push(secs);
        let ref_s = pass.bracket(secs, host);
        pass.task_ref_s.push(ref_s);

        let s = &result.summary;
        pass.task_fp.push(task_fingerprint(s));
        if s.completed_requests + s.requests_shed != s.offered_requests {
            pass.failures.push((
                i,
                format!(
                    "completed {} + shed {} != offered {}",
                    s.completed_requests, s.requests_shed, s.offered_requests
                ),
            ));
        }
        if s.audit_violations != 0 {
            pass.failures
                .push((i, format!("{} audit violations", s.audit_violations)));
        }
        let anu = matches!(
            exp.policies[task.policy].1,
            PolicyKind::Anu { .. } | PolicyKind::AnuGossip { .. }
        );
        counts.add(&result, anu);
        if workload.renders() {
            results[task.experiment].push(result);
        }
    }

    if workload.renders() {
        let span = log
            .as_deref_mut()
            .map(|l| l.open("report.render", None, None));
        let t0 = Instant::now();
        counts.report_bytes = render(exps, &results, render_dir)?;
        pass.render_s = t0.elapsed().as_secs_f64();
        pass.render_ref_s = pass.bracket(pass.render_s, host);
        if let (Some(log), Some(id)) = (log.as_deref_mut(), span) {
            log.close(id);
        }
        std::fs::remove_dir_all(render_dir)?;
    }

    pass.events = counts.sim_events;
    if let Some(log) = log {
        let spans = &log.spans()[first_span..];
        pass.layer = layer_values(spans, tasks, &counts, pass.render_s);
        pass.layer.insert(
            "bench.host_slowdown".into(),
            median(&pass.host_s) / REF_NOMINAL_S,
        );
    }
    Ok(pass)
}

/// Write each experiment's series, tuner-epoch and metrics CSVs into
/// `dir`, as the `figures` binary does; returns the bytes written.
fn render(exps: &[Experiment], results: &[Vec<RunResult>], dir: &Path) -> io::Result<u64> {
    let mut paths = Vec::new();
    for (exp, rs) in exps.iter().zip(results) {
        // Tagged with the seed, as `figures --seeds` tags its grids, so
        // the paper grid's two seeds do not overwrite each other.
        let tag = format!("s{}", exp.seed);
        let tag = Some(tag.as_str());
        paths.extend(write_figure_csvs_tagged(&exp.name, tag, rs, dir)?);
        paths.push(write_tuner_epochs_csv(&exp.name, tag, rs, dir)?);
        paths.push(write_metrics_csv(&exp.name, tag, rs, dir)?);
    }
    paths
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()))
        .sum()
}

/// Counts a pass collects from run results.
#[derive(Default)]
struct Counts {
    sim_events: u64,
    offered: u64,
    completed: u64,
    migrations: u64,
    requeued: u64,
    shed: u64,
    max_queue_depth: u64,
    audit_checks: u64,
    audit_violations: u64,
    scale_ups: u64,
    scale_downs: u64,
    snapshots: u64,
    moves_ordered: u64,
    report_bytes: u64,
    anu_migrations: u64,
    /// `world.*` and `des.calendar.*` registry counters, summed.
    counters: BTreeMap<&'static str, u64>,
    max_pending: u64,
    /// `latency.us` of every ANU task, merged.
    anu_latency: LogHistogram,
}

/// Registry counters reported per layer, summed over a pass's tasks.
const REGISTRY_COUNTERS: [&str; 8] = [
    "world.events.arrival",
    "world.events.complete",
    "world.events.tick",
    "world.events.migration_done",
    "world.events.fault",
    "des.calendar.scheduled",
    "des.calendar.fired",
    "des.calendar.cancelled",
];

impl Counts {
    fn add(&mut self, r: &RunResult, anu: bool) {
        let s = &r.summary;
        self.sim_events += s.sim_events;
        self.offered += s.offered_requests;
        self.completed += s.completed_requests;
        self.migrations += s.migrations;
        self.requeued += s.requests_requeued;
        self.shed += s.requests_shed;
        self.max_queue_depth = self.max_queue_depth.max(s.max_queue_depth);
        self.audit_checks += s.audit_checks;
        self.audit_violations += s.audit_violations;
        self.scale_ups += s.scale_ups;
        self.scale_downs += s.scale_downs;
        let reg = &r.metrics;
        self.snapshots += reg.snapshots().len() as u64;
        for name in REGISTRY_COUNTERS {
            let v = reg.find(name).map_or(0, |id| reg.value(id));
            *self.counters.entry(name).or_default() += v;
        }
        let pending = reg
            .find("des.calendar.max_pending")
            .map_or(0, |id| reg.value(id));
        self.max_pending = self.max_pending.max(pending);
        if anu {
            self.anu_migrations += s.migrations;
            if let Some(h) = reg.find("latency.us").and_then(|id| reg.hist(id)) {
                self.anu_latency.merge(h);
            }
        }
    }
}

/// Per-layer values of one traced pass.
fn layer_values(
    spans: &[Span],
    tasks: &[SimTask],
    c: &Counts,
    render_s: f64,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let world_s = total_s(spans, "world.run");
    let policy_s: f64 = [
        "policy.initial",
        "policy.tick",
        "policy.epoch",
        "policy.membership",
        "policy.audit",
    ]
    .iter()
    .map(|n| total_s(spans, n))
    .sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut tick_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "policy.tick")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    tick_us.sort_by(f64::total_cmp);
    put("policy.initial_s", total_s(spans, "policy.initial"));
    put("policy.tick_s", total_s(spans, "policy.tick"));
    put("policy.tick_calls", tick_us.len() as f64);
    put("policy.tick_p50_us", quantile(&tick_us, 0.50));
    put("policy.tick_p99_us", quantile(&tick_us, 0.99));
    for label in POLICY_LABELS {
        let of_label: Vec<Span> = spans
            .iter()
            .filter(|s| s.task.is_some_and(|t| tasks[t as usize].label == label))
            .cloned()
            .collect();
        put(
            &format!("policy.tick_s.{label}"),
            total_s(&of_label, "policy.tick"),
        );
    }
    put("policy.membership_s", total_s(spans, "policy.membership"));
    put(
        "policy.membership_calls",
        spans
            .iter()
            .filter(|s| s.name == "policy.membership")
            .count() as f64,
    );
    put("policy.audit_s", total_s(spans, "policy.audit"));
    put("policy.moves_ordered", c.moves_ordered as f64);
    put(
        "policy.moves_executed_ratio",
        ratio(c.migrations as f64, c.moves_ordered as f64),
    );
    put("policy.wall_share", ratio(policy_s, world_s));

    let world_self = self_s(spans, "world.run");
    put("world.self_s", world_self);
    put(
        "world.ns_per_event",
        ratio(world_self * 1e9, c.sim_events as f64),
    );
    for (name, v) in &c.counters {
        put(name, *v as f64);
    }
    put("world.migrations", c.migrations as f64);
    put("world.requests_requeued", c.requeued as f64);
    put("world.requests_shed", c.shed as f64);
    put("world.max_queue_depth", c.max_queue_depth as f64);
    put("world.audit_checks", c.audit_checks as f64);
    put("world.audit_violations", c.audit_violations as f64);
    put("world.scale_ups", c.scale_ups as f64);
    put("world.scale_downs", c.scale_downs as f64);
    put("des.calendar.max_pending", c.max_pending as f64);

    put("metrics.publish_s", total_s(spans, "metrics.publish"));
    put("metrics.snapshots", c.snapshots as f64);

    put("sim.p50_ms", c.anu_latency.quantile(0.50) as f64 / 1e3);
    put("sim.p99_ms", c.anu_latency.quantile(0.99) as f64 / 1e3);
    put("sim.latency_samples", c.anu_latency.count() as f64);
    put("sim.migrations", c.anu_migrations as f64);
    put(
        "sim.requests_failed_frac",
        ratio((c.offered - c.completed) as f64, c.offered as f64),
    );

    put("report.render_s", render_s);
    put("report.bytes", c.report_bytes as f64);
    m
}

/// The unit of per-layer metric `name`.
pub fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") || name.contains("_s.") {
        "s"
    } else if name.ends_with("ns_per_event") {
        "ns"
    } else if ["_ratio", "_share", "_frac", "_slowdown"]
        .iter()
        .any(|suffix| name.ends_with(suffix))
    {
        "ratio"
    } else if name == "report.bytes" {
        "B"
    } else {
        "count"
    }
}

/// Median of each per-layer value over `passes`.
fn median_layers<'a>(passes: impl Iterator<Item = &'a Pass>) -> BTreeMap<String, f64> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (name, v) in &p.layer {
            values.entry(name.clone()).or_default().push(*v);
        }
    }
    values.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// The median of `v` (the mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `q` quantile of sorted `v`, by nearest rank.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process, in MiB, from `VmHWM`.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
    }

    #[test]
    fn units_follow_names() {
        assert_eq!(layer_unit("policy.tick_s.round-robin"), "s");
        assert_eq!(layer_unit("policy.tick_p99_us"), "us");
        assert_eq!(layer_unit("world.ns_per_event"), "ns");
        assert_eq!(layer_unit("trace.request_overhead_pct"), "%");
        assert_eq!(layer_unit("des.calendar.fired"), "count");
    }
}
