//! Runs every workload at test size through the benchmark's own code, and
//! pins the metric lists to `BENCHMARK.json` so the two cannot drift.

use anu_cluster::{run, run_traced_profiled, Assignment, ClusterView, MoveSet, PlacementPolicy};
use anu_core::{FileSetId, Json, LoadReport, ServerId};
use anu_e2e_bench::bench::POLICY_LABELS;
use anu_e2e_bench::fingerprint::task_fingerprint;
use anu_e2e_bench::policy::TimedPolicy;
use anu_e2e_bench::spans::{Clock, PublishProfiler, SpanLog};
use anu_e2e_bench::{run_bench, Config, Report, Workload};
use anu_harness::plan;
use anu_trace::NullSink;
use std::path::{Path, PathBuf};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in the `BENCHMARK.json` list `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    json.get(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e-smoke-{name}"))
}

fn tiny(workload: Workload, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed: 1,
        seconds: 0.0,
        trace,
        tiny: true,
        scratch: scratch(workload.name()),
    };
    let report = run_bench(&cfg).expect("benchmark runs");
    assert!(
        report.correct(),
        "{} checks failed: {:?}",
        workload.name(),
        report.failures
    );
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
    report
}

#[test]
fn workload_names_match_benchmark_json() {
    let json = benchmark_json();
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_policy_label_has_a_tick_metric() {
    for w in Workload::ALL {
        let mut log = SpanLog::new(Clock::start());
        let id = log.open("setup", None, None);
        let exps = w.experiments(1, true, &mut log, id);
        for t in plan(&exps) {
            assert!(POLICY_LABELS.contains(&t.label.as_str()), "{}", t.label);
        }
    }
}

/// Two untraced runs and a traced one: each emits exactly its
/// `BENCHMARK.json` list, and all three give the same fingerprint. Every
/// pass is also checked against the first, untraced pass inside each run.
fn runs_match_benchmark_json(w: Workload) {
    let untraced = declared("end_to_end");
    let a = tiny(w, false);
    assert_eq!(emitted(&a), untraced, "{}", w.name());
    assert!(a.metrics.iter().all(|m| m.value > 0.0), "{:?}", a.metrics);
    assert_eq!(tiny(w, false).fingerprint, a.fingerprint, "{}", w.name());

    let mut per_layer = declared("per_layer");
    per_layer.sort();
    let traced = tiny(w, true);
    let mut got = emitted(&traced);
    got.sort();
    assert_eq!(got, per_layer, "{}", w.name());
    assert_eq!(traced.fingerprint, a.fingerprint, "{}", w.name());
    let names: Vec<&str> = traced.spans.spans().iter().map(|s| s.name).collect();
    for span in ["setup", "world.run", "policy.tick", "metrics.publish"] {
        assert!(names.contains(&span), "{} has no {span} span", w.name());
    }
}

#[test]
fn paper_grid_matches_benchmark_json() {
    runs_match_benchmark_json(Workload::PaperGrid);
}

#[test]
fn scale_hotpath_matches_benchmark_json() {
    runs_match_benchmark_json(Workload::ScaleHotpath);
}

#[test]
fn churn_storm_matches_benchmark_json() {
    runs_match_benchmark_json(Workload::ChurnStorm);
}

/// A wrapper that forwards only the required trait methods, leaving the
/// planned-membership hooks to the trait defaults.
struct DefaultingWrapper<'a>(&'a mut dyn PlacementPolicy);

impl PlacementPolicy for DefaultingWrapper<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        self.0.initial(view, file_sets)
    }
    fn on_tick(&mut self, v: &ClusterView, r: &[LoadReport], a: &Assignment) -> Vec<MoveSet> {
        self.0.on_tick(v, r, a)
    }
    fn on_fail(&mut self, v: &ClusterView, s: ServerId, a: &Assignment) -> Vec<MoveSet> {
        self.0.on_fail(v, s, a)
    }
    fn on_recover(&mut self, v: &ClusterView, s: ServerId, a: &Assignment) -> Vec<MoveSet> {
        self.0.on_recover(v, s, a)
    }
    fn take_epoch(&mut self) -> Option<anu_core::TuneEpoch> {
        self.0.take_epoch()
    }
}

#[test]
fn timing_wrapper_keeps_anu_churn_results() {
    let mut log = SpanLog::new(Clock::start());
    let id = log.open("setup", None, None);
    let exps = Workload::ChurnStorm.experiments(1, true, &mut log, id);
    let mut checked = 0;
    for exp in &exps {
        let (_, kind) = exp
            .policies
            .iter()
            .find(|(label, _)| label == "anu-randomization")
            .expect("an ANU cell");
        let fresh = || kind.build(&exp.cluster, &exp.workload, exp.seed);

        let plain = run(&exp.cluster, &exp.workload, fresh().as_mut());
        let mut inner = fresh();
        let mut timed = TimedPolicy::new(inner.as_mut(), Clock::start());
        let wrapped = run_traced_profiled(
            &exp.cluster,
            &exp.workload,
            &mut timed,
            &mut NullSink,
            &mut PublishProfiler::new(Clock::start()),
        );
        assert_eq!(plain.summary, wrapped.summary, "{}", exp.name);
        assert_eq!(
            task_fingerprint(&plain.summary),
            task_fingerprint(&wrapped.summary)
        );

        // The check has teeth: these cells scale in and out, and routing
        // those changes through the crash hooks changes the result.
        assert!(plain.summary.scale_ups > 0, "{} never scales", exp.name);
        let mut inner = fresh();
        let defaulted = run(
            &exp.cluster,
            &exp.workload,
            &mut DefaultingWrapper(inner.as_mut()),
        );
        if task_fingerprint(&defaulted.summary) != task_fingerprint(&plain.summary) {
            checked += 1;
        }
    }
    assert!(checked > 0, "no cell tells the hooks apart");
}
