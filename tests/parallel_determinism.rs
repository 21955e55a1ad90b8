//! The sweep engine's core guarantee, end to end: running the figure grid
//! serially (`jobs = 1`) and in parallel (`jobs = 4`) produces
//! byte-identical CSV series and identical shape-check verdicts.
//!
//! Uses the reduced (~10%) figure experiments so the test stays CI-speed;
//! the determinism argument is scale-independent (task seeds are fixed at
//! enumeration time, outcomes are slotted by task id).

use anu::cluster::SERIES_BUCKET;
use anu::harness::{
    chaos_sweep, checks_for, figure, group_results, reduced, run_grid, write_figure_csvs_tagged,
    write_metrics_csv, write_tuner_epochs_csv, FIGURE_NUMBERS, PLAIN_ANU_LABEL,
};
use anu::trace::TraceLevel;

/// Same pinned seed as the reduced-scale shape suite.
const SEED: u64 = 32;

/// One run's CSV output: `(relative path, file bytes)` per series.
type CsvSet = Vec<(std::path::PathBuf, Vec<u8>)>;
/// One run's verdicts: per figure, the `(claim, pass)` pairs in order.
type VerdictSet = Vec<(u32, Vec<(String, bool)>)>;

#[test]
fn serial_and_parallel_runs_are_byte_identical() {
    let exps: Vec<_> = FIGURE_NUMBERS
        .iter()
        .map(|&n| reduced(figure(n, SEED).expect("evaluation figure"), SEED))
        .collect();

    let tmp = std::env::temp_dir().join("anu_parallel_determinism");
    std::fs::remove_dir_all(&tmp).ok();
    let mut csvs: Vec<CsvSet> = Vec::new();
    let mut verdicts: Vec<VerdictSet> = Vec::new();

    for (run_idx, jobs) in [(0usize, 1usize), (1, 4)] {
        let dir = tmp.join(format!("jobs{jobs}"));
        let outcomes = run_grid(&exps, jobs, TraceLevel::Off);

        let grouped = group_results(&outcomes, exps.len());

        let plain = grouped
            .iter()
            .flatten()
            .find(|r| r.policy == PLAIN_ANU_LABEL)
            .cloned()
            .expect("fig10 grid includes the no-heuristics baseline");

        let mut run_csvs = Vec::new();
        let mut run_verdicts = Vec::new();
        for (i, (&n, results)) in FIGURE_NUMBERS.iter().zip(&grouped).enumerate() {
            let paths =
                write_figure_csvs_tagged(&exps[i].name, None, results, &dir).expect("write CSVs");
            for p in paths {
                let bytes = std::fs::read(&p).expect("read back CSV");
                let rel = p.strip_prefix(&dir).expect("under dir").to_path_buf();
                run_csvs.push((rel, bytes));
            }
            let tick_buckets = (exps[i].cluster.tick.0 / SERIES_BUCKET.0).max(1) as usize;
            let checks = checks_for(n, results, Some(&plain), tick_buckets);
            run_verdicts.push((n, checks.into_iter().map(|c| (c.claim, c.pass)).collect()));
        }
        assert_eq!(csvs.len(), run_idx, "runs recorded in order");
        csvs.push(run_csvs);
        verdicts.push(run_verdicts);
    }

    let (serial_csvs, parallel_csvs) = (&csvs[0], &csvs[1]);
    assert_eq!(
        serial_csvs.len(),
        parallel_csvs.len(),
        "same CSV file count"
    );
    assert!(!serial_csvs.is_empty(), "figures produced CSVs");
    for ((name_s, bytes_s), (name_p, bytes_p)) in serial_csvs.iter().zip(parallel_csvs) {
        assert_eq!(name_s, name_p, "same CSV file names in the same order");
        assert_eq!(
            bytes_s,
            bytes_p,
            "CSV {} differs between jobs=1 and jobs=4",
            name_s.display()
        );
    }
    assert_eq!(
        verdicts[0], verdicts[1],
        "shape-check verdicts differ between jobs=1 and jobs=4"
    );

    std::fs::remove_dir_all(&tmp).ok();
}

/// The chaos extension of the guarantee: a fault-injected sweep — where
/// failures drain queues, migrations retarget mid-flight and the auditor
/// runs at every boundary — still produces byte-identical series,
/// tuner-epoch and metrics CSVs, a byte-identical `chaos_summary.csv`,
/// identical verdicts and identical epoch-level traces at any worker
/// count, through the same sweep API as `figures --chaos`. One intensity
/// level keeps the test CI-speed; the
/// engine treats levels as independent grid rows, so one row is
/// representative.
#[test]
fn chaos_outputs_are_byte_identical_across_jobs() {
    let sweep = chaos_sweep(&[1.0], SEED);
    assert!(
        !sweep.experiments()[0].cluster.faults.is_empty(),
        "intensity 1.0 compiles a non-empty fault script"
    );

    let tmp = std::env::temp_dir().join("anu_chaos_determinism");
    std::fs::remove_dir_all(&tmp).ok();

    let mut csvs: Vec<CsvSet> = Vec::new();
    let mut traces: Vec<Vec<Vec<String>>> = Vec::new();
    let mut verdicts: Vec<String> = Vec::new();
    for jobs in [1usize, 4] {
        let dir = tmp.join(format!("jobs{jobs}"));
        let (outcomes, grouped) = sweep.run(jobs, TraceLevel::Epoch);

        // Every run survived the storm with a clean audit — a chaos sweep
        // that only reproduces bytes of a corrupted world would prove
        // nothing.
        for r in grouped.iter().flatten() {
            assert!(r.summary.audit_checks > 0, "{}: auditor armed", r.policy);
            assert_eq!(r.summary.audit_violations, 0, "{}: clean audit", r.policy);
        }
        let mut written = sweep
            .write_run_files(&outcomes, &grouped, &dir, None)
            .expect("write CSVs");
        let finished = sweep.finish(&grouped, &dir).expect("write chaos summary");
        assert!(finished.files[0].ends_with("chaos_summary.csv"));
        written.extend(finished.files);
        let read = |p: &std::path::PathBuf| {
            let rel = p.strip_prefix(&dir).expect("under dir").to_path_buf();
            (rel, std::fs::read(p).expect("read back CSV"))
        };
        csvs.push(written.iter().map(read).collect());
        verdicts.push(format!("{:?}", finished.verdicts));
        traces.push(outcomes.into_iter().map(|o| o.trace_lines).collect());
    }

    assert_eq!(csvs[0].len(), csvs[1].len(), "same CSV file count");
    for ((name_s, bytes_s), (name_p, bytes_p)) in csvs[0].iter().zip(&csvs[1]) {
        assert_eq!(name_s, name_p, "same CSV names in the same order");
        assert_eq!(
            bytes_s,
            bytes_p,
            "chaos CSV {} differs between jobs=1 and jobs=4",
            name_s.display()
        );
    }
    assert_eq!(
        verdicts[0], verdicts[1],
        "chaos verdicts differ between jobs=1 and jobs=4"
    );
    assert_eq!(traces[0].len(), traces[1].len(), "same task count");
    for (i, (a, b)) in traces[0].iter().zip(&traces[1]).enumerate() {
        assert_eq!(
            a, b,
            "task {i} chaos trace differs between jobs=1 and jobs=4"
        );
    }
    // Faults actually appear in the traces (the storm was not a no-op).
    assert!(
        traces[0].iter().any(|t| t
            .iter()
            .any(|l| l.contains("\"fault\"") || l.contains("\"recover\""))),
        "epoch traces record fault events"
    );

    std::fs::remove_dir_all(&tmp).ok();
}

/// The tracing extension of the same guarantee: request-level JSONL traces,
/// the per-epoch tuner CSVs and the metrics CSVs are byte-identical
/// between a serial and a parallel sweep. Uses two reduced
/// figures (the adaptive fig6 exercises the tuner telemetry; fig10 adds
/// the heuristics-ablation policies).
#[test]
fn traces_and_tuner_csvs_are_byte_identical_across_jobs() {
    let exps: Vec<_> = [6u32, 10]
        .iter()
        .map(|&n| reduced(figure(n, SEED).expect("evaluation figure"), SEED))
        .collect();

    let tmp = std::env::temp_dir().join("anu_trace_determinism");
    std::fs::remove_dir_all(&tmp).ok();

    let mut traces: Vec<Vec<Vec<String>>> = Vec::new();
    let mut epoch_csvs: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut metrics_csvs: Vec<Vec<Vec<u8>>> = Vec::new();
    for jobs in [1usize, 4] {
        let dir = tmp.join(format!("jobs{jobs}"));
        let outcomes = run_grid(&exps, jobs, TraceLevel::Request);

        let grouped = group_results(&outcomes, exps.len());
        let mut run_csvs = Vec::new();
        let mut run_metrics = Vec::new();
        for (exp, results) in exps.iter().zip(&grouped) {
            let p = write_tuner_epochs_csv(&exp.name, None, results, &dir)
                .expect("write tuner-epoch CSV");
            run_csvs.push(std::fs::read(&p).expect("read back CSV"));
            let m = write_metrics_csv(&exp.name, None, results, &dir).expect("write metrics CSV");
            run_metrics.push(std::fs::read(&m).expect("read back metrics CSV"));
        }
        traces.push(outcomes.into_iter().map(|o| o.trace_lines).collect());
        epoch_csvs.push(run_csvs);
        metrics_csvs.push(run_metrics);
    }

    assert_eq!(traces[0].len(), traces[1].len(), "same task count");
    assert!(
        traces[0].iter().all(|t| !t.is_empty()),
        "request-level sweeps record events for every task"
    );
    for (i, (a, b)) in traces[0].iter().zip(&traces[1]).enumerate() {
        assert_eq!(a, b, "task {i} trace differs between jobs=1 and jobs=4");
    }
    assert_eq!(
        epoch_csvs[0], epoch_csvs[1],
        "tuner-epoch CSVs differ between jobs=1 and jobs=4"
    );
    assert_eq!(
        metrics_csvs[0], metrics_csvs[1],
        "metrics CSVs differ between jobs=1 and jobs=4"
    );
    // Metrics CSVs carry real rows (final values beyond the header).
    assert!(
        metrics_csvs[0]
            .iter()
            .all(|b| b.iter().filter(|&&c| c == b'\n').count() > 1),
        "every figure produced metrics rows"
    );
    // The adaptive figures actually exercised the tuner (rows beyond the
    // header).
    assert!(
        epoch_csvs[0]
            .iter()
            .any(|b| b.iter().filter(|&&c| c == b'\n').count() > 1),
        "at least one figure produced tuner decision rows"
    );

    std::fs::remove_dir_all(&tmp).ok();
}
