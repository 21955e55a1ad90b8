//! Reporting: figure series as text tables, CSV files, and shape-check
//! verdict tables.

use crate::figures::ShapeCheck;
use anu_cluster::RunResult;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Render one run's per-server latency series as the rows the paper's
/// figures plot: `minute  s0 s1 …` (mean latency per minute bucket, ms).
pub fn series_table(result: &RunResult) -> String {
    let mut out = String::new();
    let servers: Vec<_> = result.series.keys().copied().collect();
    write!(out, "# {} on {}\nmin", result.policy, result.workload).ok();
    for s in &servers {
        write!(out, " {s:>9}").ok();
    }
    out.push('\n');
    let n = result
        .series
        .values()
        .map(|ts| ts.buckets().len())
        .max()
        .unwrap_or(0);
    for i in 0..n {
        write!(out, "{i:>3}").ok();
        for s in &servers {
            let b = &result.series[s].buckets()[i];
            write!(out, " {:>9.1}", b.mean()).ok();
        }
        out.push('\n');
    }
    out
}

/// Render a cross-policy summary table for one figure.
pub fn summary_table(results: &[RunResult]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>7}",
        "policy", "mean ms", "late ms", "max ms", "imb CoV", "moves"
    )
    .ok();
    for r in results {
        writeln!(
            out,
            "{:<22} {:>10.1} {:>10.1} {:>10.1} {:>10.2} {:>7}",
            r.policy,
            r.summary.mean_latency_ms,
            r.summary.late_mean_latency_ms,
            r.summary.max_latency_ms,
            r.summary.late_imbalance_cov,
            r.summary.migrations
        )
        .ok();
    }
    out
}

/// Render one run's per-server series as ASCII sparkline rows — a quick
/// visual of the figure without leaving the terminal:
///
/// ```text
/// s0 ▂▄█▇▅▁▁▁▁▁▁▁  (peak 412.3 ms)
/// s1 ▁▁▂▃▃▃▃▂▂▂▂▂  (peak  80.1 ms)
/// ```
///
/// Each server row is scaled to its own peak (the shapes matter more than
/// cross-server magnitude, which the summary table already reports).
pub fn sparklines(result: &RunResult) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = String::new();
    writeln!(out, "# {} on {}", result.policy, result.workload).ok();
    for (s, ts) in &result.series {
        let means: Vec<f64> = ts.means().map(|(_, m)| m).collect();
        let peak = means.iter().cloned().fold(0.0f64, f64::max);
        write!(out, "{s:>4} ").ok();
        for m in &means {
            let idx = if peak <= 0.0 {
                0
            } else {
                ((m / peak) * (RAMP.len() - 1) as f64).round() as usize
            };
            out.push(RAMP[idx.min(RAMP.len() - 1)]);
        }
        writeln!(out, "  (peak {peak:.1} ms)").ok();
    }
    out
}

/// Quote a CSV field per RFC 4180 when it needs it: fields containing a
/// comma, a double quote, or a newline are wrapped in double quotes with
/// internal quotes doubled; everything else passes through unchanged.
/// Every label the repo emits today is plain (policy names are
/// `[a-z-]+`), so committed CSV bytes are identical with or without this
/// guard — it exists so a future label with a comma corrupts nothing.
pub fn csv_field(raw: &str) -> String {
    if raw.contains(',') || raw.contains('"') || raw.contains('\n') || raw.contains('\r') {
        let mut out = String::with_capacity(raw.len() + 2);
        out.push('"');
        for c in raw.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        raw.to_string()
    }
}

/// Write one run's series as CSV: `minute,server,mean_latency_ms`.
pub fn write_series_csv(result: &RunResult, path: &Path) -> io::Result<()> {
    use std::io::Write;
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "minute,server,mean_latency_ms,requests")?;
    for (s, ts) in &result.series {
        for (i, b) in ts.buckets().iter().enumerate() {
            writeln!(f, "{},{},{:.3},{}", i, s.0, b.mean(), b.count)?;
        }
    }
    f.flush()
}

/// Write every result of a figure into `dir` as `<figure>_<policy>.csv`,
/// or `<figure>_<tag>_<policy>.csv` with a tag, returning the written
/// paths.
pub fn write_figure_csvs_tagged(
    figure: &str,
    tag: Option<&str>,
    results: &[RunResult],
    dir: &Path,
) -> io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for r in results {
        let safe: String = r
            .policy
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let name = match tag {
            Some(t) => format!("{figure}_{t}_{safe}.csv"),
            None => format!("{figure}_{safe}.csv"),
        };
        let p = dir.join(name);
        write_series_csv(r, &p)?;
        paths.push(p);
    }
    Ok(paths)
}

/// Write the per-epoch tuner telemetry of a figure's runs as one combined
/// CSV (`<figure>[_<tag>]_tuner_epochs.csv`): one row per tuner decision
/// per epoch, covering every policy that exposed telemetry. Epochs without
/// a tuner record (static policies, pre-warm-up ticks) are skipped, so
/// static-policy figures produce a header-only file. Fixed-precision
/// formatting keeps the bytes deterministic across platforms.
pub fn write_tuner_epochs_csv(
    figure: &str,
    tag: Option<&str>,
    results: &[RunResult],
    dir: &Path,
) -> io::Result<std::path::PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let name = match tag {
        Some(t) => format!("{figure}_{t}_tuner_epochs.csv"),
        None => format!("{figure}_tuner_epochs.csv"),
    };
    let path = dir.join(name);
    let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        f,
        "policy,epoch,time_s,mu_ms,planned,moves,server,latency_ms,old_share,new_share,applied_share,outcome"
    )?;
    for r in results {
        for e in &r.epochs {
            let Some(tune) = &e.tune else { continue };
            for d in &tune.decisions {
                writeln!(
                    f,
                    "{},{},{:.3},{:.3},{},{},{},{:.3},{:.6},{:.6},{:.6},{}",
                    csv_field(&r.policy),
                    e.index,
                    e.time_s,
                    tune.mu_ms,
                    tune.planned,
                    e.moves,
                    d.server.0,
                    d.latency_ms,
                    d.old_share,
                    d.new_share,
                    d.applied_share,
                    d.outcome.name()
                )?;
            }
        }
    }
    f.flush()?;
    Ok(path)
}

/// Write the metrics registries of a figure's runs as one combined CSV
/// (`<figure>[_<tag>]_metrics.csv`) in long format:
///
/// ```text
/// policy,epoch,metric,kind,value,p50,p95,p99
/// ```
///
/// Two row families per policy, both in registration order (the
/// registry's canonical export order): `final` rows give every metric's
/// end-of-run value (histograms carry their quantiles; scalars leave the
/// quantile columns empty), and numbered epoch rows replay each per-epoch
/// snapshot's counters and gauges. Everything is integer arithmetic on
/// deterministic registries, so the bytes are identical at any `--jobs`
/// value.
pub fn write_metrics_csv(
    figure: &str,
    tag: Option<&str>,
    results: &[RunResult],
    dir: &Path,
) -> io::Result<std::path::PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let name = match tag {
        Some(t) => format!("{figure}_{t}_metrics.csv"),
        None => format!("{figure}_metrics.csv"),
    };
    let path = dir.join(name);
    let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "policy,epoch,metric,kind,value,p50,p95,p99")?;
    for r in results {
        let reg = &r.metrics;
        let policy = csv_field(&r.policy);
        for id in reg.ids() {
            let kind = reg.kind(id);
            let quantiles = if kind == anu_metrics::MetricKind::Histogram {
                format!(
                    "{},{},{}",
                    reg.quantile(id, 0.50),
                    reg.quantile(id, 0.95),
                    reg.quantile(id, 0.99)
                )
            } else {
                ",,".to_string()
            };
            writeln!(
                f,
                "{policy},final,{},{},{},{quantiles}",
                csv_field(reg.name(id)),
                kind.name(),
                reg.value(id)
            )?;
        }
        for snap in reg.snapshots() {
            for &(id, value) in &snap.scalars {
                writeln!(
                    f,
                    "{policy},{},{},{},{value},,,",
                    snap.epoch,
                    csv_field(reg.name(id)),
                    reg.kind(id).name()
                )?;
            }
        }
    }
    f.flush()?;
    Ok(path)
}

/// Render shape-check verdicts as the `[PASS]`/`[FAIL]` block the
/// `figures` binary prints:
///
/// ```text
///   [PASS] adaptive policies beat both static policies in steady state
///         measured: late mean ms — simple 87844.1, ...
/// ```
pub fn checks_table(checks: &[ShapeCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        writeln!(
            out,
            "  [{}] {}\n        measured: {}",
            if c.pass { "PASS" } else { "FAIL" },
            c.claim,
            c.measured
        )
        .ok();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, PolicyKind};
    use anu_cluster::ClusterConfig;
    use anu_core::TuneOutcome;
    use anu_workload::{CostModel, SyntheticConfig, WeightDist};

    fn quick_result() -> Vec<RunResult> {
        Experiment {
            name: "t".into(),
            cluster: ClusterConfig::paper(),
            workload: SyntheticConfig {
                n_file_sets: 10,
                total_requests: 500,
                duration_secs: 200.0,
                weights: WeightDist::Constant,
                mean_cost_secs: 0.05,
                cost: CostModel::UniformSpread,
                seed: 5,
            }
            .generate(),
            policies: vec![("rr".into(), PolicyKind::RoundRobin)],
            seed: 5,
        }
        .run(0)
    }

    #[test]
    fn series_table_has_all_buckets() {
        let rs = quick_result();
        let t = series_table(&rs[0]);
        // 200 s / 60 s buckets = 4 rows + 2 header lines.
        let rows = t.lines().count();
        assert!(rows >= 6, "{t}");
        assert!(t.contains("s0"));
    }

    #[test]
    fn summary_table_mentions_policy() {
        let rs = quick_result();
        let t = summary_table(&rs);
        assert!(t.contains("rr"));
        assert!(t.contains("mean ms"));
    }

    #[test]
    fn sparklines_render_every_server() {
        let rs = quick_result();
        let s = sparklines(&rs[0]);
        assert_eq!(s.lines().count(), 6); // header + 5 servers
        assert!(s.contains("s0") && s.contains("s4"));
        assert!(s.contains("peak"));
        // Only ramp characters between the label and the peak annotation.
        let row = s.lines().nth(1).unwrap();
        assert!(row.chars().any(|c| "▁▂▃▄▅▆▇█".contains(c)));
    }

    #[test]
    fn checks_table_marks_pass_and_fail() {
        let t = checks_table(&[
            ShapeCheck {
                claim: "good".into(),
                measured: "1 < 2".into(),
                pass: true,
            },
            ShapeCheck {
                claim: "bad".into(),
                measured: "2 > 1".into(),
                pass: false,
            },
        ]);
        assert!(t.contains("[PASS] good"));
        assert!(t.contains("[FAIL] bad"));
        assert!(t.contains("measured: 1 < 2"));
    }

    #[test]
    fn tagged_csv_names_include_tag() {
        let rs = quick_result();
        let dir = std::env::temp_dir().join("anu_report_tag_test");
        let paths = write_figure_csvs_tagged("fig6", Some("s42"), &rs, &dir).unwrap();
        assert!(paths[0].ends_with("fig6_s42_rr.csv"), "{:?}", paths[0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tuner_epochs_csv_has_decision_rows() {
        use anu_core::TuningConfig;
        let rs = Experiment {
            name: "t".into(),
            cluster: ClusterConfig::paper(),
            workload: SyntheticConfig {
                n_file_sets: 20,
                total_requests: 2_000,
                duration_secs: 600.0,
                weights: WeightDist::PowerOfUniform { alpha: 50.0 },
                mean_cost_secs: 0.3,
                cost: CostModel::UniformSpread,
                seed: 5,
            }
            .generate(),
            policies: vec![
                ("rr".into(), PolicyKind::RoundRobin),
                (
                    "anu".into(),
                    PolicyKind::Anu {
                        tuning: TuningConfig::paper(),
                    },
                ),
            ],
            seed: 5,
        }
        .run(0);
        let dir = std::env::temp_dir().join("anu_tuner_epochs_test");
        let path = write_tuner_epochs_csv("fig6", None, &rs, &dir).unwrap();
        assert!(path.ends_with("fig6_tuner_epochs.csv"));
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines = content.lines();
        assert_eq!(
            lines.next().unwrap(),
            "policy,epoch,time_s,mu_ms,planned,moves,server,latency_ms,old_share,new_share,applied_share,outcome"
        );
        let rows: Vec<&str> = lines.collect();
        assert!(!rows.is_empty(), "adaptive policy produces decision rows");
        assert!(
            rows.iter().all(|r| r.starts_with("anu,")),
            "rr has no tuner"
        );
        // Every row carries a named heuristic outcome.
        for r in &rows {
            let outcome = r.rsplit(',').next().unwrap();
            assert!(
                TuneOutcome::parse(outcome).is_some(),
                "unknown outcome {outcome} in {r}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_files_written() {
        let rs = quick_result();
        let dir = std::env::temp_dir().join("anu_report_test");
        let paths = write_figure_csvs_tagged("figX", None, &rs, &dir).unwrap();
        assert_eq!(paths.len(), 1);
        let content = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(content.starts_with("minute,server"));
        assert!(content.lines().count() > 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
