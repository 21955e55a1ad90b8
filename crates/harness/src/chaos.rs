//! Chaos sweep: the four-policy lineup under escalating fault intensity.
//!
//! Each grid cell runs the reduced synthetic workload (same cluster and
//! policy lineup as Figure 8) with a deterministic fault script compiled
//! by [`anu_cluster::plan_faults`] from a one-knob
//! [`FaultPlanConfig::intensity`] environment: crashes with repairs,
//! correlated group failures, limping-server slowdowns, latency-report
//! loss/delay, and delegate crashes. The invariant auditor arms
//! automatically (the fault script is non-empty), so every run doubles as
//! a consistency check of the failover machinery.
//!
//! Outputs are deterministic in `(level, seed)`: the `figures --chaos`
//! sweep writes `out/chaos_*.csv` series plus one `chaos_summary.csv` of
//! availability metrics per `(intensity, policy)` cell, byte-identical at
//! any `--jobs` value.

use crate::experiment::Experiment;
use crate::figures::{fig8, reduced, ShapeCheck};
use crate::runner::{Cell, Finished, Sweep, Verdict};
use anu_cluster::{FaultEvent, FaultPlanConfig, RunResult};
use anu_core::ServerId;
use std::io;
use std::path::{Path, PathBuf};

/// Fault-intensity levels of the default chaos sweep (multiples of one
/// expected failure-class fault per server over the horizon).
pub const CHAOS_LEVELS: [f64; 3] = [0.5, 1.0, 2.0];

/// Grid name for one intensity level: `chaos_i05`, `chaos_i10`, …
/// (intensity × 10, zero-padded to two digits, so names sort by level).
pub fn chaos_name(level: f64) -> String {
    format!("chaos_i{:02}", (level * 10.0).round() as u32)
}

/// The chaos experiment at one fault-intensity `level`: the reduced
/// Figure 8 setting (synthetic workload, four policies) with a fault
/// script drawn for that level over the workload horizon. Level 0 yields
/// an empty script (a fault-free control cell).
pub fn chaos_experiment(level: f64, seed: u64) -> Experiment {
    let mut exp = reduced(fig8(seed), seed);
    exp.name = chaos_name(level);
    let servers: Vec<ServerId> = exp.cluster.servers.iter().map(|s| s.id).collect();
    let env = FaultPlanConfig::intensity(level, exp.workload.duration().as_secs_f64());
    exp.cluster.faults = anu_cluster::plan_faults(&env, &servers, seed);
    exp
}

/// The chaos sweep: one experiment per fault-intensity level (the
/// `figures` run passes [`CHAOS_LEVELS`]), with one verdict per cell from
/// [`chaos_checks`] and the `chaos_summary.csv` availability table.
pub fn chaos_sweep(levels: &[f64], seed: u64) -> Sweep {
    let cells = levels
        .iter()
        .map(|&level| (level, chaos_experiment(level, seed)))
        .collect();
    Sweep::new("chaos", cells, true, |cells: &[Cell<'_, f64>], out| {
        Ok(Finished {
            files: vec![write_chaos_summary_csv(cells, out)?],
            verdicts: cells
                .iter()
                .map(|c| Verdict {
                    name: c.exp.name.clone(),
                    seed: c.exp.seed,
                    checks: chaos_checks(c.exp, c.results),
                })
                .collect(),
        })
    })
}

/// Write the chaos availability summary as `chaos_summary.csv` in `dir`:
/// one row per `(intensity, policy)` cell, fixed-precision formatting so
/// the bytes are deterministic across platforms and worker counts.
pub fn write_chaos_summary_csv(cells: &[Cell<'_, f64>], dir: &Path) -> io::Result<PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let path = dir.join("chaos_summary.csv");
    let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        f,
        "intensity,policy,seed,faults,offered,completed,requeued,mean_latency_ms,\
         unavailable_secs,unavailability_windows,mean_rebalance_secs,max_rebalance_secs,\
         degraded_capacity_secs,migrations,audit_checks,audit_violations"
    )?;
    for c in cells {
        for r in c.results {
            let s = &r.summary;
            writeln!(
                f,
                "{:.2},{},{},{},{},{},{},{:.3},{:.3},{},{:.3},{:.3},{:.3},{},{},{}",
                c.at,
                r.policy,
                c.exp.seed,
                c.exp.cluster.faults.len(),
                s.offered_requests,
                s.completed_requests,
                s.requests_requeued,
                s.mean_latency_ms,
                s.unavailable_secs,
                s.unavailability_windows,
                s.mean_rebalance_secs,
                s.max_rebalance_secs,
                s.degraded_capacity_secs,
                s.migrations,
                s.audit_checks,
                s.audit_violations
            )?;
        }
    }
    f.flush()?;
    Ok(path)
}

/// Time of the last delegate crash in a fault script, if any.
fn last_delegate_fail_secs(faults: &[FaultEvent]) -> Option<f64> {
    faults
        .iter()
        .filter_map(|ev| match ev {
            FaultEvent::DelegateFail { at, .. } => Some(at.as_secs_f64()),
            _ => None,
        })
        .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
}

/// Robustness checks for one chaos cell — the acceptance claims of the
/// fault-injection engine:
///
/// * the invariant auditor ran at every boundary and found nothing;
/// * no request was lost: every offered request completed even though
///   failures requeued some mid-flight;
/// * after the last delegate crash ANU resumed tuning (a tuner epoch with
///   a decision record exists later in the run).
pub fn chaos_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let mut checks = Vec::new();
    let total_checks: u64 = results.iter().map(|r| r.summary.audit_checks).sum();
    let total_violations: u64 = results.iter().map(|r| r.summary.audit_violations).sum();
    checks.push(ShapeCheck {
        claim: format!(
            "{}: the invariant auditor runs at every fault/tick boundary and finds no violation",
            exp.name
        ),
        measured: format!("{total_checks} checks, {total_violations} violations"),
        pass: total_checks > 0 && total_violations == 0,
    });

    let lost: u64 = results
        .iter()
        .map(|r| {
            r.summary
                .offered_requests
                .saturating_sub(r.summary.completed_requests)
        })
        .sum();
    let requeued: u64 = results.iter().map(|r| r.summary.requests_requeued).sum();
    checks.push(ShapeCheck {
        claim: format!(
            "{}: failures displace requests (requeue) but never lose them",
            exp.name
        ),
        measured: format!("{lost} lost, {requeued} requeued across policies"),
        pass: lost == 0,
    });

    if let Some(t_fail) = last_delegate_fail_secs(&exp.cluster.faults) {
        for r in results.iter().filter(|r| r.policy.starts_with("anu")) {
            let resumed = r
                .epochs
                .iter()
                .any(|e| e.time_s > t_fail && e.tune.is_some());
            checks.push(ShapeCheck {
                claim: format!(
                    "{}: {} resumes tuning after the last delegate re-election",
                    exp.name, r.policy
                ),
                measured: format!(
                    "last delegate crash at {t_fail:.0} s; tuner epochs after it: {}",
                    r.epochs
                        .iter()
                        .filter(|e| e.time_s > t_fail && e.tune.is_some())
                        .count()
                ),
                pass: resumed,
            });
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_names_sort_by_level() {
        assert_eq!(chaos_name(0.5), "chaos_i05");
        assert_eq!(chaos_name(1.0), "chaos_i10");
        assert_eq!(chaos_name(2.0), "chaos_i20");
        let mut names: Vec<String> = CHAOS_LEVELS.iter().map(|&l| chaos_name(l)).collect();
        let sorted = names.clone();
        names.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn chaos_experiments_scale_with_intensity() {
        let sweep = chaos_sweep(&CHAOS_LEVELS, 1);
        let exps = sweep.experiments();
        assert_eq!(exps.len(), CHAOS_LEVELS.len());
        for exp in exps {
            assert_eq!(exp.policies.len(), 4);
            exp.cluster.validate_faults().expect("plans validate");
        }
        assert!(
            exps[0].cluster.faults.len() < exps[2].cluster.faults.len(),
            "higher intensity draws more faults ({} vs {})",
            exps[0].cluster.faults.len(),
            exps[2].cluster.faults.len()
        );
        assert!(chaos_experiment(0.0, 1).cluster.faults.is_empty());
    }

    #[test]
    fn chaos_cell_is_deterministic_and_audited() {
        let sweep = chaos_sweep(&[1.0], 1);
        let (_, grouped_a) = sweep.run(1, anu_trace::TraceLevel::Off);
        let (_, grouped_b) = sweep.run(4, anu_trace::TraceLevel::Off);
        for (a, b) in grouped_a[0].iter().zip(&grouped_b[0]) {
            assert_eq!(a.summary, b.summary, "{} differs across jobs", a.policy);
            assert!(a.summary.audit_checks > 0, "{} never audited", a.policy);
            assert_eq!(a.summary.audit_violations, 0, "{} violated", a.policy);
        }

        let dir = std::env::temp_dir().join(format!("anu_chaos_csv_{}", std::process::id()));
        let finished = sweep.finish(&grouped_a, &dir).unwrap();
        assert_eq!(finished.files, [dir.join("chaos_summary.csv")]);
        let content = std::fs::read_to_string(&finished.files[0]).unwrap();
        assert!(content.starts_with("intensity,policy,seed,faults,"));
        assert_eq!(content.lines().count(), 1 + 4, "one row per policy");
        let first = content.lines().nth(1).unwrap();
        assert_eq!(first.rsplit(',').next().unwrap(), "0", "no audit violation");
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(finished.verdicts.len(), 1, "one verdict per cell");
        let v = &finished.verdicts[0];
        assert_eq!(v.name, "chaos_i10");
        assert!(v.checks.len() >= 2);
        for c in &v.checks {
            assert!(c.pass, "[FAIL] {} — {}", c.claim, c.measured);
        }
    }
}
