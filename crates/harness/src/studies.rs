//! Studies beyond the paper's figures: ablations of the delegate's knobs,
//! and claims the paper argues for outside its six figures.
//!
//! `figures --studies` runs them as one [`Sweep`]. Ten studies replay a
//! workload, and their runs are the cells of its grid:
//!
//! * `average` — weighted-mean vs median delegate average (§4: "robust to
//!   the choice of an average");
//! * `threshold` — the thresholding parameter `t` from 0.1 to 2;
//! * `gamma` — the scaling exponent γ;
//! * `homogeneous` — ANU vs simple randomization on five equal servers
//!   (§4: server scaling helps even when everything is uniform);
//! * `decentralized` — the central delegate vs pairwise gossip with hi-lo
//!   and random matching (§5 future work);
//! * `failover` — a delegate crash at every third tick, as a fault script,
//!   vs a stable delegate (§4 statelessness);
//! * `crossover` — offered load ρ from 0.15 to 0.85 for round-robin,
//!   prescient and ANU;
//! * `convergence` — ticks with moves by file-set count and skew;
//! * `scale` — 50 heterogeneous servers and 5,000 file sets;
//! * `hashing` — plain and speed-weighted rendezvous hashing vs ANU.
//!
//! The other two run no replay, so the sweep's `finish` computes them
//! serially: `churn` counts which of 1,000 names [`PlacementMap::locate`]
//! re-homes on a failure and on two kinds of recovery (§4 minimal
//! movement), and `motivation` runs closed-loop clients, which an
//! [`Experiment`] cannot carry (§2: metadata balance buys SAN throughput).
//!
//! `finish` writes `studies_summary.csv` (one row per study, cell and
//! policy), `studies_churn.csv` and `studies_motivation.csv`, and returns
//! one verdict per study that makes a claim: all but `gamma` and
//! `convergence`. Each check restates a claim EXPERIMENTS.md quotes.
//! "Comparable" is the figure checks' rule, a late mean within 3× of
//! prescient's, and the cycles rule is the closed-loop end-to-end test's.

use crate::experiment::{Experiment, PolicyKind, PrescientWindow};
use crate::figures::{comparable, ShapeCheck};
use crate::report::csv_field;
use crate::runner::{Cell, Finished, Sweep, Verdict};
use anu_cluster::{
    run_closed_loop, ClosedLoopResult, ClusterConfig, FaultEvent, RunResult, ServerSpec,
};
use anu_core::{AverageKind, FileSetId, Matching, PlacementMap, ServerId, TuningConfig};
use anu_des::{SimDuration, SimTime};
use anu_policies::{AnuPolicy, RoundRobin, SimpleRandom};
use anu_workload::{CostModel, SyntheticConfig, WeightDist, Workload};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A cell of the studies grid, at its `(study, cell label)`.
type StudyCell<'a> = Cell<'a, (&'static str, String)>;

/// The studies that make a claim, in report order.
const CLAIMING: [&str; 10] = [
    "average",
    "threshold",
    "homogeneous",
    "churn",
    "decentralized",
    "failover",
    "crossover",
    "scale",
    "motivation",
    "hashing",
];

/// Offered loads of the `crossover` study.
const CROSSOVER_LOADS: [f64; 5] = [0.15, 0.3, 0.5, 0.7, 0.85];

/// The label of the cells that run the Figure 8 workload at ρ = 0.5.
const BASE: &str = "rho0.5";

/// The cell label of a synthetic workload at offered load `rho`.
fn at_load(rho: f64) -> String {
    format!("rho{rho}")
}

/// ANU with the paper's tuning, changed by `tweak`.
fn anu(tweak: impl FnOnce(&mut TuningConfig)) -> PolicyKind {
    let mut tuning = TuningConfig::paper();
    tweak(&mut tuning);
    PolicyKind::Anu { tuning }
}

/// A policy lineup with its labels.
fn lineup<const N: usize>(policies: [(&str, PolicyKind); N]) -> Vec<(String, PolicyKind)> {
    policies.map(|(label, p)| (label.into(), p)).into()
}

/// The `failover` study's fault script over a run of `horizon` with
/// ticks every `tick`: a delegate crash with no election pause at every
/// third tick, 3·tick, 6·tick, … up to the horizon. The script is
/// scheduled at set-up, so each crash pops before the tick at the same
/// time, and the successor plans that tick from the placement map alone.
fn delegate_crash_script(tick: SimDuration, horizon: SimDuration) -> Vec<FaultEvent> {
    (1..)
        .map(|k| SimTime(3 * k * tick.0))
        .take_while(|at| at.0 <= horizon.0)
        .map(|at| FaultEvent::DelegateFail { at, pause_ticks: 0 })
        .collect()
}

/// The studies sweep at `seed`: the ten replay studies as one grid, with
/// `churn` and `motivation` computed in `finish`. Writes the three
/// `studies_*.csv` summaries, no per-run files, and one verdict per study
/// that makes a claim.
pub fn studies_sweep(seed: u64) -> Sweep {
    let paper = ClusterConfig::paper();
    let synthetic = |cluster: &ClusterConfig, rho| {
        SyntheticConfig::paper(seed)
            .with_offered_load(rho, cluster.total_speed())
            .generate()
    };
    let base = synthetic(&paper, 0.5);
    let prescient = PolicyKind::Prescient {
        window: PrescientWindow::Full,
    };
    let one_anu = || lineup([("anu-randomization", anu(|_| {}))]);
    let tuned = |name: &str, values: &[f64], set: fn(&mut TuningConfig, f64)| -> Vec<_> {
        let policy = |v| (format!("{name}={v}"), anu(|t| set(t, v)));
        values.iter().map(|&v| policy(v)).collect()
    };
    let mut cells = Vec::new();
    let mut push = |study, label: &str, cluster: &ClusterConfig, workload: Workload, policies| {
        let exp = Experiment {
            name: format!("study_{study}_{label}"),
            cluster: cluster.clone(),
            workload,
            policies,
            seed,
        };
        cells.push(((study, label.to_string()), exp));
    };

    let [mean, median] =
        [AverageKind::WeightedMean, AverageKind::Median].map(|kind| anu(|t| t.average = kind));
    let policies = lineup([("weighted-mean", mean), ("median", median)]);
    push("average", BASE, &paper, base.clone(), policies);
    let thresholds = tuned("t", &[0.1, 0.25, 0.5, 1.0, 2.0], |t, v| {
        t.threshold = Some(v)
    });
    push("threshold", BASE, &paper, base.clone(), thresholds);
    let gammas = tuned("gamma", &[0.25, 0.5, 1.0], |t, v| t.gamma = v);
    push("gamma", BASE, &paper, base.clone(), gammas);
    let uniform = ClusterConfig::homogeneous(5);
    let policies = lineup([
        ("simple-randomization", PolicyKind::SimpleRandom),
        ("anu-randomization", anu(|_| {})),
        ("dynamic-prescient", prescient.clone()),
    ]);
    push(
        "homogeneous",
        BASE,
        &uniform,
        synthetic(&uniform, 0.5),
        policies,
    );
    let gossip = |matching| PolicyKind::AnuGossip {
        tuning: TuningConfig::paper(),
        matching,
    };
    let policies = lineup([
        ("centralized", anu(|_| {})),
        ("gossip-hilo", gossip(Matching::HiLo)),
        ("gossip-random", gossip(Matching::Random)),
    ]);
    push("decentralized", BASE, &paper, base.clone(), policies);
    push("failover", "stable", &paper, base.clone(), one_anu());
    let crashing = ClusterConfig {
        faults: delegate_crash_script(paper.tick, base.duration()),
        ..paper.clone()
    };
    push("failover", "crash3", &crashing, base.clone(), one_anu());
    for rho in CROSSOVER_LOADS {
        let policies = lineup([
            ("round-robin", PolicyKind::RoundRobin),
            ("prescient", prescient.clone()),
            ("anu", anu(|_| {})),
        ]);
        push(
            "crossover",
            &at_load(rho),
            &paper,
            synthetic(&paper, rho),
            policies,
        );
    }
    let grains = [
        (50, 100.0),
        (200, 100.0),
        (500, 100.0),
        (500, 1000.0),
        (2000, 1000.0),
    ];
    for (n_file_sets, alpha) in grains {
        let workload = SyntheticConfig {
            n_file_sets,
            total_requests: 100_000,
            duration_secs: 10_000.0,
            weights: WeightDist::PowerOfUniform { alpha },
            mean_cost_secs: 0.0,
            cost: CostModel::UniformSpread,
            seed,
        }
        .with_offered_load(0.5, paper.total_speed())
        .generate();
        let label = format!("n{n_file_sets}_a{alpha}");
        push("convergence", &label, &paper, workload, one_anu());
    }
    // The paper's scalability pitch: shared state grows with servers, not
    // file sets.
    let servers = (0..50).map(|i| ServerSpec {
        id: ServerId(i),
        speed: f64::from(1 + i % 9),
    });
    let wide = ClusterConfig {
        servers: servers.collect(),
        ..paper.clone()
    };
    let workload = SyntheticConfig {
        n_file_sets: 5_000,
        total_requests: 300_000,
        duration_secs: 6_000.0,
        weights: WeightDist::PowerOfUniform { alpha: 1000.0 },
        mean_cost_secs: 0.0,
        cost: CostModel::UniformSpread,
        seed,
    }
    .with_offered_load(0.55, wide.total_speed())
    .generate();
    let policies = lineup([
        ("round-robin", PolicyKind::RoundRobin),
        ("anu", anu(|_| {})),
    ]);
    push("scale", "s50_n5000", &wide, workload, policies);
    let policies = lineup([
        ("rendezvous", PolicyKind::Rendezvous),
        ("weighted-rendezvous", PolicyKind::WeightedRendezvous),
        ("anu-randomization", anu(|_| {})),
    ]);
    push("hashing", BASE, &paper, base, policies);

    Sweep::new("studies", cells, false, move |cells, out| {
        finish(cells, out, seed)
    })
}

/// The studies sweep's `finish`: write the three summaries and return one
/// verdict per study that makes a claim. `churn` and `motivation` run
/// here, serially, because neither is a replay the grid can hold.
fn finish(cells: &[StudyCell<'_>], out: &Path, seed: u64) -> io::Result<Finished> {
    let churn = Churn::count(seed).map_err(|e| io::Error::other(format!("churn study: {e}")))?;
    let motivation = motivation_runs(seed);
    let files = vec![
        write_summary_csv(cells, out)?,
        churn.write_csv(seed, out)?,
        write_motivation_csv(&motivation, seed, out)?,
    ];
    let verdicts = CLAIMING.map(|study| {
        let checks = match study {
            "churn" => Some(churn.checks()),
            "motivation" => Some(motivation_checks(&motivation)),
            _ => replay_checks(study, cells),
        };
        Verdict {
            name: format!("study_{study}"),
            seed,
            // A grid without the runs a study's checks read fails them.
            checks: checks.unwrap_or_else(|| {
                vec![check(
                    &format!("{study}: the grid ran every run the checks read"),
                    "a run is missing".into(),
                    false,
                )]
            }),
        }
    });
    Ok(Finished {
        files,
        verdicts: verdicts.into(),
    })
}

/// Write `studies_summary.csv` in `dir`: one row per `(study, cell,
/// policy)` run in grid order, with its late-half mean latency and
/// imbalance, its migrations, and how many of its ticks ordered moves.
/// Fixed-precision formatting keeps the bytes deterministic across
/// platforms and worker counts.
fn write_summary_csv(cells: &[StudyCell<'_>], dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("studies_summary.csv");
    let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        f,
        "study,cell,policy,seed,late_mean_ms,late_imbalance,moves,ticks_with_moves,ticks"
    )?;
    for c in cells {
        for r in c.results {
            writeln!(
                f,
                "{},{},{},{},{:.3},{:.4},{},{},{}",
                c.at.0,
                csv_field(&c.at.1),
                csv_field(&r.policy),
                c.exp.seed,
                r.summary.late_mean_latency_ms,
                r.summary.late_imbalance_cov,
                r.summary.migrations,
                r.epochs.iter().filter(|e| e.moves > 0).count(),
                r.epochs.len()
            )?;
        }
    }
    f.flush()?;
    Ok(path)
}

fn check(claim: &str, measured: String, pass: bool) -> ShapeCheck {
    ShapeCheck {
        claim: claim.into(),
        measured,
        pass,
    }
}

/// What a check compares: its name and unit in the measured text, how to
/// read it off a run, and its decimals.
struct Metric(&'static str, &'static str, fn(&RunResult) -> f64, usize);

const LATE_MEAN: Metric = Metric("late mean", " ms", |r| r.summary.late_mean_latency_ms, 1);
const IMBALANCE: Metric = Metric(
    "late imbalance CoV",
    "",
    |r| r.summary.late_imbalance_cov,
    2,
);
const MOVES: Metric = Metric("moves", "", |r| r.summary.migrations as f64, 0);

/// A check that labelled run `a` reads lower than `b` on `metric`.
fn below(claim: &str, metric: &Metric, a: (&str, &RunResult), b: (&str, &RunResult)) -> ShapeCheck {
    let Metric(name, unit, read, decimals) = *metric;
    let (x, y) = (read(a.1), read(b.1));
    let measured = format!(
        "{name}: {} {x:.decimals$}{unit} vs {} {y:.decimals$}{unit}",
        a.0, b.0
    );
    check(claim, measured, x < y)
}

/// The checks of replay study `study`, or `None` when the grid lacks a
/// run they read.
fn replay_checks(study: &str, cells: &[StudyCell<'_>]) -> Option<Vec<ShapeCheck>> {
    let get = |label: &str, policy: &str| {
        let cell = cells.iter().find(|c| c.at.0 == study && c.at.1 == label)?;
        cell.results.iter().find(|r| r.policy == policy)
    };
    let on_base = |policy| get(BASE, policy);
    let late = |r: &RunResult| r.summary.late_mean_latency_ms;
    Some(match study {
        "average" => {
            let (mean, median) = (late(on_base("weighted-mean")?), late(on_base("median")?));
            vec![check(
                "average: the delegate is robust to its choice of average — the weighted-mean \
                 and median late means lie within 50% of the larger",
                format!("late mean: weighted mean {mean:.1} ms vs median {median:.1} ms"),
                (mean - median).abs() <= 0.5 * mean.max(median),
            )]
        }
        "threshold" => {
            let paper = ("t = 0.5", on_base("t=0.5")?);
            let (small, large) = (("t = 0.1", on_base("t=0.1")?), ("t = 2", on_base("t=2")?));
            vec![
                below(
                    "threshold: a small t = 0.1 moves more file sets than the paper's t = 0.5",
                    &MOVES,
                    paper,
                    small,
                ),
                below(
                    "threshold: a large t = 2 stops balancing — a higher late mean than t = 0.5",
                    &LATE_MEAN,
                    paper,
                    large,
                ),
                below(
                    "threshold: a large t = 2 leaves a higher imbalance than t = 0.5",
                    &IMBALANCE,
                    paper,
                    large,
                ),
            ]
        }
        "homogeneous" => {
            let anu = ("ANU", on_base("anu-randomization")?);
            let simple = ("simple", on_base("simple-randomization")?);
            vec![
                below(
                    "homogeneous: on five equal servers ANU's late mean is below simple \
                     randomization's",
                    &LATE_MEAN,
                    anu,
                    simple,
                ),
                below(
                    "homogeneous: on five equal servers ANU's imbalance is below simple \
                     randomization's",
                    &IMBALANCE,
                    anu,
                    simple,
                ),
            ]
        }
        "decentralized" => {
            let hilo = ("hi-lo", on_base("gossip-hilo")?);
            let random = ("random", on_base("gossip-random")?);
            vec![
                below(
                    "decentralized: hi-lo gossip makes fewer moves than random matching",
                    &MOVES,
                    hilo,
                    random,
                ),
                below(
                    "decentralized: hi-lo gossip has a lower late mean than random matching",
                    &LATE_MEAN,
                    hilo,
                    random,
                ),
            ]
        }
        "failover" => {
            let stable = late(get("stable", "anu-randomization")?);
            let crashing = late(get("crash3", "anu-randomization")?);
            vec![check(
                "failover: a delegate crash at every third tick barely changes the outcome — \
                 the crashing/stable late-mean ratio is below 1.5",
                format!("late mean: crashing {crashing:.1} ms vs stable {stable:.1} ms"),
                crashing / stable.max(1.0) < 1.5,
            )]
        }
        "crossover" => {
            let at = |rho, policy| get(&at_load(rho), policy).map(late);
            let (rr, prescient) = (at(0.3, "round-robin")?, at(0.3, "prescient")?);
            let tracked: Vec<(f64, f64, f64)> = CROSSOVER_LOADS
                .into_iter()
                .filter(|&rho| rho <= 0.7)
                .map(|rho| Some((rho, at(rho, "anu")?, at(rho, "prescient")?)))
                .collect::<Option<_>>()?;
            let (anu, saturated) = (at(0.85, "anu")?, at(0.85, "prescient")?);
            let shown: Vec<String> = tracked
                .iter()
                .map(|(rho, a, p)| format!("ρ {rho}: ANU {a:.1} ms vs prescient {p:.1} ms"))
                .collect();
            vec![
                check(
                    "crossover: round-robin has collapsed by ρ = 0.3 — its late mean is beyond \
                     3× prescient's",
                    format!("late mean: round-robin {rr:.1} ms vs prescient {prescient:.1} ms"),
                    !comparable(rr, prescient),
                ),
                check(
                    "crossover: ANU's late mean is within 3× of prescient's at every ρ ≤ 0.7",
                    shown.join("; "),
                    tracked.iter().all(|&(_, a, p)| comparable(a, p)),
                ),
                check(
                    "crossover: near saturation (ρ = 0.85) ANU falls off — its late mean is \
                     beyond 3× prescient's",
                    format!("late mean: ANU {anu:.1} ms vs prescient {saturated:.1} ms"),
                    !comparable(anu, saturated),
                ),
            ]
        }
        "scale" => {
            let anu = ("ANU", get("s50_n5000", "anu")?);
            let rr = ("round-robin", get("s50_n5000", "round-robin")?);
            vec![
                below(
                    "scale: on 50 servers and 5,000 file sets ANU's late mean is below \
                     round-robin's",
                    &LATE_MEAN,
                    anu,
                    rr,
                ),
                below(
                    "scale: on 50 servers and 5,000 file sets ANU's imbalance is below \
                     round-robin's",
                    &IMBALANCE,
                    anu,
                    rr,
                ),
            ]
        }
        "hashing" => {
            let plain = ("plain", on_base("rendezvous")?);
            let weighted = ("weighted", on_base("weighted-rendezvous")?);
            let anu = ("ANU", on_base("anu-randomization")?);
            vec![
                below(
                    "hashing: weighting rendezvous hashing by server speed fixes the capacity \
                     mismatch — a lower late mean than plain rendezvous",
                    &LATE_MEAN,
                    weighted,
                    plain,
                ),
                below(
                    "hashing: ANU beats weighted rendezvous's late mean, knowing neither speeds \
                     nor workload",
                    &LATE_MEAN,
                    anu,
                    weighted,
                ),
                below(
                    "hashing: ANU fixes the skew weighted rendezvous leaves — a lower imbalance",
                    &IMBALANCE,
                    anu,
                    weighted,
                ),
            ]
        }
        _ => return None,
    })
}

/// How many file-set names the `churn` study locates.
const CHURN_NAMES: u64 = 1000;

/// The server the `churn` study fails and brings back.
const CHURNED: ServerId = ServerId(2);

/// The `churn` study: how many of [`CHURN_NAMES`] file-set names change
/// server on a five-server placement map when one server fails, when it
/// comes back (the paper's add, and the takeover extension), and under a
/// naive re-randomization with a fresh seed.
struct Churn {
    orphaned: usize,
    fail_moved: usize,
    recover_moved: usize,
    takeover_moved: usize,
    takeover_third_party: usize,
    naive_moved: usize,
}

impl Churn {
    fn count(seed: u64) -> anu_core::Result<Churn> {
        let servers: Vec<ServerId> = (0..5).map(ServerId).collect();
        let names: Vec<[u8; 8]> = (0..CHURN_NAMES)
            .map(|i| FileSetId(i).name_bytes())
            .collect();
        let owners =
            |map: &PlacementMap| -> Vec<ServerId> { names.iter().map(|n| map.locate(n)).collect() };
        let moved =
            |a: &[ServerId], b: &[ServerId]| a.iter().zip(b).filter(|(x, y)| x != y).count();

        let mut map = PlacementMap::with_default_rounds(&servers, seed)?;
        let before = owners(&map);
        map.remove_server(CHURNED)?;
        let failed = owners(&map);
        let mut takeover = map.clone();
        map.add_server(CHURNED)?;
        takeover.add_server_takeover(CHURNED)?;
        let (recovered, taken_over) = (owners(&map), owners(&takeover));
        // Naive full re-randomization, what a scheme without minimal
        // movement would do: a fresh map with a different seed.
        let naive = owners(&PlacementMap::with_default_rounds(&servers, seed ^ 0xdead)?);
        Ok(Churn {
            orphaned: before.iter().filter(|&&s| s == CHURNED).count(),
            fail_moved: moved(&before, &failed),
            recover_moved: moved(&failed, &recovered),
            takeover_moved: moved(&failed, &taken_over),
            takeover_third_party: failed
                .iter()
                .zip(&taken_over)
                .filter(|&(was, now)| was != now && *now != CHURNED)
                .count(),
            naive_moved: moved(&before, &naive),
        })
    }

    /// Write `studies_churn.csv` in `dir`: the counts as one row.
    fn write_csv(&self, seed: u64, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("studies_churn.csv");
        let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            f,
            "seed,file_sets,orphaned,fail_moved,recover_moved,takeover_moved,\
             takeover_third_party,naive_moved"
        )?;
        writeln!(
            f,
            "{seed},{CHURN_NAMES},{},{},{},{},{},{}",
            self.orphaned,
            self.fail_moved,
            self.recover_moved,
            self.takeover_moved,
            self.takeover_third_party,
            self.naive_moved
        )?;
        f.flush()?;
        Ok(path)
    }

    fn checks(&self) -> Vec<ShapeCheck> {
        let recoveries = format!(
            "{} (paper add) and {} (takeover) vs {} naive",
            self.recover_moved, self.takeover_moved, self.naive_moved
        );
        vec![
            check(
                "churn: failing 1 of 5 servers moves exactly the file sets it orphaned, the \
                 minimum",
                format!("{} moved, {} orphaned", self.fail_moved, self.orphaned),
                self.fail_moved == self.orphaned,
            ),
            check(
                "churn: the takeover add moves no file set to a third party",
                format!("{} to third parties", self.takeover_third_party),
                self.takeover_third_party == 0,
            ),
            check(
                "churn: both recoveries move fewer file sets than naive re-randomization",
                recoveries,
                self.recover_moved.max(self.takeover_moved) < self.naive_moved,
            ),
        ]
    }
}

/// The `motivation` study: closed-loop clients (metadata, then SAN
/// transfer, then think) on the paper cluster, under round-robin, simple
/// randomization and ANU. Prescient is absent: closed-loop clients have
/// no future trace to read.
fn motivation_runs(seed: u64) -> [(&'static str, ClosedLoopResult); 3] {
    let cluster = ClusterConfig::paper();
    let rr = run_closed_loop(&cluster, seed, &mut RoundRobin::new());
    let simple = run_closed_loop(&cluster, seed, &mut SimpleRandom::new(seed));
    let anu = run_closed_loop(&cluster, seed, &mut AnuPolicy::with_seed(seed));
    [
        ("round-robin", rr),
        ("simple-randomization", simple),
        ("anu-randomization", anu),
    ]
}

/// Write `studies_motivation.csv` in `dir`: one row per policy, at fixed
/// precision.
fn write_motivation_csv(
    runs: &[(&str, ClosedLoopResult)],
    seed: u64,
    dir: &Path,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("studies_motivation.csv");
    let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(
        f,
        "policy,seed,completed_ops,ops_per_sec,mean_cycle_ms,san_utilization,migrations"
    )?;
    for (policy, r) in runs {
        writeln!(
            f,
            "{policy},{seed},{},{:.3},{:.3},{:.4},{}",
            r.completed_ops,
            r.throughput_ops_per_sec,
            r.mean_cycle_ms,
            r.san_utilization,
            r.run.summary.migrations
        )?;
    }
    f.flush()?;
    Ok(path)
}

fn motivation_checks(runs: &[(&str, ClosedLoopResult); 3]) -> Vec<ShapeCheck> {
    let [(_, rr), (_, simple), (_, anu)] = runs;
    let util = |r: &ClosedLoopResult| 100.0 * r.san_utilization;
    vec![
        check(
            "motivation: balanced metadata lets clients complete at least 2.5× round-robin's \
             cycles",
            format!(
                "cycles: ANU {} vs round-robin {}",
                anu.completed_ops, rr.completed_ops
            ),
            anu.completed_ops as f64 >= 2.5 * rr.completed_ops as f64,
        ),
        check(
            "motivation: ANU drives the SAN harder than both static policies",
            format!(
                "SAN utilization: ANU {:.1}% vs round-robin {:.1}% and simple {:.1}%",
                util(anu),
                util(rr),
                util(simple)
            ),
            anu.san_utilization > rr.san_utilization.max(simple.san_utilization),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::tiny_experiment;
    use anu_trace::TraceLevel;

    #[test]
    fn failover_script_crashes_the_delegate_every_third_tick() {
        let sweep = studies_sweep(1);
        let faulted: Vec<&Experiment> = sweep
            .experiments()
            .iter()
            .filter(|e| !e.cluster.faults.is_empty())
            .collect();
        let [exp] = faulted[..] else {
            panic!("one faulted cell, got {}", faulted.len())
        };
        assert_eq!(exp.name, "study_failover_crash3");
        let (tick, horizon) = (exp.cluster.tick.0, exp.workload.duration().0);
        let times: Vec<u64> = exp
            .cluster
            .faults
            .iter()
            .map(|f| match *f {
                FaultEvent::DelegateFail { at, pause_ticks: 0 } => at.0,
                other => panic!("unexpected fault {other:?}"),
            })
            .collect();
        // Two-minute ticks over 10,000 s: a crash at 3, 6, …, 81 ticks.
        assert_eq!(times, (1..=27).map(|k| 3 * k * tick).collect::<Vec<_>>());
        assert!(times[26] <= horizon && times[26] + 3 * tick > horizon);
        exp.cluster.validate_faults().expect("the script validates");
    }

    #[test]
    fn finish_writes_one_row_per_run_and_one_verdict_per_claiming_study() {
        let cells = vec![
            (("average", "a".into()), tiny_experiment("expA", 5)),
            (("crossover", "rho0.3".into()), tiny_experiment("expB", 6)),
        ];
        let sweep = Sweep::new("studies", cells, false, |cells, out| finish(cells, out, 5));
        let (outcomes, grouped) = sweep.run(2, TraceLevel::Epoch);
        assert!(outcomes.iter().all(|o| o.trace_lines.is_empty()));
        let dir = std::env::temp_dir().join(format!("anu_studies_{}", std::process::id()));
        let finished = sweep.finish(&grouped, &dir).unwrap();
        let files =
            ["summary", "churn", "motivation"].map(|n| dir.join(format!("studies_{n}.csv")));
        assert_eq!(finished.files, files);
        let read = |i: usize| std::fs::read_to_string(&finished.files[i]).unwrap();

        let summary = read(0);
        let mut lines = summary.lines();
        assert_eq!(
            lines.next(),
            Some("study,cell,policy,seed,late_mean_ms,late_imbalance,moves,ticks_with_moves,ticks")
        );
        // Two cells of three policies, in grid order, at fixed precision.
        let runs = grouped.iter().flatten();
        let cells = [("average", "a", 5), ("crossover", "rho0.3", 6)];
        let keys = cells
            .iter()
            .flat_map(|c| ["simple", "rr", "anu"].map(|p| (c, p)));
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 6);
        for ((row, r), ((study, cell, seed), policy)) in rows.iter().zip(runs).zip(keys) {
            let with_moves = r.epochs.iter().filter(|e| e.moves > 0).count();
            let expected = format!(
                "{study},{cell},{policy},{seed},{:.3},{:.4},{},{with_moves},{}",
                r.summary.late_mean_latency_ms,
                r.summary.late_imbalance_cov,
                r.summary.migrations,
                r.epochs.len()
            );
            assert_eq!(*row, expected);
        }
        assert_eq!(read(1).lines().count(), 2, "a header and one row");
        assert_eq!(read(2).lines().count(), 1 + 3, "one row per policy");
        std::fs::remove_dir_all(&dir).ok();

        let names: Vec<String> = finished.verdicts.iter().map(|v| v.name.clone()).collect();
        assert_eq!(names, CLAIMING.map(|s| format!("study_{s}")));
        // The tiny grid lacks the runs the replay studies read, so their
        // verdicts fail rather than pass on missing data.
        for v in &finished.verdicts {
            let computed = v.name == "study_churn" || v.name == "study_motivation";
            assert!(
                !v.checks.is_empty() && (computed || !v.pass()),
                "{}",
                v.name
            );
        }
    }
}
