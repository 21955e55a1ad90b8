//! The benchmark's named workloads and their set-up.
//!
//! A workload is a batch: a fixed list of simulations (one per
//! `(experiment, policy)` pair, in declaration order) that one pass runs
//! back to back on one thread. The seed only shapes the generated inputs;
//! the simulator receives the experiments.

use crate::spans::SpanLog;
use anu_cluster::{plan_faults, FaultPlanConfig, PlacementPolicy};
use anu_harness::{
    figure, figure_scaled, reduced, storm_cluster, storm_name, Experiment, SimTask, FIGURE_NUMBERS,
};
use anu_workload::{CostModel, StormConfig, StormKind, SyntheticConfig};

/// Scale of the fig6 cell of `scale_hotpath`: 420 file sets, whose
/// per-set state stays in cache.
pub const HOTPATH_FIG6_SCALE: u64 = 20;
/// Scale of the fig8 cell of `scale_hotpath`: 25,000 file sets, past the
/// point where per-set state falls out of cache.
pub const HOTPATH_FIG8_SCALE: u64 = 50;
/// How much longer than the harness storm cell a `churn_storm` cell runs:
/// 1M requests and 2,000 autoscaler ticks per cell.
pub const STORM_LENGTH: u64 = 100;
/// [`STORM_LENGTH`] at test size: the shortest length at which the
/// autoscaler retires and re-commissions servers in both cells, so ANU's
/// planned-membership hooks change the result.
const STORM_TINY_LENGTH: u64 = 5;

/// Policies `scale_hotpath` runs. The prescient oracle is left out: its
/// tick cost would swamp the event loop this workload exists to time.
const HOTPATH_POLICIES: [&str; 3] = ["simple-randomization", "round-robin", "anu-randomization"];
/// Policies `churn_storm` runs: a static baseline and ANU.
const STORM_POLICIES: [&str; 2] = ["simple-randomization", "anu-randomization"];
/// The `churn_storm` cells: storm shape, and the intensity of both the
/// storm and its churn faults.
const STORM_CELLS: [(StormKind, f64); 2] =
    [(StormKind::Adversarial, 2.0), (StormKind::FlashCrowd, 1.0)];

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Figures 6–11 lineup at scale 1 for seeds S and S+1, with CSVs
    /// rendered as the `figures` binary renders them.
    PaperGrid,
    /// fig6 and fig8 scaled up, under the static policies and ANU.
    ScaleHotpath,
    /// Lengthened storm cells with churn faults, autoscaling and shedding.
    ChurnStorm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::ScaleHotpath,
        Workload::ChurnStorm,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::ScaleHotpath => "scale_hotpath",
            Workload::ChurnStorm => "churn_storm",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a pass renders its results as CSVs. The `figures` binary
    /// writes them for the paper grid and the storm sweep, and none for
    /// `--scale` runs.
    pub fn renders(self) -> bool {
        self != Workload::ScaleHotpath
    }

    /// Generate the workload's experiments for `seed`, recording
    /// `workload.generate` and `faults.plan` spans under `parent`.
    /// `tiny` shrinks every experiment to at most 50,000 requests with the
    /// same structure, for tests.
    pub fn experiments(
        self,
        seed: u64,
        tiny: bool,
        log: &mut SpanLog,
        parent: u32,
    ) -> Vec<Experiment> {
        let mut generate =
            |f: &dyn Fn() -> Experiment| log.time("workload.generate", Some(parent), None, f);
        match self {
            // Two seeds: the prescient tick's cost moves with the seed, and
            // two narrow that spread across runs.
            Workload::PaperGrid => [seed, seed.wrapping_add(1)]
                .into_iter()
                .flat_map(|s| FIGURE_NUMBERS.iter().map(move |&n| (s, n)))
                .map(|(s, n)| {
                    generate(&|| {
                        let exp = figure(n, s).expect("an evaluation figure");
                        if tiny {
                            reduced(exp, s)
                        } else {
                            exp
                        }
                    })
                })
                .collect(),
            Workload::ScaleHotpath => [(6, HOTPATH_FIG6_SCALE), (8, HOTPATH_FIG8_SCALE)]
                .into_iter()
                .map(|(n, scale)| {
                    let mut exp = generate(&|| {
                        if tiny {
                            reduced(figure(n, seed).expect("an evaluation figure"), seed)
                        } else {
                            figure_scaled(n, seed, scale).expect("an evaluation figure")
                        }
                    });
                    exp.policies
                        .retain(|(label, _)| HOTPATH_POLICIES.contains(&label.as_str()));
                    exp
                })
                .collect(),
            Workload::ChurnStorm => STORM_CELLS
                .into_iter()
                .map(|(kind, level)| storm_cell(kind, level, seed, tiny, log, parent))
                .collect(),
        }
    }
}

/// One `churn_storm` cell: the harness storm cell (`storm_experiment`)
/// lengthened by [`STORM_LENGTH`] at the same rate, load and churn
/// intensity.
fn storm_cell(
    kind: StormKind,
    level: f64,
    seed: u64,
    tiny: bool,
    log: &mut SpanLog,
    parent: u32,
) -> Experiment {
    let length = if tiny {
        STORM_TINY_LENGTH
    } else {
        STORM_LENGTH
    };
    let mut cluster = storm_cluster();
    let core = cluster.core_server_ids();
    let core_speed: f64 = cluster
        .servers
        .iter()
        .filter(|s| core.contains(&s.id))
        .map(|s| s.speed)
        .sum();
    let mut base = SyntheticConfig::paper(seed);
    base.total_requests = 10_000 * length;
    base.duration_secs = 1_000.0 * length as f64;
    base = base.with_offered_load(0.5, core_speed);
    base.cost = CostModel::Pareto { alpha: 1.5 };
    let workload = log.time("workload.generate", Some(parent), None, || {
        StormConfig {
            kind,
            intensity: level,
            base,
        }
        .generate()
    });
    let env = FaultPlanConfig::churn_storm(level, workload.duration().as_secs_f64());
    cluster.faults = log.time("faults.plan", Some(parent), None, || {
        plan_faults(&env, &core, seed)
    });
    let mut policies = anu_harness::storm::storm_policies();
    policies.retain(|(label, _)| STORM_POLICIES.contains(&label.as_str()));
    Experiment {
        name: storm_name(kind.name(), level),
        cluster,
        workload,
        policies,
        seed,
    }
}

/// Build one fresh policy per task, recording a `policy.build` span per
/// task under `parent`.
pub fn build_policies(
    experiments: &[Experiment],
    tasks: &[SimTask],
    log: &mut SpanLog,
    parent: Option<u32>,
) -> Vec<Box<dyn PlacementPolicy>> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let exp = &experiments[t.experiment];
            log.time("policy.build", parent, Some(i as u32), || {
                exp.policies[t.policy]
                    .1
                    .build(&exp.cluster, &exp.workload, exp.seed)
            })
        })
        .collect()
}
