//! Experiment definition and parallel runner.
//!
//! An [`Experiment`] pairs one workload + cluster with a list of labelled
//! policies; running it produces one [`RunResult`] per policy. Policies run
//! in parallel (std scoped threads) since each simulation is independent
//! and deterministic.

use anu_cluster::{ClusterConfig, PlacementPolicy, RunResult};
use anu_core::{AnuConfig, Matching, ServerId, TuningConfig};
use anu_des::SimDuration;
use anu_policies::{AnuPolicy, Prescient, Rendezvous, RoundRobin, SimpleRandom};
use anu_trace::TraceLevel;
use anu_workload::Workload;
use std::collections::BTreeMap;

/// How far the prescient oracle looks ahead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrescientWindow {
    /// One tuning interval — tracks workload shifts (trace experiments).
    Tick,
    /// The whole workload — sees the true per-set rates (stationary
    /// synthetic experiments; the paper's prescient "retains the same
    /// configuration" there).
    Full,
}

/// Factory description of a policy, buildable per run.
#[derive(Clone, Debug)]
pub enum PolicyKind {
    /// Static hash-random placement.
    SimpleRandom,
    /// Static equal-count placement.
    RoundRobin,
    /// Perfect-knowledge bin packing.
    Prescient {
        /// Oracle lookahead.
        window: PrescientWindow,
    },
    /// Perfect-knowledge packing solved once at time zero and then kept —
    /// the paper's observed stationary-workload behavior made exact, and
    /// the configuration the mean-field capacity-proportional model
    /// describes.
    PrescientFrozen,
    /// ANU randomization with the given tuning configuration.
    Anu {
        /// Delegate tuning knobs (heuristics on/off etc.).
        tuning: TuningConfig,
    },
    /// ANU with the decentralized pairwise planner (§5 extension).
    AnuGossip {
        /// Tuning knobs (heuristics apply pair-locally).
        tuning: TuningConfig,
        /// Peer matching strategy.
        matching: Matching,
    },
    /// Static rendezvous (HRW) hashing — the P2P-style baseline of §3.
    Rendezvous,
    /// Rendezvous weighted by the true server speeds — the CRUSH-style
    /// comparator: known capacities, no workload adaptivity.
    WeightedRendezvous,
}

impl PolicyKind {
    /// Instantiate the policy for a concrete experiment. A prescient
    /// policy's oracle is a clone of `workload`, which shares its request
    /// stream rather than copying it.
    pub fn build(
        &self,
        cluster: &ClusterConfig,
        workload: &Workload,
        seed: u64,
    ) -> Box<dyn PlacementPolicy> {
        match self {
            PolicyKind::SimpleRandom => Box::new(SimpleRandom::new(seed)),
            PolicyKind::RoundRobin => Box::new(RoundRobin::new()),
            PolicyKind::Prescient { window } => {
                let speeds: BTreeMap<ServerId, f64> =
                    cluster.servers.iter().map(|s| (s.id, s.speed)).collect();
                let w = match window {
                    PrescientWindow::Tick => cluster.tick,
                    PrescientWindow::Full => SimDuration(workload.duration().0.max(cluster.tick.0)),
                };
                Box::new(Prescient::new(workload.clone(), speeds, w))
            }
            PolicyKind::PrescientFrozen => {
                let speeds: BTreeMap<ServerId, f64> =
                    cluster.servers.iter().map(|s| (s.id, s.speed)).collect();
                let w = SimDuration(workload.duration().0.max(cluster.tick.0));
                Box::new(Prescient::new(workload.clone(), speeds, w).frozen())
            }
            PolicyKind::Anu { tuning } => Box::new(AnuPolicy::new(AnuConfig {
                seed,
                tuning: *tuning,
            })),
            PolicyKind::AnuGossip { tuning, matching } => Box::new(AnuPolicy::decentralized(
                AnuConfig {
                    seed,
                    tuning: *tuning,
                },
                *matching,
            )),
            PolicyKind::Rendezvous => Box::new(Rendezvous::new(seed)),
            PolicyKind::WeightedRendezvous => {
                let weights: BTreeMap<ServerId, f64> =
                    cluster.servers.iter().map(|s| (s.id, s.speed)).collect();
                Box::new(Rendezvous::weighted(seed, weights))
            }
        }
    }
}

/// One figure-worth of simulation work.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Experiment id, e.g. "fig8".
    pub name: String,
    /// The cluster under test.
    pub cluster: ClusterConfig,
    /// The workload driving it.
    pub workload: Workload,
    /// Labelled policies to compare.
    pub policies: Vec<(String, PolicyKind)>,
    /// Seed for seeded policies.
    pub seed: u64,
}

impl Experiment {
    /// Run every policy on the deterministic worker pool of `jobs` workers
    /// (0 = one per available core), returning results in declaration
    /// order. Results are identical at any worker count.
    pub fn run(&self, jobs: usize) -> Vec<RunResult> {
        crate::runner::run_grid(std::slice::from_ref(self), jobs, TraceLevel::Off)
            .into_iter()
            .map(|o| o.result)
            .collect()
    }

    /// Run a single policy by label (for focused tests).
    pub fn run_one(&self, label: &str) -> Option<RunResult> {
        let (l, kind) = self.policies.iter().find(|(l, _)| l == label)?;
        let mut policy = kind.build(&self.cluster, &self.workload, self.seed);
        let mut r = anu_cluster::run(&self.cluster, &self.workload, policy.as_mut());
        r.policy = l.clone();
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anu_workload::{CostModel, SyntheticConfig, WeightDist};

    fn tiny() -> Experiment {
        Experiment {
            name: "test".into(),
            cluster: ClusterConfig::paper(),
            workload: SyntheticConfig {
                n_file_sets: 25,
                total_requests: 3_000,
                duration_secs: 500.0,
                weights: WeightDist::PowerOfUniform { alpha: 50.0 },
                mean_cost_secs: 0.5,
                cost: CostModel::UniformSpread,
                seed: 17,
            }
            .generate(),
            policies: vec![
                ("simple".into(), PolicyKind::SimpleRandom),
                ("rr".into(), PolicyKind::RoundRobin),
                (
                    "prescient".into(),
                    PolicyKind::Prescient {
                        window: PrescientWindow::Full,
                    },
                ),
                (
                    "anu".into(),
                    PolicyKind::Anu {
                        tuning: TuningConfig::paper(),
                    },
                ),
            ],
            seed: 99,
        }
    }

    #[test]
    fn run_all_returns_in_order() {
        let e = tiny();
        let rs = e.run(0);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].policy, "simple");
        assert_eq!(rs[3].policy, "anu");
        for r in &rs {
            assert_eq!(r.summary.completed_requests, 3_000);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let e = tiny();
        let par = e.run(0);
        for (label, _) in &e.policies {
            let seq = e.run_one(label).unwrap();
            let p = par.iter().find(|r| &r.policy == label).unwrap();
            assert_eq!(seq.summary, p.summary, "{label}");
        }
    }

    #[test]
    fn jobs_count_does_not_change_results() {
        let e = tiny();
        let one = e.run(1);
        let four = e.run(4);
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.summary, b.summary, "{}", a.policy);
        }
    }

    #[test]
    fn prescient_policies_share_the_experiment_stream() {
        use std::sync::Arc;
        let e = tiny();
        let stream = &e.workload.requests;
        for kind in [
            PolicyKind::Prescient {
                window: PrescientWindow::Tick,
            },
            PolicyKind::Prescient {
                window: PrescientWindow::Full,
            },
            PolicyKind::PrescientFrozen,
        ] {
            let before = Arc::strong_count(stream);
            let policy = kind.build(&e.cluster, &e.workload, e.seed);
            assert_eq!(Arc::strong_count(stream), before + 1, "{kind:?}");
            drop(policy);
            assert_eq!(Arc::strong_count(stream), before, "{kind:?}");
        }
    }

    #[test]
    fn run_one_unknown_label() {
        assert!(tiny().run_one("nope").is_none());
    }

    #[test]
    fn every_policy_kind_builds_and_runs() {
        use anu_core::Matching;
        let mut e = tiny();
        e.policies = vec![
            ("simple".into(), PolicyKind::SimpleRandom),
            ("rr".into(), PolicyKind::RoundRobin),
            (
                "prescient".into(),
                PolicyKind::Prescient {
                    window: PrescientWindow::Tick,
                },
            ),
            (
                "anu".into(),
                PolicyKind::Anu {
                    tuning: TuningConfig::paper(),
                },
            ),
            (
                "gossip".into(),
                PolicyKind::AnuGossip {
                    tuning: TuningConfig::paper(),
                    matching: Matching::HiLo,
                },
            ),
            ("hrw".into(), PolicyKind::Rendezvous),
            ("whrw".into(), PolicyKind::WeightedRendezvous),
        ];
        let rs = e.run(0);
        assert_eq!(rs.len(), 7);
        for r in &rs {
            assert_eq!(
                r.summary.completed_requests, r.summary.offered_requests,
                "{}",
                r.policy
            );
        }
    }
}
