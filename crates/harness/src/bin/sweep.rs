//! Ablation and sensitivity sweeps beyond the paper's figures.
//!
//! ```text
//! sweep [--seed S] [--study NAME] [--jobs J]
//! ```
//!
//! `--jobs J` sets the worker-pool width every study's `run_all` uses
//! (0 = one per core). Results are identical at any `J`; only wall time
//! changes.
//!
//! Studies:
//! * `average`    — weighted-mean vs median delegate average (paper §4
//!   claims robustness to this choice);
//! * `threshold`  — sensitivity of balance/stability to `t`;
//! * `gamma`      — sensitivity to the scaling exponent;
//! * `homogeneous` — ANU beats simple randomization even with uniform
//!   servers and file sets (paper §4);
//! * `churn`      — movement cost of failure/recovery: ANU's minimal
//!   movement vs the takeover extension vs re-randomizing everything;
//! * `decentralized` — centralized delegate vs pairwise gossip tuning
//!   (paper §5 future work);
//! * `failover`   — periodic delegate crashes (paper §4 statelessness);
//! * `crossover`  — offered-load sweep locating where static placement
//!   collapses and where ANU's coarse tuning stops tracking prescient;
//! * `convergence` — tuning activity vs file-set count and skew;
//! * `scale`      — 50 servers / 5000 file sets end to end;
//! * `motivation` — closed-loop clients: metadata balance vs SAN
//!   utilization (the paper's §2 claim);
//! * `hashing`    — HRW vs speed-weighted HRW vs ANU: what adaptivity
//!   adds over (even capacity-weighted) static hashing.

use anu_cluster::{late_imbalance, late_mean, ClusterConfig};
use anu_core::{AverageKind, FileSetId, PlacementMap, ServerId, TuningConfig};
use anu_harness::{Experiment, PolicyKind, PrescientWindow, DEFAULT_SEED};
use anu_workload::SyntheticConfig;

fn base_experiment(seed: u64, policies: Vec<(String, PolicyKind)>) -> Experiment {
    let cluster = ClusterConfig::paper();
    let workload = SyntheticConfig::paper(seed)
        .with_offered_load(0.5, cluster.total_speed())
        .generate();
    Experiment {
        name: "sweep".into(),
        cluster,
        workload,
        policies,
        seed,
    }
}

fn study_average(seed: u64) {
    println!("--- delegate average: weighted mean vs median ---");
    let mut policies = Vec::new();
    for (label, avg) in [
        ("weighted-mean", AverageKind::WeightedMean),
        ("median", AverageKind::Median),
    ] {
        let mut tuning = TuningConfig::paper();
        tuning.average = avg;
        policies.push((label.to_string(), PolicyKind::Anu { tuning }));
    }
    let results = base_experiment(seed, policies).run_all();
    for r in &results {
        println!(
            "  {:<14} late mean {:>7.1} ms   imbalance CoV {:>5.2}   moves {:>4}",
            r.policy,
            late_mean(&r.series),
            late_imbalance(&r.series),
            r.summary.migrations
        );
    }
    let lm: Vec<f64> = results.iter().map(|r| late_mean(&r.series)).collect();
    let close = (lm[0] - lm[1]).abs() <= 0.5 * lm[0].max(lm[1]);
    println!(
        "  verdict: system is {} to the choice of average (paper: robust)",
        if close { "ROBUST" } else { "SENSITIVE" }
    );
}

fn study_threshold(seed: u64) {
    println!("--- thresholding parameter t sweep ---");
    let mut policies = Vec::new();
    for t in [0.1, 0.25, 0.5, 1.0, 2.0] {
        let mut tuning = TuningConfig::paper();
        tuning.threshold = Some(t);
        policies.push((format!("t={t}"), PolicyKind::Anu { tuning }));
    }
    let results = base_experiment(seed, policies).run_all();
    for r in &results {
        println!(
            "  {:<8} late mean {:>7.1} ms   imbalance CoV {:>5.2}   moves {:>4}",
            r.policy,
            late_mean(&r.series),
            late_imbalance(&r.series),
            r.summary.migrations
        );
    }
    println!("  expectation: small t moves more; very large t stops balancing");
}

fn study_gamma(seed: u64) {
    println!("--- scaling exponent gamma sweep ---");
    let mut policies = Vec::new();
    for g in [0.25, 0.5, 1.0] {
        let mut tuning = TuningConfig::paper();
        tuning.gamma = g;
        policies.push((format!("gamma={g}"), PolicyKind::Anu { tuning }));
    }
    let results = base_experiment(seed, policies).run_all();
    for r in &results {
        println!(
            "  {:<12} late mean {:>7.1} ms   imbalance CoV {:>5.2}   moves {:>4}",
            r.policy,
            late_mean(&r.series),
            late_imbalance(&r.series),
            r.summary.migrations
        );
    }
}

fn study_homogeneous(seed: u64) {
    println!("--- homogeneous cluster: ANU vs simple randomization (paper §4) ---");
    let cluster = ClusterConfig::homogeneous(5);
    let workload = SyntheticConfig::paper(seed)
        .with_offered_load(0.5, cluster.total_speed())
        .generate();
    let exp = Experiment {
        name: "homog".into(),
        cluster,
        workload,
        policies: vec![
            ("simple-randomization".into(), PolicyKind::SimpleRandom),
            (
                "anu-randomization".into(),
                PolicyKind::Anu {
                    tuning: TuningConfig::paper(),
                },
            ),
            (
                "dynamic-prescient".into(),
                PolicyKind::Prescient {
                    window: PrescientWindow::Full,
                },
            ),
        ],
        seed,
    };
    let results = exp.run_all();
    for r in &results {
        println!(
            "  {:<22} late mean {:>7.1} ms   imbalance CoV {:>5.2}",
            r.policy,
            late_mean(&r.series),
            late_imbalance(&r.series)
        );
    }
    println!("  expectation: server scaling beats simple randomization even here");
}

fn study_churn(seed: u64) {
    println!("--- membership churn: movement on fail / recover / add ---");
    let servers: Vec<ServerId> = (0..5).map(ServerId).collect();
    let names: Vec<[u8; 8]> = (0..1000u64).map(|i| FileSetId(i).name_bytes()).collect();

    let mut map = PlacementMap::with_default_rounds(&servers, seed).unwrap();
    let before: Vec<ServerId> = names.iter().map(|n| map.locate(n)).collect();
    map.remove_server(ServerId(2)).unwrap();
    let moved_fail = names
        .iter()
        .zip(&before)
        .filter(|(n, &b)| map.locate(*n) != b)
        .count();
    let orphaned = before.iter().filter(|&&s| s == ServerId(2)).count();
    println!(
        "  failure of 1/5 servers: {moved_fail} of 1000 sets moved ({orphaned} were orphaned; minimum possible)"
    );

    let after_fail: Vec<ServerId> = names.iter().map(|n| map.locate(n)).collect();
    let mut takeover_map = map.clone();
    map.add_server(ServerId(2)).unwrap();
    let moved_rec = names
        .iter()
        .zip(&after_fail)
        .filter(|(n, &b)| map.locate(*n) != b)
        .count();
    println!(
        "  recovery (paper: free partition + scale back): {moved_rec} of 1000 sets moved (fair share ~200)"
    );

    takeover_map.add_server_takeover(ServerId(2)).unwrap();
    let moved_tk = names
        .iter()
        .zip(&after_fail)
        .filter(|(n, &b)| takeover_map.locate(*n) != b)
        .count();
    let third_party = names
        .iter()
        .zip(&after_fail)
        .filter(|(n, &b)| {
            let now = takeover_map.locate(*n);
            now != b && now != ServerId(2)
        })
        .count();
    println!(
        "  recovery (extension: partition takeover): {moved_tk} of 1000 sets moved, {third_party} to third parties"
    );

    // Compare to naive full re-randomization (what consistent-hash-free
    // schemes would do): a fresh map with a different seed moves ~all.
    let fresh = PlacementMap::with_default_rounds(&servers, seed ^ 0xdead).unwrap();
    let moved_naive = names
        .iter()
        .zip(&before)
        .filter(|(n, &b)| fresh.locate(*n) != b)
        .count();
    println!("  naive re-randomization baseline: {moved_naive} of 1000 sets moved");
}

fn study_decentralized(seed: u64) {
    println!("--- centralized delegate vs pairwise gossip (paper §5 future work) ---");
    use anu_core::Matching;
    let results = base_experiment(
        seed,
        vec![
            (
                "centralized".into(),
                PolicyKind::Anu {
                    tuning: TuningConfig::paper(),
                },
            ),
            (
                "gossip-hilo".into(),
                PolicyKind::AnuGossip {
                    tuning: TuningConfig::paper(),
                    matching: Matching::HiLo,
                },
            ),
            (
                "gossip-random".into(),
                PolicyKind::AnuGossip {
                    tuning: TuningConfig::paper(),
                    matching: Matching::Random,
                },
            ),
        ],
    )
    .run_all();
    for r in &results {
        println!(
            "  {:<16} late mean {:>7.1} ms   imbalance CoV {:>5.2}   moves {:>4}",
            r.policy,
            late_mean(&r.series),
            late_imbalance(&r.series),
            r.summary.migrations
        );
    }
    println!("  expectation: gossip converges (pair-local exchanges conserve half occupancy); hi-lo faster than random");
}

fn study_delegate_failover(seed: u64) {
    println!("--- delegate failover every 3 ticks (paper §4 statelessness) ---");
    use anu_cluster::run;
    use anu_core::AnuConfig;
    use anu_policies::AnuPolicy;
    let exp = base_experiment(seed, vec![]);
    let cfg = AnuConfig {
        seed,
        rounds: anu_core::DEFAULT_ROUNDS,
        tuning: TuningConfig::paper(),
    };
    let mut stable = AnuPolicy::new(cfg);
    let stable_run = run(&exp.cluster, &exp.workload, &mut stable);
    let mut crashy = AnuPolicy::new(cfg).with_delegate_crashes(3);
    let crashy_run = run(&exp.cluster, &exp.workload, &mut crashy);
    println!(
        "  stable delegate   late mean {:>7.1} ms   moves {:>4}",
        late_mean(&stable_run.series),
        stable_run.summary.migrations
    );
    println!(
        "  crashing delegate late mean {:>7.1} ms   moves {:>4}",
        late_mean(&crashy_run.series),
        crashy_run.summary.migrations
    );
    let ratio = late_mean(&crashy_run.series) / late_mean(&stable_run.series).max(1.0);
    println!(
        "  verdict: delegate crashes {} the outcome (paper: stateless, graceful)",
        if ratio < 1.5 {
            "barely change"
        } else {
            "DEGRADE"
        }
    );
}

fn study_crossover(seed: u64) {
    // Where does adaptivity stop helping? Sweep offered load: at low rho
    // even static placement rarely queues; as rho grows the static
    // policies cross into divergence while the adaptive ones track the
    // capacity frontier.
    println!("--- offered-load sweep: where static placement crosses into collapse ---");
    println!(
        "  {:>5} {:>22} {:>22} {:>22}",
        "rho", "round-robin late ms", "prescient late ms", "anu late ms"
    );
    let cluster = ClusterConfig::paper();
    for rho in [0.15, 0.3, 0.5, 0.7, 0.85] {
        let workload = SyntheticConfig::paper(seed)
            .with_offered_load(rho, cluster.total_speed())
            .generate();
        let exp = Experiment {
            name: format!("rho{rho}"),
            cluster: cluster.clone(),
            workload,
            policies: vec![
                ("round-robin".into(), PolicyKind::RoundRobin),
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
            seed,
        };
        let rs = exp.run_all();
        println!(
            "  {rho:>5.2} {:>22.1} {:>22.1} {:>22.1}",
            late_mean(&rs[0].series),
            late_mean(&rs[1].series),
            late_mean(&rs[2].series)
        );
    }
    println!("  expectation: round-robin collapses once the weakest server's share exceeds its capacity (~rho 0.2 for speeds 1/3/5/7/9); adaptive policies stay near service time until the cluster itself saturates");
}

fn study_convergence(seed: u64) {
    // How many tuning intervals does ANU need to discover heterogeneity,
    // as a function of file-set count (granularity) and skew?
    println!("--- ANU convergence: ticks with moves, by file sets and skew ---");
    println!(
        "  {:>10} {:>8} {:>16} {:>14}",
        "file sets", "alpha", "ticks-with-moves", "late mean ms"
    );
    let cluster = ClusterConfig::paper();
    let mut rows = Vec::new();
    for &(n_sets, alpha) in &[
        (50usize, 100.0f64),
        (200, 100.0),
        (500, 100.0),
        (500, 1000.0),
        (2000, 1000.0),
    ] {
        let workload = SyntheticConfig {
            n_file_sets: n_sets,
            total_requests: 100_000,
            duration_secs: 10_000.0,
            weights: anu_workload::WeightDist::PowerOfUniform { alpha },
            mean_cost_secs: 0.0,
            cost: anu_workload::CostModel::UniformSpread { spread: 0.2 },
            seed,
        }
        .with_offered_load(0.5, cluster.total_speed())
        .generate();
        let mut policy = anu_policies::AnuPolicy::new(anu_core::AnuConfig {
            seed,
            rounds: anu_core::DEFAULT_ROUNDS,
            tuning: TuningConfig::paper(),
        });
        let r = anu_cluster::run(&cluster, &workload, &mut policy);
        let (with_moves, total) = policy.tick_stats();
        let late = late_mean(&r.series);
        println!("  {n_sets:>10} {alpha:>8.0} {with_moves:>13}/{total:<2} {late:>14.1}");
        rows.push((n_sets, with_moves, total, late));
    }
    // Say what the table shows, at whatever seed it ran.
    let ((n0, moves0, total, late0), (n1, moves1, _, late1)) = (rows[0], rows[rows.len() - 1]);
    let verdict = match (moves1 < moves0, late1 < late0) {
        (true, true) => "finer file sets converge faster and tighter",
        (false, false) => "finer file sets converge neither faster nor tighter",
        _ => "finer file sets trade convergence speed against tightness",
    };
    println!(
        "  {n0} -> {n1} file sets: ticks with moves {moves0} -> {moves1} of {total}, \
         late mean {late0:.1} -> {late1:.1} ms; {verdict}"
    );
}

fn study_scale(seed: u64) {
    // The paper's scalability pitch: shared state grows with servers, not
    // file sets. Run a 50-server, 5000-file-set cluster end to end.
    println!("--- scale: 50 heterogeneous servers, 5000 file sets ---");
    let mut cluster = ClusterConfig::paper();
    cluster.servers = (0..50u32)
        .map(|i| anu_cluster::ServerSpec {
            id: ServerId(i),
            speed: 1.0 + (i % 9) as f64, // speeds 1..9 repeating
        })
        .collect();
    let workload = SyntheticConfig {
        n_file_sets: 5_000,
        total_requests: 300_000,
        duration_secs: 6_000.0,
        weights: anu_workload::WeightDist::PowerOfUniform { alpha: 1000.0 },
        mean_cost_secs: 0.0,
        cost: anu_workload::CostModel::UniformSpread { spread: 0.2 },
        seed,
    }
    .with_offered_load(0.55, cluster.total_speed())
    .generate();
    let exp = Experiment {
        name: "scale".into(),
        cluster,
        workload,
        policies: vec![
            ("round-robin".into(), PolicyKind::RoundRobin),
            (
                "anu".into(),
                PolicyKind::Anu {
                    tuning: TuningConfig::paper(),
                },
            ),
        ],
        seed,
    };
    let rs = exp.run_all();
    for r in &rs {
        println!(
            "  {:<12} late mean {:>9.1} ms   imbalance CoV {:>5.2}   moves {:>5}",
            r.policy,
            late_mean(&r.series),
            late_imbalance(&r.series),
            r.summary.migrations
        );
    }
    println!("  expectation: the adaptive advantage survives 10x the paper's cluster size");
}

fn study_motivation(seed: u64) {
    // The paper's §2 motivation, measured: "Clients blocked on metadata
    // may leave the high bandwidth SAN underutilized." Closed-loop clients
    // cycle metadata -> SAN transfer -> think; a slow metadata tier stalls
    // the data path.
    println!("--- motivation: closed-loop clients, SAN utilization by placement policy ---");
    use anu_cluster::{run_closed_loop, ClosedLoopConfig, PlacementPolicy};
    use anu_core::{AnuConfig, DEFAULT_ROUNDS};
    use anu_policies::{AnuPolicy, RoundRobin, SimpleRandom};
    let cluster = ClusterConfig::paper();
    let cfg = ClosedLoopConfig::demo(seed);
    // Prescient is excluded: closed-loop clients have no future trace to read.
    let policies: Vec<(&str, Box<dyn PlacementPolicy>)> = vec![
        ("round-robin", Box::new(RoundRobin::new())),
        ("simple-randomization", Box::new(SimpleRandom::new(seed))),
        (
            "anu-randomization",
            Box::new(AnuPolicy::new(AnuConfig {
                seed,
                rounds: DEFAULT_ROUNDS,
                tuning: TuningConfig::paper(),
            })),
        ),
    ];
    println!(
        "  {:<22} {:>10} {:>12} {:>14} {:>12}",
        "policy", "ops", "ops/s", "cycle ms", "SAN util"
    );
    for (label, mut policy) in policies {
        let r = run_closed_loop(&cluster, &cfg, policy.as_mut());
        println!(
            "  {:<22} {:>10} {:>12.1} {:>14.1} {:>11.1}%",
            label,
            r.completed_ops,
            r.throughput_ops_per_sec,
            r.mean_cycle_ms,
            100.0 * r.san_utilization
        );
    }
    println!(
        "  expectation: balanced metadata placement drives the SAN harder at lower cycle latency"
    );
}

fn study_hashing(seed: u64) {
    // What does *adaptivity* add over hashing — plain, and weighted by the
    // true speeds (the CRUSH idea)? Weighted HRW fixes the capacity
    // mismatch but not workload skew; ANU fixes both without knowing
    // either.
    println!("--- hashing family: HRW vs speed-weighted HRW vs ANU ---");
    let results = base_experiment(
        seed,
        vec![
            ("rendezvous".into(), PolicyKind::Rendezvous),
            ("weighted-rendezvous".into(), PolicyKind::WeightedRendezvous),
            (
                "anu-randomization".into(),
                PolicyKind::Anu {
                    tuning: TuningConfig::paper(),
                },
            ),
        ],
    )
    .run_all();
    for r in &results {
        println!(
            "  {:<22} late mean {:>9.1} ms   imbalance CoV {:>5.2}   moves {:>4}",
            r.policy,
            late_mean(&r.series),
            late_imbalance(&r.series),
            r.summary.migrations
        );
    }
    println!("  expectation: speed weights fix capacity mismatch, not workload skew; adaptivity fixes both");
}

const USAGE: &str = "usage: sweep [--seed S] [--jobs J] [--study average|threshold|gamma|homogeneous|churn|decentralized|failover|crossover|convergence|scale|motivation|hashing]";

/// Report a malformed command line and exit with the usage code 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut study: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs an integer"))
            }
            "--study" => {
                study = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--study needs a name")),
                )
            }
            "--jobs" => anu_harness::set_default_jobs(
                it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    usage_error("--jobs needs a worker count (0 = one per core)")
                }),
            ),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    let all = [
        "average",
        "threshold",
        "gamma",
        "homogeneous",
        "churn",
        "decentralized",
        "failover",
        "crossover",
        "convergence",
        "scale",
        "motivation",
        "hashing",
    ];
    let run: Vec<&str> = match &study {
        Some(s) => vec![s.as_str()],
        None => all.to_vec(),
    };
    for s in run {
        match s {
            "average" => study_average(seed),
            "threshold" => study_threshold(seed),
            "gamma" => study_gamma(seed),
            "homogeneous" => study_homogeneous(seed),
            "churn" => study_churn(seed),
            "decentralized" => study_decentralized(seed),
            "failover" => study_delegate_failover(seed),
            "crossover" => study_crossover(seed),
            "convergence" => study_convergence(seed),
            "scale" => study_scale(seed),
            "motivation" => study_motivation(seed),
            "hashing" => study_hashing(seed),
            other => usage_error(&format!("unknown study {other}")),
        }
        println!();
    }
}
