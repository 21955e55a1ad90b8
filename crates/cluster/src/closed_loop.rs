//! Closed-loop clients and the SAN data path (the paper's §2 motivation).
//!
//! "In a typical file access, the client first obtains metadata and locks
//! for a file from the Storage Tank servers and then fetches data by
//! sending I/O requests directly to shared disks on the SAN. […] Imbalance
//! in file metadata servers adversely affects overall system performance,
//! because clients acquire metadata prior to data. Clients blocked on
//! metadata may leave the high bandwidth SAN underutilized."
//!
//! The open-loop simulation in [`crate::world`] replays a fixed trace, so
//! SAN throughput is workload-determined; the blocking effect only shows
//! up with **closed-loop clients**: each client cycles through
//!
//! ```text
//! pick file set → metadata request (queues at its server) →
//! data transfer on the SAN → think time → repeat
//! ```
//!
//! A slow metadata server stalls every client whose file set it owns,
//! suppressing their SAN transfers. [`run_closed_loop`] measures exactly
//! that: operations completed and SAN utilization per policy — the numbers
//! behind the claim that metadata balance buys *data-path* throughput.

use crate::dense::Interner;
use crate::policy::{Assignment, ClusterView, PlacementPolicy};
use crate::spec::ClusterConfig;
use anu_core::{FileSetId, LoadReport};
use anu_des::{
    AliasTable, Calendar, FifoStation, IntervalStats, Job, RngStream, SimDuration, SimTime,
    StartService,
};

/// Closed-loop experiment configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosedLoopConfig {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Number of file sets; client requests pick one ∝ `weights`.
    pub n_file_sets: usize,
    /// Relative popularity per file set (uniform if empty).
    pub weights: Vec<f64>,
    /// Mean metadata service demand at speed 1.
    pub metadata_cost: SimDuration,
    /// Mean SAN data-transfer time following each metadata op.
    pub data_transfer: SimDuration,
    /// Mean client think time between cycles.
    pub think: SimDuration,
    /// SAN capacity in concurrent transfer lanes (for the utilization
    /// denominator; the SAN itself never queues — it is the
    /// high-bandwidth resource the clients fail to saturate).
    pub san_lanes: usize,
    /// Simulated duration.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl ClosedLoopConfig {
    /// A demonstrative default: 120 clients, skewed popularity over 40
    /// file sets, metadata demand sized so the metadata tier is the
    /// bottleneck under bad placement but comfortable under good.
    pub fn demo(seed: u64) -> Self {
        ClosedLoopConfig {
            clients: 120,
            n_file_sets: 40,
            weights: (0..40).map(|i| 1.0 / (1.0 + i as f64 / 4.0)).collect(),
            metadata_cost: SimDuration::from_millis(120),
            data_transfer: SimDuration::from_millis(400),
            think: SimDuration::from_millis(300),
            // One lane per client: utilization reads as "fraction of
            // clients actively moving data" — the quantity metadata
            // blocking suppresses.
            san_lanes: 120,
            duration: SimDuration::from_secs(2_400),
            seed,
        }
    }
}

/// Outcome of a closed-loop run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosedLoopResult {
    /// Policy name.
    pub policy: String,
    /// Full client cycles completed (metadata + data).
    pub completed_ops: u64,
    /// Mean end-to-end cycle latency (metadata wait + data), ms.
    pub mean_cycle_ms: f64,
    /// Mean metadata-phase latency, ms.
    pub mean_metadata_ms: f64,
    /// SAN utilization: transfer-time delivered / (lanes × duration).
    pub san_utilization: f64,
    /// Operations per simulated second.
    pub throughput_ops_per_sec: f64,
    /// File-set migrations performed.
    pub migrations: u64,
}

/// Events of the closed loop. Server payloads are dense indices into the
/// interned server table; file-set payloads are the raw set number
/// (closed-loop sets are always contiguous `0..n`, so index == id).
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Client issues its next metadata request.
    Issue(u32),
    /// A metadata server (dense index) completes its in-service request.
    Complete(u32),
    /// A client's SAN transfer finishes.
    DataDone(u32),
    /// Tuning tick.
    Tick,
    /// A file-set (index) migration lands.
    MigrationDone(u32),
}

struct Server {
    speed: f64,
    /// Queued metadata requests, each tagged with its client.
    station: FifoStation<u32>,
    interval: IntervalStats,
}

/// In-flight migration: destination server (dense index) plus the clients
/// blocked waiting for the set to land, with their original issue times.
type InFlight = Option<(u32, Vec<(u32, SimTime)>)>;

/// Run the closed-loop experiment under `policy`.
pub fn run_closed_loop(
    cluster: &ClusterConfig,
    cfg: &ClosedLoopConfig,
    policy: &mut dyn PlacementPolicy,
) -> ClosedLoopResult {
    // anu-lint: allow(panic) -- entry precondition: results on an invalid cluster are meaningless
    cluster.validate().expect("valid cluster");
    assert!(cfg.clients > 0 && cfg.n_file_sets > 0 && cfg.san_lanes > 0);
    let mut rng = RngStream::new(cfg.seed, "closed-loop");
    let weights = if cfg.weights.is_empty() {
        vec![1.0; cfg.n_file_sets]
    } else {
        assert_eq!(cfg.weights.len(), cfg.n_file_sets);
        cfg.weights.clone()
    };
    // O(1) weighted file-set selection per issue, regardless of set count.
    let sampler = AliasTable::new(&weights);

    let mut cal: Calendar<Event> = Calendar::new();
    // Dense server table: one Vec index per interned id, no ordered-map
    // lookups on the per-event path.
    let server_ids = Interner::new(cluster.servers.iter().map(|s| s.id).collect());
    let mut servers: Vec<Server> = {
        let mut speeds = vec![0.0; server_ids.len()];
        for s in &cluster.servers {
            speeds[server_ids.index(s.id)] = s.speed;
        }
        speeds
            .into_iter()
            .map(|speed| Server {
                speed,
                station: FifoStation::new(),
                interval: IntervalStats::new(),
            })
            .collect()
    };

    let file_sets: Vec<FileSetId> = (0..cfg.n_file_sets as u64).map(FileSetId).collect();
    let view = ClusterView {
        servers: cluster.servers.iter().map(|s| (s.id, true)).collect(),
        now: SimTime::ZERO,
    };
    // Owner (dense server index) per file set; sets are contiguous 0..n.
    let initial = policy.initial(&view, &file_sets);
    let mut assignment: Vec<u32> = file_sets
        .iter()
        .map(|fs| {
            // anu-lint: allow(panic) -- every file set is assigned at setup and on migration
            server_ids.index(*initial.get(fs).expect("assigned")) as u32
        })
        .collect();
    // In-flight migration per file set: destination index + blocked clients.
    let mut migrating: Vec<InFlight> = (0..cfg.n_file_sets).map(|_| None).collect();

    // Per-client state: when the current cycle's metadata request was
    // issued (for end-to-end latency).
    let mut issue_time: Vec<SimTime> = vec![SimTime::ZERO; cfg.clients];

    // Seed events.
    for c in 0..cfg.clients as u32 {
        // Stagger initial issues across one think time.
        let t = SimTime::from_secs_f64(rng.uniform() * cfg.think.as_secs_f64());
        cal.schedule(t, Event::Issue(c));
    }
    cal.schedule(SimTime::ZERO + cluster.tick, Event::Tick);

    let mut completed_ops: u64 = 0;
    let mut cycle_ms_sum = 0.0;
    let mut metadata_ms_sum = 0.0;
    let mut san_busy = SimDuration::ZERO;
    let mut migrations = 0u64;

    while let Some((now, ev)) = cal.pop() {
        if now > SimTime::ZERO + cfg.duration {
            break;
        }
        match ev {
            Event::Issue(c) => {
                let fs = sampler.sample(&mut rng) as u32;
                issue_time[c as usize] = now;
                if let Some((_, waiters)) = migrating[fs as usize].as_mut() {
                    waiters.push((c, now));
                    continue;
                }
                let sidx = assignment[fs as usize];
                let server = &mut servers[sidx as usize];
                let service = SimDuration::from_secs_f64(
                    rng.exponential(1.0 / cfg.metadata_cost.as_secs_f64()) / server.speed,
                );
                let job = Job {
                    arrival: now,
                    service,
                    meta: c,
                };
                if let StartService::At(t) = server.station.arrive(now, job) {
                    cal.schedule(t, Event::Complete(sidx));
                }
            }
            Event::Complete(sidx) => {
                let server = &mut servers[sidx as usize];
                let (job, next) = server.station.complete(now);
                if let Some(t) = next {
                    cal.schedule(t, Event::Complete(sidx));
                }
                let c = job.meta;
                let md_latency = now.since(job.arrival);
                server.interval.record(md_latency);
                metadata_ms_sum += md_latency.as_millis_f64();
                // Metadata granted: the client now drives the SAN directly.
                let transfer = SimDuration::from_secs_f64(
                    rng.exponential(1.0 / cfg.data_transfer.as_secs_f64()),
                );
                san_busy += transfer;
                cal.schedule(now + transfer, Event::DataDone(c));
            }
            Event::DataDone(c) => {
                completed_ops += 1;
                cycle_ms_sum += now.since(issue_time[c as usize]).as_millis_f64();
                let think =
                    SimDuration::from_secs_f64(rng.exponential(1.0 / cfg.think.as_secs_f64()));
                cal.schedule(now + think, Event::Issue(c));
            }
            Event::Tick => {
                let reports: Vec<LoadReport> = servers
                    .iter_mut()
                    .enumerate()
                    .map(|(i, st)| {
                        let (mean_ms, count) = st.interval.take();
                        LoadReport {
                            server: server_ids.get(i),
                            mean_latency_ms: mean_ms,
                            requests: count,
                            age_ticks: 0,
                        }
                    })
                    .collect();
                let view = ClusterView {
                    servers: server_ids.ids().iter().map(|&s| (s, true)).collect(),
                    now,
                };
                // Policy boundary: rebuild the ordered map the trait
                // expects from the dense table (per tick, not per event).
                let assignment_map: Assignment = assignment
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (FileSetId(i as u64), server_ids.get(s as usize)))
                    .collect();
                for mv in policy.on_tick(&view, &reports, &assignment_map) {
                    let fi = mv.set.0 as usize;
                    let to = server_ids.index(mv.to) as u32;
                    if migrating[fi].is_some() || assignment[fi] == to {
                        continue;
                    }
                    migrating[fi] = Some((to, Vec::new()));
                    cal.schedule(
                        now + cluster.migration.total(),
                        Event::MigrationDone(fi as u32),
                    );
                    migrations += 1;
                }
                cal.schedule(now + cluster.tick, Event::Tick);
            }
            Event::MigrationDone(fs) => {
                // anu-lint: allow(panic) -- MigrationDone is scheduled only when the entry is inserted
                let (to, waiters) = migrating[fs as usize].take().expect("migration exists");
                assignment[fs as usize] = to;
                for (c, issued) in waiters {
                    // Re-issue the blocked request at the new owner,
                    // preserving the original issue time for latency.
                    let server = &mut servers[to as usize];
                    let service = SimDuration::from_secs_f64(
                        rng.exponential(1.0 / cfg.metadata_cost.as_secs_f64()) / server.speed,
                    );
                    let job = Job {
                        arrival: issued,
                        service,
                        meta: c,
                    };
                    if let StartService::At(t) = server.station.arrive(now, job) {
                        cal.schedule(t, Event::Complete(to));
                    }
                }
            }
        }
    }

    let dur = cfg.duration.as_secs_f64();
    ClosedLoopResult {
        policy: policy.name().to_string(),
        completed_ops,
        mean_cycle_ms: if completed_ops == 0 {
            0.0
        } else {
            cycle_ms_sum / completed_ops as f64
        },
        mean_metadata_ms: if completed_ops == 0 {
            0.0
        } else {
            metadata_ms_sum / completed_ops as f64
        },
        san_utilization: san_busy.as_secs_f64() / (cfg.san_lanes as f64 * dur),
        throughput_ops_per_sec: completed_ops as f64 / dur,
        migrations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MoveSet;
    use anu_core::ServerId;

    struct Modulo;
    impl PlacementPolicy for Modulo {
        fn name(&self) -> &str {
            "modulo"
        }
        fn initial(&mut self, view: &ClusterView, fs: &[FileSetId]) -> Assignment {
            let alive = view.alive();
            fs.iter()
                .enumerate()
                .map(|(i, &f)| (f, alive[i % alive.len()]))
                .collect()
        }
        fn on_tick(&mut self, _: &ClusterView, _: &[LoadReport], _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
        fn on_fail(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
        fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
            Vec::new()
        }
    }

    fn small_cfg(seed: u64) -> ClosedLoopConfig {
        ClosedLoopConfig {
            clients: 20,
            n_file_sets: 10,
            weights: Vec::new(),
            metadata_cost: SimDuration::from_millis(50),
            data_transfer: SimDuration::from_millis(100),
            think: SimDuration::from_millis(100),
            san_lanes: 10,
            duration: SimDuration::from_secs(200),
            seed,
        }
    }

    #[test]
    fn closed_loop_completes_cycles() {
        let cluster = ClusterConfig::paper();
        let r = run_closed_loop(&cluster, &small_cfg(1), &mut Modulo);
        assert!(r.completed_ops > 1_000, "{}", r.completed_ops);
        assert!(r.mean_cycle_ms > 0.0);
        assert!(r.san_utilization > 0.0 && r.san_utilization < 1.0);
        assert!(r.throughput_ops_per_sec > 5.0);
    }

    #[test]
    fn deterministic() {
        let cluster = ClusterConfig::paper();
        let a = run_closed_loop(&cluster, &small_cfg(2), &mut Modulo);
        let b = run_closed_loop(&cluster, &small_cfg(2), &mut Modulo);
        assert_eq!(a, b);
    }

    #[test]
    fn metadata_balance_buys_san_throughput() {
        // The motivation claim: under skewed popularity and heterogeneous
        // servers, ANU's balanced metadata tier completes more cycles and
        // drives the SAN harder than static placement.
        let cluster = ClusterConfig::paper();
        let cfg = ClosedLoopConfig::demo(3);
        let stat = run_closed_loop(&cluster, &cfg, &mut Modulo);
        let mut anu = anu_policy();
        let adaptive = run_closed_loop(&cluster, &cfg, &mut anu);
        assert!(
            adaptive.san_utilization > stat.san_utilization,
            "adaptive SAN {:.3} vs static {:.3}",
            adaptive.san_utilization,
            stat.san_utilization
        );
        assert!(adaptive.completed_ops > stat.completed_ops);
    }

    fn anu_policy() -> impl PlacementPolicy {
        // A minimal inline ANU-like adapter is overkill here; reuse the
        // real policy through the trait from anu-policies is impossible
        // (dependency direction), so emulate adaptivity with a tiny
        // latency-greedy policy: move the hottest server's most popular
        // set to the coldest server each tick.
        struct Greedy;
        impl PlacementPolicy for Greedy {
            fn name(&self) -> &str {
                "greedy"
            }
            fn initial(&mut self, view: &ClusterView, fs: &[FileSetId]) -> Assignment {
                let alive = view.alive();
                fs.iter()
                    .enumerate()
                    .map(|(i, &f)| (f, alive[i % alive.len()]))
                    .collect()
            }
            fn on_tick(
                &mut self,
                _view: &ClusterView,
                reports: &[LoadReport],
                assignment: &Assignment,
            ) -> Vec<MoveSet> {
                let hot = reports
                    .iter()
                    .max_by(|a, b| a.mean_latency_ms.partial_cmp(&b.mean_latency_ms).unwrap());
                let cold = reports
                    .iter()
                    .min_by(|a, b| a.mean_latency_ms.partial_cmp(&b.mean_latency_ms).unwrap());
                match (hot, cold) {
                    (Some(h), Some(c))
                        if h.server != c.server
                            && h.mean_latency_ms > 2.0 * c.mean_latency_ms.max(1.0) =>
                    {
                        // Move one of the hot server's sets.
                        assignment
                            .iter()
                            .find(|&(_, &s)| s == h.server)
                            .map(|(&fs, _)| MoveSet {
                                set: fs,
                                to: c.server,
                            })
                            .into_iter()
                            .collect()
                    }
                    _ => Vec::new(),
                }
            }
            fn on_fail(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
                Vec::new()
            }
            fn on_recover(&mut self, _: &ClusterView, _: ServerId, _: &Assignment) -> Vec<MoveSet> {
                Vec::new()
            }
        }
        Greedy
    }
}
