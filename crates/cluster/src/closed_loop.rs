//! Closed-loop clients and the SAN data path (the paper's §2 motivation).
//!
//! "In a typical file access, the client first obtains metadata and locks
//! for a file from the Storage Tank servers and then fetches data by
//! sending I/O requests directly to shared disks on the SAN. […] Imbalance
//! in file metadata servers adversely affects overall system performance,
//! because clients acquire metadata prior to data. Clients blocked on
//! metadata may leave the high bandwidth SAN underutilized."
//!
//! A trace replay fixes every arrival in advance, so SAN throughput is
//! workload-determined; the blocking effect only shows up with
//! **closed-loop clients**: each client cycles through
//!
//! ```text
//! pick file set → metadata request (queues at its server) →
//! data transfer on the SAN → think time → repeat
//! ```
//!
//! A slow metadata server stalls every client whose file set it owns,
//! suppressing their SAN transfers. The clients are an arrival source of
//! the same world open-loop runs use ([`crate::world`]), so a closed-loop
//! run sees the same faults, autoscaler, shedding, cold caches, invariant
//! auditor and metrics. Only the SAN leg is the clients' own: it never
//! queues (it is the high-bandwidth resource the clients fail to
//! saturate), so a client draws its transfer and think time when its
//! metadata request completes and issues again at
//! `done + transfer + think`. A shed request sends its client straight
//! back to think time. [`run_closed_loop`] measures operations completed
//! and SAN utilization per policy — the numbers behind the claim that
//! metadata balance buys *data-path* throughput.

use crate::metrics::RunResult;
use crate::policy::PlacementPolicy;
use crate::profile::NoProfiler;
use crate::spec::ClusterConfig;
use crate::world::{simulate, Arrival, ArrivalSource};
use anu_des::{AliasTable, RngStream, SimDuration, SimTime};
use anu_trace::NullSink;

/// Concurrent clients.
const CLIENTS: usize = 120;
/// File sets the clients pick from; set `i` has popularity
/// `1 / (1 + i/4)`, so the load is skewed toward the low ids.
const FILE_SETS: usize = 40;
/// Mean metadata service demand at speed 1, sized so the metadata tier is
/// the bottleneck under bad placement but comfortable under good.
const METADATA_COST: SimDuration = SimDuration::from_millis(120);
/// Mean SAN data-transfer time following each metadata operation.
const DATA_TRANSFER: SimDuration = SimDuration::from_millis(400);
/// Mean client think time between cycles.
const THINK: SimDuration = SimDuration::from_millis(300);
/// SAN capacity in concurrent transfer lanes, the utilization
/// denominator. One lane per client: utilization reads as "fraction of
/// clients actively moving data", the quantity metadata blocking
/// suppresses. The SAN itself never queues.
const SAN_LANES: usize = CLIENTS;
/// Simulated duration of a closed-loop run.
pub const CLOSED_LOOP_DURATION: SimDuration = SimDuration::from_secs(2_400);

/// Outcome of a closed-loop run: the world's result for the metadata
/// tier, plus what only the clients know.
#[derive(Clone, Debug)]
pub struct ClosedLoopResult {
    /// The world's result: policy name, summary (metadata latency,
    /// migrations, sheds, audit), per-server series, epochs and metrics.
    pub run: RunResult,
    /// Full client cycles (metadata + data) whose transfer ended within
    /// the duration.
    pub completed_ops: u64,
    /// Mean end-to-end cycle latency (metadata wait + data), ms.
    pub mean_cycle_ms: f64,
    /// SAN utilization: transfer time started by metadata completions
    /// within the duration / (lanes × duration).
    pub san_utilization: f64,
    /// Operations per simulated second.
    pub throughput_ops_per_sec: f64,
}

/// The clients as an arrival source: a request's tag is its client.
struct Clients {
    rng: RngStream,
    /// O(1) weighted file-set selection per issue, regardless of set count.
    sampler: AliasTable,
    /// Each client's outstanding metadata request (a client has at most
    /// one): when it was issued, for end-to-end cycle latency, and its
    /// speed-1 cost, which the world reads back through
    /// [`ArrivalSource::admitted`].
    outstanding: Vec<(SimTime, SimDuration)>,
    horizon: SimTime,
    cycles: u64,
    cycle_ms_sum: f64,
    san_busy: SimDuration,
}

impl Clients {
    /// An exponential draw with the given mean.
    fn draw(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.exponential(1.0 / mean.as_secs_f64()))
    }
}

impl ArrivalSource for Clients {
    fn n_file_sets(&self) -> usize {
        FILE_SETS
    }

    fn duration(&self) -> SimDuration {
        CLOSED_LOOP_DURATION
    }

    fn label(&self) -> &str {
        "closed-loop"
    }

    fn first_arrivals(&mut self) -> Vec<(SimTime, u32)> {
        // Stagger initial issues across one think time.
        let think = THINK.as_secs_f64();
        (0..CLIENTS as u32)
            .map(|c| (SimTime::from_secs_f64(self.rng.uniform() * think), c))
            .filter(|&(t, _)| t <= self.horizon)
            .collect()
    }

    fn arrive(&mut self, client: u32, now: SimTime) -> Arrival {
        let set = self.sampler.sample(&mut self.rng) as u32;
        let cost = self.draw(METADATA_COST);
        self.outstanding[client as usize] = (now, cost);
        Arrival {
            set,
            cost,
            next: None,
        }
    }

    fn admitted(&self, client: u32) -> (SimTime, SimDuration) {
        self.outstanding[client as usize]
    }

    fn depart(&mut self, client: u32, now: SimTime, served: bool) -> Option<(SimTime, u32)> {
        // Past the duration nothing a client does counts: it stops.
        if now > self.horizon {
            return None;
        }
        let mut done = now;
        if served {
            // Metadata granted: the client now drives the SAN directly.
            let transfer = self.draw(DATA_TRANSFER);
            self.san_busy += transfer;
            done = now + transfer;
            if done > self.horizon {
                return None;
            }
            self.cycles += 1;
            let (issued, _) = self.outstanding[client as usize];
            self.cycle_ms_sum += done.since(issued).as_millis_f64();
        }
        // A shed request sends its client straight back to think time.
        let next = done + self.draw(THINK);
        (next <= self.horizon).then_some((next, client))
    }
}

/// Run the closed-loop experiment at `seed` under `policy`, through the
/// world's event loop.
pub fn run_closed_loop(
    cluster: &ClusterConfig,
    seed: u64,
    policy: &mut dyn PlacementPolicy,
) -> ClosedLoopResult {
    let weights: Vec<f64> = (0..FILE_SETS)
        .map(|i| 1.0 / (1.0 + i as f64 / 4.0))
        .collect();
    let mut clients = Clients {
        rng: RngStream::new(seed, "closed-loop"),
        sampler: AliasTable::new(&weights),
        outstanding: vec![(SimTime::ZERO, SimDuration::ZERO); CLIENTS],
        horizon: SimTime::ZERO + CLOSED_LOOP_DURATION,
        cycles: 0,
        cycle_ms_sum: 0.0,
        san_busy: SimDuration::ZERO,
    };
    let run = simulate(
        cluster,
        &mut clients,
        policy,
        &mut NullSink,
        &mut NoProfiler,
    );
    let dur = CLOSED_LOOP_DURATION.as_secs_f64();
    let cycles = clients.cycles;
    ClosedLoopResult {
        run,
        completed_ops: cycles,
        mean_cycle_ms: if cycles == 0 {
            0.0
        } else {
            clients.cycle_ms_sum / cycles as f64
        },
        san_utilization: clients.san_busy.as_secs_f64() / (SAN_LANES as f64 * dur),
        throughput_ops_per_sec: cycles as f64 / dur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ShedConfig;
    use crate::world::tests::Modulo;

    #[test]
    fn closed_loop_completes_cycles() {
        let cluster = ClusterConfig::paper();
        let r = run_closed_loop(&cluster, 1, &mut Modulo);
        assert!(r.completed_ops > 1_000, "{}", r.completed_ops);
        assert!(r.mean_cycle_ms > 0.0);
        assert!(r.san_utilization > 0.0 && r.san_utilization < 1.0);
        assert!(r.throughput_ops_per_sec > 5.0);
    }

    #[test]
    fn deterministic() {
        let cluster = ClusterConfig::paper();
        let a = run_closed_loop(&cluster, 2, &mut Modulo);
        let b = run_closed_loop(&cluster, 2, &mut Modulo);
        assert_eq!(a.run.summary, b.run.summary);
        assert_eq!(a.run.epochs, b.run.epochs);
        assert_eq!(a.run.metrics, b.run.metrics);
        assert_eq!(
            (a.completed_ops, a.mean_cycle_ms, a.san_utilization),
            (b.completed_ops, b.mean_cycle_ms, b.san_utilization)
        );
    }

    #[test]
    fn shed_clients_retry() {
        // A queue ceiling of one sheds most issues. A shed client goes
        // back to think time and issues again; a client that vanished
        // when shed could be shed at most once.
        let mut cluster = ClusterConfig::paper();
        cluster.shed = Some(ShedConfig { max_queue: 1 });
        let r = run_closed_loop(&cluster, 3, &mut Modulo);
        let s = &r.run.summary;
        assert!(
            s.requests_shed > CLIENTS as u64,
            "{} sheds for {CLIENTS} clients",
            s.requests_shed
        );
        assert_eq!(s.completed_requests + s.requests_shed, s.offered_requests);
        assert!(r.completed_ops > 0);
    }
}
