//! Requests, workloads, and workload statistics.
//!
//! A workload is a time-ordered stream of metadata requests, each against
//! one file set and carrying a service demand (the time a speed-1 server
//! needs to serve it). Both the trace-like and synthetic generators produce
//! this one representation, and all policies consume it — the prescient
//! baseline additionally reads future windows of it as its oracle.

use anu_core::json::{FromJson, Json, JsonError, ToJson};
use anu_core::FileSetId;
use anu_des::{SimDuration, SimTime};

/// The most file sets a workload may have: the simulator indexes sets as
/// `u32`, so ids run over `0..2^32`. Readers reject larger counts before
/// anything sized by the count is allocated.
const MAX_FILE_SETS: u64 = 1 << 32;

/// `n`, or why it names more file sets than the simulator can index.
pub(crate) fn indexable_set_count(n: usize) -> Result<usize, String> {
    if u64::try_from(n).map_or(true, |n| n > MAX_FILE_SETS) {
        return Err(format!(
            "n_file_sets {n} exceeds 2^32, the most file sets the simulator indexes"
        ));
    }
    Ok(n)
}

/// One metadata request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Request {
    /// Arrival time.
    pub arrival: SimTime,
    /// Target file set.
    pub file_set: FileSetId,
    /// Service demand on a speed-1 server.
    pub cost: SimDuration,
}

/// A complete workload: requests sorted by arrival time.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Human-readable provenance ("synthetic α=1000", "dfstrace-like", …).
    pub label: String,
    /// Number of file sets; ids are `0..n_file_sets`.
    pub n_file_sets: usize,
    /// Nominal duration of the workload.
    pub duration_us: u64,
    /// The requests, sorted by arrival (ties in generation order).
    pub requests: Vec<Request>,
}

impl Workload {
    /// Build a workload from parts, sorting requests by arrival.
    pub fn new(
        label: impl Into<String>,
        n_file_sets: usize,
        duration: SimDuration,
        mut requests: Vec<Request>,
    ) -> Self {
        requests.sort_by_key(|r| r.arrival);
        Workload {
            label: label.into(),
            n_file_sets,
            duration_us: duration.0,
            requests,
        }
    }

    /// Nominal duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration(self.duration_us)
    }

    /// All file set ids of this workload.
    pub fn file_sets(&self) -> Vec<FileSetId> {
        (0..self.n_file_sets as u64).map(FileSetId).collect()
    }

    /// Total offered work (sum of service demands) in seconds.
    pub fn total_demand_secs(&self) -> f64 {
        self.requests.iter().map(|r| r.cost.as_secs_f64()).sum()
    }

    /// Per-file-set service demand (seconds, at speed 1) in the window
    /// `[from, to)` — the prescient oracle.
    pub fn window_demands(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        let lo = self.requests.partition_point(|r| r.arrival < from);
        let hi = self.requests.partition_point(|r| r.arrival < to);
        let mut out = vec![0.0; self.n_file_sets];
        for r in &self.requests[lo..hi] {
            out[r.file_set.0 as usize] += r.cost.as_secs_f64();
        }
        out
    }

    /// Per-file-set demand over the whole workload.
    pub fn total_demands(&self) -> Vec<f64> {
        self.window_demands(SimTime::ZERO, SimTime(u64::MAX))
    }

    /// Summary statistics.
    pub fn stats(&self) -> WorkloadStats {
        let mut counts = vec![0u64; self.n_file_sets];
        for r in &self.requests {
            counts[r.file_set.0 as usize] += 1;
        }
        let active: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
        let max = active.iter().copied().max().unwrap_or(0);
        let min = active.iter().copied().min().unwrap_or(0);
        WorkloadStats {
            total_requests: self.requests.len() as u64,
            active_file_sets: active.len(),
            per_set_counts: counts,
            max_set_requests: max,
            min_set_requests: min,
            heterogeneity_ratio: if min > 0 {
                max as f64 / min as f64
            } else {
                f64::INFINITY
            },
            total_demand_secs: self.total_demand_secs(),
            duration_secs: self.duration().as_secs_f64(),
        }
    }

    /// Mean offered load against a cluster with the given total speed
    /// (work-units per second): `rho = demand / (speed * duration)`.
    pub fn offered_load(&self, total_speed: f64) -> f64 {
        self.total_demand_secs() / (total_speed * self.duration().as_secs_f64())
    }

    /// Extract the sub-workload in `[from, to)`, re-based so the slice
    /// starts at time zero. File-set ids are preserved (the slice serves
    /// the same namespace).
    pub fn slice(&self, from: SimTime, to: SimTime) -> Workload {
        let lo = self.requests.partition_point(|r| r.arrival < from);
        let hi = self.requests.partition_point(|r| r.arrival < to);
        let requests = self.requests[lo..hi]
            .iter()
            .map(|r| Request {
                arrival: SimTime(r.arrival.0 - from.0),
                ..*r
            })
            .collect();
        Workload {
            label: format!("{}[{from}..{to}]", self.label),
            n_file_sets: self.n_file_sets,
            duration_us: to.0.saturating_sub(from.0),
            requests,
        }
    }

    /// Merge two workloads over the same namespace size into one stream
    /// (e.g. a background load plus a burst overlay).
    ///
    /// # Panics
    /// Panics if the namespaces differ (`n_file_sets` mismatch) — merging
    /// across namespaces is almost certainly a bug.
    pub fn merge(&self, other: &Workload) -> Workload {
        assert_eq!(
            self.n_file_sets, other.n_file_sets,
            "merging workloads over different namespaces"
        );
        let mut requests = Vec::with_capacity(self.requests.len() + other.requests.len());
        requests.extend_from_slice(&self.requests);
        requests.extend_from_slice(&other.requests);
        Workload::new(
            format!("{}+{}", self.label, other.label),
            self.n_file_sets,
            SimDuration(self.duration_us.max(other.duration_us)),
            requests,
        )
    }
}

/// Aggregate statistics of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadStats {
    /// Total number of requests.
    pub total_requests: u64,
    /// File sets with at least one request.
    pub active_file_sets: usize,
    /// Request count per file set id.
    pub per_set_counts: Vec<u64>,
    /// Requests of the most active file set.
    pub max_set_requests: u64,
    /// Requests of the least active (but non-idle) file set.
    pub min_set_requests: u64,
    /// `max_set_requests / min_set_requests` (infinity if some active set
    /// has zero — cannot happen by construction).
    pub heterogeneity_ratio: f64,
    /// Total offered work in seconds at speed 1.
    pub total_demand_secs: f64,
    /// Nominal duration in seconds.
    pub duration_secs: f64,
}

impl ToJson for Workload {
    fn to_json(&self) -> Json {
        // Requests encode as compact [arrival_us, file_set, cost_us]
        // triples; the id/time newtypes are structural, not semantic.
        Json::obj(vec![
            ("label", Json::str(self.label.clone())),
            ("n_file_sets", Json::usize(self.n_file_sets)),
            ("duration_us", Json::u64(self.duration_us)),
            (
                "requests",
                Json::arr(
                    self.requests
                        .iter()
                        .map(|r| {
                            Json::arr(vec![
                                Json::u64(r.arrival.0),
                                Json::u64(r.file_set.0),
                                Json::u64(r.cost.0),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for Workload {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let n_file_sets =
            indexable_set_count(j.get("n_file_sets")?.as_usize()?).map_err(JsonError::shape)?;
        let mut requests = Vec::new();
        for (i, r) in j.get("requests")?.as_arr()?.iter().enumerate() {
            let triple = r.as_arr()?;
            let [a, f, c] = triple else {
                return Err(JsonError::shape(format!(
                    "request {i}: expected [arrival, file_set, cost]"
                )));
            };
            let file_set = f.as_u64()?;
            if usize::try_from(file_set).map_or(true, |fs| fs >= n_file_sets) {
                return Err(JsonError::shape(format!(
                    "request {i}: file_set {file_set} is not below n_file_sets {n_file_sets}"
                )));
            }
            requests.push(Request {
                arrival: SimTime(a.as_u64()?),
                file_set: FileSetId(file_set),
                cost: SimDuration(c.as_u64()?),
            });
        }
        Ok(Workload::new(
            j.get("label")?.as_str()?.to_string(),
            n_file_sets,
            SimDuration(j.get("duration_us")?.as_u64()?),
            requests,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: f64, fs: u64, cost_ms: u64) -> Request {
        Request {
            arrival: SimTime::from_secs_f64(t),
            file_set: FileSetId(fs),
            cost: SimDuration::from_millis(cost_ms),
        }
    }

    #[test]
    fn new_sorts_by_arrival() {
        let w = Workload::new(
            "t",
            2,
            SimDuration::from_secs(10),
            vec![req(5.0, 0, 1), req(1.0, 1, 1), req(3.0, 0, 1)],
        );
        let times: Vec<f64> = w.requests.iter().map(|r| r.arrival.as_secs_f64()).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn window_demands() {
        let w = Workload::new(
            "t",
            2,
            SimDuration::from_secs(10),
            vec![req(1.0, 0, 100), req(2.0, 1, 200), req(5.0, 0, 300)],
        );
        let d = w.window_demands(SimTime::ZERO, SimTime::from_secs_f64(3.0));
        assert!((d[0] - 0.1).abs() < 1e-9);
        assert!((d[1] - 0.2).abs() < 1e-9);
        let all = w.total_demands();
        assert!((all[0] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn stats_heterogeneity() {
        let mut reqs = Vec::new();
        for i in 0..100 {
            reqs.push(req(i as f64 * 0.01, 0, 10));
        }
        reqs.push(req(0.5, 1, 10));
        let w = Workload::new("t", 3, SimDuration::from_secs(1), reqs);
        let s = w.stats();
        assert_eq!(s.total_requests, 101);
        assert_eq!(s.active_file_sets, 2);
        assert_eq!(s.max_set_requests, 100);
        assert_eq!(s.min_set_requests, 1);
        assert!((s.heterogeneity_ratio - 100.0).abs() < 1e-9);
        assert_eq!(s.per_set_counts[2], 0);
    }

    #[test]
    fn offered_load() {
        // 10 requests of 1s over 10s against total speed 2 => rho = 0.5.
        let reqs: Vec<Request> = (0..10).map(|i| req(i as f64, 0, 1000)).collect();
        let w = Workload::new("t", 1, SimDuration::from_secs(10), reqs);
        assert!((w.offered_load(2.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn slice_rebases_times() {
        let w = Workload::new(
            "t",
            2,
            SimDuration::from_secs(10),
            vec![req(1.0, 0, 10), req(4.0, 1, 10), req(8.0, 0, 10)],
        );
        let s = w.slice(SimTime::from_secs_f64(3.0), SimTime::from_secs_f64(9.0));
        assert_eq!(s.requests.len(), 2);
        assert!((s.requests[0].arrival.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((s.requests[1].arrival.as_secs_f64() - 5.0).abs() < 1e-9);
        assert_eq!(s.duration_us, 6_000_000);
        assert_eq!(s.n_file_sets, 2);
    }

    #[test]
    fn merge_combines_sorted() {
        let a = Workload::new("a", 2, SimDuration::from_secs(10), vec![req(1.0, 0, 10)]);
        let b = Workload::new("b", 2, SimDuration::from_secs(5), vec![req(0.5, 1, 10)]);
        let m = a.merge(&b);
        assert_eq!(m.requests.len(), 2);
        assert_eq!(m.requests[0].file_set, FileSetId(1)); // earlier arrival
        assert_eq!(m.duration_us, 10_000_000);
    }

    #[test]
    #[should_panic(expected = "different namespaces")]
    fn merge_rejects_mismatched_namespaces() {
        let a = Workload::new("a", 2, SimDuration::from_secs(1), vec![]);
        let b = Workload::new("b", 3, SimDuration::from_secs(1), vec![]);
        a.merge(&b);
    }

    #[test]
    fn json_roundtrip() {
        let w = Workload::new("t", 1, SimDuration::from_secs(1), vec![req(0.5, 0, 7)]);
        let text = w.to_json().render();
        let w2 = Workload::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(w2.requests, w.requests);
        assert_eq!(w2.label, "t");
    }

    #[test]
    fn json_rejects_more_sets_than_the_simulator_indexes() {
        let text = r#"{"label":"t","n_file_sets":4294967297,"duration_us":10,"requests":[]}"#;
        let err = Workload::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.to_string().contains("n_file_sets 4294967297"), "{err}");
        let text = text.replace("4294967297", "4294967296");
        assert!(Workload::from_json(&Json::parse(&text).unwrap()).is_ok());
    }

    #[test]
    fn json_rejects_file_set_outside_the_namespace() {
        let text = r#"{"label":"t","n_file_sets":3,"duration_us":10,"requests":[[0,1,1],[0,7,1]]}"#;
        let err = Workload::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.to_string().contains("request 1: file_set 7"), "{err}");
    }
}
