//! Requests, workloads, and workload statistics.
//!
//! A workload is a time-ordered stream of metadata requests, each against
//! one file set and carrying a service demand (the time a speed-1 server
//! needs to serve it). Both the trace-like and synthetic generators produce
//! this one representation, and all policies consume it — the prescient
//! baseline additionally reads future windows of it as its oracle.
//!
//! A replayed workload stays resident for the whole run, and a run holds
//! its requests once: [`Workload::requests`] is a shared stream, so a
//! clone of the workload (the prescient oracle's, say) shares it instead
//! of copying it, and queued jobs name requests by position. A request is
//! 12 bytes: one word holds its arrival in 40 bits and its file set's
//! index in 24, and a `u32` holds its cost in µs. [`Request::new`]
//! refuses a value that does not fit rather than truncate it: an arrival
//! must be below 2^40 µs (about 12.7 days), a set below 2^24 (16,777,216,
//! the most file sets the simulator indexes), and a cost below 2^32 µs
//! (about 71.6 minutes).
//!
//! Two constructors put requests in arrival order. [`Workload::new`]
//! stably sorts requests that arrive as a finished list (hand-built
//! inputs). The generators hand over replayable draws instead,
//! which `Workload::from_draws` places in arrival order without a global
//! sort; both give the same vector for the same draws.

use anu_core::FileSetId;
use anu_des::{SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// Bits of a request's word that hold its file set's index, below the
/// arrival's 40.
const SET_BITS: u32 = 24;

/// The most file sets a workload may have: a request holds its set's
/// index in 24 bits, so ids run over `0..2^24`. The generators reject
/// larger counts before anything sized by the count is allocated.
const MAX_FILE_SETS: u64 = 1 << SET_BITS;

/// The first arrival a request cannot hold: 2^40 µs, about 12.7 days.
const ARRIVAL_LIMIT: u64 = 1 << (u64::BITS - SET_BITS);

/// Refuse, before a generator draws anything, a set count or a duration
/// whose draws a [`Request`] could not hold: the generator's ids run over
/// `0..n_file_sets`, and its arrivals fall in `[0, duration]`.
///
/// # Panics
/// Panics, naming the bound, if `n_file_sets` exceeds 2^24 or `duration`
/// is 2^40 µs or more.
pub(crate) fn assert_draws_fit(n_file_sets: usize, duration: SimDuration) {
    assert!(
        u64::try_from(n_file_sets).is_ok_and(|n| n <= MAX_FILE_SETS),
        "a generator's file sets must fit a request: n_file_sets {n_file_sets} exceeds 2^24, \
         the most file sets the simulator indexes"
    );
    assert!(
        duration.0 < ARRIVAL_LIMIT,
        "duration_us {} is not below 2^40 µs (about 12.7 days), the latest arrival a request holds",
        duration.0
    );
}

/// One metadata request, in 12 bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct Request {
    /// Arrival in µs, shifted past the target file set's index.
    at_set: u64,
    /// Service demand on a speed-1 server, in µs.
    cost_us: u32,
}
const _: () = assert!(size_of::<Request>() == 12 && align_of::<Request>() == 4);

impl Request {
    /// A request for `file_set` arriving at `arrival` with speed-1 demand
    /// `cost`, or why it does not fit: the arrival must be below 2^40 µs
    /// (about 12.7 days), the set below 2^24, and the cost below 2^32 µs
    /// (about 71.6 minutes).
    #[inline]
    pub fn new(arrival: SimTime, file_set: FileSetId, cost: SimDuration) -> Result<Self, String> {
        match u32::try_from(cost.0) {
            Ok(cost_us) if arrival.0 < ARRIVAL_LIMIT && file_set.0 < MAX_FILE_SETS => Ok(Request {
                at_set: (arrival.0 << SET_BITS) | file_set.0,
                cost_us,
            }),
            _ => Err(why_unfit(arrival, file_set, cost)),
        }
    }

    /// Arrival time.
    #[inline]
    pub fn arrival(&self) -> SimTime {
        SimTime(self.at_set >> SET_BITS)
    }

    /// Target file set.
    #[inline]
    pub fn file_set(&self) -> FileSetId {
        FileSetId(self.at_set & (MAX_FILE_SETS - 1))
    }

    /// Service demand on a speed-1 server.
    #[inline]
    pub fn cost(&self) -> SimDuration {
        SimDuration(u64::from(self.cost_us))
    }
}

impl fmt::Debug for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Request")
            .field("arrival", &self.arrival())
            .field("file_set", &self.file_set())
            .field("cost", &self.cost())
            .finish()
    }
}

/// Why a request cannot hold `arrival`, `file_set` or `cost`. Cold, so
/// that [`Request::new`] inlines into the generators' placing loop.
#[cold]
fn why_unfit(arrival: SimTime, file_set: FileSetId, cost: SimDuration) -> String {
    if arrival.0 >= ARRIVAL_LIMIT {
        format!(
            "arrival_us {} is not below 2^40 µs (about 12.7 days), the latest arrival a request holds",
            arrival.0
        )
    } else if file_set.0 >= MAX_FILE_SETS {
        format!(
            "file_set {} needs n_file_sets above 2^24, the most file sets the simulator indexes",
            file_set.0
        )
    } else {
        format!(
            "cost_us {} is not below 2^32 µs (about 71.6 minutes), the longest cost a request holds",
            cost.0
        )
    }
}

/// A complete workload: requests sorted by arrival time.
///
/// A clone shares the request stream: it copies a pointer, not the
/// requests.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Human-readable provenance ("synthetic α=1000", "dfstrace-like", …).
    pub label: String,
    /// Number of file sets; ids are `0..n_file_sets`.
    pub n_file_sets: usize,
    /// Nominal duration of the workload.
    pub duration_us: u64,
    /// The requests, sorted by arrival (ties in generation order), as a
    /// read-only stream every clone shares. A constructor fills the vector
    /// before sharing it, and [`Arc::make_mut`] on a stream no clone
    /// shares yet edits it in place.
    pub requests: Arc<Vec<Request>>,
}

/// A generator's requests as draws in generation order, which
/// [`Workload::from_draws`] places in arrival order.
pub(crate) struct Draws<A, C> {
    /// Human-readable provenance.
    pub(crate) label: String,
    /// Number of file sets; ids are `0..n_file_sets`.
    pub(crate) n_file_sets: usize,
    /// Nominal duration. Arrivals may equal or pass it.
    pub(crate) duration: SimDuration,
    /// How many requests `arrivals` yields.
    pub(crate) len: usize,
    /// Every request's arrival and file set, in generation order. A clone
    /// replays the same draws: its random streams start where the
    /// original's did.
    pub(crate) arrivals: A,
    /// The next request's cost, in generation order. Called once per
    /// request, in the placing pass only.
    pub(crate) costs: C,
}

/// Each item `count` times over, run after run: a generator's set-major
/// walk over its `(file set, request count)` runs.
pub(crate) fn repeat_runs<T: Clone>(runs: Vec<(T, u64)>) -> impl Iterator<Item = T> + Clone {
    runs.into_iter()
        .flat_map(|(item, count)| std::iter::repeat_n(item, count as usize))
}

/// Requests per arrival bucket of [`Workload::from_draws`], on average.
/// The placing pass writes at one frontier per bucket, so n/512
/// frontiers of a 64-byte line each keep its writes in a 4 MiB L2 (fig8
/// ×50's 5M requests: 9,537 buckets, 610 KB), while buckets stay small
/// enough for the finish to sort each in cache.
const REQUESTS_PER_BUCKET: usize = 512;

/// Cap on the bits of the fine digit the finish counts a bucket by, so
/// its tally holds at most 2,048 slots.
const FINE_BITS: u32 = 11;

/// Runs of at most this many requests are insertion-sorted.
const INSERTION_MAX: usize = 16;

/// The largest bucket the finish sorts through its reused scratch.
/// Generators' buckets hold about [`REQUESTS_PER_BUCKET`]; a bucket past
/// 16 times that (arrivals bunched far above their mean density, such as
/// a zero-length duration) goes to the standard stable sort.
const FINISH_MAX: usize = 1 << 13;

/// The arrival buckets of [`Workload::from_draws`]: bucket `b` holds the
/// arrivals in `[b << shift, (b + 1) << shift)`, and the last one every
/// later arrival too. The bucket is a monotone function of the arrival.
struct Buckets {
    shift: u32,
    last: u64,
}

impl Buckets {
    /// About `len / REQUESTS_PER_BUCKET` buckets over `[0, duration]`.
    fn new(duration: SimDuration, len: usize) -> Self {
        let target = (len / REQUESTS_PER_BUCKET).max(1) as u64;
        let shift = (0..63).find(|&s| duration.0 >> s < target).unwrap_or(63);
        Buckets {
            shift,
            last: duration.0 >> shift,
        }
    }

    fn count(&self) -> usize {
        self.last as usize + 1
    }

    #[inline]
    fn of(&self, arrival: SimTime) -> usize {
        (arrival.0 >> self.shift).min(self.last) as usize
    }
}

/// The finish of [`Workload::from_draws`]: it sorts one bucket at a time
/// by arrival, stably, in a scratch reused across buckets.
#[derive(Default)]
struct Finish {
    scratch: Vec<Request>,
    /// Per fine digit, where its run starts, then where it ends.
    ends: Vec<usize>,
}

impl Finish {
    /// Sort `bucket`, whose arrivals are all at least `lo` and, unless it
    /// is the last bucket, below `lo + (1 << shift)`.
    fn sort(&mut self, bucket: &mut [Request], lo: u64, shift: u32) {
        if bucket.len() <= INSERTION_MAX {
            insertion_sort(bucket);
            return;
        }
        if bucket.len() > FINISH_MAX {
            bucket.sort_by_key(Request::arrival);
            return;
        }
        // A counting sort by a fine digit of the arrival, with about as
        // many digits as requests. Arrivals past the bucket's span (only
        // in the last bucket) clamp to the top digit, so the digit is
        // monotone in the arrival.
        let bits = (usize::BITS - bucket.len().leading_zeros()).min(FINE_BITS);
        let fine_shift = shift.saturating_sub(bits);
        let top = (1u64 << bits) - 1;
        let digit = |r: &Request| ((r.arrival().0 - lo) >> fine_shift).min(top) as usize;
        self.scratch.clear();
        self.scratch.extend_from_slice(bucket);
        self.ends.clear();
        self.ends.resize((1 << bits) + 1, 0);
        for r in &self.scratch {
            self.ends[digit(r) + 1] += 1;
        }
        for d in 1..self.ends.len() {
            self.ends[d] += self.ends[d - 1];
        }
        for r in &self.scratch {
            let end = &mut self.ends[digit(r)];
            bucket[*end] = *r;
            *end += 1;
        }
        // Each digit's run keeps generation order; sort it by arrival.
        let mut start = 0;
        for &end in &self.ends[..1 << bits] {
            let run = &mut bucket[start..end];
            if run.len() <= INSERTION_MAX {
                insertion_sort(run);
            } else {
                run.sort_by_key(Request::arrival);
            }
            start = end;
        }
    }
}

/// Stable insertion sort by arrival, for runs of a few requests.
fn insertion_sort(run: &mut [Request]) {
    for i in 1..run.len() {
        let r = run[i];
        let mut j = i;
        while j > 0 && run[j - 1].arrival() > r.arrival() {
            run[j] = run[j - 1];
            j -= 1;
        }
        run[j] = r;
    }
}

impl Workload {
    /// Build a workload from parts, stably sorting requests by arrival.
    ///
    /// This is the constructor for requests that cannot be replayed, such
    /// as hand-built test inputs, and the reference the generators' path
    /// must equal. The generators build in arrival order without the
    /// global sort.
    pub fn new(
        label: impl Into<String>,
        n_file_sets: usize,
        duration: SimDuration,
        mut requests: Vec<Request>,
    ) -> Self {
        requests.sort_by_key(Request::arrival);
        Workload {
            label: label.into(),
            n_file_sets,
            duration_us: duration.0,
            requests: Arc::new(requests),
        }
    }

    /// Build a generator's workload in arrival order, equal bit for bit
    /// to [`Workload::new`] over the same draws, without sorting all of
    /// it at once.
    ///
    /// The generators draw set by set, so their stream is set-major, and
    /// a global sort of millions of requests misses cache on every pass.
    /// Instead:
    /// 1. a counting pass replays the arrival draws and counts requests
    ///    per coarse arrival bucket (about [`REQUESTS_PER_BUCKET`] each);
    /// 2. a placing pass replays them again, draws each cost, and writes
    ///    each request at its bucket's next slot, so a bucket keeps
    ///    generation order;
    /// 3. a finish stably sorts each bucket in a small scratch that stays
    ///    in cache.
    ///
    /// The bucket is monotone in the arrival, placing keeps generation
    /// order within a bucket, and the finish is stable, so ties keep
    /// generation order as the stable global sort keeps it. Beyond the
    /// output this holds two words per bucket and the finish's scratch of
    /// at most [`FINISH_MAX`] requests; a bucket larger than that goes to
    /// the standard stable sort, whose scratch is at most what the global
    /// sort of all the requests would take.
    ///
    /// # Panics
    /// Panics if the arrivals do not yield `len` requests, if the placing
    /// pass does not fill every bucket exactly to the count the counting
    /// pass made (a replay that differs must not scramble the order), or
    /// if a draw does not fit a [`Request`] (it must not be truncated).
    pub(crate) fn from_draws<A, C>(draws: Draws<A, C>) -> Workload
    where
        A: Iterator<Item = (SimTime, FileSetId)> + Clone,
        C: FnMut() -> SimDuration,
    {
        let Draws {
            label,
            n_file_sets,
            duration,
            len,
            arrivals,
            mut costs,
        } = draws;
        let buckets = Buckets::new(duration, len);
        // `start[b]` is where bucket `b` starts: its count, then a prefix sum.
        let mut start = vec![0usize; buckets.count() + 1];
        arrivals
            .clone()
            .for_each(|(arrival, _)| start[buckets.of(arrival) + 1] += 1);
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        assert_eq!(
            start[buckets.count()],
            len,
            "the arrival draws yield a different number of requests than promised"
        );

        let mut next = start[..buckets.count()].to_vec();
        let mut requests = vec![
            Request {
                at_set: 0,
                cost_us: 0,
            };
            len
        ];
        // The first draw that does not fit a request, if any.
        let mut unfit = None;
        arrivals.for_each(|(arrival, file_set)| {
            let slot = &mut next[buckets.of(arrival)];
            match Request::new(arrival, file_set, costs()) {
                Ok(request) => requests[*slot] = request,
                Err(why) => {
                    unfit.get_or_insert(why);
                }
            }
            *slot += 1;
        });
        assert_eq!(unfit, None, "a draw does not fit a request");
        assert!(
            next[..] == start[1..],
            "replaying the arrival draws filled the buckets differently than counting them"
        );

        let mut finish = Finish::default();
        for (b, span) in start.windows(2).enumerate() {
            let lo = (b as u64) << buckets.shift;
            finish.sort(&mut requests[span[0]..span[1]], lo, buckets.shift);
        }
        Workload {
            label,
            n_file_sets,
            duration_us: duration.0,
            requests: Arc::new(requests),
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
        self.requests.iter().map(|r| r.cost().as_secs_f64()).sum()
    }

    /// Per-file-set service demand (seconds, at speed 1) in the window
    /// `[from, to)` — the prescient oracle.
    pub fn window_demands(&self, from: SimTime, to: SimTime) -> Vec<f64> {
        let lo = self.requests.partition_point(|r| r.arrival() < from);
        let hi = self.requests.partition_point(|r| r.arrival() < to);
        let mut out = vec![0.0; self.n_file_sets];
        for r in &self.requests[lo..hi] {
            out[r.file_set().0 as usize] += r.cost().as_secs_f64();
        }
        out
    }

    /// Summary statistics.
    pub fn stats(&self) -> WorkloadStats {
        let mut counts = vec![0u64; self.n_file_sets];
        for r in self.requests.iter() {
            counts[r.file_set().0 as usize] += 1;
        }
        let active: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
        let max = active.iter().copied().max().unwrap_or(0);
        let min = active.iter().copied().min().unwrap_or(0);
        WorkloadStats {
            total_requests: self.requests.len() as u64,
            active_file_sets: active.len(),
            per_set_counts: counts,
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
    /// Requests of the most active file set over those of the least
    /// active non-idle one (infinity if no set is active).
    pub heterogeneity_ratio: f64,
    /// Total offered work in seconds at speed 1.
    pub total_demand_secs: f64,
    /// Nominal duration in seconds.
    pub duration_secs: f64,
}

/// Requires [`Workload::from_draws`] to build what [`Workload::new`], the
/// stable global sort, builds from the same draws collected in generation
/// order. `draws` must return the same draws on every call.
#[cfg(test)]
pub(crate) fn assert_places_like_the_sort<A, C>(draws: impl Fn() -> Draws<A, C>, what: &str)
where
    A: Iterator<Item = (SimTime, FileSetId)> + Clone,
    C: FnMut() -> SimDuration,
{
    let Draws {
        label,
        n_file_sets,
        duration,
        arrivals,
        mut costs,
        ..
    } = draws();
    let requests = arrivals
        .map(|(arrival, file_set)| Request::new(arrival, file_set, costs()).unwrap())
        .collect();
    let want = Workload::new(label, n_file_sets, duration, requests);
    let got = Workload::from_draws(draws());
    assert_eq!(
        (&got.label, got.n_file_sets, got.duration_us),
        (&want.label, want.n_file_sets, want.duration_us),
        "{what}"
    );
    assert_eq!(got.requests.len(), want.requests.len(), "{what}");
    let first_difference = (got.requests.iter().zip(&want.requests[..])).position(|(g, w)| g != w);
    if let Some(i) = first_difference {
        panic!(
            "{what}: request {i} is {:?}, the sort puts {:?} there",
            got.requests[i], want.requests[i]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anu_des::RngStream;

    fn req(t: f64, fs: u64, cost_ms: u64) -> Request {
        Request::new(
            SimTime::from_secs_f64(t),
            FileSetId(fs),
            SimDuration::from_millis(cost_ms),
        )
        .unwrap()
    }

    #[test]
    fn a_request_holds_arrivals_sets_and_costs_below_their_bounds_only() {
        let top = Request::new(
            SimTime((1 << 40) - 1),
            FileSetId((1 << 24) - 1),
            SimDuration(u32::MAX.into()),
        )
        .unwrap();
        assert_eq!(top.arrival(), SimTime((1 << 40) - 1));
        assert_eq!(top.file_set(), FileSetId((1 << 24) - 1));
        assert_eq!(top.cost(), SimDuration(u64::from(u32::MAX)));
        for (arrival, set, cost, what) in [
            (
                1 << 40,
                0,
                1,
                "arrival_us 1099511627776 is not below 2^40 µs",
            ),
            (u64::MAX, 0, 1, "not below 2^40 µs"),
            (
                0,
                1 << 24,
                1,
                "file_set 16777216 needs n_file_sets above 2^24",
            ),
            (0, 1 << 32, 1, "n_file_sets above 2^24"),
            (0, u64::MAX, 1, "n_file_sets above 2^24"),
            (0, 0, 1 << 32, "cost_us 4294967296 is not below 2^32"),
            (0, 0, u64::MAX, "not below 2^32 µs"),
        ] {
            let why =
                Request::new(SimTime(arrival), FileSetId(set), SimDuration(cost)).unwrap_err();
            assert!(why.contains(what), "{why}");
        }
    }

    #[test]
    fn in_bound_triples_round_trip() {
        let mut rng = RngStream::new(5, "test/request-round-trip");
        // Every bit of each field, then each field's edges beside the
        // others' seeded draws.
        let mut triples = vec![
            (0, 0, 0),
            ((1 << 40) - 1, (1 << 24) - 1, u64::from(u32::MAX)),
        ];
        for _ in 0..10_000 {
            let draw = rng.next_u64();
            triples.push((draw >> 24, draw & ((1 << 24) - 1), draw >> 32));
            triples.push(((1 << 40) - 1 - (draw >> 40), draw >> 40, draw & 0xFFFF));
        }
        for (arrival, set, cost) in triples {
            let r = Request::new(SimTime(arrival), FileSetId(set), SimDuration(cost)).unwrap();
            assert_eq!(
                (r.arrival(), r.file_set(), r.cost()),
                (SimTime(arrival), FileSetId(set), SimDuration(cost))
            );
        }
    }

    #[test]
    fn draws_that_fit_a_request_are_accepted_and_others_refused() {
        assert_draws_fit(1 << 24, SimDuration((1 << 40) - 1));
        assert_draws_fit(1, SimDuration::ZERO);
        for (n_file_sets, duration_us, what) in [
            ((1 << 24) + 1, 1, "n_file_sets 16777217 exceeds 2^24"),
            (1, 1 << 40, "duration_us 1099511627776 is not below 2^40 µs"),
        ] {
            let refused = std::panic::catch_unwind(|| {
                assert_draws_fit(n_file_sets, SimDuration(duration_us));
            })
            .unwrap_err();
            let why = refused
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(why.contains(what), "{why}");
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
        let times: Vec<f64> = w
            .requests
            .iter()
            .map(|r| r.arrival().as_secs_f64())
            .collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn a_clone_shares_the_request_stream() {
        let w = Workload::new(
            "t",
            2,
            SimDuration::from_secs(10),
            vec![req(2.0, 1, 1), req(1.0, 0, 1)],
        );
        let c = w.clone();
        assert!(Arc::ptr_eq(&w.requests, &c.requests));
        assert_eq!(Arc::strong_count(&w.requests), 2);
        drop(c);
        assert_eq!(Arc::strong_count(&w.requests), 1);
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
        let all = w.window_demands(SimTime::ZERO, SimTime(u64::MAX));
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

    /// Draws that yield `requests` in the given (generation) order.
    fn handmade(
        duration_us: u64,
        requests: &[Request],
    ) -> Draws<
        impl Iterator<Item = (SimTime, FileSetId)> + Clone + '_,
        impl FnMut() -> SimDuration + '_,
    > {
        let mut costs = requests.iter().map(|r| r.cost());
        Draws {
            label: "handmade".into(),
            n_file_sets: 1 + requests
                .iter()
                .map(|r| r.file_set().0 as usize)
                .max()
                .unwrap_or(0),
            duration: SimDuration(duration_us),
            len: requests.len(),
            arrivals: requests.iter().map(|r| (r.arrival(), r.file_set())),
            costs: move || costs.next().expect("one cost per request"),
        }
    }

    /// `n` requests, set-major over `sets` file sets, each arriving at
    /// `arrival(i)` µs and costing `i` µs, so every request is distinct.
    fn stream(n: u64, sets: u64, mut arrival: impl FnMut(u64) -> u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let set = FileSetId(i * sets / n.max(1));
                Request::new(SimTime(arrival(i)), set, SimDuration(i)).unwrap()
            })
            .collect()
    }

    fn check(duration_us: u64, requests: &[Request], what: &str) {
        assert_places_like_the_sort(|| handmade(duration_us, requests), what);
    }

    #[test]
    fn from_draws_keeps_ties_across_sets_in_generation_order() {
        // Each of 5 sets draws the same 400 instants, so every instant is
        // a five-way tie across sets.
        let reqs = stream(2_000, 5, |i| (i % 400) * 2_500);
        check(1_000_000, &reqs, "ties across sets");
    }

    #[test]
    fn from_draws_keeps_ties_within_a_set_in_generation_order() {
        // One set, ten instants in a scrambled order, about a hundred
        // requests at each, all in one fine digit: the run is far past
        // insertion size and an unstable sort reorders its ties.
        let reqs = stream(1_000, 1, |i| (i * 7 % 10) * 100);
        check(1_000_000, &reqs, "ties within a set, one fine digit");
        // The same over a bucket with many digits, and over more buckets.
        for n in [17, 100, 3_000, 20_000] {
            let reqs = stream(n, 1, |i| (i * 7_919) % 97 * 10_000);
            check(
                1_000_000,
                &reqs,
                &format!("ties within a set, {n} requests"),
            );
        }
    }

    #[test]
    fn from_draws_orders_arrivals_at_and_past_the_duration() {
        // Duration 1,000 µs: the last bucket also takes every arrival
        // past it, up to the latest instant a request holds.
        for n in [5, 3_000, 12_000] {
            let reqs = stream(n, 3, |i| match i % 6 {
                0 => 1_000,
                1 => 1_000 + i * 37 % 5_000,
                2 => i * 104_729 % 10_000_000,
                3 => (1 << 40) - 1 - i % 3,
                _ => i * 13 % 1_001,
            });
            check(
                1_000,
                &reqs,
                &format!("arrivals past the duration, {n} requests"),
            );
        }
    }

    #[test]
    fn from_draws_keeps_one_instant_in_generation_order() {
        for n in [1, 16, 17, 5_000, 10_000] {
            let reqs = stream(n, 4, |_| 777);
            check(1_000, &reqs, &format!("one instant, {n} requests"));
        }
    }

    #[test]
    fn from_draws_handles_a_zero_length_duration() {
        // One bucket holds everything: past the finish scratch at 10,000.
        for n in [3, 600, 10_000] {
            let reqs = stream(n, 2, |i| (i * 31) % 50);
            check(0, &reqs, &format!("zero duration, {n} requests"));
        }
    }

    #[test]
    fn from_draws_handles_one_request_and_none() {
        check(10, &stream(1, 1, |_| 3), "one request");
        check(10, &stream(1, 1, |_| 30), "one request past the duration");
        check(10, &[], "no request");
    }

    #[test]
    fn from_draws_matches_the_sort_on_random_streams() {
        // From one request a bucket to a few thousand, over durations that
        // make ties rare, common, or the rule.
        let mut rng = RngStream::new(1, "test/from-draws");
        for n in [1, 2, 15, 16, 17, 100, 511, 512, 1_024, 4_000, 30_000] {
            for duration_us in [0, 1, 1_000, 1 << 20, 3_600_000_000] {
                let span = duration_us + duration_us / 100 + 1;
                let reqs = stream(n, 7, |_| rng.next_u64() % span);
                check(
                    duration_us,
                    &reqs,
                    &format!("{n} requests over {duration_us} µs"),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "filled the buckets differently")]
    fn from_draws_fails_loudly_on_a_replay_that_differs() {
        // The placing pass sees every arrival at 0, where the counting
        // pass counted them over two buckets.
        let reqs = stream(2_048, 1, |i| i * 1_000);
        let d = handmade(2_048_000, &reqs);
        let seen = std::cell::Cell::new(0);
        let arrivals = d.arrivals.map(|(arrival, file_set)| {
            seen.set(seen.get() + 1);
            let replaying = seen.get() > reqs.len();
            (if replaying { SimTime::ZERO } else { arrival }, file_set)
        });
        Workload::from_draws(Draws {
            label: d.label,
            n_file_sets: d.n_file_sets,
            duration: d.duration,
            len: d.len,
            arrivals,
            costs: d.costs,
        });
    }

    #[test]
    #[should_panic(expected = "cost_us 4294967296 is not below 2^32")]
    fn from_draws_refuses_a_cost_a_request_cannot_hold() {
        let mut costs = [SimDuration(7), SimDuration(1 << 32), SimDuration(9)].into_iter();
        Workload::from_draws(Draws {
            label: "too costly".into(),
            n_file_sets: 1,
            duration: SimDuration(1_000),
            len: 3,
            arrivals: (0..3).map(|i| (SimTime(i * 100), FileSetId(0))),
            costs: move || costs.next().unwrap_or(SimDuration::ZERO),
        });
    }

    #[test]
    fn from_draws_takes_the_last_arrival_and_set_a_request_holds_only() {
        let draws = |arrival, set| Draws {
            label: "edge".into(),
            n_file_sets: 1 << 24,
            duration: SimDuration(1_000),
            len: 2,
            arrivals: [
                (SimTime(5), FileSetId(0)),
                (SimTime(arrival), FileSetId(set)),
            ]
            .into_iter(),
            costs: || SimDuration(1),
        };
        let w = Workload::from_draws(draws((1 << 40) - 1, (1 << 24) - 1));
        assert_eq!(w.requests[1].arrival(), SimTime((1 << 40) - 1));
        assert_eq!(w.requests[1].file_set(), FileSetId((1 << 24) - 1));
        for (arrival, set, what) in [
            (1 << 40, 0, "arrival_us 1099511627776 is not below 2^40 µs"),
            (0, 1 << 24, "file_set 16777216 needs n_file_sets above 2^24"),
        ] {
            let refused =
                std::panic::catch_unwind(|| Workload::from_draws(draws(arrival, set))).unwrap_err();
            let why = refused
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(why.contains(what), "{why}");
        }
    }

    /// The benchmark's largest inputs, which debug builds cannot build
    /// twice in bounded time: `e2e-bench`'s `scale_hotpath` cells (fig8
    /// ×50 and fig6 ×20) and a `churn_storm` adversarial cell. Run with
    /// `cargo test --release -p anu-workload -- --include-ignored`.
    #[test]
    #[ignore = "builds 8.25M requests twice; run in release"]
    fn from_draws_matches_the_sort_at_benchmark_sizes() {
        use crate::{CostModel, DfsLikeConfig, StormConfig, StormKind, SyntheticConfig};
        let mut fig8 = SyntheticConfig::paper(1);
        fig8.n_file_sets *= 50;
        fig8.total_requests *= 50;
        let fig8 = fig8.with_offered_load(0.5, 25.0);
        assert_places_like_the_sort(|| fig8.draws(), "fig8 x50");
        let mut fig6 = DfsLikeConfig::paper(1);
        fig6.n_file_sets *= 20;
        fig6.total_requests *= 20;
        fig6.mean_cost_secs /= 20.0;
        assert_places_like_the_sort(|| fig6.draws(), "fig6 x20");
        let storm = StormConfig {
            kind: StormKind::Adversarial,
            intensity: 2.0,
            base: SyntheticConfig {
                total_requests: 1_000_000,
                duration_secs: 100_000.0,
                cost: CostModel::Pareto { alpha: 1.5 },
                ..SyntheticConfig::paper(1)
            },
        };
        assert_places_like_the_sort(|| storm.phased(true), "adversarial storm, 1M requests");
    }
}
