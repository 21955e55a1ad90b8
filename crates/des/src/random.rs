//! Seeded random streams and the distributions the workloads need.
//!
//! Every stochastic component of a simulation draws from its own
//! [`RngStream`], seeded deterministically from an experiment seed plus a
//! stream label, so adding a new random component never perturbs the draws
//! of existing ones (common random numbers across policy comparisons).
//!
//! The generator is an in-repo xoshiro256++ (Blackman & Vigna), seeded via
//! SplitMix64. Carrying the generator in-tree — instead of depending on an
//! external RNG crate — pins the exact draw sequence: results are
//! bit-for-bit reproducible across machines, toolchains, and dependency
//! upgrades, which the whole evaluation methodology relies on.
//!
//! The exponential sampler and the alias table for weighted draws are
//! built on the raw uniforms — no extra dependency. [`Zipf`] holds the
//! rank probabilities the Zipf popularity weights are built from.

/// A deterministic random stream (xoshiro256++ with SplitMix64 seeding).
#[derive(Clone, Debug)]
pub struct RngStream {
    state: [u64; 4],
}

/// Derive the seed of one task in a sweep grid from the grid's base seed
/// and the task's stable id (its index in enumeration order).
///
/// The derivation runs the same SplitMix64 path the stream seeding uses,
/// so distinct task ids land on statistically independent seeds while the
/// mapping stays a pure function of `(base_seed, task_id)` — the draws a
/// task makes never depend on which worker thread ran it, in what order,
/// or how many workers there were. Task id 0 returns `base_seed` itself,
/// so a single-task grid is byte-identical to a direct run at `base_seed`.
#[must_use]
pub fn task_seed(base_seed: u64, task_id: u64) -> u64 {
    if task_id == 0 {
        return base_seed;
    }
    // Jump SplitMix64 directly to the task's slot: the generator's state
    // advance is a constant addition, so seeking is O(1) and the result is
    // identical to stepping `task_id` times from `base_seed`.
    let mut x = base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(task_id - 1));
    splitmix64(&mut x)
}

/// SplitMix64 step used for seeding: advances `x` and returns the output.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RngStream {
    /// Create a stream from an experiment seed and a stream label. The
    /// label keeps streams independent: `(seed, "arrivals")` and
    /// `(seed, "costs")` never share draws.
    pub fn new(seed: u64, label: &str) -> Self {
        // Mix the label into the seed with FNV-1a, then expand to the
        // four xoshiro words with SplitMix64 (the seeding procedure the
        // xoshiro authors recommend).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut state = [0u64; 4];
        for w in &mut state {
            *w = splitmix64(&mut h);
        }
        RngStream { state }
    }

    /// Create a stream for one task of a sweep grid: the stream of
    /// `(task_seed(base_seed, task_id), label)`. See [`task_seed`] for the
    /// determinism contract.
    pub fn for_task(base_seed: u64, task_id: u64, label: &str) -> Self {
        RngStream::new(task_seed(base_seed, task_id), label)
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> the unit interval; exact and bias-free.
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0) // 2^-53
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Multiply-shift reduction (Lemire); for the n used in simulations
        // (n << 2^64) the bias is negligible and the mapping deterministic.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Raw 64-bit draw (xoshiro256++ output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    ///
    /// Consumes exactly one uniform regardless of `p`, so gating a draw on
    /// a probability never perturbs the stream consumed by later draws.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Exponential draw with the given rate (mean `1/rate`), via inverse
    /// transform. Used for Poisson-process inter-arrival gaps.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        // 1 - U in (0, 1] avoids ln(0).
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Precomputed Walker/Vose alias table over an arbitrary weight vector:
/// `O(n)` to build, `O(1)` per draw, and exactly **one** uniform consumed
/// per draw (the high bits pick the column, the fractional remainder plays
/// the biased coin), so swapping an inverse-CDF sampler for an alias table
/// never changes *how many* draws a stream makes — only their values.
///
/// This is the per-request sampler for weighted file-set selection at
/// scale: a binary search of the cumulative weights costs `O(log n)` per
/// request, which at 100× file-set counts dominates the hot loop; the
/// alias table is two array reads and a compare regardless of `n`.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Acceptance threshold per column, scaled to `[0, 1]`.
    prob: Vec<f64>,
    /// Donor column used when the coin rejects.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build the table from non-negative weights (not all zero).
    ///
    /// Construction is Vose's stable two-stack partition, processed in
    /// index order so the table — and every draw made from it — is a pure
    /// function of the weight vector.
    ///
    /// # Panics
    /// Panics on an empty weight vector, a negative or non-finite weight,
    /// a zero total, or more than `u32::MAX` entries.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table over zero weights");
        assert!(
            u32::try_from(weights.len()).is_ok(),
            "alias table over > u32::MAX weights"
        );
        let total: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && total > 0.0,
            "alias weights must be non-negative, finite, and not all zero"
        );
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // The donor gives away exactly the acceptor's deficit.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers on either stack are within rounding of 1.
        for i in large {
            prob[i as usize] = 1.0;
        }
        for i in small {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of columns (the weight vector's length).
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true: `new` rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw an index in `0..len()`, consuming exactly one uniform.
    #[inline]
    pub fn sample(&self, rng: &mut RngStream) -> usize {
        let x = rng.uniform() * self.prob.len() as f64;
        let i = (x as usize).min(self.prob.len() - 1);
        if x - (i as f64) < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// The probability the table assigns to column `i` (for tests and
    /// reporting): its own acceptance mass plus every donation to it.
    pub fn prob(&self, i: usize) -> f64 {
        let n = self.prob.len() as f64;
        let mut p = self.prob[i];
        for (j, &a) in self.alias.iter().enumerate() {
            if a as usize == i {
                p += 1.0 - self.prob[j];
            }
        }
        p / n
    }
}

/// Precomputed Zipf(s) rank probabilities over ranks `1..=n`: rank `k`
/// has weight `k^-s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// The total weight, `cdf`'s last entry.
    total: f64,
}

impl Zipf {
    /// Build the table for `n` ranks with exponent `s >= 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s >= 0.0 && s.is_finite());
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        Zipf { cdf, total: acc }
    }

    /// The probability of rank `k` (0-based; rank 0 is the most popular).
    pub fn prob(&self, k: usize) -> f64 {
        let prev = if k == 0 { 0.0 } else { self.cdf[k - 1] };
        (self.cdf[k] - prev) / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = RngStream::new(7, "x");
        let mut b = RngStream::new(7, "x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn labels_separate_streams() {
        let mut a = RngStream::new(7, "arrivals");
        let mut b = RngStream::new(7, "costs");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = RngStream::new(1, "u");
        for _ in 0..1000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
            let y = r.uniform_range(5.0, 6.0);
            assert!((5.0..6.0).contains(&y));
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = RngStream::new(2, "e");
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn alias_matches_weights_across_seeds() {
        // Statistical gate for the satellite: empirical frequencies track
        // the weight vector within tolerance, on three distinct seeds.
        let weights = [1.0, 0.5, 2.5, 0.0, 4.0];
        let total: f64 = weights.iter().sum();
        let t = AliasTable::new(&weights);
        for seed in [11u64, 12, 13] {
            let mut r = RngStream::new(seed, "alias");
            let mut counts = [0usize; 5];
            let n = 80_000;
            for _ in 0..n {
                counts[t.sample(&mut r)] += 1;
            }
            for (i, &w) in weights.iter().enumerate() {
                let f = counts[i] as f64 / n as f64;
                let expect = w / total;
                assert!(
                    (f - expect).abs() < 0.01,
                    "seed {seed} column {i}: {f} vs {expect}"
                );
            }
            assert_eq!(counts[3], 0, "zero-weight column drawn");
        }
    }

    #[test]
    fn alias_prob_reconstructs_weights() {
        let weights = [3.0, 1.0, 0.5, 0.25, 8.0, 1.25];
        let total: f64 = weights.iter().sum();
        let t = AliasTable::new(&weights);
        let mut sum = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            let p = t.prob(i);
            assert!((p - w / total).abs() < 1e-12, "column {i}: {p}");
            sum += p;
        }
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alias_consumes_exactly_one_uniform_per_draw() {
        // The stream-lockstep contract: interleaved draws from other
        // distributions see the same uniforms whether the weighted draw
        // uses the alias table or any other one-uniform sampler.
        let t = AliasTable::new(&[0.2, 0.8, 1.0]);
        let mut a = RngStream::new(21, "lockstep");
        let mut b = RngStream::new(21, "lockstep");
        for _ in 0..100 {
            t.sample(&mut a);
            b.uniform();
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn alias_single_column_always_zero() {
        let t = AliasTable::new(&[42.0]);
        let mut r = RngStream::new(1, "one");
        for _ in 0..100 {
            assert_eq!(t.sample(&mut r), 0);
        }
    }

    #[test]
    fn alias_uniform_weights_cover_all_columns() {
        let t = AliasTable::new(&[1.0; 64]);
        let mut r = RngStream::new(2, "cover");
        let mut seen = [false; 64];
        for _ in 0..20_000 {
            seen[t.sample(&mut r)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "alias table over zero weights")]
    fn alias_rejects_empty() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn alias_rejects_negative() {
        let _ = AliasTable::new(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn alias_rejects_all_zero() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(100, 1.0);
        assert!(z.prob(0) > z.prob(10) && z.prob(10) > z.prob(99));
        // Harmonic(100) ~ 5.187; p(0) ~ 0.1928.
        assert!((z.prob(0) - 0.1928).abs() < 1e-3);
    }

    #[test]
    fn chance_respects_probability_and_draw_count() {
        let mut r = RngStream::new(9, "c");
        let hits = (0..40_000).filter(|_| r.chance(0.3)).count();
        let f = hits as f64 / 40_000.0;
        assert!((f - 0.3).abs() < 0.02, "{f}");
        // Degenerate probabilities still consume exactly one draw each, so
        // two streams stay in lockstep whatever p they were gated on.
        let mut a = RngStream::new(10, "c");
        let mut b = RngStream::new(10, "c");
        assert!(!a.chance(0.0));
        assert!(b.chance(1.0));
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.prob(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn task_seed_zero_is_identity() {
        for base in [0u64, 11, 32, u64::MAX] {
            assert_eq!(task_seed(base, 0), base);
        }
    }

    #[test]
    fn task_seeds_are_distinct_and_stable() {
        use std::collections::BTreeSet;
        let seeds: Vec<u64> = (0..256).map(|i| task_seed(11, i)).collect();
        let unique: BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "collision in task seeds");
        // Pure function: recomputing any id out of order gives the same seed.
        assert_eq!(task_seed(11, 200), seeds[200]);
        assert_eq!(task_seed(11, 1), seeds[1]);
    }

    #[test]
    fn task_seed_matches_stepped_splitmix() {
        // Seeking must agree with stepping SplitMix64 one task at a time.
        let base = 97u64;
        let mut x = base;
        for id in 1..50u64 {
            let stepped = splitmix64(&mut x);
            assert_eq!(task_seed(base, id), stepped, "task {id}");
        }
    }

    #[test]
    fn for_task_matches_derived_stream() {
        let mut a = RngStream::for_task(7, 3, "arrivals");
        let mut b = RngStream::new(task_seed(7, 3), "arrivals");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngStream::new(6, "s");
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
