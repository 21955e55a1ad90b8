//! Metadata operation mixes.
//!
//! Storage Tank file servers serve "a single class of metadata operations —
//! small reads and writes" (paper §2): lookups, stats, opens (with lock
//! grants), creates, removes. An [`OpMix`] turns that into a concrete
//! service-demand distribution: each request draws an operation kind from
//! the mix's frequencies and costs the kind's relative weight times the
//! workload's mean cost. This gives the low-variance, short-transaction
//! profile the paper's latency metric assumes, with named presets for
//! experimentation.

use anu_des::RngStream;

/// A metadata operation kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Name lookup within a directory.
    Lookup,
    /// Attribute read.
    Stat,
    /// Open: metadata read + lock grant.
    Open,
    /// Close: lock release + attribute writeback.
    Close,
    /// Create: allocate metadata, update directory.
    Create,
    /// Remove: free metadata, update directory.
    Remove,
}

impl OpKind {
    /// All kinds, in a stable order.
    pub const ALL: [OpKind; 6] = [
        OpKind::Lookup,
        OpKind::Stat,
        OpKind::Open,
        OpKind::Close,
        OpKind::Create,
        OpKind::Remove,
    ];
}

/// Named operation mixes (frequency, relative cost) per [`OpKind`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpMix {
    /// A general-purpose file-serving mix: lookup/stat dominated, few
    /// creates and removes — the profile of the DFSTrace workstation
    /// traces' metadata portion.
    Workstation,
    /// A build/compile-like mix: heavy stat and open traffic.
    BuildServer,
    /// A churny mix with many creates/removes (scratch space, mail spool).
    Churn,
}

impl OpMix {
    /// `(frequency weight, relative cost)` per kind, in [`OpKind::ALL`]
    /// order. Relative costs are scaled so the *mix mean* is 1.0; the
    /// generator multiplies by the configured mean service demand.
    pub fn table(&self) -> [(f64, f64); 6] {
        // (freq, raw relative cost); raw costs reflect metadata work:
        // lookup 0.6, stat 0.4, open 1.2 (read + lock), close 0.5,
        // create 2.2 (allocate + directory update), remove 1.8.
        let raw: [(f64, f64); 6] = match self {
            OpMix::Workstation => [
                (0.35, 0.6),
                (0.30, 0.4),
                (0.15, 1.2),
                (0.14, 0.5),
                (0.04, 2.2),
                (0.02, 1.8),
            ],
            OpMix::BuildServer => [
                (0.25, 0.6),
                (0.40, 0.4),
                (0.18, 1.2),
                (0.12, 0.5),
                (0.04, 2.2),
                (0.01, 1.8),
            ],
            OpMix::Churn => [
                (0.20, 0.6),
                (0.15, 0.4),
                (0.15, 1.2),
                (0.14, 0.5),
                (0.20, 2.2),
                (0.16, 1.8),
            ],
        };
        // Normalize so sum(freq * cost) == 1.0.
        let mean: f64 = raw.iter().map(|&(f, c)| f * c).sum();
        let mut out = raw;
        for e in &mut out {
            e.1 /= mean;
        }
        out
    }

    /// Cumulative frequency table for sampling.
    fn cdf(&self) -> [f64; 6] {
        let t = self.table();
        let mut acc = 0.0;
        let mut out = [0.0; 6];
        for (i, &(f, _)) in t.iter().enumerate() {
            acc += f;
            out[i] = acc;
        }
        out
    }

    /// Draw one operation and its cost (seconds), given the workload's
    /// mean service demand.
    pub fn sample(&self, mean_cost_secs: f64, rng: &mut RngStream) -> (OpKind, f64) {
        // Inverse transform over the cumulative frequencies.
        let cdf = self.cdf();
        let x = rng.uniform() * cdf[cdf.len() - 1];
        let idx = cdf.partition_point(|&c| c <= x).min(cdf.len() - 1);
        let (_, rel) = self.table()[idx];
        // ±20% uniform spread around the op's relative cost keeps the
        // low-variance profile of short metadata transactions.
        let jitter = rng.uniform_range(0.8, 1.2);
        (OpKind::ALL[idx], mean_cost_secs * rel * jitter)
    }

    /// The mix's mean relative cost — 1.0 by construction.
    pub fn mean_relative_cost(&self) -> f64 {
        self.table().iter().map(|&(f, c)| f * c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_normalized() {
        for mix in [OpMix::Workstation, OpMix::BuildServer, OpMix::Churn] {
            let m = mix.mean_relative_cost();
            assert!((m - 1.0).abs() < 1e-12, "{mix:?}: mean {m}");
            let freq_sum: f64 = mix.table().iter().map(|&(f, _)| f).sum();
            assert!(
                (freq_sum - 1.0).abs() < 1e-9,
                "{mix:?}: freq sum {freq_sum}"
            );
        }
    }

    #[test]
    fn sample_mean_matches_configured_mean() {
        let mut rng = RngStream::new(1, "ops");
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| OpMix::Workstation.sample(0.3, &mut rng).1)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn churn_mix_draws_more_creates() {
        let mut rng = RngStream::new(2, "ops");
        let mut count = |mix: OpMix| {
            (0..20_000)
                .filter(|_| matches!(mix.sample(1.0, &mut rng).0, OpKind::Create | OpKind::Remove))
                .count()
        };
        let ws = count(OpMix::Workstation);
        let ch = count(OpMix::Churn);
        assert!(ch > 3 * ws, "churn {ch} vs workstation {ws}");
    }

    #[test]
    fn all_kinds_appear() {
        let mut rng = RngStream::new(3, "ops");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(format!("{:?}", OpMix::Workstation.sample(1.0, &mut rng).0));
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn costs_are_positive_and_bounded() {
        let mut rng = RngStream::new(4, "ops");
        for _ in 0..5_000 {
            let (_, c) = OpMix::Churn.sample(0.5, &mut rng);
            // Max relative cost is create (2.2 pre-normalization) * 1.2
            // jitter; a generous bound of 4x the mean covers it.
            assert!(c > 0.0 && c < 2.0, "{c}");
        }
    }
}
