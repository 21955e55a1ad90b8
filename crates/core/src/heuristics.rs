//! Over-tuning heuristics: thresholding, top-off, and divergent tuning.
//!
//! Early versions of ANU randomization "over-tuned": load placement did not
//! converge, moving file sets from server to server without improving
//! balance (paper §6). Two effects cause it: file sets are indivisible (so
//! exact balance may not exist) and extreme server heterogeneity (the
//! weakest server cycles between idle and overloaded on a single file set).
//! Three composable heuristics eliminate it:
//!
//! * **Thresholding** permits imbalance: only servers whose latency lies
//!   outside `[μ·(1−t), μ·(1+t)]` are updated.
//! * **Top-off tuning** extends thresholding with the interval
//!   `[0, μ·(1+t)]`: only *overloaded* servers are explicitly scaled
//!   (down); underloaded servers gain load implicitly when the freed share
//!   is redistributed to preserve half occupancy. This lets the weakest
//!   servers sit idle instead of thrashing.
//! * **Divergent tuning** only scales servers moving *away* from the
//!   average: above `μ` and rising, or below `μ` and falling. It prevents
//!   overshoot from "memento" tasks left in queues by the previous
//!   configuration. It is the one stateful policy; when the delegate has no
//!   previous-interval state (e.g. after a delegate failover) it is simply
//!   skipped, preserving graceful degradation.
//!
//! A server the heuristics let move is scaled by one rule,
//! [`TuningConfig::scale_share`], which both the central delegate and the
//! pairwise tuner apply.

use crate::tuner::TuneOutcome;

/// Per-tick clamp on the scaling factor: one pass scales a share by at
/// most `MAX_FACTOR` and by at least `1 / MAX_FACTOR`. An idle server
/// grows at the clamp.
pub const MAX_FACTOR: f64 = 2.0;

/// When growing a server whose share collapsed toward zero, the tuner
/// pretends it has at least this fraction of the total so multiplication
/// can restart it.
pub const MIN_GROW_SHARE: f64 = 1e-3;

/// Oldest usable [`LoadReport`](crate::tuner::LoadReport), in ticks. A
/// report with `age_ticks` beyond this is discarded as stale; the server's
/// share is then frozen for the epoch (`TuneOutcome::NoReport`) rather than
/// treated as zero latency. Age 1 admits a report delayed by exactly one
/// tick (the fault injector's `ReportDelay`).
pub const MAX_REPORT_AGE: u32 = 1;

/// Minimum fraction of share-holding servers with a usable report for the
/// delegate to tune at all. Below quorum the whole epoch freezes: every
/// share is carried forward unchanged. A full-report tick always meets the
/// quorum, so it only bites under report loss.
pub const MIN_QUORUM: f64 = 0.5;

/// How the delegate condenses per-server latencies into one "average".
///
/// The paper uses a request-weighted mean but notes the system "is robust to
/// the choice of an average and operates well using different techniques";
/// we ship both and benchmark the claim (`ablation_average`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AverageKind {
    /// Mean of server latencies weighted by each server's request count.
    #[default]
    WeightedMean,
    /// Median of server latencies (unweighted, zero-latency servers
    /// included).
    Median,
}

/// Tuning knobs for the delegate, including the three heuristics.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TuningConfig {
    /// Exponent of the scaling rule `s' = s · (μ/λ)^γ`. Smaller is gentler.
    pub gamma: f64,
    /// Thresholding parameter `t`; `None` disables thresholding entirely
    /// (every imbalanced server is a candidate mover).
    pub threshold: Option<f64>,
    /// Enable top-off tuning (only scale down overloaded servers).
    pub top_off: bool,
    /// Enable divergent tuning (only scale servers diverging from `μ`).
    pub divergent: bool,
    /// Average used by the delegate.
    pub average: AverageKind,
}

impl Default for TuningConfig {
    fn default() -> Self {
        TuningConfig::paper()
    }
}

impl TuningConfig {
    /// The aggressive early-stage configuration with no heuristics — the
    /// one that exhibits over-tuning (Figure 10a).
    pub fn plain() -> Self {
        TuningConfig {
            gamma: 0.5,
            threshold: None,
            top_off: false,
            divergent: false,
            average: AverageKind::WeightedMean,
        }
    }

    /// All three heuristics enabled with the paper's "fairly large"
    /// threshold — the production configuration (Figure 10b).
    pub fn paper() -> Self {
        TuningConfig {
            threshold: Some(0.5),
            top_off: true,
            divergent: true,
            ..TuningConfig::plain()
        }
    }

    /// Thresholding only (Figure 11a).
    pub fn thresholding_only(t: f64) -> Self {
        TuningConfig {
            threshold: Some(t),
            ..TuningConfig::plain()
        }
    }

    /// Top-off only (Figure 11b). Top-off is "an extension to thresholding
    /// in which the threshold interval is `[0, μ(1+t)]`", so it carries the
    /// threshold parameter too.
    pub fn top_off_only(t: f64) -> Self {
        TuningConfig {
            threshold: Some(t),
            top_off: true,
            ..TuningConfig::plain()
        }
    }

    /// Divergent tuning only (Figure 11c).
    pub fn divergent_only() -> Self {
        TuningConfig {
            divergent: true,
            ..TuningConfig::plain()
        }
    }

    /// Is `latency` inside the tolerated band around `mu`?
    ///
    /// With thresholding disabled the band is empty (any deviation is
    /// outside). Under top-off the band extends down to zero.
    pub fn within_band(&self, latency: f64, mu: f64) -> bool {
        let t = self.threshold.unwrap_or(0.0);
        let hi = mu * (1.0 + t);
        if self.top_off {
            latency <= hi
        } else {
            let lo = mu * (1.0 - t);
            if t == 0.0 {
                latency == mu
            } else {
                (lo..=hi).contains(&latency)
            }
        }
    }

    /// Does divergent tuning allow scaling a server with `latency` (current)
    /// and `prev` (previous interval), relative to `mu`?
    ///
    /// `prev == None` means the delegate has no previous-interval state
    /// (fresh delegate after failover); the policy then abstains, i.e.
    /// allows the move — divergence "cannot be evaluated and the ANU
    /// algorithm ignores this policy" (paper §6).
    pub fn divergence_allows(&self, latency: f64, mu: f64, prev: Option<f64>) -> bool {
        if !self.divergent {
            return true;
        }
        let Some(prev) = prev else { return true };
        if latency > mu {
            latency > prev // above average and strictly rising
        } else {
            latency < prev // below average and strictly falling
        }
    }

    /// The scaling rule for a server that tuning moves: its `share` (of
    /// `total`) times `(mu/latency)^gamma`, with the factor clamped to
    /// `[1/MAX_FACTOR, MAX_FACTOR]`; an idle server grows at
    /// [`MAX_FACTOR`]. Multiplication cannot restart a share that collapsed
    /// to about zero, so a growing share is first floored at
    /// [`MIN_GROW_SHARE`] of `total`. Returns the new share and what shaped
    /// it: [`TuneOutcome::Clamped`] when the clamp bit,
    /// [`TuneOutcome::Floored`] when the floor did, and
    /// [`TuneOutcome::Scaled`] otherwise.
    pub fn scale_share(&self, share: f64, total: f64, latency: f64, mu: f64) -> (f64, TuneOutcome) {
        let raw = if latency <= 0.0 {
            MAX_FACTOR
        } else {
            (mu / latency).powf(self.gamma)
        };
        let factor = raw.clamp(1.0 / MAX_FACTOR, MAX_FACTOR);
        let base = if factor > 1.0 {
            share.max(MIN_GROW_SHARE * total)
        } else {
            share
        };
        let outcome = if factor != raw {
            TuneOutcome::Clamped
        } else if base != share {
            TuneOutcome::Floored
        } else {
            TuneOutcome::Scaled
        };
        (base * factor, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let p = TuningConfig::plain();
        assert!(p.threshold.is_none() && !p.top_off && !p.divergent);
        let paper = TuningConfig::paper();
        assert_eq!(paper.threshold, Some(0.5));
        assert!(paper.top_off && paper.divergent);
        assert!(TuningConfig::thresholding_only(0.3).threshold == Some(0.3));
        assert!(TuningConfig::top_off_only(0.3).top_off);
        assert!(TuningConfig::divergent_only().divergent);
        assert_eq!(TuningConfig::default(), TuningConfig::paper());
    }

    #[test]
    fn band_with_threshold() {
        let c = TuningConfig::thresholding_only(0.5);
        assert!(c.within_band(100.0, 100.0));
        assert!(c.within_band(149.0, 100.0));
        assert!(c.within_band(51.0, 100.0));
        assert!(!c.within_band(151.0, 100.0));
        assert!(!c.within_band(49.0, 100.0));
    }

    #[test]
    fn band_without_threshold_is_empty() {
        let c = TuningConfig::plain();
        assert!(c.within_band(100.0, 100.0)); // exactly mu is "balanced"
        assert!(!c.within_band(100.1, 100.0));
        assert!(!c.within_band(99.9, 100.0));
    }

    #[test]
    fn top_off_band_reaches_zero() {
        let c = TuningConfig::top_off_only(0.5);
        assert!(c.within_band(0.0, 100.0), "idle server is tolerated");
        assert!(c.within_band(149.0, 100.0));
        assert!(!c.within_band(151.0, 100.0));
    }

    #[test]
    fn divergence_filter() {
        let c = TuningConfig::divergent_only();
        // Above mu, rising: allowed.
        assert!(c.divergence_allows(200.0, 100.0, Some(150.0)));
        // Above mu, falling (converging on its own): blocked.
        assert!(!c.divergence_allows(200.0, 100.0, Some(250.0)));
        // Below mu, falling: allowed.
        assert!(c.divergence_allows(50.0, 100.0, Some(80.0)));
        // Below mu, rising (converging): blocked.
        assert!(!c.divergence_allows(50.0, 100.0, Some(20.0)));
        // No state: policy skipped (allowed).
        assert!(c.divergence_allows(200.0, 100.0, None));
    }

    #[test]
    fn divergence_disabled_always_allows() {
        let c = TuningConfig::plain();
        assert!(c.divergence_allows(200.0, 100.0, Some(250.0)));
    }
}
