//! Top-level ANU configuration.

use crate::heuristics::TuningConfig;
use crate::placement::DEFAULT_ROUNDS;

/// Everything a node needs to participate in ANU placement: the shared hash
/// seed, the probe-round bound, and the delegate's tuning knobs.
///
/// This is configuration, not state — the replicated *state* is the
/// [`crate::placement::PlacementMap`] the delegate distributes after each
/// reconfiguration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AnuConfig {
    /// Seed of the agreed-upon hash family.
    pub seed: u64,
    /// Number of re-hash rounds before the direct-to-server fallback.
    pub rounds: u32,
    /// Delegate tuning configuration.
    pub tuning: TuningConfig,
}

impl Default for AnuConfig {
    fn default() -> Self {
        AnuConfig {
            seed: 0x5EED_AB1E,
            rounds: DEFAULT_ROUNDS,
            tuning: TuningConfig::paper(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_config() {
        let c = AnuConfig::default();
        assert_eq!(c.rounds, DEFAULT_ROUNDS);
        assert!(c.tuning.top_off && c.tuning.divergent);
    }
}
