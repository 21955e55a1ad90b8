//! Top-level ANU configuration.

use crate::heuristics::TuningConfig;

/// Everything a node needs to participate in ANU placement: the shared hash
/// seed and the delegate's tuning knobs. The probe-round bound is
/// [`DEFAULT_ROUNDS`](crate::placement::DEFAULT_ROUNDS).
///
/// This is configuration, not state — the replicated *state* is the
/// [`crate::placement::PlacementMap`] the delegate distributes after each
/// reconfiguration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AnuConfig {
    /// Seed of the agreed-upon hash family.
    pub seed: u64,
    /// Delegate tuning configuration.
    pub tuning: TuningConfig,
}

impl Default for AnuConfig {
    fn default() -> Self {
        AnuConfig {
            seed: 0x5EED_AB1E,
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
        assert!(c.tuning.top_off && c.tuning.divergent);
    }
}
