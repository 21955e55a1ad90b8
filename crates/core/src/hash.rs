//! The agreed-upon family of hash functions used for placement.
//!
//! File sets that hash into un-mapped regions of the unit interval are
//! re-hashed "using the next hash function among an agreed upon family of
//! hash functions" (paper §4). We implement the family as a single strong
//! base hash of the unique name combined with per-round seeds and a 64-bit
//! finalizer (SplitMix64). The family is:
//!
//! * **deterministic** — the same name and family seed always probe the same
//!   sequence of positions, on any machine, so every node in the cluster can
//!   locate a file set without I/O or shared per-file-set state;
//! * **independent-looking across rounds** — each round's seed is drawn from
//!   a SplitMix64 stream, and the finalizer avalanches every input bit;
//! * **cheap** — a probe is a couple of multiplications, so the expected two
//!   probes per lookup cost nanoseconds.
//!
//! File sets that miss every round (probability `2^-rounds`, since half the
//! interval is mapped) fall back to a direct hash onto the live-server list,
//! which "bounds the number of rounds and does not introduce significant
//! skew" (paper §4).

use crate::interval::Pos;

/// SplitMix64 step: advances `state` and returns the next output.
///
/// This is the standard finalizer/stream generator from Steele et al.; it is
/// a bijection on `u64` with full avalanche, which is exactly what the probe
/// sequence needs.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a value through the SplitMix64 finalizer (stateless form).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash of a byte string, used as the base digest of a file
/// set's unique name. The weak diffusion of FNV is repaired by [`mix64`] in
/// every probe, so short or similar names still spread across the interval.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A seeded family of hash functions `H_0, H_1, …` plus a fallback hash.
///
/// All cluster nodes construct the family from the same `seed` (part of the
/// replicated configuration), so placement lookups agree everywhere.
#[derive(Clone, Debug)]
pub struct HashFamily {
    seed: u64,
    seeds: Vec<u64>,
    fallback_seed: u64,
}

impl HashFamily {
    /// Build a family of `rounds` probe functions from `seed`.
    pub fn new(seed: u64, rounds: u32) -> Self {
        let mut state = mix64(seed ^ 0x00A1_1CE5_EED0_u64);
        let seeds = (0..rounds).map(|_| splitmix64(&mut state)).collect();
        let fallback_seed = splitmix64(&mut state);
        HashFamily {
            seed,
            seeds,
            fallback_seed,
        }
    }

    /// The family seed this was built from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of probe rounds before falling back to a direct server hash.
    #[inline]
    pub fn rounds(&self) -> u32 {
        self.seeds.len() as u32
    }

    /// Base digest of a unique name.
    #[inline]
    pub fn base<N: AsRef<[u8]>>(&self, name: N) -> u64 {
        fnv1a64(name.as_ref())
    }

    /// Position probed by hash function `round` for base digest `base`.
    #[inline]
    pub fn probe(&self, base: u64, round: u32) -> Pos {
        Pos(mix64(base ^ self.seeds[round as usize]))
    }

    /// Fallback: index into a list of `n` live servers.
    #[inline]
    pub fn fallback_index(&self, base: u64, n: usize) -> usize {
        debug_assert!(n > 0);
        // Multiply-shift reduction avoids the modulo bias of `% n` for the
        // same cost; with n ≪ 2^32 the bias of either is negligible, but
        // this keeps the mapping uniform by construction.
        ((mix64(base ^ self.fallback_seed) as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = HashFamily::new(42, 8);
        let b = HashFamily::new(42, 8);
        let base = a.base(b"fileset-007");
        for k in 0..8 {
            assert_eq!(a.probe(base, k), b.probe(base, k));
        }
        assert_eq!(a.fallback_index(base, 5), b.fallback_index(base, 5));
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashFamily::new(1, 4);
        let b = HashFamily::new(2, 4);
        let base = a.base(b"x");
        assert_ne!(a.probe(base, 0), b.probe(base, 0));
    }

    #[test]
    fn rounds_probe_distinct_positions() {
        let f = HashFamily::new(7, 16);
        let base = f.base(b"some file set");
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..16 {
            assert!(seen.insert(f.probe(base, k)), "probe collision at {k}");
        }
    }

    #[test]
    fn probes_are_roughly_uniform() {
        // Hash 4096 names with round 0 and check bucket occupancy is sane.
        let f = HashFamily::new(99, 1);
        let mut buckets = [0usize; 16];
        for i in 0..4096u64 {
            let p = f.probe(f.base(i.to_le_bytes()), 0);
            buckets[(p.0 >> 60) as usize] += 1;
        }
        let expect = 4096 / 16;
        for (i, &c) in buckets.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "bucket {i} has {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn fallback_covers_all_servers() {
        let f = HashFamily::new(3, 2);
        let mut hit = [false; 7];
        for i in 0..2000u64 {
            hit[f.fallback_index(f.base(i.to_le_bytes()), 7)] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn fallback_in_range() {
        let f = HashFamily::new(3, 2);
        for i in 0..500u64 {
            assert!(f.fallback_index(f.base(i.to_le_bytes()), 3) < 3);
        }
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn mix64_is_bijective_on_sample() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }
}
