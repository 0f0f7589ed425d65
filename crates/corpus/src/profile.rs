//! Generation profiles: knobs controlling synthetic-data compressibility.

/// Parameters of the synthetic data generator.
///
/// The generator emits a stream that alternates between *literal runs*
/// (fresh bytes drawn from a skewed alphabet) and *copies* (chunks repeated
/// from earlier in the stream). LZ4's ratio on the result is governed by the
/// copy probability and length (more/longer copies → higher ratio) and by
/// the literal alphabet size (smaller → more incidental matches).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Profile {
    /// Probability that the next emission is a copy of earlier content.
    pub copy_prob: f64,
    /// Minimum copy length in bytes.
    pub copy_min: usize,
    /// Maximum copy length in bytes (inclusive).
    pub copy_max: usize,
    /// How far back a copy source may reach, in bytes.
    pub window: usize,
    /// Number of distinct literal byte values (1–256).
    pub alphabet: u16,
    /// Skew exponent for the literal distribution; 1.0 = uniform, larger
    /// values concentrate mass on few symbols (text-like entropy).
    pub skew: f64,
    /// Minimum literal-run length.
    pub lit_min: usize,
    /// Maximum literal-run length (inclusive).
    pub lit_max: usize,
    /// Probability that a pool block is a byte-for-byte copy of an earlier
    /// block instead of fresh stream content (VM-image/backup-style whole
    /// block duplication — the redundancy content-defined dedup keys on;
    /// LZ4 never sees it because blocks compress standalone). Only
    /// [`crate::BlockPool::from_profile`] consumes it.
    pub dup_block_prob: f64,
}

impl Profile {
    /// Validates the parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (probabilities outside `[0,1]`,
    /// empty ranges, zero alphabet).
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.copy_prob), "copy_prob: {}", self.copy_prob);
        assert!(self.copy_min >= 4, "LZ4 matches need >= 4 bytes");
        assert!(self.copy_max >= self.copy_min, "copy range empty");
        assert!(self.window > 0, "window must be positive");
        assert!((1..=256).contains(&self.alphabet), "alphabet: {}", self.alphabet);
        assert!(self.skew >= 1.0, "skew must be >= 1.0");
        assert!(self.lit_min >= 1 && self.lit_max >= self.lit_min, "literal range empty");
        assert!(
            (0.0..=1.0).contains(&self.dup_block_prob),
            "dup_block_prob: {}",
            self.dup_block_prob
        );
    }

    /// A profile producing nearly incompressible data.
    ///
    /// LZ4 (fast level) ratio: ≈ 1.0 (0.996) on a stream, and the same on
    /// the 4 KiB blocks of a [`BlockPool::from_profile`](crate::BlockPool::from_profile)
    /// pool.
    pub fn incompressible() -> Self {
        Profile {
            copy_prob: 0.0,
            copy_min: 4,
            copy_max: 8,
            window: 1 << 16,
            alphabet: 256,
            skew: 1.0,
            lit_min: 64,
            lit_max: 256,
            dup_block_prob: 0.0,
        }
    }

    /// A profile producing English-text-like data.
    ///
    /// LZ4 (fast level) ratio: ≈ 1.5 (1.43–1.48) on a stream of 64 KiB to
    /// 4 MiB, but only ≈ 1.02 (1.01–1.03) on the 4 KiB blocks of a
    /// [`BlockPool::from_profile`](crate::BlockPool::from_profile) pool,
    /// the size the simulator compresses: most copies reach back across a
    /// block boundary, where a standalone block cannot follow them. Its
    /// pools are compressible mainly through whole-block duplicates
    /// (`dup_block_prob`), which only dedup sees.
    pub fn text_like() -> Self {
        Profile {
            copy_prob: 0.42,
            copy_min: 5,
            copy_max: 16,
            window: 1 << 15,
            alphabet: 64,
            skew: 2.0,
            lit_min: 3,
            lit_max: 12,
            dup_block_prob: 0.08,
        }
    }

    /// A profile producing highly redundant database/markup-like data.
    ///
    /// LZ4 (fast level) ratio: ≈ 5 on a stream (4.5 at 64 KiB, 4.9 at
    /// 256 KiB, 6.0 at 4 MiB), and ≈ 2.3 (2.2–2.4) on the 4 KiB blocks of
    /// a [`BlockPool::from_profile`](crate::BlockPool::from_profile) pool.
    pub fn redundant() -> Self {
        Profile {
            copy_prob: 0.9,
            copy_min: 16,
            copy_max: 128,
            window: 1 << 14,
            alphabet: 48,
            skew: 2.0,
            lit_min: 2,
            lit_max: 8,
            dup_block_prob: 0.35,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Profile::incompressible().validate();
        Profile::text_like().validate();
        Profile::redundant().validate();
    }

    /// Each named profile's ratio on 4 KiB pool blocks, the size the
    /// simulator compresses, lies in the range its doc states.
    #[test]
    fn block_ratio_matches_documented_range() {
        for (name, profile, range) in [
            ("incompressible", Profile::incompressible(), 0.99..1.01),
            ("text_like", Profile::text_like(), 1.01..1.03),
            ("redundant", Profile::redundant(), 2.2..2.4),
        ] {
            let r = crate::BlockPool::from_profile(4096, 256, 9, &profile).mean_lz4_ratio();
            assert!(range.contains(&r), "{name}: 4 KiB block ratio {r:.3} outside {range:?}");
        }
    }

    #[test]
    #[should_panic(expected = "copy_prob")]
    fn bad_probability_panics() {
        let mut p = Profile::text_like();
        p.copy_prob = 1.5;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "alphabet")]
    fn zero_alphabet_panics() {
        let mut p = Profile::text_like();
        p.alphabet = 0;
        p.validate();
    }
}
