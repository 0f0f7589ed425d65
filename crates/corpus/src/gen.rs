//! The synthetic data generator.

use crate::profile::Profile;
use simkit::Rng;

/// Generates `len` bytes under `profile`, deterministically from `seed`.
///
/// # Examples
///
/// ```
/// use corpus::{generate, Profile};
///
/// let a = generate(&Profile::text_like(), 8192, 7);
/// let b = generate(&Profile::text_like(), 8192, 7);
/// assert_eq!(a, b, "same seed, same bytes");
/// assert_eq!(a.len(), 8192);
/// ```
///
/// # Panics
///
/// Panics if the profile fails [`Profile::validate`].
pub fn generate(profile: &Profile, len: usize, seed: u64) -> Vec<u8> {
    profile.validate();
    let literals = Literals::new(profile.alphabet, profile.skew);
    emit(profile, len, seed, |rng| literals.draw(rng))
}

/// The copy/literal stream of [`generate`], drawing each literal byte
/// with `literal`.
#[inline]
fn emit(profile: &Profile, len: usize, seed: u64, literal: impl Fn(&mut Rng) -> u8) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let do_copy = !out.is_empty() && rng.gen_bool(profile.copy_prob);
        if do_copy {
            let max_len = (profile.copy_max).min(len - out.len()).max(1);
            let clen = if max_len <= profile.copy_min {
                max_len
            } else {
                profile.copy_min + rng.gen_range((max_len - profile.copy_min + 1) as u64) as usize
            };
            let reach = out.len().min(profile.window);
            // Source must fit before the write position (no overlap, so a
            // plain extend_from_within suffices).
            if reach >= clen {
                let back = clen + rng.gen_range((reach - clen + 1) as u64) as usize;
                let from = out.len() - back;
                out.extend_from_within(from..from + clen);
                continue;
            }
        }
        let span = profile.lit_max - profile.lit_min + 1;
        let run = (profile.lit_min + rng.gen_range(span as u64) as usize).min(len - out.len());
        out.extend((0..run).map(|_| literal(&mut rng)));
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// Log2 of the bucket count of the literal sampler's table.
const BUCKET_BITS: u32 = 12;
/// A draw's bucket is the top [`BUCKET_BITS`] bits of its `next_u64`.
const BUCKET_SHIFT: u32 = 64 - BUCKET_BITS;
/// `gen_f64` keeps the top 53 bits of a `next_u64` as `k` and returns
/// `k · 2⁻⁵³`; a bucket spans this many consecutive `k`.
const BUCKET_SPAN: u64 = 1 << (53 - BUCKET_BITS);
/// Each bucket is widened by this many steps of `k` on both sides before
/// its purity is judged, so a libm `pow` that is monotone only to within a
/// few ulps cannot hide a symbol change inside the bucket.
const GUARD: u64 = 1 << 20;
/// Table entry of a bucket whose draws map to more than one symbol.
const MIXED: u16 = 0x100;

/// The literal-byte sampler: `skewed_byte` with the `powf` hoisted out of
/// the per-byte path.
///
/// A table over the top bits of the draw holds, per bucket, the byte every
/// draw in it produces, or [`MIXED`] when the bucket straddles a symbol
/// boundary; a mixed bucket evaluates the `powf` expression. A draw still
/// consumes exactly one `next_u64`, so the stream is unchanged.
///
/// Exactness: the symbol is a non-decreasing function of `k` in exact
/// arithmetic, and `powf` and the multiply each err by at most about an
/// ulp of the result. Widening a bucket by [`GUARD`] steps moves the exact
/// value by a relative `skew · GUARD / k ≥ 2⁻³³` (as `k < 2⁵³`), far more
/// than that error. So if the widened ends evaluate to one symbol, every
/// draw inside evaluates to it too. Where a widened end falls outside
/// `[0, 2⁵³]` it is clamped: `k = 0` gives symbol 0, the least, and
/// `k = 2⁵³` (`x = 1`) gives `alphabet − 1`, the greatest.
struct Literals {
    table: Box<[u16]>,
    alphabet: u16,
    skew: f64,
}

impl Literals {
    fn new(alphabet: u16, skew: f64) -> Self {
        let mut lit = Literals {
            table: vec![MIXED; 1 << BUCKET_BITS].into_boxed_slice(),
            alphabet,
            skew,
        };
        let buckets = lit.table.len();
        let ends = (lit.widened_lo(0), lit.widened_hi(buckets));
        lit.fill(0, buckets, ends);
        lit
    }

    /// Symbol byte of draw `k`, clamped to `[0, 2⁵³]`.
    fn byte_at(&self, k: u64) -> u16 {
        symbol_byte(unit(k.min(1 << 53)), self.alphabet, self.skew) as u16
    }

    /// Byte at the widened start of bucket `first`.
    fn widened_lo(&self, first: usize) -> u16 {
        self.byte_at((first as u64 * BUCKET_SPAN).saturating_sub(GUARD))
    }

    /// Byte at the widened end of the bucket before `end`.
    fn widened_hi(&self, end: usize) -> u16 {
        self.byte_at(end as u64 * BUCKET_SPAN - 1 + GUARD)
    }

    /// Fills buckets `first..first + count` whose widened ends evaluate
    /// to `ends`, halving the range until each half is pure or one bucket.
    fn fill(&mut self, first: usize, count: usize, ends: (u16, u16)) {
        if ends.0 == ends.1 {
            self.table[first..first + count].fill(ends.0);
        } else if count > 1 {
            let mid = first + count / 2;
            let inner = (self.widened_hi(mid), self.widened_lo(mid));
            self.fill(first, count / 2, (ends.0, inner.0));
            self.fill(mid, count / 2, (inner.1, ends.1));
        }
    }

    #[inline]
    fn draw(&self, rng: &mut Rng) -> u8 {
        self.byte(rng.next_u64())
    }

    /// The byte of raw draw `r`, as `skewed_byte` maps it.
    #[inline]
    fn byte(&self, r: u64) -> u8 {
        match self.table[(r >> BUCKET_SHIFT) as usize] {
            MIXED => symbol_byte(unit(r >> 11), self.alphabet, self.skew),
            byte => byte as u8,
        }
    }
}

/// `k · 2⁻⁵³`: what `gen_f64` returns for a draw whose top 53 bits are `k`.
#[inline]
fn unit(k: u64) -> f64 {
    k as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws a byte from `[0, alphabet)` with power-law skew: the reference
/// the table sampler in [`Literals`] must match draw for draw.
#[cfg(test)]
fn skewed_byte(rng: &mut Rng, alphabet: u16, skew: f64) -> u8 {
    symbol_byte(rng.gen_f64(), alphabet, skew)
}

/// The symbol of uniform draw `x`, spread over the printable range so
/// text-like profiles look text-like in hexdumps. Distinct symbols map to
/// distinct bytes.
#[inline]
fn symbol_byte(x: f64, alphabet: u16, skew: f64) -> u8 {
    let u = x.powf(skew);
    let sym = (u * alphabet as f64) as u16;
    let sym = sym.min(alphabet - 1);
    if alphabet <= 96 {
        // Map into printable ASCII starting at space.
        (0x20 + sym as u8) & 0x7F
    } else {
        (sym & 0xFF) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lz4kit::{ratio, Level};
    use testkit::gen::{self, Gen};

    /// The generator with one `powf` per literal byte: the reference the
    /// table sampler must match.
    fn reference(profile: &Profile, len: usize, seed: u64) -> Vec<u8> {
        emit(profile, len, seed, |rng| {
            skewed_byte(rng, profile.alphabet, profile.skew)
        })
    }

    /// Skews that `Profile::validate` accepts: integers, fractions just
    /// above 1, and steep ones.
    fn skews() -> impl Gen<Value = f64> {
        testkit::one_of![
            gen::u8s(1..=8).map(f64::from),
            gen::f64s(1.0..1.001),
            gen::f64s(1.0..8.0),
            gen::f64s(8.0..400.0)
        ]
    }

    /// An alphabet and a skew that puts one symbol threshold within
    /// [`GUARD`] steps of a bucket edge, where only the guard band tells
    /// a pure bucket from a mixed one.
    fn threshold_near_edge() -> impl Gen<Value = (u16, f64)> {
        (
            gen::u16s(2..=256),
            gen::u16s(1..=255),
            gen::u64s(0..1 << BUCKET_BITS),
            gen::u64s(0..=2 * GUARD),
        )
            .map(|(alphabet, s, j, offset)| {
                let share = s.min(alphabet - 1) as f64 / alphabet as f64;
                // `x^skew = share` needs `x ≥ share` for a skew of at least 1.
                let first = (share * (1u64 << BUCKET_BITS) as f64).ceil() as u64;
                let j = j.max(first).min((1 << BUCKET_BITS) - 1);
                let k = j * BUCKET_SPAN + offset - GUARD;
                (alphabet, (share.ln() / unit(k).ln()).max(1.0))
            })
    }

    testkit::prop! {
        cases = 64;

        /// `generate` matches the reference byte for byte.
        fn table_sampler_matches_powf_reference(
            alphabet in gen::u16s(1..=256),
            skew in skews(),
            seed in gen::u64s(..),
            len in gen::usizes(0..=24_000),
            copy_prob in gen::f64s(0.0..1.0),
        ) {
            let mut p = Profile::text_like();
            (p.alphabet, p.skew, p.copy_prob) = (alphabet, skew, copy_prob);
            assert_eq!(generate(&p, len, seed), reference(&p, len, seed));
        }

        /// Draws next to every bucket edge and every symbol threshold —
        /// where a wrong purity call would show — map as `skewed_byte`
        /// maps them.
        fn table_sampler_is_exact_at_edges_and_thresholds(
            (alphabet, skew) in testkit::one_of![
                (gen::u16s(1..=256), skews()),
                threshold_near_edge()
            ],
        ) {
            let lit = Literals::new(alphabet, skew);
            let edges = (0..1u64 << BUCKET_BITS).map(|j| j * BUCKET_SPAN);
            let thresholds = (1..alphabet).map(|s| {
                let x = (s as f64 / alphabet as f64).powf(1.0 / skew);
                (x * (1u64 << 53) as f64) as u64
            });
            for k in edges.chain(thresholds) {
                for d in [0, 1, 2, GUARD - 1, GUARD, GUARD + 1] {
                    for k in [k.saturating_sub(d), (k + d).min((1 << 53) - 1)] {
                        let r = k << 11 | 0x5A5;
                        assert_eq!(lit.byte(r), symbol_byte(unit(k), alphabet, skew), "k = {k:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn exact_length_produced() {
        for len in [0, 1, 13, 4096, 100_000] {
            assert_eq!(generate(&Profile::text_like(), len, 1).len(), len);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let p = Profile::redundant();
        assert_eq!(generate(&p, 50_000, 42), generate(&p, 50_000, 42));
        assert_ne!(generate(&p, 50_000, 42), generate(&p, 50_000, 43));
    }

    #[test]
    fn incompressible_profile_ratio_near_one() {
        let data = generate(&Profile::incompressible(), 1 << 18, 9);
        let r = ratio(&data, Level::Fast);
        assert!(r < 1.05, "incompressible ratio should be ~1, got {r:.3}");
    }

    #[test]
    fn redundant_profile_ratio_high() {
        let data = generate(&Profile::redundant(), 1 << 18, 9);
        let r = ratio(&data, Level::Fast);
        assert!(r > 4.0, "redundant ratio should exceed 4, got {r:.3}");
    }

    #[test]
    fn text_profile_ratio_midrange() {
        let data = generate(&Profile::text_like(), 1 << 18, 9);
        let r = ratio(&data, Level::Fast);
        assert!((1.4..3.0).contains(&r), "text ratio out of range: {r:.3}");
    }
}
