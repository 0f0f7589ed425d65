//! LZ4 block-format compressors.
//!
//! Two match finders are provided behind [`Level`]:
//!
//! * [`Level::Fast`] — single-probe hash table, greedy parse. This mirrors
//!   the reference `LZ4_compress_default` strategy and is what the paper's
//!   software baseline (`LZ4 library`) and hardware engines implement.
//! * [`Level::High`] — hash-chain match finder with a configurable search
//!   depth, trading compression time for ratio, standing in for `LZ4-HC`.
//!   The paper notes the middle tier may "compress with more computing time
//!   (thus a better compression ratio)" for latency-tolerant traffic; this
//!   level is that knob.
//!
//! Both produce standard LZ4 *block* streams decodable by
//! [`decompress`](crate::decompress) (and by the reference decoder: token /
//! literals / little-endian 16-bit offset / match-length encoding, final
//! sequence is literals-only, last 5 bytes are literals, matches start at
//! least 12 bytes before the end).

use crate::error::CompressError;

/// Minimum match length representable by the format.
const MIN_MATCH: usize = 4;
/// A match may not start closer than this to the end of the block.
const MF_LIMIT: usize = 12;
/// The final bytes of every block are always literals.
const LAST_LITERALS: usize = 5;
/// Maximum match offset (16-bit field).
const MAX_OFFSET: usize = 65_535;

const HASH_LOG: u32 = 16;
const CHAIN_HASH_LOG: u32 = 15;

/// Compression effort level.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[derive(Default)]
pub enum Level {
    /// Greedy single-probe parse (reference `LZ4` speed class).
    #[default]
    Fast,
    /// Hash-chain search visiting up to `depth` previous candidates per
    /// position (reference `LZ4-HC` class). `High(1)` ≈ `Fast` with chains;
    /// `High(64)` approaches optimal for 4 KiB blocks.
    High(u8),
}


/// Worst-case compressed size for `n` input bytes.
///
/// Matches the reference `LZ4_compressBound`: incompressible data expands by
/// 1 byte per 255 plus a small constant.
///
/// ```
/// assert_eq!(lz4kit::compress_bound(0), 16);
/// assert!(lz4kit::compress_bound(4096) >= 4096 + 16);
/// ```
pub const fn compress_bound(n: usize) -> usize {
    n + n / 255 + 16
}

#[inline]
fn read_u32(src: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]])
}

#[inline]
fn hash4(v: u32, bits: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - bits)) as usize
}

/// Number of matching bytes between `src[a..]` and `src[b..]`, stopping at
/// `limit` (exclusive, measured on `b`).
#[inline]
fn common_len(src: &[u8], mut a: usize, mut b: usize, limit: usize) -> usize {
    let start = b;
    while b < limit && src[a] == src[b] {
        a += 1;
        b += 1;
    }
    b - start
}

struct Writer<'a> {
    dst: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    fn new(dst: &'a mut [u8]) -> Self {
        Writer { dst, pos: 0 }
    }

    #[inline]
    fn push(&mut self, b: u8) -> Result<(), CompressError> {
        if self.pos >= self.dst.len() {
            return Err(CompressError::OutputTooSmall {
                capacity: self.dst.len(),
            });
        }
        self.dst[self.pos] = b;
        self.pos += 1;
        Ok(())
    }

    #[inline]
    fn extend(&mut self, bytes: &[u8]) -> Result<(), CompressError> {
        if self.pos + bytes.len() > self.dst.len() {
            return Err(CompressError::OutputTooSmall {
                capacity: self.dst.len(),
            });
        }
        self.dst[self.pos..self.pos + bytes.len()].copy_from_slice(bytes);
        self.pos += bytes.len();
        Ok(())
    }

    /// Emits one sequence: token, literal length extension, literals, and —
    /// unless this is the final literals-only sequence — offset and match
    /// length extension.
    fn sequence(
        &mut self,
        literals: &[u8],
        m: Option<(usize, usize)>, // (offset, match_len)
    ) -> Result<(), CompressError> {
        let lit_len = literals.len();
        let ml_code = match m {
            Some((_, ml)) => {
                debug_assert!(ml >= MIN_MATCH);
                ml - MIN_MATCH
            }
            None => 0,
        };
        let token = (if lit_len >= 15 { 15 } else { lit_len as u8 }) << 4
            | (if ml_code >= 15 { 15 } else { ml_code as u8 });
        self.push(token)?;
        if lit_len >= 15 {
            let mut rest = lit_len - 15;
            while rest >= 255 {
                self.push(255)?;
                rest -= 255;
            }
            self.push(rest as u8)?;
        }
        self.extend(literals)?;
        if let Some((offset, _)) = m {
            debug_assert!((1..=MAX_OFFSET).contains(&offset));
            self.push((offset & 0xFF) as u8)?;
            self.push((offset >> 8) as u8)?;
            if ml_code >= 15 {
                let mut rest = ml_code - 15;
                while rest >= 255 {
                    self.push(255)?;
                    rest -= 255;
                }
                self.push(rest as u8)?;
            }
        }
        Ok(())
    }
}

/// Compresses `src` into `dst`, returning the compressed length.
///
/// # Errors
///
/// Returns [`CompressError::OutputTooSmall`] if `dst` is shorter than the
/// stream requires; a `dst` of [`compress_bound`]`(src.len())` bytes never
/// fails.
///
/// # Examples
///
/// ```
/// let src = b"hello hello hello hello hello!";
/// let mut dst = vec![0u8; lz4kit::compress_bound(src.len())];
/// let n = lz4kit::compress_into(src, &mut dst, lz4kit::Level::Fast)?;
/// assert!(n < src.len());
/// # Ok::<(), lz4kit::CompressError>(())
/// ```
pub fn compress_into(src: &[u8], dst: &mut [u8], level: Level) -> Result<usize, CompressError> {
    let mut w = Writer::new(dst);
    match level {
        Level::Fast => Compressor::new().compress_from(src, 0, &mut w)?,
        Level::High(depth) => compress_hc(src, depth.max(1) as usize, &mut w)?,
    }
    Ok(w.pos)
}

/// Compresses `src` into a fresh buffer at the given level.
///
/// # Examples
///
/// ```
/// let data = vec![7u8; 4096];
/// let packed = lz4kit::compress_with(&data, lz4kit::Level::Fast);
/// assert!(packed.len() < 64);
/// let back = lz4kit::decompress_exact(&packed, 4096)?;
/// assert_eq!(back, data);
/// # Ok::<(), lz4kit::DecompressError>(())
/// ```
pub fn compress_with(src: &[u8], level: Level) -> Vec<u8> {
    let mut dst = vec![0u8; compress_bound(src.len())];
    let n = compress_into(src, &mut dst, level)
        .expect("compress_bound-sized destination cannot overflow");
    dst.truncate(n);
    dst
}

/// Compresses at the default [`Level::Fast`].
///
/// # Examples
///
/// ```
/// let packed = lz4kit::compress(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
/// assert!(packed.len() < 32);
/// ```
pub fn compress(src: &[u8]) -> Vec<u8> {
    compress_with(src, Level::Fast)
}

/// Reusable state of the [`Level::Fast`] compressor: its hash table, kept
/// across calls so a small input does not pay to allocate and zero a
/// 2^16-entry table.
///
/// Each entry holds a *stamp*, `base + position + 1`. A stamp at or below
/// `base` belongs to an earlier call and reads as empty, so a call starts
/// from a logically empty table without touching it; after the call,
/// `base` advances past every stamp the call wrote (by `len + 1`). The
/// table is zeroed only when `base` would overflow `u32`. The output of
/// any sequence of calls is byte-identical to compressing each input with
/// a fresh table, as the free functions do.
///
/// # Examples
///
/// ```
/// let mut lz4 = lz4kit::Compressor::new();
/// let a = b"block storage block storage block storage".repeat(8);
/// let b = b"another block, another table".repeat(8);
/// assert_eq!(lz4.compress(&a), lz4kit::compress(&a));
/// assert_eq!(lz4.compress(&b), lz4kit::compress(&b));
/// assert_eq!(lz4.compress_with_dict(&a, &b), lz4kit::compress_with_dict(&a, &b));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Compressor {
    /// Allocated on the first call that needs it.
    table: Vec<u32>,
    base: u32,
}

impl Compressor {
    /// An empty compressor; the table is allocated on first use.
    pub const fn new() -> Self {
        Compressor {
            table: Vec::new(),
            base: 0,
        }
    }

    /// A compressor whose stale stamps sit just below the `u32` limit, so
    /// the next calls cross the wraparound.
    #[cfg(test)]
    fn near_wraparound(base: u32) -> Self {
        Compressor {
            table: vec![base; 1 << HASH_LOG],
            base,
        }
    }

    /// Compresses `src` at [`Level::Fast`]; equal to [`compress`].
    pub fn compress(&mut self, src: &[u8]) -> Vec<u8> {
        self.compress_from_vec(src, 0)
    }

    /// Compresses `src` with `dict` as preceding history; equal to
    /// [`compress_with_dict`].
    pub fn compress_with_dict(&mut self, dict: &[u8], src: &[u8]) -> Vec<u8> {
        // Only the last MAX_OFFSET bytes of history are reachable.
        let dict = &dict[dict.len().saturating_sub(MAX_OFFSET)..];
        let mut buf = Vec::with_capacity(dict.len() + src.len());
        buf.extend_from_slice(dict);
        buf.extend_from_slice(src);
        self.compress_from_vec(&buf, dict.len())
    }

    fn compress_from_vec(&mut self, src: &[u8], start: usize) -> Vec<u8> {
        let mut dst = vec![0u8; compress_bound(src.len() - start)];
        let mut w = Writer::new(&mut dst);
        self.compress_from(src, start, &mut w)
            .expect("compress_bound-sized destination cannot overflow");
        let n = w.pos;
        dst.truncate(n);
        dst
    }

    /// Greedy compressor over `src[start..]`, with `src[..start]` usable
    /// as a match dictionary (the streaming/dictionary mode).
    fn compress_from(
        &mut self,
        src: &[u8],
        start: usize,
        w: &mut Writer<'_>,
    ) -> Result<(), CompressError> {
        if src.len() < start + MF_LIMIT + 1 {
            return w.sequence(&src[start..], None);
        }
        // Every stamp this call writes is at most `base + len`.
        let next = self.base as u64 + src.len() as u64 + 1;
        if self.table.is_empty() {
            self.table = vec![0; 1 << HASH_LOG];
        } else if next > u32::MAX as u64 {
            self.table.fill(0);
            self.base = 0;
        }
        let base = self.base;
        self.base = base.wrapping_add(src.len() as u32).wrapping_add(1);
        let table = &mut self.table[..];
        // Position + 1 of the entry, or 0 if it is older than this call.
        let lookup = |stamp: u32| {
            if stamp > base {
                (stamp - base) as usize
            } else {
                0
            }
        };
        let stamp = |pos: usize| base.wrapping_add(pos as u32).wrapping_add(1);

        let match_start_limit = src.len() - MF_LIMIT;
        let match_end_limit = src.len() - LAST_LITERALS;
        // Index the dictionary so matches can reach back into it.
        if start >= MIN_MATCH {
            let from = start.saturating_sub(MAX_OFFSET);
            for pos in from..=(start - MIN_MATCH).min(match_start_limit.saturating_sub(1)) {
                table[hash4(read_u32(src, pos), HASH_LOG)] = stamp(pos);
            }
        }
        let mut anchor = start;
        let mut i = start;
        // Acceleration: skip faster through incompressible regions, as the
        // reference implementation does.
        let mut misses = 0usize;

        while i < match_start_limit {
            let h = hash4(read_u32(src, i), HASH_LOG);
            let cand = lookup(table[h]);
            table[h] = stamp(i);
            let found = cand != 0
                && i + 1 - cand <= MAX_OFFSET
                && read_u32(src, cand - 1) == read_u32(src, i);
            if !found {
                misses += 1;
                i += 1 + (misses >> 6);
                continue;
            }
            misses = 0;
            let mut j = cand - 1;
            let mut mlen =
                MIN_MATCH + common_len(src, j + MIN_MATCH, i + MIN_MATCH, match_end_limit);
            // Extend backwards over pending literals.
            while i > anchor && j > 0 && src[i - 1] == src[j - 1] {
                i -= 1;
                j -= 1;
                mlen += 1;
            }
            w.sequence(&src[anchor..i], Some((i - j, mlen)))?;
            i += mlen;
            anchor = i;
            if i < match_start_limit {
                // Index the position two back to improve the next search,
                // mirroring the reference's post-match insertions.
                let back = i - 2;
                table[hash4(read_u32(src, back), HASH_LOG)] = stamp(back);
            }
        }
        w.sequence(&src[anchor..], None)
    }
}

/// Hash-chain compressor with bounded search depth (reference-`LZ4-HC`
/// class).
fn compress_hc(src: &[u8], depth: usize, w: &mut Writer<'_>) -> Result<(), CompressError> {
    if src.len() < MF_LIMIT + 1 {
        return w.sequence(src, None);
    }
    let match_start_limit = src.len() - MF_LIMIT;
    let match_end_limit = src.len() - LAST_LITERALS;
    let mut head = vec![0u32; 1 << CHAIN_HASH_LOG]; // position + 1
    let mut prev = vec![0u32; src.len()]; // previous same-hash position + 1
    let mut anchor = 0usize;
    let mut i = 0usize;

    let insert = |head: &mut [u32], prev: &mut [u32], pos: usize, src: &[u8]| {
        let h = hash4(read_u32(src, pos), CHAIN_HASH_LOG);
        prev[pos] = head[h];
        head[h] = (pos + 1) as u32;
    };

    let best_match = |head: &[u32], prev: &[u32], pos: usize| -> Option<(usize, usize)> {
        let h = hash4(read_u32(src, pos), CHAIN_HASH_LOG);
        let mut cand = head[h] as usize;
        let mut best: Option<(usize, usize)> = None;
        let mut probes = depth;
        while cand != 0 && probes > 0 {
            let c = cand - 1;
            if pos - c > MAX_OFFSET {
                break;
            }
            if read_u32(src, c) == read_u32(src, pos) {
                let len =
                    MIN_MATCH + common_len(src, c + MIN_MATCH, pos + MIN_MATCH, match_end_limit);
                if best.is_none_or(|(_, bl)| len > bl) {
                    best = Some((c, len));
                }
            }
            cand = prev[c] as usize;
            probes -= 1;
        }
        best
    };

    while i < match_start_limit {
        let found = best_match(&head, &prev, i);
        insert(&mut head, &mut prev, i, src);
        let Some((mut j, mut mlen)) = found else {
            i += 1;
            continue;
        };
        let mut start = i;
        while start > anchor && j > 0 && src[start - 1] == src[j - 1] {
            start -= 1;
            j -= 1;
            mlen += 1;
        }
        w.sequence(&src[anchor..start], Some((start - j, mlen)))?;
        // Index every covered position so later matches can reach back here.
        let stop = (start + mlen).min(match_start_limit);
        let mut k = i + 1;
        while k < stop {
            insert(&mut head, &mut prev, k, src);
            k += 1;
        }
        i = start + mlen;
        anchor = i;
    }
    w.sequence(&src[anchor..], None)
}

/// Compresses `src` with `dict` as preceding history: matches may reference
/// the final 64 KiB of `dict`, exactly like the reference library's
/// streaming mode. The output decodes with
/// [`decompress_with_dict`](crate::decompress_with_dict) given the same
/// dictionary.
///
/// # Examples
///
/// ```
/// let dict = b"the quick brown fox jumps over the lazy dog ".repeat(10);
/// let block = b"the quick brown fox naps";
/// let with = lz4kit::compress_with_dict(&dict, block);
/// let without = lz4kit::compress(block);
/// assert!(with.len() < without.len(), "history pays off");
/// let back = lz4kit::decompress_with_dict(&dict, &with, block.len())?;
/// assert_eq!(back, block);
/// # Ok::<(), lz4kit::DecompressError>(())
/// ```
pub fn compress_with_dict(dict: &[u8], src: &[u8]) -> Vec<u8> {
    Compressor::new().compress_with_dict(dict, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompress::decompress_exact;
    use testkit::gen::{self, Gen};

    fn roundtrip(data: &[u8], level: Level) -> usize {
        let packed = compress_with(data, level);
        let back = decompress_exact(&packed, data.len()).expect("decodes");
        assert_eq!(back, data, "roundtrip mismatch at level {level:?}");
        packed.len()
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(b"", Level::Fast), 1);
        assert_eq!(roundtrip(b"", Level::High(8)), 1);
    }

    #[test]
    fn tiny_inputs_are_literal_only() {
        for n in 1..=13 {
            let data: Vec<u8> = (0..n as u8).collect();
            roundtrip(&data, Level::Fast);
            roundtrip(&data, Level::High(8));
        }
    }

    #[test]
    fn highly_repetitive_compresses_hard() {
        let data = vec![0xAB; 4096];
        let n = roundtrip(&data, Level::Fast);
        assert!(n < 40, "4 KiB of one byte should shrink to <40 B, got {n}");
    }

    #[test]
    fn random_data_expands_within_bound() {
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let n = roundtrip(&data, Level::Fast);
        assert!(n <= compress_bound(data.len()));
        assert!(n >= data.len(), "random data should not compress");
    }

    #[test]
    fn text_like_data_ratio_reasonable() {
        let sentence = b"the quick brown fox jumps over the lazy dog. ";
        let data: Vec<u8> = sentence.iter().cycle().take(4096).copied().collect();
        let n = roundtrip(&data, Level::Fast);
        assert!(
            (n as f64) < 0.2 * data.len() as f64,
            "cyclic text should compress >5x, got {n}"
        );
    }

    #[test]
    fn hc_never_worse_than_fast_on_structured_data() {
        let mut data = Vec::new();
        for i in 0u32..512 {
            data.extend_from_slice(&(i / 7).to_le_bytes());
            data.extend_from_slice(b"row:");
        }
        let fast = roundtrip(&data, Level::Fast);
        let high = roundtrip(&data, Level::High(64));
        assert!(high <= fast, "HC {high} should be <= Fast {fast}");
    }

    #[test]
    fn long_literal_and_match_extensions() {
        // >15 literals followed by a >19-byte match exercises both length
        // extension paths.
        let mut data: Vec<u8> = (0..100).map(|i| (i * 37) as u8).collect();
        let window = data.clone();
        data.extend_from_slice(&window); // long match at offset 100
        data.extend_from_slice(&[9; 40]);
        roundtrip(&data, Level::Fast);
        roundtrip(&data, Level::High(16));
    }

    #[test]
    fn output_too_small_is_reported() {
        let data = vec![1u8; 1000];
        let mut dst = vec![0u8; 4];
        let err = compress_into(&data, &mut dst, Level::Fast).unwrap_err();
        assert_eq!(err, CompressError::OutputTooSmall { capacity: 4 });
    }

    #[test]
    fn bound_is_sufficient_for_adversarial_sizes() {
        for n in [0, 1, 14, 15, 16, 255, 256, 4095, 4096, 70_000] {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let packed = compress_with(&data, Level::Fast);
            assert!(packed.len() <= compress_bound(n), "n={n}");
            roundtrip(&data, Level::Fast);
        }
    }

    #[test]
    fn offsets_near_u16_max_work() {
        // A match whose source sits ~65 KiB back.
        let mut data = vec![0u8; 70_000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 256) as u8; // periodic ⇒ matches at many offsets
        }
        roundtrip(&data, Level::Fast);
        roundtrip(&data, Level::High(4));
    }

    /// `len` bytes over the first `alphabet` byte values with runs and
    /// repeats, so small alphabets compress and 256 does not.
    fn sample(seed: u64, len: usize, alphabet: u16) -> Vec<u8> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let run = (x >> 60) as usize + 1;
            let back = (x >> 32) as usize % 4096 + 1;
            if x.is_multiple_of(3) && back <= out.len() {
                let from = out.len() - back;
                for k in 0..run.min(len - out.len()) {
                    out.push(out[from + k]);
                }
            } else {
                out.push((x % alphabet as u64) as u8);
            }
        }
        out
    }

    /// One reuse step: a plain or a dictionary-mode call on sampled data.
    #[derive(Debug)]
    struct Call {
        len: usize,
        dict: Option<usize>,
        alphabet: u16,
        seed: u64,
    }

    fn call() -> impl Gen<Value = Call> {
        (
            testkit::one_of![
                gen::usizes(0..64),
                gen::usizes(0..8192),
                gen::usizes(0..=128 << 10)
            ],
            gen::bools(),
            gen::usizes(0..=80_000),
            gen::choice(vec![2u16, 4, 16, 256]),
            gen::u64s(..),
        )
            .map(|(len, dict, dict_len, alphabet, seed)| Call {
                len,
                dict: dict.then_some(dict_len),
                alphabet,
                seed,
            })
    }

    testkit::prop! {
        cases = 64;

        /// A reused table compresses every call of any sequence exactly as
        /// a fresh table does, also across the `u32` stamp wraparound.
        fn reused_table_matches_fresh_tables(
            calls in gen::vecs(call(), 1..8),
            headroom in testkit::one_of![gen::just(None), gen::u32s(0..=400_000).map(Some)],
        ) {
            let mut lz4 = match headroom {
                Some(h) => Compressor::near_wraparound(u32::MAX - h),
                None => Compressor::new(),
            };
            for c in calls {
                let src = sample(c.seed, c.len, c.alphabet);
                match c.dict {
                    None => assert_eq!(lz4.compress(&src), compress(&src), "{c:?}"),
                    Some(n) => {
                        let dict = sample(!c.seed, n, c.alphabet);
                        assert_eq!(
                            lz4.compress_with_dict(&dict, &src),
                            compress_with_dict(&dict, &src),
                            "{c:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reuse_crosses_the_wraparound_and_stays_exact() {
        let block = sample(3, 4096, 16);
        let mut lz4 = Compressor::near_wraparound(u32::MAX - 5000);
        for _ in 0..3 {
            assert_eq!(lz4.compress(&block), compress(&block));
        }
        assert!(
            lz4.base < 3 * 4097,
            "the second call wrapped: base {}",
            lz4.base
        );
    }
}
