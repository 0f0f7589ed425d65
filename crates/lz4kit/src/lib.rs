//! # lz4kit — a from-scratch LZ4 block codec
//!
//! The SmartDS paper's middle tier exists to run **LZ4 compression** on
//! storage write payloads (and decompression on reads). This crate is a
//! clean-room implementation of the
//! [LZ4 block format](https://github.com/lz4/lz4/blob/dev/doc/lz4_Block_format.md)
//! in 100 % safe Rust:
//!
//! * [`compress`] / [`compress_with`] / [`compress_into`] — greedy
//!   ([`Level::Fast`]) and hash-chain ([`Level::High`]) match finders.
//! * [`decompress`] / [`decompress_exact`] / [`decompress_append`] — fully
//!   bounds-checked decoding with typed errors.
//! * [`Compressor`] — the [`Level::Fast`] compressor with its hash table
//!   kept across calls, for callers that compress many small blocks.
//! * [`compress_bound`] — exact worst-case output size.
//! * [`frame`] — the self-describing `.lz4` frame container with xxHash32
//!   integrity checking ([`xxh32`] is also implemented here, from scratch).
//! * [`ratio`] — convenience used to calibrate the synthetic corpus.
//!
//! The simulated hardware engines and the software baseline in the
//! reproduction both call into this codec, so every byte stored by the
//! simulated storage servers is genuinely compressed and genuinely
//! round-trips.
//!
//! # Example
//!
//! ```
//! use lz4kit::{compress_with, decompress_exact, Level};
//!
//! let block = b"disaggregated block storage ".repeat(146); // one 4 KiB-ish block
//! let packed = compress_with(&block, Level::Fast);
//! assert!(packed.len() * 2 < block.len(), "text compresses at least 2x");
//! let unpacked = decompress_exact(&packed, block.len())?;
//! assert_eq!(unpacked, block);
//! # Ok::<(), lz4kit::DecompressError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compress;
mod decompress;
mod error;
pub mod frame;
mod xxhash;

pub use compress::{
    compress, compress_bound, compress_into, compress_with, compress_with_dict, Compressor, Level,
};
pub use decompress::{
    decompress, decompress_append, decompress_append_continuing, decompress_exact,
    decompress_with_dict,
};
pub use error::{CompressError, DecompressError};
pub use xxhash::xxh32;

/// Compression ratio (`original / compressed`) of `src` at `level`.
///
/// Returns 1.0 for empty input. Used when calibrating the synthetic Silesia
/// corpus against the per-file ratios of the real one.
///
/// # Examples
///
/// ```
/// let r = lz4kit::ratio(&vec![0u8; 4096], lz4kit::Level::Fast);
/// assert!(r > 100.0);
/// ```
pub fn ratio(src: &[u8], level: Level) -> f64 {
    if src.is_empty() {
        return 1.0;
    }
    let packed = compress_with(src, level);
    src.len() as f64 / packed.len() as f64
}
