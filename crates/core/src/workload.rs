//! Workload generation: Silesia-mix payloads and request parameters.
//!
//! The generator owns a [`BlockPool`] of corpus blocks and draws which
//! block each request writes, and where. The cluster keeps each block's
//! stored version (its LZ4 stream, or the sealed container when data
//! services are on) once per run, so the simulation compresses every
//! *distinct* block exactly once while the timing model charges each
//! request its full compression time. Payload compressibility varies
//! block to block exactly as the corpus mix dictates, which is what
//! spreads the latency tails.

use blockstore::VdLayout;
use corpus::BlockPool;
use simkit::Rng;

/// One write request's parameters.
#[derive(Clone, Debug)]
pub struct WriteReq {
    /// Index of the payload block in the pool.
    pub pool_idx: usize,
    /// Uncompressed payload length.
    pub b: u32,
    /// Target chunk (segment, chunk).
    pub chunk_key: (u64, u64),
    /// Block index within the chunk.
    pub block: u64,
}

/// The closed-loop workload source.
#[derive(Debug)]
pub struct Workload {
    pool: BlockPool,
    layout: VdLayout,
    rng: Rng,
    /// Number of distinct chunks the requests spread over.
    chunk_fanout: u64,
    /// Zipf skew for block selection (None = uniform). Precomputed CDF.
    zipf_cdf: Option<Vec<f64>>,
    /// Sequential-scan addressing: `(span, cursor)`. Addresses walk
    /// `0..span` cyclically instead of being drawn at random.
    seq_scan: Option<(u64, u64)>,
}

impl Workload {
    /// Builds a workload over `pool_blocks` Silesia-mix blocks of
    /// `block_size` bytes.
    pub fn new(block_size: usize, pool_blocks: usize, seed: u64) -> Self {
        Self::from_pool(BlockPool::build(block_size, pool_blocks, seed), seed)
    }

    /// Builds a workload over blocks drawn from a single corpus `profile`
    /// instead of the Silesia mix (the services experiment's corpus knob:
    /// incompressible vs text-like vs redundant payloads).
    pub fn with_profile(
        block_size: usize,
        pool_blocks: usize,
        seed: u64,
        profile: &corpus::Profile,
    ) -> Self {
        Self::from_pool(
            BlockPool::from_profile(block_size, pool_blocks, seed, profile),
            seed,
        )
    }

    fn from_pool(pool: BlockPool, seed: u64) -> Self {
        Workload {
            pool,
            layout: VdLayout::paper(),
            rng: Rng::new(seed ^ 0x00C0_FFEE),
            chunk_fanout: 16,
            zipf_cdf: None,
            seq_scan: None,
        }
    }

    /// Enables Zipf-skewed block selection with exponent `theta` (0 =
    /// uniform, ~0.99 = classic YCSB hot-spotting). Production block
    /// workloads rewrite hot blocks, which is what feeds LSM compaction.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite.
    pub fn set_zipf(&mut self, theta: f64) {
        assert!(theta.is_finite() && theta >= 0.0, "bad zipf theta {theta}");
        let n = self.pool.len();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        self.zipf_cdf = Some(cdf);
    }

    /// Enables sequential-scan addressing: block addresses walk `0..span`
    /// cyclically (wrapping across chunks of the layout) instead of being
    /// drawn at random. Later laps of the scan revisit addresses the first
    /// lap wrote — the streaming access pattern sequential prefetch keys
    /// on. Payload (pool block) selection is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero.
    pub fn set_sequential(&mut self, span: u64) {
        assert!(span > 0, "sequential span must be positive");
        self.seq_scan = Some((span, 0));
    }

    fn pick_block(&mut self) -> usize {
        match &self.zipf_cdf {
            None => self.rng.gen_range(self.pool.len() as u64) as usize,
            Some(cdf) => {
                let u = self.rng.gen_f64();
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
            }
        }
    }

    /// The underlying block pool.
    pub fn pool(&self) -> &BlockPool {
        &self.pool
    }

    /// Draws the next write request.
    pub fn next_write(&mut self) -> WriteReq {
        let pool_idx = self.pick_block();
        let b = self.pool.block_size() as u32;
        // Uniform mode spreads writes over a handful of chunks in segment 0
        // so compaction thresholds are reached during a run. Skewed mode
        // ties the address to the (Zipf-chosen) block, so hot logical
        // blocks are *rewritten* — the supersede pattern that feeds LSM
        // compaction and garbage collection in production.
        let (chunk, block) = if let Some((span, cursor)) = &mut self.seq_scan {
            let a = *cursor;
            *cursor = (a + 1) % *span;
            (
                (a / self.layout.blocks_per_chunk()) % self.chunk_fanout,
                a % self.layout.blocks_per_chunk(),
            )
        } else if self.zipf_cdf.is_some() {
            let h = (pool_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (
                h % self.chunk_fanout,
                (h >> 8) % self.layout.blocks_per_chunk(),
            )
        } else {
            (
                self.rng.gen_range(self.chunk_fanout),
                self.rng.gen_range(self.layout.blocks_per_chunk()),
            )
        };
        WriteReq {
            pool_idx,
            b,
            chunk_key: (0, chunk),
            block,
        }
    }

    /// The payload bytes of a pool block.
    pub fn payload(&self, pool_idx: usize) -> &[u8] {
        self.pool.get(pool_idx)
    }

    /// Exponential think time in picoseconds with the given mean in µs.
    pub fn think_ps(&mut self, mean_us: f64) -> u64 {
        (self.rng.gen_exp(mean_us) * 1e6) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_deterministic_per_seed() {
        let mut a = Workload::new(4096, 64, 9);
        let mut b = Workload::new(4096, 64, 9);
        for _ in 0..50 {
            let ra = a.next_write();
            let rb = b.next_write();
            assert_eq!(ra.pool_idx, rb.pool_idx);
            assert_eq!(ra.block, rb.block);
        }
    }

    #[test]
    fn requests_write_whole_pool_blocks() {
        let mut w = Workload::new(4096, 32, 4);
        for _ in 0..20 {
            let r = w.next_write();
            assert!(r.pool_idx < 32);
            assert_eq!(r.b, 4096);
            assert_eq!(w.payload(r.pool_idx).len(), 4096);
        }
    }

    #[test]
    fn zipf_skews_block_choice() {
        let mut w = Workload::new(4096, 64, 9);
        w.set_zipf(0.99);
        let mut counts = vec![0u32; 64];
        for _ in 0..20_000 {
            counts[w.next_write().pool_idx] += 1;
        }
        // The hottest block dominates; the tail is long but non-empty.
        let hot = counts[0];
        let cold: u32 = counts[32..].iter().sum();
        assert!(hot > 2_000, "hot block count {hot}");
        assert!(cold > 100, "cold tail {cold}");
        assert!(hot as f64 > 10.0 * (cold as f64 / 32.0), "skew too weak");
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut w = Workload::new(4096, 16, 9);
        w.set_zipf(0.0);
        let mut counts = vec![0u32; 16];
        for _ in 0..16_000 {
            counts[w.next_write().pool_idx] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn mix_has_varying_compressibility() {
        let w = Workload::new(4096, 128, 5);
        let mut sizes: Vec<u32> = (0..128)
            .map(|i| lz4kit::compress_with(w.payload(i), lz4kit::Level::Fast).len() as u32)
            .collect();
        sizes.sort_unstable();
        // The Silesia mix spans incompressible to highly compressible.
        assert!(sizes[0] < 2000, "most compressible {}", sizes[0]);
        assert!(sizes[127] > 3600, "least compressible {}", sizes[127]);
    }
}
