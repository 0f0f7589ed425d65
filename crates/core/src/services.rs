//! Inline data services on the write/read byte path: content-defined
//! dedup, XTS-style encryption, and a middle-tier hot-block cache with
//! sequential prefetch.
//!
//! The services are strictly opt-in: a [`crate::RunConfig`] with
//! `services: None` runs the original pipeline bit-for-bit. When enabled,
//! every stored block is *sealed* — chunked by a seeded content-defined
//! chunker, deduplicated against a bloom-fronted fingerprint index,
//! LZ4-compressed, and encrypted per-segment — and the sealed container is
//! what replication ships and the storage servers append. Each service's
//! compute can be *placed* on the host core pool, a dedicated SoC Arm
//! complex, or a fixed-function engine ([`Placement`]); the placement only
//! moves where time is charged, never what bytes are produced, so the
//! functional results (and golden metrics) are placement-invariant while
//! the latency distributions are not.
//!
//! All service state lives on the hub shard and is plain owned data
//! (`BTreeMap`, no interior mutability): lookups and inserts happen in
//! deterministic event order, so dedup ratios, cache hit sequences, and
//! eviction orders are a pure function of the run config at any
//! `SMARTDS_THREADS`.

use datakit::{
    fingerprint, CacheStats, ChunkParams, Chunker, DedupIndex, DedupOutcome, DedupStats, LruCache,
    XtsCipher,
};
use hwmodel::consts::{ENGINE_BLOCK_SETUP, SVC_ENGINE_CRYPT_BW, SVC_ENGINE_DEDUP_BW};
use hwmodel::{CompressEngine, CpuPool};
use simkit::json::Object;
use simkit::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// Where one data service's compute runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The middle tier's main core pool (shares cores with parse/compress).
    Host,
    /// A dedicated SoC Arm complex on the SmartNIC (wimpy but offloaded).
    Soc,
    /// A dedicated fixed-function engine (line-rate, but pays a fixed
    /// pipeline-fill latency per block).
    Engine,
}

impl Placement {
    /// Stable lowercase name for reports and experiment rows.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Host => "host",
            Placement::Soc => "soc",
            Placement::Engine => "engine",
        }
    }
}

/// Opt-in configuration for the inline data services.
#[derive(Clone, Debug)]
pub struct ServicesConfig {
    /// Where the dedup chunk-scan runs.
    pub dedup_placement: Placement,
    /// Where encryption/decryption runs.
    pub crypt_placement: Placement,
    /// Hot-block cache capacity in blocks (0 disables the cache).
    pub cache_blocks: usize,
    /// Sequential blocks speculatively fetched after a read miss
    /// (0 disables prefetch; ignored when the cache is off).
    pub prefetch_depth: usize,
    /// Content-defined chunking bounds.
    pub chunk: ChunkParams,
    /// Seed for the chunker's gear table and boundary pattern.
    pub chunk_seed: u64,
    /// log2 of the dedup index's bloom-filter bit count.
    pub index_log2_bits: u32,
    /// XTS key the per-segment tweaks derive from.
    pub key: u64,
    /// Cores in the dedicated SoC Arm pool (used when any placement is
    /// [`Placement::Soc`]).
    pub soc_cores: usize,
}

impl ServicesConfig {
    /// Defaults: both services on the host pool, a 256-block cache with
    /// depth-2 sequential prefetch, 4 KiB chunking bounds, and a 64 Ki-bit
    /// bloom front.
    pub fn paper() -> Self {
        ServicesConfig {
            dedup_placement: Placement::Host,
            crypt_placement: Placement::Host,
            cache_blocks: 256,
            prefetch_depth: 2,
            chunk: ChunkParams::default_4k(),
            chunk_seed: 0x5EED_CAB5,
            index_log2_bits: 16,
            key: 0xFEED_F00D_DEAD_2023,
            soc_cores: 8,
        }
    }

    /// Sets both services' placement at once (the sweep knob).
    pub fn with_placement(mut self, p: Placement) -> Self {
        self.dedup_placement = p;
        self.crypt_placement = p;
        self
    }

    /// Sets the cache capacity and prefetch depth.
    // simlint: allow(test-only-pub, reason = "services-config setter: the cache suites size the cache through it")
    pub fn with_cache(mut self, blocks: usize, prefetch_depth: usize) -> Self {
        self.cache_blocks = blocks;
        self.prefetch_depth = prefetch_depth;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range chunk bounds, bloom sizes, or a zero-core
    /// SoC pool.
    pub fn validate(&self) {
        self.chunk.validate();
        assert!(
            (6..=32).contains(&self.index_log2_bits),
            "dedup index bloom log2_bits 6-32, got {}",
            self.index_log2_bits
        );
        assert!(self.soc_cores > 0, "soc pool needs at least one core");
        assert!(
            self.prefetch_depth <= 64,
            "prefetch depth {} unreasonably deep",
            self.prefetch_depth
        );
    }

    /// Whether the hot-block cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache_blocks > 0
    }
}

/// A stored block's cache identity: (segment, chunk, block).
pub type BlockKey = (u64, u64, u64);

/// Cumulative accounting for one run's data services.
#[derive(Copy, Clone, Debug, Default)]
pub struct ServiceStats {
    /// Distinct pool blocks sealed.
    pub seals: u64,
    /// Raw payload bytes across sealed blocks.
    pub raw_bytes: u64,
    /// Sealed container bytes across sealed blocks.
    pub sealed_bytes: u64,
    /// Dedup index accounting.
    pub dedup: DedupStats,
    /// Hot-block cache accounting.
    pub cache: CacheStats,
    /// Prefetch fetches issued to storage.
    pub prefetch_issued: u64,
    /// Prefetch fetches that landed and filled the cache.
    pub prefetch_completed: u64,
    /// Prefetch fetches dropped (dead server).
    pub prefetch_dropped: u64,
}

impl ServiceStats {
    /// End-to-end reduction: raw bytes over sealed bytes (dedup ×
    /// compression, net of encryption's length preservation and the
    /// container header).
    pub fn seal_ratio(&self) -> f64 {
        if self.sealed_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.sealed_bytes as f64
        }
    }

    /// Renders the stats as one JSON object (field order fixed; part of
    /// the services golden fixture).
    pub fn to_json(&self) -> String {
        Object::new()
            .field("seals", self.seals)
            .field("raw_bytes", self.raw_bytes)
            .field("sealed_bytes", self.sealed_bytes)
            .field("seal_ratio", self.seal_ratio())
            .field("dedup_ratio", self.dedup.dedup_ratio())
            .field("chunks", self.dedup.chunks)
            .field("unique_chunks", self.dedup.unique_chunks)
            .field("dup_chunks", self.dedup.dup_chunks)
            .field("bloom_negative", self.dedup.bloom_negative)
            .field("bloom_fp", self.dedup.bloom_fp)
            .field("cache_hits", self.cache.hits)
            .field("cache_misses", self.cache.misses)
            .field("cache_evictions", self.cache.evictions)
            .field("cache_hit_rate", self.cache.hit_rate())
            .field("prefetch_inserts", self.cache.prefetch_inserts)
            .field("prefetch_hits", self.cache.prefetch_hits)
            .field("prefetch_issued", self.prefetch_issued)
            .field("prefetch_completed", self.prefetch_completed)
            .field("prefetch_dropped", self.prefetch_dropped)
            .finish()
    }
}

/// The hub-owned service state: dedup index, cipher, cache, dedicated
/// compute stations, and the written-block map the prefetcher consults.
#[derive(Debug)]
pub struct Services {
    cfg: ServicesConfig,
    chunker: Chunker,
    index: DedupIndex,
    cipher: XtsCipher,
    cache: Option<LruCache<BlockKey, u32>>,
    /// Dedicated SoC Arm pool (built only when a service is placed there).
    pub(crate) soc: Option<CpuPool>,
    /// Dedicated service engines: index 0 dedup-scan, index 1 crypt.
    pub(crate) engines: Vec<CompressEngine>,
    /// Memoized sealed containers per pool block.
    sealed: BTreeMap<usize, (Bytes, u32)>,
    /// Completed writes: block key → (primary replica server, pool index).
    written: BTreeMap<BlockKey, (u32, u32)>,
    /// In-flight prefetches: id → (key, sealed bytes).
    prefetch_inflight: BTreeMap<u64, (BlockKey, u32)>,
    /// Keys currently being prefetched (dedup against re-issue).
    prefetch_keys: BTreeSet<BlockKey>,
    next_prefetch: u64,
    seals: u64,
    raw_bytes: u64,
    sealed_bytes: u64,
    prefetch_issued: u64,
    prefetch_completed: u64,
    prefetch_dropped: u64,
}

impl Services {
    /// Builds the service state for a validated `cfg`.
    pub fn new(cfg: &ServicesConfig) -> Self {
        cfg.validate();
        let needs_soc =
            cfg.dedup_placement == Placement::Soc || cfg.crypt_placement == Placement::Soc;
        Services {
            chunker: Chunker::new(cfg.chunk, cfg.chunk_seed),
            index: DedupIndex::new(cfg.index_log2_bits, cfg.chunk_seed ^ 0xB100),
            cipher: XtsCipher::new(cfg.key),
            cache: if cfg.cache_blocks > 0 {
                Some(LruCache::new(cfg.cache_blocks))
            } else {
                None
            },
            soc: if needs_soc {
                Some(CpuPool::bf2_arm("svc-soc", cfg.soc_cores))
            } else {
                None
            },
            engines: vec![
                CompressEngine::with_rate("svc-dedup", SVC_ENGINE_DEDUP_BW, ENGINE_BLOCK_SETUP, 1),
                CompressEngine::with_rate("svc-crypt", SVC_ENGINE_CRYPT_BW, ENGINE_BLOCK_SETUP, 1),
            ],
            sealed: BTreeMap::new(),
            written: BTreeMap::new(),
            prefetch_inflight: BTreeMap::new(),
            prefetch_keys: BTreeSet::new(),
            next_prefetch: 0,
            seals: 0,
            raw_bytes: 0,
            sealed_bytes: 0,
            prefetch_issued: 0,
            prefetch_completed: 0,
            prefetch_dropped: 0,
            cfg: cfg.clone(),
        }
    }

    /// The configuration this state was built from.
    pub fn config(&self) -> &ServicesConfig {
        &self.cfg
    }

    /// Seals `payload` into a self-describing container: content-defined
    /// chunking, dedup against the shared index, LZ4 over the unique chunk
    /// bytes, and XTS encryption under the `segment` tweak. The container
    /// records per-chunk references so [`Services::unseal`] can reassemble
    /// the exact payload (duplicate chunks resolve against the index).
    pub fn seal(&mut self, segment: u64, payload: &[u8]) -> Vec<u8> {
        let cuts = self.chunker.cut_all(payload);
        let mut refs = Vec::with_capacity(cuts.len());
        let mut unique = Vec::new();
        let mut off = 0;
        for len in cuts {
            let chunk = &payload[off..off + len];
            off += len;
            let fp = fingerprint(chunk);
            let is_new = self.index.observe_chunk(fp, chunk) == DedupOutcome::Unique;
            if is_new {
                unique.extend_from_slice(chunk);
            }
            refs.push((is_new, len as u16, fp));
        }
        let packed = lz4kit::compress(&unique);
        let ct = self.cipher.encrypt(&packed, segment);
        let mut out = Vec::with_capacity(2 + refs.len() * 19 + 4 + ct.len());
        out.extend_from_slice(&(refs.len() as u16).to_le_bytes());
        for (is_new, len, fp) in refs {
            out.push(is_new as u8);
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&fp.0.to_le_bytes());
            out.extend_from_slice(&fp.1.to_le_bytes());
        }
        out.extend_from_slice(&(ct.len() as u32).to_le_bytes());
        out.extend_from_slice(&ct);
        out
    }

    /// Inverse of [`Services::seal`]: decrypts, decompresses, and
    /// reassembles the payload, resolving duplicate chunk references
    /// against the dedup index. Returns `None` on a malformed container.
    pub fn unseal(&self, segment: u64, container: &[u8]) -> Option<Vec<u8>> {
        let n = u16::from_le_bytes(container.get(..2)?.try_into().ok()?) as usize;
        let mut pos = 2;
        let mut refs = Vec::with_capacity(n);
        for _ in 0..n {
            let rec = container.get(pos..pos + 19)?;
            let len = u16::from_le_bytes(rec[1..3].try_into().ok()?) as usize;
            let fp = (
                u64::from_le_bytes(rec[3..11].try_into().ok()?),
                u64::from_le_bytes(rec[11..19].try_into().ok()?),
            );
            refs.push((rec[0] != 0, len, fp));
            pos += 19;
        }
        let ct_len = u32::from_le_bytes(container.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        let ct = container.get(pos..pos + ct_len)?;
        let packed = self.cipher.decrypt(ct, segment);
        let total: usize = refs.iter().map(|r| r.1).sum();
        let unique = lz4kit::decompress(&packed, total).ok()?;
        let mut out = Vec::with_capacity(total);
        let mut cursor = 0;
        for (is_new, len, fp) in refs {
            if is_new {
                out.extend_from_slice(unique.get(cursor..cursor + len)?);
                cursor += len;
            } else {
                let chunk = self.index.chunk_bytes(fp)?;
                if chunk.len() != len {
                    return None;
                }
                out.extend_from_slice(chunk);
            }
        }
        Some(out)
    }

    /// The memoized sealed container of pool block `pool_idx` (sealed on
    /// first use; retries and re-writes of the same block reuse it, so the
    /// dedup accounting reflects pool content, not request traffic).
    pub(crate) fn sealed_block(&mut self, pool_idx: usize, payload: &[u8]) -> (Bytes, u32) {
        if let Some((bytes, len)) = self.sealed.get(&pool_idx) {
            return (bytes.clone(), *len);
        }
        let container = self.seal(pool_idx as u64, payload);
        let len = container.len() as u32;
        self.seals += 1;
        self.raw_bytes += payload.len() as u64;
        self.sealed_bytes += len as u64;
        let bytes = Bytes::from(container);
        self.sealed.insert(pool_idx, (bytes.clone(), len));
        (bytes, len)
    }

    /// Whether the hot-block cache is on.
    pub(crate) fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Probes the cache for a read, counting a hit or miss.
    pub(crate) fn cache_probe(&mut self, key: BlockKey) -> bool {
        match &mut self.cache {
            Some(c) => c.get(&key).is_some(),
            None => false,
        }
    }

    /// Fills the cache after a write or a completed read miss.
    pub(crate) fn cache_fill(&mut self, key: BlockKey, sealed_len: u32, prefetched: bool) {
        if let Some(c) = &mut self.cache {
            c.insert(key, sealed_len, prefetched);
        }
    }

    /// Records a completed write so the prefetcher can find the block.
    pub(crate) fn record_write(&mut self, key: BlockKey, server: u32, pool_idx: u32) {
        self.written.insert(key, (server, pool_idx));
    }

    /// Picks the sequential prefetch targets after a read miss at `key`:
    /// the next `prefetch_depth` blocks of the same chunk that have been
    /// written, are not cached, and are not already being prefetched.
    /// Marks each in-flight and returns `(id, server, sealed_len)` per
    /// target for the cluster to issue.
    pub(crate) fn prefetch_targets(&mut self, key: BlockKey) -> Vec<(u64, u32, u32)> {
        let depth = self.cfg.prefetch_depth as u64;
        if self.cache.is_none() || depth == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for step in 1..=depth {
            let next = (key.0, key.1, key.2 + step);
            if self.prefetch_keys.contains(&next) {
                continue;
            }
            if self.cache.as_ref().is_some_and(|c| c.peek(&next)) {
                continue;
            }
            let Some(&(server, pool_idx)) = self.written.get(&next) else {
                continue;
            };
            let Some(&(_, sealed_len)) = self.sealed.get(&(pool_idx as usize)) else {
                continue;
            };
            let id = self.next_prefetch;
            self.next_prefetch += 1;
            self.prefetch_inflight.insert(id, (next, sealed_len));
            self.prefetch_keys.insert(next);
            self.prefetch_issued += 1;
            out.push((id, server, sealed_len));
        }
        out
    }

    /// Lands (or drops) a prefetch ack; on success the block enters the
    /// cache marked as a prefetch insert.
    pub(crate) fn prefetch_ack(&mut self, id: u64, fetched: bool) {
        let Some((key, sealed_len)) = self.prefetch_inflight.remove(&id) else {
            return;
        };
        self.prefetch_keys.remove(&key);
        if fetched {
            self.prefetch_completed += 1;
            self.cache_fill(key, sealed_len, true);
        } else {
            self.prefetch_dropped += 1;
        }
    }

    /// Cumulative accounting snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            seals: self.seals,
            raw_bytes: self.raw_bytes,
            sealed_bytes: self.sealed_bytes,
            dedup: self.index.stats(),
            cache: self.cache.as_ref().map(LruCache::stats).unwrap_or_default(),
            prefetch_issued: self.prefetch_issued,
            prefetch_completed: self.prefetch_completed,
            prefetch_dropped: self.prefetch_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = simkit::Rng::new(seed);
        (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
    }

    #[test]
    fn seal_round_trips_and_dedups() {
        let mut svc = Services::new(&ServicesConfig::paper());
        let a = sample(4096, 1);
        let sealed_a = svc.seal(7, &a);
        assert_eq!(svc.unseal(7, &sealed_a).as_deref(), Some(&a[..]));
        // Sealing the same content again: every chunk is a duplicate, so
        // the container shrinks to refs + an empty unique stream.
        let sealed_again = svc.seal(7, &a);
        assert!(
            sealed_again.len() < sealed_a.len() / 2,
            "{} vs {}",
            sealed_again.len(),
            sealed_a.len()
        );
        assert_eq!(svc.unseal(7, &sealed_again).as_deref(), Some(&a[..]));
        let s = svc.stats();
        assert_eq!(s.dedup.dup_chunks, s.dedup.unique_chunks);
    }

    #[test]
    fn wrong_segment_fails_to_round_trip() {
        let mut svc = Services::new(&ServicesConfig::paper());
        let a = sample(2048, 3);
        let sealed = svc.seal(1, &a);
        // Decrypting under the wrong tweak garbles the LZ4 stream; either
        // decompression fails or the bytes differ.
        assert_ne!(svc.unseal(2, &sealed).as_deref(), Some(&a[..]));
    }

    #[test]
    fn sealed_block_memoizes() {
        let mut svc = Services::new(&ServicesConfig::paper());
        let a = sample(4096, 5);
        let (b1, l1) = svc.sealed_block(3, &a);
        let (b2, l2) = svc.sealed_block(3, &a);
        assert_eq!(&b1[..], &b2[..]);
        assert_eq!(l1, l2);
        assert_eq!(svc.stats().seals, 1, "second call hits the memo");
    }

    #[test]
    fn prefetch_targets_respect_written_and_cached() {
        let mut svc = Services::new(&ServicesConfig::paper());
        let a = sample(4096, 9);
        svc.sealed_block(0, &a);
        svc.record_write((0, 1, 11), 2, 0);
        svc.record_write((0, 1, 12), 3, 0);
        // Miss at block 10: both sequential neighbours are prefetchable.
        let t = svc.prefetch_targets((0, 1, 10));
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].1, t[1].1), (2, 3));
        // Re-issue while in flight: suppressed.
        assert!(svc.prefetch_targets((0, 1, 10)).is_empty());
        svc.prefetch_ack(t[0].0, true);
        svc.prefetch_ack(t[1].0, false);
        let s = svc.stats();
        assert_eq!(
            (s.prefetch_issued, s.prefetch_completed, s.prefetch_dropped),
            (2, 1, 1)
        );
        assert_eq!(s.cache.prefetch_inserts, 1);
        // The landed block now answers a probe.
        assert!(svc.cache_probe((0, 1, 11)));
        assert!(!svc.cache_probe((0, 1, 12)));
    }

    #[test]
    fn stats_json_shape() {
        let svc = Services::new(&ServicesConfig::paper());
        let json = svc.stats().to_json();
        assert!(json.starts_with("{\"seals\":0"), "{json}");
        assert!(json.contains("\"cache_hit_rate\":"), "{json}");
        assert!(json.contains("\"prefetch_dropped\":0"), "{json}");
    }
}
