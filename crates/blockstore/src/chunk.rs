//! Append-only chunk store with LSM-style compaction, garbage collection,
//! and snapshots.
//!
//! §2.2: storage servers "write the data into the disk in an appended way";
//! the middle tier keeps write payloads and, when a chunk accumulates enough
//! writes, runs LSM-tree compaction and releases superseded versions via
//! garbage collection. This module implements that lifecycle functionally:
//! blocks append to a log, the index tracks the live version of each block,
//! [`ChunkStore::compact`] rewrites the log, and [`ChunkStore::snapshot`]
//! freezes a point-in-time view.

use simkit::Bytes;
use lz4kit::DecompressError;
use std::collections::BTreeMap;

/// A stored (possibly compressed) block version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredBlock {
    /// The bytes as stored on disk (compressed when `compressed`).
    pub data: Bytes,
    /// Uncompressed length of the block.
    pub orig_len: u32,
    /// Whether `data` is an LZ4 block stream.
    pub compressed: bool,
}

impl StoredBlock {
    /// Stores a block uncompressed.
    pub fn raw(data: impl Into<Bytes>) -> Self {
        let data = data.into();
        StoredBlock {
            orig_len: data.len() as u32,
            compressed: false,
            data,
        }
    }

    /// Stores an LZ4-compressed payload for a block of `orig_len` bytes.
    pub fn lz4(data: impl Into<Bytes>, orig_len: u32) -> Self {
        StoredBlock {
            data: data.into(),
            orig_len,
            compressed: true,
        }
    }

    /// Recovers the original block bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] if the stored stream is corrupt.
    pub fn expand(&self) -> Result<Vec<u8>, DecompressError> {
        if self.compressed {
            lz4kit::decompress_exact(&self.data, self.orig_len as usize)
        } else {
            Ok(self.data.to_vec())
        }
    }
}

#[derive(Clone, Debug)]
struct LogEntry {
    block: u64,
    payload: StoredBlock,
    live: bool,
}

/// Statistics returned by [`ChunkStore::compact`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Disk bytes reclaimed (dead versions dropped).
    pub reclaimed_bytes: u64,
    /// Live entries retained.
    pub live_entries: usize,
    /// Dead entries dropped.
    pub dead_entries: usize,
}

/// A frozen point-in-time view of a chunk.
#[derive(Clone, Debug)]
pub struct Snapshot {
    blocks: BTreeMap<u64, StoredBlock>,
    /// Log length when the snapshot was taken.
    pub at_writes: u64,
}

impl Snapshot {
    /// Reads a block from the snapshot.
    pub fn read(&self, block: u64) -> Option<&StoredBlock> {
        self.blocks.get(&block)
    }

    /// Number of distinct blocks captured.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the snapshot captured no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates over `(block index, stored version)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &StoredBlock)> {
        self.blocks.iter().map(|(&b, s)| (b, s))
    }
}

/// One chunk's append-only block log plus its live index.
#[derive(Clone, Debug)]
pub struct ChunkStore {
    log: Vec<LogEntry>,
    /// block index → position in `log` of the live version. Ordered map:
    /// snapshot/scrub walks over the index must not depend on hasher
    /// randomization.
    index: BTreeMap<u64, usize>,
    stored_bytes: u64,
    live_bytes: u64,
    writes: u64,
    /// Writes accumulated since the last compaction.
    writes_since_compaction: u64,
    /// Compaction trigger (§2.2.3: "once the number of writes in a chunk
    /// reaches a threshold").
    pub compaction_threshold: u64,
}

impl ChunkStore {
    /// An empty chunk with the given compaction trigger.
    pub fn new(compaction_threshold: u64) -> Self {
        ChunkStore {
            log: Vec::new(),
            index: BTreeMap::new(),
            stored_bytes: 0,
            live_bytes: 0,
            writes: 0,
            writes_since_compaction: 0,
            compaction_threshold,
        }
    }

    /// Appends a new version of `block`. Returns `true` when the write count
    /// has reached the compaction threshold (the maintenance service should
    /// schedule a compaction).
    #[inline]
    pub fn append(&mut self, block: u64, payload: StoredBlock) -> bool {
        let sz = payload.data.len() as u64;
        self.log.push(LogEntry {
            block,
            payload,
            live: true,
        });
        // One index descent: the insert hands back the superseded position.
        if let Some(old) = self.index.insert(block, self.log.len() - 1) {
            self.log[old].live = false;
            self.live_bytes -= self.log[old].payload.data.len() as u64;
        }
        self.stored_bytes += sz;
        self.live_bytes += sz;
        self.writes += 1;
        self.writes_since_compaction += 1;
        self.writes_since_compaction >= self.compaction_threshold
    }

    /// Reads the live version of `block`.
    pub fn read(&self, block: u64) -> Option<&StoredBlock> {
        self.index.get(&block).map(|&i| &self.log[i].payload)
    }

    /// Total bytes appended (live + garbage), i.e. disk space consumed.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Bytes referenced by live versions.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Fraction of stored bytes that is garbage, in `[0, 1]`.
    pub fn garbage_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            return 0.0;
        }
        1.0 - self.live_bytes as f64 / self.stored_bytes as f64
    }

    /// Total writes accepted.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of distinct live blocks.
    // simlint: allow(test-only-pub, reason = "store introspection: the store properties check dedup and GC through it")
    pub fn live_blocks(&self) -> usize {
        self.index.len()
    }

    /// LSM-style compaction: rewrites the log keeping only live versions,
    /// releasing garbage (the GC half of the maintenance pair).
    pub fn compact(&mut self) -> CompactionStats {
        let dead = self.log.iter().filter(|e| !e.live).count();
        let mut new_log = Vec::with_capacity(self.index.len());
        let mut new_index = BTreeMap::new();
        for entry in self.log.drain(..) {
            if entry.live {
                new_index.insert(entry.block, new_log.len());
                new_log.push(entry);
            }
        }
        let stats = CompactionStats {
            reclaimed_bytes: self.stored_bytes - self.live_bytes,
            live_entries: new_log.len(),
            dead_entries: dead,
        };
        self.log = new_log;
        self.index = new_index;
        self.stored_bytes = self.live_bytes;
        self.writes_since_compaction = 0;
        stats
    }

    /// Freezes a consistent point-in-time view of every live block.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            blocks: self
                .index
                .iter()
                .map(|(&b, &i)| (b, self.log[i].payload.clone()))
                .collect(),
            at_writes: self.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(tag: u8, len: usize) -> StoredBlock {
        StoredBlock::raw(vec![tag; len])
    }

    #[test]
    fn append_read_latest_version() {
        let mut c = ChunkStore::new(100);
        c.append(5, blk(1, 100));
        c.append(5, blk(2, 100));
        assert_eq!(c.read(5).unwrap().data[0], 2);
        assert_eq!(c.writes(), 2);
        assert_eq!(c.live_blocks(), 1);
        assert_eq!(c.stored_bytes(), 200);
        assert_eq!(c.live_bytes(), 100);
        assert!((c.garbage_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn compaction_trigger_fires_at_threshold() {
        let mut c = ChunkStore::new(3);
        assert!(!c.append(0, blk(0, 10)));
        assert!(!c.append(1, blk(0, 10)));
        assert!(c.append(2, blk(0, 10)));
        c.compact();
        // Counter resets after compaction.
        assert!(!c.append(3, blk(0, 10)));
    }

    #[test]
    fn compact_reclaims_garbage_and_preserves_reads() {
        let mut c = ChunkStore::new(1000);
        for v in 0..10u8 {
            c.append(1, blk(v, 50));
            c.append(2, blk(v + 100, 50));
        }
        let stats = c.compact();
        assert_eq!(stats.live_entries, 2);
        assert_eq!(stats.dead_entries, 18);
        assert_eq!(stats.reclaimed_bytes, 18 * 50);
        assert_eq!(c.garbage_ratio(), 0.0);
        assert_eq!(c.read(1).unwrap().data[0], 9);
        assert_eq!(c.read(2).unwrap().data[0], 109);
    }

    #[test]
    fn snapshot_is_immutable_under_later_writes() {
        let mut c = ChunkStore::new(1000);
        c.append(7, blk(1, 10));
        let snap = c.snapshot();
        c.append(7, blk(2, 10));
        c.compact();
        assert_eq!(snap.read(7).unwrap().data[0], 1);
        assert_eq!(c.read(7).unwrap().data[0], 2);
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());
    }

    #[test]
    fn compressed_blocks_expand() {
        let mut c = ChunkStore::new(10);
        let original = vec![42u8; 4096];
        let packed = lz4kit::compress(&original);
        c.append(0, StoredBlock::lz4(packed, 4096));
        assert_eq!(c.read(0).unwrap().expand().unwrap(), original);
    }

    #[test]
    fn empty_chunk_behaviour() {
        let c = ChunkStore::new(10);
        assert!(c.read(0).is_none());
        assert_eq!(c.garbage_ratio(), 0.0);
        assert!(c.snapshot().is_empty());
    }
}
