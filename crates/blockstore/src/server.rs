//! Storage-server node: chunk stores behind an NVMe-class disk model.
//!
//! A storage server owns the chunks replicated to it, appends compressed
//! blocks, and serves fetches. Timing goes through a [`DiskModel`] (queue of
//! NVMe channels with fixed access latency plus bandwidth), functional state
//! through [`ChunkStore`]s.

use crate::chunk::{ChunkStore, StoredBlock};
use simkit::{transfer_time, JobStart, ServerPool, Time};
use std::collections::BTreeMap;

/// Identifier of a storage server in the cluster.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

/// NVMe-class disk timing model.
#[derive(Debug)]
pub struct DiskModel {
    pool: ServerPool,
    access: Time,
    bandwidth: f64,
    /// Gray-failure multiplier on service time (1.0 = nominal). Fault
    /// injection raises it for slow-replica stalls; only new submissions
    /// see the new factor, in-flight I/Os keep their original timing.
    slow: f64,
}

impl DiskModel {
    /// A disk with `channels` parallel NVMe queues, fixed `access` latency,
    /// and `bandwidth` bytes/s per operation stream.
    pub fn new(name: &'static str, channels: usize, access: Time, bandwidth: f64) -> Self {
        DiskModel {
            pool: ServerPool::new(name, channels),
            access,
            bandwidth,
            slow: 1.0,
        }
    }

    /// The paper-calibrated default: a storage server as a JBOF of ~8
    /// NVMe SSDs, each sustaining ~1 M appends/s at tens-of-µs access
    /// latency (§1: "IOPS in the millions and latencies in the tens of
    /// microseconds"). 8 SSDs × 20 deep queues = 160 concurrent appends, so
    /// the storage tier never caps the middle tier — matching the paper's
    /// testbed, where the middle-tier server is always the constrained
    /// resource.
    pub fn nvme(name: &'static str) -> Self {
        Self::new(
            name,
            160,
            Time::from_us(20.0),
            4e9,
        )
    }

    /// Service time for one `bytes`-sized I/O (scaled by the slow factor).
    pub fn service_time(&self, bytes: usize) -> Time {
        (self.access + transfer_time(bytes as u64, self.bandwidth)) * self.slow
    }

    /// Sets the gray-failure service-time multiplier (`1.0` = nominal,
    /// `8.0` = an 8× slower disk). Affects subsequent submissions only.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_slow_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid slow factor {factor}"
        );
        self.slow = factor;
    }

    /// The current gray-failure multiplier.
    pub fn slow_factor(&self) -> f64 {
        self.slow
    }

    /// Submits an I/O; see [`ServerPool::submit`].
    #[inline]
    pub fn submit(&mut self, now: Time, bytes: usize, token: u64) -> Option<JobStart> {
        self.pool.submit(now, self.service_time(bytes), token)
    }

    /// Completes the oldest running I/O; see [`ServerPool::complete`].
    #[inline]
    pub fn complete(&mut self, now: Time) -> Option<JobStart> {
        self.pool.complete(now)
    }

    /// I/Os completed so far.
    pub fn ops_done(&self) -> u64 {
        self.pool.jobs_done()
    }

    /// NVMe channels currently serving an I/O.
    pub fn busy(&self) -> usize {
        self.pool.busy()
    }

    /// I/Os waiting behind the disk's channels.
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }
}

/// Key identifying a chunk replica on a server.
pub type ChunkKey = (u64, u64); // (segment, chunk)

/// A storage server: disk model + replicated chunk stores.
#[derive(Clone, Debug)]
pub struct StorageServer {
    id: ServerId,
    // BTreeMap, not HashMap: `chunks()` iteration order is observable
    // (snapshot rotation, scrub walks), and simulation runs must be
    // reproducible across processes.
    chunks: BTreeMap<ChunkKey, ChunkStore>,
    /// Failed servers stop acknowledging (fail-over experiments).
    alive: bool,
    compaction_threshold: u64,
    appends: u64,
}

impl StorageServer {
    /// A healthy server with the given per-chunk compaction threshold.
    pub fn new(id: ServerId, compaction_threshold: u64) -> Self {
        StorageServer {
            id,
            chunks: BTreeMap::new(),
            alive: true,
            compaction_threshold,
            appends: 0,
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Whether the server is serving requests.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Marks the server failed (stops acknowledging) or recovered.
    pub fn set_alive(&mut self, alive: bool) {
        self.alive = alive;
    }

    /// Total appends accepted.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Number of chunk replicas hosted.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Appends a block version to a chunk replica. Returns `Some(true)` if
    /// the chunk now wants compaction, `None` if the server is down.
    #[inline]
    pub fn append(&mut self, key: ChunkKey, block: u64, payload: StoredBlock) -> Option<bool> {
        if !self.alive {
            return None;
        }
        self.appends += 1;
        let threshold = self.compaction_threshold;
        Some(
            self.chunks
                .entry(key)
                .or_insert_with(|| ChunkStore::new(threshold))
                .append(block, payload),
        )
    }

    /// Reads the live version of a block, if present and the server is up.
    pub fn fetch(&self, key: ChunkKey, block: u64) -> Option<&StoredBlock> {
        if !self.alive {
            return None;
        }
        self.chunks.get(&key)?.read(block)
    }

    /// Direct access to a chunk store (maintenance services).
    pub fn chunk_mut(&mut self, key: ChunkKey) -> Option<&mut ChunkStore> {
        self.chunks.get_mut(&key)
    }

    /// Iterates over hosted chunks.
    pub fn chunks(&self) -> impl Iterator<Item = (&ChunkKey, &ChunkStore)> {
        self.chunks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_fetch() {
        let mut s = StorageServer::new(ServerId(1), 100);
        s.append((0, 0), 5, StoredBlock::raw(vec![9u8; 64])).unwrap();
        assert_eq!(s.fetch((0, 0), 5).unwrap().data[0], 9);
        assert!(s.fetch((0, 1), 5).is_none());
        assert_eq!(s.appends(), 1);
        assert_eq!(s.chunk_count(), 1);
    }

    #[test]
    fn dead_server_refuses_io() {
        let mut s = StorageServer::new(ServerId(1), 100);
        s.append((0, 0), 1, StoredBlock::raw(vec![1u8; 8])).unwrap();
        s.set_alive(false);
        assert!(s.append((0, 0), 2, StoredBlock::raw(vec![2u8; 8])).is_none());
        assert!(s.fetch((0, 0), 1).is_none());
        s.set_alive(true);
        assert!(s.fetch((0, 0), 1).is_some());
    }

    #[test]
    fn disk_timing_scales_with_size() {
        let d = DiskModel::nvme("d");
        let small = d.service_time(4096);
        let large = d.service_time(1 << 20);
        // 20 µs access dominates small I/O.
        assert!((20.0..22.0).contains(&small.as_us()), "{small}");
        // 1 MiB at 4 GB/s adds ~262 µs.
        assert!((260.0..300.0).contains(&large.as_us()), "{large}");
    }

    #[test]
    fn slow_factor_scales_service_time() {
        let mut d = DiskModel::nvme("d");
        let nominal = d.service_time(1 << 20);
        d.set_slow_factor(8.0);
        let slowed = d.service_time(1 << 20);
        let ratio = slowed.as_us() / nominal.as_us();
        assert!((7.9..8.1).contains(&ratio), "ratio={ratio}");
        d.set_slow_factor(1.0);
        assert_eq!(d.service_time(1 << 20), nominal);
        assert_eq!(d.slow_factor(), 1.0);
    }

    #[test]
    fn disk_channels_queue() {
        let mut d = DiskModel::new("d", 1, Time::from_us(10.0), 1e9);
        let j1 = d.submit(Time::ZERO, 1000, 1).unwrap();
        assert!(d.submit(Time::ZERO, 1000, 2).is_none());
        let j2 = d.complete(j1.finish_at).unwrap();
        assert_eq!(j2.token, 2);
        assert_eq!(d.ops_done(), 1);
    }
}
