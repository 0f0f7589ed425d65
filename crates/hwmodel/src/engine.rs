//! Compute-stage models: hardware compression engines and CPU core pools.
//!
//! Both are deterministic-service-time [`ServerPool`] stations. The engines
//! provide *timing*; the functional LZ4 transformation itself is performed
//! by `lz4kit` in the middle-tier logic, so payload bytes are really
//! compressed while the model charges the calibrated processing time.
//!
//! **Wakeup discipline.** A [`ServerPool`] job completes at an absolute
//! instant known when the job starts, so these stations schedule exactly
//! one event per job and never re-arm: no fluid wakeups originate here.
//! Rate-shared resources (links, memory, PCIe) instead live in the
//! cluster hub, where one [`simkit::WakeSet`] over all of them holds the
//! one-armed-wakeup invariant.

use crate::consts::{
    cpu_lz4_capacity, BF2_ARM_SLOWDOWN, BF2_ENGINE_BW, CACHE_LOOKUP, CPU_CRYPT_BW, CPU_DEDUP_BW,
    CPU_LZ4_DECOMP_FACTOR, ENGINE_BLOCK_SETUP, FPGA_ENGINE_BW, HEADER_PARSE, VERB_POST,
};
use simkit::{transfer_time, JobStart, ServerPool, Time};

/// A fixed-function compression/decompression engine (FPGA or SoC ASIC).
#[derive(Debug)]
pub struct CompressEngine {
    pool: ServerPool,
    rate: f64,
    setup: Time,
}

impl CompressEngine {
    /// One SmartDS per-port engine: 100 Gbps on 4 KiB blocks (§5.1). The
    /// pool models the engine's *serialization* stage; the pipeline-fill
    /// latency ([`crate::consts::FPGA_ENGINE_PIPELINE`]) is charged by the
    /// dataflow plans as a fixed delay so throughput stays at line rate.
    pub fn smartds(name: &'static str) -> Self {
        CompressEngine {
            pool: ServerPool::new(name, 1),
            rate: FPGA_ENGINE_BW,
            setup: ENGINE_BLOCK_SETUP,
        }
    }

    /// The Alveo U280 engine used by the "Acc" baseline: also ~100 Gbps
    /// (§5.1: "The engine's compression throughput can be up to 100 Gbps").
    pub fn acc(name: &'static str) -> Self {
        Self::smartds(name)
    }

    /// The BlueField-2 on-card engine: ~40 Gbps total (§3.4).
    pub fn bf2(name: &'static str) -> Self {
        CompressEngine {
            pool: ServerPool::new(name, 1),
            rate: BF2_ENGINE_BW,
            setup: ENGINE_BLOCK_SETUP,
        }
    }

    /// An engine with explicit parameters (for ablations).
    pub fn with_rate(name: &'static str, rate: f64, setup: Time, lanes: usize) -> Self {
        CompressEngine {
            pool: ServerPool::new(name, lanes),
            rate,
            setup,
        }
    }

    /// Sustained engine rate, bytes/s.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Service time for one block of `bytes`.
    pub fn service_time(&self, bytes: usize) -> Time {
        self.setup + transfer_time(bytes as u64, self.rate)
    }

    /// Submits a block; see [`ServerPool::submit`].
    #[inline]
    pub fn submit(&mut self, now: Time, bytes: usize, token: u64) -> Option<JobStart> {
        self.pool.submit(now, self.service_time(bytes), token)
    }

    /// Completes the running job; see [`ServerPool::complete`].
    #[inline]
    pub fn complete(&mut self, now: Time) -> Option<JobStart> {
        self.pool.complete(now)
    }

    /// Jobs finished so far.
    pub fn jobs_done(&self) -> u64 {
        self.pool.jobs_done()
    }

    /// Lanes currently serving a block.
    pub fn busy(&self) -> usize {
        self.pool.busy()
    }

    /// Blocks waiting behind the engine's lanes.
    #[inline]
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }
}

/// What a CPU job is doing (service times differ per kind).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CpuWork {
    /// Parse a block-storage header and decide placement/compression.
    ParseHeader,
    /// Post a work request / reap a completion.
    PostVerb,
    /// Software LZ4 compression of a payload of this many bytes.
    Compress(usize),
    /// Software LZ4 decompression producing this many bytes.
    Decompress(usize),
    /// Software content-defined-chunking dedup scan over this many bytes
    /// (rolling hash + fingerprint + index probe).
    DedupScan(usize),
    /// Software XTS encryption/decryption of this many bytes.
    Crypt(usize),
    /// One hot-block cache index probe + LRU bookkeeping.
    CacheLookup,
}

/// A pool of host (or Arm) cores running middle-tier software.
#[derive(Debug)]
pub struct CpuPool {
    pool: ServerPool,
    /// Aggregate LZ4 rate across the configured cores (SMT-aware).
    lz4_rate_total: f64,
    cores: usize,
    /// Multiplier >1 slows all work (wimpy Arm cores).
    slowdown: f64,
}

impl CpuPool {
    /// A pool of `cores` host logical cores (SMT-aware LZ4 capacity).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn host(name: &'static str, cores: usize) -> Self {
        CpuPool {
            pool: ServerPool::new(name, cores),
            lz4_rate_total: cpu_lz4_capacity(cores),
            cores,
            slowdown: 1.0,
        }
    }

    /// The BlueField-2 Arm complex: 8 wimpy cores (§3.4).
    pub fn bf2_arm(name: &'static str, cores: usize) -> Self {
        CpuPool {
            pool: ServerPool::new(name, cores),
            lz4_rate_total: cpu_lz4_capacity(cores) / BF2_ARM_SLOWDOWN,
            cores,
            slowdown: BF2_ARM_SLOWDOWN,
        }
    }

    /// Number of cores in the pool.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Per-core software LZ4 rate (total capacity / cores), bytes/s.
    fn lz4_rate_per_core(&self) -> f64 {
        self.lz4_rate_total / self.cores as f64
    }

    /// Service time of one unit of `work` on one core.
    pub fn service_time(&self, work: CpuWork) -> Time {
        let base = match work {
            CpuWork::ParseHeader => HEADER_PARSE,
            CpuWork::PostVerb => VERB_POST,
            CpuWork::Compress(bytes) => {
                transfer_time(bytes as u64, self.lz4_rate_per_core())
            }
            CpuWork::Decompress(bytes) => transfer_time(
                bytes as u64,
                self.lz4_rate_per_core() * CPU_LZ4_DECOMP_FACTOR,
            ),
            // Byte-rate service work is charged at host-core rates here and
            // scaled by `slowdown` below, so Arm pools run it 2.5× slower.
            CpuWork::DedupScan(bytes) => transfer_time(bytes as u64, CPU_DEDUP_BW),
            CpuWork::Crypt(bytes) => transfer_time(bytes as u64, CPU_CRYPT_BW),
            CpuWork::CacheLookup => CACHE_LOOKUP,
        };
        match work {
            // LZ4 rates already include the slowdown via lz4_rate_total.
            CpuWork::Compress(_) | CpuWork::Decompress(_) => base,
            _ => base * self.slowdown,
        }
    }

    /// Submits `work`; see [`ServerPool::submit`].
    #[inline]
    pub fn submit(&mut self, now: Time, work: CpuWork, token: u64) -> Option<JobStart> {
        self.pool.submit(now, self.service_time(work), token)
    }

    /// Completes the oldest running job; see [`ServerPool::complete`].
    #[inline]
    pub fn complete(&mut self, now: Time) -> Option<JobStart> {
        self.pool.complete(now)
    }

    /// Cores currently busy.
    pub fn busy(&self) -> usize {
        self.pool.busy()
    }

    /// Jobs waiting for a core.
    #[inline]
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }

    /// Cumulative busy time (utilization accounting).
    pub fn busy_time(&self) -> Time {
        self.pool.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::gbps;

    #[test]
    fn smartds_engine_processes_4k_at_100g() {
        let e = CompressEngine::smartds("e");
        let t = e.service_time(4096);
        // 4096 B at 12.5 GB/s ≈ 0.33 µs + 0.1 µs setup: the engine accepts
        // blocks at line rate (pipeline latency is charged separately).
        assert!((0.38..0.5).contains(&t.as_us()), "{t}");
    }

    #[test]
    fn bf2_engine_is_2_5x_slower() {
        let fast = CompressEngine::smartds("a").service_time(1 << 20);
        let slow = CompressEngine::bf2("b").service_time(1 << 20);
        let ratio = slow.as_ps() as f64 / fast.as_ps() as f64;
        assert!((2.3..2.6).contains(&ratio), "{ratio}");
    }

    #[test]
    fn engine_queues_blocks_fifo() {
        let mut e = CompressEngine::smartds("e");
        let s1 = e.submit(Time::ZERO, 4096, 1).unwrap();
        assert!(e.submit(Time::ZERO, 4096, 2).is_none());
        let s2 = e.complete(s1.finish_at).unwrap();
        assert_eq!(s2.token, 2);
        assert_eq!(e.jobs_done(), 1);
    }

    #[test]
    fn host_cpu_compression_rate_anchored() {
        // One core compresses a 4 KiB block at 2.1 Gbps → ~15.6 µs.
        let p = CpuPool::host("cpu", 1);
        let t = p.service_time(CpuWork::Compress(4096));
        assert!((14.0..17.0).contains(&t.as_us()), "{t}");
        // Decompression is 7× faster.
        let d = p.service_time(CpuWork::Decompress(4096));
        assert!((t.as_ps() as f64 / d.as_ps() as f64 - 7.0).abs() < 0.1);
    }

    #[test]
    fn smt_reduces_per_core_rate() {
        let lo = CpuPool::host("a", 24).lz4_rate_per_core();
        let hi = CpuPool::host("b", 48).lz4_rate_per_core();
        assert!((lo - gbps(2.1)).abs() < 1.0);
        assert!((hi - gbps(1.35)).abs() < 1.0);
    }

    #[test]
    fn arm_cores_are_slower_at_control_work() {
        let host = CpuPool::host("h", 8).service_time(CpuWork::ParseHeader);
        let arm = CpuPool::bf2_arm("a", 8).service_time(CpuWork::ParseHeader);
        assert!(arm > host * 2);
    }
}
