//! Calibration constants, each anchored to a specific statement in the
//! SmartDS paper (section references in the doc comments).
//!
//! These are the *only* numbers the reproduction takes from the paper's
//! testbed; everything else (throughput curves, latency distributions,
//! crossovers) emerges from the models that consume them.

use simkit::{gbps, Time};

// ---------------------------------------------------------------------------
// Host platform (§5.1: 2× Xeon Silver 4214, 8×32 GiB DDR4-2400, 16 MiB LLC)
// ---------------------------------------------------------------------------

/// Logical cores per middle-tier server (2 sockets × 12 phys × 2 SMT).
pub const HOST_LOGICAL_CORES: usize = 48;
/// Physical cores per middle-tier server.
const HOST_PHYSICAL_CORES: usize = 24;
/// Achievable host memory bandwidth, bytes/s (§3.1.2: "around 120 GB/s").
pub const HOST_MEM_BW: f64 = 120e9;
/// Theoretical host memory bandwidth (§5.5: 1228 Gbps from eight channels).
pub const HOST_MEM_BW_THEORETICAL: f64 = 153.6e9;
/// Last-level cache capacity (§3.1.2).
const LLC_BYTES: u64 = 16 << 20;
/// LLC ways available to DDIO out of the total (§3.1.2: 2 of 11 ways).
const DDIO_WAYS: u32 = 2;
/// Total LLC ways.
const LLC_WAYS: u32 = 11;

/// DDIO-reachable LLC capacity in bytes.
pub const fn ddio_capacity() -> u64 {
    LLC_BYTES / LLC_WAYS as u64 * DDIO_WAYS as u64
}

/// Average lifetime of the middle tier's intermediate buffers (§3.2:
/// "around 32 ms"), which by Little's law forces a ~400 MB working set that
/// defeats DDIO for payload traffic.
pub const INTERMEDIATE_BUFFER_LIFETIME: Time = Time::from_ps(32_000_000_000);

// ---------------------------------------------------------------------------
// Software compression (§5.2, LZ4 on the Xeon 4214)
// ---------------------------------------------------------------------------

/// LZ4 software compression throughput of one logical core with its SMT
/// sibling idle (§5.2: "~2.1 Gbps for one logical core").
const CPU_LZ4_SOLO: f64 = gbps(2.1);
/// Combined LZ4 throughput of the two SMT threads of one physical core
/// (§5.2: "~2.7 Gbps for two logical cores of the same hardware core").
const CPU_LZ4_SMT_PAIR: f64 = gbps(2.7);
/// Software LZ4 *decompression* is ~7× faster than compression (§2.2.3).
pub const CPU_LZ4_DECOMP_FACTOR: f64 = 7.0;
/// Host CPU time to parse a block-storage header and make the placement /
/// compression decision (well under a microsecond of branchy pointer work).
/// Calibrated so two host cores drive one SmartDS port at full rate (§5.5).
pub const HEADER_PARSE: Time = Time::from_ps(250_000);
/// Host CPU time to post one work descriptor / reap one completion
/// (doorbell write + cache-line bookkeeping, with completion coalescing).
pub const VERB_POST: Time = Time::from_ps(150_000);

/// Total software LZ4 capacity of `n` busy logical cores, accounting for
/// SMT pairing: the scheduler fills distinct physical cores first (each at
/// the solo rate), then SMT siblings add only the pair increment.
pub fn cpu_lz4_capacity(n: usize) -> f64 {
    let phys = n.min(HOST_PHYSICAL_CORES);
    let smt = n.saturating_sub(HOST_PHYSICAL_CORES).min(HOST_PHYSICAL_CORES);
    phys as f64 * CPU_LZ4_SOLO + smt as f64 * (CPU_LZ4_SMT_PAIR - CPU_LZ4_SOLO)
}

// ---------------------------------------------------------------------------
// PCIe (§3.1.3, Table 1)
// ---------------------------------------------------------------------------

/// Achievable PCIe 3.0×16 bandwidth, bytes/s (§3.1.3: "around 104 Gbps").
pub const PCIE3_X16_BW: f64 = gbps(104.0);
/// Base (unloaded) DMA latency through PCIe, each direction.
/// Table 1: 1.4 µs under-loaded for a small DMA; ~0.3 µs of that is the
/// 4 KiB serialization, the rest is propagation + root-complex overhead.
pub const PCIE_PROPAGATION: Time = Time::from_ps(1_100_000);
/// Concurrent background DMA read streams reproducing Table 1's
/// "heavily loaded" H2D latency (11.3 µs).
pub const PCIE_HEAVY_H2D_STREAMS: usize = 31;
/// Concurrent background DMA write streams reproducing Table 1's
/// "heavily loaded" D2H latency (6.6 µs).
pub const PCIE_HEAVY_D2H_STREAMS: usize = 16;

// ---------------------------------------------------------------------------
// Networking (§5.1: ConnectX-5 / VCU128 ports, RoCE)
// ---------------------------------------------------------------------------

/// Raw line rate of one 100 GbE port, bytes/s.
pub const PORT_100G: f64 = gbps(100.0);
/// RoCE MTU used for segmentation (bytes of payload per wire packet).
pub const ROCE_MTU: usize = 4096;
/// Per-packet wire overhead: preamble+IFG (20) + Ethernet (18) + IPv4 (20)
/// + UDP (8) + BTH (12) + ICRC (4).
pub const WIRE_OVERHEAD_PER_PKT: usize = 82;
/// One-way propagation + switching latency inside the rack.
pub const NET_PROPAGATION: Time = Time::from_ps(1_500_000);

// ---------------------------------------------------------------------------
// SmartDS device (§4.2, §5.1: VCU128, HBM, per-port engines)
// ---------------------------------------------------------------------------

/// HBM capacity on the VCU128 (8 GB).
pub const HBM_BYTES: u64 = 8 << 30;
/// HBM bandwidth (§4.2: "up to 3.4 Tbps" over 16 channels), bytes/s.
pub const HBM_BW: f64 = gbps(3_400.0);
/// Throughput of one SmartDS hardware LZ4 engine (§5.1: "each compression
/// engine can process 4 KB data blocks at the rate of 100 Gbps").
pub const FPGA_ENGINE_BW: f64 = gbps(100.0);
/// Per-block engine descriptor/setup cost (serialized with the data).
pub const ENGINE_BLOCK_SETUP: Time = Time::from_ps(100_000);
/// Pipeline-fill latency of the FPGA LZ4 engines (Acc and SmartDS). The
/// engines sustain 100 Gbps but, clocked far below a CPU, a block takes
/// this long to emerge (§5.2: Acc's "processing latency is higher than the
/// CPU due to its significantly lower frequency").
pub const FPGA_ENGINE_PIPELINE: Time = Time::from_ps(16_000_000);
/// Pipeline latency of the BF2's hard-IP compression engine (an ASIC block,
/// much shallower than the FPGA pipelines).
pub const SOC_ENGINE_PIPELINE: Time = Time::from_ps(2_000_000);
/// Maximum networking ports on the VCU128 prototype (§4.2: 6×100 Gbps).
pub const SMARTDS_MAX_PORTS: usize = 6;
/// Host CPU cores needed per SmartDS networking port (§5.5).
pub const SMARTDS_CORES_PER_PORT: usize = 2;

// ---------------------------------------------------------------------------
// BlueField-2 baseline (§3.4, §5.1)
// ---------------------------------------------------------------------------

/// BF2 compression engine throughput (§3.4: "~40 Gbps"), bytes/s.
pub const BF2_ENGINE_BW: f64 = gbps(40.0);
/// BF2 Arm cores (8× Cortex-A72).
pub const BF2_ARM_CORES: usize = 8;
/// Relative speed of a BF2 Arm core vs a host Xeon core on header-parse /
/// verb-post work (wimpy cores, lower clock, smaller caches).
pub const BF2_ARM_SLOWDOWN: f64 = 2.5;
/// BF2 networking ports (2×100 GbE).
pub const BF2_PORTS: usize = 2;
/// Achievable BF2 device-DRAM bandwidth, bytes/s (§3.4 analysis scaled to
/// BF2's two DDR4 channels: ~0.7 × theoretical ≈ 200 Gbps usable).
pub const BF2_DEVMEM_BW: f64 = gbps(200.0);
/// Device-memory traffic amplification of the middle-tier dataflow on a
/// SoC SmartNIC (§3.4: "around 3.5× in reality").
pub const SOC_DEVMEM_AMPLIFICATION: f64 = 3.5;

// ---------------------------------------------------------------------------
// Data services (dedup scan, XTS encryption, hot-block cache) — §3-style
// placement analysis: the same service runs on host cores, the SmartNIC's
// Arm complex, or a BF2-class fixed-function engine.
// ---------------------------------------------------------------------------

/// Software content-defined-chunking + fingerprint scan rate of one host
/// core (memory-bound rolling hash over every payload byte; anchored to
/// published gear-CDC figures of ~1.5 GB/s/core).
pub const CPU_DEDUP_BW: f64 = gbps(12.0);
/// Software XTS-AES rate of one host core with AES-NI (~2 GB/s/core).
pub const CPU_CRYPT_BW: f64 = gbps(16.0);
/// BF2-class inline dedup/hash engine rate (hard IP beside the DMA path).
pub const SVC_ENGINE_DEDUP_BW: f64 = gbps(50.0);
/// BF2-class inline crypto engine rate (§3.4-class hard IP; ConnectX/BF2
/// data sheets quote near-line-rate AES-XTS for bulk streams).
pub const SVC_ENGINE_CRYPT_BW: f64 = gbps(60.0);
/// Fixed pipeline-fill latency of the inline service engines (ASIC blocks,
/// same depth class as the BF2 compression engine).
pub const SVC_ENGINE_PIPELINE: Time = SOC_ENGINE_PIPELINE;
/// CPU time for one hot-block cache index probe + LRU bookkeeping (a few
/// pointer chases in a tree resident in the middle tier's DRAM).
pub const CACHE_LOOKUP: Time = Time::from_ps(180_000);

// ---------------------------------------------------------------------------
// Workload & protocol (§2)
// ---------------------------------------------------------------------------

/// Data block size carried by one write request (§2.2.1: "usually 4 KB").
pub const BLOCK_SIZE: usize = 4096;
/// Block-storage header size (§4: "a small part (e.g., 64 bytes)").
pub const HEADER_SIZE: usize = 64;
/// Replication factor for writes (§2.1: "usually three").
pub const REPLICATION: usize = 3;
/// Write:read request ratio in production (§2.2.3: "around 5×").
pub const WRITE_READ_RATIO: f64 = 5.0;
/// Storage-server NVMe-class access latency (§1: "tens of microseconds").
pub const DISK_ACCESS: Time = Time::from_ps(20_000_000);
/// Storage-server append bandwidth per disk, bytes/s.
pub const DISK_BW: f64 = 4e9;

// ---------------------------------------------------------------------------
// Memory-pressure injector (Intel MLC stand-in, §3.1.2 / Fig. 4)
// ---------------------------------------------------------------------------

/// Host CPU frequency used to convert MLC delay cycles to time.
const HOST_FREQ_HZ: f64 = 2.2e9;
/// Cache line size (bytes moved per MLC injected request).
const CACHE_LINE: usize = 64;
/// Issue cost in cycles of one MLC request at zero configured delay. MLC's
/// bandwidth mode keeps many misses outstanding per thread, so a single
/// core streams ~10 GB/s; 16 injector cores alone can saturate the memory
/// system, as §5.3 requires.
const MLC_BASE_CYCLES: f64 = 14.0;
/// Fair-share weight of one MLC thread relative to one in-flight I/O DMA
/// burst. MLC threads keep deeper miss queues than a DMA channel slot, so
/// they press harder per thread. Fit to Figure 4's ~46 % residual RDMA
/// throughput under full pressure.
pub const MLC_THREAD_WEIGHT: f64 = 1.5;
/// Concurrent host-memory bursts the middle tier's I/O path keeps in
/// flight (NIC DMA engine + line-fill buffers act as one bounded memory
/// agent). This bound is what lets background pressure squeeze the I/O
/// path at all — an unbounded agent would always claw back its demand in a
/// max-min-fair memory system. Fit to Figure 9's interference magnitudes.
pub const IO_MEM_WINDOW: usize = 2;

/// Per-core MLC demand rate (bytes/s) for a configured inter-request delay
/// in cycles. Zero delay is the maximum-pressure setting of Figure 4.
pub fn mlc_core_demand(delay_cycles: u32) -> f64 {
    CACHE_LINE as f64 * HOST_FREQ_HZ / (MLC_BASE_CYCLES + delay_cycles as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::to_gbps;

    #[test]
    fn ddio_capacity_is_about_3_mb() {
        let c = ddio_capacity();
        assert!((2_900_000..3_100_000).contains(&c), "{c}");
    }

    #[test]
    fn cpu_capacity_matches_paper_anchors() {
        // One logical core: 2.1 Gbps.
        assert!((to_gbps(cpu_lz4_capacity(1)) - 2.1).abs() < 1e-9);
        // Two logical cores land on separate physical cores: 4.2 Gbps.
        assert!((to_gbps(cpu_lz4_capacity(2)) - 4.2).abs() < 1e-9);
        // All 48: 24 SMT pairs at 2.7 Gbps each = 64.8 Gbps.
        assert!((to_gbps(cpu_lz4_capacity(48)) - 64.8).abs() < 1e-9);
        // Monotone in n.
        let mut prev = 0.0;
        for n in 1..=48 {
            let c = cpu_lz4_capacity(n);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn mlc_demand_saturates_memory_at_zero_delay() {
        let total = 48.0 * mlc_core_demand(0);
        // All-core zero-delay pressure meets or exceeds achievable BW.
        assert!(total >= HOST_MEM_BW, "total={}", total);
        // And demand decreases with delay.
        assert!(mlc_core_demand(100) < mlc_core_demand(0));
        assert!(mlc_core_demand(2000) < mlc_core_demand(100));
    }

    #[test]
    fn wire_efficiency_close_to_97_percent() {
        let eff = ROCE_MTU as f64 / (ROCE_MTU + WIRE_OVERHEAD_PER_PKT) as f64;
        assert!((0.96..0.99).contains(&eff), "{eff}");
    }
}
