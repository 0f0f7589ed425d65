//! Host memory system with a DDIO/LLC occupancy model.
//!
//! The memory subsystem is a single [`FluidResource`] (DDR channels share
//! one schedulable bandwidth pool) whose flows are tagged by
//! [`MemClass`] so experiments can report read and write bandwidth
//! separately, exactly as Figure 8a does.
//!
//! The [`Ddio`] model decides how much of a device's DMA traffic actually
//! reaches DRAM. Intel DDIO lets device writes allocate into 2 of the 11
//! LLC ways and device reads hit the LLC: when the producer→consumer working
//! set fits in that ~2.9 MiB, payloads bounce through the cache and memory
//! sees (almost) nothing; when the working set is the middle tier's ~400 MB
//! intermediate buffer (32 ms lifetime × 100 Gbps, §3.2), everything spills.

use crate::consts::{ddio_capacity, HOST_MEM_BW};
use simkit::{FlowId, FlowSpec, FluidResource, Time};

/// Accounting class for memory flows.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemClass {
    /// Application/device reads from DRAM.
    Read = 0,
    /// Application/device writes to DRAM.
    Write = 1,
    /// Background pressure (the MLC injector).
    Background = 2,
}

/// The host DRAM subsystem.
#[derive(Debug)]
pub struct HostMemory {
    /// The shared-bandwidth pool. Public so the simulation driver can wire
    /// wakeups; prefer [`HostMemory::transfer`] for starting flows.
    pub fluid: FluidResource,
}

impl HostMemory {
    /// A host memory system at the paper's achievable ~120 GB/s.
    pub fn new() -> Self {
        HostMemory {
            fluid: FluidResource::new("host-mem", HOST_MEM_BW),
        }
    }

    /// Starts a memory transfer of `bytes` in class `class`.
    pub fn transfer(
        &mut self,
        now: Time,
        bytes: f64,
        class: MemClass,
        token: u64,
    ) -> FlowId {
        self.fluid
            .start_flow(now, bytes, FlowSpec::new().class(class as u8), token)
    }

    /// Cumulative bytes moved in `class`.
    pub fn bytes(&self, class: MemClass) -> f64 {
        self.fluid.bytes_for_class(class as u8)
    }
}

impl Default for HostMemory {
    fn default() -> Self {
        Self::new()
    }
}

/// The Data-Direct-I/O model: decides what fraction of DMA traffic is
/// absorbed by the LLC instead of DRAM.
#[derive(Copy, Clone, Debug)]
pub struct Ddio {
    enabled: bool,
    capacity: u64,
}

impl Ddio {
    /// DDIO enabled with the platform's 2-of-11-way capacity.
    pub fn enabled() -> Self {
        Ddio {
            enabled: true,
            capacity: ddio_capacity(),
        }
    }

    /// DDIO disabled (the paper's "w/o DDIO" ablation): all DMA goes to DRAM.
    pub fn disabled() -> Self {
        Ddio {
            enabled: false,
            capacity: 0,
        }
    }

    /// DDIO-reachable LLC bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Fraction of device *reads* served from the LLC, given the working-set
    /// size between the producing DMA write and this read. 1.0 means memory
    /// sees no read traffic.
    fn read_hit_fraction(&self, working_set: u64) -> f64 {
        if !self.enabled || working_set == 0 {
            return if self.enabled { 1.0 } else { 0.0 };
        }
        (self.capacity as f64 / working_set as f64).min(1.0)
    }

    /// Fraction of device *writes* that are eventually evicted to DRAM,
    /// given the working set they live in before being consumed/retired.
    ///
    /// Even with DDIO, data parked longer than the cache can hold spills:
    /// the middle tier keeps payloads ~32 ms for compaction (§2.2.3), so its
    /// payload writes always reach DRAM.
    pub fn write_evict_fraction(&self, working_set: u64) -> f64 {
        1.0 - self.read_hit_fraction(working_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::INTERMEDIATE_BUFFER_LIFETIME;
    use simkit::gbps;

    #[test]
    fn classes_are_metered_independently() {
        let mut m = HostMemory::new();
        m.transfer(Time::ZERO, 1e6, MemClass::Read, 1);
        m.transfer(Time::ZERO, 2e6, MemClass::Write, 2);
        m.fluid.sync(Time::from_ms(1.0));
        assert!((m.bytes(MemClass::Read) - 1e6).abs() < 1.0);
        assert!((m.bytes(MemClass::Write) - 2e6).abs() < 1.0);
        assert_eq!(m.bytes(MemClass::Background), 0.0);
    }

    #[test]
    fn small_working_set_hits_llc() {
        let d = Ddio::enabled();
        // A few in-flight 4 KiB requests fit easily.
        assert_eq!(d.read_hit_fraction(64 * 4096), 1.0);
        assert_eq!(d.write_evict_fraction(64 * 4096), 0.0);
    }

    #[test]
    fn middle_tier_working_set_defeats_ddio() {
        let d = Ddio::enabled();
        // §3.2: 100 Gbps × 32 ms ≈ 400 MB working set.
        let ws = (gbps(100.0) * INTERMEDIATE_BUFFER_LIFETIME.as_secs()) as u64;
        assert!(ws > 390_000_000 && ws < 410_000_000, "ws={ws}");
        assert!(d.read_hit_fraction(ws) < 0.01);
        assert!(d.write_evict_fraction(ws) > 0.99);
    }

    #[test]
    fn disabled_ddio_sends_everything_to_dram() {
        let d = Ddio::disabled();
        assert_eq!(d.read_hit_fraction(4096), 0.0);
        assert_eq!(d.write_evict_fraction(4096), 1.0);
    }

    #[test]
    fn zero_working_set_edge() {
        assert_eq!(Ddio::enabled().read_hit_fraction(0), 1.0);
        assert_eq!(Ddio::disabled().read_hit_fraction(0), 0.0);
    }
}
