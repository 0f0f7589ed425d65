//! Memory-pressure injector standing in for the Intel Memory Latency
//! Checker (MLC) tool used in §3.1.2 and §5.3.
//!
//! MLC pins threads that issue back-to-back memory requests with a
//! configurable inter-request delay (in core cycles). We model the injector
//! as one persistent memory flow whose rate cap equals the cores' aggregate
//! demand at that delay and whose fair-share weight equals the thread count
//! — so under contention it pushes exactly like that many competing cores.

use crate::consts::{mlc_core_demand, MLC_THREAD_WEIGHT};
use crate::mem::{HostMemory, MemClass};
use simkit::{FlowId, FlowSpec, Time};

/// A running memory-pressure injector.
#[derive(Debug)]
pub struct MlcInjector {
    cores: usize,
    delay_cycles: u32,
    flow: Option<FlowId>,
}

impl MlcInjector {
    /// Configures an injector with `cores` threads at `delay_cycles` between
    /// requests (0 = maximum pressure, as in Figure 4's leftmost point).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, delay_cycles: u32) -> Self {
        assert!(cores > 0, "injector needs at least one core");
        MlcInjector {
            cores,
            delay_cycles,
            flow: None,
        }
    }

    /// Aggregate demand rate in bytes/s at the configured delay.
    fn demand(&self) -> f64 {
        self.cores as f64 * mlc_core_demand(self.delay_cycles)
    }

    /// Injector thread count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Starts pressing on `mem`. Idempotent per injector.
    ///
    /// # Panics
    ///
    /// Panics if already started.
    pub fn start(&mut self, mem: &mut HostMemory, now: Time) {
        assert!(self.flow.is_none(), "injector already started");
        let spec = FlowSpec::new()
            .weight(self.cores as f64 * MLC_THREAD_WEIGHT)
            .rate_cap(self.demand())
            .class(MemClass::Background as u8);
        self.flow = Some(mem.fluid.start_flow(now, f64::INFINITY, spec, u64::MAX));
    }

    /// Stops pressing.
    ///
    /// # Panics
    ///
    /// Panics if not started.
    pub fn stop(&mut self, mem: &mut HostMemory, now: Time) {
        let id = self.flow.take().expect("injector not started");
        mem.fluid.end_flow(now, id);
    }

    /// Achieved injector bandwidth over `[t0, t1]` in bytes/s (what Figure 4
    /// plots as "MLC throughput").
    pub fn achieved(mem: &HostMemory, bytes_at_t0: f64, t0: Time, t1: Time) -> f64 {
        let moved = mem.bytes(MemClass::Background) - bytes_at_t0;
        if t1 <= t0 {
            return 0.0;
        }
        moved / (t1 - t0).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::HOST_MEM_BW;

    #[test]
    fn max_pressure_demand_exceeds_memory() {
        let mlc = MlcInjector::new(48, 0);
        assert!(mlc.demand() >= HOST_MEM_BW);
    }

    #[test]
    fn delay_reduces_demand() {
        let d0 = MlcInjector::new(16, 0).demand();
        let d500 = MlcInjector::new(16, 500).demand();
        assert!(d500 < d0 / 5.0);
    }

    #[test]
    fn injector_consumes_idle_memory_fully() {
        let mut mem = HostMemory::new();
        let mut mlc = MlcInjector::new(48, 0);
        mlc.start(&mut mem, Time::ZERO);
        mem.fluid.sync(Time::from_ms(10.0));
        let achieved = MlcInjector::achieved(&mem, 0.0, Time::ZERO, Time::from_ms(10.0));
        // Alone on the memory system, the injector gets min(demand, capacity).
        let expect = mlc.demand().min(HOST_MEM_BW);
        assert!((achieved - expect).abs() / expect < 0.01, "{achieved}");
        mlc.stop(&mut mem, Time::from_ms(10.0));
        assert_eq!(mem.fluid.active_flows(), 0);
    }

    #[test]
    fn injector_squeezes_foreground_flow() {
        let mut mem = HostMemory::new();
        // Foreground: a persistent 25 GB/s-capped stream (like NIC DMA).
        let fg = mem.fluid.start_flow(
            Time::ZERO,
            f64::INFINITY,
            simkit::FlowSpec::new().rate_cap(25e9).weight(2.0),
            1,
        );
        assert_eq!(mem.fluid.flow_rate(fg), 25e9);
        let mut mlc = MlcInjector::new(48, 0);
        mlc.start(&mut mem, Time::ZERO);
        // Weighted share: 2/(2+48×1.5) × 120 GB/s ≈ 3.2 GB/s.
        let squeezed = mem.fluid.flow_rate(fg);
        assert!(
            (2.5e9..4.5e9).contains(&squeezed),
            "foreground got {squeezed:.2e}"
        );
    }

    #[test]
    #[should_panic(expected = "already started")]
    fn double_start_panics() {
        let mut mem = HostMemory::new();
        let mut mlc = MlcInjector::new(1, 0);
        mlc.start(&mut mem, Time::ZERO);
        mlc.start(&mut mem, Time::ZERO);
    }
}
