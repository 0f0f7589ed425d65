//! **Figure 4**: one-sided RDMA forwarding throughput under memory pressure.
//!
//! §3.1.2's micro-benchmark: a client streams 4 MiB RDMA messages through a
//! server that forwards them back out, while Intel MLC on all 48 cores
//! injects memory requests with a configurable inter-request delay. Every
//! forwarded byte crosses host memory twice (DMA write in, DMA read out),
//! so as MLC demand rises the NIC's fair share of the ~120 GB/s memory
//! system collapses — to ~46 % of solo throughput at zero delay in the
//! paper.

use hwmodel::{wire_bytes, HostMemory, MemClass, MlcInjector, NicPort};
use simkit::{FlowSpec, FluidResource, Meter, Scheduler, Simulation, Time, WakeSet, World};

/// RDMA message size used by the paper (4 MiB).
pub const MSG_BYTES: usize = 4 << 20;
/// Concurrent DMA transfers the NIC keeps in flight (one-sided RDMA engines
/// have a bounded outstanding-read window; calibrated so zero-delay pressure
/// lands near the paper's ~46 %).
pub const OUTSTANDING: usize = 8;

/// One sweep point of Figure 4.
#[derive(Copy, Clone, Debug)]
pub struct Fig4Point {
    /// MLC inter-request delay in cycles (0 = maximum pressure).
    pub delay_cycles: u32,
    /// Achieved RDMA forwarding goodput, Gbps.
    pub rdma_gbps: f64,
    /// Achieved MLC bandwidth, GB/s.
    pub mlc_gbs: f64,
}

#[derive(Copy, Clone, Debug, PartialEq)]
enum Stage {
    /// Wire in + DMA write to memory.
    Ingress,
    /// DMA read from memory + wire out.
    Egress,
}

#[derive(Debug)]
enum Ev {
    /// Arms the first wake of every fluid.
    Start,
    Wake(usize, u64, u64), // fluid index, epoch, coalescer serial
    Warmup,
    End,
}

struct Fwd {
    mem: HostMemory,
    port: NicPort,
    stage: Vec<Stage>,
    remaining: Vec<u8>,
    meter: Meter,
    /// Wakeup driver over the three fluids (indexed by `F_MEM`/`F_RX`/
    /// `F_TX`): at most one armed heap entry each, schedule-equivalent to
    /// the push-per-batch driver (see [`simkit::wake`]).
    wakes: WakeSet,
}

const F_MEM: usize = 0;
const F_RX: usize = 1;
const F_TX: usize = 2;

/// Fluid `i` of the forwarder.
fn fluid<'a>(mem: &'a HostMemory, port: &'a NicPort, i: usize) -> &'a FluidResource {
    match i {
        F_MEM => &mem.fluid,
        F_RX => &port.rx,
        F_TX => &port.tx,
        _ => unreachable!("unknown fluid"),
    }
}

impl Fwd {
    fn fluid_mut(&mut self, i: usize) -> &mut FluidResource {
        match i {
            F_MEM => &mut self.mem.fluid,
            F_RX => &mut self.port.rx,
            F_TX => &mut self.port.tx,
            _ => unreachable!("unknown fluid"),
        }
    }

    fn start_stage(&mut self, slot: usize, now: Time) {
        self.start_stage_sized(slot, now, MSG_BYTES);
    }

    /// Starts a stage with an explicit size; initial stages are started
    /// partially complete to desynchronise the slots (a store-and-forward
    /// pipeline in perfect lockstep would idle each direction half the
    /// time, which real NIC DMA pipelines do not).
    fn start_stage_sized(&mut self, slot: usize, now: Time, bytes: usize) {
        let token = slot as u64;
        self.remaining[slot] = 2;
        match self.stage[slot] {
            Stage::Ingress => {
                self.port.rx.start_flow(
                    now,
                    wire_bytes(bytes) as f64,
                    FlowSpec::new(),
                    token,
                );
                self.mem.fluid.start_flow(
                    now,
                    bytes as f64,
                    FlowSpec::new().class(MemClass::Write as u8),
                    token,
                );
            }
            Stage::Egress => {
                self.port.tx.start_flow(
                    now,
                    wire_bytes(bytes) as f64,
                    FlowSpec::new(),
                    token,
                );
                self.mem.fluid.start_flow(
                    now,
                    bytes as f64,
                    FlowSpec::new().class(MemClass::Read as u8),
                    token,
                );
            }
        }
        for i in [F_MEM, F_RX, F_TX] {
            self.wakes.touch(i);
        }
    }
}

impl World for Fwd {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Start => {}
            Ev::Wake(i, epoch, serial) => {
                let current = fluid(&self.mem, &self.port, i).epoch();
                if !self.wakes.deliver(sched, i, epoch, serial, current, Ev::Wake) {
                    return;
                }
                let now = sched.now();
                let f = self.fluid_mut(i);
                f.sync(now);
                let done = f.take_completed();
                self.wakes.touch(i);
                for end in done {
                    if end.token == u64::MAX {
                        continue;
                    }
                    let slot = end.token as usize;
                    self.remaining[slot] -= 1;
                    if self.remaining[slot] == 0 {
                        match self.stage[slot] {
                            Stage::Ingress => {
                                self.stage[slot] = Stage::Egress;
                                self.start_stage(slot, now);
                            }
                            Stage::Egress => {
                                self.meter.add(now, MSG_BYTES as f64);
                                self.stage[slot] = Stage::Ingress;
                                self.start_stage(slot, now);
                            }
                        }
                    }
                }
            }
            Ev::Warmup => {
                self.meter.reset(sched.now());
            }
            Ev::End => sched.stop(),
        }
        let (mem, port) = (&self.mem, &self.port);
        self.wakes.arm(sched, |i| fluid(mem, port, i), Ev::Wake);
    }
}

/// Simulates one Figure 4 point.
pub fn point(delay_cycles: u32, mlc_cores: usize) -> Fig4Point {
    let mut world = Fwd {
        mem: HostMemory::new(),
        port: NicPort::new("fwd-tx", "fwd-rx"),
        stage: vec![Stage::Ingress; OUTSTANDING],
        remaining: vec![0; OUTSTANDING],
        meter: Meter::new(),
        wakes: WakeSet::new(3),
    };
    let mut mlc = MlcInjector::new(mlc_cores, delay_cycles);
    mlc.start(&mut world.mem, Time::ZERO);
    for slot in 0..OUTSTANDING {
        // Stagger: slot i starts (i+1)/K of the way through its transfer.
        let initial = MSG_BYTES * (slot + 1) / OUTSTANDING;
        world.start_stage_sized(slot, Time::ZERO, initial.max(1));
    }
    let warmup = Time::from_ms(5.0);
    let end = Time::from_ms(25.0);
    let mut sim = Simulation::new(world);
    sim.schedule_at(Time::ZERO, Ev::Start);
    sim.schedule_at(warmup, Ev::Warmup);
    sim.schedule_at(end, Ev::End);
    let mlc_bytes_at_warmup = {
        sim.run_until(warmup);
        // No discrete event remains before `warmup`, so advancing the fluid
        // state to the boundary is exact.
        sim.world_mut().mem.fluid.sync(warmup);
        sim.world().mem.bytes(MemClass::Background)
    };
    sim.run();
    let world = sim.world_mut();
    world.mem.fluid.sync(end);
    let rdma = world.meter.rate_gbps(end);
    let mlc_moved = world.mem.bytes(MemClass::Background) - mlc_bytes_at_warmup;
    Fig4Point {
        delay_cycles,
        rdma_gbps: rdma,
        mlc_gbs: mlc_moved / (end - warmup).as_secs() / 1e9,
    }
}

/// The delay sweep of Figure 4 (0 = maximum pressure, rightmost points are
/// nearly idle).
pub const DELAYS: [u32; 9] = [0, 16, 32, 48, 56, 64, 96, 256, 1024];

/// Runs the full Figure 4 sweep (plus a no-MLC solo baseline) and prints the
/// series the paper plots.
pub fn run() -> (f64, Vec<Fig4Point>) {
    let solo = {
        // Pressure-free baseline: one idle MLC core with a huge delay.
        let p = point(u32::MAX, 1);
        p.rdma_gbps
    };
    println!("Figure 4: RDMA forwarding under MLC memory pressure");
    println!("  solo RDMA (no pressure): {solo:.1} Gbps");
    println!("  {:>12} {:>12} {:>12} {:>8}", "delay(cyc)", "RDMA(Gbps)", "MLC(GB/s)", "of solo");
    let points: Vec<Fig4Point> = crate::pool::run_parallel(DELAYS.to_vec(), |&d| point(d, 48));
    for p in &points {
        println!(
            "  {:>12} {:>12.1} {:>12.1} {:>7.0}%",
            p.delay_cycles,
            p.rdma_gbps,
            p.mlc_gbs,
            p.rdma_gbps / solo * 100.0
        );
    }
    (solo, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_forwarding_near_line_rate() {
        let p = point(u32::MAX, 1);
        assert!(
            (90.0..99.0).contains(&p.rdma_gbps),
            "solo {:.1} Gbps",
            p.rdma_gbps
        );
    }

    #[test]
    fn max_pressure_cuts_throughput_to_about_46_percent() {
        let solo = point(u32::MAX, 1).rdma_gbps;
        let loaded = point(0, 48);
        let frac = loaded.rdma_gbps / solo;
        // Paper: "~46% of the achieved bandwidth without interference".
        assert!(
            (0.35..0.60).contains(&frac),
            "loaded fraction {frac:.2} (solo {solo:.1}, loaded {:.1})",
            loaded.rdma_gbps
        );
        // And MLC itself achieves most of the memory system.
        assert!(loaded.mlc_gbs > 80.0, "mlc {:.1} GB/s", loaded.mlc_gbs);
    }

    #[test]
    fn throughput_recovers_with_delay() {
        let a = point(0, 48).rdma_gbps;
        let b = point(56, 48).rdma_gbps;
        let c = point(512, 48).rdma_gbps;
        assert!(a < b && b < c, "monotone recovery: {a:.1} {b:.1} {c:.1}");
    }
}
