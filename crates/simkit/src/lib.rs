//! # simkit — a small deterministic discrete-event simulation engine
//!
//! `simkit` is the substrate under the SmartDS reproduction: a dependency-free
//! discrete-event core plus the resource models every middle-tier design is
//! built from.
//!
//! * [`World`] / [`Scheduler`] — the event queue. A world is a single
//!   state machine owning its model objects; events at equal timestamps
//!   fire in FIFO order, so runs are exactly reproducible.
//! * [`ShardedSim`] / [`ShardWorld`] — the one executor: conservative-
//!   lookahead parallel execution of one or more worlds, deterministic for
//!   any `SMARTDS_THREADS`. A single world runs as a one-shard engine.
//! * [`Time`] — integer-picosecond instants and durations.
//! * [`FluidResource`] — weighted max-min fair bandwidth sharing
//!   (links, PCIe, memory channels, HBM, compression engines).
//! * [`WakeSet`] — the wakeup driver for a set of fluid resources: at most
//!   one armed heap entry each, schedule-equivalent to re-arming after
//!   every event.
//! * [`ServerPool`] — k-server FIFO queues (CPU cores, Arm cores).
//! * [`Slab`] — generational slots for in-flight records, so a stale key
//!   (a late ack, a timed-out attempt's completion) never resolves.
//! * [`Histogram`] — HDR-style latency histogram (mean/p99/p999).
//! * [`Meter`] — windowed throughput meters that exclude warm-up.
//! * [`Rng`] — seedable SplitMix64 for deterministic workloads.
//!
//! # Example: two flows sharing a link inside an event loop
//!
//! ```
//! use simkit::{gbps, FlowSpec, FluidResource, Scheduler, ShardWorld, ShardedSim, Time, World};
//!
//! struct Net {
//!     link: FluidResource,
//!     done: Vec<u64>,
//! }
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Wake(u64), // fluid epoch
//! }
//!
//! impl Net {
//!     fn arm(&mut self, sched: &mut Scheduler<Ev>) {
//!         if let Some(at) = self.link.next_wake() {
//!             sched.schedule_at(at, Ev::Wake(self.link.epoch()));
//!         }
//!     }
//! }
//!
//! impl World for Net {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
//!         let Ev::Wake(epoch) = ev;
//!         if epoch != self.link.epoch() {
//!             return; // stale wakeup
//!         }
//!         self.link.sync(sched.now());
//!         for end in self.link.take_completed() {
//!             self.done.push(end.token);
//!         }
//!         self.arm(sched);
//!     }
//! }
//!
//! impl ShardWorld for Net {}
//!
//! let mut net = Net { link: FluidResource::new("nic", gbps(100.0)), done: vec![] };
//! net.link.start_flow(Time::ZERO, 4096.0, FlowSpec::new(), 1);
//! net.link.start_flow(Time::ZERO, 8192.0, FlowSpec::new(), 2);
//! let (first_wake, epoch) = (net.link.next_wake().unwrap(), net.link.epoch());
//! // One world: a one-shard engine, which never sends a message, so its
//! // lookahead is unbounded.
//! let mut sim = ShardedSim::new(vec![net], Time::MAX).with_threads(1);
//! sim.schedule_at(0, first_wake, Ev::Wake(epoch));
//! sim.run();
//! // The small flow finishes first, then the large one.
//! assert_eq!(sim.into_worlds()[0].done, vec![1, 2]);
//! ```
//!
//! (The cluster driver in the `smartds` crate shows the full wiring.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
mod engine;
mod fluid;
mod hist;
pub mod json;
mod meter;
mod rng;
pub mod sanitizer;
mod server;
pub mod shard;
mod slab;
mod time;
pub mod wake;
mod wheel;

pub use bytes::Bytes;
pub use engine::{Scheduler, World};
pub use sanitizer::ShardTag;
pub use shard::{env_threads, EngineStats, ShardWorld, ShardedSim};
pub use fluid::{FlowEnd, FlowId, FlowSpec, FluidResource};
pub use wake::WakeSet;
pub use hist::Histogram;
pub use meter::Meter;
pub use rng::Rng;
pub use server::{JobStart, ServerPool};
pub use slab::{Slab, SlotKey};
pub use time::{gbps, to_gbps, transfer_time, Time, PS_PER_MS, PS_PER_NS, PS_PER_SEC, PS_PER_US};
