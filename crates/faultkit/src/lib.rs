//! # faultkit — seed-deterministic fault injection
//!
//! The middle tier of a disaggregated block store must keep serving while
//! replicas crash, links flap, and packets vanish. This crate is the
//! *adversary* for that claim: a zero-dependency fault-injection subsystem
//! whose every decision is a pure function of a seed, so a chaos run that
//! finds a bug replays byte-identically.
//!
//! Two layers:
//!
//! * [`plan`] — **timed fault schedules**. A [`FaultPlan`] is an ordered
//!   list of [`FaultEvent`]s (storage-server crash/restart, slow-replica
//!   stalls, link down/up and bandwidth degradation, rack-fabric link
//!   degradation) built either
//!   explicitly with [`FaultPlan::at`] or drawn from a seed with
//!   [`FaultPlan::chaos`]. The cluster driver maps each event onto its
//!   discrete-event queue, so faults interleave with regular traffic in
//!   FIFO timestamp order and the whole run stays reproducible.
//! * [`packet`] — **per-packet adversaries**. [`packet::PacketChaos`]
//!   deterministically drops/duplicates packets (with a bounded
//!   consecutive-drop run so progress is always possible), used to drive
//!   the `rocenet` RC state machines through NAK/retransmit recovery.
//!
//! Nothing here mutates a system directly: faultkit only *describes*
//! faults. The interpretation — flipping a `StorageServer`'s alive bit,
//! scaling a `FluidResource`'s capacity — belongs to the layer that owns
//! the faulted object, which keeps this crate dependency-light and the
//! fault taxonomy reusable across the cluster simulation, protocol tests,
//! and the bench sweeps. Under the sharded engine
//! (`simkit::ShardedSim`) that ownership is per shard: the cluster
//! driver schedules a server-targeted [`FaultEvent`] on both the hub
//! shard (placement health, tracing) and the owning store shard (alive
//! bit, disk slow factor) at the same timestamp, so fault delivery stays
//! deterministic — and byte-identical — at every worker-thread count.
//!
//! # Examples
//!
//! ```
//! use faultkit::{ChaosSpec, FaultKind, FaultPlan};
//! use simkit::Time;
//!
//! // Explicit schedule: crash server 2 at 4 ms, bring it back at 8 ms.
//! let plan = FaultPlan::new()
//!     .at(Time::from_ms(4.0), FaultKind::ServerCrash { server: 2 })
//!     .at(Time::from_ms(8.0), FaultKind::ServerRestart { server: 2 });
//! assert_eq!(plan.events().len(), 2);
//!
//! // Seeded chaos: same seed, same plan — byte-identical trace.
//! let spec = ChaosSpec::new(Time::from_ms(2.0), Time::from_ms(10.0));
//! let a = FaultPlan::chaos(7, &spec);
//! let b = FaultPlan::chaos(7, &spec);
//! assert_eq!(a.trace(), b.trace());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod packet;
pub mod plan;

pub use packet::{PacketChaos, PacketFate};
pub use plan::{ChaosSpec, FaultEvent, FaultKind, FaultPlan, LinkTarget};
