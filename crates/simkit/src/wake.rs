//! Wakeup coalescing for fluid-resource drivers.
//!
//! The driving protocol (see [`FluidResource`]) re-arms a wakeup after
//! every batch that touches a resource. A naive driver pushes a heap entry
//! each time; under churn almost all of those entries are stale by the
//! time they surface (their epoch no longer matches), so the scheduler
//! heap fills with no-ops and every real event pays `O(log heap)` for
//! them.
//!
//! [`WakeSet`] is the one driver: it owns a fixed set of resources,
//! indexed `0..n`, and keeps **at most one armed heap entry per resource**
//! (the *sentinel*) plus at most one *deferred* wake that exists only as a
//! reserved FIFO sequence number. The protocol is constructed so the
//! resulting simulation is **indistinguishable** from the naive driver —
//! same deliveries, same ordering, same tie-breaks:
//!
//! - Every arm request consumes exactly one scheduler sequence number,
//!   either by pushing a real entry ([`Scheduler::schedule_at`]) or by
//!   reserving one ([`Scheduler::reserve_seq`]) for a deferred wake. The
//!   global sequence counter therefore advances exactly as it would under
//!   the naive driver, so FIFO tie-breaks between *other* events are
//!   untouched.
//! - A wake may be deferred only while it would fire at or after the
//!   sentinel (`want >= armed.at`): the sentinel always surfaces first and
//!   decides the deferred wake's fate before the scheduler could need it.
//! - A deferred wake is *dropped* only when its epoch is already behind
//!   the resource's — epochs are monotone, so its delivery would have been
//!   a guaranteed no-op. Otherwise it is materialized into the heap under
//!   its reserved sequence number ([`Scheduler::schedule_at_seq`]), landing
//!   in exactly the position the naive driver's push would have given it.
//!
//! The heap thus holds the naive driver's entries minus provably-stale
//! ones; everything that survives is delivered at the same instant with
//! the same tie-break rank. Resources are armed in ascending index order,
//! so the sequence numbers one arming pass reserves are a pure function of
//! which resources it touched.
//!
//! # Driver usage
//!
//! ```
//! use simkit::{gbps, FlowSpec, FluidResource, Scheduler, ShardWorld, ShardedSim, Time, WakeSet, World};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Start,
//!     Wake(usize, u64, u64), // resource index, epoch, serial
//! }
//!
//! struct Net {
//!     links: Vec<FluidResource>,
//!     wakes: WakeSet,
//!     done: Vec<u64>,
//! }
//!
//! impl World for Net {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
//!         if let Ev::Wake(i, epoch, serial) = ev {
//!             // Sentinel bookkeeping first, then the epoch check.
//!             let current = self.links[i].epoch();
//!             if !self.wakes.deliver(sched, i, epoch, serial, current, Ev::Wake) {
//!                 return; // stale, same as the naive driver
//!             }
//!             self.links[i].sync(sched.now());
//!             self.done.extend(self.links[i].take_completed().iter().map(|e| e.token));
//!             self.wakes.touch(i);
//!         }
//!         // One arming pass per handled event, over every touched resource.
//!         let links = &self.links;
//!         self.wakes.arm(sched, |i| &links[i], Ev::Wake);
//!     }
//! }
//!
//! impl ShardWorld for Net {}
//!
//! let mut net = Net {
//!     links: vec![FluidResource::new("a", gbps(100.0)), FluidResource::new("b", gbps(50.0))],
//!     wakes: WakeSet::new(2),
//!     done: Vec::new(),
//! };
//! net.links[0].start_flow(Time::ZERO, 8192.0, FlowSpec::new(), 1);
//! net.links[1].start_flow(Time::ZERO, 4096.0, FlowSpec::new(), 2);
//! net.wakes.touch(0);
//! net.wakes.touch(1);
//! let mut sim = ShardedSim::new(vec![net], Time::MAX).with_threads(1);
//! sim.schedule_at(0, Time::ZERO, Ev::Start);
//! sim.run();
//! assert_eq!(sim.into_worlds()[0].done, vec![1, 2]);
//! ```
//!
//! [`FluidResource`]: crate::FluidResource
//! [`Scheduler::schedule_at`]: crate::Scheduler::schedule_at
//! [`Scheduler::reserve_seq`]: crate::Scheduler::reserve_seq
//! [`Scheduler::schedule_at_seq`]: crate::Scheduler::schedule_at_seq

use crate::engine::Scheduler;
use crate::fluid::FluidResource;
use crate::time::Time;

/// An instruction to push one wake event into the scheduler.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct WakeEmit {
    /// Delivery instant.
    pub(crate) at: Time,
    /// The fluid epoch the wake was armed under (checked on delivery).
    pub(crate) epoch: u64,
    /// The coalescer serial to embed in the event (identifies the
    /// sentinel on delivery).
    pub(crate) serial: u64,
    /// `Some(seq)`: push via `schedule_at_seq` under this pre-reserved
    /// FIFO rank. `None`: push via plain `schedule_at`.
    pub(crate) seq: Option<u64>,
}

/// Per-resource wakeup coalescing state. See the module documentation for
/// the protocol and its equivalence argument.
#[derive(Debug, Default)]
pub(crate) struct WakeCoalescer {
    /// The one heap entry this resource tracks: `(at, serial)`.
    armed: Option<(Time, u64)>,
    /// The one not-yet-pushed wake: `(at, epoch, reserved seq)`.
    /// Invariant: `deferred` exists only while `armed` does, with
    /// `armed.at <= deferred.at`.
    deferred: Option<(Time, u64, u64)>,
    next_serial: u64,
}

impl WakeCoalescer {
    /// A coalescer with nothing armed.
    #[cfg(test)]
    fn new() -> Self {
        Self::default()
    }

    fn fresh_serial(&mut self) -> u64 {
        let s = self.next_serial;
        self.next_serial += 1;
        s
    }

    /// Decides the fate of the deferred wake: materialize it if it could
    /// still be current at delivery, drop it if it is provably stale.
    fn dispose_deferred(&mut self, current_epoch: u64) -> Option<WakeEmit> {
        let (at, epoch, seq) = self.deferred.take()?;
        if epoch == current_epoch {
            Some(WakeEmit {
                at,
                epoch,
                serial: self.fresh_serial(),
                seq: Some(seq),
            })
        } else {
            // Epochs are monotone: at delivery this wake's epoch check
            // would fail just as it would have under the naive driver.
            // The reserved sequence number stays consumed, so global FIFO
            // numbering is unchanged.
            None
        }
    }

    /// Arms a wakeup at `want` under `epoch` (the resource's current
    /// epoch). `reserve` must reserve one scheduler sequence number when
    /// called; it is called at most once, precisely when the naive driver
    /// would have pushed an entry that this coalescer defers.
    ///
    /// Returns up to two [`WakeEmit`]s the caller must execute in order.
    fn arm(
        &mut self,
        want: Option<Time>,
        epoch: u64,
        reserve: impl FnOnce() -> u64,
    ) -> (Option<WakeEmit>, Option<WakeEmit>) {
        match want {
            // Nothing to arm (the naive driver pushed nothing either);
            // the deferred wake, if any, must still be resolved.
            None => (self.dispose_deferred(epoch), None),
            Some(at) => match self.armed {
                None => {
                    debug_assert!(self.deferred.is_none(), "deferred without a sentinel");
                    let serial = self.fresh_serial();
                    self.armed = Some((at, serial));
                    (
                        Some(WakeEmit {
                            at,
                            epoch,
                            serial,
                            seq: None,
                        }),
                        None,
                    )
                }
                Some((armed_at, _)) if at >= armed_at => {
                    // The sentinel surfaces first and will decide this
                    // wake's fate; hold it as a reserved seq only.
                    let first = self.dispose_deferred(epoch);
                    let seq = reserve();
                    self.deferred = Some((at, epoch, seq));
                    (first, None)
                }
                Some(_) => {
                    // Earlier than the sentinel: it must be pushed for
                    // real. The old sentinel stays in the heap as an
                    // orphan and self-checks its epoch on delivery.
                    let first = self.dispose_deferred(epoch);
                    let serial = self.fresh_serial();
                    self.armed = Some((at, serial));
                    (
                        first,
                        Some(WakeEmit {
                            at,
                            epoch,
                            serial,
                            seq: None,
                        }),
                    )
                }
            },
        }
    }

    /// Must be called on every wake delivery, *before* the driver's epoch
    /// check, with the resource's current epoch. If the delivered event is
    /// the sentinel, the deferred wake (if any) is resolved: the returned
    /// emit (if some) must be pushed via `schedule_at_seq` and becomes the
    /// new sentinel.
    fn on_delivery(&mut self, serial: u64, current_epoch: u64) -> Option<WakeEmit> {
        match self.armed {
            Some((_, s)) if s == serial => {
                self.armed = None;
                let emit = self.dispose_deferred(current_epoch);
                if let Some(e) = &emit {
                    // The materialized wake is now this resource's
                    // earliest outstanding entry: the new sentinel.
                    self.armed = Some((e.at, e.serial));
                }
                emit
            }
            // An orphaned entry from before a sentinel replacement; the
            // driver's epoch check handles it exactly like the naive
            // driver would.
            _ => None,
        }
    }
}

/// The wakeup driver for a fixed set of fluid resources, indexed `0..n`:
/// one coalescer per resource plus the set of resources touched since the
/// last arming pass. See the module documentation for the protocol.
#[derive(Debug)]
pub struct WakeSet {
    coal: Vec<WakeCoalescer>,
    /// One bit per resource, set by [`WakeSet::touch`] and cleared by
    /// [`WakeSet::arm`].
    touched: Vec<u64>,
}

impl WakeSet {
    /// A driver for `n` resources with nothing armed or touched.
    pub fn new(n: usize) -> Self {
        WakeSet {
            coal: (0..n).map(|_| WakeCoalescer::default()).collect(),
            touched: vec![0; n.div_ceil(64)],
        }
    }

    /// Marks resource `i` for the next arming pass: call it whenever a
    /// handler starts, ends or re-rates flows on the resource.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn touch(&mut self, i: usize) {
        assert!(i < self.coal.len(), "resource {i} out of range");
        self.touched[i / 64] |= 1 << (i % 64);
    }

    /// Re-arms every touched resource, in ascending index order, and
    /// clears the touched set. `fluid_of(i)` is resource `i`;
    /// `make_event(i, epoch, serial)` builds its wake event, which the
    /// handler passes back to [`WakeSet::deliver`].
    pub fn arm<'f, E>(
        &mut self,
        sched: &mut Scheduler<E>,
        fluid_of: impl Fn(usize) -> &'f FluidResource,
        make_event: impl Fn(usize, u64, u64) -> E,
    ) {
        let now = sched.now();
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let fluid = fluid_of(i);
                let want = fluid.next_wake().map(|at| at.max(now));
                let (a, b) = self.coal[i].arm(want, fluid.epoch(), || sched.reserve_seq());
                for e in [a, b].into_iter().flatten() {
                    let ev = make_event(i, e.epoch, e.serial);
                    match e.seq {
                        Some(seq) => sched.schedule_at_seq(e.at, seq, ev),
                        None => sched.schedule_at(e.at, ev),
                    }
                }
            }
        }
    }

    /// Handles the delivery of resource `i`'s wake armed under `epoch`
    /// with `serial`, given the resource's `current_epoch`. Resolves the
    /// sentinel bookkeeping (which may push the deferred wake under its
    /// reserved sequence number) and returns whether the wake is live:
    /// `false` means a newer wake exists and the handler must do nothing.
    pub fn deliver<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        i: usize,
        epoch: u64,
        serial: u64,
        current_epoch: u64,
        make_event: impl Fn(usize, u64, u64) -> E,
    ) -> bool {
        // Bookkeeping first, under the pre-processing epoch: the instant
        // at which the naive driver would still have held both entries.
        if let Some(e) = self.coal[i].on_delivery(serial, current_epoch) {
            let Some(seq) = e.seq else {
                unreachable!("materialized wakes always carry a reserved seq")
            };
            sched.schedule_at_seq(e.at, seq, make_event(i, e.epoch, e.serial));
        }
        epoch == current_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    #[test]
    fn fresh_arm_pushes_a_sentinel() {
        let mut c = WakeCoalescer::new();
        let (a, b) = c.arm(Some(t(100)), 1, || unreachable!("nothing to defer"));
        let e = a.expect("pushes");
        assert_eq!(b, None);
        assert_eq!((e.at, e.epoch, e.seq), (t(100), 1, None));
    }

    #[test]
    fn later_wake_is_deferred_with_one_reserved_seq() {
        let mut c = WakeCoalescer::new();
        let _ = c.arm(Some(t(100)), 1, || unreachable!());
        let mut reserved = 0;
        let (a, b) = c.arm(Some(t(200)), 2, || {
            reserved += 1;
            7
        });
        assert_eq!((a, b), (None, None), "nothing enters the heap");
        assert_eq!(reserved, 1, "exactly one seq consumed, like a real push");
    }

    #[test]
    fn sentinel_delivery_materializes_current_deferred_under_its_seq() {
        let mut c = WakeCoalescer::new();
        let s0 = c.arm(Some(t(100)), 1, || unreachable!()).0.unwrap();
        let _ = c.arm(Some(t(200)), 2, || 7);
        // Epoch still 2 at delivery: the deferred wake may be live.
        let e = c.on_delivery(s0.serial, 2).expect("materialized");
        assert_eq!((e.at, e.epoch, e.seq), (t(200), 2, Some(7)));
        // It became the new sentinel: its own delivery resolves it.
        assert_eq!(c.on_delivery(e.serial, 2), None);
        // And the slot is free for a fresh push again.
        let (a, _) = c.arm(Some(t(300)), 3, || unreachable!());
        assert!(a.is_some());
    }

    #[test]
    fn sentinel_delivery_drops_stale_deferred() {
        let mut c = WakeCoalescer::new();
        let s0 = c.arm(Some(t(100)), 1, || unreachable!()).0.unwrap();
        let _ = c.arm(Some(t(200)), 2, || 7);
        // Epoch moved past the deferred wake's: provably a no-op.
        assert_eq!(c.on_delivery(s0.serial, 3), None);
        // Nothing is armed anymore.
        let (a, _) = c.arm(Some(t(300)), 3, || unreachable!());
        assert!(a.is_some(), "slot was cleared");
    }

    #[test]
    fn replacing_deferred_resolves_the_old_one() {
        let mut c = WakeCoalescer::new();
        let _ = c.arm(Some(t(100)), 1, || unreachable!());
        let _ = c.arm(Some(t(200)), 2, || 7);
        // Same epoch: the old deferred wake must materialize.
        let (a, b) = c.arm(Some(t(250)), 2, || 9);
        let e = a.expect("old deferred materialized");
        assert_eq!((e.at, e.seq), (t(200), Some(7)));
        assert_eq!(b, None);
        // Bumped epoch: the replaced deferred wake is dropped instead.
        let (a, b) = c.arm(Some(t(300)), 3, || 11);
        assert_eq!((a, b), (None, None));
    }

    #[test]
    fn earlier_wake_pushes_new_sentinel_and_orphans_old() {
        let mut c = WakeCoalescer::new();
        let s0 = c.arm(Some(t(100)), 1, || unreachable!()).0.unwrap();
        let (a, b) = c.arm(Some(t(50)), 2, || unreachable!());
        assert_eq!(a, None, "no deferred to resolve");
        let e = b.expect("new sentinel pushed");
        assert_eq!((e.at, e.seq), (t(50), None));
        assert_ne!(e.serial, s0.serial);
        // The orphaned old sentinel is ignored on delivery.
        assert_eq!(c.on_delivery(s0.serial, 2), None);
        // The new sentinel is recognized.
        assert_eq!(c.on_delivery(e.serial, 2), None);
        let (a, _) = c.arm(Some(t(300)), 3, || unreachable!());
        assert!(a.is_some(), "slot was cleared by the real sentinel");
    }

    #[test]
    fn arm_none_resolves_deferred_without_consuming_seqs() {
        let mut c = WakeCoalescer::new();
        let _ = c.arm(Some(t(100)), 1, || unreachable!());
        let _ = c.arm(Some(t(200)), 2, || 7);
        // Same epoch: materialize on the way out.
        let (a, b) = c.arm(None, 2, || unreachable!("None never reserves"));
        let e = a.expect("materialized");
        assert_eq!(e.seq, Some(7));
        assert_eq!(b, None);
        // A stale deferred wake is silently dropped.
        let _ = c.arm(Some(t(400)), 5, || 9);
        assert_eq!(c.arm(None, 6, || unreachable!()), (None, None));
    }
}
