//! The event queue a world schedules into: [`World`] and [`Scheduler`].
//!
//! A simulation is a set of [`World`]s, each a single state machine that
//! owns its model objects (nodes, resources, transports) and receives its
//! own event type back from its queue. Model objects are written as
//! *passive* state machines — they return "what to do next" data instead
//! of scheduling directly — and the world maps those onto
//! [`Scheduler::schedule_in`] calls. This keeps models unit-testable
//! without an engine and sidesteps shared-mutability patterns. The one
//! executor is [`ShardedSim`](crate::ShardedSim); a single world runs as
//! its one shard.
//!
//! Determinism: events at the same timestamp fire in FIFO insertion order
//! (a monotonically increasing sequence number breaks ties), so a seeded
//! simulation is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use simkit::{Scheduler, ShardWorld, ShardedSim, Time, World};
//!
//! struct Counter {
//!     fired: Vec<u32>,
//! }
//!
//! impl World for Counter {
//!     type Event = u32;
//!     fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
//!         self.fired.push(ev);
//!         if ev < 3 {
//!             sched.schedule_in(Time::from_ns(10.0), ev + 1);
//!         }
//!     }
//! }
//!
//! impl ShardWorld for Counter {}
//!
//! let mut sim = ShardedSim::new(vec![Counter { fired: vec![] }], Time::MAX).with_threads(1);
//! sim.schedule_at(0, Time::ZERO, 0);
//! sim.run();
//! assert_eq!(sim.now(0), Time::from_ns(30.0));
//! assert_eq!(sim.into_worlds()[0].fired, vec![0, 1, 2, 3]);
//! ```

use crate::time::Time;
use crate::wheel::TimerWheel;

/// A simulation world: owns all model state and handles its own events.
pub trait World {
    /// The event type circulated through the queue.
    type Event;

    /// Handles one event at the scheduler's current time.
    fn handle(&mut self, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Tie-break class for same-timestamp events: cross-shard deliveries sort
/// before locally scheduled events, making the merged order independent of
/// the synchronization-window boundaries (see `simkit::shard`). A world
/// that never receives a message only ever sees `CLASS_LOCAL`, so its FIFO
/// semantics are untouched.
pub(crate) const CLASS_DELIVERED: u8 = 0;
pub(crate) const CLASS_LOCAL: u8 = 1;

#[derive(Debug)]
pub(crate) struct Scheduled<E> {
    pub(crate) at: Time,
    /// `CLASS_DELIVERED` for cross-shard mailbox deliveries, `CLASS_LOCAL`
    /// for events scheduled by this shard.
    pub(crate) class: u8,
    /// Sending shard id (deliveries) or 0 (local events).
    pub(crate) src: u32,
    /// Local FIFO sequence (local events) or the sender's per-message
    /// sequence (deliveries). `pub(crate)` so the shard engine can stamp
    /// it into shardsan violation reports.
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.class, self.src, self.seq)
            == (other.at, other.class, other.src, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.class, self.src, self.seq).cmp(&(
            other.at,
            other.class,
            other.src,
            other.seq,
        ))
    }
}

/// A cross-shard message parked in a sender's per-destination outbox until
/// the engine's synchronization barrier merges it into the destination
/// queue. The destination is the outbox's index, not a field, so a
/// window's traffic for one `(sender, receiver)` pair is a contiguous
/// growable buffer the engine swaps out wholesale each epoch.
#[derive(Debug)]
pub(crate) struct Outgoing<E> {
    pub(crate) at: Time,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

/// The scheduling interface handed to [`World::handle`].
///
/// Tracks the current simulated time and accepts future events.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: Time,
    seq: u64,
    queue: TimerWheel<E>,
    stopped: bool,
    /// This shard's id.
    shard: u32,
    /// The engine's conservative lookahead: the shortest delay
    /// [`Scheduler::send`] accepts.
    lookahead: Time,
    /// Cross-shard messages sent during the current window, one growable
    /// buffer per destination shard (index = destination id). The sharded
    /// engine swaps these against empty same-capacity buffers at each
    /// barrier, so steady-state epochs allocate nothing here.
    outboxes: Vec<Vec<Outgoing<E>>>,
    /// Destinations whose outbox received mail this window, in first-send
    /// order: the barrier swaps only these outboxes.
    sent_to: Vec<u32>,
    /// Per-sender message sequence: the deterministic mailbox tie-break.
    msg_seq: u64,
}

impl<E> Scheduler<E> {
    /// A scheduler for shard `shard` of `shards`, at time zero with an
    /// empty queue.
    pub(crate) fn new(shard: u32, lookahead: Time, shards: usize) -> Self {
        Scheduler {
            now: Time::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            stopped: false,
            shard,
            lookahead,
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            sent_to: Vec::new(),
            msg_seq: 0,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Scheduler::now`]).
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            class: CLASS_LOCAL,
            src: 0,
            seq,
            event,
        });
    }

    /// Schedules `event` after a relative delay from now.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Sends `event` to shard `dst`, arriving `delay` after now.
    ///
    /// The message is parked in this shard's outbox and merged into `dst`'s
    /// queue at the engine's next synchronization barrier. Deliveries are
    /// ordered by `(arrival time, sending shard, send sequence)` and sort
    /// *before* same-timestamp local events, so the merged execution is
    /// independent of where the engine's window boundaries fall.
    ///
    /// # Panics
    ///
    /// Panics when `dst` is this shard itself or unknown, or when `delay`
    /// is below the engine's conservative lookahead — the lookahead bound
    /// is exactly what makes windowed parallel execution exact, so a too-
    /// short delay is a model bug, not a tolerable approximation.
    pub fn send(&mut self, dst: u32, delay: Time, event: E) {
        let (me, lookahead) = (self.shard, self.lookahead);
        assert!(dst != me, "shard {me} sending to itself: use schedule_in");
        assert!(
            delay >= lookahead,
            "cross-shard delay {delay:?} below lookahead {lookahead:?}"
        );
        assert!(
            (dst as usize) < self.outboxes.len(),
            "message to unknown shard {dst}"
        );
        let seq = self.msg_seq;
        self.msg_seq += 1;
        let outbox = &mut self.outboxes[dst as usize];
        if outbox.is_empty() {
            self.sent_to.push(dst);
        }
        outbox.push(Outgoing {
            at: self.now.saturating_add(delay),
            seq,
            event,
        });
    }

    /// Pushes a cross-shard delivery (class 0: before same-time locals).
    pub(crate) fn deliver(&mut self, at: Time, src: u32, seq: u64, event: E) {
        debug_assert!(at >= self.now, "delivery into the past");
        self.queue.push(Scheduled {
            at,
            class: CLASS_DELIVERED,
            src,
            seq,
            event,
        });
    }

    /// Hands this window's traffic to the engine: swaps every outbox that
    /// received mail against the matching (empty) buffer of `bufs` — one
    /// per destination shard — and appends `(destination, this shard)` to
    /// `pairs` for each. The engine walks off with the traffic and leaves
    /// last window's drained buffers, capacity included, in their place.
    pub(crate) fn swap_outboxes(
        &mut self,
        bufs: &mut [Vec<Outgoing<E>>],
        pairs: &mut Vec<(u32, u32)>,
    ) {
        debug_assert_eq!(bufs.len(), self.outboxes.len());
        for dst in self.sent_to.drain(..) {
            let theirs = &mut bufs[dst as usize];
            debug_assert!(theirs.is_empty());
            std::mem::swap(&mut self.outboxes[dst as usize], theirs);
            pairs.push((dst, self.shard));
        }
    }

    /// Messages parked in this shard's outboxes, counted over every
    /// destination without consulting the sent-to list (the shard tests'
    /// oracle checks the swap left nothing behind).
    #[cfg(test)]
    pub(crate) fn parked_mail(&self) -> usize {
        self.outboxes.iter().map(Vec::len).sum()
    }

    /// Whether this shard sent any cross-shard message since the last
    /// `swap_outboxes`.
    pub(crate) fn mailed(&self) -> bool {
        !self.sent_to.is_empty()
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped
    }

    pub(crate) fn set_now(&mut self, at: Time) {
        debug_assert!(at >= self.now);
        self.now = at;
    }

    /// Reserves the next sequence number without pushing an event.
    ///
    /// Together with [`Scheduler::schedule_at_seq`] this lets a driver defer
    /// a heap push while keeping FIFO tie-breaking identical to the
    /// non-deferred schedule: the event is pushed later (or never, when it
    /// is provably a no-op) but fires in exactly the slot it would have
    /// occupied. See `simkit::wake` for the one intended user.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `event` at `at` under a sequence number previously handed
    /// out by [`Scheduler::reserve_seq`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `seq` was never reserved (i.e. is
    /// not below the scheduler's internal counter).
    pub fn schedule_at_seq(&mut self, at: Time, seq: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at:?} now={:?}",
            self.now
        );
        assert!(seq < self.seq, "sequence {seq} was never reserved");
        self.queue.push(Scheduled {
            at,
            class: CLASS_LOCAL,
            src: 0,
            seq,
            event,
        });
    }

    /// Requests that the engine stop after the current event (the run
    /// ends after the current window; see `simkit::shard`).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The timestamp of the next pending event, if any.
    pub fn next_time(&self) -> Option<Time> {
        self.queue.next_time()
    }

    #[cfg(test)]
    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        self.queue.pop()
    }

    /// Pops the next event only if it fires strictly before `horizon` —
    /// the sharded engine's inner-loop step, fused so a window pass costs
    /// one queue operation instead of a peek plus a pop.
    pub(crate) fn pop_if_before(&mut self, horizon: Time) -> Option<Scheduled<E>> {
        match self.queue.next_time() {
            Some(t) if t < horizon => self.queue.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{ShardWorld, ShardedSim};

    /// Logs every event; on `"reserve"` it reserves a sequence number,
    /// schedules `"c"` and then fills the reservation with `"b"`, all at
    /// the current instant.
    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, &'static str)>,
    }

    impl World for Recorder {
        type Event = &'static str;
        fn handle(&mut self, ev: &'static str, sched: &mut Scheduler<&'static str>) {
            self.log.push((sched.now().as_ps(), ev));
            match ev {
                "reserve" => {
                    let reserved = sched.reserve_seq();
                    sched.schedule_at(sched.now(), "c");
                    sched.schedule_at_seq(sched.now(), reserved, "b");
                }
                "unreserved" => sched.schedule_at_seq(sched.now(), 99, "x"),
                _ => {}
            }
        }
    }

    impl ShardWorld for Recorder {}

    /// A one-shard engine over a fresh recorder with `events` scheduled.
    fn sim(events: &[(u64, &'static str)]) -> ShardedSim<Recorder> {
        let mut sim = ShardedSim::new(vec![Recorder::default()], Time::MAX).with_threads(1);
        for &(at, ev) in events {
            sim.schedule_at(0, Time::from_ps(at), ev);
        }
        sim
    }

    fn run(events: &[(u64, &'static str)]) -> Vec<(u64, &'static str)> {
        let mut sim = sim(events);
        sim.run();
        sim.into_worlds().remove(0).log
    }

    #[test]
    fn fifo_order_for_simultaneous_events() {
        assert_eq!(
            run(&[(10, "a"), (10, "b"), (5, "c")]),
            vec![(5, "c"), (10, "a"), (10, "b")],
            "same-time events must preserve insertion order"
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = sim(&[(10, "a")]);
        sim.run();
        sim.schedule_at(0, Time::from_ps(5), "late");
    }

    #[test]
    fn reserved_seq_keeps_fifo_slot() {
        // Reserve a slot, schedule a later event, then fill the reserved
        // slot: at equal timestamps the deferred event must still fire in
        // the order its reservation was made, not its push.
        assert_eq!(
            run(&[(10, "reserve")]),
            vec![(10, "reserve"), (10, "b"), (10, "c")],
            "a deferred push must land in its reserved FIFO slot"
        );
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn unreserved_seq_panics() {
        run(&[(1, "unreserved")]);
    }

    testkit::prop! {
        cases = 48;

        fn scheduler_pop_order_matches_a_shadow_heap(
            raws in testkit::gen::vecs(
                (testkit::gen::u64s(0..1 << 48), testkit::gen::u64s(0..10)),
                1..=300,
            ),
        ) {
            // Drive the wheel-backed scheduler and a plain binary heap over
            // the full ordering key through the same interleaving of
            // schedule_at / reserve_seq / schedule_at_seq / deliver / pop,
            // asserting identical pop sequences. Reservations are filled
            // out of order (LIFO) and sometimes left unfilled, exactly the
            // deferred-push freedom `simkit::wake` exploits.
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut sched: Scheduler<u64> = Scheduler::new(0, Time::from_ps(1), 1);
            let mut shadow: BinaryHeap<Reverse<Scheduled<u64>>> = BinaryHeap::new();
            let mut reserved: Vec<u64> = Vec::new();
            let mut msg_seq = 0u64;
            for (raw, kind) in &raws {
                let at = Time::from_ps(*raw);
                match kind {
                    0..=2 => {
                        let w = sched.pop();
                        let o = shadow.pop().map(|Reverse(s)| s);
                        let key = |s: &Scheduled<u64>| (s.at, s.class, s.src, s.seq);
                        assert_eq!(
                            w.as_ref().map(key),
                            o.as_ref().map(key),
                            "scheduler diverged from shadow heap"
                        );
                    }
                    3 => reserved.push(sched.reserve_seq()),
                    4 | 5 => {
                        if let Some(seq) = reserved.pop() {
                            sched.schedule_at_seq(at, seq, *raw);
                            shadow.push(Reverse(Scheduled {
                                at,
                                class: CLASS_LOCAL,
                                src: 0,
                                seq,
                                event: *raw,
                            }));
                        }
                    }
                    6 => {
                        msg_seq += 1;
                        sched.deliver(at, 1, msg_seq, *raw);
                        shadow.push(Reverse(Scheduled {
                            at,
                            class: CLASS_DELIVERED,
                            src: 1,
                            seq: msg_seq,
                            event: *raw,
                        }));
                    }
                    _ => {
                        let seq = sched.seq;
                        sched.schedule_at(at, *raw);
                        shadow.push(Reverse(Scheduled {
                            at,
                            class: CLASS_LOCAL,
                            src: 0,
                            seq,
                            event: *raw,
                        }));
                    }
                }
                assert_eq!(sched.pending(), shadow.len(), "length diverged");
                assert_eq!(
                    sched.next_time(),
                    shadow.peek().map(|Reverse(s)| s.at),
                    "peek diverged"
                );
            }
            while let Some(o) = shadow.pop() {
                let w = sched.pop().expect("scheduler drained early");
                assert_eq!((w.at, w.class, w.src, w.seq), {
                    let Reverse(s) = o;
                    (s.at, s.class, s.src, s.seq)
                });
            }
            assert_eq!(sched.pending(), 0);
        }
    }
}
