//! The discrete-event engine: an event queue plus an executor.
//!
//! The engine is deliberately minimal. A simulation is a [`World`]: a single
//! state machine that owns every model object (nodes, resources, transports)
//! and receives its own event type back from the queue. Model objects are
//! written as *passive* state machines — they return "what to do next" data
//! instead of scheduling directly — and the world maps those onto
//! [`Scheduler::schedule_in`] calls. This keeps models unit-testable without
//! an engine and sidesteps shared-mutability patterns.
//!
//! Determinism: events at the same timestamp fire in FIFO insertion order
//! (a monotonically increasing sequence number breaks ties), so a seeded
//! simulation is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use simkit::{Scheduler, Simulation, Time, World};
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
//! let mut sim = Simulation::new(Counter { fired: vec![] });
//! sim.schedule_at(Time::ZERO, 0);
//! sim.run();
//! assert_eq!(sim.world().fired, vec![0, 1, 2, 3]);
//! assert_eq!(sim.now(), Time::from_ns(30.0));
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
/// the synchronization-window boundaries (see `simkit::shard`). Purely
/// local simulations only ever use `CLASS_LOCAL`, so their FIFO semantics
/// are untouched.
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
    /// This shard's id and conservative lookahead, set by the sharded
    /// engine. `None` in plain sequential simulations, where [`Scheduler::send`]
    /// is misuse.
    remote: Option<(u32, Time)>,
    /// Cross-shard messages sent during the current window, one growable
    /// buffer per destination shard (index = destination id). The sharded
    /// engine swaps these against empty same-capacity buffers at each
    /// barrier, so steady-state epochs allocate nothing here.
    outboxes: Vec<Vec<Outgoing<E>>>,
    /// Per-sender message sequence: the deterministic mailbox tie-break.
    msg_seq: u64,
}

impl<E> Scheduler<E> {
    pub(crate) fn new() -> Self {
        Scheduler {
            now: Time::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            stopped: false,
            remote: None,
            outboxes: Vec::new(),
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
    /// Only meaningful under the sharded engine (`simkit::shard`): the
    /// message is parked in this shard's outbox and merged into `dst`'s
    /// queue at the next synchronization barrier. Deliveries are ordered by
    /// `(arrival time, sending shard, send sequence)` and sort *before*
    /// same-timestamp local events, so the merged execution is independent
    /// of where the engine's window boundaries fall.
    ///
    /// # Panics
    ///
    /// Panics in a plain sequential [`Simulation`] (no shard engine to
    /// drain the outbox), when `dst` is this shard itself, or when `delay`
    /// is below the engine's conservative lookahead — the lookahead bound
    /// is exactly what makes windowed parallel execution exact, so a too-
    /// short delay is a model bug, not a tolerable approximation.
    pub fn send(&mut self, dst: u32, delay: Time, event: E) {
        let Some((me, lookahead)) = self.remote else {
            panic!("Scheduler::send outside the sharded engine (see simkit::shard)");
        };
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
        self.outboxes[dst as usize].push(Outgoing {
            at: self.now.saturating_add(delay),
            seq,
            event,
        });
    }

    pub(crate) fn enable_remote(&mut self, shard: u32, lookahead: Time, shards: usize) {
        self.remote = Some((shard, lookahead));
        self.outboxes = (0..shards).map(|_| Vec::new()).collect();
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

    /// Exchanges the per-destination outboxes against `bufs` (one empty
    /// buffer per shard): the engine walks off with this window's traffic
    /// and leaves last window's drained buffers — capacity included — in
    /// their place.
    pub(crate) fn swap_outboxes(&mut self, bufs: &mut [Vec<Outgoing<E>>]) {
        debug_assert_eq!(bufs.len(), self.outboxes.len());
        for (mine, theirs) in self.outboxes.iter_mut().zip(bufs) {
            debug_assert!(theirs.is_empty());
            std::mem::swap(mine, theirs);
        }
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

    /// Requests that the executor stop after the current event.
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

/// A discrete-event simulation: a [`World`] plus its event queue.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    executed: u64,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with an empty queue.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            executed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Total number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. to inject load or read metrics).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event before or between runs.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_at(&mut self, at: Time, event: W::Event) {
        self.sched.schedule_at(at, event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Time, event: W::Event) {
        self.sched.schedule_in(delay, event);
    }

    /// Executes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(s) = self.sched.pop() else {
            return false;
        };
        debug_assert!(s.at >= self.sched.now);
        self.sched.now = s.at;
        self.executed += 1;
        self.world.handle(s.event, &mut self.sched);
        true
    }

    /// Runs until the queue is empty or [`Scheduler::stop`] is called.
    pub fn run(&mut self) {
        while !self.sched.stopped && self.step() {}
        self.sched.stopped = false;
    }

    /// Runs until the queue drains, `stop()` is called, or the next event
    /// would fire after `deadline`. Time is left at the last executed event
    /// (it does not jump to the deadline).
    pub fn run_until(&mut self, deadline: Time) {
        while !self.sched.stopped {
            match self.sched.next_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.sched.stopped = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, &'static str)>,
        stop_at: Option<&'static str>,
    }

    impl World for Recorder {
        type Event = &'static str;
        fn handle(&mut self, ev: &'static str, sched: &mut Scheduler<&'static str>) {
            self.log.push((sched.now().as_ps(), ev));
            if self.stop_at == Some(ev) {
                sched.stop();
            }
        }
    }

    #[test]
    fn fifo_order_for_simultaneous_events() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(Time::from_ps(10), "a");
        sim.schedule_at(Time::from_ps(10), "b");
        sim.schedule_at(Time::from_ps(5), "c");
        sim.run();
        assert_eq!(
            sim.world().log,
            vec![(5, "c"), (10, "a"), (10, "b")],
            "same-time events must preserve insertion order"
        );
    }

    #[test]
    fn run_until_stops_before_deadline_exceeded() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(Time::from_ps(10), "a");
        sim.schedule_at(Time::from_ps(20), "b");
        sim.schedule_at(Time::from_ps(30), "c");
        sim.run_until(Time::from_ps(20));
        assert_eq!(sim.world().log, vec![(10, "a"), (20, "b")]);
        assert_eq!(sim.now(), Time::from_ps(20));
        sim.run();
        assert_eq!(sim.world().log.last(), Some(&(30, "c")));
    }

    #[test]
    fn stop_halts_and_resets() {
        let mut sim = Simulation::new(Recorder {
            stop_at: Some("b"),
            ..Recorder::default()
        });
        sim.schedule_at(Time::from_ps(1), "a");
        sim.schedule_at(Time::from_ps(2), "b");
        sim.schedule_at(Time::from_ps(3), "c");
        sim.run();
        assert_eq!(sim.world().log.len(), 2);
        // Stop flag resets: a second run resumes.
        sim.world_mut().stop_at = None;
        sim.run();
        assert_eq!(sim.world().log.len(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(Time::from_ps(10), "a");
        sim.run();
        sim.schedule_at(Time::from_ps(5), "late");
    }

    #[test]
    fn reserved_seq_keeps_fifo_slot() {
        // Reserve a slot, schedule a later event, then fill the reserved
        // slot: at equal timestamps the deferred event must still fire in
        // the order its reservation was made, not its push.
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(Time::from_ps(10), "a");
        let reserved = sim.sched.reserve_seq();
        sim.schedule_at(Time::from_ps(10), "c");
        sim.sched.schedule_at_seq(Time::from_ps(10), reserved, "b");
        sim.run();
        assert_eq!(
            sim.world().log,
            vec![(10, "a"), (10, "b"), (10, "c")],
            "a deferred push must land in its reserved FIFO slot"
        );
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn unreserved_seq_panics() {
        let mut sim = Simulation::new(Recorder::default());
        sim.sched.schedule_at_seq(Time::from_ps(1), 99, "x");
    }

    #[test]
    fn executed_counter() {
        let mut sim = Simulation::new(Recorder::default());
        for i in 0..5 {
            sim.schedule_at(Time::from_ps(i), "x");
        }
        sim.run();
        assert_eq!(sim.executed(), 5);
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
            let mut sched: Scheduler<u64> = Scheduler::new();
            sched.enable_remote(0, Time::from_ps(1), 1);
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
