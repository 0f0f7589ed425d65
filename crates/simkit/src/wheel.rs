//! A hierarchical timer wheel: the engine's event queue.
//!
//! The queue behind [`crate::Scheduler`] used to be a binary heap over the
//! full ordering key `(time, class, src, seq)`. Every push and pop paid
//! `O(log n)` pointer-chasing comparisons against the *whole* pending set,
//! even though a discrete-event simulation only ever asks for "the events
//! of the immediate future, in order". A timer wheel exploits that access
//! pattern: events are binned by time into hierarchical slots (a calendar
//! with pages of coarser and coarser granularity), and only the events of
//! the earliest non-empty bin are kept fully sorted — in a small *run*
//! whose size is the bin population, not the queue population.
//!
//! # Layout
//!
//! * Level-0 slots are `2^14` ps (≈16 ns) wide; each level has 256 slots
//!   and each higher level is 256× coarser, so four levels cover ≈70 s of
//!   simulated future. Events beyond that horizon sit in a small overflow
//!   heap and are swept in when the wheel reaches them (`RunEnd` sentinels
//!   and `Time::MAX` "never" timers land there).
//! * `cpos` is the absolute index of the first undrained level-0 slot.
//!   Everything strictly before `cpos`'s slot boundary is *promoted*: it
//!   lives in the sorted `run` or the `side` heap, ordered by the full
//!   `(time, class, src, seq)` key; everything at or after it lives in a
//!   wheel slot or in overflow.
//! * The `run` is the promoted slot's events, sorted once at refill in
//!   descending key order, so the earliest event is the last element and a
//!   pop is `Vec::pop`. Pushes that land in the promoted region after the
//!   refill (`epos < cpos`, typically zero-delay or same-slot follow-ups)
//!   go to the small `side` heap instead of being inserted into the run,
//!   so a burst of same-slot pushes costs `O(log side)` each, never a
//!   shift of the run. A pop takes the smaller of the run's last element
//!   and the side heap's minimum.
//! * Each level keeps a 256-bit occupancy bitmap, so finding the next
//!   non-empty slot is a word scan, not a slot walk.
//!
//! # Invariants
//!
//! 1. `run ∪ side` holds exactly the pending events with
//!    `at < cpos << L0_BITS`; [`TimerWheel::next_time`] is therefore the
//!    smaller of two peeks. The wheel *eagerly advances*: whenever both
//!    drain while events remain, [`TimerWheel::refill`] promotes the
//!    earliest slot immediately, so they are both empty only when the
//!    whole queue is.
//! 2. `run` is sorted in descending full-key order at all times: it is
//!    sorted when filled, only ever shrinks from its end afterwards, and is
//!    refilled only once empty.
//! 3. At every level ≥ 1, the slot at `cpos`'s own field is never
//!    occupied: crossing into a coarser page cascades that page's events
//!    down *before* any new insert can bin against the new position.
//!    Without this, an insert landing in level 0 of a fresh page could
//!    sort ahead of earlier events still parked in the page's level-1
//!    slot.
//! 4. Slot vectors, the run and the two heaps recycle their capacity (a
//!    refill moves the slot's events into the run, and each keeps its own
//!    buffer); a steady simulation allocates nothing here after warm-up.
//!
//! # Why the pop order is exactly the heap's
//!
//! Ordering keys are unique (`seq` is a per-source monotone counter), and
//! slot arithmetic partitions events by disjoint time ranges: everything
//! promoted precedes everything still binned. Within the promoted region,
//! the sorted run and the side heap each yield their events in full-key
//! order, and a pop takes the smaller head of the two. So for any
//! interleaving of pushes and pops the wheel emits the same sequence as a
//! global heap — the property suite below drives both structures (the
//! pre-wheel `BinaryHeap` queue is retained verbatim as the oracle)
//! through seeded random schedules and asserts it.

use crate::engine::Scheduled;
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the level-0 slot width in picoseconds (16.4 ns — a few slots
/// per typical device latency, so a synchronization window spans tens of
/// slots and the sorted run stays small).
const L0_BITS: u32 = 14;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Hierarchy depth: 4 levels cover `2^(14 + 4·8)` ps ≈ 70 seconds.
const LEVELS: usize = 4;
/// Occupancy bitmap words per level.
const WORDS: usize = SLOTS / 64;

/// Hierarchical timer wheel holding [`Scheduled`] events in exact
/// `(time, class, src, seq)` order. See the module docs for the layout.
#[derive(Debug)]
pub(crate) struct TimerWheel<E> {
    /// `LEVELS × SLOTS` event bins, flattened (`level * SLOTS + slot`).
    slots: Vec<Vec<Scheduled<E>>>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; WORDS]; LEVELS],
    /// Absolute level-0 slot index of the first undrained slot.
    cpos: u64,
    /// The promoted slot's events, sorted in descending full-key order
    /// (the earliest is last).
    run: Vec<Scheduled<E>>,
    /// Events pushed into the promoted region (`at < cpos << L0_BITS`)
    /// after its refill, in full-key order.
    side: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Events beyond the top level's horizon.
    overflow: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Total pending events (run + side + slots + overflow).
    len: usize,
}

#[inline]
fn field(cpos: u64, level: usize) -> usize {
    ((cpos >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

impl<E> TimerWheel<E> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [[0; WORDS]; LEVELS],
            cpos: 0,
            run: Vec::new(),
            side: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending events.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Timestamp of the earliest pending event. Invariant 1 makes this a
    /// peek of the run and the side heap: `None` iff the queue is empty.
    #[inline]
    pub(crate) fn next_time(&self) -> Option<Time> {
        match (self.run.last(), self.side.peek()) {
            (Some(r), Some(Reverse(s))) => Some(r.at.min(s.at)),
            (Some(r), None) => Some(r.at),
            (None, Some(Reverse(s))) => Some(s.at),
            (None, None) => None,
        }
    }

    /// Whether the promoted region (run and side heap) is empty.
    #[inline]
    fn promoted_empty(&self) -> bool {
        self.run.is_empty() && self.side.is_empty()
    }

    /// Inserts an event.
    #[inline]
    pub(crate) fn push(&mut self, ev: Scheduled<E>) {
        self.len += 1;
        let epos = ev.at.as_ps() >> L0_BITS;
        if epos < self.cpos {
            // Inside the already-promoted region: join the side heap (the
            // run stays sorted; see invariant 2).
            self.side.push(Reverse(ev));
        } else {
            self.bin(epos, ev);
            if self.promoted_empty() {
                self.refill();
            }
        }
    }

    /// Removes and returns the earliest event (exact full-key order).
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        let from_side = match (self.run.last(), self.side.peek()) {
            (Some(r), Some(Reverse(s))) => s < r,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        let ev = if from_side {
            self.side.pop().map(|Reverse(s)| s)
        } else {
            self.run.pop()
        }?;
        self.len -= 1;
        if self.len > 0 && self.promoted_empty() {
            self.refill();
        }
        Some(ev)
    }

    /// Bins an event with `epos >= cpos` into a wheel slot (or overflow).
    fn bin(&mut self, epos: u64, ev: Scheduled<E>) {
        debug_assert!(epos >= self.cpos);
        let diff = epos ^ self.cpos;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow.push(Reverse(ev));
            return;
        }
        let slot = field(epos, level);
        self.slots[level * SLOTS + slot].push(ev);
        self.occ[level][slot / 64] |= 1 << (slot % 64);
    }

    /// First occupied slot of `level` at index `from` or later, if any.
    fn first_occupied(&self, level: usize, from: usize) -> Option<usize> {
        let words = &self.occ[level];
        let mut w = from / 64;
        let mut bits = words[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            bits = words[w];
        }
    }

    /// Empties slot `slot` of `level`, returning its (possibly reused)
    /// backing vector; the caller must put it back via `restore_slot`.
    fn take_slot(&mut self, level: usize, slot: usize) -> Vec<Scheduled<E>> {
        self.occ[level][slot / 64] &= !(1 << (slot % 64));
        std::mem::take(&mut self.slots[level * SLOTS + slot])
    }

    fn restore_slot(&mut self, level: usize, slot: usize, v: Vec<Scheduled<E>>) {
        debug_assert!(v.is_empty());
        self.slots[level * SLOTS + slot] = v;
    }

    /// Invariant 2: after `cpos` moves, no level may keep events parked in
    /// the slot `cpos` now points into — cascade them down, coarsest
    /// first (a level-k cascade can only refill levels below k).
    fn cascade_crossed(&mut self) {
        for level in (1..LEVELS).rev() {
            let f = field(self.cpos, level);
            if self.occ[level][f / 64] & (1 << (f % 64)) != 0 {
                let mut v = self.take_slot(level, f);
                for ev in v.drain(..) {
                    let epos = ev.at.as_ps() >> L0_BITS;
                    self.bin(epos, ev);
                }
                self.restore_slot(level, f, v);
            }
        }
    }

    /// Promotes the earliest non-empty slot into the run. Called only when
    /// the run and the side heap are empty and events remain binned.
    fn refill(&mut self) {
        debug_assert!(self.promoted_empty());
        const TOP_SHIFT: u32 = SLOT_BITS * LEVELS as u32;
        loop {
            // Overflow membership was decided against an older `cpos`;
            // now that the wheel has reached an event's top-level page,
            // pull it into a real slot before draining anything, or a
            // later event already binned in this page could overtake it.
            let top = self.cpos >> TOP_SHIFT;
            while let Some(Reverse(s)) = self.overflow.peek() {
                if (s.at.as_ps() >> L0_BITS) >> TOP_SHIFT != top {
                    break;
                }
                let Some(Reverse(ev)) = self.overflow.pop() else {
                    break;
                };
                let epos = ev.at.as_ps() >> L0_BITS;
                self.bin(epos, ev);
            }
            // The current level-0 page: promote its first occupied slot
            // into the run, sorted once, descending. Moving the events
            // (not swapping vectors) keeps each slot's capacity its own,
            // so one crowded slot's capacity does not spread to the rest.
            if let Some(slot) = self.first_occupied(0, field(self.cpos, 0)) {
                let abs = (self.cpos & !(SLOTS as u64 - 1)) | slot as u64;
                debug_assert!(abs >= self.cpos);
                let mut v = self.take_slot(0, slot);
                self.run.append(&mut v);
                self.restore_slot(0, slot, v);
                self.run.sort_unstable_by(|a, b| b.cmp(a));
                self.cpos = abs + 1;
                self.cascade_crossed();
                if !self.run.is_empty() {
                    return;
                }
                continue;
            }
            // Page exhausted: jump to the first occupied slot of the
            // lowest non-empty coarser level and cascade it down. Lower
            // levels are provably empty here, so the jump skips nothing.
            let mut cascaded = false;
            for level in 1..LEVELS {
                if let Some(slot) = self.first_occupied(level, field(self.cpos, level)) {
                    let shift = SLOT_BITS * level as u32;
                    let abs = ((self.cpos >> shift) & !(SLOTS as u64 - 1)) | slot as u64;
                    debug_assert!(abs << shift >= self.cpos);
                    self.cpos = abs << shift;
                    let mut v = self.take_slot(level, slot);
                    for ev in v.drain(..) {
                        let epos = ev.at.as_ps() >> L0_BITS;
                        self.bin(epos, ev);
                    }
                    self.restore_slot(level, slot, v);
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel empty: everything left is beyond the horizon. Jump
            // the wheel to the overflow minimum; the sweep at the top of
            // the loop then ingests its whole top-level page.
            let Some(Reverse(min)) = self.overflow.peek() else {
                debug_assert_eq!(self.len, 0);
                return;
            };
            let min_epos = min.at.as_ps() >> L0_BITS;
            debug_assert!(min_epos >= self.cpos);
            self.cpos = min_epos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CLASS_DELIVERED, CLASS_LOCAL};

    /// The pre-wheel event queue, verbatim: a binary heap over the full
    /// ordering key. The property suite drives it in lockstep with the
    /// wheel and demands identical pop sequences.
    struct HeapOracle {
        heap: BinaryHeap<Reverse<Scheduled<u64>>>,
    }

    impl HeapOracle {
        fn new() -> Self {
            HeapOracle {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, ev: Scheduled<u64>) {
            self.heap.push(Reverse(ev));
        }
        fn pop(&mut self) -> Option<Scheduled<u64>> {
            self.heap.pop().map(|Reverse(s)| s)
        }
        fn next_time(&self) -> Option<Time> {
            self.heap.peek().map(|Reverse(s)| s.at)
        }
    }

    fn ev(at: u64, class: u8, src: u32, seq: u64) -> Scheduled<u64> {
        Scheduled {
            at: Time::from_ps(at),
            class,
            src,
            seq,
            event: at ^ (seq << 32),
        }
    }

    fn key(s: &Scheduled<u64>) -> (Time, u8, u32, u64, u64) {
        (s.at, s.class, s.src, s.seq, s.event)
    }

    /// Drives wheel and oracle through the same op sequence, asserting
    /// identical `next_time` and pop results at every step.
    fn lockstep(ops: &[Op]) {
        let mut wheel = TimerWheel::new();
        let mut oracle = HeapOracle::new();
        let mut seq = 0u64;
        let mut msg_seq = 0u64;
        for op in ops {
            match *op {
                Op::Push { at, delivered, src } => {
                    let (class, src, s) = if delivered {
                        msg_seq += 1;
                        (CLASS_DELIVERED, src, msg_seq)
                    } else {
                        seq += 1;
                        (CLASS_LOCAL, 0, seq)
                    };
                    wheel.push(ev(at, class, src, s));
                    oracle.push(ev(at, class, src, s));
                }
                Op::Pop => {
                    let w = wheel.pop();
                    let o = oracle.pop();
                    assert_eq!(
                        w.as_ref().map(key),
                        o.as_ref().map(key),
                        "wheel pop diverged from heap oracle"
                    );
                }
            }
            assert_eq!(wheel.next_time(), oracle.next_time(), "peek diverged");
            assert_eq!(wheel.len(), oracle.heap.len(), "length diverged");
        }
        // Drain both fully: the tail order must match too.
        loop {
            let w = wheel.pop();
            let o = oracle.pop();
            assert_eq!(w.as_ref().map(key), o.as_ref().map(key), "drain diverged");
            if w.is_none() {
                break;
            }
        }
    }

    enum Op {
        Push { at: u64, delivered: bool, src: u32 },
        Pop,
    }

    /// Times that stress every structural boundary: slot edges, page
    /// edges, level transitions, the overflow horizon, and Time::MAX.
    fn stress_time(raw: u64, popped_floor: u64) -> u64 {
        const SLOT: u64 = 1 << L0_BITS;
        const PAGE: u64 = SLOT << SLOT_BITS;
        const L2: u64 = PAGE << SLOT_BITS;
        const HORIZON: u64 = 1 << (L0_BITS + SLOT_BITS * LEVELS as u32);
        let base = popped_floor;
        match raw % 11 {
            0 => base + raw % SLOT,
            1 => base + SLOT * (raw % 600),
            2 => (base / SLOT + 1) * SLOT,               // exact slot edge
            3 => (base / PAGE + 1) * PAGE,               // exact page edge
            4 => (base / PAGE + 1) * PAGE - 1,           // just before a page edge
            5 => base + PAGE * (1 + raw % 5),            // level-1 distances
            6 => base + L2 * (1 + raw % 3),              // level-2 distances
            7 => base + HORIZON + raw % (4 * PAGE),      // overflow
            8 => base + 2 * HORIZON + raw % L2,          // deep overflow
            9 => base,                                   // exact tie with floor
            _ => u64::MAX - raw % 3,                     // near/at Time::MAX
        }
    }

    testkit::prop! {
        cases = 64;

        fn wheel_matches_heap_oracle_on_random_schedules(
            raws in testkit::gen::vecs(
                (testkit::gen::u64s(0..u64::MAX / 4), testkit::gen::u64s(0..8)),
                1..=400,
            ),
        ) {
            // Replay the raw stream as a push/pop mix. A running floor
            // mimics the scheduler contract (never schedule into the
            // past), but nothing in the wheel itself requires it.
            let mut ops = Vec::new();
            let mut floor = 0u64;
            for (raw, kind) in &raws {
                match kind {
                    0 | 1 => ops.push(Op::Pop),
                    k => {
                        let at = stress_time(*raw, floor);
                        floor = floor.max(at / 4); // keep later pushes spread
                        ops.push(Op::Push {
                            at,
                            delivered: k % 2 == 0,
                            src: (*raw % 5) as u32,
                        });
                    }
                }
            }
            lockstep(&ops);
        }
    }

    testkit::prop! {
        cases = 64;

        fn wheel_matches_heap_oracle_when_same_slot_pushes_dominate(
            raws in testkit::gen::vecs(
                (testkit::gen::u64s(0..1 << 20), testkit::gen::u64s(0..8)),
                1..=400,
            ),
        ) {
            // Most pushes land in the slot the wheel has already promoted
            // (`epos < cpos`), many at one instant with one class and
            // source, so only `seq` separates them (full-key ties up to
            // the sequence). The floor follows the last pushed instant, so
            // pushes keep hitting the promoted slot between pops.
            const SLOT: u64 = 1 << L0_BITS;
            let mut ops = Vec::new();
            let mut floor = 0u64;
            for (raw, kind) in &raws {
                match kind {
                    0 | 1 => ops.push(Op::Pop),
                    k => {
                        let at = match raw % 4 {
                            0 | 1 => floor,                      // exact tie
                            2 => floor - floor % SLOT + raw % SLOT, // same slot
                            _ => floor + raw % (4 * SLOT),       // next slots
                        };
                        floor = floor.max(at);
                        ops.push(Op::Push {
                            at,
                            delivered: k % 3 == 0,
                            src: (*raw % 2) as u32,
                        });
                    }
                }
            }
            lockstep(&ops);
        }
    }

    #[test]
    fn single_slot_burst_of_twelve_thousand_pops_in_key_order() {
        // An early event holds the wheel back while the first 6,000
        // events of a burst bin into the next slot; popping it promotes
        // that slot as one sorted run. The other 6,000 then land in the
        // promoted slot — the side heap — interleaved with pops, so pops
        // keep choosing between the run and the side heap. Keys arrive
        // in scrambled order, a third of them at one instant.
        const SLOT: u64 = 1 << L0_BITS;
        let mut ops = vec![Op::Push {
            at: 5,
            delivered: false,
            src: 0,
        }];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..12_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = if x.is_multiple_of(3) {
                SLOT
            } else {
                SLOT + x % SLOT
            };
            ops.push(Op::Push {
                at,
                delivered: x.is_multiple_of(5),
                src: (x % 3) as u32,
            });
            if i == 5_999 || (i > 6_000 && i % 3 == 0) {
                ops.push(Op::Pop);
            }
        }
        lockstep(&ops);
    }

    #[test]
    fn same_instant_ties_pop_in_class_src_seq_order() {
        let mut wheel = TimerWheel::new();
        // Locals pushed first, then deliveries from two sources, all at
        // one instant: pops must order deliveries (class 0) first, by
        // (src, seq), then locals in seq order.
        wheel.push(ev(1000, CLASS_LOCAL, 0, 7));
        wheel.push(ev(1000, CLASS_LOCAL, 0, 3));
        wheel.push(ev(1000, CLASS_DELIVERED, 2, 1));
        wheel.push(ev(1000, CLASS_DELIVERED, 1, 9));
        let got: Vec<(u8, u32, u64)> = std::iter::from_fn(|| wheel.pop())
            .map(|s| (s.class, s.src, s.seq))
            .collect();
        assert_eq!(got, vec![(0, 1, 9), (0, 2, 1), (1, 0, 3), (1, 0, 7)]);
    }

    #[test]
    fn far_future_events_survive_the_overflow_horizon() {
        const HORIZON: u64 = 1 << (L0_BITS + SLOT_BITS * LEVELS as u32);
        let mut wheel = TimerWheel::new();
        wheel.push(ev(5 * HORIZON + 17, CLASS_LOCAL, 0, 1));
        wheel.push(ev(3, CLASS_LOCAL, 0, 2));
        wheel.push(ev(u64::MAX, CLASS_LOCAL, 0, 3));
        assert_eq!(wheel.pop().unwrap().at.as_ps(), 3);
        assert_eq!(wheel.pop().unwrap().at.as_ps(), 5 * HORIZON + 17);
        assert_eq!(wheel.pop().unwrap().at.as_ps(), u64::MAX);
        assert!(wheel.pop().is_none());
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn insert_into_fresh_page_cannot_overtake_parked_coarser_slot() {
        // Regression shape for invariant 2: park an event in a level-1
        // slot, advance the wheel into that page via a level-0 drain at
        // the page edge, then insert a *later* event that bins into
        // level 0 of the fresh page. Without the crossing cascade the
        // later event would pop first.
        const SLOT: u64 = 1 << L0_BITS;
        const PAGE: u64 = SLOT << SLOT_BITS;
        let mut wheel = TimerWheel::new();
        wheel.push(ev(PAGE + 5, CLASS_LOCAL, 0, 1)); // parks in level 1
        wheel.push(ev(PAGE - 1, CLASS_LOCAL, 0, 2)); // last slot of page 0
        assert_eq!(wheel.pop().unwrap().at.as_ps(), PAGE - 1);
        // cpos is now exactly at the page edge; this push must not
        // overtake the parked PAGE+5 event.
        wheel.push(ev(PAGE + 9 * SLOT, CLASS_LOCAL, 0, 3));
        assert_eq!(wheel.pop().unwrap().at.as_ps(), PAGE + 5);
        assert_eq!(wheel.pop().unwrap().at.as_ps(), PAGE + 9 * SLOT);
    }
}
