//! Fluid-flow bandwidth resources with weighted max-min fair sharing.
//!
//! Links, PCIe lanes, memory systems and compression engines are all modelled
//! as a [`FluidResource`]: a capacity in bytes/second shared by the flows
//! currently crossing it. Whenever the flow set changes, rates are
//! recomputed with **weighted max-min fairness** (water-filling): each flow
//! receives `weight × fair-share`, clamped to its optional rate cap, and
//! capacity freed by capped flows is redistributed to the rest. Between
//! changes, rates are constant, so every flow's completion instant is exact —
//! this is the classic piecewise-constant fluid approximation used by flow
//! simulators, and it is what lets a laptop reproduce bandwidth phenomena
//! measured on 100 GbE hardware.
//!
//! A flow may be *persistent* (infinite bytes) to model background pressure —
//! e.g. the Intel MLC memory-load injector from the paper's Section 3 — and
//! every flow carries a `class` tag so callers can account bytes per
//! direction (memory read vs write, PCIe H2D vs D2H).
//!
//! # Driving protocol
//!
//! The resource is passive. After *any* batch of calls at one instant, the
//! driver must:
//!
//! 1. drain [`FluidResource::take_completed`], and
//! 2. re-arm a wakeup at [`FluidResource::next_wake`] carrying
//!    [`FluidResource::epoch`]; stale epochs are ignored on delivery.
//!
//! # Performance
//!
//! With `n` live flows and `k` of them rate-capped, start, end and sync
//! cost **O(log n + completions + k)** and
//! [`FluidResource::next_wake`] costs O(1 + k). Only the Intel MLC injector
//! caps flows, so `k` is 0 on every hot resource. This is the GPS/WFQ
//! virtual-time construction (Parekh & Gallager 1993; Demers, Keshav &
//! Shenker 1989):
//!
//! - **One clock for all uncapped flows.** Under weighted max-min sharing,
//!   every flow without a binding cap moves at `weight × level`, where the
//!   *level* is the capacity the capped flows leave free divided by the
//!   live uncapped weight. The resource keeps one virtual clock
//!   `V(t) = ∫ level dt` (bytes per unit weight) instead of per-flow byte
//!   counters. A finite uncapped flow of `b` bytes started at `V₀` gets the
//!   finish tag `V₀ + b / weight`; it has `(tag − V) × weight` bytes left
//!   and completes when `V` reaches its tag. `V` re-bases to 0 whenever
//!   the tag heap drains.
//! - **An indexed finish-tag heap.** Tags live in a binary min-heap on
//!   `(tag, slot)` with a slot → position array, so the next uncapped
//!   completion is the heap top and `end_flow` removes a flow in
//!   O(log n). Persistent (∞-byte) flows count toward the level and the
//!   per-class weights but never enter the heap.
//! - **Per-class bytes from per-class weights.** Each sync credits every
//!   class `live uncapped weight × ΔV`, then takes back the overshoot of
//!   each flow retired past its tag, so a flow is credited exactly its
//!   size, as with explicit counters.
//! - **A capped side set.** Flows with a finite cap keep an explicit rate
//!   and remaining byte count in a small set sorted by `(cap / weight,
//!   slot)`. Only that set is water-filled on a change; what it leaves
//!   fixes the level for everyone else.
//!
//! Flows completing in one sync are reported in ascending slot order, and
//! the epoch bumps exactly where a full re-water-fill would run (every
//! start, end, cap or capacity change, and every sync that retires a
//! flow), so a driver cannot tell this solver from the naive O(n) one kept
//! as the test oracle. They differ only in floating-point summation order:
//! rates and per-class bytes agree within 1e-9 relative and wake instants
//! within 1 ps.
//!
//! # Examples
//!
//! ```
//! use simkit::{FlowSpec, FluidResource, Time};
//!
//! // A 100 Gbps link (12.5 GB/s).
//! let mut link = FluidResource::new("nic0", 12.5e9);
//! link.start_flow(Time::ZERO, 12.5e9, FlowSpec::new(), 1);
//! link.start_flow(Time::ZERO, 12.5e9, FlowSpec::new(), 2);
//! // Two equal flows share the link: each runs at 6.25 GB/s and both
//! // 12.5 GB transfers finish at t = 2 s (+1 ps rounding guard).
//! let wake = link.next_wake().unwrap();
//! assert_eq!(wake, Time::from_secs(2.0) + Time::from_ps(1));
//! link.sync(wake);
//! let done = link.take_completed();
//! assert_eq!(done.len(), 2);
//! ```

use crate::time::Time;

/// Residual byte count below which a flow is considered complete.
const EPS_BYTES: f64 = 0.5;

/// `heap_pos` entry of a slot that is not in the finish-tag heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// Identifier for a flow within one [`FluidResource`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct FlowId(u32);

/// Parameters of a new flow.
#[derive(Copy, Clone, Debug)]
pub struct FlowSpec {
    /// Relative share weight (default 1.0). Must be positive and finite.
    pub weight: f64,
    /// Upper bound on this flow's rate in bytes/sec (default unbounded).
    /// Used when the flow's source or sink is slower than this resource.
    pub rate_cap: f64,
    /// Accounting class (e.g. 0 = read, 1 = write). Purely for metering.
    /// Must be below 8, the size of the per-class byte table; the
    /// [`FlowSpec::class`] builder enforces the bound.
    pub class: u8,
}

impl FlowSpec {
    /// A weight-1, uncapped, class-0 flow.
    pub fn new() -> Self {
        FlowSpec {
            weight: 1.0,
            rate_cap: f64::INFINITY,
            class: 0,
        }
    }

    /// Sets the fair-share weight.
    pub fn weight(mut self, w: f64) -> Self {
        assert!(w > 0.0 && w.is_finite(), "weight must be positive: {w}");
        self.weight = w;
        self
    }

    /// Sets a rate cap in bytes/sec.
    pub fn rate_cap(mut self, cap: f64) -> Self {
        assert!(cap >= 0.0, "rate cap must be non-negative: {cap}");
        self.rate_cap = cap;
        self
    }

    /// Sets the accounting class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is 8 or above: classes index an 8-entry byte
    /// table, and an out-of-range class would silently alias another
    /// class's accounting.
    pub fn class(mut self, class: u8) -> Self {
        assert!(class < 8, "accounting class out of range: {class}");
        self.class = class;
        self
    }
}

impl Default for FlowSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// A finished flow, reported by [`FluidResource::take_completed`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FlowEnd {
    /// The caller-supplied token identifying what this flow was.
    pub token: u64,
}

/// A live flow with a finite rate cap, tracked explicitly in the side set.
#[derive(Copy, Clone, Debug)]
struct CappedFlow {
    slot: u32,
    rate: f64,
    remaining: f64,
}

/// A shared-bandwidth resource with weighted max-min fair allocation.
///
/// See the module-level documentation for the driving protocol and the
/// virtual-time construction behind it. The flow table is stored
/// struct-of-arrays; a slot's column entries are meaningful only while
/// `live[slot]`.
#[derive(Debug)]
pub struct FluidResource {
    name: &'static str,
    capacity: f64,
    /// Design capacity; `capacity` may be scaled below this by fault
    /// injection and restored via [`FluidResource::set_capacity_frac`].
    nominal: f64,
    weight: Vec<f64>,
    /// Rate cap; a finite cap places the slot in `capped`.
    cap: Vec<f64>,
    class: Vec<u8>,
    token: Vec<u64>,
    live: Vec<bool>,
    /// Finish tag of an uncapped flow: the `vclock` value at which it
    /// completes (`∞` for persistent flows).
    tag: Vec<f64>,
    /// The slot's position in `heap`, or [`NOT_IN_HEAP`].
    heap_pos: Vec<u32>,
    free: Vec<u32>,
    active: usize,
    last_sync: Time,
    epoch: u64,
    completed: Vec<FlowEnd>,
    /// Cumulative bytes moved, per accounting class.
    class_bytes: [f64; 8],
    /// Virtual clock `V`: bytes per unit weight every uncapped flow has
    /// moved since the heap last drained.
    vclock: f64,
    /// `dV/dt`: the per-unit-weight rate of every uncapped flow.
    level: f64,
    /// Live uncapped weight per class, persistent flows included.
    class_weight: [f64; 8],
    /// Live uncapped flows per class: a class's weight resets to exactly
    /// zero when its last flow leaves, so no rounding residue survives.
    class_flows: [u32; 8],
    /// Finite uncapped flows: a binary min-heap of slots on `(tag, slot)`.
    heap: Vec<u32>,
    /// Lower bound on the weights in `heap` since it last drained; it
    /// sizes the retirement window `EPS_BYTES / weight` of `retire_due`.
    heap_min_weight: f64,
    /// Capped flows, sorted by `(cap / weight, slot)`: the water-filling
    /// order.
    capped: Vec<CappedFlow>,
    /// Scratch: slots retiring in the current sync, sorted ascending
    /// before anything is folded over them.
    retired: Vec<u32>,
    /// Scratch: heap slots inside the retirement window but not yet done.
    deferred: Vec<u32>,
}

impl FluidResource {
    /// Creates a resource with `capacity` bytes/sec.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative or NaN.
    pub fn new(name: &'static str, capacity: f64) -> Self {
        assert!(
            capacity >= 0.0 && !capacity.is_nan(),
            "capacity must be non-negative: {capacity}"
        );
        FluidResource {
            name,
            capacity,
            nominal: capacity,
            weight: Vec::new(),
            cap: Vec::new(),
            class: Vec::new(),
            token: Vec::new(),
            live: Vec::new(),
            tag: Vec::new(),
            heap_pos: Vec::new(),
            free: Vec::new(),
            active: 0,
            last_sync: Time::ZERO,
            epoch: 0,
            completed: Vec::new(),
            class_bytes: [0.0; 8],
            vclock: 0.0,
            level: 0.0,
            class_weight: [0.0; 8],
            class_flows: [0; 8],
            heap: Vec::new(),
            heap_min_weight: f64::INFINITY,
            capped: Vec::new(),
            retired: Vec::new(),
            deferred: Vec::new(),
        }
    }

    /// The resource's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current capacity in bytes/sec (nominal unless degraded).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The design capacity the resource was created with, unaffected by
    /// degradation.
    pub fn nominal_capacity(&self) -> f64 {
        self.nominal
    }

    /// Scales capacity to `frac` of nominal (fault injection: `0.0` is a
    /// hard link-down, `1.0` restores full bandwidth). Bytes already
    /// moved are settled at the old rates first, then all live flows are
    /// re-water-filled under the new capacity and the epoch bumps, so stale
    /// wakeups are discarded by the driving protocol as usual. At zero
    /// capacity every flow stalls ([`FluidResource::next_wake`] returns
    /// `None`) until capacity returns.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is negative or NaN.
    pub fn set_capacity_frac(&mut self, now: Time, frac: f64) {
        assert!(
            frac >= 0.0 && !frac.is_nan(),
            "{}: invalid capacity fraction {frac}",
            self.name
        );
        self.sync(now);
        self.capacity = self.nominal * frac;
        self.recompute();
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Monotonic epoch, bumped whenever rates change. Wakeups scheduled under
    /// an older epoch must be discarded.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative bytes transferred for an accounting class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is 8 or above (see [`FlowSpec::class`]).
    pub fn bytes_for_class(&self, class: u8) -> f64 {
        assert!(class < 8, "accounting class out of range: {class}");
        self.class_bytes[class as usize]
    }

    /// Cumulative bytes transferred across all classes.
    pub fn total_bytes(&self) -> f64 {
        self.class_bytes.iter().sum()
    }

    /// Sum of current flow rates (bytes/sec); never exceeds capacity.
    pub fn allocated_rate(&self) -> f64 {
        let uncapped = self.level * self.uncapped_weight();
        uncapped + self.capped.iter().map(|f| f.rate).sum::<f64>()
    }

    /// Current rate of one flow in bytes/sec.
    ///
    /// # Panics
    ///
    /// Panics if the flow has already completed or been ended.
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        let i = id.0 as usize;
        assert!(self.live[i], "{}: flow {id:?} is not live", self.name);
        if self.cap[i].is_finite() {
            self.capped[self.capped_pos(id.0)].rate
        } else {
            self.weight[i] * self.level
        }
    }

    /// Live uncapped weight: the divisor of the level.
    fn uncapped_weight(&self) -> f64 {
        self.class_weight.iter().sum()
    }

    /// Position of `slot` in `capped` under the `(cap / weight, slot)`
    /// order: its index if present, its insertion point if not.
    fn capped_pos(&self, slot: u32) -> usize {
        let key = |s: u32| self.cap[s as usize] / self.weight[s as usize];
        let k = key(slot);
        self.capped.partition_point(|f| {
            let kf = key(f.slot);
            kf < k || (kf == k && f.slot < slot)
        })
    }

    /// Heap order: finish tag, then slot.
    fn heap_less(&self, a: u32, b: u32) -> bool {
        let (ta, tb) = (self.tag[a as usize], self.tag[b as usize]);
        ta < tb || (ta == tb && a < b)
    }

    fn heap_place(&mut self, pos: usize, slot: u32) {
        self.heap[pos] = slot;
        self.heap_pos[slot as usize] = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let slot = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if !self.heap_less(slot, p) {
                break;
            }
            self.heap_place(pos, p);
            pos = parent;
        }
        self.heap_place(pos, slot);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let slot = self.heap[pos];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap_less(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.heap_less(c, slot) {
                break;
            }
            self.heap_place(pos, c);
            pos = child;
        }
        self.heap_place(pos, slot);
    }

    fn heap_push(&mut self, slot: u32) {
        self.heap.push(slot);
        self.sift_up(self.heap.len() - 1);
    }

    fn heap_remove(&mut self, slot: u32) {
        let pos = self.heap_pos[slot as usize] as usize;
        debug_assert_eq!(self.heap.get(pos).copied(), Some(slot));
        self.heap_pos[slot as usize] = NOT_IN_HEAP;
        self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.sift_down(pos);
            self.sift_up(pos);
        }
    }

    /// Places live `slot`, holding `bytes` still to move, under its
    /// current cap: in the capped side set, or among the uncapped flows
    /// (in the tag heap unless persistent).
    fn attach(&mut self, slot: u32, bytes: f64) {
        let i = slot as usize;
        if self.cap[i].is_finite() {
            let pos = self.capped_pos(slot);
            self.capped.insert(pos, CappedFlow { slot, rate: 0.0, remaining: bytes });
            return;
        }
        let (w, c) = (self.weight[i], self.class[i] as usize);
        self.class_weight[c] += w;
        self.class_flows[c] += 1;
        if bytes.is_finite() {
            self.tag[i] = self.vclock + bytes / w;
            self.heap_min_weight = self.heap_min_weight.min(w);
            self.heap_push(slot);
        } else {
            self.tag[i] = f64::INFINITY;
        }
    }

    /// Undoes [`attach`](Self::attach) for live `slot`.
    fn detach(&mut self, slot: u32) {
        let i = slot as usize;
        if self.cap[i].is_finite() {
            let pos = self.capped_pos(slot);
            debug_assert_eq!(self.capped.get(pos).map(|f| f.slot), Some(slot));
            self.capped.remove(pos);
            return;
        }
        self.release_weight(slot);
        if self.heap_pos[i] != NOT_IN_HEAP {
            self.heap_remove(slot);
        }
    }

    /// Takes an uncapped slot's weight out of its class.
    fn release_weight(&mut self, slot: u32) {
        let c = self.class[slot as usize] as usize;
        self.class_flows[c] -= 1;
        self.class_weight[c] = if self.class_flows[c] == 0 {
            0.0
        } else {
            self.class_weight[c] - self.weight[slot as usize]
        };
    }

    /// Advances fluid state to `now`, moving bytes and retiring finished
    /// flows into the completed buffer.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the previous sync point.
    #[inline]
    pub fn sync(&mut self, now: Time) {
        assert!(
            now >= self.last_sync,
            "{}: sync moving backwards: {now:?} < {:?}",
            self.name,
            self.last_sync
        );
        let dt = (now - self.last_sync).as_secs();
        self.last_sync = now;
        if dt == 0.0 || self.active == 0 {
            return;
        }
        self.advance(dt);
    }

    /// Moves `dt` seconds of bytes through the live flows at current rates
    /// and retires the flows that finish (the body of [`Self::sync`]).
    fn advance(&mut self, dt: f64) {
        if self.level > 0.0 {
            let dv = self.level * dt;
            for c in 0..8 {
                if self.class_flows[c] > 0 {
                    self.class_bytes[c] += self.class_weight[c] * dv;
                }
            }
            if !self.heap.is_empty() {
                self.vclock += dv;
                self.retire_due();
            }
        }
        let mut capped_done = false;
        for k in 0..self.capped.len() {
            let f = self.capped[k];
            if f.rate == 0.0 {
                continue;
            }
            let moved = (f.rate * dt).min(f.remaining);
            self.class_bytes[self.class[f.slot as usize] as usize] += moved;
            if f.remaining.is_finite() {
                let rem = f.remaining - moved;
                self.capped[k].remaining = rem;
                if rem <= EPS_BYTES {
                    self.retired.push(f.slot);
                    capped_done = true;
                }
            }
        }
        if capped_done {
            self.capped.retain(|f| f.remaining > EPS_BYTES);
        }
        if !self.retired.is_empty() {
            self.retire();
            self.recompute();
        }
    }

    /// Pops every heap flow within `EPS_BYTES` of its tag into `retired`.
    /// A flow is done once `(tag − V) × weight ≤ EPS_BYTES`; scanning tags
    /// in heap order until `(tag − V) × heap_min_weight` exceeds the bound
    /// covers the loosest per-flow threshold, and candidates inside that
    /// window that are not yet done go back on the heap.
    fn retire_due(&mut self) {
        while let Some(&top) = self.heap.first() {
            let i = top as usize;
            if (self.tag[i] - self.vclock) * self.heap_min_weight > EPS_BYTES {
                break;
            }
            self.heap_remove(top);
            if (self.tag[i] - self.vclock) * self.weight[i] <= EPS_BYTES {
                self.retired.push(top);
            } else {
                self.deferred.push(top);
            }
        }
        while let Some(slot) = self.deferred.pop() {
            self.heap_push(slot);
        }
    }

    /// Reports the flows collected in `retired`, in ascending slot order,
    /// and frees their slots. Uncapped flows give back their weight and
    /// the bytes they were credited past their tag.
    fn retire(&mut self) {
        self.retired.sort_unstable();
        for k in 0..self.retired.len() {
            let slot = self.retired[k];
            let i = slot as usize;
            if !self.cap[i].is_finite() {
                self.release_weight(slot);
                let overshoot = (self.vclock - self.tag[i]) * self.weight[i];
                if overshoot > 0.0 {
                    self.class_bytes[self.class[i] as usize] -= overshoot;
                }
            }
            self.live[i] = false;
            self.active -= 1;
            self.completed.push(FlowEnd { token: self.token[i] });
            self.free.push(slot);
        }
        self.retired.clear();
    }

    /// Starts a flow of `bytes` (may be `f64::INFINITY` for a persistent
    /// background flow). The caller must have synced to `now` beforehand or
    /// rely on this call doing it.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or NaN, or if `spec` violates the
    /// documented field bounds (non-positive/non-finite weight, negative
    /// or NaN rate cap, class ≥ 8) — possible only by mutating the public
    /// fields directly past the builder's checks.
    #[inline]
    pub fn start_flow(&mut self, now: Time, bytes: f64, spec: FlowSpec, token: u64) -> FlowId {
        assert!(bytes >= 0.0 && !bytes.is_nan(), "invalid flow size: {bytes}");
        assert!(
            spec.weight > 0.0 && spec.weight.is_finite(),
            "invalid flow weight: {}",
            spec.weight
        );
        assert!(
            spec.rate_cap >= 0.0 && !spec.rate_cap.is_nan(),
            "invalid rate cap: {}",
            spec.rate_cap
        );
        assert!(spec.class < 8, "accounting class out of range: {}", spec.class);
        self.sync(now);
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.weight[i] = spec.weight;
                self.cap[i] = spec.rate_cap;
                self.class[i] = spec.class;
                self.token[i] = token;
                slot
            }
            None => {
                self.weight.push(spec.weight);
                self.cap.push(spec.rate_cap);
                self.class.push(spec.class);
                self.token.push(token);
                self.live.push(false);
                self.tag.push(0.0);
                self.heap_pos.push(NOT_IN_HEAP);
                (self.weight.len() - 1) as u32
            }
        };
        // A zero-byte flow completes immediately without affecting rates.
        if bytes <= EPS_BYTES {
            self.completed.push(FlowEnd { token });
            self.free.push(slot);
            return FlowId(slot);
        }
        self.live[slot as usize] = true;
        self.active += 1;
        self.attach(slot, bytes);
        self.recompute();
        FlowId(slot)
    }

    /// Ends a flow early (used for persistent background flows). Any
    /// remaining bytes are abandoned; no completion is reported.
    ///
    /// # Panics
    ///
    /// Panics if the flow is not live.
    pub fn end_flow(&mut self, now: Time, id: FlowId) {
        self.sync(now);
        let i = id.0 as usize;
        assert!(self.live[i], "{}: ending non-live flow {id:?}", self.name);
        self.detach(id.0);
        self.live[i] = false;
        self.active -= 1;
        self.free.push(id.0);
        self.recompute();
    }

    /// Drains the buffer of flows that finished at or before the last sync.
    pub fn take_completed(&mut self) -> Vec<FlowEnd> {
        std::mem::take(&mut self.completed)
    }

    /// Appends the completed-flow buffer to `out` and clears it, keeping
    /// both allocations alive for reuse — the zero-allocation counterpart
    /// of [`FluidResource::take_completed`] for per-event drain loops.
    #[inline]
    pub fn take_completed_into(&mut self, out: &mut Vec<FlowEnd>) {
        out.append(&mut self.completed);
    }

    /// The instant of the next flow completion under current rates, if any:
    /// the heap top's tag distance over the level, or the soonest capped
    /// flow, ceiled to the next picosecond + 1 ps so the wake lands
    /// strictly after the completion instant even when the division is
    /// exactly representable.
    #[inline]
    pub fn next_wake(&self) -> Option<Time> {
        let mut best = f64::INFINITY;
        if self.level > 0.0 {
            if let Some(&top) = self.heap.first() {
                best = (self.tag[top as usize] - self.vclock) / self.level;
            }
        }
        for f in &self.capped {
            if f.rate > 0.0 && f.remaining.is_finite() {
                best = best.min(f.remaining / f.rate);
            }
        }
        best.is_finite().then(|| {
            self.last_sync
                .saturating_add(Time::from_secs_ceil(best))
                .saturating_add(Time::from_ps(1))
        })
    }

    /// Weighted max-min fair (water-filling) rate allocation over the
    /// capped side set, in its `(cap / weight, slot)` order: capped flows
    /// below the fair share are satisfied and their leftover capacity
    /// released in one pass; what remains, divided by the uncapped weight,
    /// is the level every uncapped flow moves at. Always bumps the epoch.
    fn recompute(&mut self) {
        self.epoch += 1;
        if self.heap.is_empty() {
            self.vclock = 0.0;
            self.heap_min_weight = f64::INFINITY;
        }
        let uncapped = self.uncapped_weight();
        let capped_weight: f64 = self.capped.iter().map(|f| self.weight[f.slot as usize]).sum();
        let mut remaining_weight = uncapped + capped_weight;
        let mut remaining_cap = self.capacity;
        for k in 0..self.capped.len() {
            let i = self.capped[k].slot as usize;
            let w = self.weight[i];
            let share = if remaining_weight > 0.0 {
                remaining_cap * w / remaining_weight
            } else {
                0.0
            };
            let rate = share.min(self.cap[i]);
            self.capped[k].rate = rate;
            remaining_cap = (remaining_cap - rate).max(0.0);
            remaining_weight -= w;
        }
        self.level = if uncapped > 0.0 { remaining_cap / uncapped } else { 0.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::gbps;

    fn drain_tokens(r: &mut FluidResource) -> Vec<u64> {
        r.take_completed().into_iter().map(|e| e.token).collect()
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let mut r = FluidResource::new("link", 1e9);
        let id = r.start_flow(Time::ZERO, 1e9, FlowSpec::new(), 7);
        assert_eq!(r.flow_rate(id), 1e9);
        let wake = r.next_wake().unwrap();
        // 1 GB at 1 GB/s = 1 s (+1 ps rounding guard).
        assert!(wake >= Time::from_secs(1.0));
        assert!(wake <= Time::from_secs(1.0) + Time::from_ps(2));
        r.sync(wake);
        assert_eq!(drain_tokens(&mut r), vec![7]);
        assert_eq!(r.active_flows(), 0);
    }

    #[test]
    fn equal_flows_split_equally() {
        let mut r = FluidResource::new("link", 2e9);
        let a = r.start_flow(Time::ZERO, 1e9, FlowSpec::new(), 1);
        let b = r.start_flow(Time::ZERO, 1e9, FlowSpec::new(), 2);
        assert_eq!(r.flow_rate(a), 1e9);
        assert_eq!(r.flow_rate(b), 1e9);
    }

    #[test]
    fn weights_bias_allocation() {
        let mut r = FluidResource::new("mem", 3e9);
        let a = r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new().weight(2.0), 1);
        let b = r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new().weight(1.0), 2);
        assert!((r.flow_rate(a) - 2e9).abs() < 1.0);
        assert!((r.flow_rate(b) - 1e9).abs() < 1.0);
    }

    #[test]
    fn rate_cap_releases_capacity_to_others() {
        let mut r = FluidResource::new("pcie", 10e9);
        let slow = r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new().rate_cap(1e9), 1);
        let fast = r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new(), 2);
        assert_eq!(r.flow_rate(slow), 1e9);
        // The uncapped flow gets everything the capped one cannot use.
        assert!((r.flow_rate(fast) - 9e9).abs() < 1.0);
    }

    #[test]
    fn completion_frees_bandwidth_for_remaining_flow() {
        let mut r = FluidResource::new("link", 2e9);
        r.start_flow(Time::ZERO, 1e9, FlowSpec::new(), 1); // done at 1 s
        let b = r.start_flow(Time::ZERO, 3e9, FlowSpec::new(), 2);
        let w1 = r.next_wake().unwrap();
        r.sync(w1);
        assert_eq!(drain_tokens(&mut r), vec![1]);
        // Flow b moved 1 GB in the first second, 2 GB left at full 2 GB/s.
        assert!((r.flow_rate(b) - 2e9).abs() < 1.0);
        let w2 = r.next_wake().unwrap();
        assert!(w2 >= Time::from_secs(2.0) && w2 <= Time::from_secs(2.0) + Time::from_ps(4));
        r.sync(w2);
        assert_eq!(drain_tokens(&mut r), vec![2]);
    }

    #[test]
    fn persistent_flow_never_completes_but_meters_bytes() {
        let mut r = FluidResource::new("mem", 1e9);
        r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new().class(3), 1);
        assert_eq!(r.next_wake(), None);
        r.sync(Time::from_secs(2.0));
        assert!(drain_tokens(&mut r).is_empty());
        assert!((r.bytes_for_class(3) - 2e9).abs() < 1.0);
    }

    #[test]
    fn end_flow_redistributes() {
        let mut r = FluidResource::new("link", 2e9);
        let bg = r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new(), 1);
        let fg = r.start_flow(Time::ZERO, 4e9, FlowSpec::new(), 2);
        assert_eq!(r.flow_rate(fg), 1e9);
        r.end_flow(Time::from_secs(1.0), bg);
        assert_eq!(r.flow_rate(fg), 2e9);
        // fg moved 1 GB already; 3 GB at 2 GB/s → finishes at 2.5 s.
        let w = r.next_wake().unwrap();
        assert!(w >= Time::from_secs(2.5) && w <= Time::from_secs(2.5) + Time::from_ps(4));
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut r = FluidResource::new("link", 1e9);
        r.start_flow(Time::ZERO, 0.0, FlowSpec::new(), 9);
        assert_eq!(drain_tokens(&mut r), vec![9]);
        assert_eq!(r.active_flows(), 0);
    }

    #[test]
    fn zero_capacity_stalls() {
        let mut r = FluidResource::new("dead", 0.0);
        let id = r.start_flow(Time::ZERO, 100.0, FlowSpec::new(), 1);
        assert_eq!(r.flow_rate(id), 0.0);
        assert_eq!(r.next_wake(), None);
    }

    #[test]
    fn conservation_under_many_flows() {
        let mut r = FluidResource::new("mem", gbps(960.0));
        for i in 0..17 {
            let spec = FlowSpec::new()
                .weight(1.0 + (i % 3) as f64)
                .rate_cap(if i % 4 == 0 { gbps(10.0) } else { f64::INFINITY });
            r.start_flow(Time::ZERO, f64::INFINITY, spec, i);
        }
        let total = r.allocated_rate();
        assert!(total <= r.capacity() * (1.0 + 1e-9), "over-allocated: {total}");
        // Work conservation: with at least one uncapped flow, everything is used.
        assert!(total >= r.capacity() * (1.0 - 1e-9), "under-allocated: {total}");
    }

    #[test]
    fn epoch_bumps_on_rate_changes() {
        let mut r = FluidResource::new("link", 1e9);
        let e0 = r.epoch();
        let id = r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new(), 1);
        assert!(r.epoch() > e0);
        let e1 = r.epoch();
        r.end_flow(Time::from_ps(10), id);
        assert!(r.epoch() > e1);
    }

    #[test]
    fn capacity_degradation_stalls_and_restores() {
        let mut r = FluidResource::new("link", 1e9);
        let id = r.start_flow(Time::ZERO, 2e9, FlowSpec::new(), 1);
        assert_eq!(r.flow_rate(id), 1e9);
        // Half capacity from t = 1 s: 1 GB moved, 1 GB left at 0.5 GB/s.
        r.set_capacity_frac(Time::from_secs(1.0), 0.5);
        assert_eq!(r.capacity(), 0.5e9);
        assert_eq!(r.nominal_capacity(), 1e9);
        assert_eq!(r.flow_rate(id), 0.5e9);
        // Hard down from t = 1.5 s: the flow stalls, no wake is armed.
        r.set_capacity_frac(Time::from_secs(1.5), 0.0);
        assert_eq!(r.flow_rate(id), 0.0);
        assert_eq!(r.next_wake(), None);
        // No bytes move while down.
        r.sync(Time::from_secs(5.0));
        assert!((r.total_bytes() - 1.25e9).abs() < 1.0);
        // Link restored: 0.75 GB left at full rate → done at 5.75 s.
        r.set_capacity_frac(Time::from_secs(5.0), 1.0);
        assert_eq!(r.capacity(), 1e9);
        let w = r.next_wake().unwrap();
        assert!(w >= Time::from_secs(5.75) && w <= Time::from_secs(5.75) + Time::from_ps(4));
        r.sync(w);
        assert_eq!(drain_tokens(&mut r), vec![1]);
    }

    #[test]
    fn degradation_bumps_epoch() {
        let mut r = FluidResource::new("link", 1e9);
        r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new(), 1);
        let e = r.epoch();
        r.set_capacity_frac(Time::from_ps(10), 0.25);
        assert!(r.epoch() > e, "stale wakeups must be invalidated");
    }

    #[test]
    #[should_panic(expected = "invalid capacity fraction")]
    fn negative_capacity_fraction_panics() {
        let mut r = FluidResource::new("link", 1e9);
        r.set_capacity_frac(Time::ZERO, -0.5);
    }

    #[test]
    #[should_panic(expected = "sync moving backwards")]
    fn sync_backwards_panics() {
        let mut r = FluidResource::new("link", 1e9);
        r.sync(Time::from_secs(1.0));
        r.sync(Time::from_ms(1.0));
    }

    #[test]
    #[should_panic(expected = "accounting class out of range")]
    fn class_out_of_range_panics() {
        let _ = FlowSpec::new().class(8);
    }

    #[test]
    fn wake_cache_survives_queries_and_clears_on_change() {
        let mut r = FluidResource::new("link", 1e9);
        r.start_flow(Time::ZERO, 1e9, FlowSpec::new(), 1);
        let w = r.next_wake();
        assert_eq!(r.next_wake(), w, "repeated queries agree");
        // A rate change must not serve the stale instant.
        r.start_flow(Time::ZERO, 1e9, FlowSpec::new(), 2);
        let w2 = r.next_wake().unwrap();
        assert!(w2 > w.unwrap(), "halved rate doubles the completion time");
        // Advancing time shifts the base instant even without rate changes.
        let mut p = FluidResource::new("p", 1e9);
        p.start_flow(Time::ZERO, 2e9, FlowSpec::new(), 3);
        let before = p.next_wake().unwrap();
        p.sync(Time::from_ms(500.0));
        assert!(p.take_completed().is_empty());
        let after = p.next_wake().unwrap();
        assert!((after >= before - Time::from_ps(2)) && (after <= before + Time::from_ps(2)));
    }

    #[test]
    fn slot_reuse_keeps_indices_dense() {
        let mut r = FluidResource::new("link", 8e9);
        let ids: Vec<FlowId> = (0..8)
            .map(|i| r.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new(), i))
            .collect();
        for id in ids.iter().take(6) {
            r.end_flow(Time::from_ps(5), *id);
        }
        assert_eq!(r.active_flows(), 2);
        // The freed slots are reused (LIFO) and the survivors share fairly.
        let n1 = r.start_flow(Time::from_ps(10), f64::INFINITY, FlowSpec::new(), 100);
        let n2 = r.start_flow(Time::from_ps(10), f64::INFINITY, FlowSpec::new(), 101);
        assert!((r.flow_rate(n1) - 2e9).abs() < 1.0);
        assert!((r.flow_rate(n2) - 2e9).abs() < 1.0);
        assert!((r.allocated_rate() - 8e9).abs() < 1.0);
        assert_eq!(r.flow_rate(ids[7]), r.flow_rate(n1));
    }

    /// The naive solver, the single retained oracle: per-flow byte
    /// counters, full-table scans everywhere and a fresh collect + stable
    /// sort on every recompute. See `differential` for how closely the
    /// virtual-time solver must agree with it.
    mod naive {
        use super::super::{FlowEnd, FlowSpec, EPS_BYTES};
        use crate::time::Time;

        #[derive(Debug, Clone)]
        struct Flow {
            remaining: f64,
            spec: FlowSpec,
            rate: f64,
            token: u64,
            live: bool,
        }

        #[derive(Debug)]
        pub struct NaiveResource {
            capacity: f64,
            nominal: f64,
            flows: Vec<Flow>,
            free: Vec<u32>,
            active: usize,
            last_sync: Time,
            epoch: u64,
            completed: Vec<FlowEnd>,
            class_bytes: [f64; 8],
        }

        impl NaiveResource {
            pub fn new(capacity: f64) -> Self {
                NaiveResource {
                    capacity,
                    nominal: capacity,
                    flows: Vec::new(),
                    free: Vec::new(),
                    active: 0,
                    last_sync: Time::ZERO,
                    epoch: 0,
                    completed: Vec::new(),
                    class_bytes: [0.0; 8],
                }
            }

            pub fn epoch(&self) -> u64 {
                self.epoch
            }

            pub fn bytes_for_class(&self, class: u8) -> f64 {
                self.class_bytes[class as usize & 7]
            }

            pub fn active_flows(&self) -> usize {
                self.active
            }

            pub fn allocated_rate(&self) -> f64 {
                self.flows.iter().filter(|f| f.live).map(|f| f.rate).sum()
            }

            pub fn flow_rate(&self, slot: u32) -> f64 {
                let f = &self.flows[slot as usize];
                assert!(f.live);
                f.rate
            }

            pub fn is_live(&self, slot: u32) -> bool {
                self.flows.get(slot as usize).is_some_and(|f| f.live)
            }

            pub fn sync(&mut self, now: Time) {
                assert!(now >= self.last_sync);
                let dt = (now - self.last_sync).as_secs();
                self.last_sync = now;
                if dt == 0.0 || self.active == 0 {
                    return;
                }
                let mut retired = false;
                for (i, f) in self.flows.iter_mut().enumerate() {
                    if !f.live || f.rate == 0.0 {
                        continue;
                    }
                    let moved = (f.rate * dt).min(f.remaining);
                    self.class_bytes[f.spec.class as usize & 7] += moved;
                    if f.remaining.is_finite() {
                        f.remaining -= moved;
                        if f.remaining <= EPS_BYTES {
                            f.live = false;
                            retired = true;
                            self.completed.push(FlowEnd { token: f.token });
                            self.free.push(i as u32);
                        }
                    }
                }
                if retired {
                    self.active = self.flows.iter().filter(|f| f.live).count();
                    self.recompute();
                }
            }

            pub fn start_flow(&mut self, now: Time, bytes: f64, spec: FlowSpec, token: u64) -> u32 {
                self.sync(now);
                let flow = Flow {
                    remaining: bytes,
                    spec,
                    rate: 0.0,
                    token,
                    live: true,
                };
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.flows[slot as usize] = flow;
                        slot
                    }
                    None => {
                        self.flows.push(flow);
                        (self.flows.len() - 1) as u32
                    }
                };
                if bytes <= EPS_BYTES {
                    let f = &mut self.flows[slot as usize];
                    f.live = false;
                    self.completed.push(FlowEnd { token });
                    self.free.push(slot);
                    return slot;
                }
                self.active += 1;
                self.recompute();
                slot
            }

            pub fn end_flow(&mut self, now: Time, slot: u32) {
                self.sync(now);
                let f = &mut self.flows[slot as usize];
                assert!(f.live);
                f.live = false;
                self.active -= 1;
                self.free.push(slot);
                self.recompute();
            }

            pub fn set_capacity_frac(&mut self, now: Time, frac: f64) {
                self.sync(now);
                self.capacity = self.nominal * frac;
                self.recompute();
            }

            pub fn take_completed(&mut self) -> Vec<FlowEnd> {
                std::mem::take(&mut self.completed)
            }

            pub fn next_wake(&self) -> Option<Time> {
                let mut best: Option<Time> = None;
                for f in &self.flows {
                    if !f.live || f.rate <= 0.0 || !f.remaining.is_finite() {
                        continue;
                    }
                    let secs = f.remaining / f.rate;
                    let at = self
                        .last_sync
                        .saturating_add(Time::from_secs_ceil(secs))
                        .saturating_add(Time::from_ps(1));
                    best = Some(match best {
                        Some(b) => b.min(at),
                        None => at,
                    });
                }
                best
            }

            fn recompute(&mut self) {
                self.epoch += 1;
                if self.active == 0 {
                    return;
                }
                let mut order: Vec<u32> = (0..self.flows.len() as u32)
                    .filter(|&i| self.flows[i as usize].live)
                    .collect();
                order.sort_by(|&a, &b| {
                    let fa = &self.flows[a as usize];
                    let fb = &self.flows[b as usize];
                    let ka = fa.spec.rate_cap / fa.spec.weight;
                    let kb = fb.spec.rate_cap / fb.spec.weight;
                    ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut remaining_cap = self.capacity;
                let mut remaining_weight: f64 = order
                    .iter()
                    .map(|&i| self.flows[i as usize].spec.weight)
                    .sum();
                for &i in &order {
                    let f = &mut self.flows[i as usize];
                    let share = if remaining_weight > 0.0 {
                        remaining_cap * f.spec.weight / remaining_weight
                    } else {
                        0.0
                    };
                    let rate = share.min(f.spec.rate_cap);
                    f.rate = rate;
                    remaining_cap = (remaining_cap - rate).max(0.0);
                    remaining_weight -= f.spec.weight;
                }
            }
        }
    }

    /// Differential suites: the virtual-time solver against the naive
    /// oracle, in lockstep. The two differ only in floating-point
    /// summation order, so they must agree on every observable up to
    /// rounding: rates and per-class bytes within 1e-9 relative, wake
    /// instants within 1 ps, and — advancing both to the later of their
    /// two wakes — identical completions (same flows, same slot order),
    /// epochs and slot allocation.
    mod differential {
        use super::naive::NaiveResource;
        use super::*;
        use crate::rng::Rng;
        use testkit::gen::{self, Gen};
        use testkit::one_of;

        /// One step of a random flow script. Flow references are indices
        /// into the list of tokens started so far, reduced mod its length
        /// at interpretation time so every case is valid.
        #[derive(Clone, Debug)]
        enum Op {
            Start { bytes: u32, weight: u8, cap: u8, persistent: bool },
            End { which: u8 },
            SetCapacity { pct: u8 },
            Advance { ps: u32 },
            AdvanceToWake,
        }

        fn op_gen() -> impl Gen<Value = Op> {
            one_of![
                (
                    gen::u32s(1..200_000_000),
                    gen::u8s(1..5),
                    gen::u8s(0..5),
                    gen::bools()
                )
                    .map(|(bytes, weight, cap, persistent)| Op::Start {
                        bytes,
                        weight,
                        cap,
                        persistent
                    }),
                gen::u8s(..).map(|which| Op::End { which }),
                gen::u8s(0..101).map(|pct| Op::SetCapacity { pct }),
                gen::u32s(1..100_000_000).map(|ps| Op::Advance { ps }),
                gen::just(Op::AdvanceToWake),
            ]
        }

        fn close(a: f64, b: f64) -> bool {
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
        }

        fn wakes_close(a: Option<Time>, b: Option<Time>) -> bool {
            match (a, b) {
                (Some(a), Some(b)) => a.max(b) - a.min(b) <= Time::from_ps(1),
                (None, None) => true,
                _ => false,
            }
        }

        /// Both solvers, driven by the same calls at the same instants.
        /// Slot allocation is identical on both sides (same free-list
        /// discipline), so a naive slot is also the fast solver's
        /// `FlowId`.
        struct Lockstep {
            fast: FluidResource,
            slow: NaiveResource,
            now: Time,
            /// Slots ever allocated: live ones are compared flow by flow.
            slots: u32,
        }

        impl Lockstep {
            fn new(capacity: f64) -> Self {
                Lockstep {
                    fast: FluidResource::new("diff", capacity),
                    slow: NaiveResource::new(capacity),
                    now: Time::ZERO,
                    slots: 0,
                }
            }

            fn start(&mut self, bytes: f64, spec: FlowSpec, token: u64) -> u32 {
                let a = self.fast.start_flow(self.now, bytes, spec, token);
                let b = self.slow.start_flow(self.now, bytes, spec, token);
                assert_eq!(a.0, b, "slot allocation diverged");
                self.slots = self.slots.max(b + 1);
                b
            }

            fn end(&mut self, slot: u32) {
                self.fast.end_flow(self.now, FlowId(slot));
                self.slow.end_flow(self.now, slot);
            }

            fn set_capacity(&mut self, frac: f64) {
                self.fast.set_capacity_frac(self.now, frac);
                self.slow.set_capacity_frac(self.now, frac);
            }

            fn advance(&mut self, dt: Time) {
                self.now += dt;
                self.fast.sync(self.now);
                self.slow.sync(self.now);
            }

            /// Advances both solvers to the later of their next wakes
            /// (which must agree within 1 ps). False if neither has one.
            fn advance_to_wake(&mut self) -> bool {
                let (a, b) = (self.fast.next_wake(), self.slow.next_wake());
                assert!(wakes_close(a, b), "wake instants diverged: {a:?} vs {b:?}");
                let Some(at) = a.max(b) else { return false };
                self.now = at;
                self.fast.sync(at);
                self.slow.sync(at);
                true
            }

            /// Compares every observable and returns the completions
            /// drained since the last check (identical on both sides).
            fn check(&mut self) -> Vec<FlowEnd> {
                let (fast, slow) = (&mut self.fast, &mut self.slow);
                assert_eq!(fast.epoch(), slow.epoch(), "epoch counters diverged");
                assert_eq!(fast.active_flows(), slow.active_flows());
                let done = fast.take_completed();
                assert_eq!(done, slow.take_completed(), "completions diverged");
                let (a, b) = (fast.next_wake(), slow.next_wake());
                assert!(wakes_close(a, b), "next_wake diverged: {a:?} vs {b:?}");
                assert!(
                    close(fast.allocated_rate(), slow.allocated_rate()),
                    "allocated rate diverged: {} vs {}",
                    fast.allocated_rate(),
                    slow.allocated_rate()
                );
                for slot in 0..self.slots {
                    if slow.is_live(slot) {
                        let a = fast.flow_rate(FlowId(slot));
                        let b = slow.flow_rate(slot);
                        assert!(close(a, b), "flow {slot} rate diverged: {a} vs {b}");
                    }
                }
                for class in 0..8 {
                    let (a, b) = (fast.bytes_for_class(class), slow.bytes_for_class(class));
                    assert!(close(a, b), "class {class} bytes diverged: {a} vs {b}");
                }
                done
            }

            /// A live slot picked by `which`, if any flow is live.
            fn live_slot(&self, which: u64) -> Option<u32> {
                let live: Vec<u32> = (0..self.slots).filter(|&s| self.slow.is_live(s)).collect();
                (!live.is_empty()).then(|| live[(which % live.len() as u64) as usize])
            }
        }

        /// Runs one random script against both solvers, checking after
        /// every step.
        fn run_script(ops: &[Op]) {
            let mut pair = Lockstep::new(10e9);
            let mut token = 0u64;
            // Slots ever started, for End to pick targets from.
            let mut slots: Vec<u32> = Vec::new();
            for op in ops {
                match *op {
                    Op::Start { bytes, weight, cap, persistent } => {
                        let mut spec = FlowSpec::new().weight(weight as f64);
                        if cap > 0 {
                            spec = spec.rate_cap(cap as f64 * 1.5e9);
                        }
                        let bytes = if persistent { f64::INFINITY } else { bytes as f64 };
                        slots.push(pair.start(bytes, spec, token));
                        token += 1;
                    }
                    Op::End { which } => {
                        if slots.is_empty() {
                            continue;
                        }
                        let slot = slots[which as usize % slots.len()];
                        if pair.slow.is_live(slot) {
                            pair.end(slot);
                        }
                    }
                    Op::SetCapacity { pct } => pair.set_capacity(pct as f64 / 100.0),
                    Op::Advance { ps } => pair.advance(Time::from_ps(ps as u64)),
                    Op::AdvanceToWake => {
                        pair.advance_to_wake();
                    }
                }
                pair.check();
            }
        }

        testkit::prop! {
            cases = 96;

            /// The virtual-time solver and the naive oracle agree on every
            /// observable for arbitrary flow scripts.
            fn incremental_solver_matches_naive_oracle(ops in gen::vecs(op_gen(), 1..80)) {
                run_script(&ops);
            }
        }

        #[test]
        fn capped_uncapped_transitions_match_oracle() {
            // A directed script whose capped flows turn binding and slack
            // (and back) as the capacity moves, while flows of both sides
            // retire mid-stream, and that drains the heap so the clock
            // re-bases.
            let ops = vec![
                Op::Start { bytes: 0, weight: 1, cap: 0, persistent: true },
                Op::Start { bytes: 50_000_000, weight: 2, cap: 0, persistent: false },
                Op::Start { bytes: 80_000_000, weight: 1, cap: 2, persistent: false },
                Op::Start { bytes: 0, weight: 1, cap: 1, persistent: true },
                Op::AdvanceToWake,
                Op::Advance { ps: 5_000_000 },
                Op::SetCapacity { pct: 40 },
                Op::AdvanceToWake,
                Op::SetCapacity { pct: 10 },
                Op::Advance { ps: 5_000_000 },
                Op::SetCapacity { pct: 100 },
                Op::End { which: 3 },
                Op::End { which: 0 },
                Op::AdvanceToWake,
                Op::AdvanceToWake,
            ];
            run_script(&ops);
        }

        /// A block-sized transfer: 4 KiB scaled by `0.25 + Exp(1)`, whole
        /// bytes, so sizes are staggered and the odd tie still happens.
        fn block(rng: &mut Rng) -> f64 {
            (4096.0 * (0.25 + rng.gen_exp(1.0))).round()
        }

        #[test]
        fn dense_refill_matches_oracle() {
            // dense_write's port shape: 480 weight-1 flows of staggered
            // sizes on a 100 GbE port, every completion refilled at once,
            // for 10k wake/refill cycles.
            let mut pair = Lockstep::new(12.5e9);
            let mut rng = Rng::new(0xD15E);
            let mut token = 0u64;
            while token < 480 {
                pair.start(block(&mut rng), FlowSpec::new(), token);
                token += 1;
            }
            pair.check();
            for _ in 0..10_000 {
                assert!(pair.advance_to_wake(), "a dense port always has a next wake");
                let done = pair.check();
                assert!(!done.is_empty(), "a wake retires at least one flow");
                for _ in &done {
                    pair.start(block(&mut rng), FlowSpec::new(), token);
                    token += 1;
                }
                pair.check();
            }
            assert_eq!(pair.fast.active_flows(), 480);
        }

        #[test]
        fn mixed_weight_capped_persistent_matches_oracle() {
            // Host memory under the MLC injector: a heavy, rate-capped
            // persistent flow, an uncapped persistent one, and short I/O
            // bursts of mixed weights and classes (a few capped), with the
            // injector restarted under a new cap, capacity degraded and
            // bursts abandoned along the way.
            let mut pair = Lockstep::new(96e9);
            let mut rng = Rng::new(0x3C7);
            let injector = |cap: f64| FlowSpec::new().weight(72.0).rate_cap(cap).class(2);
            let mut mlc = pair.start(f64::INFINITY, injector(30e9), u64::MAX);
            pair.start(f64::INFINITY, FlowSpec::new().weight(1.5).class(2), u64::MAX - 1);
            let mut token = 0u64;
            let burst = |pair: &mut Lockstep, rng: &mut Rng, token: &mut u64| {
                let weight = [1.0, 1.5, 2.0, 3.0][rng.gen_range(4) as usize];
                let mut spec = FlowSpec::new().weight(weight).class(rng.gen_range(2) as u8);
                if rng.gen_bool(0.1) {
                    spec = spec.rate_cap(2e9);
                }
                pair.start(block(rng) * 16.0, spec, *token);
                *token += 1;
            };
            for _ in 0..64 {
                burst(&mut pair, &mut rng, &mut token);
            }
            pair.check();
            let caps = [30e9, 5e9, f64::INFINITY, 60e9];
            for cycle in 0..3_000u32 {
                assert!(pair.advance_to_wake(), "finite bursts always pend");
                for _ in pair.check() {
                    burst(&mut pair, &mut rng, &mut token);
                }
                if cycle % 50 == 0 {
                    pair.end(mlc);
                    let cap = caps[(cycle / 50) as usize % caps.len()];
                    mlc = pair.start(f64::INFINITY, injector(cap), u64::MAX);
                }
                if cycle % 97 == 0 {
                    pair.set_capacity(if cycle % 194 == 0 { 0.5 } else { 1.0 });
                }
                if cycle % 211 == 0 {
                    let burst_slot = |s: &u32| *s > 1 && *s != mlc;
                    if let Some(slot) = pair.live_slot(rng.next_u64()).filter(burst_slot) {
                        pair.end(slot);
                        burst(&mut pair, &mut rng, &mut token);
                    }
                }
                pair.check();
            }
        }
    }
}
