//! SmartNIC-side admission control and backpressure for the open-loop
//! request stream: per-class rate policing, then bounded per-class
//! in-flight windows with bounded per-class ingress queues behind them.
//!
//! A closed-loop driver self-limits; an open-loop tenant population does
//! not. The middle-tier hub therefore bounds what it accepts: each of
//! the 8 traffic classes may carry a rate limit (a [`TokenBucket`] with an
//! 8-block burst), an in-flight window (requests admitted into the
//! datapath) and an ingress queue (arrivals waiting for a window slot).
//! An arrival that finds its class's bucket empty, or both its window and
//! queue full, is *rejected* — deterministically, no randomized early drop
//! — so rejected/deferred counts are a pure function of the arrival and
//! completion sequence. Completions release window slots and pull
//! deferred arrivals through in FIFO order, which is what drains the
//! backlog once load drops.
//!
//! Because SmartDS keeps all control logic in host software (§2.2.1,
//! §4.3), per-tenant policy like this stays one code change away: tenants
//! reach admission through their class, so a class rate is a tenant rate
//! once the load spec maps each tenant to its own class.
//!
//! This module owns only occupancy and token state; the cluster counts
//! verdicts into its [`crate::Metrics`] so the warm-up reset applies to
//! them.

use crate::loadgen::CLASSES;
use hwmodel::consts::BLOCK_SIZE;
use simkit::Time;
use std::collections::VecDeque;

/// Burst depth of a class rate limit, in blocks.
const RATE_BURST_BLOCKS: f64 = 8.0;

/// Admission limits, applied per traffic class.
#[derive(Copy, Clone, Debug)]
pub struct AdmissionSpec {
    /// In-flight window per class: requests admitted into the datapath.
    pub in_flight: usize,
    /// Ingress queue bound per class: arrivals deferred while the window
    /// is full. Beyond this, arrivals are rejected.
    pub queue: usize,
    /// Per-class rate limit, bytes/s of write payload (`None` =
    /// unpoliced). Arrivals beyond the rate are rejected before they
    /// reach the window.
    pub class_rate: [Option<f64>; CLASSES],
}

impl AdmissionSpec {
    /// Limits of `in_flight` datapath slots and `queue` deferred slots
    /// per class.
    ///
    /// # Panics
    ///
    /// Panics for a zero in-flight window (nothing could ever be
    /// admitted).
    pub fn new(in_flight: usize, queue: usize) -> Self {
        assert!(in_flight > 0, "in-flight window must be positive");
        AdmissionSpec { in_flight, queue, class_rate: [None; CLASSES] }
    }

    /// Same limits with traffic class `class` policed to `bytes_per_s`
    /// of write payload by a token bucket with an 8-block burst.
    ///
    /// # Panics
    ///
    /// Panics for a class outside the 8 traffic classes or a
    /// non-positive rate.
    pub fn with_class_rate(mut self, class: u8, bytes_per_s: f64) -> Self {
        assert!((class as usize) < CLASSES, "traffic class {class} out of range");
        assert!(bytes_per_s > 0.0, "class rate must be positive");
        self.class_rate[class as usize] = Some(bytes_per_s);
        self
    }
}

/// A deferred arrival waiting in an ingress queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Deferred {
    /// Tenant id of the deferred arrival.
    pub tenant: u64,
    /// Its traffic class (== queue index; kept for symmetry).
    pub class: u8,
}

/// Outcome of presenting one arrival to the admission stage.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A window slot was free: issue now.
    Admitted,
    /// Window full, queue had room: parked; a later release pulls it.
    Deferred,
    /// The class's rate bucket was empty, or its window and queue were
    /// both full: shed, counted, never issued.
    Rejected,
}

/// Per-class admission state for the hub.
#[derive(Debug)]
pub struct Admission {
    spec: AdmissionSpec,
    in_flight: [usize; CLASSES],
    queues: [VecDeque<Deferred>; CLASSES],
    /// Rate policers of the classes that have one, initially full.
    buckets: [Option<TokenBucket>; CLASSES],
}

impl Admission {
    /// Empty admission state under `spec`.
    pub fn new(spec: AdmissionSpec) -> Self {
        let burst = RATE_BURST_BLOCKS * BLOCK_SIZE as f64;
        Admission {
            spec,
            in_flight: [0; CLASSES],
            queues: Default::default(),
            buckets: spec.class_rate.map(|r| r.map(|rate| TokenBucket::new(rate, burst))),
        }
    }

    /// The configured limits.
    pub fn spec(&self) -> AdmissionSpec {
        self.spec
    }

    /// Presents one block-sized arrival at `now`: polices it against its
    /// class's rate, then occupies a window slot on [`Verdict::Admitted`]
    /// or a queue slot on [`Verdict::Deferred`]. A rate-refused arrival is
    /// [`Verdict::Rejected`] and occupies nothing. The policer comes
    /// first, so an arrival that passes it but finds the window and queue
    /// full has still spent its tokens.
    pub fn on_arrival(&mut self, now: Time, tenant: u64, class: u8) -> Verdict {
        let c = class as usize & (CLASSES - 1);
        if let Some(bucket) = self.buckets[c].as_mut() {
            if !bucket.admit(now, BLOCK_SIZE as u64) {
                return Verdict::Rejected;
            }
        }
        if self.in_flight[c] < self.spec.in_flight {
            self.in_flight[c] += 1;
            Verdict::Admitted
        } else if self.queues[c].len() < self.spec.queue {
            self.queues[c].push_back(Deferred { tenant, class });
            Verdict::Deferred
        } else {
            Verdict::Rejected
        }
    }

    /// Releases one window slot of `class` (a request completed or
    /// terminally failed). Does *not* pull from the queue — callers
    /// decide whether re-issue is still allowed (e.g. not after the
    /// issue-stop boundary) via [`Admission::pop_ready`].
    pub fn release(&mut self, class: u8) {
        let c = class as usize & (CLASSES - 1);
        assert!(self.in_flight[c] > 0, "release without admission, class {class}");
        self.in_flight[c] -= 1;
    }

    /// Pulls the oldest deferred arrival of `class` into a free window
    /// slot, if both exist.
    pub fn pop_ready(&mut self, class: u8) -> Option<Deferred> {
        let c = class as usize & (CLASSES - 1);
        if self.in_flight[c] >= self.spec.in_flight {
            return None;
        }
        let d = self.queues[c].pop_front()?;
        self.in_flight[c] += 1;
        Some(d)
    }

    /// Occupied window slots in `class`.
    pub fn in_flight_in(&self, class: u8) -> usize {
        self.in_flight[class as usize & (CLASSES - 1)]
    }

    /// Queued (deferred) arrivals in `class`.
    pub fn queued_in(&self, class: u8) -> usize {
        self.queues[class as usize & (CLASSES - 1)].len()
    }

    /// Total deferred arrivals across classes — the ingress backlog.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// A token bucket over simulated time.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Time,
}

impl TokenBucket {
    /// A bucket refilling at `rate` bytes/s with `burst` bytes of depth,
    /// initially full.
    ///
    /// # Panics
    ///
    /// Panics unless both are positive.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0 && burst > 0.0, "rate and burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: Time::ZERO,
        }
    }

    fn refill(&mut self, now: Time) {
        if now > self.last {
            let dt = (now - self.last).as_secs();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last = now;
        }
    }

    /// Admits `bytes` at `now` if the bucket holds enough tokens, and
    /// reports whether it did; a refusal spends nothing.
    ///
    /// Requests larger than the burst are admitted once the bucket is full
    /// and leave it in *debt* (negative tokens), pacing later admissions —
    /// the standard way token buckets handle oversize items without
    /// starving them.
    // simlint: allow(test-only-pub, reason = "tests/admission_props.rs checks the policer's conservation bound through it")
    pub fn admit(&mut self, now: Time, bytes: u64) -> bool {
        self.refill(now);
        let need = bytes as f64;
        // Sub-byte epsilon absorbs picosecond rounding in the refill clock.
        let fits = self.tokens + 1e-6 >= need.min(self.burst);
        if fits {
            self.tokens -= need; // may go negative for oversize requests
        }
        fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::gen;

    const T0: Time = Time::ZERO;

    #[test]
    fn admit_defer_reject_in_order() {
        let mut a = Admission::new(AdmissionSpec::new(2, 1));
        assert_eq!(a.on_arrival(T0, 10, 3), Verdict::Admitted);
        assert_eq!(a.on_arrival(T0, 11, 3), Verdict::Admitted);
        assert_eq!(a.on_arrival(T0, 12, 3), Verdict::Deferred);
        assert_eq!(a.on_arrival(T0, 13, 3), Verdict::Rejected);
        // Other classes are independent.
        assert_eq!(a.on_arrival(T0, 14, 0), Verdict::Admitted);
        assert_eq!(a.in_flight_in(3), 2);
        assert_eq!(a.queued_in(3), 1);
        assert_eq!(a.queued(), 1);
    }

    #[test]
    fn release_then_pop_pulls_fifo() {
        let mut a = Admission::new(AdmissionSpec::new(1, 4));
        assert_eq!(a.on_arrival(T0, 1, 5), Verdict::Admitted);
        assert_eq!(a.on_arrival(T0, 2, 5), Verdict::Deferred);
        assert_eq!(a.on_arrival(T0, 3, 5), Verdict::Deferred);
        // No free slot: pop refuses.
        assert_eq!(a.pop_ready(5), None);
        a.release(5);
        assert_eq!(a.pop_ready(5), Some(Deferred { tenant: 2, class: 5 }));
        // The pop re-occupied the slot.
        assert_eq!(a.pop_ready(5), None);
        a.release(5);
        assert_eq!(a.pop_ready(5), Some(Deferred { tenant: 3, class: 5 }));
        a.release(5);
        assert_eq!(a.pop_ready(5), None);
        assert_eq!(a.queued(), 0);
        assert_eq!(a.in_flight_in(5), 0);
    }

    #[test]
    #[should_panic(expected = "release without admission")]
    fn release_without_admission_panics() {
        Admission::new(AdmissionSpec::new(1, 1)).release(0);
    }

    #[test]
    fn class_rate_polices_its_class_only() {
        // 1 block per µs: the 8-block burst passes, the 9th block at the
        // same instant is refused, and a µs later one more block passes.
        let rate = BLOCK_SIZE as f64 * 1e6;
        let mut a = Admission::new(AdmissionSpec::new(64, 0).with_class_rate(2, rate));
        for t in 0..8 {
            assert_eq!(a.on_arrival(T0, t, 2), Verdict::Admitted);
        }
        assert_eq!(a.on_arrival(T0, 8, 2), Verdict::Rejected);
        assert_eq!(a.in_flight_in(2), 8, "a refused arrival took a slot");
        assert_eq!(a.on_arrival(T0, 9, 3), Verdict::Admitted, "class 3 is unpoliced");
        assert_eq!(a.on_arrival(Time::from_us(1.0), 10, 2), Verdict::Admitted);
    }

    #[test]
    fn bucket_admits_burst_then_paces() {
        let mut b = TokenBucket::new(1e9, 8192.0); // 1 GB/s, 2 blocks burst
        assert!(b.admit(Time::ZERO, 4096));
        assert!(b.admit(Time::ZERO, 4096));
        // Bucket empty: the next 4 KiB needs ~4.1 µs of refill.
        assert!(!b.admit(Time::ZERO, 4096));
        assert!(!b.admit(Time::from_us(4.0), 4096));
        assert!(b.admit(Time::from_us(4.2), 4096));
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        // A long idle spell refills one burst, not rate × idle time.
        let mut b = TokenBucket::new(1e9, 1000.0);
        assert!(b.admit(Time::from_secs(100.0), 1000));
        assert!(!b.admit(Time::from_secs(100.0), 1000));
    }

    #[test]
    fn bucket_sustains_configured_rate() {
        let mut b = TokenBucket::new(1e6, 4096.0); // 1 MB/s
        let mut admitted = 0u64;
        // Greedy arrivals every 10 µs for one second.
        for tick in 0..100_000u64 {
            if b.admit(Time::from_ps(tick * 10_000_000), 1000) {
                admitted += 1000;
            }
        }
        let rate = admitted as f64; // bytes in ~1 s
        assert!((0.95e6..1.1e6).contains(&rate), "sustained {rate}");
    }

    /// Today's admission rule without rates, as a model: window first,
    /// then queue, else reject; a release pulls the queue head into the
    /// freed slot.
    #[derive(Default)]
    struct WindowModel {
        in_flight: [usize; CLASSES],
        queued: [usize; CLASSES],
    }

    impl WindowModel {
        fn arrive(&mut self, spec: AdmissionSpec, c: usize) -> Verdict {
            if self.in_flight[c] < spec.in_flight {
                self.in_flight[c] += 1;
                Verdict::Admitted
            } else if self.queued[c] < spec.queue {
                self.queued[c] += 1;
                Verdict::Deferred
            } else {
                Verdict::Rejected
            }
        }

        fn release(&mut self, c: usize) {
            if self.queued[c] > 0 {
                self.queued[c] -= 1;
            } else {
                self.in_flight[c] -= 1;
            }
        }
    }

    // Satellite property: occupancy never exceeds the configured bounds,
    // a rate-refused arrival never takes a slot, verdict counts are a pure
    // function of the operation sequence, and without rates the verdicts
    // follow the plain window-then-queue rule.
    testkit::prop! {
        cases = 48;
        fn occupancy_never_exceeds_bounds(
            seed in gen::u64s(..),
            win in gen::u64s(1..=6),
            q in gen::u64s(0..=6),
            rate_gbps in gen::vecs(gen::u64s(0..=40), 8..=8),
            ops in gen::vecs(gen::u64s(..), 1..400)
        ) {
            let plain = AdmissionSpec::new(win as usize, q as usize);
            // Class c is policed at `rate_gbps[c]` Gbps; 0 leaves it free.
            let mut spec = plain;
            for (c, &g) in rate_gbps.iter().enumerate() {
                if g > 0 {
                    spec = spec.with_class_rate(c as u8, simkit::gbps(g as f64));
                }
            }
            let mut a = Admission::new(spec);
            let mut b = Admission::new(spec);
            let mut unrated = Admission::new(plain);
            let mut model = WindowModel::default();
            let mut rng = simkit::Rng::new(seed);
            let mut verdicts_a = Vec::new();
            let mut verdicts_b = Vec::new();
            let mut now = Time::ZERO;
            for &op in &ops {
                let class = (op % 8) as u8;
                let c = class as usize;
                // Up to 20 µs between operations: about five blocks at
                // 1 Gbps, so buckets both drain and refill.
                now += Time::from_ps((op >> 8) % 20_000_000);
                if rng.gen_bool(0.6) {
                    let before = (a.in_flight_in(class), a.queued_in(class));
                    let va = a.on_arrival(now, op, class);
                    verdicts_a.push(va);
                    verdicts_b.push(b.on_arrival(now, op, class));
                    if va == Verdict::Rejected {
                        // Rate-refused or not, a rejection occupies nothing.
                        assert_eq!(
                            (a.in_flight_in(class), a.queued_in(class)),
                            before,
                            "a rejected arrival took a slot"
                        );
                    }
                    assert_eq!(
                        unrated.on_arrival(now, op, class),
                        model.arrive(plain, c),
                        "unrated verdicts left the window-then-queue rule"
                    );
                } else {
                    if a.in_flight_in(class) > 0 {
                        a.release(class);
                        b.release(class);
                        let pa = a.pop_ready(class);
                        assert_eq!(pa, b.pop_ready(class));
                    }
                    if unrated.in_flight_in(class) > 0 {
                        unrated.release(class);
                        let _ = unrated.pop_ready(class);
                        model.release(c);
                    }
                }
                for adm in [&a, &unrated] {
                    for c in 0..8u8 {
                        assert!(adm.in_flight_in(c) <= spec.in_flight, "window bound broken");
                        assert!(adm.queued_in(c) <= spec.queue, "queue bound broken");
                    }
                }
                assert_eq!(unrated.in_flight_in(class), model.in_flight[c]);
                assert_eq!(unrated.queued_in(class), model.queued[c]);
            }
            // Same sequence → same verdicts: determinism by construction.
            assert_eq!(verdicts_a, verdicts_b);
        }
    }

    // Satellite property: backpressure drains fully once load stops —
    // releasing everything in flight pulls every deferred arrival through.
    testkit::prop! {
        cases = 48;
        fn backlog_drains_fully_after_load_drops(
            arrivals in gen::vecs(gen::u64s(..), 1..300),
            win in gen::u64s(1..=4),
            q in gen::u64s(1..=8)
        ) {
            let spec = AdmissionSpec::new(win as usize, q as usize);
            let mut a = Admission::new(spec);
            let mut live = [0usize; 8];
            for &t in &arrivals {
                let c = (t % 8) as u8;
                if a.on_arrival(T0, t, c) == Verdict::Admitted {
                    live[c as usize] += 1;
                }
            }
            // Load drops to zero: complete everything, pulling deferred
            // arrivals as slots free, exactly as the cluster does.
            loop {
                let mut progressed = false;
                for c in 0..8u8 {
                    if live[c as usize] > 0 {
                        live[c as usize] -= 1;
                        a.release(c);
                        if a.pop_ready(c).is_some() {
                            live[c as usize] += 1;
                        }
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            assert_eq!(a.queued(), 0, "stranded deferred arrivals");
            for c in 0..8u8 {
                assert_eq!(a.in_flight_in(c), 0, "stranded in-flight slot");
            }
        }
    }
}
