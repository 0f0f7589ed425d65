//! The seeded, head-sampling tracer and its ring-buffer span sink.
//!
//! Determinism contract: whether a request is traced is a pure function of
//! `(seed, request ordinal)`, span ids are allocated sequentially, and spans
//! are retired to the sink in close order — so two runs of the same seed
//! produce byte-identical exports. No wall-clock, no global state.

use crate::span::{Span, SpanId, StageKind, TraceId};
use simkit::Time;
use std::collections::{BTreeMap, VecDeque};

/// Tracer tuning knobs, carried in `RunConfig`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TraceConfig {
    /// Sample one request in this many (1 = trace everything).
    pub sample_one_in: u64,
    /// Ring-buffer capacity in closed spans; the oldest spans are dropped
    /// (and counted) once full, bounding memory for long runs.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_one_in: 1,
            capacity: 65536,
        }
    }
}

/// splitmix64 finalizer: the same stateless mixer the workload generators
/// use, here hashing `(seed, ordinal)` into the sampling decision.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic span recorder with head sampling and a bounded sink.
///
/// A disabled tracer (the default) turns every call into a no-op returning
/// [`SpanId::NULL`], so instrumented code never branches on tracing state.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    on: bool,
    seed: u64,
    sample_one_in: u64,
    capacity: usize,
    next_span: u64,
    open: BTreeMap<u64, Span>,
    done: VecDeque<Span>,
    dropped: u64,
    opened: u64,
    closed: u64,
    faults: Vec<(Time, String)>,
}

impl Tracer {
    /// A disabled tracer: every call is a no-op.
    pub fn off() -> Self {
        Tracer::default()
    }

    /// An enabled tracer sampling per `cfg` with decisions seeded by `seed`.
    pub fn new(seed: u64, cfg: TraceConfig) -> Self {
        Tracer {
            on: true,
            seed,
            sample_one_in: cfg.sample_one_in.max(1),
            capacity: cfg.capacity.max(1),
            ..Tracer::default()
        }
    }

    /// Whether this tracer records anything at all.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The sampling seed (exported in trace metadata).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Head-sampling decision for a request's issue ordinal: a pure function
    /// of `(seed, ordinal)`, independent of tracer state.
    fn sampled(&self, ordinal: u64) -> bool {
        self.on && mix(self.seed ^ mix(ordinal)).is_multiple_of(self.sample_one_in)
    }

    /// The trace id for a request by issue ordinal: null when unsampled,
    /// otherwise `ordinal + 2` (0 and 1 are reserved).
    pub fn trace_for(&self, ordinal: u64) -> TraceId {
        if self.sampled(ordinal) {
            TraceId(ordinal + 2)
        } else {
            TraceId::NULL
        }
    }

    /// The maintenance trace when enabled, null otherwise.
    pub fn maint(&self) -> TraceId {
        if self.on {
            TraceId::MAINT
        } else {
            TraceId::NULL
        }
    }

    /// Opens a span at simulated time `now`. Returns [`SpanId::NULL`] (a
    /// universal no-op handle) when disabled or the trace is unsampled.
    pub fn span_open(
        &mut self,
        trace: TraceId,
        parent: SpanId,
        kind: StageKind,
        label: &'static str,
        bytes: u64,
        now: Time,
    ) -> SpanId {
        if !self.on || trace.is_null() {
            return SpanId::NULL;
        }
        self.next_span += 1;
        let id = SpanId(self.next_span);
        self.opened += 1;
        self.open.insert(
            id.0,
            Span {
                trace,
                id,
                parent,
                kind,
                label,
                open: now,
                close: now,
                bytes,
                queue: 0,
                notes: Vec::new(),
                faults: Vec::new(),
            },
        );
        id
    }

    /// Closes a span at `now`, attaching every fault mark whose timestamp
    /// falls inside `[open, now]`, and retires it to the ring sink.
    pub fn span_close(&mut self, id: SpanId, now: Time) {
        if id.is_null() {
            return;
        }
        if let Some(mut s) = self.open.remove(&id.0) {
            s.close = now;
            for (at, desc) in &self.faults {
                if *at >= s.open && *at <= s.close {
                    s.faults.push(desc.clone());
                }
            }
            self.closed += 1;
            if self.done.len() == self.capacity {
                self.done.pop_front();
                self.dropped += 1;
            }
            self.done.push_back(s);
        }
    }

    /// Appends a static annotation to an open span (no-op on null/closed).
    pub fn span_note(&mut self, id: SpanId, note: &'static str) {
        if let Some(s) = self.open.get_mut(&id.0) {
            s.notes.push(note);
        }
    }

    /// Records the queue depth observed when the span's work was submitted.
    pub fn span_set_queue(&mut self, id: SpanId, depth: u32) {
        if let Some(s) = self.open.get_mut(&id.0) {
            s.queue = depth;
        }
    }

    /// A zero-duration span: open and close at the same instant.
    pub fn instant(
        &mut self,
        trace: TraceId,
        parent: SpanId,
        kind: StageKind,
        label: &'static str,
        bytes: u64,
        now: Time,
    ) {
        let id = self.span_open(trace, parent, kind, label, bytes, now);
        self.span_close(id, now);
    }

    /// Registers a fault-injection event; every span whose interval contains
    /// `at` (closed afterwards) carries `desc` in its fault list.
    pub fn fault_mark(&mut self, at: Time, desc: String) {
        if self.on {
            self.faults.push((at, desc));
        }
    }

    /// Closes every still-open span at `now`, annotated as unclosed — the
    /// end-of-run sweep that keeps exports balanced when requests are cut
    /// off mid-flight (parents close before children, in id order, so
    /// retirement order stays deterministic).
    pub fn close_all(&mut self, now: Time) {
        let ids: Vec<u64> = self.open.keys().copied().collect();
        for id in ids {
            self.span_note(SpanId(id), "unclosed-at-run-end");
            self.span_close(SpanId(id), now);
        }
    }

    /// Closed spans in retirement order (oldest first, post-eviction).
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.done.iter()
    }

    /// Spans evicted from the ring sink because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total spans ever opened (including later-evicted ones).
    pub fn opened(&self) -> u64 {
        self.opened
    }

    /// Total spans closed so far.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Spans currently open (opened but not yet closed).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Serializes the sink as Chrome `trace_event` JSON.
    pub fn export_chrome(&self) -> String {
        crate::chrome::export(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let mut tr = Tracer::off();
        assert!(!tr.enabled());
        assert_eq!(tr.trace_for(0), TraceId::NULL);
        assert!(tr.maint().is_null());
        let id = tr.span_open(TraceId(5), SpanId::NULL, StageKind::Request, "w", 0, t(0));
        assert!(id.is_null());
        tr.span_close(id, t(10));
        tr.fault_mark(t(1), "crash".into());
        assert_eq!(tr.spans().count(), 0);
        assert_eq!(tr.opened(), 0);
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_ordinal() {
        let cfg = TraceConfig {
            sample_one_in: 4,
            capacity: 16,
        };
        let a = Tracer::new(42, cfg);
        let mut b = Tracer::new(42, cfg);
        // Mutating tracer state must not change sampling decisions.
        let id = b.span_open(TraceId(2), SpanId::NULL, StageKind::Request, "w", 0, t(0));
        b.span_close(id, t(5));
        let picks_a: Vec<bool> = (0..256).map(|i| a.sampled(i)).collect();
        let picks_b: Vec<bool> = (0..256).map(|i| b.sampled(i)).collect();
        assert_eq!(picks_a, picks_b);
        let hits = picks_a.iter().filter(|&&p| p).count();
        assert!(hits > 0 && hits < 256, "1-in-4 sampling hit {hits}/256");
        // A different seed picks a different subset.
        let c = Tracer::new(43, cfg);
        assert!((0..256).any(|i| a.sampled(i) != c.sampled(i)));
    }

    #[test]
    fn ring_sink_is_bounded_and_counts_drops() {
        let mut tr = Tracer::new(
            7,
            TraceConfig {
                sample_one_in: 1,
                capacity: 4,
            },
        );
        for i in 0..10u64 {
            let id = tr.span_open(TraceId(2), SpanId::NULL, StageKind::CpuJob, "j", i, t(i));
            tr.span_close(id, t(i + 1));
        }
        assert_eq!(tr.spans().count(), 4);
        assert_eq!(tr.dropped(), 6);
        assert_eq!(tr.opened(), 10);
        assert_eq!(tr.closed(), 10);
        // The survivors are the newest four, in close order.
        let bytes: Vec<u64> = tr.spans().map(|s| s.bytes).collect();
        assert_eq!(bytes, vec![6, 7, 8, 9]);
    }

    #[test]
    fn fault_marks_attach_to_overlapping_spans_only() {
        let mut tr = Tracer::new(7, TraceConfig::default());
        let hit = tr.span_open(TraceId(2), SpanId::NULL, StageKind::DiskIo, "io", 0, t(10));
        let miss = tr.span_open(TraceId(2), SpanId::NULL, StageKind::DiskIo, "io", 0, t(10));
        tr.span_close(miss, t(14));
        tr.fault_mark(t(15), "server-crash(1)".into());
        tr.span_close(hit, t(20));
        let spans: Vec<&Span> = tr.spans().collect();
        assert_eq!(spans[0].faults, Vec::<String>::new());
        assert_eq!(spans[1].faults, vec!["server-crash(1)".to_string()]);
    }

    #[test]
    fn notes_and_queue_depth_are_recorded() {
        let mut tr = Tracer::new(7, TraceConfig::default());
        let id = tr.span_open(TraceId(2), SpanId::NULL, StageKind::EngineJob, "lz4", 4096, t(0));
        tr.span_note(id, "retransmit");
        tr.span_set_queue(id, 3);
        tr.span_close(id, t(9));
        let s = tr.spans().next().expect("one span");
        assert_eq!(s.notes, vec!["retransmit"]);
        assert_eq!(s.queue, 3);
        // Annotating after close is a silent no-op.
        tr.span_note(id, "late");
        assert_eq!(tr.spans().next().map(|s| s.notes.len()), Some(1));
    }
}
