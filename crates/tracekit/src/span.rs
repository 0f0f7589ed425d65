//! Span identity, stage vocabulary, and the span record.
//!
//! A *span* is one interval of simulated time attributed to one stage of one
//! request. Spans form a tree per trace: the root span covers the whole
//! request (issue to quorum ack), children cover individual pipeline steps
//! (a DMA leg, an engine job, a disk append). Identity is plain integers so
//! that a trace serializes byte-identically across runs of the same seed.

use simkit::Time;

/// Identifies one sampled request's span tree.
///
/// `0` is the null trace (not sampled — all span calls become no-ops) and
/// `1` is reserved for maintenance work not tied to any request (scrubs,
/// fault-plan bookkeeping). Request traces are derived from the request's
/// issue ordinal, so the same seed always yields the same trace ids.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null trace: spans opened against it are discarded.
    pub const NULL: TraceId = TraceId(0);
    /// The maintenance trace for work not attributable to a request.
    pub const MAINT: TraceId = TraceId(1);

    /// Whether this is the null (unsampled) trace.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// Identifies one span within a [`Tracer`](crate::Tracer).
///
/// Ids are allocated sequentially per tracer; `0` is the null span, returned
/// by `span_open` when the trace is unsampled so call sites never branch.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: closing or annotating it is a no-op.
    pub const NULL: SpanId = SpanId(0);

    /// Whether this is the null span.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// What a span's interval was spent on.
///
/// The first [`SEGMENT_COUNT`](StageKind::SEGMENT_COUNT) variants are the
/// *latency segments*: consecutive milestones that exactly partition a write
/// request's issue-to-ack latency (see [`SegmentAccum`](crate::SegmentAccum)).
/// The rest label resource occupancy, lifecycle events, and functional steps.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageKind {
    // -- latency segments (paper-figure breakdown; order matters) ----------
    /// Issue (or retry backoff expiry) until the payload is on the NIC.
    Ingress,
    /// Header parse: NIC ingress until the verb is understood.
    Parse,
    /// Compression: parse done until the compressed block exists.
    Compress,
    /// Replication fan-out until the last tracked milestone before ack.
    Replicate,
    /// Post-verb/ack tail: last milestone until quorum completion.
    Ack,
    // -- request lifecycle -------------------------------------------------
    /// Root span of one request, issue to completion.
    Request,
    /// A retry was scheduled after an aborted or failed attempt.
    Retry,
    /// The request timer fired before quorum was reached.
    Timeout,
    /// The quorum was explicitly abandoned for this attempt.
    Abort,
    // -- resource occupancy ------------------------------------------------
    /// Ethernet/RDMA wire transfer.
    Wire,
    /// NIC-attached DMA engine transfer.
    NicDma,
    /// Device-to-host or host-to-device PCIe DMA.
    DevDma,
    /// Host DRAM read/write.
    HostMem,
    /// On-NIC HBM read/write.
    Hbm,
    /// SmartNIC device DRAM read/write.
    DevMem,
    /// A job occupying a host/Arm CPU core.
    CpuJob,
    /// A job occupying the FPGA (de)compression engine.
    EngineJob,
    /// An NVMe disk I/O on a storage server.
    DiskIo,
    /// Fixed propagation/pipeline-fill delay.
    Propagation,
    // -- functional steps --------------------------------------------------
    /// AAMS message split (header/payload placement decision).
    Split,
    /// AAMS message assemble from host+device halves.
    Assemble,
    /// Replica append on a storage server.
    Append,
    /// Replica write redirected away from a dead server.
    Failover,
    /// A replica ack counted toward the write quorum.
    QuorumAck,
    /// A background scrub pass repairing replicas.
    Scrub,
    /// An RC data packet left the sender.
    RcTx,
    /// An RC data packet arrived at the receiver.
    RcRx,
    /// Content-defined-chunking dedup scan over a payload.
    Dedup,
    /// XTS encryption or decryption of a sealed segment.
    Encrypt,
    /// Hot-block cache probe at the middle tier.
    Cache,
    /// A speculative prefetch fetch issued on a read miss.
    Prefetch,
}

impl StageKind {
    /// Number of latency segments at the front of [`StageKind::ALL`].
    pub const SEGMENT_COUNT: usize = 5;

    /// The latency segments, in pipeline order.
    pub const SEGMENTS: [StageKind; StageKind::SEGMENT_COUNT] = [
        StageKind::Ingress,
        StageKind::Parse,
        StageKind::Compress,
        StageKind::Replicate,
        StageKind::Ack,
    ];

    /// Every stage kind, in declaration order. Breakdown tables index by
    /// position in this array.
    pub const ALL: [StageKind; 31] = [
        StageKind::Ingress,
        StageKind::Parse,
        StageKind::Compress,
        StageKind::Replicate,
        StageKind::Ack,
        StageKind::Request,
        StageKind::Retry,
        StageKind::Timeout,
        StageKind::Abort,
        StageKind::Wire,
        StageKind::NicDma,
        StageKind::DevDma,
        StageKind::HostMem,
        StageKind::Hbm,
        StageKind::DevMem,
        StageKind::CpuJob,
        StageKind::EngineJob,
        StageKind::DiskIo,
        StageKind::Propagation,
        StageKind::Split,
        StageKind::Assemble,
        StageKind::Append,
        StageKind::Failover,
        StageKind::QuorumAck,
        StageKind::Scrub,
        StageKind::RcTx,
        StageKind::RcRx,
        StageKind::Dedup,
        StageKind::Encrypt,
        StageKind::Cache,
        StageKind::Prefetch,
    ];

    /// Position of this kind in [`StageKind::ALL`].
    pub fn index(self) -> usize {
        let mut i = 0;
        while i < StageKind::ALL.len() {
            if StageKind::ALL[i] == self {
                return i;
            }
            i += 1;
        }
        0
    }

    /// Position among the latency segments, if this kind is one.
    pub fn segment_index(self) -> Option<usize> {
        let i = self.index();
        if i < StageKind::SEGMENT_COUNT {
            Some(i)
        } else {
            None
        }
    }

    /// Stable kebab-case name used as the Chrome trace category and in
    /// breakdown tables.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Ingress => "ingress",
            StageKind::Parse => "parse",
            StageKind::Compress => "compress",
            StageKind::Replicate => "replicate",
            StageKind::Ack => "ack",
            StageKind::Request => "request",
            StageKind::Retry => "retry",
            StageKind::Timeout => "timeout",
            StageKind::Abort => "abort",
            StageKind::Wire => "wire",
            StageKind::NicDma => "nic-dma",
            StageKind::DevDma => "dev-dma",
            StageKind::HostMem => "host-mem",
            StageKind::Hbm => "hbm",
            StageKind::DevMem => "dev-mem",
            StageKind::CpuJob => "cpu-job",
            StageKind::EngineJob => "engine-job",
            StageKind::DiskIo => "disk-io",
            StageKind::Propagation => "propagation",
            StageKind::Split => "split",
            StageKind::Assemble => "assemble",
            StageKind::Append => "append",
            StageKind::Failover => "failover",
            StageKind::QuorumAck => "quorum-ack",
            StageKind::Scrub => "scrub",
            StageKind::RcTx => "rc-tx",
            StageKind::RcRx => "rc-rx",
            StageKind::Dedup => "dedup",
            StageKind::Encrypt => "encrypt",
            StageKind::Cache => "cache",
            StageKind::Prefetch => "prefetch",
        }
    }
}

/// One closed span: an interval of simulated time attributed to a stage.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The trace (request) this span belongs to.
    pub trace: TraceId,
    /// This span's id, unique within the tracer.
    pub id: SpanId,
    /// Enclosing span, or [`SpanId::NULL`] for a root.
    pub parent: SpanId,
    /// What the interval was spent on.
    pub kind: StageKind,
    /// Human-readable site label (`"dma-h2d"`, `"lz4-engine"`, ...).
    pub label: &'static str,
    /// Simulated open time.
    pub open: Time,
    /// Simulated close time (`>= open`).
    pub close: Time,
    /// Payload bytes the span moved or processed (0 when not applicable).
    pub bytes: u64,
    /// Queue depth observed at open (jobs ahead of this one), when known.
    pub queue: u32,
    /// Free-form annotations added while the span was open.
    pub notes: Vec<&'static str>,
    /// Fault-injection events whose timestamp falls inside the span.
    pub faults: Vec<String>,
}

/// Checks structural invariants over a set of closed spans: every interval
/// is non-negative, every non-null parent exists in the same trace, and a
/// child's interval nests inside its parent's.
///
/// Returns the first violation found, described for a test failure message.
pub fn well_formed(spans: &[Span]) -> Result<(), String> {
    let mut index = std::collections::BTreeMap::new();
    for s in spans {
        index.insert((s.trace.0, s.id.0), (s.open, s.close));
    }
    for s in spans {
        if s.close < s.open {
            return Err(format!(
                "span {} ({}) closes at {:?} before it opens at {:?}",
                s.id.0, s.label, s.close, s.open
            ));
        }
        if s.parent.is_null() {
            continue;
        }
        match index.get(&(s.trace.0, s.parent.0)) {
            None => {
                return Err(format!(
                    "span {} ({}) has orphan parent {} in trace {}",
                    s.id.0, s.label, s.parent.0, s.trace.0
                ));
            }
            Some(&(po, pc)) => {
                if s.open < po || s.close > pc {
                    return Err(format!(
                        "span {} ({}) [{:?}, {:?}] escapes parent {} [{:?}, {:?}]",
                        s.id.0, s.label, s.open, s.close, s.parent.0, po, pc
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, open: u64, close: u64) -> Span {
        Span {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: SpanId(parent),
            kind: StageKind::Request,
            label: "t",
            open: Time::from_ps(open),
            close: Time::from_ps(close),
            bytes: 0,
            queue: 0,
            notes: Vec::new(),
            faults: Vec::new(),
        }
    }

    #[test]
    fn all_is_exhaustive_and_index_roundtrips() {
        for (i, k) in StageKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{:?}", k);
        }
        for (i, k) in StageKind::SEGMENTS.iter().enumerate() {
            assert_eq!(k.segment_index(), Some(i));
        }
        assert_eq!(StageKind::Request.segment_index(), None);
        // Names are unique (they key breakdown tables and trace categories).
        let mut names: Vec<_> = StageKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StageKind::ALL.len());
    }

    #[test]
    fn well_formed_accepts_nesting_and_rejects_violations() {
        let good = vec![span(2, 1, 0, 0, 100), span(2, 2, 1, 10, 90)];
        assert!(well_formed(&good).is_ok());

        let orphan = vec![span(2, 2, 7, 10, 90)];
        assert!(well_formed(&orphan).unwrap_err().contains("orphan"));

        let escape = vec![span(2, 1, 0, 0, 50), span(2, 2, 1, 10, 90)];
        assert!(well_formed(&escape).unwrap_err().contains("escapes"));

        let backwards = vec![span(2, 1, 0, 100, 10)];
        assert!(well_formed(&backwards).unwrap_err().contains("before"));
    }
}
