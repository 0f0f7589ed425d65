//! Per-stage latency breakdown: the table the paper's figures are drawn from.
//!
//! Two pieces: [`SegmentAccum`], a per-request accumulator that charges the
//! time between consecutive pipeline milestones to latency segments so the
//! segments *exactly partition* issue-to-ack latency (retry backoff lands in
//! the next attempt's ingress segment, so the invariant survives chaos runs);
//! and [`StageBreakdown`], a histogram per [`StageKind`] aggregating those
//! segments — and any other span population — into mean/p99/p999 rows.

use crate::span::{Span, StageKind};
use simkit::json::{array_raw, Object};
use simkit::{Histogram, Time};

/// One row of the exported per-stage table.
#[derive(Clone, Debug, PartialEq)]
pub struct StageRow {
    /// Stage name (see [`StageKind::name`]).
    pub stage: &'static str,
    /// Samples aggregated into this row.
    pub count: u64,
    /// Mean duration, microseconds (exact: sum/count, not bucketed).
    pub mean_us: f64,
    /// 99th-percentile duration, microseconds (bucketed).
    pub p99_us: f64,
    /// 99.9th-percentile duration, microseconds (bucketed).
    pub p999_us: f64,
}

impl StageRow {
    /// Renders the row as a JSON object.
    pub fn to_json(&self) -> String {
        Object::new()
            .field("stage", self.stage)
            .field("count", self.count)
            .field("mean_us", self.mean_us)
            .field("p99_us", self.p99_us)
            .field("p999_us", self.p999_us)
            .finish()
    }
}

/// Renders a slice of rows as a JSON array.
pub fn rows_json(rows: &[StageRow]) -> String {
    let rendered: Vec<String> = rows.iter().map(StageRow::to_json).collect();
    array_raw(&rendered)
}

/// One histogram per [`StageKind`], indexed by [`StageKind::index`].
#[derive(Clone)]
pub struct StageBreakdown {
    hists: Vec<Histogram>,
}

impl Default for StageBreakdown {
    fn default() -> Self {
        StageBreakdown {
            hists: StageKind::ALL.iter().map(|_| Histogram::new()).collect(),
        }
    }
}

/// `Histogram` itself is not `Debug`, so summarize as the non-empty rows.
impl std::fmt::Debug for StageBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageBreakdown").field("rows", &self.rows()).finish()
    }
}

impl StageBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        StageBreakdown::default()
    }

    /// Records one duration under `kind`.
    pub fn record(&mut self, kind: StageKind, d: Time) {
        self.hists[kind.index()].record(d);
    }

    /// The histogram backing `kind`.
    pub fn hist(&self, kind: StageKind) -> &Histogram {
        &self.hists[kind.index()]
    }

    /// Discards every sample.
    pub fn clear(&mut self) {
        for h in &mut self.hists {
            h.clear();
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &StageBreakdown) {
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
    }

    /// Mean duration per latency segment, microseconds, in
    /// [`StageKind::SEGMENTS`] order (0 for empty segments).
    pub fn segment_means_us(&self) -> Vec<f64> {
        StageKind::SEGMENTS
            .iter()
            .map(|&k| {
                let h = self.hist(k);
                if h.is_empty() {
                    0.0
                } else {
                    h.mean().as_us()
                }
            })
            .collect()
    }

    /// Non-empty stages as table rows, in [`StageKind::ALL`] order.
    pub fn rows(&self) -> Vec<StageRow> {
        StageKind::ALL
            .iter()
            .filter(|k| !self.hist(**k).is_empty())
            .map(|&k| {
                let h = self.hist(k);
                StageRow {
                    stage: k.name(),
                    count: h.count(),
                    mean_us: h.mean().as_us(),
                    p99_us: h.quantile(0.99).as_us(),
                    p999_us: h.quantile(0.999).as_us(),
                }
            })
            .collect()
    }

    /// Aggregates closed spans by stage kind (duration = close − open).
    pub fn from_spans<'a>(spans: impl Iterator<Item = &'a Span>) -> Self {
        let mut b = StageBreakdown::new();
        for s in spans {
            b.record(s.kind, s.close - s.open);
        }
        b
    }

    /// Renders the non-empty rows as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("stage        count      mean_us       p99_us      p999_us\n");
        for r in self.rows() {
            out.push_str(&format!(
                "{:<12} {:>6} {:>12.3} {:>12.3} {:>12.3}\n",
                r.stage, r.count, r.mean_us, r.p99_us, r.p999_us
            ));
        }
        out
    }
}

/// Per-request latency-segment accumulator.
///
/// Created at issue time, carried across retries, flushed at completion.
/// Each `Mark` milestone charges `now − last_mark` to its segment, so the
/// segment durations sum *exactly* to issue-to-ack latency: every picosecond
/// of the request's life belongs to exactly one segment.
#[derive(Copy, Clone, Debug)]
pub struct SegmentAccum {
    last: Time,
    acc: [Time; StageKind::SEGMENT_COUNT],
}

impl SegmentAccum {
    /// Starts accumulating at the request's issue time.
    pub fn start(at: Time) -> Self {
        SegmentAccum {
            last: at,
            acc: [Time::ZERO; StageKind::SEGMENT_COUNT],
        }
    }

    /// Charges `now − last_mark` to `kind`'s segment (no-op for non-segment
    /// kinds, so call sites need no filtering).
    pub fn mark(&mut self, kind: StageKind, now: Time) {
        if let Some(i) = kind.segment_index() {
            self.acc[i] += now.saturating_sub(self.last);
            self.last = now;
        }
    }

    /// Total time charged so far.
    pub fn total(&self) -> Time {
        let mut t = Time::ZERO;
        for d in self.acc {
            t += d;
        }
        t
    }

    /// Records each segment's accumulated duration into `out`.
    pub fn flush_into(&self, out: &mut StageBreakdown) {
        for (i, &k) in StageKind::SEGMENTS.iter().enumerate() {
            out.record(k, self.acc[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    #[test]
    fn segments_partition_the_request_latency() {
        let issue = t(100);
        let mut seg = SegmentAccum::start(issue);
        seg.mark(StageKind::Ingress, t(150));
        seg.mark(StageKind::Parse, t(175));
        seg.mark(StageKind::Request, t(999_999)); // non-segment: ignored
        seg.mark(StageKind::Compress, t(300));
        seg.mark(StageKind::Replicate, t(700));
        seg.mark(StageKind::Ack, t(1000));
        assert_eq!(seg.total(), t(900)); // == ack(1000) - issue(100)

        let mut b = StageBreakdown::new();
        seg.flush_into(&mut b);
        assert_eq!(b.hist(StageKind::Ingress).mean(), t(50));
        assert_eq!(b.hist(StageKind::Parse).mean(), t(25));
        assert_eq!(b.hist(StageKind::Compress).mean(), t(125));
        assert_eq!(b.hist(StageKind::Replicate).mean(), t(400));
        assert_eq!(b.hist(StageKind::Ack).mean(), t(300));
        let sum: f64 = b.segment_means_us().iter().sum();
        assert!((sum - t(900).as_us()).abs() < 1e-9);
    }

    #[test]
    fn rows_skip_empty_stages_and_serialize() {
        let mut b = StageBreakdown::new();
        b.record(StageKind::DiskIo, Time::from_us(3.0));
        b.record(StageKind::DiskIo, Time::from_us(5.0));
        let rows = b.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].stage, "disk-io");
        assert_eq!(rows[0].count, 2);
        assert!((rows[0].mean_us - 4.0).abs() < 1e-9);
        let json = rows_json(&rows);
        let v = simkit::json::parse(&json).expect("valid");
        assert_eq!(
            v.item(0).and_then(|r| r.get("stage")).and_then(simkit::json::Value::as_str),
            Some("disk-io")
        );
        assert!(b.render_table().contains("disk-io"));
    }

    #[test]
    fn merge_and_from_spans_aggregate() {
        let mut a = StageBreakdown::new();
        a.record(StageKind::Wire, t(10));
        let mut b = StageBreakdown::new();
        b.record(StageKind::Wire, t(30));
        a.merge(&b);
        assert_eq!(a.hist(StageKind::Wire).count(), 2);
        assert_eq!(a.hist(StageKind::Wire).mean(), t(20));

        use crate::span::{SpanId, TraceId};
        let spans = [Span {
            trace: TraceId(2),
            id: SpanId(1),
            parent: SpanId::NULL,
            kind: StageKind::Hbm,
            label: "hbm",
            open: t(5),
            close: t(25),
            bytes: 64,
            queue: 0,
            notes: Vec::new(),
            faults: Vec::new(),
        }];
        let c = StageBreakdown::from_spans(spans.iter());
        assert_eq!(c.hist(StageKind::Hbm).mean(), t(20));
    }
}
