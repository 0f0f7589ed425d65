//! Run metrics and the experiment report.

use crate::fabric::Traffic;
use simkit::json::Object;
use simkit::{to_gbps, Histogram, Meter, Time};
use tracekit::{rows_json, StageBreakdown, StageRow};

/// Live metric collectors inside a running cluster.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Latency of completed write requests (issue → VM ack).
    pub write_latency: Histogram,
    /// Latency of completed read requests.
    pub read_latency: Histogram,
    /// Payload bytes of completed writes (goodput).
    pub ingest: Meter,
    /// Completed requests.
    pub ops: Meter,
    /// Stored (compressed) bytes of completed writes, for the measured
    /// compression ratio.
    pub stored: Meter,
    /// LSM compactions performed by the maintenance service.
    pub compactions: u64,
    /// Replica appends redirected by the fail-over service.
    pub failovers: u64,
    /// Requests whose per-request timer fired before completion.
    pub timeouts: u64,
    /// Retry attempts scheduled after timeouts (capped exponential
    /// backoff; bounded by the run's `max_retries`).
    pub retries: u64,
    /// Write quorums abandoned via `QuorumTracker::abort` on timeout.
    pub aborts: u64,
    /// Requests given up after exhausting every retry (the explicit
    /// quorum-failure error — never silent data loss).
    pub write_failures: u64,
    /// Blocks re-replicated by the post-restart scrub recovery.
    pub scrub_repairs: u64,
    /// Per-stage latency breakdown: one histogram per
    /// [`tracekit::StageKind`], fed by the per-request segment accumulators
    /// flushed at write completion (so the segment stages exactly partition
    /// write latency) plus any stage populations recorded directly.
    pub breakdown: StageBreakdown,
    /// Per-traffic-class request latency (open-loop tenant runs; class 0
    /// is premium). Indexed by the 8 fabric traffic classes.
    pub class_latency: Vec<Histogram>,
    /// Arrivals deferred by admission control, per class.
    pub admit_deferred: [u64; 8],
    /// Arrivals rejected by admission control, per class.
    pub admit_rejected: [u64; 8],
}

impl Metrics {
    /// Resets all collectors at the warm-up boundary.
    pub fn reset(&mut self, now: Time) {
        self.write_latency.clear();
        self.read_latency.clear();
        self.ingest.reset(now);
        self.ops.reset(now);
        self.stored.reset(now);
        self.compactions = 0;
        self.failovers = 0;
        self.timeouts = 0;
        self.retries = 0;
        self.aborts = 0;
        self.write_failures = 0;
        self.scrub_repairs = 0;
        self.breakdown.clear();
        for h in &mut self.class_latency {
            h.clear();
        }
        self.admit_deferred = [0; 8];
        self.admit_rejected = [0; 8];
    }

    /// Records a completed request's latency against its traffic class
    /// (the vector grows on first use so closed-loop runs pay nothing).
    pub fn record_class(&mut self, class: u8, latency: Time) {
        if self.class_latency.is_empty() {
            self.class_latency = (0..8).map(|_| Histogram::default()).collect();
        }
        self.class_latency[class as usize & 7].record(latency);
    }
}

/// Everything one simulation run reports — the rows the experiment harness
/// prints for each table/figure.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Design label (paper naming: "CPU-only", "Acc", "BF2", "SmartDS-N").
    pub label: String,
    /// Middle-tier cores used.
    pub cores: usize,
    /// Closed-loop outstanding requests.
    pub outstanding: usize,
    /// Measurement window, seconds.
    pub window_secs: f64,
    /// Completed writes in the window.
    pub writes_done: u64,
    /// Write payload goodput, Gbps (Figure 7a / 9a / 10a).
    pub throughput_gbps: f64,
    /// Write IOPS.
    pub iops: f64,
    /// Mean write latency, µs (Figure 7b).
    pub avg_us: f64,
    /// 99th-percentile write latency, µs (Figure 7c).
    pub p99_us: f64,
    /// 99.9th-percentile write latency, µs (Figure 7d).
    pub p999_us: f64,
    /// Host memory read bandwidth, Gbps (Figure 8a).
    pub mem_read_gbps: f64,
    /// Host memory write bandwidth, Gbps (Figure 8a).
    pub mem_write_gbps: f64,
    /// Memory-pressure injector achieved bandwidth, Gbps (Figures 4/9).
    pub mlc_gbps: f64,
    /// NIC PCIe H2D bandwidth, Gbps (Figure 8b).
    pub nic_pcie_h2d_gbps: f64,
    /// NIC PCIe D2H bandwidth, Gbps (Figure 8b).
    pub nic_pcie_d2h_gbps: f64,
    /// Accelerator/SmartDS PCIe H2D bandwidth, Gbps (Figure 8b).
    pub dev_pcie_h2d_gbps: f64,
    /// Accelerator/SmartDS PCIe D2H bandwidth, Gbps (Figure 8b).
    pub dev_pcie_d2h_gbps: f64,
    /// HBM bandwidth, Gbps (Figure 10c).
    pub hbm_gbps: f64,
    /// SoC DRAM bandwidth, Gbps.
    pub devmem_gbps: f64,
    /// Aggregate port TX (wire), Gbps.
    pub port_tx_gbps: f64,
    /// Aggregate port RX (wire), Gbps.
    pub port_rx_gbps: f64,
    /// Measured LZ4 ratio over the window (original/stored).
    pub compression_ratio: f64,
    /// Maintenance compactions in the window.
    pub compactions: u64,
    /// Replica appends redirected by fail-over in the window.
    pub failovers: u64,
    /// Request timeouts fired in the window.
    pub timeouts: u64,
    /// Retry attempts scheduled in the window.
    pub retries: u64,
    /// Quorum aborts in the window.
    pub aborts: u64,
    /// Requests failed after exhausting retries.
    pub write_failures: u64,
    /// Blocks re-replicated by post-restart scrub recovery.
    pub scrub_repairs: u64,
    /// Full per-stage breakdown table (mean/p99/p999 per stage kind).
    pub stage_table: Vec<StageRow>,
}

impl RunReport {
    /// Builds a report from the collectors and a fabric-traffic delta.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        label: String,
        cores: usize,
        outstanding: usize,
        metrics: &Metrics,
        delta: Traffic,
        start: Time,
        end: Time,
    ) -> RunReport {
        let window = (end - start).as_secs();
        let (avg, p99, p999) = metrics.write_latency.paper_latencies();
        let rate = |bytes: f64| {
            if window > 0.0 {
                to_gbps(bytes / window)
            } else {
                0.0
            }
        };
        RunReport {
            label,
            cores,
            outstanding,
            window_secs: window,
            writes_done: metrics.write_latency.count(),
            throughput_gbps: metrics.ingest.rate_gbps(end),
            iops: metrics.ops.rate_per_sec(end),
            avg_us: avg.as_us(),
            p99_us: p99.as_us(),
            p999_us: p999.as_us(),
            mem_read_gbps: rate(delta.mem_read),
            mem_write_gbps: rate(delta.mem_write),
            mlc_gbps: rate(delta.mem_background),
            nic_pcie_h2d_gbps: rate(delta.nic_h2d),
            nic_pcie_d2h_gbps: rate(delta.nic_d2h),
            dev_pcie_h2d_gbps: rate(delta.dev_h2d),
            dev_pcie_d2h_gbps: rate(delta.dev_d2h),
            hbm_gbps: rate(delta.hbm),
            devmem_gbps: rate(delta.devmem),
            port_tx_gbps: rate(delta.port_tx),
            port_rx_gbps: rate(delta.port_rx),
            compression_ratio: if metrics.stored.total() > 0.0 {
                metrics.ingest.total() / metrics.stored.total()
            } else {
                1.0
            },
            compactions: metrics.compactions,
            failovers: metrics.failovers,
            timeouts: metrics.timeouts,
            retries: metrics.retries,
            aborts: metrics.aborts,
            write_failures: metrics.write_failures,
            scrub_repairs: metrics.scrub_repairs,
            stage_table: metrics.breakdown.rows(),
        }
    }

    /// Renders the report as one JSON object (field order matches the CSV
    /// column order in the bench crate).
    pub fn to_json(&self) -> String {
        Object::new()
            .field("label", self.label.as_str())
            .field("cores", self.cores)
            .field("outstanding", self.outstanding)
            .field("window_secs", self.window_secs)
            .field("writes_done", self.writes_done)
            .field("throughput_gbps", self.throughput_gbps)
            .field("iops", self.iops)
            .field("avg_us", self.avg_us)
            .field("p99_us", self.p99_us)
            .field("p999_us", self.p999_us)
            .field("mem_read_gbps", self.mem_read_gbps)
            .field("mem_write_gbps", self.mem_write_gbps)
            .field("mlc_gbps", self.mlc_gbps)
            .field("nic_pcie_h2d_gbps", self.nic_pcie_h2d_gbps)
            .field("nic_pcie_d2h_gbps", self.nic_pcie_d2h_gbps)
            .field("dev_pcie_h2d_gbps", self.dev_pcie_h2d_gbps)
            .field("dev_pcie_d2h_gbps", self.dev_pcie_d2h_gbps)
            .field("hbm_gbps", self.hbm_gbps)
            .field("devmem_gbps", self.devmem_gbps)
            .field("port_tx_gbps", self.port_tx_gbps)
            .field("port_rx_gbps", self.port_rx_gbps)
            .field("compression_ratio", self.compression_ratio)
            .field("compactions", self.compactions)
            .field("failovers", self.failovers)
            .field("timeouts", self.timeouts)
            .field("retries", self.retries)
            .field("aborts", self.aborts)
            .field("write_failures", self.write_failures)
            .field("scrub_repairs", self.scrub_repairs)
            .field_raw("stage_table", &rows_json(&self.stage_table))
            .finish()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<14} cores={:<3} thr={:7.2} Gbps  avg={:7.1} us  p99={:8.1} us  p999={:8.1} us",
            self.label, self.cores, self.throughput_gbps, self.avg_us, self.p99_us, self.p999_us
        )
    }
}

/// Per-class tail-latency and admission summary of an open-loop
/// rack-scale run — reported *beside* [`RunReport`] (whose JSON shape is
/// frozen by the golden fixtures) rather than inside it.
#[derive(Clone, Debug)]
pub struct ScaleStats {
    /// One row per fabric traffic class (class 0 = premium).
    pub classes: Vec<ClassRow>,
    /// Deferred arrivals still parked in ingress queues when the run
    /// ended (0 once backpressure has drained).
    pub backlog_at_end: u64,
    /// Arrivals shed by the hub's hard in-flight cap (distinct from
    /// admission-control rejections).
    pub shed: u64,
}

/// One traffic class's latency and admission outcome.
#[derive(Clone, Debug)]
pub struct ClassRow {
    /// Traffic class index (0 = premium).
    pub class: u8,
    /// Requests completed in the measurement window.
    pub count: u64,
    /// Median request latency, µs.
    pub p50_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile request latency, µs.
    pub p999_us: f64,
    /// Arrivals deferred by admission control.
    pub deferred: u64,
    /// Arrivals rejected by admission control.
    pub rejected: u64,
}

impl ScaleStats {
    /// Builds the summary from the live collectors plus the end-of-run
    /// ingress backlog and hard-cap shed count.
    pub fn build(metrics: &Metrics, backlog_at_end: u64, shed: u64) -> ScaleStats {
        let classes = (0..8u8)
            .map(|c| {
                let empty = Histogram::default();
                let h = metrics.class_latency.get(c as usize).unwrap_or(&empty);
                ClassRow {
                    class: c,
                    count: h.count(),
                    p50_us: h.quantile(0.50).as_us(),
                    p99_us: h.quantile(0.99).as_us(),
                    p999_us: h.quantile(0.999).as_us(),
                    deferred: metrics.admit_deferred[c as usize],
                    rejected: metrics.admit_rejected[c as usize],
                }
            })
            .collect();
        ScaleStats {
            classes,
            backlog_at_end,
            shed,
        }
    }

    /// Renders the summary as one JSON object (field order fixed; part of
    /// the rack-scale golden fixture).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .classes
            .iter()
            .map(|r| {
                Object::new()
                    .field("class", r.class as u64)
                    .field("count", r.count)
                    .field("p50_us", r.p50_us)
                    .field("p99_us", r.p99_us)
                    .field("p999_us", r.p999_us)
                    .field("deferred", r.deferred)
                    .field("rejected", r.rejected)
                    .finish()
            })
            .collect();
        Object::new()
            .field_raw("classes", &simkit::json::array_raw(&rows))
            .field("backlog_at_end", self.backlog_at_end)
            .field("shed", self.shed)
            .finish()
    }

    /// Total deferred arrivals across classes.
    pub fn deferred_total(&self) -> u64 {
        self.classes.iter().map(|r| r.deferred).sum()
    }

    /// Total rejected arrivals across classes.
    pub fn rejected_total(&self) -> u64 {
        self.classes.iter().map(|r| r.rejected).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracekit::StageKind;

    #[test]
    fn scale_stats_shape_and_totals() {
        let mut m = Metrics::default();
        m.record_class(0, Time::from_us(10.0));
        m.record_class(0, Time::from_us(30.0));
        m.record_class(7, Time::from_us(500.0));
        m.admit_deferred[7] = 4;
        m.admit_rejected[7] = 2;
        let s = ScaleStats::build(&m, 3, 1);
        assert_eq!(s.classes.len(), 8);
        assert_eq!(s.classes[0].count, 2);
        assert_eq!(s.classes[7].count, 1);
        assert_eq!(s.deferred_total(), 4);
        assert_eq!(s.rejected_total(), 2);
        assert!(s.classes[7].p99_us > s.classes[0].p99_us);
        let json = s.to_json();
        assert!(json.starts_with("{\"classes\":[{\"class\":0"), "{json}");
        assert!(json.contains("\"backlog_at_end\":3"), "{json}");
        assert!(json.contains("\"shed\":1"), "{json}");
        // Warm-up reset clears the class collectors too.
        m.reset(Time::ZERO);
        let s = ScaleStats::build(&m, 0, 0);
        assert_eq!(s.classes[0].count, 0);
        assert_eq!(s.deferred_total(), 0);
    }

    #[test]
    fn report_rates_from_deltas() {
        let mut m = Metrics::default();
        m.reset(Time::ZERO);
        m.ingest.add(Time::from_ms(1.0), 1.25e7); // 12.5 MB in 10 ms
        m.stored.add(Time::from_ms(1.0), 6.25e6);
        m.ops.add(Time::from_ms(1.0), 1.0);
        m.write_latency.record(Time::from_us(50.0));
        // One request's segment partition: 10+5+15+12+8 = 50 µs.
        let mut seg = tracekit::SegmentAccum::start(Time::ZERO);
        seg.mark(StageKind::Ingress, Time::from_us(10.0));
        seg.mark(StageKind::Parse, Time::from_us(15.0));
        seg.mark(StageKind::Compress, Time::from_us(30.0));
        seg.mark(StageKind::Replicate, Time::from_us(42.0));
        seg.mark(StageKind::Ack, Time::from_us(50.0));
        seg.flush_into(&mut m.breakdown);
        let delta = Traffic {
            mem_read: 1.25e7,
            ..Traffic::default()
        };
        let r = RunReport::build(
            "test".into(),
            2,
            8,
            &m,
            delta,
            Time::ZERO,
            Time::from_ms(10.0),
        );
        assert!((r.throughput_gbps - 10.0).abs() < 0.01);
        assert!((r.mem_read_gbps - 10.0).abs() < 0.01);
        assert!((r.compression_ratio - 2.0).abs() < 1e-9);
        assert_eq!(r.writes_done, 1);
        assert!((r.avg_us - 50.0).abs() / 50.0 < 0.02);
        assert!(r.summary().contains("test"));
        let json = r.to_json();
        assert!(json.starts_with("{\"label\":\"test\""), "{json}");
        assert!(json.contains("\"writes_done\":1"), "{json}");
        assert!(json.contains("\"stage_table\":[{\"stage\":\"ingress\""), "{json}");
        // The segment means sum to the end-to-end write latency.
        let total: f64 = m.breakdown.segment_means_us().iter().sum();
        assert!((total - r.avg_us).abs() < 0.5, "{total} vs {}", r.avg_us);
    }
}
