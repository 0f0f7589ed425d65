//! **Extension**: the tracekit per-stage latency table (mean/p99/p999) —
//! where a write's time goes, per middle-tier design.
//!
//! The five segments (ingress → parse → compress → replicate → ack)
//! *partition* each write's issue-to-ack time, so the segment means sum to
//! the end-to-end mean write latency, a prefix of them is the mean time to
//! that milestone, and the tail columns show which stage owns the p999. The
//! CPU design spends its time in the compression queue; SmartDS's write is
//! dominated by the storage round trip it cannot avoid. Tracing is enabled
//! (sampled) so the same runs also exercise the span pipeline the Chrome
//! exporter feeds on.

use crate::pool::run_parallel;
use crate::Profile;
use smartds::{cluster, Design, RunConfig, RunReport};
use tracekit::TraceConfig;

/// Runs CPU-only and SmartDS-1 at saturating load with tracing enabled and
/// prints each design's per-stage breakdown table.
pub fn run(profile: Profile) -> Vec<RunReport> {
    let configs: Vec<RunConfig> = [Design::CpuOnly, Design::SmartDs { ports: 1 }]
        .into_iter()
        .map(|d| {
            profile.apply(RunConfig::saturating(d)).with_trace(TraceConfig {
                sample_one_in: 64,
                capacity: 65536,
            })
        })
        .collect();
    let reports = run_parallel(configs, cluster::run);
    println!("Extension: per-stage write-latency breakdown (segments partition issue→ack)");
    for r in &reports {
        let total: f64 = r.stage_table.iter().map(|row| row.mean_us).sum();
        println!(
            "  {} — Σ segment means {:.1} µs vs end-to-end mean {:.1} µs",
            r.label, total, r.avg_us
        );
        println!(
            "  {:<12} {:>9} {:>10} {:>10} {:>10}",
            "stage", "count", "mean_us", "p99_us", "p999_us"
        );
        for row in &r.stage_table {
            println!(
                "  {:<12} {:>9} {:>10.2} {:>10.2} {:>10.2}",
                row.stage, row.count, row.mean_us, row.p99_us, row.p999_us
            );
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_partition_end_to_end_write_latency() {
        let reports = run(Profile::Quick);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(!r.stage_table.is_empty(), "{}: empty stage table", r.label);
            let total: f64 = r.stage_table.iter().map(|row| row.mean_us).sum();
            // Means are exact (sum/count), so the partition identity holds
            // up to float rounding, not histogram bucket width.
            assert!(
                (total - r.avg_us).abs() < 0.01 * r.avg_us.max(1.0),
                "{}: Σ segments {:.3} µs != mean latency {:.3} µs",
                r.label,
                total,
                r.avg_us
            );
            // Tails are at least the mean for every stage.
            for row in &r.stage_table {
                assert!(
                    row.p999_us >= row.p99_us && row.p99_us * 1.02 >= row.mean_us * 0.98,
                    "{}: {} tails inconsistent",
                    r.label,
                    row.stage
                );
            }
        }
        // SmartDS compresses in hardware: its compress segment must be far
        // cheaper than the CPU design's software LZ4 + queueing...
        let (cpu, sds) = (&reports[0], &reports[1]);
        let seg = |r: &RunReport, name: &str| {
            r.stage_table
                .iter()
                .find(|row| row.stage == name)
                .map(|row| row.mean_us)
                .unwrap_or(0.0)
        };
        assert!(
            seg(cpu, "compress") > 1.5 * seg(sds, "compress"),
            "compress segment: cpu {:.1} µs vs smartds {:.1} µs",
            seg(cpu, "compress"),
            seg(sds, "compress")
        );
        // ...so CPU-only reaches the compressed milestone (issue → end of
        // compress) far later than SmartDS...
        let compressed = |r: &RunReport| seg(r, "ingress") + seg(r, "parse") + seg(r, "compress");
        assert!(
            compressed(cpu) > 2.0 * compressed(sds),
            "compressed milestone: cpu {:.1} µs vs smartds {:.1} µs",
            compressed(cpu),
            compressed(sds)
        );
        // ...SmartDS's host-software leg is sub-µs control work, the
        // flexibility AAMS pays for in full...
        assert!(
            seg(sds, "parse") < 2.0,
            "SmartDS parse leg {:.2} µs",
            seg(sds, "parse")
        );
        // ...and its replicate leg (the unavoidable storage round trip) is
        // shorter than CPU-only's, whose egress queues behind the deeper
        // backlog.
        assert!(
            seg(sds, "replicate") < seg(cpu, "replicate"),
            "replicate legs: smartds {:.1} µs vs cpu {:.1} µs",
            seg(sds, "replicate"),
            seg(cpu, "replicate")
        );
    }
}
