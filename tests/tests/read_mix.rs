//! The production 5:1 write:read mix (§2.2.3) through the cluster.

use simkit::Time;
use smartds::{cluster, Design, RunConfig};

fn quick(design: Design) -> RunConfig {
    let mut cfg = RunConfig::saturating(design);
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(6.0);
    cfg.pool_blocks = 64;
    cfg
}

#[test]
fn mixed_workload_serves_both_directions() {
    for design in [Design::CpuOnly, Design::SmartDs { ports: 1 }] {
        let (report, _, _) = cluster::run_counted_stats(
            &quick(design),
            |c| c.set_read_fraction(1.0 / 6.0), // writes:reads = 5:1
            None,
        );
        assert!(report.writes_done > 1_000, "{design}: {}", report.writes_done);
        // Reads happened and completed (ops > writes).
        assert!(
            report.iops > 0.0 && report.writes_done as f64 / report.window_secs < report.iops,
            "{design}: read requests should add to ops"
        );
    }
}

#[test]
fn reads_are_cheaper_than_writes_for_the_cpu_design() {
    // Decompression is ~7× faster than compression and reads skip
    // replication, so a read-heavy CPU-only middle tier pushes more
    // requests/s than a write-only one.
    let writes_only = cluster::run(&quick(Design::CpuOnly));
    let (read_heavy, _, _) =
        cluster::run_counted_stats(&quick(Design::CpuOnly), |c| c.set_read_fraction(0.8), None);
    assert!(
        read_heavy.iops > writes_only.iops * 1.3,
        "read-heavy {:.0} IOPS vs write-only {:.0} IOPS",
        read_heavy.iops,
        writes_only.iops
    );
}
