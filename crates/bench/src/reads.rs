//! **Extension**: the read path (§2.2.2) at scale.
//!
//! The paper evaluates writes ("the number of write requests is much more
//! than that of read requests... and a CPU core's decompression throughput
//! is much higher than compression"); this extension runs a read-only
//! workload through the same cluster to check the §2.2.3 rationale: the
//! CPU design's gap narrows on reads (decompression is ~7× cheaper), while
//! SmartDS still wins on host-resource usage.

use crate::pool::run_parallel;
use crate::Profile;
use smartds::{cluster, Design, RunConfig, RunReport};

/// Runs a read-only workload for the Figure 7 designs.
pub fn run(profile: Profile) -> Vec<RunReport> {
    let configs: Vec<RunConfig> = [
        Design::CpuOnly,
        Design::Acc { ddio: true },
        Design::SmartDs { ports: 1 },
    ]
    .into_iter()
    .map(|d| profile.apply(RunConfig::saturating(d)))
    .collect();
    let reports = run_parallel(configs, |cfg| {
        cluster::run_counted_stats(cfg, |c| c.set_read_fraction(1.0), None).0
    });
    println!("Extension: read-only workload (decompression direction)");
    println!(
        "  {:<14} {:>12} {:>12} {:>12}",
        "design", "IOPS(k)", "mem r+w Gbps", "PCIe Gbps"
    );
    for r in &reports {
        println!(
            "  {:<14} {:>12.0} {:>12.2} {:>12.2}",
            r.label,
            r.iops / 1e3,
            r.mem_read_gbps + r.mem_write_gbps,
            r.nic_pcie_h2d_gbps
                + r.nic_pcie_d2h_gbps
                + r.dev_pcie_h2d_gbps
                + r.dev_pcie_d2h_gbps
        );
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_path_shapes() {
        let reports = run(Profile::Quick);
        let cpu = &reports[0];
        let sds = reports.iter().find(|r| r.label == "SmartDS-1").unwrap();
        // Reads complete on every design.
        for r in &reports {
            assert!(r.iops > 100_000.0, "{}: {} IOPS", r.label, r.iops);
        }
        // §2.2.3: decompression is ~7× cheaper, so CPU-only's reads are no
        // longer CPU-bound — they run up against the wire (~2.9M 4 KiB
        // replies/s on 100 GbE) and beat its compression-bound write IOPS.
        let cpu_writes = cluster::run(&Profile::Quick.apply(RunConfig::saturating(Design::CpuOnly)));
        assert!(
            cpu.iops > 1.35 * cpu_writes.iops,
            "reads {:.0} vs writes {:.0}",
            cpu.iops,
            cpu_writes.iops
        );
        assert!(cpu.iops > 2.4e6, "wire-bound read rate {:.0}", cpu.iops);
        // SmartDS still keeps host memory essentially idle on reads.
        assert!(
            sds.mem_read_gbps + sds.mem_write_gbps
                < 0.1 * (cpu.mem_read_gbps + cpu.mem_write_gbps),
            "SmartDS {:.1} vs CPU {:.1}",
            sds.mem_read_gbps + sds.mem_write_gbps,
            cpu.mem_read_gbps + cpu.mem_write_gbps
        );
    }
}
