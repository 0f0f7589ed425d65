//! CSV export of experiment results (for plotting the figures).

use smartds::RunReport;
use std::io::Write;
use std::path::Path;

/// Column order of the run-report CSV.
pub const RUN_REPORT_COLUMNS: &[&str] = &[
    "label",
    "cores",
    "outstanding",
    "window_secs",
    "writes_done",
    "throughput_gbps",
    "iops",
    "avg_us",
    "p99_us",
    "p999_us",
    "mem_read_gbps",
    "mem_write_gbps",
    "mlc_gbps",
    "nic_pcie_h2d_gbps",
    "nic_pcie_d2h_gbps",
    "dev_pcie_h2d_gbps",
    "dev_pcie_d2h_gbps",
    "hbm_gbps",
    "devmem_gbps",
    "port_tx_gbps",
    "port_rx_gbps",
    "compression_ratio",
    "compactions",
    "failovers",
];

/// Renders reports as CSV text (header + one row per report).
pub fn render_reports(reports: &[RunReport]) -> String {
    let mut out = String::new();
    out.push_str(&RUN_REPORT_COLUMNS.join(","));
    out.push('\n');
    for r in reports {
        let row = [
            r.label.clone(),
            r.cores.to_string(),
            r.outstanding.to_string(),
            format!("{:.6}", r.window_secs),
            r.writes_done.to_string(),
            format!("{:.4}", r.throughput_gbps),
            format!("{:.1}", r.iops),
            format!("{:.3}", r.avg_us),
            format!("{:.3}", r.p99_us),
            format!("{:.3}", r.p999_us),
            format!("{:.4}", r.mem_read_gbps),
            format!("{:.4}", r.mem_write_gbps),
            format!("{:.4}", r.mlc_gbps),
            format!("{:.4}", r.nic_pcie_h2d_gbps),
            format!("{:.4}", r.nic_pcie_d2h_gbps),
            format!("{:.4}", r.dev_pcie_h2d_gbps),
            format!("{:.4}", r.dev_pcie_d2h_gbps),
            format!("{:.4}", r.hbm_gbps),
            format!("{:.4}", r.devmem_gbps),
            format!("{:.4}", r.port_tx_gbps),
            format!("{:.4}", r.port_rx_gbps),
            format!("{:.4}", r.compression_ratio),
            r.compactions.to_string(),
            r.failovers.to_string(),
        ];
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Writes reports to `<dir>/<name>.csv`, creating the directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_reports(dir: &Path, name: &str, reports: &[RunReport]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(render_reports(reports).as_bytes())?;
    println!("  wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Time;
    use smartds::{cluster, Design, RunConfig};

    #[test]
    fn csv_has_header_and_matching_columns() {
        let mut cfg = RunConfig::saturating(Design::Bf2);
        cfg.warmup = Time::from_ms(1.0);
        cfg.measure = Time::from_ms(2.0);
        cfg.outstanding = 16;
        cfg.pool_blocks = 16;
        let r = cluster::run(&cfg);
        let csv = render_reports(&[r.clone(), r]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        let cols = lines[0].split(',').count();
        assert_eq!(cols, RUN_REPORT_COLUMNS.len());
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "row width");
        }
        assert!(lines[1].starts_with("BF2,"));
    }
}
