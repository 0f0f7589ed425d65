//! Trace a cluster run and export it for `chrome://tracing` / Perfetto.
//!
//! Arms tracekit head-sampling on a short saturating SmartDS run, prints
//! the per-stage latency breakdown, and writes the sampled span forest as
//! Chrome `trace_event` JSON (DESIGN.md §10). Run with:
//!
//! ```text
//! cargo run -p smartds-examples --bin trace
//! # then load target/trace.json in chrome://tracing or ui.perfetto.dev
//! ```

use simkit::Time;
use smartds::{cluster, Design, RunConfig};
use tracekit::TraceConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 }).with_trace(TraceConfig {
        sample_one_in: 64,
        capacity: 1 << 16,
    });
    cfg.warmup = Time::from_ms(1.0);
    cfg.measure = Time::from_ms(4.0);
    let (report, cluster, _) = cluster::run_counted_stats(&cfg, |_| {}, None);

    println!("{} — {:.1} µs mean write latency", report.label, report.avg_us);
    println!("  {:<12} {:>8} {:>10} {:>10} {:>10}", "stage", "count", "mean_us", "p99_us", "p999_us");
    for row in &report.stage_table {
        println!(
            "  {:<12} {:>8} {:>10.2} {:>10.2} {:>10.2}",
            row.stage, row.count, row.mean_us, row.p99_us, row.p999_us
        );
    }

    let tracer = &cluster.tracer;
    let path = "target/trace.json";
    std::fs::write(path, tracer.export_chrome())?;
    println!(
        "wrote {path}: {} spans ({} sampled-in, {} evicted from the ring)",
        tracer.spans().count(),
        tracer.opened(),
        tracer.dropped()
    );
    Ok(())
}
