//! Scenario: multi-tenant rate limiting on a shared middle tier.
//!
//! A cloud middle-tier server carries many VMs' traffic. Because AAMS keeps
//! admission logic in host software, per-tenant policy is one code change:
//! this example puts three tenants in their own traffic classes, gives each
//! class a different token-bucket rate in SmartNIC-side admission on one
//! SmartDS-1 middle tier, and shows each tenant receives its contracted
//! share while aggregate latency stays flat.
//!
//! ```text
//! cargo run --release -p smartds-examples --bin tenants
//! ```

use simkit::{gbps, Time};
use smartds::{cluster, AdmissionSpec, Design, LoadSpec, RunConfig};

fn main() {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 64;
    let end = cfg.warmup + cfg.measure;

    // Tenant contracts: 24 / 12 / 6 Gbps of write payload.
    let contracts = [24.0, 12.0, 6.0];
    // Three equally popular tenants, tenant i in class i, each offering
    // 30 Gbps: more than any contract, so the buckets decide each share.
    let mut load = LoadSpec::poisson(30.0 * contracts.len() as f64, end);
    load.tenants = contracts.len() as u64;
    load.class_share = [0.0; 8];
    load.class_share[..contracts.len()].fill(1.0 / contracts.len() as f64);
    let mut admission = AdmissionSpec::new(180, 0);
    for (class, &g) in contracts.iter().enumerate() {
        admission = admission.with_class_rate(class as u8, gbps(g));
    }
    let cfg = cfg.with_load(load).with_admission(admission);
    let (_, cluster, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let classes = cluster.scale_stats().classes;

    println!("tenant contracts vs achieved (over {} ms):", cfg.measure.as_ms());
    let window = cfg.measure.as_secs();
    for (i, (&contract, row)) in contracts.iter().zip(&classes).enumerate() {
        let done = row.count;
        let achieved = done as f64 * 4096.0 * 8.0 / window / 1e9;
        println!(
            "  tenant {i}: contracted {contract:>5.1} Gbps → achieved {achieved:>5.1} Gbps ({done} writes, {} policed)",
            row.rejected
        );
        assert!(
            (achieved - contract).abs() / contract < 0.15,
            "tenant {i} off contract"
        );
    }
    let (avg, p99, _) = cluster.metrics.write_latency.paper_latencies();
    println!(
        "aggregate: {:.1} Gbps, avg {:.1} us, p99 {:.1} us — far below the port, so\nlatency sits at the service floor while the buckets shape the shares",
        cluster.metrics.ingest.rate_gbps(end),
        avg.as_us(),
        p99.as_us()
    );
}
