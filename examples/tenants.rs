//! Scenario: multi-tenant rate limiting on a shared middle tier.
//!
//! A cloud middle-tier server carries many VMs' traffic. Because AAMS keeps
//! admission logic in host software, per-tenant policy is one code change:
//! this example gives three tenants different token-bucket rates on one
//! SmartDS-1 middle tier and shows each receives its contracted share while
//! aggregate latency stays flat.
//!
//! ```text
//! cargo run --release -p smartds-examples --bin tenants
//! ```

use simkit::{gbps, Time};
use smartds::{cluster, Design, RunConfig};

fn main() {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 64;
    // Enough closed-loop slots per tenant that the buckets, not the
    // bandwidth-delay product, decide each share.
    cfg.outstanding = 180;

    // Tenant contracts: 24 / 12 / 6 Gbps of write payload.
    let contracts = [24.0, 12.0, 6.0];
    let (_, cluster, _) = cluster::run_counted_stats(
        &cfg,
        |c| c.set_tenant_limits(contracts.iter().map(|&g| gbps(g)).collect()),
        None,
    );
    let end = cfg.warmup + cfg.measure;

    println!("tenant contracts vs achieved (over {} ms):", cfg.measure.as_ms());
    let window = cfg.measure.as_secs();
    for (i, (&contract, &done)) in contracts.iter().zip(&cluster.tenant_done).enumerate() {
        let achieved = done as f64 * 4096.0 * 8.0 / window / 1e9;
        println!(
            "  tenant {i}: contracted {contract:>5.1} Gbps → achieved {achieved:>5.1} Gbps ({done} writes)"
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
