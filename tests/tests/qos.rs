//! Multi-tenant QoS through the cluster: token-bucket rate limits shape
//! per-tenant throughput while the fabric stays shared.

use simkit::{gbps, Time};
use smartds::{cluster, Design, RunConfig};

fn quick(design: Design) -> RunConfig {
    let mut cfg = RunConfig::saturating(design);
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 64;
    cfg
}

#[test]
fn tenant_rate_limits_shape_throughput_2_to_1() {
    let cfg = quick(Design::SmartDs { ports: 1 });
    let (_, c, _) = cluster::run_counted_stats(
        &cfg,
        // Tenant 0: 20 Gbps, tenant 1: 10 Gbps of payload admission.
        |c| c.set_tenant_limits(vec![gbps(20.0), gbps(10.0)]),
        None,
    );
    let counts = c.tenant_done.clone();
    let report = c.metrics.ingest.rate_gbps(cfg.warmup + cfg.measure);
    assert_eq!(counts.len(), 2);
    let ratio = counts[0] as f64 / counts[1] as f64;
    assert!(
        (1.7..2.3).contains(&ratio),
        "tenant throughput ratio {ratio:.2} ({counts:?})"
    );
    // Total admission ≈ 30 Gbps, far below the port's capacity.
    assert!(
        (24.0..32.0).contains(&report),
        "rate-limited total {report:.1} Gbps"
    );
}

#[test]
fn unlimited_cluster_is_unaffected_by_qos_module_presence() {
    // Baseline sanity: no buckets installed → full throughput.
    let r = cluster::run(&quick(Design::SmartDs { ports: 1 }));
    assert!(r.throughput_gbps > 45.0, "{}", r.throughput_gbps);
}
