//! Multi-tenant QoS through the cluster: per-class token-bucket rate
//! limits in admission shape per-tenant throughput while the fabric stays
//! shared.

use simkit::{gbps, Time};
use smartds::{cluster, AdmissionSpec, Design, LoadSpec, RunConfig};

fn quick(design: Design) -> RunConfig {
    let mut cfg = RunConfig::saturating(design);
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 64;
    cfg
}

#[test]
fn tenant_rate_limits_shape_throughput_2_to_1() {
    let base = quick(Design::SmartDs { ports: 1 });
    let end = base.warmup + base.measure;
    // Two equally popular tenants offering 30 Gbps each: tenant 0 rides
    // class 0, tenant 1 class 1.
    let mut load = LoadSpec::poisson(60.0, end);
    load.tenants = 2;
    load.class_share[0] = 0.5;
    load.class_share[1] = 0.5;
    // Class 0: 20 Gbps, class 1: 10 Gbps of payload admission.
    let admission = AdmissionSpec::new(base.outstanding, 0)
        .with_class_rate(0, gbps(20.0))
        .with_class_rate(1, gbps(10.0));
    let cfg = base.with_load(load).with_admission(admission);
    let (_, c, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let classes = c.scale_stats().classes;
    let counts = [classes[0].count, classes[1].count];
    let report = c.metrics.ingest.rate_gbps(end);
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
    // The excess is policed, not queued: it shows as rejections.
    assert!(classes[0].rejected > 0 && classes[1].rejected > 0);
    assert_eq!(classes[0].deferred + classes[1].deferred, 0);
}

#[test]
fn unlimited_cluster_is_unaffected_by_qos_module_presence() {
    // Baseline sanity: no rate policy anywhere → full throughput.
    let r = cluster::run(&quick(Design::SmartDs { ports: 1 }));
    assert!(r.throughput_gbps > 45.0, "{}", r.throughput_gbps);
}
