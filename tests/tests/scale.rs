//! Rack-scale open-loop suite: the multi-rack fabric topology, the
//! seeded tenant generator, and SmartNIC-side admission control, driven
//! end-to-end through the sharded cluster.
//!
//! The golden suite freezes one pinned rack run to bytes on disk; this
//! suite checks the *behavioral* contracts around it: thread-invariance
//! at a different operating point, every QoS class actually completing
//! work, backpressure engaging (and staying bounded) under overload, and
//! the seed being the only source of schedule variation.

use simkit::Time;
use smartds::{cluster, AdmissionSpec, Design, LoadSpec, RunConfig, TopoLink, Topology};

/// A short open-loop rack run: 3 racks × 3 servers, shrunk tenant
/// population (the experiment's 10⁶-tenant Zipf setup is overkill for a
/// unit-scale window), rack-default skew/diurnal/burst schedule.
fn rack_cfg(offered_gbps: f64, admission: AdmissionSpec) -> RunConfig {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
    cfg.warmup = Time::from_ms(1.0);
    cfg.measure = Time::from_ms(4.0);
    cfg.pool_blocks = 64;
    cfg.seed = 42;
    let mut load = LoadSpec::rack_default(offered_gbps, cfg.warmup + cfg.measure);
    load.tenants = 65_536;
    cfg.with_topology(Topology::new(3, 3))
        .with_load(load)
        .with_admission(admission)
}

/// Everything observable from a run, as one comparable string.
fn fingerprint(cfg: &RunConfig, threads: usize) -> String {
    let (report, cluster, stats) = cluster::run_counted_stats(cfg, |_| {}, Some(threads));
    format!(
        "{}\n{}\n{:?}\n",
        report.to_json(),
        cluster.scale_stats().to_json(),
        stats
    )
}

/// The open-loop rack run — arrivals, class mapping, fabric queueing,
/// admission verdicts, engine accounting — is a pure function of the
/// seed: byte-identical across worker-thread counts and across repeated
/// runs at the same count.
#[test]
fn rack_run_is_byte_identical_across_thread_counts() {
    let cfg = rack_cfg(12.0, AdmissionSpec::new(48, 192));
    let want = fingerprint(&cfg, 1);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            want,
            fingerprint(&cfg, threads),
            "open-loop rack run drifted at {threads} threads"
        );
    }
}

/// Per-tenant QoS mapping is live end-to-end: at a moderate operating
/// point every one of the 8 traffic classes completes requests and
/// records latency, and none of them needs admission rejections.
#[test]
fn every_class_completes_under_moderate_load() {
    let cfg = rack_cfg(10.0, AdmissionSpec::new(64, 256));
    let (report, cluster, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let ss = cluster.scale_stats();
    assert_eq!(ss.classes.len(), 8, "one row per traffic class");
    for row in &ss.classes {
        assert!(row.count > 0, "class {} completed nothing", row.class);
        assert!(
            row.p99_us > 0.0,
            "class {} recorded no latency",
            row.class
        );
    }
    assert!(report.writes_done > 1_000, "moderate load must flow freely");
    assert_eq!(ss.shed, 0, "the hard cap must not engage at moderate load");
}

/// Overload engages admission control instead of unbounded queueing: a
/// tight window under heavy offered load defers and rejects arrivals,
/// occupancy stays inside the configured bounds, and the datapath keeps
/// completing work the whole time.
#[test]
fn overload_backpressure_is_bounded_and_counted() {
    let cfg = rack_cfg(40.0, AdmissionSpec::new(16, 64));
    let (report, cluster, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let ss = cluster.scale_stats();
    assert!(ss.deferred_total() > 0, "overload must defer arrivals");
    assert!(ss.rejected_total() > 0, "a full ingress queue must shed load");
    assert!(
        ss.backlog_at_end <= 8 * 64,
        "end-of-run backlog exceeds the per-class queue bound ({})",
        ss.backlog_at_end
    );
    assert!(
        report.writes_done > 1_000,
        "backpressure must protect throughput, not collapse it ({} writes)",
        report.writes_done
    );
}

/// The seed is a real input: two different seeds draw different tenant
/// schedules, while the same seed replays the same bytes (the cross-run
/// half of determinism; the cross-thread half is pinned above and by the
/// golden fixture).
#[test]
fn seed_is_the_only_source_of_variation() {
    let mut a = rack_cfg(12.0, AdmissionSpec::new(48, 192));
    a.seed = 7;
    let mut b = rack_cfg(12.0, AdmissionSpec::new(48, 192));
    b.seed = 8;
    let fa = fingerprint(&a, 1);
    assert_eq!(fa, fingerprint(&a, 1), "seed 7 must replay identically");
    assert_ne!(
        fa,
        fingerprint(&b, 1),
        "distinct seeds must draw distinct schedules"
    );
}

/// The hub's rack links share one wake index space with its fabric, sized
/// when the cluster is built, so the rack count has no small cap: a
/// SmartDS-6 closed loop over 40 single-server racks, with the last
/// rack's downlink degraded mid-run, completes work and is byte-identical
/// at 1 and 4 worker threads.
#[test]
fn forty_rack_fabric_with_a_degraded_last_downlink_is_thread_invariant() {
    let racks = 40;
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 6 });
    cfg.warmup = Time::from_ms(0.5);
    cfg.measure = Time::from_ms(1.5);
    cfg.outstanding = 192;
    cfg.pool_blocks = 64;
    let cfg = cfg.with_topology(Topology::new(racks, 1)).with_topo_fault(
        Time::from_ms(1.0),
        TopoLink::RackDown(racks as u16 - 1),
        0.05,
    );
    let (report, _, _) = cluster::run_counted_stats(&cfg, |_| {}, Some(1));
    assert!(report.writes_done > 1_000, "{} writes", report.writes_done);
    assert_eq!(fingerprint(&cfg, 1), fingerprint(&cfg, 4));
}
