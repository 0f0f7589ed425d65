//! End-to-end tracing suite: the tracekit subsystem wired through the full
//! cluster under chaos.
//!
//! Four contracts are audited here, each against the complete stack (AAMS
//! split, RC wire, engines, replication, fault injection):
//!
//! 1. **Determinism** — two runs of the same seeded config produce
//!    byte-identical Chrome exports (CI replays pinned seeds, see `ci.sh`).
//! 2. **Partition** — the per-stage breakdown's segment means sum to the
//!    end-to-end write latency: the segments are a partition, not samples.
//! 3. **Fault annotations** — spans whose lifetime overlaps an injected
//!    fault carry that fault's label, so a trace viewer shows *which*
//!    requests a crash touched.
//! 4. **Round-trip** — the Chrome export parses back through
//!    `simkit::json`, is non-empty, balanced, and well-formed.

use faultkit::{ChaosSpec, FaultKind, FaultPlan};
use simkit::json::{parse, Value};
use simkit::Time;
use smartds::{cluster, Design, RunConfig};
use tracekit::{well_formed, Span, TraceConfig};

/// The chaos-suite base config (see `faults.rs`) with tracing armed.
fn traced_base(design: Design, sample_one_in: u64) -> RunConfig {
    let mut cfg = RunConfig::saturating(design);
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 64;
    cfg.with_request_timeout(Time::from_ms(1.0)).with_trace(TraceConfig {
        sample_one_in,
        capacity: 1 << 17,
    })
}

/// Milliseconds after t=0 (warm-up included), as an absolute event time.
fn at_ms(ms: f64) -> Time {
    Time::from_ms(ms)
}

/// The pinned replay seed: CI sets `SMARTDS_CHAOS_SEED`, local runs get 7.
fn chaos_seed() -> u64 {
    std::env::var("SMARTDS_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

#[test]
fn traced_chaos_run_replays_byte_identically() {
    // A seeded storm with head-sampled tracing: the whole pipeline from
    // sampling decisions through span retirement must be a pure function
    // of the config, so the exported bytes are identical across runs.
    let seed = chaos_seed();
    let spec = ChaosSpec::new(at_ms(3.0), at_ms(8.0))
        .with_servers(6)
        .with_ports(1)
        .with_crashes(1)
        .with_stalls(1)
        .with_link_flaps(1)
        .with_mean_outage(Time::from_us(800.0))
        .with_max_concurrent_down(1)
        .with_slow_factor(32.0);
    let plan = FaultPlan::chaos(seed, &spec);
    let mut cfg = traced_base(Design::SmartDs { ports: 1 }, 16).with_fault_plan(plan);
    cfg.seed = seed;
    let (_, cluster_a, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let (_, cluster_b, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let a = cluster_a.tracer.export_chrome();
    let b = cluster_b.tracer.export_chrome();
    assert!(
        cluster_a.tracer.opened() > 100,
        "seed {seed}: a traced saturating run must record spans ({} opened)",
        cluster_a.tracer.opened()
    );
    assert_eq!(a, b, "seed {seed}: same-seed traces must be byte-identical");
}

#[test]
fn stage_breakdown_partitions_end_to_end_write_latency() {
    // The five segments (ingress/parse/compress/replicate/ack) are marked
    // at milestones of the *same* span that `avg_us` measures, so their
    // means must sum to the end-to-end mean — including retries, which
    // stay inside the replicate segment.
    let cfg = traced_base(Design::SmartDs { ports: 1 }, 1);
    let (report, _, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    assert_eq!(report.stage_table.len(), 5, "five segments: {:?}", report.stage_table);
    let total: f64 = report.stage_table.iter().map(|r| r.mean_us).sum();
    assert!(
        (total - report.avg_us).abs() < 0.01 * report.avg_us.max(1.0),
        "segment means must sum to end-to-end latency: {} vs {}",
        total,
        report.avg_us
    );
    for row in &report.stage_table {
        assert!(row.count > 0, "empty segment {}", row.stage);
        assert!(row.p99_us >= row.mean_us * 0.5, "absurd tail in {}", row.stage);
    }
}

#[test]
fn spans_overlapping_a_crash_carry_fault_annotations() {
    // Server 2 dies at 4 ms; the run ends at 5 ms so the overlapping spans
    // are still in the ring. Every span whose open..close interval brackets
    // the crash instant must be annotated with the fault label.
    let plan = FaultPlan::new().at(at_ms(4.0), FaultKind::ServerCrash { server: 2 });
    let mut cfg = traced_base(Design::SmartDs { ports: 1 }, 1).with_fault_plan(plan);
    cfg.measure = Time::from_ms(3.0);
    let (report, cluster, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    assert!(report.failovers > 0, "dead-server appends must fail over");
    let annotated: Vec<&Span> = cluster
        .tracer
        .spans()
        .filter(|s| s.faults.iter().any(|f| f.contains("server-crash s2")))
        .collect();
    assert!(
        !annotated.is_empty(),
        "spans overlapping the crash must carry its label"
    );
    let crash = at_ms(4.0);
    for s in &annotated {
        assert!(
            s.open <= crash && crash <= s.close,
            "annotated span {:?} [{:?}..{:?}] does not bracket the crash",
            s.label,
            s.open,
            s.close
        );
    }
    // The annotation also survives export, where viewers read it.
    assert!(
        cluster.tracer.export_chrome().contains("server-crash s2"),
        "fault labels must appear in the Chrome export"
    );
}

#[test]
fn chrome_export_round_trips_through_the_json_parser() {
    // The CI contract (ci.sh runs this file under pinned seeds): a traced
    // workload exports a Chrome trace that parses back through
    // simkit::json, is non-empty, balanced, and well-formed.
    let seed = chaos_seed();
    let mut cfg = traced_base(Design::SmartDs { ports: 1 }, 8);
    cfg.seed = seed;
    let (_, cluster, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let tracer = &cluster.tracer;
    assert_eq!(tracer.open_count(), 0, "RunEnd must close every span");
    assert_eq!(tracer.opened(), tracer.closed(), "balanced open/close");
    let spans: Vec<Span> = tracer.spans().cloned().collect();
    well_formed(&spans).expect("span forest must be well-formed");

    let doc = tracer.export_chrome();
    let v = parse(&doc).expect("export must parse");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "seed {seed}: export must be non-empty");
    let meta_spans = v
        .get("metadata")
        .and_then(|m| m.get("spans"))
        .and_then(Value::as_f64)
        .expect("metadata.spans");
    assert_eq!(events.len() as f64, meta_spans, "metadata span count");
    for e in events {
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
        let dur = e.get("dur").and_then(Value::as_f64).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0, "negative time in {e:?}");
        assert!(e.get("args").and_then(|a| a.get("span")).is_some(), "span id");
    }
}
