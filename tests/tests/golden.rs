//! Golden determinism suite: the simulated *schedule* is frozen.
//!
//! For each pinned seed (101/202/303) the metrics JSON of a chaos run, and
//! for seed 303 the Chrome trace export of a traced run, must equal the
//! fixtures under `tests/golden/` **byte for byte**. Any change that
//! shifts a rate, a completion instant, an event ordering, or a
//! floating-point accumulation order fails here first.
//!
//! The fixtures come from the virtual-time fluid solver. They were
//! regenerated once when it replaced the per-flow solver, because that
//! change reorders floating-point sums; EXPERIMENTS.md ("Simulator
//! performance") holds the before/after field table. Pure speed changes
//! must leave them byte-identical.
//!
//! Regenerate (only when a *semantic* change, or a deliberate change of
//! floating-point summation order, is intended and understood):
//!
//! ```text
//! SMARTDS_GOLDEN_WRITE=1 cargo test -q --offline -p system-tests --test golden
//! ```
//!
//! Metrics fixtures are stored verbatim. The trace export is a few MB, so
//! its fixture stores `length + crc32 + fnv64` — equality of all three is
//! byte-identity for any realistic regression.
//!
//! Since the engine went parallel (`simkit::ShardedSim`), this suite is
//! also the thread-invariance gate: each pinned seed runs at 1/2/4/8
//! worker threads and every run must produce the same bytes — metrics
//! JSON, trace export, and the engine's payload/sync event accounting.
//! A schedule that depends on `SMARTDS_THREADS` fails here first.
//!
//! The rack-scale fixture (`metrics_rack.json`) extends the same contract
//! to the multi-rack fabric: a pinned-seed open-loop tenant run through
//! the topology layer with admission control armed, frozen as metrics
//! JSON + per-class scale stats + engine accounting.

use faultkit::{ChaosSpec, FaultPlan};
use simkit::Time;
use smartds::{cluster, AdmissionSpec, Design, LoadSpec, RunConfig, Topology};
use std::path::PathBuf;
use tracekit::TraceConfig;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// The pinned chaos workload for one seed: the faults-suite base config
/// with a seeded storm and (for 202) the MLC injector, so capped
/// background flows, capacity degradation, retries, and fail-over all sit
/// inside the frozen schedule.
fn golden_cfg(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 64;
    cfg.seed = seed;
    if seed == 202 {
        // Rate-capped persistent flows exercise the solver's capped path.
        cfg.mlc = Some((48, 0));
    }
    let spec = ChaosSpec::new(Time::from_ms(3.0), Time::from_ms(8.0))
        .with_servers(6)
        .with_ports(1)
        .with_crashes(1)
        .with_stalls(1)
        .with_link_flaps(1)
        .with_mean_outage(Time::from_us(800.0))
        .with_max_concurrent_down(1)
        .with_slow_factor(32.0);
    cfg.with_fault_plan(FaultPlan::chaos(seed, &spec))
        .with_request_timeout(Time::from_ms(1.0))
}

/// The pinned rack-scale workload: a 3×3 fabric under the open-loop
/// tenant generator with admission control armed. The tenant population
/// is shrunk from the experiment's 10⁶ so the Zipf setup stays cheap in a
/// fixture run; skew, diurnal swing, bursts, and the per-class QoS map
/// are the rack defaults. Everything downstream of the seed — arrival
/// times, class assignment, fabric queueing, admission verdicts — sits
/// inside the frozen bytes.
fn rack_cfg(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(6.0);
    cfg.pool_blocks = 64;
    cfg.seed = seed;
    let mut load = LoadSpec::rack_default(12.0, cfg.warmup + cfg.measure);
    load.tenants = 65_536;
    cfg.with_topology(Topology::new(3, 3))
        .with_load(load)
        .with_admission(AdmissionSpec::new(48, 192))
        .with_request_timeout(Time::from_ms(1.0))
}

/// FNV-1a 64-bit — independent of crc32 so a coincidental collision in one
/// cannot mask a drift in the other.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Compares `got` against the fixture `name`, or rewrites the fixture when
/// `SMARTDS_GOLDEN_WRITE` is set.
fn check_or_write(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var("SMARTDS_GOLDEN_WRITE").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, got).expect("write fixture");
        println!("wrote {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate with \
             SMARTDS_GOLDEN_WRITE=1 cargo test -p system-tests --test golden",
            path.display()
        )
    });
    if want != got {
        let at = want
            .bytes()
            .zip(got.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(want.len().min(got.len()));
        let lo = at.saturating_sub(60);
        panic!(
            "{name}: output drifted from golden fixture at byte {at}\n \
             want[..]: {:?}\n  got[..]: {:?}\n\
             The simulated schedule changed. If (and only if) that is an \
             intended semantic change, regenerate with SMARTDS_GOLDEN_WRITE=1.",
            &want[lo..(at + 60).min(want.len())],
            &got[lo..(at + 60).min(got.len())],
        );
    }
}

#[test]
fn metrics_json_matches_golden_fixtures() {
    for seed in [101u64, 202, 303] {
        let cfg = golden_cfg(seed);
        let (report, _, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
        let mut text = report.to_json();
        text.push('\n');
        check_or_write(&format!("metrics_{seed}.json"), &text);
    }
}

/// Thread-invariance gate for the sharded engine: the *same* metrics
/// bytes and the *same* sync-protocol accounting must come out at every
/// worker-thread count — and they must equal the frozen fixture, so a
/// thread-dependent schedule cannot hide behind a fixture regeneration.
#[test]
fn metrics_json_is_byte_identical_across_thread_counts() {
    for seed in [101u64, 202, 303] {
        let cfg = golden_cfg(seed);
        let mut baseline: Option<(String, simkit::EngineStats)> = None;
        for threads in [1usize, 2, 4, 8] {
            let (report, _, stats) = cluster::run_counted_stats(&cfg, |_| {}, Some(threads));
            let mut text = report.to_json();
            text.push('\n');
            match &baseline {
                None => {
                    // The 1-thread run must itself match the frozen fixture.
                    check_or_write(&format!("metrics_{seed}.json"), &text);
                    baseline = Some((text, stats));
                }
                Some((want, want_stats)) => {
                    assert_eq!(
                        want, &text,
                        "seed {seed}: metrics drifted between 1 and {threads} threads"
                    );
                    assert_eq!(
                        want_stats, &stats,
                        "seed {seed}: engine payload/sync accounting drifted \
                         between 1 and {threads} threads"
                    );
                }
            }
        }
    }
}

/// The rack-scale gate: metrics JSON, per-class scale stats, and the
/// engine's payload/sync accounting of the pinned open-loop fabric run
/// must equal the fixture byte-for-byte at 1/2/4/8 worker threads. This
/// freezes the whole new surface at once — topology routing and fluid
/// fabric links, the seeded tenant generator, the QoS class plumbing, and
/// every admission verdict.
#[test]
fn rack_scale_fixture_is_byte_identical_across_thread_counts() {
    let cfg = rack_cfg(515);
    let mut baseline: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let (report, cluster, stats) = cluster::run_counted_stats(&cfg, |_| {}, Some(threads));
        let text = format!(
            "{}\n{}\n{:?}\n",
            report.to_json(),
            cluster.scale_stats().to_json(),
            stats
        );
        match &baseline {
            None => {
                // The 1-thread run must itself match the frozen fixture.
                check_or_write("metrics_rack.json", &text);
                baseline = Some(text);
            }
            Some(want) => {
                assert_eq!(
                    want, &text,
                    "rack-scale run drifted between 1 and {threads} threads"
                );
            }
        }
    }
}

/// The full Chrome trace export — every span, every timestamp, every
/// ordering decision — must be byte-identical at every thread count.
#[test]
fn trace_export_is_byte_identical_across_thread_counts() {
    let cfg = golden_cfg(303).with_trace(TraceConfig {
        sample_one_in: 16,
        capacity: 1 << 17,
    });
    let mut baseline: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let (_, cluster, _) = cluster::run_counted_stats(&cfg, |_| {}, Some(threads));
        let export = cluster.tracer.export_chrome();
        match &baseline {
            None => {
                // Pin the 1-thread export to the frozen digest too.
                let digest = format!(
                    "len:{} crc32:{:08x} fnv64:{:016x}\n",
                    export.len(),
                    blockstore::crc32(export.as_bytes()),
                    fnv64(export.as_bytes()),
                );
                check_or_write("trace_303.digest", &digest);
                baseline = Some(export);
            }
            Some(want) => {
                assert_eq!(
                    want.len(),
                    export.len(),
                    "trace export length drifted at {threads} threads"
                );
                assert!(
                    want == &export,
                    "trace export bytes drifted at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn trace_export_matches_golden_digest() {
    let cfg = golden_cfg(303).with_trace(TraceConfig {
        sample_one_in: 16,
        capacity: 1 << 17,
    });
    let (_, cluster, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let export = cluster.tracer.export_chrome();
    assert!(
        cluster.tracer.opened() > 100,
        "a traced chaos run must record spans ({})",
        cluster.tracer.opened()
    );
    let digest = format!(
        "len:{} crc32:{:08x} fnv64:{:016x}\n",
        export.len(),
        blockstore::crc32(export.as_bytes()),
        fnv64(export.as_bytes()),
    );
    check_or_write("trace_303.digest", &digest);
}
