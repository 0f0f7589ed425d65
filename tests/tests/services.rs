//! Behavioral suite for the inline data services (dedup + encryption +
//! hot-block cache) on the cluster's real byte path, plus the services
//! golden fixture.
//!
//! `RunConfig::services == None` stays pinned by the pre-existing golden
//! suite (byte-identical fixtures); this suite covers the enabled path:
//!
//! * dedup really shrinks the bytes shipped to storage on a dup-heavy
//!   corpus (and barely on an incompressible one);
//! * every container a storage server holds decrypts and reassembles to
//!   an exact pool payload (the write path really sealed, the format
//!   really round-trips through replication and the chunk stores);
//! * cache hits serve reads from the middle tier — faster reads, fewer
//!   storage fetches;
//! * service placement moves latency, never functional results;
//! * the whole services schedule is thread-invariant and frozen as a
//!   golden fixture (`metrics_services.json`).

use simkit::Time;
use smartds::{cluster, Design, Placement, RunConfig, Services, ServicesConfig, Workload};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Same contract as the golden suite's helper: byte-compare against the
/// fixture, or rewrite it under `SMARTDS_GOLDEN_WRITE=1`.
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
             SMARTDS_GOLDEN_WRITE=1 cargo test -p system-tests --test services",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "{name}: services output drifted from the golden fixture. If (and \
         only if) that is an intended semantic change, regenerate with \
         SMARTDS_GOLDEN_WRITE=1."
    );
}

fn quick(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(6.0);
    cfg.pool_blocks = 64;
    cfg.outstanding = 64;
    cfg.seed = seed;
    cfg
}

#[test]
fn dedup_shrinks_stored_bytes_on_a_dup_heavy_corpus() {
    let run = |profile: corpus::Profile| {
        let cfg = quick(42)
            .with_corpus_profile(profile)
            .with_services(ServicesConfig::paper());
        let (_, cl, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
        cl.service_stats().expect("services on")
    };
    let redundant = run(corpus::Profile::redundant());
    let incompressible = run(corpus::Profile::incompressible());
    assert!(
        redundant.seal_ratio() > 2.0,
        "dup-heavy corpus should seal well: {:.2}x",
        redundant.seal_ratio()
    );
    assert!(
        redundant.dedup.dedup_ratio() > 1.2,
        "dup-heavy corpus should dedup: {:.2}x",
        redundant.dedup.dedup_ratio()
    );
    assert!(
        incompressible.seal_ratio() < 1.1,
        "incompressible corpus cannot shrink: {:.2}x",
        incompressible.seal_ratio()
    );
    assert!(
        redundant.seal_ratio() > incompressible.seal_ratio() * 1.8,
        "redundant {:.2}x vs incompressible {:.2}x",
        redundant.seal_ratio(),
        incompressible.seal_ratio()
    );
}

/// Every block a storage server holds is a sealed container: decrypting
/// and reassembling it under the right segment tweak yields exactly one
/// pool payload; under any other tweak it yields garbage.
#[test]
fn stored_containers_decrypt_to_exact_pool_payloads() {
    let cfg = quick(43).with_services(ServicesConfig::paper().with_cache(0, 0));
    let (_, cl, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
    let svc = cl.services().expect("services on");
    // The cluster's pool is reproducible from the config alone.
    let w = Workload::new(hwmodel::consts::BLOCK_SIZE, cfg.pool_blocks, cfg.seed);
    let mut verified = 0usize;
    for srv in &cl.servers {
        for (_, chunk) in srv.chunks() {
            for (_, sb) in chunk.snapshot().iter().take(2) {
                let container = sb.expand().expect("raw container");
                let hit = (0..cfg.pool_blocks as u64).any(|seg| {
                    svc.unseal(seg, &container).as_deref()
                        == Some(w.payload(seg as usize))
                });
                assert!(hit, "container on server {} matches no pool payload", srv.id().0);
                verified += 1;
            }
        }
    }
    assert!(verified >= 20, "verified {verified} sealed containers");
}

#[test]
fn cache_hits_serve_reads_from_the_middle_tier() {
    // Zipf-skewed reads over a small pool: the 256-block cache covers the
    // whole working set, so most reads after warm-up are hits.
    let run = |svc: ServicesConfig| {
        let mut cfg = quick(44).with_services(svc);
        cfg.zipf_theta = Some(0.99);
        let (_, cl, _) = cluster::run_counted_stats(&cfg, |c| c.set_read_fraction(0.5), None);
        let p50 = cl.metrics.read_latency.quantile(0.5);
        (cl.service_stats().expect("services on"), p50)
    };
    let (with_cache, hit_p50) = run(ServicesConfig::paper());
    let (without_cache, miss_p50) = run(ServicesConfig::paper().with_cache(0, 0));
    assert!(
        with_cache.cache.hits > 100,
        "cache hits: {}",
        with_cache.cache.hits
    );
    assert!(
        with_cache.cache.hit_rate() > 0.5,
        "hit rate: {:.2}",
        with_cache.cache.hit_rate()
    );
    assert_eq!(without_cache.cache.hits, 0, "cache off records no hits");
    assert!(
        hit_p50 < miss_p50,
        "cached reads must be faster: p50 {:.1}µs vs {:.1}µs",
        hit_p50.as_us(),
        miss_p50.as_us()
    );
}

/// A cyclic sequential scan wider than the cache defeats plain LRU (every
/// lap evicts what the next lap needs), which is exactly where sequential
/// prefetch earns its keep: each miss speculatively fetches the next
/// blocks of the scan, so they are resident by the time the scan reaches
/// them.
#[test]
fn sequential_scan_drives_prefetch() {
    let mut cfg = quick(46).with_services(ServicesConfig::paper().with_cache(16, 2));
    cfg.zipf_theta = None;
    let (_, cl, _) = cluster::run_counted_stats(
        &cfg,
        |c| {
            c.set_read_fraction(0.5);
            c.set_sequential_span(48);
        },
        None,
    );
    let s = cl.service_stats().expect("services on");
    assert!(s.prefetch_issued > 50, "prefetch issued: {}", s.prefetch_issued);
    assert!(
        s.prefetch_completed > 0,
        "prefetches landed: {} of {}",
        s.prefetch_completed,
        s.prefetch_issued
    );
    assert!(
        s.prefetch_completed <= s.prefetch_issued,
        "completions cannot exceed issues"
    );
    assert!(
        s.cache.prefetch_hits > 0,
        "prefetched blocks absorbed later reads: {}",
        s.cache.prefetch_hits
    );
}

/// Placement moves where service time is charged — host pool, SoC Arms,
/// or dedicated engines — never what bytes are produced: the same seal
/// sequence yields byte-identical containers under every placement. (The
/// aggregate run counters legitimately differ across placements, because
/// different latencies complete different amounts of work in the fixed
/// measurement window.)
#[test]
fn placement_never_changes_sealed_bytes() {
    let w = Workload::new(hwmodel::consts::BLOCK_SIZE, 32, 7);
    let seal_all = |p: Placement| -> Vec<Vec<u8>> {
        let mut svc = Services::new(&ServicesConfig::paper().with_placement(p));
        (0..32).map(|i| svc.seal(i as u64, w.payload(i))).collect()
    };
    let host = seal_all(Placement::Host);
    assert_eq!(host, seal_all(Placement::Soc), "host vs soc sealed bytes drifted");
    assert_eq!(host, seal_all(Placement::Engine), "host vs engine sealed bytes drifted");
    // And each placement's cluster run really moves data end to end.
    for p in [Placement::Host, Placement::Soc, Placement::Engine] {
        let cfg = quick(45).with_services(ServicesConfig::paper().with_placement(p));
        let (report, cl, _) = cluster::run_counted_stats(&cfg, |_| {}, None);
        let s = cl.service_stats().expect("services on");
        assert!(report.writes_done > 0, "{p:?}: no writes completed");
        assert!(s.seals > 0, "{p:?}: nothing sealed");
    }
}

/// The services golden fixture: metrics JSON + service stats of a pinned
/// seed must be byte-identical at 1/2/4/8 worker threads and equal to the
/// frozen fixture — the thread-invariance gate for every new service
/// structure (dedup index, cache, prefetch tables, dedicated stations).
#[test]
fn services_fixture_is_byte_identical_across_thread_counts() {
    let mut cfg = quick(606)
        .with_corpus_profile(corpus::Profile::text_like())
        .with_services(ServicesConfig::paper());
    cfg.zipf_theta = Some(0.99);
    let mut baseline: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let (report, cl, stats) =
            cluster::run_counted_stats(&cfg, |c| c.set_read_fraction(0.5), Some(threads));
        let text = format!(
            "{}\n{}\n{:?}\n",
            report.to_json(),
            cl.service_stats().expect("services on").to_json(),
            stats
        );
        match &baseline {
            None => {
                check_or_write("metrics_services.json", &text);
                baseline = Some(text);
            }
            Some(want) => {
                assert_eq!(
                    want, &text,
                    "services run drifted between 1 and {threads} threads"
                );
            }
        }
    }
}
