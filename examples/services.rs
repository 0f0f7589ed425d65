//! Scenario: inline data services on the write/read byte path.
//!
//! A middle tier that owns the datapath can do more than split messages:
//! because every payload already flows through it, deduplication,
//! encryption, and a hot-block cache are one `Option` on the run config.
//! This example runs the same redundant-corpus workload three ways —
//! services off, services on the host cores, and services on the
//! SmartNIC's fixed-function engines — and shows both halves of the
//! trade: sealing shrinks the bytes replication ships by the dedup ×
//! compression factor (and most hot reads never leave the middle tier),
//! but charged on the shared host cores it eats the CPU budget; moving
//! the same work to the engines buys the shrink back at full speed.
//!
//! ```text
//! cargo run --release -p smartds-examples --bin services
//! ```

use simkit::Time;
use smartds::{cluster, Design, Placement, RunConfig, ServicesConfig};

fn base() -> RunConfig {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 128;
    cfg.seed = 7;
    cfg.zipf_theta = Some(0.99);
    cfg.with_corpus_profile(corpus::Profile::redundant())
}

fn main() {
    // Baseline: the original pipeline, LZ4 only, nothing sealed.
    let (plain, _, _) = cluster::run_counted_stats(&base(), |c| c.set_read_fraction(0.5), None);

    // Services on: CDC dedup + XTS encryption + a 256-block cache with
    // depth-2 sequential prefetch — first charged on the shared host
    // cores, then offloaded to the dedicated engines.
    let run = |p: Placement| {
        let cfg = base().with_services(ServicesConfig::paper().with_placement(p));
        let (report, cl, _) = cluster::run_counted_stats(&cfg, |c| c.set_read_fraction(0.5), None);
        (report, cl.service_stats().expect("services enabled"))
    };
    let (host, stats) = run(Placement::Host);
    let (engine, _) = run(Placement::Engine);

    println!("redundant corpus, 50% reads, {} ms window:", base().measure.as_ms());
    println!(
        "  services off:          {:>6.1} Gbps, write p99 {:>6.1} µs",
        plain.throughput_gbps, plain.p99_us
    );
    println!(
        "  services on host CPUs: {:>6.1} Gbps, write p99 {:>6.1} µs  (scan+crypt eat the cores)",
        host.throughput_gbps, host.p99_us
    );
    println!(
        "  services on engines:   {:>6.1} Gbps, write p99 {:>6.1} µs  (offloaded at line rate)",
        engine.throughput_gbps, engine.p99_us
    );
    println!(
        "  sealing: {} blocks, {:.2}x smaller on the wire ({:.2}x of it dedup)",
        stats.seals,
        stats.seal_ratio(),
        stats.dedup.dedup_ratio()
    );
    println!(
        "  cache: {:.0}% of reads served from the middle tier ({} hits)",
        stats.cache.hit_rate() * 100.0,
        stats.cache.hits,
    );
    assert!(stats.seal_ratio() > 2.0, "redundant corpus must seal well");
    assert!(stats.cache.hits > 0, "hot blocks must hit the cache");
    assert!(
        engine.throughput_gbps > host.throughput_gbps,
        "engine offload must beat host placement on a CPU-bound mix"
    );
}
