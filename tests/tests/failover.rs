//! Fail-over: a storage server dies mid-run; the middle tier's maintenance
//! service re-replicates onto healthy servers and the system keeps serving.

use simkit::Time;
use smartds::{cluster, Design, RunConfig};

fn base(design: Design) -> RunConfig {
    let mut cfg = RunConfig::saturating(design);
    cfg.warmup = Time::from_ms(2.0);
    cfg.measure = Time::from_ms(8.0);
    cfg.pool_blocks = 64;
    cfg
}

#[test]
fn killed_server_triggers_failover_and_service_continues() {
    let cfg = base(Design::SmartDs { ports: 1 })
        // Server 2 dies four milliseconds in, recovers at eight.
        .with_fault(Time::from_ms(4.0), 2, false)
        .with_fault(Time::from_ms(8.0), 2, true);
    let report = cluster::run(&cfg);
    assert!(
        report.failovers > 0,
        "appends to the dead server must be re-replicated"
    );
    // Service continued at (near) full rate: fail-over is not an outage.
    assert!(
        report.throughput_gbps > 40.0,
        "throughput {:.1} Gbps during fail-over window",
        report.throughput_gbps
    );
    assert!(report.writes_done > 5_000);
}

#[test]
fn losing_too_many_servers_stalls_instead_of_underreplicating() {
    // With 6 servers and replication 3, killing 4 leaves only 2 healthy:
    // placement must stall (and resume on recovery) rather than write
    // under-replicated data.
    let cfg = base(Design::CpuOnly)
        .with_fault(Time::from_ms(3.0), 0, false)
        .with_fault(Time::from_ms(3.0), 1, false)
        .with_fault(Time::from_ms(3.0), 2, false)
        .with_fault(Time::from_ms(3.0), 3, false)
        .with_fault(Time::from_ms(6.0), 0, true)
        .with_fault(Time::from_ms(6.0), 1, true)
        .with_fault(Time::from_ms(6.0), 2, true)
        .with_fault(Time::from_ms(6.0), 3, true);
    let stalled = cluster::run(&cfg);
    let healthy = cluster::run(&base(Design::CpuOnly));
    assert!(
        stalled.writes_done < healthy.writes_done,
        "a 3 ms placement stall must cost completed writes ({} vs {})",
        stalled.writes_done,
        healthy.writes_done
    );
    // But the system recovered: a substantial number of writes completed.
    assert!(stalled.writes_done > healthy.writes_done / 3);
}

#[test]
fn failover_preserves_replica_count_functionally() {
    use blockstore::{ServerId, StorageServer, StoredBlock};

    // Unit-style end-to-end of the re-replication rule itself.
    let mut servers: Vec<StorageServer> =
        (0..3).map(|i| StorageServer::new(ServerId(i), 1 << 20)).collect();
    servers[1].set_alive(false);
    let block = StoredBlock::raw(vec![7u8; 512]);
    let mut stored = 0;
    for s in &mut servers {
        if s.append((0, 0), 1, block.clone()).is_some() {
            stored += 1;
        }
    }
    assert_eq!(stored, 2, "dead server rejects the append");
    // Fail-over: re-append to a healthy server.
    servers[0].append((0, 1), 1, block.clone()).unwrap();
    let total: u64 = servers.iter().map(|s| s.appends()).sum();
    assert_eq!(total, 3, "replication factor restored");
}

#[test]
fn failover_transient_is_visible_then_recovers() {
    // Sample throughput every 250 µs; kill 3 of 6 servers at 4 ms and
    // recover them at 6 ms. With only 3 healthy servers every replica set
    // must include all of them, so placement continues but any further
    // failure would stall — the dip appears when a fourth dies briefly.
    let mut cfg = base(Design::SmartDs { ports: 1 })
        .with_fault(Time::from_ms(4.0), 0, false)
        .with_fault(Time::from_ms(4.0), 1, false)
        .with_fault(Time::from_ms(4.0), 2, false)
        .with_fault(Time::from_ms(4.2), 3, false) // 2 healthy → stall
        .with_fault(Time::from_ms(5.0), 3, true)
        .with_fault(Time::from_ms(6.0), 0, true)
        .with_fault(Time::from_ms(6.0), 1, true)
        .with_fault(Time::from_ms(6.0), 2, true);
    cfg.sample_period = Some(Time::from_us(250.0));
    cfg.measure = Time::from_ms(10.0);

    let (_, c, _) = cluster::run_counted_stats(&cfg, |_| {}, None);

    // Convert cumulative samples to per-interval rates.
    let rate_at = |t_ms: f64| -> u64 {
        let t = Time::from_ms(t_ms);
        let idx = c.samples.partition_point(|(at, _)| *at < t);
        let (_, after) = c.samples[idx.min(c.samples.len() - 1)];
        let (_, before) = c.samples[idx.saturating_sub(2)];
        after.saturating_sub(before)
    };
    let healthy_rate = rate_at(3.5);
    let stalled_rate = rate_at(4.8);
    let recovered_rate = rate_at(9.0);
    assert!(
        stalled_rate < healthy_rate / 2,
        "stall should halve the rate: {stalled_rate} vs {healthy_rate}"
    );
    assert!(
        recovered_rate > healthy_rate / 2,
        "service recovers after servers return: {recovered_rate} vs {healthy_rate}"
    );
    assert!(c.samples.len() > 30, "sampler ticked {}", c.samples.len());
}
