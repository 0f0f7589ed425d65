//! Reproducibility: the simulation is a pure function of its configuration.
//! Two runs with the same seed must agree byte-for-byte; different seeds
//! must actually change the workload.

use smartds::cluster;
use smartds::{Design, RunConfig};

fn quick(design: Design) -> RunConfig {
    let mut cfg = RunConfig::saturating(design);
    cfg.warmup = simkit::Time::from_ms(1.0);
    cfg.measure = simkit::Time::from_ms(4.0);
    cfg.pool_blocks = 64;
    cfg
}

#[test]
fn same_seed_same_report_bytes() {
    for design in [
        Design::CpuOnly,
        Design::SmartDs { ports: 1 },
        Design::SmartDs { ports: 2 },
    ] {
        let cfg = quick(design);
        let a = cluster::run(&cfg);
        let b = cluster::run(&cfg);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{design:?}: same config must reproduce the identical report"
        );
    }
}

#[test]
fn same_seed_same_report_with_snapshots_and_reads() {
    // Maintenance services and the read path bring the chunk maps and
    // scrubber into play; iteration order there must not leak wall-clock
    // or hasher nondeterminism into the results.
    let cfg = quick(Design::SmartDs { ports: 1 }).with_snapshots(simkit::Time::from_ms(1.0));
    let a = cluster::run_counted_stats(&cfg, |c| c.set_read_fraction(1.0 / 6.0), None).0;
    let b = cluster::run_counted_stats(&cfg, |c| c.set_read_fraction(1.0 / 6.0), None).0;
    assert_eq!(a.to_json(), b.to_json());
}

/// Drives seeded split receives over the rocenet AAMS path and renders a
/// textual trace from the ordered iterators (`Endpoint::qpns`,
/// `RecvTable` depths). The trace observes map iteration order directly,
/// so a `HashMap` regression in those structures shows up here as a byte
/// diff between same-seed runs.
fn rocenet_seeded_trace(seed: u64) -> String {
    use rocenet::aams::RecvDesc;
    use rocenet::endpoint::{Endpoint, EndpointEvent};
    use rocenet::MemPool;
    use rocenet::Message;
    use rocenet::rc::Psn;

    let mut log = Vec::new();
    let mut src = testkit::Source::record(seed, &mut log);
    let mut trace = String::new();

    // Split receives over a pair of endpoints, QPs created in a seeded
    // (shuffled) order so ordered iteration is what restores determinism.
    let mk = || {
        Endpoint::new(
            MemPool::new("host", 64 * 1024),
            MemPool::new("dev", 64 * 1024),
            256,
            4,
        )
    };
    let (mut tx, mut rx) = (mk(), mk());
    let mut qpns: Vec<u32> = (0..6).map(|_| src.int_in(1, 1_000_000) as u32).collect();
    qpns.sort_unstable();
    qpns.dedup();
    for &qpn in &qpns {
        tx.create_qp(qpn, Psn::new(0));
        rx.create_qp(qpn, Psn::new(0));
    }
    for (i, &qpn) in qpns.iter().enumerate() {
        let h = rx.host.alloc(64).expect("host buffer");
        let d = rx.dev.alloc(2048).expect("device buffer");
        rx.post_recv(qpn, RecvDesc::split(100 + i as u64, h, 48, d));
        let header = vec![i as u8; 48];
        let payload = vec![!(i as u8); src.int_in(0, 1024) as usize];
        tx.post_send(qpn, i as u64, Message::header_payload(header, payload));
        while let Some(pkt) = tx.poll_tx(qpn) {
            let (ctrl, events) = rx.on_data(qpn, &pkt);
            for ev in &events {
                match ev {
                    EndpointEvent::RecvDone { qpn, placement } => trace.push_str(&format!(
                        "recv qp={qpn} wr={} h={} d={}\n",
                        placement.wr_id, placement.host_bytes, placement.dev_bytes
                    )),
                    other => trace.push_str(&format!("event {other:?}\n")),
                }
            }
            for ev in tx.on_control(qpn, ctrl) {
                trace.push_str(&format!("tx event {ev:?}\n"));
            }
        }
    }
    trace.push_str(&format!("tx qpns: {:?}\n", tx.qpns().collect::<Vec<_>>()));
    trace.push_str(&format!("rx qpns: {:?}\n", rx.qpns().collect::<Vec<_>>()));
    trace
}

#[test]
fn rocenet_aams_seed_replay() {
    for seed in [1u64, 0xDEAD_BEEF, u64::MAX / 7] {
        let a = rocenet_seeded_trace(seed);
        let b = rocenet_seeded_trace(seed);
        assert_eq!(
            a, b,
            "seed {seed:#x}: AAMS trace must be byte-identical across replays"
        );
        assert!(
            a.contains("recv qp="),
            "trace exercised no split receives — op mix too narrow"
        );
    }
    assert_ne!(
        rocenet_seeded_trace(1),
        rocenet_seeded_trace(2),
        "different seeds produced identical traces — seed is not plumbed through"
    );
}

#[test]
fn same_fault_plan_seed_same_report_bytes() {
    // Chaos determinism: a FaultPlan generated from a seed, delivered
    // through the event engine with timeouts/retries/failovers live, must
    // replay to a byte-identical report — including every fault counter
    // (timeouts, retries, aborts, failovers, write_failures,
    // scrub_repairs). This is what makes chaos failures debuggable: any
    // seed that breaks an invariant reproduces exactly.
    use faultkit::{ChaosSpec, FaultPlan};

    let spec = ChaosSpec::new(simkit::Time::from_ms(2.0), simkit::Time::from_ms(4.5))
        .with_servers(6)
        .with_crashes(2)
        .with_stalls(1)
        .with_link_flaps(1)
        .with_mean_outage(simkit::Time::from_us(600.0));
    for seed in [3u64, 0xC0FFEE] {
        let plan = FaultPlan::chaos(seed, &spec);
        assert_eq!(
            plan.trace(),
            FaultPlan::chaos(seed, &spec).trace(),
            "the plan itself must be a pure function of the seed"
        );
        let cfg = quick(Design::SmartDs { ports: 1 })
            .with_fault_plan(plan)
            .with_request_timeout(simkit::Time::from_us(500.0));
        let a = cluster::run(&cfg);
        let b = cluster::run(&cfg);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "seed {seed}: chaos run must replay byte-identically"
        );
    }
}

#[test]
fn equivalent_builder_paths_produce_identical_reports() {
    // One fault channel, one load driver, one sync rule: builder calls
    // that describe the same run must produce the same report bytes.
    use faultkit::{FaultKind, FaultPlan};
    use simkit::Time;
    use smartds::{LoadSpec, TopoLink, Topology};

    let base = quick(Design::SmartDs { ports: 1 });
    let load = LoadSpec::rack_default(12.0, base.warmup + base.measure);
    let restart = FaultPlan::new().at(Time::from_ms(3.0), FaultKind::ServerRestart { server: 2 });
    let fault_then_plan = base
        .clone()
        .with_fault(Time::from_ms(2.0), 2, false)
        .with_fault_plan(restart.clone());
    assert_eq!(
        fault_then_plan.fault_plan.len(),
        2,
        "with_fault_plan must merge into, not replace, the faults added before it"
    );
    let cases = [
        (
            "a rack-fabric link fault on a flat-wire run is ignored",
            base.clone().with_topo_fault(Time::from_ms(2.0), TopoLink::SpineUp, 0.0),
            base.clone(),
        ),
        (
            "a driver set later replaces the one set earlier",
            base.clone().with_load(load).with_open_loop(30.0),
            base.clone().with_open_loop(30.0),
        ),
        (
            "with_open_loop is the one-tenant Poisson load spec",
            base.clone().with_open_loop(30.0),
            base.clone()
                .with_load(LoadSpec::poisson(30.0, base.warmup + base.measure)),
        ),
        (
            "with_fault and with_fault_plan compose in either order",
            fault_then_plan,
            base.clone()
                .with_fault_plan(restart)
                .with_fault(Time::from_ms(2.0), 2, false),
        ),
        (
            "with_sync_matrix is a no-op on a fault run",
            base.clone()
                .with_sync_matrix()
                .with_fault(Time::from_ms(2.0), 2, false),
            base.clone().with_fault(Time::from_ms(2.0), 2, false),
        ),
        (
            "with_sync_matrix is a no-op on a snapshot run",
            base.clone()
                .with_sync_matrix()
                .with_snapshots(Time::from_ms(1.0)),
            base.clone().with_snapshots(Time::from_ms(1.0)),
        ),
        (
            "with_sync_matrix is a no-op on a topology run",
            base.clone()
                .with_topology(Topology::new(2, 3))
                .with_sync_matrix(),
            base.clone().with_topology(Topology::new(2, 3)),
        ),
    ];
    for (what, a, b) in cases {
        assert_eq!(cluster::run(&a).to_json(), cluster::run(&b).to_json(), "{what}");
    }
}

#[test]
fn different_seed_different_workload() {
    let cfg = quick(Design::SmartDs { ports: 1 });
    let mut reseeded = cfg.clone();
    reseeded.seed = cfg.seed.wrapping_add(1);
    let a = cluster::run(&cfg);
    let b = cluster::run(&reseeded);
    // Throughput may coincide, but the full report (latency percentiles,
    // byte counts) of a reseeded run matching exactly would mean the seed
    // is ignored.
    assert_ne!(
        a.to_json(),
        b.to_json(),
        "reseeded run produced an identical report — seed is not plumbed through"
    );
}
