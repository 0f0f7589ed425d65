//! Property tests for the fault-plan invariants that the chaos suite
//! leans on: seed determinism, horizon containment, episode pairing,
//! the concurrent-down cap, and bounded packet-drop runs.

use faultkit::{ChaosSpec, FaultKind, FaultPlan, PacketChaos, PacketFate};
use simkit::Time;
use testkit::gen::{self, Gen};

fn spec_from(
    span_us: u32,
    servers: u32,
    crashes: u32,
    stalls: u32,
    flaps: u32,
    max_down: u32,
) -> ChaosSpec {
    let start = Time::from_us(100.0);
    let end = start + Time::from_us(f64::from(span_us.max(1)));
    ChaosSpec::new(start, end)
        .with_servers(servers)
        .with_ports(2)
        .with_crashes(crashes)
        .with_stalls(stalls)
        .with_link_flaps(flaps)
        .with_mean_outage(Time::from_us(f64::from(span_us.max(1)) / 4.0))
        .with_max_concurrent_down(max_down)
}

testkit::prop! {
    cases = 96;

    /// The same seed and spec always yield byte-identical plans, and a
    /// different seed (almost) always yields a different trace when the
    /// plan is non-empty.
    fn chaos_is_a_pure_function_of_the_seed(
        seed in gen::u64s(..),
        span_us in gen::u32s(1..100_000),
        servers in gen::u32s(1..8),
        crashes in gen::u32s(0..6),
        stalls in gen::u32s(0..4),
        flaps in gen::u32s(0..4),
    ) {
        let spec = spec_from(span_us, servers, crashes, stalls, flaps, 1);
        let a = FaultPlan::chaos(seed, &spec);
        let b = FaultPlan::chaos(seed, &spec);
        assert_eq!(a, b);
        assert_eq!(a.trace(), b.trace());
    }

    /// Every generated event lands inside the spec's horizon, crash /
    /// stall episodes are properly paired (each fault healed exactly
    /// once, in order), and the hard-down cap is never exceeded.
    fn chaos_plans_are_well_formed(
        seed in gen::u64s(..),
        span_us in gen::u32s(10..100_000),
        servers in gen::u32s(1..8),
        crashes in gen::u32s(0..10),
        stalls in gen::u32s(0..6),
        flaps in gen::u32s(0..6),
        max_down in gen::u32s(1..4),
    ) {
        let spec = spec_from(span_us, servers, crashes, stalls, flaps, max_down);
        let start = Time::from_us(100.0);
        let end = start + Time::from_us(f64::from(span_us.max(1)));
        let plan = FaultPlan::chaos(seed, &spec);

        let mut down: Vec<u32> = Vec::new();
        let mut slow: Vec<u32> = Vec::new();
        let mut last = Time::ZERO;
        for e in plan.events() {
            assert!(e.at >= start && e.at <= end, "event escapes horizon");
            assert!(e.at >= last, "plan not time-ordered");
            last = e.at;
            match e.kind {
                FaultKind::ServerCrash { server } => {
                    assert!(server < servers, "crash targets unknown server");
                    assert!(!down.contains(&server), "server crashed twice");
                    down.push(server);
                    assert!(
                        down.len() as u32 <= max_down,
                        "concurrent-down cap violated"
                    );
                }
                FaultKind::ServerRestart { server } => {
                    assert!(down.contains(&server), "restart without crash");
                    down.retain(|&s| s != server);
                }
                FaultKind::ServerSlow { server, factor } => {
                    assert!(server < servers);
                    assert!(factor > 1.0, "stall factor must slow the disk");
                    assert!(!slow.contains(&server), "server stalled twice");
                    slow.push(server);
                }
                FaultKind::ServerNormal { server } => {
                    assert!(slow.contains(&server), "normal without slow");
                    slow.retain(|&s| s != server);
                }
                FaultKind::LinkDegrade { fraction, .. }
                | FaultKind::TopoLinkDegrade { fraction, .. } => {
                    assert!((0.0..=1.0).contains(&fraction));
                }
            }
        }
        assert!(down.is_empty(), "crash never healed inside horizon");
        assert!(slow.is_empty(), "stall never healed inside horizon");
    }

    /// Packet chaos never exceeds its consecutive-drop cap and is
    /// replayable, for arbitrary probabilities — including certain loss.
    fn packet_chaos_is_bounded_and_deterministic(
        seed in gen::u64s(..),
        drop_pct in gen::u32s(0..101),
        dup_pct in gen::u32s(0..51),
        cap in gen::u32s(1..6),
        n in gen::u32s(1..2_000),
    ) {
        let build = || {
            PacketChaos::new(seed)
                .with_drop(f64::from(drop_pct) / 100.0)
                .with_duplicate(f64::from(dup_pct) / 100.0)
                .with_max_consecutive_drops(cap)
        };
        let mut a = build();
        let mut b = build();
        let mut run = 0u32;
        for _ in 0..n {
            let fa = a.fate();
            assert_eq!(fa, b.fate(), "fate stream diverged");
            if fa == PacketFate::Drop {
                run += 1;
                assert!(run <= cap, "consecutive drops exceeded cap");
            } else {
                run = 0;
            }
        }
        assert_eq!(a.dropped(), b.dropped());
        assert_eq!(a.duplicated(), b.duplicated());
        assert_eq!(a.decided(), u64::from(n));
    }
}
