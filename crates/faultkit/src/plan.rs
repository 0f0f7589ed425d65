//! Timed fault schedules: what breaks, when, and for how long.
//!
//! A [`FaultPlan`] is the unit of fault injection — an ordered list of
//! [`FaultEvent`]s that a driver (the cluster simulation, a bench sweep)
//! replays through its own event queue. Plans are *values*: building one
//! performs no side effects, two plans built from the same seed compare
//! equal, and [`FaultPlan::trace`] renders the schedule as a stable
//! string for golden-file and replay-equality assertions.
//!
//! The seeded generator ([`FaultPlan::chaos`]) draws crash, stall, and
//! link-flap *episodes* — a fault paired with its recovery — inside a
//! configurable horizon, with an interval-sweep admission check that
//! bounds how many servers may be down at once so generated chaos cannot
//! trivially destroy every replica unless the spec asks for that.

use simkit::{Rng, Time};
use std::fmt;

/// Which fabric resource a link fault degrades.
///
/// Mirrors the bandwidth-carrying members of `core::fabric::FluidKey`
/// without depending on `core`: the driver maps each variant onto its own
/// fluid-resource handle. Port indices are validated by the driver (an
/// out-of-range port is ignored there), not here, so plans stay portable
/// across topologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkTarget {
    /// NIC egress toward storage server `0..ports`.
    PortTx(u8),
    /// NIC ingress from storage server `0..ports`.
    PortRx(u8),
    /// Host-to-device DMA lane (compute side of the middle tier).
    NicH2D,
    /// Device-to-host DMA lane.
    NicD2H,
    /// Accelerator-device H2D lane.
    DevH2D,
    /// Accelerator-device D2H lane.
    DevD2H,
}

impl LinkTarget {
    fn label(self) -> String {
        match self {
            LinkTarget::PortTx(p) => format!("port-tx{p}"),
            LinkTarget::PortRx(p) => format!("port-rx{p}"),
            LinkTarget::NicH2D => "nic-h2d".to_string(),
            LinkTarget::NicD2H => "nic-d2h".to_string(),
            LinkTarget::DevH2D => "dev-h2d".to_string(),
            LinkTarget::DevD2H => "dev-d2h".to_string(),
        }
    }
}

/// One kind of injected fault.
///
/// Every degrading variant has a restoring counterpart so schedules can
/// express bounded outages; the seeded generator always emits them in
/// pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Storage server `server` stops accepting appends and fetches.
    ServerCrash {
        /// Index of the storage server (driver-local numbering).
        server: u32,
    },
    /// A crashed server returns, with whatever data it held at crash
    /// time — re-replication of writes it missed is the scrubber's job.
    ServerRestart {
        /// Index of the storage server.
        server: u32,
    },
    /// Server `server` stays alive but its disk service time is
    /// multiplied by `factor` (> 1 = slower), modelling a gray failure.
    ServerSlow {
        /// Index of the storage server.
        server: u32,
        /// Service-time multiplier; `8.0` means 8× slower.
        factor: f64,
    },
    /// Ends a [`FaultKind::ServerSlow`] stall (factor back to 1).
    ServerNormal {
        /// Index of the storage server.
        server: u32,
    },
    /// Scales a fabric link to `fraction` of its nominal bandwidth.
    /// `0.0` is a hard link-down, `1.0` restores full capacity, values
    /// in between model congestion or lane degradation.
    LinkDegrade {
        /// Which fabric resource is degraded.
        link: LinkTarget,
        /// Fraction of nominal capacity remaining, in `[0, 1]`.
        fraction: f64,
    },
    /// Scales rack-fabric link `link` (a ToR or spine link, by the
    /// driver's dense link index) to `fraction` of nominal. A driver
    /// without a rack fabric ignores it, as it ignores out-of-range
    /// server ids.
    TopoLinkDegrade {
        /// Dense index of the fabric link (driver-local numbering).
        link: u16,
        /// Fraction of nominal capacity remaining, in `[0, 1]`.
        fraction: f64,
    },
}

impl FaultKind {
    /// A hard link-down on `link` (capacity scaled to zero).
    pub fn link_down(link: LinkTarget) -> Self {
        FaultKind::LinkDegrade { link, fraction: 0.0 }
    }

    /// Restores `link` to full nominal capacity.
    pub fn link_up(link: LinkTarget) -> Self {
        FaultKind::LinkDegrade { link, fraction: 1.0 }
    }

    fn label(self) -> String {
        match self {
            FaultKind::ServerCrash { server } => format!("server-crash s{server}"),
            FaultKind::ServerRestart { server } => format!("server-restart s{server}"),
            FaultKind::ServerSlow { server, factor } => {
                format!("server-slow s{server} x{factor:.2}")
            }
            FaultKind::ServerNormal { server } => format!("server-normal s{server}"),
            FaultKind::LinkDegrade { link, fraction } => {
                format!("link-degrade {} frac={fraction:.3}", link.label())
            }
            FaultKind::TopoLinkDegrade { link, fraction } => {
                format!("topo-link-degrade #{link} frac={fraction:.3}")
            }
        }
    }
}

impl fmt::Display for LinkTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The same stable string [`FaultPlan::trace`] uses per event, so trace
/// annotations and golden schedules agree on fault names.
impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A fault bound to its injection time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Simulation time at which the fault fires.
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// An ordered fault schedule.
///
/// Events are kept sorted by time; events at the same instant keep their
/// insertion order (matching the FIFO tie-break of the event engine), so
/// a plan replays identically however it was built.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults — the fair-weather baseline).
    pub fn new() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Adds a fault at `at`, keeping the schedule time-ordered. Builder
    /// style: consumes and returns the plan.
    pub fn at(mut self, at: Time, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Adds a fault at `at` in place (for loop-built schedules).
    pub fn push(&mut self, at: Time, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        // Stable sort: same-time events keep insertion order.
        self.events.sort_by_key(|e| e.at);
    }

    /// The schedule, ordered by time (ties in insertion order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Renders the schedule as one line per event
    /// (`"<ps>ps <fault label>"`). The format is stable and is what the
    /// seed-replay tests compare, so two plans with equal traces inject
    /// identically.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("{}ps {}\n", e.at.as_ps(), e.kind.label()));
        }
        out
    }

    /// Draws a randomized-but-deterministic schedule from `seed`.
    ///
    /// Each requested crash / stall / link-flap becomes an *episode*: a
    /// degrading event at a uniform time inside the spec's horizon plus
    /// the matching recovery after an exponentially distributed outage
    /// (clamped to end inside the horizon, so every injected fault is
    /// healed before the run's measurement tail). Crash episodes pass an
    /// admission sweep that rejects candidates which would overlap an
    /// existing outage on the same server or push the number of
    /// concurrently-down servers above
    /// [`ChaosSpec::with_max_concurrent_down`]; a rejected candidate is
    /// re-drawn a bounded number of times and then skipped, so
    /// generation always terminates and the same seed always yields the
    /// same plan.
    pub fn chaos(seed: u64, spec: &ChaosSpec) -> Self {
        let mut rng = Rng::new(seed);
        let mut plan = FaultPlan::new();
        let span_ps = spec.horizon_end.as_ps().saturating_sub(spec.horizon_start.as_ps());
        if span_ps == 0 {
            return plan;
        }

        // Accepted outage intervals, per category, for the admission sweep.
        let mut crash_spans: Vec<(u32, Time, Time)> = Vec::new();
        let mut stall_spans: Vec<(u32, Time, Time)> = Vec::new();

        let draw_episode = |rng: &mut Rng| -> (Time, Time) {
            let t0 = Time::from_ps(
                spec.horizon_start.as_ps().saturating_add(rng.gen_range(span_ps)),
            );
            let outage = Time::from_us(rng.gen_exp(spec.mean_outage.as_us()).max(1.0));
            let t1 = t0.saturating_add(outage).min(spec.horizon_end);
            (t0, t1)
        };

        const ATTEMPTS: u32 = 8;

        if spec.servers > 0 {
            for _ in 0..spec.crashes {
                for _ in 0..ATTEMPTS {
                    let server = rng.gen_range(u64::from(spec.servers)) as u32;
                    let (t0, t1) = draw_episode(&mut rng);
                    let same = crash_spans.iter().any(|&(s, a, b)| s == server && t0 < b && a < t1);
                    let concurrent = crash_spans
                        .iter()
                        .filter(|&&(_, a, b)| t0 < b && a < t1)
                        .count() as u32;
                    if same || concurrent >= spec.max_concurrent_down {
                        continue;
                    }
                    crash_spans.push((server, t0, t1));
                    plan.push(t0, FaultKind::ServerCrash { server });
                    plan.push(t1, FaultKind::ServerRestart { server });
                    break;
                }
            }

            for _ in 0..spec.stalls {
                for _ in 0..ATTEMPTS {
                    let server = rng.gen_range(u64::from(spec.servers)) as u32;
                    let (t0, t1) = draw_episode(&mut rng);
                    let busy = crash_spans
                        .iter()
                        .chain(stall_spans.iter())
                        .any(|&(s, a, b)| s == server && t0 < b && a < t1);
                    if busy {
                        continue;
                    }
                    stall_spans.push((server, t0, t1));
                    plan.push(t0, FaultKind::ServerSlow { server, factor: spec.slow_factor });
                    plan.push(t1, FaultKind::ServerNormal { server });
                    break;
                }
            }
        }

        if spec.ports > 0 {
            for _ in 0..spec.link_flaps {
                let port = rng.gen_range(u64::from(spec.ports)) as u8;
                let link = if rng.gen_bool(0.5) {
                    LinkTarget::PortTx(port)
                } else {
                    LinkTarget::PortRx(port)
                };
                let (t0, t1) = draw_episode(&mut rng);
                // Half the flaps are hard downs, half partial degradation.
                let fraction = if rng.gen_bool(0.5) {
                    0.0
                } else {
                    0.25 + 0.5 * rng.gen_f64()
                };
                plan.push(t0, FaultKind::LinkDegrade { link, fraction });
                plan.push(t1, FaultKind::link_up(link));
            }
        }

        plan
    }
}

/// Tuning knobs for [`FaultPlan::chaos`].
///
/// The defaults describe a mild storm over a 3-server, 2-port cluster:
/// one crash, one gray-failure stall, one link flap, mean outage 1 ms,
/// never more than one server hard-down at a time.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSpec {
    horizon_start: Time,
    horizon_end: Time,
    servers: u32,
    ports: u8,
    crashes: u32,
    stalls: u32,
    link_flaps: u32,
    mean_outage: Time,
    max_concurrent_down: u32,
    slow_factor: f64,
}

impl ChaosSpec {
    /// A spec whose faults all start inside `[start, end)` and whose
    /// recoveries are clamped to `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn new(start: Time, end: Time) -> Self {
        assert!(end > start, "chaos horizon must be non-empty");
        ChaosSpec {
            horizon_start: start,
            horizon_end: end,
            servers: 3,
            ports: 2,
            crashes: 1,
            stalls: 1,
            link_flaps: 1,
            mean_outage: Time::from_ms(1.0),
            max_concurrent_down: 1,
            slow_factor: 8.0,
        }
    }

    /// Number of storage servers faults may target.
    pub fn with_servers(mut self, servers: u32) -> Self {
        self.servers = servers;
        self
    }

    /// Number of NIC ports link flaps may target.
    pub fn with_ports(mut self, ports: u8) -> Self {
        self.ports = ports;
        self
    }

    /// Number of crash/restart episodes to draw.
    pub fn with_crashes(mut self, crashes: u32) -> Self {
        self.crashes = crashes;
        self
    }

    /// Number of slow-replica (gray failure) episodes to draw.
    pub fn with_stalls(mut self, stalls: u32) -> Self {
        self.stalls = stalls;
        self
    }

    /// Number of link-flap episodes to draw.
    pub fn with_link_flaps(mut self, flaps: u32) -> Self {
        self.link_flaps = flaps;
        self
    }

    /// Mean of the exponential outage-length distribution.
    pub fn with_mean_outage(mut self, outage: Time) -> Self {
        self.mean_outage = outage;
        self
    }

    /// Upper bound on servers hard-down at the same instant. Raise to
    /// `servers` to permit (and with enough crashes, force) total loss.
    pub fn with_max_concurrent_down(mut self, n: u32) -> Self {
        self.max_concurrent_down = n.max(1);
        self
    }

    /// Service-time multiplier used by stall episodes.
    pub fn with_slow_factor(mut self, factor: f64) -> Self {
        self.slow_factor = factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_is_time_ordered() {
        let plan = FaultPlan::new()
            .at(Time::from_ms(8.0), FaultKind::ServerRestart { server: 1 })
            .at(Time::from_ms(4.0), FaultKind::ServerCrash { server: 1 });
        assert_eq!(plan.events()[0].at, Time::from_ms(4.0));
        assert_eq!(plan.events()[1].at, Time::from_ms(8.0));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn same_time_events_keep_insertion_order() {
        let t = Time::from_ms(1.0);
        let plan = FaultPlan::new()
            .at(t, FaultKind::ServerCrash { server: 0 })
            .at(t, FaultKind::ServerCrash { server: 1 })
            .at(t, FaultKind::ServerCrash { server: 2 });
        let order: Vec<u32> = plan
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::ServerCrash { server } => server,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn chaos_same_seed_identical() {
        let spec = ChaosSpec::new(Time::from_ms(1.0), Time::from_ms(20.0))
            .with_crashes(3)
            .with_stalls(2)
            .with_link_flaps(2);
        let a = FaultPlan::chaos(42, &spec);
        let b = FaultPlan::chaos(42, &spec);
        assert_eq!(a, b);
        assert_eq!(a.trace(), b.trace());
        assert!(!a.is_empty());
    }

    #[test]
    fn chaos_different_seeds_differ() {
        let spec = ChaosSpec::new(Time::from_ms(1.0), Time::from_ms(20.0)).with_crashes(3);
        let a = FaultPlan::chaos(1, &spec);
        let b = FaultPlan::chaos(2, &spec);
        assert_ne!(a.trace(), b.trace());
    }

    #[test]
    fn chaos_events_inside_horizon() {
        let start = Time::from_ms(2.0);
        let end = Time::from_ms(10.0);
        let spec = ChaosSpec::new(start, end)
            .with_crashes(4)
            .with_stalls(4)
            .with_link_flaps(4)
            .with_max_concurrent_down(2);
        let plan = FaultPlan::chaos(9, &spec);
        for e in plan.events() {
            assert!(e.at >= start && e.at <= end, "event at {:?} escapes horizon", e.at);
        }
    }

    #[test]
    fn chaos_episodes_are_paired() {
        let spec = ChaosSpec::new(Time::from_ms(1.0), Time::from_ms(50.0))
            .with_crashes(5)
            .with_stalls(3)
            .with_link_flaps(0);
        let plan = FaultPlan::chaos(77, &spec);
        let mut down: Vec<u32> = Vec::new();
        let mut slow: Vec<u32> = Vec::new();
        for e in plan.events() {
            match e.kind {
                FaultKind::ServerCrash { server } => {
                    assert!(!down.contains(&server), "double crash on s{server}");
                    down.push(server);
                }
                FaultKind::ServerRestart { server } => {
                    assert!(down.contains(&server), "restart without crash");
                    down.retain(|&s| s != server);
                }
                FaultKind::ServerSlow { server, .. } => {
                    assert!(!slow.contains(&server), "double stall on s{server}");
                    slow.push(server);
                }
                FaultKind::ServerNormal { server } => {
                    assert!(slow.contains(&server), "normal without slow");
                    slow.retain(|&s| s != server);
                }
                _ => {}
            }
        }
        assert!(down.is_empty(), "unhealed crashes: {down:?}");
        assert!(slow.is_empty(), "unhealed stalls: {slow:?}");
    }

    #[test]
    fn chaos_respects_concurrent_down_cap() {
        let spec = ChaosSpec::new(Time::from_ms(1.0), Time::from_ms(30.0))
            .with_servers(6)
            .with_crashes(12)
            .with_stalls(0)
            .with_link_flaps(0)
            .with_mean_outage(Time::from_ms(10.0))
            .with_max_concurrent_down(2);
        for seed in 0..20 {
            let plan = FaultPlan::chaos(seed, &spec);
            let mut down = 0u32;
            for e in plan.events() {
                match e.kind {
                    FaultKind::ServerCrash { .. } => {
                        down += 1;
                        assert!(down <= 2, "seed {seed}: {down} servers down at once");
                    }
                    FaultKind::ServerRestart { .. } => down -= 1,
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn link_helpers() {
        assert_eq!(
            FaultKind::link_down(LinkTarget::PortTx(1)),
            FaultKind::LinkDegrade { link: LinkTarget::PortTx(1), fraction: 0.0 }
        );
        assert_eq!(
            FaultKind::link_up(LinkTarget::NicH2D),
            FaultKind::LinkDegrade { link: LinkTarget::NicH2D, fraction: 1.0 }
        );
    }

    #[test]
    fn trace_format_is_stable() {
        let plan = FaultPlan::new()
            .at(Time::from_us(3.0), FaultKind::ServerCrash { server: 1 })
            .at(Time::from_us(5.0), FaultKind::link_down(LinkTarget::PortRx(0)));
        assert_eq!(
            plan.trace(),
            "3000000ps server-crash s1\n5000000ps link-degrade port-rx0 frac=0.000\n"
        );
    }

    #[test]
    fn empty_horizon_span_yields_empty_plan() {
        // Degenerate but reachable via saturating arithmetic upstream.
        let spec = ChaosSpec::new(Time::from_ps(0), Time::from_ps(1));
        let plan = FaultPlan::chaos(5, &spec);
        // Span of 1 ps: events exist but stay inside [0, 1].
        for e in plan.events() {
            assert!(e.at.as_ps() <= 1);
        }
    }
}
