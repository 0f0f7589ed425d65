//! The run driver: building the sharded simulation, routing faults, and
//! the two run entry points.

use super::{Cluster, ClusterShard, Ev};
use crate::design::{Driver, RunConfig};
use crate::fabric::FluidKey;
use crate::metrics::RunReport;
use blockstore::ServerId;
use faultkit::{FaultKind, LinkTarget};
use simkit::{EngineStats, Scheduler, ShardedSim, Time};

impl Cluster {
    /// Maps a faultkit link target onto this fabric's fluid resources.
    /// Ports beyond the design's port count are ignored (a chaos plan
    /// generated for 2 ports may run against a 1-port design).
    fn link_key(&self, link: LinkTarget) -> Option<FluidKey> {
        let ports = self.cfg.design.ports();
        match link {
            LinkTarget::PortTx(i) => {
                ((i as usize) < ports).then_some(FluidKey::PortTx(i))
            }
            LinkTarget::PortRx(i) => {
                ((i as usize) < ports).then_some(FluidKey::PortRx(i))
            }
            LinkTarget::NicH2D => Some(FluidKey::NicH2D),
            LinkTarget::NicD2H => Some(FluidKey::NicD2H),
            LinkTarget::DevH2D => Some(FluidKey::DevH2D),
            LinkTarget::DevD2H => Some(FluidKey::DevD2H),
        }
    }

    /// Applies one scheduled fault at the hub: placement health, port and
    /// fabric-link capacity, and tracing. The server/disk effects of a
    /// server-targeted fault are applied by the target store shard, which
    /// receives the same fault event at the same time. Out-of-range server
    /// ids, and fabric-link faults on a flat-wire run, are ignored so
    /// fault plans compose with any cluster shape.
    pub(super) fn apply_fault(&mut self, kind: FaultKind, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if self.tracer.enabled() {
            // Every span whose interval covers `now` gets this annotation.
            self.tracer.fault_mark(now, kind.to_string());
        }
        match kind {
            FaultKind::ServerCrash { server } => {
                if (server as usize) < self.num_servers {
                    self.selector.set_healthy(ServerId(server), false);
                }
            }
            FaultKind::ServerRestart { server } => {
                if (server as usize) < self.num_servers {
                    self.selector.set_healthy(ServerId(server), true);
                    // Scrub needs every shard's chunk store: defer to the
                    // window barrier, where all shards are in scope.
                    sched.defer_global(Ev::GlobalScrub(server));
                }
            }
            FaultKind::ServerSlow { .. } | FaultKind::ServerNormal { .. } => {}
            FaultKind::LinkDegrade { link, fraction } => {
                if let Some(fkey) = self.link_key(link) {
                    self.degrade(fkey.index(), fraction, sched);
                }
            }
            FaultKind::TopoLinkDegrade { link, fraction } => {
                if let Some(i) = self.link_wake(link) {
                    self.degrade(i, fraction, sched);
                }
            }
        }
    }
}

/// Whether a run can defer a barrier operation: the snapshot service
/// ([`Ev::GlobalSnapshot`], every `snapshot_period`) or a post-restart
/// scrub ([`Ev::GlobalScrub`], on a planned `ServerRestart`). These need
/// every shard paused at one horizon, so such runs keep the flat window.
fn defers_barrier_ops(cfg: &RunConfig) -> bool {
    cfg.snapshot_period.is_some()
        || cfg
            .fault_plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::ServerRestart { .. }))
}

/// The server index a fault targets, when it targets one.
fn fault_server(kind: &FaultKind) -> Option<u32> {
    match kind {
        FaultKind::ServerCrash { server }
        | FaultKind::ServerRestart { server }
        | FaultKind::ServerSlow { server, .. }
        | FaultKind::ServerNormal { server } => Some(*server),
        FaultKind::LinkDegrade { .. } | FaultKind::TopoLinkDegrade { .. } => None,
    }
}

/// Runs a full experiment for `cfg` and returns its report.
///
/// Deterministic: equal configurations produce identical reports.
pub fn run(cfg: &RunConfig) -> RunReport {
    run_counted_stats(cfg, |_| {}, None).0
}

/// Runs a full experiment for `cfg` and returns its report, the finished
/// cluster, and the engine's event and synchronization accounting.
///
/// `setup` adjusts the cluster before it starts (a read fraction, tenant
/// rate limits). The returned cluster lets callers audit functional state:
/// the chaos suite reads every stored block after the faults and asserts
/// it still decompresses. The [`EngineStats`] are a property of the
/// *implementation*, not the simulated outcome: the perf harness and the
/// events-budget regression test use them as a wall-clock-free measure of
/// simulator work, kept out of [`RunReport`] so report JSON stays a pure
/// function of the simulated schedule.
///
/// Every run — whatever the thread count — executes on the sharded engine
/// (hub shard 0, one shard per storage server), so the simulated schedule
/// is one fixed function of the configuration; `threads` (`None` = the
/// `SMARTDS_THREADS` environment default) changes wall time only. Tests
/// that compare thread counts pass `Some(n)` to stay immune to
/// environment races.
pub fn run_counted_stats(
    cfg: &RunConfig,
    setup: impl FnOnce(&mut Cluster),
    threads: Option<usize>,
) -> (RunReport, Cluster, EngineStats) {
    let end = cfg.warmup + cfg.measure;
    let mut sim = build_sim(cfg, setup, threads, !defers_barrier_ops(cfg));
    sim.schedule_at(0, end, Ev::RunEnd);
    sim.run();
    let end_time = sim.now(0).max(end);
    let stats = sim.stats();
    let cluster = Cluster::absorb_shards(sim.into_worlds());
    let delta = cluster.fabric.traffic() - cluster.warmup_traffic;
    let report = RunReport::build(
        cfg.design.label(),
        cfg.cores,
        cfg.outstanding,
        &cluster.metrics,
        delta,
        cfg.warmup,
        end_time,
    );
    (report, cluster, stats)
}

/// Builds the sharded simulation of `cfg`: the cluster (adjusted by
/// `setup`), split into its shards on `threads` workers, and every initial
/// event up to the warm-up boundary — the fault plan, the periodic ticks
/// and the load driver's first issues. `star` selects the hub-and-spoke
/// pair matrix over the flat window. The caller schedules the run's end.
pub(super) fn build_sim(
    cfg: &RunConfig,
    setup: impl FnOnce(&mut Cluster),
    threads: Option<usize>,
    star: bool,
) -> ShardedSim<ClusterShard> {
    let mut cluster = Cluster::new(cfg.clone());
    setup(&mut cluster);
    cluster.stop_issuing_at = cfg.warmup + cfg.measure;
    if let Some(m) = cluster.mlc.as_mut() {
        m.start(&mut cluster.fabric.mem, Time::ZERO);
    }
    let num_servers = cluster.num_servers;
    // The first tenant arrival is drawn before the hub moves into its
    // shard, so the schedule is identical at every thread count.
    let first_arrival = cluster.loadgen.as_mut().map(|lg| lg.next_arrival());
    // Lookahead follows the topology: the minimum hub↔server path latency
    // (the flat wire constant without one).
    let lookahead = cfg.lookahead();
    let mut sim = ShardedSim::new(cluster.split_for_shards(), lookahead);
    if star {
        // Messages only flow hub <-> store (stores never talk directly),
        // so the direct-latency matrix is a star: one wire hop to or from
        // shard 0, unreachable otherwise. The transitive closure then
        // gives store -> store (and every round trip) two hops, letting
        // store shards run up to a full extra wire beyond the flat
        // window. Barrier operations need a common horizon, so runs that
        // can defer one keep the flat window.
        sim = sim.with_pair_lookahead(star_lookahead(num_servers, lookahead));
    }
    if let Some(t) = threads {
        sim = sim.with_threads(t);
    }
    // A server-targeted fault is delivered twice at the same instant: the
    // hub updates placement health and tracing, the target shard applies
    // the server/disk effect. Both sides see it deterministically.
    let store_shard =
        |server: u32| ((server as usize) < num_servers).then(|| 1 + server as usize);
    for e in cfg.fault_plan.events() {
        sim.schedule_at(0, e.at, Ev::Fault(e.kind));
        if let Some(s) = fault_server(&e.kind).and_then(store_shard) {
            sim.schedule_at(s, e.at, Ev::Fault(e.kind));
        }
    }
    if let Some(period) = cfg.snapshot_period {
        sim.schedule_at(0, period, Ev::SnapshotTick);
    }
    if let Some(period) = cfg.sample_period {
        sim.schedule_at(0, period, Ev::SampleTick);
    }
    match cfg.driver {
        Driver::Closed => {
            // Stagger the initial closed-loop issues over the first
            // microseconds.
            for slot in 0..cfg.outstanding as u32 {
                sim.schedule_at(0, Time::from_ps(200_000u64 * slot as u64 + 1), Ev::Issue(slot, 0));
            }
        }
        Driver::Poisson { .. } => {
            // Open loop: a single Poisson arrival process drives issue.
            sim.schedule_at(0, Time::from_ps(1), Ev::Arrival);
        }
        Driver::Tenants { .. } => {
            // Open loop, tenant generator: seeded arrivals drive issue.
            if let Some(a) = first_arrival {
                let at = a.at.max(Time::from_ps(1));
                sim.schedule_at(0, at, Ev::TenantArrival(a.tenant, a.class));
            }
        }
    }
    sim.schedule_at(0, cfg.warmup, Ev::WarmupEnd);
    sim
}

/// The direct-latency matrix of the hub-and-spoke shard layout: one wire
/// hop between the hub (shard 0) and each of `servers` store shards,
/// unreachable between stores.
fn star_lookahead(servers: usize, lookahead: Time) -> Vec<Vec<Time>> {
    let n = 1 + servers;
    let mut direct = vec![vec![Time::MAX; n]; n];
    direct[0][1..].fill(lookahead);
    for row in &mut direct[1..] {
        row[0] = lookahead;
    }
    direct
}
