//! The end-to-end cluster simulation: compute clients, one middle-tier
//! server (any [`Design`]), and replicated storage servers.
//!
//! The cluster is a [`simkit::World`]. Requests are issued by the run's
//! load driver; each executes its design's [`Plan`](crate::plan::Plan)
//! phase by phase across the shared [`Fabric`], CPU pool, engines, and
//! storage-server disks, while the functional layer really compresses
//! payload bytes and really appends them to [`StorageServer`] chunk stores
//! (complete with LSM compaction when thresholds fire). Throughput, latency
//! histograms, and per-resource bandwidths are collected over a
//! post-warm-up measurement window.
//!
//! This file holds the hub world ([`Cluster`], its events [`Ev`] and their
//! handler) and the storage RPC messages. The rest splits along four seams:
//! `request` (the request state machine: issue, plan stepping, completion,
//! timeout and retry), `transfer` (the fabric and rack-fabric fluids, the
//! memory gate, draining and the one wakeup arming pass), `store` (the
//! storage shards, barrier operations, split and absorb) and `run` (the run
//! driver and fault routing).

use crate::admission::Admission;
use crate::design::{Design, Driver, RunConfig};
use crate::fabric::{Fabric, FluidKey};
use crate::loadgen::LoadGen;
use crate::metrics::{Metrics, ScaleStats};
use crate::plan::{PlanId, PlanTable};
use crate::services::{ServiceStats, Services};
use crate::topology::Topology;
use crate::workload::Workload;
use blockstore::{QuorumTracker, ReplicaSelector, Scrubber, ServerId, StorageServer, StoredBlock};
use faultkit::FaultKind;
use hwmodel::consts::NET_PROPAGATION;
use hwmodel::{CompressEngine, CpuPool, MlcInjector};
use simkit::{Scheduler, Time, WakeSet, World};
use tracekit::Tracer;

mod request;
mod run;
mod store;
mod transfer;

pub use request::RetryTicket;
pub use run::{run, run_counted_stats};
pub use store::{ClusterShard, StoreShard};

use request::{InFlight, StoredVersion};
use transfer::{wake_fluid, MemGate, TopoNet, TopoPayload};

/// Number of storage servers in the simulated cluster.
pub const STORAGE_SERVERS: usize = 6;
/// Conservative lookahead between the middle-tier hub and every storage
/// server: the network propagation delay. Every storage RPC (and its ack)
/// crosses the wire, so no cross-shard event can take effect sooner — which
/// is exactly what lets the shards run in parallel windows of this width.
pub const STORAGE_LOOKAHEAD: Time = NET_PROPAGATION;
/// Compaction threshold per chunk (writes before the maintenance service
/// compacts).
pub const COMPACTION_THRESHOLD: u64 = 512;

/// Events circulating in the cluster world.
#[derive(Debug)]
pub enum Ev {
    /// Fluid-resource wakeup (wake index — a fabric key or a rack link —,
    /// epoch at arming time, coalescer serial identifying the armed
    /// sentinel).
    Wake(usize, u64, u64),
    /// A compute station finished the job of branch token `tok`.
    JobDone(Station, u64),
    /// A storage RPC arrived at its server shard (through the cross-shard
    /// mailbox, after wire propagation).
    StoreArrive(StoreMsg),
    /// A store shard's disk finished the I/O for token `tok`.
    StoreDiskDone(u64),
    /// A storage RPC's ack arrived back at the middle-tier hub.
    StoreAck(AckMsg),
    /// Barrier operation: scrub restarted server `i` against all shards.
    GlobalScrub(u32),
    /// Barrier operation: one round-robin snapshot across all shards.
    GlobalSnapshot,
    /// A fixed delay (Wait step or PCIe propagation) elapsed.
    Delay(u64),
    /// Client slot `slot` issues its next request at traffic class
    /// `class` (also the deferred issue of a fail-over stall).
    Issue(u32, u8),
    /// A scheduled `faultkit` fault fires (crash, stall, link degrade…).
    Fault(FaultKind),
    /// Per-request timer expired for request slot `key` at generation
    /// `gen` (stale once the slot was freed or reused).
    ReqTimeout(u32, u32),
    /// Backoff elapsed: re-issue a timed-out request.
    Retry(Box<RetryTicket>),
    /// Open-loop tenant arrival from the seeded load generator
    /// `(tenant rank, traffic class)`.
    TenantArrival(u64, u8),
    /// Periodic throughput sample (transient visualisation).
    SampleTick,
    /// Warm-up boundary: reset collectors.
    WarmupEnd,
    /// End of the measurement window.
    RunEnd,
}

/// A FIFO compute station of the middle tier.
#[derive(Clone, Copy, Debug)]
pub enum Station {
    /// The software core pool.
    Cpu,
    /// Compression engine `i`.
    Engine(u8),
    /// The dedicated service SoC pool.
    SvcCpu,
    /// Dedicated service engine `i`.
    SvcEngine(u8),
}

/// The functional payload of a write-path storage RPC: what to append.
#[derive(Clone, Debug)]
pub struct StorePayload {
    chunk_key: (u64, u64),
    block: u64,
    stored: StoredBlock,
}

/// A storage RPC from the middle-tier hub to one storage server: a replica
/// store (payload present) or a read fetch (payload absent). Carries the
/// hub branch token so the ack resumes the right plan branch.
#[derive(Clone, Debug)]
pub struct StoreMsg {
    server: u32,
    tok: u64,
    bytes: u32,
    /// Disk queue depth observed at arrival (reported back for tracing).
    depth: u32,
    /// How many fail-over redirects this RPC has already taken.
    redirects: u8,
    /// Traffic class of the issuing request: rack-fabric links schedule
    /// this RPC's bytes under the class's weight.
    class: u8,
    // Boxed to keep `Ev` small: every event the binary heap moves pays
    // for the largest variant, and the payload rides along on only two
    // hops of the RPC.
    payload: Option<Box<StorePayload>>,
}

impl StoreMsg {
    /// A fresh RPC to `server` for branch token `tok`: no disk depth
    /// observed yet, no redirect taken.
    fn new(server: u32, tok: u64, bytes: u32, class: u8, payload: Option<StorePayload>) -> Self {
        let payload = payload.map(Box::new);
        StoreMsg { server, tok, bytes, depth: 0, redirects: 0, class, payload }
    }
}

/// What happened to a storage RPC on the server.
#[derive(Clone, Copy, Debug)]
pub enum AckOutcome {
    /// The append landed; `compacted` reports whether it tripped the
    /// chunk's LSM compaction threshold.
    Stored {
        /// Whether this append triggered a compaction.
        compacted: bool,
    },
    /// The server was dead — the hub's fail-over service must re-replicate.
    Dead,
    /// A read fetch completed its disk I/O.
    Fetched,
}

/// A storage RPC's reply, delivered back to the middle-tier hub.
#[derive(Clone, Copy, Debug)]
pub struct AckMsg {
    server: u32,
    tok: u64,
    bytes: u32,
    outcome: AckOutcome,
    depth: u32,
    redirects: u8,
    /// Traffic class, copied from the RPC so the ack's return hops are
    /// scheduled under the same weight.
    class: u8,
}

/// The simulated cluster (a [`simkit::World`]).
#[derive(Debug)]
pub struct Cluster {
    cfg: RunConfig,
    /// Shared interconnects and memories.
    pub fabric: Fabric,
    /// Middle-tier software cores (host Xeons or BF2 Arms).
    pub cpu: CpuPool,
    /// Hardware compression engines (per port for SmartDS).
    pub engines: Vec<CompressEngine>,
    /// Storage servers holding the replicated chunks. They live in the
    /// store shards while the run executes; read them after
    /// [`run_counted_stats`] returns.
    pub servers: Vec<StorageServer>,
    /// Number of storage servers in the cluster (`servers.len()` is zero
    /// while the run executes).
    num_servers: usize,
    selector: ReplicaSelector,
    workload: Workload,
    /// Collected metrics.
    pub metrics: Metrics,
    /// Deterministic request tracer (disabled unless `cfg.trace` is set).
    pub tracer: Tracer,
    reqs: Vec<Option<InFlight>>,
    /// Per-slot generation, bumped whenever a slot is freed. Tokens and
    /// timeout events carry the generation they were minted under, so
    /// completions of a timed-out request's leftover flows (or its stale
    /// timer) can never touch the slot's next occupant.
    gens: Vec<u32>,
    free: Vec<u32>,
    quorum: QuorumTracker,
    scrubber: Scrubber,
    /// Every distinct plan the run has launched, stored once.
    plans: PlanTable,
    /// Per pool block: the plan id of each (port, op), filled on first
    /// launch (see `Cluster::plan_for`).
    plan_ids: Vec<Option<PlanId>>,
    /// Per pool block: the version its replicas append and its checksum,
    /// built on first launch.
    versions: Vec<Option<StoredVersion>>,
    next_req_id: u64,
    mlc: Option<MlcInjector>,
    /// Wakeup driver over every fabric key and rack link (see
    /// [`simkit::wake`]): at most one armed heap entry per resource, with
    /// provable schedule equivalence to the push-per-batch driver.
    wakes: WakeSet,
    pending: Vec<u64>,
    /// Reused scratch for draining fluid completions (see
    /// [`Cluster::drain_fluid`]); always empty between events.
    fluid_done: Vec<simkit::FlowEnd>,
    /// Recycled [`Ev::Retry`] boxes: a retry storm (timeout chaos) would
    /// otherwise allocate one box per backoff. Hub-local only — the
    /// ticket is both produced and consumed on the hub shard, so the
    /// recycling never crosses a thread (cross-shard payloads like
    /// `StorePayload` cannot pool this way). The boxes themselves are the
    /// pooled resource, hence `Vec<Box<_>>`.
    #[allow(clippy::vec_box)]
    retry_boxes: Vec<Box<RetryTicket>>,
    mem_gate: MemGate,
    warmup_traffic: crate::fabric::Traffic,
    stop_issuing_at: Time,
    read_fraction: f64,
    issued: u64,
    /// Snapshots taken by the maintenance service: `(when, chunk, view)`.
    pub snapshots: Vec<(Time, blockstore::ChunkKey, blockstore::Snapshot)>,
    snapshot_cursor: usize,
    /// Throughput time series: `(sample time, writes completed so far)`.
    pub samples: Vec<(Time, u64)>,
    in_flight: usize,
    /// Arrivals shed because the overload cap was reached (open loop only).
    pub dropped: u64,
    /// Rack-scale fabric links (none without `cfg.topology`).
    topo: TopoNet,
    /// Seeded open-loop tenant load generator (present iff the driver is
    /// [`Driver::Tenants`]).
    loadgen: Option<LoadGen>,
    /// SmartNIC-side admission control (present iff the tenant driver
    /// carries an admission spec).
    admission: Option<Admission>,
    /// Inline data services — dedup, encryption, hot-block cache — with
    /// their dedicated compute stations (present iff `cfg.services`).
    /// Hub-owned: every lookup and insert runs in deterministic event
    /// order on shard 0.
    services: Option<Services>,
    /// `shardsan` ownership tag: every hub structure above is shard 0
    /// state once the cluster is split (`split_for_shards`), and
    /// `Cluster::handle` checks the tag before touching any of it.
    tag: simkit::ShardTag,
    /// Test-only sabotage hook (`shardsan_inject_cross_shard_touch`):
    /// when set, the next handled event deliberately touches state tagged
    /// as owned by this shard id, so tests can assert the sanitizer
    /// catches a cross-shard mutation. `None` in every real run.
    shardsan_probe: Option<u32>,
}

impl Cluster {
    /// Builds a cluster for `cfg` (call [`run`] for the full lifecycle).
    pub fn new(cfg: RunConfig) -> Self {
        cfg.design.validate();
        let ports = cfg.design.ports();
        let fabric = Fabric::new(ports);
        let cpu = match cfg.design {
            Design::Bf2 => CpuPool::bf2_arm("bf2-arm", cfg.cores),
            _ => CpuPool::host("host-cpu", cfg.cores),
        };
        let engines: Vec<CompressEngine> = match cfg.design {
            Design::CpuOnly => Vec::new(),
            Design::Acc { .. } => vec![CompressEngine::acc("acc-engine")],
            Design::Bf2 => vec![CompressEngine::bf2("bf2-engine")],
            Design::SmartDs { ports } => (0..ports)
                .map(|_| CompressEngine::smartds("smartds-engine"))
                .collect(),
        };
        let num_servers = cfg
            .topology
            .as_ref()
            .map(Topology::num_servers)
            .unwrap_or(STORAGE_SERVERS);
        assert!(
            cfg.replication <= num_servers,
            "replication factor exceeds the server count"
        );
        let servers = (0..num_servers)
            .map(|i| StorageServer::new(ServerId(i as u32), COMPACTION_THRESHOLD))
            .collect();
        let selector =
            ReplicaSelector::new((0..num_servers as u32).map(ServerId).collect());
        let mut workload = match &cfg.corpus_profile {
            Some(profile) => Workload::with_profile(
                hwmodel::consts::BLOCK_SIZE,
                cfg.pool_blocks,
                cfg.seed,
                profile,
            ),
            None => Workload::new(hwmodel::consts::BLOCK_SIZE, cfg.pool_blocks, cfg.seed),
        };
        if let Some(theta) = cfg.zipf_theta {
            workload.set_zipf(theta);
        }
        let slots = cfg.outstanding;
        let pool_blocks = workload.pool().len();
        let tracer = match cfg.trace {
            Some(tc) => Tracer::new(cfg.seed, tc),
            None => Tracer::off(),
        };
        let (loadgen, admission) = match &cfg.driver {
            Driver::Tenants { load, admission } => (
                Some(LoadGen::new(load.as_ref().clone(), cfg.seed)),
                admission.map(Admission::new),
            ),
            Driver::Closed => (None, None),
        };
        let topo = TopoNet::new(cfg.topology.as_ref(), FluidKey::count(ports));
        Cluster {
            fabric,
            cpu,
            engines,
            servers,
            num_servers,
            selector,
            workload,
            metrics: Metrics::default(),
            tracer,
            reqs: Vec::with_capacity(slots),
            gens: Vec::with_capacity(slots),
            free: Vec::new(),
            quorum: QuorumTracker::new(),
            scrubber: Scrubber::new(),
            plans: PlanTable::default(),
            plan_ids: vec![None; pool_blocks * ports * request::PLAN_OPS],
            versions: (0..pool_blocks).map(|_| None).collect(),
            next_req_id: 0,
            mlc: cfg.mlc.map(|(cores, delay)| MlcInjector::new(cores, delay)),
            wakes: WakeSet::new(topo.wake_count()),
            pending: Vec::new(),
            fluid_done: Vec::new(),
            retry_boxes: Vec::new(),
            mem_gate: MemGate::default(),
            warmup_traffic: crate::fabric::Traffic::default(),
            stop_issuing_at: Time::MAX,
            read_fraction: 0.0,
            issued: 0,
            snapshots: Vec::new(),
            snapshot_cursor: 0,
            samples: Vec::new(),
            in_flight: 0,
            dropped: 0,
            topo,
            loadgen,
            admission,
            services: cfg.services.as_ref().map(Services::new),
            // The hub is shard 0 by construction (`split_for_shards`).
            tag: simkit::ShardTag::new(0),
            shardsan_probe: None,
            cfg,
        }
    }

    /// Test-only sabotage hook for the `shardsan` self-test: makes the
    /// hub deliberately touch state tagged as owned by `victim_shard`
    /// while handling its next event inside a parallel window, which the
    /// sanitizer must catch (debug builds panic with both shard ids, the
    /// event time, and its seq). Never set outside tests.
    #[doc(hidden)]
    // simlint: allow(test-only-pub, reason = "fault-injection hook for the shardsan suite, hidden from the docs")
    pub fn shardsan_inject_cross_shard_touch(&mut self, victim_shard: u32) {
        self.shardsan_probe = Some(victim_shard);
    }

    /// Fraction of requests issued as reads (default 0; §2.2.3 production
    /// mix is 1/6).
    pub fn set_read_fraction(&mut self, f: f64) {
        assert!((0.0..=1.0).contains(&f), "read fraction out of range");
        self.read_fraction = f;
    }

    /// Switches the workload to sequential-scan addressing over `span`
    /// block addresses (see [`Workload::set_sequential`]) — the streaming
    /// pattern that exercises the data services' sequential prefetcher.
    pub fn set_sequential_span(&mut self, span: u64) {
        self.workload.set_sequential(span);
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Cumulative data-service accounting (dedup ratio, cache hit rate,
    /// prefetch counters), when services are enabled.
    pub fn service_stats(&self) -> Option<ServiceStats> {
        self.services.as_ref().map(Services::stats)
    }

    /// The live data-service state (dedup index, cipher, cache), when
    /// services are enabled — tests unseal audited server blocks with it.
    pub fn services(&self) -> Option<&Services> {
        self.services.as_ref()
    }

    /// Per-class tail-latency and admission summary for open-loop tenant
    /// runs (empty classes report zeros).
    pub fn scale_stats(&self) -> ScaleStats {
        let backlog = self.admission.as_ref().map(|a| a.queued() as u64).unwrap_or(0);
        ScaleStats::build(&self.metrics, backlog, self.dropped)
    }
}

impl World for Cluster {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        self.tag.check("middle-tier hub state");
        if let Some(victim) = self.shardsan_probe {
            // Test-only sabotage: pretend to touch the victim shard's
            // state so the shardsan self-test can observe the panic.
            simkit::ShardTag::new(victim).check("the victim shard's chunk store (injected)");
        }
        match ev {
            Ev::Wake(i, epoch, serial) => {
                let current = wake_fluid(&self.fabric, &self.topo, i).epoch();
                if !self.wakes.deliver(sched, i, epoch, serial, current, Ev::Wake) {
                    return; // stale: a newer wakeup exists
                }
                self.drain(i, sched);
                self.pump(sched);
            }
            Ev::JobDone(station, tok) => {
                self.complete_job(station, tok, sched);
            }
            Ev::StoreAck(ack) => {
                // The return path serializes through the fabric too.
                self.topo_launch(TopoPayload::In(ack), sched);
            }
            Ev::StoreArrive(_) | Ev::StoreDiskDone(_) | Ev::GlobalScrub(_) | Ev::GlobalSnapshot => {
                // Store-side events run on the store shards; barrier
                // operations run in `ClusterShard::handle_global` at their
                // scheduled instants. Neither reaches the hub.
            }
            Ev::Delay(tok) => {
                self.pending.push(tok);
                self.pump(sched);
            }
            Ev::Issue(slot, class) => {
                self.issue(slot, class, sched);
            }
            Ev::TenantArrival(tenant, class) => {
                self.tenant_arrival(tenant, class, sched);
            }
            Ev::Fault(kind) => {
                self.apply_fault(kind, sched);
            }
            Ev::ReqTimeout(key, gen) => {
                self.request_timeout(key, gen, sched);
            }
            Ev::Retry(ticket) => {
                self.retry(ticket, sched);
            }
            Ev::SampleTick => {
                let done = self.metrics.write_latency.count();
                self.samples.push((sched.now(), done));
                if let Some(period) = self.cfg.sample_period {
                    if sched.now() < self.stop_issuing_at {
                        sched.schedule_in(period, Ev::SampleTick);
                    }
                }
            }
            Ev::WarmupEnd => {
                self.sync_all(sched);
                self.metrics.reset(sched.now());
                self.warmup_traffic = self.fabric.traffic();
            }
            Ev::RunEnd => {
                self.sync_all(sched);
                // Balance the export: requests cut off mid-flight close
                // their remaining spans at the end-of-run boundary.
                self.tracer.close_all(sched.now());
                sched.stop();
            }
        }
        self.arm_wakes(sched);
    }
}

#[cfg(test)]
mod tests {
    use super::run::build_sim;
    use super::*;
    use simkit::EngineStats;

    fn quick(design: Design) -> RunConfig {
        let mut c = RunConfig::saturating(design);
        c.warmup = Time::from_ms(2.0);
        c.measure = Time::from_ms(6.0);
        c.outstanding = 96 * design.ports();
        c.pool_blocks = 64;
        c
    }

    #[test]
    fn cpu_only_is_compression_bound_at_low_cores() {
        let r = run(&quick(Design::CpuOnly).with_cores(4).with_outstanding(64));
        // 4 cores × 2.1 Gbps ≈ 8.4 Gbps ceiling; expect to be near it.
        assert!(
            (5.0..10.0).contains(&r.throughput_gbps),
            "4-core CPU-only throughput {:.2} Gbps",
            r.throughput_gbps
        );
        assert!(r.writes_done > 1000, "writes {}", r.writes_done);
    }

    #[test]
    fn smartds_reaches_port_scale_throughput_with_two_cores() {
        let r = run(&quick(Design::SmartDs { ports: 1 }).with_cores(2));
        assert!(
            r.throughput_gbps > 40.0,
            "SmartDS-1 on 2 cores: {:.2} Gbps",
            r.throughput_gbps
        );
        // Host memory sees headers only (an order of magnitude below the
        // ~90+90 Gbps a CPU-only middle tier consumes at this rate).
        assert!(
            r.mem_read_gbps + r.mem_write_gbps < 10.0,
            "SmartDS host memory {:.2}+{:.2} Gbps",
            r.mem_read_gbps,
            r.mem_write_gbps
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = quick(Design::Bf2);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.writes_done, b.writes_done);
        assert_eq!(a.throughput_gbps, b.throughput_gbps);
        assert_eq!(a.p999_us, b.p999_us);
    }

    #[test]
    fn star_lookahead_executes_the_flat_schedule_in_fewer_rounds() {
        // The star matrix is a pure synchronization optimization: every
        // simulated outcome must be bit-identical to the flat window's;
        // only the round count may (and must) drop. That includes the
        // barrier operations: snapshots (time, chunk and content) and the
        // restart scrub's repairs.
        //
        // `RunEnd` stops the run after the window it lands in, and how far
        // the other shards got in that window depends on the window layout,
        // so event totals of a stopped run include a layout-dependent tail.
        // The comparison therefore runs drained, executing the whole
        // schedule.
        let mut fair = quick(Design::SmartDs { ports: 2 });
        fair.outstanding = 128;
        let maintained = fair
            .clone()
            .with_snapshots(Time::from_ms(1.0))
            .with_fault(Time::from_ms(2.5), 1, false)
            .with_fault(Time::from_ms(4.5), 1, true);
        for cfg in [fair, maintained] {
            let (flat_cluster, flat) = run_drained(&cfg, 2, false);
            let flat_state = drained_state(&flat_cluster);
            if cfg.snapshot_period.is_some() {
                assert!(flat_cluster.snapshots.len() >= 7);
                assert!(flat_cluster.metrics.scrub_repairs > 0);
            }
            for threads in [1usize, 4] {
                let (cluster, star) = run_drained(&cfg, threads, true);
                assert!(
                    drained_state(&cluster) == flat_state,
                    "the star changed the drained metrics or snapshots"
                );
                assert_eq!(star.events, flat.events);
                assert_eq!(star.messages, flat.messages);
                assert!(
                    star.rounds < flat.rounds,
                    "the star should cut rounds: {} vs flat {}",
                    star.rounds,
                    flat.rounds
                );
            }
        }
    }

    /// Runs `cfg` through the production setup ([`build_sim`]) with no
    /// `RunEnd` stop: issue ends at the end of the measurement window and
    /// the run goes on until every request drains. `star` selects the
    /// hub-and-spoke pair matrix over the flat window. Returns the final
    /// cluster and the engine accounting.
    fn run_drained(cfg: &RunConfig, threads: usize, star: bool) -> (Cluster, EngineStats) {
        let mut sim = build_sim(cfg, |_| {}, Some(threads), star);
        sim.run();
        let stats = sim.stats();
        (Cluster::absorb_shards(sim.into_worlds()), stats)
    }

    /// The simulated outcome of a drained run as `Debug` text: the metrics
    /// (scrub repairs included) and every snapshot.
    fn drained_state(cluster: &Cluster) -> String {
        format!("{:?}\n{:?}", cluster.metrics, cluster.snapshots)
    }

    #[test]
    fn memoized_checksum_is_the_crc_of_what_replicas_append() {
        // Both stored forms: the plain LZ4 block and, with data services
        // on, the sealed container.
        let plain = quick(Design::SmartDs { ports: 1 });
        let sealed = plain.clone().with_services(crate::ServicesConfig::paper());
        for cfg in [plain, sealed] {
            let lz4 = cfg.services.is_none();
            let (_, cluster, _) = run_counted_stats(&cfg, |_| {}, None);
            let mut memo = std::collections::BTreeMap::new();
            for v in cluster.versions.iter().flatten() {
                assert_eq!(v.crc, blockstore::crc32(&v.stored.data));
                assert_eq!(v.stored.compressed, lz4, "stored form");
                memo.insert(&v.stored.data[..], v.crc);
            }
            let mut appended = 0usize;
            for srv in &cluster.servers {
                for (_, chunk) in srv.chunks() {
                    for (_, sb) in chunk.snapshot().iter() {
                        let crc = blockstore::crc32(&sb.data);
                        assert_eq!(memo.get(&sb.data[..]), Some(&crc), "appended bytes not memoized");
                        appended += 1;
                    }
                }
            }
            assert!(appended >= 100, "only {appended} stored blocks");
        }
    }

    #[test]
    fn stored_blocks_decompress_to_original_payloads() {
        let (_, cluster, _) = run_counted_stats(&quick(Design::SmartDs { ports: 1 }), |_| {}, None);
        let mut verified = 0usize;
        for srv in &cluster.servers {
            assert!(srv.appends() > 0, "every server should receive appends");
            for (_, chunk) in srv.chunks() {
                for (_, sb) in chunk.snapshot().iter().take(4) {
                    let expanded = sb.expand().expect("stored block decodes");
                    assert_eq!(expanded.len(), hwmodel::consts::BLOCK_SIZE);
                    verified += 1;
                }
            }
        }
        assert!(verified >= 10, "verified {verified} stored blocks");
    }
}
