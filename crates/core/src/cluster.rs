//! The end-to-end cluster simulation: compute clients, one middle-tier
//! server (any [`Design`]), and replicated storage servers.
//!
//! The cluster is a [`simkit::World`]. Write requests are issued closed-loop
//! from `outstanding` client slots; each request executes its design's
//! [`Plan`] phase by phase across the shared [`Fabric`], CPU pool, engines,
//! and storage-server disks, while the functional layer really compresses
//! payload bytes and really appends them to [`StorageServer`] chunk stores
//! (complete with LSM compaction when thresholds fire). Throughput, latency
//! histograms, and per-resource bandwidths are collected over a
//! post-warm-up measurement window.

use crate::admission::{Admission, Verdict};
use crate::design::{Design, Driver, RunConfig};
use crate::fabric::{res_route, Fabric, FluidKey};
use crate::loadgen::LoadGen;
use crate::metrics::{Metrics, RunReport, ScaleStats};
use crate::plan::{
    inject_read_services, inject_write_services, read_hit_plan, read_plan,
    write_plan_replicated, Plan, Res, Step, SVC_ENG_DEDUP,
};
use crate::qos::TokenBucket;
use crate::services::{ServiceStats, Services};
use crate::topology::{class_weight, TopoLink, Topology};
use crate::workload::Workload;
use blockstore::{QuorumTracker, ReplicaSelector, Scrubber, ServerId, StorageServer, StoredBlock};
use faultkit::{FaultKind, LinkTarget};
use hwmodel::consts::{HEADER_SIZE, NET_PROPAGATION, PCIE_PROPAGATION};
use blockstore::DiskModel;
use hwmodel::{CompressEngine, CpuPool, CpuWork, MlcInjector};
use simkit::{
    EngineStats, FlowSpec, FluidResource, Scheduler, ShardWorld, ShardedSim, Time,
    WakeCoalescer, World,
};
use std::collections::BTreeMap;
use tracekit::{SegmentAccum, SpanId, StageKind, TraceId, Tracer};

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

const BRANCH_BITS: u32 = 3;
const MAX_BRANCHES: usize = 1 << BRANCH_BITS;
/// Request-slot bits in a token (above the branch bits, below the
/// generation bits).
const KEY_BITS: u32 = 29;
/// Phantom placements charged to a replica that failed to ack before the
/// request timeout — enough to steer the next few placements elsewhere
/// without permanently blacklisting a server that merely hiccuped.
const TIMEOUT_PENALTY: u64 = 8;
/// High bit of a storage-RPC token marking a cache-prefetch fetch: those
/// RPCs belong to the prefetcher, not to any request slot, so their acks
/// are intercepted before the slot/generation decode.
const PREFETCH_BIT: u64 = 1 << 63;

/// Events circulating in the cluster world.
#[derive(Debug)]
pub enum Ev {
    /// Fluid-resource wakeup (key, epoch at arming time, coalescer
    /// serial identifying the armed sentinel).
    Wake(FluidKey, u64, u64),
    /// A CPU-pool job finished (token).
    CpuDone(u64),
    /// Engine `i` finished a block (token).
    EngDone(u8, u64),
    /// The dedicated service SoC pool finished a job (token).
    SvcCpuDone(u64),
    /// Dedicated service engine `i` finished a block (token).
    SvcEngDone(u8, u64),
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
    /// Client slot issues its next request.
    Issue(u32),
    /// Open-loop Poisson arrival.
    Arrival,
    /// A scheduled `faultkit` fault fires (crash, stall, link degrade…).
    Fault(FaultKind),
    /// Per-request timer expired for request slot `key` at generation
    /// `gen` (stale once the slot was freed or reused).
    ReqTimeout(u32, u32),
    /// Backoff elapsed: re-issue a timed-out request.
    Retry(Box<RetryTicket>),
    /// Rack-fabric fluid wakeup (link slab index, epoch at arming time,
    /// coalescer serial identifying the armed sentinel).
    TopoWake(u16, u64, u64),
    /// Open-loop tenant arrival from the seeded load generator
    /// `(tenant rank, traffic class)`.
    TenantArrival(u64, u8),
    /// Deferred issue of a classed request (tenant-bucket pacing or a
    /// fail-over stall) for client slot `slot` at traffic class `class`.
    IssueClass(u32, u8),
    /// Periodic snapshot maintenance tick.
    SnapshotTick,
    /// Periodic throughput sample (transient visualisation).
    SampleTick,
    /// Warm-up boundary: reset collectors.
    WarmupEnd,
    /// End of the measurement window.
    RunEnd,
}

#[derive(Debug)]
struct InFlight {
    plan: Plan,
    phase: usize,
    cursor: [u16; MAX_BRANCHES],
    live: u8,
    pool_idx: usize,
    b: u32,
    chunk_key: (u64, u64),
    block: u64,
    replicas: [u32; 6],
    issued_at: Time,
    slot: u32,
    is_read: bool,
    /// Traffic class (0 = most latency-sensitive … 7 = bulk). Closed-loop
    /// and Poisson drivers issue everything at class 0; the tenant load
    /// generator maps tenants onto all 8.
    class: u8,
    /// Quorum-tracker id of this attempt (fresh per retry).
    request_id: u64,
    /// How many timeouts this logical request has already eaten.
    attempt: u32,
    /// Trace id (null when the request was not sampled).
    trace: TraceId,
    /// Root request span, closed on completion or final failure.
    root: SpanId,
    /// The span covering the step each branch is currently blocked on.
    step_span: [SpanId; MAX_BRANCHES],
    /// Latency-segment accumulator; milestones charge it via `Step::Mark`.
    seg: SegmentAccum,
    /// Sealed container length of this block when data services are on
    /// (0 otherwise); what replication ships and the stored meter counts.
    sealed_len: u32,
    /// Read served from the middle-tier hot-block cache (services only).
    cache_hit: bool,
}

/// Everything needed to re-issue a timed-out request after its backoff:
/// the *same* payload block, chunk address, and client slot — a retry
/// must not redraw the workload stream, or replays would diverge.
#[derive(Clone, Debug)]
pub struct RetryTicket {
    slot: u32,
    pool_idx: usize,
    b: u32,
    chunk_key: (u64, u64),
    block: u64,
    attempt: u32,
    first_issued_at: Time,
    is_read: bool,
    /// Traffic class; retries keep the class they were admitted under.
    class: u8,
    /// Trace identity survives retries: every attempt of a logical request
    /// lands under the same root span, so a trace shows the whole story.
    trace: TraceId,
    root: SpanId,
    seg: SegmentAccum,
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

/// Admission window in front of host memory: the I/O path acts as one
/// memory agent with [`IO_MEM_WINDOW`] concurrent bursts, which is what
/// allows background pressure to squeeze it (see `hwmodel::consts`).
#[derive(Debug, Default)]
struct MemGate {
    active: usize,
    queue: std::collections::VecDeque<(f64, u8, u64)>,
}

/// A storage RPC (or its ack) in transit across the rack fabric.
#[derive(Debug)]
enum TopoPayload {
    /// Hub → server: a store or fetch RPC.
    Out(StoreMsg),
    /// Server → hub: the RPC's ack.
    In(AckMsg),
}

/// One message working its way through its hop sequence of fabric links.
#[derive(Debug)]
struct TopoTransfer {
    payload: TopoPayload,
    /// Link slab indices of the remaining path ([`TopoLink::index`]).
    hops: [u16; 3],
    nhops: u8,
    /// Next entry of `hops` to traverse (the flow currently in the air is
    /// `hops[hop]`).
    hop: u8,
    /// Wire bytes (payload for stores/fetched data, header otherwise).
    bytes: u32,
    class: u8,
}

/// The rack-scale fabric: ToR and spine fluid links (hub-owned — storage
/// RPCs serialize through them before the cross-shard hand-off, so the
/// shard engine's lookahead still covers the residual propagation).
#[derive(Debug)]
struct TopoNet {
    /// Fluid links indexed by [`TopoLink::index`].
    links: Vec<FluidResource>,
    /// Per-link wakeup coalescers, mirroring the fabric's.
    coal: Vec<WakeCoalescer>,
    /// Bitmask of links touched since the last arming pass.
    touched: u64,
    /// In-transit messages keyed by transfer token.
    transfers: BTreeMap<u64, TopoTransfer>,
    next_tok: u64,
    /// Reused scratch for [`Cluster::topo_drain`]: link completions and
    /// the messages that cleared their last hop. Empty between events.
    done: Vec<simkit::FlowEnd>,
    deliveries: Vec<TopoPayload>,
}

impl TopoNet {
    fn new(t: &Topology) -> TopoNet {
        let n = TopoLink::count(t.racks);
        assert!(n <= 64, "topo touched bitmask holds at most 64 links");
        TopoNet {
            links: (0..n)
                .map(|i| {
                    let l = TopoLink::from_index(i);
                    FluidResource::new(l.name(), t.capacity(l))
                })
                .collect(),
            coal: (0..n).map(|_| WakeCoalescer::new()).collect(),
            touched: 0,
            transfers: BTreeMap::new(),
            next_tok: 0,
            done: Vec::new(),
            deliveries: Vec::new(),
        }
    }
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
    next_req_id: u64,
    mlc: Option<MlcInjector>,
    touched: u32,
    /// Per-fluid wakeup coalescers (indexed by [`FluidKey::index`]): at
    /// most one armed heap entry per resource, with provable schedule
    /// equivalence to the push-per-batch driver (see [`simkit::wake`]).
    wake_coal: Vec<WakeCoalescer>,
    pending: Vec<u64>,
    /// Reused scratch for draining fluid completions (see
    /// [`Cluster::drain_fluid`]); always empty between events.
    fluid_done: Vec<simkit::FlowEnd>,
    /// Recycled [`Ev::Retry`] boxes: a retry storm (timeout chaos) would
    /// otherwise allocate one box per backoff. Hub-local only — the
    /// ticket is both produced and consumed on the hub shard, so the
    /// recycling never crosses a thread (cross-shard payloads like
    /// `StorePayload` cannot pool this way).
    retry_boxes: Vec<Box<RetryTicket>>,
    mem_gate: MemGate,
    warmup_traffic: crate::fabric::Traffic,
    stop_issuing_at: Time,
    read_fraction: f64,
    issued: u64,
    /// Snapshots taken by the maintenance service: `(when, chunk, view)`.
    pub snapshots: Vec<(Time, blockstore::ChunkKey, blockstore::Snapshot)>,
    snapshot_cursor: usize,
    /// Per-tenant admission buckets (slot `s` belongs to tenant
    /// `s % buckets.len()`); empty = no rate limiting.
    tenant_buckets: Vec<TokenBucket>,
    /// Per-tenant completed writes since warm-up.
    pub tenant_done: Vec<u64>,
    /// Throughput time series: `(sample time, writes completed so far)`.
    pub samples: Vec<(Time, u64)>,
    in_flight: usize,
    /// Arrivals shed because the overload cap was reached (open loop only).
    pub dropped: u64,
    /// Rack-scale fabric links (present iff `cfg.topology` is set).
    topo: Option<TopoNet>,
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

fn token(key: u32, branch: u8, gen: u32) -> u64 {
    debug_assert!(key < 1 << KEY_BITS, "request slot overflows token");
    ((gen as u64) << (KEY_BITS + BRANCH_BITS))
        | ((key as u64) << BRANCH_BITS)
        | branch as u64
}

fn untoken(t: u64) -> (u32, u8, u32) {
    (
        ((t >> BRANCH_BITS) & ((1 << KEY_BITS) - 1)) as u32,
        (t & (MAX_BRANCHES as u64 - 1)) as u8,
        (t >> (KEY_BITS + BRANCH_BITS)) as u32,
    )
}

/// Trace stage and label for a fluid transfer step.
fn res_span(res: Res) -> (StageKind, &'static str) {
    match res {
        Res::MemRead => (StageKind::HostMem, "mem-read"),
        Res::MemWrite => (StageKind::HostMem, "mem-write"),
        Res::NicH2D => (StageKind::NicDma, "nic-dma-h2d"),
        Res::NicD2H => (StageKind::NicDma, "nic-dma-d2h"),
        Res::DevH2D => (StageKind::DevDma, "dev-dma-h2d"),
        Res::DevD2H => (StageKind::DevDma, "dev-dma-d2h"),
        Res::PortTx(_) => (StageKind::Wire, "port-tx"),
        Res::PortRx(_) => (StageKind::Wire, "port-rx"),
        Res::Hbm => (StageKind::Hbm, "hbm"),
        Res::DevMem => (StageKind::DevMem, "dev-mem"),
    }
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
        let tracer = match cfg.trace {
            Some(tc) => Tracer::new(cfg.seed, tc),
            None => Tracer::off(),
        };
        let (loadgen, admission) = match &cfg.driver {
            Driver::Tenants { load, admission } => (
                Some(LoadGen::new(load.clone(), cfg.seed)),
                admission.map(Admission::new),
            ),
            Driver::Closed | Driver::Poisson { .. } => (None, None),
        };
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
            next_req_id: 0,
            mlc: cfg.mlc.map(|(cores, delay)| MlcInjector::new(cores, delay)),
            touched: 0,
            wake_coal: (0..FluidKey::count(cfg.design.ports()))
                .map(|_| WakeCoalescer::new())
                .collect(),
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
            tenant_buckets: Vec::new(),
            tenant_done: Vec::new(),
            samples: Vec::new(),
            in_flight: 0,
            dropped: 0,
            topo: cfg.topology.as_ref().map(TopoNet::new),
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
    pub fn shardsan_inject_cross_shard_touch(&mut self, victim_shard: u32) {
        self.shardsan_probe = Some(victim_shard);
    }

    /// Installs per-tenant rate limits (bytes/s of write payload). Client
    /// slot `s` issues as tenant `s % rates.len()`; each tenant gets a
    /// token bucket with an 8-block burst — the QoS policy a flexible
    /// middle tier can apply because admission stays in host software.
    pub fn set_tenant_limits(&mut self, rates: Vec<f64>) {
        let burst = 8.0 * hwmodel::consts::BLOCK_SIZE as f64;
        self.tenant_buckets = rates
            .into_iter()
            .map(|r| TokenBucket::new(r, burst))
            .collect();
        self.tenant_done = vec![0; self.tenant_buckets.len()];
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

    fn touch(&mut self, key: FluidKey) {
        self.touched |= 1 << key.index();
    }

    fn arm_touched(&mut self, sched: &mut Scheduler<Ev>) {
        let mask = std::mem::take(&mut self.touched);
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let key = FluidKey::from_index(i);
            let fluid = self.fabric.fluid(key);
            let want = fluid.next_wake().map(|at| at.max(sched.now()));
            let epoch = fluid.epoch();
            let (a, b) = self.wake_coal[i].arm(want, epoch, || sched.reserve_seq());
            for e in [a, b].into_iter().flatten() {
                match e.seq {
                    Some(seq) => {
                        sched.schedule_at_seq(e.at, seq, Ev::Wake(key, e.epoch, e.serial))
                    }
                    None => sched.schedule_at(e.at, Ev::Wake(key, e.epoch, e.serial)),
                }
            }
        }
    }

    /// Mirrors [`arm_touched`](Self::arm_touched) for the rack-fabric
    /// links: one coalesced wakeup per touched link.
    fn arm_topo(&mut self, sched: &mut Scheduler<Ev>) {
        let Some(tn) = self.topo.as_mut() else {
            return;
        };
        let mut bits = std::mem::take(&mut tn.touched);
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let want = tn.links[i].next_wake().map(|at| at.max(sched.now()));
            let epoch = tn.links[i].epoch();
            let (a, b) = tn.coal[i].arm(want, epoch, || sched.reserve_seq());
            for e in [a, b].into_iter().flatten() {
                match e.seq {
                    Some(seq) => {
                        sched.schedule_at_seq(e.at, seq, Ev::TopoWake(i as u16, e.epoch, e.serial))
                    }
                    None => sched.schedule_at(e.at, Ev::TopoWake(i as u16, e.epoch, e.serial)),
                }
            }
        }
    }

    /// Hub ↔ `server` propagation delay: the topology's path latency when a
    /// fabric is configured, the flat wire constant otherwise. Never below
    /// the engine lookahead ([`RunConfig::lookahead`] is the minimum over
    /// all servers), so cross-shard sends at this delay are always legal.
    fn rpc_latency(&self, server: u32) -> Time {
        match &self.cfg.topology {
            Some(t) => t.rpc_latency(server as usize),
            None => STORAGE_LOOKAHEAD,
        }
    }

    /// The link hop sequence a message to/from `server` serializes through
    /// (empty for in-rack traffic, which only pays propagation).
    fn topo_hops(&self, server: u32, inbound: bool) -> ([u16; 3], u8) {
        let Some(t) = &self.cfg.topology else {
            return ([0; 3], 0);
        };
        if !t.cross_rack(server as usize) {
            return ([0; 3], 0);
        }
        let r = t.rack_of(server as usize) as u16;
        let mut hops = [0u16; 3];
        let mut n = 0u8;
        let path: [Option<TopoLink>; 3] = if inbound {
            [
                Some(TopoLink::RackUp(r)),
                Some(TopoLink::SpineDown),
                t.hub_rack.map(|_| TopoLink::HubDown),
            ]
        } else {
            [
                t.hub_rack.map(|_| TopoLink::HubUp),
                Some(TopoLink::SpineUp),
                Some(TopoLink::RackDown(r)),
            ]
        };
        for l in path.into_iter().flatten() {
            hops[n as usize] = l.index() as u16;
            n += 1;
        }
        (hops, n)
    }

    /// Puts a storage RPC (or its ack) onto the rack fabric: in-rack
    /// traffic delivers directly, cross-rack traffic serializes through
    /// its hop sequence under the class's weight.
    fn topo_launch(&mut self, payload: TopoPayload, sched: &mut Scheduler<Ev>) {
        let (server, bytes, class) = match &payload {
            TopoPayload::Out(m) => (
                m.server,
                if m.payload.is_some() { m.bytes } else { HEADER_SIZE as u32 },
                m.class,
            ),
            TopoPayload::In(a) => (
                a.server,
                if matches!(a.outcome, AckOutcome::Fetched) {
                    a.bytes
                } else {
                    HEADER_SIZE as u32
                },
                a.class,
            ),
        };
        let inbound = matches!(payload, TopoPayload::In(_));
        let (hops, nhops) = self.topo_hops(server, inbound);
        if nhops == 0 {
            self.topo_deliver(payload, sched);
            return;
        }
        let now = sched.now();
        let Some(tn) = self.topo.as_mut() else {
            // No fabric (flat cluster): nothing serializes.
            return self.topo_deliver(payload, sched);
        };
        let tok = tn.next_tok;
        tn.next_tok += 1;
        let first = hops[0] as usize;
        tn.links[first].start_flow(
            now,
            bytes.max(1) as f64,
            FlowSpec::new().class(class & 7).weight(class_weight(class)),
            tok,
        );
        tn.touched |= 1u64 << first;
        tn.transfers.insert(
            tok,
            TopoTransfer { payload, hops, nhops, hop: 0, bytes, class },
        );
    }

    /// A message cleared its last fabric hop: hand it to its destination
    /// after the path's propagation delay (RPCs) or account it (acks).
    fn topo_deliver(&mut self, payload: TopoPayload, sched: &mut Scheduler<Ev>) {
        match payload {
            TopoPayload::Out(msg) => {
                let d = self.rpc_latency(msg.server);
                sched.send(1 + msg.server, d, Ev::StoreArrive(msg));
            }
            TopoPayload::In(ack) => self.store_ack(ack, sched),
        }
    }

    /// Processes completions on fabric link `link`: advance each finished
    /// transfer to its next hop, or deliver it.
    fn topo_drain(&mut self, link: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let Some(tn) = self.topo.as_mut() else {
            return;
        };
        // Completions and deliveries drain through reused scratch buffers,
        // as in `drain_fluid`: steady-state this path allocates no Vec.
        let mut done = std::mem::take(&mut tn.done);
        let mut deliveries = std::mem::take(&mut tn.deliveries);
        tn.links[link].sync(now);
        tn.links[link].take_completed_into(&mut done);
        tn.touched |= 1u64 << link;
        for end in done.drain(..) {
            let Some(mut tr) = tn.transfers.remove(&end.token) else {
                continue;
            };
            tr.hop += 1;
            if tr.hop < tr.nhops {
                let nxt = tr.hops[tr.hop as usize] as usize;
                tn.links[nxt].start_flow(
                    now,
                    tr.bytes.max(1) as f64,
                    FlowSpec::new().class(tr.class & 7).weight(class_weight(tr.class)),
                    end.token,
                );
                tn.touched |= 1u64 << nxt;
                tn.transfers.insert(end.token, tr);
            } else {
                deliveries.push(tr.payload);
            }
        }
        tn.done = done;
        for p in deliveries.drain(..) {
            self.topo_deliver(p, sched);
        }
        if let Some(tn) = self.topo.as_mut() {
            tn.deliveries = deliveries;
        }
    }

    /// Admits a host-memory burst through the bounded I/O memory agent.
    fn mem_admit(&mut self, now: Time, bytes: f64, class: u8, tok: u64) {
        if self.mem_gate.active < self.cfg.io_mem_window {
            self.mem_gate.active += 1;
            self.fabric.fluid_mut(FluidKey::Mem).start_flow(
                now,
                bytes,
                FlowSpec::new().class(class),
                tok,
            );
        } else {
            self.mem_gate.queue.push_back((bytes, class, tok));
        }
    }

    /// Releases one gate slot after a memory burst completes, admitting the
    /// next queued burst if any.
    fn mem_release(&mut self, now: Time) {
        self.mem_gate.active -= 1;
        if let Some((bytes, class, tok)) = self.mem_gate.queue.pop_front() {
            self.mem_gate.active += 1;
            self.fabric.fluid_mut(FluidKey::Mem).start_flow(
                now,
                bytes,
                FlowSpec::new().class(class),
                tok,
            );
        }
    }

    /// Processes fluid completions for `key`, routing PCIe completions
    /// through the link's propagation delay.
    fn drain_fluid(&mut self, key: FluidKey, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        // Completions drain through a reused scratch buffer: steady-state
        // this path allocates nothing.
        let mut done = std::mem::take(&mut self.fluid_done);
        let fluid = self.fabric.fluid_mut(key);
        fluid.sync(now);
        fluid.take_completed_into(&mut done);
        self.touch(key);
        let is_pcie = matches!(
            key,
            FluidKey::NicH2D | FluidKey::NicD2H | FluidKey::DevH2D | FluidKey::DevD2H
        );
        for end in &done {
            if end.token == u64::MAX {
                continue; // background injector
            }
            if key == FluidKey::Mem {
                self.mem_release(now);
            }
            if is_pcie {
                sched.schedule_in(PCIE_PROPAGATION, Ev::Delay(end.token));
            } else {
                self.pending.push(end.token);
            }
        }
        done.clear();
        self.fluid_done = done;
    }

    /// Runs queued branch tokens until everything is blocked again.
    fn pump(&mut self, sched: &mut Scheduler<Ev>) {
        while let Some(tok) = self.pending.pop() {
            self.step_branch(tok, sched);
        }
    }

    /// Opens the span covering the blocking step `branch` just submitted,
    /// parked in the request so [`step_branch`](Self::step_branch) closes it
    /// when the branch resumes. No-op handle when the request is unsampled.
    fn open_step_span(
        &mut self,
        key: u32,
        branch: u8,
        kind: StageKind,
        label: &'static str,
        bytes: u64,
        now: Time,
    ) -> SpanId {
        let (trace, root) = match self.reqs[key as usize].as_ref() {
            Some(req) => (req.trace, req.root),
            None => return SpanId::NULL,
        };
        let sid = self.tracer.span_open(trace, root, kind, label, bytes, now);
        if let Some(req) = self.reqs[key as usize].as_mut() {
            req.step_span[branch as usize] = sid;
        }
        sid
    }

    /// Emits a zero-duration span on the request's trace under its root.
    fn req_instant(&mut self, key: u32, kind: StageKind, label: &'static str, now: Time) {
        let (trace, root) = match self.reqs[key as usize].as_ref() {
            Some(req) => (req.trace, req.root),
            None => return,
        };
        self.tracer.instant(trace, root, kind, label, 0, now);
    }

    /// Advances one branch of one request as far as it can go.
    fn step_branch(&mut self, tok: u64, sched: &mut Scheduler<Ev>) {
        let (key, branch, gen) = untoken(tok);
        if self.gens.get(key as usize).copied() != Some(gen) {
            return; // token minted for a previous occupant of this slot
        }
        let now = sched.now();
        // The branch resumed: close the span covering the step it was
        // blocked on (null for the very first step of a phase).
        let finished = match self.reqs[key as usize].as_mut() {
            Some(req) => std::mem::replace(&mut req.step_span[branch as usize], SpanId::NULL),
            None => SpanId::NULL,
        };
        self.tracer.span_close(finished, now);
        loop {
            // Fetch the next step (or detect branch/phase completion).
            let step = {
                let Some(req) = self.reqs[key as usize].as_mut() else {
                    return; // request already completed (stale token)
                };
                let steps = &req.plan.phases[req.phase].branches[branch as usize];
                let idx = req.cursor[branch as usize] as usize;
                if idx >= steps.len() {
                    // Branch done.
                    req.live -= 1;
                    if req.live > 0 {
                        return;
                    }
                    // Phase done → next phase or request completion.
                    req.phase += 1;
                    if req.phase >= req.plan.phases.len() {
                        self.complete_request(key, sched);
                        return;
                    }
                    req.cursor = [0; MAX_BRANCHES];
                    let n = req.plan.phases[req.phase].branches.len();
                    assert!(n <= MAX_BRANCHES, "too many parallel branches");
                    req.live = n as u8;
                    for b in 0..n as u8 {
                        self.pending.push(token(key, b, gen));
                    }
                    return;
                }
                req.cursor[branch as usize] += 1;
                steps[idx]
            };
            match step {
                Step::Xfer(_, 0) => continue,
                Step::Xfer(res, bytes) => {
                    let (kind, label) = res_span(res);
                    self.open_step_span(key, branch, kind, label, bytes as u64, now);
                    let (fkey, class) = res_route(res);
                    self.touch(fkey);
                    if fkey == FluidKey::Mem {
                        self.mem_admit(now, bytes as f64, class, tok);
                    } else {
                        self.fabric.fluid_mut(fkey).start_flow(
                            now,
                            bytes as f64,
                            FlowSpec::new().class(class),
                            tok,
                        );
                    }
                    return;
                }
                Step::Cpu(work) => {
                    let (kind, label, wbytes) = match work {
                        CpuWork::ParseHeader => (StageKind::CpuJob, "parse-header", 0u64),
                        CpuWork::PostVerb => (StageKind::CpuJob, "post-verb", 0u64),
                        CpuWork::Compress(n) => (StageKind::CpuJob, "lz4-software", n as u64),
                        CpuWork::Decompress(n) => {
                            (StageKind::CpuJob, "lz4-sw-decompress", n as u64)
                        }
                        CpuWork::DedupScan(n) => (StageKind::Dedup, "dedup-scan", n as u64),
                        CpuWork::Crypt(n) => (StageKind::Encrypt, "xts-crypt", n as u64),
                        CpuWork::CacheLookup => (StageKind::Cache, "cache-lookup", 0u64),
                    };
                    let sid = self.open_step_span(key, branch, kind, label, wbytes, now);
                    self.tracer.span_set_queue(sid, self.cpu.queued() as u32);
                    if let Some(js) = self.cpu.submit(now, work, tok) {
                        sched.schedule_at(js.finish_at, Ev::CpuDone(js.token));
                    }
                    return;
                }
                Step::Engine(i, bytes) => {
                    let sid = self.open_step_span(
                        key,
                        branch,
                        StageKind::EngineJob,
                        "lz4-engine",
                        bytes as u64,
                        now,
                    );
                    let depth = self.engines[i as usize].queued() as u32;
                    self.tracer.span_set_queue(sid, depth);
                    let eng = &mut self.engines[i as usize];
                    if let Some(js) = eng.submit(now, bytes as usize, tok) {
                        sched.schedule_at(js.finish_at, Ev::EngDone(i, js.token));
                    }
                    return;
                }
                Step::SvcCpu(work) => {
                    let (kind, label, wbytes) = match work {
                        CpuWork::DedupScan(n) => (StageKind::Dedup, "soc-dedup-scan", n as u64),
                        CpuWork::Crypt(n) => (StageKind::Encrypt, "soc-xts-crypt", n as u64),
                        _ => (StageKind::CpuJob, "soc-job", 0u64),
                    };
                    let sid = self.open_step_span(key, branch, kind, label, wbytes, now);
                    let (js, depth) = {
                        let Some(soc) =
                            self.services.as_mut().and_then(|s| s.soc.as_mut())
                        else {
                            unreachable!("SvcCpu steps are only planned with a SoC placement");
                        };
                        let depth = soc.queued() as u32;
                        (soc.submit(now, work, tok), depth)
                    };
                    self.tracer.span_set_queue(sid, depth);
                    if let Some(js) = js {
                        sched.schedule_at(js.finish_at, Ev::SvcCpuDone(js.token));
                    }
                    return;
                }
                Step::SvcEngine(i, bytes) => {
                    let (kind, label) = if i == SVC_ENG_DEDUP {
                        (StageKind::Dedup, "svc-engine-dedup")
                    } else {
                        (StageKind::Encrypt, "svc-engine-crypt")
                    };
                    let sid = self.open_step_span(key, branch, kind, label, bytes as u64, now);
                    let (js, depth) = {
                        let Some(svc) = self.services.as_mut() else {
                            unreachable!("SvcEngine steps are only planned with services on");
                        };
                        let eng = &mut svc.engines[i as usize];
                        let depth = eng.queued() as u32;
                        (eng.submit(now, bytes as usize, tok), depth)
                    };
                    self.tracer.span_set_queue(sid, depth);
                    if let Some(js) = js {
                        sched.schedule_at(js.finish_at, Ev::SvcEngDone(i, js.token));
                    }
                    return;
                }
                Step::Store(r, bytes) => {
                    let (pool_idx, b, chunk_key, block, server, class) = {
                        let Some(req) = self.reqs[key as usize].as_ref() else {
                            return;
                        };
                        (
                            req.pool_idx,
                            req.b,
                            req.chunk_key,
                            req.block,
                            req.replicas[r as usize],
                            req.class,
                        )
                    };
                    self.open_step_span(
                        key,
                        branch,
                        StageKind::DiskIo,
                        "storage-rpc",
                        bytes as u64,
                        now,
                    );
                    let stored = self.stored_block(pool_idx, b);
                    // Record the placement *intent*, not just the landed
                    // append: if the server is down right now, it stays on
                    // the holder list, and the post-restart scrub
                    // re-replicates the version it missed.
                    self.scrubber
                        .record_on(chunk_key, block, ServerId(server), &stored);
                    let msg = StoreMsg {
                        server,
                        tok,
                        bytes,
                        depth: 0,
                        redirects: 0,
                        class,
                        payload: Some(Box::new(StorePayload {
                            chunk_key,
                            block,
                            stored,
                        })),
                    };
                    self.send_store(msg, sched);
                    return;
                }
                Step::Fetch(bytes) => {
                    let (server, class) = {
                        let Some(req) = self.reqs[key as usize].as_ref() else {
                            return;
                        };
                        (req.replicas[0], req.class)
                    };
                    self.open_step_span(
                        key,
                        branch,
                        StageKind::DiskIo,
                        "storage-rpc",
                        bytes as u64,
                        now,
                    );
                    let msg = StoreMsg {
                        server,
                        tok,
                        bytes,
                        depth: 0,
                        redirects: 0,
                        class,
                        payload: None,
                    };
                    self.send_store(msg, sched);
                    return;
                }
                Step::Wait(d) => {
                    self.open_step_span(key, branch, StageKind::Propagation, "propagation", 0, now);
                    sched.schedule_in(d, Ev::Delay(tok));
                    return;
                }
                Step::CompressPayload => {
                    // Functional compression is memoized per pool block; the
                    // time was charged by the Cpu/Engine step.
                    let idx = match self.reqs[key as usize].as_ref() {
                        Some(req) => req.pool_idx,
                        None => return,
                    };
                    let _ = self.workload.compressed(idx);
                    continue;
                }
                Step::Mark(kind) => {
                    if let Some(req) = self.reqs[key as usize].as_mut() {
                        req.seg.mark(kind, now);
                    }
                    self.req_instant(key, kind, kind.name(), now);
                    continue;
                }
                Step::Note(kind, label) => {
                    self.req_instant(key, kind, label, now);
                    continue;
                }
            }
        }
    }

    /// The functional bytes a replica appends for pool block `pool_idx`:
    /// the sealed service container (dedup + LZ4 + XTS) when data services
    /// are on, the plain LZ4-compressed block otherwise. Both forms are
    /// memoized per pool block, so retries and fail-over redirects ship
    /// byte-identical data.
    fn stored_block(&mut self, pool_idx: usize, b: u32) -> StoredBlock {
        match self.services.as_mut() {
            Some(svc) => {
                let (container, _) =
                    svc.sealed_block(pool_idx, self.workload.payload(pool_idx));
                StoredBlock::raw(container)
            }
            None => StoredBlock::lz4(self.workload.compressed(pool_idx), b),
        }
    }

    /// Dispatches a storage RPC to its server's shard through the
    /// cross-shard mailbox. The flat-wire delay equals the engine's
    /// conservative lookahead, so the send is always legal.
    fn send_store(&mut self, msg: StoreMsg, sched: &mut Scheduler<Ev>) {
        if self.topo.is_some() {
            // Rack fabric: serialize through the ToR/spine hop sequence
            // first; propagation is charged at delivery.
            self.topo_launch(TopoPayload::Out(msg), sched);
        } else {
            sched.send(1 + msg.server, STORAGE_LOOKAHEAD, Ev::StoreArrive(msg));
        }
    }

    /// A storage RPC's ack landed back at the hub: account the outcome
    /// (quorum ack, compaction, fail-over redirect) and resume the plan
    /// branch that was blocked on the RPC.
    fn store_ack(&mut self, ack: AckMsg, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if ack.tok & PREFETCH_BIT != 0 {
            // A speculative cache-prefetch fetch came back: it belongs to
            // the prefetcher, not to any request slot — land it in the
            // hot-block cache and stop before the slot/generation decode.
            if let Some(svc) = self.services.as_mut() {
                let fetched = matches!(ack.outcome, AckOutcome::Fetched);
                svc.prefetch_ack(ack.tok & !PREFETCH_BIT, fetched);
            }
            return;
        }
        // Physical effects on the server count whether or not the issuing
        // attempt is still live — the append really happened.
        if let AckOutcome::Stored { compacted: true } = ack.outcome {
            self.metrics.compactions += 1;
        }
        let (key, branch, gen) = untoken(ack.tok);
        if self.gens.get(key as usize).copied() != Some(gen) {
            return; // the attempt timed out or completed; drop the late ack
        }
        let (request_id, trace, root, pool_idx, b, chunk_key, block) = {
            let Some(req) = self.reqs[key as usize].as_ref() else {
                return;
            };
            (
                req.request_id,
                req.trace,
                req.root,
                req.pool_idx,
                req.b,
                req.chunk_key,
                req.block,
            )
        };
        if let Some(req) = self.reqs[key as usize].as_ref() {
            self.tracer
                .span_set_queue(req.step_span[branch as usize], ack.depth);
        }
        match ack.outcome {
            AckOutcome::Fetched => {}
            AckOutcome::Stored { .. } => {
                self.tracer.instant(
                    trace,
                    root,
                    StageKind::Append,
                    "replica-append",
                    ack.bytes as u64,
                    now,
                );
                // The redirect may land on a server that already acked this
                // request; duplicate acks never double-count, so the quorum
                // stays honest.
                self.quorum.ack(request_id, ServerId(ack.server));
                let label = if ack.redirects > 0 {
                    "failover-ack"
                } else {
                    "replica-ack"
                };
                self.tracer
                    .instant(trace, root, StageKind::QuorumAck, label, 0, now);
            }
            AckOutcome::Dead => {
                // The replica target died mid-write: the fail-over service
                // re-replicates onto another healthy server so the block
                // keeps its replication factor.
                self.metrics.failovers += 1;
                self.tracer
                    .instant(trace, root, StageKind::Failover, "replica-failover", 0, now);
                if ack.redirects == 0 {
                    if let Some(alt) = self.selector.choose(1) {
                        let alt = alt[0];
                        let stored = self.stored_block(pool_idx, b);
                        self.scrubber.record_on(chunk_key, block, alt, &stored);
                        let msg = StoreMsg {
                            server: alt.0,
                            tok: ack.tok,
                            bytes: ack.bytes,
                            depth: 0,
                            redirects: 1,
                            class: ack.class,
                            payload: Some(Box::new(StorePayload {
                                chunk_key,
                                block,
                                stored,
                            })),
                        };
                        self.send_store(msg, sched);
                        return; // the branch stays blocked on the redirect
                    }
                }
            }
        }
        self.pending.push(ack.tok);
        self.pump(sched);
    }

    fn complete_request(&mut self, key: u32, sched: &mut Scheduler<Ev>) {
        let Some(req) = self.reqs[key as usize].take() else {
            unreachable!("request slot {key} completed twice");
        };
        // Invalidate any leftover tokens/timers minted for this attempt.
        self.gens[key as usize] = self.gens[key as usize].wrapping_add(1);
        let quorum_incomplete = self.quorum.abort(req.request_id);
        if quorum_incomplete && !req.is_read && self.cfg.request_timeout.is_some() {
            // Fault-aware mode: the plan ran to its end but some replica
            // ack never landed (e.g. every fail-over target was down too).
            // Acking the VM now would be silent under-replication — route
            // the request through the retry path instead, so it either
            // eventually lands a full quorum or fails explicitly.
            self.free.push(key);
            self.in_flight -= 1;
            self.metrics.aborts += 1;
            self.tracer.instant(
                req.trace,
                req.root,
                StageKind::Abort,
                "quorum-abort",
                0,
                sched.now(),
            );
            let ticket = RetryTicket {
                slot: req.slot,
                pool_idx: req.pool_idx,
                b: req.b,
                chunk_key: req.chunk_key,
                block: req.block,
                attempt: req.attempt + 1,
                first_issued_at: req.issued_at,
                is_read: req.is_read,
                class: req.class,
                trace: req.trace,
                root: req.root,
                seg: req.seg,
            };
            self.fail_or_retry(ticket, sched);
            return;
        }
        self.free.push(key);
        let now = sched.now();
        let latency = now - req.issued_at;
        if self.loadgen.is_some() {
            self.metrics.record_class(req.class, latency);
        }
        let block_key = (req.chunk_key.0, req.chunk_key.1, req.block);
        if req.is_read {
            self.metrics.read_latency.record(latency);
            if !req.cache_hit {
                // A completed read miss warms the cache and triggers the
                // sequential prefetcher over already-written neighbours.
                let targets = match self.services.as_mut() {
                    Some(svc) if svc.cache_enabled() => {
                        svc.cache_fill(block_key, req.sealed_len, false);
                        svc.prefetch_targets(block_key)
                    }
                    _ => Vec::new(),
                };
                for (id, server, sealed_len) in targets {
                    let msg = StoreMsg {
                        server,
                        tok: PREFETCH_BIT | id,
                        bytes: sealed_len,
                        depth: 0,
                        redirects: 0,
                        class: req.class,
                        payload: None,
                    };
                    self.send_store(msg, sched);
                }
            }
        } else {
            // The write acked: charge the tail segment and fold the
            // request's segment partition into the per-stage breakdown
            // (Σ segments == issue→ack latency, retries included).
            let mut seg = req.seg;
            seg.mark(StageKind::Ack, now);
            seg.flush_into(&mut self.metrics.breakdown);
            self.metrics.write_latency.record(latency);
            self.metrics.ingest.add(now, req.b as f64);
            let c = match self.services.as_mut() {
                Some(svc) => {
                    // Sealed container bytes hit the disks; the write also
                    // registers with the prefetcher and warms the cache.
                    svc.record_write(block_key, req.replicas[0], req.pool_idx as u32);
                    svc.cache_fill(block_key, req.sealed_len, false);
                    req.sealed_len as usize
                }
                None => self.workload.compressed(req.pool_idx).len(),
            };
            self.metrics.stored.add(now, c as f64);
            if !self.tenant_done.is_empty() && now >= self.metrics.ingest.window_start() {
                let tenant = req.slot as usize % self.tenant_done.len();
                self.tenant_done[tenant] += 1;
            }
        }
        self.metrics.ops.add(now, 1.0);
        self.tracer.span_close(req.root, now);
        self.in_flight -= 1;
        self.admission_release(req.class, sched);
        self.reissue_closed(req.slot, sched);
    }

    /// Closed loop: the slot issues its next request after a think time.
    /// Open loop (Poisson or tenant generator): arrivals drive issue.
    fn reissue_closed(&mut self, slot: u32, sched: &mut Scheduler<Ev>) {
        match self.cfg.driver {
            Driver::Closed if sched.now() < self.stop_issuing_at => {
                let think = Time::from_ps(self.workload.think_ps(1.0));
                sched.schedule_in(think, Ev::Issue(slot));
            }
            _ => {}
        }
    }

    /// Releases the admission window slot a completed (or terminally
    /// failed) request held, pulling the oldest deferred arrival of the
    /// class through while issuing is still allowed.
    fn admission_release(&mut self, class: u8, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let popped = match self.admission.as_mut() {
            None => None,
            Some(adm) => {
                adm.release(class);
                if now < self.stop_issuing_at {
                    adm.pop_ready(class)
                } else {
                    None
                }
            }
        };
        if let Some(d) = popped {
            let slot = (self.issued % u32::MAX as u64) as u32;
            self.issue_with(slot, d.class, sched);
        }
    }

    /// Overload shed threshold for open-loop arrivals.
    const OPEN_LOOP_CAP: usize = 8192;

    fn arrival(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if now >= self.stop_issuing_at {
            return;
        }
        // Schedule the next Poisson arrival first (the process never stops).
        let Driver::Poisson { gbps } = self.cfg.driver else {
            unreachable!("Arrival events are only scheduled by the Poisson driver");
        };
        let rate = simkit::gbps(gbps);
        let mean_us = hwmodel::consts::BLOCK_SIZE as f64 / rate * 1e6;
        let gap = Time::from_ps(self.workload.think_ps(mean_us));
        sched.schedule_in(gap, Ev::Arrival);
        if self.in_flight >= Self::OPEN_LOOP_CAP {
            self.dropped += 1;
            return;
        }
        let slot = (self.issued % u32::MAX as u64) as u32;
        self.issue(slot, sched);
    }

    fn issue(&mut self, slot: u32, sched: &mut Scheduler<Ev>) {
        self.issue_with(slot, 0, sched);
    }

    fn issue_with(&mut self, slot: u32, class: u8, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if now >= self.stop_issuing_at {
            return;
        }
        if !self.tenant_buckets.is_empty() {
            let tenant = slot as usize % self.tenant_buckets.len();
            if let Err(ready_at) = self.tenant_buckets[tenant]
                .admit(now, hwmodel::consts::BLOCK_SIZE as u64)
            {
                sched.schedule_at(ready_at.max(now), Ev::IssueClass(slot, class));
                return;
            }
        }
        let Some(replicas) = self.selector.choose(self.cfg.replication) else {
            // Not enough healthy servers: retry shortly (fail-over stall).
            sched.schedule_in(Time::from_us(100.0), Ev::IssueClass(slot, class));
            return;
        };
        let w = self.workload.next_write();
        // Deterministic per-issue coin flip.
        let coin = ((self.issued.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & 0xFFFF) as f64
            / 65536.0;
        let is_read = coin < self.read_fraction;
        let ordinal = self.issued;
        self.issued += 1;
        let trace = self.tracer.trace_for(ordinal);
        let root = self.tracer.span_open(
            trace,
            SpanId::NULL,
            StageKind::Request,
            if is_read { "read" } else { "write" },
            w.b as u64,
            now,
        );
        let ticket = RetryTicket {
            slot,
            pool_idx: w.pool_idx,
            b: w.b,
            chunk_key: w.chunk_key,
            block: w.block,
            attempt: 0,
            first_issued_at: now,
            is_read,
            class,
            trace,
            root,
            seg: SegmentAccum::start(now),
        };
        self.spawn_attempt(replicas, ticket, sched);
    }

    /// One arrival from the seeded tenant load generator: chain the next
    /// arrival, then run the admission stage and issue/defer/shed.
    fn tenant_arrival(&mut self, tenant: u64, class: u8, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if now >= self.stop_issuing_at {
            return;
        }
        // Schedule the next arrival first (the open-loop stream never
        // reacts to service state).
        if let Some(lg) = self.loadgen.as_mut() {
            let next = lg.next_arrival();
            if next.at < self.stop_issuing_at {
                sched.schedule_at(next.at, Ev::TenantArrival(next.tenant, next.class));
            }
        }
        if self.in_flight >= Self::OPEN_LOOP_CAP {
            self.dropped += 1;
            return;
        }
        let verdict = match self.admission.as_mut() {
            None => Verdict::Admitted,
            Some(adm) => adm.on_arrival(tenant, class),
        };
        match verdict {
            Verdict::Admitted => {
                let slot = (self.issued % u32::MAX as u64) as u32;
                self.issue_with(slot, class, sched);
            }
            Verdict::Deferred => self.metrics.admit_deferred[class as usize & 7] += 1,
            Verdict::Rejected => self.metrics.admit_rejected[class as usize & 7] += 1,
        }
    }

    /// Launches one attempt of a request (fresh issue or retry): allocates
    /// a slot+generation, begins the write quorum, arms the per-request
    /// timer, and injects the plan's first-phase branch tokens.
    fn spawn_attempt(
        &mut self,
        replicas: Vec<ServerId>,
        ticket: RetryTicket,
        sched: &mut Scheduler<Ev>,
    ) {
        // The stored size — sealed container when data services are on,
        // plain LZ4 otherwise — is memoized per pool block, so a retry
        // recomputes the exact same plan as the original attempt.
        let c = match self.services.as_mut() {
            Some(svc) => {
                svc.sealed_block(ticket.pool_idx, self.workload.payload(ticket.pool_idx)).1
            }
            None => self.workload.compressed(ticket.pool_idx).len() as u32,
        };
        let port = (ticket.slot as usize % self.cfg.design.ports()) as u8;
        let block_key = (ticket.chunk_key.0, ticket.chunk_key.1, ticket.block);
        let mut cache_hit = false;
        let plan = if ticket.is_read {
            match self.services.as_mut() {
                Some(svc) => {
                    if svc.cache_probe(block_key) {
                        // Cache hit: the block is served from the middle
                        // tier's design-local memory — the storage fabric
                        // hop, disk I/O, and decryption all disappear.
                        cache_hit = true;
                        read_hit_plan(self.cfg.design, port, ticket.b)
                    } else {
                        let mut p = read_plan(self.cfg.design, port, ticket.b, c);
                        inject_read_services(&mut p, svc.config(), c, svc.cache_enabled());
                        p
                    }
                }
                None => read_plan(self.cfg.design, port, ticket.b, c),
            }
        } else {
            let mut p = write_plan_replicated(
                self.cfg.design,
                port,
                ticket.b,
                c,
                self.cfg.replication as u8,
            );
            if let Some(svc) = self.services.as_ref() {
                inject_write_services(&mut p, svc.config(), ticket.b, c);
            }
            p
        };
        let request_id = self.next_req_id;
        self.next_req_id += 1;
        if !ticket.is_read {
            self.quorum.begin(request_id, self.cfg.replication);
        }
        let key = match self.free.pop() {
            Some(k) => k,
            None => {
                self.reqs.push(None);
                self.gens.push(0);
                (self.reqs.len() - 1) as u32
            }
        };
        let gen = self.gens[key as usize];
        let n = plan.phases[0].branches.len();
        assert!(n <= MAX_BRANCHES);
        let mut rep = [0u32; 6];
        for (slot_r, id) in rep.iter_mut().zip(&replicas) {
            *slot_r = id.0;
        }
        self.reqs[key as usize] = Some(InFlight {
            plan,
            phase: 0,
            cursor: [0; MAX_BRANCHES],
            live: n as u8,
            pool_idx: ticket.pool_idx,
            b: ticket.b,
            chunk_key: ticket.chunk_key,
            block: ticket.block,
            replicas: rep,
            issued_at: ticket.first_issued_at,
            slot: ticket.slot,
            is_read: ticket.is_read,
            class: ticket.class,
            request_id,
            attempt: ticket.attempt,
            trace: ticket.trace,
            root: ticket.root,
            step_span: [SpanId::NULL; MAX_BRANCHES],
            seg: ticket.seg,
            sealed_len: if self.services.is_some() { c } else { 0 },
            cache_hit,
        });
        self.in_flight += 1;
        if let Some(timeout) = self.cfg.request_timeout {
            sched.schedule_in(timeout, Ev::ReqTimeout(key, gen));
        }
        for b in 0..n as u8 {
            self.pending.push(token(key, b, gen));
        }
        self.pump(sched);
    }

    /// After a timeout (or a retry that found no healthy quorum): either
    /// schedule the next attempt after capped exponential backoff, or give
    /// up with an explicit write failure once retries are exhausted.
    fn fail_or_retry(&mut self, ticket: RetryTicket, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if ticket.attempt > self.cfg.max_retries {
            // Explicit quorum-failure error: the client learns the write
            // failed — never a hang, never silent loss.
            self.metrics.write_failures += 1;
            self.tracer
                .instant(ticket.trace, ticket.root, StageKind::Abort, "write-failed", 0, now);
            self.tracer.span_close(ticket.root, now);
            self.admission_release(ticket.class, sched);
            self.reissue_closed(ticket.slot, sched);
            return;
        }
        self.metrics.retries += 1;
        self.tracer
            .instant(ticket.trace, ticket.root, StageKind::Retry, "retry-backoff", 0, now);
        // Attempt n backs off base × 2^(n−1), capped.
        let shift = ticket.attempt.saturating_sub(1).min(16);
        let backoff =
            (self.cfg.retry_backoff * (1u64 << shift)).min(self.cfg.retry_backoff_cap);
        let boxed = match self.retry_boxes.pop() {
            Some(mut b) => {
                *b = ticket;
                b
            }
            None => Box::new(ticket),
        };
        sched.schedule_in(backoff, Ev::Retry(boxed));
    }

    /// The per-request timer fired: if the slot still holds the same
    /// attempt, abandon it (abort its quorum, penalize the silent
    /// replicas) and hand the request to the retry path.
    fn request_timeout(&mut self, key: u32, gen: u32, sched: &mut Scheduler<Ev>) {
        if self.gens.get(key as usize).copied() != Some(gen) {
            return; // the attempt completed (or already timed out)
        }
        let Some(req) = self.reqs[key as usize].take() else {
            return;
        };
        self.gens[key as usize] = self.gens[key as usize].wrapping_add(1);
        self.free.push(key);
        self.in_flight -= 1;
        self.metrics.timeouts += 1;
        let now = sched.now();
        // Close the abandoned attempt's in-flight step spans; leftover
        // flows carry stale tokens, so nothing else would retire them.
        for sid in req.step_span {
            self.tracer.span_note(sid, "timeout");
            self.tracer.span_close(sid, now);
        }
        self.tracer
            .instant(req.trace, req.root, StageKind::Timeout, "request-timeout", 0, now);
        if !req.is_read {
            // Penalize only the replicas that stayed silent — the ones
            // that acked did their part.
            let acked: Vec<ServerId> =
                self.quorum.acked_servers(req.request_id).to_vec();
            for r in 0..self.cfg.replication.min(req.replicas.len()) {
                let id = ServerId(req.replicas[r]);
                if !acked.contains(&id) {
                    self.selector.penalize(id, TIMEOUT_PENALTY);
                }
            }
            if self.quorum.abort(req.request_id) {
                self.metrics.aborts += 1;
            }
        }
        let ticket = RetryTicket {
            slot: req.slot,
            pool_idx: req.pool_idx,
            b: req.b,
            chunk_key: req.chunk_key,
            block: req.block,
            attempt: req.attempt + 1,
            first_issued_at: req.issued_at,
            is_read: req.is_read,
            class: req.class,
            trace: req.trace,
            root: req.root,
            seg: req.seg,
        };
        self.fail_or_retry(ticket, sched);
    }

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
    fn apply_fault(&mut self, kind: FaultKind, sched: &mut Scheduler<Ev>) {
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
                    self.touch(fkey);
                    self.fabric
                        .fluid_mut(fkey)
                        .set_capacity_frac(now, fraction.clamp(0.0, 1.0));
                    self.drain_fluid(fkey, sched);
                    self.pump(sched);
                }
            }
            FaultKind::TopoLinkDegrade { link, fraction } => {
                let i = link as usize;
                let Some(tn) = self.topo.as_mut().filter(|tn| i < tn.links.len()) else {
                    return;
                };
                tn.links[i].set_capacity_frac(now, fraction.clamp(0.0, 1.0));
                tn.touched |= 1u64 << i;
                self.topo_drain(i, sched);
                self.pump(sched);
            }
        }
    }

    /// Audits every live server's stored blocks: `(ok, corrupt)` counts,
    /// where `ok` blocks decompress to exactly one payload block. Chaos
    /// tests call this after a run to assert no fault sequence ever
    /// produced unreadable data.
    pub fn verify_stored(&self) -> (usize, usize) {
        let mut ok = 0usize;
        let mut corrupt = 0usize;
        for srv in &self.servers {
            if !srv.is_alive() {
                continue;
            }
            for (_, chunk) in srv.chunks() {
                for (_, sb) in chunk.snapshot().iter() {
                    match sb.expand() {
                        Ok(d) if d.len() == hwmodel::consts::BLOCK_SIZE => ok += 1,
                        _ => corrupt += 1,
                    }
                }
            }
        }
        (ok, corrupt)
    }

    /// Syncs every fluid to `now` so cumulative counters are exact, without
    /// losing any completions.
    fn sync_all(&mut self, sched: &mut Scheduler<Ev>) {
        for i in 0..FluidKey::count(self.cfg.design.ports()) {
            self.drain_fluid(FluidKey::from_index(i), sched);
        }
        let topo_links = self.topo.as_ref().map(|t| t.links.len()).unwrap_or(0);
        for i in 0..topo_links {
            self.topo_drain(i, sched);
        }
        self.pump(sched);
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
            Ev::Wake(key, epoch, serial) => {
                // Sentinel bookkeeping first, under the pre-processing
                // epoch — the instant at which the push-per-batch driver
                // would still have held both heap entries.
                let current = self.fabric.fluid(key).epoch();
                if let Some(e) = self.wake_coal[key.index()].on_delivery(serial, current) {
                    let Some(seq) = e.seq else {
                        unreachable!("materialized wakes always carry a reserved seq")
                    };
                    sched.schedule_at_seq(e.at, seq, Ev::Wake(key, e.epoch, e.serial));
                }
                if current != epoch {
                    return; // stale: a newer wakeup exists
                }
                self.drain_fluid(key, sched);
                self.pump(sched);
            }
            Ev::CpuDone(tok) => {
                if let Some(next) = self.cpu.complete(sched.now()) {
                    sched.schedule_at(next.finish_at, Ev::CpuDone(next.token));
                }
                self.pending.push(tok);
                self.pump(sched);
            }
            Ev::EngDone(i, tok) => {
                if let Some(next) = self.engines[i as usize].complete(sched.now()) {
                    sched.schedule_at(next.finish_at, Ev::EngDone(i, next.token));
                }
                self.pending.push(tok);
                self.pump(sched);
            }
            Ev::SvcCpuDone(tok) => {
                if let Some(soc) = self.services.as_mut().and_then(|s| s.soc.as_mut()) {
                    if let Some(next) = soc.complete(sched.now()) {
                        sched.schedule_at(next.finish_at, Ev::SvcCpuDone(next.token));
                    }
                }
                self.pending.push(tok);
                self.pump(sched);
            }
            Ev::SvcEngDone(i, tok) => {
                if let Some(svc) = self.services.as_mut() {
                    if let Some(next) = svc.engines[i as usize].complete(sched.now()) {
                        sched.schedule_at(next.finish_at, Ev::SvcEngDone(i, next.token));
                    }
                }
                self.pending.push(tok);
                self.pump(sched);
            }
            Ev::StoreAck(ack) => {
                if self.topo.is_some() {
                    // The return path serializes through the fabric too.
                    self.topo_launch(TopoPayload::In(ack), sched);
                } else {
                    self.store_ack(ack, sched);
                }
            }
            Ev::StoreArrive(_) | Ev::StoreDiskDone(_) | Ev::GlobalScrub(_) | Ev::GlobalSnapshot => {
                // Store-side events run on the store shards; barrier
                // operations run in `ClusterShard::handle_global` between
                // windows. Neither reaches the hub.
            }
            Ev::Delay(tok) => {
                self.pending.push(tok);
                self.pump(sched);
            }
            Ev::Issue(slot) => {
                self.issue(slot, sched);
            }
            Ev::IssueClass(slot, class) => {
                self.issue_with(slot, class, sched);
            }
            Ev::Arrival => {
                self.arrival(sched);
            }
            Ev::TenantArrival(tenant, class) => {
                self.tenant_arrival(tenant, class, sched);
            }
            Ev::TopoWake(i, epoch, serial) => {
                let idx = i as usize;
                let mut stale = true;
                if let Some(tn) = self.topo.as_mut() {
                    let current = tn.links[idx].epoch();
                    if let Some(e) = tn.coal[idx].on_delivery(serial, current) {
                        let Some(seq) = e.seq else {
                            unreachable!("materialized wakes always carry a reserved seq")
                        };
                        sched.schedule_at_seq(e.at, seq, Ev::TopoWake(i, e.epoch, e.serial));
                    }
                    stale = current != epoch;
                }
                if !stale {
                    self.topo_drain(idx, sched);
                    self.pump(sched);
                }
            }
            Ev::Fault(kind) => {
                self.apply_fault(kind, sched);
            }
            Ev::ReqTimeout(key, gen) => {
                self.request_timeout(key, gen, sched);
            }
            Ev::Retry(ticket) => {
                // Copy the ticket out and recycle its box (bounded pool;
                // in-flight retries are bounded by outstanding slots).
                let t = (*ticket).clone();
                if self.retry_boxes.len() < 256 {
                    self.retry_boxes.push(ticket);
                }
                if sched.now() < self.stop_issuing_at {
                    match self.selector.choose(self.cfg.replication) {
                        Some(replicas) => self.spawn_attempt(replicas, t, sched),
                        None => {
                            // Still no healthy quorum: burn an attempt so
                            // an extended outage converges to an explicit
                            // failure instead of retrying forever.
                            let mut t = t;
                            t.attempt += 1;
                            self.fail_or_retry(t, sched);
                        }
                    }
                }
            }
            Ev::SnapshotTick => {
                // The chunk stores live in other shards: snapshot at the
                // window barrier where all of them are in scope.
                sched.defer_global(Ev::GlobalSnapshot);
                if let Some(period) = self.cfg.snapshot_period {
                    sched.schedule_in(period, Ev::SnapshotTick);
                }
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
                self.tenant_done.iter_mut().for_each(|c| *c = 0);
            }
            Ev::RunEnd => {
                self.sync_all(sched);
                // Balance the export: requests cut off mid-flight close
                // their remaining spans at the end-of-run boundary.
                self.tracer.close_all(sched.now());
                sched.stop();
            }
        }
        self.arm_touched(sched);
        self.arm_topo(sched);
    }
}

/// One storage server's shard: its NVMe disk, its chunk store, and the
/// in-flight storage RPCs between arrival and disk completion. Everything
/// a server does locally lives here; cluster-wide operations (restart
/// scrub, snapshots) run as barrier operations with all shards in scope.
#[derive(Debug)]
pub struct StoreShard {
    id: u32,
    disk: DiskModel,
    server: StorageServer,
    pending: BTreeMap<u64, StoreMsg>,
    /// Ack propagation back to the hub: this server's topology path
    /// latency (the flat wire constant without a topology). Always ≥ the
    /// engine lookahead, which is the minimum over all servers.
    wire: Time,
    /// `shardsan` ownership tag: this disk/chunk-store/RPC-table trio is
    /// shard `1 + id` state, checked on every handled event.
    tag: simkit::ShardTag,
}

impl StoreShard {
    /// Completion of a storage RPC's disk I/O: perform the functional
    /// append (with local LSM compaction when the chunk's threshold fires)
    /// and build the ack for the hub.
    fn finish(&mut self, tok: u64) -> Option<AckMsg> {
        let msg = self.pending.remove(&tok)?;
        let outcome = match msg.payload {
            None => AckOutcome::Fetched,
            Some(p) => match self.server.append(p.chunk_key, p.block, p.stored) {
                Some(wants_compaction) => {
                    let mut compacted = false;
                    if wants_compaction {
                        if let Some(chunk) = self.server.chunk_mut(p.chunk_key) {
                            chunk.compact();
                            compacted = true;
                        }
                    }
                    AckOutcome::Stored { compacted }
                }
                None => AckOutcome::Dead,
            },
        };
        Some(AckMsg {
            server: msg.server,
            tok,
            bytes: msg.bytes,
            outcome,
            depth: msg.depth,
            redirects: msg.redirects,
            class: msg.class,
        })
    }
}

impl World for StoreShard {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        self.tag.check("storage server shard state (disk, chunk store, RPC table)");
        let now = sched.now();
        match ev {
            Ev::StoreArrive(mut msg) => {
                msg.depth = self.disk.queued() as u32;
                let (tok, bytes) = (msg.tok, msg.bytes as usize);
                self.pending.insert(tok, msg);
                if let Some(js) = self.disk.submit(now, bytes, tok) {
                    sched.schedule_at(js.finish_at, Ev::StoreDiskDone(js.token));
                }
            }
            Ev::StoreDiskDone(tok) => {
                if let Some(next) = self.disk.complete(now) {
                    sched.schedule_at(next.finish_at, Ev::StoreDiskDone(next.token));
                }
                if let Some(ack) = self.finish(tok) {
                    sched.send(0, self.wire, Ev::StoreAck(ack));
                }
            }
            Ev::Fault(kind) => match kind {
                FaultKind::ServerCrash { .. } => self.server.set_alive(false),
                FaultKind::ServerRestart { .. } => self.server.set_alive(true),
                FaultKind::ServerSlow { factor, .. } => self.disk.set_slow_factor(factor),
                FaultKind::ServerNormal { .. } => self.disk.set_slow_factor(1.0),
                FaultKind::LinkDegrade { .. } | FaultKind::TopoLinkDegrade { .. } => {}
            },
            _ => {}
        }
    }
}

/// A shard of the sharded cluster simulation: the middle-tier hub (shard 0)
/// or one storage server (shard `1 + i`).
#[derive(Debug)]
pub enum ClusterShard {
    /// The middle-tier hub: clients, fabric, CPU/engines, request logic.
    Hub(Box<Cluster>),
    /// One storage server's disk and chunk store.
    Store(StoreShard),
}

impl World for ClusterShard {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        match self {
            ClusterShard::Hub(c) => c.handle(ev, sched),
            ClusterShard::Store(s) => s.handle(ev, sched),
        }
    }
}

impl ShardWorld for ClusterShard {
    fn handle_global(shards: &mut [&mut Self], at: Time, ev: Ev) {
        match ev {
            Ev::GlobalScrub(server) => scrub_global(shards, at, server),
            Ev::GlobalSnapshot => snapshot_global(shards, at),
            _ => {}
        }
    }
}

/// Barrier operation: post-restart recovery of `server`, scrubbing its
/// chunk store against the hub's checksum index and restoring blocks it
/// should hold (written while it was down, or rotted) from any live
/// replica.
fn scrub_global(shards: &mut [&mut ClusterShard], at: Time, server: u32) {
    simkit::sanitizer::assert_barrier("restart scrub (cluster-wide repair)");
    let (hub_slice, stores) = shards.split_at_mut(1);
    let ClusterShard::Hub(hub) = &mut *hub_slice[0] else {
        return;
    };
    let idx = server as usize;
    if idx >= stores.len() {
        return;
    }
    let mut srv = {
        let ClusterShard::Store(target) = &mut *stores[idx] else {
            return;
        };
        std::mem::replace(
            &mut target.server,
            StorageServer::new(ServerId(server), COMPACTION_THRESHOLD),
        )
    };
    let (stats, _findings) = hub.scrubber.scrub_with(&mut srv, |chunk, block, want| {
        stores.iter().find_map(|s| {
            let ClusterShard::Store(p) = &**s else {
                return None;
            };
            let good = p.server.fetch(chunk, block)?;
            (blockstore::crc32(&good.data) == want).then(|| good.clone())
        })
    });
    if let ClusterShard::Store(target) = &mut *stores[idx] {
        target.server = srv;
    }
    hub.metrics.scrub_repairs += stats.repaired as u64;
    let maint = hub.tracer.maint();
    hub.tracer.instant(
        maint,
        SpanId::NULL,
        StageKind::Scrub,
        "restart-scrub",
        stats.repaired as u64,
        at,
    );
}

/// Barrier operation: one tick of the snapshot service, which freezes one
/// hosted chunk per tick, rotating round-robin across servers (§2.2.3
/// lists snapshotting among the maintenance services every middle-tier
/// server runs).
fn snapshot_global(shards: &mut [&mut ClusterShard], at: Time) {
    simkit::sanitizer::assert_barrier("snapshot service (reads every server's chunks)");
    let (hub_slice, stores) = shards.split_at_mut(1);
    let ClusterShard::Hub(hub) = &mut *hub_slice[0] else {
        return;
    };
    let n = stores.len();
    for off in 0..n {
        let idx = (hub.snapshot_cursor + off) % n;
        let ClusterShard::Store(srv) = &*stores[idx] else {
            continue;
        };
        if let Some((&key, chunk)) = srv.server.chunks().next() {
            hub.snapshots.push((at, key, chunk.snapshot()));
            hub.snapshot_cursor = idx + 1;
            return;
        }
    }
}

impl Cluster {
    /// Splits this cluster into shard worlds: the hub (this world, with the
    /// storage-side state removed) plus one [`StoreShard`] per storage
    /// server.
    fn split_for_shards(mut self) -> Vec<ClusterShard> {
        let servers = std::mem::take(&mut self.servers);
        let wires: Vec<Time> = (0..servers.len())
            .map(|i| self.rpc_latency(i as u32))
            .collect();
        let mut shards: Vec<ClusterShard> = Vec::with_capacity(1 + servers.len());
        shards.push(ClusterShard::Hub(Box::new(self)));
        for (i, (server, wire)) in servers.into_iter().zip(wires).enumerate() {
            shards.push(ClusterShard::Store(StoreShard {
                id: i as u32,
                disk: DiskModel::nvme("storage-disk"),
                server,
                pending: BTreeMap::new(),
                wire,
                tag: simkit::ShardTag::new(1 + i as u32),
            }));
        }
        shards
    }

    /// Reassembles a cluster from its shards after a run, so callers can
    /// audit servers, snapshots, and stored blocks.
    fn absorb_shards(shards: Vec<ClusterShard>) -> Cluster {
        let mut hub: Option<Box<Cluster>> = None;
        let mut stores: Vec<StoreShard> = Vec::new();
        for s in shards {
            match s {
                ClusterShard::Hub(c) => hub = Some(c),
                ClusterShard::Store(st) => stores.push(st),
            }
        }
        let Some(mut cluster) = hub else {
            unreachable!("split_for_shards always emits the hub shard");
        };
        stores.sort_by_key(|s| s.id);
        cluster.servers.extend(stores.into_iter().map(|st| st.server));
        *cluster
    }
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
    let mut cluster = Cluster::new(cfg.clone());
    setup(&mut cluster);
    let warmup = cfg.warmup;
    let end = cfg.warmup + cfg.measure;
    cluster.stop_issuing_at = end;
    if let Some(mlc) = cluster.mlc.take() {
        let mut m = mlc;
        m.start(&mut cluster.fabric.mem, Time::ZERO);
        cluster.mlc = Some(m);
    }
    let num_servers = cluster.num_servers;
    // The first tenant arrival is drawn before the hub moves into its
    // shard, so the schedule is identical at every thread count.
    let first_arrival = cluster.loadgen.as_mut().map(|lg| lg.next_arrival());
    // Lookahead follows the topology: the minimum hub↔server path latency
    // (the flat wire constant without one).
    let lookahead = cfg.lookahead();
    let mut sim = ShardedSim::new(cluster.split_for_shards(), lookahead);
    if cfg.sync_matrix {
        // Messages only flow hub <-> store (stores never talk directly),
        // so the direct-latency matrix is a star: one wire hop to or from
        // shard 0, unreachable otherwise. The transitive closure then
        // gives store -> store (and every round trip) two hops, letting
        // store shards run up to a full extra wire beyond the flat
        // window. Barrier operations are incompatible with the per-shard
        // horizons; `with_sync_matrix` rejects configurations that defer
        // them, and the engine panics if one slips through.
        assert!(
            cfg.fault_plan.is_empty()
                && cfg.snapshot_period.is_none()
                && cfg.topology.is_none(),
            "sync_matrix set on a run that defers barrier operations"
        );
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
                sim.schedule_at(0, Time::from_ps(200_000u64 * slot as u64 + 1), Ev::Issue(slot));
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
    sim.schedule_at(0, warmup, Ev::WarmupEnd);
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
        warmup,
        end_time,
    );
    (report, cluster, stats)
}

/// The direct-latency matrix of the hub-and-spoke shard layout: one wire
/// hop between the hub (shard 0) and each of `servers` store shards,
/// unreachable between stores.
fn star_lookahead(servers: usize, lookahead: Time) -> Vec<Vec<Time>> {
    let n = 1 + servers;
    let mut direct = vec![vec![Time::MAX; n]; n];
    for s in 1..n {
        direct[0][s] = lookahead;
        direct[s][0] = lookahead;
    }
    direct
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sync_matrix_executes_the_flat_schedule_in_fewer_rounds() {
        // The pair-lookahead matrix is a pure synchronization optimization:
        // every simulated outcome must be bit-identical to the flat
        // window's; only the round count may (and must) drop.
        //
        // `RunEnd` stops the run after the window it lands in, and how far
        // the other shards got in that window depends on the window layout,
        // so event totals of a stopped run include a layout-dependent tail.
        // The event accounting is therefore compared on drained runs, which
        // execute the whole schedule.
        let mut cfg = quick(Design::SmartDs { ports: 2 });
        cfg.outstanding = 128;
        let (flat_report, _, flat) = run_counted_stats(&cfg, |_| {}, Some(2));
        let flat_drained = run_drained(&cfg, 2);
        let cfg = cfg.with_sync_matrix();
        for threads in [1usize, 4] {
            let (report, _, stats) = run_counted_stats(&cfg, |_| {}, Some(threads));
            assert_eq!(
                format!("{report:?}"),
                format!("{flat_report:?}"),
                "matrix changed the simulation"
            );
            assert!(
                stats.rounds < flat.rounds,
                "matrix should cut rounds: {} vs flat {}",
                stats.rounds,
                flat.rounds
            );
            let drained = run_drained(&cfg, threads);
            assert_eq!(drained.0, flat_drained.0, "matrix changed the drained metrics");
            assert_eq!(drained.1.events, flat_drained.1.events);
            assert_eq!(drained.1.messages, flat_drained.1.messages);
        }
    }

    /// Runs a fair-weather closed-loop `cfg` on the sharded engine with no
    /// `RunEnd` stop: issue ends at the end of the measurement window and
    /// the run goes on until every request drains. Returns the metrics
    /// (as `Debug` text) and the engine accounting.
    fn run_drained(cfg: &RunConfig, threads: usize) -> (String, EngineStats) {
        let mut cluster = Cluster::new(cfg.clone());
        cluster.stop_issuing_at = cfg.warmup + cfg.measure;
        let servers = cluster.num_servers;
        let mut sim =
            ShardedSim::new(cluster.split_for_shards(), cfg.lookahead()).with_threads(threads);
        if cfg.sync_matrix {
            sim = sim.with_pair_lookahead(star_lookahead(servers, cfg.lookahead()));
        }
        for slot in 0..cfg.outstanding as u32 {
            sim.schedule_at(0, Time::from_ps(200_000u64 * slot as u64 + 1), Ev::Issue(slot));
        }
        sim.schedule_at(0, cfg.warmup, Ev::WarmupEnd);
        sim.run();
        let stats = sim.stats();
        let cluster = Cluster::absorb_shards(sim.into_worlds());
        (format!("{:?}", cluster.metrics), stats)
    }

    #[test]
    #[should_panic(expected = "sync_matrix requires a fair-weather")]
    fn sync_matrix_rejects_runs_that_defer_barrier_operations() {
        let _ = quick(Design::SmartDs { ports: 1 })
            .with_fault(Time::from_ms(3.0), 0, false)
            .with_sync_matrix();
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
