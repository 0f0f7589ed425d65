//! The request state machine: the [`InFlight`] record, issue and launch,
//! plan stepping, completion, timeout and retry.

use super::{AckMsg, AckOutcome, Cluster, Ev, Station, StoreMsg, StorePayload};
use crate::admission::Verdict;
use crate::design::Driver;
use crate::fabric::{res_route, FluidKey};
use crate::plan::{
    inject_read_services, inject_write_services, read_hit_plan, read_plan,
    write_plan_replicated, PlanId, Res, Step, SVC_ENG_DEDUP,
};
use blockstore::{crc32, ReplicaSet, ServerId, StoredBlock};
use hwmodel::CpuWork;
use simkit::{FlowSpec, Scheduler, Time};
use tracekit::{SegmentAccum, SpanId, StageKind, TraceId};

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

/// One attempt of a request in flight: its logical request (the
/// [`RetryTicket`] every attempt carries forward) plus the attempt's own
/// plan progress, replica set and quorum id.
#[derive(Debug)]
pub(super) struct InFlight {
    ticket: RetryTicket,
    /// The attempt's plan in the hub's [`PlanTable`](crate::plan::PlanTable).
    plan: PlanId,
    phase: usize,
    cursor: [u16; MAX_BRANCHES],
    live: u8,
    replicas: ReplicaSet,
    /// Quorum-tracker id of this attempt (fresh per retry).
    request_id: u64,
    /// The span covering the step each branch is currently blocked on.
    step_span: [SpanId; MAX_BRANCHES],
    /// Length of the block's stored version (the sealed container when
    /// data services are on, the LZ4 block otherwise): what replication
    /// ships and the stored meter counts.
    stored_len: u32,
    /// Read served from the middle-tier hot-block cache (services only).
    cache_hit: bool,
}

/// The version every replica of one pool block appends, with its CRC-32.
/// Both are fixed for the whole run (the compressed and sealed forms are
/// memoized per pool block), so the hub builds them on the block's first
/// launch and every replica, retry and fail-over redirect reuses them.
#[derive(Clone, Debug)]
pub(super) struct StoredVersion {
    pub(super) stored: StoredBlock,
    pub(super) crc: u32,
}

/// Which plan a launch runs. With the run's design, replication factor and
/// services config fixed, this plus the pool block and the port picks the
/// plan.
#[derive(Copy, Clone, Debug)]
enum PlanOp {
    Write,
    ReadMiss,
    ReadHit,
}

/// Number of [`PlanOp`]s: the plan index holds this many ids per pool
/// block and port.
pub(super) const PLAN_OPS: usize = 3;

/// The logical request every attempt shares, and everything needed to
/// re-issue a timed-out request after its backoff: the *same* payload
/// block, chunk address, and client slot — a retry must not redraw the
/// workload stream, or replays would diverge.
#[derive(Clone, Debug)]
pub struct RetryTicket {
    slot: u32,
    pool_idx: usize,
    b: u32,
    chunk_key: (u64, u64),
    block: u64,
    /// How many timeouts this logical request has already eaten.
    attempt: u32,
    first_issued_at: Time,
    is_read: bool,
    /// Traffic class (0 = most latency-sensitive … 7 = bulk); retries keep
    /// the class they were admitted under. The closed loop issues
    /// everything at class 0; the tenant load generator maps tenants onto
    /// all 8.
    class: u8,
    /// Trace identity survives retries: every attempt of a logical request
    /// lands under the same root span, so a trace shows the whole story.
    /// The trace id is null when the request was not sampled; the root
    /// span closes on completion or final failure.
    trace: TraceId,
    root: SpanId,
    /// Latency-segment accumulator; milestones charge it via `Step::Mark`.
    seg: SegmentAccum,
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
    /// Runs queued branch tokens until everything is blocked again.
    pub(super) fn pump(&mut self, sched: &mut Scheduler<Ev>) {
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
            Some(req) => (req.ticket.trace, req.ticket.root),
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
            Some(req) => (req.ticket.trace, req.ticket.root),
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
                let steps = self.plans.branch(req.plan, req.phase, branch as usize);
                let idx = req.cursor[branch as usize] as usize;
                if idx >= steps.len() {
                    // Branch done.
                    req.live -= 1;
                    if req.live > 0 {
                        return;
                    }
                    // Phase done → next phase or request completion.
                    req.phase += 1;
                    if req.phase >= self.plans.phase_count(req.plan) {
                        self.complete_request(key, sched);
                        return;
                    }
                    req.cursor = [0; MAX_BRANCHES];
                    let n = self.plans.branch_count(req.plan, req.phase);
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
            let (station, sid, depth, job) = match step {
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
                    let cpu = &mut self.cpu;
                    (Station::Cpu, sid, cpu.queued(), cpu.submit(now, work, tok))
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
                    let eng = &mut self.engines[i as usize];
                    (Station::Engine(i), sid, eng.queued(), eng.submit(now, bytes as usize, tok))
                }
                Step::SvcCpu(work) => {
                    let (kind, label, wbytes) = match work {
                        CpuWork::DedupScan(n) => (StageKind::Dedup, "soc-dedup-scan", n as u64),
                        CpuWork::Crypt(n) => (StageKind::Encrypt, "soc-xts-crypt", n as u64),
                        _ => (StageKind::CpuJob, "soc-job", 0u64),
                    };
                    let sid = self.open_step_span(key, branch, kind, label, wbytes, now);
                    let Some(soc) = self.services.as_mut().and_then(|s| s.soc.as_mut()) else {
                        unreachable!("SvcCpu steps are only planned with a SoC placement");
                    };
                    (Station::SvcCpu, sid, soc.queued(), soc.submit(now, work, tok))
                }
                Step::SvcEngine(i, bytes) => {
                    let (kind, label) = if i == SVC_ENG_DEDUP {
                        (StageKind::Dedup, "svc-engine-dedup")
                    } else {
                        (StageKind::Encrypt, "svc-engine-crypt")
                    };
                    let sid = self.open_step_span(key, branch, kind, label, bytes as u64, now);
                    let Some(svc) = self.services.as_mut() else {
                        unreachable!("SvcEngine steps are only planned with services on");
                    };
                    let eng = &mut svc.engines[i as usize];
                    (Station::SvcEngine(i), sid, eng.queued(), eng.submit(now, bytes as usize, tok))
                }
                Step::Store(r, bytes) => {
                    let (pool_idx, b, chunk_key, block, server, class) = {
                        let Some(req) = self.reqs[key as usize].as_ref() else {
                            return;
                        };
                        (
                            req.ticket.pool_idx,
                            req.ticket.b,
                            req.ticket.chunk_key,
                            req.ticket.block,
                            req.replicas[r as usize],
                            req.ticket.class,
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
                    let StoredVersion { stored, crc } = self.stored_version(pool_idx, b).clone();
                    // Record the placement *intent*, not just the landed
                    // append: if the server is down right now, it stays on
                    // the holder list, and the post-restart scrub
                    // re-replicates the version it missed.
                    self.scrubber.record_on(chunk_key, block, server, crc);
                    let payload = StorePayload { chunk_key, block, stored };
                    let msg = StoreMsg::new(server.0, tok, bytes, class, Some(payload));
                    self.send_store(msg, sched);
                    return;
                }
                Step::Fetch(bytes) => {
                    let (server, class) = {
                        let Some(req) = self.reqs[key as usize].as_ref() else {
                            return;
                        };
                        (req.replicas[0].0, req.ticket.class)
                    };
                    self.open_step_span(
                        key,
                        branch,
                        StageKind::DiskIo,
                        "storage-rpc",
                        bytes as u64,
                        now,
                    );
                    self.send_store(StoreMsg::new(server, tok, bytes, class, None), sched);
                    return;
                }
                Step::Wait(d) => {
                    self.open_step_span(key, branch, StageKind::Propagation, "propagation", 0, now);
                    sched.schedule_in(d, Ev::Delay(tok));
                    return;
                }
                Step::Mark(kind) => {
                    if let Some(req) = self.reqs[key as usize].as_mut() {
                        req.ticket.seg.mark(kind, now);
                    }
                    self.req_instant(key, kind, kind.name(), now);
                    continue;
                }
                Step::Note(kind, label) => {
                    self.req_instant(key, kind, label, now);
                    continue;
                }
            };
            // A compute station took the job: note the queue it joined and
            // schedule its completion if it started right away.
            self.tracer.span_set_queue(sid, depth as u32);
            if let Some(js) = job {
                sched.schedule_at(js.finish_at, Ev::JobDone(station, js.token));
            }
            return;
        }
    }

    /// A compute station finished branch token `tok`'s job: start the
    /// station's next queued job, then resume the branch.
    pub(super) fn complete_job(&mut self, station: Station, tok: u64, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let next = match station {
            Station::Cpu => self.cpu.complete(now),
            Station::Engine(i) => self.engines[i as usize].complete(now),
            Station::SvcCpu => {
                let soc = self.services.as_mut().and_then(|s| s.soc.as_mut());
                soc.and_then(|soc| soc.complete(now))
            }
            Station::SvcEngine(i) => {
                let svc = self.services.as_mut();
                svc.and_then(|svc| svc.engines[i as usize].complete(now))
            }
        };
        if let Some(next) = next {
            sched.schedule_at(next.finish_at, Ev::JobDone(station, next.token));
        }
        self.pending.push(tok);
        self.pump(sched);
    }

    /// The version a replica appends for pool block `pool_idx` of `b`
    /// bytes, built on the block's first launch: the sealed service
    /// container (dedup + LZ4 + XTS) when data services are on, the plain
    /// LZ4-compressed block otherwise, and the CRC-32 the scrubber keeps.
    /// Retries and fail-over redirects ship byte-identical data.
    fn stored_version(&mut self, pool_idx: usize, b: u32) -> &StoredVersion {
        self.versions[pool_idx].get_or_insert_with(|| {
            let stored = match self.services.as_mut() {
                Some(svc) => {
                    StoredBlock::raw(svc.sealed_block(pool_idx, self.workload.payload(pool_idx)).0)
                }
                None => StoredBlock::lz4(self.workload.compressed(pool_idx), b),
            };
            let crc = crc32(&stored.data);
            StoredVersion { stored, crc }
        })
    }

    /// The plan pool block `pool_idx` runs for `op` on `port`, interned on
    /// first use. `c` is the block's stored length. Every input to the
    /// builders is fixed per (pool block, port, op) for the whole run, so
    /// the lookup is a direct index; equal plans of other blocks share one
    /// table entry.
    fn plan_for(&mut self, pool_idx: usize, port: u8, op: PlanOp, b: u32, c: u32) -> PlanId {
        let slot = (pool_idx * self.cfg.design.ports() + port as usize) * PLAN_OPS + op as usize;
        if let Some(id) = self.plan_ids[slot] {
            return id;
        }
        let design = self.cfg.design;
        let svc = self.services.as_ref();
        let plan = match op {
            PlanOp::Write => {
                let rep = self.cfg.replication as u8;
                let mut p = write_plan_replicated(design, port, b, c, rep);
                if let Some(svc) = svc {
                    inject_write_services(&mut p, svc.config(), b, c);
                }
                p
            }
            PlanOp::ReadMiss => {
                let mut p = read_plan(design, port, b, c);
                if let Some(svc) = svc {
                    inject_read_services(&mut p, svc.config(), c, svc.cache_enabled());
                }
                p
            }
            PlanOp::ReadHit => read_hit_plan(design, port, b),
        };
        let id = self.plans.intern(&plan);
        self.plan_ids[slot] = Some(id);
        id
    }

    /// A storage RPC's ack landed back at the hub: account the outcome
    /// (quorum ack, compaction, fail-over redirect) and resume the plan
    /// branch that was blocked on the RPC.
    pub(super) fn store_ack(&mut self, ack: AckMsg, sched: &mut Scheduler<Ev>) {
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
                req.ticket.trace,
                req.ticket.root,
                req.ticket.pool_idx,
                req.ticket.b,
                req.ticket.chunk_key,
                req.ticket.block,
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
                        let StoredVersion { stored, crc } = self.stored_version(pool_idx, b).clone();
                        self.scrubber.record_on(chunk_key, block, alt, crc);
                        let payload = StorePayload { chunk_key, block, stored };
                        let msg = StoreMsg::new(alt.0, ack.tok, ack.bytes, ack.class, Some(payload));
                        self.send_store(StoreMsg { redirects: 1, ..msg }, sched);
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
        if quorum_incomplete && !req.ticket.is_read && self.cfg.request_timeout.is_some() {
            // Fault-aware mode: the plan ran to its end but some replica
            // ack never landed (e.g. every fail-over target was down too).
            // Acking the VM now would be silent under-replication — route
            // the request through the retry path instead, so it either
            // eventually lands a full quorum or fails explicitly.
            self.free.push(key);
            self.in_flight -= 1;
            self.metrics.aborts += 1;
            self.tracer.instant(
                req.ticket.trace,
                req.ticket.root,
                StageKind::Abort,
                "quorum-abort",
                0,
                sched.now(),
            );
            let mut ticket = req.ticket;
            ticket.attempt += 1;
            self.fail_or_retry(ticket, sched);
            return;
        }
        self.free.push(key);
        let now = sched.now();
        let latency = now - req.ticket.first_issued_at;
        if self.loadgen.is_some() {
            self.metrics.record_class(req.ticket.class, latency);
        }
        let block_key = (req.ticket.chunk_key.0, req.ticket.chunk_key.1, req.ticket.block);
        if req.ticket.is_read {
            self.metrics.read_latency.record(latency);
            if !req.cache_hit {
                // A completed read miss warms the cache and triggers the
                // sequential prefetcher over already-written neighbours.
                let targets = match self.services.as_mut() {
                    Some(svc) if svc.cache_enabled() => {
                        svc.cache_fill(block_key, req.stored_len, false);
                        svc.prefetch_targets(block_key)
                    }
                    _ => Vec::new(),
                };
                for (id, server, sealed_len) in targets {
                    let msg = StoreMsg::new(server, PREFETCH_BIT | id, sealed_len, req.ticket.class, None);
                    self.send_store(msg, sched);
                }
            }
        } else {
            // The write acked: charge the tail segment and fold the
            // request's segment partition into the per-stage breakdown
            // (Σ segments == issue→ack latency, retries included).
            let mut seg = req.ticket.seg;
            seg.mark(StageKind::Ack, now);
            seg.flush_into(&mut self.metrics.breakdown);
            self.metrics.write_latency.record(latency);
            self.metrics.ingest.add(now, req.ticket.b as f64);
            if let Some(svc) = self.services.as_mut() {
                // The write also registers with the prefetcher and warms
                // the cache.
                svc.record_write(block_key, req.replicas[0].0, req.ticket.pool_idx as u32);
                svc.cache_fill(block_key, req.stored_len, false);
            }
            self.metrics.stored.add(now, req.stored_len as f64);
        }
        self.metrics.ops.add(now, 1.0);
        self.tracer.span_close(req.ticket.root, now);
        self.in_flight -= 1;
        self.admission_release(req.ticket.class, sched);
        self.reissue_closed(req.ticket.slot, sched);
    }

    /// Closed loop: the slot issues its next request after a think time.
    /// Open loop (the tenant generator): arrivals drive issue.
    fn reissue_closed(&mut self, slot: u32, sched: &mut Scheduler<Ev>) {
        match self.cfg.driver {
            Driver::Closed if sched.now() < self.stop_issuing_at => {
                let think = Time::from_ps(self.workload.think_ps(1.0));
                sched.schedule_in(think, Ev::Issue(slot, 0));
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
            self.issue(slot, d.class, sched);
        }
    }

    /// Overload shed threshold for open-loop arrivals.
    const OPEN_LOOP_CAP: usize = 8192;

    /// Client slot `slot` issues a new request at traffic class `class`,
    /// unless a fail-over stall defers it.
    pub(super) fn issue(&mut self, slot: u32, class: u8, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if now >= self.stop_issuing_at {
            return;
        }
        let Some(replicas) = self.selector.choose(self.cfg.replication) else {
            // Not enough healthy servers: retry shortly (fail-over stall).
            sched.schedule_in(Time::from_us(100.0), Ev::Issue(slot, class));
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
    pub(super) fn tenant_arrival(&mut self, tenant: u64, class: u8, sched: &mut Scheduler<Ev>) {
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
            Some(adm) => adm.on_arrival(now, tenant, class),
        };
        match verdict {
            Verdict::Admitted => {
                let slot = (self.issued % u32::MAX as u64) as u32;
                self.issue(slot, class, sched);
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
        replicas: ReplicaSet,
        ticket: RetryTicket,
        sched: &mut Scheduler<Ev>,
    ) {
        // The stored version — sealed container when data services are on,
        // plain LZ4 otherwise — is memoized per pool block, so a retry
        // runs the exact same plan as the original attempt.
        let c = self.stored_version(ticket.pool_idx, ticket.b).stored.data.len() as u32;
        let port = (ticket.slot as usize % self.cfg.design.ports()) as u8;
        let block_key = (ticket.chunk_key.0, ticket.chunk_key.1, ticket.block);
        // A cache hit serves the block from the middle tier's design-local
        // memory: the storage fabric hop, disk I/O, and decryption all
        // disappear.
        let cache_hit = ticket.is_read
            && self.services.as_mut().is_some_and(|svc| svc.cache_probe(block_key));
        let op = match (ticket.is_read, cache_hit) {
            (false, _) => PlanOp::Write,
            (true, false) => PlanOp::ReadMiss,
            (true, true) => PlanOp::ReadHit,
        };
        let plan = self.plan_for(ticket.pool_idx, port, op, ticket.b, c);
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
        let n = self.plans.branch_count(plan, 0);
        assert!(n <= MAX_BRANCHES);
        self.reqs[key as usize] = Some(InFlight {
            ticket,
            plan,
            phase: 0,
            cursor: [0; MAX_BRANCHES],
            live: n as u8,
            replicas,
            request_id,
            step_span: [SpanId::NULL; MAX_BRANCHES],
            stored_len: c,
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
    pub(super) fn request_timeout(&mut self, key: u32, gen: u32, sched: &mut Scheduler<Ev>) {
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
            .instant(req.ticket.trace, req.ticket.root, StageKind::Timeout, "request-timeout", 0, now);
        if !req.ticket.is_read {
            // Penalize only the replicas that stayed silent — the ones
            // that acked did their part.
            let acked = self.quorum.acked_servers(req.request_id);
            for &id in &req.replicas {
                if !acked.contains(&id) {
                    self.selector.penalize(id, TIMEOUT_PENALTY);
                }
            }
            if self.quorum.abort(req.request_id) {
                self.metrics.aborts += 1;
            }
        }
        let mut ticket = req.ticket;
        ticket.attempt += 1;
        self.fail_or_retry(ticket, sched);
    }

    /// A retry's backoff elapsed: launch the next attempt, or burn one
    /// when there is still no healthy quorum.
    pub(super) fn retry(&mut self, boxed: Box<RetryTicket>, sched: &mut Scheduler<Ev>) {
        // Copy the ticket out and recycle its box (bounded pool; in-flight
        // retries are bounded by outstanding slots).
        let mut ticket = (*boxed).clone();
        if self.retry_boxes.len() < 256 {
            self.retry_boxes.push(boxed);
        }
        if sched.now() < self.stop_issuing_at {
            match self.selector.choose(self.cfg.replication) {
                Some(replicas) => self.spawn_attempt(replicas, ticket, sched),
                None => {
                    // Still no healthy quorum: burn an attempt so an
                    // extended outage converges to an explicit failure
                    // instead of retrying forever.
                    ticket.attempt += 1;
                    self.fail_or_retry(ticket, sched);
                }
            }
        }
    }
}
