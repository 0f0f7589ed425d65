//! The storage side: one [`StoreShard`] per server, the [`ClusterShard`]
//! union the engine runs, the barrier operations (restart scrub and
//! snapshots), and splitting the cluster into shards and back.

use super::{AckMsg, AckOutcome, Cluster, Ev, StoreMsg, COMPACTION_THRESHOLD};
use blockstore::{DiskModel, ServerId, StorageServer};
use faultkit::FaultKind;
use simkit::{Scheduler, ShardWorld, Slab, SlotKey, Time, World};
use tracekit::{SpanId, StageKind};

impl Cluster {
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
    /// In-flight RPCs between arrival and disk completion; the packed slot
    /// key is the disk job's token.
    pending: Slab<StoreMsg>,
    /// Ack propagation back to the hub: this server's topology path
    /// latency (the flat wire constant without a topology). Always ≥ the
    /// engine lookahead, which is the minimum over all servers.
    wire: Time,
    /// `shardsan` ownership tag: this disk/chunk-store/RPC-table trio is
    /// shard `1 + id` state, checked on every handled event.
    tag: simkit::ShardTag,
}

impl StoreShard {
    /// Completion of the disk I/O of the RPC parked under `slot`: perform
    /// the functional append (with local LSM compaction when the chunk's
    /// threshold fires) and build the ack for the hub.
    fn finish(&mut self, slot: SlotKey) -> Option<AckMsg> {
        let msg = self.pending.remove(slot)?;
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
            tok: msg.tok,
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
                let bytes = msg.bytes as usize;
                let slot = self.pending.insert(msg);
                if let Some(js) = self.disk.submit(now, bytes, slot.pack()) {
                    sched.schedule_at(js.finish_at, Ev::StoreDiskDone(js.token));
                }
            }
            Ev::StoreDiskDone(slot) => {
                if let Some(next) = self.disk.complete(now) {
                    sched.schedule_at(next.finish_at, Ev::StoreDiskDone(next.token));
                }
                if let Some(ack) = self.finish(SlotKey::unpack(slot)) {
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
    Store(Box<StoreShard>),
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
    pub(super) fn split_for_shards(mut self) -> Vec<ClusterShard> {
        let servers = std::mem::take(&mut self.servers);
        let mut shards: Vec<ClusterShard> = Vec::with_capacity(1 + servers.len());
        for (i, server) in servers.into_iter().enumerate() {
            shards.push(ClusterShard::Store(Box::new(StoreShard {
                id: i as u32,
                disk: DiskModel::nvme("storage-disk"),
                server,
                pending: Slab::new(),
                wire: self.rpc_latency(i as u32),
                tag: simkit::ShardTag::new(1 + i as u32),
            })));
        }
        // The hub is shard 0.
        shards.insert(0, ClusterShard::Hub(Box::new(self)));
        shards
    }

    /// Reassembles a cluster from its shards after a run, so callers can
    /// audit servers, snapshots, and stored blocks.
    pub(super) fn absorb_shards(shards: Vec<ClusterShard>) -> Cluster {
        let mut hub: Option<Box<Cluster>> = None;
        let mut stores: Vec<StoreShard> = Vec::new();
        for s in shards {
            match s {
                ClusterShard::Hub(c) => hub = Some(c),
                ClusterShard::Store(st) => stores.push(*st),
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use testkit::gen;

    testkit::prop! {
        cases = 128;

        /// The store shard's RPC slab under random arrive/complete orders
        /// (`(false, _)` = an RPC arrives, `(true, k)` = the disk finishes
        /// the `k`-th live one), its keys round-tripping through the disk
        /// token: every completion gets its own message back, no token is
        /// ever handed out twice (so a completed one never resolves
        /// again), and freed slots are reused — the slab never holds more
        /// slots than RPCs were ever live at once.
        fn rpc_slab_returns_each_message_under_its_own_token(
            ops in gen::vecs((gen::bools(), gen::u64s(0..64)), 1..200),
        ) {
            let mut slab: Slab<StoreMsg> = Slab::new();
            let mut live: BTreeMap<u64, u64> = BTreeMap::new();
            let mut minted: BTreeSet<u64> = BTreeSet::new();
            let (mut next_id, mut peak, mut slots) = (0u64, 0usize, 0u32);
            for &(complete, k) in &ops {
                if complete && !live.is_empty() {
                    let (&tok, &id) = live.iter().nth(k as usize % live.len()).unwrap();
                    let key = SlotKey::unpack(tok);
                    let msg = slab.remove(key).expect("a live token resolves");
                    assert_eq!(msg.tok, id, "token {tok:#x} returned another RPC's message");
                    live.remove(&tok);
                    assert!(slab.remove(key).is_none(), "token {tok:#x} resolved twice");
                } else {
                    let msg = StoreMsg::new((next_id % 6) as u32, next_id, 4096, 0, None);
                    let key = slab.insert(msg);
                    assert!(minted.insert(key.pack()), "token {key:?} handed out twice");
                    live.insert(key.pack(), next_id);
                    slots = slots.max(key.index + 1);
                    next_id += 1;
                    peak = peak.max(live.len());
                }
                assert!(slots as usize <= peak, "{slots} slots for {peak} live");
            }
        }
    }
}
