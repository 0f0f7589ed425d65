//! Fabric and rack-fabric transfers: the hub's fluid resources, the
//! host-memory admission gate, completion draining and wakeup arming.
//!
//! Every hub fluid lives in one wake index space, driven by one
//! [`simkit::WakeSet`]: the fabric's keys first (`0..FluidKey::count`),
//! then the rack links. A flat cluster is a zero-hop fabric: it has no
//! rack links, and every storage RPC delivers straight to the wire.

use super::{AckMsg, AckOutcome, Cluster, Ev, StoreMsg, STORAGE_LOOKAHEAD};
use crate::fabric::{Fabric, FluidKey};
use crate::topology::{class_weight, TopoLink, Topology};
use hwmodel::consts::{HEADER_SIZE, PCIE_PROPAGATION};
use simkit::{FlowSpec, FluidResource, Scheduler, Time};
use std::collections::BTreeMap;

/// Admission window in front of host memory: the I/O path acts as one
/// memory agent with [`IO_MEM_WINDOW`] concurrent bursts, which is what
/// allows background pressure to squeeze it (see `hwmodel::consts`).
#[derive(Debug, Default)]
pub(super) struct MemGate {
    active: usize,
    queue: std::collections::VecDeque<(f64, u8, u64)>,
}

/// A storage RPC (or its ack) in transit across the rack fabric.
#[derive(Debug)]
pub(super) enum TopoPayload {
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
/// shard engine's lookahead still covers the residual propagation). A
/// flat cluster has no links and never holds a transfer.
#[derive(Debug)]
pub(super) struct TopoNet {
    /// Fluid links indexed by [`TopoLink::index`].
    links: Vec<FluidResource>,
    /// Wake index of link 0: the fabric's keys come first.
    base: usize,
    /// In-transit messages keyed by transfer token.
    transfers: BTreeMap<u64, TopoTransfer>,
    next_tok: u64,
    /// Reused scratch for [`Cluster::topo_drain`]: link completions and
    /// the messages that cleared their last hop. Empty between events.
    done: Vec<simkit::FlowEnd>,
    deliveries: Vec<TopoPayload>,
}

impl TopoNet {
    /// The links of `topology` (none for a flat cluster), numbered from
    /// wake index `base` on.
    pub(super) fn new(topology: Option<&Topology>, base: usize) -> TopoNet {
        let links = match topology {
            Some(t) => (0..TopoLink::count(t.racks))
                .map(|i| {
                    let l = TopoLink::from_index(i);
                    FluidResource::new(l.name(), t.capacity(l))
                })
                .collect(),
            None => Vec::new(),
        };
        TopoNet {
            links,
            base,
            transfers: BTreeMap::new(),
            next_tok: 0,
            done: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Size of the wake index space: the fabric's keys plus the links.
    pub(super) fn wake_count(&self) -> usize {
        self.base + self.links.len()
    }
}

/// The fluid behind wake index `i`.
pub(super) fn wake_fluid<'a>(fabric: &'a Fabric, topo: &'a TopoNet, i: usize) -> &'a FluidResource {
    match i.checked_sub(topo.base) {
        None => fabric.fluid(FluidKey::from_index(i)),
        Some(link) => &topo.links[link],
    }
}

impl Cluster {
    pub(super) fn touch(&mut self, key: FluidKey) {
        self.wakes.touch(key.index());
    }

    /// The one arming pass of a handled event: re-arms every fabric key
    /// and rack link the event touched, in ascending wake index order.
    pub(super) fn arm_wakes(&mut self, sched: &mut Scheduler<Ev>) {
        let (fabric, topo) = (&self.fabric, &self.topo);
        self.wakes.arm(sched, |i| wake_fluid(fabric, topo, i), Ev::Wake);
    }

    /// Processes completions on wake index `i`.
    pub(super) fn drain(&mut self, i: usize, sched: &mut Scheduler<Ev>) {
        match i.checked_sub(self.topo.base) {
            None => self.drain_fluid(FluidKey::from_index(i), sched),
            Some(link) => self.topo_drain(link, sched),
        }
    }

    /// A link-degrade fault on wake index `i`: set the capacity, then
    /// drain what the change completed and pump.
    pub(super) fn degrade(&mut self, i: usize, fraction: f64, sched: &mut Scheduler<Ev>) {
        let fluid = match i.checked_sub(self.topo.base) {
            None => self.fabric.fluid_mut(FluidKey::from_index(i)),
            Some(link) => &mut self.topo.links[link],
        };
        fluid.set_capacity_frac(sched.now(), fraction.clamp(0.0, 1.0));
        self.drain(i, sched);
        self.pump(sched);
    }

    /// Wake index of rack link `link`, when the fabric has it.
    pub(super) fn link_wake(&self, link: u16) -> Option<usize> {
        let link = link as usize;
        (link < self.topo.links.len()).then_some(self.topo.base + link)
    }

    /// Hub ↔ `server` propagation delay: the topology's path latency when a
    /// fabric is configured, the flat wire constant otherwise. Never below
    /// the engine lookahead ([`RunConfig::lookahead`] is the minimum over
    /// all servers), so cross-shard sends at this delay are always legal.
    pub(super) fn rpc_latency(&self, server: u32) -> Time {
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
    /// traffic (all traffic of a flat cluster) delivers directly,
    /// cross-rack traffic serializes through its hop sequence under the
    /// class's weight.
    pub(super) fn topo_launch(&mut self, payload: TopoPayload, sched: &mut Scheduler<Ev>) {
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
        let tn = &mut self.topo;
        let tok = tn.next_tok;
        tn.next_tok += 1;
        let first = hops[0] as usize;
        tn.links[first].start_flow(
            now,
            bytes.max(1) as f64,
            FlowSpec::new().class(class & 7).weight(class_weight(class)),
            tok,
        );
        self.wakes.touch(tn.base + first);
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
        let tn = &mut self.topo;
        // Completions and deliveries drain through reused scratch buffers,
        // as in `drain_fluid`: steady-state this path allocates no Vec.
        let mut done = std::mem::take(&mut tn.done);
        let mut deliveries = std::mem::take(&mut tn.deliveries);
        tn.links[link].sync(now);
        tn.links[link].take_completed_into(&mut done);
        self.wakes.touch(tn.base + link);
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
                self.wakes.touch(tn.base + nxt);
                tn.transfers.insert(end.token, tr);
            } else {
                deliveries.push(tr.payload);
            }
        }
        tn.done = done;
        for p in deliveries.drain(..) {
            self.topo_deliver(p, sched);
        }
        self.topo.deliveries = deliveries;
    }

    /// Admits a host-memory burst through the bounded I/O memory agent.
    pub(super) fn mem_admit(&mut self, now: Time, bytes: f64, class: u8, tok: u64) {
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

    /// Dispatches a storage RPC to its server's shard: through its rack
    /// fabric hops first, then across the wire through the cross-shard
    /// mailbox (propagation is charged at delivery).
    pub(super) fn send_store(&mut self, msg: StoreMsg, sched: &mut Scheduler<Ev>) {
        self.topo_launch(TopoPayload::Out(msg), sched);
    }

    /// Syncs every fluid to `now` so cumulative counters are exact, without
    /// losing any completions.
    pub(super) fn sync_all(&mut self, sched: &mut Scheduler<Ev>) {
        for i in 0..self.topo.wake_count() {
            self.drain(i, sched);
        }
        self.pump(sched);
    }
}
