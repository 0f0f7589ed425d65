//! Rack-scale fabric geometry: racks of storage servers behind ToR
//! switches, joined by a spine layer, with the middle-tier (SmartNIC) hub
//! parked in one rack — or hanging directly off the spine.
//!
//! The paper evaluates a single cell (one middle tier, a handful of
//! storage servers on one switch). The ROADMAP's north star is a
//! production deployment, where replication fan-out crosses ToR uplinks
//! and the spine, both oversubscribed. This module is pure geometry and
//! capacity arithmetic: it names the shared fabric links ([`TopoLink`]),
//! gives each its capacity and each hub↔server path its propagation
//! latency, and derives the conservative-parallelism lookahead window
//! (the minimum hub↔server latency) consumed by `simkit::ShardedSim`.
//! The fluid-flow state lives with the hub (the cluster's `TopoNet`, in
//! one wake index space with the hub's fabric); this module deliberately
//! holds no mutable simulation state.

use hwmodel::consts::{NET_PROPAGATION, PORT_100G};
use simkit::{to_gbps, Time};

/// A multi-rack fabric: `racks × servers_per_rack` storage servers, one
/// ToR uplink pair per rack, one spine trunk, and the middle-tier hub
/// either inside a rack (`hub_rack = Some(r)`) or directly on the spine
/// (`hub_rack = None`, e.g. a dedicated middle-tier pod).
#[derive(Clone, Debug)]
pub struct Topology {
    /// Number of storage racks.
    pub racks: usize,
    /// Storage servers per rack.
    pub servers_per_rack: usize,
    /// Rack hosting the middle-tier hub, or `None` when the hub attaches
    /// straight to the spine layer.
    pub hub_rack: Option<usize>,
    /// One-way propagation through a ToR hop (server ↔ ToR ↔ in-rack peer).
    pub tor_latency: Time,
    /// Additional one-way propagation across the spine layer.
    pub spine_latency: Time,
    /// Capacity of each ToR uplink direction, Gbps (shared by all
    /// cross-rack traffic of that rack).
    pub tor_uplink_gbps: f64,
    /// Capacity of each spine trunk direction, Gbps (shared by all
    /// cross-rack traffic of the whole fabric).
    pub spine_gbps: f64,
}

impl Topology {
    /// A fabric of `racks × servers_per_rack` servers with paper-anchored
    /// defaults: hub in rack 0, 1.5 µs ToR hops, 1.0 µs spine crossing,
    /// 3:1 ToR oversubscription against 100 Gbps server ports, and a
    /// spine provisioned at half the aggregate uplink rate (2:1).
    pub fn new(racks: usize, servers_per_rack: usize) -> Self {
        let t = Topology {
            racks,
            servers_per_rack,
            hub_rack: Some(0),
            tor_latency: NET_PROPAGATION,
            spine_latency: Time::from_us(1.0),
            tor_uplink_gbps: servers_per_rack as f64 * to_gbps(PORT_100G) / 3.0,
            spine_gbps: racks as f64 * servers_per_rack as f64 * to_gbps(PORT_100G) / 6.0,
        };
        t.validate();
        t
    }

    /// Same fabric with explicit ToR and spine oversubscription ratios
    /// (uplink = aggregate server rate / ratio; spine = aggregate uplink
    /// rate / ratio).
    ///
    /// # Panics
    ///
    /// Panics unless both ratios are at least 1.
    pub fn with_oversubscription(mut self, tor: f64, spine: f64) -> Self {
        assert!(tor >= 1.0 && spine >= 1.0, "oversubscription below 1");
        let servers = self.servers_per_rack as f64;
        self.tor_uplink_gbps = servers * to_gbps(PORT_100G) / tor;
        self.spine_gbps = self.racks as f64 * self.tor_uplink_gbps / spine;
        self.validate();
        self
    }

    /// Same fabric with the hub moved (`None` = directly on the spine).
    pub fn with_hub_rack(mut self, rack: Option<usize>) -> Self {
        self.hub_rack = rack;
        self.validate();
        self
    }

    /// Same fabric with explicit per-hop propagation latencies.
    pub fn with_latencies(mut self, tor: Time, spine: Time) -> Self {
        self.tor_latency = tor;
        self.spine_latency = spine;
        self.validate();
        self
    }

    /// Checks the fabric invariants.
    ///
    /// # Panics
    ///
    /// Panics on an empty fabric, more racks than `u16` link indices can
    /// name, an out-of-range hub rack, non-positive capacities, or a zero
    /// ToR latency (the lookahead window would collapse).
    pub fn validate(&self) {
        assert!(self.racks > 0 && self.servers_per_rack > 0, "empty fabric");
        assert!(
            TopoLink::count(self.racks) <= 1 << 16,
            "rack links are u16-indexed: {} racks is too many",
            self.racks
        );
        if let Some(r) = self.hub_rack {
            assert!(r < self.racks, "hub rack {r} out of range");
        }
        assert!(
            self.tor_uplink_gbps > 0.0 && self.spine_gbps > 0.0,
            "link capacities must be positive"
        );
        assert!(
            self.tor_latency > Time::ZERO,
            "ToR latency must be positive (it bounds the lookahead window)"
        );
    }

    /// Total storage servers in the fabric.
    pub fn num_servers(&self) -> usize {
        self.racks * self.servers_per_rack
    }

    /// The rack holding storage server `server`.
    pub fn rack_of(&self, server: usize) -> usize {
        server / self.servers_per_rack
    }

    /// True when reaching `server` from the hub crosses the spine.
    pub fn cross_rack(&self, server: usize) -> bool {
        self.hub_rack != Some(self.rack_of(server))
    }

    /// One-way hub → server propagation: a ToR hop within the hub's rack,
    /// or ToR + spine + ToR across racks (ToR + spine when the hub sits
    /// on the spine itself).
    pub fn rpc_latency(&self, server: usize) -> Time {
        let in_rack = self.hub_rack == Some(self.rack_of(server));
        match (in_rack, self.hub_rack) {
            (true, _) => self.tor_latency,
            (false, Some(_)) => self.tor_latency + self.spine_latency + self.tor_latency,
            (false, None) => self.spine_latency + self.tor_latency,
        }
    }

    /// The conservative lookahead window for the sharded engine: the
    /// minimum one-way hub ↔ server propagation over all servers. Every
    /// cross-shard message travels at least this far in simulated time,
    /// so the barrier epoch may advance this much without violating
    /// causality. Always positive (see [`Topology::validate`]).
    pub fn min_rpc_latency(&self) -> Time {
        let mut min = self.rpc_latency(0);
        for s in 1..self.num_servers() {
            min = min.min(self.rpc_latency(s));
        }
        assert!(min > Time::ZERO, "lookahead window collapsed to zero");
        min
    }

    /// Capacity of a fabric link in bytes/s.
    pub fn capacity(&self, link: TopoLink) -> f64 {
        match link {
            TopoLink::SpineUp | TopoLink::SpineDown => simkit::gbps(self.spine_gbps),
            _ => simkit::gbps(self.tor_uplink_gbps),
        }
    }
}

/// One direction of one shared fabric link, as seen from the hub.
///
/// `Up` always means "away from the hub's side, toward the spine"; `Down`
/// means "toward the hub". Outbound replication RPCs to a remote rack `r`
/// traverse `HubUp → SpineUp → RackDown(r)`; the acknowledgement (or
/// fetched payload) returns over `RackUp(r) → SpineDown → HubDown` —
/// `HubDown` is where incast fan-in concentrates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TopoLink {
    /// The hub rack's ToR uplink, hub → spine direction.
    HubUp,
    /// The hub rack's ToR uplink, spine → hub direction (incast fan-in).
    HubDown,
    /// The spine trunk, hub-side → storage-side.
    SpineUp,
    /// The spine trunk, storage-side → hub-side.
    SpineDown,
    /// Rack `r`'s ToR uplink, rack → spine direction.
    RackUp(u16),
    /// Rack `r`'s ToR uplink, spine → rack direction.
    RackDown(u16),
}

impl TopoLink {
    /// Dense index of this link in a fabric-wide slab: the four fixed
    /// links first, then the per-rack pairs.
    pub fn index(self) -> usize {
        match self {
            TopoLink::HubUp => 0,
            TopoLink::HubDown => 1,
            TopoLink::SpineUp => 2,
            TopoLink::SpineDown => 3,
            TopoLink::RackUp(r) => 4 + 2 * r as usize,
            TopoLink::RackDown(r) => 5 + 2 * r as usize,
        }
    }

    /// Inverse of [`TopoLink::index`].
    pub fn from_index(i: usize) -> TopoLink {
        match i {
            0 => TopoLink::HubUp,
            1 => TopoLink::HubDown,
            2 => TopoLink::SpineUp,
            3 => TopoLink::SpineDown,
            n if n % 2 == 0 => TopoLink::RackUp(((n - 4) / 2) as u16),
            n => TopoLink::RackDown(((n - 5) / 2) as u16),
        }
    }

    /// Slab size for a fabric of `racks` racks.
    pub fn count(racks: usize) -> usize {
        4 + 2 * racks
    }

    /// Static display name (rack indices are carried separately).
    pub fn name(self) -> &'static str {
        match self {
            TopoLink::HubUp => "hub-up",
            TopoLink::HubDown => "hub-down",
            TopoLink::SpineUp => "spine-up",
            TopoLink::SpineDown => "spine-down",
            TopoLink::RackUp(_) => "rack-up",
            TopoLink::RackDown(_) => "rack-down",
        }
    }
}

/// Fluid-scheduler weight for a traffic class on the shared fabric links:
/// premium classes (low index) get proportionally more of a contended
/// link, mirroring the per-tenant QoS the SmartNIC hub enforces.
pub fn class_weight(class: u8) -> f64 {
    const WEIGHTS: [f64; 8] = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
    WEIGHTS[class as usize & 7]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_and_latency() {
        let t = Topology::new(4, 8);
        assert_eq!(t.num_servers(), 32);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(8), 1);
        assert!(!t.cross_rack(7));
        assert!(t.cross_rack(8));
        // In-rack: one ToR hop. Cross-rack: ToR + spine + ToR.
        assert_eq!(t.rpc_latency(0), t.tor_latency);
        assert_eq!(
            t.rpc_latency(8),
            t.tor_latency + t.spine_latency + t.tor_latency
        );
        assert_eq!(t.min_rpc_latency(), t.tor_latency);
    }

    #[test]
    fn spine_attached_hub_still_yields_positive_lookahead() {
        // Regression for the lookahead derivation: a "spine-only" fabric
        // (hub directly on the spine, so no in-rack short path exists)
        // must still produce a strictly positive window, even with a
        // zero-latency spine crossing — the ToR hop bounds it below.
        let t = Topology::new(3, 4)
            .with_hub_rack(None)
            .with_latencies(NET_PROPAGATION, Time::ZERO);
        for s in 0..t.num_servers() {
            assert!(t.cross_rack(s));
            assert_eq!(t.rpc_latency(s), NET_PROPAGATION);
        }
        assert!(t.min_rpc_latency() > Time::ZERO);
        assert_eq!(t.min_rpc_latency(), NET_PROPAGATION);
    }

    #[test]
    fn oversubscription_scales_capacity() {
        let t = Topology::new(2, 10).with_oversubscription(4.0, 2.0);
        assert!((t.tor_uplink_gbps - 250.0).abs() < 1e-9);
        assert!((t.spine_gbps - 250.0).abs() < 1e-9);
        assert!(t.capacity(TopoLink::HubUp) > 0.0);
        assert!(t.capacity(TopoLink::SpineUp) > 0.0);
    }

    #[test]
    fn link_index_round_trips() {
        for racks in [1usize, 3, 40] {
            for i in 0..TopoLink::count(racks) {
                let l = TopoLink::from_index(i);
                assert_eq!(l.index(), i, "{l:?}");
                assert!(!l.name().is_empty());
            }
        }
        assert_eq!(TopoLink::RackDown(2).index(), 9);
    }

    #[test]
    fn class_weights_are_monotone() {
        for c in 0..7u8 {
            assert!(class_weight(c) > class_weight(c + 1));
        }
    }

    #[test]
    #[should_panic(expected = "hub rack")]
    fn hub_rack_out_of_range_panics() {
        Topology::new(2, 2).with_hub_rack(Some(5));
    }

    #[test]
    #[should_panic(expected = "ToR latency")]
    fn zero_tor_latency_panics() {
        Topology::new(2, 2).with_latencies(Time::ZERO, Time::from_us(1.0));
    }
}
