//! A complete RoCE endpoint: queue pairs running the RC wire protocol with
//! AAMS placement at the receive side.
//!
//! This composes the crate's layers the way the SmartDS hardware does
//! (Figure 5): per-QP [`RcSender`]/[`RcReceiver`] state machines provide
//! reliability, and every fully reassembled message is placed through the
//! Split module against the QP's posted [`RecvDesc`]s — header bytes into
//! the host pool, payload bytes into the device pool. The unit tests run
//! two endpoints against each other over a lossy wire and verify split
//! placements byte-for-byte.
//!
//! **Wakeup discipline.** Endpoints are driven entirely by explicit
//! packet/timer events from the surrounding driver — they own no
//! [`simkit::FluidResource`] and therefore schedule no fluid wakeups.
//! All fluid arming in the system goes through a [`simkit::WakeSet`]
//! (the cluster hub's, over its fabric and rack links), which keeps at
//! most one armed heap entry per resource; keeping this crate
//! wakeup-free is what makes that invariant checkable in one place.

use crate::aams::{split_into, AamsError, RecvDesc, RecvTable, SplitPlacement};
use crate::mem::MemPool;
use crate::message::Message;
use crate::rc::{Control, DataPacket, Psn, RcReceiver, RcSender, RxAction};
use std::collections::BTreeMap;

/// A queue pair number local to one endpoint.
pub type Qpn = u32;

/// Events an endpoint reports upward after digesting wire input.
#[derive(Debug, PartialEq, Eq)]
pub enum EndpointEvent {
    /// A send completed (final packet acknowledged).
    SendDone {
        /// The QP it completed on.
        qpn: Qpn,
        /// The work-request id given to [`Endpoint::post_send`].
        wr_id: u64,
    },
    /// A message arrived and was split-placed per the posted descriptor.
    RecvDone {
        /// The QP it arrived on.
        qpn: Qpn,
        /// Where the bytes went.
        placement: SplitPlacement,
    },
    /// A message arrived but could not be placed (no descriptor posted or
    /// descriptor too small). The message is dropped at the application
    /// layer; transport-level delivery already succeeded.
    RecvError {
        /// The QP it arrived on.
        qpn: Qpn,
        /// Why placement failed.
        error: AamsError,
    },
}

struct QpState {
    tx: RcSender,
    rx: RcReceiver,
}

/// One node's RoCE instance: QPs + descriptor table + memory pools.
///
/// Queue pairs live in a `BTreeMap`: any whole-endpoint sweep (idle polls,
/// metrics, [`Endpoint::qpns`]) visits QPs in numeric order, keeping
/// simulation reports byte-identical run to run.
pub struct Endpoint {
    qps: BTreeMap<Qpn, QpState>,
    recv_table: RecvTable,
    /// Host memory (headers land here).
    pub host: MemPool,
    /// Device memory (payloads land here).
    pub dev: MemPool,
    mtu: usize,
    window: usize,
}

impl Endpoint {
    /// An endpoint with the given pools and transport parameters.
    pub fn new(host: MemPool, dev: MemPool, mtu: usize, window: usize) -> Self {
        Endpoint {
            qps: BTreeMap::new(),
            recv_table: RecvTable::new(),
            host,
            dev,
            mtu,
            window,
        }
    }

    /// Creates (connects) queue pair `qpn`. Both sides must use the same
    /// initial PSN, as the RC handshake establishes.
    ///
    /// # Panics
    ///
    /// Panics if `qpn` already exists.
    pub fn create_qp(&mut self, qpn: Qpn, initial_psn: Psn) {
        let prev = self.qps.insert(
            qpn,
            QpState {
                tx: RcSender::new(self.mtu, self.window, initial_psn),
                rx: RcReceiver::new(initial_psn, usize::MAX / 2),
            },
        );
        assert!(prev.is_none(), "qp {qpn} already exists");
    }

    /// Posts a receive descriptor for `qpn` (the `dev_mixed_recv` half).
    pub fn post_recv(&mut self, qpn: Qpn, desc: RecvDesc) {
        self.recv_table.post(qpn, desc);
    }

    /// Posts a message send on `qpn` (the `dev_mixed_send` half, already
    /// assembled).
    ///
    /// # Panics
    ///
    /// Panics for an unknown QP.
    pub fn post_send(&mut self, qpn: Qpn, wr_id: u64, msg: Message) {
        self.qps
            .get_mut(&qpn)
            .unwrap_or_else(|| panic!("unknown qp {qpn}"))
            .tx
            .post(wr_id, msg);
    }

    /// Pulls the next data packet to transmit on `qpn`, if any.
    pub fn poll_tx(&mut self, qpn: Qpn) -> Option<DataPacket> {
        self.qps.get_mut(&qpn)?.tx.poll_tx()
    }

    /// Delivers a data packet from the wire; returns the control reply to
    /// send back plus any application events.
    ///
    /// # Panics
    ///
    /// Panics for an unknown QP.
    pub fn on_data(&mut self, qpn: Qpn, pkt: &DataPacket) -> (Control, Vec<EndpointEvent>) {
        let qp = self
            .qps
            .get_mut(&qpn)
            .unwrap_or_else(|| panic!("unknown qp {qpn}"));
        match qp.rx.on_packet(pkt) {
            RxAction::Reply(c) => (c, Vec::new()),
            RxAction::Deliver { msg, reply, .. } => {
                let ev = match self.recv_table.take(qpn) {
                    Err(e) => EndpointEvent::RecvError { qpn, error: e },
                    Ok(desc) => {
                        match split_into(&msg, &desc, &mut self.host, &mut self.dev) {
                            Ok(placement) => EndpointEvent::RecvDone { qpn, placement },
                            Err(error) => EndpointEvent::RecvError { qpn, error },
                        }
                    }
                };
                (reply, vec![ev])
            }
        }
    }

    /// Delivers a control packet from the wire; returns completed sends.
    ///
    /// # Panics
    ///
    /// Panics for an unknown QP.
    pub fn on_control(&mut self, qpn: Qpn, ctrl: Control) -> Vec<EndpointEvent> {
        let qp = self
            .qps
            .get_mut(&qpn)
            .unwrap_or_else(|| panic!("unknown qp {qpn}"));
        qp.tx.on_control(ctrl);
        qp.tx
            .take_completed()
            .into_iter()
            .map(|wr_id| EndpointEvent::SendDone { qpn, wr_id })
            .collect()
    }

    /// Retransmission timeout on `qpn`.
    ///
    /// # Panics
    ///
    /// Panics for an unknown QP.
    pub fn on_timeout(&mut self, qpn: Qpn) {
        self.qps
            .get_mut(&qpn)
            .unwrap_or_else(|| panic!("unknown qp {qpn}"))
            .tx
            .on_timeout();
    }

    /// True when `qpn` has nothing queued or in flight.
    pub fn is_idle(&self, qpn: Qpn) -> bool {
        self.qps.get(&qpn).is_none_or(|q| q.tx.is_idle())
    }

    /// Connected queue pairs, in deterministic ascending order.
    pub fn qpns(&self) -> impl Iterator<Item = Qpn> + '_ {
        self.qps.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aams::SendDesc;
    use crate::assemble_from;

    fn endpoint() -> Endpoint {
        Endpoint::new(
            MemPool::new("host", 1 << 16),
            MemPool::new("dev", 1 << 20),
            1024,
            4,
        )
    }

    /// Shuttles packets between two endpoints on one QP until both idle,
    /// dropping data packets whose index is in `drops`.
    fn shuttle(a: &mut Endpoint, b: &mut Endpoint, qpn: Qpn, drops: &[u64]) -> Vec<EndpointEvent> {
        let mut events = Vec::new();
        let mut sent = 0u64;
        let mut idle_rounds = 0;
        fn step(
            tx: &mut Endpoint,
            rx: &mut Endpoint,
            qpn: Qpn,
            drops: &[u64],
            sent: &mut u64,
            events: &mut Vec<EndpointEvent>,
        ) -> bool {
            let Some(pkt) = tx.poll_tx(qpn) else {
                return false;
            };
            *sent += 1;
            if drops.contains(sent) {
                return true; // lost on the wire
            }
            let (ctrl, mut evs) = rx.on_data(qpn, &pkt);
            events.append(&mut evs);
            events.append(&mut tx.on_control(qpn, ctrl));
            true
        }
        while !(a.is_idle(qpn) && b.is_idle(qpn)) {
            let mut progress = false;
            progress |= step(a, b, qpn, drops, &mut sent, &mut events);
            progress |= step(b, a, qpn, drops, &mut sent, &mut events);
            if !progress {
                idle_rounds += 1;
                assert!(idle_rounds < 16, "livelock");
                a.on_timeout(qpn);
                b.on_timeout(qpn);
            } else {
                idle_rounds = 0;
            }
        }
        events
    }

    #[test]
    fn end_to_end_split_placement_over_the_wire() {
        let mut a = endpoint();
        let mut b = endpoint();
        a.create_qp(1, Psn::new(0));
        b.create_qp(1, Psn::new(0));
        // Receiver posts a split descriptor: 64 B header → host, rest → dev.
        let h = b.host.alloc(64).unwrap();
        let d = b.dev.alloc(8192).unwrap();
        b.post_recv(1, RecvDesc::split(9, h, 64, d));
        // Sender posts a 64 B + 4 KiB message (crosses several MTUs).
        let msg = Message::header_payload(vec![0xAA; 64], vec![0xBB; 4096]);
        a.post_send(1, 7, msg);
        let events = shuttle(&mut a, &mut b, 1, &[]);
        assert!(events.contains(&EndpointEvent::SendDone { qpn: 1, wr_id: 7 }));
        let placed = events
            .iter()
            .find_map(|e| match e {
                EndpointEvent::RecvDone { placement, .. } => Some(placement.clone()),
                _ => None,
            })
            .expect("placement event");
        assert_eq!(placed.host_bytes, 64);
        assert_eq!(placed.dev_bytes, 4096);
        assert!(b.host.read(h, 0, 64).unwrap().iter().all(|&x| x == 0xAA));
        assert!(b.dev.read(d, 0, 4096).unwrap().iter().all(|&x| x == 0xBB));
    }

    #[test]
    fn split_placement_survives_packet_loss() {
        let mut a = endpoint();
        let mut b = endpoint();
        a.create_qp(1, Psn::new(500));
        b.create_qp(1, Psn::new(500));
        let h = b.host.alloc(64).unwrap();
        let d = b.dev.alloc(8192).unwrap();
        b.post_recv(1, RecvDesc::split(1, h, 64, d));
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        a.post_send(1, 1, Message::header_payload(vec![5; 64], payload.clone()));
        // Drop the 2nd and 4th packets on the wire.
        let events = shuttle(&mut a, &mut b, 1, &[2, 4]);
        assert!(events
            .iter()
            .any(|e| matches!(e, EndpointEvent::RecvDone { .. })));
        assert_eq!(&b.dev.read(d, 0, 4096).unwrap()[..], &payload[..]);
    }

    #[test]
    fn missing_descriptor_surfaces_as_recv_error() {
        let mut a = endpoint();
        let mut b = endpoint();
        a.create_qp(2, Psn::new(0));
        b.create_qp(2, Psn::new(0));
        a.post_send(2, 1, Message::from_bytes(vec![1; 128]));
        let events = shuttle(&mut a, &mut b, 2, &[]);
        assert!(events.iter().any(|e| matches!(
            e,
            EndpointEvent::RecvError {
                error: AamsError::ReceiverNotReady,
                ..
            }
        )));
    }

    #[test]
    fn assembled_send_splits_back_identically() {
        // Full AAMS circle: assemble from two pools on node A, wire-transfer,
        // split into two pools on node B.
        let mut a = endpoint();
        let mut b = endpoint();
        a.create_qp(3, Psn::new(0));
        b.create_qp(3, Psn::new(0));
        let ah = a.host.alloc(64).unwrap();
        let ad = a.dev.alloc(2000).unwrap();
        a.host.write(ah, 0, &[9u8; 64]).unwrap();
        let payload: Vec<u8> = (0..2000u32).map(|i| (i % 199) as u8).collect();
        a.dev.write(ad, 0, &payload).unwrap();
        let msg = assemble_from(
            &SendDesc {
                wr_id: 0,
                h_buf: ah,
                h_size: 64,
                d_buf: Some(ad),
                d_size: 2000,
            },
            &a.host,
            &a.dev,
        )
        .unwrap();
        let bh = b.host.alloc(64).unwrap();
        let bd = b.dev.alloc(4096).unwrap();
        b.post_recv(3, RecvDesc::split(0, bh, 64, bd));
        a.post_send(3, 0, msg);
        shuttle(&mut a, &mut b, 3, &[1]);
        assert!(b.host.read(bh, 0, 64).unwrap().iter().all(|&x| x == 9));
        assert_eq!(&b.dev.read(bd, 0, 2000).unwrap()[..], &payload[..]);
    }
}
