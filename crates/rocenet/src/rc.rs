//! The reliable-connection (RC) wire protocol: packetization, 24-bit PSNs,
//! acknowledgements, and go-back-N retransmission.
//!
//! The paper's transport is "typically RDMA or a variant" whose reliability
//! the middle tier simply assumes (§2.2.1) — on SmartDS it is implemented
//! *in hardware* inside the extended RoCE stack. This module is that state
//! machine: a sender that segments messages into MTU packets under a
//! bounded window and rewinds on loss, and a receiver that accepts strictly
//! in order, NAKs gaps, re-acks duplicates, and reassembles messages
//! exactly once. The property tests in `tests/rc_props.rs` drive both ends
//! through arbitrary loss/duplication patterns and assert exactly-once
//! in-order delivery — the guarantee everything above relies on.
//!
//! Timing is intentionally absent: the cluster simulation models bandwidth
//! with fluid flows, while this layer pins down protocol *correctness*.

use crate::message::Message;
use simkit::Bytes;
use std::collections::VecDeque;

/// 24-bit packet sequence number with wrapping comparison (RoCE BTH PSN).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Psn(u32);

const PSN_MASK: u32 = 0x00FF_FFFF;

impl Psn {
    /// A PSN from a raw value (masked to 24 bits).
    pub fn new(v: u32) -> Self {
        Psn(v & PSN_MASK)
    }

    /// Raw 24-bit value.
    pub fn value(self) -> u32 {
        self.0
    }

    /// The next PSN, wrapping at 2²⁴.
    #[must_use]
    pub fn next(self) -> Psn {
        Psn((self.0 + 1) & PSN_MASK)
    }

    /// Serial-number distance `self → other` in the 24-bit circle,
    /// interpreted as "how far ahead is other" (0 ≤ d < 2²⁴).
    fn distance_to(self, other: Psn) -> u32 {
        (other.0.wrapping_sub(self.0)) & PSN_MASK
    }

    /// True if `self` precedes `other` within half the sequence space.
    pub fn before(self, other: Psn) -> bool {
        let d = self.distance_to(other);
        const HALF_SPACE: u32 = PSN_MASK.div_ceil(2);
        d != 0 && d < HALF_SPACE
    }
}

/// Position of a packet within its message (BTH opcode class).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Position {
    /// First packet of a multi-packet message.
    First,
    /// Interior packet.
    Middle,
    /// Final packet of a multi-packet message.
    Last,
    /// Entire message in one packet.
    Only,
}

/// A data packet on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataPacket {
    /// Sequence number.
    pub psn: Psn,
    /// Message position marker.
    pub position: Position,
    /// Work-request id of the originating send (carried for completion
    /// bookkeeping; real RoCE recovers this from the send queue instead).
    pub wr_id: u64,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Control packets returned by the receiver.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Control {
    /// Cumulative acknowledgement: everything up to and including `psn`.
    Ack(Psn),
    /// Out-of-sequence NAK: retransmit from `expected`.
    Nak {
        /// The PSN the receiver expects next.
        expected: Psn,
    },
    /// Receiver-not-ready: no buffer posted; retransmit from `expected`
    /// after backoff.
    RnrNak {
        /// The PSN the receiver expects next.
        expected: Psn,
    },
}

/// The sending half of an RC connection.
#[derive(Debug)]
pub struct RcSender {
    mtu: usize,
    window: usize,
    next_psn: Psn,
    /// Oldest unacknowledged PSN.
    una: Psn,
    /// Unacknowledged packets, oldest first (retransmit buffer).
    unacked: VecDeque<DataPacket>,
    /// Cursor into `unacked` for the next (re)transmission.
    resend_cursor: usize,
    /// Messages not yet fully packetized.
    queue: VecDeque<(u64, Message)>,
    /// Partial packetization state of the queue head: next offset.
    head_offset: usize,
    completed: Vec<u64>,
    retransmissions: u64,
}

impl RcSender {
    /// A sender with the given MTU and window (max unacked packets).
    ///
    /// # Panics
    ///
    /// Panics if `mtu` or `window` is zero.
    pub fn new(mtu: usize, window: usize, initial_psn: Psn) -> Self {
        assert!(mtu > 0, "mtu must be positive");
        assert!(window > 0, "window must be positive");
        RcSender {
            mtu,
            window,
            next_psn: initial_psn,
            una: initial_psn,
            unacked: VecDeque::new(),
            resend_cursor: 0,
            queue: VecDeque::new(),
            head_offset: 0,
            completed: Vec::new(),
            retransmissions: 0,
        }
    }

    /// Queues a message for transmission.
    pub fn post(&mut self, wr_id: u64, msg: Message) {
        self.queue.push_back((wr_id, msg));
    }

    /// Packets currently unacknowledged.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Total retransmitted packets (loss-recovery cost metric).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.unacked.is_empty()
    }

    /// Produces the next packet to put on the wire: first any pending
    /// retransmissions (after a NAK/timeout rewound the cursor), then new
    /// packets while the window has room.
    pub fn poll_tx(&mut self) -> Option<DataPacket> {
        // Retransmission path: cursor behind the in-flight tail.
        if self.resend_cursor < self.unacked.len() {
            let pkt = self.unacked[self.resend_cursor].clone();
            self.resend_cursor += 1;
            return Some(pkt);
        }
        // New data path, window permitting.
        if self.unacked.len() >= self.window {
            return None;
        }
        let (wr_id, msg) = self.queue.front()?;
        let wr_id = *wr_id;
        let total = msg.len();
        let start = self.head_offset;
        let end = (start + self.mtu).min(total);
        let mut m = msg.clone();
        let _ = m.split_prefix(start);
        let chunk = m.split_prefix(end - start);
        let position = match (start == 0, end == total) {
            (true, true) => Position::Only,
            (true, false) => Position::First,
            (false, false) => Position::Middle,
            (false, true) => Position::Last,
        };
        let pkt = DataPacket {
            psn: self.next_psn,
            position,
            wr_id,
            payload: chunk.to_bytes(),
        };
        self.next_psn = self.next_psn.next();
        if end == total {
            self.queue.pop_front();
            self.head_offset = 0;
        } else {
            self.head_offset = end;
        }
        self.unacked.push_back(pkt.clone());
        self.resend_cursor = self.unacked.len();
        Some(pkt)
    }

    /// Handles a control packet from the peer. Completed work-request ids
    /// accumulate and are drained with [`RcSender::take_completed`].
    pub fn on_control(&mut self, ctrl: Control) {
        match ctrl {
            Control::Ack(psn) => {
                // Cumulative: retire everything at or before `psn`.
                while let Some(front) = self.unacked.front() {
                    if front.psn == psn || front.psn.before(psn) {
                        let pkt = self.unacked.pop_front().expect("front exists");
                        self.una = pkt.psn.next();
                        if matches!(pkt.position, Position::Last | Position::Only) {
                            self.completed.push(pkt.wr_id);
                        }
                        self.resend_cursor = self.resend_cursor.saturating_sub(1);
                    } else {
                        break;
                    }
                }
            }
            Control::Nak { expected } | Control::RnrNak { expected } => {
                // Go-back-N: retire implicitly acked prefix, rewind cursor.
                self.on_control(Control::Ack(prev_psn(expected)));
                let before = self.resend_cursor;
                self.resend_cursor = 0;
                self.retransmissions += before.min(self.unacked.len()) as u64;
            }
        }
    }

    /// Retransmission timeout: resend everything unacknowledged.
    pub fn on_timeout(&mut self) {
        self.retransmissions += self.resend_cursor.min(self.unacked.len()) as u64;
        self.resend_cursor = 0;
    }

    /// Drains the work-request ids whose final packet has been acked.
    pub fn take_completed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.completed)
    }
}

fn prev_psn(p: Psn) -> Psn {
    Psn((p.value().wrapping_sub(1)) & PSN_MASK)
}

/// What the receiver wants done after a data packet arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RxAction {
    /// Send this control packet back.
    Reply(Control),
    /// Deliver a fully reassembled message, then send the control packet.
    Deliver {
        /// Originating work-request id.
        wr_id: u64,
        /// The reassembled message.
        msg: Message,
        /// The acknowledgement to return.
        reply: Control,
    },
}

/// The receiving half of an RC connection.
#[derive(Debug)]
pub struct RcReceiver {
    expected: Psn,
    assembling: Vec<Bytes>,
    /// Buffers available (0 simulates receiver-not-ready).
    credits: usize,
    delivered: u64,
    duplicates: u64,
}

impl RcReceiver {
    /// A receiver expecting `initial_psn` first, with `credits` posted
    /// receive buffers.
    pub fn new(initial_psn: Psn, credits: usize) -> Self {
        RcReceiver {
            expected: initial_psn,
            assembling: Vec::new(),
            credits,
            delivered: 0,
            duplicates: 0,
        }
    }

    /// Posts another receive buffer (lifts an RNR condition).
    pub fn add_credit(&mut self) {
        self.credits += 1;
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Duplicate packets observed (re-acked and dropped).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Processes one data packet.
    pub fn on_packet(&mut self, pkt: &DataPacket) -> RxAction {
        if pkt.psn != self.expected {
            if pkt.psn.before(self.expected) {
                // Duplicate of something already received: re-ack so the
                // sender can advance if our previous ack was lost.
                self.duplicates += 1;
                return RxAction::Reply(Control::Ack(prev_psn(self.expected)));
            }
            // Gap: go-back-N NAK.
            return RxAction::Reply(Control::Nak {
                expected: self.expected,
            });
        }
        // New messages need a posted buffer.
        if matches!(pkt.position, Position::First | Position::Only) && self.credits == 0 {
            return RxAction::Reply(Control::RnrNak {
                expected: self.expected,
            });
        }
        self.expected = self.expected.next();
        match pkt.position {
            Position::First => {
                self.assembling.clear();
                self.assembling.push(pkt.payload.clone());
                RxAction::Reply(Control::Ack(pkt.psn))
            }
            Position::Middle => {
                self.assembling.push(pkt.payload.clone());
                RxAction::Reply(Control::Ack(pkt.psn))
            }
            Position::Last | Position::Only => {
                let mut msg = Message::new();
                if pkt.position == Position::Last {
                    for seg in self.assembling.drain(..) {
                        msg.append(seg);
                    }
                }
                msg.append(pkt.payload.clone());
                self.credits -= 1;
                self.delivered += 1;
                RxAction::Deliver {
                    wr_id: pkt.wr_id,
                    msg,
                    reply: Control::Ack(pkt.psn),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(n: usize, tag: u8) -> Message {
        Message::from_bytes(vec![tag; n])
    }

    /// Runs sender→receiver until idle over a perfect channel.
    fn run_clean(tx: &mut RcSender, rx: &mut RcReceiver) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        let mut guard = 0;
        while !tx.is_idle() {
            guard += 1;
            assert!(guard < 100_000, "no progress");
            if let Some(pkt) = tx.poll_tx() {
                match rx.on_packet(&pkt) {
                    RxAction::Reply(c) => tx.on_control(c),
                    RxAction::Deliver { wr_id, msg, reply } => {
                        out.push((wr_id, msg.to_bytes().to_vec()));
                        tx.on_control(reply);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn psn_wrapping_comparison() {
        let a = Psn::new(0xFF_FFFF);
        let b = a.next();
        assert_eq!(b.value(), 0);
        assert!(a.before(b));
        assert!(!b.before(a));
        assert_eq!(a.distance_to(b), 1);
    }

    #[test]
    fn single_packet_message() {
        let mut tx = RcSender::new(4096, 8, Psn::new(0));
        let mut rx = RcReceiver::new(Psn::new(0), 16);
        tx.post(7, msg(100, 1));
        let got = run_clean(&mut tx, &mut rx);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 7);
        assert_eq!(got[0].1, vec![1u8; 100]);
        assert_eq!(tx.take_completed(), vec![7]);
        assert_eq!(tx.retransmissions(), 0);
    }

    #[test]
    fn multi_packet_segmentation_and_reassembly() {
        let mut tx = RcSender::new(1000, 4, Psn::new(100));
        let mut rx = RcReceiver::new(Psn::new(100), 16);
        let data: Vec<u8> = (0..10_000).map(|i| i as u8).collect();
        tx.post(1, Message::from_bytes(data.clone()));
        let got = run_clean(&mut tx, &mut rx);
        assert_eq!(got[0].1, data);
    }

    #[test]
    fn window_limits_inflight() {
        let mut tx = RcSender::new(100, 3, Psn::new(0));
        tx.post(1, msg(1000, 9)); // 10 packets
        assert!(tx.poll_tx().is_some());
        assert!(tx.poll_tx().is_some());
        assert!(tx.poll_tx().is_some());
        assert!(tx.poll_tx().is_none(), "window of 3 must block the 4th");
        tx.on_control(Control::Ack(Psn::new(0)));
        assert!(tx.poll_tx().is_some());
    }

    #[test]
    fn lost_packet_recovered_by_nak() {
        let mut tx = RcSender::new(100, 8, Psn::new(0));
        let mut rx = RcReceiver::new(Psn::new(0), 16);
        tx.post(1, msg(250, 5)); // 3 packets
        let p0 = tx.poll_tx().unwrap();
        let _p1_lost = tx.poll_tx().unwrap();
        let p2 = tx.poll_tx().unwrap();
        // p0 arrives fine.
        tx.on_control(match rx.on_packet(&p0) {
            RxAction::Reply(c) => c,
            _ => panic!(),
        });
        // p2 arrives out of order → NAK(expected=1).
        let nak = match rx.on_packet(&p2) {
            RxAction::Reply(c) => c,
            _ => panic!(),
        };
        assert_eq!(nak, Control::Nak { expected: Psn::new(1) });
        tx.on_control(nak);
        // Go-back-N: sender resends PSN 1 then 2.
        let r1 = tx.poll_tx().unwrap();
        assert_eq!(r1.psn, Psn::new(1));
        let r2 = tx.poll_tx().unwrap();
        assert_eq!(r2.psn, Psn::new(2));
        assert!(tx.retransmissions() > 0);
        match rx.on_packet(&r1) {
            RxAction::Reply(c) => tx.on_control(c),
            _ => panic!(),
        }
        match rx.on_packet(&r2) {
            RxAction::Deliver { msg, .. } => assert_eq!(msg.len(), 250),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_packets_are_reacked_not_redelivered() {
        let mut tx = RcSender::new(4096, 8, Psn::new(0));
        let mut rx = RcReceiver::new(Psn::new(0), 16);
        tx.post(1, msg(64, 3));
        let pkt = tx.poll_tx().unwrap();
        let first = rx.on_packet(&pkt);
        assert!(matches!(first, RxAction::Deliver { .. }));
        // The same packet again: duplicate, re-ack only.
        let again = rx.on_packet(&pkt);
        assert_eq!(again, RxAction::Reply(Control::Ack(Psn::new(0))));
        assert_eq!(rx.delivered(), 1);
        assert_eq!(rx.duplicates(), 1);
    }

    #[test]
    fn rnr_stalls_until_credit_posted() {
        let mut tx = RcSender::new(4096, 8, Psn::new(0));
        let mut rx = RcReceiver::new(Psn::new(0), 0); // no buffers posted
        tx.post(1, msg(64, 2));
        let pkt = tx.poll_tx().unwrap();
        let r = rx.on_packet(&pkt);
        assert_eq!(r, RxAction::Reply(Control::RnrNak { expected: Psn::new(0) }));
        tx.on_control(match r {
            RxAction::Reply(c) => c,
            _ => unreachable!(),
        });
        rx.add_credit();
        let retry = tx.poll_tx().unwrap();
        assert_eq!(retry.psn, Psn::new(0));
        assert!(matches!(rx.on_packet(&retry), RxAction::Deliver { .. }));
    }

    #[test]
    fn timeout_resends_window() {
        let mut tx = RcSender::new(100, 4, Psn::new(0));
        tx.post(1, msg(400, 1));
        for _ in 0..4 {
            tx.poll_tx().unwrap();
        }
        assert!(tx.poll_tx().is_none());
        tx.on_timeout();
        // All four come out again, in order.
        for i in 0..4 {
            assert_eq!(tx.poll_tx().unwrap().psn, Psn::new(i));
        }
    }

    #[test]
    fn many_messages_complete_in_order() {
        let mut tx = RcSender::new(512, 6, Psn::new(0xFF_FFF0)); // crosses wrap
        let mut rx = RcReceiver::new(Psn::new(0xFF_FFF0), 64);
        for i in 0..20 {
            tx.post(i, msg(700 + i as usize * 13, i as u8));
        }
        let got = run_clean(&mut tx, &mut rx);
        let ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
        let done = tx.take_completed();
        assert_eq!(done, (0..20).collect::<Vec<_>>());
    }
}
