//! # rocenet — simulated RoCE transport with application-aware message split
//!
//! A functional model of the network layer the SmartDS prototype implements
//! in FPGA logic:
//!
//! * [`MemPool`] / [`Region`] — host and device address spaces with real
//!   bytes (the paper's `host_alloc` / `dev_alloc`).
//! * [`Message`] — zero-copy byte ropes for RDMA messages.
//! * [`aams`] — the Split and Assemble modules plus the per-QP
//!   [`RecvTable`], implementing message-granularity header/payload split
//!   exactly as §4.1 describes.
//! * [`rc`] — the reliable-connection wire protocol itself: MTU
//!   packetization, 24-bit PSNs, cumulative ACKs, go-back-N NAK recovery,
//!   and RNR handling, property-tested for exactly-once in-order delivery
//!   under arbitrary loss.
//! * [`endpoint`] — the composed NIC: per-QP RC state machines feeding the
//!   Split module, tested end to end across a lossy wire.
//!
//! Timing (wire serialization, PCIe DMA, HBM writes) is charged by the
//! cluster driver in the `smartds` crate using `hwmodel` resources; this
//! crate guarantees the *semantics*: split ∘ assemble is the identity, RC
//! connections deliver in order, and every placement is bounds-checked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aams;
pub mod endpoint;
mod mem;
mod message;
pub mod rc;

pub use aams::{
    assemble_from, split_into, AamsError, RecvDesc, RecvTable, SendDesc, SplitPlacement,
};
pub use mem::{MemError, MemPool, Region};
pub use message::Message;

/// A completion event reported to the application (the `poll(event)` side
/// of the paper's API).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The work-request id of the completed operation.
    pub wr_id: u64,
    /// Bytes received/sent/produced by the operation.
    pub len: usize,
    /// What completed.
    pub kind: CompletionKind,
}

/// The kind of completed operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CompletionKind {
    /// A (possibly split) receive finished placing its message.
    Recv,
    /// A (possibly assembled) send left the node and was acknowledged.
    Send,
    /// An offloaded engine function finished (`dev_func`).
    Engine,
}
