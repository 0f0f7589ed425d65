//! # blockstore — the disaggregated block-storage substrate
//!
//! Everything below the middle tier in the paper's Figure 2:
//!
//! * [`Header`] — the 64-byte block-storage message header (CRC-protected),
//!   the part of every message that AAMS steers to the host CPU.
//! * [`VdLayout`] — LBA → segment → chunk → block mapping (32 GB / 64 MB /
//!   4 KiB geometry).
//! * [`ChunkStore`] — append-only block logs with LSM-style compaction,
//!   garbage collection, and snapshots (the maintenance services of §2.2.3).
//! * [`StorageServer`] + [`DiskModel`] — storage nodes with NVMe-class
//!   timing and fail-over switches.
//! * [`ReplicaSelector`] + [`QuorumTracker`] — three-way replica placement
//!   and all-ack write quorums (§2.2.1).
//! * [`Scrubber`] — the periodical data-scrubbing service (§2.1): checksum
//!   verification and repair from healthy replicas.
//!
//! ```
//! use blockstore::{Header, Op, StoredBlock, StorageServer, ServerId};
//!
//! let mut server = StorageServer::new(ServerId(0), 1000);
//! let block = vec![7u8; 4096];
//! let packed = lz4kit::compress(&block);
//! server.append((0, 0), 42, StoredBlock::lz4(packed, 4096));
//! let read_back = server.fetch((0, 0), 42).unwrap().expand()?;
//! assert_eq!(read_back, block);
//!
//! let h = Header::write(1, 99, 0, 42, 4096);
//! assert_eq!(Header::decode(&h.encode()).unwrap().op, Op::Write);
//! # Ok::<(), lz4kit::DecompressError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
mod header;
mod mapping;
mod replica;
mod scrub;
mod server;

pub use chunk::{ChunkStore, CompactionStats, Snapshot, StoredBlock};
pub use header::{crc32, Header, HeaderError, Op, HEADER_LEN};
pub use mapping::{BlockAddr, VdLayout};
pub use replica::{QuorumTracker, ReplicaSelector, ReplicaSet, MAX_REPLICAS};
pub use scrub::{ScrubFinding, ScrubReason, ScrubStats, Scrubber};
pub use server::{ChunkKey, DiskModel, ServerId, StorageServer};
