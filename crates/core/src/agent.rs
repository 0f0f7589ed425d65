//! The compute-server storage agent: virtual disks over the middle tier.
//!
//! §2.1/Figure 2: VMs address a virtual disk in logical blocks; a *storage
//! agent* on the compute server forwards each I/O "to the corresponding
//! middle-tier server" that owns the target segment. This module is that
//! layer — the piece a downstream adopter actually programs against:
//!
//! * [`MiddleTierService`] — what a middle-tier server offers the agent
//!   (block writes/reads with durability semantics).
//! * [`FunctionalMiddleTier`] — an in-process middle tier built on the real
//!   SmartDS device API: split receive, device LZ4, 3-way replication into
//!   real [`StorageServer`]s.
//! * [`ClusterMap`] — segment → middle-tier routing.
//! * [`VirtualDisk`] — byte-addressed reads/writes of any length and
//!   alignment, decomposed into aligned block I/O with read-modify-write.

use crate::api::{ApiError, EngineKind, RemotePeer, SmartDs};
use blockstore::{
    Header, HeaderError, Op, ReplicaSelector, Scrubber, ServerId, StorageServer, StoredBlock,
    VdLayout, HEADER_LEN,
};
use rocenet::Message;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors surfaced by the agent layer.
#[derive(Debug)]
pub enum AgentError {
    /// The target segment has no middle-tier server in the cluster map.
    NoRoute {
        /// The unrouted segment.
        segment: u64,
    },
    /// The middle tier could not place enough replicas.
    Underreplicated,
    /// A read targeted a block that was never written.
    NotFound {
        /// Logical block address.
        lba: u64,
    },
    /// Device API failure.
    Api(ApiError),
    /// A header failed to parse (protocol corruption).
    Header(HeaderError),
    /// Stored data failed to decompress.
    Corrupt(lz4kit::DecompressError),
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::NoRoute { segment } => {
                write!(f, "segment {segment} has no middle-tier route")
            }
            AgentError::Underreplicated => write!(f, "not enough healthy storage servers"),
            AgentError::NotFound { lba } => write!(f, "block at lba {lba} was never written"),
            AgentError::Api(e) => write!(f, "device API error: {e}"),
            AgentError::Header(e) => write!(f, "header error: {e}"),
            AgentError::Corrupt(e) => write!(f, "stored block corrupt: {e}"),
        }
    }
}

impl Error for AgentError {}

impl From<ApiError> for AgentError {
    fn from(e: ApiError) -> Self {
        AgentError::Api(e)
    }
}

impl From<HeaderError> for AgentError {
    fn from(e: HeaderError) -> Self {
        AgentError::Header(e)
    }
}

/// What a middle-tier server offers the storage agent.
pub trait MiddleTierService {
    /// Durably writes one block (replicated before returning).
    ///
    /// # Errors
    ///
    /// Implementations return [`AgentError`] on placement or protocol
    /// failures.
    fn write_block(
        &mut self,
        vm_id: u32,
        segment: u64,
        block_index: u64,
        data: &[u8],
    ) -> Result<(), AgentError>;

    /// Reads one block back.
    ///
    /// # Errors
    ///
    /// Returns [`AgentError::NotFound`] for never-written blocks.
    fn read_block(
        &mut self,
        vm_id: u32,
        segment: u64,
        block_index: u64,
    ) -> Result<Vec<u8>, AgentError>;
}

/// An in-process middle tier running the real SmartDS write path: the VM
/// peer sends a header+payload message, the Split module lands the header
/// in host memory and the payload in device memory, the device engine
/// compresses, and three replicas land in real storage servers.
#[derive(Debug)]
pub struct FunctionalMiddleTier {
    ds: SmartDs,
    vm_peer: RemotePeer,
    qp_vm: crate::api::Qp,
    h_in: rocenet::Region,
    h_out: rocenet::Region,
    d_in: rocenet::Region,
    d_out: rocenet::Region,
    servers: Vec<StorageServer>,
    selector: ReplicaSelector,
    /// Where each (segment, block) was placed, for reads. Ordered map:
    /// placement sweeps must be deterministic across runs.
    placement: BTreeMap<(u64, u64), Vec<ServerId>>,
    layout: VdLayout,
    replicas: usize,
    next_request: u64,
    /// One scrubber per storage server, tracking the blocks placed there.
    scrubbers: Vec<Scrubber>,
}

/// Maximum block this middle tier accepts.
const MAX_BLOCK: usize = 64 << 10;

impl FunctionalMiddleTier {
    /// A middle tier with `replicas`-way replication across `servers`
    /// storage servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers < replicas` or either is zero.
    pub fn new(servers: usize, replicas: usize) -> Self {
        assert!(replicas > 0 && servers >= replicas, "bad replica config");
        let mut ds = SmartDs::new(1);
        // A fresh SmartDs has empty pools far larger than these four
        // fixed-size regions, so allocation cannot fail here.
        let (Ok(h_in), Ok(h_out), Ok(d_in), Ok(d_out)) = (
            ds.host_alloc(HEADER_LEN),
            ds.host_alloc(HEADER_LEN),
            ds.dev_alloc(MAX_BLOCK + lz4kit::compress_bound(MAX_BLOCK)),
            ds.dev_alloc(lz4kit::compress_bound(MAX_BLOCK)),
        ) else {
            unreachable!("fixed-size bootstrap regions exceed a fresh pool");
        };
        let vm_peer = RemotePeer::new();
        let qp_vm = ds.connect_qp(0, &vm_peer);
        FunctionalMiddleTier {
            ds,
            vm_peer,
            qp_vm,
            h_in,
            h_out,
            d_in,
            d_out,
            servers: (0..servers as u32)
                .map(|i| StorageServer::new(ServerId(i), 4096))
                .collect(),
            selector: ReplicaSelector::new((0..servers as u32).map(ServerId).collect()),
            placement: BTreeMap::new(),
            layout: VdLayout::paper(),
            replicas,
            next_request: 0,
            scrubbers: (0..servers).map(|_| Scrubber::new()).collect(),
        }
    }

    /// Runs the periodical data-scrubbing service (§2.1) over every storage
    /// server, repairing corrupt or missing replicas from healthy peers.
    /// Returns `(scanned, corrupt, repaired)` totals.
    pub fn scrub(&mut self) -> (usize, usize, usize) {
        let (mut scanned, mut corrupt, mut repaired) = (0, 0, 0);
        for i in 0..self.servers.len() {
            // Repair from the next server over; for the tests' placements a
            // neighbouring server holds a copy of most blocks. (The clone is
            // a functional-layer convenience, not a hot path.)
            let peer = self.servers[(i + 1) % self.servers.len()].clone();
            let (stats, _) = self.scrubbers[i].scrub(&mut self.servers[i], Some(&peer));
            scanned += stats.scanned;
            corrupt += stats.corrupt;
            repaired += stats.repaired;
        }
        (scanned, corrupt, repaired)
    }

    /// Fails or recovers a storage server (fail-over testing).
    pub fn set_server_alive(&mut self, id: u32, alive: bool) {
        self.servers[id as usize].set_alive(alive);
        self.selector.set_healthy(ServerId(id), alive);
    }

    /// Storage servers (inspection).
    pub fn servers(&self) -> &[StorageServer] {
        &self.servers
    }
}

impl MiddleTierService for FunctionalMiddleTier {
    fn write_block(
        &mut self,
        vm_id: u32,
        segment: u64,
        block_index: u64,
        data: &[u8],
    ) -> Result<(), AgentError> {
        let request_id = self.next_request;
        self.next_request += 1;
        // ① The VM's write request arrives over RoCE.
        let header = Header::write(vm_id, request_id, segment, block_index, data.len() as u32);
        self.vm_peer
            .send(Message::header_payload(header.encode().to_vec(), data.to_vec()));
        // ② Split receive: header → host, payload → device.
        let e = self
            .ds
            .dev_mixed_recv(self.qp_vm, self.h_in, HEADER_LEN, self.d_in, MAX_BLOCK);
        let got = self.ds.poll(e)?;
        let payload_len = got.size - HEADER_LEN;
        let parsed = Header::decode(&self.ds.host_read(self.h_in, HEADER_LEN)?)?;
        // ③ Device-engine compression.
        let e = self.ds.dev_func(
            self.d_in,
            payload_len,
            self.d_out,
            lz4kit::compress_bound(MAX_BLOCK),
            EngineKind::Compress,
        );
        let compressed = self.ds.poll(e)?.size;
        let packed = self.ds.dev_read(self.d_out, compressed)?;
        // ④ Choose replicas and append.
        let chosen = self
            .selector
            .choose(self.replicas)
            .ok_or(AgentError::Underreplicated)?;
        let addr = self.layout.locate(
            self.layout.lba_of(blockstore::BlockAddr {
                segment: parsed.segment_id,
                chunk: 0,
                block: 0,
            }) + parsed.block_index,
        );
        let stored = StoredBlock::lz4(packed.clone(), payload_len as u32);
        for id in &chosen {
            self.scrubbers[id.0 as usize].record((addr.segment, addr.chunk), addr.block, &stored);
            self.servers[id.0 as usize].append(
                (addr.segment, addr.chunk),
                addr.block,
                stored.clone(),
            );
        }
        self.placement
            .insert((parsed.segment_id, parsed.block_index), chosen.to_vec());
        // ⑤ Ack the VM.
        let ack = parsed.reply(Op::WriteAck, 0);
        self.ds.host_write(self.h_out, &ack.encode())?;
        let e = self
            .ds
            .dev_mixed_send(self.qp_vm, self.h_out, HEADER_LEN, self.d_out, 0);
        self.ds.poll(e)?;
        let _ = self.vm_peer.recv();
        Ok(())
    }

    fn read_block(
        &mut self,
        _vm_id: u32,
        segment: u64,
        block_index: u64,
    ) -> Result<Vec<u8>, AgentError> {
        let lba = self.layout.lba_of(blockstore::BlockAddr {
            segment,
            chunk: 0,
            block: 0,
        }) + block_index;
        let addr = self.layout.locate(lba);
        let replicas = self
            .placement
            .get(&(segment, block_index))
            .ok_or(AgentError::NotFound { lba })?;
        // Fetch from the first healthy replica (fail-over on the read path).
        for id in replicas {
            if let Some(stored) = self.servers[id.0 as usize].fetch((addr.segment, addr.chunk), addr.block)
            {
                return stored.expand().map_err(AgentError::Corrupt);
            }
        }
        Err(AgentError::NotFound { lba })
    }
}

/// Routes segments to middle-tier servers.
#[derive(Default)]
pub struct ClusterMap<S> {
    tiers: Vec<S>,
}

impl<S: MiddleTierService> ClusterMap<S> {
    /// A map over the given middle-tier servers; segment `s` routes to
    /// server `s % tiers`.
    ///
    /// # Panics
    ///
    /// Panics with no servers.
    pub fn new(tiers: Vec<S>) -> Self {
        assert!(!tiers.is_empty(), "cluster needs a middle tier");
        ClusterMap { tiers }
    }

    /// Number of middle-tier servers.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// True if the map is empty (cannot happen via [`ClusterMap::new`]).
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// The middle tier owning `segment`.
    fn route_mut(&mut self, segment: u64) -> &mut S {
        let n = self.tiers.len() as u64;
        &mut self.tiers[(segment % n) as usize]
    }
}

/// A byte-addressed virtual disk for one VM, backed by the middle tier.
pub struct VirtualDisk<S> {
    vm_id: u32,
    layout: VdLayout,
    cluster: ClusterMap<S>,
    /// Which blocks have ever been written (zero-fill reads elsewhere).
    /// Ordered set so any future sweep over written blocks is
    /// reproducible.
    written: BTreeSet<u64>,
}

impl<S: MiddleTierService> VirtualDisk<S> {
    /// A disk for `vm_id` over `cluster` with the paper's geometry.
    pub fn new(vm_id: u32, cluster: ClusterMap<S>) -> Self {
        VirtualDisk {
            vm_id,
            layout: VdLayout::paper(),
            cluster,
            written: BTreeSet::new(),
        }
    }

    /// Block size of the disk.
    pub fn block_size(&self) -> usize {
        self.layout.block_bytes as usize
    }

    fn read_block_or_zero(&mut self, lba: u64) -> Result<Vec<u8>, AgentError> {
        if !self.written.contains(&lba) {
            return Ok(vec![0; self.layout.block_bytes as usize]);
        }
        let addr = self.layout.locate(lba);
        let within = addr.chunk * self.layout.blocks_per_chunk() + addr.block;
        self.cluster
            .route_mut(addr.segment)
            .read_block(self.vm_id, addr.segment, within)
    }

    fn write_block(&mut self, lba: u64, data: &[u8]) -> Result<(), AgentError> {
        debug_assert_eq!(data.len(), self.layout.block_bytes as usize);
        let addr = self.layout.locate(lba);
        let within = addr.chunk * self.layout.blocks_per_chunk() + addr.block;
        self.cluster
            .route_mut(addr.segment)
            .write_block(self.vm_id, addr.segment, within, data)?;
        self.written.insert(lba);
        Ok(())
    }

    /// Writes `data` at byte `offset`, any length and alignment: partial
    /// blocks are handled with read-modify-write, exactly as a block-device
    /// front end must.
    ///
    /// # Errors
    ///
    /// Propagates middle-tier failures; the write is block-atomic but not
    /// multi-block-atomic (like real block devices).
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), AgentError> {
        let bs = self.layout.block_bytes;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let lba = abs / bs;
            let within = (abs % bs) as usize;
            let take = ((bs as usize) - within).min(data.len() - pos);
            if within == 0 && take == bs as usize {
                self.write_block(lba, &data[pos..pos + take])?;
            } else {
                let mut block = self.read_block_or_zero(lba)?;
                block[within..within + take].copy_from_slice(&data[pos..pos + take]);
                self.write_block(lba, &block)?;
            }
            pos += take;
        }
        Ok(())
    }

    /// Reads `len` bytes at byte `offset`; never-written space reads as
    /// zeros.
    ///
    /// # Errors
    ///
    /// Propagates middle-tier failures.
    pub fn read(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, AgentError> {
        let bs = self.layout.block_bytes;
        let mut out = Vec::with_capacity(len);
        let mut pos = 0usize;
        while pos < len {
            let abs = offset + pos as u64;
            let lba = abs / bs;
            let within = (abs % bs) as usize;
            let take = ((bs as usize) - within).min(len - pos);
            let block = self.read_block_or_zero(lba)?;
            out.extend_from_slice(&block[within..within + take]);
            pos += take;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> VirtualDisk<FunctionalMiddleTier> {
        let tiers = vec![
            FunctionalMiddleTier::new(6, 3),
            FunctionalMiddleTier::new(6, 3),
        ];
        VirtualDisk::new(1, ClusterMap::new(tiers))
    }

    #[test]
    fn aligned_block_roundtrip() {
        let mut d = disk();
        let data = vec![0xA5u8; 4096];
        d.write(0, &data).unwrap();
        assert_eq!(d.read(0, 4096).unwrap(), data);
    }

    #[test]
    fn unaligned_write_read_modify_writes() {
        let mut d = disk();
        d.write(0, &[1u8; 4096]).unwrap();
        // Overwrite bytes 100..300 only.
        d.write(100, &[2u8; 200]).unwrap();
        let back = d.read(0, 4096).unwrap();
        assert!(back[..100].iter().all(|&b| b == 1));
        assert!(back[100..300].iter().all(|&b| b == 2));
        assert!(back[300..].iter().all(|&b| b == 1));
    }

    #[test]
    fn multi_block_spanning_io() {
        let mut d = disk();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        d.write(1000, &data).unwrap();
        assert_eq!(d.read(1000, data.len()).unwrap(), data);
        // Unwritten space reads as zeros.
        assert_eq!(d.read(1000 + data.len() as u64 + 4096, 16).unwrap(), vec![0u8; 16]);
    }

    #[test]
    fn never_written_reads_zero() {
        let mut d = disk();
        assert_eq!(d.read(1 << 30, 100).unwrap(), vec![0u8; 100]);
    }

    #[test]
    fn segments_route_to_different_middle_tiers() {
        let mut d = disk();
        // Block 0 of segment 0 and block 0 of segment 1 go to different
        // tiers (segment size = 32 GB).
        d.write(0, &[7u8; 4096]).unwrap();
        let seg1 = 32u64 << 30;
        d.write(seg1, &[8u8; 4096]).unwrap();
        assert_eq!(d.read(0, 1).unwrap(), vec![7]);
        assert_eq!(d.read(seg1, 1).unwrap(), vec![8]);
    }

    #[test]
    fn replicas_survive_single_server_failure_on_read() {
        let mut mt = FunctionalMiddleTier::new(6, 3);
        mt.write_block(1, 0, 5, &[9u8; 4096]).unwrap();
        // Kill the first replica holder; the read fails over.
        let holder = *mt.placement.get(&(0, 5)).unwrap().first().unwrap();
        mt.set_server_alive(holder.0, false);
        assert_eq!(mt.read_block(1, 0, 5).unwrap(), vec![9u8; 4096]);
    }

    #[test]
    fn scrub_detects_and_repairs_injected_bit_rot() {
        let mut mt = FunctionalMiddleTier::new(6, 3);
        for b in 0..12u64 {
            mt.write_block(1, 0, b, &vec![b as u8; 4096]).unwrap();
        }
        let (scanned, corrupt, _) = mt.scrub();
        assert!(scanned >= 36, "three replicas of each block scanned");
        assert_eq!(corrupt, 0, "fresh data is clean");
        // Inject bit rot into one replica of block 5.
        let victim = mt.placement.get(&(0, 5)).unwrap()[0];
        let addr = mt.layout.locate(5);
        {
            let chunk = mt.servers[victim.0 as usize]
                .chunk_mut((addr.segment, addr.chunk))
                .unwrap();
            let good = chunk.read(addr.block).unwrap().clone();
            let mut rotted = good.data.to_vec();
            rotted[2] ^= 0x10;
            chunk.append(
                addr.block,
                StoredBlock {
                    data: rotted.into(),
                    orig_len: good.orig_len,
                    compressed: true,
                },
            );
        }
        let (_, corrupt, repaired) = mt.scrub();
        assert_eq!(corrupt, 1, "the rot is found");
        assert!(repaired <= 1);
        // Reads still return the correct bytes either way (fail-over or
        // repaired copy).
        assert_eq!(mt.read_block(1, 0, 5).unwrap(), vec![5u8; 4096]);
    }

    #[test]
    fn too_many_failures_block_writes() {
        let mut mt = FunctionalMiddleTier::new(3, 3);
        mt.set_server_alive(0, false);
        let err = mt.write_block(1, 0, 0, &[1; 4096]).unwrap_err();
        assert!(matches!(err, AgentError::Underreplicated));
    }
}
