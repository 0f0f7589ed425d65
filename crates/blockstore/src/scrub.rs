//! Periodical data scrubbing (§2.1 lists it among the storage operations
//! the middle tier runs): walk stored blocks, verify integrity, and report
//! or repair corruption from healthy replicas.
//!
//! Every [`StoredBlock`] carries enough to self-verify: compressed blocks
//! must decompress to exactly `orig_len` bytes (LZ4's bounds-checked
//! decoder catches bit rot with high probability), and both kinds are
//! additionally covered by a CRC-32 side record kept by the scrubber at
//! append time.

use crate::chunk::StoredBlock;
use crate::header::crc32;
use crate::server::{ChunkKey, ServerId, StorageServer};
use std::collections::BTreeMap;

/// A corruption found by a scrub pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScrubFinding {
    /// Which chunk the bad block lives in.
    pub chunk: ChunkKey,
    /// Block index within the chunk.
    pub block: u64,
    /// Why the block failed verification.
    pub reason: ScrubReason,
}

/// Failure modes a scrub can detect.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScrubReason {
    /// The stored bytes no longer match the recorded checksum.
    ChecksumMismatch,
    /// The compressed stream fails to decode (structural corruption).
    DecodeFailure,
    /// A block the index promised is missing entirely.
    Missing,
}

/// Statistics of one scrub pass.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Blocks examined.
    pub scanned: usize,
    /// Corruptions found.
    pub corrupt: usize,
    /// Corruptions repaired from a peer replica.
    pub repaired: usize,
}

/// The scrubbing service: tracks expected checksums and verifies replicas.
#[derive(Debug, Default)]
pub struct Scrubber {
    /// (chunk, block) → checksum and holders of the latest version.
    entries: BTreeMap<(ChunkKey, u64), Entry>,
}

/// What the scrubber knows of one block.
#[derive(Debug)]
struct Entry {
    /// CRC-32 of the latest version's stored (compressed) bytes.
    crc: u32,
    /// Servers expected to host the block. Empty for blocks recorded only
    /// via [`Scrubber::record`], which are checked on every server (the
    /// legacy behaviour); blocks recorded via [`Scrubber::record_on`]
    /// are only checked — and, crucially, *re-replicated* — on their
    /// holders, so a scrub of a returning server does not smear every
    /// block in the store onto it.
    holders: Holders,
}

/// A block's holder set, inline: one bit per server id below 64, so
/// recording a replica allocates nothing and the entry stays small (the
/// scrubber keeps one per block ever written). Only ids from 64 up spill
/// to a list.
#[derive(Debug, Default)]
struct Holders {
    mask: u64,
    spill: Vec<ServerId>,
}

impl Holders {
    fn is_empty(&self) -> bool {
        self.mask == 0 && self.spill.is_empty()
    }

    fn contains(&self, id: ServerId) -> bool {
        match 1u64.checked_shl(id.0) {
            Some(bit) => self.mask & bit != 0,
            None => self.spill.contains(&id),
        }
    }

    /// Adds `id` unless already present.
    fn insert(&mut self, id: ServerId) {
        match 1u64.checked_shl(id.0) {
            Some(bit) => self.mask |= bit,
            None if !self.spill.contains(&id) => self.spill.push(id),
            None => {}
        }
    }

}

impl Scrubber {
    /// An empty scrubber.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry of `(chunk, block)`, its checksum set to `crc`.
    fn entry(&mut self, chunk: ChunkKey, block: u64, crc: u32) -> &mut Entry {
        let e = self
            .entries
            .entry((chunk, block))
            .or_insert_with(|| Entry {
                crc,
                holders: Holders::default(),
            });
        e.crc = crc;
        e
    }

    /// Records the checksum of a block version at append time (the write
    /// path calls this alongside the replica appends).
    pub fn record(&mut self, chunk: ChunkKey, block: u64, stored: &StoredBlock) {
        self.entry(chunk, block, crc32(&stored.data));
    }

    /// Records a block version by its checksum `crc` (the CRC-32 of its
    /// stored bytes, which the caller computes once per version) *and*
    /// that `server` is one of its holders. Holder sets union across
    /// versions: a server that held an older version (e.g. it crashed
    /// before a rewrite) stays a holder, so the scrub repairs it up to the
    /// latest version rather than forgetting it. The write path calls this
    /// once per replica.
    #[inline]
    pub fn record_on(&mut self, chunk: ChunkKey, block: u64, server: ServerId, crc: u32) {
        self.entry(chunk, block, crc).holders.insert(server);
    }

    /// Blocks currently tracked.
    pub fn tracked(&self) -> usize {
        self.entries.len()
    }

    /// The recorded holder set of a block (empty = check everywhere): ids
    /// below 64 ascending, then the rest in recording order.
    pub fn holders(&self, chunk: ChunkKey, block: u64) -> Vec<ServerId> {
        let Some(e) = self.entries.get(&(chunk, block)) else {
            return Vec::new();
        };
        let low = (0..64).filter(|i| e.holders.mask >> i & 1 != 0);
        low.map(ServerId).chain(e.holders.spill.iter().copied()).collect()
    }

    /// Scrubs one server: verifies every tracked block it should host.
    /// When `repair_from` is given, corrupt or missing blocks are restored
    /// from that (healthy) peer.
    pub fn scrub(
        &self,
        server: &mut StorageServer,
        repair_from: Option<&StorageServer>,
    ) -> (ScrubStats, Vec<ScrubFinding>) {
        self.scrub_with(server, |chunk, block, want_crc| {
            let good = repair_from?.fetch(chunk, block)?;
            if crc32(&good.data) == want_crc {
                Some(good.clone())
            } else {
                None
            }
        })
    }

    /// Scrubs one server, sourcing repairs from a caller-supplied lookup.
    ///
    /// `fetch_good(chunk, block, want_crc)` must return a block whose
    /// stored bytes hash to `want_crc` (the closure is trusted to search
    /// whichever peers it likes — the post-restart recovery path walks
    /// all live replicas). Returning a block with the wrong checksum
    /// counts as no repair: it is verified again here before the append.
    /// Only repairs that actually land on the server are counted (`append`
    /// can refuse if the server died again mid-scrub).
    pub fn scrub_with(
        &self,
        server: &mut StorageServer,
        mut fetch_good: impl FnMut(ChunkKey, u64, u32) -> Option<StoredBlock>,
    ) -> (ScrubStats, Vec<ScrubFinding>) {
        let mut stats = ScrubStats::default();
        let mut findings = Vec::new();
        for (&(chunk, block), entry) in &self.entries {
            if !entry.holders.is_empty() && !entry.holders.contains(server.id()) {
                continue;
            }
            let want_crc = entry.crc;
            let verdict = match server.fetch(chunk, block) {
                None => Some(ScrubReason::Missing),
                Some(stored) => {
                    stats.scanned += 1;
                    if crc32(&stored.data) != want_crc {
                        Some(ScrubReason::ChecksumMismatch)
                    } else if stored.expand().is_err() {
                        Some(ScrubReason::DecodeFailure)
                    } else {
                        None
                    }
                }
            };
            if let Some(reason) = verdict {
                stats.corrupt += 1;
                findings.push(ScrubFinding {
                    chunk,
                    block,
                    reason,
                });
                if let Some(good) = fetch_good(chunk, block, want_crc) {
                    if crc32(&good.data) == want_crc
                        && server.append(chunk, block, good).is_some()
                    {
                        stats.repaired += 1;
                    }
                }
            }
        }
        (stats, findings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerId;
    use simkit::Bytes;

    fn block(tag: u8) -> StoredBlock {
        let data = vec![tag; 4096];
        StoredBlock::lz4(lz4kit::compress(&data), 4096)
    }

    fn populate(server: &mut StorageServer, scrub: &mut Scrubber, n: u64) {
        for b in 0..n {
            let sb = block(b as u8);
            scrub.record((0, 0), b, &sb);
            server.append((0, 0), b, sb);
        }
    }

    #[test]
    fn clean_server_scrubs_clean() {
        let mut s = StorageServer::new(ServerId(0), 1 << 20);
        let mut scrub = Scrubber::new();
        populate(&mut s, &mut scrub, 16);
        let (stats, findings) = scrub.scrub(&mut s, None);
        assert_eq!(stats.scanned, 16);
        assert_eq!(stats.corrupt, 0);
        assert!(findings.is_empty());
    }

    #[test]
    fn bit_rot_is_detected_and_repaired_from_replica() {
        let mut primary = StorageServer::new(ServerId(0), 1 << 20);
        let mut replica = StorageServer::new(ServerId(1), 1 << 20);
        let mut scrub = Scrubber::new();
        for b in 0..8u64 {
            let sb = block(b as u8);
            scrub.record((0, 0), b, &sb);
            primary.append((0, 0), b, sb.clone());
            replica.append((0, 0), b, sb);
        }
        // Corrupt block 3 on the primary (flip a byte mid-stream).
        {
            let chunk = primary.chunk_mut((0, 0)).unwrap();
            let good = chunk.read(3).unwrap().clone();
            let mut rotted = good.data.to_vec();
            rotted[5] ^= 0x40;
            chunk.append(
                3,
                StoredBlock {
                    data: Bytes::from(rotted),
                    orig_len: good.orig_len,
                    compressed: true,
                },
            );
        }
        let (stats, findings) = scrub.scrub(&mut primary, Some(&replica));
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.repaired, 1);
        assert_eq!(findings[0].block, 3);
        assert_eq!(findings[0].reason, ScrubReason::ChecksumMismatch);
        // After repair, a second pass is clean.
        let (stats2, _) = scrub.scrub(&mut primary, None);
        assert_eq!(stats2.corrupt, 0);
        // And the block expands to the original content again.
        assert_eq!(
            primary.fetch((0, 0), 3).unwrap().expand().unwrap(),
            vec![3u8; 4096]
        );
    }

    #[test]
    fn missing_block_is_reported() {
        let mut s = StorageServer::new(ServerId(0), 1 << 20);
        let mut scrub = Scrubber::new();
        populate(&mut s, &mut scrub, 4);
        // Track a block that was never written to this server.
        scrub.record((0, 1), 99, &block(9));
        let (stats, findings) = scrub.scrub(&mut s, None);
        assert_eq!(stats.corrupt, 1);
        assert!(findings
            .iter()
            .any(|f| f.reason == ScrubReason::Missing && f.block == 99));
    }

    #[test]
    fn holders_restrict_scrub_scope() {
        let mut a = StorageServer::new(ServerId(0), 1 << 20);
        let mut b = StorageServer::new(ServerId(1), 1 << 20);
        let mut scrub = Scrubber::new();
        // Block 0 placed on a only; block 1 on b only.
        let s0 = block(0);
        let s1 = block(1);
        scrub.record_on((0, 0), 0, a.id(), crc32(&s0.data));
        scrub.record_on((0, 0), 1, b.id(), crc32(&s1.data));
        a.append((0, 0), 0, s0);
        b.append((0, 0), 1, s1);
        // Neither server is flagged for the block it does not hold.
        let (stats_a, f_a) = scrub.scrub(&mut a, None);
        let (stats_b, f_b) = scrub.scrub(&mut b, None);
        assert_eq!((stats_a.corrupt, stats_b.corrupt), (0, 0));
        assert!(f_a.is_empty() && f_b.is_empty());
        assert_eq!(scrub.holders((0, 0), 0), vec![ServerId(0)]);
    }

    #[test]
    fn holders_of_any_id_and_count_scope_the_scrub() {
        // A hot block rewritten onto more distinct servers than one
        // placement can name keeps every holder, ids from 64 up included
        // (recorded twice each, out of order).
        let mut scrub = Scrubber::new();
        let crc = crc32(&block(1).data);
        let ids: Vec<ServerId> = [70, 3, 63, 0, 64, 9, 5, 1, 2]
            .into_iter()
            .map(ServerId)
            .collect();
        for &id in ids.iter().chain(&ids) {
            scrub.record_on((0, 0), 0, id, crc);
        }
        let want: Vec<ServerId> = [0, 1, 2, 3, 5, 9, 63, 70, 64]
            .into_iter()
            .map(ServerId)
            .collect();
        assert_eq!(scrub.holders((0, 0), 0), want);
        // Holders are scrubbed (the block is missing there); non-holders
        // are not.
        for (id, holds) in [(63, true), (64, true), (70, true), (4, false), (65, false)] {
            let mut s = StorageServer::new(ServerId(id), 1 << 20);
            let corrupt = scrub.scrub(&mut s, None).0.corrupt;
            assert_eq!(corrupt, holds as usize, "server {id}");
        }
    }

    #[test]
    fn restart_recovery_re_replicates_lost_blocks() {
        // The regression this PR fixes: blocks written while a holder was
        // down were lost forever — nothing re-replicated them on restart.
        let mut a = StorageServer::new(ServerId(0), 1 << 20);
        let mut b = StorageServer::new(ServerId(1), 1 << 20);
        let mut scrub = Scrubber::new();
        // Blocks 0..4 go to both; b crashes; blocks 4..8 *placed* on both
        // but only land on a (b refuses the append while down).
        for blk in 0..8u64 {
            if blk == 4 {
                b.set_alive(false);
            }
            let sb = block(blk as u8);
            scrub.record_on((0, 0), blk, a.id(), crc32(&sb.data));
            scrub.record_on((0, 0), blk, b.id(), crc32(&sb.data));
            a.append((0, 0), blk, sb.clone());
            b.append((0, 0), blk, sb);
        }
        b.set_alive(true);
        let (stats, findings) = scrub.scrub_with(&mut b, |chunk, blk, want| {
            let good = a.fetch(chunk, blk)?;
            (crc32(&good.data) == want).then(|| good.clone())
        });
        assert_eq!(stats.corrupt, 4, "the four missed blocks are found");
        assert_eq!(stats.repaired, 4, "and all of them are restored");
        assert!(findings.iter().all(|f| f.reason == ScrubReason::Missing));
        for blk in 0..8u64 {
            assert_eq!(
                b.fetch((0, 0), blk).unwrap().expand().unwrap(),
                vec![blk as u8; 4096],
                "block {blk} readable after recovery"
            );
        }
        // Second pass is clean.
        let (again, _) = scrub.scrub_with(&mut b, |_, _, _| None);
        assert_eq!(again.corrupt, 0);
    }

    #[test]
    fn scrub_with_rejects_wrong_checksum_repairs() {
        let mut s = StorageServer::new(ServerId(0), 1 << 20);
        let mut scrub = Scrubber::new();
        scrub.record_on((0, 0), 0, s.id(), crc32(&block(1).data));
        // Block is missing; the closure offers bytes with the wrong CRC.
        let (stats, _) = scrub.scrub_with(&mut s, |_, _, _| {
            Some(StoredBlock::raw(vec![9, 9, 9]))
        });
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.repaired, 0, "mismatching bytes must not land");
        assert!(s.fetch((0, 0), 0).is_none());
    }

    #[test]
    fn repair_refuses_a_corrupt_peer() {
        let mut primary = StorageServer::new(ServerId(0), 1 << 20);
        let mut peer = StorageServer::new(ServerId(1), 1 << 20);
        let mut scrub = Scrubber::new();
        let sb = block(7);
        scrub.record((0, 0), 0, &sb);
        // Primary has garbage; peer has *different* garbage.
        primary.append((0, 0), 0, StoredBlock::raw(vec![1, 2, 3]));
        peer.append((0, 0), 0, StoredBlock::raw(vec![4, 5, 6]));
        let (stats, _) = scrub.scrub(&mut primary, Some(&peer));
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.repaired, 0, "a mismatching peer must not be used");
    }
}
