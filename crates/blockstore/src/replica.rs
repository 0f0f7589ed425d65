//! Replica placement and write-quorum tracking.
//!
//! §2.2.1: the middle tier chooses "several remote storage servers (usually
//! three) according to disk usage, distribution of switches, loads of
//! storage servers, and disaster recovery strategy", then waits until *all*
//! chosen servers acknowledge before acking the VM.

use crate::server::ServerId;
use std::ops::Deref;

/// Most servers one placement (or one write quorum) can name.
pub const MAX_REPLICAS: usize = 6;

/// Up to [`MAX_REPLICAS`] distinct servers, in placement order, held
/// inline so choosing a placement allocates nothing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReplicaSet {
    ids: [ServerId; MAX_REPLICAS],
    len: u8,
}

impl ReplicaSet {
    const EMPTY: ReplicaSet = ReplicaSet {
        ids: [ServerId(0); MAX_REPLICAS],
        len: 0,
    };

    fn push(&mut self, id: ServerId) {
        self.ids[self.len as usize] = id;
        self.len += 1;
    }
}

impl Deref for ReplicaSet {
    type Target = [ServerId];

    fn deref(&self) -> &[ServerId] {
        &self.ids[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a ReplicaSet {
    type Item = &'a ServerId;
    type IntoIter = std::slice::Iter<'a, ServerId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Chooses replica sets over a set of storage servers, skipping failed ones
/// and balancing load (appends outstanding per server).
#[derive(Debug)]
pub struct ReplicaSelector {
    servers: Vec<ServerId>,
    healthy: Vec<bool>,
    placed: Vec<u64>,
}

impl ReplicaSelector {
    /// A selector over `servers` (all initially healthy).
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn new(servers: Vec<ServerId>) -> Self {
        assert!(!servers.is_empty(), "need at least one storage server");
        let n = servers.len();
        ReplicaSelector {
            servers,
            healthy: vec![true; n],
            placed: vec![0; n],
        }
    }

    /// Number of healthy servers.
    pub fn healthy_count(&self) -> usize {
        self.healthy.iter().filter(|&&h| h).count()
    }

    /// Marks a server failed/recovered (fail-over path).
    pub fn set_healthy(&mut self, id: ServerId, healthy: bool) {
        if let Some(i) = self.servers.iter().position(|&s| s == id) {
            self.healthy[i] = healthy;
        }
    }

    /// Whether `id` is currently marked healthy (unknown ids are not).
    pub fn is_healthy(&self, id: ServerId) -> bool {
        self.servers
            .iter()
            .position(|&s| s == id)
            .is_some_and(|i| self.healthy[i])
    }

    /// Depreferences `id` for future placement by charging it `amount`
    /// phantom placements — the timeout path calls this on a server that
    /// failed to ack in time, so retries and failovers drift away from a
    /// gray-failing replica without declaring it dead. Saturating; ids
    /// not in the selector are ignored.
    pub fn penalize(&mut self, id: ServerId, amount: u64) {
        if let Some(i) = self.servers.iter().position(|&s| s == id) {
            self.placed[i] = self.placed[i].saturating_add(amount);
        }
    }

    /// Chooses `k` distinct healthy servers for a chunk, preferring the
    /// least-loaded (fewest placements so far, deterministic tie-break by
    /// id). Returns `None` when fewer than `k` healthy servers exist —
    /// the write must stall rather than under-replicate.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds [`MAX_REPLICAS`].
    pub fn choose(&mut self, k: usize) -> Option<ReplicaSet> {
        assert!(k <= MAX_REPLICAS, "at most {MAX_REPLICAS} replicas, got {k}");
        if self.healthy_count() < k {
            return None;
        }
        // k rounds of least-(placed, id) selection: the first k of the
        // healthy servers sorted by that key, without sorting them.
        let mut chosen = [0usize; MAX_REPLICAS];
        let mut set = ReplicaSet::EMPTY;
        for round in 0..k {
            let best = (0..self.servers.len())
                .filter(|&i| self.healthy[i] && !chosen[..round].contains(&i))
                .min_by_key(|&i| (self.placed[i], self.servers[i]))?;
            chosen[round] = best;
            set.push(self.servers[best]);
        }
        for &i in &chosen[..k] {
            self.placed[i] += 1;
        }
        Some(set)
    }
}

/// The write quorum of one in-flight write attempt, held inline in the
/// attempt's own slot: how many distinct servers must ack, and which did.
///
/// A quorum *closes* when it completes or is aborted. A closed quorum
/// ignores acks and reports no acked servers, so a late ack — a slow
/// replica answering after the write gave up, or after a fail-over
/// already completed it — is a no-op, never a second completion. The
/// slot's owner must still keep an ack minted for an *earlier* attempt
/// in the same slot away from this one (the cluster tags every RPC with
/// the slot's generation and drops stale acks before they reach here).
#[derive(Copy, Clone, Debug)]
pub struct Quorum {
    /// Distinct acks the write needs; zero once closed.
    needed: u8,
    acked: ReplicaSet,
}

impl Quorum {
    /// A closed quorum: what a read, which waits for no acks, carries.
    pub const CLOSED: Quorum = Quorum {
        needed: 0,
        acked: ReplicaSet::EMPTY,
    };

    /// An open quorum requiring `needed` distinct acks.
    ///
    /// # Panics
    ///
    /// Panics if `needed` is zero or above [`MAX_REPLICAS`].
    pub fn open(needed: usize) -> Self {
        assert!(needed > 0, "quorum of zero");
        assert!(needed <= MAX_REPLICAS, "quorum above {MAX_REPLICAS}");
        Quorum {
            needed: needed as u8,
            acked: ReplicaSet::EMPTY,
        }
    }

    /// Records an ack from `server`. Returns `true` when the quorum is now
    /// complete, and closes it. Duplicate acks never count twice, and an
    /// ack on a closed quorum is a no-op returning `false`.
    #[inline]
    pub fn ack(&mut self, server: ServerId) -> bool {
        if self.needed == 0 {
            return false;
        }
        if !self.acked.contains(&server) {
            self.acked.push(server);
        }
        if self.acked.len() >= self.needed as usize {
            *self = Quorum::CLOSED;
            true
        } else {
            false
        }
    }

    /// Abandons the quorum. Returns whether it was still open.
    #[inline]
    pub fn abort(&mut self) -> bool {
        let open = self.needed > 0;
        *self = Quorum::CLOSED;
        open
    }

    /// The servers that acked so far; empty once closed. The timeout path
    /// uses this to penalize only the replicas that stayed silent.
    pub fn acked_servers(&self) -> &[ServerId] {
        &self.acked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ServerId> {
        v.iter().map(|&i| ServerId(i)).collect()
    }

    #[test]
    fn choose_balances_load() {
        let mut sel = ReplicaSelector::new(ids(&[0, 1, 2, 3, 4, 5]));
        let a = sel.choose(3).unwrap();
        let b = sel.choose(3).unwrap();
        // Second choice must pick the other three servers (they are less
        // loaded).
        let mut all: Vec<_> = a.iter().chain(b.iter()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 6, "placement should spread across servers");
    }

    #[test]
    fn choose_skips_failed_servers() {
        let mut sel = ReplicaSelector::new(ids(&[0, 1, 2, 3]));
        sel.set_healthy(ServerId(1), false);
        let chosen = sel.choose(3).unwrap();
        assert!(!chosen.contains(&ServerId(1)));
        assert_eq!(sel.healthy_count(), 3);
    }

    #[test]
    fn insufficient_healthy_servers_stalls() {
        let mut sel = ReplicaSelector::new(ids(&[0, 1, 2]));
        sel.set_healthy(ServerId(0), false);
        assert!(sel.choose(3).is_none());
        sel.set_healthy(ServerId(0), true);
        assert!(sel.choose(3).is_some());
    }

    #[test]
    fn quorum_completes_on_all_acks() {
        let mut q = Quorum::open(3);
        assert!(!q.ack(ServerId(0)));
        assert!(!q.ack(ServerId(1)));
        // Duplicate ack does not complete the quorum.
        assert!(!q.ack(ServerId(1)));
        assert_eq!(q.acked_servers(), &[ServerId(0), ServerId(1)]);
        assert!(q.ack(ServerId(2)));
        // Completion closes it: nothing left to abort.
        assert!(!q.abort());
    }

    #[test]
    fn abort_forgets_request() {
        let mut q = Quorum::open(3);
        assert!(!q.ack(ServerId(4)));
        assert!(q.abort());
        assert!(!q.abort());
        assert!(q.acked_servers().is_empty());
    }

    #[test]
    fn late_acks_are_noops() {
        let mut q = Quorum::open(1);
        assert!(q.ack(ServerId(0)));
        // Ack after completion: the quorum is closed, nothing re-completes.
        assert!(!q.ack(ServerId(1)));
        assert!(q.acked_servers().is_empty());
        // Ack after abort: same story.
        let mut q = Quorum::open(2);
        assert!(q.abort());
        assert!(!q.ack(ServerId(0)));
        assert!(!q.ack(ServerId(1)));
        // And a read's closed quorum never opens.
        let mut read = Quorum::CLOSED;
        assert!(!read.ack(ServerId(0)));
        assert!(!read.abort());
    }

    #[test]
    fn penalize_depreferences_server() {
        let mut sel = ReplicaSelector::new(ids(&[0, 1, 2]));
        sel.penalize(ServerId(0), 10);
        let chosen = sel.choose(2).unwrap();
        assert!(!chosen.contains(&ServerId(0)), "penalized server chosen");
        // Unknown ids are ignored, and the penalty saturates.
        sel.penalize(ServerId(99), 1);
        sel.penalize(ServerId(0), u64::MAX);
        assert!(sel.is_healthy(ServerId(0)));
        assert!(!sel.is_healthy(ServerId(99)));
    }
}
