//! Replica placement and write-quorum tracking.
//!
//! §2.2.1: the middle tier chooses "several remote storage servers (usually
//! three) according to disk usage, distribution of switches, loads of
//! storage servers, and disaster recovery strategy", then waits until *all*
//! chosen servers acknowledge before acking the VM.

use crate::server::ServerId;
use std::collections::BTreeMap;
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

/// Tracks outstanding acknowledgements for in-flight replicated writes.
///
/// Ordered map so any timeout/abort sweep over outstanding requests runs
/// in request-id order, independent of hasher randomization.
#[derive(Debug, Default)]
pub struct QuorumTracker {
    pending: BTreeMap<u64, Quorum>,
}

#[derive(Debug)]
struct Quorum {
    needed: usize,
    acked: ReplicaSet,
}

impl QuorumTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins tracking `request_id`, requiring `needed` acks.
    ///
    /// # Panics
    ///
    /// Panics if the request id is already tracked, or `needed` is zero or
    /// above [`MAX_REPLICAS`].
    pub fn begin(&mut self, request_id: u64, needed: usize) {
        assert!(needed > 0, "quorum of zero");
        assert!(needed <= MAX_REPLICAS, "quorum above {MAX_REPLICAS}");
        let prev = self.pending.insert(
            request_id,
            Quorum {
                needed,
                acked: ReplicaSet::EMPTY,
            },
        );
        assert!(prev.is_none(), "request {request_id} already tracked");
    }

    /// Records an ack from `server`. Returns `true` when the quorum is now
    /// complete (and forgets the request). Duplicate acks are ignored, and
    /// an ack for an unknown request is a no-op returning `false`: with
    /// timeouts in the write path, a slow replica's ack can legitimately
    /// arrive after [`QuorumTracker::abort`] already gave up on (or a
    /// failover already completed) the request.
    pub fn ack(&mut self, request_id: u64, server: ServerId) -> bool {
        let Some(q) = self.pending.get_mut(&request_id) else {
            return false;
        };
        if !q.acked.contains(&server) {
            q.acked.push(server);
        }
        if q.acked.len() >= q.needed {
            self.pending.remove(&request_id);
            true
        } else {
            false
        }
    }

    /// Abandons a request (e.g. fail-over re-replication restarted it).
    pub fn abort(&mut self, request_id: u64) -> bool {
        self.pending.remove(&request_id).is_some()
    }

    /// The servers that acked `request_id` so far (empty if untracked).
    /// The timeout path uses this to penalize only the replicas that
    /// stayed silent, not the ones that answered.
    pub fn acked_servers(&self, request_id: u64) -> &[ServerId] {
        self.pending
            .get(&request_id)
            .map(|q| &*q.acked)
            .unwrap_or(&[])
    }

    /// Requests still waiting for acks.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
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
        let mut q = QuorumTracker::new();
        q.begin(9, 3);
        assert!(!q.ack(9, ServerId(0)));
        assert!(!q.ack(9, ServerId(1)));
        // Duplicate ack does not complete the quorum.
        assert!(!q.ack(9, ServerId(1)));
        assert!(q.ack(9, ServerId(2)));
        assert_eq!(q.outstanding(), 0);
    }

    #[test]
    fn abort_forgets_request() {
        let mut q = QuorumTracker::new();
        q.begin(5, 3);
        assert!(q.abort(5));
        assert!(!q.abort(5));
        assert_eq!(q.outstanding(), 0);
    }

    #[test]
    fn late_acks_are_noops() {
        let mut q = QuorumTracker::new();
        q.begin(1, 1);
        assert!(q.ack(1, ServerId(0)));
        // Ack after completion: the request is gone, nothing re-completes.
        assert!(!q.ack(1, ServerId(1)));
        // Ack after abort: same story.
        q.begin(2, 2);
        assert!(q.abort(2));
        assert!(!q.ack(2, ServerId(0)));
        assert_eq!(q.outstanding(), 0);
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
