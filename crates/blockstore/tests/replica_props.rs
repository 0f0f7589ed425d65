//! Property tests for the replication primitives the fault-handling path
//! leans on: `QuorumTracker` under arbitrary begin/ack/abort
//! interleavings (checked against a reference model) and
//! `ReplicaSelector::choose` under arbitrary health flips and penalties.
//!
//! These are the tests that forced `QuorumTracker::ack` to tolerate late
//! acks: with timeouts in the write path, an ack can arrive after the
//! request was aborted or already completed, and that must be a no-op —
//! not a panic, and never a double completion.

use blockstore::{QuorumTracker, ReplicaSelector, ServerId};
use std::collections::BTreeMap;
use testkit::gen::{self, Gen};
use testkit::one_of;

#[derive(Clone, Debug)]
enum QuorumOp {
    Begin { id: u8, needed: u8 },
    Ack { id: u8, server: u8 },
    Abort { id: u8 },
}

fn quorum_op_gen() -> impl Gen<Value = QuorumOp> {
    one_of![
        (gen::u8s(0..8), gen::u8s(1..5)).map(|(id, needed)| QuorumOp::Begin { id, needed }),
        (gen::u8s(0..8), gen::u8s(0..6)).map(|(id, server)| QuorumOp::Ack { id, server }),
        gen::u8s(0..8).map(|id| QuorumOp::Abort { id }),
    ]
}

#[derive(Clone, Debug)]
enum SelOp {
    SetHealthy { server: u8, up: bool },
    Choose { k: u8 },
    Penalize { server: u8, amount: u8 },
}

fn sel_op_gen() -> impl Gen<Value = SelOp> {
    one_of![
        (gen::u8s(0..8), gen::bools()).map(|(server, up)| SelOp::SetHealthy { server, up }),
        gen::u8s(1..6).map(|k| SelOp::Choose { k }),
        (gen::u8s(0..8), gen::u8s(1..20)).map(|(server, amount)| SelOp::Penalize {
            server,
            amount
        }),
    ]
}

testkit::prop! {
    cases = 160;

    /// `QuorumTracker` against a reference model: duplicate acks never
    /// double-count, acks after abort (or completion) are no-ops, and a
    /// quorum completes exactly when `needed` *distinct* servers acked.
    fn quorum_tracker_matches_model(ops in gen::vecs(quorum_op_gen(), 1..80)) {
        let mut real = QuorumTracker::new();
        // id → (needed, distinct servers acked so far)
        let mut model: BTreeMap<u8, (usize, Vec<u8>)> = BTreeMap::new();

        for op in &ops {
            match *op {
                QuorumOp::Begin { id, needed } => {
                    // `begin` on a tracked id panics by contract; the model
                    // only issues fresh ids.
                    if model.contains_key(&id) {
                        continue;
                    }
                    real.begin(u64::from(id), usize::from(needed));
                    model.insert(id, (usize::from(needed), Vec::new()));
                }
                QuorumOp::Ack { id, server } => {
                    let done = real.ack(u64::from(id), ServerId(u32::from(server)));
                    match model.get_mut(&id) {
                        None => assert!(!done, "ack on untracked request completed it"),
                        Some((needed, acked)) => {
                            if !acked.contains(&server) {
                                acked.push(server);
                            }
                            let expect_done = acked.len() >= *needed;
                            assert_eq!(
                                done, expect_done,
                                "quorum {id}: {} distinct acks of {needed}",
                                acked.len()
                            );
                            if expect_done {
                                model.remove(&id);
                            }
                        }
                    }
                }
                QuorumOp::Abort { id } => {
                    let was = real.abort(u64::from(id));
                    assert_eq!(was, model.remove(&id).is_some());
                }
            }
            assert_eq!(real.outstanding(), model.len());
        }
    }

    /// `ReplicaSelector::choose` under arbitrary health flips and
    /// penalties: results are distinct, healthy, exactly `k`-sized, and
    /// least-loaded first; `None` exactly when too few servers are up.
    fn replica_selector_invariants(ops in gen::vecs(sel_op_gen(), 1..80)) {
        const N: usize = 8;
        let servers: Vec<ServerId> = (0..N as u32).map(ServerId).collect();
        let mut sel = ReplicaSelector::new(servers.clone());
        let mut healthy = [true; N];
        let mut placed = [0u64; N];

        for op in &ops {
            match *op {
                SelOp::SetHealthy { server, up } => {
                    let s = usize::from(server) % N;
                    sel.set_healthy(servers[s], up);
                    healthy[s] = up;
                    assert_eq!(sel.is_healthy(servers[s]), up);
                }
                SelOp::Penalize { server, amount } => {
                    let s = usize::from(server) % N;
                    sel.penalize(servers[s], u64::from(amount));
                    placed[s] = placed[s].saturating_add(u64::from(amount));
                }
                SelOp::Choose { k } => {
                    let k = usize::from(k);
                    let up = healthy.iter().filter(|&&h| h).count();
                    match sel.choose(k) {
                        None => assert!(up < k, "stalled with {up} healthy ≥ k={k}"),
                        Some(chosen) => {
                            assert!(up >= k);
                            assert_eq!(chosen.len(), k);
                            let mut uniq = chosen.to_vec();
                            uniq.sort();
                            uniq.dedup();
                            assert_eq!(uniq.len(), k, "duplicate replica chosen");
                            for &c in &chosen {
                                assert!(healthy[c.0 as usize], "unhealthy replica chosen");
                            }
                            // Least-loaded-first: every chosen server sorts
                            // (placed, id)-before every unchosen healthy one,
                            // judged against pre-choose placement counts.
                            for &c in &chosen {
                                let ci = c.0 as usize;
                                for u in 0..N {
                                    if healthy[u] && !chosen.contains(&servers[u]) {
                                        assert!(
                                            (placed[ci], ci) <= (placed[u], u),
                                            "chose s{ci} (placed {}) over s{u} (placed {})",
                                            placed[ci],
                                            placed[u]
                                        );
                                    }
                                }
                            }
                            for &c in &chosen {
                                placed[c.0 as usize] += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(
                sel.healthy_count(),
                healthy.iter().filter(|&&h| h).count()
            );
        }
    }
}
