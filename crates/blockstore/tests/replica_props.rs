//! Property tests for the replication primitives the fault-handling path
//! leans on: the in-slot write [`Quorum`] under arbitrary
//! open/ack/abort interleavings across reused slots (checked against a
//! reference model) and `ReplicaSelector::choose` under arbitrary health
//! flips and penalties.
//!
//! These are the tests that forced quorum acks to tolerate late arrivals:
//! with timeouts in the write path, an ack can arrive after the attempt
//! was aborted or already completed, and that must be a no-op — not a
//! panic, and never a double completion.

use blockstore::{Quorum, ReplicaSelector, ServerId};
use simkit::{Slab, SlotKey};
use std::collections::BTreeMap;
use testkit::gen::{self, Gen};
use testkit::one_of;

#[derive(Clone, Debug)]
enum QuorumOp {
    /// A write attempt takes a slot, needing `needed` acks.
    Begin { needed: u8 },
    /// An ack from `server` carrying the `pick`-th key ever minted — live,
    /// or stale once its attempt ended and the slot moved on.
    Ack { pick: u8, server: u8 },
    /// The attempt under the `pick`-th minted key ends (completion or
    /// timeout): its quorum is aborted and its slot freed.
    Free { pick: u8 },
}

fn quorum_op_gen() -> impl Gen<Value = QuorumOp> {
    one_of![
        gen::u8s(1..5).map(|needed| QuorumOp::Begin { needed }),
        (gen::u8s(0..=255), gen::u8s(0..6)).map(|(pick, server)| QuorumOp::Ack { pick, server }),
        gen::u8s(0..=255).map(|pick| QuorumOp::Free { pick }),
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

    /// The in-slot quorum against a reference model, held the way the
    /// cluster holds it: in a generational slab slot reached through the
    /// key its RPCs carry. Duplicate acks never double-count, acks after
    /// abort or completion are no-ops, a quorum completes exactly when
    /// `needed` *distinct* servers acked, and an ack carrying a key from
    /// before the slot's generation bumped never lands on the slot's next
    /// attempt.
    fn in_slot_quorum_matches_model(ops in gen::vecs(quorum_op_gen(), 1..80)) {
        let mut slab: Slab<Quorum> = Slab::new();
        let mut minted: Vec<SlotKey> = Vec::new();
        // Live attempts → (needed, distinct servers acked); `None` once
        // the quorum closed.
        let mut model: BTreeMap<SlotKey, Option<(usize, Vec<ServerId>)>> = BTreeMap::new();
        for op in &ops {
            match *op {
                QuorumOp::Begin { needed } => {
                    let needed = usize::from(needed);
                    let key = slab.insert(Quorum::open(needed));
                    // A reused slot comes back under a new generation, so
                    // no earlier attempt's key can name this attempt.
                    assert!(!minted.contains(&key), "{key:?} minted twice");
                    assert!(model.insert(key, Some((needed, Vec::new()))).is_none());
                    minted.push(key);
                }
                QuorumOp::Ack { pick, server } => {
                    let Some(&key) = minted.get(usize::from(pick) % minted.len().max(1)) else {
                        continue;
                    };
                    let Some(quorum) = slab.get_mut(key) else {
                        assert!(!model.contains_key(&key), "a live key stopped resolving");
                        continue; // stale: dropped before any quorum sees it
                    };
                    let Some(state) = model.get_mut(&key) else {
                        panic!("stale key {key:?} reached a quorum");
                    };
                    let server = ServerId(u32::from(server));
                    let done = quorum.ack(server);
                    match state {
                        None => assert!(!done, "ack on a closed quorum completed it"),
                        Some((needed, acked)) => {
                            if !acked.contains(&server) {
                                acked.push(server);
                            }
                            let expect_done = acked.len() >= *needed;
                            assert_eq!(
                                done, expect_done,
                                "{key:?}: {} distinct acks of {needed}",
                                acked.len()
                            );
                            if expect_done {
                                *state = None;
                            }
                        }
                    }
                }
                QuorumOp::Free { pick } => {
                    let Some(&key) = minted.get(usize::from(pick) % minted.len().max(1)) else {
                        continue;
                    };
                    match (slab.remove(key), model.remove(&key)) {
                        (Some(mut quorum), Some(state)) => {
                            assert_eq!(quorum.abort(), state.is_some());
                        }
                        (None, None) => {}
                        (got, want) => panic!("{key:?}: slab {got:?} vs model {want:?}"),
                    }
                }
            }
            for (&key, state) in &model {
                let want: &[ServerId] = state.as_ref().map_or(&[], |(_, acked)| acked);
                let quorum = slab.get(key).expect("a live key resolves");
                assert_eq!(quorum.acked_servers(), want, "acked set diverged");
            }
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
