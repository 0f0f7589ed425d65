//! Pins the bytes of the block pools the simulator draws payloads from.
//!
//! Every golden fixture and every perfbench `sim_*` value depends on these
//! bytes, so a generator change that moves one fails here, naming the pool,
//! instead of surfacing later as a golden diff. The digests were recorded
//! with one `powf` per literal byte, which the table sampler reproduces.

use corpus::{BlockPool, Profile};

/// FNV-1a over every block in pool order.
fn digest(pool: &BlockPool) -> u64 {
    (0..pool.len())
        .flat_map(|i| pool.get(i).iter().copied())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn silesia_pool_bytes_are_pinned() {
    let pool = BlockPool::build(4096, 256, 42);
    assert_eq!(
        digest(&pool),
        11_659_429_195_067_733_990,
        "BlockPool::build(4096, 256, 42) moved"
    );
}

/// The services_mixed benchmark pool.
#[test]
fn text_like_pool_bytes_are_pinned() {
    let pool = BlockPool::from_profile(4096, 2048, 2, &Profile::text_like());
    assert_eq!(
        digest(&pool),
        13_366_579_248_392_970_525,
        "BlockPool::from_profile(4096, 2048, 2, text_like) moved"
    );
}
