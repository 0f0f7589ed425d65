//! `shardsan` self-test: the runtime shard-ownership sanitizer must catch
//! an injected cross-shard mutation, and its presence must not move the
//! simulated schedule.
//!
//! The sanitizer only exists in debug builds (`#[cfg(debug_assertions)]`
//! in `simkit::sanitizer`), which is exactly the profile `cargo test`
//! compiles, so this whole file is gated the same way: in a release test
//! run the checks are no-ops and there is nothing to assert.
#![cfg(debug_assertions)]

use simkit::Time;
use smartds::{cluster, Design, RunConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn quick(seed: u64) -> RunConfig {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 2 });
    cfg.warmup = Time::from_ms(1.0);
    cfg.measure = Time::from_ms(4.0);
    cfg.pool_blocks = 64;
    cfg.seed = seed;
    cfg
}

/// A deliberately sabotaged hub — one that pokes state tagged as owned by
/// store shard 1 while handling its own events — must die with a report
/// naming both shards plus the event's time and sequence number, the
/// coordinates needed to replay the violation under any thread count. The
/// panic must surface at every worker count, not only when one thread
/// runs every shard.
#[test]
fn injected_cross_shard_mutation_panics_with_both_shard_ids() {
    let cfg = quick(101);
    for threads in [1, 2, 4] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            cluster::run_counted_stats(
                &cfg,
                |c| c.shardsan_inject_cross_shard_touch(1),
                Some(threads),
            )
        }));
        let payload = result.expect_err("sanitizer must catch the injected cross-shard touch");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .expect("panic payload should be a message");
        assert!(
            msg.contains("shardsan"),
            "threads={threads}: not a sanitizer report: {msg}"
        );
        assert!(
            msg.contains("shard 0"),
            "threads={threads}: missing offending shard: {msg}"
        );
        assert!(
            msg.contains("shard 1"),
            "threads={threads}: missing owning shard: {msg}"
        );
        assert!(
            msg.contains("t="),
            "threads={threads}: missing event time: {msg}"
        );
        assert!(
            msg.contains("seq="),
            "threads={threads}: missing event seq: {msg}"
        );
        assert!(
            msg.contains("Scheduler::send"),
            "threads={threads}: report should name the sanctioned channels: {msg}"
        );
    }
}

/// With no sabotage the sanitizer is pure observation: a full sharded run
/// completes, and the report is byte-identical between 1 and 4 worker
/// threads with every ownership check live.
#[test]
fn sanitized_run_is_clean_and_thread_invariant() {
    let cfg = quick(101);
    let (one, _, _) = cluster::run_counted_stats(&cfg, |_| {}, Some(1));
    let (four, _, _) = cluster::run_counted_stats(&cfg, |_| {}, Some(4));
    assert!(one.writes_done > 0, "workload ran");
    assert_eq!(
        one.to_json(),
        four.to_json(),
        "sanitizer must not perturb the schedule"
    );
}
