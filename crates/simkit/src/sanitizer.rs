//! `shardsan` — a debug-build shard-ownership sanitizer for the sharded
//! engine.
//!
//! The determinism argument of [`crate::shard`] rests on a discipline the
//! type system cannot see: during the parallel section of a window, a
//! worker may touch only the state owned by the shard it is executing,
//! and *barrier-time globals* (state shared across shards) may mutate
//! only in the single-threaded work between windows. A violation does not deadlock
//! or crash — it silently makes the executed schedule depend on the
//! thread interleaving, which the golden suites only catch after it
//! corrupts an exercised seed.
//!
//! `shardsan` turns that discipline into a runtime check. Worlds tag
//! their owned state with a [`ShardTag`] carrying the owning shard id;
//! accessors call [`ShardTag::check`] on entry. The engine maintains a
//! thread-local mode:
//!
//! - **Inactive** — outside any `ShardedSim::run` (setup/teardown code,
//!   unit tests). Every check passes: sequential execution cannot race.
//! - **Parallel { shard, at, seq }** — this worker is executing the given
//!   shard's events inside a window. [`ShardTag::check`] panics unless the
//!   tag's owner is that shard; [`assert_barrier`] panics unconditionally.
//! - **Barrier { at }** — the single-threaded work between windows
//!   (message delivery and `handle_global`). Ownership checks pass
//!   (exactly one thread runs), and [`assert_barrier`] documents+verifies
//!   that a global mutation happens here and nowhere else.
//!
//! Panic messages carry the offending *shard pair*, the simulated event
//! time, and the event's scheduler sequence number, so a report like
//! `shard 0 touched … owned by shard 3 at t=1234ps seq=56` replays
//! deterministically from the seed at any `SMARTDS_THREADS`.
//!
//! The whole tracker is `#[cfg(debug_assertions)]`-gated: release builds
//! (golden fixture regeneration, perf baselines) compile every hook to a
//! no-op, so the sanitizer costs nothing where throughput is measured,
//! while `cargo test` — a dev-profile build — always runs sanitized.

use crate::time::Time;

/// What the current thread is doing, from the engine's point of view.
#[cfg(debug_assertions)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Not inside `ShardedSim::run` — sequential code, checks pass.
    Inactive,
    /// Executing `shard`'s events in the parallel section of a window.
    Parallel { shard: u32, at_ps: u64, seq: u64 },
    /// In the single-threaded work between windows: the mailbox merge, or
    /// a barrier operation at its instant.
    Barrier { at_ps: u64 },
}

#[cfg(debug_assertions)]
thread_local! {
    static MODE: std::cell::Cell<Mode> = const { std::cell::Cell::new(Mode::Inactive) };
}

/// Tags a piece of simulation state with the shard that owns it.
///
/// Embed one in each shard-owned structure and call [`ShardTag::check`]
/// at the top of every accessor that reads or mutates the owned state.
/// In release builds the check compiles to nothing; in debug builds it
/// panics when a worker executing a *different* shard reaches the
/// accessor during the parallel section of a window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardTag {
    owner: u32,
}

impl ShardTag {
    /// Tags state as owned by shard `owner` (the index into the
    /// `ShardedSim` world vector).
    pub const fn new(owner: u32) -> Self {
        ShardTag { owner }
    }

    /// The owning shard id.
    pub const fn owner(&self) -> u32 {
        self.owner
    }

    /// Asserts the executing worker may touch this state. `what` names
    /// the state for the panic message (e.g. `"storage server chunks"`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds when called from the parallel section of a
    /// window while a different shard's events are executing. Passes in
    /// release builds, outside `ShardedSim::run`, and during the
    /// single-threaded merge.
    #[track_caller]
    #[inline]
    pub fn check(&self, what: &str) {
        #[cfg(debug_assertions)]
        if let Mode::Parallel { shard, at_ps, seq } = MODE.get() {
            assert!(
                shard == self.owner,
                "shardsan: shard {shard} touched {what} owned by shard {owner} at \
                 t={at_ps}ps seq={seq}; cross-shard effects must travel as messages \
                 (Scheduler::send) or barrier operations (ShardedSim::schedule_global). \
                 Replay: same seed, any SMARTDS_THREADS.",
                owner = self.owner,
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = what;
    }
}

/// Asserts that barrier-time global state (state no single shard owns)
/// is being mutated outside the parallel section — i.e. either in the
/// single-threaded merge (`handle_global`) or in plain sequential code.
///
/// # Panics
///
/// Panics in debug builds when called while a worker is executing a
/// shard's events inside a window.
#[track_caller]
pub fn assert_barrier(what: &str) {
    #[cfg(debug_assertions)]
    if let Mode::Parallel { shard, at_ps, seq } = MODE.get() {
        panic!(
            "shardsan: {what} mutated during the parallel section (worker running \
             shard {shard} at t={at_ps}ps seq={seq}); barrier-time globals may only \
             change in the single-threaded merge. Replay: same seed, any \
             SMARTDS_THREADS.",
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// Engine hook: the current worker is about to execute one event of
/// `shard` at time `at` with scheduler sequence `seq`.
#[allow(unused_variables)]
pub(crate) fn enter_event(shard: u32, at: Time, seq: u64) {
    #[cfg(debug_assertions)]
    MODE.set(Mode::Parallel {
        shard,
        at_ps: at.as_ps(),
        seq,
    });
}

/// Engine hook: the current worker finished its shards for this window.
pub(crate) fn exit_parallel() {
    #[cfg(debug_assertions)]
    MODE.set(Mode::Inactive);
}

/// Engine hook: the coordinator entered the single-threaded merge.
#[allow(unused_variables)]
pub(crate) fn enter_barrier(at: Time) {
    #[cfg(debug_assertions)]
    MODE.set(Mode::Barrier { at_ps: at.as_ps() });
}

/// Engine hook: the merge is done; back to inactive until the next window.
pub(crate) fn exit_barrier() {
    #[cfg(debug_assertions)]
    MODE.set(Mode::Inactive);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test restores Inactive on exit so test-thread reuse cannot
    // leak a mode into an unrelated test.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            exit_parallel();
        }
    }

    #[test]
    fn inactive_mode_passes_everything() {
        let _r = Reset;
        let tag = ShardTag::new(3);
        tag.check("anything");
        assert_barrier("anything");
        assert_eq!(tag.owner(), 3);
    }

    #[test]
    fn owner_check_passes_for_the_executing_shard() {
        let _r = Reset;
        enter_event(2, Time::from_ps(10), 7);
        ShardTag::new(2).check("own state");
        exit_parallel();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn foreign_shard_touch_panics_with_shard_pair_time_and_seq() {
        let _r = Reset;
        enter_event(0, Time::from_ps(1234), 56);
        let err = std::panic::catch_unwind(|| {
            ShardTag::new(3).check("the victim chunk store");
        })
        .expect_err("cross-shard touch must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("shardsan"), "{msg}");
        assert!(msg.contains("shard 0"), "{msg}");
        assert!(msg.contains("shard 3"), "{msg}");
        assert!(msg.contains("t=1234ps"), "{msg}");
        assert!(msg.contains("seq=56"), "{msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn barrier_assert_panics_inside_the_parallel_section() {
        let _r = Reset;
        enter_event(1, Time::from_ps(5), 9);
        let err = std::panic::catch_unwind(|| {
            assert_barrier("cluster-wide scrub bookkeeping");
        })
        .expect_err("global mutation inside a window must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("parallel section"), "{msg}");
        assert!(msg.contains("shard 1"), "{msg}");
    }

    #[test]
    fn barrier_mode_passes_owner_checks_and_barrier_asserts() {
        let _r = Reset;
        enter_barrier(Time::from_ps(99));
        ShardTag::new(7).check("merge-time delivery");
        assert_barrier("merge-time global");
        exit_barrier();
    }
}
