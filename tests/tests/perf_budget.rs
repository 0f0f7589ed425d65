//! Events-budget regression guard: a wall-clock-free perf gate.
//!
//! Wall time depends on the host, so tier-1 cannot assert on it. What it
//! *can* assert on is the number of discrete events the engine executes
//! for a pinned workload — that count is deterministic per seed, and the
//! hot-path work in this repo (incremental water-filling, wakeup
//! coalescing) exists precisely to keep it from creeping: a regression
//! that re-arms a wakeup per rate change or leaks stale heap entries
//! shows up here as an event-count jump long before anyone notices a
//! slow sweep.
//!
//! Each pinned seed runs a small quick-profile workload mirroring one
//! `perf` experiment shape (dense sweep / chaos storm / fully traced) and
//! asserts the engine's event accounting — total and per completed
//! request — does not exceed a recorded baseline. Baselines carry ~12 %
//! headroom, so legitimate *semantic* changes (new events in the model)
//! have room to land; a hot-path regression (which typically multiplies
//! wakeups) does not.
//!
//! Since the engine went sharded, the budget is split in two and both
//! halves are capped independently:
//!
//! - **payload events** (`EngineStats::events`) — model work: fluid
//!   wakeups, CPU/engine completions, storage RPCs, timers;
//! - **synchronization events** (`EngineStats::rounds` barrier epochs +
//!   `EngineStats::messages` cross-shard mailbox deliveries) — the cost
//!   of the conservative-lookahead protocol itself.
//!
//! The split means sync-protocol churn (e.g. a lookahead bug collapsing
//! window sizes, or a chatty shard boundary) cannot hide behind a
//! loosened total, and payload regressions cannot hide behind a quiet
//! protocol.
//!
//! If a deliberate model change moves the counts, re-record: run with
//! `--nocapture`, read the printed `executed=…` lines, and set each
//! baseline to ~1.12× the new value.

use faultkit::{ChaosSpec, FaultPlan};
use simkit::Time;
use smartds::{cluster, Design, RunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A counting wrapper around the system allocator: the allocation-budget
/// tests read how many heap allocations a pinned run performs. The count
/// is per-thread (a `const`-initialized thread-local needs no lazy setup,
/// so reading it inside `alloc` cannot recurse), which keeps the gate
/// exact even while the harness runs other tests concurrently — the
/// measured engine runs single-threaded on the measuring thread.
struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TL_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        TL_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations performed by `f` on this thread.
fn count_allocs<O>(f: impl FnOnce() -> O) -> (u64, O) {
    let before = TL_ALLOCS.with(Cell::get);
    let out = f();
    (TL_ALLOCS.with(Cell::get) - before, out)
}

/// Quick-profile windows (match `bench`'s quick perf profile).
fn quick(mut cfg: RunConfig) -> RunConfig {
    cfg.warmup = Time::from_ms(1.0);
    cfg.measure = Time::from_ms(3.0);
    cfg.pool_blocks = 64;
    cfg
}

/// One workload's ceilings: payload events (total and per completed
/// request) and synchronization events (barrier rounds + mailbox
/// messages, also total and per request).
struct Budget {
    max_payload: u64,
    max_payload_per_request: f64,
    max_sync: u64,
    max_sync_per_request: f64,
}

/// Runs a config single-threaded and checks both halves of its budget.
/// (The thread count cannot change any of these counts — golden.rs pins
/// that — so one thread keeps the gate cheap.)
fn assert_budget(name: &str, cfg: &RunConfig, budget: &Budget) {
    let (report, _, stats) = cluster::run_counted_stats(cfg, |_| {}, Some(1));
    let requests = report.writes_done;
    assert!(requests > 0, "{name}: no requests completed");
    let payload = stats.events;
    let sync = stats.rounds + stats.messages;
    let payload_per_request = payload as f64 / requests as f64;
    let sync_per_request = sync as f64 / requests as f64;
    println!(
        "{name}: payload={payload} sync={sync} (rounds={} messages={}) requests={requests} \
         payload/req={payload_per_request:.1} sync/req={sync_per_request:.1}",
        stats.rounds, stats.messages
    );
    assert!(
        payload <= budget.max_payload,
        "{name}: executed {payload} payload events, budget {} — the hot path regressed \
         (or a semantic change landed; see module docs to re-record)",
        budget.max_payload
    );
    assert!(
        payload_per_request <= budget.max_payload_per_request,
        "{name}: {payload_per_request:.1} payload events/request, budget {} — the hot \
         path regressed (or a semantic change landed; see module docs to re-record)",
        budget.max_payload_per_request
    );
    assert!(
        sync <= budget.max_sync,
        "{name}: {sync} sync events (rounds+messages), budget {} — the lookahead \
         protocol churned (window collapse or a chatty shard boundary)",
        budget.max_sync
    );
    assert!(
        sync_per_request <= budget.max_sync_per_request,
        "{name}: {sync_per_request:.1} sync events/request, budget {} — the lookahead \
         protocol churned (window collapse or a chatty shard boundary)",
        budget.max_sync_per_request
    );
}

/// Dense-sweep shape: multi-port SmartDS at high closed-loop depth.
#[test]
fn events_budget_sweep_seed_101() {
    let mut cfg = quick(RunConfig::saturating(Design::SmartDs { ports: 2 }));
    cfg.outstanding = 512;
    cfg.seed = 101;
    // Recorded: payload=711_502 (54.2/req), sync=105_238 (8.0/req).
    assert_budget(
        "sweep/101",
        &cfg,
        &Budget {
            max_payload: 800_000,
            max_payload_per_request: 61.0,
            max_sync: 118_000,
            max_sync_per_request: 9.0,
        },
    );
}

/// Chaos shape: a seeded fault storm with timeouts armed (epoch churn).
#[test]
fn events_budget_chaos_seed_202() {
    let mut cfg = quick(RunConfig::saturating(Design::SmartDs { ports: 1 }));
    let end = cfg.warmup + cfg.measure;
    let spec = ChaosSpec::new(cfg.warmup, end)
        .with_servers(6)
        .with_ports(1)
        .with_crashes(1)
        .with_stalls(1)
        .with_link_flaps(2)
        .with_mean_outage(Time::from_us(600.0))
        .with_max_concurrent_down(1)
        .with_slow_factor(16.0);
    cfg.seed = 202;
    let cfg = cfg
        .with_fault_plan(FaultPlan::chaos(202, &spec))
        .with_request_timeout(Time::from_ms(1.0));
    // Recorded: payload=182_897 (72.2/req), sync=28_071 (11.1/req).
    assert_budget(
        "chaos/202",
        &cfg,
        &Budget {
            max_payload: 205_000,
            max_payload_per_request: 81.0,
            max_sync: 32_000,
            max_sync_per_request: 12.7,
        },
    );
}

/// Allocation budget: the engine's steady state must not allocate per
/// event. The timer wheel recycles slot vectors, the mailbox path swaps
/// per-pair buffers, and the fluid solver reuses its scratch — so the
/// allocation count of a pinned single-threaded run is deterministic and
/// bounded, wall-clock-free. A per-event allocation (a box per message, a
/// fresh Vec per window) multiplies this count by orders of magnitude.
#[test]
fn allocation_budget_sweep_seed_101() {
    let mut cfg = quick(RunConfig::saturating(Design::SmartDs { ports: 1 }));
    cfg.outstanding = 128;
    cfg.seed = 101;
    let (allocs, (report, _, stats)) =
        count_allocs(|| cluster::run_counted_stats(&cfg, |_| {}, Some(1)));
    assert!(report.writes_done > 0, "no requests completed");
    let per_event = allocs as f64 / stats.events as f64;
    println!(
        "alloc/101: allocs={allocs} events={} allocs/event={per_event:.3}",
        stats.events
    );
    // Recorded: allocs=40_370 (0.113/event) — the engine itself (wheel,
    // mailboxes, windows) is allocation-free in steady state, and so is
    // launching a request (plans live in the hub's plan table, replica
    // sets inline, each attempt's quorum inside its slab slot); what
    // remains is model work that owns real buffers (an LZ4 output per
    // distinct block, a boxed payload per replica RPC, map nodes of the
    // scrubber and chunk indexes). The ceiling carries ~25 % headroom.
    assert!(
        allocs <= ALLOC_BUDGET_SWEEP,
        "{allocs} heap allocations, budget {ALLOC_BUDGET_SWEEP} — a hot path \
         started allocating per event (see module docs to re-record)"
    );
}

/// Ceiling for [`allocation_budget_sweep_seed_101`].
const ALLOC_BUDGET_SWEEP: u64 = 51_000;

/// The bare engine in steady state: once the timer wheel's slot vectors
/// and the active heap have grown to working capacity, pushing and
/// popping events must not allocate at all. 64 self-rescheduling timers
/// spread pseudo-randomly over five decades of delay exercise every
/// wheel level; the ceiling tolerates a handful of stragglers (a slot
/// vector first touched after warm-up), nowhere near one per event.
#[test]
fn allocation_budget_engine_steady_state() {
    use simkit::{Scheduler, ShardWorld, ShardedSim, World};

    enum Ev {
        Timer(u64),
        /// Barrier operation: warm-up is over, take the baseline sample.
        Warm,
        End,
    }
    struct Timers {
        handled: u64,
        /// `(handled, allocations)` on this thread when warm-up ended.
        warm: (u64, u64),
    }
    impl World for Timers {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Timer(k) => {
                    self.handled += 1;
                    // Weyl-sequence delays from ~1 ns to ~100 µs: every
                    // level of the wheel stays in play, deterministically.
                    let delay = 1_000 + (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 100_000_000;
                    sched.schedule_in(Time::from_ps(delay), Ev::Timer(k.wrapping_add(1)));
                }
                Ev::Warm => {}
                Ev::End => sched.stop(),
            }
        }
    }
    impl ShardWorld for Timers {
        fn handle_global(shards: &mut [&mut Self], _: Time, _: Ev) {
            shards[0].warm = (shards[0].handled, TL_ALLOCS.with(Cell::get));
        }
    }

    // One inline shard: the whole run stays on this thread, where the
    // allocation counter lives.
    let timers = Timers {
        handled: 0,
        warm: (0, 0),
    };
    let mut sim = ShardedSim::new(vec![timers], Time::MAX).with_threads(1);
    for t in 0..64u64 {
        sim.schedule_at(0, Time::from_ps(t * 977 + 1), Ev::Timer(t * 131));
    }
    // Warm-up to 2 ms grows slot vectors and heaps to working capacity;
    // the steady phase runs on to 40 ms.
    sim.schedule_global(Time::from_ms(2.0), Ev::Warm);
    sim.schedule_at(0, Time::from_ms(40.0), Ev::End);
    sim.run();
    let end_allocs = TL_ALLOCS.with(Cell::get);
    let timers = sim.into_worlds().remove(0);
    let (warm, warm_allocs) = timers.warm;
    assert!(warm > 1_000, "warm-up handled {warm}");
    let allocs = end_allocs - warm_allocs;
    let steady = timers.handled - warm;
    println!("alloc/engine: allocs={allocs} steady_events={steady}");
    assert!(steady > 20_000, "steady phase handled {steady}");
    // Recorded: 439 (0.009/event) — individual slot vectors still grow
    // when a slot index first sees a deeper occupancy than its history;
    // that is bounded by the slot count times log(max occupancy), not by
    // the event count.
    assert!(
        allocs < 1_000,
        "{allocs} allocations across {steady} steady-state events — the \
         engine hot path started allocating"
    );
}

/// The fluid solver in steady state: a 512-flow port driven through
/// dense_write's pattern (every completion refilled at once) plus one
/// early abort per wake must not allocate at all once its flow table, tag
/// heap and scratch buffers have grown to working size.
#[test]
fn allocation_budget_fluid_soak() {
    use simkit::{FlowEnd, FlowId, FlowSpec, FluidResource, Rng};

    const LANES: u64 = 512;
    fn block(rng: &mut Rng) -> f64 {
        4096.0 * (0.25 + rng.gen_exp(1.0))
    }
    /// One wake: retire, refill every finished lane, abort and restart one
    /// random lane. Returns the completions it drained.
    fn cycle(
        res: &mut FluidResource,
        rng: &mut Rng,
        lanes: &mut [FlowId],
        done: &mut Vec<FlowEnd>,
    ) -> usize {
        let at = res.next_wake().expect("finite flows always pend");
        res.sync(at);
        res.take_completed_into(done);
        let n = done.len();
        for end in done.drain(..) {
            lanes[end.token as usize] = res.start_flow(at, block(rng), FlowSpec::new(), end.token);
        }
        let lane = rng.gen_range(LANES);
        res.end_flow(at, lanes[lane as usize]);
        lanes[lane as usize] = res.start_flow(at, block(rng), FlowSpec::new(), lane);
        n
    }

    let mut res = FluidResource::new("soak", 12.5e9);
    let mut rng = Rng::new(0x50AC);
    let mut lanes: Vec<FlowId> = (0..LANES)
        .map(|t| res.start_flow(Time::ZERO, block(&mut rng), FlowSpec::new(), t))
        .collect();
    let mut done: Vec<FlowEnd> = Vec::new();
    // Warm-up: grow the completion buffers to their working size.
    for _ in 0..2_000 {
        cycle(&mut res, &mut rng, &mut lanes, &mut done);
    }
    let (allocs, completions) = count_allocs(|| {
        (0..20_000)
            .map(|_| cycle(&mut res, &mut rng, &mut lanes, &mut done))
            .sum::<usize>()
    });
    println!("alloc/fluid: allocs={allocs} completions={completions}");
    assert!(completions >= 20_000, "soak retired only {completions} flows");
    assert_eq!(res.active_flows(), LANES as usize);
    assert_eq!(
        allocs, 0,
        "the fluid solver allocated {allocs} times across 20k steady-state wakes"
    );
}

/// Breakdown shape: every request traced (span pipeline on each event).
#[test]
fn events_budget_traced_seed_303() {
    let mut cfg = quick(RunConfig::saturating(Design::SmartDs { ports: 1 }));
    cfg.seed = 303;
    let cfg = cfg.with_trace(tracekit::TraceConfig {
        sample_one_in: 1,
        capacity: 1 << 17,
    });
    // Recorded: payload=308_841 (54.9/req), sync=47_107 (8.4/req).
    assert_budget(
        "traced/303",
        &cfg,
        &Budget {
            max_payload: 345_000,
            max_payload_per_request: 62.0,
            max_sync: 53_000,
            max_sync_per_request: 9.5,
        },
    );
}
