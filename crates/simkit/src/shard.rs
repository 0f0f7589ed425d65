//! Conservative sharded parallel execution of a discrete-event simulation.
//!
//! A [`ShardedSim`] runs a set of [`ShardWorld`]s — one event queue, one
//! world each — in lockstep *synchronization windows*. Every round the
//! engine computes the global minimum next-event time `T` and lets each
//! shard execute its local events in `[T, T + L)` where `L` is the
//! *conservative lookahead*: the minimum latency of any cross-shard
//! interaction. Because a message sent at time `t ≥ T` arrives no earlier
//! than `t + L ≥ T + L`, nothing sent during a window can land inside it,
//! so the shards are causally independent within the window and may run on
//! different threads. This is the classic barrier-epoch variant of
//! conservative parallel discrete-event simulation (Chandy–Misra–Bryant
//! lookahead, with a global window instead of per-link null messages).
//!
//! # Determinism
//!
//! The merged execution is a pure function of the initial schedule — the
//! thread count changes wall-clock time only. The argument:
//!
//! 1. **Within a shard**, events execute in heap order
//!    `(time, class, src, seq)`. Local events carry `class = 1` and the
//!    shard's own FIFO sequence; deliveries carry `class = 0`, the sending
//!    shard id, and the sender's message sequence. All components are
//!    assigned by simulation logic, never by thread timing.
//! 2. **Across shards**, a delivery's heap key is fixed at *send* time.
//!    Whichever window it is merged in, it sorts identically against every
//!    other event — deliveries cannot race with same-time local events
//!    because `class` orders them first, deterministically. Hence the
//!    execution order is independent of where window boundaries fall, and
//!    in particular equals the windowless sequential merge (the reference
//!    oracle in this module's tests executes exactly that merge).
//! 3. **Window boundaries themselves** are a function of queue contents
//!    only (the horizons below), so rounds and message counts are also
//!    thread-invariant.
//! 4. Threads only decide *which core* executes a shard's window; shards
//!    share no state (barrier operations run single-threaded between
//!    windows), so the final state is identical for any thread count.
//!
//! # Barrier operations
//!
//! A barrier operation ([`ShardedSim::schedule_global`]) is an event at a
//! fixed simulated instant `g` that needs every shard in scope at once
//! (a cluster-wide scrub or snapshot). While one is pending, every
//! horizon is capped at `g + 1 ps`, so no shard executes anything later
//! than `g`; the operation runs through [`ShardWorld::handle_global`] at
//! the start of the first round in which no shard has an event at or
//! before `g`. It therefore observes exactly "every event ≤ `g` done,
//! nothing later" — the windowless merge's state at `g` — under any
//! lookahead matrix and any thread count. Operations at one instant run
//! in scheduling order. A [`Scheduler::stop`] at instant `t` ends the run
//! after its window: every operation before `t` has run by then, and
//! those at or after `t` never run.
//!
//! # Pair lookahead
//!
//! Horizons come from one rule: a closed per-(sender, receiver) latency
//! matrix `D⁺` and each shard's next-event time `Nⱼ` give shard `i` the
//! horizon `hᵢ = min over j of (Nⱼ + D⁺(j, i))`. A message from `j` can
//! reach `i` no earlier than `Nⱼ + D⁺(j, i)` — directly or through any
//! relay chain — so every shard executes strictly inside its causal safe
//! zone. The flat window is the *uniform* matrix: every entry `L`,
//! diagonal included, which closes to itself and gives every shard
//! `min_j Nⱼ + L`. When the model's communication graph is known,
//! [`ShardedSim::with_pair_lookahead`] replaces it with a matrix of
//! minimum direct message latencies, closed transitively (Floyd–Warshall
//! over walks of ≥ 1 hop, so `D⁺(i, i)` is the minimum round-trip cycle).
//! The merged schedule is *identical* either way — barrier operations
//! included — and only the number of synchronization rounds drops.
//!
//! # Costs
//!
//! Each round is one horizon computation and one outbox merge, both on
//! the coordinator thread. On the scoped path a round gate hands the
//! window to the workers: the coordinator publishes the horizons, bumps a
//! generation counter and unparks the workers; each waits by spinning,
//! then yielding, then parking, and counts itself finished. Rounds in
//! which no worker-owned shard has an event due run on the coordinator
//! alone, without waking anyone. The engine reports [`EngineStats`]
//! (payload events vs. synchronization rounds and messages) so perf
//! budgets can cap protocol overhead separately from model work. With
//! one worker thread the engine skips the scoped-thread machinery
//! entirely — no spawns, no gate, no atomics — and sweeps the shards
//! inline; the executed schedule is byte-identical by construction and
//! pinned by a test. Cross-shard traffic moves through per-(sender,
//! receiver) growable buffers that are swapped, drained, and swapped back
//! each epoch, so the mailbox path allocates nothing in steady state.
//!
//! A panic on any engine thread ends the run with that panic's payload;
//! no thread is left waiting on the gate.

use crate::engine::{Outgoing, Scheduler, World};
use crate::sanitizer;
use crate::time::Time;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

/// A world that can run as one shard of a [`ShardedSim`].
///
/// `handle` (from [`World`]) services this shard's own events and may call
/// [`Scheduler::send`]; `handle_global` services the barrier operations
/// scheduled with [`ShardedSim::schedule_global`], with every shard in
/// scope.
pub trait ShardWorld: World + Send {
    /// Executes one barrier operation with exclusive access to all shards
    /// (`shards[i]` is shard `i`'s world). Runs single-threaded between
    /// windows at its scheduled instant `at`, once every shard has executed
    /// all of its events at or before `at` and none later.
    fn handle_global(shards: &mut [&mut Self], at: Time, ev: Self::Event)
    where
        Self: Sized,
    {
        let _ = (shards, at, ev);
    }
}

/// Engine-work accounting split into model payload and sync protocol.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Payload events executed by shard worlds (the model's work).
    pub events: u64,
    /// Synchronization rounds (windows / barrier epochs).
    pub rounds: u64,
    /// Cross-shard messages merged through the deterministic mailboxes.
    pub messages: u64,
}

/// Thread count from `SMARTDS_THREADS`, defaulting to 1 (sequential).
///
/// Parallel execution is opt-in: it pays only when the shards' work per
/// round outweighs the round gate's hand-off (and the host has the cores),
/// so the engine never silently fans out.
pub fn env_threads() -> usize {
    std::env::var("SMARTDS_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

struct Cell<W: ShardWorld> {
    world: W,
    sched: Scheduler<W::Event>,
    executed: u64,
}

/// A sharded simulation: per-shard event queues synchronized by
/// conservative lookahead windows. See the module docs for the protocol
/// and determinism argument.
pub struct ShardedSim<W: ShardWorld> {
    cells: Vec<Mutex<Cell<W>>>,
    lookahead: Time,
    /// Transitive closure `D⁺` of the pair-latency matrix (`n × n`,
    /// sender-major); uniformly `lookahead` for the flat window.
    matrix: Vec<Time>,
    threads: usize,
    rounds: u64,
    messages: u64,
    /// Pending barrier operations, ordered by `(instant, scheduling
    /// order)`.
    globals: VecDeque<(Time, W::Event)>,
    /// Per-(sender, receiver) mailbox buffers (`n × n`, sender-major),
    /// swapped against each scheduler's outboxes at every barrier so the
    /// merge reuses their capacity instead of allocating per round.
    mail: Vec<Vec<Outgoing<W::Event>>>,
    /// Every per-shard window horizon, in round order — the epoch
    /// sequence the property suite asserts is thread-invariant.
    #[cfg(test)]
    epoch_log: Vec<u64>,
    /// Rounds in which the scoped path woke its workers (the rest ran on
    /// the coordinator alone).
    #[cfg(test)]
    dispatched: u64,
}

fn lock<W: ShardWorld>(cell: &Mutex<Cell<W>>) -> MutexGuard<'_, Cell<W>> {
    // A poisoned lock means a worker panicked mid-window; the panic is
    // already propagating through the thread scope, so recovering the
    // guard here only serves unwinding code.
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

fn get_mut<W: ShardWorld>(cell: &mut Mutex<Cell<W>>) -> &mut Cell<W> {
    cell.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Executes one shard's events strictly below `horizon`.
///
/// `shard` is the cell's index in the world vector; each event is
/// bracketed by a `shardsan` mode update so ownership checks inside
/// `World::handle` know which shard the worker is executing (and can
/// stamp time + seq into a violation report). The caller resets the
/// worker's mode with [`sanitizer::exit_parallel`] once its shards for
/// the window are done.
fn run_window<W: ShardWorld>(shard: u32, cell: &mut Cell<W>, horizon: Time) {
    while !cell.sched.is_stopped() {
        let Some(s) = cell.sched.pop_if_before(horizon) else {
            break;
        };
        cell.sched.set_now(s.at);
        cell.executed += 1;
        sanitizer::enter_event(shard, s.at, s.seq);
        cell.world.handle(s.event, &mut cell.sched);
    }
}

impl<W: ShardWorld> ShardedSim<W>
where
    W::Event: Send,
{
    /// Builds an engine over `worlds` (shard `i` = `worlds[i]`) with the
    /// given conservative lookahead. Thread count defaults to
    /// [`env_threads`]; override with [`ShardedSim::with_threads`].
    ///
    /// # Panics
    ///
    /// Panics when `worlds` is empty or `lookahead` is zero (a zero
    /// lookahead admits same-window causality and would serialize every
    /// event anyway).
    pub fn new(worlds: Vec<W>, lookahead: Time) -> Self {
        assert!(!worlds.is_empty(), "a sharded sim needs at least one shard");
        assert!(lookahead > Time::ZERO, "lookahead must be positive");
        let n = worlds.len();
        let cells: Vec<Mutex<Cell<W>>> = worlds
            .into_iter()
            .enumerate()
            .map(|(i, world)| {
                let sched = Scheduler::new(i as u32, lookahead, n);
                Mutex::new(Cell {
                    world,
                    sched,
                    executed: 0,
                })
            })
            .collect();
        ShardedSim {
            cells,
            lookahead,
            matrix: vec![lookahead; n * n],
            threads: env_threads(),
            rounds: 0,
            messages: 0,
            globals: VecDeque::new(),
            mail: (0..n * n).map(|_| Vec::new()).collect(),
            #[cfg(test)]
            epoch_log: Vec::new(),
            #[cfg(test)]
            dispatched: 0,
        }
    }

    /// Sets the worker-thread count (1 = run every shard inline). The
    /// simulated outcome is identical for any value; only wall time moves.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the flat window — the uniform matrix, every entry the
    /// engine's lookahead — with per-shard-pair conservative windows (see
    /// the module docs). `direct[i][j]` is the minimum simulated latency
    /// of any message shard `i` sends shard `j` — [`Time::MAX`] for pairs
    /// that never exchange messages directly. The engine closes the
    /// matrix transitively over ≥ 1-hop walks, so relayed causality
    /// (including round-trip self-cycles) is bounded too, and widens each
    /// round's per-shard horizon accordingly. The executed schedule is
    /// identical to the flat window's; only `rounds` in [`EngineStats`]
    /// drops. A latency claim the model then undercuts is caught by the
    /// merge-time lookahead assertion.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n × n` or any finite entry is below
    /// the engine's flat lookahead (the flat bound is what
    /// [`Scheduler::send`] enforces, so a smaller pair entry would claim
    /// traffic the send path forbids anyway).
    pub fn with_pair_lookahead(mut self, direct: Vec<Vec<Time>>) -> Self {
        let n = self.cells.len();
        assert_eq!(direct.len(), n, "pair-lookahead matrix must be n x n");
        let mut dist = vec![Time::MAX; n * n];
        for (i, row) in direct.iter().enumerate() {
            assert_eq!(row.len(), n, "pair-lookahead matrix must be n x n");
            for (j, &d) in row.iter().enumerate() {
                assert!(
                    d >= self.lookahead,
                    "pair lookahead {d:?} for ({i} -> {j}) below flat lookahead {:?}",
                    self.lookahead
                );
                dist[i * n + j] = d;
            }
        }
        // Floyd–Warshall over walks of at least one edge: with the
        // diagonal seeded from direct self-edges (usually MAX), dist[i][i]
        // converges to the minimum round-trip cycle through any relay.
        for k in 0..n {
            for i in 0..n {
                let ik = dist[i * n + k];
                if ik == Time::MAX {
                    continue;
                }
                for j in 0..n {
                    let through = ik.saturating_add(dist[k * n + j]);
                    if through < dist[i * n + j] {
                        dist[i * n + j] = through;
                    }
                }
            }
        }
        self.matrix = dist;
        self
    }

    /// Schedules an event on shard `shard` before the run starts.
    pub fn schedule_at(&mut self, shard: usize, at: Time, event: W::Event) {
        get_mut(&mut self.cells[shard]).sched.schedule_at(at, event);
    }

    /// Schedules barrier operation `event` at simulated instant `at`: it
    /// runs through [`ShardWorld::handle_global`] with every shard in
    /// scope once every shard has executed all of its events at or before
    /// `at`, and none later (see the module docs). Operations at one
    /// instant run in scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before any shard's current time.
    pub fn schedule_global(&mut self, at: Time, event: W::Event) {
        for cell in &mut self.cells {
            let now = get_mut(cell).sched.now();
            assert!(at >= now, "barrier operation at {at:?} before now {now:?}");
        }
        let i = self.globals.partition_point(|(g, _)| *g <= at);
        self.globals.insert(i, (at, event));
    }

    /// Shard `shard`'s current simulated time.
    pub fn now(&mut self, shard: usize) -> Time {
        get_mut(&mut self.cells[shard]).sched.now()
    }

    /// Consumes the engine, returning the shard worlds in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.cells
            .into_iter()
            .map(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner).world)
            .collect()
    }

    /// Payload / synchronization accounting for the run so far.
    pub fn stats(&mut self) -> EngineStats {
        EngineStats {
            events: self.cells.iter_mut().map(|c| get_mut(c).executed).sum(),
            rounds: self.rounds,
            messages: self.messages,
        }
    }

    /// Runs to completion: until every queue drains (every pending barrier
    /// operation then runs) or a shard calls [`Scheduler::stop`] (the run
    /// ends after that window).
    pub fn run(&mut self) {
        let n = self.cells.len();
        let threads = self.threads.min(n).max(1);
        if threads == 1 {
            self.run_inline();
        } else {
            self.run_scoped(threads);
        }
    }

    /// The single-thread path: an inline sweep over the shards with no
    /// worker spawns, no round gate, and no atomics. Rounds,
    /// horizons, and the merge are computed by the same helpers as the
    /// scoped path, so the executed schedule is identical by construction
    /// (and pinned by the `inline_and_scoped_paths_are_byte_identical`
    /// test).
    fn run_inline(&mut self) {
        let n = self.cells.len();
        let mut next: Vec<Option<Time>> = vec![None; n];
        let mut horizons: Vec<Time> = vec![Time::ZERO; n];
        loop {
            let (cells, globals) = (&self.cells, &mut self.globals);
            if !begin_round(cells, &self.matrix, globals, &mut next, &mut horizons) {
                break;
            }
            self.rounds += 1;
            #[cfg(test)]
            self.epoch_log.extend(horizons.iter().map(|h| h.as_ps()));
            for (i, cell) in self.cells.iter_mut().enumerate() {
                run_window(i as u32, get_mut(cell), horizons[i]);
            }
            sanitizer::exit_parallel();
            let stop = merge_windows(&self.cells, &horizons, &mut self.mail, &mut self.messages);
            if stop {
                break;
            }
        }
    }

    /// The multi-thread path. Worker `w` owns shards `w, w + threads, …`;
    /// the coordinator (the calling thread) owns the rest, including the
    /// hub at shard 0. Each round the coordinator computes horizons,
    /// opens the [`Gate`] if any worker-owned shard has an event due
    /// before its horizon, runs its own shards, waits for the workers it
    /// woke, and merges the mailboxes alone. A round with nothing due on
    /// a worker-owned shard runs on the coordinator without waking
    /// anyone: `run_window` on such a shard is a no-op, so horizons,
    /// merge order, rounds, and messages are the inline path's.
    ///
    /// A panic on any engine thread ends the run with that panic's own
    /// payload. An unwinding worker poisons the gate and wakes the
    /// coordinator, which closes the gate, joins the workers, and resumes
    /// the worker's unwind; a coordinator panic closes the gate through
    /// [`Opener`]'s drop, so the workers exit and the scope re-raises the
    /// coordinator's payload.
    fn run_scoped(&mut self, threads: usize) {
        let n = self.cells.len();
        let workers = threads - 1;
        let gate = Gate {
            generation: AtomicU64::new(0),
            finished: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            coordinator: std::thread::current(),
        };
        let horizon_ps: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let cells = &self.cells;
        let matrix = &self.matrix;
        let globals = &mut self.globals;
        let mut mail = std::mem::take(&mut self.mail);
        let mut rounds = 0u64;
        let mut messages = 0u64;
        let mut next: Vec<Option<Time>> = vec![None; n];
        let mut horizons: Vec<Time> = vec![Time::ZERO; n];
        #[cfg(test)]
        let mut epochs: Vec<u64> = Vec::new();
        #[cfg(test)]
        let mut dispatched = 0u64;
        std::thread::scope(|scope| {
            // Built before the first spawn, so even a failed spawn closes
            // the gate for the workers already running.
            let mut opener = Opener {
                gate: &gate,
                workers: Vec::with_capacity(workers),
            };
            let handles: Vec<_> = (1..threads)
                .map(|w| {
                    let (gate, horizon_ps) = (&gate, &horizon_ps);
                    let handle = scope.spawn(move || {
                        let _poison = PoisonOnUnwind(gate);
                        let mut seen = 0;
                        while let Some(generation) = gate.next_round(seen) {
                            seen = generation;
                            for i in (w..n).step_by(threads) {
                                let h = Time::from_ps(horizon_ps[i].load(Ordering::Acquire));
                                run_window(i as u32, &mut lock(&cells[i]), h);
                            }
                            sanitizer::exit_parallel();
                            gate.finish(workers);
                        }
                    });
                    opener.workers.push(handle.thread().clone());
                    handle
                })
                .collect();
            loop {
                if !begin_round(cells, matrix, globals, &mut next, &mut horizons) {
                    break;
                }
                rounds += 1;
                #[cfg(test)]
                epochs.extend(horizons.iter().map(|h| h.as_ps()));
                let dispatch =
                    (0..n).any(|i| i % threads != 0 && next[i].is_some_and(|t| t < horizons[i]));
                if dispatch {
                    #[cfg(test)]
                    {
                        dispatched += 1;
                    }
                    for (slot, h) in horizon_ps.iter().zip(&horizons) {
                        slot.store(h.as_ps(), Ordering::Release);
                    }
                    opener.open_round();
                }
                for i in (0..n).step_by(threads) {
                    run_window(i as u32, &mut lock(&cells[i]), horizons[i]);
                }
                sanitizer::exit_parallel();
                if dispatch && !gate.await_workers(workers) {
                    break;
                }
                let stop = merge_windows(cells, &horizons, &mut mail, &mut messages);
                if stop {
                    break;
                }
            }
            drop(opener);
            // Joining here, rather than leaving it to the scope, keeps a
            // worker's own panic payload: the scope would replace it with
            // "a scoped thread panicked".
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        self.mail = mail;
        self.rounds += rounds;
        self.messages += messages;
        #[cfg(test)]
        {
            self.epoch_log.append(&mut epochs);
            self.dispatched += dispatched;
        }
    }
}

/// Spin-loop iterations a waiting engine thread burns before it parks.
/// A round's work is a few microseconds, so a waiter that spins this long
/// usually sees the next signal without a futex sleep and wake. An
/// iteration count, not a clock: the wait never reads wall time.
const SPIN_LIMIT: u32 = 2_048;

/// A spinning waiter yields its core every this many iterations, so an
/// oversubscribed host (more engine threads than cores) still runs the
/// thread it waits for.
const YIELD_EVERY: u32 = 64;

/// Spins, then yields, then parks until `ready` holds. Whoever makes
/// `ready` true must `unpark` the waiting thread afterwards; an unpark
/// that lands before the park leaves a token, so it is never lost, and
/// `ready` is checked again after every `park` return, so a spurious or
/// stale wake is harmless.
fn wait_until(mut ready: impl FnMut() -> bool) {
    let mut spins = 0u32;
    while !ready() {
        if spins < SPIN_LIMIT {
            spins += 1;
            if spins.is_multiple_of(YIELD_EVERY) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        } else {
            std::thread::park();
        }
    }
}

/// The round gate between the coordinator and the scoped workers.
///
/// Orderings: the coordinator resets `finished` and publishes the
/// horizons before its `Release` bump of `generation`, and a worker
/// reads them after its `Acquire` load sees the bump; `closed` is stored
/// before the closing bump the same way. Cell state itself moves
/// between threads under the cells' mutexes.
struct Gate {
    /// Bumped by the coordinator to open a round (and once more to close
    /// the gate); each worker waits for a value it has not seen.
    generation: AtomicU64,
    /// Workers done with the current round.
    finished: AtomicUsize,
    /// The run is over; set before the closing bump.
    closed: AtomicBool,
    /// A worker is unwinding.
    poisoned: AtomicBool,
    /// The thread that runs the rounds, woken by the last finisher and
    /// by a poisoning worker.
    coordinator: Thread,
}

impl Gate {
    /// Worker side: waits for a round newer than `seen` and returns its
    /// generation, or `None` once the gate is closed.
    fn next_round(&self, seen: u64) -> Option<u64> {
        let mut generation = seen;
        wait_until(|| {
            generation = self.generation.load(Ordering::Acquire);
            generation != seen
        });
        (!self.closed.load(Ordering::Acquire)).then_some(generation)
    }

    /// Worker side: reports this worker's shards done for the round.
    fn finish(&self, workers: usize) {
        if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == workers {
            self.coordinator.unpark();
        }
    }

    /// Coordinator side: waits until every worker finished the round;
    /// returns `false` instead if a worker panicked.
    fn await_workers(&self, workers: usize) -> bool {
        wait_until(|| {
            self.finished.load(Ordering::Acquire) == workers
                || self.poisoned.load(Ordering::Acquire)
        });
        !self.poisoned.load(Ordering::Acquire)
    }
}

/// The coordinator's side of the [`Gate`]. Dropping it closes the gate
/// and wakes every worker — at the end of the run, and equally while the
/// coordinator unwinds, so a coordinator panic never strands a worker.
struct Opener<'a> {
    gate: &'a Gate,
    workers: Vec<Thread>,
}

impl Opener<'_> {
    /// Opens a round: every worker runs its shards to the published
    /// horizons.
    fn open_round(&self) {
        self.gate.finished.store(0, Ordering::Relaxed);
        self.bump();
    }

    /// Publishes a new generation and wakes every worker. `unpark` is one
    /// atomic swap on a thread that is not parked.
    fn bump(&self) {
        self.gate.generation.fetch_add(1, Ordering::Release);
        for t in &self.workers {
            t.unpark();
        }
    }
}

impl Drop for Opener<'_> {
    fn drop(&mut self) {
        self.gate.closed.store(true, Ordering::Relaxed);
        self.bump();
    }
}

/// Held by each worker: if the worker unwinds, poisons the [`Gate`] and
/// wakes the coordinator so it stops waiting for the round.
struct PoisonOnUnwind<'a>(&'a Gate);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
            self.0.coordinator.unpark();
        }
    }
}

/// Starts a round: reads every shard's next-event time, runs the barrier
/// operations now due, and computes the per-shard horizons. Returns
/// `false` when all queues are empty — the run is complete, and every
/// pending barrier operation has run.
///
/// `h_i = min_j(N_j + D⁺(j, i))` — each shard runs to the earliest instant
/// any shard's pending work could causally reach it, including its own
/// sends reflected back (`j = i` with the min round-trip cycle). Under the
/// uniform flat matrix every horizon is `min_j(N_j) + L`. A pending
/// barrier operation at `g` caps every horizon at `g + 1 ps`.
fn begin_round<W: ShardWorld>(
    cells: &[Mutex<Cell<W>>],
    dist: &[Time],
    globals: &mut VecDeque<(Time, W::Event)>,
    next: &mut [Option<Time>],
    horizons: &mut [Time],
) -> bool {
    let n = cells.len();
    for (slot, cell) in next.iter_mut().zip(cells) {
        *slot = lock(cell).sched.next_time();
    }
    let first = next.iter().flatten().min().copied();
    run_due_globals(cells, globals, first);
    if first.is_none() {
        return false;
    }
    let cap = globals
        .front()
        .map_or(Time::MAX, |(g, _)| g.saturating_add(Time::from_ps(1)));
    for (i, h) in horizons.iter_mut().enumerate() {
        let mut bound = cap;
        for (j, nj) in next.iter().enumerate() {
            if let Some(nj) = nj {
                bound = bound.min(nj.saturating_add(dist[j * n + i]));
            }
        }
        *h = bound;
    }
    true
}

/// Runs, in order, every pending barrier operation before `first` (the
/// earliest pending event; `None` when every queue is empty). Horizons
/// never pass a pending operation, so each one sees every event at or
/// before its instant done and nothing later. Single-threaded: the
/// workers are parked at the gate between rounds.
fn run_due_globals<W: ShardWorld>(
    cells: &[Mutex<Cell<W>>],
    globals: &mut VecDeque<(Time, W::Event)>,
    first: Option<Time>,
) {
    let due = |g: Time| first.is_none_or(|t| g < t);
    if !globals.front().is_some_and(|&(g, _)| due(g)) {
        return;
    }
    let mut guards: Vec<MutexGuard<'_, Cell<W>>> = cells.iter().map(lock).collect();
    let mut worlds: Vec<&mut W> = guards.iter_mut().map(|g| &mut g.world).collect();
    while let Some((at, event)) = globals.pop_front_if(|(g, _)| due(*g)) {
        sanitizer::enter_barrier(at);
        W::handle_global(&mut worlds, at, event);
        sanitizer::exit_barrier();
    }
}

/// Post-window barrier work: merge the per-(sender, receiver) mailbox
/// buffers into destination queues and report whether any shard requested
/// a stop. Single-threaded; fully deterministic (sender-major swap order,
/// receiver-major drain order — and delivery order cannot matter anyway,
/// because the queue orders by the `(time, class, src, seq)` key stamped
/// at send time).
fn merge_windows<W: ShardWorld>(
    cells: &[Mutex<Cell<W>>],
    horizons: &[Time],
    mail: &mut [Vec<Outgoing<W::Event>>],
    messages: &mut u64,
) -> bool {
    // Only the coordinator runs here, after the post-window barrier:
    // Barrier mode lets ownership checks pass.
    let barrier_at = horizons.iter().copied().min().unwrap_or(Time::ZERO);
    sanitizer::enter_barrier(barrier_at);
    let n = cells.len();
    let mut stop = false;
    for (src, cell) in cells.iter().enumerate() {
        let mut c = lock(cell);
        c.sched.swap_outboxes(&mut mail[src * n..(src + 1) * n]);
        stop |= c.sched.is_stopped();
    }
    for (dst, cell) in cells.iter().enumerate() {
        let mut c = lock(cell);
        for src in 0..n {
            let buf = &mut mail[src * n + dst];
            if buf.is_empty() {
                continue;
            }
            *messages += buf.len() as u64;
            for m in buf.drain(..) {
                assert!(
                    m.at >= horizons[dst],
                    "lookahead violation: arrival {:?} inside window ending {:?}",
                    m.at,
                    horizons[dst]
                );
                c.sched.deliver(m.at, src as u32, m.seq, m.event);
            }
        }
    }
    sanitizer::exit_barrier();
    stop
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Toy cross-shard RPC model: shard 0 ("hub") issues requests to store
    /// shards, each serves after a service delay and acks back. Mirrors
    /// the cluster's hub/storage decomposition with none of its weight.
    #[derive(Clone, Debug)]
    enum TEv {
        /// Hub: issue request `id` to shard `dst` (service time in ps).
        Issue { id: u64, dst: u32, service: u64 },
        /// Store shard: request arrived.
        Serve { id: u64 },
        /// Store shard: service finished.
        Done { id: u64 },
        /// Hub: ack for `id` arrived.
        Ack { id: u64 },
        /// Local no-op, for tie-break stress.
        Tick(u64),
        /// Barrier operation `k`: records what every shard has executed
        /// and halves every backlog (so its instant shapes later service
        /// times).
        Global(u64),
    }

    const LOOKAHEAD: Time = Time::from_ps(1_000);

    #[derive(Default)]
    struct Node {
        /// Execution log: `(time ps, discriminant, id)` per handled event.
        log: Vec<(u64, u8, u64)>,
        /// Hub only: completion time per request id.
        completions: BTreeMap<u64, u64>,
        /// Store only: in-service backlog → deterministic extra delay.
        backlog: u64,
        /// Hub only: per barrier operation, `(instant ps, k, every shard's
        /// executed-event count)`.
        observed: Vec<(u64, u64, Vec<usize>)>,
    }

    fn disc(ev: &TEv) -> (u8, u64) {
        match ev {
            TEv::Issue { id, .. } => (0, *id),
            TEv::Serve { id } => (1, *id),
            TEv::Done { id } => (2, *id),
            TEv::Ack { id } => (3, *id),
            TEv::Tick(id) => (4, *id),
            TEv::Global(k) => (5, *k),
        }
    }

    impl World for Node {
        type Event = TEv;
        fn handle(&mut self, ev: TEv, sched: &mut Scheduler<TEv>) {
            let (d, id) = disc(&ev);
            self.log.push((sched.now().as_ps(), d, id));
            match ev {
                TEv::Issue { id, dst, service } => {
                    sched.send(dst, LOOKAHEAD, TEv::Serve { id });
                    // Service time rides in the id map via backlog on the
                    // store side; stash it through the id (tests use
                    // id-derived service below), so nothing else needed.
                    let _ = service;
                }
                TEv::Serve { id } => {
                    // Deterministic service: id-derived plus backlog skew.
                    let service = 500 + (id % 7) * 131 + self.backlog * 17;
                    self.backlog += 1;
                    sched.schedule_in(Time::from_ps(service), TEv::Done { id });
                }
                TEv::Done { id } => {
                    self.backlog = self.backlog.saturating_sub(1);
                    sched.send(0, LOOKAHEAD, TEv::Ack { id });
                }
                TEv::Ack { id } => {
                    self.completions.insert(id, sched.now().as_ps());
                }
                TEv::Tick(_) | TEv::Global(_) => {}
            }
        }
    }

    impl ShardWorld for Node {
        fn handle_global(shards: &mut [&mut Self], at: Time, ev: TEv) {
            let TEv::Global(k) = ev else { return };
            let seen = shards.iter().map(|s| s.log.len()).collect();
            for s in shards.iter_mut() {
                s.backlog /= 2;
            }
            shards[0].observed.push((at.as_ps(), k, seen));
        }
    }

    /// A seeded op script: `(shard, at ps, event)` pre-run schedule. A
    /// [`TEv::Global`] entry is a barrier operation (its shard is unused).
    type Script = Vec<(usize, u64, TEv)>;

    /// Loads `script` into `sim`.
    fn schedule_script(sim: &mut ShardedSim<Node>, script: &Script) {
        for (shard, at, ev) in script {
            let at = Time::from_ps(*at);
            match ev {
                TEv::Global(_) => sim.schedule_global(at, ev.clone()),
                _ => sim.schedule_at(*shard, at, ev.clone()),
            }
        }
    }

    /// The single-shard reference engine: a windowless sequential merge.
    /// Repeatedly executes the globally minimal event (per-shard heaps
    /// compare by the same `(time, class, src, seq)` key; cross-shard ties
    /// cannot interact, broken by shard id) and delivers any messages it
    /// sent immediately. A barrier operation runs as soon as no shard has
    /// an event at or before its instant. No lookahead, no windows — the
    /// oracle the windowed engine must match exactly.
    fn run_reference(stores: usize, script: &Script) -> (Vec<Node>, Vec<u64>) {
        let n = stores + 1;
        let mut cells: Vec<(Node, Scheduler<TEv>, u64)> = build_worlds(stores)
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w, Scheduler::new(i as u32, LOOKAHEAD, n), 0u64))
            .collect();
        let mut bufs: Vec<Vec<Outgoing<TEv>>> = (0..n).map(|_| Vec::new()).collect();
        let mut globals: Vec<(u64, TEv)> = Vec::new();
        for (shard, at, ev) in script {
            match ev {
                TEv::Global(_) => globals.push((*at, ev.clone())),
                _ => cells[*shard].1.schedule_at(Time::from_ps(*at), ev.clone()),
            }
        }
        // Stable: same-instant operations keep their scheduling order.
        globals.sort_by_key(|g| g.0);
        let mut globals = globals.into_iter().peekable();
        loop {
            // Peek every shard's head key by popping and re-delivering is
            // invasive; instead compare next_time and, on ties, pop the
            // candidate with the smallest full key via a two-phase peek.
            let next: Option<(Time, usize)> = cells
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.1.next_time().map(|t| (t, i)))
                .min();
            while let Some((at, ev)) =
                globals.next_if(|(g, _)| next.is_none_or(|(t, _)| *g < t.as_ps()))
            {
                let mut worlds: Vec<&mut Node> = cells.iter_mut().map(|c| &mut c.0).collect();
                Node::handle_global(&mut worlds, Time::from_ps(at), ev);
            }
            let Some((_, shard)) = next else { break };
            // Cross-shard same-time ties: shards only interact through
            // messages ≥ lookahead away, so any execution order of a
            // same-time tie across *different* shards yields the same
            // state; shard-id order keeps the oracle itself deterministic.
            let (w, s, ex) = &mut cells[shard];
            let Some(ev) = s.pop() else { continue };
            s.set_now(ev.at);
            *ex += 1;
            w.handle(ev.event, s);
            s.swap_outboxes(&mut bufs);
            let src = shard as u32;
            for dst in 0..n {
                for m in bufs[dst].drain(..) {
                    cells[dst].1.deliver(m.at, src, m.seq, m.event);
                }
            }
        }
        let counts = cells.iter().map(|c| c.2).collect();
        (cells.into_iter().map(|c| c.0).collect(), counts)
    }

    /// The fixed seeded op script: issues with deliberate time collisions
    /// (same issue instants, acks converging on the hub at equal times)
    /// to stress the deterministic mailbox tie-breaks.
    fn fixed_script(stores: usize) -> Script {
        let mut script: Script = Vec::new();
        for id in 0..40u64 {
            // Bursts of 4 issues share one timestamp.
            let at = 10 + (id / 4) * 700;
            let dst = (id % stores as u64) as u32 + 1;
            script.push((
                0,
                at,
                TEv::Issue {
                    id,
                    dst,
                    service: 0,
                },
            ));
        }
        // Same-time local ticks on the hub collide with ack deliveries.
        for k in 0..30u64 {
            script.push((0, 1_510 + k * 100, TEv::Tick(k)));
        }
        // Ticks on a store shard collide with serve deliveries.
        for k in 0..10u64 {
            script.push((1, 1_010 + k * 700, TEv::Tick(100 + k)));
        }
        // Barrier operations: two on the instant of a hub tick and an
        // issue burst, one past the last event.
        for (k, at) in [2_810u64, 2_810, 99_000].into_iter().enumerate() {
            script.push((0, at, TEv::Global(k as u64)));
        }
        script
    }

    const STORES: usize = 3;

    fn build_worlds(stores: usize) -> Vec<Node> {
        (0..stores + 1).map(|_| Node::default()).collect()
    }

    /// Runs the windowed engine — on the flat window, or on `matrix` when
    /// given; returns worlds, stats, per-shard executed counts, and the
    /// epoch (window-horizon) sequence.
    fn run_sharded(
        stores: usize,
        script: &Script,
        threads: usize,
        matrix: Option<Vec<Vec<Time>>>,
    ) -> (Vec<Node>, EngineStats, Vec<u64>, Vec<u64>) {
        let mut sim = ShardedSim::new(build_worlds(stores), LOOKAHEAD).with_threads(threads);
        if let Some(m) = matrix {
            sim = sim.with_pair_lookahead(m);
        }
        schedule_script(&mut sim, script);
        sim.run();
        let stats = sim.stats();
        let counts: Vec<u64> = (0..stores + 1)
            .map(|i| get_mut(&mut sim.cells[i]).executed)
            .collect();
        let epochs = sim.epoch_log.clone();
        (sim.into_worlds(), stats, counts, epochs)
    }

    /// Core property: for a given topology and script, the windowed engine
    /// (flat, or on the star matrix with `star`) at every thread count
    /// matches the windowless oracle event-for-event, and the sync protocol
    /// (epoch sequence, message/round counts) is thread-invariant. Returns
    /// the stats.
    fn assert_matches_oracle(stores: usize, script: &Script, star: bool) -> EngineStats {
        let (ref_worlds, ref_counts) = run_reference(stores, script);
        let mut first: Option<(EngineStats, Vec<u64>)> = None;
        for threads in [1, 2, 4] {
            let matrix = star.then(|| star_matrix(stores));
            let (worlds, stats, counts, epochs) = run_sharded(stores, script, threads, matrix);
            assert_eq!(
                counts, ref_counts,
                "threads={threads}: per-shard executed-event counts drifted"
            );
            for (i, (w, r)) in worlds.iter().zip(&ref_worlds).enumerate() {
                assert_eq!(
                    w.log, r.log,
                    "threads={threads}: shard {i} execution log drifted from oracle"
                );
                assert_eq!(
                    w.completions, r.completions,
                    "threads={threads}: shard {i} completion times drifted"
                );
                assert_eq!(
                    w.observed, r.observed,
                    "threads={threads}: shard {i} barrier observations drifted"
                );
            }
            match &first {
                None => first = Some((stats, epochs)),
                Some((s1, e1)) => {
                    assert_eq!(&stats, s1, "threads={threads}: stats drifted");
                    assert_eq!(&epochs, e1, "threads={threads}: epoch sequence drifted");
                }
            }
        }
        first.map(|(stats, _)| stats).unwrap_or_default()
    }

    #[test]
    fn windowed_execution_matches_windowless_reference_oracle() {
        assert_matches_oracle(STORES, &fixed_script(STORES), false);
    }

    #[test]
    fn thread_count_never_changes_outcome_or_sync_protocol() {
        let script = fixed_script(STORES);
        let (base, stats1, counts1, epochs1) = run_sharded(STORES, &script, 1, None);
        for threads in [2, 3, 4, 8] {
            let (worlds, stats, counts, epochs) = run_sharded(STORES, &script, threads, None);
            assert_eq!(stats, stats1, "threads={threads}: stats drifted");
            assert_eq!(counts, counts1, "threads={threads}");
            assert_eq!(epochs, epochs1, "threads={threads}: epoch sequence drifted");
            for (w, b) in worlds.iter().zip(&base) {
                assert_eq!(w.log, b.log, "threads={threads}");
            }
        }
        assert!(stats1.messages > 0 && stats1.rounds > 0);
    }

    // Random topologies (1–6 store shards) and seeded op scripts, shrunk by
    // testkit on failure. Times are quantized to quarter-lookahead slots so
    // same-instant collisions (the tie-break stress) are common, and every
    // store gets both cross-shard traffic and colliding local ticks.
    testkit::prop! {
        cases = 32;

        fn random_topology_and_script_match_reference_oracle(
            stores in testkit::gen::u64s(1..=6),
            issues in testkit::gen::vecs(
                (testkit::gen::u64s(0..40), testkit::gen::u64s(0..6)),
                1..=60,
            ),
            ticks in testkit::gen::vecs(
                (testkit::gen::u64s(0..80), testkit::gen::u64s(0..7)),
                0..=30,
            ),
            globals in testkit::gen::vecs(testkit::gen::u64s(0..100), 0..=6),
        ) {
            let stores = stores as usize;
            let slot = LOOKAHEAD.as_ps() / 4;
            let mut script: Script = Vec::new();
            for (id, (at_slot, dst)) in issues.iter().enumerate() {
                script.push((
                    0,
                    10 + at_slot * slot,
                    TEv::Issue {
                        id: id as u64,
                        dst: (dst % stores as u64) as u32 + 1,
                        service: 0,
                    },
                ));
            }
            for (k, (at_slot, shard)) in ticks.iter().enumerate() {
                let shard = (*shard as usize) % (stores + 1);
                script.push((shard, at_slot * slot, TEv::Tick(1_000 + k as u64)));
            }
            // Barrier operations land on the same quarter-lookahead grid,
            // so they tie with ticks, issues and deliveries.
            for (k, at_slot) in globals.iter().enumerate() {
                script.push((0, at_slot * slot, TEv::Global(k as u64)));
            }
            // Barrier timing must not depend on the window layout.
            assert_matches_oracle(stores, &script, false);
            assert_matches_oracle(stores, &script, true);
        }
    }

    #[test]
    fn deliveries_order_by_src_then_seq_and_before_same_time_locals() {
        // Two stores ack at the same instant; the hub also has a local
        // tick at exactly that time. Canonical order: delivery from shard
        // 1, delivery from shard 2, then the local tick.
        #[derive(Default)]
        struct Probe {
            order: Vec<(u8, u64)>,
        }
        #[derive(Clone, Debug)]
        enum PEv {
            Fire { id: u64 },
            Note { id: u64 },
        }
        impl World for Probe {
            type Event = PEv;
            fn handle(&mut self, ev: PEv, sched: &mut Scheduler<PEv>) {
                match ev {
                    PEv::Fire { id } => sched.send(0, LOOKAHEAD, PEv::Note { id }),
                    PEv::Note { id } => self.order.push((0, id)),
                }
            }
        }
        impl ShardWorld for Probe {}
        let mut sim = ShardedSim::new(
            vec![Probe::default(), Probe::default(), Probe::default()],
            LOOKAHEAD,
        )
        .with_threads(2);
        // Both fires happen at t=10 → both notes arrive at t=1010. Shard 2
        // fires *first* in wall order, but src order must win.
        sim.schedule_at(2, Time::from_ps(10), PEv::Fire { id: 20 });
        sim.schedule_at(1, Time::from_ps(10), PEv::Fire { id: 10 });
        // A local hub event at the exact arrival instant: sorts after.
        sim.schedule_at(0, Time::from_ps(1_010), PEv::Note { id: 99 });
        sim.run();
        let worlds = sim.into_worlds();
        assert_eq!(
            worlds[0].order,
            vec![(0, 10), (0, 20), (0, 99)],
            "mailbox merge order must be (time, src shard, seq), before locals"
        );
    }

    /// The star-topology pair matrix for the toy hub/store model: hub ↔
    /// store edges at the flat lookahead, store ↔ store only via the hub.
    fn star_matrix(stores: usize) -> Vec<Vec<Time>> {
        let n = stores + 1;
        let mut m = vec![vec![Time::MAX; n]; n];
        m[0][1..].fill(LOOKAHEAD);
        for row in &mut m[1..] {
            row[0] = LOOKAHEAD;
        }
        m
    }

    /// The single-thread inline sweep and the scoped-thread machinery,
    /// driven with one and with two threads, must produce byte-identical
    /// results: same logs, completions, executed counts, stats, and epoch
    /// sequence.
    #[test]
    fn inline_and_scoped_paths_are_byte_identical() {
        let script = fixed_script(STORES);
        let run = |scoped: Option<usize>| {
            let mut sim = ShardedSim::new(build_worlds(STORES), LOOKAHEAD).with_threads(1);
            schedule_script(&mut sim, &script);
            match scoped {
                Some(threads) => sim.run_scoped(threads),
                None => sim.run(), // threads = 1: takes the inline path
            }
            let stats = sim.stats();
            let epochs = sim.epoch_log.clone();
            let worlds = sim.into_worlds();
            (worlds, stats, epochs)
        };
        let (w_inline, stats_inline, epochs_inline) = run(None);
        for threads in [1, 2] {
            let (w_scoped, stats_scoped, epochs_scoped) = run(Some(threads));
            assert_eq!(
                stats_inline, stats_scoped,
                "threads={threads}: stats drifted"
            );
            assert_eq!(
                epochs_inline, epochs_scoped,
                "threads={threads}: epochs drifted"
            );
            for (i, (a, b)) in w_inline.iter().zip(&w_scoped).enumerate() {
                assert_eq!(a.log, b.log, "threads={threads}: shard {i} log drifted");
                assert_eq!(
                    a.completions, b.completions,
                    "threads={threads}: shard {i} completions drifted"
                );
                assert_eq!(a.observed, b.observed, "threads={threads}: shard {i}");
            }
        }
    }

    /// The round gate wakes the workers only in rounds where a
    /// worker-owned shard has an event due. Skipping the others must not
    /// move anything the inline run records, and on the hub/store script
    /// some rounds do skip (the hub alone is busy) while others dispatch.
    /// Eight threads exceed the shard count and are capped to it.
    #[test]
    fn idle_worker_rounds_run_on_the_coordinator_alone() {
        let script = fixed_script(STORES);
        let (base, stats1, _, epochs1) = run_sharded(STORES, &script, 1, None);
        for threads in [2, 3, 8] {
            let mut sim = ShardedSim::new(build_worlds(STORES), LOOKAHEAD).with_threads(threads);
            schedule_script(&mut sim, &script);
            sim.run();
            let stats = sim.stats();
            assert_eq!(stats, stats1, "threads={threads}: stats drifted");
            assert_eq!(sim.epoch_log, epochs1, "threads={threads}: epochs drifted");
            assert!(
                0 < sim.dispatched && sim.dispatched < stats.rounds,
                "threads={threads}: {} of {} rounds dispatched",
                sim.dispatched,
                stats.rounds
            );
            for (i, (w, b)) in sim.into_worlds().iter().zip(&base).enumerate() {
                assert_eq!(w.log, b.log, "threads={threads}: shard {i} log drifted");
                assert_eq!(
                    w.completions, b.completions,
                    "threads={threads}: shard {i} completions drifted"
                );
            }
        }
    }

    /// A toy world that panics when it handles an event on shard
    /// `panics_on`; every other event is a no-op.
    struct Fuse {
        shard: u32,
        panics_on: u32,
    }

    impl World for Fuse {
        type Event = ();
        fn handle(&mut self, _: (), _: &mut Scheduler<()>) {
            if self.shard == self.panics_on {
                panic!("fuse blew on shard {}", self.shard);
            }
        }
    }

    impl ShardWorld for Fuse {}

    /// Two threads, an event due on both shards in the same round, and a
    /// panic on `panics_on`: the run must end with that panic's payload.
    fn run_fuse(panics_on: u32) {
        let worlds = (0..2).map(|shard| Fuse { shard, panics_on }).collect();
        let mut sim = ShardedSim::new(worlds, LOOKAHEAD).with_threads(2);
        sim.schedule_at(0, Time::from_ps(5), ());
        sim.schedule_at(1, Time::from_ps(5), ());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "fuse blew on shard 1")]
    fn worker_panic_surfaces_with_its_own_payload() {
        run_fuse(1);
    }

    #[test]
    #[should_panic(expected = "fuse blew on shard 0")]
    fn coordinator_panic_releases_the_workers() {
        run_fuse(0);
    }

    /// Pair-lookahead windows must leave the executed schedule untouched
    /// — same oracle match as flat mode, at every thread count — while
    /// strictly reducing synchronization rounds on the hub/store script
    /// (stores gain slack from each other's 2-hop closure entries).
    #[test]
    fn pair_lookahead_matches_oracle_with_fewer_rounds() {
        let script = fixed_script(STORES);
        let flat = assert_matches_oracle(STORES, &script, false);
        let star = assert_matches_oracle(STORES, &script, true);
        assert_eq!(star.events, flat.events, "payload events must not change");
        assert_eq!(
            star.messages, flat.messages,
            "message count must not change"
        );
        assert!(
            star.rounds < flat.rounds,
            "the star should need fewer rounds ({} vs flat {})",
            star.rounds,
            flat.rounds
        );
    }

    /// The flat window is the uniform matrix: passing every entry `L`
    /// explicitly (diagonal included) reproduces the default engine's
    /// rounds, messages, and epoch sequence exactly.
    #[test]
    fn uniform_pair_matrix_is_the_flat_window() {
        let script = fixed_script(STORES);
        let n = STORES + 1;
        let (_, flat, _, flat_epochs) = run_sharded(STORES, &script, 1, None);
        let uniform = Some(vec![vec![LOOKAHEAD; n]; n]);
        let (_, stats, _, epochs) = run_sharded(STORES, &script, 1, uniform);
        assert_eq!(stats, flat);
        assert_eq!(epochs, flat_epochs);
    }

    // Pair-lookahead mode against the oracle on random topologies and
    // scripts — the matrix analogue of the flat-mode property above.
    testkit::prop! {
        cases = 16;

        fn pair_lookahead_random_scripts_match_reference_oracle(
            stores in testkit::gen::u64s(1..=5),
            issues in testkit::gen::vecs(
                (testkit::gen::u64s(0..40), testkit::gen::u64s(0..6)),
                1..=40,
            ),
        ) {
            let stores = stores as usize;
            let slot = LOOKAHEAD.as_ps() / 4;
            let mut script: Script = Vec::new();
            for (id, (at_slot, dst)) in issues.iter().enumerate() {
                script.push((
                    0,
                    10 + at_slot * slot,
                    TEv::Issue {
                        id: id as u64,
                        dst: (dst % stores as u64) as u32 + 1,
                        service: 0,
                    },
                ));
            }
            assert_matches_oracle(stores, &script, true);
        }
    }

    #[test]
    #[should_panic(expected = "below lookahead")]
    fn short_cross_shard_delay_panics() {
        #[derive(Clone, Debug)]
        struct Bad;
        struct BadWorld;
        impl World for BadWorld {
            type Event = Bad;
            fn handle(&mut self, _: Bad, sched: &mut Scheduler<Bad>) {
                sched.send(1, Time::from_ps(1), Bad);
            }
        }
        impl ShardWorld for BadWorld {}
        let mut sim = ShardedSim::new(vec![BadWorld, BadWorld], LOOKAHEAD);
        sim.schedule_at(0, Time::from_ps(5), Bad);
        sim.run();
    }

    #[test]
    fn stop_ends_the_run_after_the_current_window() {
        struct Stopper {
            seen: Vec<u64>,
        }
        #[derive(Clone, Debug)]
        enum SEv {
            Stop,
            Later(u64),
        }
        impl World for Stopper {
            type Event = SEv;
            fn handle(&mut self, ev: SEv, sched: &mut Scheduler<SEv>) {
                match ev {
                    SEv::Stop => sched.stop(),
                    SEv::Later(i) => self.seen.push(i),
                }
            }
        }
        impl ShardWorld for Stopper {}
        let mut sim = ShardedSim::new(vec![Stopper { seen: vec![] }], Time::from_ps(100));
        sim.schedule_at(0, Time::from_ps(10), SEv::Stop);
        // Far beyond the stop window: must never run.
        sim.schedule_at(0, Time::from_ps(100_000), SEv::Later(1));
        sim.run();
        assert!(sim.into_worlds()[0].seen.is_empty());
    }

    /// A barrier-probe world: `Mark(k)` logs `k`; `Stop` ends the run; a
    /// global logs, on every shard, its instant and what the shard has
    /// executed so far.
    #[derive(Clone, Debug)]
    enum GEv {
        Mark(u64),
        Stop,
        Global(u64),
    }

    #[derive(Default)]
    struct GNode {
        marks: Vec<u64>,
        /// `(global k, instant ps, marks executed before it)`.
        globals: Vec<(u64, u64, usize)>,
    }

    impl World for GNode {
        type Event = GEv;
        fn handle(&mut self, ev: GEv, sched: &mut Scheduler<GEv>) {
            match ev {
                GEv::Mark(k) => self.marks.push(k),
                GEv::Stop => sched.stop(),
                GEv::Global(_) => {}
            }
        }
    }

    impl ShardWorld for GNode {
        fn handle_global(shards: &mut [&mut Self], at: Time, ev: GEv) {
            if let GEv::Global(k) = ev {
                for s in shards.iter_mut() {
                    let seen = s.marks.len();
                    s.globals.push((k, at.as_ps(), seen));
                }
            }
        }
    }

    /// Two shards on the star, 2 threads: a global runs at its instant,
    /// after every event at that instant and before the next one — even
    /// though the star's horizons would otherwise run far past it — and
    /// globals left after the last event still run, in scheduling order.
    #[test]
    fn global_ops_run_at_their_instant_with_all_shards() {
        let star = vec![vec![Time::MAX, LOOKAHEAD], vec![LOOKAHEAD, Time::MAX]];
        let worlds = vec![GNode::default(), GNode::default()];
        let mut sim = ShardedSim::new(worlds, LOOKAHEAD)
            .with_pair_lookahead(star)
            .with_threads(2);
        for (shard, at, k) in [(0, 42, 1), (1, 42, 2), (0, 43, 3), (1, 5_000, 4)] {
            sim.schedule_at(shard, Time::from_ps(at), GEv::Mark(k));
        }
        sim.schedule_global(Time::from_ps(9_000), GEv::Global(3));
        sim.schedule_global(Time::from_ps(42), GEv::Global(1));
        sim.schedule_global(Time::from_ps(9_000), GEv::Global(4));
        sim.schedule_global(Time::from_ps(42), GEv::Global(2));
        sim.run();
        let worlds = sim.into_worlds();
        assert_eq!(
            worlds[0].globals,
            vec![(1, 42, 1), (2, 42, 1), (3, 9_000, 2), (4, 9_000, 2)]
        );
        assert_eq!(
            worlds[1].globals,
            vec![(1, 42, 1), (2, 42, 1), (3, 9_000, 2), (4, 9_000, 2)]
        );
    }

    /// The edge case of a global at the instant a shard stops the run
    /// (the cluster's `RunEnd`): globals before the stop instant have all
    /// run, and those at or after it never run — on the flat window and
    /// on the star alike, whatever the other shard still has pending.
    #[test]
    fn a_stop_discards_globals_at_and_after_its_instant() {
        for star in [false, true] {
            let worlds = vec![GNode::default(), GNode::default()];
            let mut sim = ShardedSim::new(worlds, LOOKAHEAD).with_threads(1);
            if star {
                let m = vec![vec![Time::MAX, LOOKAHEAD], vec![LOOKAHEAD, Time::MAX]];
                sim = sim.with_pair_lookahead(m);
            }
            sim.schedule_at(0, Time::from_ps(3_000), GEv::Stop);
            for at in (0..4_000).step_by(250) {
                sim.schedule_at(1, Time::from_ps(at), GEv::Mark(at));
            }
            for (k, at) in [(1, 2_999), (2, 3_000), (3, 3_001)] {
                sim.schedule_global(Time::from_ps(at), GEv::Global(k));
            }
            sim.run();
            let worlds = sim.into_worlds();
            // Marks 0, 250, …, 2_750 precede the global at 2_999.
            assert_eq!(worlds[1].globals, vec![(1, 2_999, 12)], "star={star}");
            assert_eq!(worlds[0].globals, vec![(1, 2_999, 0)], "star={star}");
        }
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn a_global_in_the_past_panics() {
        let mut sim = ShardedSim::new(vec![GNode::default()], LOOKAHEAD);
        sim.schedule_at(0, Time::from_ps(500), GEv::Mark(1));
        sim.run();
        sim.schedule_global(Time::from_ps(10), GEv::Global(1));
    }
}
