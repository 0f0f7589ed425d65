//! Property tests for the wakeup driver: [`WakeSet`] must be
//! indistinguishable from the naive push-per-batch driver it replaces.
//!
//! Each case draws a script over k fluids — flow starts, capacity
//! changes, and unrelated events, some of them landing on a fluid's next
//! wake instant to force same-instant ties — and runs it twice: once
//! driven by `WakeSet`, once by a test-only naive driver that pushes a
//! heap entry for every touched fluid after every event and drops stale
//! deliveries by epoch. Both runs must log the same live wakes
//! `(time, index, epoch)`, the same completions, and the same scheduler
//! sequence numbers at every unrelated event, in the same order.

use simkit::{
    gbps, FlowSpec, FluidResource, Scheduler, ShardWorld, ShardedSim, Time, WakeSet, World,
};
use testkit::gen::{self, Gen};
use testkit::one_of;

#[derive(Clone, Debug)]
enum Op {
    /// Start a flow of `kib` KiB at weight `weight` on fluid `fluid`.
    Start { fluid: usize, kib: u16, weight: u8 },
    /// Re-rate fluid `fluid` to `pct` % of its capacity (0 stalls it).
    Capacity { fluid: usize, pct: u8 },
    /// Schedule an unrelated event at fluid `fluid`'s next wake instant.
    Echo { fluid: usize },
}

/// One unrelated event of the script: at `at_us`, apply `ops`.
#[derive(Clone, Debug)]
struct Batch {
    at_us: u8,
    ops: Vec<Op>,
}

const MAX_FLUIDS: usize = 4;

fn op_gen() -> impl Gen<Value = Op> {
    let fluid = || gen::usizes(0..MAX_FLUIDS);
    one_of![
        (fluid(), gen::u16s(1..2048), gen::u8s(1..4))
            .map(|(fluid, kib, weight)| Op::Start { fluid, kib, weight }),
        (fluid(), gen::choice([0u8, 25, 50, 100])).map(|(fluid, pct)| Op::Capacity { fluid, pct }),
        fluid().map(|fluid| Op::Echo { fluid }),
    ]
}

fn batch_gen() -> impl Gen<Value = Batch> {
    (gen::u8s(0..40), gen::vecs(op_gen(), 0..6)).map(|(at_us, ops)| Batch { at_us, ops })
}

/// What both drivers must agree on, in execution order.
#[derive(Debug, PartialEq)]
enum Rec {
    /// A live wake: `(time, fluid, epoch)`.
    Wake(Time, usize, u64),
    /// A flow finished: `(time, fluid, token)`.
    Done(Time, usize, u64),
    /// An unrelated event ran: `(time, id, the scheduler's next seq)`.
    Unrelated(Time, u64, u64),
}

#[derive(Debug)]
enum Ev {
    Batch(usize),
    Echo(u64),
    Wake(usize, u64, u64),
    /// Ends the run.
    End,
}

/// The wakeup protocol under test: `WakeSet`, or the naive oracle.
trait Driver: Send {
    fn touch(&mut self, i: usize);
    fn arm(&mut self, sched: &mut Scheduler<Ev>, fluids: &[FluidResource]);
    /// Whether the delivered wake is live.
    fn deliver(&mut self, sched: &mut Scheduler<Ev>, wake: (usize, u64, u64), current: u64)
        -> bool;
}

impl Driver for WakeSet {
    fn touch(&mut self, i: usize) {
        WakeSet::touch(self, i);
    }

    fn arm(&mut self, sched: &mut Scheduler<Ev>, fluids: &[FluidResource]) {
        WakeSet::arm(self, sched, |i| &fluids[i], Ev::Wake);
    }

    fn deliver(
        &mut self,
        sched: &mut Scheduler<Ev>,
        (i, epoch, serial): (usize, u64, u64),
        current: u64,
    ) -> bool {
        WakeSet::deliver(self, sched, i, epoch, serial, current, Ev::Wake)
    }
}

/// The push-per-batch driver: one heap entry per touched fluid per
/// event, stale deliveries dropped by the epoch check.
struct Naive {
    touched: Vec<bool>,
}

impl Driver for Naive {
    fn touch(&mut self, i: usize) {
        self.touched[i] = true;
    }

    fn arm(&mut self, sched: &mut Scheduler<Ev>, fluids: &[FluidResource]) {
        let now = sched.now();
        for (i, t) in self.touched.iter_mut().enumerate() {
            if std::mem::take(t) {
                if let Some(at) = fluids[i].next_wake() {
                    sched.schedule_at(at.max(now), Ev::Wake(i, fluids[i].epoch(), 0));
                }
            }
        }
    }

    fn deliver(&mut self, _: &mut Scheduler<Ev>, (_, epoch, _): (usize, u64, u64), current: u64)
        -> bool {
        epoch == current
    }
}

struct Net<D> {
    fluids: Vec<FluidResource>,
    driver: D,
    batches: Vec<Batch>,
    next_token: u64,
    next_echo: u64,
    log: Vec<Rec>,
}

impl<D: Driver> Net<D> {
    fn drain(&mut self, i: usize, now: Time) {
        self.fluids[i].sync(now);
        for end in self.fluids[i].take_completed() {
            self.log.push(Rec::Done(now, i, end.token));
        }
        self.driver.touch(i);
    }
}

impl<D: Driver> ShardWorld for Net<D> {}

impl<D: Driver> World for Net<D> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        match ev {
            Ev::Wake(i, epoch, serial) => {
                let current = self.fluids[i].epoch();
                if !self.driver.deliver(sched, (i, epoch, serial), current) {
                    return;
                }
                self.log.push(Rec::Wake(now, i, epoch));
                self.drain(i, now);
            }
            Ev::Echo(id) => {
                self.log.push(Rec::Unrelated(now, id, sched.reserve_seq()));
            }
            Ev::End => sched.stop(),
            Ev::Batch(b) => {
                self.log.push(Rec::Unrelated(now, b as u64, sched.reserve_seq()));
                let k = self.fluids.len();
                for op in self.batches[b].ops.clone() {
                    match op {
                        Op::Start { fluid, kib, weight } => {
                            let i = fluid % k;
                            let spec = FlowSpec::new().weight(f64::from(weight));
                            let bytes = f64::from(kib) * 1024.0;
                            self.fluids[i].start_flow(now, bytes, spec, self.next_token);
                            self.next_token += 1;
                            self.driver.touch(i);
                        }
                        Op::Capacity { fluid, pct } => {
                            let i = fluid % k;
                            self.fluids[i].set_capacity_frac(now, f64::from(pct) / 100.0);
                            self.drain(i, now);
                        }
                        Op::Echo { fluid } => {
                            if let Some(at) = self.fluids[fluid % k].next_wake() {
                                self.next_echo += 1;
                                sched.schedule_at(at.max(now), Ev::Echo(1000 + self.next_echo));
                            }
                        }
                    }
                }
            }
        }
        self.driver.arm(sched, &self.fluids);
    }
}

/// Runs `batches` over `k` fluids under `driver` and returns the log.
fn drive<D: Driver>(k: usize, batches: &[Batch], driver: D) -> Vec<Rec> {
    let net = Net {
        fluids: (0..k).map(|_| FluidResource::new("prop", gbps(100.0))).collect(),
        driver,
        batches: batches.to_vec(),
        next_token: 0,
        next_echo: 0,
        log: Vec::new(),
    };
    let mut sim = ShardedSim::new(vec![net], Time::MAX).with_threads(1);
    for (b, batch) in batches.iter().enumerate() {
        sim.schedule_at(0, Time::from_us(f64::from(batch.at_us)), Ev::Batch(b));
    }
    sim.schedule_at(0, Time::from_ms(100.0), Ev::End);
    sim.run();
    sim.into_worlds().remove(0).log
}

testkit::prop! {
    cases = 512;

    /// `WakeSet` and the naive driver deliver the same live wakes, the
    /// same completions, and leave the same sequence numbers to every
    /// unrelated event.
    fn wake_set_matches_the_naive_driver(
        k in gen::usizes(1..MAX_FLUIDS + 1),
        batches in gen::vecs(batch_gen(), 1..32),
    ) {
        let want = drive(k, &batches, Naive { touched: vec![false; k] });
        let got = drive(k, &batches, WakeSet::new(k));
        assert_eq!(got, want);
    }
}
