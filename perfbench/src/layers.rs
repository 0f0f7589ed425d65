//! The traced run (`--trace 1`): per-layer metrics, never mixed with the
//! timed end-to-end runs. It has three parts:
//!
//! - (a) the workload again, alternating untraced and fully traced
//!   (`sample_one_in = 1`) repetitions, so the traced/untraced wall-time
//!   ratio is the tracing overhead;
//! - (b) counters read from the public post-run state of the last traced
//!   repetition (simulated quantities: exact per seed);
//! - (c) host-time probes that call each layer's public functions at the
//!   workload's own shape: its live-flow count, shard count, engine
//!   threads, lookahead, message ratio, payload pool and stored blocks.

use crate::host::{timed, Stopwatch};
use crate::run::{fingerprint, run_once, Outcome, Rep};
use crate::workload::{Kind, Spec};
use crate::{median, Measured};
use simkit::{
    EngineStats, FlowEnd, FlowSpec, FluidResource, Rng, Scheduler, ShardWorld, ShardedSim, Time,
    World,
};
use smartds::fabric::FluidKey;
use smartds::{Services, ServicesConfig, Workload};
use std::hint::black_box;
use tracekit::{StageBreakdown, TraceConfig};

/// Span capacity of the traced repetitions (spans past it are counted as
/// dropped, which `trace.dropped` reports).
const TRACE_CAPACITY: usize = 1 << 20;

/// Host seconds each probe in part (c) spends, at least.
const PROBE_SECONDS: f64 = 0.25;

/// Payload events the bare-engine probe executes.
const ENGINE_PROBE_EVENTS: u64 = 1_000_000;

/// Events in flight per shard of the bare-engine probe.
const PROBE_TOKENS_PER_SHARD: u64 = 4;

/// The traced run of `kind` at `seed`, repeating part (a) for `seconds`.
pub fn traced(kind: Kind, seed: u64, seconds: f64) -> Measured {
    let spec = kind.spec(seed);
    let traced_spec = Spec {
        cfg: spec.cfg.clone().with_trace(TraceConfig {
            sample_one_in: 1,
            capacity: TRACE_CAPACITY,
        }),
        read_fraction: spec.read_fraction,
        threads: spec.threads,
    };
    let mut errors = Vec::new();

    // (a) Untraced and traced repetitions, alternating.
    let clock = Stopwatch::start();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut plain_fp: Option<String> = None;
    let mut last: Option<Rep> = None;
    loop {
        drop(last.take());
        let plain = run_once(&spec, spec.threads);
        let fp = fingerprint(&plain);
        if *plain_fp.get_or_insert_with(|| fp.clone()) != fp {
            errors.push("untraced repetitions of one seed disagree".into());
        }
        plain_walls.push(plain.wall_s);
        drop(plain);
        let rep = run_once(&traced_spec, spec.threads);
        if fingerprint(&rep) != fp {
            errors.push("tracing changed the simulated outputs".into());
        }
        traced_walls.push(rep.wall_s);
        last = Some(rep);
        if clock.secs() >= seconds {
            break;
        }
    }
    let rep = last.expect("the loop runs at least once");
    let out = Outcome::of(&rep);
    let reps = (plain_walls.len() + traced_walls.len()) as u64;

    // (b) Public post-run state of the last traced repetition.
    let ops = out.ops().max(1) as f64;
    let cfg = &spec.cfg;
    let ports = cfg.design.ports();
    let fabric = &rep.cluster.fabric;
    let epochs: u64 = (0..FluidKey::count(ports))
        .map(|i| fabric.fluid(FluidKey::from_index(i)).epoch())
        .sum();
    let stats = rep.stats;
    let r = &rep.report;
    let sim_end = (cfg.warmup + cfg.measure).as_secs();
    let cpu = &rep.cluster.cpu;
    let scale = rep.cluster.scale_stats();
    let completed: u64 = scale.classes.iter().map(|c| c.count).sum();
    let svc = rep.cluster.service_stats().unwrap_or_default();
    let tracer = &rep.cluster.tracer;
    let (chrome, export_s) = timed(|| tracer.export_chrome());
    if chrome.is_empty() {
        errors.push("traced run exported an empty Chrome trace".into());
    }
    drop(chrome);
    let seg = |name: &str| {
        r.stage_table
            .iter()
            .find(|row| row.stage == name)
            .map_or((0.0, 0.0), |row| (row.mean_us, row.p99_us))
    };
    let spans = StageBreakdown::from_spans(tracer.spans()).rows();
    let span_mean = |name: &str| {
        spans
            .iter()
            .find(|row| row.stage == name)
            .map_or(0.0, |row| row.mean_us)
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let ((ok, corrupt), audit_s) = timed(|| rep.cluster.verify_stored());
    if let Err(e) = crate::check::audit_stored(kind, &spec, &rep.cluster) {
        errors.push(e);
    }

    // (c) Host-time probes at the workload's shape.
    let fluid_key = busiest_key(&rep);
    let live_flows = fabric.fluid(fluid_key).active_flows().max(1);
    let capacity = fabric.fluid(fluid_key).nominal_capacity();
    let (start_ns, wake_ns) = fluid_probe(live_flows, capacity, seed);
    let ns_per_event = engine_probe(&spec, &stats, seed);
    let pool = match &cfg.corpus_profile {
        Some(p) => {
            Workload::with_profile(hwmodel::consts::BLOCK_SIZE, cfg.pool_blocks, cfg.seed, p)
        }
        None => Workload::new(hwmodel::consts::BLOCK_SIZE, cfg.pool_blocks, cfg.seed),
    };
    let (compress_mb_s, decompress_mb_s) = lz4_probe(&pool, &mut errors);
    let (seal_us, unseal_us) = match &cfg.services {
        Some(svc_cfg) => seal_probe(svc_cfg, &pool, &mut errors),
        None => (0.0, 0.0),
    };
    let traced_wall = median(&traced_walls);
    let plain_wall = median(&plain_walls);

    let metrics = vec![
        ("fluid.epochs", epochs as f64),
        ("fluid.epochs_per_op", epochs as f64 / ops),
        ("fluid.start_ns", start_ns),
        ("fluid.wake_ns", wake_ns),
        ("engine.events", stats.events as f64),
        ("engine.events_per_op", stats.events as f64 / ops),
        ("engine.sync_rounds", stats.rounds as f64),
        ("engine.sync_messages", stats.messages as f64),
        ("engine.events_per_round", ratio(stats.events, stats.rounds)),
        ("engine.ns_per_event", ns_per_event),
        ("fabric.mem_gbps", r.mem_read_gbps + r.mem_write_gbps),
        (
            "fabric.nic_pcie_gbps",
            r.nic_pcie_h2d_gbps + r.nic_pcie_d2h_gbps,
        ),
        (
            "fabric.dev_pcie_gbps",
            r.dev_pcie_h2d_gbps + r.dev_pcie_d2h_gbps,
        ),
        ("fabric.port_gbps", r.port_tx_gbps + r.port_rx_gbps),
        ("fabric.hbm_gbps", r.hbm_gbps),
        (
            "hwmodel.cpu_busy_frac",
            cpu.busy_time().as_secs() / (cpu.cores() as f64 * sim_end),
        ),
        (
            "hwmodel.engine_jobs",
            rep.cluster
                .engines
                .iter()
                .map(|e| e.jobs_done())
                .sum::<u64>() as f64,
        ),
        ("stage.ingress_us", seg("ingress").0),
        ("stage.ingress_p99_us", seg("ingress").1),
        ("stage.parse_us", seg("parse").0),
        ("stage.parse_p99_us", seg("parse").1),
        ("stage.compress_us", seg("compress").0),
        ("stage.compress_p99_us", seg("compress").1),
        ("stage.replicate_us", seg("replicate").0),
        ("stage.replicate_p99_us", seg("replicate").1),
        ("stage.ack_us", seg("ack").0),
        ("stage.ack_p99_us", seg("ack").1),
        ("stage.wire_us", span_mean("wire")),
        ("stage.nic_dma_us", span_mean("nic-dma")),
        ("stage.dev_dma_us", span_mean("dev-dma")),
        ("stage.host_mem_us", span_mean("host-mem")),
        ("stage.disk_io_us", span_mean("disk-io")),
        ("stage.cpu_job_us", span_mean("cpu-job")),
        (
            "blockstore.appends",
            rep.cluster.servers.iter().map(|s| s.appends()).sum::<u64>() as f64,
        ),
        ("blockstore.compactions", r.compactions as f64),
        ("blockstore.failovers", r.failovers as f64),
        ("blockstore.scrub_repairs", r.scrub_repairs as f64),
        (
            "blockstore.audit_us_per_block",
            audit_s * 1e6 / (ok + corrupt).max(1) as f64,
        ),
        ("lz4.compress_mb_s", compress_mb_s),
        ("lz4.decompress_mb_s", decompress_mb_s),
        ("lz4.ratio", r.compression_ratio),
        ("services.seal_us", seal_us),
        ("services.unseal_us", unseal_us),
        ("services.dedup_ratio", svc.dedup.dedup_ratio()),
        ("services.cache_hit_rate", svc.cache.hit_rate()),
        (
            "services.bloom_fp_frac",
            ratio(
                svc.dedup.bloom_fp,
                svc.dedup.bloom_fp + svc.dedup.bloom_negative,
            ),
        ),
        ("retry.timeouts", r.timeouts as f64),
        ("retry.retries", r.retries as f64),
        ("retry.aborts", r.aborts as f64),
        (
            "retry.useful_frac",
            ratio(r.writes_done, r.writes_done + r.retries),
        ),
        ("admission.deferred", scale.deferred_total() as f64),
        ("admission.rejected", scale.rejected_total() as f64),
        (
            "admission.admit_frac",
            ratio(completed, completed + scale.rejected_total()),
        ),
        ("loadgen.shed", scale.shed as f64),
        ("trace.spans", tracer.spans().count() as f64),
        ("trace.dropped", tracer.dropped() as f64),
        ("trace.overhead_frac", traced_wall / plain_wall - 1.0),
        ("trace.export_ms", export_s * 1e3),
    ];
    Measured {
        metrics,
        attempted: out.attempted * reps,
        failed: out.failed * reps,
        notes: vec![format!(
            "{} untraced + {} traced repetitions; probes at {live_flows} live flows on {:?}",
            plain_walls.len(),
            traced_walls.len(),
            fluid_key
        )],
        errors,
    }
}

/// The fabric resource holding the most live flows when the run ended.
fn busiest_key(rep: &Rep) -> FluidKey {
    let ports = rep.cluster.config().design.ports();
    (0..FluidKey::count(ports))
        .map(FluidKey::from_index)
        .max_by_key(|&k| rep.cluster.fabric.fluid(k).active_flows())
        .expect("every fabric has fluid resources")
}

/// Host ns per `start_flow` and per wake (`sync` + `take_completed_into`
/// + `next_wake`) on a standalone resource holding `live` flows.
fn fluid_probe(live: usize, capacity: f64, seed: u64) -> (f64, f64) {
    let mut rng = Rng::new(seed ^ 0xF1_0D);
    let block = hwmodel::consts::BLOCK_SIZE as f64;
    let size = |rng: &mut Rng| block * (0.25 + rng.gen_exp(1.0));

    // start_flow: add a batch on top of `live` long flows, then retire it.
    let mut res = FluidResource::new("probe", capacity);
    for t in 0..live as u64 {
        res.start_flow(Time::ZERO, f64::INFINITY, FlowSpec::new(), t);
    }
    let batch = (live / 8).max(1);
    let mut now = Time::ZERO;
    let (mut starts, mut start_s) = (0u64, 0.0);
    let clock = Stopwatch::start();
    while clock.secs() < PROBE_SECONDS {
        now += Time::from_ns(100.0);
        let sw = Stopwatch::start();
        let ids: Vec<_> = (0..batch)
            .map(|t| res.start_flow(now, size(&mut rng), FlowSpec::new(), t as u64))
            .collect();
        start_s += sw.secs();
        starts += batch as u64;
        for id in ids {
            res.end_flow(now, id);
        }
    }

    // Wake: drain completions at each next wake, refilling to `live`.
    let mut res = FluidResource::new("probe", capacity);
    for t in 0..live as u64 {
        res.start_flow(Time::ZERO, size(&mut rng), FlowSpec::new(), t);
    }
    let mut done: Vec<FlowEnd> = Vec::new();
    let (mut wakes, mut wake_s) = (0u64, 0.0);
    let clock = Stopwatch::start();
    while clock.secs() < PROBE_SECONDS {
        let Some(at) = res.next_wake() else { break };
        let sw = Stopwatch::start();
        res.sync(at);
        res.take_completed_into(&mut done);
        black_box(res.next_wake());
        wake_s += sw.secs();
        wakes += 1;
        for end in done.drain(..) {
            res.start_flow(at, size(&mut rng), FlowSpec::new(), end.token);
        }
    }
    (
        start_s * 1e9 / starts as f64,
        wake_s * 1e9 / wakes.max(1) as f64,
    )
}

/// One shard of the bare-engine probe: a fixed population of events, each
/// of which schedules one successor locally or sends it to another shard
/// (hub ↔ store, like the cluster's storage RPCs).
struct ToyShard {
    id: u32,
    shards: u32,
    rng: Rng,
    /// Probability that a handled event's successor is a message.
    send_p: f64,
    /// Mean local gap between events.
    gap_ns: f64,
    lookahead: Time,
    /// Events this shard may still handle before its chains end.
    budget: u64,
}

impl World for ToyShard {
    type Event = ();

    fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if self.shards > 1 && self.rng.gen_bool(self.send_p) {
            let dst = if self.id == 0 {
                1 + self.rng.gen_range(u64::from(self.shards - 1)) as u32
            } else {
                0
            };
            sched.send(dst, self.lookahead, ());
        } else {
            sched.schedule_in(Time::from_ns(self.rng.gen_exp(self.gap_ns)), ());
        }
    }
}

impl ShardWorld for ToyShard {}

/// Host ns per payload event of a bare `ShardedSim` with the workload's
/// shard count, engine threads, flat lookahead, message share and events
/// per synchronisation round.
fn engine_probe(spec: &Spec, stats: &EngineStats, seed: u64) -> f64 {
    let cfg = &spec.cfg;
    let servers = cfg
        .topology
        .as_ref()
        .map_or(smartds::cluster::STORAGE_SERVERS, |t| t.num_servers());
    let shards = 1 + servers as u32;
    let lookahead = cfg.lookahead();
    let send_p = stats.messages as f64 / stats.events.max(1) as f64;
    // A population of `tokens` events with mean gap g executes
    // tokens × L / g events per window of width L: match the run's
    // events per round.
    let tokens = PROBE_TOKENS_PER_SHARD * u64::from(shards);
    let per_round = (stats.events as f64 / stats.rounds.max(1) as f64).max(1.0);
    let gap_ns = tokens as f64 * lookahead.as_ns() / per_round;
    let mut rng = Rng::new(seed ^ 0xE9_61E);
    let worlds: Vec<ToyShard> = (0..shards)
        .map(|id| ToyShard {
            id,
            shards,
            rng: rng.fork(),
            send_p,
            gap_ns,
            lookahead,
            budget: ENGINE_PROBE_EVENTS / u64::from(shards),
        })
        .collect();
    let mut sim = ShardedSim::new(worlds, lookahead).with_threads(spec.threads);
    for s in 0..shards as usize {
        for k in 0..PROBE_TOKENS_PER_SHARD {
            sim.schedule_at(s, Time::from_ns(k as f64 + 1.0), ());
        }
    }
    let (_, secs) = timed(|| sim.run());
    secs * 1e9 / sim.stats().events.max(1) as f64
}

/// LZ4 compress and decompress throughput over the workload's payload
/// pool, MB/s of uncompressed bytes. Every block must round-trip.
fn lz4_probe(pool: &Workload, errors: &mut Vec<String>) -> (f64, f64) {
    let blocks = pool.pool().len();
    let packed: Vec<Vec<u8>> = (0..blocks)
        .map(|i| lz4kit::compress(pool.payload(i)))
        .collect();
    for (i, p) in packed.iter().enumerate() {
        let raw = pool.payload(i);
        if lz4kit::decompress(p, raw.len()).as_deref() != Ok(raw) {
            errors.push(format!("lz4 round trip failed on pool block {i}"));
            return (0.0, 0.0);
        }
    }
    let rate = |f: &dyn Fn(usize)| {
        let (mut bytes, clock) = (0usize, Stopwatch::start());
        while clock.secs() < PROBE_SECONDS {
            for i in 0..blocks {
                f(i);
                bytes += pool.payload(i).len();
            }
        }
        bytes as f64 / clock.secs() / 1e6
    };
    let compress = rate(&|i| {
        black_box(lz4kit::compress(black_box(pool.payload(i))));
    });
    let decompress = rate(&|i| {
        black_box(lz4kit::decompress(black_box(&packed[i]), pool.payload(i).len()).ok());
    });
    (compress, decompress)
}

/// Host µs per `Services::seal` and per `Services::unseal` over the pool,
/// on a fresh service state. Every container must unseal exactly.
fn seal_probe(cfg: &ServicesConfig, pool: &Workload, errors: &mut Vec<String>) -> (f64, f64) {
    let mut svc = Services::new(cfg);
    let blocks = pool.pool().len();
    let (containers, seal_s) = timed(|| {
        (0..blocks)
            .map(|i| svc.seal(i as u64, pool.payload(i)))
            .collect::<Vec<_>>()
    });
    let (unsealed, unseal_s) = timed(|| {
        (0..blocks)
            .map(|i| svc.unseal(i as u64, &containers[i]))
            .collect::<Vec<_>>()
    });
    if let Some(i) = (0..blocks).find(|&i| unsealed[i].as_deref() != Some(pool.payload(i))) {
        errors.push(format!("seal/unseal round trip failed on pool block {i}"));
    }
    let per = |s: f64| s * 1e6 / blocks as f64;
    (per(seal_s), per(unseal_s))
}
