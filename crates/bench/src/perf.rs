//! `perf` experiment: measures the **simulator itself**, not the simulated
//! system.
//!
//! Every figure in the reproduction is produced by the discrete-event core,
//! so the throughput of the evaluation harness — events executed per
//! wall-clock second — bounds how dense a sweep or how long a chaos storm
//! we can afford. This experiment runs three pinned-seed workloads that
//! stress the hot path in different ways, measures wall time around each,
//! and writes `BENCH_PERF.json` so every PR has a perf reference:
//!
//! - **sweep_dense** — the SmartDS port sweep at high closed-loop depth
//!   (hundreds of concurrent fluid flows per resource): stresses the
//!   water-filling solver and wakeup arming.
//! - **chaos** — a seeded fault storm with request timeouts armed:
//!   stresses epoch churn (capacity changes re-water-fill everything) and
//!   the retry machinery.
//! - **breakdown** — a fully traced run (`sample_one_in = 1`): stresses
//!   the span pipeline riding on every event.
//!
//! Each row records the worker-thread count it ran at. The dense sweep is
//! a bag of independent pinned-seed jobs (ports × seed lanes) executed on
//! `bench::pool` workers in longest-job-first order, with the sharded
//! engine inside each job pinned to one thread — so `threads` is exactly
//! the host parallelism and the thread sweep (`sweep_dense@t1` …
//! `sweep_dense` at 8) measures scaling honestly. Simulated outcomes
//! (events, requests, sync rounds/messages) are deterministic per seed and
//! identical at every thread count; only `wall_ms`/`events_per_sec` vary
//! with the host. Comparisons are valid on the same machine only.

use crate::{pool, Profile};
use faultkit::{ChaosSpec, FaultPlan};
use simkit::json::{array_raw, Object};
use simkit::Time;
use smartds::{cluster, Design, RunConfig};
use std::io::Write as _;
use std::path::Path;

/// One measured workload.
#[derive(Clone, Debug)]
pub struct PerfRow {
    /// Workload id (stable across PRs; used as the JSON key).
    pub name: &'static str,
    /// The pinned workload seed.
    pub seed: u64,
    /// Worker threads the workload ran at.
    pub threads: usize,
    /// Requests completed inside the measurement window (simulated).
    pub requests: u64,
    /// Payload events the engine executed (simulated, deterministic).
    pub events: u64,
    /// Synchronization rounds (barrier epochs) across all runs.
    pub sync_rounds: u64,
    /// Cross-shard mailbox messages across all runs.
    pub sync_messages: u64,
    /// Host wall-clock time for the whole workload, milliseconds.
    pub wall_ms: f64,
    /// Events per wall-clock second — the headline simulator throughput.
    pub events_per_sec: f64,
}

impl PerfRow {
    fn to_json(&self) -> String {
        Object::new()
            .field("name", self.name)
            .field("seed", self.seed)
            .field("threads", self.threads as u64)
            .field("requests", self.requests)
            .field("events", self.events)
            .field("sync_rounds", self.sync_rounds)
            .field("sync_messages", self.sync_messages)
            .field("wall_ms", self.wall_ms)
            .field("events_per_sec", self.events_per_sec)
            .finish()
    }
}

/// Measures wall time around `f`, returning `(wall_ms, output)`.
fn timed<O>(f: impl FnOnce() -> O) -> (f64, O) {
    // simlint: allow(wall-clock, reason = "the perf harness measures the host running the simulator, never simulated time")
    let start = std::time::Instant::now();
    let out = f();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (wall_ms, out)
}

fn windows(profile: Profile, mut cfg: RunConfig) -> RunConfig {
    match profile {
        Profile::Quick => {
            cfg.warmup = Time::from_ms(1.0);
            cfg.measure = Time::from_ms(3.0);
            cfg.pool_blocks = 64;
        }
        Profile::Full => {
            cfg.warmup = Time::from_ms(3.0);
            cfg.measure = Time::from_ms(9.0);
            cfg.pool_blocks = 128;
        }
    }
    cfg
}

/// Seed lanes per port count in the dense sweep. Independent lanes make
/// the job bag wide enough (6 ports × lanes) for the pool to balance
/// across 8 workers; every lane is a pinned seed so the bag is one fixed
/// workload whatever the thread count. The quick profile halves the bag
/// to keep the CI thread sweep cheap.
fn sweep_lanes(profile: Profile) -> u64 {
    match profile {
        Profile::Quick => 2,
        Profile::Full => 4,
    }
}

/// The canonical name for each measured dense-sweep thread count. The
/// 8-thread point keeps the bare `sweep_dense` name: it is the headline
/// row PRs compare in `BENCH_PERF.json`.
fn sweep_name(threads: usize) -> &'static str {
    match threads {
        1 => "sweep_dense@t1",
        2 => "sweep_dense@t2",
        4 => "sweep_dense@t4",
        _ => "sweep_dense",
    }
}

/// The dense port sweep: SmartDS 1–6 ports at high closed-loop depth,
/// `SWEEP_LANES` pinned seed lanes each, run as a parallel job bag on
/// `threads` pool workers (longest jobs first).
fn sweep_dense(profile: Profile, seed: u64, threads: usize) -> PerfRow {
    // Longest-processing-time order: high port counts carry the most
    // simulated work, so schedule them first to keep the pool balanced.
    let mut jobs: Vec<(usize, u64)> = Vec::new();
    for ports in (1..=6usize).rev() {
        for lane in 0..sweep_lanes(profile) {
            jobs.push((ports, seed + lane));
        }
    }
    let (wall_ms, outs) = timed(|| {
        pool::run_parallel_n(jobs, threads, |&(ports, seed)| {
            let mut cfg = windows(profile, RunConfig::saturating(Design::SmartDs { ports }));
            cfg.outstanding = 256 * ports;
            cfg.seed = seed;
            // Fair-weather row: sync with the pair-lookahead matrix
            // (identical schedule, fewer rounds).
            let cfg = cfg.with_sync_matrix();
            // One engine thread per job: the pool is the parallelism here,
            // so `threads` is the whole host budget for this row.
            let (report, _, stats) = cluster::run_counted_stats(&cfg, |_| {}, Some(1));
            (stats, report.writes_done)
        })
    });
    let mut row = PerfRow {
        name: sweep_name(threads),
        seed,
        threads,
        requests: 0,
        events: 0,
        sync_rounds: 0,
        sync_messages: 0,
        wall_ms,
        events_per_sec: 0.0,
    };
    for (stats, writes) in outs {
        row.requests += writes;
        row.events += stats.events;
        row.sync_rounds += stats.rounds;
        row.sync_messages += stats.messages;
    }
    row.events_per_sec = row.events as f64 / (wall_ms / 1e3);
    row
}

/// A seeded chaos storm with the retry machinery armed.
fn chaos(profile: Profile, seed: u64, threads: usize) -> PerfRow {
    let (wall_ms, (stats, requests)) = timed(|| {
        let mut cfg = windows(profile, RunConfig::saturating(Design::SmartDs { ports: 1 }));
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
        cfg.seed = seed;
        let cfg = cfg
            .with_fault_plan(FaultPlan::chaos(seed, &spec))
            .with_request_timeout(Time::from_ms(1.0));
        let (report, _, stats) = cluster::run_counted_stats(&cfg, |_| {}, Some(threads));
        (stats, report.writes_done)
    });
    PerfRow {
        name: "chaos",
        seed,
        threads,
        requests,
        events: stats.events,
        sync_rounds: stats.rounds,
        sync_messages: stats.messages,
        wall_ms,
        events_per_sec: stats.events as f64 / (wall_ms / 1e3),
    }
}

/// A fully traced run: every request is sampled.
fn breakdown(profile: Profile, seed: u64, threads: usize) -> PerfRow {
    let (wall_ms, (stats, requests)) = timed(|| {
        let mut cfg = windows(profile, RunConfig::saturating(Design::SmartDs { ports: 1 }));
        cfg.seed = seed;
        let cfg = cfg
            .with_trace(tracekit::TraceConfig {
                sample_one_in: 1,
                capacity: 1 << 17,
            })
            .with_sync_matrix();
        let (report, _, stats) = cluster::run_counted_stats(&cfg, |_| {}, Some(threads));
        (stats, report.writes_done)
    });
    PerfRow {
        name: "breakdown",
        seed,
        threads,
        requests,
        events: stats.events,
        sync_rounds: stats.rounds,
        sync_messages: stats.messages,
        wall_ms,
        events_per_sec: stats.events as f64 / (wall_ms / 1e3),
    }
}

/// Renders the rows (plus profile metadata) as the `BENCH_PERF.json` text.
pub fn render(profile: Profile, rows: &[PerfRow]) -> String {
    let items: Vec<String> = rows.iter().map(PerfRow::to_json).collect();
    Object::new()
        .field(
            "profile",
            match profile {
                Profile::Quick => "quick",
                Profile::Full => "full",
            },
        )
        .field_raw("workloads", &array_raw(&items))
        .finish()
}

/// Runs the perf suite and returns its rows.
///
/// Pinned seeds match the repo's golden/chaos seeds (101/202/303) so the
/// same schedules are exercised everywhere. The dense sweep is measured
/// at a sweep of thread counts — the full profile records the 1-thread
/// baseline and the 8-thread headline; the quick profile walks
/// 1/2/4/8 so CI gets a cheap scaling curve every run.
pub fn run(profile: Profile) -> Vec<PerfRow> {
    println!("perf: simulator hot-path throughput ({profile:?} profile)");
    let thread_points: &[usize] = match profile {
        Profile::Quick => &[1, 2, 4, 8],
        Profile::Full => &[1, 8],
    };
    let mut rows = Vec::new();
    for &t in thread_points {
        rows.push(sweep_dense(profile, 101, t));
    }
    rows.push(chaos(profile, 202, 8));
    rows.push(breakdown(profile, 303, 8));
    println!(
        "  {:>14} {:>6} {:>3} {:>10} {:>12} {:>9} {:>9} {:>10} {:>14}",
        "workload", "seed", "thr", "requests", "events", "rounds", "msgs", "wall(ms)", "events/sec"
    );
    for r in &rows {
        println!(
            "  {:>14} {:>6} {:>3} {:>10} {:>12} {:>9} {:>9} {:>10.0} {:>14.0}",
            r.name,
            r.seed,
            r.threads,
            r.requests,
            r.events,
            r.sync_rounds,
            r.sync_messages,
            r.wall_ms,
            r.events_per_sec
        );
    }
    rows
}

/// Writes the perf snapshot into `dir` (the repo root when run via
/// `ci.sh` or from the workspace directory). The full profile writes the
/// tracked `BENCH_PERF.json` baseline; the quick profile writes
/// `BENCH_PERF.quick.json` (untracked scratch) so a CI quick pass never
/// clobbers the committed full-profile reference. `scale` and `services`
/// arrays the other experiments already put in the file are carried over
/// verbatim.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(dir: &Path, profile: Profile, rows: &[PerfRow]) -> std::io::Result<()> {
    let path = dir.join(match profile {
        Profile::Quick => "BENCH_PERF.quick.json",
        Profile::Full => "BENCH_PERF.json",
    });
    let mut text = render(profile, rows);
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(scale) = crate::scale::extract_array(&existing, "scale") {
        // Splice the preserved scale rows in before the closing brace.
        text.truncate(text.len() - 1);
        text.push_str(",\"scale\":");
        text.push_str(&scale);
        text.push('}');
    }
    if let Some(services) = crate::scale::extract_array(&existing, "services") {
        // Same for the services placement-sweep rows.
        text.truncate(text.len() - 1);
        text.push_str(",\"services\":");
        text.push_str(&services);
        text.push('}');
    }
    let mut f = std::fs::File::create(&path)?;
    f.write_all(text.as_bytes())?;
    f.write_all(b"\n")?;
    println!("  wrote {}", path.display());
    Ok(())
}

/// Extracts `name -> events_per_sec` from a `BENCH_PERF*.json` text.
fn events_per_sec_by_name(text: &str) -> Vec<(String, f64)> {
    let Ok(v) = simkit::json::parse(text) else {
        return Vec::new();
    };
    let Some(rows) = v.get("workloads").and_then(|w| w.as_arr()) else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|r| {
            Some((
                r.get("name")?.as_str()?.to_string(),
                r.get("events_per_sec")?.as_f64()?,
            ))
        })
        .collect()
}

/// Report-only CI guard: compares the freshly written
/// `BENCH_PERF.quick.json` against the committed full-profile
/// `BENCH_PERF.json` baseline, row by row, and prints a warning for any
/// workload whose events/sec fell more than 20 % below the baseline.
/// Never fails the build — wall clocks differ across hosts; the warning
/// is a prompt to look, and the deterministic gates live in
/// `system-tests --test perf_budget`.
pub fn diff_quick_vs_baseline(dir: &Path) {
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap_or_default();
    let quick = events_per_sec_by_name(&read("BENCH_PERF.quick.json"));
    let base = events_per_sec_by_name(&read("BENCH_PERF.json"));
    if quick.is_empty() || base.is_empty() {
        println!("perf-diff: missing or unparsable snapshot(s); nothing to compare");
        return;
    }
    let mut warned = false;
    for (name, q) in &quick {
        let Some((_, b)) = base.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let ratio = q / b;
        if ratio < 0.8 {
            warned = true;
            println!(
                "perf-diff: WARNING {name}: {q:.0} events/sec is {:.0}% of the \
                 committed baseline {b:.0} (>20% regression)",
                ratio * 100.0
            );
        } else {
            println!(
                "perf-diff: {name}: {q:.0} events/sec vs baseline {b:.0} ({:+.0}%)",
                (ratio - 1.0) * 100.0
            );
        }
    }
    if warned {
        println!(
            "perf-diff: report-only — quick and full profiles differ in \
             workload size and hosts differ in speed; investigate before \
             trusting either direction"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_as_json() {
        let row = PerfRow {
            name: "sweep_dense",
            seed: 101,
            threads: 8,
            requests: 10,
            events: 1000,
            sync_rounds: 40,
            sync_messages: 60,
            wall_ms: 5.0,
            events_per_sec: 200_000.0,
        };
        let json = render(Profile::Quick, &[row]);
        let v = simkit::json::parse(&json).expect("well-formed");
        assert_eq!(v.get("profile").and_then(|p| p.as_str()), Some("quick"));
        let w = v.get("workloads").and_then(|w| w.as_arr()).expect("array");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].get("events").and_then(|e| e.as_f64()), Some(1000.0));
        assert_eq!(w[0].get("threads").and_then(|e| e.as_f64()), Some(8.0));
        assert_eq!(w[0].get("sync_rounds").and_then(|e| e.as_f64()), Some(40.0));
    }

    #[test]
    fn event_counts_are_deterministic() {
        // The wall clock varies; the simulated schedule must not.
        let mut cfg = windows(Profile::Quick, RunConfig::saturating(Design::SmartDs { ports: 1 }));
        cfg.outstanding = 64;
        cfg.seed = 101;
        let a = cluster::run_counted_stats(&cfg, |_| {}, None).2.events;
        let b = cluster::run_counted_stats(&cfg, |_| {}, None).2.events;
        assert_eq!(a, b, "same config, same event count");
        assert!(a > 10_000, "a saturating run executes real work: {a}");
    }

    #[test]
    #[ignore = "manual probe"]
    fn probe_single_run() {
        println!("size_of Ev = {}", std::mem::size_of::<smartds::cluster::Ev>());
        let (wall_ms, (stats, writes)) = timed(|| {
            let mut cfg = windows(Profile::Full, RunConfig::saturating(Design::SmartDs { ports: 6 }));
            cfg.outstanding = 256 * 6;
            cfg.seed = 101;
            let (report, _, stats) = cluster::run_counted_stats(&cfg, |_| {}, Some(1));
            (stats, report.writes_done)
        });
        println!(
            "ports=6 full t1: events={} rounds={} msgs={} writes={} wall={:.0}ms ev/s={:.0}",
            stats.events,
            stats.rounds,
            stats.messages,
            writes,
            wall_ms,
            stats.events as f64 / (wall_ms / 1e3)
        );
    }

    #[test]
    fn job_bag_outcome_is_identical_at_every_thread_count() {
        // Wall time varies with threads; nothing simulated may. A tiny
        // job bag keeps this cheap in debug builds — the full-size sweep
        // invariance is exercised by the quick perf run in CI.
        let run_bag = |threads: usize| {
            let jobs: Vec<(usize, u64)> = vec![(2, 101), (1, 101), (1, 102)];
            pool::run_parallel_n(jobs, threads, |&(ports, seed)| {
                let mut cfg = RunConfig::saturating(Design::SmartDs { ports });
                cfg.warmup = Time::from_ms(0.5);
                cfg.measure = Time::from_ms(1.0);
                cfg.pool_blocks = 16;
                cfg.outstanding = 32 * ports;
                cfg.seed = seed;
                let (report, _, stats) = cluster::run_counted_stats(&cfg, |_| {}, Some(1));
                (report.writes_done, stats)
            })
        };
        let a = run_bag(1);
        let b = run_bag(4);
        assert_eq!(a, b, "pool width must never change simulated outcomes");
        assert!(a.iter().all(|(w, s)| *w > 0 && s.events > 0));
    }
}
