//! `perfbench`: the repository benchmark for the SmartDS reproduction.
//!
//! It drives the simulator only through public APIs
//! (`cluster::run_counted_stats`, its `setup` closure, the returned
//! `Cluster`, `RunReport`, `EngineStats`, `ScaleStats`, `ServiceStats`) on
//! three pinned workloads (see `workload.rs` and `manifest.json`), and
//! reports two kinds of time. **Host** time is what the simulator takes
//! to run; it varies with the machine. **Sim** time is what the modelled
//! SmartDS cluster would take; it is a pure function of (workload, seed),
//! repeats exactly, and must not move in a change that only speeds up the
//! simulator. The model is calibrated, not validated against hardware, so
//! no accuracy error is reported.
//!
//! # Running
//!
//! From the repository root, one workload at one seed:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_write --seed 101 --seconds 15 --trace 0
//! ```
//!
//! `--workload all` runs `dense_write`, `services_mixed` and `rack_chaos`
//! in turn, each in a child process of its own (peak RSS is a per-process
//! high-water mark). `--trace 0` repeats the workload for `--seconds` and
//! prints the end-to-end metrics (medians over the repetitions);
//! `--trace 1` makes the separate traced run and prints the per-layer
//! metrics. Every run checks its outputs and exits non-zero when a check
//! fails. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! # Why `BENCH_PERF.json` is context, not a gate
//!
//! `experiments perf` records `events_per_sec`. That figure drops when a
//! change removes events (folding PCIe `Delay` events into the next step
//! makes the simulator faster and fewer events per second at once), and
//! its `sweep_dense` row times a 24-job pool, which measures pool
//! parallelism rather than the simulator. It also records no failures,
//! memory, set-up time or per-layer split. It stays useful context; the
//! gate is this benchmark's `wall_s`, `setup_s`, `peak_rss_mib` and the
//! simulated metrics, whose exact repetition per seed is checked here.

mod check;
mod host;
mod layers;
mod run;
mod workload;

use host::Stopwatch;
use run::{fingerprint, run_once, Outcome, Rep};
use simkit::json::{Object, Value};
use std::process::ExitCode;
use workload::Kind;

/// Metric units, directions and clocks, workload records, the layer
/// predictions and the first baseline. Parsed on every run, so it always
/// parses with `simkit::json::parse`.
const MANIFEST: &str = include_str!("../manifest.json");

/// Fewest timed repetitions a run makes, however long each takes.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <dense_write|services_mixed|rack_chaos|all> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured: named metric values plus the request counts and
/// the correctness verdict.
pub struct Measured {
    /// `(metric name, value)` in print order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed or refused.
    pub failed: u64,
    /// Informational lines (check summaries, repetition counts).
    pub notes: Vec<String>,
    /// Failed correctness checks; any entry fails the run.
    pub errors: Vec<String>,
}

/// The median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The timed repetitions of one workload at one seed.
struct Repeated {
    /// `setup_s` of each repetition.
    setups: Vec<f64>,
    /// `wall_s` of each repetition.
    walls: Vec<f64>,
    /// The last repetition, kept for audits.
    last: Rep,
    /// The simulated outputs every repetition reproduced.
    fingerprint: String,
}

/// Repeats the workload, checking that every repetition's simulated
/// outputs are identical, until `seconds` have passed and at least
/// [`MIN_REPS`] repetitions ran.
fn repeat(spec: &workload::Spec, seconds: f64, errors: &mut Vec<String>) -> Repeated {
    let clock = Stopwatch::start();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    let mut last: Option<Rep> = None;
    loop {
        // At most one finished cluster is alive at a time, so peak RSS is
        // that of one run.
        drop(last.take());
        let rep = run_once(spec, spec.threads);
        let fp = fingerprint(&rep);
        if *first.get_or_insert_with(|| fp.clone()) != fp {
            errors.push(format!(
                "repetition {} of one seed changed simulated outputs",
                walls.len() + 1
            ));
        }
        setups.push(rep.setup_s);
        walls.push(rep.wall_s);
        last = Some(rep);
        if walls.len() >= MIN_REPS && clock.secs() >= seconds {
            break;
        }
    }
    Repeated {
        setups,
        walls,
        last: last.expect("the loop runs at least once"),
        fingerprint: first.expect("the loop runs at least once"),
    }
}

/// The end-to-end run (`--trace 0`).
fn end_to_end(kind: Kind, seed: u64, seconds: f64) -> Measured {
    let spec = kind.spec(seed);
    let mut errors = Vec::new();
    let Repeated {
        setups,
        walls,
        last: rep,
        fingerprint: fp,
    } = repeat(&spec, seconds, &mut errors);
    let peak_rss_mib = host::peak_rss_mib();
    let out = Outcome::of(&rep);
    let reps = walls.len() as u64;
    let scale = rep.cluster.scale_stats();
    let mut notes = vec![
        format!(
            "{reps} repetitions at {} engine thread(s); per repetition {} writes, {} reads, {} events",
            spec.threads, out.writes, out.reads, rep.stats.events
        ),
        format!(
            "per repetition {} write failures, {} admission rejections, {} shed, {} timeouts",
            rep.report.write_failures,
            scale.rejected_total(),
            scale.shed,
            rep.report.timeouts
        ),
    ];
    match check::audit_stored(kind, &spec, &rep.cluster) {
        Ok(note) => notes.push(note),
        Err(e) => errors.push(e),
    }
    drop(rep);
    if spec.threads != 1 {
        // The threaded barrier engine must not change the outcome.
        if fingerprint(&run_once(&spec, 1)) != fp {
            errors.push(format!(
                "{} engine threads and 1 thread disagree on simulated outputs",
                spec.threads
            ));
        } else {
            notes.push(format!("1-thread rerun matches {} threads", spec.threads));
        }
    }
    if out.ops() == 0 {
        errors.push("no request completed".into());
    }
    let wall_s = median(&walls);
    Measured {
        metrics: vec![
            ("wall_s", wall_s),
            ("setup_s", median(&setups)),
            ("sim_ops_per_host_s", out.ops() as f64 / wall_s),
            ("peak_rss_mib", peak_rss_mib),
            ("sim_write_gbps", out.write_gbps),
            ("sim_write_avg_us", out.write_avg_us),
            ("sim_write_p99_us", out.write_p99_us),
            ("sim_write_p999_us", out.write_p999_us),
            ("sim_read_p99_us", out.read_p99_us),
            ("sim_premium_p99_us", out.premium_p99_us),
            (
                "failed_frac",
                out.failed as f64 / out.attempted.max(1) as f64,
            ),
        ],
        attempted: out.attempted * reps,
        failed: out.failed * reps,
        notes,
        errors,
    }
}

/// Looks up metric `name` in the manifest list `list`.
fn manifest_entry<'a>(manifest: &'a Value, list: &str, name: &str) -> Option<&'a Value> {
    manifest
        .get(list)?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
}

fn report(kind: Kind, seed: u64, trace: bool, m: &Measured, manifest: &Value) -> bool {
    let list = if trace { "per_layer" } else { "end_to_end" };
    println!(
        "perfbench {} seed={seed} trace={}",
        kind.name(),
        trace as u8
    );
    for note in &m.notes {
        println!("  note: {note}");
    }
    let mut fields = Object::new();
    let mut ok = m.errors.is_empty();
    for &(name, value) in &m.metrics {
        let Some(entry) = manifest_entry(manifest, list, name) else {
            eprintln!("perfbench: metric {name} is missing from manifest.json {list}");
            return false;
        };
        let field = |k: &str| entry.get(k).and_then(Value::as_str).unwrap_or("?");
        let gated = entry.get("gated").and_then(Value::as_bool).unwrap_or(true);
        println!(
            "  {name:<28} {value:>16.4} {:<8} {:<4} {}",
            field("unit"),
            field("clock"),
            if gated { field("better") } else { "reported" }
        );
        if !value.is_finite() {
            ok = false;
            eprintln!("perfbench: metric {name} is not finite");
        }
        if gated {
            let metric = Object::new()
                .field("value", value)
                .field("unit", field("unit"));
            fields = fields.field_raw(name, &metric.finish());
        }
    }
    for e in &m.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!(
        "{}",
        Object::new()
            .field("correct", ok)
            .field("attempted", m.attempted)
            .field("failed", m.failed)
            .field_raw("metrics", &fields.finish())
            .finish()
    );
    ok
}

/// `--workload all`: each workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for kind in workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} failed ({s})", kind.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot start {}: {e}", kind.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let manifest = match simkit::json::parse(MANIFEST) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: manifest.json does not parse: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let measured = if args.trace {
        layers::traced(kind, args.seed, args.seconds)
    } else {
        end_to_end(kind, args.seed, args.seconds)
    };
    if report(kind, args.seed, args.trace, &measured, &manifest) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
