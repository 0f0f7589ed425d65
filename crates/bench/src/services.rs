//! `services` experiment: inline data services (dedup + encryption +
//! hot-block cache) on the real byte path, swept over corpus mixes ×
//! service placements.
//!
//! Each row runs a mixed read/write workload whose pool is generated from
//! one corpus profile (incompressible / text-like / redundant), with both
//! services placed on the host core pool, the dedicated SoC Arm complex,
//! or the fixed-function engines. The placement moves only *where* the
//! service time is charged, so the functional columns (dedup ratio, seal
//! ratio, cache hit rate) are placement-invariant per mix while the
//! latency tails are not — the interesting output is the per-mix
//! best-placement winner, which flips with the corpus. An incompressible
//! pool is network-bound: replication ships full-size containers, the op
//! rate stays low, the host cores have slack for the service work, and
//! the engines' fixed pipeline-fill latency only adds to the tail — host
//! wins. A redundant pool seals to a fraction of its raw size, the
//! network ceiling lifts, and the op rate climbs until the *per-op* dedup
//! scan (charged on raw bytes regardless of mix) saturates the shared
//! host cores — the dedicated engines win the tail at line rate.
//!
//! Rows land in `BENCH_PERF.json` (full) / `BENCH_PERF.quick.json`
//! (quick) under a `services` array, preserving whatever the perf and
//! scale experiments already wrote there.

use crate::Profile;
use simkit::json::{array_raw, Object};
use smartds::{cluster, Design, Placement, RunConfig, ServicesConfig};
use std::io::Write as _;
use std::path::Path;

/// The pinned seed for every services run.
pub const SERVICES_SEED: u64 = 505;

/// One (corpus mix, placement) cell of the sweep.
#[derive(Clone, Debug)]
pub struct ServicesRow {
    /// Corpus mix id (`incompressible`, `text`, `redundant`).
    pub mix: &'static str,
    /// Placement id (`host`, `soc`, `engine`).
    pub placement: &'static str,
    /// The pinned workload seed.
    pub seed: u64,
    /// Worker threads the run executed at (outcome-invariant).
    pub threads: usize,
    /// Achieved write payload throughput over the window.
    pub throughput_gbps: f64,
    /// Writes completed in the window.
    pub writes_done: u64,
    /// p99 write latency, µs.
    pub write_p99_us: f64,
    /// p99 read latency, µs.
    pub read_p99_us: f64,
    /// Service accounting (dedup/seal ratios, cache, prefetch; JSON).
    pub stats_json: String,
}

impl ServicesRow {
    fn to_json(&self) -> String {
        Object::new()
            .field("mix", self.mix)
            .field("placement", self.placement)
            .field("seed", self.seed)
            .field("threads", self.threads as u64)
            .field("throughput_gbps", self.throughput_gbps)
            .field("writes_done", self.writes_done)
            .field("write_p99_us", self.write_p99_us)
            .field("read_p99_us", self.read_p99_us)
            .field_raw("services", &self.stats_json)
            .finish()
    }
}

/// The corpus mixes under test.
fn mixes() -> Vec<(&'static str, corpus::Profile)> {
    vec![
        ("incompressible", corpus::Profile::incompressible()),
        ("text", corpus::Profile::text_like()),
        ("redundant", corpus::Profile::redundant()),
    ]
}

const PLACEMENTS: [Placement; 3] = [Placement::Host, Placement::Soc, Placement::Engine];

/// The base run for one corpus mix: a zipf-skewed half-read mix over a
/// pool small enough for the 256-block cache to matter. Four host cores
/// put the host placement on a knife edge: enough slack to win when the
/// network caps the op rate (incompressible), saturated by per-op scan
/// work when dedup lifts the network ceiling (redundant).
fn base_cfg(profile: Profile, seed: u64, mix: &corpus::Profile) -> RunConfig {
    let mut cfg = profile.apply(RunConfig::saturating(Design::SmartDs { ports: 1 }));
    cfg.seed = seed;
    cfg.pool_blocks = 256;
    cfg.outstanding = 64;
    cfg.cores = 4;
    cfg.zipf_theta = Some(0.99);
    cfg.with_corpus_profile(*mix)
}

fn run_cell(
    profile: Profile,
    mix: &'static str,
    corpus_mix: &corpus::Profile,
    placement: Placement,
) -> ServicesRow {
    let svc = ServicesConfig::paper().with_placement(placement);
    let cfg = base_cfg(profile, SERVICES_SEED, corpus_mix).with_services(svc);
    let threads = simkit::env_threads();
    let (report, cl, _stats) =
        cluster::run_counted_stats(&cfg, |c| c.set_read_fraction(0.5), None);
    let read_p99_us = cl.metrics.read_latency.quantile(0.99).as_us();
    let stats = cl.service_stats().expect("services were configured");
    ServicesRow {
        mix,
        placement: placement.name(),
        seed: SERVICES_SEED,
        threads,
        throughput_gbps: report.throughput_gbps,
        writes_done: report.writes_done,
        write_p99_us: report.p99_us,
        read_p99_us,
        stats_json: stats.to_json(),
    }
}

/// Runs the placement × corpus sweep and prints the per-mix table,
/// flagging each mix's best-write-p99 placement.
pub fn run(profile: Profile) -> Vec<ServicesRow> {
    println!("services: dedup + encryption + cache placement sweep ({profile:?} profile)");
    let mut rows = Vec::new();
    for (mix, corpus_mix) in mixes() {
        println!(
            "  {mix}: {:>8} {:>9} {:>8} {:>8} {:>6} {:>6} {:>6}",
            "place", "thruput", "w-p99", "r-p99", "seal", "dedup", "cache"
        );
        let start = rows.len();
        for placement in PLACEMENTS {
            let row = run_cell(profile, mix, &corpus_mix, placement);
            let (seal, dedup, cache) = parse_ratios(&row.stats_json);
            println!(
                "  {:>width$} {:>8} {:>8.2}G {:>7.1}µ {:>7.1}µ {:>5.2}x {:>5.2}x {:>5.0}%",
                "",
                row.placement,
                row.throughput_gbps,
                row.write_p99_us,
                row.read_p99_us,
                seal,
                dedup,
                cache * 100.0,
                width = mix.len() + 1,
            );
            rows.push(row);
        }
        let best = rows[start..]
            .iter()
            .min_by(|a, b| a.write_p99_us.total_cmp(&b.write_p99_us))
            .map(|r| r.placement)
            .unwrap_or("-");
        println!("    best write-p99 placement for {mix}: {best}");
    }
    rows
}

/// `(seal_ratio, dedup_ratio, cache_hit_rate)` back out of the rendered
/// stats JSON for the console table.
fn parse_ratios(stats_json: &str) -> (f64, f64, f64) {
    let num = |k: &str| {
        simkit::json::parse(stats_json)
            .ok()
            .and_then(|v| v.get(k).and_then(|x| x.as_f64()))
            .unwrap_or(0.0)
    };
    (num("seal_ratio"), num("dedup_ratio"), num("cache_hit_rate"))
}

/// The placement with the lowest write p99 for `mix` among `rows`.
pub fn best_placement(rows: &[ServicesRow], mix: &str) -> Option<&'static str> {
    rows.iter()
        .filter(|r| r.mix == mix)
        .min_by(|a, b| a.write_p99_us.total_cmp(&b.write_p99_us))
        .map(|r| r.placement)
}

/// Merges the services rows into the profile's `BENCH_PERF` file,
/// preserving the `workloads` and `scale` arrays the perf and scale
/// experiments may already have written there.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(dir: &Path, profile: Profile, rows: &[ServicesRow]) -> std::io::Result<()> {
    let path = dir.join(match profile {
        Profile::Quick => "BENCH_PERF.quick.json",
        Profile::Full => "BENCH_PERF.json",
    });
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let workloads =
        crate::scale::extract_array(&existing, "workloads").unwrap_or_else(|| "[]".into());
    let scale = crate::scale::extract_array(&existing, "scale").unwrap_or_else(|| "[]".into());
    let items: Vec<String> = rows.iter().map(ServicesRow::to_json).collect();
    let text = Object::new()
        .field(
            "profile",
            match profile {
                Profile::Quick => "quick",
                Profile::Full => "full",
            },
        )
        .field_raw("workloads", &workloads)
        .field_raw("scale", &scale)
        .field_raw("services", &array_raw(&items))
        .finish();
    let mut f = std::fs::File::create(&path)?;
    f.write_all(text.as_bytes())?;
    f.write_all(b"\n")?;
    println!("  wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_renders_and_ratios_parse() {
        let row = ServicesRow {
            mix: "text",
            placement: "host",
            seed: SERVICES_SEED,
            threads: 4,
            throughput_gbps: 21.5,
            writes_done: 1000,
            write_p99_us: 30.0,
            read_p99_us: 12.0,
            stats_json: r#"{"seal_ratio":2.5,"dedup_ratio":1.5,"cache_hit_rate":0.25}"#.into(),
        };
        let json = row.to_json();
        assert!(json.starts_with(r#"{"mix":"text","placement":"host""#), "{json}");
        assert!(json.contains(r#""services":{"seal_ratio":2.5"#), "{json}");
        assert_eq!(parse_ratios(&row.stats_json), (2.5, 1.5, 0.25));
        assert_eq!(best_placement(&[row], "text"), Some("host"));
    }
}
