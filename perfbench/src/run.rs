//! One simulation run of a workload, timed on the host, and the simulated
//! outcome read back from its public post-run state.

use crate::host::Stopwatch;
use crate::workload::Spec;
use simkit::{EngineStats, Histogram};
use smartds::cluster::{self, Cluster};
use smartds::RunReport;

/// One finished run: host timings plus everything the run returned.
pub struct Rep {
    /// Host seconds for `Cluster::new` (pool synthesis, fabric build):
    /// call → `setup` closure entry.
    pub setup_s: f64,
    /// Host seconds from `setup` closure entry to the returned report.
    pub wall_s: f64,
    /// The simulated report.
    pub report: RunReport,
    /// The finished cluster, for audits and post-run state.
    pub cluster: Cluster,
    /// Engine event and synchronisation accounting.
    pub stats: EngineStats,
}

/// Runs `spec` once on `threads` engine threads.
pub fn run_once(spec: &Spec, threads: usize) -> Rep {
    let start = Stopwatch::start();
    let mut setup: Option<(f64, Stopwatch)> = None;
    let (report, cluster, stats) = cluster::run_counted_stats(
        &spec.cfg,
        |c| {
            setup = Some((start.secs(), Stopwatch::start()));
            c.set_read_fraction(spec.read_fraction);
        },
        Some(threads),
    );
    let (setup_s, since_setup) = setup.expect("run_counted_stats always calls setup");
    Rep {
        setup_s,
        wall_s: since_setup.secs(),
        report,
        cluster,
        stats,
    }
}

/// The simulated outcome of one run, over its measurement window.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Completed writes.
    pub writes: u64,
    /// Completed reads.
    pub reads: u64,
    /// Requests the run attempted: completed + failed.
    pub attempted: u64,
    /// Write failures after exhausting retries, admission rejections and
    /// arrivals shed by the in-flight cap.
    pub failed: u64,
    /// Write payload goodput, Gbps.
    pub write_gbps: f64,
    /// Mean write latency, µs (exact, not bucketed).
    pub write_avg_us: f64,
    /// p99 write latency, µs.
    pub write_p99_us: f64,
    /// p99.9 write latency, µs.
    pub write_p999_us: f64,
    /// p99 read latency, µs (0 without reads).
    pub read_p99_us: f64,
    /// p99 latency of traffic class 0 (premium), µs (0 without classed
    /// open-loop tenants).
    pub premium_p99_us: f64,
}

impl Outcome {
    /// Reads the outcome of `rep`.
    pub fn of(rep: &Rep) -> Outcome {
        let r = &rep.report;
        let m = &rep.cluster.metrics;
        let scale = rep.cluster.scale_stats();
        let reads = m.read_latency.count();
        let failed = r.write_failures + scale.rejected_total() + scale.shed;
        Outcome {
            writes: r.writes_done,
            reads,
            attempted: r.writes_done + reads + failed,
            failed,
            write_gbps: r.throughput_gbps,
            write_avg_us: r.avg_us,
            write_p99_us: quantile_us(&m.write_latency, 0.99),
            write_p999_us: quantile_us(&m.write_latency, 0.999),
            read_p99_us: quantile_us(&m.read_latency, 0.99),
            premium_p99_us: m
                .class_latency
                .first()
                .map_or(0.0, |h| quantile_us(h, 0.99)),
        }
    }

    /// Completed operations (writes + reads).
    pub fn ops(&self) -> u64 {
        self.writes + self.reads
    }
}

/// Quantile `q` of `h` in µs, linearly interpolated between bucket floors.
///
/// `Histogram::quantile` returns the floor of the bucket holding the
/// quantile, so on its own it moves in 1.6 % steps and reads the same for
/// most seeds. The cumulative share at the bucket's edges is recovered by
/// bisecting `quantile` over `q`, and the value is placed inside the bucket
/// (up to the next occupied bucket's floor, or the maximum) by that share.
pub fn quantile_us(h: &Histogram, q: f64) -> f64 {
    if h.is_empty() {
        return 0.0;
    }
    let floor = h.quantile(q);
    // Smallest x in [lo, hi] with pred(x), for a monotone pred.
    let bisect = |pred: &dyn Fn(f64) -> bool, mut lo: f64, mut hi: f64| {
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if pred(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    let below = bisect(&|x| h.quantile(x) >= floor, 0.0, q);
    let (above, next) = if h.quantile(1.0) == floor {
        (1.0, h.max())
    } else {
        let above = bisect(&|x| h.quantile(x) > floor, q, 1.0);
        (above, h.quantile(above))
    };
    let frac = if above > below {
        (q - below) / (above - below)
    } else {
        0.0
    };
    floor.as_us() + (next.as_us() - floor.as_us()) * frac
}

/// Every simulated output of a run that must repeat exactly for one seed:
/// the report, per-class and service accounting, read tail, and the
/// engine's event/round/message counts.
pub fn fingerprint(rep: &Rep) -> String {
    let services = rep
        .cluster
        .service_stats()
        .map(|s| s.to_json())
        .unwrap_or_default();
    let reads = &rep.cluster.metrics.read_latency;
    format!(
        "{}|{}|{}|{:?}|reads {} {:?} {:?}",
        rep.report.to_json(),
        rep.cluster.scale_stats().to_json(),
        services,
        rep.stats,
        reads.count(),
        reads.mean(),
        reads.quantile(0.99),
    )
}
