//! A tiny bench runner for `harness = false` bench binaries.
//!
//! Exposes the subset of the `criterion` API the workspace benches use
//! (`Criterion::benchmark_group`, `sample_size`, `throughput`,
//! `bench_with_input`, `BenchmarkId`, `Throughput`, plus the
//! [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) macros), implemented in ~200
//! lines with no dependencies. Timings are medians over `sample_size`
//! batches, each batch auto-sized to run a few milliseconds.
//!
//! CLI flags (matching the `cargo bench -- …` conventions the benches
//! document):
//!
//! - `--test`: smoke mode — run every routine exactly once and report `ok`
//!   (what CI uses; no timing noise in the logs).
//! - any bare argument: substring filter on `group/id` names.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Per-iteration work declared for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical items processed per iteration.
    Elements(u64),
}

/// A benchmark identifier: `function` or `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter, rendered `name/param`.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// The bench context handed to every registered bench function.
pub struct Criterion {
    filter: Option<String>,
    smoke: bool,
}

impl Criterion {
    /// Builds a context from the process arguments (`--test`, filters).
    pub fn from_args() -> Self {
        let mut filter = None;
        let mut smoke = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => smoke = true,
                // Flags cargo/libtest conventionally pass through; ignored.
                "--bench" | "--nocapture" | "-q" | "--quiet" => {}
                other if other.starts_with('-') => {}
                other => filter = Some(other.to_string()),
            }
        }
        Criterion { filter, smoke }
    }

    /// Starts a named group of related measurements.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// A group of measurements sharing a name and settings.
pub struct BenchmarkGroup<'a> {
    c: &'a Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed batches per benchmark (min 3).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark over a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        if let Some(filter) = &self.c.filter {
            if !full.contains(filter.as_str()) {
                return self;
            }
        }
        let mut b = Bencher {
            smoke: self.c.smoke,
            sample_size: self.sample_size,
            ns_per_iter: Vec::new(),
        };
        f(&mut b, input);
        b.report(&full, self.throughput);
        self
    }

    /// Ends the group (kept for criterion API parity).
    pub fn finish(self) {}
}

/// Measures one closure; populated by [`Bencher::iter`].
pub struct Bencher {
    smoke: bool,
    sample_size: usize,
    ns_per_iter: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, auto-sizing batches so each one runs ≥ ~2 ms.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if self.smoke {
            std::hint::black_box(routine());
            return;
        }
        // Calibrate: how many iterations fill the batch target?
        let start = Instant::now();
        std::hint::black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(20));
        let target = Duration::from_millis(2);
        let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        self.ns_per_iter.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            self.ns_per_iter
                .push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }

    fn report(&mut self, name: &str, throughput: Option<Throughput>) {
        if self.smoke {
            println!("bench {name:<44} ... ok (smoke)");
            return;
        }
        if self.ns_per_iter.is_empty() {
            println!("bench {name:<44} ... no measurement (iter not called)");
            return;
        }
        self.ns_per_iter
            .sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = self.ns_per_iter[self.ns_per_iter.len() / 2];
        let min = self.ns_per_iter[0];
        let max = self.ns_per_iter[self.ns_per_iter.len() - 1];
        let thrpt = match throughput {
            Some(Throughput::Bytes(bytes)) => {
                let gib = bytes as f64 / (1u64 << 30) as f64 / (median * 1e-9);
                format!("  {gib:8.3} GiB/s")
            }
            Some(Throughput::Elements(n)) => {
                let rate = n as f64 / (median * 1e-9);
                format!("  {rate:10.0} elem/s")
            }
            None => String::new(),
        };
        println!(
            "bench {name:<44} {:>12}/iter (min {}, max {}){thrpt}",
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(max),
        );
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Registers bench functions under one group entry point (criterion-style).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::bench::Criterion::from_args();
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` for a `harness = false` bench binary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let mut calls = 0u32;
        let mut b = Bencher {
            smoke: true,
            sample_size: 10,
            ns_per_iter: Vec::new(),
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn measurement_collects_samples() {
        let mut b = Bencher {
            smoke: false,
            sample_size: 3,
            ns_per_iter: Vec::new(),
        };
        b.iter(|| std::hint::black_box(1 + 1));
        assert_eq!(b.ns_per_iter.len(), 3);
        assert!(b.ns_per_iter.iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("compress", "xml").id, "compress/xml");
        assert_eq!(BenchmarkId::from_parameter(42).id, "42");
    }
}
