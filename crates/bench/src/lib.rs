//! # smartds-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation section, each
//! returning the data series the paper plots and printing paper-style rows.
//! The `experiments` binary dispatches on the experiment id; the testkit-runner
//! benches under `benches/` wrap the same functions.
//!
//! | id | paper content | function |
//! |----|----------------|----------|
//! | fig4   | RDMA throughput under MLC pressure      | [`fig4::run`] |
//! | table1 | PCIe latency under load                 | [`table1::run`] |
//! | table3 | FPGA resource consumption               | [`table3::run`] |
//! | fig7   | write throughput + latency vs cores     | [`sweeps::fig7`] |
//! | fig8   | host memory & PCIe bandwidth vs cores   | [`sweeps::fig8`] |
//! | fig9   | performance under memory pressure       | [`sweeps::fig9`] |
//! | fig10  | multi-port scaling                      | [`sweeps::fig10`] |
//! | sec55  | multi-SmartNIC scale-up                 | [`sec55::run`] |
//! | soc    | §3.4 SoC-SmartNIC feasibility           | [`soc::run`] |
//! | curve  | extension: open-loop latency vs load    | [`curve::run`] |
//! | tco    | motivation: fleet size and TCO          | [`tco::run`] |
//! | breakdown | extension: traced per-stage table    | [`breakdown::run`] |
//! | reads  | extension: read-only workload           | [`reads::run`] |
//! | degraded | extension: faults & degraded mode     | [`degraded::run`] |
//! | loc    | programmability (lines of code)         | [`loc::run`] |
//! | perf   | simulator hot-path throughput           | [`perf::run`] |
//! | scale  | extension: rack fabric + open-loop tenants | [`scale::run`] |
//! | services | extension: data services placement sweep | [`services::run`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
pub mod csv;
pub mod curve;
pub mod degraded;
pub mod fig4;
pub mod json;
pub mod loc;
pub mod perf;
pub mod pool;
pub mod reads;
pub mod scale;
pub mod sec55;
pub mod services;
pub mod soc;
pub mod sweeps;
pub mod table1;
pub mod table3;
pub mod tco;

/// Measurement profile: `quick` for CI/bench smoke, `full` for the numbers
/// recorded in EXPERIMENTS.md.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Short windows (≈3+9 ms simulated) for fast iteration.
    Quick,
    /// The full windows (10+40 ms simulated) used for recorded results.
    Full,
}

impl Profile {
    /// Applies the profile's windows to a run configuration.
    pub fn apply(self, mut cfg: smartds::RunConfig) -> smartds::RunConfig {
        match self {
            Profile::Quick => {
                cfg.warmup = simkit::Time::from_ms(3.0);
                cfg.measure = simkit::Time::from_ms(9.0);
                cfg.pool_blocks = 128;
            }
            Profile::Full => {
                cfg.warmup = simkit::Time::from_ms(10.0);
                cfg.measure = simkit::Time::from_ms(40.0);
            }
        }
        cfg
    }
}
