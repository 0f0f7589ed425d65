//! # smartds — middle-tier-centric SmartNIC with application-aware message split
//!
//! A full-system reproduction of *"SmartDS: Middle-Tier-centric SmartNIC
//! Enabling Application-aware Message Split for Disaggregated Block Storage"*
//! (ISCA 2023). The crate provides:
//!
//! * [`api`] — the paper's Table 2 programming interface
//!   (`host_alloc` / `dev_alloc` / `open_roce_instance` / `dev_mixed_recv` /
//!   `dev_mixed_send` / `dev_func` / `poll`) over a functional SmartDS
//!   device, used by the runnable examples.
//! * [`plan`] — the per-request dataflow programs of all four middle-tier
//!   designs (CPU-only, Acc ± DDIO, BF2, SmartDS-N).
//! * [`cluster`] — the end-to-end discrete-event cluster (clients →
//!   middle tier → 3-way replicated storage) that regenerates every table
//!   and figure of the paper's evaluation.
//! * [`scaleup`] — the §5.5 multi-SmartNIC-per-server analysis.
//! * [`agent`] — the compute-server side: [`agent::VirtualDisk`] byte I/O
//!   over a segment-routed middle tier (the Figure 2 storage agent).
//! * [`qos`] — multi-tenant token buckets and deficit-weighted scheduling,
//!   wired into the cluster's admission path.
//! * [`topology`] — the rack-scale fabric: racks × servers behind
//!   oversubscribed ToR/spine links, feeding the shard engine's lookahead.
//! * [`loadgen`] — seeded open-loop multi-tenant load (zipfian tenant
//!   popularity, diurnal/burst schedules, per-tenant QoS classes).
//! * [`admission`] — SmartNIC-side admission control and backpressure for
//!   the open-loop stream (bounded per-class windows and ingress queues).
//! * [`policy`] — §2.2.1's load-adaptive compression-effort selection
//!   (including the "compressed many times" multi-pass).
//!
//! ## Quick start
//!
//! ```
//! use smartds::{cluster, Design, RunConfig};
//! use simkit::Time;
//!
//! let mut cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
//! cfg.warmup = Time::from_ms(1.0);
//! cfg.measure = Time::from_ms(3.0);
//! cfg.outstanding = 48;
//! let report = cluster::run(&cfg);
//! assert!(report.throughput_gbps > 15.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod agent;
pub mod api;
pub mod cluster;
mod design;
pub mod fabric;
pub mod loadgen;
mod metrics;
pub mod plan;
pub mod policy;
pub mod qos;
pub mod scaleup;
pub mod services;
pub mod topology;
mod workload;

pub use admission::{Admission, AdmissionSpec, Verdict};
pub use design::{Design, Driver, RunConfig};
pub use loadgen::{Arrival, LoadGen, LoadSpec};
pub use metrics::{Metrics, RunReport, ScaleStats};
pub use services::{Placement, ServiceStats, Services, ServicesConfig};
pub use topology::{TopoLink, Topology};
pub use workload::{Workload, WriteReq};
