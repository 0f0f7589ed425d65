//! Middle-tier server designs under evaluation.
//!
//! The paper compares four ways to build a middle-tier server (Figure 1):
//! CPU-only, accelerator-enhanced ("Acc", ± DDIO), SoC SmartNIC ("BF2"),
//! and SmartDS with 1–6 ports. [`Design`] selects which dataflow the
//! cluster simulation runs; the per-request resource programs live in
//! [`crate::plan`].

use hwmodel::consts::{BF2_PORTS, HOST_LOGICAL_CORES, SMARTDS_MAX_PORTS};
use std::fmt;

/// A middle-tier server architecture.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Design {
    /// Traditional CPU-based middle tier (Figure 1a): parse and LZ4 both on
    /// host cores, every payload byte crosses the NIC's PCIe link and host
    /// memory.
    CpuOnly,
    /// Accelerator-enhanced (Figure 1b): LZ4 on a separate FPGA card; the
    /// payload crosses PCIe twice more. `ddio` toggles Intel DDIO for the
    /// Figure 8a ablation.
    Acc {
        /// Whether Direct Data I/O is enabled on the host.
        ddio: bool,
    },
    /// SoC-based SmartNIC (Figure 1d): BlueField-2 with Arm parse and a
    /// 40 Gbps on-card engine; the host is not involved.
    Bf2,
    /// The paper's contribution (Figure 5/6): per-port extended RoCE stacks
    /// split headers to the host and keep payloads in HBM next to 100 Gbps
    /// engines.
    SmartDs {
        /// Networking ports in use (1–6 on the VCU128).
        ports: usize,
    },
}

impl Design {
    /// All designs exactly as evaluated in Figure 7.
    pub fn figure7_set() -> Vec<Design> {
        vec![
            Design::CpuOnly,
            Design::Acc { ddio: true },
            Design::Bf2,
            Design::SmartDs { ports: 1 },
        ]
    }

    /// Short label used in experiment output (matches the paper's names).
    pub fn label(&self) -> String {
        match self {
            Design::CpuOnly => "CPU-only".into(),
            Design::Acc { ddio: true } => "Acc".into(),
            Design::Acc { ddio: false } => "Acc w/o DDIO".into(),
            Design::Bf2 => "BF2".into(),
            Design::SmartDs { ports } => format!("SmartDS-{ports}"),
        }
    }

    /// Number of middle-tier networking ports this design drives.
    pub fn ports(&self) -> usize {
        match self {
            Design::CpuOnly | Design::Acc { .. } => 1,
            Design::Bf2 => BF2_PORTS,
            Design::SmartDs { ports } => *ports,
        }
    }

    /// Validates configuration limits.
    ///
    /// # Panics
    ///
    /// Panics for a SmartDS port count outside 1–6.
    pub fn validate(&self) {
        if let Design::SmartDs { ports } = self {
            assert!(
                (1..=SMARTDS_MAX_PORTS).contains(ports),
                "SmartDS supports 1–{SMARTDS_MAX_PORTS} ports, got {ports}"
            );
        }
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// What issues requests into the cluster.
#[derive(Clone, Debug)]
pub enum Driver {
    /// Closed loop (the [`RunConfig::saturating`] default): `outstanding`
    /// client slots, each issuing its next request a think time after the
    /// previous one completes.
    Closed,
    /// Open loop: the seeded multi-tenant generator, optionally behind
    /// SmartNIC-side admission control. Plain Poisson arrivals are its
    /// one-tenant case ([`LoadSpec::poisson`](crate::LoadSpec::poisson)).
    Tenants {
        /// Tenant population, skew, rate schedule and class mapping
        /// (boxed: the spec is large and most runs are closed-loop).
        load: Box<crate::loadgen::LoadSpec>,
        /// Admission control over the arrival stream, if any.
        admission: Option<crate::admission::AdmissionSpec>,
    },
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The middle-tier design under test.
    pub design: Design,
    /// Host (or Arm) cores given to the middle-tier software.
    pub cores: usize,
    /// Closed-loop outstanding write requests (offered load).
    pub outstanding: usize,
    /// Simulated warm-up before measurement starts.
    pub warmup: simkit::Time,
    /// Simulated measurement window.
    pub measure: simkit::Time,
    /// Memory-pressure injector: `(cores, delay_cycles)`, if any (Fig 9).
    pub mlc: Option<(usize, u32)>,
    /// Number of distinct corpus blocks in the payload pool.
    pub pool_blocks: usize,
    /// Workload seed.
    pub seed: u64,
    /// Timed fault schedule (crashes, gray stalls, port and rack-fabric
    /// link degradation) delivered through the event engine; empty = fair
    /// weather. Built explicitly, from a seed via
    /// `faultkit::FaultPlan::chaos`, or with the `with_fault` /
    /// `with_topo_fault` builders.
    pub fault_plan: faultkit::FaultPlan,
    /// Per-request timeout: a request not completed this long after issue
    /// is aborted (its quorum via `QuorumTracker::abort`), its silent
    /// replicas penalized, and the write retried with backoff. `None`
    /// disables the timer — the default, because saturation experiments
    /// intentionally run queues deep and must not shed load.
    pub request_timeout: Option<simkit::Time>,
    /// Retry attempts after the first timeout before the request is
    /// reported as an explicit write failure.
    pub max_retries: u32,
    /// Base retry backoff; attempt `n` waits `backoff × 2ⁿ`.
    pub retry_backoff: simkit::Time,
    /// Upper bound on the exponential backoff.
    pub retry_backoff_cap: simkit::Time,
    /// Period of the snapshot maintenance service (§2.2.3), if enabled.
    pub snapshot_period: Option<simkit::Time>,
    /// Concurrent host-memory bursts the I/O path keeps in flight
    /// (see `hwmodel::consts::IO_MEM_WINDOW`; exposed for the ablation).
    pub io_mem_window: usize,
    /// Zipf skew of block accesses (None = uniform). Production block
    /// workloads are hot-spotted, which drives compaction pressure.
    pub zipf_theta: Option<f64>,
    /// What issues requests: the closed loop (default) or the open-loop
    /// tenant load generator.
    pub driver: Driver,
    /// Period of the throughput sampler (transient time series), if any.
    pub sample_period: Option<simkit::Time>,
    /// Write replication factor (paper default 3; ablation knob).
    pub replication: usize,
    /// Span tracing: `Some(cfg)` enables the deterministic tracer (head
    /// sampling seeded by `seed`), `None` leaves tracing off with zero
    /// overhead. See `tracekit`.
    pub trace: Option<tracekit::TraceConfig>,
    /// Rack-scale fabric, if any: racks × servers behind oversubscribed
    /// ToR/spine links. `None` keeps the paper's single-cell testbed
    /// (`cluster::STORAGE_SERVERS` servers, flat 1.5 µs wire).
    pub topology: Option<crate::topology::Topology>,
    /// Inline data services (dedup + encryption + hot-block cache) on the
    /// byte path. `None` runs the original pipeline bit-for-bit.
    pub services: Option<crate::services::ServicesConfig>,
    /// Single-profile corpus override for the payload pool (the services
    /// experiment's corpus knob). `None` keeps the Silesia mix.
    pub corpus_profile: Option<corpus::Profile>,
}

impl RunConfig {
    /// A sensible default configuration for `design`: saturating load,
    /// 10 ms warm-up + 40 ms measurement, Silesia-mix payloads.
    pub fn saturating(design: Design) -> Self {
        design.validate();
        let cores = match design {
            Design::CpuOnly => HOST_LOGICAL_CORES,
            Design::Acc { .. } => 4,
            Design::Bf2 => hwmodel::consts::BF2_ARM_CORES,
            Design::SmartDs { ports } => {
                (hwmodel::consts::SMARTDS_CORES_PER_PORT * ports).max(2)
            }
        };
        // Saturating closed-loop depth per design: a production CPU-only
        // middle tier runs with deep per-core backlogs (its operating point
        // in Figure 7 is all 48 cores, heavily queued), while SmartDS needs
        // only enough slots to cover the port's bandwidth-delay product.
        let outstanding = match design {
            Design::CpuOnly => 256,
            Design::Acc { .. } => 144,
            Design::Bf2 => 192,
            Design::SmartDs { ports } => 96 * ports,
        };
        RunConfig {
            design,
            cores,
            outstanding,
            warmup: simkit::Time::from_ms(10.0),
            measure: simkit::Time::from_ms(40.0),
            mlc: None,
            pool_blocks: 256,
            seed: 42,
            fault_plan: faultkit::FaultPlan::new(),
            request_timeout: None,
            max_retries: 4,
            retry_backoff: simkit::Time::from_us(100.0),
            retry_backoff_cap: simkit::Time::from_ms(2.0),
            snapshot_period: None,
            io_mem_window: hwmodel::consts::IO_MEM_WINDOW,
            zipf_theta: None,
            driver: Driver::Closed,
            sample_period: None,
            replication: hwmodel::consts::REPLICATION,
            trace: None,
            topology: None,
            services: None,
            corpus_profile: None,
        }
    }

    /// Same configuration with span tracing enabled.
    pub fn with_trace(mut self, cfg: tracekit::TraceConfig) -> Self {
        self.trace = Some(cfg);
        self
    }

    /// Same configuration with a different core count (Figure 7 sweeps).
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        self.cores = cores;
        self
    }

    /// Same configuration with a different outstanding-request count.
    pub fn with_outstanding(mut self, outstanding: usize) -> Self {
        assert!(outstanding > 0, "need at least one outstanding request");
        self.outstanding = outstanding;
        self
    }

    /// Adds a memory-pressure injector (Figure 9 sweeps).
    pub fn with_mlc(mut self, cores: usize, delay_cycles: u32) -> Self {
        self.mlc = Some((cores, delay_cycles));
        self
    }

    /// Adds a crash (`alive = false`) or restart of a storage server at
    /// `at` to the fault plan (fail-over experiments).
    // simlint: allow(test-only-pub, reason = "run-config setter: the fail-over suites script single crashes through it")
    pub fn with_fault(mut self, at: simkit::Time, server: u32, alive: bool) -> Self {
        let kind = if alive {
            faultkit::FaultKind::ServerRestart { server }
        } else {
            faultkit::FaultKind::ServerCrash { server }
        };
        self.fault_plan.push(at, kind);
        self
    }

    /// Merges a timed fault schedule into the fault plan (chaos
    /// experiments). Faults added earlier stay; same-instant events keep
    /// builder order.
    pub fn with_fault_plan(mut self, plan: faultkit::FaultPlan) -> Self {
        for e in plan.events() {
            self.fault_plan.push(e.at, e.kind);
        }
        self
    }

    /// Arms the per-request timeout (and with it the retry/failover
    /// machinery in the replication path).
    pub fn with_request_timeout(mut self, timeout: simkit::Time) -> Self {
        assert!(timeout > simkit::Time::ZERO, "timeout must be positive");
        self.request_timeout = Some(timeout);
        self
    }

    /// Tunes the retry policy: attempts after the first timeout, base
    /// backoff, and the backoff cap.
    // simlint: allow(test-only-pub, reason = "run-config setter: the fault suites tune retries through it")
    pub fn with_retry_policy(
        mut self,
        max_retries: u32,
        backoff: simkit::Time,
        cap: simkit::Time,
    ) -> Self {
        assert!(cap >= backoff, "backoff cap below base backoff");
        self.max_retries = max_retries;
        self.retry_backoff = backoff;
        self.retry_backoff_cap = cap;
        self
    }

    /// Enables the periodic snapshot maintenance service.
    // simlint: allow(test-only-pub, reason = "run-config setter: the maintenance suites enable snapshots through it")
    pub fn with_snapshots(mut self, period: simkit::Time) -> Self {
        self.snapshot_period = Some(period);
        self
    }

    /// Drives the cluster with open-loop Poisson arrivals at `gbps` of
    /// write payload over the run's warm-up and measurement (replaces any
    /// earlier driver): the one-tenant [`LoadSpec::poisson`] generator.
    ///
    /// [`LoadSpec::poisson`]: crate::LoadSpec::poisson
    pub fn with_open_loop(self, gbps: f64) -> Self {
        let horizon = self.warmup + self.measure;
        self.with_load(crate::loadgen::LoadSpec::poisson(gbps, horizon))
    }

    /// Sets the write replication factor (1–6).
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!((1..=6).contains(&replication), "replication 1–6");
        self.replication = replication;
        self
    }

    /// Places the cluster on a rack-scale fabric (replaces the flat
    /// single-cell wire; the server count becomes
    /// `topology.num_servers()`).
    pub fn with_topology(mut self, topology: crate::topology::Topology) -> Self {
        topology.validate();
        self.topology = Some(topology);
        self
    }

    /// Drives the cluster with the seeded open-loop multi-tenant
    /// generator, without admission control (replaces any earlier driver).
    pub fn with_load(mut self, load: crate::loadgen::LoadSpec) -> Self {
        load.validate();
        self.driver = Driver::Tenants { load: Box::new(load), admission: None };
        self
    }

    /// Puts SmartNIC-side admission control in front of the tenant load
    /// generator.
    ///
    /// # Panics
    ///
    /// Panics unless the driver is the tenant generator ([`with_load`]).
    ///
    /// [`with_load`]: RunConfig::with_load
    pub fn with_admission(mut self, spec: crate::admission::AdmissionSpec) -> Self {
        let Driver::Tenants { admission, .. } = &mut self.driver else {
            panic!("admission control requires the open-loop tenant load generator");
        };
        *admission = Some(spec);
        self
    }

    /// Adds a rack-fabric link fault to the fault plan: the link's
    /// capacity is scaled to `fraction` of nominal at `at` (0.0 kills the
    /// link; schedule a later 1.0 to restore it). A run without a
    /// topology ignores it.
    pub fn with_topo_fault(
        mut self,
        at: simkit::Time,
        link: crate::topology::TopoLink,
        fraction: f64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        let link = link.index() as u16;
        self.fault_plan
            .push(at, faultkit::FaultKind::TopoLinkDegrade { link, fraction });
        self
    }

    /// Enables the inline data services (dedup + encryption + cache).
    pub fn with_services(mut self, services: crate::services::ServicesConfig) -> Self {
        services.validate();
        self.services = Some(services);
        self
    }

    /// Replaces the Silesia-mix payload pool with blocks drawn from one
    /// corpus profile (the services experiment's corpus knob).
    pub fn with_corpus_profile(mut self, profile: corpus::Profile) -> Self {
        self.corpus_profile = Some(profile);
        self
    }

    /// No-op: every run that cannot defer a barrier operation already
    /// synchronizes on the pair-lookahead matrix.
    #[doc(hidden)]
    pub fn with_sync_matrix(self) -> Self {
        self
    }

    /// The conservative lookahead window this configuration yields for
    /// the sharded engine: the topology's minimum hub↔server propagation,
    /// or the flat single-cell wire latency without one.
    pub fn lookahead(&self) -> simkit::Time {
        match &self.topology {
            Some(t) => t.min_rpc_latency(),
            None => hwmodel::consts::NET_PROPAGATION,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Design::CpuOnly.label(), "CPU-only");
        assert_eq!(Design::Acc { ddio: true }.label(), "Acc");
        assert_eq!(Design::Acc { ddio: false }.label(), "Acc w/o DDIO");
        assert_eq!(Design::Bf2.label(), "BF2");
        assert_eq!(Design::SmartDs { ports: 4 }.label(), "SmartDS-4");
    }

    #[test]
    fn port_counts() {
        assert_eq!(Design::CpuOnly.ports(), 1);
        assert_eq!(Design::Bf2.ports(), 2);
        assert_eq!(Design::SmartDs { ports: 6 }.ports(), 6);
    }

    #[test]
    #[should_panic(expected = "SmartDS supports")]
    fn invalid_port_count_panics() {
        Design::SmartDs { ports: 7 }.validate();
    }

    #[test]
    fn lookahead_tracks_topology_latencies() {
        let cfg = RunConfig::saturating(Design::SmartDs { ports: 1 });
        assert_eq!(cfg.lookahead(), hwmodel::consts::NET_PROPAGATION);
        let topo = crate::topology::Topology::new(3, 2)
            .with_latencies(simkit::Time::from_us(0.4), simkit::Time::from_us(2.0));
        let cfg = cfg.with_topology(topo);
        // The min-latency scan picks the in-rack ToR hop, not the flat
        // default and not the longer cross-rack path.
        assert_eq!(cfg.lookahead(), simkit::Time::from_us(0.4));
        assert!(cfg.lookahead() > simkit::Time::ZERO);
    }

    #[test]
    fn saturating_config_uses_two_cores_per_smartds_port() {
        let c = RunConfig::saturating(Design::SmartDs { ports: 4 });
        assert_eq!(c.cores, 8);
        let c = RunConfig::saturating(Design::CpuOnly);
        assert_eq!(c.cores, 48);
    }
}
