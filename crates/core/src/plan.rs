//! Per-design request dataflow programs.
//!
//! Each middle-tier design processes a write request as a fixed sequence of
//! *phases*; a phase is a set of parallel *branches* (joined before the next
//! phase starts), and a branch is a sequence of *steps*. Steps either charge
//! time on a shared resource (fluid transfer, pool job, fixed delay) or
//! perform a functional action on the request's real bytes (compress,
//! append to a storage server). This little IR keeps each design's dataflow
//! readable and lets one executor (in [`crate::cluster`]) run all four.
//!
//! The byte accounting in these plans *is* the paper's Figure 1: which
//! interconnect each part of the message crosses, per design, is the entire
//! story of SmartDS.

use crate::design::Design;
use crate::services::{Placement, ServicesConfig};
use hwmodel::consts::{
    FPGA_ENGINE_PIPELINE, HEADER_SIZE, NET_PROPAGATION, SOC_ENGINE_PIPELINE, SVC_ENGINE_PIPELINE,
};
use hwmodel::{wire_bytes, CpuWork};
use simkit::Time;
use tracekit::StageKind;

/// A shared fluid resource a step can move bytes across.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Res {
    /// Host DRAM, read direction (Fig 8a's "read BW").
    MemRead,
    /// Host DRAM, write direction.
    MemWrite,
    /// NIC card's PCIe link, host→device (NIC egress DMA reads).
    NicH2D,
    /// NIC card's PCIe link, device→host (NIC ingress DMA writes).
    NicD2H,
    /// Accelerator/SmartDS card's PCIe link, host→device.
    DevH2D,
    /// Accelerator/SmartDS card's PCIe link, device→host.
    DevD2H,
    /// Middle-tier network port `i`, transmit.
    PortTx(u8),
    /// Middle-tier network port `i`, receive.
    PortRx(u8),
    /// SmartDS on-card HBM.
    Hbm,
    /// SoC SmartNIC on-card DRAM (BF2).
    DevMem,
}

/// One step of a branch.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Step {
    /// Move `bytes` across a resource (zero bytes is a no-op).
    Xfer(Res, u32),
    /// Run one unit of software work on the middle-tier core pool.
    Cpu(CpuWork),
    /// Run `bytes` through hardware compression engine `i`.
    Engine(u8, u32),
    /// Replicate the (compressed) block of `bytes` to replica `r`'s storage
    /// server: one storage RPC covering the network propagation to the
    /// server, the disk I/O, the functional append, and the ack's
    /// propagation back. Executed as a cross-shard message exchange with
    /// the server's shard (the propagation is exactly the engine's
    /// conservative lookahead).
    Store(u8, u32),
    /// Fetch a block of `bytes` (compressed size) from replica 0's storage
    /// server: propagation out, disk read, propagation back. The storage-RPC
    /// counterpart of [`Step::Store`] for the read path.
    Fetch(u32),
    /// Fixed delay (network propagation).
    Wait(Time),
    /// Run one unit of software work on the dedicated data-service SoC
    /// Arm pool ([`Placement::Soc`]).
    SvcCpu(CpuWork),
    /// Run `bytes` through dedicated data-service engine `i`
    /// ([`SVC_ENG_DEDUP`]/[`SVC_ENG_CRYPT`], [`Placement::Engine`]).
    SvcEngine(u8, u32),
    /// Functional: LZ4-compress the request payload (time is charged by the
    /// accompanying `Cpu(Compress)` / `Engine` step).
    CompressPayload,
    /// Functional: a latency-segment boundary. The time since the previous
    /// mark (or issue) is charged to `kind`'s segment in the per-request
    /// [`tracekit::SegmentAccum`], so consecutive marks exactly partition
    /// the request's issue-to-ack latency. Kinds outside
    /// [`StageKind::SEGMENTS`] only emit a trace instant.
    Mark(StageKind),
    /// Functional: a zero-duration trace annotation (e.g. the AAMS split /
    /// assemble decision points), with no effect on the latency breakdown.
    Note(StageKind, &'static str),
}

/// A join-all set of parallel branches.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Parallel branches; the phase completes when all complete.
    pub branches: Vec<Vec<Step>>,
}

impl Phase {
    /// A single-branch (sequential) phase.
    pub fn seq(steps: Vec<Step>) -> Self {
        Phase {
            branches: vec![steps],
        }
    }

    /// A parallel phase.
    pub fn par(branches: Vec<Vec<Step>>) -> Self {
        Phase { branches }
    }
}

/// A request's complete dataflow program.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    /// Ordered phases.
    pub phases: Vec<Phase>,
}

impl Plan {
    /// Total bytes this plan moves across `res` (for traffic-model tests).
    pub fn bytes_on(&self, res: Res) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| p.branches.iter())
            .flatten()
            .map(|s| match s {
                Step::Xfer(r, b) if *r == res => *b as u64,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes moved on any port in direction tx/rx.
    pub fn port_bytes(&self, tx: bool) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| p.branches.iter())
            .flatten()
            .map(|s| match s {
                Step::Xfer(Res::PortTx(_), b) if tx => *b as u64,
                Step::Xfer(Res::PortRx(_), b) if !tx => *b as u64,
                _ => 0,
            })
            .sum()
    }
}

const H: u32 = HEADER_SIZE as u32;

fn w(payload: u32) -> u32 {
    wire_bytes(payload as usize) as u32
}

/// Effective bytes charged for *software* LZ4 on a block of `b` bytes
/// compressing to `c`: real LZ4 throughput varies with content (match-heavy
/// and incompressible data run fast, mid-entropy data slow), which is what
/// spreads a CPU middle tier's latency tail. Hardware engines are fixed
/// pipelines and do not get this variance.
fn sw_compress_cost(b: u32, c: u32) -> usize {
    let ratio = c as f64 / b as f64; // ∈ (0, 1]
    ((b as f64) * (0.85 + 0.4 * ratio)) as usize
}

/// Builds the write-request plan for `design` on middle-tier port `port`,
/// for a block of `b` payload bytes compressing to `c` bytes.
///
/// The client→middle-tier and middle-tier→storage legs both charge the
/// middle-tier port fluids (the middle tier is the shared bottleneck; client
/// and storage NICs are assumed unconstrained, as in the paper's testbed
/// where four servers feed one middle tier).
pub fn write_plan(design: Design, port: u8, b: u32, c: u32) -> Plan {
    write_plan_replicated(design, port, b, c, hwmodel::consts::REPLICATION as u8)
}

/// [`write_plan`] with an explicit replication factor (the ablation knob:
/// replication sets the 3×C egress amplification that bounds every design's
/// per-port ingest).
///
/// # Panics
///
/// Panics unless `1 ≤ rep ≤ 6`.
pub fn write_plan_replicated(design: Design, port: u8, b: u32, c: u32, rep: u8) -> Plan {
    assert!((1..=6).contains(&rep), "replication 1–6, got {rep}");
    match design {
        Design::CpuOnly => write_cpu_only(b, c, rep),
        Design::Acc { ddio } => write_acc(b, c, ddio, rep),
        Design::Bf2 => write_bf2(port, b, c, rep),
        Design::SmartDs { .. } => write_smartds(port, b, c, rep),
    }
}

/// Figure 1a: every byte crosses NIC-PCIe and host memory; the host CPU
/// parses *and* compresses.
fn write_cpu_only(b: u32, c: u32, rep: u8) -> Plan {
    let mut p = Plan::default();
    // ① Ingress: wire → NIC → PCIe D2H → host memory (DDIO cannot hold the
    // payload: the middle tier parks it ~32 ms for compaction, §3.2).
    p.phases.push(Phase::par(vec![
        vec![
            Step::Wait(NET_PROPAGATION),
            Step::Xfer(Res::PortRx(0), w(H + b)),
        ],
        vec![Step::Xfer(Res::NicD2H, H + b)],
        vec![Step::Xfer(Res::MemWrite, H + b)],
    ]));
    // ② Header parse on the host CPU.
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Ingress),
        Step::Cpu(CpuWork::ParseHeader),
        Step::Mark(StageKind::Parse),
    ]));
    // ③ Software LZ4: core busy b/rate; reads the payload from DRAM (cold —
    // evicted by the 400 MB buffer working set) and writes the result.
    p.phases.push(Phase::par(vec![
        vec![
            Step::Cpu(CpuWork::Compress(sw_compress_cost(b, c))),
            Step::CompressPayload,
        ],
        vec![Step::Xfer(Res::MemRead, b)],
        vec![Step::Xfer(Res::MemWrite, c)],
    ]));
    p.phases.push(Phase::seq(vec![Step::Mark(StageKind::Compress)]));
    // ④ Post the three replica sends.
    p.phases.push(Phase::seq(vec![Step::Cpu(CpuWork::PostVerb)]));
    // ⑤ Three-way replication: each replica crosses PCIe H2D and the port
    // TX; storage appends and acks. The compressed buffer is read from DRAM
    // once (replicas 2–3 hit the LLC).
    let mut branches: Vec<Vec<Step>> = (0..rep)
        .map(|r| {
            vec![
                Step::Xfer(Res::NicH2D, H + c),
                Step::Xfer(Res::PortTx(0), w(H + c)),
                Step::Store(r, c),
                Step::Xfer(Res::PortRx(0), w(H)),
                Step::Xfer(Res::NicD2H, H),
                Step::Xfer(Res::MemWrite, H),
            ]
        })
        .collect();
    branches.push(vec![Step::Xfer(Res::MemRead, c)]);
    p.phases.push(Phase::par(branches));
    // ⑥ Ack the VM.
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Replicate),
        Step::Cpu(CpuWork::PostVerb),
    ]));
    p.phases.push(Phase::par(vec![
        vec![
            Step::Xfer(Res::NicH2D, H),
            Step::Xfer(Res::PortTx(0), w(H)),
            Step::Wait(NET_PROPAGATION),
        ],
        vec![Step::Xfer(Res::MemRead, H)],
    ]));
    p
}

/// Figure 1b: the payload additionally round-trips the accelerator's PCIe
/// link; with DDIO the FPGA reads hit the LLC, without it every DMA read
/// lands on DRAM.
fn write_acc(b: u32, c: u32, ddio: bool, rep: u8) -> Plan {
    let mut p = Plan::default();
    // ① Ingress (same as CPU-only).
    p.phases.push(Phase::par(vec![
        vec![
            Step::Wait(NET_PROPAGATION),
            Step::Xfer(Res::PortRx(0), w(H + b)),
        ],
        vec![Step::Xfer(Res::NicD2H, H + b)],
        vec![Step::Xfer(Res::MemWrite, H + b)],
    ]));
    // ② Parse, ③ command the accelerator.
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Ingress),
        Step::Cpu(CpuWork::ParseHeader),
        Step::Mark(StageKind::Parse),
        Step::Cpu(CpuWork::PostVerb),
    ]));
    // ④ Accelerator fetches the payload over its own PCIe link (LLC-served
    // when DDIO is on: the NIC wrote it moments ago), compresses, writes
    // back. The result write allocates in LLC but spills to DRAM (it is
    // parked until all three replicas ack).
    let fetch_dram = if ddio { 0 } else { b };
    p.phases.push(Phase::par(vec![
        vec![
            Step::Xfer(Res::DevH2D, b),
            Step::Engine(0, b),
            Step::Wait(FPGA_ENGINE_PIPELINE),
            Step::CompressPayload,
            Step::Xfer(Res::DevD2H, c),
        ],
        vec![Step::Xfer(Res::MemRead, fetch_dram)],
        vec![Step::Xfer(Res::MemWrite, c)],
    ]));
    // ⑤ Completion back to the CPU, post sends.
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Compress),
        Step::Cpu(CpuWork::PostVerb),
    ]));
    // ⑥ Replication. Without DDIO the NIC re-reads the compressed block
    // from DRAM for every replica.
    let mut branches: Vec<Vec<Step>> = (0..rep)
        .map(|r| {
            vec![
                Step::Xfer(Res::NicH2D, H + c),
                Step::Xfer(Res::PortTx(0), w(H + c)),
                Step::Store(r, c),
                Step::Xfer(Res::PortRx(0), w(H)),
                Step::Xfer(Res::NicD2H, H),
                Step::Xfer(Res::MemWrite, H),
            ]
        })
        .collect();
    if !ddio {
        branches.push(vec![Step::Xfer(Res::MemRead, 3 * c)]);
    }
    p.phases.push(Phase::par(branches));
    // ⑦ Ack the VM.
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Replicate),
        Step::Cpu(CpuWork::PostVerb),
    ]));
    p.phases.push(Phase::par(vec![
        vec![
            Step::Xfer(Res::NicH2D, H),
            Step::Xfer(Res::PortTx(0), w(H)),
            Step::Wait(NET_PROPAGATION),
        ],
        vec![Step::Xfer(Res::MemRead, H)],
    ]));
    p
}

/// Figure 1d: everything on-card; the wimpy Arm parses, the 40 Gbps engine
/// compresses, and the payload crosses device DRAM ~3.5–4×.
fn write_bf2(port: u8, b: u32, c: u32, rep: u8) -> Plan {
    let mut p = Plan::default();
    p.phases.push(Phase::par(vec![
        vec![
            Step::Wait(NET_PROPAGATION),
            Step::Xfer(Res::PortRx(port), w(H + b)),
        ],
        vec![Step::Xfer(Res::DevMem, H + b)],
    ]));
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Ingress),
        Step::Cpu(CpuWork::ParseHeader),
        Step::Mark(StageKind::Parse),
    ]));
    p.phases.push(Phase::par(vec![
        vec![
            Step::Engine(0, b),
            Step::Wait(SOC_ENGINE_PIPELINE),
            Step::CompressPayload,
        ],
        vec![Step::Xfer(Res::DevMem, b)],
        vec![Step::Xfer(Res::DevMem, c)],
    ]));
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Compress),
        Step::Cpu(CpuWork::PostVerb),
    ]));
    let branches: Vec<Vec<Step>> = (0..rep)
        .map(|r| {
            vec![
                Step::Xfer(Res::DevMem, c),
                Step::Xfer(Res::PortTx(port), w(H + c)),
                Step::Store(r, c),
                Step::Xfer(Res::PortRx(port), w(H)),
                Step::Xfer(Res::DevMem, H),
            ]
        })
        .collect();
    p.phases.push(Phase::par(branches));
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Replicate),
        Step::Cpu(CpuWork::PostVerb),
    ]));
    p.phases.push(Phase::par(vec![vec![
        Step::Xfer(Res::DevMem, H),
        Step::Xfer(Res::PortTx(port), w(H)),
        Step::Wait(NET_PROPAGATION),
    ]]));
    p
}

/// Figures 5/6: AAMS. Only 64-byte headers cross PCIe and host memory; the
/// payload stays in HBM beside a per-port 100 Gbps engine.
fn write_smartds(port: u8, b: u32, c: u32, rep: u8) -> Plan {
    let mut p = Plan::default();
    // ① Ingress: the Split module sends the header to the host and the
    // payload to HBM.
    p.phases.push(Phase::par(vec![
        vec![
            Step::Wait(NET_PROPAGATION),
            Step::Xfer(Res::PortRx(port), w(H + b)),
        ],
        vec![Step::Note(StageKind::Split, "aams-split"), Step::Xfer(Res::Hbm, b)],
        vec![Step::Xfer(Res::DevD2H, H), Step::Xfer(Res::MemWrite, H)],
    ]));
    // ② Host software parses the header — full flexibility, trivial cost.
    p.phases.push(Phase::seq(vec![
        Step::Mark(StageKind::Ingress),
        Step::Cpu(CpuWork::ParseHeader),
        Step::Mark(StageKind::Parse),
    ]));
    // ③ dev_func: the port's engine compresses in place in HBM.
    p.phases.push(Phase::seq(vec![Step::Cpu(CpuWork::PostVerb)]));
    p.phases.push(Phase::par(vec![
        vec![
            Step::Engine(port, b),
            Step::Wait(FPGA_ENGINE_PIPELINE),
            Step::CompressPayload,
        ],
        vec![Step::Xfer(Res::Hbm, b)],
        vec![Step::Xfer(Res::Hbm, c)],
    ]));
    p.phases.push(Phase::seq(vec![Step::Mark(StageKind::Compress)]));
    // ④ dev_mixed_send ×3, posted as one batch. The Assemble module fetches
    // the (shared) header from host memory **once** and replays it for all
    // three replicas, so PCIe carries 64 B here, not 192 B. Storage-server
    // acks terminate inside the on-card RoCE stack (reliability is hardware,
    // §4.1); the host sees a single completion record.
    p.phases.push(Phase::seq(vec![
        Step::Cpu(CpuWork::PostVerb),
        Step::Note(StageKind::Assemble, "aams-assemble"),
        Step::Xfer(Res::DevH2D, H),
        Step::Xfer(Res::MemRead, H),
    ]));
    let branches: Vec<Vec<Step>> = (0..rep)
        .map(|r| {
            vec![
                Step::Xfer(Res::Hbm, c),
                Step::Xfer(Res::PortTx(port), w(H + c)),
                Step::Store(r, c),
                Step::Xfer(Res::PortRx(port), w(H)),
            ]
        })
        .collect();
    p.phases.push(Phase::par(branches));
    // ⑤ One completion record (CQE) to the host, then the VM ack (header
    // assembled from host memory, nothing from HBM).
    p.phases.push(Phase::par(vec![
        vec![Step::Mark(StageKind::Replicate), Step::Cpu(CpuWork::PostVerb)],
        vec![Step::Xfer(Res::DevD2H, H), Step::Xfer(Res::MemWrite, H)],
    ]));
    p.phases.push(Phase::par(vec![vec![
        Step::Xfer(Res::DevH2D, H),
        Step::Xfer(Res::MemRead, H),
        Step::Xfer(Res::PortTx(port), w(H)),
        Step::Wait(NET_PROPAGATION),
    ]]));
    p
}

/// Builds the read-request plan (§2.2.2): fetch one replica, decompress,
/// return the block. Reads are 1/5 of writes in production and exercise the
/// decompression direction.
pub fn read_plan(design: Design, port: u8, b: u32, c: u32) -> Plan {
    let mut p = Plan::default();
    // ① Read request arrives (header only).
    let ingress_store: Vec<Step> = match design {
        Design::CpuOnly | Design::Acc { .. } => vec![
            Step::Xfer(Res::NicD2H, H),
            Step::Xfer(Res::MemWrite, H),
        ],
        Design::Bf2 => vec![Step::Xfer(Res::DevMem, H)],
        Design::SmartDs { .. } => vec![Step::Xfer(Res::DevD2H, H), Step::Xfer(Res::MemWrite, H)],
    };
    p.phases.push(Phase::par(vec![
        vec![
            Step::Wait(NET_PROPAGATION),
            Step::Xfer(Res::PortRx(port), w(H)),
        ],
        ingress_store,
    ]));
    p.phases.push(Phase::seq(vec![
        Step::Cpu(CpuWork::ParseHeader),
        Step::Cpu(CpuWork::PostVerb),
    ]));
    // ② Fetch from one storage server.
    p.phases.push(Phase::seq(vec![
        Step::Xfer(Res::PortTx(port), w(H)),
        Step::Fetch(c),
        Step::Xfer(Res::PortRx(port), w(H + c)),
    ]));
    // ③ Land the reply, decompress, ④ return to the VM.
    match design {
        Design::CpuOnly => {
            p.phases.push(Phase::par(vec![
                vec![Step::Xfer(Res::NicD2H, H + c)],
                vec![Step::Xfer(Res::MemWrite, H + c)],
            ]));
            p.phases.push(Phase::par(vec![
                vec![Step::Cpu(CpuWork::Decompress(sw_compress_cost(b, c)))],
                vec![Step::Xfer(Res::MemRead, c)],
                vec![Step::Xfer(Res::MemWrite, b)],
            ]));
            p.phases.push(Phase::seq(vec![Step::Cpu(CpuWork::PostVerb)]));
            p.phases.push(Phase::par(vec![
                vec![
                    Step::Xfer(Res::NicH2D, H + b),
                    Step::Xfer(Res::PortTx(port), w(H + b)),
                    Step::Wait(NET_PROPAGATION),
                ],
                vec![Step::Xfer(Res::MemRead, b)],
            ]));
        }
        Design::Acc { ddio } => {
            p.phases.push(Phase::par(vec![
                vec![Step::Xfer(Res::NicD2H, H + c)],
                vec![Step::Xfer(Res::MemWrite, H + c)],
            ]));
            let fetch_dram = if ddio { 0 } else { c };
            p.phases.push(Phase::par(vec![
                vec![
                    Step::Xfer(Res::DevH2D, c),
                    Step::Engine(0, b),
                    Step::Wait(FPGA_ENGINE_PIPELINE),
                    Step::Xfer(Res::DevD2H, b),
                ],
                vec![Step::Xfer(Res::MemRead, fetch_dram)],
                vec![Step::Xfer(Res::MemWrite, b)],
            ]));
            p.phases.push(Phase::seq(vec![Step::Cpu(CpuWork::PostVerb)]));
            p.phases.push(Phase::par(vec![
                vec![
                    Step::Xfer(Res::NicH2D, H + b),
                    Step::Xfer(Res::PortTx(port), w(H + b)),
                    Step::Wait(NET_PROPAGATION),
                ],
                vec![Step::Xfer(Res::MemRead, if ddio { 0 } else { b })],
            ]));
        }
        Design::Bf2 => {
            p.phases.push(Phase::seq(vec![Step::Xfer(Res::DevMem, H + c)]));
            p.phases.push(Phase::par(vec![
                vec![Step::Engine(0, b), Step::Wait(SOC_ENGINE_PIPELINE)],
                vec![Step::Xfer(Res::DevMem, c)],
                vec![Step::Xfer(Res::DevMem, b)],
            ]));
            p.phases.push(Phase::seq(vec![
                Step::Cpu(CpuWork::PostVerb),
                Step::Xfer(Res::DevMem, b),
                Step::Xfer(Res::PortTx(port), w(H + b)),
                Step::Wait(NET_PROPAGATION),
            ]));
        }
        Design::SmartDs { .. } => {
            // Reply splits: header to host, compressed payload to HBM.
            p.phases.push(Phase::par(vec![
                vec![Step::Note(StageKind::Split, "reply-split"), Step::Xfer(Res::Hbm, c)],
                vec![Step::Xfer(Res::DevD2H, H), Step::Xfer(Res::MemWrite, H)],
            ]));
            p.phases.push(Phase::seq(vec![
                Step::Cpu(CpuWork::ParseHeader),
                Step::Cpu(CpuWork::PostVerb),
            ]));
            // Decompression engine in HBM, then assembled reply.
            p.phases.push(Phase::par(vec![
                vec![Step::Engine(port, b), Step::Wait(FPGA_ENGINE_PIPELINE)],
                vec![Step::Xfer(Res::Hbm, c)],
                vec![Step::Xfer(Res::Hbm, b)],
            ]));
            p.phases.push(Phase::seq(vec![Step::Cpu(CpuWork::PostVerb)]));
            p.phases.push(Phase::par(vec![vec![
                Step::Note(StageKind::Assemble, "reply-assemble"),
                Step::Xfer(Res::DevH2D, H),
                Step::Xfer(Res::MemRead, H),
                Step::Xfer(Res::Hbm, b),
                Step::Xfer(Res::PortTx(port), w(H + b)),
                Step::Wait(NET_PROPAGATION),
            ]]));
        }
    }
    p
}

/// Index of the dedicated dedup-scan service engine.
pub const SVC_ENG_DEDUP: u8 = 0;
/// Index of the dedicated crypt service engine.
pub const SVC_ENG_CRYPT: u8 = 1;

/// The steps charging one service pass over `bytes` at `placement`. The
/// placement moves *where* the time is charged — host pool, dedicated SoC
/// Arm pool, or a dedicated engine (which also pays its pipeline-fill
/// latency) — never what bytes are produced.
fn svc_steps(placement: Placement, work: CpuWork, eng: u8, bytes: u32) -> Vec<Step> {
    match placement {
        Placement::Host => vec![Step::Cpu(work)],
        Placement::Soc => vec![Step::SvcCpu(work)],
        Placement::Engine => vec![
            Step::SvcEngine(eng, bytes),
            Step::Wait(SVC_ENGINE_PIPELINE),
        ],
    }
}

fn phase_with(plan: &Plan, pred: impl Fn(&Step) -> bool) -> Option<usize> {
    plan.phases
        .iter()
        .position(|ph| ph.branches.iter().flatten().any(&pred))
}

/// Splices the data-service phases into a write plan: the dedup scan over
/// the raw `b`-byte payload right after the parse milestone, and
/// encryption of the `sealed`-byte container right after the compress
/// milestone. Works on any design's plan because it keys on the milestone
/// marks every write plan carries.
pub fn inject_write_services(plan: &mut Plan, svc: &ServicesConfig, b: u32, sealed: u32) {
    if let Some(i) = phase_with(plan, |s| matches!(s, Step::Mark(StageKind::Parse))) {
        plan.phases.insert(
            i + 1,
            Phase::seq(svc_steps(
                svc.dedup_placement,
                CpuWork::DedupScan(b as usize),
                SVC_ENG_DEDUP,
                b,
            )),
        );
    }
    if let Some(i) = phase_with(plan, |s| matches!(s, Step::Mark(StageKind::Compress))) {
        plan.phases.insert(
            i + 1,
            Phase::seq(svc_steps(
                svc.crypt_placement,
                CpuWork::Crypt(sealed as usize),
                SVC_ENG_CRYPT,
                sealed,
            )),
        );
    }
}

/// Splices the data-service steps into a read-miss plan: an optional cache
/// probe during header parse, and decryption of the fetched `sealed`-byte
/// container right after the storage fetch.
pub fn inject_read_services(plan: &mut Plan, svc: &ServicesConfig, sealed: u32, cache: bool) {
    if cache {
        // The probe runs where the header is parsed (always hub software).
        if let Some(branch) = plan
            .phases
            .iter_mut()
            .flat_map(|ph| ph.branches.iter_mut())
            .find(|br| br.contains(&Step::Cpu(CpuWork::ParseHeader)))
        {
            branch.push(Step::Cpu(CpuWork::CacheLookup));
        }
    }
    if let Some(i) = phase_with(plan, |s| matches!(s, Step::Fetch(_))) {
        plan.phases.insert(
            i + 1,
            Phase::seq(svc_steps(
                svc.crypt_placement,
                CpuWork::Crypt(sealed as usize),
                SVC_ENG_CRYPT,
                sealed,
            )),
        );
    }
}

/// The cache-hit read plan: header ingress and parse as usual, then the
/// block is served straight from the middle tier's design-local memory —
/// no storage fetch, no decrypt, no decompress. This is the fabric hop the
/// hot-block cache exists to skip.
pub fn read_hit_plan(design: Design, port: u8, b: u32) -> Plan {
    let mut p = Plan::default();
    let ingress_store: Vec<Step> = match design {
        Design::CpuOnly | Design::Acc { .. } => vec![
            Step::Xfer(Res::NicD2H, H),
            Step::Xfer(Res::MemWrite, H),
        ],
        Design::Bf2 => vec![Step::Xfer(Res::DevMem, H)],
        Design::SmartDs { .. } => vec![Step::Xfer(Res::DevD2H, H), Step::Xfer(Res::MemWrite, H)],
    };
    p.phases.push(Phase::par(vec![
        vec![
            Step::Wait(NET_PROPAGATION),
            Step::Xfer(Res::PortRx(port), w(H)),
        ],
        ingress_store,
    ]));
    p.phases.push(Phase::seq(vec![
        Step::Cpu(CpuWork::ParseHeader),
        Step::Cpu(CpuWork::CacheLookup),
        Step::Cpu(CpuWork::PostVerb),
    ]));
    match design {
        Design::CpuOnly | Design::Acc { .. } => {
            p.phases.push(Phase::par(vec![
                vec![
                    Step::Xfer(Res::NicH2D, H + b),
                    Step::Xfer(Res::PortTx(port), w(H + b)),
                    Step::Wait(NET_PROPAGATION),
                ],
                vec![Step::Xfer(Res::MemRead, b)],
            ]));
        }
        Design::Bf2 => {
            p.phases.push(Phase::seq(vec![
                Step::Xfer(Res::DevMem, b),
                Step::Xfer(Res::PortTx(port), w(H + b)),
                Step::Wait(NET_PROPAGATION),
            ]));
        }
        Design::SmartDs { .. } => {
            // Cached payload lives in HBM; the header is assembled from
            // host memory as on the ordinary read reply.
            p.phases.push(Phase::par(vec![vec![
                Step::Xfer(Res::DevH2D, H),
                Step::Xfer(Res::MemRead, H),
                Step::Xfer(Res::Hbm, b),
                Step::Xfer(Res::PortTx(port), w(H + b)),
                Step::Wait(NET_PROPAGATION),
            ]]));
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::consts::BLOCK_SIZE;

    const B: u32 = BLOCK_SIZE as u32;
    const C: u32 = 1950; // ≈ 2.1× ratio

    #[test]
    fn cpu_only_memory_traffic_symmetric() {
        // Paper: "CPU-only consumes nearly the same memory read bandwidth
        // and memory write bandwidth".
        let p = write_plan(Design::CpuOnly, 0, B, C);
        let r = p.bytes_on(Res::MemRead);
        let wr = p.bytes_on(Res::MemWrite);
        let asym = (r as f64 - wr as f64).abs() / wr as f64;
        assert!(asym < 0.1, "read {r} vs write {wr}");
        // Both ≈ B + C.
        assert!((r as f64 - (B + C) as f64).abs() / ((B + C) as f64) < 0.1);
    }

    #[test]
    fn acc_ddio_kills_memory_reads_but_not_writes() {
        let with = write_plan(Design::Acc { ddio: true }, 0, B, C);
        let without = write_plan(Design::Acc { ddio: false }, 0, B, C);
        // Paper Fig 8a: w/ DDIO hardly consumes read bandwidth...
        assert!(with.bytes_on(Res::MemRead) < 200);
        // ...w/o DDIO read bandwidth significantly increases.
        assert!(without.bytes_on(Res::MemRead) as u32 >= B + 3 * C);
        // Writes are similar either way.
        assert_eq!(with.bytes_on(Res::MemWrite), without.bytes_on(Res::MemWrite));
    }

    #[test]
    fn acc_doubles_pcie_traffic_vs_cpu_only() {
        let cpu = write_plan(Design::CpuOnly, 0, B, C);
        let acc = write_plan(Design::Acc { ddio: true }, 0, B, C);
        let cpu_pcie = cpu.bytes_on(Res::NicH2D) + cpu.bytes_on(Res::NicD2H);
        let acc_pcie = acc.bytes_on(Res::NicH2D)
            + acc.bytes_on(Res::NicD2H)
            + acc.bytes_on(Res::DevH2D)
            + acc.bytes_on(Res::DevD2H);
        let ratio = acc_pcie as f64 / cpu_pcie as f64;
        assert!((1.4..1.8).contains(&ratio), "PCIe amplification {ratio:.2}");
    }

    #[test]
    fn smartds_pcie_and_memory_are_headers_only() {
        let p = write_plan(Design::SmartDs { ports: 1 }, 0, B, C);
        let pcie = p.bytes_on(Res::DevH2D) + p.bytes_on(Res::DevD2H);
        let mem = p.bytes_on(Res::MemRead) + p.bytes_on(Res::MemWrite);
        let cpu = write_plan(Design::CpuOnly, 0, B, C);
        let cpu_pcie = cpu.bytes_on(Res::NicH2D) + cpu.bytes_on(Res::NicD2H);
        let cpu_mem = cpu.bytes_on(Res::MemRead) + cpu.bytes_on(Res::MemWrite);
        // Headers only: an order of magnitude below the baselines.
        assert!(
            (pcie as f64) < 0.06 * cpu_pcie as f64,
            "SmartDS PCIe {pcie} vs CPU-only {cpu_pcie}"
        );
        assert!(
            (mem as f64) < 0.06 * cpu_mem as f64,
            "SmartDS mem {mem} vs CPU-only {cpu_mem}"
        );
        // The payload rides HBM instead.
        assert!(p.bytes_on(Res::Hbm) as u32 >= 2 * B);
    }

    #[test]
    fn bf2_devmem_amplification_near_3_5x() {
        let p = write_plan(Design::Bf2, 0, B, C);
        let amp = p.bytes_on(Res::DevMem) as f64 / B as f64;
        // §3.4: "this number is around 3.5× in reality" (with compression
        // and 3-way replication).
        assert!((3.0..4.2).contains(&amp), "amplification {amp:.2}");
    }

    #[test]
    fn egress_exceeds_ingress_due_to_replication() {
        // 3 replicas of C with ratio ~2.1 → egress/ingress ≈ 1.45.
        let p = write_plan(Design::SmartDs { ports: 2 }, 1, B, C);
        let rx = p.port_bytes(false) as f64;
        let tx = p.port_bytes(true) as f64;
        assert!(tx > rx, "tx {tx} rx {rx}");
        assert!((1.2..1.8).contains(&(tx / rx)), "ratio {}", tx / rx);
    }

    #[test]
    fn all_write_plans_store_three_replicas_and_compress_once() {
        for d in [
            Design::CpuOnly,
            Design::Acc { ddio: true },
            Design::Bf2,
            Design::SmartDs { ports: 1 },
        ] {
            let p = write_plan(d, 0, B, C);
            let steps: Vec<&Step> = p
                .phases
                .iter()
                .flat_map(|ph| ph.branches.iter())
                .flatten()
                .collect();
            let stores = steps
                .iter()
                .filter(|s| matches!(s, Step::Store(_, _)))
                .count();
            let compresses = steps
                .iter()
                .filter(|s| matches!(s, Step::CompressPayload))
                .count();
            assert_eq!(stores, 3, "{d}: replicas");
            assert_eq!(compresses, 1, "{d}: compress steps");
        }
    }

    fn flat(p: &Plan) -> Vec<Step> {
        p.phases
            .iter()
            .flat_map(|ph| ph.branches.iter())
            .flatten()
            .copied()
            .collect()
    }

    #[test]
    fn write_injection_adds_dedup_and_crypt_phases() {
        let svc = ServicesConfig::paper();
        for d in [
            Design::CpuOnly,
            Design::Acc { ddio: true },
            Design::Bf2,
            Design::SmartDs { ports: 1 },
        ] {
            let base = write_plan(d, 0, B, C);
            let mut p = base.clone();
            inject_write_services(&mut p, &svc, B, 1200);
            assert_eq!(p.phases.len(), base.phases.len() + 2, "{d}");
            let steps = flat(&p);
            assert!(steps.contains(&Step::Cpu(CpuWork::DedupScan(B as usize))), "{d}");
            assert!(steps.contains(&Step::Cpu(CpuWork::Crypt(1200))), "{d}");
            // The dedup scan lands between the parse and compress marks.
            let pos = |s: Step| steps.iter().position(|x| *x == s).unwrap_or(usize::MAX);
            assert!(pos(Step::Mark(StageKind::Parse)) < pos(Step::Cpu(CpuWork::DedupScan(B as usize))), "{d}");
            assert!(pos(Step::Mark(StageKind::Compress)) < pos(Step::Cpu(CpuWork::Crypt(1200))), "{d}");
        }
        // Engine placement swaps in dedicated engine steps plus their
        // pipeline-fill waits; SoC placement targets the service Arm pool.
        let eng = ServicesConfig::paper().with_placement(Placement::Engine);
        let mut p = write_plan(Design::CpuOnly, 0, B, C);
        inject_write_services(&mut p, &eng, B, 1200);
        let steps = flat(&p);
        assert!(steps.contains(&Step::SvcEngine(SVC_ENG_DEDUP, B)));
        assert!(steps.contains(&Step::SvcEngine(SVC_ENG_CRYPT, 1200)));
        let soc = ServicesConfig::paper().with_placement(Placement::Soc);
        let mut p = write_plan(Design::Bf2, 0, B, C);
        inject_write_services(&mut p, &soc, B, 1200);
        let steps = flat(&p);
        assert!(steps.contains(&Step::SvcCpu(CpuWork::DedupScan(B as usize))));
        assert!(steps.contains(&Step::SvcCpu(CpuWork::Crypt(1200))));
    }

    #[test]
    fn read_injection_and_hit_plans() {
        let svc = ServicesConfig::paper();
        for d in [
            Design::CpuOnly,
            Design::Acc { ddio: true },
            Design::Bf2,
            Design::SmartDs { ports: 1 },
        ] {
            let mut p = read_plan(d, 0, B, C);
            inject_read_services(&mut p, &svc, C, true);
            let steps = flat(&p);
            assert!(steps.contains(&Step::Cpu(CpuWork::Crypt(C as usize))), "{d}");
            assert!(steps.contains(&Step::Cpu(CpuWork::CacheLookup)), "{d}");
            // The hit plan skips the fabric: no fetch, no store, and the
            // full block leaves on the port anyway.
            let hit = read_hit_plan(d, 0, B);
            let hsteps = flat(&hit);
            assert!(!hsteps.iter().any(|s| matches!(s, Step::Fetch(_))), "{d}");
            assert!(!hsteps.iter().any(|s| matches!(s, Step::Store(_, _))), "{d}");
            assert!(hsteps.contains(&Step::Cpu(CpuWork::CacheLookup)), "{d}");
            assert!(hit.port_bytes(true) >= B as u64, "{d}");
        }
    }

    #[test]
    fn read_plans_have_no_stores() {
        for d in [
            Design::CpuOnly,
            Design::Acc { ddio: true },
            Design::Bf2,
            Design::SmartDs { ports: 1 },
        ] {
            let p = read_plan(d, 0, B, C);
            let has_store = p
                .phases
                .iter()
                .flat_map(|ph| ph.branches.iter())
                .flatten()
                .any(|s| matches!(s, Step::Store(_, _)));
            assert!(!has_store, "{d}");
            // Exactly one disk fetch.
            let fetches = p
                .phases
                .iter()
                .flat_map(|ph| ph.branches.iter())
                .flatten()
                .filter(|s| matches!(s, Step::Fetch(_)))
                .count();
            assert_eq!(fetches, 1, "{d}");
        }
    }
}
