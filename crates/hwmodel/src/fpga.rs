//! FPGA resource model reproducing Table 3.
//!
//! Table 3 of the paper reports LUT/REG/BRAM consumption for the "Acc"
//! compression card and for SmartDS with 1/2/4/6 ports. The numbers are
//! almost exactly linear in the port count (each port instantiates an
//! extended RoCE stack, a Split module, an Assemble module, a compression
//! engine, and an HBM interface slice), so the model composes per-module
//! costs and the table falls out to within 1 %.

use std::fmt;
use std::iter::Sum;
use std::ops::Add;

/// Resource consumption of a hardware module (LUTs and registers in
/// thousands, BRAM tiles in units).
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct FpgaResources {
    /// Look-up tables, ×1000.
    pub luts_k: f64,
    /// Registers, ×1000.
    pub regs_k: f64,
    /// Block RAM tiles.
    pub brams: f64,
}

impl FpgaResources {
    /// Creates a resource triple.
    pub const fn new(luts_k: f64, regs_k: f64, brams: f64) -> Self {
        FpgaResources {
            luts_k,
            regs_k,
            brams,
        }
    }

    /// Scales all resources by an integer replica count.
    pub fn scale(self, n: usize) -> Self {
        FpgaResources {
            luts_k: self.luts_k * n as f64,
            regs_k: self.regs_k * n as f64,
            brams: self.brams * n as f64,
        }
    }

    /// Utilization of this consumption against a device's capacity,
    /// as (lut %, reg %, bram %).
    pub fn utilization(&self, device: &FpgaResources) -> (f64, f64, f64) {
        (
            self.luts_k / device.luts_k * 100.0,
            self.regs_k / device.regs_k * 100.0,
            self.brams / device.brams * 100.0,
        )
    }

    /// True if this consumption fits within `device`.
    pub fn fits(&self, device: &FpgaResources) -> bool {
        self.luts_k <= device.luts_k && self.regs_k <= device.regs_k && self.brams <= device.brams
    }
}

impl Add for FpgaResources {
    type Output = FpgaResources;
    fn add(self, o: FpgaResources) -> FpgaResources {
        FpgaResources {
            luts_k: self.luts_k + o.luts_k,
            regs_k: self.regs_k + o.regs_k,
            brams: self.brams + o.brams,
        }
    }
}

impl Sum for FpgaResources {
    fn sum<I: Iterator<Item = FpgaResources>>(iter: I) -> FpgaResources {
        iter.fold(FpgaResources::default(), Add::add)
    }
}

impl fmt::Display for FpgaResources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0}K LUTs, {:.0}K REGs, {:.0} BRAMs",
            self.luts_k, self.regs_k, self.brams
        )
    }
}

/// Capacity of the Xilinx VCU128 (VU37P die) hosting SmartDS.
pub const VCU128: FpgaResources = FpgaResources::new(1_303.7, 2_607.4, 2_016.0);

/// Capacity of the Alveo U280 used by the "Acc" baseline.
pub const U280: FpgaResources = FpgaResources::new(1_304.0, 2_607.0, 2_016.0);

/// Per-module resource costs (the decomposition behind Table 3).
pub mod module {
    use super::FpgaResources;

    /// Extended RoCE stack: the base stack of Sidler et al. plus the
    /// descriptor-table plumbing.
    pub(super) const fn roce_stack() -> FpgaResources {
        FpgaResources::new(62.0, 58.0, 118.0)
    }

    /// The Split module (recv descriptor table + steering).
    pub const fn split() -> FpgaResources {
        FpgaResources::new(8.0, 7.4, 13.0)
    }

    /// The Assemble module (send descriptor table + gather).
    pub(super) const fn assemble() -> FpgaResources {
        FpgaResources::new(8.0, 7.4, 13.0)
    }

    /// One 100 Gbps LZ4 compression engine.
    pub(super) const fn compress_engine() -> FpgaResources {
        FpgaResources::new(70.0, 64.0, 140.0)
    }

    /// Per-port HBM interface slice (AXI switch ports, buffers).
    pub(super) const fn hbm_interface() -> FpgaResources {
        FpgaResources::new(8.8, 6.0, 8.0)
    }

    /// Host DMA shell (XDMA/QDMA bridge), shared by "Acc"-style designs.
    pub(super) const fn dma_shell() -> FpgaResources {
        FpgaResources::new(42.0, 45.0, 32.0)
    }
}

/// Everything one SmartDS networking port instantiates.
fn smartds_per_port() -> FpgaResources {
    module::roce_stack()
        + module::split()
        + module::assemble()
        + module::compress_engine()
        + module::hbm_interface()
}

/// Total consumption of a SmartDS build with `ports` networking ports
/// (Table 3 rows "SmartDS-1/2/4/6").
///
/// # Panics
///
/// Panics if `ports` is zero or exceeds the VCU128's six.
pub fn smartds(ports: usize) -> FpgaResources {
    assert!(
        (1..=crate::consts::SMARTDS_MAX_PORTS).contains(&ports),
        "SmartDS supports 1–6 ports, got {ports}"
    );
    smartds_per_port().scale(ports)
}

/// Consumption of the "Acc" baseline card (engine + host DMA shell).
pub fn acc() -> FpgaResources {
    module::compress_engine() + module::dma_shell()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table 3 values: (LUT K, REG K, BRAM).
    const TABLE3: [(&str, f64, f64, f64); 5] = [
        ("Acc", 112.0, 109.0, 172.0),
        ("SmartDS-1", 157.0, 143.0, 292.0),
        ("SmartDS-2", 313.0, 285.0, 584.0),
        ("SmartDS-4", 627.0, 571.0, 1168.0),
        ("SmartDS-6", 941.0, 857.0, 1752.0),
    ];

    fn rel_err(model: f64, paper: f64) -> f64 {
        (model - paper).abs() / paper
    }

    #[test]
    fn model_matches_table3_within_1_percent() {
        let rows = [
            acc(),
            smartds(1),
            smartds(2),
            smartds(4),
            smartds(6),
        ];
        for (row, (name, l, r, b)) in rows.iter().zip(TABLE3) {
            assert!(rel_err(row.luts_k, l) < 0.011, "{name} LUT {row}");
            assert!(rel_err(row.regs_k, r) < 0.011, "{name} REG {row}");
            assert!(rel_err(row.brams, b) < 0.011, "{name} BRAM {row}");
        }
    }

    #[test]
    fn utilization_matches_paper_percentages() {
        // Paper: SmartDS-1 = 12.0 % LUTs, 5.4 % REGs, 14.5 % BRAMs.
        let (l, r, b) = smartds(1).utilization(&VCU128);
        assert!((l - 12.0).abs() < 0.5, "LUT% {l}");
        assert!((r - 5.4).abs() < 0.3, "REG% {r}");
        assert!((b - 14.5).abs() < 0.5, "BRAM% {b}");
        // SmartDS-6 = 72.2 %, 32.9 %, 86.9 %.
        let (l, r, b) = smartds(6).utilization(&VCU128);
        assert!((l - 72.2).abs() < 1.5, "LUT% {l}");
        assert!((r - 32.9).abs() < 1.0, "REG% {r}");
        assert!((b - 86.9).abs() < 1.5, "BRAM% {b}");
    }

    #[test]
    fn six_ports_fit_the_vcu128() {
        assert!(smartds(6).fits(&VCU128));
        // But seven would not fit BRAM-wise (and is rejected anyway).
        let seven = smartds_per_port().scale(7);
        assert!(!seven.fits(&VCU128));
    }

    #[test]
    #[should_panic(expected = "1–6 ports")]
    fn zero_ports_rejected() {
        smartds(0);
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = FpgaResources::new(1.0, 2.0, 3.0);
        let b = FpgaResources::new(10.0, 20.0, 30.0);
        let s: FpgaResources = [a, b].into_iter().sum();
        assert_eq!(s, FpgaResources::new(11.0, 22.0, 33.0));
        assert_eq!(a.scale(3), FpgaResources::new(3.0, 6.0, 9.0));
    }
}
