//! Total-cost-of-ownership arithmetic behind the paper's motivation.
//!
//! §1/§4: "the higher throughput of a middle-tier server means that fewer
//! servers are needed, thus reducing the cloud's total cost of ownership",
//! culminating in §5.5's 51.6× server-count reduction. This module turns a
//! per-server throughput into a fleet size and a capex+power cost for a
//! target aggregate load. Unit prices are documented public ballparks (the
//! paper publishes none); the reproduced *claim* is the consolidation
//! factor — the dollar figures scale linearly with whatever prices a reader
//! substitutes.

/// Unit costs and lifetimes.
#[derive(Copy, Clone, Debug)]
pub struct CostModel {
    /// One 2-socket middle-tier server (chassis, CPUs, DRAM, NIC), USD.
    pub server_capex_usd: f64,
    /// One HBM-FPGA SmartNIC card, USD.
    pub smartnic_capex_usd: f64,
    /// Server wall power at middle-tier load, watts.
    pub server_power_w: f64,
    /// SmartNIC card power, watts (FPGA SmartNICs run tens of watts).
    pub smartnic_power_w: f64,
    /// Electricity (+cooling overhead folded in), USD per kWh.
    pub usd_per_kwh: f64,
    /// Amortisation horizon, years.
    pub years: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            server_capex_usd: 15_000.0,
            smartnic_capex_usd: 7_000.0,
            server_power_w: 500.0,
            smartnic_power_w: 60.0,
            usd_per_kwh: 0.12,
            years: 4.0,
        }
    }
}

/// Cost of one fleet configuration.
#[derive(Copy, Clone, Debug)]
pub struct FleetCost {
    /// Middle-tier servers needed.
    pub servers: u64,
    /// SmartNIC cards across the fleet.
    pub cards: u64,
    /// Capital expenditure, USD.
    pub capex_usd: f64,
    /// Energy over the amortisation horizon, USD.
    pub energy_usd: f64,
    /// Capex + energy, USD.
    pub total_usd: f64,
}

impl CostModel {
    /// Sizes a fleet to serve `target_gbps` given `per_server_gbps` and
    /// `cards_per_server` SmartNICs in each server (0 for CPU-only).
    ///
    /// # Panics
    ///
    /// Panics on non-positive throughputs.
    fn fleet(&self, target_gbps: f64, per_server_gbps: f64, cards_per_server: u64) -> FleetCost {
        assert!(target_gbps > 0.0 && per_server_gbps > 0.0, "bad throughput");
        let servers = (target_gbps / per_server_gbps).ceil() as u64;
        let cards = servers * cards_per_server;
        let capex =
            servers as f64 * self.server_capex_usd + cards as f64 * self.smartnic_capex_usd;
        let hours = self.years * 365.25 * 24.0;
        let watts = servers as f64 * self.server_power_w + cards as f64 * self.smartnic_power_w;
        let energy = watts / 1000.0 * hours * self.usd_per_kwh;
        FleetCost {
            servers,
            cards,
            capex_usd: capex,
            energy_usd: energy,
            total_usd: capex + energy,
        }
    }

    /// Compares a CPU-only fleet against a SmartDS fleet for `target_gbps`;
    /// returns `(cpu, smartds, tco_reduction_factor)`.
    pub fn compare(
        &self,
        target_gbps: f64,
        cpu_only_gbps: f64,
        smartds_server_gbps: f64,
        cards_per_server: u64,
    ) -> (FleetCost, FleetCost, f64) {
        let cpu = self.fleet(target_gbps, cpu_only_gbps, 0);
        let sds = self.fleet(target_gbps, smartds_server_gbps, cards_per_server);
        let reduction = cpu.total_usd / sds.total_usd;
        (cpu, sds, reduction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_consolidation_factor_carries_to_servers() {
        // §5.5: one 8-card server ≈ 2.8 Tbps vs ~54 Gbps CPU-only.
        let m = CostModel::default();
        let (cpu, sds, reduction) = m.compare(100_000.0, 54.3, 2_800.0, 8);
        assert_eq!(cpu.servers, 1842); // ceil(100000/54.3)
        assert_eq!(sds.servers, 36);
        assert!((cpu.servers as f64 / sds.servers as f64) > 50.0);
        // Even paying for 8 FPGA cards per server, TCO drops by an order
        // of magnitude or more.
        assert!(reduction > 10.0, "TCO reduction {reduction:.1}x");
        assert_eq!(sds.cards, 36 * 8);
    }

    #[test]
    fn energy_scales_with_fleet() {
        let m = CostModel::default();
        let small = m.fleet(1_000.0, 100.0, 0);
        let large = m.fleet(10_000.0, 100.0, 0);
        assert_eq!(small.servers, 10);
        assert_eq!(large.servers, 100);
        assert!((large.energy_usd / small.energy_usd - 10.0).abs() < 0.01);
        assert!(small.total_usd > small.capex_usd);
    }

    #[test]
    fn cards_cost_money_and_power() {
        let m = CostModel::default();
        let bare = m.fleet(1_000.0, 100.0, 0);
        let carded = m.fleet(1_000.0, 100.0, 4);
        assert_eq!(bare.servers, carded.servers);
        assert!(carded.capex_usd > bare.capex_usd);
        assert!(carded.energy_usd > bare.energy_usd);
    }

    #[test]
    #[should_panic(expected = "bad throughput")]
    fn zero_throughput_rejected() {
        CostModel::default().fleet(1.0, 0.0, 0);
    }
}
