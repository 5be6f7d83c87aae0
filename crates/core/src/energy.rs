//! Power and energy model (Table I, §VII-B "Power budget and Energy
//! Efficiency").
//!
//! Component powers come from CACTI 6.5 + Synopsys DC at 32 nm in the
//! paper; here they are transcribed constants rolled up the same way. The
//! PCIe interface limits SearSSD's budget to ~55 W; the paper's design
//! lands at 18.82 W for the in-SSD logic plus 7.5 W for the FPGA bitonic
//! sorter = 26.32 W total.

use crate::report::NdsReport;

/// One Table I row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentBudget {
    /// Component name.
    pub name: &'static str,
    /// Configuration note (size / composition).
    pub config: &'static str,
    /// Instance count.
    pub count: u32,
    /// Total power across instances, watts.
    pub power_w: f64,
    /// Total area across instances, mm².
    pub area_mm2: f64,
}

/// The Table I breakdown of SearSSD's customized logic.
pub fn searssd_components() -> Vec<ComponentBudget> {
    vec![
        ComponentBudget {
            name: "MAC group",
            config: "2 MACs",
            count: 512,
            power_w: 1.95,
            area_mm2: 15.04,
        },
        ComponentBudget {
            name: "Vgen Buffer",
            config: "2MB",
            count: 1,
            power_w: 1.71,
            area_mm2: 3.18,
        },
        ComponentBudget {
            name: "Alloc Buffer",
            config: "6MB",
            count: 1,
            power_w: 4.57,
            area_mm2: 8.53,
        },
        ComponentBudget {
            name: "Query Queue",
            config: "24KB",
            count: 256,
            power_w: 5.84,
            area_mm2: 9.76,
        },
        ComponentBudget {
            name: "Vaddr Queue",
            config: "3KB",
            count: 256,
            power_w: 0.87,
            area_mm2: 1.47,
        },
        ComponentBudget {
            name: "Output Buffer",
            config: "1KB",
            count: 512,
            power_w: 0.56,
            area_mm2: 1.12,
        },
        ComponentBudget {
            name: "ECC Decoder",
            config: "LDPC",
            count: 1024,
            power_w: 1.18,
            area_mm2: 2.84,
        },
        ComponentBudget {
            name: "Ctr circuits",
            config: "-",
            count: 0,
            power_w: 2.14,
            area_mm2: 1.15,
        },
    ]
}

/// Platform-level power model for QPS/W comparisons (Fig. 20).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// SearSSD customized-logic power (Table I total).
    pub searssd_logic_w: f64,
    /// FPGA bitonic kernel power.
    pub fpga_w: f64,
    /// Baseline SSD device power (NAND + controller + DRAM).
    pub ssd_device_w: f64,
    /// PCIe-slot power budget for a SmartSSD-class device.
    pub power_budget_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            searssd_logic_w: searssd_components().iter().map(|c| c.power_w).sum(),
            fpga_w: 7.5,
            ssd_device_w: 12.0,
            power_budget_w: 55.0,
        }
    }
}

impl PowerModel {
    /// Total NDSEARCH power draw (paper: 18.82 + 7.5 = 26.32 W of
    /// customized logic; the base SSD device is accounted separately when
    /// comparing against SmartSSD-class designs).
    pub fn ndsearch_total_w(&self) -> f64 {
        self.searssd_logic_w + self.fpga_w
    }

    /// Whether the design fits the PCIe power budget.
    pub fn within_budget(&self) -> bool {
        self.ndsearch_total_w() + self.ssd_device_w <= self.power_budget_w
    }

    /// Energy efficiency in queries per second per watt.
    pub fn qps_per_watt(&self, report: &NdsReport) -> f64 {
        report.qps() / (self.ndsearch_total_w() + self.ssd_device_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_totals_match_paper() {
        let total_power: f64 = searssd_components().iter().map(|c| c.power_w).sum();
        let total_area: f64 = searssd_components().iter().map(|c| c.area_mm2).sum();
        assert!((total_power - 18.82).abs() < 0.01, "power = {total_power}");
        assert!((total_area - 43.09).abs() < 0.01, "area = {total_area}");
    }

    #[test]
    fn ndsearch_fits_power_budget() {
        let p = PowerModel::default();
        assert!((p.ndsearch_total_w() - 26.32).abs() < 0.01);
        assert!(p.within_budget());
    }

    #[test]
    fn qps_per_watt_scales_with_qps() {
        let p = PowerModel::default();
        let fast = NdsReport {
            queries: 2048,
            total_ns: 1_000_000,
            ..NdsReport::default()
        };
        let slow = NdsReport {
            queries: 2048,
            total_ns: 10_000_000,
            ..NdsReport::default()
        };
        assert!(p.qps_per_watt(&fast) > 9.0 * p.qps_per_watt(&slow));
    }
}
