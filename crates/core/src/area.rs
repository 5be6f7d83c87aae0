//! Area and storage-density model (§VII-B "Area and storage density").
//!
//! The customized logic in SearSSD totals 43.09 mm² at 32 nm — 82 % and
//! 87 % less than DeepStore's chip-level (236.8 mm²) and channel-level
//! (320 mm²) accelerators, and far below SmartSSD's ~800 mm² FPGA. Adding
//! logic inside the SSD costs storage density: Samsung 983 DCT-class
//! V-NAND MLC stores ~6 Gb/mm²; with SearSSD's logic the effective density
//! drops ~6 % to ~5.64 Gb/mm².

use crate::energy::searssd_components;

/// Area accounting for an accelerator design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Customized-logic area, mm².
    pub logic_mm2: f64,
    /// NAND storage density without the logic, Gb/mm².
    pub base_density_gb_per_mm2: f64,
    /// Device capacity in bytes.
    pub capacity_bytes: u64,
}

impl AreaModel {
    /// The paper's SearSSD numbers: Table I logic area, 6 Gb/mm² V-NAND,
    /// 512 GB of SiN capacity.
    pub fn searssd_default() -> Self {
        Self {
            logic_mm2: searssd_components().iter().map(|c| c.area_mm2).sum(),
            base_density_gb_per_mm2: 6.0,
            capacity_bytes: 512 << 30,
        }
    }

    /// Reference areas of the baselines (§VII-B).
    pub fn baseline_areas_mm2() -> Vec<(&'static str, f64)> {
        vec![
            ("NDSEARCH (SearSSD logic)", 43.09),
            ("DeepStore DS-cp", 236.8),
            ("DeepStore DS-c", 320.0),
            ("SmartSSD FPGA", 800.0),
        ]
    }

    /// Capacity in gigabits (2^30 bits).
    pub(crate) fn capacity_gbits(&self) -> f64 {
        self.capacity_bytes as f64 * 8.0 / (1 << 30) as f64
    }

    /// Die area the raw NAND needs, mm².
    pub(crate) fn nand_area_mm2(&self) -> f64 {
        self.capacity_gbits() / self.base_density_gb_per_mm2
    }

    /// Effective storage density after adding the logic, Gb/mm².
    pub fn effective_density(&self) -> f64 {
        self.capacity_gbits() / (self.nand_area_mm2() + self.logic_mm2)
    }

    /// Relative density degradation (0..1).
    pub fn density_degradation(&self) -> f64 {
        1.0 - self.effective_density() / self.base_density_gb_per_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searssd_density_matches_paper() {
        let a = AreaModel::searssd_default();
        // Paper: 6 Gb/mm² → 5.64 Gb/mm² (~6 % degradation).
        let d = a.effective_density();
        assert!((d - 5.64).abs() < 0.05, "density = {d}");
        let deg = a.density_degradation();
        assert!((deg - 0.06).abs() < 0.01, "degradation = {deg}");
    }

    #[test]
    fn ndsearch_logic_is_smallest() {
        let areas = AreaModel::baseline_areas_mm2();
        let nds = areas[0].1;
        for (name, area) in &areas[1..] {
            assert!(nds < *area, "{name} should be larger than SearSSD");
        }
        // 82% / 87% smaller than DS-cp / DS-c.
        assert!((1.0 - nds / 236.8 - 0.82).abs() < 0.01);
        assert!((1.0 - nds / 320.0 - 0.87).abs() < 0.01);
    }
}
