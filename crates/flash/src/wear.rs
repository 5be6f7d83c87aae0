//! Endurance / wear model (§VII-B "ECC and endurance").
//!
//! Flash memory cells degrade with program/erase cycles; the paper notes
//! that the probability of hard-decision LDPC failure grows as the device
//! ages ("flash memory cell storage reliability gradually degrades"), and
//! quotes the endurance study it cites as reference 83 for the
//! observation that even at mid-late lifetime the failure
//! probability stays around 1 %. This module tracks per-block P/E cycles
//! — the online-update write path (appends and compaction) charges them —
//! and reports wear against the cell type's rated endurance.

use crate::geometry::{FlashGeometry, PlaneId};

/// Per-block program/erase accounting.
#[derive(Debug, Clone)]
pub struct WearModel {
    geom: FlashGeometry,
    /// `pe[plane][block]` = program/erase cycles so far.
    pe: Vec<Vec<u32>>,
    /// Rated endurance (P/E cycles) of the cell type; V-NAND MLC ≈ 10k.
    pub rated_pe_cycles: u32,
}

impl WearModel {
    /// Creates a fresh-device model.
    pub fn new(geom: FlashGeometry) -> Self {
        let planes = geom.total_planes() as usize;
        let blocks = geom.blocks_per_plane as usize;
        Self {
            geom,
            pe: vec![vec![0; blocks]; planes],
            rated_pe_cycles: 10_000,
        }
    }

    /// Records one erase+program of a block.
    ///
    /// # Panics
    /// Panics if indices are out of range.
    pub fn note_program(&mut self, plane: PlaneId, block: u32) {
        self.pe[plane as usize][block as usize] += 1;
    }

    /// P/E cycles a block has seen.
    pub fn pe_cycles(&self, plane: PlaneId, block: u32) -> u32 {
        self.pe[plane as usize][block as usize]
    }

    /// Wear ratio of a block: cycles / rated (≥ 1 past rated life).
    pub fn wear_ratio(&self, plane: PlaneId, block: u32) -> f64 {
        f64::from(self.pe_cycles(plane, block)) / f64::from(self.rated_pe_cycles)
    }

    /// Maximum wear ratio across the device — the wear-leveling quality
    /// indicator (block-level refresh spreads relocations pseudo-randomly
    /// within planes, bounding the skew).
    pub fn max_wear_ratio(&self) -> f64 {
        let mut worst = 0.0f64;
        for plane in 0..self.geom.total_planes() {
            for block in 0..self.geom.blocks_per_plane {
                worst = worst.max(self.wear_ratio(plane, block));
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::Ftl;

    #[test]
    fn wear_accounting_is_monotone_and_isolated() {
        // Each note_program bumps exactly the targeted block by one cycle,
        // and the max wear ratio is nondecreasing in the number of
        // programs.
        let geom = FlashGeometry::tiny();
        let mut w = WearModel::new(geom);
        let mut prev_cycles = 0;
        let mut prev_max = w.max_wear_ratio();
        for step in 1..=200u32 {
            w.note_program(1, 2);
            let cycles = w.pe_cycles(1, 2);
            assert_eq!(cycles, prev_cycles + 1);
            assert_eq!(cycles, step);
            let max = w.max_wear_ratio();
            assert!(max >= prev_max, "max wear decreased at step {step}");
            prev_cycles = cycles;
            prev_max = max;
        }
        // Untouched blocks stay fresh.
        assert_eq!(w.pe_cycles(0, 0), 0);
        assert_eq!(w.pe_cycles(1, 1), 0);
        assert!((w.wear_ratio(1, 2) - 200.0 / 10_000.0).abs() < 1e-12);
    }

    #[test]
    fn refresh_driven_wear_stays_balanced() {
        // Drive wear through the FTL's pseudo-random refresh target choice
        // and check the skew stays bounded (wear leveling).
        let geom = FlashGeometry::tiny();
        let mut wear = WearModel::new(geom);
        let mut ftl = Ftl::new(geom, 11);
        for i in 0..4_000u32 {
            let plane = i % geom.total_planes();
            let block = i % geom.blocks_per_plane;
            for ev in ftl.refresh_block(plane, block) {
                wear.note_program(ev.plane, ev.new_physical);
            }
        }
        let max = wear.max_wear_ratio();
        let mean: f64 = {
            let mut sum = 0.0;
            let mut n = 0u32;
            for p in 0..geom.total_planes() {
                for b in 0..geom.blocks_per_plane {
                    sum += wear.wear_ratio(p, b);
                    n += 1;
                }
            }
            sum / f64::from(n)
        };
        assert!(
            max < mean * 4.0 + 1e-9,
            "wear skew too high: max {max} vs mean {mean}"
        );
    }
}
