//! NDSEARCH configuration.
//!
//! [`NdsConfig`] configures the simulated *device* (geometry, timing,
//! ECC, scheduling techniques, executor threads). The device parameters
//! no experiment varies — Table I's MAC lanes, the FPGA sorter, the
//! result-list format and both PCIe links — are this module's constants.
//! Serving-layer policy — admission, deadlines and the SLO scheduling of
//! [`crate::serve::SloPolicy`] — lives on [`crate::serve::ServeConfig`],
//! and workload shape (arrival models, tenant mixes) on
//! [`crate::traffic::Scenario`].

use ndsearch_flash::ecc::EccConfig;
use ndsearch_flash::geometry::FlashGeometry;
use ndsearch_flash::timing::{FlashTiming, PcieLink};
use ndsearch_graph::mapping::PlacementPolicy;
use ndsearch_graph::reorder::ReorderMethod;
use ndsearch_vector::quant::QuantSpec;

/// Which scheduling techniques are active — the knobs of the ablation
/// studies (Fig. 14/15/16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulingConfig {
    /// Static scheduling: vertex reordering method.
    pub reorder: ReorderMethod,
    /// Static scheduling: placement policy (multi-plane aware or naive).
    pub placement: PlacementPolicy,
    /// Dynamic scheduling: batch-wise dynamic allocating (§VI-B1).
    pub dynamic_allocating: bool,
    /// Dynamic scheduling: speculative searching (§VI-B2).
    pub speculative: bool,
}

impl SchedulingConfig {
    /// Everything on — the full NDSEARCH design.
    pub fn full() -> Self {
        Self {
            reorder: ReorderMethod::DegreeAscendingBfs,
            placement: PlacementPolicy::MultiPlaneAware,
            dynamic_allocating: true,
            speculative: true,
        }
    }

    /// Everything off — the "Bare" machine of Fig. 16.
    pub fn bare() -> Self {
        Self {
            reorder: ReorderMethod::Identity,
            placement: PlacementPolicy::Linear,
            dynamic_allocating: false,
            speculative: false,
        }
    }

    /// The ablation ladder of Fig. 16: Bare → re → re+mp → re+mp+da →
    /// re+mp+da+sp, with display labels.
    pub fn ablation_ladder() -> Vec<(&'static str, SchedulingConfig)> {
        let bare = Self::bare();
        let re = SchedulingConfig {
            reorder: ReorderMethod::DegreeAscendingBfs,
            ..bare
        };
        let re_mp = SchedulingConfig {
            placement: PlacementPolicy::MultiPlaneAware,
            ..re
        };
        let re_mp_da = SchedulingConfig {
            dynamic_allocating: true,
            ..re_mp
        };
        let full = SchedulingConfig {
            speculative: true,
            ..re_mp_da
        };
        vec![
            ("Bare", bare),
            ("re", re),
            ("re+mp", re_mp),
            ("re+mp+da", re_mp_da),
            ("re+mp+da+sp", full),
        ]
    }
}

impl Default for SchedulingConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// MAC groups per LUN accelerator (Table I: 2).
pub const MAC_GROUPS: u32 = 2;
/// MACs per group (Table I: 2 MACs each).
pub const MACS_PER_GROUP: u32 = 2;
/// MAC lanes per LUN accelerator: elements scored per cycle.
pub const MAC_LANES: u32 = MAC_GROUPS * MACS_PER_GROUP;
/// Parallel bitonic sorter instances on the FPGA.
pub const FPGA_SORTERS: u32 = 16;
/// FPGA clock in Hz.
pub const FPGA_CLOCK_HZ: f64 = 200e6;
/// Bytes per result-list entry (id + distance): what a LUN unit sends over
/// its channel per computed distance, and what crosses the FPGA link.
pub const RESULT_ENTRY_BYTES: u32 = 8;
/// Result-list entries per query shipped to the FPGA sorter.
pub const RESULT_LIST_ENTRIES: usize = 64;
/// Host PCIe link (queries in, top-k out): PCIe 3.0 ×16.
pub const HOST_LINK: PcieLink = PcieLink::gen3_x16();
/// Private SSD↔FPGA link for result lists: PCIe 3.0 ×4.
pub const FPGA_LINK: PcieLink = PcieLink::gen3_x4();

/// Full NDSEARCH system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NdsConfig {
    /// SiN flash array shape.
    pub geometry: FlashGeometry,
    /// NAND / internal timing parameters.
    pub timing: FlashTiming,
    /// ECC model parameters.
    pub ecc: EccConfig,
    /// Scheduling toggles.
    pub scheduling: SchedulingConfig,
    /// Batch capacity before a batch must be split into sub-batches
    /// (§VII-B "Batch size": resources bound ~4096 under the power budget).
    pub max_batch_inflight: usize,
    /// Speculative-searching budget as a multiple of the entry vertex's
    /// degree (how many second-order neighbors the Pref Unit fetches per
    /// iteration). Larger budgets raise the hit rate *and* the wasted page
    /// accesses of Fig. 15.
    pub spec_budget_factor: f64,
    /// Compressed-vector codes kept in SSD DRAM for graph traversal
    /// (per-dimension int8); `QuantSpec::None` (the default)
    /// scores full-precision rows from flash as before. When enabled,
    /// beam traversal scores DRAM-resident codes and only the final
    /// rerank candidates pay flash page reads (see
    /// [`crate::serve::ServeConfig::rerank_depth`]).
    pub quantization: QuantSpec,
    /// Threads a [`ClusterEngine`](crate::cluster::ClusterEngine) run
    /// steps its replica devices on, the calling thread included
    /// ([`crate::exec`]); `ServeEngine` and `NdsEngine` do not read it.
    /// Reports are bit-identical at any value; `1` spawns nothing.
    /// Defaults to the host's available parallelism (overridable via the
    /// `NDSEARCH_EXEC_THREADS` environment variable).
    pub exec_threads: usize,
    /// Seed of the vertex reordering and the quantizer training (ECC
    /// draws from [`EccConfig::seed`]).
    pub seed: u64,
}

impl Default for NdsConfig {
    fn default() -> Self {
        Self {
            geometry: FlashGeometry::searssd_default(),
            timing: FlashTiming::default(),
            ecc: EccConfig::default(),
            scheduling: SchedulingConfig::full(),
            max_batch_inflight: 4096,
            spec_budget_factor: 1.0,
            quantization: QuantSpec::None,
            exec_threads: crate::exec::default_threads(),
            seed: 0x6D5,
        }
    }
}

impl NdsConfig {
    /// A configuration whose geometry is scaled down *in proportion with
    /// the dataset*, preserving the ratios that drive the paper's locality
    /// and parallelism effects at simulator scale:
    ///
    /// * the channel/chip/plane/LUN **shape** (and thus the accelerator
    ///   parallelism ratios NDSEARCH : DS-cp : DS-c = 256 : 128 : 32) is
    ///   kept identical to the paper's SearSSD;
    /// * the **page size** shrinks so a page holds ~8 vectors (the paper:
    ///   16 KiB pages hold 16–128 vectors), keeping page-locality effects
    ///   meaningful;
    /// * **blocks × pages per plane** shrink so the dataset covers a large
    ///   fraction of all planes — a billion vectors fill the real device;
    ///   the scaled dataset must likewise span the scaled device, or LUN
    ///   parallelism would be an artifact of under-occupancy.
    pub fn scaled_for(n: usize, vector_bytes: usize) -> Self {
        let base = Self::default();
        let geom = scale_geometry(base.geometry, n, vector_bytes);
        Self {
            geometry: geom,
            ..base
        }
    }
}

/// Scales page size and per-plane page count to the dataset (see
/// [`NdsConfig::scaled_for`]).
fn scale_geometry(mut geom: FlashGeometry, n: usize, vector_bytes: usize) -> FlashGeometry {
    // ~8 vectors per page, power-of-two page size in [1 KiB, 16 KiB] —
    // small enough that a scaled dataset spans several pages per plane
    // (the regime where page-buffer thrashing and dynamic allocating
    // matter), large enough that reordering can co-locate neighbors.
    let want_page = (8 * vector_bytes.max(1)).next_power_of_two() as u32;
    geom.page_bytes = want_page.clamp(1024, 16 * 1024);
    let slots_per_page = (geom.page_bytes as usize / vector_bytes.max(1)).max(1);
    let pages_needed = n.div_ceil(slots_per_page) as u64;
    // Target ~2× headroom spread over all planes; at least 4 pages/plane so
    // each plane's two blocks hold two pages or more and both the block and
    // the page address take more than one value.
    let per_plane = (2 * pages_needed).div_ceil(u64::from(geom.total_planes()));
    let per_plane = (per_plane.max(4).next_power_of_two() as u32)
        .min(geom.blocks_per_plane * geom.pages_per_block);
    geom.blocks_per_plane = 2;
    geom.pages_per_block = (per_plane / geom.blocks_per_plane).max(2);
    geom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_searssd() {
        let c = NdsConfig::default();
        assert_eq!(c.geometry.total_luns(), 256);
        assert_eq!(MAC_LANES, 4);
        assert_eq!(c.max_batch_inflight, 4096);
    }

    #[test]
    fn ablation_ladder_is_monotone_in_features() {
        let ladder = SchedulingConfig::ablation_ladder();
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0].1, SchedulingConfig::bare());
        assert_eq!(ladder[4].1, SchedulingConfig::full());
        assert!(!ladder[2].1.dynamic_allocating);
        assert!(ladder[3].1.dynamic_allocating && !ladder[3].1.speculative);
    }

    #[test]
    fn scaled_geometry_fits_dataset_with_headroom() {
        let c = NdsConfig::scaled_for(20_000, 512);
        let footprint = 20_000u64 * 512;
        let cap = c.geometry.total_capacity_bytes();
        assert!(
            cap >= footprint,
            "capacity {cap} below footprint {footprint}"
        );
        assert!(
            cap <= footprint * 8,
            "capacity {cap} should be within 8x of footprint {footprint}"
        );
        // Shape preserved.
        assert_eq!(c.geometry.total_luns(), 256);
        c.geometry.validate().unwrap();
    }

    #[test]
    fn scaled_geometry_handles_tiny_datasets() {
        let c = NdsConfig::scaled_for(100, 128);
        c.geometry.validate().unwrap();
        assert!(c.geometry.total_capacity_bytes() >= 100 * 128);
    }
}
