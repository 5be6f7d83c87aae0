//! DeepStore-style in-storage accelerator models (Mailthody et al.,
//! MICRO'19), at channel (DS-c) and chip (DS-cp) granularity.
//!
//! DeepStore puts accelerators *inside* the SSD but *outside* the NAND
//! dies. Consequences the model captures (§III / §VII-B):
//!
//! * every page consumed by an accelerator must leave the flash chip —
//!   paying the ~30 µs page-buffer→external move, plus (for the
//!   channel-level DS-c) the 16 KiB channel-bus transfer;
//! * only one LUN of a chip can drive the shared bus at a time, so page
//!   sense (tR) overlaps across LUNs but data-out serializes per
//!   accelerator;
//! * parallelism is bounded by the accelerator count: 32 channels (DS-c)
//!   or 128 chips (DS-cp) versus NDSEARCH's 256 LUNs.
//!
//! Following the paper's ablation note ("we actually implement dynamic
//! allocating on DS-cp to maximize its hardware utilization"), both
//! DeepStore variants amortize a loaded page across the queries queued at
//! the accelerator — their request queues naturally provide that reuse,
//! and without it the models degenerate at simulator scale. Neither
//! benefits from NDSEARCH's reordering (the DeepStore layout is
//! construction order) nor from multi-plane sensing.

use std::collections::{BTreeMap, HashSet};

use ndsearch_core::config::{NdsConfig, SchedulingConfig, HOST_LINK};
use ndsearch_core::pipeline::Prepared;
use ndsearch_flash::timing::Nanos;
use ndsearch_graph::mapping::PlacementPolicy;
use ndsearch_graph::reorder::ReorderMethod;

use crate::platform::{Platform, PlatformReport, Scenario};

/// Where DeepStore's accelerators sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceleratorLevel {
    /// DS-c: one accelerator per channel.
    Channel,
    /// DS-cp: one accelerator per flash chip.
    Chip,
}

/// The DeepStore platform model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepStorePlatform {
    /// Accelerator granularity.
    pub level: AcceleratorLevel,
    /// Per-query host sort cost (results return to the host).
    pub t_sort_per_query_ns: u64,
    /// Wall-plug power, watts.
    pub power_w: f64,
}

impl DeepStorePlatform {
    /// DS-c: channel-level accelerators.
    pub fn channel_level() -> Self {
        Self {
            level: AcceleratorLevel::Channel,
            t_sort_per_query_ns: 1_000,
            power_w: 55.0,
        }
    }

    /// DS-cp: chip-level accelerators (the stronger baseline in Fig. 13).
    pub fn chip_level() -> Self {
        Self {
            level: AcceleratorLevel::Chip,
            t_sort_per_query_ns: 1_000,
            power_w: 46.0,
        }
    }

    fn has_dynamic_allocating(&self) -> bool {
        true
    }

    /// Accelerator units available.
    /// Accelerator units available (32 channels for DS-c, 128 chips for
    /// DS-cp under the paper's geometry).
    pub fn units(&self, config: &NdsConfig) -> u32 {
        match self.level {
            AcceleratorLevel::Channel => config.geometry.channels,
            AcceleratorLevel::Chip => config.geometry.total_chips(),
        }
    }

    /// Effective pipelined cost of consuming one page at this granularity.
    fn per_page_ns(&self, config: &NdsConfig) -> Nanos {
        let t = &config.timing;
        let luns_served = match self.level {
            AcceleratorLevel::Channel => {
                config.geometry.chips_per_channel * config.geometry.luns_per_chip()
            }
            AcceleratorLevel::Chip => config.geometry.luns_per_chip(),
        };
        // Sense overlaps across the LUNs the unit serves; the buffer move
        // (and for DS-c the channel-bus page transfer) serializes.
        let sense = t.t_read_page_ns / u64::from(luns_served.max(1));
        let move_out = match self.level {
            AcceleratorLevel::Channel => {
                t.t_buffer_to_external_ns
                    + t.channel_transfer_ns(u64::from(config.geometry.page_bytes))
            }
            AcceleratorLevel::Chip => t.t_buffer_to_external_ns,
        };
        sense.max(move_out)
    }
}

impl Platform for DeepStorePlatform {
    fn name(&self) -> String {
        match self.level {
            AcceleratorLevel::Channel => "DS-c".to_string(),
            AcceleratorLevel::Chip => "DS-cp".to_string(),
        }
    }

    fn report(&self, scenario: &Scenario<'_>) -> PlatformReport {
        let config = scenario.config;
        // DeepStore keeps the construction-order layout.
        let ds_config = NdsConfig {
            scheduling: SchedulingConfig {
                reorder: ReorderMethod::Identity,
                placement: PlacementPolicy::Linear,
                dynamic_allocating: self.has_dynamic_allocating(),
                speculative: false,
            },
            ..config.clone()
        };
        let prepared = Prepared::stage(&ds_config, scenario.graph, scenario.base, scenario.trace);
        let luncsr = &prepared.luncsr;
        let geom = &ds_config.geometry;
        let timing = &ds_config.timing;
        let per_page = self.per_page_ns(&ds_config);
        let dynamic = self.has_dynamic_allocating();

        let max_iters = prepared.trace.max_iterations();
        let mut total: Nanos = 0;
        let mut io_ns: Nanos = 0;
        let mut compute_ns: Nanos = 0;
        let mut io_bytes = 0u64;

        for r in 0..max_iters {
            // Page loads per accelerator unit this round.
            let mut unit_pages: BTreeMap<(u32, u32), HashSet<u64>> = BTreeMap::new();
            let mut active = 0u64;
            for (qi, t) in prepared.trace.queries.iter().enumerate() {
                let Some(it) = t.iterations.get(r) else {
                    continue;
                };
                active += 1;
                for &v in &it.visited {
                    let addr = luncsr.physical_addr(v);
                    let unit = match self.level {
                        AcceleratorLevel::Channel => geom.lun_channel(addr.lun),
                        AcceleratorLevel::Chip => geom.lun_chip(addr.lun),
                    };
                    let qkey = if dynamic { u32::MAX } else { qi as u32 };
                    unit_pages
                        .entry((unit, qkey))
                        .or_default()
                        .insert(addr.page_key(geom));
                }
            }
            if active == 0 {
                continue;
            }
            // Each unit's loads serialize; units run in parallel. The unit
            // pipeline (sense → move-out → compute) still pays the first
            // page's full sense latency before steady state.
            let mut per_unit: BTreeMap<u32, u64> = BTreeMap::new();
            for ((unit, _), pages) in &unit_pages {
                *per_unit.entry(*unit).or_default() += pages.len() as u64;
                io_bytes += pages.len() as u64 * u64::from(geom.page_bytes);
            }
            let max_loads = per_unit.values().copied().max().unwrap_or(0);
            let fill = if max_loads > 0 {
                timing.t_read_page_ns
            } else {
                0
            };
            let searching = fill + max_loads * per_page;
            // Embedded-core gathering, as on SearSSD.
            let gathering =
                active * timing.t_embedded_op_ns + timing.dram_transfer_ns(active * 256);
            io_ns += searching;
            compute_ns += gathering;
            total += searching + gathering;
        }

        // Results return to the host for sorting.
        let nq = scenario.batch() as u64;
        let result_bytes = nq * 64 * 8;
        let t_results = HOST_LINK.transfer_ns(result_bytes);
        let sort_ns = nq * self.t_sort_per_query_ns + t_results;
        total += sort_ns;

        PlatformReport {
            name: self.name(),
            queries: scenario.batch(),
            total_ns: total,
            io_ns,
            compute_ns,
            sort_ns,
            io_bytes,
            power_w: self.power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_anns::hnsw::{Hnsw, HnswParams};
    use ndsearch_anns::index::{GraphAnnsIndex, SearchParams};
    use ndsearch_vector::synthetic::{BenchmarkId, DatasetSpec};

    fn fixture() -> (
        ndsearch_vector::Dataset,
        ndsearch_graph::Csr,
        ndsearch_anns::trace::BatchTrace,
        NdsConfig,
    ) {
        let (base, queries) = DatasetSpec::sift_scaled(800, 64).build_pair();
        let index = Hnsw::build(&base, HnswParams::default());
        let out = index.search_batch(&base, &queries, &SearchParams::default());
        let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        (base, index.base_graph().clone(), out.trace, config)
    }

    #[test]
    fn chip_level_beats_channel_level() {
        let (base, graph, trace, config) = fixture();
        let s = Scenario {
            benchmark: BenchmarkId::Sift1B,
            base: &base,
            graph: &graph,
            trace: &trace,
            config: &config,
            k: 10,
        };
        let dsc = DeepStorePlatform::channel_level().report(&s);
        let dscp = DeepStorePlatform::chip_level().report(&s);
        assert!(
            dscp.total_ns < dsc.total_ns,
            "DS-cp {} should beat DS-c {} (Fig. 13)",
            dscp.total_ns,
            dsc.total_ns
        );
    }

    #[test]
    fn ndsearch_beats_dscp() {
        let (base, graph, trace, config) = fixture();
        let s = Scenario {
            benchmark: BenchmarkId::Sift1B,
            base: &base,
            graph: &graph,
            trace: &trace,
            config: &config,
            k: 10,
        };
        let dscp = DeepStorePlatform::chip_level().report(&s);
        let prepared = Prepared::stage(&config, &graph, &base, &trace);
        let nds = ndsearch_core::NdsEngine::new(&config).run(&prepared);
        let ratio = dscp.total_ns as f64 / nds.total_ns as f64;
        assert!(
            ratio > 1.2,
            "NDSEARCH should clearly beat DS-cp, ratio = {ratio}"
        );
    }

    #[test]
    fn per_page_cost_is_higher_for_channel_level() {
        let (_, _, _, config) = fixture();
        let dsc = DeepStorePlatform::channel_level();
        let dscp = DeepStorePlatform::chip_level();
        assert!(dsc.per_page_ns(&config) > dscp.per_page_ns(&config));
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(DeepStorePlatform::channel_level().name(), "DS-c");
        assert_eq!(DeepStorePlatform::chip_level().name(), "DS-cp");
    }
}
