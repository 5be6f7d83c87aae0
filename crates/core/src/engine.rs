//! The NDP processing model of Algorithm 1, executed event-synchronously.
//!
//! Each engine round is one search iteration for every still-active query
//! in the batch:
//!
//! 1. **Allocating** — the Vgenerator fetches each active query's entry
//!    vertex neighbor/LUN lists, and the Allocator dispatches (query,
//!    neighbor) pairs per LUN with direct LUNCSR address generation. With
//!    dynamic scheduling enabled, this stage is overlapped with the
//!    previous round's Searching + Gathering (Fig. 12), so only its
//!    *overhang* lands on the critical path.
//! 2. **Searching** — every LUN accelerator processes its work in parallel
//!    (`sin::SinRound`); the round's searching latency is
//!    the slowest LUN plus the busiest channel's data-out serialization.
//!    With speculative searching on, the prefetched second-order neighbors
//!    of the previous round have already been computed off the critical
//!    path, shrinking this round's work (hits) at the price of extra page
//!    accesses (misses).
//! 3. **Gathering** — the Apply operator updates the query property table
//!    (embedded cores + DRAM traffic).
//! 4. **Sorting** — once every query terminates, result lists stream over
//!    the private PCIe ×4 link to the FPGA bitonic sorter and top-k goes
//!    back to the host.

use ndsearch_anns::beam::VisitedSet;
use ndsearch_anns::trace::QueryTrace;
use ndsearch_flash::ecc::EccEngine;
use ndsearch_flash::geometry::LunId;
use ndsearch_flash::stats::FlashStats;
use ndsearch_flash::timing::{ceil_ns, Nanos};
use ndsearch_graph::luncsr::LunCsr;
use ndsearch_vector::VectorId;

use crate::alloc::Allocator;
use crate::config::{
    NdsConfig, FPGA_CLOCK_HZ, FPGA_LINK, FPGA_SORTERS, HOST_LINK, RESULT_ENTRY_BYTES,
    RESULT_LIST_ENTRIES,
};
use crate::pipeline::Prepared;
use crate::qpt::QueryPropertyTable;
use crate::report::{LatencyBreakdown, NdsReport};
use crate::sin::{self, RoundFlash, SinReport, SinRound};
use crate::speculative::{select_prefetch, PrefetchScratch, SpeculationStats};
use crate::vgen::Vgenerator;

/// Distinct LUNs touched so far (LUN-coverage reporting): a bit per LUN
/// and a running count.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LunCoverage {
    touched: Vec<u64>,
    count: u32,
}

impl LunCoverage {
    /// Adds the LUNs whose bits are set in `luns`, one bit per LUN.
    pub fn cover(&mut self, luns: &[u64]) {
        if self.touched.len() < luns.len() {
            self.touched.resize(luns.len(), 0);
        }
        for (seen, &new) in self.touched.iter_mut().zip(luns) {
            self.count += (new & !*seen).count_ones();
            *seen |= new;
        }
    }

    /// The touched share of a device with `total_luns` LUNs.
    pub fn ratio(&self, total_luns: u32) -> f64 {
        f64::from(self.count) / f64::from(total_luns)
    }
}

/// The engine-wide mutable accumulators a round's flash work commits
/// into.
pub(crate) struct RoundSinks<'a> {
    /// Engine-wide ECC state (failure-stream cursors advance per round).
    pub ecc: &'a mut EccEngine,
    /// Engine-wide flash statistics.
    pub stats: &'a mut FlashStats,
    /// Distinct LUNs touched so far.
    pub luns_touched: &'a mut LunCoverage,
}

impl RoundSinks<'_> {
    /// Finishes `round` into the sinks: each plane's decodes drawn from
    /// and committed to the engine's ECC cursors, the statistics and the
    /// LUN coverage folded in; `each` sees every LUN's report and channel
    /// time in ascending LUN order.
    pub fn finish(
        self,
        round: &mut SinRound,
        config: &NdsConfig,
        each: impl FnMut(LunId, &SinReport, Nanos),
    ) -> RoundFlash {
        let Self {
            ecc,
            stats,
            luns_touched,
        } = self;
        luns_touched.cover(round.touched());
        let flash = round.finish(config, |plane, pages| ecc.decode_pages(plane, pages), each);
        stats.merge(&flash.stats);
        flash
    }
}

/// Latency contributions of one Allocating → Searching → Gathering round.
///
/// `allocating_ns` is the *raw* stage latency; whether it lands on the
/// critical path (or is hidden behind the previous round's shadow under
/// dynamic allocating) is the caller's decision, because the batch engine
/// and the serving scheduler overlap rounds differently.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RoundOutcome {
    /// Vgenerator + Allocator latency (pre-overlap).
    pub allocating_ns: Nanos,
    /// Slowest LUN busy time + busiest channel data-out.
    pub searching_ns: Nanos,
    /// QPT update traffic + embedded-core bookkeeping.
    pub gathering_ns: Nanos,
    /// Busiest channel data-out (the `bus` breakdown bucket).
    pub bus_ns: Nanos,
    /// Gathering DRAM traffic.
    pub dram_ns: Nanos,
    /// Gathering embedded-core time.
    pub embedded_ns: Nanos,
    /// Slowest LUN: NAND sensing.
    pub nand_read_ns: Nanos,
    /// Slowest LUN: ECC decode.
    pub ecc_ns: Nanos,
    /// Slowest LUN: page-buffer streaming + MAC compute.
    pub compute_ns: Nanos,
}

impl RoundOutcome {
    /// Folds this round into the latency breakdown and the
    /// dynamic-allocating shadow, returning the round's critical-path
    /// time. With `overlap` set, the Allocating stage hides behind the
    /// previous round's Searching+Gathering shadow (§VI-B1) and only its
    /// overhang lands on the path; `prev_shadow` is updated to this
    /// round's shadow either way.
    pub fn apply(
        &self,
        breakdown: &mut LatencyBreakdown,
        prev_shadow: &mut Nanos,
        overlap: bool,
    ) -> Nanos {
        let alloc_on_path = if overlap {
            self.allocating_ns.saturating_sub(*prev_shadow)
        } else {
            self.allocating_ns
        };
        *prev_shadow = self.searching_ns + self.gathering_ns;
        breakdown.allocating_ns += alloc_on_path;
        breakdown.bus_ns += self.bus_ns;
        breakdown.dram_ns += self.dram_ns;
        breakdown.embedded_ns += self.embedded_ns;
        // Decompose the slowest LUN's busy time.
        breakdown.nand_read_ns += self.nand_read_ns;
        breakdown.ecc_ns += self.ecc_ns;
        breakdown.compute_ns += self.compute_ns;
        alloc_on_path + self.searching_ns + self.gathering_ns
    }
}

/// Executes one engine round — the Allocating, Searching and Gathering
/// stages of Algorithm 1 — for `entries` = the unvisited neighbors of
/// each active query's entry vertex, against the staged LUNCSR, plus
/// `free_gathers` Gathering-only entries (hops whose distances an entry
/// of this round already computed).
///
/// This is the hot path shared by the run-to-completion batch engine
/// ([`NdsEngine`]) and the interleaved multi-query scheduler
/// ([`crate::serve::ServeEngine`]). The Vgenerator and Allocator passes
/// fuse into one stream of tasks into the thread's [`SinRound`]; the
/// Searching stage settles it LUN by LUN in ascending order.
pub(crate) fn execute_round<'e>(
    config: &NdsConfig,
    luncsr: &LunCsr,
    qpt: &QueryPropertyTable,
    entries: impl Iterator<Item = &'e [VectorId]>,
    free_gathers: usize,
    sinks: RoundSinks<'_>,
) -> RoundOutcome {
    let timing = &config.timing;
    sin::with_round(luncsr, config, |round| {
        // ---- Allocating stage: the Vgenerator's (query, neighbor)
        // stream, each task resolved to its physical address. ----
        let (mut active, mut tasks) = (0usize, 0usize);
        for neighbors in entries {
            active += 1;
            tasks += neighbors.len();
            for &nb in neighbors {
                round.push(luncsr, nb, false);
            }
        }
        let allocating_ns = Vgenerator::latency_ns(timing, active, tasks as u64)
            + Allocator::latency_ns(timing, tasks);

        // ---- Searching stage: all LUN accelerators in parallel on the
        // simulated clock (the round charges the slowest LUN plus the
        // busiest channel's data-out). ----
        let flash = sinks.finish(round, config, |_, _, _| {});
        let slowest = &flash.slowest;

        // ---- Gathering stage. ----
        let gathered = active + free_gathers;
        let g_dram = timing.dram_transfer_ns(qpt.gather_traffic_bytes(gathered, tasks as u64));
        let g_emb = gathered as u64 * timing.t_embedded_op_ns;

        RoundOutcome {
            allocating_ns,
            searching_ns: slowest.busy_ns + flash.bus_ns,
            gathering_ns: g_dram + g_emb,
            bus_ns: flash.bus_ns,
            dram_ns: g_dram,
            embedded_ns: g_emb,
            nand_read_ns: slowest.sense_ns,
            ecc_ns: slowest.ecc_ns,
            compute_ns: slowest.compute_ns,
        }
    })
}

/// Sorting-stage cost for shipping `nq` result lists to the FPGA sorter
/// and the top-k back to the host (§V, shared by the batch engine's batch
/// tail and the serving engine's per-query completion tail).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SortingTail {
    /// Result lists over the private SSD↔FPGA link.
    pub fpga_ns: Nanos,
    /// Bitonic sorting waves on the FPGA.
    pub sort_ns: Nanos,
    /// Top-k back over the host link.
    pub out_ns: Nanos,
    /// PCIe bytes moved (result lists + top-k out).
    pub pcie_bytes: u64,
}

impl SortingTail {
    /// Total tail latency.
    pub fn total_ns(&self) -> Nanos {
        self.fpga_ns + self.sort_ns + self.out_ns
    }
}

/// Computes the Sorting-stage tail for `nq` queries returning `k` results
/// each: result lists cross the FPGA link, sort in
/// `ceil(nq / sorters)` bitonic waves, and `k` (id, distance) pairs per
/// query return over the host link.
pub(crate) fn sorting_tail(nq: u64, k: usize) -> SortingTail {
    let list_bytes = nq * RESULT_LIST_ENTRIES as u64 * u64::from(RESULT_ENTRY_BYTES);
    let fpga_ns = FPGA_LINK.transfer_ns(list_bytes);
    let stages = bitonic_stages(RESULT_LIST_ENTRIES);
    let period_ns = ceil_ns(1e9 / FPGA_CLOCK_HZ);
    let waves = nq.div_ceil(u64::from(FPGA_SORTERS));
    let sort_ns = waves * u64::from(stages) * period_ns;
    let out_bytes = nq * k as u64 * 8;
    let out_ns = HOST_LINK.transfer_ns(out_bytes);
    SortingTail {
        fpga_ns,
        sort_ns,
        out_ns,
        pcie_bytes: list_bytes + out_bytes,
    }
}

/// Comparator stages of a bitonic network over `lanes` inputs, padded to
/// n = 2^p lanes: p(p+1)/2 (§IV-A: the FPGA sorter's latency is stages ×
/// clock, whatever the data).
fn bitonic_stages(lanes: usize) -> u32 {
    let p = lanes.next_power_of_two().trailing_zeros();
    p * (p + 1) / 2
}

/// The NDSEARCH batch engine.
#[derive(Debug, Clone)]
pub struct NdsEngine<'a> {
    config: &'a NdsConfig,
}

impl<'a> NdsEngine<'a> {
    /// Creates an engine over a configuration.
    pub fn new(config: &'a NdsConfig) -> Self {
        Self { config }
    }

    /// Simulates a full batch (splitting into sub-batches when it exceeds
    /// the resource cap, §VII-B "Batch size") and returns the merged
    /// report.
    pub fn run(&self, prepared: &Prepared) -> NdsReport {
        // A zero cap means "no batching resources": clamp once, here, to
        // the smallest legal sub-batch.
        let cap = self.config.max_batch_inflight.max(1);
        let queries = &prepared.trace.queries;
        let mut merged = NdsReport {
            queries: queries.len(),
            ..NdsReport::default()
        };
        let mut luns_touched = LunCoverage::default();
        let mut sub_batches = 0;
        for chunk in queries.chunks(cap) {
            sub_batches += 1;
            let sub = self.run_sub(prepared, chunk, &mut luns_touched);
            merged.total_ns += sub.total_ns;
            merged.trace_len += sub.trace_len;
            merged.breakdown.merge(&sub.breakdown);
            merged.stats.merge(&sub.stats);
            merged.speculation.hits += sub.speculation.hits;
            merged.speculation.misses += sub.speculation.misses;
            merged.iterations += sub.iterations;
        }
        if queries.is_empty() {
            sub_batches = 0;
        }
        merged.sub_batches = sub_batches;
        merged.lun_coverage = luns_touched.ratio(self.config.geometry.total_luns());
        merged
    }

    fn run_sub(
        &self,
        prepared: &Prepared,
        traces: &[QueryTrace],
        luns_touched: &mut LunCoverage,
    ) -> NdsReport {
        let config = self.config;
        let luncsr = &prepared.luncsr;
        let nq = traces.len();
        let max_iters = traces.iter().map(|t| t.iterations.len()).max().unwrap_or(0);

        let mut stats = FlashStats::new();
        let mut breakdown = LatencyBreakdown::default();
        let mut speculation = SpeculationStats::default();
        let mut ecc = EccEngine::new(&config.geometry, config.ecc);
        let mut total: Nanos = 0;

        // Host → SSD: query vectors + descriptors over PCIe.
        let in_bytes = nq as u64 * (prepared.vector_bytes as u64 + 16);
        let t_in = HOST_LINK.transfer_ns(in_bytes);
        stats.pcie_bytes += in_bytes;
        breakdown.pcie_ns += t_in;
        total += t_in;

        let qpt = QueryPropertyTable::new(nq, prepared.vector_bytes, RESULT_LIST_ENTRIES);
        // Per query: last round's prefetch picks. Membership tests go
        // through one dense stamped set shared by all queries.
        let speculative = config.scheduling.speculative;
        let mut prefetched: Vec<Vec<VectorId>> = vec![Vec::new(); nq];
        let mut prefetch_marks = VisitedSet::new(luncsr.num_vertices());
        let mut prefetch_scratch = PrefetchScratch::default();
        // This round's work: every active query's unprefetched visits in
        // one flat buffer, cut by `(start, end)` spans.
        let mut kept: Vec<VectorId> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(nq);
        let mut prev_shadow: Nanos = 0; // searching+gathering of previous round

        for r in 0..max_iters {
            // ---- Collect this round's work from the traces. ----
            kept.clear();
            spans.clear();
            for (qi, t) in traces.iter().enumerate() {
                let Some(it) = t.iterations.get(r) else {
                    continue;
                };
                let start = kept.len();
                if speculative {
                    prefetch_marks.clear();
                    for &v in &prefetched[qi] {
                        prefetch_marks.insert(v);
                    }
                }
                for &v in &it.visited {
                    if speculative && prefetch_marks.remove(v) {
                        speculation.hits += 1; // distance already computed
                    } else {
                        kept.push(v);
                    }
                }
                // Anything left prefetched from last round was wasted.
                if speculative {
                    let hits = (it.visited.len() - (kept.len() - start)) as u64;
                    speculation.misses += prefetched[qi].len() as u64 - hits;
                    prefetched[qi].clear();
                }
                spans.push((start, kept.len()));
            }
            if spans.is_empty() {
                continue;
            }

            // ---- Allocating + Searching + Gathering (the shared round
            // executor, also driven per-hop by `crate::serve`). ----
            let round = execute_round(
                config,
                luncsr,
                &qpt,
                spans.iter().map(|&(start, end)| &kept[start..end]),
                0,
                RoundSinks {
                    ecc: &mut ecc,
                    stats: &mut stats,
                    luns_touched,
                },
            );

            // ---- Speculative prefetch for the next round, streamed into
            // a round of its own. What a query has visited so far — which
            // the Pref Unit reads from the query property table to avoid
            // guaranteed-miss prefetches — is its trace up to this round.
            // The work executes off the critical path but consumes pages
            // and MACs (visible in the statistics); it commits after the
            // main round, so the per-plane ECC streams stay in program
            // order. ----
            if speculative && r + 1 < max_iters {
                sin::with_round(luncsr, config, |round| {
                    for (qi, t) in traces.iter().enumerate() {
                        if t.iterations.len() <= r + 1 {
                            continue;
                        }
                        let entry = t.iterations[r].entry;
                        let budget = (luncsr.neighbors(entry).len() as f64
                            * config.spec_budget_factor)
                            .round() as usize;
                        let seen = &t.iterations[..=r];
                        let picks =
                            select_prefetch(luncsr, entry, budget, seen, &mut prefetch_scratch);
                        for &v in picks {
                            round.push(luncsr, v, true);
                        }
                        prefetched[qi].extend_from_slice(picks);
                    }
                    let sinks = RoundSinks {
                        ecc: &mut ecc,
                        stats: &mut stats,
                        luns_touched,
                    };
                    sinks.finish(round, config, |_, _, _| {});
                });
            }

            // ---- Compose the round's critical path and attribute it to
            // the breakdown buckets. ----
            let overlap = config.scheduling.dynamic_allocating && r > 0;
            total += round.apply(&mut breakdown, &mut prev_shadow, overlap);
        }

        // ---- Sorting stage: SSD → FPGA → host (top-10 returned). ----
        let tail = sorting_tail(nq as u64, 10);
        stats.pcie_bytes += tail.pcie_bytes;
        breakdown.bitonic_ns += tail.sort_ns;
        breakdown.pcie_ns += tail.fpga_ns + tail.out_ns;
        total += tail.total_ns();

        NdsReport {
            queries: nq,
            trace_len: traces.iter().map(|t| t.len() as u64).sum(),
            total_ns: total,
            breakdown,
            stats,
            speculation,
            lun_coverage: 0.0, // filled by `run`
            iterations: max_iters,
            sub_batches: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulingConfig;
    use ndsearch_anns::hnsw::{Hnsw, HnswParams};
    use ndsearch_anns::index::{GraphAnnsIndex, SearchParams};
    use ndsearch_anns::trace::BatchTrace;
    use ndsearch_vector::synthetic::DatasetSpec;

    fn fixture() -> (ndsearch_vector::Dataset, ndsearch_graph::Csr, BatchTrace) {
        let (base, queries) = DatasetSpec::sift_scaled(600, 32).build_pair();
        let index = Hnsw::build(&base, HnswParams::default());
        let out = index.search_batch(&base, &queries, &SearchParams::default());
        (base, index.base_graph().clone(), out.trace)
    }

    fn run_with(
        sched: SchedulingConfig,
        base: &ndsearch_vector::Dataset,
        graph: &ndsearch_graph::Csr,
        trace: &BatchTrace,
    ) -> NdsReport {
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.scheduling = sched;
        config.ecc.hard_decision_failure_prob = 0.0;
        let prepared = Prepared::stage(&config, graph, base, trace);
        NdsEngine::new(&config).run(&prepared)
    }

    #[test]
    fn engine_produces_consistent_report() {
        let (base, graph, trace) = fixture();
        let r = run_with(SchedulingConfig::full(), &base, &graph, &trace);
        assert_eq!(r.queries, 32);
        assert!(r.total_ns > 0);
        assert!(r.qps() > 0.0);
        assert_eq!(r.trace_len, trace.total_visited());
        assert!(r.stats.page_reads > 0);
        assert!(r.iterations > 0);
        assert!(r.lun_coverage > 0.0 && r.lun_coverage <= 1.0);
        // Breakdown accounts for the whole critical path exactly.
        assert_eq!(r.breakdown.total_ns(), r.total_ns);
    }

    #[test]
    fn simulated_report_is_pinned_across_the_ladder() {
        // Speculation hits / misses, the critical path and the page reads
        // of every rung: a change to the prefetch pick or the round loop
        // that moves any simulated number fails here.
        let (base, graph, trace) = fixture();
        let mut rungs = vec![("full", SchedulingConfig::full())];
        rungs.extend(SchedulingConfig::ablation_ladder());
        let pinned: [(u64, u64, Nanos, u64); 6] = [
            (2_221, 40_861, 2_843_504, 5_802),
            (0, 0, 2_965_660, 3_153),
            (0, 0, 2_987_210, 2_573),
            (0, 0, 2_980_470, 2_573),
            (0, 0, 2_859_282, 2_573),
            (2_221, 40_861, 2_843_504, 5_802),
        ];
        for ((name, sched), want) in rungs.into_iter().zip(pinned) {
            let r = run_with(sched, &base, &graph, &trace);
            let got = (
                r.speculation.hits,
                r.speculation.misses,
                r.total_ns,
                r.stats.page_reads,
            );
            assert_eq!(got, want, "{name}: (hits, misses, total_ns, page_reads)");
        }
    }

    #[test]
    fn dynamic_allocating_reduces_page_reads_and_time() {
        // Use the dense `tiny` geometry so planes hold several hot pages
        // and cross-query interleaving actually thrashes the page buffers
        // without dynamic allocating.
        let (base, graph, trace) = fixture();
        let run_tiny = |sched: SchedulingConfig| {
            let mut config = NdsConfig {
                geometry: ndsearch_flash::geometry::FlashGeometry::tiny(),
                scheduling: sched,
                ..NdsConfig::default()
            };
            config.ecc.hard_decision_failure_prob = 0.0;
            let prepared = Prepared::stage(&config, &graph, &base, &trace);
            NdsEngine::new(&config).run(&prepared)
        };
        let mut without = SchedulingConfig::full();
        without.dynamic_allocating = false;
        without.speculative = false;
        let mut with_da = without;
        with_da.dynamic_allocating = true;
        let a = run_tiny(without);
        let b = run_tiny(with_da);
        assert!(
            b.stats.page_reads < a.stats.page_reads,
            "da should dedup page loads: {} vs {}",
            b.stats.page_reads,
            a.stats.page_reads
        );
        assert!(b.total_ns < a.total_ns, "da should be faster");
    }

    #[test]
    fn speculation_adds_page_reads_but_not_latency() {
        let (base, graph, trace) = fixture();
        let mut da_only = SchedulingConfig::full();
        da_only.speculative = false;
        let a = run_with(da_only, &base, &graph, &trace);
        let b = run_with(SchedulingConfig::full(), &base, &graph, &trace);
        assert!(
            b.stats.page_reads > a.stats.page_reads,
            "speculation must cost extra page accesses"
        );
        assert!(b.total_ns <= a.total_ns, "speculation must not slow down");
        assert!(b.speculation.hits > 0, "some prefetches should hit");
        assert!(b.speculation.misses > 0, "not all prefetches hit");
    }

    #[test]
    fn reordering_improves_page_access_ratio() {
        let (base, graph, trace) = fixture();
        let bare = run_with(SchedulingConfig::bare(), &base, &graph, &trace);
        let mut re = SchedulingConfig::bare();
        re.reorder = ndsearch_graph::reorder::ReorderMethod::DegreeAscendingBfs;
        re.placement = ndsearch_graph::mapping::PlacementPolicy::MultiPlaneAware;
        let ours = run_with(re, &base, &graph, &trace);
        assert!(
            ours.page_access_ratio() <= bare.page_access_ratio(),
            "reordering should not worsen locality: {} vs {}",
            ours.page_access_ratio(),
            bare.page_access_ratio()
        );
    }

    #[test]
    fn determinism() {
        let (base, graph, trace) = fixture();
        let a = run_with(SchedulingConfig::full(), &base, &graph, &trace);
        let b = run_with(SchedulingConfig::full(), &base, &graph, &trace);
        assert_eq!(a, b);
        // With fault injection on too: the counter-indexed ECC streams
        // draw the same decisions on every run.
        let faulty = || {
            let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
            config.scheduling = SchedulingConfig::full();
            config.ecc.hard_decision_failure_prob = 0.05;
            let prepared = Prepared::stage(&config, &graph, &base, &trace);
            NdsEngine::new(&config).run(&prepared)
        };
        let a = faulty();
        assert_eq!(a, faulty());
        // Pinned: the speculative round's decodes follow the main
        // round's on each plane's stream, so committing them first moves
        // these figures.
        let got = (a.stats.ecc_soft_fallbacks, a.total_ns, a.stats.page_reads);
        assert_eq!(
            got,
            (317, 3_295_264, 5_802),
            "(soft fallbacks, total_ns, page_reads)"
        );
    }

    #[test]
    fn zero_max_batch_inflight_clamps_to_one_query_sub_batches() {
        let (base, graph, trace) = fixture();
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.max_batch_inflight = 0;
        config.ecc.hard_decision_failure_prob = 0.0;
        let prepared = Prepared::stage(&config, &graph, &base, &trace);
        let r = NdsEngine::new(&config).run(&prepared);
        // The cap clamps to 1, so every query becomes its own sub-batch —
        // and the degenerate config must behave exactly like cap = 1.
        assert_eq!(r.sub_batches, 32);
        assert_eq!(r.queries, 32);
        assert!(r.total_ns > 0);
        config.max_batch_inflight = 1;
        let one = NdsEngine::new(&config).run(&prepared);
        assert_eq!(r, one);
    }

    #[test]
    fn sub_batch_splitting_kicks_in() {
        let (base, graph, trace) = fixture();
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.max_batch_inflight = 10;
        config.ecc.hard_decision_failure_prob = 0.0;
        let prepared = Prepared::stage(&config, &graph, &base, &trace);
        let r = NdsEngine::new(&config).run(&prepared);
        assert_eq!(r.sub_batches, 4); // 32 queries / 10
    }

    #[test]
    fn sorting_tail_by_hand() {
        // Each query ships 64 entries × 8 B = 512 B over the FPGA link
        // (3.85 GB/s + 1 µs); the sorters take 16 queries a wave, each
        // wave 21 stages (64 lanes: p = 6, 6·7/2) × 5 ns (200 MHz); top-10
        // × 8 B = 80 B per query returns over the host link (15.4 GB/s
        // + 1 µs). Link times round up to whole nanoseconds.
        let one = sorting_tail(1, 10);
        assert_eq!(one.fpga_ns, 1_000 + 133); // 512 B / 3.85 = 132.99 ns
        assert_eq!(one.sort_ns, 21 * 5); // ⌈1/16⌉ = 1 wave
        assert_eq!(one.out_ns, 1_000 + 6); // 80 B / 15.4 = 5.19 ns
        assert_eq!(one.pcie_bytes, 512 + 80);
        assert_eq!(one.total_ns(), 1_133 + 105 + 1_006);

        let batch = sorting_tail(4_096, 10);
        assert_eq!(batch.fpga_ns, 1_000 + 544_715); // 2 097 152 B / 3.85
        assert_eq!(batch.sort_ns, 256 * 21 * 5); // ⌈4096/16⌉ = 256 waves
        assert_eq!(batch.out_ns, 1_000 + 21_278); // 327 680 B / 15.4
        assert_eq!(batch.pcie_bytes, 4_096 * 512 + 4_096 * 80);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (base, graph, _) = fixture();
        let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        let prepared = Prepared::stage(&config, &graph, &base, &BatchTrace::default());
        let r = NdsEngine::new(&config).run(&prepared);
        assert_eq!(r.queries, 0);
        assert_eq!(r.total_ns, 0);
    }
}
