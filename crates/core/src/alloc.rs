//! Allocator — batch-wise dynamic dispatch to LUN accelerators (Fig. 7b).
//!
//! The Dispatcher gathers neighbors with the same LUN id (and their
//! queries) into the same fraction of the Alloc Buffer, then the Alloc CTR
//! generates every neighbor's physical address straight from LUNCSR —
//! avoiding FTL translation on the critical path — and ships (query,
//! address) pairs to the LUN-level accelerators through the Flash CTRs.

use ndsearch_flash::geometry::{LunId, PhysAddr};
use ndsearch_flash::timing::{FlashTiming, Nanos};
use ndsearch_graph::luncsr::LunCsr;
use ndsearch_vector::VectorId;

/// One unit of distance-computation work: a query needs the vector of
/// `vertex` (stored at `addr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexTask {
    /// Query index within the batch.
    pub query: u32,
    /// Vertex whose feature vector is read.
    pub vertex: VectorId,
    /// Resolved physical address.
    pub addr: PhysAddr,
    /// Whether this task is a speculative prefetch (overlapped, off the
    /// critical path; still costs page accesses).
    pub speculative: bool,
}

/// Work bound for one LUN accelerator in one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LunWork {
    /// Target LUN.
    pub lun: LunId,
    /// Tasks dispatched to it.
    pub tasks: Vec<VertexTask>,
}

/// Output of the Allocating stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocOutput {
    /// Per-LUN work lists (the "LUN list" iterated by Algorithm 1), sorted
    /// by LUN id for determinism.
    pub work: Vec<LunWork>,
    /// Latency of dispatch + address generation.
    pub latency_ns: Nanos,
}

/// The Allocator model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Allocator;

impl Allocator {
    /// Dispatches `(query, neighbor, lun)` triples (from the Vgenerator)
    /// into per-LUN work lists, resolving physical addresses via LUNCSR.
    /// A LUN's list keeps the triples' order.
    ///
    /// The engines stream the same tasks straight into the SiN model
    /// (`sin::SinRound`); this is the stage-by-stage view of that pass.
    pub fn dispatch(
        &self,
        luncsr: &LunCsr,
        timing: &FlashTiming,
        triples: &[(u32, VectorId, u32)],
        speculative: bool,
    ) -> AllocOutput {
        let mut tasks: Vec<VertexTask> = triples
            .iter()
            .map(|&(query, vertex, lun)| {
                debug_assert_eq!(lun, luncsr.lun_of(vertex));
                let addr = luncsr.physical_addr(vertex);
                VertexTask {
                    query,
                    vertex,
                    addr,
                    speculative,
                }
            })
            .collect();
        // Stable: dispatch order stays inside each LUN.
        tasks.sort_by_key(|t| t.addr.lun);
        let work = (tasks.chunk_by(|a, b| a.addr.lun == b.addr.lun))
            .map(|run| LunWork {
                lun: run[0].addr.lun,
                tasks: run.to_vec(),
            })
            .collect();
        AllocOutput {
            work,
            latency_ns: Self::latency_ns(timing, triples.len()),
        }
    }

    /// Latency of dispatching and address-generating `tasks` tasks.
    pub(crate) fn latency_ns(timing: &FlashTiming, tasks: usize) -> Nanos {
        // Address generation is pure logic (a few cycles per neighbor) and
        // the dispatch scan is one pass over the triples.
        timing.accel_cycles_ns(2 * tasks as u64 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_flash::geometry::FlashGeometry;
    use ndsearch_graph::csr::Csr;
    use ndsearch_graph::mapping::{PlacementPolicy, VertexMapping};

    fn luncsr(n: usize) -> LunCsr {
        let lists: Vec<Vec<VectorId>> = (0..n as u32).map(|_| Vec::new()).collect();
        let csr = Csr::from_adjacency(&lists).unwrap();
        let mapping = VertexMapping::place(
            FlashGeometry::tiny(),
            n,
            128,
            PlacementPolicy::MultiPlaneAware,
        );
        LunCsr::new(csr, mapping)
    }

    #[test]
    fn groups_by_lun() {
        let lc = luncsr(600);
        let timing = FlashTiming::default();
        // Pick vertices spread across LUNs.
        let triples: Vec<(u32, VectorId, u32)> = (0..600u32)
            .step_by(37)
            .map(|v| (v % 4, v, lc.lun_of(v)))
            .collect();
        let out = Allocator.dispatch(&lc, &timing, &triples, false);
        let total: usize = out.work.iter().map(|w| w.tasks.len()).sum();
        assert_eq!(total, triples.len());
        // Sorted by LUN, and every task's address sits on its LUN.
        for pair in out.work.windows(2) {
            assert!(pair[0].lun < pair[1].lun);
        }
        for w in &out.work {
            for t in &w.tasks {
                assert_eq!(t.addr.lun, w.lun);
                assert_eq!(t.addr, lc.physical_addr(t.vertex));
            }
        }
    }

    #[test]
    fn dispatch_order_inside_a_lun_is_triple_order() {
        // Many queries interleaved over few LUNs: each LUN's list must
        // hold its tasks exactly as a filter of the triples by LUN would —
        // lists ascending by LUN, nothing lost.
        let lc = luncsr(600);
        let timing = FlashTiming::default();
        for round in 0..3u32 {
            let triples: Vec<(u32, VectorId, u32)> = (0..400u32)
                .map(|i| {
                    let v = (i * 37 + round * 11) % 600;
                    (i % 7, v, lc.lun_of(v))
                })
                .collect();
            let work = Allocator.dispatch(&lc, &timing, &triples, false).work;
            assert_eq!(
                work.iter().map(|w| w.tasks.len()).sum::<usize>(),
                triples.len()
            );
            for w in &work {
                let want: Vec<(u32, VectorId)> = triples
                    .iter()
                    .filter(|t| t.2 == w.lun)
                    .map(|t| (t.0, t.1))
                    .collect();
                let got: Vec<(u32, VectorId)> =
                    w.tasks.iter().map(|t| (t.query, t.vertex)).collect();
                assert_eq!(got, want, "LUN {} lost triple order", w.lun);
            }
        }
        assert!(Allocator.dispatch(&lc, &timing, &[], false).work.is_empty());
    }

    #[test]
    fn one_query_can_hit_many_luns() {
        // The paper's Fig. 7 example: q1 goes to LUN1 and LUN3 etc.
        let lc = luncsr(600);
        let timing = FlashTiming::default();
        let triples: Vec<(u32, VectorId, u32)> = [5u32, 100, 300, 550]
            .iter()
            .map(|&v| (0, v, lc.lun_of(v)))
            .collect();
        let out = Allocator.dispatch(&lc, &timing, &triples, false);
        assert!(out.work.len() > 1, "one query should fan out to LUNs");
    }

    #[test]
    fn latency_scales_with_triples() {
        let lc = luncsr(600);
        let timing = FlashTiming::default();
        let few: Vec<_> = (0..4u32).map(|v| (0, v, lc.lun_of(v))).collect();
        let many: Vec<_> = (0..400u32).map(|v| (0, v, lc.lun_of(v))).collect();
        let a = Allocator.dispatch(&lc, &timing, &few, false);
        let b = Allocator.dispatch(&lc, &timing, &many, false);
        assert!(b.latency_ns > a.latency_ns);
    }

    #[test]
    fn speculative_flag_propagates() {
        let lc = luncsr(100);
        let timing = FlashTiming::default();
        let out = Allocator.dispatch(&lc, &timing, &[(0, 1, lc.lun_of(1))], true);
        assert!(out.work[0].tasks[0].speculative);
    }
}
