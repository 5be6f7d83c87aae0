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

/// One round's tasks for every LUN accelerator in one reusable buffer:
/// tasks are staged in dispatch order, then [`seal`](Self::seal) orders
/// them by LUN with a stable counting sort, so each accelerator's work is
/// a contiguous slice whose internal order is still dispatch order (which
/// the page-buffer model without dynamic allocating depends on). An engine
/// owns one arena and refills it every round.
#[derive(Debug, Default)]
pub(crate) struct RoundArena {
    /// Sealed tasks, ordered by (LUN, dispatch order).
    tasks: Vec<VertexTask>,
    /// Tasks in dispatch order, before sealing.
    staged: Vec<VertexTask>,
    /// Per-LUN task counts while staging; scatter cursors while sealing.
    cursors: Vec<u32>,
    /// `(lun, end of its slice in tasks)` per non-empty LUN, ascending.
    units: Vec<(LunId, u32)>,
}

impl RoundArena {
    /// Empties the arena for a new round on a device of `total_luns` LUNs.
    pub fn begin(&mut self, total_luns: u32) {
        self.staged.clear();
        self.cursors.clear();
        self.cursors.resize(total_luns as usize, 0);
    }

    /// Stages one task: `query` needs the vector of `vertex`, whose
    /// physical address comes straight from LUNCSR.
    pub fn push(&mut self, luncsr: &LunCsr, query: u32, vertex: VectorId, speculative: bool) {
        let addr = luncsr.physical_addr(vertex);
        debug_assert_eq!(addr.lun, luncsr.lun_of(vertex));
        self.cursors[addr.lun as usize] += 1;
        self.staged.push(VertexTask {
            query,
            vertex,
            addr,
            speculative,
        });
    }

    /// Orders the staged tasks by LUN (stable) and cuts the per-LUN units.
    pub fn seal(&mut self) {
        self.units.clear();
        self.tasks.clear();
        let Some(&filler) = self.staged.first() else {
            return;
        };
        let mut start = 0u32;
        for (lun, cursor) in self.cursors.iter_mut().enumerate() {
            let count = std::mem::replace(cursor, start);
            start += count;
            if count > 0 {
                self.units.push((lun as LunId, start));
            }
        }
        self.tasks.resize(self.staged.len(), filler);
        for task in &self.staged {
            let cursor = &mut self.cursors[task.addr.lun as usize];
            self.tasks[*cursor as usize] = *task;
            *cursor += 1;
        }
    }

    /// Tasks in the sealed arena.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Number of LUN units (LUNs with at least one task) after sealing.
    pub fn units(&self) -> usize {
        self.units.len()
    }

    /// The `i`-th unit in ascending LUN order: its LUN and task slice.
    pub fn unit(&self, i: usize) -> (LunId, &[VertexTask]) {
        let start = if i == 0 { 0 } else { self.units[i - 1].1 };
        let (lun, end) = self.units[i];
        (lun, &self.tasks[start as usize..end as usize])
    }
}

/// The Allocator model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Allocator;

impl Allocator {
    /// Dispatches `(query, neighbor, lun)` triples (from the Vgenerator)
    /// into per-LUN work lists, resolving physical addresses via LUNCSR.
    ///
    /// The engines stage the same tasks into a round arena they own and
    /// hand each accelerator a slice of it; this is that pass with the
    /// slices copied out into owned [`LunWork`]s.
    pub fn dispatch(
        &self,
        luncsr: &LunCsr,
        timing: &FlashTiming,
        triples: &[(u32, VectorId, u32)],
        speculative: bool,
    ) -> AllocOutput {
        let mut arena = RoundArena::default();
        arena.begin(luncsr.mapping().geometry().total_luns());
        arena.staged.reserve(triples.len());
        for &(query, vertex, lun) in triples {
            debug_assert_eq!(lun, luncsr.lun_of(vertex));
            arena.push(luncsr, query, vertex, speculative);
        }
        arena.seal();
        let work = (0..arena.units())
            .map(|unit| {
                let (lun, tasks) = arena.unit(unit);
                LunWork {
                    lun,
                    tasks: tasks.to_vec(),
                }
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
    fn arena_order_inside_a_lun_is_triple_order() {
        // Many queries interleaved over few LUNs: each unit must list its
        // tasks exactly as a filter of the triples by LUN would — units
        // ascending by LUN, nothing lost, and refilling reuses the arena.
        let lc = luncsr(600);
        let total_luns = lc.mapping().geometry().total_luns();
        let mut arena = RoundArena::default();
        for round in 0..3u32 {
            let triples: Vec<(u32, VectorId)> = (0..400u32)
                .map(|i| (i % 7, (i * 37 + round * 11) % 600))
                .collect();
            arena.begin(total_luns);
            for &(q, v) in &triples {
                arena.push(&lc, q, v, false);
            }
            arena.seal();
            assert_eq!(arena.len(), triples.len());
            let mut last_lun = None;
            for unit in 0..arena.units() {
                let (lun, tasks) = arena.unit(unit);
                assert!(last_lun < Some(lun), "units ascend by LUN");
                last_lun = Some(lun);
                let want: Vec<(u32, VectorId)> = triples
                    .iter()
                    .copied()
                    .filter(|&(_, v)| lc.lun_of(v) == lun)
                    .collect();
                assert!(!want.is_empty());
                let got: Vec<(u32, VectorId)> = tasks.iter().map(|t| (t.query, t.vertex)).collect();
                assert_eq!(got, want, "LUN {lun} lost triple order");
                assert!(tasks.iter().all(|t| t.addr == lc.physical_addr(t.vertex)));
            }
        }
        arena.begin(total_luns);
        arena.seal();
        assert_eq!((arena.len(), arena.units()), (0, 0));
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
