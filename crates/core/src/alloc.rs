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
///
/// A round touches a few dozen of a device's hundreds of LUNs, so the
/// arena keeps a bitmap of the LUNs staged into: [`begin`](Self::begin)
/// re-zeroes only their cursors and [`seal`](Self::seal) walks only their
/// bits, in ascending LUN order.
#[derive(Debug, Default)]
pub(crate) struct RoundArena {
    /// Sealed tasks, ordered by (LUN, dispatch order).
    tasks: Vec<VertexTask>,
    /// Tasks in dispatch order, before sealing.
    staged: Vec<VertexTask>,
    /// Per-LUN task counts while staging; scatter cursors while sealing.
    /// Zero for every LUN whose bit is clear.
    cursors: Vec<u32>,
    /// One bit per LUN staged into since the last `begin`.
    live: Vec<u64>,
    /// `(lun, end of its slice in tasks)` per non-empty LUN, ascending.
    units: Vec<(LunId, u32)>,
}

impl RoundArena {
    /// Empties the arena for a new round on a device of `total_luns` LUNs.
    pub fn begin(&mut self, total_luns: u32) {
        self.staged.clear();
        for (w, word) in self.live.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                self.cursors[w * 64 + bits.trailing_zeros() as usize] = 0;
                bits &= bits - 1;
            }
        }
        self.cursors.resize(total_luns as usize, 0);
        self.live.resize((total_luns as usize).div_ceil(64), 0);
    }

    /// Stages one task: `query` needs the vector of `vertex`, whose
    /// physical address comes straight from LUNCSR.
    pub fn push(&mut self, luncsr: &LunCsr, query: u32, vertex: VectorId, speculative: bool) {
        let addr = luncsr.physical_addr(vertex);
        debug_assert_eq!(addr.lun, luncsr.lun_of(vertex));
        let lun = addr.lun as usize;
        self.cursors[lun] += 1;
        self.live[lun / 64] |= 1 << (lun % 64);
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
        for (w, &word) in self.live.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let lun = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let count = std::mem::replace(&mut self.cursors[lun], start);
                start += count;
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
        luncsr_on(FlashGeometry::tiny(), n)
    }

    fn luncsr_on(geometry: FlashGeometry, n: usize) -> LunCsr {
        let lists: Vec<Vec<VectorId>> = (0..n as u32).map(|_| Vec::new()).collect();
        let csr = Csr::from_adjacency(&lists).unwrap();
        let mapping = VertexMapping::place(geometry, n, 128, PlacementPolicy::MultiPlaneAware);
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
    fn a_reused_arena_seals_what_a_fresh_one_seals() {
        // One arena carried across random rounds must cut exactly the
        // units and task order of a fresh arena (`Allocator::dispatch`).
        // Sparse rounds (1–3 LUNs), dense ones (every LUN), repeated LUNs
        // and empty rounds follow each other, so a cursor or live bit an
        // earlier round left behind shows. 130 LUNs span three bitmap
        // words, the last one partial.
        let geometry = FlashGeometry {
            channels: 5,
            chips_per_channel: 13,
            blocks_per_plane: 1,
            pages_per_block: 2,
            ..FlashGeometry::tiny()
        };
        // One multi-plane stripe is 32 vertices per LUN: 4 200 cover all.
        let n = 4_200;
        let lc = luncsr_on(geometry, n);
        let timing = FlashTiming::default();
        let total_luns = geometry.total_luns();
        let mut by_lun = vec![Vec::new(); total_luns as usize];
        for v in 0..n as VectorId {
            by_lun[lc.lun_of(v) as usize].push(v);
        }
        let luns: Vec<usize> = (0..by_lun.len())
            .filter(|&l| !by_lun[l].is_empty())
            .collect();
        assert_eq!(luns.len(), 130, "placement must fill all three words");

        let mut arena = RoundArena::default();
        let mut kinds = [0usize; 3];
        proptest::test_runner::run(
            proptest::test_runner::Config { cases: 48 },
            "a_reused_arena_seals_what_a_fresh_one_seals",
            |rng| {
                use proptest::prelude::*;
                let kind = (0usize..3).generate(rng);
                kinds[kind] += 1;
                let targets: Vec<usize> = match kind {
                    0 => Vec::new(),
                    1 => (0..(1usize..=3).generate(rng))
                        .map(|_| luns[(0..luns.len()).generate(rng)])
                        .collect(),
                    _ => luns.clone(),
                };
                let mut triples = Vec::new();
                for &lun in &targets {
                    for _ in 0..(1usize..6).generate(rng) {
                        let v = by_lun[lun][(0..by_lun[lun].len()).generate(rng)];
                        triples.push(((0u32..64).generate(rng), v, lun as u32));
                    }
                }
                // Interleave the LUNs, as a round's hops do.
                for i in (1..triples.len()).rev() {
                    triples.swap(i, (0..=i).generate(rng));
                }

                arena.begin(total_luns);
                for &(query, vertex, _) in &triples {
                    arena.push(&lc, query, vertex, false);
                }
                arena.seal();
                let fresh = Allocator.dispatch(&lc, &timing, &triples, false);
                prop_assert_eq!(arena.units(), fresh.work.len());
                let mut sealed = Vec::new();
                for (unit, want) in fresh.work.iter().enumerate() {
                    let (lun, tasks) = arena.unit(unit);
                    prop_assert_eq!(lun, want.lun);
                    prop_assert_eq!(tasks, &want.tasks[..]);
                    sealed.extend(tasks.iter().map(|t| (t.query, t.vertex, lun)));
                }
                // Both are the triples stably sorted by LUN.
                triples.sort_by_key(|t| t.2);
                prop_assert_eq!(sealed, triples);
                Ok(())
            },
        );
        assert!(kinds.iter().all(|&k| k > 0), "every kind of round ran");
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
