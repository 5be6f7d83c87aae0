//! Vgenerator — the graph-traversal fetch pipeline (Fig. 7a).
//!
//! Each search iteration, the QP reader pulls the current entry-vertex ids
//! out of the query property table and streams them through a three-stage
//! pipeline: the OFS Fetcher reads the offset array, the NBR Fetcher reads
//! the neighbor ids, and the LUN Fetcher reads the neighbors' LUN ids (all
//! from LUNCSR in SSD DRAM). The Pref Unit additionally prefetches
//! second-order neighbor ids for speculative searching. The model charges
//! pipelined DRAM latency plus array-streaming bandwidth.

use ndsearch_flash::timing::{FlashTiming, Nanos};
use ndsearch_graph::luncsr::LunCsr;
use ndsearch_vector::VectorId;

/// The output of one Vgenerator pass: per active query, the entry vertex's
/// neighbor ids paired with their LUNs (the `Nid`/`Lid` fractions of the
/// NBR buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VgenOutput {
    /// `(query index, neighbor id, lun id)` triples in pipeline order.
    pub triples: Vec<(u32, VectorId, u32)>,
    /// Latency of the pass.
    pub latency_ns: Nanos,
}

/// The Vgenerator model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vgenerator;

impl Vgenerator {
    /// Runs one pass for `entries` = (query index, entry vertex,
    /// already-filtered neighbor list). The neighbor lists come from the
    /// recorded trace (they are the *unvisited* neighbors the real
    /// algorithm computed); LUN ids come from LUNCSR's LUN array.
    pub fn run(
        &self,
        luncsr: &LunCsr,
        timing: &FlashTiming,
        entries: &[(u32, VectorId, &[VectorId])],
    ) -> VgenOutput {
        let neighbor_entries: usize = entries.iter().map(|e| e.2.len()).sum();
        let mut triples = Vec::with_capacity(neighbor_entries);
        for &(q, _entry, visited) in entries {
            for &nb in visited {
                triples.push((q, nb, luncsr.lun_of(nb)));
            }
        }
        VgenOutput {
            triples,
            latency_ns: Self::latency_ns(timing, entries.len(), neighbor_entries as u64),
        }
    }

    /// Latency of one pass over `queries` active queries fetching
    /// `neighbor_entries` neighbor ids in total.
    pub(crate) fn latency_ns(timing: &FlashTiming, queries: usize, neighbor_entries: u64) -> Nanos {
        // Three pipeline stages, one DRAM access each, overlapped across
        // queries: fill (3 stages) + one beat per query, plus streaming the
        // neighbor+LUN arrays (8 B per entry) from DRAM.
        let beats = queries as u64 + 2;
        beats * timing.t_dram_access_ns + timing.dram_transfer_ns(neighbor_entries * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_flash::geometry::FlashGeometry;
    use ndsearch_graph::csr::Csr;
    use ndsearch_graph::mapping::{PlacementPolicy, VertexMapping};

    fn luncsr(n: usize) -> LunCsr {
        let lists: Vec<Vec<VectorId>> = (0..n as u32).map(|v| vec![(v + 1) % n as u32]).collect();
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
    fn triples_carry_lun_ids() {
        let lc = luncsr(100);
        let timing = FlashTiming::default();
        let visited = [5u32, 40, 77];
        let out = Vgenerator.run(&lc, &timing, &[(0, 4, &visited)]);
        assert_eq!(out.triples.len(), 3);
        for (q, nb, lun) in &out.triples {
            assert_eq!(*q, 0);
            assert_eq!(*lun, lc.lun_of(*nb));
        }
    }

    #[test]
    fn latency_grows_with_queries_and_neighbors() {
        let lc = luncsr(200);
        let timing = FlashTiming::default();
        let v1 = [1u32];
        let small = Vgenerator.run(&lc, &timing, &[(0, 0, &v1)]);
        let v2: Vec<u32> = (0..150).collect();
        let entries: Vec<_> = (0..50u32).map(|q| (q, q, &v2[..])).collect();
        let big = Vgenerator.run(&lc, &timing, &entries);
        assert!(big.latency_ns > small.latency_ns);
    }

    #[test]
    fn empty_pass_costs_pipeline_fill_only() {
        let lc = luncsr(10);
        let timing = FlashTiming::default();
        let out = Vgenerator.run(&lc, &timing, &[]);
        assert!(out.triples.is_empty());
        assert_eq!(out.latency_ns, 2 * timing.t_dram_access_ns);
    }
}
