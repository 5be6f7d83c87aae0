//! End-to-end static-scheduling pipeline.
//!
//! Turns a constructed ANNS graph + dataset + recorded traces into the
//! physical view the engine simulates: reorder vertices (static
//! scheduling), place them under the multi-plane restrictions, assemble
//! LUNCSR, and relabel the traces into the new id space — the software
//! steps of §VI-A performed offline before the search runs.

use ndsearch_anns::trace::{BatchTrace, IterationTrace};
use ndsearch_graph::csr::Csr;
use ndsearch_graph::luncsr::LunCsr;
use ndsearch_graph::mapping::VertexMapping;
use ndsearch_graph::reorder::Permutation;
use ndsearch_vector::dataset::Dataset;

use crate::config::NdsConfig;

/// Everything the engine needs, staged on "flash".
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The LUNCSR-formatted graph.
    pub luncsr: LunCsr,
    /// Traces relabeled into the reordered id space.
    pub trace: BatchTrace,
    /// The reordering permutation applied.
    pub perm: Permutation,
    /// Feature-vector bytes as stored in NAND.
    pub vector_bytes: usize,
    /// Vector dimensionality.
    pub dim: usize,
}

impl Prepared {
    /// Runs static scheduling for `config` and packages the engine inputs.
    ///
    /// # Panics
    /// Panics if the dataset size differs from the graph's vertex count or
    /// if the dataset does not fit the configured geometry.
    pub fn stage(config: &NdsConfig, graph: &Csr, base: &Dataset, trace: &BatchTrace) -> Prepared {
        assert_eq!(
            graph.num_vertices(),
            base.len(),
            "graph and dataset must agree on vertex count"
        );
        let perm = config.scheduling.reorder.permutation(graph, config.seed);
        let reordered = graph.relabel(&perm);
        let mapping = VertexMapping::place(
            config.geometry,
            reordered.num_vertices(),
            base.stored_vector_bytes(),
            config.scheduling.placement,
        );
        let luncsr = LunCsr::new(reordered, mapping);
        Prepared {
            luncsr,
            trace: trace.relabel(&perm),
            perm,
            vector_bytes: base.stored_vector_bytes(),
            dim: base.dim(),
        }
    }

    /// Relabels one live search hop into the reordered id space.
    ///
    /// The batch engine replays traces that [`Prepared::stage`] relabeled
    /// up front; the serving engine instead runs beam search *live* against
    /// the construction-order graph and relabels each hop as it is
    /// scheduled onto the hardware model.
    pub fn relabel_hop(&self, hop: &IterationTrace) -> IterationTrace {
        let mut hop = hop.clone();
        self.relabel_hop_in_place(&mut hop);
        hop
    }

    /// [`relabel_hop`](Self::relabel_hop) rewriting the hop's own buffers.
    pub fn relabel_hop_in_place(&self, hop: &mut IterationTrace) {
        hop.entry = self.perm.new_of(hop.entry);
        for v in &mut hop.visited {
            *v = self.perm.new_of(*v);
        }
    }

    /// Restages the same inputs under a different scheduling configuration
    /// (ablation loops reuse the built graph and recorded traces).
    pub fn restage(
        config: &NdsConfig,
        graph: &Csr,
        base: &Dataset,
        trace: &BatchTrace,
    ) -> Prepared {
        Self::stage(config, graph, base, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulingConfig;
    use ndsearch_anns::trace::{IterationTrace, QueryTrace};
    use ndsearch_graph::reorder::ReorderMethod;
    use ndsearch_vector::synthetic::DatasetSpec;

    fn ring_graph(n: usize) -> Csr {
        let lists: Vec<Vec<u32>> = (0..n as u32)
            .map(|v| vec![(v + 1) % n as u32, (v + n as u32 - 1) % n as u32])
            .collect();
        Csr::from_adjacency(&lists).unwrap()
    }

    fn tiny_trace() -> BatchTrace {
        BatchTrace {
            queries: vec![QueryTrace {
                iterations: vec![IterationTrace {
                    entry: 0,
                    visited: vec![1, 2],
                }],
            }],
        }
    }

    #[test]
    fn stage_relabels_consistently() {
        let base = DatasetSpec::sift_scaled(100, 1).build();
        let graph = ring_graph(100);
        let config = NdsConfig::scaled_for(100, base.stored_vector_bytes());
        let prepared = Prepared::stage(&config, &graph, &base, &tiny_trace());
        // Every trace id must be a valid vertex.
        for q in &prepared.trace.queries {
            for it in &q.iterations {
                assert!((it.entry as usize) < 100);
                for &v in &it.visited {
                    assert!((v as usize) < 100);
                }
            }
        }
        // The relabeled entry is perm(0).
        assert_eq!(
            prepared.trace.queries[0].iterations[0].entry,
            prepared.perm.new_of(0)
        );
    }

    #[test]
    fn identity_scheduling_keeps_ids() {
        let base = DatasetSpec::sift_scaled(64, 1).build();
        let graph = ring_graph(64);
        let mut config = NdsConfig::scaled_for(64, base.stored_vector_bytes());
        config.scheduling = SchedulingConfig::bare();
        let prepared = Prepared::stage(&config, &graph, &base, &tiny_trace());
        assert_eq!(prepared.trace, tiny_trace());
        assert_eq!(prepared.perm.new_of(5), 5);
    }

    #[test]
    fn relabel_hop_matches_batch_relabel() {
        let base = DatasetSpec::sift_scaled(128, 1).build();
        let graph = ring_graph(128);
        let config = NdsConfig::scaled_for(128, base.stored_vector_bytes());
        let trace = tiny_trace();
        let prepared = Prepared::stage(&config, &graph, &base, &trace);
        let hop = &trace.queries[0].iterations[0];
        assert_eq!(
            prepared.relabel_hop(hop),
            prepared.trace.queries[0].iterations[0]
        );
    }

    #[test]
    fn reordering_changes_physical_spread() {
        let base = DatasetSpec::sift_scaled(256, 1).build();
        let graph = ring_graph(256);
        let mut config = NdsConfig::scaled_for(256, base.stored_vector_bytes());
        config.scheduling.reorder = ReorderMethod::RandomShuffle;
        let shuffled = Prepared::stage(&config, &graph, &base, &tiny_trace());
        config.scheduling.reorder = ReorderMethod::DegreeAscendingBfs;
        let ours = Prepared::stage(&config, &graph, &base, &tiny_trace());
        // Under our reordering, ring neighbors co-locate: measure how many
        // graph edges stay within one page.
        let same_page = |p: &Prepared| {
            let lc = &p.luncsr;
            let mut hits = 0u32;
            for v in 0..lc.num_vertices() as u32 {
                for &nb in lc.neighbors(v) {
                    if lc.physical_addr(v).page_key(&config.geometry)
                        == lc.physical_addr(nb).page_key(&config.geometry)
                    {
                        hits += 1;
                    }
                }
            }
            hits
        };
        assert!(
            same_page(&ours) > same_page(&shuffled),
            "degree-ascending BFS should co-locate neighbors"
        );
    }
}
