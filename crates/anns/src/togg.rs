//! TOGG — two-stage routing with optimized guided search (Xu et al.,
//! Knowledge-Based Systems 2021), evaluated by the paper in Fig. 21.
//!
//! TOGG optimizes the *routing* of a query on a proximity graph in two
//! stages: a guided stage that moves the query quickly into the right
//! region of the vector space, then a greedy stage that converges locally.
//! This implementation realizes the guided stage with a pilot table —
//! √n sampled vertices scanned linearly to choose the entry region (a
//! stand-in for TOGG's quantization-based direction table that preserves
//! its architectural behaviour: a small DRAM-resident structure consulted
//! once per query, followed by plain graph traversal) — and the greedy
//! stage with the shared beam kernel over a degree-bounded α-pruned graph.

use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::rng::Pcg32;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::beam::{beam_search, VisitedSet};
use crate::index::{AnnsAlgorithm, GraphAnnsIndex, SearchOutput, SearchParams};
use crate::trace::BatchTrace;
use crate::vamana::{Vamana, VamanaParams};

/// TOGG construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToggParams {
    /// Degree bound of the underlying proximity graph.
    pub r: usize,
    /// Number of pilot (guide) vertices; 0 = √n.
    pub pilots: usize,
    /// How many pilot entries seed the greedy stage.
    pub entry_fanout: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ToggParams {
    fn default() -> Self {
        Self {
            r: 24,
            pilots: 0,
            entry_fanout: 2,
            seed: 0x7066,
        }
    }
}

/// A built TOGG index.
#[derive(Debug, Clone)]
pub struct Togg {
    params: ToggParams,
    graph: Csr,
    pilots: Vec<VectorId>,
}

impl Togg {
    /// Builds the index (underlying graph via α-pruning, pilots via
    /// deterministic sampling).
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn build(base: &Dataset, params: ToggParams) -> Self {
        assert!(!base.is_empty(), "dataset must not be empty");
        let n = base.len();
        // Underlying degree-bounded proximity graph.
        let vamana = Vamana::build(
            base,
            VamanaParams {
                r: params.r,
                l_build: (params.r * 2).max(50),
                alpha: 1.15,
                seed: params.seed,
            },
        );
        let graph = vamana.base_graph().clone();

        let m = if params.pilots == 0 {
            ((n as f64).sqrt().ceil() as usize).clamp(1, n)
        } else {
            params.pilots.min(n)
        };
        let mut rng = Pcg32::seed_from_u64(params.seed ^ 0x9);
        let mut ids: Vec<VectorId> = (0..n as u32).collect();
        rng.shuffle(&mut ids);
        let pilots = ids.into_iter().take(m).collect();

        Self {
            params,
            graph,
            pilots,
        }
    }

    /// Construction parameters.
    pub fn params(&self) -> &ToggParams {
        &self.params
    }

    /// The pilot table (stage-1 guide structure).
    pub fn pilots(&self) -> &[VectorId] {
        &self.pilots
    }

    /// Stage 1: pick the `entry_fanout` pilots nearest to the query.
    pub fn guided_entries(&self, base: &Dataset, query: &[f32]) -> Vec<VectorId> {
        // One batched kernel call over the whole pilot table.
        let mut dists: Vec<f32> = Vec::new();
        DistanceKind::L2.eval_batch_ids(query, base, &self.pilots, &mut dists);
        let mut scored: Vec<Neighbor> = self
            .pilots
            .iter()
            .zip(&dists)
            .map(|(&p, &d)| Neighbor::new(d, p))
            .collect();
        scored.sort_unstable();
        scored
            .into_iter()
            .take(self.params.entry_fanout.max(1))
            .map(|n| n.id)
            .collect()
    }
}

impl GraphAnnsIndex for Togg {
    fn algorithm(&self) -> AnnsAlgorithm {
        AnnsAlgorithm::Togg
    }

    fn base_graph(&self) -> &Csr {
        &self.graph
    }

    fn search_batch(
        &self,
        base: &Dataset,
        queries: &Dataset,
        params: &SearchParams,
    ) -> SearchOutput {
        let mut visited = VisitedSet::new(base.len());
        let mut results = Vec::with_capacity(queries.len());
        let mut traces = Vec::with_capacity(queries.len());
        for (_, q) in queries.iter() {
            // Stage 1: guided entry selection; stage 2: greedy beam.
            let entries = self.guided_entries(base, q);
            let mut out = beam_search(
                base,
                &self.graph,
                q,
                &entries,
                params.beam_width,
                params.distance,
                &mut visited,
            );
            out.found.truncate(params.k);
            results.push(out.found);
            traces.push(out.trace);
        }
        SearchOutput {
            results,
            trace: BatchTrace { queries: traces },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_vector::recall::{ground_truth, recall_at_k};
    use ndsearch_vector::synthetic::DatasetSpec;

    #[test]
    fn pilots_default_to_sqrt_n() {
        let ds = DatasetSpec::sift_scaled(400, 1).build();
        let index = Togg::build(&ds, ToggParams::default());
        assert_eq!(index.pilots().len(), 20);
    }

    #[test]
    fn guided_entries_are_close() {
        let ds = DatasetSpec::sift_scaled(400, 1).build();
        let index = Togg::build(&ds, ToggParams::default());
        let q = ds.vector(10).to_vec();
        let entries = index.guided_entries(&ds, &q);
        assert_eq!(entries.len(), 2);
        // The chosen pilot must be the best pilot.
        let best = index
            .pilots()
            .iter()
            .min_by(|&&a, &&b| {
                let da = DistanceKind::L2.eval(&q, ds.vector(a));
                let db = DistanceKind::L2.eval(&q, ds.vector(b));
                da.partial_cmp(&db).unwrap()
            })
            .copied()
            .unwrap();
        assert_eq!(entries[0], best);
    }

    #[test]
    fn recall_is_high() {
        let spec = DatasetSpec::sift_scaled(600, 15);
        let (base, queries) = spec.build_pair();
        let index = Togg::build(&base, ToggParams::default());
        let params = SearchParams::new(10, 80, DistanceKind::L2);
        let out = index.search_batch(&base, &queries, &params);
        let gt = ground_truth(&base, &queries, 10, DistanceKind::L2);
        let r = recall_at_k(&gt, &out.id_lists(), 10);
        assert!(r >= 0.85, "recall@10 = {r}");
    }

    #[test]
    fn guided_entry_shortens_traces() {
        // Two-stage routing should visit no more vertices than a fixed
        // medoid entry on average (that is its whole point).
        let spec = DatasetSpec::deep_scaled(600, 15);
        let (base, queries) = spec.build_pair();
        let togg = Togg::build(&base, ToggParams::default());
        let vam = Vamana::build(
            &base,
            VamanaParams {
                r: 24,
                l_build: 50,
                alpha: 1.15,
                seed: ToggParams::default().seed,
            },
        );
        let params = SearchParams::new(10, 64, DistanceKind::L2);
        let t_togg = togg.search_batch(&base, &queries, &params).trace;
        let t_vam = vam.search_batch(&base, &queries, &params).trace;
        assert!(
            t_togg.mean_trace_len() <= t_vam.mean_trace_len() * 1.15,
            "togg {} vs vamana {}",
            t_togg.mean_trace_len(),
            t_vam.mean_trace_len()
        );
    }
}
