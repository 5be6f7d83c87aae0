//! The common interface every graph-traversal ANNS index implements.

use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::beam::Adjacency;
use crate::trace::BatchTrace;

/// Search-phase parameters shared by all algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchParams {
    /// How many neighbors to return per query (top-k).
    pub k: usize,
    /// Beam width `ef` — the size of the result list kept during traversal.
    pub beam_width: usize,
    /// Distance function (must match the one used at construction).
    pub distance: DistanceKind,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            k: 10,
            beam_width: 64,
            distance: DistanceKind::L2,
        }
    }
}

impl SearchParams {
    /// Convenience constructor.
    ///
    /// # Panics
    /// Panics if `k == 0`, `beam_width == 0` or `beam_width < k`.
    pub fn new(k: usize, beam_width: usize, distance: DistanceKind) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(beam_width >= k, "beam width must be at least k");
        Self {
            k,
            beam_width,
            distance,
        }
    }
}

/// Results + trace of a batch search.
#[derive(Debug, Clone)]
pub struct SearchOutput {
    /// Per query: the top-k neighbors, ascending by distance.
    pub results: Vec<Vec<Neighbor>>,
    /// Per query: the memory trace, in the same order.
    pub trace: BatchTrace,
}

impl SearchOutput {
    /// Extracts bare id lists (for recall evaluation).
    pub fn id_lists(&self) -> Vec<Vec<VectorId>> {
        self.results
            .iter()
            .map(|r| r.iter().map(|n| n.id).collect())
            .collect()
    }
}

/// Which algorithm an index implements (used for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnnsAlgorithm {
    /// Hierarchical navigable small world graphs.
    Hnsw,
    /// DiskANN's Vamana graph.
    DiskAnn,
    /// Hierarchical-clustering-based graph.
    Hcnng,
    /// Two-stage routing on a proximity graph.
    Togg,
}

impl std::fmt::Display for AnnsAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AnnsAlgorithm::Hnsw => "HNSW",
            AnnsAlgorithm::DiskAnn => "DiskANN",
            AnnsAlgorithm::Hcnng => "HCNNG",
            AnnsAlgorithm::Togg => "TOGG",
        };
        f.write_str(s)
    }
}

/// A built graph-traversal ANNS index.
///
/// The trait is object safe so experiment harnesses can hold a
/// heterogeneous list of algorithms.
pub trait GraphAnnsIndex {
    /// Which algorithm this is.
    fn algorithm(&self) -> AnnsAlgorithm;

    /// The base proximity graph that gets placed on flash (for HNSW this
    /// is layer 0, which holds every vertex), as a CSR. Whoever needs the
    /// whole graph in one array reads it: staging and compaction (reorder
    /// and placement run over it), and the recorded batch traces of
    /// [`search_batch`](Self::search_batch). Serving a [`MutableIndex`]
    /// does not — it walks the live rows, and this snapshot lags them.
    fn base_graph(&self) -> &Csr;

    /// Runs the search phase for a batch of queries, recording traces.
    fn search_batch(
        &self,
        base: &Dataset,
        queries: &Dataset,
        params: &SearchParams,
    ) -> SearchOutput;
}

/// Record of one incremental insert: the vertex linked and the existing
/// vertices whose adjacency was rewritten by backlink repair. The serving
/// layer patches the flash-resident graph overlay for exactly the
/// `repaired` set, so this doubles as the update's write-amplification
/// footprint at the graph-metadata level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertReport {
    /// The vertex that was linked in.
    pub id: VectorId,
    /// Existing vertices whose neighbor lists changed.
    pub repaired: Vec<VectorId>,
}

/// Extension of [`GraphAnnsIndex`] for deployments that mutate online:
/// incremental insert — reusing the algorithm's construction kernels
/// (HNSW's select-neighbors heuristic, Vamana's RobustPrune with backlink
/// repair) — and tombstone delete.
///
/// The contract mirrors a serving ingest path: the caller appends the
/// vector to its dataset first, then links the returned id into the graph.
/// Deletes only tombstone: the vertex stays routable (searches may pass
/// through it) until a compaction drops it, so recall on the live set
/// degrades gracefully under churn.
///
/// The live adjacency — [`num_vertices`](Self::num_vertices) rows read
/// through [`live_neighbors`](Self::live_neighbors) — *is* the search
/// graph of a mutable deployment: `dyn MutableIndex` implements
/// [`Adjacency`], so a beam search walks it in place and sees an insert's
/// O(R) repaired rows without anything being rebuilt.
///
/// `Send`: a deployment owns its index, and a cluster run steps whole
/// replica deployments on several host threads.
pub trait MutableIndex: GraphAnnsIndex + Send {
    /// Links vertex `id` — which must already be the last vector of
    /// `base` — into the live graph and returns which existing vertices'
    /// adjacency was repaired.
    ///
    /// Inserts touch the live rows only — the new vertex's and the
    /// `repaired` ones', O(R) of them — and searches over the live view
    /// see them at once. The [`base_graph`](GraphAnnsIndex::base_graph)
    /// CSR lags until [`sync_base_graph`](Self::sync_base_graph) is
    /// called; nothing on the per-update path needs it.
    ///
    /// # Panics
    /// Panics if `id` is not the next id (`base.len() - 1` and one past
    /// the current graph).
    fn insert(&mut self, base: &Dataset, id: VectorId) -> InsertReport;

    /// Vertices linked into the live graph, tombstoned ones included (the
    /// id the next [`insert`](Self::insert) must link).
    fn num_vertices(&self) -> usize;

    /// Neighbor list of a vertex read from the live mutable adjacency —
    /// always current: after every update it equals the row a
    /// [`sync_base_graph`](Self::sync_base_graph) would write
    /// (`tests/property_tests.rs` holds both indexes to that). This is
    /// the row serving searches expand and the flash overlay is patched
    /// from.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    fn live_neighbors(&self, id: VectorId) -> &[VectorId];

    /// Rebuilds the [`base_graph`](GraphAnnsIndex::base_graph) CSR from
    /// the live rows if inserts are pending (a no-op otherwise) — O(V+E),
    /// so only for callers that are about to do O(V+E) work anyway: a
    /// compaction restaging the layout, or staging a deployment from an
    /// index that took inserts first. Serving never calls it.
    fn sync_base_graph(&mut self);

    /// Tombstones a vertex. Returns `false` if it was already deleted.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    fn delete(&mut self, id: VectorId) -> bool;

    /// Whether a vertex has been tombstoned.
    fn is_deleted(&self, id: VectorId) -> bool;

    /// Vertices that are present and not tombstoned.
    fn live_count(&self) -> usize;

    /// A deep copy behind a fresh box: what replicated staging hands each
    /// twin of a shard instead of building the same index again.
    fn boxed_clone(&self) -> Box<dyn MutableIndex>;
}

impl Adjacency for dyn MutableIndex + '_ {
    fn num_vertices(&self) -> usize {
        MutableIndex::num_vertices(self)
    }

    fn neighbors(&self, v: VectorId) -> &[VectorId] {
        self.live_neighbors(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_valid() {
        let p = SearchParams::default();
        assert!(p.beam_width >= p.k);
    }

    #[test]
    #[should_panic(expected = "beam width must be at least k")]
    fn beam_below_k_panics() {
        SearchParams::new(10, 5, DistanceKind::L2);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(AnnsAlgorithm::Hnsw.to_string(), "HNSW");
        assert_eq!(AnnsAlgorithm::DiskAnn.to_string(), "DiskANN");
    }
}
