//! Hierarchical navigable small world graphs (Malkov & Yashunin), from
//! scratch.
//!
//! HNSW maintains a stack of proximity graphs: layer 0 contains every
//! vertex; each higher layer contains an exponentially thinning sample. A
//! query greedily descends from the top layer to layer 1 (beam width 1),
//! then runs a full beam search on layer 0. Construction inserts vertices
//! one at a time, sampling each vertex's top layer from a geometric
//! distribution and linking it to neighbors chosen by the *select-neighbors
//! heuristic* (prefer candidates closer to the new vertex than to already
//! selected neighbors), which keeps the graph navigable.

use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::rng::Pcg32;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::beam::{beam_search, VisitedSet};
use crate::build::GreedySearch;
use crate::index::{
    AnnsAlgorithm, GraphAnnsIndex, InsertReport, MutableIndex, SearchOutput, SearchParams,
};
use crate::trace::{BatchTrace, QueryTrace};

/// HNSW construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswParams {
    /// Max links per vertex on layers ≥ 1 (M). Layer 0 allows `2 * m`.
    pub m: usize,
    /// Beam width used during construction (efConstruction).
    pub ef_construction: usize,
    /// Distance function.
    pub distance: DistanceKind,
    /// RNG seed for level sampling.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            distance: DistanceKind::L2,
            seed: 0x45_57,
        }
    }
}

/// Mutable adjacency used during construction (converted to CSR at the
/// end).
#[derive(Debug, Clone, Default)]
struct LayerAdj {
    /// Per-vertex neighbor lists; vertices absent from the layer have an
    /// empty list and are listed in `members`.
    lists: std::collections::HashMap<VectorId, Vec<VectorId>>,
}

/// A built HNSW index.
///
/// The mutable adjacency (layer-0 lists and the upper hierarchy) is
/// retained after construction, so online inserts run the *same* linking
/// kernel the build loop uses ([`MutableIndex::insert`]). The layer-0
/// lists are what a mutable deployment searches; the layer-0 CSR lags
/// them until [`MutableIndex::sync_base_graph`] (an O(V+E) rebuild, for
/// staging and compaction only).
#[derive(Debug, Clone)]
pub struct Hnsw {
    params: HnswParams,
    /// Layer 0 adjacency over all vertices (CSR snapshot of `layer0`).
    base: Csr,
    /// Layer 0 adjacency lists — the mutable source of truth.
    layer0: Vec<Vec<VectorId>>,
    /// Upper layers (1..) as sparse adjacency.
    upper: Vec<LayerAdj>,
    /// Entry point (a vertex on the top layer).
    entry: VectorId,
    /// Top layer of the entry point.
    entry_level: usize,
    /// Level-sampling stream; online inserts continue where build stopped.
    level_rng: Pcg32,
    /// `1 / max(ln M, 0.5)` — the geometric level multiplier.
    level_mult: f64,
    /// Tombstones for online deletes.
    deleted: Vec<bool>,
    /// Whether `base` lags `layer0` (set by online inserts, cleared by
    /// [`MutableIndex::sync_base_graph`]).
    base_dirty: bool,
    /// The construction-time search, reused by every link.
    search: GreedySearch,
}

impl Hnsw {
    /// Builds the index over `base` vectors.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn build(base: &Dataset, params: HnswParams) -> Self {
        assert!(!base.is_empty(), "dataset must not be empty");
        let n = base.len();
        let mut index = Self {
            params,
            base: Csr::from_adjacency(&[]).expect("empty adjacency is valid"),
            layer0: Vec::with_capacity(n),
            upper: Vec::new(),
            entry: 0,
            entry_level: 0,
            level_rng: Pcg32::seed_from_u64(params.seed),
            level_mult: 1.0 / (params.m as f64).ln().max(0.5),
            deleted: Vec::new(),
            base_dirty: false,
            search: GreedySearch::default(),
        };
        for v in 0..n as u32 {
            index.link_next(base, v);
        }
        // Deduplicate layer-0 lists (the per-vertex prunes already keep
        // touched lists sorted; this catches the final unpruned pushes).
        for list in &mut index.layer0 {
            list.sort_unstable();
            list.dedup();
        }
        index.rebuild_base();
        index
    }

    /// Samples a vertex's top layer from the geometric distribution.
    fn sample_level(&mut self) -> usize {
        let u: f64 = self.level_rng.next_f64().max(1e-12);
        ((-u.ln() * self.level_mult) as usize).min(12)
    }

    /// Refreshes the layer-0 CSR snapshot from the adjacency lists.
    fn rebuild_base(&mut self) {
        self.base = Csr::from_adjacency(&self.layer0).expect("layer0 ids validated");
        self.base_dirty = false;
    }

    /// Appends vertex `v` (the next id) and links it into every layer —
    /// the construction kernel, shared verbatim by [`Hnsw::build`] and the
    /// online [`MutableIndex::insert`]. Returns the layer-0 vertices whose
    /// lists changed.
    fn link_next(&mut self, base: &Dataset, v: VectorId) -> Vec<VectorId> {
        let v_level = self.sample_level();
        self.layer0.push(Vec::new());
        self.deleted.push(false);
        if v == 0 {
            self.entry = 0;
            self.entry_level = v_level;
            while self.upper.len() < v_level {
                self.upper.push(LayerAdj::default());
            }
            for layer in self.upper.iter_mut().take(v_level) {
                layer.lists.insert(0, Vec::new());
            }
            return Vec::new();
        }

        let params = self.params;
        let (dist, ef) = (params.distance, params.ef_construction);
        let q = base.vector(v).to_vec();
        let mut cur = self.entry;
        let mut repaired = Vec::new();

        // Greedy descent through layers above v_level.
        let mut l = self.entry_level;
        while l > v_level {
            if l >= 1 {
                cur = greedy_upper(base, &self.upper[l - 1], &q, cur, dist);
            }
            l -= 1;
        }

        // Insert into layers min(v_level, entry_level) .. 0.
        let top_insert = v_level.min(self.entry_level);
        let mut layer = top_insert;
        loop {
            let max_links = if layer == 0 { params.m * 2 } else { params.m };
            if layer == 0 {
                let layer0 = &self.layer0;
                self.search
                    .run(base, |u| layer0[u as usize].as_slice(), &q, cur, ef, dist);
            } else {
                let adj = &self.upper[layer - 1];
                let neighbors_of = |u| adj.lists.get(&u).map_or(&[][..], Vec::as_slice);
                self.search.run(base, neighbors_of, &q, cur, ef, dist);
            }
            // Tombstoned vertices may route the descent but never earn
            // new links (a no-op during build, where nothing is deleted).
            let live: Vec<Neighbor> = self
                .search
                .top()
                .filter(|c| !self.deleted[c.id as usize])
                .collect();
            let selected = select_neighbors(base, &q, &live, params.m, dist);
            if let Some(best) = selected.first() {
                cur = best.id;
            }
            for &nb in selected.iter().map(|s| &s.id) {
                if layer == 0 {
                    self.layer0[v as usize].push(nb);
                    self.layer0[nb as usize].push(v);
                    prune_list(base, nb, &mut self.layer0[nb as usize], params.m * 2, dist);
                    repaired.push(nb);
                } else {
                    let adj = &mut self.upper[layer - 1];
                    adj.lists.entry(v).or_default().push(nb);
                    adj.lists.entry(nb).or_default().push(v);
                    let list = adj.lists.get_mut(&nb).expect("just inserted");
                    prune_hash_list(base, nb, list, max_links, dist);
                }
            }
            if layer == 0 {
                prune_list(base, v, &mut self.layer0[v as usize], params.m * 2, dist);
            } else if let Some(list) = self.upper[layer - 1].lists.get_mut(&v) {
                prune_hash_list(base, v, list, max_links, dist);
            }
            if layer == 0 {
                break;
            }
            layer -= 1;
        }

        if v_level > self.entry_level {
            self.entry = v;
            self.entry_level = v_level;
            while self.upper.len() < v_level {
                self.upper.push(LayerAdj::default());
            }
            for layer in self.upper.iter_mut().take(v_level) {
                layer.lists.entry(v).or_default();
            }
        }
        repaired
    }

    /// Construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// The hierarchy's entry point.
    pub fn entry_point(&self) -> VectorId {
        self.entry
    }

    /// Number of upper layers.
    pub fn num_upper_layers(&self) -> usize {
        self.upper.len()
    }

    /// Searches a single query, recording the trace.
    pub fn search_one(
        &self,
        base: &Dataset,
        query: &[f32],
        params: &SearchParams,
        visited: &mut VisitedSet,
    ) -> (Vec<Neighbor>, QueryTrace) {
        let mut trace = QueryTrace::default();
        let mut cur = self.entry;
        // Descend upper layers greedily (recording their accesses too: the
        // upper layers also live on flash).
        for layer in (0..self.upper.len()).rev() {
            cur = greedy_upper_traced(
                base,
                &self.upper[layer],
                query,
                cur,
                self.params.distance,
                &mut trace,
            );
        }
        let mut out = beam_search(
            base,
            &self.base,
            query,
            &[cur],
            params.beam_width,
            params.distance,
            visited,
        );
        trace.iterations.append(&mut out.trace.iterations);
        out.found.truncate(params.k);
        (out.found, trace)
    }
}

impl GraphAnnsIndex for Hnsw {
    fn algorithm(&self) -> AnnsAlgorithm {
        AnnsAlgorithm::Hnsw
    }

    fn base_graph(&self) -> &Csr {
        &self.base
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
            let (found, trace) = self.search_one(base, q, params, &mut visited);
            results.push(found);
            traces.push(trace);
        }
        SearchOutput {
            results,
            trace: BatchTrace { queries: traces },
        }
    }
}

impl MutableIndex for Hnsw {
    fn insert(&mut self, base: &Dataset, id: VectorId) -> InsertReport {
        assert_eq!(
            id as usize,
            self.layer0.len(),
            "insert must link the next id"
        );
        assert_eq!(
            base.len(),
            self.layer0.len() + 1,
            "the vector must already be appended to the dataset"
        );
        let repaired = self.link_next(base, id);
        self.base_dirty = true;
        InsertReport { id, repaired }
    }

    fn num_vertices(&self) -> usize {
        self.layer0.len()
    }

    fn live_neighbors(&self, id: VectorId) -> &[VectorId] {
        &self.layer0[id as usize]
    }

    fn sync_base_graph(&mut self) {
        if self.base_dirty {
            self.rebuild_base();
        }
    }

    fn delete(&mut self, id: VectorId) -> bool {
        !std::mem::replace(&mut self.deleted[id as usize], true)
    }

    fn is_deleted(&self, id: VectorId) -> bool {
        self.deleted[id as usize]
    }

    fn live_count(&self) -> usize {
        self.deleted.iter().filter(|&&d| !d).count()
    }

    fn boxed_clone(&self) -> Box<dyn MutableIndex> {
        Box::new(self.clone())
    }
}

/// Greedy walk on a sparse upper layer (no trace).
fn greedy_upper(
    base: &Dataset,
    adj: &LayerAdj,
    query: &[f32],
    entry: VectorId,
    dist: DistanceKind,
) -> VectorId {
    let mut trace = QueryTrace::default();
    greedy_upper_inner(base, adj, query, entry, dist, &mut trace)
}

fn greedy_upper_traced(
    base: &Dataset,
    adj: &LayerAdj,
    query: &[f32],
    entry: VectorId,
    dist: DistanceKind,
    trace: &mut QueryTrace,
) -> VectorId {
    greedy_upper_inner(base, adj, query, entry, dist, trace)
}

fn greedy_upper_inner(
    base: &Dataset,
    adj: &LayerAdj,
    query: &[f32],
    entry: VectorId,
    dist: DistanceKind,
    trace: &mut QueryTrace,
) -> VectorId {
    let mut cur = Neighbor::new(dist.eval(query, base.vector(entry)), entry);
    let mut scratch: Vec<f32> = Vec::new();
    loop {
        let Some(neighbors) = adj.lists.get(&cur.id) else {
            return cur.id;
        };
        let mut best = cur;
        // One batched kernel call per expansion instead of per-edge eval.
        let visited: Vec<VectorId> = neighbors.clone();
        dist.eval_batch_ids(query, base, &visited, &mut scratch);
        for (&nb, &d) in visited.iter().zip(&scratch) {
            let c = Neighbor::new(d, nb);
            if c < best {
                best = c;
            }
        }
        if !visited.is_empty() {
            trace.iterations.push(crate::trace::IterationTrace {
                entry: cur.id,
                visited,
            });
        }
        if best.id == cur.id {
            return cur.id;
        }
        cur = best;
    }
}

/// The HNSW select-neighbors heuristic: scan candidates in ascending
/// distance; keep one if it is closer to the query than to every already
/// kept neighbor. Falls back to nearest-first fill if too few survive.
fn select_neighbors(
    base: &Dataset,
    query: &[f32],
    candidates: &[Neighbor],
    m: usize,
    dist: DistanceKind,
) -> Vec<Neighbor> {
    let _ = query;
    let mut kept: Vec<Neighbor> = Vec::with_capacity(m);
    for &c in candidates {
        if kept.len() >= m {
            break;
        }
        let dominated = kept
            .iter()
            .any(|&s| dist.eval(base.vector(c.id), base.vector(s.id)) < c.distance);
        if !dominated {
            kept.push(c);
        }
    }
    if kept.len() < m {
        for &c in candidates {
            if kept.len() >= m {
                break;
            }
            if !kept.iter().any(|s| s.id == c.id) {
                kept.push(c);
            }
        }
    }
    kept
}

/// Prunes a vertex's layer-0 list to `max_links` using nearest-first.
fn prune_list(
    base: &Dataset,
    owner: VectorId,
    list: &mut Vec<VectorId>,
    max_links: usize,
    dist: DistanceKind,
) {
    list.sort_unstable();
    list.dedup();
    if list.len() <= max_links {
        return;
    }
    let ov = base.vector(owner).to_vec();
    list.sort_by(|&a, &b| {
        let da = dist.eval(&ov, base.vector(a));
        let db = dist.eval(&ov, base.vector(b));
        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
    });
    list.truncate(max_links);
}

fn prune_hash_list(
    base: &Dataset,
    owner: VectorId,
    list: &mut Vec<VectorId>,
    max_links: usize,
    dist: DistanceKind,
) {
    prune_list(base, owner, list, max_links, dist);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_vector::recall::{ground_truth, recall_at_k};
    use ndsearch_vector::synthetic::DatasetSpec;

    #[test]
    fn build_produces_connected_base_layer() {
        let ds = DatasetSpec::sift_scaled(400, 1).build();
        let index = Hnsw::build(&ds, HnswParams::default());
        let g = index.base_graph();
        assert_eq!(g.num_vertices(), 400);
        // Every vertex has at least one link.
        let isolated = (0..400u32).filter(|&v| g.degree(v) == 0).count();
        assert_eq!(isolated, 0, "{isolated} isolated vertices");
        // Degrees bounded by 2M.
        assert!(g.max_degree() <= 2 * index.params().m);
    }

    #[test]
    fn recall_is_high_on_clustered_data() {
        let spec = DatasetSpec::sift_scaled(800, 20);
        let (base, queries) = spec.build_pair();
        let index = Hnsw::build(&base, HnswParams::default());
        let params = SearchParams::new(10, 80, DistanceKind::L2);
        let out = index.search_batch(&base, &queries, &params);
        let gt = ground_truth(&base, &queries, 10, DistanceKind::L2);
        let r = recall_at_k(&gt, &out.id_lists(), 10);
        assert!(r >= 0.90, "recall@10 = {r}");
    }

    #[test]
    fn traces_accompany_results() {
        let spec = DatasetSpec::deep_scaled(300, 5);
        let (base, queries) = spec.build_pair();
        let index = Hnsw::build(&base, HnswParams::default());
        let out = index.search_batch(&base, &queries, &SearchParams::default());
        assert_eq!(out.trace.len(), 5);
        for q in &out.trace.queries {
            assert!(!q.is_empty(), "every query should visit vertices");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let ds = DatasetSpec::glove_scaled(200, 1).build();
        let a = Hnsw::build(&ds, HnswParams::default());
        let b = Hnsw::build(&ds, HnswParams::default());
        assert_eq!(a.base_graph(), b.base_graph());
        assert_eq!(a.entry_point(), b.entry_point());
    }

    #[test]
    fn search_self_returns_self() {
        let ds = DatasetSpec::sift_scaled(300, 1).build();
        let index = Hnsw::build(&ds, HnswParams::default());
        let mut vs = VisitedSet::new(ds.len());
        let (found, _) = index.search_one(
            &ds,
            ds.vector(42),
            &SearchParams::new(1, 32, DistanceKind::L2),
            &mut vs,
        );
        assert_eq!(found[0].id, 42);
    }

    #[test]
    #[should_panic(expected = "dataset must not be empty")]
    fn empty_dataset_panics() {
        Hnsw::build(&Dataset::new(4), HnswParams::default());
    }

    #[test]
    fn incremental_insert_matches_rebuild_recall() {
        let (full, queries) = DatasetSpec::sift_scaled(700, 16).build_pair();
        let n0 = 550;
        let mut prefix = Dataset::new(full.dim());
        for (_, v) in full.iter().take(n0) {
            prefix.try_push(v).unwrap();
        }
        prefix.set_stored_vector_bytes(full.stored_vector_bytes());
        let mut live = Hnsw::build(&prefix, HnswParams::default());
        for id in n0..full.len() {
            prefix.try_push(full.vector(id as VectorId)).unwrap();
            let rep = live.insert(&prefix, id as VectorId);
            assert_eq!(rep.id as usize, id);
        }
        live.sync_base_graph();
        assert_eq!(live.base_graph().num_vertices(), full.len());
        assert!(live.base_graph().max_degree() <= 2 * live.params().m);

        let rebuilt = Hnsw::build(&full, HnswParams::default());
        let params = SearchParams::new(10, 80, DistanceKind::L2);
        let gt = ndsearch_vector::recall::ground_truth(&full, &queries, 10, DistanceKind::L2);
        let r_live = recall_at_k(
            &gt,
            &live.search_batch(&full, &queries, &params).id_lists(),
            10,
        );
        let r_rebuilt = recall_at_k(
            &gt,
            &rebuilt.search_batch(&full, &queries, &params).id_lists(),
            10,
        );
        assert!(
            r_live >= r_rebuilt - 0.02,
            "live overlay recall {r_live} trails rebuild {r_rebuilt} by more than 0.02"
        );
    }

    #[test]
    fn restructured_build_matches_incremental_prefix() {
        // Building on n vectors must equal building on a prefix and
        // inserting the rest — the build loop and the online insert are
        // the same kernel consuming the same level-sampling stream.
        let ds = DatasetSpec::glove_scaled(260, 1).build();
        let whole = Hnsw::build(&ds, HnswParams::default());
        let mut prefix = Dataset::new(ds.dim());
        for (_, v) in ds.iter().take(200) {
            prefix.try_push(v).unwrap();
        }
        let mut grown = Hnsw::build(&prefix, HnswParams::default());
        for id in 200..ds.len() {
            prefix.try_push(ds.vector(id as VectorId)).unwrap();
            grown.insert(&prefix, id as VectorId);
        }
        grown.sync_base_graph();
        // The graphs are not byte-identical (the final build pass dedups
        // globally while inserts dedup incrementally), but the entry point
        // and vertex/degree structure must line up.
        assert_eq!(grown.entry_point(), whole.entry_point());
        assert_eq!(grown.num_upper_layers(), whole.num_upper_layers());
        assert_eq!(
            grown.base_graph().num_vertices(),
            whole.base_graph().num_vertices()
        );
    }

    #[test]
    fn inserts_avoid_linking_to_tombstones() {
        let mut ds = DatasetSpec::sift_scaled(150, 1).build();
        let mut index = Hnsw::build(&ds, HnswParams::default());
        for v in 0..20u32 {
            index.delete(v);
        }
        let v = ds.vector(30).to_vec();
        let id = ds.try_push(&v).unwrap();
        let rep = index.insert(&ds, id);
        index.sync_base_graph();
        for &nb in index.base_graph().neighbors(id) {
            assert!(!index.is_deleted(nb), "linked to tombstoned {nb}");
        }
        for &r in &rep.repaired {
            assert!(!index.is_deleted(r), "repaired a tombstoned vertex {r}");
        }
    }

    #[test]
    fn delete_tombstones() {
        let ds = DatasetSpec::sift_scaled(120, 1).build();
        let mut index = Hnsw::build(&ds, HnswParams::default());
        assert!(index.delete(3));
        assert!(!index.delete(3));
        assert!(index.is_deleted(3));
        assert_eq!(index.live_count(), 119);
    }
}
