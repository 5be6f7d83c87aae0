//! Vamana — the graph behind DiskANN (Subramanya et al., NeurIPS'19).
//!
//! Vamana builds a single-layer, degree-bounded (R) proximity graph by
//! iterating over vertices in random order: greedy-search the current graph
//! from the medoid with the vertex as the query, then *robust-prune* the
//! visited set with slack factor α (> 1 keeps longer-range "highway" edges,
//! giving DiskANN its few-hop searches). Two passes are run, the first with
//! α = 1 and the second with the target α. Search is a plain beam search
//! from the medoid — identical to HNSW's layer-0 search, which is why both
//! share [`crate::beam::beam_search`].
//!
//! Construction and the online insert run on one reusable scratch over a
//! flat adjacency, and re-prune an overflowing row incrementally; the
//! "Index construction" section of `docs/ARCHITECTURE.md` has the layout
//! and the argument for why that is exact.

use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::rng::Pcg32;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::beam::{beam_search, Scored, VisitedSet};
use crate::build::GreedySearch;
use crate::index::{
    AnnsAlgorithm, GraphAnnsIndex, InsertReport, MutableIndex, SearchOutput, SearchParams,
};
use crate::trace::BatchTrace;

/// Vamana construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VamanaParams {
    /// Max out-degree R (the paper's data-layout example uses R = 32).
    pub r: usize,
    /// Construction beam width (DiskANN's L).
    pub l_build: usize,
    /// Pruning slack α for the second pass.
    pub alpha: f32,
    /// Distance function.
    pub distance: DistanceKind,
    /// RNG seed (random init graph + iteration order).
    pub seed: u64,
}

impl Default for VamanaParams {
    fn default() -> Self {
        Self {
            r: 32,
            l_build: 75,
            alpha: 1.2,
            distance: DistanceKind::L2,
            seed: 0xD15C,
        }
    }
}

/// A built Vamana/DiskANN index.
///
/// The adjacency rows are retained after construction so online inserts
/// can run the same greedy-search + RobustPrune kernel the build passes
/// use, repairing backlinks of affected vertices
/// ([`MutableIndex::insert`]). The rows are what a mutable deployment
/// searches; the CSR lags them until [`MutableIndex::sync_base_graph`]
/// (an O(V+E) rebuild, for staging and compaction only).
#[derive(Debug, Clone)]
pub struct Vamana {
    params: VamanaParams,
    /// CSR snapshot of `rows`.
    graph: Csr,
    /// Mutable adjacency — the source of truth.
    rows: Rows,
    medoid: VectorId,
    /// Tombstones for online deletes.
    deleted: Vec<bool>,
    /// Whether `graph` lags `rows` (set by online inserts, cleared by
    /// [`MutableIndex::sync_base_graph`]).
    graph_dirty: bool,
    scratch: Scratch,
}

/// Flat mutable adjacency: vertex `v`'s out-list is the first `degree[v]`
/// ids of the `R + 1`-id row at `v * (R + 1)`. A row holds at most R ids
/// between operations; the spare slot takes the backlink that overflows it
/// until the re-prune that follows at once.
///
/// `clean[v]` is the length of the row prefix that is, in order, the
/// output of one RobustPrune of `v` under the α now in force: a prune sets
/// it to the row length, a pushed backlink leaves it, and a change of α
/// zeroes it. Every pair inside that prefix has already been tested "not
/// dominated", which is what lets [`link`] re-prune an overflowing row
/// without re-testing them.
#[derive(Debug, Clone)]
struct Rows {
    stride: usize,
    ids: Vec<VectorId>,
    degree: Vec<u32>,
    clean: Vec<u32>,
}

impl Rows {
    fn new(r: usize, n: usize) -> Self {
        let stride = r + 1;
        Self {
            stride,
            ids: vec![0; n * stride],
            degree: vec![0; n],
            clean: vec![0; n],
        }
    }

    fn len(&self) -> usize {
        self.degree.len()
    }

    fn push_vertex(&mut self) {
        self.ids.resize(self.ids.len() + self.stride, 0);
        self.degree.push(0);
        self.clean.push(0);
    }

    fn row(&self, v: VectorId) -> &[VectorId] {
        let start = v as usize * self.stride;
        &self.ids[start..start + self.degree[v as usize] as usize]
    }

    /// The prefix of `v`'s row a RobustPrune wrote (see the type docs).
    fn clean_prefix(&self, v: VectorId) -> &[VectorId] {
        &self.row(v)[..self.clean[v as usize] as usize]
    }

    fn push(&mut self, v: VectorId, nb: VectorId) {
        let degree = self.degree[v as usize] as usize;
        debug_assert!(degree < self.stride, "row {v} is full before a push");
        debug_assert!(!self.row(v).contains(&nb), "row {v} already holds {nb}");
        self.ids[v as usize * self.stride + degree] = nb;
        self.degree[v as usize] += 1;
    }

    /// Replaces `v`'s row with the output of a RobustPrune.
    fn set_pruned(&mut self, v: VectorId, kept: &[VectorId]) {
        debug_assert!(kept.len() < self.stride, "a prune keeps at most R");
        let start = v as usize * self.stride;
        self.ids[start..start + kept.len()].copy_from_slice(kept);
        self.degree[v as usize] = kept.len() as u32;
        self.clean[v as usize] = kept.len() as u32;
    }

    fn to_csr(&self) -> Csr {
        Csr::from_rows((0..self.len() as VectorId).map(|v| self.row(v)))
            .expect("ids validated when linked")
    }
}

/// Buffers one build or one run of inserts reuses for every vertex.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The greedy search; its pool doubles as every prune's candidate list.
    search: GreedySearch,
    dists: Vec<f32>,
    /// The last prune's survivors, nearest first, and those of them that
    /// were not `settled` (see [`robust_prune`]).
    kept: Vec<VectorId>,
    kept_fresh: Vec<VectorId>,
}

impl Vamana {
    /// Builds the index.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn build(base: &Dataset, params: VamanaParams) -> Self {
        assert!(!base.is_empty(), "dataset must not be empty");
        let n = base.len();
        let dist = params.distance;
        let mut rng = Pcg32::seed_from_u64(params.seed);

        // Random R-regular initial graph.
        let mut rows = Rows::new(params.r, n);
        for v in 0..n as VectorId {
            while rows.row(v).len() < params.r.min(n - 1) {
                let c = rng.index(n) as VectorId;
                if c != v && !rows.row(v).contains(&c) {
                    rows.push(v, c);
                }
            }
        }

        let medoid = approximate_medoid(base, dist);
        let mut order: Vec<VectorId> = (0..n as u32).collect();
        let mut scratch = Scratch::default();

        // Two passes: α = 1.0 then the target α.
        for alpha in [1.0f32, params.alpha] {
            // Prefixes pruned under the previous α prove nothing under
            // this one.
            rows.clean.fill(0);
            rng.shuffle(&mut order);
            for &v in &order {
                let q = base.vector(v);
                // Greedy search the current graph for v's neighborhood.
                let search = &mut scratch.search;
                search.run(base, |u| rows.row(u), q, medoid, params.l_build, dist);
                search.pool.retain(|nb| nb.id() != v);
                // Include current neighbors the search did not reach.
                for &nb in rows.row(v) {
                    if !search.seen.contains(nb) {
                        let d = dist.eval(q, base.vector(nb));
                        search.pool.push(Scored::new(d, nb));
                    }
                }
                link(base, &mut rows, v, alpha, &params, &mut scratch, |_| {});
            }
        }

        let graph = rows.to_csr();
        let deleted = vec![false; n];
        Self {
            params,
            graph,
            rows,
            medoid,
            deleted,
            graph_dirty: false,
            scratch,
        }
    }

    /// Construction parameters.
    pub fn params(&self) -> &VamanaParams {
        &self.params
    }

    /// The medoid used as the search entry point.
    pub fn medoid(&self) -> VectorId {
        self.medoid
    }
}

impl MutableIndex for Vamana {
    fn insert(&mut self, base: &Dataset, id: VectorId) -> InsertReport {
        assert_eq!(id as usize, self.rows.len(), "insert must link the next id");
        assert_eq!(
            base.len(),
            self.rows.len() + 1,
            "the vector must already be appended to the dataset"
        );
        let params = self.params;
        self.rows.push_vertex();
        self.deleted.push(false);
        // Greedy-search the live graph from the medoid with the new vector
        // as the query — exactly the build pass — then RobustPrune the
        // visited pool into the vertex's out-list. Tombstoned vertices stay
        // routable mid-search but are not linked to.
        let (rows, deleted) = (&self.rows, &self.deleted);
        let search = &mut self.scratch.search;
        search.run(
            base,
            |u| rows.row(u),
            base.vector(id),
            self.medoid,
            params.l_build,
            params.distance,
        );
        search
            .pool
            .retain(|nb| nb.id() != id && !deleted[nb.id() as usize]);
        // Backlink repair: every selected neighbor gains an edge to `id`,
        // re-pruned when its list overflows R.
        let mut repaired = Vec::with_capacity(params.r);
        link(
            base,
            &mut self.rows,
            id,
            params.alpha,
            &params,
            &mut self.scratch,
            |nb| repaired.push(nb),
        );
        self.graph_dirty = true;
        InsertReport { id, repaired }
    }

    fn num_vertices(&self) -> usize {
        self.rows.len()
    }

    fn live_neighbors(&self, id: VectorId) -> &[VectorId] {
        self.rows.row(id)
    }

    fn sync_base_graph(&mut self) {
        if self.graph_dirty {
            self.graph = self.rows.to_csr();
            self.graph_dirty = false;
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

impl GraphAnnsIndex for Vamana {
    fn algorithm(&self) -> AnnsAlgorithm {
        AnnsAlgorithm::DiskAnn
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
            let mut out = beam_search(
                base,
                &self.graph,
                q,
                &[self.medoid],
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

/// Vertex closest to the dataset centroid (cheap medoid approximation).
pub fn approximate_medoid(base: &Dataset, dist: DistanceKind) -> VectorId {
    let dim = base.dim();
    let mut centroid = vec![0.0f32; dim];
    for (_, v) in base.iter() {
        for (c, x) in centroid.iter_mut().zip(v) {
            *c += x;
        }
    }
    let n = base.len() as f32;
    for c in &mut centroid {
        *c /= n;
    }
    let mut best = Neighbor::new(f32::INFINITY, 0);
    for (id, v) in base.iter() {
        let d = dist.eval(&centroid, v);
        let cand = Neighbor::new(d, id);
        if cand < best {
            best = cand;
        }
    }
    best.id
}

/// The linking step shared by the build passes and the online insert:
/// RobustPrunes the candidate pool (`scratch.search.pool`, distances from
/// `v`) into `v`'s row, then gives every kept neighbor the reverse edge,
/// re-pruning a row the moment it exceeds R. `backlinked` hears each
/// neighbor that gained the edge.
fn link(
    base: &Dataset,
    rows: &mut Rows,
    v: VectorId,
    alpha: f32,
    params: &VamanaParams,
    scratch: &mut Scratch,
    mut backlinked: impl FnMut(VectorId),
) {
    let Scratch {
        search,
        dists,
        kept,
        kept_fresh,
    } = scratch;
    let pool = &mut search.pool;
    robust_prune(base, pool, &[], alpha, params, kept, kept_fresh);
    rows.set_pruned(v, kept);
    // `v`'s own row is not touched below, so it can be walked in place.
    for i in 0..rows.row(v).len() {
        let nb = rows.row(v)[i];
        if rows.row(nb).contains(&v) {
            continue;
        }
        rows.push(nb, v);
        if rows.row(nb).len() > params.r {
            let row = rows.row(nb);
            let from = base.vector(nb);
            params.distance.eval_batch_ids(from, base, row, dists);
            pool.clear();
            pool.extend(row.iter().zip(&*dists).map(|(&u, &d)| Scored::new(d, u)));
            let settled = rows.clean_prefix(nb);
            robust_prune(base, pool, settled, alpha, params, kept, kept_fresh);
            rows.set_pruned(nb, kept);
        }
        backlinked(nb);
    }
}

/// DiskANN's RobustPrune: scan candidates nearest-first; keep `c` unless an
/// already kept neighbor `s` satisfies α · d(s, c) ≤ d(v, c). Leaves at
/// most `r` survivors in `kept`, ascending.
///
/// `settled` names candidates that an earlier prune of the same vertex,
/// under the same α, kept together. Such a pair needs no second test: the
/// earlier prune scanned them in this same order and found the later one
/// not dominated by the earlier, `any` does not care how many other
/// keepers stand between them, and dropping a keeper cannot make another
/// candidate dominated. So a settled candidate is tested only against the
/// keepers that are not settled (`kept_fresh`), everything else against
/// all of them — the decisions of the full pairwise scan at a fraction of
/// its distance evaluations when one backlink overflows a row.
fn robust_prune(
    base: &Dataset,
    pool: &mut [Scored],
    settled: &[VectorId],
    alpha: f32,
    params: &VamanaParams,
    kept: &mut Vec<VectorId>,
    kept_fresh: &mut Vec<VectorId>,
) {
    pool.sort_unstable();
    kept.clear();
    kept_fresh.clear();
    for c in pool.iter() {
        if kept.len() >= params.r {
            break;
        }
        let is_settled = settled.contains(&c.id());
        let rivals = if is_settled { &*kept_fresh } else { &*kept };
        let (cv, from_v) = (base.vector(c.id()), c.distance());
        // Latest keeper first: it is the nearest in rank to `c` and the
        // likeliest to dominate it, so `any` stops about a third sooner
        // than scanning from the front (1 100 vs 1 700 evaluations per
        // vertex at n = 8 000); the answer does not depend on the order.
        let dominated = rivals
            .iter()
            .rev()
            .any(|&s| alpha * params.distance.eval(base.vector(s), cv) <= from_v);
        if !dominated {
            kept.push(c.id());
            if !is_settled {
                kept_fresh.push(c.id());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_vector::recall::{ground_truth, recall_at_k};
    use ndsearch_vector::synthetic::DatasetSpec;

    /// RobustPrune with nothing settled, as the main prune of a vertex.
    fn prune_from_scratch(
        ds: &Dataset,
        pool: Vec<Neighbor>,
        alpha: f32,
        r: usize,
    ) -> Vec<VectorId> {
        let mut pool: Vec<Scored> = pool.iter().map(|n| Scored::new(n.distance, n.id)).collect();
        let params = VamanaParams {
            r,
            ..VamanaParams::default()
        };
        let (mut kept, mut kept_fresh) = (Vec::new(), Vec::new());
        robust_prune(
            ds,
            &mut pool,
            &[],
            alpha,
            &params,
            &mut kept,
            &mut kept_fresh,
        );
        kept
    }

    #[test]
    fn degrees_are_bounded_by_r() {
        let ds = DatasetSpec::sift_scaled(400, 1).build();
        let index = Vamana::build(&ds, VamanaParams::default());
        assert!(index.base_graph().max_degree() <= index.params().r);
    }

    #[test]
    fn recall_is_high() {
        let spec = DatasetSpec::deep_scaled(800, 20);
        let (base, queries) = spec.build_pair();
        let index = Vamana::build(&base, VamanaParams::default());
        let params = SearchParams::new(10, 80, DistanceKind::L2);
        let out = index.search_batch(&base, &queries, &params);
        let gt = ground_truth(&base, &queries, 10, DistanceKind::L2);
        let r = recall_at_k(&gt, &out.id_lists(), 10);
        assert!(r >= 0.90, "recall@10 = {r}");
    }

    #[test]
    fn medoid_is_central() {
        // On a line of points, the medoid must be near the middle.
        let ds = Dataset::from_rows(1, (0..101).map(|i| vec![i as f32]).collect()).unwrap();
        let m = approximate_medoid(&ds, DistanceKind::L2);
        assert_eq!(m, 50);
    }

    #[test]
    fn build_is_deterministic() {
        let ds = DatasetSpec::spacev_scaled(300, 1).build();
        let a = Vamana::build(&ds, VamanaParams::default());
        let b = Vamana::build(&ds, VamanaParams::default());
        assert_eq!(a.base_graph(), b.base_graph());
    }

    #[test]
    fn robust_prune_respects_r() {
        let ds = DatasetSpec::sift_scaled(100, 1).build();
        let pool: Vec<Neighbor> = (1..100u32)
            .map(|i| Neighbor::new(DistanceKind::L2.eval_ids(&ds, 0, i), i))
            .collect();
        let kept = prune_from_scratch(&ds, pool, 1.2, 8);
        assert!(kept.len() <= 8);
        assert!(!kept.contains(&0));
    }

    #[test]
    fn incremental_insert_matches_rebuild_recall() {
        // Build on a prefix, insert the rest online, and compare recall on
        // the live overlay with a from-scratch rebuild at equal parameters.
        let (full, queries) = DatasetSpec::deep_scaled(700, 16).build_pair();
        let n0 = 550;
        let mut prefix = Dataset::new(full.dim());
        for (_, v) in full.iter().take(n0) {
            prefix.try_push(v).unwrap();
        }
        prefix.set_stored_vector_bytes(full.stored_vector_bytes());
        let mut live = Vamana::build(&prefix, VamanaParams::default());
        for id in n0..full.len() {
            prefix.try_push(full.vector(id as VectorId)).unwrap();
            let rep = live.insert(&prefix, id as VectorId);
            assert_eq!(rep.id as usize, id);
            assert!(!rep.repaired.is_empty(), "insert {id} linked no backedges");
        }
        live.sync_base_graph();
        assert_eq!(live.base_graph().num_vertices(), full.len());
        assert!(live.base_graph().max_degree() <= live.params().r);

        let rebuilt = Vamana::build(&full, VamanaParams::default());
        let params = SearchParams::new(10, 80, DistanceKind::L2);
        let gt = ground_truth(&full, &queries, 10, DistanceKind::L2);
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
    fn clean_prefix_stays_a_sorted_prefix_of_the_row() {
        // Small R so nearly every backlink overflows a row, and inserted
        // vectors that duplicate base rows so distances tie.
        let mut ds = DatasetSpec::sift_scaled(300, 1).build();
        let params = VamanaParams {
            r: 6,
            ..VamanaParams::default()
        };
        let mut index = Vamana::build(&ds, params);
        let mut rng = Pcg32::seed_from_u64(9);
        for step in 0..=150 {
            for u in 0..ds.len() as VectorId {
                // Slicing panics if `clean` exceeds the degree.
                let prefix: Vec<Neighbor> = index
                    .rows
                    .clean_prefix(u)
                    .iter()
                    .map(|&e| Neighbor::new(params.distance.eval_ids(&ds, u, e), e))
                    .collect();
                assert!(
                    prefix.windows(2).all(|w| w[0] < w[1]),
                    "row {u} after {step} operations: {prefix:?}"
                );
                assert!(index.rows.row(u).len() <= params.r);
            }
            if rng.chance(0.3) {
                index.delete(rng.index(ds.len()) as VectorId);
            } else {
                let mut row = ds.vector(rng.index(ds.len()) as VectorId).to_vec();
                if rng.chance(0.5) {
                    row[0] += 1.0;
                }
                let id = ds.try_push(&row).unwrap();
                index.insert(&ds, id);
            }
        }
    }

    #[test]
    fn delete_tombstones_without_unlinking() {
        let ds = DatasetSpec::sift_scaled(200, 1).build();
        let mut index = Vamana::build(&ds, VamanaParams::default());
        assert_eq!(index.live_count(), 200);
        assert!(index.delete(7));
        assert!(!index.delete(7), "double delete is a no-op");
        assert!(index.is_deleted(7));
        assert_eq!(index.live_count(), 199);
        // The vertex stays routable: the graph still holds its edges.
        assert!(!index.base_graph().neighbors(7).is_empty());
    }

    #[test]
    fn inserts_avoid_linking_to_tombstones() {
        let mut ds = DatasetSpec::sift_scaled(150, 1).build();
        let mut index = Vamana::build(&ds, VamanaParams::default());
        for v in 0..20u32 {
            index.delete(v);
        }
        let v = ds.vector(30).to_vec();
        let id = ds.try_push(&v).unwrap();
        index.insert(&ds, id);
        assert_eq!(index.live_neighbors(id), {
            let mut ix = index.clone();
            ix.sync_base_graph();
            ix.base_graph().neighbors(id).to_vec()
        });
        index.sync_base_graph();
        for &nb in index.base_graph().neighbors(id) {
            assert!(!index.is_deleted(nb), "linked to tombstoned {nb}");
        }
    }

    #[test]
    fn alpha_one_keeps_fewer_long_edges() {
        let ds = DatasetSpec::sift_scaled(200, 1).build();
        let pool: Vec<Neighbor> = (1..200u32)
            .map(|i| Neighbor::new(DistanceKind::L2.eval_ids(&ds, 0, i), i))
            .collect();
        let tight = prune_from_scratch(&ds, pool.clone(), 1.0, 32);
        let slack = prune_from_scratch(&ds, pool, 1.5, 32);
        assert!(
            slack.len() >= tight.len(),
            "α>1 keeps at least as many edges ({} vs {})",
            slack.len(),
            tight.len()
        );
    }
}
