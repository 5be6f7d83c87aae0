//! HCNNG — hierarchical-clustering-based graphs (Munoz et al., Pattern
//! Recognition 2019), evaluated by the paper in Fig. 21.
//!
//! HCNNG repeats, for a number of rounds: hierarchically bisect the dataset
//! with random pivots until clusters are small, then connect each cluster
//! with a minimum spanning tree. The union of the MSTs over all rounds is
//! the graph. MST edges are short and tree-shaped, so the union of several
//! random trees yields a sparse graph that is both connected and local —
//! the "hierarchical clustering" counterpart of HNSW's navigability.
//! Search is the standard greedy kernel (the paper notes these optimized
//! algorithms still share the breadth-first search kernel).

use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::rng::Pcg32;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::beam::{beam_search, VisitedSet};
use crate::index::{AnnsAlgorithm, GraphAnnsIndex, SearchOutput, SearchParams};
use crate::trace::BatchTrace;
use crate::vamana::approximate_medoid;

/// HCNNG construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HcnngParams {
    /// Number of random-partition + MST rounds.
    pub rounds: usize,
    /// Maximum leaf cluster size.
    pub max_cluster: usize,
    /// Overall degree cap after unioning rounds.
    pub max_degree: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HcnngParams {
    fn default() -> Self {
        Self {
            rounds: 12,
            max_cluster: 48,
            max_degree: 32,
            seed: 0x4C9,
        }
    }
}

/// A built HCNNG index.
#[derive(Debug, Clone)]
pub struct Hcnng {
    params: HcnngParams,
    graph: Csr,
    entry: VectorId,
}

impl Hcnng {
    /// Builds the index.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn build(base: &Dataset, params: HcnngParams) -> Self {
        assert!(!base.is_empty(), "dataset must not be empty");
        let n = base.len();
        let dist = DistanceKind::L2;
        let mut adj: Vec<Vec<VectorId>> = vec![Vec::new(); n];
        let mut rng = Pcg32::seed_from_u64(params.seed);

        for round in 0..params.rounds {
            let mut round_rng = Pcg32::seed_from_u64(params.seed ^ (round as u64) << 17);
            let all: Vec<VectorId> = (0..n as u32).collect();
            let mut stack = vec![all];
            while let Some(cluster) = stack.pop() {
                if cluster.len() <= params.max_cluster.max(2) {
                    add_mst_edges(base, &cluster, dist, &mut adj);
                } else {
                    let (left, right) = bisect(base, &cluster, dist, &mut round_rng);
                    if left.is_empty() || right.is_empty() {
                        // Degenerate split: force an MST to terminate.
                        let merged = if left.is_empty() { right } else { left };
                        add_mst_edges(base, &merged, dist, &mut adj);
                    } else {
                        stack.push(left);
                        stack.push(right);
                    }
                }
            }
            let _ = &mut rng;
        }

        // Dedup and cap degree, keeping the shortest edges.
        for v in 0..n as u32 {
            let list = &mut adj[v as usize];
            list.sort_unstable();
            list.dedup();
            if list.len() > params.max_degree {
                let vv = base.vector(v).to_vec();
                list.sort_by(|&a, &b| {
                    let da = dist.eval(&vv, base.vector(a));
                    let db = dist.eval(&vv, base.vector(b));
                    da.partial_cmp(&db).unwrap().then(a.cmp(&b))
                });
                list.truncate(params.max_degree);
            }
        }

        let graph = Csr::from_adjacency(&adj).expect("ids validated");
        let entry = approximate_medoid(base, dist);
        Self {
            params,
            graph,
            entry,
        }
    }

    /// Construction parameters.
    pub fn params(&self) -> &HcnngParams {
        &self.params
    }

    /// The search entry point (approximate medoid).
    pub fn entry_point(&self) -> VectorId {
        self.entry
    }
}

impl GraphAnnsIndex for Hcnng {
    fn algorithm(&self) -> AnnsAlgorithm {
        AnnsAlgorithm::Hcnng
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
                &[self.entry],
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

/// Random two-pivot bisection of a cluster.
fn bisect(
    base: &Dataset,
    cluster: &[VectorId],
    dist: DistanceKind,
    rng: &mut Pcg32,
) -> (Vec<VectorId>, Vec<VectorId>) {
    let a = cluster[rng.index(cluster.len())];
    let mut b = cluster[rng.index(cluster.len())];
    let mut guard = 0;
    while b == a && guard < 16 {
        b = cluster[rng.index(cluster.len())];
        guard += 1;
    }
    let va = base.vector(a).to_vec();
    let vb = base.vector(b).to_vec();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &v in cluster {
        let da = dist.eval(&va, base.vector(v));
        let db = dist.eval(&vb, base.vector(v));
        if da <= db {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    (left, right)
}

/// Adds the edges of a Prim MST over `cluster` to `adj` (both directions).
fn add_mst_edges(
    base: &Dataset,
    cluster: &[VectorId],
    dist: DistanceKind,
    adj: &mut [Vec<VectorId>],
) {
    let s = cluster.len();
    if s < 2 {
        return;
    }
    // Prim over the dense cluster.
    let mut in_tree = vec![false; s];
    let mut best_d = vec![f32::INFINITY; s];
    let mut best_from = vec![0usize; s];
    in_tree[0] = true;
    for j in 1..s {
        best_d[j] = dist.eval(base.vector(cluster[0]), base.vector(cluster[j]));
        best_from[j] = 0;
    }
    for _ in 1..s {
        let mut pick = usize::MAX;
        let mut pick_d = f32::INFINITY;
        for j in 0..s {
            if !in_tree[j] && best_d[j] < pick_d {
                pick = j;
                pick_d = best_d[j];
            }
        }
        if pick == usize::MAX {
            break;
        }
        in_tree[pick] = true;
        let u = cluster[best_from[pick]];
        let v = cluster[pick];
        adj[u as usize].push(v);
        adj[v as usize].push(u);
        for j in 0..s {
            if !in_tree[j] {
                let d = dist.eval(base.vector(v), base.vector(cluster[j]));
                if d < best_d[j] {
                    best_d[j] = d;
                    best_from[j] = pick;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_vector::recall::{ground_truth, recall_at_k};
    use ndsearch_vector::synthetic::DatasetSpec;

    #[test]
    fn graph_is_connected_enough() {
        let ds = DatasetSpec::sift_scaled(400, 1).build();
        let index = Hcnng::build(&ds, HcnngParams::default());
        let g = index.base_graph();
        let isolated = (0..g.num_vertices() as u32)
            .filter(|&v| g.degree(v) == 0)
            .count();
        assert_eq!(isolated, 0);
        assert!(g.max_degree() <= index.params().max_degree);
    }

    #[test]
    fn recall_is_reasonable() {
        let spec = DatasetSpec::sift_scaled(600, 15);
        let (base, queries) = spec.build_pair();
        let index = Hcnng::build(&base, HcnngParams::default());
        let params = SearchParams::new(10, 80, DistanceKind::L2);
        let out = index.search_batch(&base, &queries, &params);
        let gt = ground_truth(&base, &queries, 10, DistanceKind::L2);
        let r = recall_at_k(&gt, &out.id_lists(), 10);
        assert!(r >= 0.80, "recall@10 = {r}");
    }

    #[test]
    fn mst_produces_spanning_edges() {
        let ds = Dataset::from_rows(1, (0..10).map(|i| vec![i as f32]).collect()).unwrap();
        let cluster: Vec<VectorId> = (0..10).collect();
        let mut adj = vec![Vec::new(); 10];
        add_mst_edges(&ds, &cluster, DistanceKind::L2, &mut adj);
        // A 10-vertex MST has 9 edges → 18 directed entries.
        let total: usize = adj.iter().map(Vec::len).sum();
        assert_eq!(total, 18);
        // On a line, the MST is the path: inner vertices get degree 2.
        assert_eq!(adj[5].len(), 2);
    }

    #[test]
    fn more_rounds_add_edges() {
        let ds = DatasetSpec::deep_scaled(300, 1).build();
        let few = Hcnng::build(
            &ds,
            HcnngParams {
                rounds: 2,
                ..HcnngParams::default()
            },
        );
        let many = Hcnng::build(
            &ds,
            HcnngParams {
                rounds: 12,
                ..HcnngParams::default()
            },
        );
        assert!(many.base_graph().num_edges() > few.base_graph().num_edges());
    }

    #[test]
    fn build_is_deterministic() {
        let ds = DatasetSpec::glove_scaled(200, 1).build();
        let a = Hcnng::build(&ds, HcnngParams::default());
        let b = Hcnng::build(&ds, HcnngParams::default());
        assert_eq!(a.base_graph(), b.base_graph());
    }
}
