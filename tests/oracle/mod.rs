//! Construction oracles: `Vamana::{build, insert}` and `Hnsw::{build,
//! insert}` as they were written before construction moved onto the shared
//! greedy-search scratch, the flat adjacency and the incremental backlink
//! RobustPrune — a fresh `HashSet` and two fresh `BinaryHeap`s per search,
//! `Vec<Vec<_>>` rows, a full pairwise prune for every overflowing row.
//! Kept here, test-only, as the reference the fast paths must equal edge
//! for edge (`tests/property_tests.rs`).

pub mod beam;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use ndsearch::anns::hnsw::HnswParams;
use ndsearch::anns::vamana::{approximate_medoid, VamanaParams};
use ndsearch::vector::rng::Pcg32;
use ndsearch::vector::topk::Neighbor;
use ndsearch::vector::{Dataset, DistanceKind, VectorId};

/// What the equality tests ask of either oracle.
pub trait Oracle {
    /// Links the next id; returns the `repaired` list.
    fn insert(&mut self, base: &Dataset, id: VectorId) -> Vec<VectorId>;
    fn delete(&mut self, id: VectorId) -> bool;
    /// The live base-layer adjacency.
    fn rows(&self) -> &[Vec<VectorId>];
}

/// Greedy search over any adjacency view, returning the visited pool in
/// discovery order and the best `l` found, ascending.
fn search<'a>(
    base: &Dataset,
    neighbors_of: impl Fn(VectorId) -> &'a [VectorId],
    query: &[f32],
    entry: VectorId,
    l: usize,
    dist: DistanceKind,
) -> (Vec<Neighbor>, Vec<Neighbor>) {
    let mut seen: HashSet<VectorId> = HashSet::new();
    let mut frontier = BinaryHeap::new();
    let mut results: BinaryHeap<Neighbor> = BinaryHeap::new();
    let mut pool = Vec::new();
    let d0 = dist.eval(query, base.vector(entry));
    seen.insert(entry);
    frontier.push(Reverse(Neighbor::new(d0, entry)));
    results.push(Neighbor::new(d0, entry));
    pool.push(Neighbor::new(d0, entry));
    let mut fresh: Vec<VectorId> = Vec::new();
    let mut scratch: Vec<f32> = Vec::new();
    while let Some(Reverse(cur)) = frontier.pop() {
        let worst = results.peek().map(|x| x.distance).unwrap_or(f32::INFINITY);
        if results.len() >= l && cur.distance > worst {
            break;
        }
        fresh.clear();
        for &nb in neighbors_of(cur.id) {
            if seen.insert(nb) {
                fresh.push(nb);
            }
        }
        dist.eval_batch_ids(query, base, &fresh, &mut scratch);
        for (&nb, &d) in fresh.iter().zip(&scratch) {
            pool.push(Neighbor::new(d, nb));
            let worst = results.peek().map(|x| x.distance).unwrap_or(f32::INFINITY);
            if results.len() < l || d < worst {
                frontier.push(Reverse(Neighbor::new(d, nb)));
                results.push(Neighbor::new(d, nb));
                if results.len() > l {
                    results.pop();
                }
            }
        }
    }
    let mut top = results.into_vec();
    top.sort_unstable();
    (pool, top)
}

/// DiskANN's RobustPrune over the whole pool: every candidate against
/// every neighbor kept before it.
fn robust_prune(
    base: &Dataset,
    v: VectorId,
    mut pool: Vec<Neighbor>,
    alpha: f32,
    r: usize,
    dist: DistanceKind,
) -> Vec<VectorId> {
    pool.sort_unstable();
    pool.dedup_by_key(|n| n.id);
    let mut kept: Vec<Neighbor> = Vec::with_capacity(r);
    for c in pool {
        if c.id == v {
            continue;
        }
        if kept.len() >= r {
            break;
        }
        let dominated = kept
            .iter()
            .any(|s| alpha * dist.eval(base.vector(s.id), base.vector(c.id)) <= c.distance);
        if !dominated {
            kept.push(c);
        }
    }
    kept.into_iter().map(|n| n.id).collect()
}

/// The pre-fast-path Vamana.
pub struct OracleVamana {
    params: VamanaParams,
    adj: Vec<Vec<VectorId>>,
    pub medoid: VectorId,
    deleted: Vec<bool>,
}

impl OracleVamana {
    pub fn build(base: &Dataset, params: VamanaParams) -> Self {
        let n = base.len();
        let dist = DistanceKind::L2;
        let mut rng = Pcg32::seed_from_u64(params.seed);
        let mut adj: Vec<Vec<VectorId>> = (0..n)
            .map(|v| {
                let mut list = Vec::new();
                while list.len() < params.r.min(n - 1) {
                    let c = rng.index(n) as VectorId;
                    if c != v as VectorId && !list.contains(&c) {
                        list.push(c);
                    }
                }
                list
            })
            .collect();
        let medoid = approximate_medoid(base, dist);
        let mut order: Vec<VectorId> = (0..n as u32).collect();
        for &alpha in &[1.0f32, params.alpha] {
            rng.shuffle(&mut order);
            for &v in &order {
                let q = base.vector(v);
                let (visited, _) = search(
                    base,
                    |u| adj[u as usize].as_slice(),
                    q,
                    medoid,
                    params.l_build,
                    dist,
                );
                let mut pool: Vec<Neighbor> = visited.into_iter().filter(|nb| nb.id != v).collect();
                for &nb in &adj[v as usize] {
                    if nb != v && !pool.iter().any(|p| p.id == nb) {
                        pool.push(Neighbor::new(dist.eval(q, base.vector(nb)), nb));
                    }
                }
                let pruned = robust_prune(base, v, pool, alpha, params.r, dist);
                adj[v as usize] = pruned.clone();
                for nb in pruned {
                    Self::backlink(base, &mut adj, nb, v, alpha, &params);
                }
            }
        }
        Self {
            params,
            adj,
            medoid,
            deleted: vec![false; n],
        }
    }

    /// Adds the edge `nb → v` unless present, re-pruning `nb`'s list from
    /// scratch when it overflows R. Returns whether the edge was added.
    fn backlink(
        base: &Dataset,
        adj: &mut [Vec<VectorId>],
        nb: VectorId,
        v: VectorId,
        alpha: f32,
        params: &VamanaParams,
    ) -> bool {
        let dist = DistanceKind::L2;
        if adj[nb as usize].contains(&v) {
            return false;
        }
        adj[nb as usize].push(v);
        if adj[nb as usize].len() > params.r {
            let pool: Vec<Neighbor> = adj[nb as usize]
                .iter()
                .map(|&u| Neighbor::new(dist.eval(base.vector(nb), base.vector(u)), u))
                .collect();
            adj[nb as usize] = robust_prune(base, nb, pool, alpha, params.r, dist);
        }
        true
    }
}

impl Oracle for OracleVamana {
    fn insert(&mut self, base: &Dataset, id: VectorId) -> Vec<VectorId> {
        assert_eq!(id as usize, self.adj.len());
        let params = self.params;
        self.adj.push(Vec::new());
        self.deleted.push(false);
        let adj = &self.adj;
        let (visited, _) = search(
            base,
            |u| adj[u as usize].as_slice(),
            base.vector(id),
            self.medoid,
            params.l_build,
            DistanceKind::L2,
        );
        let pool: Vec<Neighbor> = visited
            .into_iter()
            .filter(|nb| nb.id != id && !self.deleted[nb.id as usize])
            .collect();
        let pruned = robust_prune(base, id, pool, params.alpha, params.r, DistanceKind::L2);
        self.adj[id as usize] = pruned.clone();
        pruned
            .into_iter()
            .filter(|&nb| Self::backlink(base, &mut self.adj, nb, id, params.alpha, &params))
            .collect()
    }

    fn delete(&mut self, id: VectorId) -> bool {
        !std::mem::replace(&mut self.deleted[id as usize], true)
    }

    fn rows(&self) -> &[Vec<VectorId>] {
        &self.adj
    }
}

/// The pre-fast-path HNSW (construction side only).
pub struct OracleHnsw {
    params: HnswParams,
    layer0: Vec<Vec<VectorId>>,
    upper: Vec<HashMap<VectorId, Vec<VectorId>>>,
    pub entry: VectorId,
    entry_level: usize,
    level_rng: Pcg32,
    level_mult: f64,
    deleted: Vec<bool>,
}

impl OracleHnsw {
    pub fn build(base: &Dataset, params: HnswParams) -> Self {
        let mut index = Self {
            params,
            layer0: Vec::new(),
            upper: Vec::new(),
            entry: 0,
            entry_level: 0,
            level_rng: Pcg32::seed_from_u64(params.seed),
            level_mult: 1.0 / (params.m as f64).ln().max(0.5),
            deleted: Vec::new(),
        };
        for v in 0..base.len() as u32 {
            index.insert(base, v);
        }
        for list in &mut index.layer0 {
            list.sort_unstable();
            list.dedup();
        }
        index
    }

    pub fn num_upper_layers(&self) -> usize {
        self.upper.len()
    }
}

impl Oracle for OracleHnsw {
    fn delete(&mut self, id: VectorId) -> bool {
        !std::mem::replace(&mut self.deleted[id as usize], true)
    }

    fn rows(&self) -> &[Vec<VectorId>] {
        &self.layer0
    }

    fn insert(&mut self, base: &Dataset, v: VectorId) -> Vec<VectorId> {
        assert_eq!(v as usize, self.layer0.len());
        let u: f64 = self.level_rng.next_f64().max(1e-12);
        let v_level = ((-u.ln() * self.level_mult) as usize).min(12);
        self.layer0.push(Vec::new());
        self.deleted.push(false);
        if v == 0 {
            self.entry_level = v_level;
            self.upper = vec![HashMap::from([(0, Vec::new())]); v_level];
            return Vec::new();
        }
        let params = self.params;
        let dist = DistanceKind::L2;
        let q = base.vector(v);
        let mut cur = self.entry;
        let mut repaired = Vec::new();
        for l in (v_level + 1..=self.entry_level).rev() {
            cur = greedy_upper(base, &self.upper[l - 1], q, cur, dist);
        }
        for layer in (0..=v_level.min(self.entry_level)).rev() {
            let max_links = if layer == 0 { params.m * 2 } else { params.m };
            let (_, candidates) = if layer == 0 {
                let layer0 = &self.layer0;
                search(
                    base,
                    |u| layer0[u as usize].as_slice(),
                    q,
                    cur,
                    params.ef_construction,
                    dist,
                )
            } else {
                let adj = &self.upper[layer - 1];
                search(
                    base,
                    |u| adj.get(&u).map(Vec::as_slice).unwrap_or(&[]),
                    q,
                    cur,
                    params.ef_construction,
                    dist,
                )
            };
            let live: Vec<Neighbor> = candidates
                .into_iter()
                .filter(|c| !self.deleted[c.id as usize])
                .collect();
            let selected = select_neighbors(base, &live, params.m, dist);
            if let Some(best) = selected.first() {
                cur = best.id;
            }
            for nb in selected.iter().map(|s| s.id) {
                if layer == 0 {
                    self.layer0[v as usize].push(nb);
                    self.layer0[nb as usize].push(v);
                    prune_list(base, nb, &mut self.layer0[nb as usize], max_links, dist);
                    repaired.push(nb);
                } else {
                    let adj = &mut self.upper[layer - 1];
                    adj.entry(v).or_default().push(nb);
                    let list = adj.entry(nb).or_default();
                    list.push(v);
                    prune_list(base, nb, list, max_links, dist);
                }
            }
            if layer == 0 {
                prune_list(base, v, &mut self.layer0[v as usize], max_links, dist);
            } else if let Some(list) = self.upper[layer - 1].get_mut(&v) {
                prune_list(base, v, list, max_links, dist);
            }
        }
        if v_level > self.entry_level {
            self.entry = v;
            self.entry_level = v_level;
            self.upper.resize_with(v_level, HashMap::new);
            for layer in &mut self.upper {
                layer.entry(v).or_default();
            }
        }
        repaired
    }
}

fn greedy_upper(
    base: &Dataset,
    adj: &HashMap<VectorId, Vec<VectorId>>,
    query: &[f32],
    entry: VectorId,
    dist: DistanceKind,
) -> VectorId {
    let mut cur = Neighbor::new(dist.eval(query, base.vector(entry)), entry);
    let mut scratch: Vec<f32> = Vec::new();
    loop {
        let Some(neighbors) = adj.get(&cur.id) else {
            return cur.id;
        };
        let mut best = cur;
        dist.eval_batch_ids(query, base, neighbors, &mut scratch);
        for (&nb, &d) in neighbors.iter().zip(&scratch) {
            let c = Neighbor::new(d, nb);
            if c < best {
                best = c;
            }
        }
        if best.id == cur.id {
            return cur.id;
        }
        cur = best;
    }
}

fn select_neighbors(
    base: &Dataset,
    candidates: &[Neighbor],
    m: usize,
    dist: DistanceKind,
) -> Vec<Neighbor> {
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
    for &c in candidates {
        if kept.len() >= m {
            break;
        }
        if !kept.iter().any(|s| s.id == c.id) {
            kept.push(c);
        }
    }
    kept
}

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
    let ov = base.vector(owner);
    list.sort_by(|&a, &b| {
        let da = dist.eval(ov, base.vector(a));
        let db = dist.eval(ov, base.vector(b));
        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
    });
    list.truncate(max_links);
}
