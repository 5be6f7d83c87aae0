//! Static-scheduling vertex reordering (§VI-A1).
//!
//! The goal is to minimize the average vertex bandwidth
//! β(G, f) = (1/n) Σ_v max_{j ∈ E(v)} |f(v) − f(j)| (Eq. 1): a small β
//! means each vertex's neighbors receive nearby indices, so after placement
//! they share NAND pages and page-buffer loads amortize across a search
//! trace. Exact minimization is NP-complete, and randomized BFS reorderings
//! must be re-run many times to get a good draw. The paper's *degree
//! ascending breadth-first* method removes the randomness: the BFS root is
//! the minimum-degree vertex and, when a vertex is expanded, its unnumbered
//! neighbors are numbered in ascending degree order — one run, near-optimal
//! β (Fig. 10).

use ndsearch_vector::rng::Pcg32;
use ndsearch_vector::VectorId;

use crate::csr::Csr;

/// A bijective relabeling of vertices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<VectorId>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<VectorId>,
}

impl Permutation {
    /// Identity permutation over `n` vertices.
    pub fn identity(n: usize) -> Self {
        let v: Vec<VectorId> = (0..n as u32).collect();
        Self {
            new_of_old: v.clone(),
            old_of_new: v,
        }
    }

    /// Builds from a `new_of_old` mapping.
    ///
    /// # Errors
    /// Returns a message if the input is not a permutation of `0..n`.
    pub fn from_new_of_old(new_of_old: Vec<VectorId>) -> Result<Self, String> {
        let n = new_of_old.len();
        let mut old_of_new = vec![u32::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            let idx = new as usize;
            if idx >= n {
                return Err(format!("index {new} out of range"));
            }
            if old_of_new[idx] != u32::MAX {
                return Err(format!("duplicate target index {new}"));
            }
            old_of_new[idx] = old as VectorId;
        }
        Ok(Self {
            new_of_old,
            old_of_new,
        })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// New id of an old vertex.
    pub fn new_of(&self, old: VectorId) -> VectorId {
        self.new_of_old[old as usize]
    }

    /// Old id of a new vertex.
    pub fn old_of(&self, new: VectorId) -> VectorId {
        self.old_of_new[new as usize]
    }

    /// Extends the permutation with `count` identity-mapped tail ids.
    /// Online inserts append to the construction-order and physical id
    /// spaces in the same order, so a vertex appended after staging maps
    /// to itself.
    pub fn extend_identity(&mut self, count: usize) {
        for _ in 0..count {
            let id = self.new_of_old.len() as VectorId;
            self.new_of_old.push(id);
            self.old_of_new.push(id);
        }
    }

    /// Composition: applies `self` then `after`.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn then(&self, after: &Permutation) -> Permutation {
        assert_eq!(self.len(), after.len(), "length mismatch");
        let new_of_old = self
            .new_of_old
            .iter()
            .map(|&mid| after.new_of(mid))
            .collect();
        Permutation::from_new_of_old(new_of_old).expect("composition of bijections")
    }
}

/// Average vertex bandwidth β(G, f) of Eq. 1 for the *current* labeling of
/// `csr` (i.e. f = identity; relabel first to evaluate a reordering).
pub fn bandwidth(csr: &Csr) -> f64 {
    let n = csr.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut sum = 0.0f64;
    for v in 0..n as u32 {
        let worst = csr
            .neighbors(v)
            .iter()
            .map(|&j| (i64::from(v) - i64::from(j)).unsigned_abs())
            .max()
            .unwrap_or(0);
        sum += worst as f64;
    }
    sum / n as f64
}

/// Which reordering static scheduling applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReorderMethod {
    /// No reordering — vertices stay in construction order (the paper's
    /// "w/o re" baseline).
    Identity,
    /// Random-rooted BFS with randomly ordered neighbor expansion (the
    /// "ran bfs" baseline of Fig. 14; quality varies run to run).
    RandomBfs,
    /// The paper's deterministic degree-ascending BFS (§VI-A1).
    DegreeAscendingBfs,
    /// Uniformly random relabeling (worst case, for tests/ablation).
    RandomShuffle,
}

impl ReorderMethod {
    /// Computes the permutation for a graph. `seed` only matters for the
    /// randomized methods.
    pub fn permutation(self, csr: &Csr, seed: u64) -> Permutation {
        match self {
            ReorderMethod::Identity => Permutation::identity(csr.num_vertices()),
            ReorderMethod::RandomBfs => random_bfs(csr, seed),
            ReorderMethod::DegreeAscendingBfs => degree_ascending_bfs(csr),
            ReorderMethod::RandomShuffle => random_shuffle(csr.num_vertices(), seed),
        }
    }
}

impl std::fmt::Display for ReorderMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReorderMethod::Identity => "w/o re",
            ReorderMethod::RandomBfs => "ran bfs",
            ReorderMethod::DegreeAscendingBfs => "ours",
            ReorderMethod::RandomShuffle => "shuffle",
        };
        f.write_str(s)
    }
}

fn random_shuffle(n: usize, seed: u64) -> Permutation {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut v: Vec<VectorId> = (0..n as u32).collect();
    rng.shuffle(&mut v);
    Permutation::from_new_of_old(v).expect("shuffle is a permutation")
}

/// Generic BFS numbering. `pick_root` selects the next component root among
/// unvisited vertices; `order_neighbors` sorts a frontier expansion.
fn bfs_order(
    csr: &Csr,
    mut pick_root: impl FnMut(&[bool]) -> VectorId,
    mut order_neighbors: impl FnMut(&mut Vec<VectorId>),
) -> Permutation {
    let n = csr.num_vertices();
    let mut visited = vec![false; n];
    let mut order: Vec<VectorId> = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    while order.len() < n {
        let root = pick_root(&visited);
        debug_assert!(!visited[root as usize]);
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut next: Vec<VectorId> = csr
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&nb| !visited[nb as usize])
                .collect();
            // Dedup while preserving candidate set.
            next.sort_unstable();
            next.dedup();
            order_neighbors(&mut next);
            for nb in next {
                if !visited[nb as usize] {
                    visited[nb as usize] = true;
                    queue.push_back(nb);
                }
            }
        }
    }
    // `order[k]` is the old id receiving new id k.
    let mut new_of_old = vec![0u32; n];
    for (new, &old) in order.iter().enumerate() {
        new_of_old[old as usize] = new as VectorId;
    }
    Permutation::from_new_of_old(new_of_old).expect("BFS order is a permutation")
}

/// Random BFS: random root, random expansion order.
fn random_bfs(csr: &Csr, seed: u64) -> Permutation {
    let mut rng = Pcg32::seed_from_u64(seed);
    bfs_order(
        csr,
        move |visited| {
            // Uniformly pick among unvisited vertices.
            let unvisited: Vec<u32> = visited
                .iter()
                .enumerate()
                .filter(|(_, &v)| !v)
                .map(|(i, _)| i as u32)
                .collect();
            unvisited[rng.index(unvisited.len())]
        },
        {
            let mut rng2 = Pcg32::seed_from_u64(seed ^ 0x5EED);
            move |next| rng2.shuffle(next)
        },
    )
}

/// The paper's degree-ascending BFS: minimum-degree root (ties by id),
/// neighbors expanded in ascending degree order (ties by id). Fully
/// deterministic — one run suffices (§VI-A1).
fn degree_ascending_bfs(csr: &Csr) -> Permutation {
    let degrees: Vec<u32> = (0..csr.num_vertices() as u32)
        .map(|v| csr.degree(v) as u32)
        .collect();
    let deg_root = degrees.clone();
    let deg_sort = degrees;
    bfs_order(
        csr,
        move |visited| {
            visited
                .iter()
                .enumerate()
                .filter(|(_, &v)| !v)
                .map(|(i, _)| i as u32)
                .min_by_key(|&v| (deg_root[v as usize], v))
                .expect("at least one unvisited vertex")
        },
        move |next| next.sort_unstable_by_key(|&v| (deg_sort[v as usize], v)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 8-vertex example of Fig. 10 (a..h = 0..7):
    /// edges chosen to match the listed degrees
    /// a=2, b=3, c=4, d=4, e=3, f=3, g=1, h=1... the paper's table lists
    /// degrees {h:1, g:1, d:4, a:2, e:3, f:3, c:4, b:3} in ascending order.
    fn fig10_like() -> Csr {
        // a b c d e f g h = 0 1 2 3 4 5 6 7
        let edges = [
            (0, 3), // a-d
            (0, 2), // a-c
            (0, 1), // a-b... a would be degree 3; keep close to figure
            (1, 2), // b-c
            (1, 4), // b-e
            (2, 5), // c-f
            (2, 3), // c-d
            (3, 4), // d-e
            (3, 5), // d-f
            (3, 6), // d-g
            (4, 5), // e-f
            (6, 7), // g-h? (h degree-1 leaf attached to g)
        ];
        Csr::from_edges(8, &edges, true).unwrap()
    }

    #[test]
    fn identity_permutation_is_noop() {
        let p = Permutation::identity(4);
        for v in 0..4u32 {
            assert_eq!(p.new_of(v), v);
            assert_eq!(p.old_of(v), v);
        }
    }

    #[test]
    fn from_new_of_old_validates() {
        assert!(Permutation::from_new_of_old(vec![0, 0]).is_err());
        assert!(Permutation::from_new_of_old(vec![0, 5]).is_err());
        assert!(Permutation::from_new_of_old(vec![1, 0]).is_ok());
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        for v in 0..3u32 {
            assert_eq!(p.old_of(p.new_of(v)), v);
            assert_eq!(p.new_of(p.old_of(v)), v);
        }
    }

    #[test]
    fn composition_applies_in_order() {
        let p = Permutation::from_new_of_old(vec![1, 2, 0]).unwrap();
        let q = Permutation::from_new_of_old(vec![2, 0, 1]).unwrap();
        let r = p.then(&q);
        for v in 0..3u32 {
            assert_eq!(r.new_of(v), q.new_of(p.new_of(v)));
        }
    }

    #[test]
    fn bandwidth_of_path_is_one() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)], true).unwrap();
        assert!((bandwidth(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_ascending_bfs_is_deterministic() {
        let g = fig10_like();
        let a = ReorderMethod::DegreeAscendingBfs.permutation(&g, 1);
        let b = ReorderMethod::DegreeAscendingBfs.permutation(&g, 999);
        assert_eq!(a, b);
    }

    #[test]
    fn degree_ascending_beats_identity_on_shuffled_graph() {
        // Build a ring + chords, then shuffle its labels so the original
        // order has terrible bandwidth.
        let n = 200usize;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            edges.push((i, (i + 1) % n as u32));
            edges.push((i, (i + 7) % n as u32));
        }
        let g = Csr::from_edges(n, &edges, true).unwrap();
        let shuffled = g.relabel(&ReorderMethod::RandomShuffle.permutation(&g, 42));
        let before = bandwidth(&shuffled);
        let ours = shuffled.relabel(&ReorderMethod::DegreeAscendingBfs.permutation(&shuffled, 0));
        let after = bandwidth(&ours);
        assert!(
            after < before * 0.5,
            "expected large improvement: before {before}, after {after}"
        );
    }

    #[test]
    fn ours_at_least_matches_average_random_bfs() {
        let g = fig10_like();
        let shuffled = g.relabel(&ReorderMethod::RandomShuffle.permutation(&g, 3));
        let ours = bandwidth(
            &shuffled.relabel(&ReorderMethod::DegreeAscendingBfs.permutation(&shuffled, 0)),
        );
        let mut random_sum = 0.0;
        let runs = 20;
        for s in 0..runs {
            random_sum +=
                bandwidth(&shuffled.relabel(&ReorderMethod::RandomBfs.permutation(&shuffled, s)));
        }
        let random_avg = random_sum / runs as f64;
        assert!(
            ours <= random_avg + 1e-9,
            "ours {ours} should beat avg random BFS {random_avg}"
        );
    }

    #[test]
    fn bfs_covers_disconnected_graphs() {
        let g = Csr::from_edges(6, &[(0, 1), (2, 3)], true).unwrap();
        for m in [
            ReorderMethod::Identity,
            ReorderMethod::RandomBfs,
            ReorderMethod::DegreeAscendingBfs,
            ReorderMethod::RandomShuffle,
        ] {
            let p = m.permutation(&g, 5);
            assert_eq!(p.len(), 6);
            // It must be a bijection (from_new_of_old validated already).
            let mut seen: Vec<_> = (0..6u32).map(|v| p.new_of(v)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..6u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn random_bfs_varies_with_seed() {
        let g = fig10_like();
        let a = ReorderMethod::RandomBfs.permutation(&g, 1);
        let b = ReorderMethod::RandomBfs.permutation(&g, 2);
        assert_ne!(a, b, "different seeds should give different BFS orders");
    }
}
