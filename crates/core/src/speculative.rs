//! Speculative searching (§VI-B2, Fig. 12).
//!
//! The second-order neighbors of the current iteration's entry vertex are
//! the likely candidates of the *next* iteration: once the Allocating stage
//! of iteration *i* finishes, the Pref Unit fetches the entry's first-order
//! neighbor lists and selects second-order neighbors — preferring those
//! with the most connections to the first-order set — and the speculative
//! Searching stage computes their distances while iteration *i*'s
//! Gathering runs. If the next iteration's candidate set overlaps the
//! prefetched set, those distances are already available and the next
//! Searching stage shrinks. Mispredicted prefetches cost extra page
//! accesses (visible in Fig. 15) but their latency is fully overlapped.

use ndsearch_graph::luncsr::LunCsr;
use ndsearch_vector::VectorId;

/// Counter value marking a vertex that can never be picked (the entry, a
/// first-order neighbor, an already-visited vertex).
const EXCLUDED: u32 = u32::MAX;

/// Reusable working memory of [`select_prefetch`]: a dense, epoch-stamped
/// connection counter per vertex (an entry counts only while its stamp
/// equals the current epoch, so starting a new selection is O(1)) plus the
/// list of vertices counted this epoch. One per batch run, sized to the
/// graph on first use.
#[derive(Debug, Clone, Default)]
pub struct PrefetchScratch {
    epoch: u32,
    /// `(stamp, connections or EXCLUDED)` per vertex.
    counters: Vec<(u32, u32)>,
    /// Second-order candidates of the current selection, in scan order.
    touched: Vec<VectorId>,
}

impl PrefetchScratch {
    /// Starts a selection over a graph of `n` vertices.
    fn begin(&mut self, n: usize) {
        if self.counters.len() < n {
            self.counters.resize(n, (0, 0));
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.counters.fill((0, 0));
            self.epoch = 1;
        }
        self.touched.clear();
    }

    fn exclude(&mut self, v: VectorId) {
        self.counters[v as usize] = (self.epoch, EXCLUDED);
    }

    /// Counts one connection to `v` unless it is excluded.
    fn connect(&mut self, v: VectorId) {
        let slot = &mut self.counters[v as usize];
        if slot.0 != self.epoch {
            *slot = (self.epoch, 1);
            self.touched.push(v);
        } else if slot.1 != EXCLUDED {
            slot.1 += 1;
        }
    }
}

/// Selects up to `budget` second-order neighbors of `entry` (the returned
/// slice lives in `scratch`), ranked by how many connections they have to
/// the first-order neighbor set (ties by id for determinism). First-order
/// neighbors, `entry` itself, and vertices the query has already visited
/// (`seen`, tracked in the query property table; repeats allowed) are
/// excluded — an already-computed vertex is never a next-round candidate,
/// so prefetching it would be a guaranteed miss.
pub fn select_prefetch<'s>(
    luncsr: &LunCsr,
    entry: VectorId,
    budget: usize,
    seen: impl IntoIterator<Item = VectorId>,
    scratch: &'s mut PrefetchScratch,
) -> &'s [VectorId] {
    if budget == 0 {
        return &[];
    }
    scratch.begin(luncsr.num_vertices());
    let first = luncsr.neighbors(entry);
    scratch.exclude(entry);
    for v in first.iter().copied().chain(seen) {
        scratch.exclude(v);
    }
    for &n in first {
        for &m in luncsr.neighbors(n) {
            scratch.connect(m);
        }
    }
    // Rank by (connections descending, id ascending): cut the best
    // `budget` out first, then order only those.
    let PrefetchScratch {
        counters, touched, ..
    } = scratch;
    let rank = |v: &VectorId| (std::cmp::Reverse(counters[*v as usize].1), *v);
    if touched.len() > budget {
        touched.select_nth_unstable_by_key(budget, rank);
        touched.truncate(budget);
    }
    touched.sort_unstable_by_key(rank);
    touched
}

/// Accounting for speculative searching across a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// Prefetched vertices whose distances were used by the next iteration.
    pub hits: u64,
    /// Prefetched vertices that were never needed.
    pub misses: u64,
}

impl SpeculationStats {
    /// Fraction of prefetches that hit.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_flash::geometry::FlashGeometry;
    use ndsearch_graph::csr::Csr;
    use ndsearch_graph::mapping::{PlacementPolicy, VertexMapping};

    fn luncsr_from(lists: Vec<Vec<VectorId>>) -> LunCsr {
        let n = lists.len();
        let csr = Csr::from_adjacency(&lists).unwrap();
        let mapping = VertexMapping::place(
            FlashGeometry::tiny(),
            n,
            128,
            PlacementPolicy::MultiPlaneAware,
        );
        LunCsr::new(csr, mapping)
    }

    use std::collections::{HashMap, HashSet};

    /// The selection as it was first written — hash maps over the
    /// second-order scan, a full sort — kept as the oracle the stamped
    /// version must agree with, pick for pick.
    fn select_prefetch_oracle(
        luncsr: &LunCsr,
        entry: VectorId,
        budget: usize,
        seen: &HashSet<VectorId>,
    ) -> Vec<VectorId> {
        if budget == 0 {
            return Vec::new();
        }
        let first: Vec<VectorId> = luncsr.neighbors(entry).to_vec();
        let first_set: HashSet<VectorId> = first.iter().copied().collect();
        let mut connections: HashMap<VectorId, u32> = HashMap::new();
        for &n in &first {
            for &m in luncsr.neighbors(n) {
                if m != entry && !first_set.contains(&m) && !seen.contains(&m) {
                    *connections.entry(m).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(VectorId, u32)> = connections.into_iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(budget);
        ranked.into_iter().map(|(v, _)| v).collect()
    }

    /// One-shot wrapper: fresh scratch, owned result.
    fn select(luncsr: &LunCsr, entry: VectorId, budget: usize, seen: &[VectorId]) -> Vec<VectorId> {
        let mut scratch = PrefetchScratch::default();
        select_prefetch(luncsr, entry, budget, seen.iter().copied(), &mut scratch).to_vec()
    }

    #[test]
    fn prefers_well_connected_second_order() {
        // 0 → {1, 2}; both 1 and 2 → 3; only 1 → 4. Vertex 3 has two
        // connections to the first-order set, 4 has one.
        let lc = luncsr_from(vec![vec![1, 2], vec![3, 4], vec![3], vec![], vec![]]);
        let picks = select(&lc, 0, 1, &[]);
        assert_eq!(picks, vec![3]);
        let picks = select(&lc, 0, 10, &[]);
        assert_eq!(picks, vec![3, 4]);
    }

    #[test]
    fn excludes_entry_and_first_order() {
        // 0 → 1 → 0 and 1 → 2; 2 is the only valid prefetch.
        let lc = luncsr_from(vec![vec![1], vec![0, 2], vec![]]);
        let picks = select(&lc, 0, 10, &[]);
        assert_eq!(picks, vec![2]);
    }

    #[test]
    fn excludes_already_visited() {
        let lc = luncsr_from(vec![vec![1, 2], vec![3, 4], vec![3], vec![], vec![]]);
        let picks = select(&lc, 0, 10, &[3]);
        assert_eq!(picks, vec![4], "visited vertex 3 must be skipped");
    }

    #[test]
    fn budget_zero_is_empty() {
        let lc = luncsr_from(vec![vec![1], vec![0]]);
        assert!(select(&lc, 0, 0, &[]).is_empty());
    }

    #[test]
    fn selection_invariants_on_random_graph() {
        // Pseudo-random graph: picks must be unique, within budget, never
        // the entry / a first-order neighbor / a seen vertex, and ranked by
        // nonincreasing connection count with ids breaking ties.
        let n = 64u32;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let lists: Vec<Vec<VectorId>> = (0..n)
            .map(|v| {
                let mut l: Vec<VectorId> = (0..6).map(|_| next() % n).filter(|&m| m != v).collect();
                l.sort_unstable();
                l.dedup();
                l
            })
            .collect();
        let lc = luncsr_from(lists.clone());
        for entry in 0..n {
            let seen: Vec<VectorId> = (0..4).map(|_| next() % n).collect();
            for budget in [1usize, 3, 16] {
                let picks = select(&lc, entry, budget, &seen);
                assert!(picks.len() <= budget);
                let unique: HashSet<_> = picks.iter().collect();
                assert_eq!(unique.len(), picks.len(), "duplicate prefetch");
                let first: HashSet<VectorId> = lists[entry as usize].iter().copied().collect();
                let count = |m: VectorId| {
                    lists[entry as usize]
                        .iter()
                        .filter(|&&f| lists[f as usize].contains(&m))
                        .count()
                };
                for window in picks.windows(2) {
                    let (a, b) = (count(window[0]), count(window[1]));
                    assert!(
                        a > b || (a == b && window[0] < window[1]),
                        "ranking violated: {window:?} with counts {a}, {b}"
                    );
                }
                for &p in &picks {
                    assert_ne!(p, entry);
                    assert!(!first.contains(&p), "first-order vertex prefetched");
                    assert!(!seen.contains(&p), "seen vertex prefetched");
                }
            }
        }
    }

    #[test]
    fn stamped_selection_equals_the_hash_map_oracle() {
        // Random graphs (dense enough for many equal connection counts, so
        // the id tie-break is exercised on both sides of the budget cut),
        // random `seen` lists with duplicates, and one scratch reused
        // across every call, as a batch run does.
        use ndsearch_vector::rng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(0x5EC);
        let mut scratch = PrefetchScratch::default();
        for &(n, degree) in &[(48u32, 5u32), (200, 12), (600, 32)] {
            let lists: Vec<Vec<VectorId>> = (0..n)
                .map(|v| {
                    let mut l: Vec<VectorId> = (0..degree)
                        .map(|_| rng.next_u32() % n)
                        .filter(|&m| m != v)
                        .collect();
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            let lc = luncsr_from(lists);
            for _ in 0..200 {
                let entry = rng.next_u32() % n;
                let seen: Vec<VectorId> = (0..rng.next_u32() % 40)
                    .map(|_| rng.next_u32() % n)
                    .collect();
                let seen_set: HashSet<VectorId> = seen.iter().copied().collect();
                for budget in [0usize, 1, 7, 32, 10_000] {
                    let seen = seen.iter().copied();
                    assert_eq!(
                        select_prefetch(&lc, entry, budget, seen, &mut scratch),
                        select_prefetch_oracle(&lc, entry, budget, &seen_set),
                        "n {n}, entry {entry}, budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_truncates_by_rank() {
        // With budget 1 the single pick must equal the head of the
        // unbounded ranking.
        let lc = luncsr_from(vec![
            vec![1, 2, 3],
            vec![4, 5],
            vec![4, 5],
            vec![4],
            vec![],
            vec![],
        ]);
        let all = select(&lc, 0, 10, &[]);
        let one = select(&lc, 0, 1, &[]);
        assert_eq!(all, vec![4, 5]);
        assert_eq!(one, all[..1].to_vec());
    }

    #[test]
    fn hit_rate_math() {
        let s = SpeculationStats { hits: 3, misses: 9 };
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(SpeculationStats::default().hit_rate(), 0.0);
    }
}
