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

use ndsearch_anns::trace::IterationTrace;
use ndsearch_graph::luncsr::LunCsr;
use ndsearch_vector::VectorId;

/// Reusable working memory of [`select_prefetch`]. One per batch run,
/// sized to the graph on first use.
#[derive(Debug, Clone, Default)]
pub struct PrefetchScratch {
    /// Connections to the first-order set per vertex; all zero between
    /// selections.
    counts: Vec<u16>,
    /// Distinct second-order vertices of the current selection, in scan
    /// order (a slot is written for every edge and kept on a first visit).
    distinct: Vec<VectorId>,
    /// Rank keys `(u16::MAX - connections) << 32 | id` of the candidates
    /// left after exclusion: ascending key is connections descending, ties
    /// by id.
    keys: Vec<u64>,
    /// The picks, best first.
    picks: Vec<VectorId>,
}

/// Selects up to `budget` second-order neighbors of `entry` (the returned
/// slice lives in `scratch`), ranked by how many connections they have to
/// the first-order neighbor set (ties by id for determinism). First-order
/// neighbors, `entry` itself, and every entry and visited vertex of `seen`
/// (the query's trace so far, as the query property table records it) are
/// excluded — an already-computed vertex is never a next-round candidate,
/// so prefetching it would be a guaranteed miss.
///
/// # Panics
/// Panics if `entry` has more than `u16::MAX` neighbors (neighbor lists
/// are duplicate-free, so no count can exceed the first-order degree).
pub fn select_prefetch<'s>(
    luncsr: &LunCsr,
    entry: VectorId,
    budget: usize,
    seen: &[IterationTrace],
    scratch: &'s mut PrefetchScratch,
) -> &'s [VectorId] {
    let PrefetchScratch {
        counts,
        distinct,
        keys,
        picks,
    } = scratch;
    picks.clear();
    if budget == 0 {
        return picks;
    }
    let first = luncsr.neighbors(entry);
    assert!(
        first.len() <= usize::from(u16::MAX),
        "entry degree overflows u16"
    );
    if counts.len() < luncsr.num_vertices() {
        counts.resize(luncsr.num_vertices(), 0);
        // One slot past the last vertex: every edge writes a slot.
        distinct.resize(luncsr.num_vertices() + 1, 0);
    }
    // One pass over the two-hop edges: count every target, and keep it in
    // `distinct` when its count leaves zero.
    let mut len = 0;
    for &n in first {
        for &m in luncsr.neighbors(n) {
            let count = &mut counts[m as usize];
            distinct[len] = m;
            len += usize::from(*count == 0);
            *count += 1;
        }
    }
    // Zeroed counts drop out of the ranking.
    counts[entry as usize] = 0;
    for &v in first {
        counts[v as usize] = 0;
    }
    for it in seen {
        counts[it.entry as usize] = 0;
        for &v in &it.visited {
            counts[v as usize] = 0;
        }
    }
    // Key the survivors (a slot written per candidate, kept when its count
    // is non-zero) and reset every count on the same walk; then cut the
    // best `budget` out first and order only those.
    if keys.len() < len {
        keys.resize(len, 0);
    }
    let mut kept = 0;
    for &v in &distinct[..len] {
        let count = std::mem::take(&mut counts[v as usize]);
        keys[kept] = u64::from(u16::MAX - count) << 32 | u64::from(v);
        kept += usize::from(count != 0);
    }
    let mut ranked = &mut keys[..kept];
    if kept > budget {
        ranked.select_nth_unstable(budget);
        ranked = &mut ranked[..budget];
    }
    ranked.sort_unstable();
    picks.extend(ranked.iter().map(|&k| k as VectorId));
    picks
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
        luncsr_of(Csr::from_adjacency(&lists).unwrap())
    }

    fn luncsr_of(csr: Csr) -> LunCsr {
        let mapping = VertexMapping::place(
            FlashGeometry::tiny(),
            csr.num_vertices(),
            128,
            PlacementPolicy::MultiPlaneAware,
        );
        LunCsr::new(csr, mapping)
    }

    use std::collections::{HashMap, HashSet};

    /// The selection as it was first written — hash maps over the
    /// second-order scan, a full sort — kept as the oracle the dense-count
    /// kernel must agree with, pick for pick.
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

    /// `seen` as a one-iteration trace prefix that entered at `entry`.
    fn seen_trace(entry: VectorId, seen: &[VectorId]) -> [IterationTrace; 1] {
        [IterationTrace {
            entry,
            visited: seen.to_vec(),
        }]
    }

    /// One-shot wrapper: fresh scratch, owned result.
    fn select(luncsr: &LunCsr, entry: VectorId, budget: usize, seen: &[VectorId]) -> Vec<VectorId> {
        let mut scratch = PrefetchScratch::default();
        let seen = seen_trace(entry, seen);
        select_prefetch(luncsr, entry, budget, &seen, &mut scratch).to_vec()
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
    fn dense_selection_equals_the_hash_map_oracle() {
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
                let seen = seen_trace(entry, &seen);
                for budget in [0usize, 1, 7, 32, 10_000] {
                    assert_eq!(
                        select_prefetch(&lc, entry, budget, &seen, &mut scratch),
                        select_prefetch_oracle(&lc, entry, budget, &seen_set),
                        "n {n}, entry {entry}, budget {budget}"
                    );
                }
            }
        }
    }

    /// The kernel against the oracle, reusing one scratch, with `seen` a
    /// trace prefix: at budgets 0, 1, the entry's degree and past every
    /// candidate.
    fn assert_equals_oracle(
        lc: &LunCsr,
        seen: &[IterationTrace],
        scratch: &mut PrefetchScratch,
        context: &str,
    ) {
        let entry = seen.last().unwrap().entry;
        let seen_set: HashSet<VectorId> = seen
            .iter()
            .flat_map(|it| std::iter::once(it.entry).chain(it.visited.iter().copied()))
            .collect();
        let degree = lc.neighbors(entry).len();
        for budget in [0, 1, degree, lc.num_vertices() + 1] {
            assert_eq!(
                select_prefetch(lc, entry, budget, seen, scratch),
                select_prefetch_oracle(lc, entry, budget, &seen_set),
                "{context}, entry {entry}, budget {budget}"
            );
        }
    }

    #[test]
    fn selection_equals_the_oracle_on_every_round_of_a_recorded_batch() {
        // What `NdsEngine::run_sub` asks for: each round's entry, with the
        // query's trace up to and including that round as `seen`.
        use ndsearch_anns::index::{GraphAnnsIndex, SearchParams};
        use ndsearch_anns::vamana::{Vamana, VamanaParams};
        use ndsearch_vector::synthetic::DatasetSpec;
        let (base, queries) = DatasetSpec::sift_scaled(600, 16).build_pair();
        let index = Vamana::build(&base, VamanaParams::default());
        let trace = index
            .search_batch(&base, &queries, &SearchParams::default())
            .trace;
        let lc = luncsr_of(index.base_graph().clone());
        let mut scratch = PrefetchScratch::default();
        let mut selections = 0;
        for (qi, t) in trace.queries.iter().enumerate() {
            for r in 0..t.iterations.len() {
                let context = format!("query {qi}, round {r}");
                assert_equals_oracle(&lc, &t.iterations[..=r], &mut scratch, &context);
                selections += 1;
            }
        }
        assert!(selections >= 100, "only {selections} selections");
    }

    #[test]
    fn selection_equals_the_oracle_past_a_byte_of_connections() {
        // Entry 0 has 300 first-order neighbors (1..=300). Every one links
        // to 301 (300 connections), the even ones to 302 (150), every
        // third to 303 (100) and each to one of 304..=313 (30 each), so
        // counts pass 255 and tie in tens.
        let mut lists: Vec<Vec<VectorId>> = vec![(1..=300).collect()];
        for v in 1..=300u32 {
            let mut row = vec![301, 304 + v % 10];
            if v % 2 == 0 {
                row.push(302);
            }
            if v % 3 == 0 {
                row.push(303);
            }
            lists.push(row);
        }
        lists.resize(314, Vec::new());
        let lc = luncsr_from(lists);
        let mut scratch = PrefetchScratch::default();
        let picks = select(&lc, 0, 3, &[]);
        assert_eq!(picks, vec![301, 302, 303]);
        for seen in [vec![], vec![301], vec![302, 305, 305, 0]] {
            let prefix = seen_trace(0, &seen);
            assert_equals_oracle(&lc, &prefix, &mut scratch, &format!("seen {seen:?}"));
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
