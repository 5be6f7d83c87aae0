//! The construction-time greedy search, shared by Vamana and HNSW.
//!
//! Both builders repeat one step per inserted vertex (and, for HNSW, per
//! layer): greedy-search the graph *as built so far* with the vertex as the
//! query. It is the §II-A loop of [`crate::beam`] — the same
//! [`Frontier`] the serving searcher steps — over an adjacency that is
//! still being written, with no trace; Vamana consumes every vertex the
//! search scored ([`GreedySearch::pool`]), HNSW the best `ef` of them
//! ([`GreedySearch::top`]). A builder owns one [`GreedySearch`] and reuses
//! it for every call, so a search allocates nothing once the buffers have
//! grown to the largest pool.

use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::beam::{Expansion, Frontier, Scored, VisitedSet};

/// Reusable state of the construction-time greedy search.
#[derive(Debug, Default)]
pub(crate) struct GreedySearch {
    /// Vertices scored by the last search — exactly the ids in `pool`.
    pub(crate) seen: VisitedSet,
    /// Every vertex the last search scored, in discovery order.
    pub(crate) pool: Vec<Scored>,
    frontier: Frontier,
    fresh: Vec<VectorId>,
}

/// The buffers carry nothing from one search to the next, so the clone of
/// an index (a replica) starts with empty ones instead of copying a
/// dataset-sized visited set.
impl Clone for GreedySearch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl GreedySearch {
    /// Greedy search from `entry` with result-list size `ef` over the
    /// adjacency `neighbors_of`, leaving the scored vertices in
    /// [`pool`](Self::pool) / [`seen`](Self::seen).
    pub(crate) fn run<'a>(
        &mut self,
        base: &Dataset,
        neighbors_of: impl Fn(VectorId) -> &'a [VectorId],
        query: &[f32],
        entry: VectorId,
        ef: usize,
        dist: DistanceKind,
    ) {
        let Self {
            seen,
            pool,
            frontier,
            fresh,
        } = self;
        seen.clear();
        seen.reserve(base.len());
        pool.clear();
        frontier.reset(ef);
        frontier.seed(seen, base, query, &[entry], dist, fresh);
        loop {
            pool.extend((fresh.iter().zip(&frontier.scores)).map(|(&v, &d)| Scored::new(d, v)));
            if let Expansion::Finished =
                frontier.expand_next(seen, base, &neighbors_of, query, dist, fresh)
            {
                break;
            }
        }
    }

    /// The best `ef` vertices of the last search, ascending.
    pub(crate) fn top(&self) -> impl Iterator<Item = Neighbor> + '_ {
        self.frontier.found()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scored_orders_and_round_trips_as_neighbor_does() {
        let distances = [
            f32::NEG_INFINITY,
            -3.5,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            1.0000001,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let all: Vec<Neighbor> = distances
            .iter()
            .flat_map(|&d| [0, 7, u32::MAX].map(|id| Neighbor::new(d, id)))
            .collect();
        for a in &all {
            let packed = Scored::new(a.distance, a.id);
            assert_eq!(packed.id(), a.id);
            // The folded distance compares as the original: same value, or
            // both NaN.
            assert_eq!(
                Neighbor::new(packed.distance(), packed.id()).cmp(a),
                std::cmp::Ordering::Equal
            );
            for b in &all {
                assert_eq!(
                    packed.cmp(&Scored::new(b.distance, b.id)),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}
