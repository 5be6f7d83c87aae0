//! The construction-time greedy search, shared by Vamana and HNSW.
//!
//! Both builders repeat one step per inserted vertex (and, for HNSW, per
//! layer): greedy-search the graph *as built so far* with the vertex as the
//! query. It is the §II-A loop of [`crate::beam`] over an adjacency that is
//! still being written, with no trace; Vamana consumes every vertex the
//! search scored ([`GreedySearch::pool`]), HNSW the best `ef` of them
//! ([`GreedySearch::top`]). A builder owns one [`GreedySearch`] and reuses
//! it for every call, so a search allocates nothing once the buffers have
//! grown to the largest pool.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::beam::VisitedSet;

/// A `(distance, id)` pair packed into one integer that orders exactly as
/// [`Neighbor`] does — by distance, ties by id, NaN last — so the queues
/// and sorts of construction compare integers instead of running
/// `Neighbor`'s branchy float comparison (sorting a pool with it was a
/// quarter of a Vamana vertex-pass). The distance half is the float's bit
/// pattern with the sign bit flipped (all bits, for negatives), which is
/// monotone; `-0.0` and NaN payloads are folded first because `Neighbor`
/// ties them. [`distance`](Self::distance) returns the folded value, which
/// no comparison can tell from the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Scored(u64);

impl Scored {
    pub(crate) fn new(distance: f32, id: VectorId) -> Self {
        let folded = if distance.is_nan() {
            f32::NAN
        } else {
            distance + 0.0 // -0.0 + 0.0 = +0.0; every other value is kept
        };
        let bits = folded.to_bits();
        let ordered = if bits >> 31 == 1 {
            !bits
        } else {
            bits | (1 << 31)
        };
        Self((u64::from(ordered) << 32) | u64::from(id))
    }

    pub(crate) fn id(self) -> VectorId {
        self.0 as VectorId
    }

    pub(crate) fn distance(self) -> f32 {
        let ordered = (self.0 >> 32) as u32;
        let bits = if ordered >> 31 == 1 {
            ordered ^ (1 << 31)
        } else {
            !ordered
        };
        f32::from_bits(bits)
    }

    pub(crate) fn neighbor(self) -> Neighbor {
        Neighbor::new(self.distance(), self.id())
    }
}

/// Reusable state of the construction-time greedy search.
#[derive(Debug, Default)]
pub(crate) struct GreedySearch {
    /// Vertices scored by the last search — exactly the ids in `pool`.
    pub(crate) seen: VisitedSet,
    /// Every vertex the last search scored, in discovery order.
    pub(crate) pool: Vec<Scored>,
    frontier: BinaryHeap<Reverse<Scored>>,
    results: BinaryHeap<Scored>,
    top: Vec<Scored>,
    fresh: Vec<VectorId>,
    dists: Vec<f32>,
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
        self.seen.clear();
        self.seen.reserve(base.len());
        self.pool.clear();
        self.frontier.clear();
        self.results.clear();
        let first = Scored::new(dist.eval(query, base.vector(entry)), entry);
        self.seen.insert(entry);
        self.frontier.push(Reverse(first));
        self.results.push(first);
        self.pool.push(first);
        while let Some(Reverse(cur)) = self.frontier.pop() {
            // Strictly farther: the frontier still holds candidates the
            // bounded result heap evicted, and one that *ties* the worst
            // result (a duplicate vector with a larger id) is expanded.
            let worst = self.results.peek().map_or(f32::INFINITY, |x| x.distance());
            if self.results.len() >= ef && cur.distance() > worst {
                break;
            }
            // Mark, batch-score, then replay insertions in edge order
            // (bit-identical to the per-edge eval loop; see anns::beam).
            self.fresh.clear();
            for &nb in neighbors_of(cur.id()) {
                if self.seen.insert(nb) {
                    self.fresh.push(nb);
                }
            }
            dist.eval_batch_ids(query, base, &self.fresh, &mut self.dists);
            for (&nb, &d) in self.fresh.iter().zip(&self.dists) {
                let scored = Scored::new(d, nb);
                self.pool.push(scored);
                let worst = self.results.peek().map_or(f32::INFINITY, |x| x.distance());
                if self.results.len() < ef || d < worst {
                    self.frontier.push(Reverse(scored));
                    self.results.push(scored);
                    if self.results.len() > ef {
                        self.results.pop();
                    }
                }
            }
        }
    }

    /// The best `ef` vertices of the last search, ascending.
    pub(crate) fn top(&mut self) -> impl Iterator<Item = Neighbor> + '_ {
        self.top.clear();
        self.top.extend(self.results.iter());
        self.top.sort_unstable();
        self.top.iter().map(|s| s.neighbor())
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
            assert_eq!(packed.neighbor().cmp(a), std::cmp::Ordering::Equal);
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
