//! Bounded top-k collector.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::VectorId;

/// A `(distance, id)` pair ordered by distance (ties broken by id) so that
/// result lists are fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Distance from the query (smaller = closer).
    pub distance: f32,
    /// Vertex id of the neighbor.
    pub id: VectorId,
}

impl Neighbor {
    /// Creates a neighbor entry.
    pub fn new(distance: f32, id: VectorId) -> Self {
        Self { distance, id }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order even under NaN: a NaN distance sorts *after* every
        // real distance (worst possible neighbor), and two NaNs tie by id.
        // The old `partial_cmp(..).unwrap_or(Equal)` made NaN "equal" to
        // everything, which is not transitive (NaN == 1.0, NaN == 2.0, but
        // 1.0 < 2.0) and silently corrupted `BinaryHeap` order.
        match self.distance.partial_cmp(&other.distance) {
            Some(ord) => ord.then_with(|| self.id.cmp(&other.id)),
            None => match (self.distance.is_nan(), other.distance.is_nan()) {
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                _ => self.id.cmp(&other.id),
            },
        }
    }
}

/// A bounded max-heap keeping the `k` smallest-distance neighbors seen.
///
/// # Example
/// ```
/// use ndsearch_vector::topk::{Neighbor, TopK};
/// let mut top = TopK::new(2);
/// top.push(Neighbor::new(3.0, 0));
/// top.push(Neighbor::new(1.0, 1));
/// top.push(Neighbor::new(2.0, 2));
/// let sorted = top.into_sorted_vec();
/// assert_eq!(sorted.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates a collector retaining the `k` best entries.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts a candidate, evicting the current worst if full. Returns
    /// `true` if the candidate was kept.
    ///
    /// A NaN distance is rejected outright: it can never rank among the
    /// `k` smallest, and admitting one while the heap is below capacity
    /// would pin an incomparable worst-entry at the top.
    pub fn push(&mut self, n: Neighbor) -> bool {
        if n.distance.is_nan() {
            false
        } else if self.heap.len() < self.k {
            self.heap.push(n);
            true
        } else if let Some(worst) = self.heap.peek() {
            if n < *worst {
                self.heap.pop();
                self.heap.push(n);
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// The current worst (largest) retained distance, if any entry exists.
    pub fn worst_distance(&self) -> Option<f32> {
        self.heap.peek().map(|n| n.distance)
    }

    /// Consumes the collector, returning neighbors sorted ascending by
    /// distance.
    pub fn into_sorted_vec(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

impl Extend<Neighbor> for TopK {
    fn extend<T: IntoIterator<Item = Neighbor>>(&mut self, iter: T) {
        for n in iter {
            self.push(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut top = TopK::new(3);
        for (d, id) in [(5.0, 0), (1.0, 1), (4.0, 2), (2.0, 3), (3.0, 4)] {
            top.push(Neighbor::new(d, id));
        }
        let ids: Vec<_> = top.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 3, 4]);
    }

    #[test]
    fn push_reports_keep_decision() {
        let mut top = TopK::new(1);
        assert!(top.push(Neighbor::new(2.0, 0)));
        assert!(!top.push(Neighbor::new(3.0, 1)));
        assert!(top.push(Neighbor::new(1.0, 2)));
    }

    #[test]
    fn ties_break_by_id() {
        let mut top = TopK::new(2);
        top.push(Neighbor::new(1.0, 9));
        top.push(Neighbor::new(1.0, 3));
        top.push(Neighbor::new(1.0, 7));
        let ids: Vec<_> = top.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 7]);
    }

    #[test]
    fn extend_works() {
        let mut top = TopK::new(2);
        top.extend((0..5).map(|i| Neighbor::new(i as f32, i)));
        assert_eq!(top.len(), 2);
        assert_eq!(top.worst_distance(), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        TopK::new(0);
    }

    #[test]
    fn nan_is_rejected_and_order_stays_total() {
        // Regression: NaN used to compare Equal to everything (breaking
        // transitivity and heap order) and was admitted below capacity.
        let mut top = TopK::new(2);
        assert!(!top.push(Neighbor::new(f32::NAN, 0)));
        assert!(top.is_empty(), "NaN must not occupy a slot below capacity");
        top.push(Neighbor::new(2.0, 1));
        top.push(Neighbor::new(1.0, 2));
        assert!(!top.push(Neighbor::new(f32::NAN, 3)));
        let ids: Vec<_> = top.into_sorted_vec().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 1]);
        // The Ord impl itself totally orders NaN last, ties by id.
        use std::cmp::Ordering;
        let nan9 = Neighbor::new(f32::NAN, 9);
        let nan3 = Neighbor::new(f32::NAN, 3);
        let real = Neighbor::new(1e30, 7);
        assert_eq!(nan9.cmp(&real), Ordering::Greater);
        assert_eq!(real.cmp(&nan9), Ordering::Less);
        assert_eq!(nan3.cmp(&nan9), Ordering::Less);
        assert_eq!(nan9.cmp(&nan9), Ordering::Equal);
        // Interleaving NaNs with reals sorts NaNs last, not arbitrarily.
        let mut v = [nan9, real, nan3, Neighbor::new(0.5, 1)];
        v.sort_unstable();
        let order: Vec<_> = v.iter().map(|n| n.id).collect();
        assert_eq!(order, vec![1, 7, 3, 9]);
    }
}
