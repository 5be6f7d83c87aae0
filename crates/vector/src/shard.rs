//! Dataset sharding for scale-out serving.
//!
//! DiskANN-family deployments shard billion-point corpora across devices
//! and merge per-shard top-k (Subramanya et al., NeurIPS'19; FreshDiskANN,
//! Singh et al., 2021). This module holds the *pure* partitioning half of
//! that design — deciding which simulated device owns which vector — so
//! the cluster serving tier (`ndsearch-core`'s `cluster` module) can stay
//! focused on scheduling and merging.
//!
//! A [`ShardPlan`] is the ground truth of the global ↔ (shard, local) id
//! mapping. Every id a client sees is a **global** id (the construction
//! order of the full dataset); every id a shard's engine sees is a
//! **local** id (the construction order of that shard's sub-dataset). The
//! plan is extended as online inserts land ([`ShardPlan::push_at`]), so
//! the mapping stays total over the deployment's whole life.
//!
//! The one partition policy, [`ShardPolicy::BalancedSize`], cuts the
//! base set into contiguous ranges of near-equal size (difference at most
//! one vector); online inserts go to the currently least-loaded shard.
//! Deterministic, and optimal for the load-imbalance factor the cluster
//! report tracks.

use crate::dataset::Dataset;
use crate::VectorId;

/// How a [`ShardPlan`] assigns vectors to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Contiguous near-equal ranges (sizes differ by at most one);
    /// inserts route to the least-loaded shard.
    BalancedSize,
}

/// The global ↔ (shard, local) id mapping of a sharded deployment.
///
/// # Example
/// ```
/// use ndsearch_vector::shard::{ShardPlan, ShardPolicy};
/// let plan = ShardPlan::partition(10, 4, ShardPolicy::BalancedSize, 7);
/// assert_eq!(plan.num_shards(), 4);
/// assert_eq!(plan.len(), 10);
/// // Every global id round-trips through its shard's local space.
/// for g in 0..10 {
///     let (s, l) = (plan.shard_of(g), plan.local_of(g));
///     assert_eq!(plan.global_of(s, l), g);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Global id → owning shard.
    assignments: Vec<u32>,
    /// Global id → local id within the owning shard.
    locals: Vec<VectorId>,
    /// Shard → global ids, in local-id order.
    members: Vec<Vec<VectorId>>,
}

/// Placeholder for a local slot whose insert has not resolved yet (see
/// [`ShardPlan::push_at`]); never a valid global id in a resolved plan.
const UNRESOLVED: VectorId = VectorId::MAX;

impl ShardPlan {
    /// Partitions `n` vectors over `shards` shards in contiguous
    /// near-equal ranges: the first `n % shards` shards get one extra
    /// vector. `policy` has the one variant and `seed` is ignored; both
    /// stay so existing four-argument callers keep compiling.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn partition(n: usize, shards: usize, _policy: ShardPolicy, _seed: u64) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let mut plan = Self {
            assignments: Vec::with_capacity(n),
            locals: Vec::with_capacity(n),
            members: vec![Vec::new(); shards],
        };
        let (q, r) = (n / shards, n % shards);
        let cut = r * (q + 1);
        for g in 0..n {
            let s = if g < cut {
                g / (q + 1)
            } else {
                r + (g - cut) / q.max(1)
            };
            plan.record(s as u32);
        }
        plan
    }

    /// Appends the records for one new global id owned by `shard`.
    fn record(&mut self, shard: u32) -> VectorId {
        let g = self.assignments.len() as VectorId;
        self.assignments.push(shard);
        self.locals
            .push(self.members[shard as usize].len() as VectorId);
        self.members[shard as usize].push(g);
        g
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.members.len()
    }

    /// Total vectors mapped (base partition plus pushed inserts).
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the plan maps no vectors.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Owning shard of a global id.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn shard_of(&self, g: VectorId) -> usize {
        self.assignments[g as usize] as usize
    }

    /// Local id of a global id within its owning shard.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn local_of(&self, g: VectorId) -> VectorId {
        self.locals[g as usize]
    }

    /// Global id of `local` on `shard`.
    ///
    /// # Panics
    /// Panics if the pair is out of range or the slot belongs to an
    /// online insert that has not resolved yet.
    pub fn global_of(&self, shard: usize, local: VectorId) -> VectorId {
        let g = self.members[shard][local as usize];
        assert_ne!(g, UNRESOLVED, "local slot's insert is not resolved yet");
        g
    }

    /// Global ids owned by `shard`, in local-id order.
    pub fn members(&self, shard: usize) -> &[VectorId] {
        &self.members[shard]
    }

    /// Vectors currently owned by `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.members[shard].len()
    }

    /// Which shard the next online insert should land on, given how many
    /// inserts are already routed-but-unresolved per shard (`pending`)
    /// and which shards can accept traffic (`live` — e.g. shards the
    /// cluster actually staged; a plan can leave a shard empty): the
    /// least-loaded live shard counting pending routes, ties to the
    /// lowest shard index. Returns `None` when no shard is live.
    ///
    /// # Panics
    /// Panics if `pending` or `live` differ in length from the shard
    /// count.
    pub fn route_insert(&self, pending: &[usize], live: &[bool]) -> Option<usize> {
        assert_eq!(pending.len(), self.num_shards(), "pending counts per shard");
        assert_eq!(live.len(), self.num_shards(), "live flags per shard");
        (0..self.num_shards())
            .filter(|&s| live[s])
            .min_by_key(|&s| self.shard_len(s) + pending[s])
    }

    /// Records one completed online insert, assigning the next global id
    /// to local slot `local` of `shard`. The cluster tier calls this when
    /// the owning shard's engine confirms the insert, passing the local
    /// id the shard actually allocated — shards apply updates in arrival
    /// order, which need not match cluster submission order, so the slot
    /// cannot be inferred from the shard's current size. Slots skipped by
    /// out-of-order resolution are left unresolved until their own
    /// insert resolves.
    ///
    /// # Panics
    /// Panics if `shard` is out of range or the slot is already bound.
    pub fn push_at(&mut self, shard: usize, local: VectorId) -> VectorId {
        assert!(shard < self.num_shards(), "shard out of range");
        let g = self.assignments.len() as VectorId;
        self.assignments.push(shard as u32);
        self.locals.push(local);
        let members = &mut self.members[shard];
        if members.len() <= local as usize {
            members.resize(local as usize + 1, UNRESOLVED);
        }
        assert_eq!(
            members[local as usize], UNRESOLVED,
            "local slot already bound"
        );
        members[local as usize] = g;
        g
    }

    /// Splits a dataset into per-shard sub-datasets following the plan
    /// (local id order; `stored_vector_bytes` is preserved so per-shard
    /// flash footprints match the unsharded deployment's).
    ///
    /// # Panics
    /// Panics if the dataset length differs from the plan's base length.
    pub fn extract(&self, dataset: &Dataset) -> Vec<Dataset> {
        assert_eq!(dataset.len(), self.len(), "plan and dataset must agree");
        self.members
            .iter()
            .map(|globals| {
                let mut shard = Dataset::new(dataset.dim());
                shard.set_stored_vector_bytes(dataset.stored_vector_bytes());
                for &g in globals {
                    shard
                        .try_push(dataset.vector(g))
                        .expect("source rows share one dimension");
                }
                shard
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_sizes_differ_by_at_most_one() {
        for (n, k) in [(10usize, 4usize), (100, 8), (7, 7), (5, 8), (64, 1)] {
            let plan = ShardPlan::partition(n, k, ShardPolicy::BalancedSize, 0);
            let sizes: Vec<usize> = (0..k).map(|s| plan.shard_len(s)).collect();
            assert_eq!(sizes.iter().sum::<usize>(), n);
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "n={n} k={k}: sizes {sizes:?}");
            // Contiguity: members of each shard are consecutive globals.
            for s in 0..k {
                let m = plan.members(s);
                assert!(m.windows(2).all(|w| w[1] == w[0] + 1));
            }
        }
    }

    #[test]
    fn extract_preserves_vectors_and_footprint() {
        let mut ds =
            Dataset::from_rows(2, (0..10).map(|i| vec![i as f32, -(i as f32)]).collect()).unwrap();
        ds.set_stored_vector_bytes(2);
        let plan = ShardPlan::partition(10, 3, ShardPolicy::BalancedSize, 1);
        let shards = plan.extract(&ds);
        assert_eq!(shards.len(), 3);
        for (s, shard) in shards.iter().enumerate() {
            assert_eq!(shard.stored_vector_bytes(), 2);
            assert_eq!(shard.len(), plan.shard_len(s));
            for (l, v) in shard.iter() {
                assert_eq!(v, ds.vector(plan.global_of(s, l)));
            }
        }
    }

    #[test]
    fn insert_routing_extends_the_mapping() {
        let mut plan = ShardPlan::partition(9, 3, ShardPolicy::BalancedSize, 0);
        let live = [true, true, true];
        // Balanced: all shards hold 3; pending counts break the tie.
        assert_eq!(plan.route_insert(&[0, 0, 0], &live), Some(0));
        assert_eq!(plan.route_insert(&[1, 0, 0], &live), Some(1));
        assert_eq!(plan.route_insert(&[1, 1, 0], &live), Some(2));
        let g = plan.push_at(1, 3);
        assert_eq!(g, 9);
        assert_eq!(plan.shard_of(9), 1);
        assert_eq!(plan.local_of(9), 3);
        assert_eq!(plan.global_of(1, 3), 9);
        assert_eq!(plan.len(), 10);
    }

    #[test]
    fn insert_routing_skips_dead_shards() {
        // Balanced: the dead shard would be the least-loaded pick; it
        // must be skipped, not selected-and-rejected forever.
        let plan = ShardPlan::partition(9, 3, ShardPolicy::BalancedSize, 0);
        assert_eq!(plan.route_insert(&[0, 0, 0], &[false, true, true]), Some(1));
        // No live shard at all.
        assert_eq!(plan.route_insert(&[0, 0, 0], &[false, false, false]), None);
    }

    #[test]
    fn out_of_order_resolution_binds_correct_slots() {
        // Shards apply inserts in arrival order; the cluster resolves in
        // submission order. A later-submitted insert can thus own an
        // *earlier* local slot — push_at must bind exactly the reported
        // slot, leaving the skipped one for its own insert.
        let mut plan = ShardPlan::partition(4, 2, ShardPolicy::BalancedSize, 0);
        // Shard 1 holds locals {0, 1}; two inserts applied as locals 3
        // then 2 from the cluster's resolution point of view.
        let g_a = plan.push_at(1, 3);
        let g_b = plan.push_at(1, 2);
        assert_eq!((g_a, g_b), (4, 5));
        assert_eq!(plan.global_of(1, 3), 4);
        assert_eq!(plan.global_of(1, 2), 5);
        assert_eq!(plan.shard_of(4), 1);
        assert_eq!(plan.local_of(4), 3);
        assert_eq!(plan.local_of(5), 2);
    }

    #[test]
    #[should_panic(expected = "not resolved yet")]
    fn unresolved_slot_is_unreadable() {
        let mut plan = ShardPlan::partition(4, 2, ShardPolicy::BalancedSize, 0);
        plan.push_at(1, 3); // leaves local 2 unresolved
        plan.global_of(1, 2);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panics() {
        ShardPlan::partition(4, 0, ShardPolicy::BalancedSize, 0);
    }
}
