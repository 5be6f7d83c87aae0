//! Flash translation layer with block-level refresh.
//!
//! §II-B2: even though the ANNS search phase is read-only, NAND retention
//! and read-disturb require periodic *data refreshing*, which relocates
//! blocks and therefore changes physical addresses. NDSEARCH adopts
//! block-level refreshing, and — critically for the multi-plane mapping of
//! §VI-A2 — confines each relocation *within the same plane* so the
//! multi-plane operation parallelism established by static scheduling is
//! never degraded.
//!
//! The [`Ftl`] keeps a per-plane logical→physical block bijection. Each
//! refresh emits a [`RefreshEvent`] which the LUNCSR consumer applies to its
//! BLK array (the "bijection (update after refreshing)" arrow in Fig. 5b).
//! Refresh is rare in the search phase, so no simulated run triggers one:
//! the mechanism is the contract the LUNCSR tests pin.

use crate::geometry::{FlashGeometry, PlaneId};
use ndsearch_vector::rng::Pcg32;

/// A block relocation performed by refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshEvent {
    /// Plane the relocation happened in (refreshes never cross planes).
    pub plane: PlaneId,
    /// Logical block id (stable name the LUNCSR BLK array stores).
    pub logical_block: u32,
    /// Physical block the data used to live in.
    pub old_physical: u32,
    /// Physical block the data now lives in.
    pub new_physical: u32,
}

/// Per-plane logical→physical block mapping with refresh support.
#[derive(Debug, Clone)]
pub struct Ftl {
    geom: FlashGeometry,
    /// `l2p[plane][logical] = physical`.
    l2p: Vec<Vec<u32>>,
    rng: Pcg32,
}

impl Ftl {
    /// Creates an identity-mapped FTL for a geometry.
    pub fn new(geom: FlashGeometry, seed: u64) -> Self {
        let planes = geom.total_planes() as usize;
        let ident: Vec<u32> = (0..geom.blocks_per_plane).collect();
        Self {
            geom,
            l2p: vec![ident; planes],
            rng: Pcg32::seed_from_u64(seed),
        }
    }

    /// The geometry this FTL manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geom
    }

    /// Translates a logical block in a plane to its physical block.
    ///
    /// # Panics
    /// Panics if `plane` or `logical_block` is out of range.
    pub fn physical_block(&self, plane: PlaneId, logical_block: u32) -> u32 {
        self.l2p[plane as usize][logical_block as usize]
    }

    /// Refreshes one logical block: its data moves to a different physical
    /// block *within the same plane*. The physical slot it moves into is
    /// vacated by swapping with whichever logical block held it, so one
    /// refresh relocates *two* logical blocks (the map stays a bijection).
    /// Both relocation events are returned so the LUNCSR BLK array can be
    /// updated for every affected vertex.
    ///
    /// # Panics
    /// Panics if indices are out of range.
    pub fn refresh_block(&mut self, plane: PlaneId, logical_block: u32) -> Vec<RefreshEvent> {
        let map = &mut self.l2p[plane as usize];
        let old_physical = map[logical_block as usize];
        // Pick a different physical slot in this plane and swap owners.
        let n = map.len() as u32;
        if n <= 1 {
            return Vec::new();
        }
        let mut target = self.rng.next_below(u64::from(n)) as u32;
        while target == old_physical {
            target = self.rng.next_below(u64::from(n)) as u32;
        }
        // Find which logical block currently owns `target` and swap.
        let other_logical = map
            .iter()
            .position(|&p| p == target)
            .expect("bijection invariant broken") as u32;
        map.swap(logical_block as usize, other_logical as usize);
        vec![
            RefreshEvent {
                plane,
                logical_block,
                old_physical,
                new_physical: target,
            },
            RefreshEvent {
                plane,
                logical_block: other_logical,
                old_physical: target,
                new_physical: old_physical,
            },
        ]
    }

    /// Checks the bijection invariant (every physical block appears exactly
    /// once per plane). Used by tests and debug assertions.
    pub fn is_bijective(&self) -> bool {
        self.l2p.iter().all(|map| {
            let mut seen = vec![false; map.len()];
            map.iter().all(|&p| {
                let i = p as usize;
                i < seen.len() && !std::mem::replace(&mut seen[i], true)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;

    #[test]
    fn identity_at_start() {
        let ftl = Ftl::new(FlashGeometry::tiny(), 1);
        assert_eq!(ftl.physical_block(0, 3), 3);
        assert!(ftl.is_bijective());
    }

    #[test]
    fn refresh_relocates_within_plane() {
        let mut ftl = Ftl::new(FlashGeometry::tiny(), 2);
        let evs = ftl.refresh_block(5, 1);
        assert_eq!(evs.len(), 2, "a swap relocates two logical blocks");
        let ev = evs[0];
        assert_eq!(ev.plane, 5);
        assert_eq!(ev.logical_block, 1);
        assert_ne!(ev.old_physical, ev.new_physical);
        assert_eq!(ftl.physical_block(5, 1), ev.new_physical);
        // The displaced block is reported symmetrically.
        assert_eq!(evs[1].new_physical, ev.old_physical);
        assert_eq!(evs[1].old_physical, ev.new_physical);
        // Other planes untouched.
        assert_eq!(ftl.physical_block(0, 1), 1);
        assert!(ftl.is_bijective());
    }

    #[test]
    fn many_refreshes_keep_bijection() {
        let mut ftl = Ftl::new(FlashGeometry::tiny(), 3);
        for i in 0..500u32 {
            let plane = i % ftl.geometry().total_planes();
            let block = i % ftl.geometry().blocks_per_plane;
            assert_eq!(ftl.refresh_block(plane, block).len(), 2);
        }
        assert!(ftl.is_bijective());
    }

    #[test]
    fn refresh_events_replay_to_the_live_mapping() {
        // Round-trip: replaying every emitted RefreshEvent onto a shadow
        // identity map must reproduce the FTL's live logical→physical map
        // exactly — this is the contract the LUNCSR BLK array relies on.
        let geom = FlashGeometry::tiny();
        let mut ftl = Ftl::new(geom, 6);
        let planes = geom.total_planes() as usize;
        let blocks = geom.blocks_per_plane;
        let mut shadow: Vec<Vec<u32>> = vec![(0..blocks).collect(); planes];
        for i in 0..800u32 {
            let plane = (i * 7) % geom.total_planes();
            let block = (i * 13) % blocks;
            for ev in ftl.refresh_block(plane, block) {
                assert_eq!(ev.plane, plane, "refresh crossed planes");
                let entry = &mut shadow[ev.plane as usize][ev.logical_block as usize];
                assert_eq!(*entry, ev.old_physical, "stale old_physical in event");
                *entry = ev.new_physical;
            }
        }
        for p in 0..geom.total_planes() {
            for b in 0..blocks {
                assert_eq!(
                    shadow[p as usize][b as usize],
                    ftl.physical_block(p, b),
                    "event replay diverged at plane {p} block {b}"
                );
            }
        }
        assert!(ftl.is_bijective());
    }

    #[test]
    fn single_block_plane_refresh_is_a_noop() {
        let mut geom = FlashGeometry::tiny();
        geom.blocks_per_plane = 1;
        let mut ftl = Ftl::new(geom, 7);
        assert!(ftl.refresh_block(0, 0).is_empty());
        assert_eq!(ftl.physical_block(0, 0), 0);
        assert!(ftl.is_bijective());
    }
}
