//! LUNCSR — the paper's NDP graph format (§IV-B, Fig. 5b).
//!
//! LUNCSR extends CSR with two arrays indexed by vertex (or neighbor) id:
//!
//! * the **LUN array** — which physical LUN a vertex's feature vector is
//!   allocated to;
//! * the **BLK array** — the vertex's *relative physical block* within
//!   that LUN's plane.
//!
//! The paper notes LUNCSR *replaces* the FTL's mapping table (no extra
//! DRAM): given a vertex's logical id, the Allocator infers the final
//! physical address with a lookup plus arithmetic — no embedded-core FTL
//! translation on the critical path. Here both arrays are the static
//! placement's own ([`VertexMapping`]). The model keeps the identity block
//! map — no block-level refresh (§II-B2) relocates a block during the
//! search phase — so a vertex's BLK entry is its placement block and
//! [`LunCsr::physical_addr`] is [`VertexMapping::addr`].
//!
//! # Mutability: base + delta segments
//!
//! A deployed index ingests vectors continuously, so LUNCSR is *versioned*:
//! a read-mostly **base segment** (the staged CSR + placement produced by
//! the offline pipeline) plus an append-only **delta segment** holding
//! vertices inserted online ([`LunCsr::append_vertex`]) and adjacency
//! *patches* for base vertices whose neighbor lists were rewritten by
//! backlink repair ([`LunCsr::set_neighbors`]). Reads resolve patches
//! first, then the base or delta segment, so a search sees one coherent
//! overlay.
//!
//! Deletion and compaction are not LUNCSR's: the serving deployment
//! (`ndsearch-core`'s `Deployment`) keeps tombstones in its index and
//! compacts by restaging the live construction graph into a fresh
//! `LunCsr`, so only the physical layout is rewritten.

use std::collections::BTreeMap;

use ndsearch_flash::geometry::{LunId, PhysAddr};
use ndsearch_vector::VectorId;

use crate::csr::Csr;
use crate::mapping::VertexMapping;

/// The LUNCSR structure: CSR adjacency + physical placement, as a
/// read-mostly base plus an append-only delta overlay (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct LunCsr {
    /// Base segment: the staged adjacency.
    base: Csr,
    /// Placement of every vertex, base and delta (append continues the
    /// walk where staging stopped): the LUN and BLK arrays.
    mapping: VertexMapping,
    /// Delta segment: adjacency of vertices appended after staging
    /// (vertex `base.num_vertices() + i` owns `delta_adj[i]`).
    delta_adj: Vec<Vec<VectorId>>,
    /// Adjacency patches for *base* vertices rewritten by backlink repair
    /// (delta vertices are patched in place).
    patches: BTreeMap<VectorId, Vec<VectorId>>,
}

impl LunCsr {
    /// Assembles LUNCSR from adjacency and a placement; the delta segment
    /// starts empty.
    ///
    /// # Panics
    /// Panics if the mapping covers a different number of vertices than the
    /// graph has.
    pub fn new(csr: Csr, mapping: VertexMapping) -> Self {
        assert_eq!(
            csr.num_vertices(),
            mapping.len(),
            "mapping must place every vertex"
        );
        Self {
            base: csr,
            mapping,
            delta_adj: Vec::new(),
            patches: BTreeMap::new(),
        }
    }

    /// The placement component (covers base and delta vertices).
    pub fn mapping(&self) -> &VertexMapping {
        &self.mapping
    }

    /// Number of vertices, base plus delta.
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices() + self.delta_adj.len()
    }

    /// Vertices appended to the delta segment since staging.
    pub fn delta_vertices(&self) -> usize {
        self.delta_adj.len()
    }

    /// Neighbor list of a vertex (the CSR indexing trace of Fig. 5b:
    /// offset array → neighbor array), resolved through the overlay:
    /// patches first, then the delta or base segment.
    pub fn neighbors(&self, v: VectorId) -> &[VectorId] {
        if let Some(list) = self.patches.get(&v) {
            return list;
        }
        let base_n = self.base.num_vertices();
        if (v as usize) < base_n {
            self.base.neighbors(v)
        } else {
            &self.delta_adj[v as usize - base_n]
        }
    }

    /// Appends a vertex to the delta segment: the placement walk advances
    /// one slot (same address arithmetic as the base) and `neighbors`
    /// becomes the vertex's adjacency. Returns the new vertex id. The page
    /// program itself (latency, wear) is charged by the flash layer — this
    /// only maintains the mapping.
    ///
    /// # Panics
    /// Panics if a neighbor id is out of range (forward references beyond
    /// the new vertex are not representable) or the device is full.
    pub fn append_vertex(&mut self, neighbors: Vec<VectorId>) -> VectorId {
        let v = self.mapping.append_one();
        debug_assert_eq!(v as usize, self.num_vertices());
        for &nb in &neighbors {
            assert!(
                (nb as usize) <= self.num_vertices(),
                "appended vertex references out-of-range neighbor {nb}"
            );
        }
        self.delta_adj.push(neighbors);
        v
    }

    /// Rewrites a vertex's neighbor list (backlink repair after an online
    /// insert): base vertices get an overlay patch, delta vertices are
    /// rewritten in place.
    ///
    /// # Panics
    /// Panics if `v` or a neighbor id is out of range.
    pub fn set_neighbors(&mut self, v: VectorId, neighbors: Vec<VectorId>) {
        let n = self.num_vertices();
        assert!((v as usize) < n, "vertex {v} out of range");
        for &nb in &neighbors {
            assert!((nb as usize) < n, "patch references out-of-range {nb}");
        }
        let base_n = self.base.num_vertices();
        if (v as usize) < base_n {
            self.patches.insert(v, neighbors);
        } else {
            self.delta_adj[v as usize - base_n] = neighbors;
        }
    }

    /// LUN array lookup.
    #[inline]
    pub fn lun_of(&self, v: VectorId) -> LunId {
        self.mapping.lun_of(v)
    }

    /// Direct physical-address inference (§IV-B): page/column from the
    /// static placement, block from the BLK array, LUN from the LUN array —
    /// no FTL translation.
    #[inline]
    pub fn physical_addr(&self, v: VectorId) -> PhysAddr {
        self.mapping.addr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PlacementPolicy;
    use ndsearch_flash::geometry::FlashGeometry;

    fn build(n: usize) -> LunCsr {
        let mut lists = Vec::with_capacity(n);
        for v in 0..n as u32 {
            lists.push(vec![(v + 1) % n as u32, (v + 2) % n as u32]);
        }
        let csr = Csr::from_adjacency(&lists).unwrap();
        let mapping = VertexMapping::place(
            FlashGeometry::tiny(),
            n,
            128,
            PlacementPolicy::MultiPlaneAware,
        );
        LunCsr::new(csr, mapping)
    }

    #[test]
    fn physical_addr_equals_mapping_addr() {
        let lc = build(100);
        for v in 0..100u32 {
            assert_eq!(lc.lun_of(v), lc.mapping().lun_of(v));
            assert_eq!(lc.physical_addr(v), lc.mapping().addr(v));
        }
    }

    #[test]
    fn append_extends_overlay_with_consistent_addresses() {
        let mut lc = build(100);
        let before = lc.num_vertices();
        let v = lc.append_vertex(vec![0, 5, 99]);
        assert_eq!(v as usize, before);
        assert_eq!(lc.num_vertices(), before + 1);
        assert_eq!(lc.delta_vertices(), 1);
        assert_eq!(lc.neighbors(v), &[0, 5, 99]);
        // The appended vertex's address continues the placement walk and
        // stays valid and distinct.
        let geom = *lc.mapping().geometry();
        let a = lc.physical_addr(v);
        PhysAddr::checked(&geom, a.lun, a.plane_in_lun, a.block, a.page, a.byte).unwrap();
        for u in 0..before as u32 {
            assert_ne!(lc.physical_addr(u), a, "address collision with {u}");
        }
    }

    #[test]
    fn patches_shadow_base_and_delta_adjacency() {
        let mut lc = build(50);
        assert_eq!(lc.neighbors(3), &[4, 5]);
        lc.set_neighbors(3, vec![7]);
        assert_eq!(lc.neighbors(3), &[7]);
        let v = lc.append_vertex(vec![3]);
        lc.set_neighbors(v, vec![3, 7]);
        assert_eq!(lc.neighbors(v), &[3, 7]);
    }

    #[test]
    #[should_panic(expected = "mapping must place every vertex")]
    fn mismatched_sizes_panic() {
        let csr = Csr::from_adjacency(&[vec![], vec![]]).unwrap();
        let mapping = VertexMapping::place(FlashGeometry::tiny(), 5, 128, PlacementPolicy::Linear);
        LunCsr::new(csr, mapping);
    }
}
