//! LUNCSR — the paper's NDP graph format (§IV-B, Fig. 5b).
//!
//! LUNCSR extends CSR with two arrays indexed by vertex (or neighbor) id:
//!
//! * the **LUN array** — which physical LUN a vertex's feature vector is
//!   allocated to;
//! * the **BLK array** — the vertex's *relative physical block* within
//!   that LUN's plane.
//!
//! Both are maintained the way a conventional FTL maintains its mapping
//! table (the paper notes LUNCSR *replaces* the mapping table — no extra
//! DRAM), and are updated by the FTL whenever block-level refreshing
//! relocates a block. Given a vertex's logical id, the page and column
//! addresses are direct functions of the static placement (they are not
//! affected by block-level refresh), so the Allocator can infer the final
//! physical address with a lookup in the LUN/BLK arrays plus arithmetic —
//! no embedded-core FTL translation on the critical path.
//!
//! # Mutability: base + delta segments
//!
//! A deployed index ingests vectors continuously, so LUNCSR is *versioned*:
//! a read-mostly **base segment** (the staged CSR + placement produced by
//! the offline pipeline) plus an append-only **delta segment** holding
//! vertices inserted online ([`LunCsr::append_vertex`]), adjacency
//! *patches* for base vertices whose neighbor lists were rewritten by
//! backlink repair ([`LunCsr::set_neighbors`]), and per-vertex
//! **tombstones** for deletions ([`LunCsr::tombstone`]). Reads resolve
//! patches first, then the base or delta segment, so a search sees one
//! coherent overlay. A deterministic [`LunCsr::compact`] folds the overlay
//! into a fresh base, dropping tombstoned edges and re-running the
//! placement walk.
//!
//! Note the two compaction flavours in the workspace: this graph-level
//! `compact()` *severs* tombstoned vertices (the offline-rebuild
//! semantic, pinned by the reachability proptest), while the serving
//! deployment's compaction (`ndsearch-core`'s `Deployment::compact`)
//! restages the live construction graph unchanged — tombstones stay
//! routable so in-flight query results are unaffected — and only the
//! physical layout is rewritten.

use std::collections::BTreeMap;

use ndsearch_flash::ftl::RefreshEvent;
use ndsearch_flash::geometry::{LunId, PhysAddr};
use ndsearch_vector::VectorId;

use crate::csr::Csr;
use crate::mapping::VertexMapping;

/// The LUNCSR structure: CSR adjacency + physical placement arrays, as a
/// read-mostly base plus an append-only delta overlay (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct LunCsr {
    /// Base segment: the staged adjacency.
    base: Csr,
    /// Placement of every vertex, base and delta (append continues the
    /// walk where staging stopped).
    mapping: VertexMapping,
    /// LUN array: LUN of each vertex (base + delta).
    lun_array: Vec<LunId>,
    /// BLK array: *physical* block (within the plane) of each vertex.
    blk_array: Vec<u32>,
    /// Reverse index: (global plane, logical block) → vertices, driving the
    /// refresh update path.
    by_plane_block: std::collections::HashMap<(u32, u32), Vec<VectorId>>,
    /// Delta segment: adjacency of vertices appended after staging
    /// (vertex `base.num_vertices() + i` owns `delta_adj[i]`).
    delta_adj: Vec<Vec<VectorId>>,
    /// Adjacency patches for *base* vertices rewritten by backlink repair
    /// (delta vertices are patched in place).
    patches: BTreeMap<VectorId, Vec<VectorId>>,
    /// Tombstones: deleted vertices stay addressable (searches may still
    /// route through them) until compaction drops them.
    tombstones: Vec<bool>,
}

impl LunCsr {
    /// Assembles LUNCSR from adjacency and a placement. Physical blocks
    /// start identity-mapped (fresh device); the delta segment starts
    /// empty.
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
        let n = csr.num_vertices();
        let mut lun_array = Vec::with_capacity(n);
        let mut blk_array = Vec::with_capacity(n);
        let mut by_plane_block: std::collections::HashMap<(u32, u32), Vec<VectorId>> =
            std::collections::HashMap::new();
        for v in 0..n as u32 {
            lun_array.push(mapping.lun_of(v));
            blk_array.push(mapping.logical_block_of(v));
            by_plane_block
                .entry((mapping.global_plane_of(v), mapping.logical_block_of(v)))
                .or_default()
                .push(v);
        }
        Self {
            base: csr,
            mapping,
            lun_array,
            blk_array,
            by_plane_block,
            delta_adj: Vec::new(),
            patches: BTreeMap::new(),
            tombstones: vec![false; n],
        }
    }

    /// The base segment's adjacency (staged offline; excludes the delta).
    pub fn base_csr(&self) -> &Csr {
        &self.base
    }

    /// The placement component (covers base and delta vertices).
    pub fn mapping(&self) -> &VertexMapping {
        &self.mapping
    }

    /// Number of vertices, base plus delta.
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices() + self.delta_adj.len()
    }

    /// Vertices in the base segment.
    pub fn base_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Vertices appended to the delta segment since staging.
    pub fn delta_vertices(&self) -> usize {
        self.delta_adj.len()
    }

    /// Base vertices whose adjacency has been patched since staging.
    pub fn patched_vertices(&self) -> usize {
        self.patches.len()
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
    /// one slot (same address arithmetic as the base), the LUN/BLK arrays
    /// grow, and `neighbors` becomes the vertex's adjacency. Returns the
    /// new vertex id. The page program itself (latency, wear) is charged
    /// by the flash layer — this only maintains the mapping.
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
        self.lun_array.push(self.mapping.lun_of(v));
        self.blk_array.push(self.mapping.logical_block_of(v));
        self.by_plane_block
            .entry((
                self.mapping.global_plane_of(v),
                self.mapping.logical_block_of(v),
            ))
            .or_default()
            .push(v);
        self.delta_adj.push(neighbors);
        self.tombstones.push(false);
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

    /// Tombstones a vertex (online delete). The vertex stays addressable —
    /// searches may still route through it — until [`compact`](Self::compact)
    /// drops it. Returns `false` if it was already tombstoned.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn tombstone(&mut self, v: VectorId) -> bool {
        !std::mem::replace(&mut self.tombstones[v as usize], true)
    }

    /// Whether a vertex has been tombstoned.
    pub fn is_tombstoned(&self, v: VectorId) -> bool {
        self.tombstones[v as usize]
    }

    /// Tombstoned vertices awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.iter().filter(|&&t| t).count()
    }

    /// Folds the overlay into a fresh base: delta adjacency and patches
    /// merge into one CSR, edges to tombstoned vertices are dropped
    /// (tombstoned vertices keep their ids but lose all adjacency), and
    /// the placement walk re-runs from scratch — erasing the
    /// fragmentation appends accumulated. Deterministic: compacting the
    /// same overlay always yields the same base.
    pub fn compact(&self) -> LunCsr {
        let n = self.num_vertices();
        let lists: Vec<Vec<VectorId>> = (0..n as u32)
            .map(|v| {
                if self.tombstones[v as usize] {
                    Vec::new()
                } else {
                    self.neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&nb| !self.tombstones[nb as usize])
                        .collect()
                }
            })
            .collect();
        let csr = Csr::from_adjacency(&lists).expect("overlay ids validated on write");
        let mapping = VertexMapping::place(
            *self.mapping.geometry(),
            n,
            self.mapping.slot_bytes() as usize,
            self.mapping.policy(),
        );
        let mut compacted = LunCsr::new(csr, mapping);
        // Tombstone marks survive compaction: the severed vertices keep
        // their ids, and callers scheduling deletions / filtering results
        // must still see them as dead.
        compacted.tombstones.clone_from(&self.tombstones);
        compacted
    }

    /// Distinct physical blocks currently holding vertex data, as
    /// (global plane, physical block) pairs — what a compaction must erase
    /// before rewriting.
    pub fn occupied_physical_blocks(&self) -> std::collections::BTreeSet<(u32, u32)> {
        (0..self.num_vertices() as u32)
            .map(|v| (self.mapping.global_plane_of(v), self.blk_of(v)))
            .collect()
    }

    /// LUN array lookup.
    pub fn lun_of(&self, v: VectorId) -> LunId {
        self.lun_array[v as usize]
    }

    /// BLK array lookup (current physical block).
    pub fn blk_of(&self, v: VectorId) -> u32 {
        self.blk_array[v as usize]
    }

    /// Direct physical-address inference (§IV-B): page/column from the
    /// static placement, block from the BLK array, LUN from the LUN array —
    /// no FTL translation.
    #[inline]
    pub fn physical_addr(&self, v: VectorId) -> PhysAddr {
        self.mapping.addr_with_block(v, self.blk_of(v))
    }

    /// Applies a block-level refresh event: every vertex whose data lived
    /// in the relocated (plane, logical block) gets its BLK entry updated —
    /// the "bijection (update after refreshing)" arrow in Fig. 5(b).
    /// Returns how many vertices were touched.
    pub fn apply_refresh(&mut self, event: &RefreshEvent) -> usize {
        let Some(vertices) = self.by_plane_block.get(&(event.plane, event.logical_block)) else {
            return 0;
        };
        for &v in vertices {
            self.blk_array[v as usize] = event.new_physical;
        }
        vertices.len()
    }

    /// DRAM footprint of the metadata arrays (offset + neighbor + LUN +
    /// BLK, plus the delta segment's adjacency and overlay patches), which
    /// the paper buffers in the SSD's internal DRAM.
    pub fn dram_bytes(&self) -> u64 {
        let delta_edges: u64 = self.delta_adj.iter().map(|l| l.len() as u64).sum();
        let patch_edges: u64 = self.patches.values().map(|l| l.len() as u64 + 1).sum();
        self.base.metadata_bytes()
            + 4 * (delta_edges + self.delta_adj.len() as u64 + patch_edges)
            + 4 * 2 * self.num_vertices() as u64
    }

    /// Verifies that every vertex's BLK entry matches an FTL's current
    /// logical→physical map. Used by tests.
    pub fn consistent_with_ftl(&self, ftl: &ndsearch_flash::ftl::Ftl) -> bool {
        (0..self.num_vertices() as u32).all(|v| {
            let plane = self.mapping.global_plane_of(v);
            ftl.physical_block(plane, self.mapping.logical_block_of(v)) == self.blk_of(v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PlacementPolicy;
    use ndsearch_flash::ftl::Ftl;
    use ndsearch_flash::geometry::FlashGeometry;
    use ndsearch_vector::rng::Pcg32;

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
    fn arrays_match_mapping_initially() {
        let lc = build(100);
        for v in 0..100u32 {
            assert_eq!(lc.lun_of(v), lc.mapping().lun_of(v));
            assert_eq!(lc.blk_of(v), lc.mapping().logical_block_of(v));
            let a = lc.physical_addr(v);
            assert_eq!(a, lc.mapping().addr_identity(v));
        }
    }

    #[test]
    fn refresh_updates_only_affected_vertices() {
        let mut lc = build(200);
        let mut ftl = Ftl::new(*lc.mapping().geometry(), 42);
        // Pick the plane+block of vertex 0.
        let plane = lc.mapping().global_plane_of(0);
        let block = lc.mapping().logical_block_of(0);
        let evs = ftl.refresh_block(plane, block);
        let mut touched = 0;
        for ev in &evs {
            touched += lc.apply_refresh(ev);
        }
        assert!(touched > 0, "vertex 0's block should host vertices");
        assert_eq!(lc.blk_of(0), evs[0].new_physical);
        assert!(lc.consistent_with_ftl(&ftl));
    }

    #[test]
    fn random_refresh_storm_keeps_consistency() {
        let mut lc = build(500);
        let geom = *lc.mapping().geometry();
        let mut ftl = Ftl::new(geom, 7);
        let mut rng = Pcg32::seed_from_u64(13);
        for _ in 0..300 {
            let plane = rng.index(geom.total_planes() as usize) as u32;
            let block = rng.index(geom.blocks_per_plane as usize) as u32;
            for ev in ftl.refresh_block(plane, block) {
                lc.apply_refresh(&ev);
            }
        }
        assert!(lc.consistent_with_ftl(&ftl));
        // Physical addresses remain valid.
        for v in 0..lc.num_vertices() as u32 {
            let a = lc.physical_addr(v);
            assert!(
                PhysAddr::checked(&geom, a.lun, a.plane_in_lun, a.block, a.page, a.byte).is_ok()
            );
        }
    }

    #[test]
    fn refresh_of_unused_block_touches_nothing() {
        let mut lc = build(16); // only one page's worth of vertices
        let geom = *lc.mapping().geometry();
        let mut ftl = Ftl::new(geom, 1);
        // A far-away plane holds no vertices.
        let evs = ftl.refresh_block(geom.total_planes() - 1, 3);
        let touched: usize = evs.iter().map(|ev| lc.apply_refresh(ev)).sum();
        assert_eq!(touched, 0);
    }

    #[test]
    fn dram_bytes_counts_four_arrays() {
        let lc = build(10);
        // offsets 11 + neighbors 20 + lun 10 + blk 10 = 51 entries × 4 B.
        assert_eq!(lc.dram_bytes(), 4 * (11 + 20 + 10 + 10));
    }

    #[test]
    fn append_extends_overlay_with_consistent_addresses() {
        let mut lc = build(100);
        let before = lc.num_vertices();
        let v = lc.append_vertex(vec![0, 5, 99]);
        assert_eq!(v as usize, before);
        assert_eq!(lc.num_vertices(), before + 1);
        assert_eq!(lc.base_vertices(), before);
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
        // LUN/BLK arrays cover the delta.
        assert_eq!(lc.lun_of(v), lc.mapping().lun_of(v));
        assert_eq!(lc.blk_of(v), lc.mapping().logical_block_of(v));
    }

    #[test]
    fn patches_shadow_base_and_delta_adjacency() {
        let mut lc = build(50);
        assert_eq!(lc.neighbors(3), &[4, 5]);
        lc.set_neighbors(3, vec![7]);
        assert_eq!(lc.neighbors(3), &[7]);
        assert_eq!(lc.patched_vertices(), 1);
        let v = lc.append_vertex(vec![3]);
        lc.set_neighbors(v, vec![3, 7]);
        assert_eq!(lc.neighbors(v), &[3, 7]);
        // Delta vertices are patched in place, not via the patch map.
        assert_eq!(lc.patched_vertices(), 1);
    }

    #[test]
    fn refresh_reaches_delta_vertices() {
        let mut lc = build(64);
        let v = lc.append_vertex(Vec::new());
        let mut ftl = Ftl::new(*lc.mapping().geometry(), 9);
        let plane = lc.mapping().global_plane_of(v);
        let block = lc.mapping().logical_block_of(v);
        let touched: usize = ftl
            .refresh_block(plane, block)
            .iter()
            .map(|ev| lc.apply_refresh(ev))
            .sum();
        assert!(touched > 0, "the appended vertex's block must be tracked");
        assert!(lc.consistent_with_ftl(&ftl));
    }

    #[test]
    fn compact_folds_overlay_and_drops_tombstones() {
        let mut lc = build(80);
        let a = lc.append_vertex(vec![0, 1]);
        let b = lc.append_vertex(vec![a, 2]);
        lc.set_neighbors(0, vec![a, b, 1]);
        assert!(lc.tombstone(1));
        assert!(!lc.tombstone(1), "second tombstone is a no-op");
        assert!(lc.is_tombstoned(1));
        assert_eq!(lc.tombstone_count(), 1);

        let compacted = lc.compact();
        assert_eq!(compacted.num_vertices(), lc.num_vertices());
        assert_eq!(compacted.delta_vertices(), 0);
        assert_eq!(compacted.patched_vertices(), 0);
        // Tombstone marks survive the fold.
        assert!(compacted.is_tombstoned(1));
        assert_eq!(compacted.tombstone_count(), 1);
        // Tombstoned vertices lose all adjacency; edges to them vanish.
        assert!(compacted.neighbors(1).is_empty());
        assert_eq!(compacted.neighbors(0), &[a, b]);
        assert_eq!(compacted.neighbors(a), &[0]);
        assert_eq!(compacted.neighbors(b), &[a, 2]);
        // Every live edge survives; no edge touches a tombstone.
        for v in 0..lc.num_vertices() as u32 {
            if lc.is_tombstoned(v) {
                continue;
            }
            let want: Vec<u32> = lc
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&nb| !lc.is_tombstoned(nb))
                .collect();
            assert_eq!(compacted.neighbors(v), want.as_slice(), "vertex {v}");
        }
        // Deterministic.
        assert_eq!(lc.compact().base_csr(), compacted.base_csr());
        // Fresh placement covers everything with valid unique addresses.
        let geom = *compacted.mapping().geometry();
        let mut seen = std::collections::HashSet::new();
        for v in 0..compacted.num_vertices() as u32 {
            let ad = compacted.physical_addr(v);
            PhysAddr::checked(&geom, ad.lun, ad.plane_in_lun, ad.block, ad.page, ad.byte).unwrap();
            assert!(seen.insert((ad.lun, ad.plane_in_lun, ad.block, ad.page, ad.byte)));
        }
    }

    #[test]
    fn occupied_blocks_cover_base_and_delta() {
        let mut lc = build(64);
        let before = lc.occupied_physical_blocks();
        assert!(!before.is_empty());
        // Fill enough delta slots to open a new page/block region.
        for _ in 0..64 {
            lc.append_vertex(Vec::new());
        }
        let after = lc.occupied_physical_blocks();
        assert!(after.len() >= before.len());
        assert!(after.is_superset(&before));
    }

    #[test]
    #[should_panic(expected = "mapping must place every vertex")]
    fn mismatched_sizes_panic() {
        let csr = Csr::from_adjacency(&[vec![], vec![]]).unwrap();
        let mapping = VertexMapping::place(FlashGeometry::tiny(), 5, 128, PlacementPolicy::Linear);
        LunCsr::new(csr, mapping);
    }
}
