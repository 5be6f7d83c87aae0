//! Vertex → NAND placement (§VI-A2, Fig. 11).
//!
//! After reordering, consecutive vertex ids must land on flash so that (a)
//! neighbors share pages (spatial locality) and (b) consecutive pages fall
//! in *different planes of the same LUN at the same page address*, because
//! multi-plane command sequences require distinct plane bits but identical
//! page/LUN addresses. Naively mapping reordered vertices to consecutive
//! physical addresses keeps (a) but destroys (b) — that is the
//! [`PlacementPolicy::Linear`] ablation baseline. The paper's strategy
//! ([`PlacementPolicy::MultiPlaneAware`]) walks: page *i* of plane *j* in
//! LUN *m* → same page *i* of plane *j+1* (same LUN) → next LUN → … → after
//! all LUNs, back to the first LUN with page *i+1*.

use ndsearch_flash::geometry::{FlashGeometry, LunId, PhysAddr};
use ndsearch_vector::VectorId;

/// How vertices are laid out on the flash array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Consecutive vertices fill consecutive pages of one plane before
    /// moving on (sacrifices multi-plane parallelism; the "re" ablation
    /// point without "mp").
    Linear,
    /// The paper's multi-plane-aware interleaving (Fig. 11).
    #[default]
    MultiPlaneAware,
}

/// A computed placement: every vertex's (LUN, plane, block, page, slot).
#[derive(Debug, Clone)]
pub struct VertexMapping {
    geom: FlashGeometry,
    policy: PlacementPolicy,
    slot_bytes: u32,
    slots_per_page: u32,
    /// Per vertex: packed placement.
    lun: Vec<LunId>,
    plane_in_lun: Vec<u8>,
    logical_block: Vec<u32>,
    page: Vec<u32>,
    slot: Vec<u32>,
}

impl VertexMapping {
    /// Places `n` vertices of `vector_bytes` each on `geom` under `policy`.
    ///
    /// # Panics
    /// Panics if a vector does not fit in a page, or if the device cannot
    /// hold all `n` vectors.
    pub fn place(
        geom: FlashGeometry,
        n: usize,
        vector_bytes: usize,
        policy: PlacementPolicy,
    ) -> Self {
        geom.validate().expect("invalid geometry");
        assert!(vector_bytes > 0, "vector bytes must be positive");
        let slot_bytes = vector_bytes as u32;
        let slots_per_page = geom.page_bytes / slot_bytes;
        assert!(
            slots_per_page > 0,
            "vector of {} bytes does not fit a {}-byte page",
            vector_bytes,
            geom.page_bytes
        );
        let capacity = geom.total_pages() * u64::from(slots_per_page);
        assert!(
            (n as u64) <= capacity,
            "{n} vertices exceed device capacity of {capacity} slots"
        );

        let mut m = Self {
            geom,
            policy,
            slot_bytes,
            slots_per_page,
            lun: Vec::with_capacity(n),
            plane_in_lun: Vec::with_capacity(n),
            logical_block: Vec::with_capacity(n),
            page: Vec::with_capacity(n),
            slot: Vec::with_capacity(n),
        };

        let pages_needed = (n as u64).div_ceil(u64::from(slots_per_page));
        let mut placed = 0usize;
        for page_seq in 0..pages_needed {
            let (lun, plane, block, page) = match policy {
                PlacementPolicy::Linear => linear_page(&geom, page_seq),
                PlacementPolicy::MultiPlaneAware => multiplane_page(&geom, page_seq),
            };
            for slot in 0..slots_per_page {
                if placed >= n {
                    break;
                }
                m.lun.push(lun);
                m.plane_in_lun.push(plane as u8);
                m.logical_block.push(block);
                m.page.push(page);
                m.slot.push(slot);
                placed += 1;
            }
        }
        m
    }

    /// Appends one vertex to the placement, continuing the policy's walk
    /// exactly where [`place`](Self::place) stopped (vertex `i` always
    /// occupies slot `i % slots_per_page` of walk page `i / slots_per_page`,
    /// so base and delta vertices share one address arithmetic). Returns
    /// the new vertex id. This is the placement half of an online insert.
    ///
    /// # Panics
    /// Panics if the device has no free slot left.
    pub fn append_one(&mut self) -> VectorId {
        let i = self.len() as u64;
        let capacity = self.capacity_slots();
        assert!(i < capacity, "device full: {capacity} slots all placed");
        let page_seq = i / u64::from(self.slots_per_page);
        let slot = (i % u64::from(self.slots_per_page)) as u32;
        let (lun, plane, block, page) = match self.policy {
            PlacementPolicy::Linear => linear_page(&self.geom, page_seq),
            PlacementPolicy::MultiPlaneAware => multiplane_page(&self.geom, page_seq),
        };
        self.lun.push(lun);
        self.plane_in_lun.push(plane as u8);
        self.logical_block.push(block);
        self.page.push(page);
        self.slot.push(slot);
        (self.len() - 1) as VectorId
    }

    /// NAND pages the placement spans (the sequential walk fills pages
    /// without gaps, so this is `ceil(len / slots_per_page)`).
    pub fn pages_used(&self) -> u64 {
        (self.len() as u64).div_ceil(u64::from(self.slots_per_page))
    }

    /// Total vector slots the geometry can hold under this mapping —
    /// the bound [`append_one`](Self::append_one) enforces. Callers with
    /// a rejection path (the serving layer's ingest backpressure) check
    /// this before appending.
    pub fn capacity_slots(&self) -> u64 {
        self.geom.total_pages() * u64::from(self.slots_per_page)
    }

    /// Geometry the mapping targets.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geom
    }

    /// Placement policy used.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of placed vertices.
    pub fn len(&self) -> usize {
        self.lun.len()
    }

    /// Whether no vertices are placed.
    pub fn is_empty(&self) -> bool {
        self.lun.is_empty()
    }

    /// Vectors per page.
    pub fn slots_per_page(&self) -> u32 {
        self.slots_per_page
    }

    /// Bytes per slot.
    pub fn slot_bytes(&self) -> u32 {
        self.slot_bytes
    }

    /// LUN holding a vertex.
    pub fn lun_of(&self, v: VectorId) -> LunId {
        self.lun[v as usize]
    }

    /// Plane-in-LUN holding a vertex.
    pub fn plane_of(&self, v: VectorId) -> u32 {
        u32::from(self.plane_in_lun[v as usize])
    }

    /// Block (within the plane) holding a vertex. The model keeps the
    /// identity block map, so this is also the physical block.
    pub fn logical_block_of(&self, v: VectorId) -> u32 {
        self.logical_block[v as usize]
    }

    /// Page within the block.
    pub fn page_of(&self, v: VectorId) -> u32 {
        self.page[v as usize]
    }

    /// Physical address of a vertex, straight from the static placement.
    #[inline]
    pub fn addr(&self, v: VectorId) -> PhysAddr {
        PhysAddr {
            lun: self.lun_of(v),
            plane_in_lun: self.plane_of(v),
            block: self.logical_block_of(v),
            page: self.page_of(v),
            byte: self.slot[v as usize] * self.slot_bytes,
        }
    }

    /// Global plane id of a vertex.
    pub fn global_plane_of(&self, v: VectorId) -> u32 {
        self.geom.plane_of(self.lun_of(v), self.plane_of(v))
    }
}

/// Linear (naive) walk: sequential physical addresses as a real FTL lays
/// them out — striped channel-first for write bandwidth (channel → chip →
/// LUN → plane → page). Spatial spread is preserved, but the *plane*
/// dimension advances last, so two planes of one LUN holding the same
/// (block, page) address are `total_luns × channels`-ish apart in vertex
/// order — multi-plane sequences almost never find aligned work. This is
/// the "sacrifices multi-plane parallelism" baseline of §VI-A2.
fn linear_page(geom: &FlashGeometry, seq: u64) -> (LunId, u32, u32, u32) {
    let channels = u64::from(geom.channels);
    let chips = u64::from(geom.chips_per_channel);
    let luns_per_chip = u64::from(geom.luns_per_chip());
    let planes = u64::from(geom.planes_per_lun);
    let channel = seq % channels;
    let t = seq / channels;
    let chip = t % chips;
    let t = t / chips;
    let lun_in_chip = t % luns_per_chip;
    let t = t / luns_per_chip;
    let plane = (t % planes) as u32;
    let page_seq = t / planes;
    let lun = ((channel * chips + chip) * luns_per_chip + lun_in_chip) as LunId;
    let block = (page_seq / u64::from(geom.pages_per_block)) as u32 % geom.blocks_per_plane;
    let page = (page_seq % u64::from(geom.pages_per_block)) as u32;
    (lun, plane, block, page)
}

/// Fig. 11 walk: the planes of a LUN first (same page address → multi-plane
/// alignment for consecutive pages), then across channels/chips/LUNs, then
/// advance the page address.
fn multiplane_page(geom: &FlashGeometry, seq: u64) -> (LunId, u32, u32, u32) {
    let channels = u64::from(geom.channels);
    let chips = u64::from(geom.chips_per_channel);
    let luns_per_chip = u64::from(geom.luns_per_chip());
    let planes = u64::from(geom.planes_per_lun);
    let plane = (seq % planes) as u32;
    let t = seq / planes;
    let channel = t % channels;
    let t2 = t / channels;
    let chip = t2 % chips;
    let t3 = t2 / chips;
    let lun_in_chip = t3 % luns_per_chip;
    let page_seq = t3 / luns_per_chip;
    let lun = ((channel * chips + chip) * luns_per_chip + lun_in_chip) as LunId;
    let block = (page_seq / u64::from(geom.pages_per_block)) as u32 % geom.blocks_per_plane;
    let page = (page_seq % u64::from(geom.pages_per_block)) as u32;
    (lun, plane, block, page)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FlashGeometry {
        FlashGeometry::tiny()
    }

    #[test]
    fn multiplane_walk_pairs_planes_then_stripes_channels() {
        let g = tiny(); // 8 LUNs, 2 planes/LUN, 2048-byte pages
        let m = VertexMapping::place(g, 1000, 128, PlacementPolicy::MultiPlaneAware);
        let spp = m.slots_per_page(); // 16
        assert_eq!(spp, 16);
        // First page of vertices: LUN 0 plane 0.
        assert_eq!(m.lun_of(0), 0);
        assert_eq!(m.plane_of(0), 0);
        // Next page: same LUN, plane 1, same page address (multi-plane pair).
        let v = spp; // first vertex of second page
        assert_eq!(m.lun_of(v), 0);
        assert_eq!(m.plane_of(v), 1);
        assert_eq!(m.page_of(v), m.page_of(0));
        assert_eq!(m.logical_block_of(v), m.logical_block_of(0));
        // Third page pair: next *channel* (channel striping for spread).
        let v = 2 * spp;
        assert_eq!(g.lun_channel(m.lun_of(v)), 1);
        assert_eq!(m.plane_of(v), 0);
    }

    #[test]
    fn multiplane_pairs_satisfy_restrictions() {
        // Multi-plane restriction: distinct plane bits, same page & LUN.
        let g = tiny();
        let m = VertexMapping::place(g, 512, 128, PlacementPolicy::MultiPlaneAware);
        let spp = m.slots_per_page() as usize;
        for pair_start in (0..m.len() / spp).step_by(2) {
            let a = (pair_start * spp) as u32;
            let b = ((pair_start + 1) * spp) as u32;
            if (b as usize) < m.len() {
                assert_eq!(m.lun_of(a), m.lun_of(b), "same LUN");
                assert_ne!(m.plane_of(a), m.plane_of(b), "distinct planes");
                assert_eq!(m.page_of(a), m.page_of(b), "same page address");
            }
        }
    }

    #[test]
    fn linear_walk_never_pairs_planes_adjacently() {
        let g = tiny();
        let m = VertexMapping::place(g, 1000, 128, PlacementPolicy::Linear);
        let spp = m.slots_per_page();
        // Consecutive pages stripe to a different channel, same plane index:
        // no multi-plane alignment between neighbors in vertex order.
        assert_ne!(g.lun_channel(m.lun_of(0)), g.lun_channel(m.lun_of(spp)));
        assert_eq!(m.plane_of(0), m.plane_of(spp));
        // The plane dimension only advances after all LUNs are covered.
        let pages_before_plane_flip = g.total_luns();
        let v = pages_before_plane_flip * spp;
        assert_eq!(m.plane_of(v), 1);
        assert_eq!(m.lun_of(v), m.lun_of(0));
    }

    #[test]
    fn addresses_are_valid_and_unique() {
        let g = tiny();
        for policy in [PlacementPolicy::Linear, PlacementPolicy::MultiPlaneAware] {
            let m = VertexMapping::place(g, 2000, 100, policy);
            let mut seen = std::collections::HashSet::new();
            for v in 0..m.len() as u32 {
                let a = m.addr(v);
                PhysAddr::checked(&g, a.lun, a.plane_in_lun, a.block, a.page, a.byte)
                    .unwrap_or_else(|e| panic!("{policy:?}: invalid addr for {v}: {e}"));
                assert!(seen.insert((a.lun, a.plane_in_lun, a.block, a.page, a.byte)));
            }
        }
    }

    #[test]
    fn consecutive_vertices_share_pages() {
        let g = tiny();
        let m = VertexMapping::place(g, 64, 128, PlacementPolicy::MultiPlaneAware);
        // Vertices 0..16 share the first page.
        for v in 0..16u32 {
            assert_eq!(m.lun_of(v), m.lun_of(0));
            assert_eq!(m.page_of(v), m.page_of(0));
        }
    }

    #[test]
    fn both_walks_spread_across_all_luns() {
        let g = tiny();
        let n = 16 * 2 * 8 * 2; // two pages per LUN's worth of vertices
        for policy in [PlacementPolicy::MultiPlaneAware, PlacementPolicy::Linear] {
            let m = VertexMapping::place(g, n, 128, policy);
            let luns: std::collections::HashSet<_> =
                (0..m.len() as u32).map(|v| m.lun_of(v)).collect();
            assert_eq!(luns.len(), 8, "{policy:?} should stripe all LUNs");
        }
        // But only the multi-plane walk creates aligned plane pairs among
        // *consecutive* pages.
        let mp = VertexMapping::place(g, n, 128, PlacementPolicy::MultiPlaneAware);
        let lin = VertexMapping::place(g, n, 128, PlacementPolicy::Linear);
        let aligned = |m: &VertexMapping| {
            let spp = m.slots_per_page();
            (0..(n as u32 / spp).saturating_sub(1))
                .filter(|&p| {
                    let a = p * spp;
                    let b = (p + 1) * spp;
                    m.lun_of(a) == m.lun_of(b)
                        && m.plane_of(a) != m.plane_of(b)
                        && m.page_of(a) == m.page_of(b)
                        && m.logical_block_of(a) == m.logical_block_of(b)
                })
                .count()
        };
        assert!(aligned(&mp) > 0, "multi-plane walk must align pairs");
        assert_eq!(aligned(&lin), 0, "linear walk must not align pairs");
    }

    #[test]
    #[should_panic(expected = "exceed device capacity")]
    fn overflow_panics() {
        let g = tiny();
        let capacity = g.total_pages() * (g.page_bytes / 128) as u64;
        VertexMapping::place(
            g,
            capacity as usize + 1,
            128,
            PlacementPolicy::MultiPlaneAware,
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_vector_panics() {
        VertexMapping::place(tiny(), 1, 4096, PlacementPolicy::Linear);
    }

    #[test]
    fn addr_reads_every_placement_field() {
        let g = tiny();
        let m = VertexMapping::place(g, 40, 128, PlacementPolicy::MultiPlaneAware);
        for v in 0..m.len() as u32 {
            let a = m.addr(v);
            assert_eq!(a.lun, m.lun_of(v));
            assert_eq!(a.plane_in_lun, m.plane_of(v));
            assert_eq!(a.block, m.logical_block_of(v));
            assert_eq!(a.page, m.page_of(v));
            assert_eq!(a.byte, (v % m.slots_per_page()) * 128);
        }
    }
}
