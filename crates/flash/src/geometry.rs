//! Physical organization of the NAND flash array.
//!
//! §II-B1: storage elements are hierarchically organized as channels →
//! chips → LUNs → planes → blocks → pages. One or more planes form a LUN,
//! the minimal unit that can independently execute commands. The NAND
//! address splits into a *row address* (LUN, block, page) and a *column
//! address* (byte within a page), as Fig. 5(b) illustrates.

/// Global LUN index across the whole device (0 .. total_luns).
pub type LunId = u32;

/// Global plane index across the whole device (0 .. total_planes).
pub type PlaneId = u32;

/// Shape of the flash array.
///
/// The SearSSD configuration from §IV-C: 512 GB of SiN capacity organized
/// as 32 channels × 4 chips × 4 planes (two planes per LUN ⇒ 2 LUNs/chip,
/// 256 LUNs total) × 512 blocks/plane × 128 pages/block × 16 KiB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Number of independent channels.
    pub channels: u32,
    /// Flash chips per channel.
    pub chips_per_channel: u32,
    /// Planes per chip.
    pub planes_per_chip: u32,
    /// Planes grouped into one LUN.
    pub planes_per_lun: u32,
    /// Blocks per plane.
    pub blocks_per_plane: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_bytes: u32,
}

impl FlashGeometry {
    /// The paper's SearSSD configuration (§IV-C): 512 GB, 256 LUNs.
    pub fn searssd_default() -> Self {
        Self {
            channels: 32,
            chips_per_channel: 4,
            planes_per_chip: 4,
            planes_per_lun: 2,
            blocks_per_plane: 512,
            pages_per_block: 128,
            page_bytes: 16 * 1024,
        }
    }

    /// A tiny geometry for unit tests: 2 channels × 2 chips × 4 planes
    /// (2 planes/LUN), 4 blocks, 8 pages, 2 KiB pages.
    pub fn tiny() -> Self {
        Self {
            channels: 2,
            chips_per_channel: 2,
            planes_per_chip: 4,
            planes_per_lun: 2,
            blocks_per_plane: 4,
            pages_per_block: 8,
            page_bytes: 2048,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a human-readable message when a field is zero or the plane
    /// count is not divisible into LUNs.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            (self.channels, "channels"),
            (self.chips_per_channel, "chips_per_channel"),
            (self.planes_per_chip, "planes_per_chip"),
            (self.planes_per_lun, "planes_per_lun"),
            (self.blocks_per_plane, "blocks_per_plane"),
            (self.pages_per_block, "pages_per_block"),
            (self.page_bytes, "page_bytes"),
        ];
        for (v, name) in fields {
            if v == 0 {
                return Err(format!("{name} must be positive"));
            }
        }
        if !self.planes_per_chip.is_multiple_of(self.planes_per_lun) {
            return Err(format!(
                "planes_per_chip ({}) must be divisible by planes_per_lun ({})",
                self.planes_per_chip, self.planes_per_lun
            ));
        }
        Ok(())
    }

    /// Total chips in the device.
    pub fn total_chips(&self) -> u32 {
        self.channels * self.chips_per_channel
    }

    /// LUNs per chip.
    pub fn luns_per_chip(&self) -> u32 {
        self.planes_per_chip / self.planes_per_lun
    }

    /// Total LUNs in the device (= number of LUN-level accelerators).
    pub fn total_luns(&self) -> u32 {
        self.total_chips() * self.luns_per_chip()
    }

    /// Total planes in the device (= number of page buffers).
    pub fn total_planes(&self) -> u32 {
        self.total_chips() * self.planes_per_chip
    }

    /// Total pages.
    pub fn total_pages(&self) -> u64 {
        u64::from(self.total_planes())
            * u64::from(self.blocks_per_plane)
            * u64::from(self.pages_per_block)
    }

    /// Total capacity in bytes.
    pub fn total_capacity_bytes(&self) -> u64 {
        self.total_pages() * u64::from(self.page_bytes)
    }

    /// The channel a global LUN id lives on.
    pub fn lun_channel(&self, lun: LunId) -> u32 {
        lun / (self.chips_per_channel * self.luns_per_chip())
    }

    /// The chip (global index) a LUN lives on.
    pub fn lun_chip(&self, lun: LunId) -> u32 {
        lun / self.luns_per_chip()
    }

    /// Global plane id for a (LUN, plane-in-LUN) pair.
    ///
    /// # Panics
    /// Panics if `plane_in_lun >= planes_per_lun`.
    pub fn plane_of(&self, lun: LunId, plane_in_lun: u32) -> PlaneId {
        assert!(
            plane_in_lun < self.planes_per_lun,
            "plane index out of range"
        );
        lun * self.planes_per_lun + plane_in_lun
    }

    /// Bits needed for the row address (LUN ‖ block ‖ page), as encoded in
    /// the 26-bit row-address field of `<SearchPage>` (Fig. 9b).
    pub fn row_address_bits(&self) -> u32 {
        bits_for(self.total_luns())
            + bits_for(self.planes_per_lun)
            + bits_for(self.blocks_per_plane)
            + bits_for(self.pages_per_block)
    }
}

impl Default for FlashGeometry {
    fn default() -> Self {
        Self::searssd_default()
    }
}

fn bits_for(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

/// A fully resolved physical NAND address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr {
    /// Global LUN id.
    pub lun: LunId,
    /// Plane within the LUN (0 .. planes_per_lun).
    pub plane_in_lun: u32,
    /// Block within the plane.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
    /// Byte offset within the page (column address).
    pub byte: u32,
}

impl PhysAddr {
    /// Creates an address, validating it against a geometry.
    ///
    /// # Errors
    /// Returns a message naming the out-of-range component.
    pub fn checked(
        geom: &FlashGeometry,
        lun: LunId,
        plane_in_lun: u32,
        block: u32,
        page: u32,
        byte: u32,
    ) -> Result<Self, String> {
        if lun >= geom.total_luns() {
            return Err(format!("lun {lun} out of range"));
        }
        if plane_in_lun >= geom.planes_per_lun {
            return Err(format!("plane {plane_in_lun} out of range"));
        }
        if block >= geom.blocks_per_plane {
            return Err(format!("block {block} out of range"));
        }
        if page >= geom.pages_per_block {
            return Err(format!("page {page} out of range"));
        }
        if byte >= geom.page_bytes {
            return Err(format!("byte {byte} out of range"));
        }
        Ok(Self {
            lun,
            plane_in_lun,
            block,
            page,
            byte,
        })
    }

    /// The global plane this address falls in.
    pub fn global_plane(&self, geom: &FlashGeometry) -> PlaneId {
        geom.plane_of(self.lun, self.plane_in_lun)
    }

    /// A compact global identifier for the *page* part of the address
    /// (ignores the byte/column), used for page-buffer-locality tracking.
    pub fn page_key(&self, geom: &FlashGeometry) -> u64 {
        let plane = u64::from(self.global_plane(geom));
        let pages_per_plane = u64::from(geom.blocks_per_plane) * u64::from(geom.pages_per_block);
        plane * pages_per_plane
            + u64::from(self.block) * u64::from(geom.pages_per_block)
            + u64::from(self.page)
    }

    /// The ONFI-style row address (LUN ‖ plane ‖ block ‖ page).
    pub fn row_address(&self, geom: &FlashGeometry) -> u64 {
        let mut row = u64::from(self.lun);
        row = row * u64::from(geom.planes_per_lun) + u64::from(self.plane_in_lun);
        row = row * u64::from(geom.blocks_per_plane) + u64::from(self.block);
        row * u64::from(geom.pages_per_block) + u64::from(self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searssd_default_matches_paper() {
        let g = FlashGeometry::searssd_default();
        g.validate().unwrap();
        assert_eq!(g.total_luns(), 256);
        assert_eq!(g.total_planes(), 512);
        assert_eq!(g.total_chips(), 128);
        // 512 GB of SiN capacity.
        assert_eq!(g.total_capacity_bytes(), 512 * 1024 * 1024 * 1024);
    }

    #[test]
    fn tiny_geometry_is_valid() {
        let g = FlashGeometry::tiny();
        g.validate().unwrap();
        assert_eq!(g.total_luns(), 8);
        assert_eq!(g.total_planes(), 16);
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let mut g = FlashGeometry::tiny();
        g.channels = 0;
        assert!(g.validate().unwrap_err().contains("channels"));
    }

    #[test]
    fn validate_rejects_indivisible_planes() {
        let mut g = FlashGeometry::tiny();
        g.planes_per_chip = 3;
        g.planes_per_lun = 2;
        assert!(g.validate().is_err());
    }

    #[test]
    fn lun_to_channel_and_chip() {
        let g = FlashGeometry::searssd_default();
        // 8 LUNs per channel (4 chips × 2 LUNs/chip).
        assert_eq!(g.lun_channel(0), 0);
        assert_eq!(g.lun_channel(7), 0);
        assert_eq!(g.lun_channel(8), 1);
        assert_eq!(g.lun_chip(0), 0);
        assert_eq!(g.lun_chip(1), 0);
        assert_eq!(g.lun_chip(2), 1);
    }

    #[test]
    fn phys_addr_checked_bounds() {
        let g = FlashGeometry::tiny();
        assert!(PhysAddr::checked(&g, 0, 0, 0, 0, 0).is_ok());
        assert!(PhysAddr::checked(&g, 8, 0, 0, 0, 0).is_err());
        assert!(PhysAddr::checked(&g, 0, 2, 0, 0, 0).is_err());
        assert!(PhysAddr::checked(&g, 0, 0, 4, 0, 0).is_err());
        assert!(PhysAddr::checked(&g, 0, 0, 0, 8, 0).is_err());
        assert!(PhysAddr::checked(&g, 0, 0, 0, 0, 2048).is_err());
    }

    #[test]
    fn page_keys_are_unique() {
        let g = FlashGeometry::tiny();
        let mut keys = std::collections::HashSet::new();
        for lun in 0..g.total_luns() {
            for plane in 0..g.planes_per_lun {
                for block in 0..g.blocks_per_plane {
                    for page in 0..g.pages_per_block {
                        let a = PhysAddr::checked(&g, lun, plane, block, page, 0).unwrap();
                        assert!(keys.insert(a.page_key(&g)), "duplicate key for {a:?}");
                    }
                }
            }
        }
        assert_eq!(keys.len() as u64, g.total_pages());
    }

    #[test]
    fn row_address_fits_declared_bits() {
        let g = FlashGeometry::searssd_default();
        let bits = g.row_address_bits();
        // Paper allocates 26 bits for LUN+plane+block+page.
        assert!(bits <= 26, "row address needs {bits} bits");
        let a = PhysAddr::checked(
            &g,
            g.total_luns() - 1,
            g.planes_per_lun - 1,
            g.blocks_per_plane - 1,
            g.pages_per_block - 1,
            0,
        )
        .unwrap();
        assert!(a.row_address(&g) < (1u64 << bits));
    }

    #[test]
    fn global_plane_is_dense() {
        let g = FlashGeometry::tiny();
        let a = PhysAddr::checked(&g, 3, 1, 0, 0, 0).unwrap();
        assert_eq!(a.global_plane(&g), 7);
    }
}
