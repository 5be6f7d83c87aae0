//! Access statistics shared by the platform models.

/// Counters accumulated while replaying a trace against the flash model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Pages sensed from the NAND array into page buffers.
    pub page_reads: u64,
    /// `<SearchPage>` operations executed by in-LUN accelerators.
    pub search_ops: u64,
    /// Page loads avoided because the page was already in a page buffer
    /// (temporal locality exploited by dynamic allocating).
    pub page_buffer_hits: u64,
    /// Bytes moved across channel buses.
    pub bus_bytes: u64,
    /// Bytes moved across the host PCIe link.
    pub pcie_bytes: u64,
    /// Multi-plane command sequences issued.
    pub multi_plane_ops: u64,
    /// Distance evaluations performed.
    pub distance_evals: u64,
    /// Hard-decision LDPC failures that fell back to soft decision.
    pub ecc_soft_fallbacks: u64,
    /// Pages programmed into the NAND array (online inserts, compaction
    /// rewrites).
    pub page_programs: u64,
    /// Blocks erased (compaction).
    pub block_erases: u64,
}

impl FlashStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &FlashStats) {
        self.page_reads += other.page_reads;
        self.search_ops += other.search_ops;
        self.page_buffer_hits += other.page_buffer_hits;
        self.bus_bytes += other.bus_bytes;
        self.pcie_bytes += other.pcie_bytes;
        self.multi_plane_ops += other.multi_plane_ops;
        self.distance_evals += other.distance_evals;
        self.ecc_soft_fallbacks += other.ecc_soft_fallbacks;
        self.page_programs += other.page_programs;
        self.block_erases += other.block_erases;
    }

    /// Page accesses per visited vertex — the paper's *page access ratio*
    /// (§VII-B "Scheduling"): total page reads divided by trace length.
    /// Lower is better spatial locality.
    pub fn page_access_ratio(&self, trace_len: u64) -> f64 {
        if trace_len == 0 {
            0.0
        } else {
            self.page_reads as f64 / trace_len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = FlashStats {
            page_reads: 1,
            bus_bytes: 10,
            ..FlashStats::new()
        };
        let b = FlashStats {
            page_reads: 2,
            pcie_bytes: 5,
            ..FlashStats::new()
        };
        a.merge(&b);
        assert_eq!(a.page_reads, 3);
        assert_eq!(a.bus_bytes, 10);
        assert_eq!(a.pcie_bytes, 5);
    }

    #[test]
    fn page_access_ratio_handles_zero() {
        let s = FlashStats::new();
        assert_eq!(s.page_access_ratio(0), 0.0);
        let s = FlashStats {
            page_reads: 50,
            ..FlashStats::new()
        };
        assert_eq!(s.page_access_ratio(100), 0.5);
    }
}
