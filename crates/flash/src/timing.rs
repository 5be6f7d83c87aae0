//! Latency and bandwidth parameters.
//!
//! All latencies are in nanoseconds (`u64`), matching the event-driven
//! engine's clock. Defaults are calibrated to the paper's platform: a
//! Samsung 983 DCT-class V-NAND device, ONFI-4-class channel buses, an
//! 800 MHz accelerator clock (§VII-A), a ~30 µs penalty for moving a page
//! buffer out of the NAND die to an external accelerator (§III), and a
//! PCIe 3.0 ×16 host link with 15.4 GB/s peak (§I).

use crate::geometry::FlashGeometry;

/// Nanoseconds, the engine-wide time unit.
pub type Nanos = u64;

/// The ceiling of `x` in whole nanoseconds — bit for bit [`f64::ceil`]
/// then the saturating cast — without the `ceil` call: the baseline x86-64
/// target has no rounding instruction, so `f64::ceil` is a libm call, and
/// the device model converts a time on every busy plane.
///
/// Exact because the truncating cast is: for `0 <= x < 2^64` it yields
/// `⌊x⌋`, which converts back to `f64` without rounding (a value with a
/// fraction is below 2^52; at or above 2^53 every `f64` is an integer), so
/// `(⌊x⌋ as f64) < x` holds iff `x` has a fraction. The cast sends NaN and
/// every negative to 0 — as `ceil` then the cast do, `-0.5` ceiling to
/// `-0.0` — and saturates from 2^64 up, where adding one must saturate
/// too (`+∞` and values above 2^64 compare above `Nanos::MAX as f64`).
pub fn ceil_ns(x: f64) -> Nanos {
    let floor = x as Nanos;
    floor.saturating_add(Nanos::from((floor as f64) < x))
}

/// NAND / SSD timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashTiming {
    /// Page sense time tR: NAND array → plane page buffer.
    pub t_read_page_ns: Nanos,
    /// Page program time tPROG: page buffer → NAND array (online inserts
    /// and compaction rewrites pay this).
    pub t_program_page_ns: Nanos,
    /// Block erase time tBERS (compaction pays this before rewriting a
    /// block).
    pub t_erase_block_ns: Nanos,
    /// Channel bus bandwidth in bytes/second (shared by the chips, thus the
    /// LUNs, of one channel).
    pub channel_bus_bytes_per_s: f64,
    /// Extra latency to move a page buffer to an accelerator *outside* the
    /// NAND flash chip (DeepStore-style chip/channel accelerators pay this;
    /// §III measures ~30 µs).
    pub t_buffer_to_external_ns: Nanos,
    /// Time for an in-LUN accelerator to stream one byte out of the page
    /// buffer (sets the internal bandwidth of Fig. 2b).
    pub page_buffer_read_ns_per_byte: f64,
    /// Command issue/decode overhead per NAND command.
    pub t_command_ns: Nanos,
    /// Accelerator (MAC / Vgen / Alloc logic) clock frequency in Hz.
    pub accel_clock_hz: f64,
    /// SSD-internal DRAM random access latency (per 64 B line).
    pub t_dram_access_ns: Nanos,
    /// SSD-internal DRAM bandwidth, bytes/second.
    pub dram_bytes_per_s: f64,
    /// Embedded-core time to process one query-iteration bookkeeping step.
    pub t_embedded_op_ns: Nanos,
}

impl FlashTiming {
    /// Internal bandwidth if every plane's page buffer streams
    /// simultaneously (the "roofline lifting" of Fig. 2b; the paper quotes
    /// 819.2 GB/s for the default geometry).
    pub fn internal_bandwidth_bytes_per_s(&self, geom: &FlashGeometry) -> f64 {
        f64::from(geom.total_planes()) / self.page_buffer_read_ns_per_byte * 1e9
    }

    /// Time to stream `bytes` from a page buffer into the in-LUN
    /// accelerator.
    pub fn page_buffer_stream_ns(&self, bytes: u64) -> Nanos {
        ceil_ns(bytes as f64 * self.page_buffer_read_ns_per_byte)
    }

    /// Time to move `bytes` over one channel bus.
    pub fn channel_transfer_ns(&self, bytes: u64) -> Nanos {
        ceil_ns(bytes as f64 / self.channel_bus_bytes_per_s * 1e9)
    }

    /// Cycles → nanoseconds at the accelerator clock.
    pub fn accel_cycles_ns(&self, cycles: u64) -> Nanos {
        ceil_ns(cycles as f64 / self.accel_clock_hz * 1e9)
    }

    /// Time to move `bytes` through internal DRAM.
    pub fn dram_transfer_ns(&self, bytes: u64) -> Nanos {
        ceil_ns(bytes as f64 / self.dram_bytes_per_s * 1e9)
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        Self {
            // V-NAND MLC page sense.
            t_read_page_ns: 45_000,
            // V-NAND MLC page program (tPROG ≈ 13–15× tR).
            t_program_page_ns: 600_000,
            // V-NAND block erase (tBERS, milliseconds-class).
            t_erase_block_ns: 3_500_000,
            // ONFI-4-class channel: 800 MB/s.
            channel_bus_bytes_per_s: 800e6,
            // §III: reading page buffer to an accelerator outside the chip.
            t_buffer_to_external_ns: 30_000,
            // Calibrated so the 512-plane default geometry yields the
            // paper's 819.2 GB/s internal bandwidth:
            // 512 planes / x ns-per-byte = 819.2 B/ns  ⇒  x = 0.625.
            page_buffer_read_ns_per_byte: 0.625,
            t_command_ns: 200,
            accel_clock_hz: 800e6,
            t_dram_access_ns: 50,
            dram_bytes_per_s: 12.8e9,
            t_embedded_op_ns: 25,
        }
    }
}

/// A PCIe link with efficiency-derated bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    /// Peak (derated) bandwidth in bytes/second.
    pub bytes_per_s: f64,
    /// Fixed per-transfer latency (DMA setup, doorbells).
    pub base_latency_ns: Nanos,
}

impl PcieLink {
    /// PCIe 3.0 ×16 host link; the paper quotes 15.4 GB/s peak.
    pub const fn gen3_x16() -> Self {
        Self {
            bytes_per_s: 15.4e9,
            base_latency_ns: 1_000,
        }
    }

    /// PCIe 3.0 ×4 (the private SSD↔FPGA link of SmartSSD, §IV-A).
    pub const fn gen3_x4() -> Self {
        Self {
            bytes_per_s: 15.4e9 / 4.0,
            base_latency_ns: 1_000,
        }
    }

    /// Time to move `bytes` across the link.
    pub fn transfer_ns(&self, bytes: u64) -> Nanos {
        self.base_latency_ns + ceil_ns(bytes as f64 / self.bytes_per_s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_ns_equals_ceil_then_cast() {
        let p52 = 2f64.powi(52);
        let p53 = 2f64.powi(53);
        let p63 = 2f64.powi(63);
        let p64 = 2f64.powi(64);
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.1,
            0.5,
            0.999_999,
            1.0,
            1.5,
            2.0,
            1e9 / 800e6,
            132.99,
            -0.5,
            -1.0,
            -3.75,
            -p64,
            f64::MIN,
            f64::MAX,
            p64,
            p64 * 2.0,
            1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // The neighbours of 2^52 (where fractions end), 2^53
        // (the first without odd integers) and 2^63 / 2^64 (the top of
        // `Nanos`, where the cast saturates).
        for p in [p52, p53, p63, p64] {
            let mut below = p;
            let mut above = p;
            for _ in 0..4 {
                below = f64::from_bits(below.to_bits() - 1);
                above = f64::from_bits(above.to_bits() + 1);
                xs.extend([below, above, below - 0.5, below + 0.5]);
            }
        }
        let mut rng = ndsearch_vector::rng::Pcg32::seed_from_u64(5);
        for _ in 0..100_000 {
            // Every bit pattern (NaN payloads, subnormals, huge and
            // negative values) and, as often, the small times a device
            // model converts.
            let any = f64::from_bits(rng.next_u64());
            let time = rng.next_f64() * 2f64.powi(rng.index(70) as i32);
            xs.extend([any, time]);
        }
        for x in xs {
            let (ceiling, bits) = (x.ceil(), x.to_bits());
            assert_eq!(ceil_ns(x), ceiling as Nanos, "x = {x:e} ({bits:#x})");
        }
    }

    #[test]
    fn default_internal_bandwidth_matches_paper() {
        let t = FlashTiming::default();
        let g = FlashGeometry::searssd_default();
        let bw = t.internal_bandwidth_bytes_per_s(&g);
        // Paper: 819.2 GB/s.
        assert!((bw - 819.2e9).abs() / 819.2e9 < 1e-6, "bw = {bw}");
    }

    #[test]
    fn channel_transfer_scales_linearly() {
        let t = FlashTiming::default();
        let one = t.channel_transfer_ns(16 * 1024);
        let two = t.channel_transfer_ns(32 * 1024);
        assert!(two >= 2 * one - 1);
        // 16 KiB at 800 MB/s ≈ 20.48 µs.
        assert!((one as f64 - 20_480.0).abs() < 10.0, "one = {one}");
    }

    #[test]
    fn accel_cycles_at_800mhz() {
        let t = FlashTiming::default();
        // 800 cycles at 800 MHz = 1 µs.
        assert_eq!(t.accel_cycles_ns(800), 1_000);
    }

    #[test]
    fn pcie_x16_vs_x4() {
        let x16 = PcieLink::gen3_x16();
        let x4 = PcieLink::gen3_x4();
        let b = 1 << 20;
        assert!(x4.transfer_ns(b) > 3 * x16.transfer_ns(b) / 2);
    }

    #[test]
    fn pcie_saturates_with_large_transfers() {
        // The fixed per-transfer latency dominates small transfers only.
        let link = PcieLink::gen3_x16();
        let achieved = |bytes: u64| bytes as f64 / (link.transfer_ns(bytes) as f64 / 1e9);
        let small = achieved(4 * 1024);
        let large = achieved(64 * 1024 * 1024);
        assert!(small < 0.8 * link.bytes_per_s, "small = {small:.3e}");
        assert!(large > 0.99 * link.bytes_per_s, "large = {large:.3e}");
    }

    #[test]
    fn dram_and_page_buffer_helpers() {
        let t = FlashTiming::default();
        assert!(t.page_buffer_stream_ns(16 * 1024) < t.channel_transfer_ns(16 * 1024));
        assert!(t.dram_transfer_ns(64) > 0);
    }
}
