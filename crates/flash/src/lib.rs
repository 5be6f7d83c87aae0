//! Trace-driven NAND flash / SSD simulator for the NDSEARCH reproduction.
//!
//! The paper evaluates SearSSD with an in-house simulator built on SSD-Sim:
//! a memory-trace-driven, cycle-level model of a modern SSD. This crate is
//! the from-scratch Rust equivalent. It models:
//!
//! * the physical hierarchy — channels → chips → LUNs → planes → blocks →
//!   pages ([`geometry::FlashGeometry`]) with ONFI-style row/column
//!   addressing ([`geometry::PhysAddr`]);
//! * timing ([`timing::FlashTiming`]) — page sense time, channel bus
//!   transfer, the ~30 µs page-buffer→external-accelerator penalty that
//!   motivates in-LUN compute, and PCIe links;
//! * no flash translation layer: the §II-B2 block-level refresh is rare
//!   in the read-only search phase, so the model keeps the identity block
//!   map and LUNCSR's addresses come straight from the static placement;
//! * LDPC error correction: in-SiN hard-decision decoding and FTL
//!   soft-decision fallback, with failures injected from the
//!   hard-decision probability alone (Fig. 18b), beside the descriptive
//!   per-plane raw-BER distribution of Fig. 18(a)
//!   ([`ecc::plane_raw_bers`]).
//!
//! The paper's `<SearchPage>` command (Fig. 9) is not modelled command by
//! command: `ndsearch_core`'s SiN stage charges each LUN unit one
//! `t_command_ns` per page sense plus the channel transfer of its computed
//! distances, so only results, never raw pages, cross the bus.
//!
//! Everything is deterministic given a seed, and every time is simulated:
//! the crate never reads the host clock.
//!
//! # Example
//!
//! ```
//! use ndsearch_flash::{FlashGeometry, FlashTiming};
//!
//! let geom = FlashGeometry::searssd_default();
//! assert_eq!(geom.total_luns(), 256);
//! assert_eq!(geom.total_capacity_bytes(), 512 << 30);
//! let timing = FlashTiming::default();
//! assert!(timing.internal_bandwidth_bytes_per_s(&geom) > 500e9);
//! ```

#![warn(missing_docs)]

pub mod ecc;
pub mod geometry;
pub mod stats;
pub mod timing;

pub use ecc::{EccConfig, EccDelta, EccEngine, EccLunPass};
pub use geometry::{FlashGeometry, LunId, PhysAddr, PlaneId};
pub use stats::FlashStats;
pub use timing::{FlashTiming, PcieLink};
