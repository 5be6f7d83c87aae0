//! Graph storage, reordering and flash placement for NDSEARCH.
//!
//! This crate owns everything between "an ANNS proximity graph exists" and
//! "every vertex has a physical NAND address":
//!
//! * [`csr::Csr`] — compressed sparse row adjacency, the base format the
//!   paper extends;
//! * [`reorder`] — the static-scheduling reordering algorithms of §VI-A:
//!   the paper's deterministic *degree-ascending breadth-first* method, the
//!   random-BFS baseline it is compared against in Fig. 14, and the
//!   bandwidth objective β(G, f) of Eq. 1;
//! * [`mapping`] — vertex → (LUN, plane, block, page, slot) placement under
//!   the multi-plane addressing restrictions of §VI-A2 / Fig. 11, plus the
//!   naive linear placement used as the `mp` ablation baseline;
//! * [`luncsr::LunCsr`] — the paper's new graph format: CSR extended with
//!   LUN and BLK arrays so the Allocator can infer physical addresses
//!   without invoking FTL translation (§IV-B / Fig. 5b), as a staged base
//!   plus an append-only delta for online inserts;
//! * [`legacy`] — the baseline interleaved vector+neighbor layout of Fig. 6
//!   and its storage-overhead arithmetic.
//!
//! # Example
//!
//! ```
//! use ndsearch_graph::{Csr, ReorderMethod};
//! let csr = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)], true).unwrap();
//! let perm = ReorderMethod::DegreeAscendingBfs.permutation(&csr, 0);
//! let reordered = csr.relabel(&perm);
//! assert_eq!(reordered.num_vertices(), 4);
//! ```

#![warn(missing_docs)]

pub mod csr;
pub mod legacy;
pub mod luncsr;
pub mod mapping;
pub mod reorder;

pub use csr::Csr;
pub use luncsr::LunCsr;
pub use mapping::{PlacementPolicy, VertexMapping};
pub use reorder::{bandwidth, Permutation, ReorderMethod};
