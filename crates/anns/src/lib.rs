//! Graph-traversal ANNS algorithms with memory-trace recording.
//!
//! §VII-A ("Simulation method"): the paper runs the *real* search phase of
//! each algorithm, records the memory trace — "the index sequences of the
//! accessed vertices for each query" — and feeds those traces to the
//! trace-driven architecture simulator. This crate provides the same four
//! algorithms, implemented from scratch:
//!
//! * [`hnsw::Hnsw`] — hierarchical navigable small world graphs;
//! * [`vamana::Vamana`] — the DiskANN graph (α-pruned);
//! * [`hcnng::Hcnng`] — hierarchical-clustering-based graphs (Fig. 21);
//! * [`togg::Togg`] — two-stage routing on a KNN graph (Fig. 21);
//!
//! plus the shared machinery:
//!
//! * [`beam`] — the candidate-list/result-list greedy kernel of §II-A, the
//!   common core of every graph-traversal ANNS search, in two forms: the
//!   run-to-completion [`beam::beam_search`] used by batch search, and the
//!   resumable [`beam::BeamSearcher`] that yields one hop per step so the
//!   serving layer can interleave many in-flight queries;
//! * [`trace`] — per-query, per-iteration visited-vertex traces.
//!
//! The FPGA's bitonic top-k sort is not executed: `ndsearch_core` charges
//! its Sorting stage as the network's stage count × the FPGA clock.
//!
//! Exact search for ground truth and recall lives in
//! `ndsearch_vector::recall`, not here: it is a scan, not an index.
//!
//! # Example
//!
//! ```
//! use ndsearch_anns::{hnsw::{Hnsw, HnswParams}, index::{GraphAnnsIndex, SearchParams}};
//! use ndsearch_vector::synthetic::DatasetSpec;
//!
//! let (base, queries) = DatasetSpec::sift_scaled(300, 4).build_pair();
//! let index = Hnsw::build(&base, HnswParams::default());
//! let out = index.search_batch(&base, &queries, &SearchParams::default());
//! assert_eq!(out.results.len(), 4);
//! assert!(out.trace.total_visited() > 0);
//! ```

#![warn(missing_docs)]

pub mod beam;
mod build;
pub mod hcnng;
pub mod hnsw;
pub mod index;
pub mod togg;
pub mod trace;
pub mod vamana;

pub use index::{AnnsAlgorithm, GraphAnnsIndex, SearchOutput, SearchParams};
pub use trace::{BatchTrace, IterationTrace, QueryTrace};
