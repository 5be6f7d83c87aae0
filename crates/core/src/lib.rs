//! NDSEARCH core — the SearSSD near-data ANNS accelerator model.
//!
//! This crate is the paper's primary contribution: a hardware/software
//! co-designed near-data-processing engine that executes the graph-traversal
//! and distance-computation kernels of ANNS *inside* a modified SSD
//! (SearSSD) and the bitonic top-k sort on an attached FPGA.
//!
//! Architecture (Fig. 5a):
//!
//! * [`qpt::QueryPropertyTable`] — per-query search state in SSD DRAM;
//! * [`vgen::Vgenerator`] — 3-stage OFS/NBR/LUN fetch pipeline producing
//!   each entry vertex's neighbor + LUN id lists (Fig. 7a);
//! * [`alloc::Allocator`] — batch-wise dynamic dispatch of (query,
//!   neighbor) work to LUN-level accelerators and direct physical-address
//!   generation from LUNCSR (Fig. 7b);
//! * [`sin`] — SiN engines: LUN-level accelerators with query/vaddr
//!   queues, multi-plane page loads, per-plane hard-decision LDPC, and MAC
//!   groups (Fig. 8);
//! * [`engine::NdsEngine`] — the NDP processing model of Algorithm 1
//!   (Allocating → Searching → Gathering → Sorting with stage overlap),
//!   including the speculative searching of §VI-B2 ([`speculative`]);
//! * [`exec`] — the one host-side fan-out: a cluster run steps whole
//!   replica devices on [`config::NdsConfig::exec_threads`] scoped
//!   threads (the caller included) and takes them back in job order,
//!   bit-identical at any thread count; single-device engines run
//!   inline;
//! * [`energy`] / [`area`] — the Table I power/area models and the
//!   storage-density arithmetic of §VII-B;
//! * [`pipeline`] — the end-to-end static-scheduling pipeline: reorder →
//!   place → LUNCSR → relabeled traces;
//! * [`report::NdsReport`] — latency breakdown (Fig. 17), page/LUN
//!   statistics (Fig. 4/14/15), throughput and energy results;
//! * [`serve::ServeEngine`] — the concurrent multi-query serving layer:
//!   query sessions (submit/poll/complete, deadlines, admission and
//!   backpressure) whose live beam-search hops are interleaved across the
//!   flash channels each scheduling round, with per-query p50/p99 latency
//!   reporting;
//! * [`deploy::Deployment`] — versioned mutable deployments: online
//!   insert/delete as update sessions served alongside queries, the
//!   LUNCSR base+delta overlay kept in lock-step with the live index,
//!   the flash program/erase write path (tPROG, amplification),
//!   and deterministic compaction;
//! * [`cluster::ClusterEngine`] — the scale-out tier: a
//!   [`ShardPlan`](ndsearch_vector::shard::ShardPlan)-partitioned
//!   cluster of per-shard deployments; the same [`serve::QueryRequest`]
//!   is scattered to every shard, each seeding it at its own entry
//!   vertex, and gathered by a deterministic `(distance, global id)` merge,
//!   updates routed to their owning shard, per-shard breakdowns and
//!   load-imbalance reporting;
//! * [`traffic::Scenario`] — deterministic production-traffic generation:
//!   closed-loop or Poisson arrivals, Zipfian query hotspots,
//!   multi-tenant streams with per-tenant rate/deadline/top-k profiles
//!   and an update fraction, replayable into any engine tier; paired
//!   with [`serve::SloPolicy`] (deadline-aware shedding) and per-tenant
//!   SLO reporting on
//!   [`serve::ServeReport`] / [`cluster::ClusterReport`].
//!
//! # Example
//!
//! ```
//! use ndsearch_core::config::NdsConfig;
//! use ndsearch_core::pipeline::Prepared;
//! use ndsearch_anns::{hnsw::{Hnsw, HnswParams}, index::{GraphAnnsIndex, SearchParams}};
//! use ndsearch_vector::synthetic::DatasetSpec;
//!
//! let (base, queries) = DatasetSpec::sift_scaled(400, 8).build_pair();
//! let index = Hnsw::build(&base, HnswParams::default());
//! let out = index.search_batch(&base, &queries, &SearchParams::default());
//! let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
//! let prepared = Prepared::stage(&config, index.base_graph(), &base, &out.trace);
//! let report = ndsearch_core::engine::NdsEngine::new(&config).run(&prepared);
//! assert!(report.total_ns > 0);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod area;
pub mod cluster;
pub mod config;
pub mod deploy;
pub mod energy;
pub mod engine;
pub mod exec;
pub mod pipeline;
pub mod qpt;
pub mod report;
pub mod serve;
pub mod sin;
pub mod speculative;
pub mod traffic;
pub mod vgen;

pub use cluster::{
    ClusterEngine, ClusterReport, FailureEvent, FailureKind, FailureSchedule, ReplicaBreakdown,
    ReplicaPolicy, ReplicationConfig, ShardBreakdown,
};
pub use config::{NdsConfig, SchedulingConfig};
pub use deploy::{CompactionReport, Deployment, InsertError, UpdateTotals};
pub use engine::NdsEngine;
pub use pipeline::Prepared;
pub use report::{LatencyBreakdown, LatencySummary, NdsReport, TenantSummary};
pub use serve::{
    QueryRequest, ServeConfig, ServeEngine, ServeReport, SloPolicy, UpdateOp, UpdateRequest,
};
pub use traffic::{
    ArrivalModel, QueryMix, Scenario, Submitted, TenantProfile, TrafficEvent, TrafficTrace,
    ZipfSampler,
};
