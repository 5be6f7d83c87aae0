//! Concurrent multi-query serving on the SearSSD model.
//!
//! The batch engine ([`crate::engine::NdsEngine`]) replays one recorded
//! trace to completion — the regime the paper evaluates. A production
//! deployment instead sees an *open stream* of queries: they arrive at
//! arbitrary times, each wants its own top-k back as fast as possible, and
//! the device should keep every channel and die busy by interleaving work
//! from many in-flight searches. This module provides that layer:
//!
//! * [`QueryRequest`] / [`QueryOutcome`] — a query session with arrival
//!   time, optional absolute deadline, and per-query top-k state. The
//!   outcome is the query's one record from submission to report: the
//!   engine fills it in beside the session's live search state.
//!   [`crate::cluster`] takes the same request, seeding each shard at its
//!   own entry vertex, and gathers a sharded query into the same outcome
//!   type. A malformed request (wrong dimension, a non-finite
//!   component, no or an out-of-range entry vertex, a top-k of 0) is
//!   `Rejected` on submission;
//! * [`ServeEngine`] — submit / poll / step / complete. Each scheduling
//!   round takes **one beam-search hop from every in-flight query** (a
//!   live [`BeamSearcher`] per session, relabeled into the reordered id
//!   space via [`Prepared::relabel_hop_in_place`]) and executes the merged work on
//!   the SearSSD model through the same round executor as the batch
//!   engine, so static scheduling (reorder + multi-plane placement, baked
//!   into [`Prepared`]) and dynamic allocating (alloc-stage overlap) apply
//!   unchanged;
//! * [`ServeConfig`] — admission and backpressure: in-flight sessions are
//!   capped by the configured limit, the device's batch resource cap, and
//!   the number of query-property records the internal DRAM budget holds
//!   ([`QueryPropertyTable::max_resident`]); arrivals beyond the wait-queue
//!   capacity are rejected. [`SloPolicy`] layers deadline-aware
//!   scheduling on top: shedding work that cannot meet its deadline
//!   (`ShedDoomed`) and per-tenant in-flight fairness (`TenantFair`),
//!   with per-tenant roll-ups, [`ServeReport::slo_attainment`] and shed
//!   counts on the report;
//! * [`UpdateRequest`] / [`UpdateOutcome`] — online inserts and
//!   tombstone deletes as *update sessions* over a mutable
//!   [`Deployment`]: they arrive, wait in a bounded write queue
//!   (rejection = ingest backpressure), and are applied in admission
//!   order between search rounds, capped per round
//!   ([`ServeConfig::max_updates_per_round`]). Inserts link through the
//!   index's construction kernel, extend the LUNCSR delta segment and
//!   charge the flash program path. The hops read the deployment in
//!   place — a mutable one's live index rows, no per-round snapshot —
//!   and updates are applied only after a round's hops have run, so
//!   every hop of a round sees the deployment as the round boundary
//!   left it, never a half-applied update, and an update round costs
//!   the O(R) rows it rewrote, not O(V+E);
//! * [`ServeReport`] — the outcome records, QPS over the makespan,
//!   per-query latency order statistics
//!   ([`LatencySummary`](crate::report::LatencySummary)), and the update
//!   stream's outcomes, throughput ([`ServeReport::update_qps`]) and
//!   write amplification, all on the simulated clock: the engine never
//!   reads the host's (what the simulator costs on the host is the
//!   `perf_ledger` benchmark's `host_us_per_op`). The roll-ups over the
//!   records have one body each, in [`crate::report`], shared with
//!   [`crate::cluster::ClusterReport`].
//!
//! There is one round path, and it runs on the calling thread:
//! [`ServeEngine::step_round`] steps every in-flight searcher where it
//! lives, walks the merged round's task arena through the same round
//! executor as the batch engine, and completes what finished;
//! [`ServeEngine::run_to_completion`] is that in a loop. The engine never
//! reads [`NdsConfig::exec_threads`] — the host-side fan-out is one level
//! up, where [`crate::cluster`] steps whole replica engines on threads
//! ([`crate::exec`]).
//!
//! Because every hop is produced by the same expansion kernel as
//! [`beam_search`](ndsearch_anns::beam::beam_search), a query served
//! concurrently returns exactly the result list it would get from a
//! sequential run — concurrency changes *when* work happens, never *what*
//! is computed. Speculative searching is not modeled here. Nothing in it
//! needs a recorded trace — [`crate::speculative::select_prefetch`] reads
//! only the current entry's two-hop neighbourhood and the query's visited
//! set — this scheduler just does not run the prefetch pass.
//!
//! # Example
//!
//! ```
//! use ndsearch_core::config::NdsConfig;
//! use ndsearch_core::pipeline::Prepared;
//! use ndsearch_core::serve::{QueryRequest, ServeConfig, ServeEngine};
//! use ndsearch_anns::trace::BatchTrace;
//! use ndsearch_anns::vamana::{Vamana, VamanaParams};
//! use ndsearch_anns::index::GraphAnnsIndex;
//! use ndsearch_vector::synthetic::DatasetSpec;
//!
//! let (base, queries) = DatasetSpec::sift_scaled(400, 8).build_pair();
//! let index = Vamana::build(&base, VamanaParams::default());
//! let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
//! let prepared = Prepared::stage(&config, index.base_graph(), &base, &BatchTrace::default());
//! let mut engine = ServeEngine::new(
//!     &config,
//!     ServeConfig::default(),
//!     &prepared,
//!     &base,
//!     index.base_graph(),
//! );
//! for (_, q) in queries.iter() {
//!     engine.submit(QueryRequest::at(0, q.to_vec(), vec![index.medoid()]));
//! }
//! let report = engine.run_to_completion();
//! assert_eq!(report.completed(), 8);
//! assert!(report.qps() > 0.0);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ndsearch_anns::beam::{Adjacency, BeamSearcher, VisitedSet};
use ndsearch_anns::trace::IterationTrace;
use ndsearch_flash::ecc::EccEngine;
use ndsearch_flash::stats::FlashStats;
use ndsearch_flash::timing::Nanos;
use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::config::{NdsConfig, HOST_LINK, MAC_LANES, RESULT_LIST_ENTRIES};
use crate::deploy::{Deployment, UpdateTotals};
use crate::engine::{
    execute_round, run_lun_units, sorting_tail, unit_channel_ns, LunCoverage, RoundScratch,
    RoundSinks,
};
use crate::pipeline::Prepared;
use crate::qpt::QueryPropertyTable;
use crate::report::LatencyBreakdown;

/// Identifier of a submitted query session (dense, in submission order).
pub type QueryId = usize;

/// Admission, backpressure and search knobs of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Maximum concurrently executing sessions. The effective cap is also
    /// bounded by [`NdsConfig::max_batch_inflight`] and by how many QPT
    /// records fit in `qpt_dram_budget_bytes`.
    pub max_inflight: usize,
    /// Arrived-but-not-admitted sessions the wait queue holds; arrivals
    /// beyond this are rejected (backpressure to the caller).
    pub queue_capacity: usize,
    /// Beam width (`ef`) each session searches with.
    pub beam_width: usize,
    /// Top-k entries returned per query.
    pub k: usize,
    /// Internal-DRAM budget for the query property table; divides by the
    /// per-session record size to bound residency.
    pub qpt_dram_budget_bytes: u64,
    /// Updates applied per scheduling round (admission cap of the write
    /// path: the embedded cores apply updates in admission order between
    /// search rounds, so a burst of inserts cannot starve queries).
    pub max_updates_per_round: usize,
    /// Arrived-but-not-applied updates the write queue holds; arrivals
    /// beyond this are rejected (ingest backpressure).
    pub update_queue_capacity: usize,
    /// Deadline-aware admission policy. [`SloPolicy::None`] preserves the
    /// legacy FIFO behavior bit-for-bit.
    pub slo: SloPolicy,
    /// Compressed-vector search only: how many of the best approximate
    /// candidates are rescored with exact distances once the traversal
    /// ends, their rows read through the device's SiN + ECC path
    /// ([`LatencyBreakdown::rerank_ns`] sums the wait).
    /// Clamped up to the session's top-k; ignored when
    /// [`NdsConfig::quantization`] is off.
    pub rerank_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            queue_capacity: 4096,
            beam_width: 64,
            k: 10,
            qpt_dram_budget_bytes: 64 << 20,
            max_updates_per_round: 4,
            update_queue_capacity: 4096,
            slo: SloPolicy::None,
            rerank_depth: 32,
        }
    }
}

/// Deadline-aware scheduling policy of the serving layer.
///
/// All decisions run on the simulated clock and on counters derived from
/// the simulation alone — host time never enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloPolicy {
    /// Pure FIFO admission (the legacy behavior): nothing is shed, no
    /// per-tenant caps.
    None,
    /// Shed work that cannot meet its deadline, instead of letting it
    /// burn device time and slow everyone else down.
    ///
    /// The estimator (documented, pinned by `tests/scheduling_invariants.rs`):
    /// the per-hop cost is the observed mean duration of rounds that
    /// executed at least one hop (`0` until the first such round — the
    /// engine starts optimistic and sheds nothing); the expected hop count
    /// is the mean hops of sessions that finished their search (prior:
    /// [`ServeConfig::beam_width`] before any finish). A session with
    /// `hops_done` hops behind it is estimated to finish at
    /// `now + max(expected_hops - hops_done, 1) × per_hop_ns`; it is shed
    /// at the round boundary iff it carries a deadline and
    /// `estimate + min_slack_ns > deadline`. The estimate excludes the
    /// completion tail (PCIe/sorting), which `min_slack_ns` exists to
    /// cover. Queued doomed sessions are `Rejected` before paying the
    /// transfer-in; in-flight doomed sessions are cut off `Expired` with
    /// best-so-far results. Both are flagged [`QueryOutcome::shed`] —
    /// shed work is reported, never silently dropped.
    ShedDoomed {
        /// Safety margin added to the estimated finish before comparing
        /// against the deadline.
        min_slack_ns: Nanos,
    },
    /// Per-tenant in-flight fairness: no tenant may hold more than this
    /// many of the in-flight slots, so an aggressive tenant queues behind
    /// its own cap instead of starving everyone else. Admission stays
    /// FIFO *within* each tenant; capped-out requests are skipped, not
    /// rejected, and admitted once their tenant drains.
    TenantFair {
        /// Maximum concurrently executing sessions per tenant.
        max_inflight_per_tenant: usize,
    },
}

/// One query submitted to the serving engine.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query feature vector (construction-order id space).
    pub query: Vec<f32>,
    /// Entry vertices to seed the beam search from (construction-order
    /// ids, e.g. the index medoid or entry point).
    /// [`ClusterEngine::submit`](crate::cluster::ClusterEngine::submit)
    /// overwrites them: each shard's copy starts at that shard's own
    /// entry vertex, so a cluster request may leave them empty.
    pub entries: Vec<VectorId>,
    /// Simulated arrival time.
    pub arrival_ns: Nanos,
    /// Optional absolute deadline. The pinned boundary semantic: a query
    /// is `Completed` **iff its results are back by the deadline**
    /// (`completed_ns <= deadline_ns`); otherwise it is `Expired` with
    /// best-so-far results. The scheduler cuts a session off at the first
    /// round boundary where the clock has *reached* the deadline
    /// (`now_ns >= deadline_ns` — a deadline exactly equal to `now` does
    /// not buy an extra round), and a session that finishes its search in
    /// the very round the deadline passes is still reported `Expired`,
    /// because its completion necessarily lands after the deadline.
    pub deadline_ns: Option<Nanos>,
    /// Tenant the query belongs to (0 = the default tenant). Carried onto
    /// the outcome, rolled up by [`ServeReport::tenant_summaries`] and
    /// enforced by [`SloPolicy::TenantFair`].
    pub tenant: u32,
    /// Per-query top-k override; `None` uses [`ServeConfig::k`]. A
    /// resolved k of 0 is malformed. In a cluster every shard returns its
    /// own top-k and the gather keeps the best k of their union.
    pub k: Option<usize>,
}

impl QueryRequest {
    /// A request arriving at `arrival_ns` with no deadline, tenant 0 and
    /// the engine's default top-k.
    pub fn at(arrival_ns: Nanos, query: Vec<f32>, entries: Vec<VectorId>) -> Self {
        Self {
            query,
            entries,
            arrival_ns,
            deadline_ns: None,
            tenant: 0,
            k: None,
        }
    }

    /// Set the tenant id.
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Set the absolute deadline.
    pub fn deadline(mut self, deadline_ns: Nanos) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Set the per-query top-k.
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }
}

/// Identifier of a submitted update session (dense, in submission order;
/// a separate space from [`QueryId`]).
pub type UpdateId = usize;

/// The mutation an [`UpdateRequest`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Ingest one vector: append it to the dataset, link it into the live
    /// graph, and program its page through the FTL.
    Insert(Vec<f32>),
    /// Tombstone a construction-order vertex.
    Delete(VectorId),
}

/// One update submitted to the serving engine. Updates are sessions like
/// queries: they arrive, wait in a bounded queue, and are applied by the
/// scheduler in admission order between search rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// The mutation to apply.
    pub op: UpdateOp,
    /// Simulated arrival time.
    pub arrival_ns: Nanos,
}

impl UpdateRequest {
    /// An insert arriving at `arrival_ns`.
    pub fn insert_at(arrival_ns: Nanos, vector: Vec<f32>) -> Self {
        Self {
            op: UpdateOp::Insert(vector),
            arrival_ns,
        }
    }

    /// A delete arriving at `arrival_ns`.
    pub fn delete_at(arrival_ns: Nanos, id: VectorId) -> Self {
        Self {
            op: UpdateOp::Delete(id),
            arrival_ns,
        }
    }
}

/// Final record of one update session, reported by [`ServeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Update id (submission order).
    pub id: UpdateId,
    /// Terminal state: `Completed`, or `Rejected` (queue overflow, shape
    /// mismatch, a non-finite insert, delete of a missing/tombstoned
    /// vertex, or an immutable deployment).
    pub state: SessionState,
    /// When the update arrived.
    pub arrival_ns: Nanos,
    /// When the scheduler started applying it.
    pub admitted_ns: Nanos,
    /// When its effects were durable.
    pub completed_ns: Nanos,
    /// Construction-order id assigned (inserts) or deleted.
    pub assigned: Option<VectorId>,
    /// Vertices whose adjacency was rewritten by backlink repair.
    pub repaired: usize,
    /// NAND pages this update programmed.
    pub pages_programmed: u64,
}

impl UpdateOutcome {
    /// An update `Rejected` at its arrival, having applied nothing.
    pub(crate) fn rejected(id: UpdateId, arrival_ns: Nanos) -> Self {
        Self {
            id,
            state: SessionState::Rejected,
            arrival_ns,
            admitted_ns: arrival_ns,
            completed_ns: arrival_ns,
            assigned: None,
            repaired: 0,
            pages_programmed: 0,
        }
    }

    /// End-to-end latency the ingesting client observed.
    pub fn latency_ns(&self) -> Nanos {
        self.completed_ns.saturating_sub(self.arrival_ns)
    }
}

/// Lifecycle of a query session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Submitted; simulated arrival time not reached yet.
    Pending,
    /// Arrived; waiting in the admission queue for an execution slot.
    Queued,
    /// Admitted; its beam-search hops are being interleaved.
    Running,
    /// Finished; final top-k available.
    Completed,
    /// Dropped without running: the admission queue was full, the
    /// request was malformed, or a shed decision came before admission.
    Rejected,
    /// Terminated at its deadline with partial (best-so-far) results.
    Expired,
}

impl SessionState {
    /// Whether the state is final (`Completed`, `Rejected` or `Expired`).
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Completed | Self::Rejected | Self::Expired)
    }
}

/// The record of one query, reported by [`ServeReport`] — and, gathered
/// over the shards, by [`ClusterReport`](crate::cluster::ClusterReport).
///
/// A gathered query's record is built from the copy of its session that
/// answered for each shard (the primary, or a hedge that beat it): its
/// state is `Completed` only if every shard completed, otherwise
/// `Rejected` if any shard rejected and else `Expired` if any expired.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Query id (submission order).
    pub id: QueryId,
    /// Terminal state ([`SessionState::Completed`], `Rejected` or
    /// `Expired`); a non-terminal state while the query is still in
    /// the system.
    pub state: SessionState,
    /// When the query arrived.
    pub arrival_ns: Nanos,
    /// When it was admitted into execution (equals `completed_ns` for
    /// rejected sessions, which never ran). Gathered: the latest
    /// admission among the answering copies.
    pub admitted_ns: Nanos,
    /// When its results were back at the host. Gathered: the latest
    /// completion among the answering copies — the merge cannot run
    /// before the slowest shard has answered.
    pub completed_ns: Nanos,
    /// Beam-search hops it executed. Gathered: summed over every copy on
    /// every shard, hedges and copies abandoned by a failover included.
    pub hops: usize,
    /// Scheduling rounds it spent in flight. Fairness: the round-robin
    /// scheduler advances every in-flight session once per round, so for a
    /// session that ran to completion this exceeds `hops` by at most one
    /// (a final drain round, when the remaining candidates turn out to be
    /// fully visited) — a session never starves in flight. Gathered: the
    /// most among the answering copies.
    pub rounds_inflight: usize,
    /// Top-k neighbors, ascending by distance (partial if `Expired`,
    /// empty if `Rejected`). Gathered: the merged top-k in global ids,
    /// ascending `(distance, id)`.
    pub results: Vec<Neighbor>,
    /// Tenant the query belonged to.
    pub tenant: u32,
    /// The deadline it carried, if any.
    pub deadline_ns: Option<Nanos>,
    /// Whether a [`SloPolicy::ShedDoomed`] decision produced the terminal
    /// state (a shed session is `Rejected` from the queue or `Expired`
    /// from flight — never silently dropped). Gathered: on any answering
    /// copy.
    pub shed: bool,
}

impl QueryOutcome {
    /// Whether this query met its SLO: completed, and by its deadline if
    /// it carried one (completion at the deadline already implies that —
    /// the scheduler never reports `Completed` past the deadline).
    pub fn on_time(&self) -> bool {
        self.state == SessionState::Completed
    }

    /// End-to-end latency the client observed (arrival → results).
    pub fn latency_ns(&self) -> Nanos {
        self.completed_ns.saturating_sub(self.arrival_ns)
    }

    /// Time spent waiting for admission.
    pub fn queue_wait_ns(&self) -> Nanos {
        self.admitted_ns.saturating_sub(self.arrival_ns)
    }

    /// Ends a session that never ran: `state` at `at_ns`, which stands
    /// for both its admission and its completion.
    fn end_unrun(&mut self, state: SessionState, at_ns: Nanos) {
        self.state = state;
        self.admitted_ns = at_ns;
        self.completed_ns = at_ns;
    }
}

/// Result of serving a stream of query sessions: simulated quantities
/// only, so two runs of the same simulation compare equal (the
/// determinism tests rely on this).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One record per submitted session, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// One record per submitted update, in submission order.
    pub update_outcomes: Vec<UpdateOutcome>,
    /// Write-path totals (programs, erases, amplification inputs).
    pub updates: UpdateTotals,
    /// First arrival → last completion.
    pub makespan_ns: Nanos,
    /// Scheduling rounds that executed hops (a round that only admits,
    /// expires or applies updates is not counted).
    pub rounds: u64,
    /// Most sessions concurrently in flight.
    pub peak_inflight: usize,
    /// Most sessions concurrently in flight *per tenant*, ascending by
    /// tenant id. Under [`SloPolicy::TenantFair`] no entry ever exceeds
    /// the configured cap (pinned by `tests/scheduling_invariants.rs`).
    pub peak_tenant_inflight: Vec<(u32, usize)>,
    /// Where the device time went (accumulated across rounds).
    pub breakdown: LatencyBreakdown,
    /// Flash access statistics (accumulated across rounds).
    pub stats: FlashStats,
    /// Distinct LUNs touched / total LUNs.
    pub lun_coverage: f64,
}

impl ServeReport {
    crate::report::rollups!();

    /// Update throughput: completed updates per second of makespan.
    pub fn update_qps(&self) -> f64 {
        crate::report::per_second(self.updates_completed(), self.makespan_ns)
    }

    /// Write amplification of the update stream (flash bytes programmed
    /// per user byte ingested).
    pub fn write_amplification(&self) -> f64 {
        self.updates.write_amplification()
    }
}

/// The count kept for `tenant` in a list ascending by tenant, entered at
/// zero on first sight (a handful of tenants; no map node per round).
fn tenant_slot(counts: &mut Vec<(u32, usize)>, tenant: u32) -> &mut usize {
    let at = counts
        .binary_search_by_key(&tenant, |&(t, _)| t)
        .unwrap_or_else(|at| {
            counts.insert(at, (tenant, 0));
            at
        });
    &mut counts[at].1
}

/// Internal per-session state: the outcome the report will carry, and
/// the live state that exists only until the session is terminal. The
/// searcher (which owns a dataset-sized visited set) exists only while
/// the session is `Running`: it is built at admission from the stored
/// request and torn down at completion/expiry (its visited set going back
/// to the engine's free list), so resident search memory is bounded by
/// the in-flight cap, not by the total number of submissions.
#[derive(Debug, Clone)]
struct Session {
    /// Kept current as the session runs (`hops` counts every hop the
    /// searcher takes), so a report mid-run reads the live counts.
    outcome: QueryOutcome,
    /// Query vector; moved into the searcher at admission.
    query: Vec<f32>,
    /// Entry vertices; moved into the searcher at admission.
    entries: Vec<VectorId>,
    searcher: Option<BeamSearcher>,
    /// Resolved top-k (the per-query override or the engine default).
    k: usize,
}

impl Session {
    /// Tears down the searcher, snapshotting its best-`k` results into
    /// the outcome. Tombstoned vertices are filtered out of the reported
    /// list: a deleted vector may still have routed the search, but it
    /// must never be returned to a client. Returns the searcher's visited
    /// set for reuse.
    fn finish(
        &mut self,
        state: SessionState,
        completed_ns: Nanos,
        deleted: &dyn Fn(VectorId) -> bool,
    ) -> Option<VisitedSet> {
        self.outcome.state = state;
        self.outcome.completed_ns = completed_ns;
        let searcher = self.searcher.take()?;
        let results = &mut self.outcome.results;
        *results = searcher.found();
        results.retain(|n| !deleted(n.id));
        results.truncate(self.k);
        Some(searcher.into_visited())
    }
}

/// Internal per-update state: the outcome the report will carry, and the
/// op until it is applied.
#[derive(Debug, Clone)]
struct UpdateSession {
    outcome: UpdateOutcome,
    op: Option<UpdateOp>,
}

/// The concurrent serving engine: an event-synchronous scheduler that
/// interleaves beam-search hops from many in-flight query sessions across
/// the SearSSD's flash channels, and applies admitted updates between
/// rounds. See the [module docs](self) for the execution model.
pub struct ServeEngine<'a> {
    config: &'a NdsConfig,
    serve: ServeConfig,
    /// The (possibly mutable) deployment being served.
    deploy: Deployment,
    qpt: QueryPropertyTable,
    sessions: Vec<Session>,
    /// Not-yet-arrived sessions, ordered by (arrival, id).
    arrivals: BinaryHeap<Reverse<(Nanos, QueryId)>>,
    /// Arrived sessions awaiting an execution slot (FIFO).
    queue: VecDeque<QueryId>,
    /// Admitted sessions, in admission order.
    inflight: Vec<QueryId>,
    /// Update sessions, in submission order.
    update_sessions: Vec<UpdateSession>,
    /// Not-yet-arrived updates, ordered by (arrival, id).
    update_arrivals: BinaryHeap<Reverse<(Nanos, UpdateId)>>,
    /// Arrived updates awaiting application (FIFO, bounded).
    update_queue: VecDeque<UpdateId>,
    now_ns: Nanos,
    first_arrival_ns: Option<Nanos>,
    last_completion_ns: Nanos,
    prev_shadow: Nanos,
    rounds: u64,
    peak_inflight: usize,
    /// Peak concurrent in-flight sessions per tenant, ascending by tenant.
    peak_tenant_inflight: Vec<(u32, usize)>,
    /// In-flight sessions per tenant in the round being admitted,
    /// ascending by tenant; recounted in place every round.
    tenant_inflight: Vec<(u32, usize)>,
    /// Simulated time spent in the `rounds` (numerator of the shed
    /// estimator's per-hop cost).
    round_ns_total: Nanos,
    /// Total hops of sessions whose search ran to completion (numerator
    /// of the estimator's expected hop count).
    finished_hops_total: u64,
    /// Number of sessions whose search ran to completion.
    finished_searches: u64,
    ecc: EccEngine,
    stats: FlashStats,
    breakdown: LatencyBreakdown,
    luns_touched: LunCoverage,
    /// Visited sets of finished sessions, reused at admission instead of
    /// allocating (and zeroing) a dataset-sized set per query. A set is
    /// either here or in a running searcher — never more of them than
    /// the in-flight cap — and each round trims this list to the number
    /// of sessions still in flight.
    spare_visited: Vec<VisitedSet>,
    /// The current round's executed hops as (slot, hop relabeled into the
    /// physical id space): the first `live_hops` records. The rest are
    /// spare records whose buffers the next rounds refill.
    hops: Vec<(u32, IterationTrace)>,
    live_hops: usize,
    /// Sessions whose search terminated in the current round, slot order.
    finished: Vec<QueryId>,
    /// Task arena and merge buffers of the round data path.
    round: RoundScratch,
    /// Per LUN: when its accelerator is done with the rerank units issued
    /// to it so far. The rerank stage overlaps the following rounds, so
    /// it occupies LUNs on these clocks instead of advancing `now_ns`.
    lun_free_at: Vec<Nanos>,
    /// The rerank candidates of the session being staged.
    rerank_ids: Vec<VectorId>,
    /// Every rerank unit issued, as (LUN, issue time, start, busy time).
    #[cfg(test)]
    rerank_units: Vec<(u32, Nanos, Nanos, Nanos)>,
}

impl<'a> ServeEngine<'a> {
    /// Creates a query-only serving engine over a staged layout (the
    /// legacy path: the borrowed views are cloned into an immutable
    /// [`Deployment`], and update submissions are rejected). `dataset`
    /// and `graph` are the construction-order views the live beam
    /// searches run against; `prepared` carries the reordered physical
    /// layout the hardware model replays.
    ///
    /// # Panics
    /// Panics if the dataset, graph and staged layout disagree on vertex
    /// count.
    pub fn new(
        config: &'a NdsConfig,
        serve: ServeConfig,
        prepared: &Prepared,
        dataset: &Dataset,
        graph: &Csr,
    ) -> Self {
        Self::with_deployment(
            config,
            serve,
            Deployment::from_parts(config, prepared.clone(), dataset.clone(), graph.clone()),
        )
    }

    /// Creates a serving engine over a [`Deployment`]. A deployment
    /// staged with a live index ([`Deployment::stage`]) accepts
    /// [`UpdateRequest`] sessions alongside queries; one built
    /// [`Deployment::from_parts`] is query-only.
    ///
    /// # Panics
    /// Panics if the deployment's dataset, graph and staged layout
    /// disagree on vertex count.
    pub fn with_deployment(config: &'a NdsConfig, serve: ServeConfig, deploy: Deployment) -> Self {
        assert_eq!(
            deploy.graph().num_vertices(),
            deploy.dataset().len(),
            "graph and dataset must agree on vertex count"
        );
        assert_eq!(
            deploy.prepared().luncsr.num_vertices(),
            deploy.dataset().len(),
            "staged layout must cover the dataset"
        );
        // QPT DRAM accounting: under quantization the per-session record
        // stores the compressed code, not the full-precision row, so the
        // same DRAM budget admits more residents.
        let qpt_vector_bytes = deploy
            .codes()
            .map_or(deploy.prepared().vector_bytes, |c| c.code_bytes());
        let qpt =
            QueryPropertyTable::new(serve.max_inflight, qpt_vector_bytes, RESULT_LIST_ENTRIES);
        Self {
            config,
            serve,
            deploy,
            qpt,
            sessions: Vec::new(),
            arrivals: BinaryHeap::new(),
            queue: VecDeque::new(),
            inflight: Vec::new(),
            update_sessions: Vec::new(),
            update_arrivals: BinaryHeap::new(),
            update_queue: VecDeque::new(),
            now_ns: 0,
            first_arrival_ns: None,
            last_completion_ns: 0,
            prev_shadow: 0,
            rounds: 0,
            peak_inflight: 0,
            peak_tenant_inflight: Vec::new(),
            tenant_inflight: Vec::new(),
            round_ns_total: 0,
            finished_hops_total: 0,
            finished_searches: 0,
            ecc: EccEngine::new(&config.geometry, config.ecc),
            stats: FlashStats::new(),
            breakdown: LatencyBreakdown::default(),
            luns_touched: LunCoverage::default(),
            spare_visited: Vec::new(),
            hops: Vec::new(),
            live_hops: 0,
            finished: Vec::new(),
            round: RoundScratch::default(),
            lun_free_at: vec![0; config.geometry.total_luns() as usize],
            rerank_ids: Vec::new(),
            #[cfg(test)]
            rerank_units: Vec::new(),
        }
    }

    /// The deployment being served (live overlay state, wear, totals).
    pub fn deployment(&self) -> &Deployment {
        &self.deploy
    }

    /// Consumes the engine, returning the deployment (e.g. to compact it
    /// offline or stage a successor engine).
    pub fn into_deployment(self) -> Deployment {
        self.deploy
    }

    /// The effective in-flight cap: the configured limit, clamped by the
    /// device's batch resource cap and by QPT DRAM residency.
    pub fn max_inflight(&self) -> usize {
        self.serve
            .max_inflight
            .min(self.config.max_batch_inflight)
            .min(self.qpt.max_resident(self.serve.qpt_dram_budget_bytes))
            .max(1)
    }

    /// Registers a query session and returns its id. Arrival times in the
    /// past are clamped to the current simulated time. A malformed
    /// request — a dimension other than the deployment's, a non-finite
    /// component, no entry vertex or one outside the dataset, a top-k
    /// of 0 — is `Rejected` at once, stamped at its arrival, and never
    /// queues.
    pub fn submit(&mut self, req: QueryRequest) -> QueryId {
        let id = self.sessions.len();
        let arrival = req.arrival_ns.max(self.now_ns);
        let dataset = self.deploy.dataset();
        let k = req.k.unwrap_or(self.serve.k);
        let malformed = req.query.len() != dataset.dim()
            || req.query.iter().any(|x| !x.is_finite())
            || req.entries.is_empty()
            || req.entries.iter().any(|&v| v as usize >= dataset.len())
            || k == 0;
        let mut outcome = QueryOutcome {
            id,
            state: SessionState::Pending,
            arrival_ns: arrival,
            admitted_ns: 0,
            completed_ns: 0,
            hops: 0,
            rounds_inflight: 0,
            results: Vec::new(),
            tenant: req.tenant,
            deadline_ns: req.deadline_ns,
            shed: false,
        };
        if malformed {
            outcome.end_unrun(SessionState::Rejected, arrival);
        } else {
            self.arrivals.push(Reverse((arrival, id)));
            self.first_arrival_ns = Some(self.first_arrival_ns.map_or(arrival, |f| f.min(arrival)));
        }
        self.sessions.push(Session {
            outcome,
            query: req.query,
            entries: req.entries,
            searcher: None,
            k,
        });
        id
    }

    /// Registers an update session and returns its id. Arrival times in
    /// the past are clamped to the current simulated time. Updates on a
    /// query-only deployment are rejected immediately.
    pub fn submit_update(&mut self, req: UpdateRequest) -> UpdateId {
        let id = self.update_sessions.len();
        let arrival = req.arrival_ns.max(self.now_ns);
        let mut outcome = UpdateOutcome::rejected(id, arrival);
        if self.deploy.is_mutable() {
            outcome.state = SessionState::Pending;
            self.update_arrivals.push(Reverse((arrival, id)));
            self.first_arrival_ns = Some(self.first_arrival_ns.map_or(arrival, |f| f.min(arrival)));
        }
        self.update_sessions.push(UpdateSession {
            outcome,
            op: Some(req.op),
        });
        id
    }

    /// Current state of a session.
    pub fn poll(&self, id: QueryId) -> SessionState {
        self.sessions[id].outcome.state
    }

    /// Current simulated time.
    pub fn now_ns(&self) -> Nanos {
        self.now_ns
    }

    /// Query sessions not yet terminal: pending, queued and running.
    pub fn outstanding(&self) -> usize {
        self.arrivals.len() + self.queue.len() + self.inflight.len()
    }

    /// Degradation trigger: changes the device's injected ECC
    /// hard-decision failure probability mid-run (an *ECC storm* — every
    /// failed hard decode falls back to a ~10 µs soft decode on the FTL,
    /// slowing each subsequent round). Deterministic: fault injection
    /// stays counter-indexed per plane, so the decisions drawn after the
    /// ramp depend only on the decode counters.
    pub fn inject_ecc_failure_prob(&mut self, p: f64) {
        self.ecc.set_hard_decision_failure_prob(p);
    }

    /// Moves sessions whose arrival time has passed into the admission
    /// queues (queries and updates alike), rejecting them if full.
    fn process_arrivals(&mut self) {
        while let Some(&Reverse((t, id))) = self.arrivals.peek() {
            if t > self.now_ns {
                break;
            }
            self.arrivals.pop();
            let o = &mut self.sessions[id].outcome;
            if self.queue.len() >= self.serve.queue_capacity {
                o.end_unrun(SessionState::Rejected, t);
            } else {
                o.state = SessionState::Queued;
                self.queue.push_back(id);
            }
        }
        while let Some(&Reverse((t, id))) = self.update_arrivals.peek() {
            if t > self.now_ns {
                break;
            }
            self.update_arrivals.pop();
            let o = &mut self.update_sessions[id].outcome;
            if self.update_queue.len() >= self.serve.update_queue_capacity {
                // Its admission and completion times already read `t`.
                o.state = SessionState::Rejected;
            } else {
                o.state = SessionState::Queued;
                self.update_queue.push_back(id);
            }
        }
    }

    /// Moves a running session to a terminal state at `completed_ns`:
    /// results snapshotted (tombstones filtered), visited set recycled.
    fn finish_session(&mut self, id: QueryId, state: SessionState, completed_ns: Nanos) {
        let deploy = &self.deploy;
        let visited = self.sessions[id].finish(state, completed_ns, &|v| deploy.is_deleted(v));
        self.spare_visited.extend(visited);
        self.last_completion_ns = self.last_completion_ns.max(completed_ns);
    }

    /// Terminates queued and in-flight sessions whose deadline the clock
    /// has reached (`now >= deadline` — see [`QueryRequest::deadline_ns`]
    /// for the pinned boundary semantic).
    fn expire_due(&mut self) {
        let now = self.now_ns;
        self.cut_off(false, |deadline, _| deadline <= now);
    }

    /// The [`SloPolicy::ShedDoomed`] estimator: when a session with a
    /// given number of hops behind it is expected to finish, from the
    /// observed mean duration of hop-executing rounds and the observed
    /// mean hop count of finished searches ([`ServeConfig::beam_width`]
    /// before any search finishes). It answers `now` until the first hop
    /// round has been observed — the engine starts optimistic and sheds
    /// nothing.
    fn finish_estimate(&self) -> impl Fn(usize) -> Nanos {
        let per_hop_ns = self.round_ns_total.checked_div(self.rounds).unwrap_or(0);
        let expected_hops = self
            .finished_hops_total
            .checked_div(self.finished_searches)
            .map_or(self.serve.beam_width as u64, |h| h.max(1));
        let now = self.now_ns;
        move |hops_done| {
            let remaining = expected_hops.saturating_sub(hops_done as u64).max(1);
            now.saturating_add(remaining.saturating_mul(per_hop_ns))
        }
    }

    /// [`SloPolicy::ShedDoomed`]: terminates deadline-carrying sessions
    /// whose estimated finish (plus the configured slack) misses their
    /// deadline. Queued sessions are `Rejected` before paying transfer-in;
    /// in-flight sessions are cut off `Expired` as a deadline expiry
    /// would. Every decision sets [`QueryOutcome::shed`].
    fn shed_doomed(&mut self) {
        let SloPolicy::ShedDoomed { min_slack_ns } = self.serve.slo else {
            return;
        };
        let finish = self.finish_estimate();
        self.cut_off(true, |deadline, hops_done| {
            finish(hops_done).saturating_add(min_slack_ns) > deadline
        });
    }

    /// The one cut-off pass of deadline expiry and shedding: ends every
    /// deadline-carrying session for which `misses(deadline, hops done)`
    /// holds. An in-flight one is `Expired` with its best-so-far top-k,
    /// which still travels the Sorting-stage tail; a queued one ends at
    /// `now` without running — `Rejected` when `shed`, else `Expired`.
    fn cut_off(&mut self, shed: bool, misses: impl Fn(Nanos, usize) -> bool) {
        let now = self.now_ns;
        let sessions = &self.sessions;
        let cut = |id: QueryId| {
            let o = &sessions[id].outcome;
            o.deadline_ns.is_some_and(|d| misses(d, o.hops))
        };
        let inflight: Vec<QueryId> = self.inflight.extract_if(.., |id| cut(*id)).collect();
        let mut queued = Vec::new();
        self.queue.retain(|&id| {
            let ends = cut(id);
            if ends {
                queued.push(id);
            }
            !ends
        });
        for id in inflight {
            let tail = self.completion_tail_ns(self.sessions[id].k);
            self.finish_session(id, SessionState::Expired, now + tail);
            self.sessions[id].outcome.shed = shed;
        }
        let unrun = if shed {
            SessionState::Rejected
        } else {
            SessionState::Expired
        };
        for id in queued {
            let o = &mut self.sessions[id].outcome;
            o.end_unrun(unrun, now);
            o.shed = shed;
        }
        self.last_completion_ns = self.last_completion_ns.max(now);
    }

    /// Simulated duration of one quantized scheduling round: the hops'
    /// distance evaluations read codes from internal DRAM and run on the
    /// embedded cores/accelerator — no NAND access. Derived from the
    /// hop traces alone (slot order).
    fn quantized_round_ns(&mut self, hops: &[(u32, IterationTrace)]) -> Nanos {
        let codes = self.deploy.codes().expect("a quantized deployment");
        let timing = &self.config.timing;
        let active = hops.len();
        let new_distances: u64 = hops.iter().map(|(_, it)| it.visited.len() as u64).sum();
        // Code fetches for scoring + the usual QPT gathering traffic.
        let code_traffic = new_distances * codes.code_bytes() as u64;
        let dram_ns = timing
            .dram_transfer_ns(code_traffic + self.qpt.gather_traffic_bytes(active, new_distances));
        // Decode+MAC on the accelerator: dim elements per eval over the
        // MAC lanes.
        let dim = codes.quantizer().dim() as u64;
        let lanes = u64::from(MAC_LANES);
        let compute_ns = timing.accel_cycles_ns(new_distances * dim.div_ceil(lanes));
        let embedded_ns = active as u64 * timing.t_embedded_op_ns;
        self.breakdown.dram_ns += dram_ns;
        self.breakdown.compute_ns += compute_ns;
        self.breakdown.embedded_ns += embedded_ns;
        self.stats.distance_evals += new_distances;
        self.stats.search_ops += active as u64;
        dram_ns + compute_ns + embedded_ns
    }

    /// Exact-rerank stage of the quantized sessions that ended their
    /// traversal this round (`self.finished`): each rescores
    /// its best [`ServeConfig::rerank_depth`] approximate candidates
    /// against the full-precision rows, and the reads those imply are
    /// issued as one batch through the device path of a traversal round —
    /// the task arena, a SiN unit per LUN, an LDPC decode per page load —
    /// so sessions finishing together share sensed pages, multi-plane
    /// senses merge and an ECC storm slows the rerank.
    ///
    /// The stage overlaps the following code-scoring rounds, as the
    /// Sorting-stage tail does (§V), so the scheduler clock stands still:
    /// a unit starts once its LUN is free of earlier rerank units
    /// (`lun_free_at`), and a session's rerank is over when the last unit
    /// holding one of its candidates has shipped its results — left in
    /// the session's `completed_ns` (the round boundary if it had no
    /// candidate).
    fn rerank_finished(&mut self) {
        let prepared = self.deploy.prepared();
        let luncsr = &prepared.luncsr;
        let now = self.now_ns;
        let arena = self.round.begin(luncsr);
        for (slot, &id) in self.finished.iter().enumerate() {
            let s = &mut self.sessions[id];
            s.outcome.completed_ns = now;
            let depth = self.serve.rerank_depth.max(s.k);
            let searcher = s.searcher.as_mut().expect("running session has a searcher");
            searcher.rerank(self.deploy.dataset(), depth, &mut self.rerank_ids);
            for &v in &self.rerank_ids {
                arena.push(luncsr, slot as u32, prepared.perm.new_of(v), false);
            }
        }
        arena.seal();
        let timing = &self.config.timing;
        let (sessions, finished) = (&mut self.sessions, &self.finished);
        let free_at = &mut self.lun_free_at;
        #[cfg(test)]
        let log = &mut self.rerank_units;
        let sinks = RoundSinks {
            ecc: &mut self.ecc,
            stats: &mut self.stats,
            luns_touched: &mut self.luns_touched,
        };
        let arena = self.round.arena();
        run_lun_units(self.config, luncsr, sinks, arena, |out, tasks| {
            let free = &mut free_at[out.lun as usize];
            let start = now.max(*free);
            *free = start + out.report.busy_ns;
            #[cfg(test)]
            log.push((out.lun, now, start, out.report.busy_ns));
            let shipped = *free + unit_channel_ns(timing, &out.report);
            for task in tasks {
                let o = &mut sessions[finished[task.query as usize]].outcome;
                o.completed_ns = o.completed_ns.max(shipped);
            }
        });
    }

    /// Per-query Sorting-stage tail: result list over the private FPGA
    /// link, one bitonic sort wave, the query's top-`k` back over the host
    /// link (the same [`sorting_tail`] model the batch engine uses, for one
    /// query). The tail overlaps subsequent search rounds (§V), so it
    /// extends the query's completion time but not the scheduler clock.
    fn completion_tail_ns(&mut self, k: usize) -> Nanos {
        let tail = sorting_tail(1, k);
        self.stats.pcie_bytes += tail.pcie_bytes;
        self.breakdown.bitonic_ns += tail.sort_ns;
        self.breakdown.pcie_ns += tail.fpga_ns + tail.out_ns;
        tail.total_ns()
    }

    /// Executes one scheduling round: process arrivals, expire deadlines,
    /// admit from the queue, take one hop from every in-flight session,
    /// run the merged work on the SearSSD model, and complete finished
    /// sessions. Returns `false` once every submitted session is terminal.
    ///
    /// This is the only round path: everything runs on the calling
    /// thread.
    pub fn step_round(&mut self) -> bool {
        match self.begin_round() {
            Some(t_in) => {
                self.step_hops();
                self.finish_round(t_in)
            }
            None => false,
        }
    }

    /// First half of a scheduling round: arrivals, expiry, SLO shedding
    /// and admission. Returns the PCIe transfer-in time the admissions
    /// charged, or `None` when the engine is fully drained (no work now
    /// or ever).
    fn begin_round(&mut self) -> Option<Nanos> {
        self.process_arrivals();
        if self.inflight.is_empty() && self.queue.is_empty() && self.update_queue.is_empty() {
            // Idle: fast-forward to the next arrival (query or update).
            let next_query = self.arrivals.peek().map(|&Reverse((t, _))| t);
            let next_update = self.update_arrivals.peek().map(|&Reverse((t, _))| t);
            let next = match (next_query, next_update) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let t = next?;
            self.now_ns = self.now_ns.max(t);
            self.process_arrivals();
        }
        self.expire_due();
        self.shed_doomed();

        // ---- Admission: PCIe-in DMA overlaps the round's search. The
        // searcher is built here, not at submit, around a visited set
        // recycled from a finished session when one is spare, so resident
        // memory tracks the in-flight cap. ----
        let mut t_in: Nanos = 0;
        let (num_vertices, beam_width) = (self.deploy.dataset().len(), self.serve.beam_width);
        let admit_bytes = self.deploy.prepared().vector_bytes as u64 + 16;
        // Per-tenant cap: unbounded unless `TenantFair` is in force, so
        // every other policy admits exactly as the legacy FIFO loop did.
        let tenant_cap = match self.serve.slo {
            SloPolicy::TenantFair {
                max_inflight_per_tenant,
            } => max_inflight_per_tenant.max(1),
            _ => usize::MAX,
        };
        self.tenant_inflight.clear();
        for &id in &self.inflight {
            *tenant_slot(&mut self.tenant_inflight, self.sessions[id].outcome.tenant) += 1;
        }
        // Capped-out requests are skipped, not rejected: they go back to
        // the queue front afterwards, preserving FIFO within each tenant.
        let mut skipped: Vec<QueryId> = Vec::new();
        while self.inflight.len() < self.max_inflight() {
            let Some(id) = self.queue.pop_front() else {
                break;
            };
            let held = tenant_slot(&mut self.tenant_inflight, self.sessions[id].outcome.tenant);
            if *held >= tenant_cap {
                skipped.push(id);
                continue;
            }
            *held += 1;
            let visited = self
                .spare_visited
                .pop()
                .unwrap_or_else(|| VisitedSet::new(num_vertices));
            let s = &mut self.sessions[id];
            s.outcome.state = SessionState::Running;
            s.outcome.admitted_ns = self.now_ns;
            s.searcher = Some(BeamSearcher::with_visited(
                visited,
                std::mem::take(&mut s.query),
                std::mem::take(&mut s.entries),
                beam_width,
                DistanceKind::L2,
            ));
            t_in += HOST_LINK.transfer_ns(admit_bytes);
            self.stats.pcie_bytes += admit_bytes;
            self.inflight.push(id);
        }
        for id in skipped.into_iter().rev() {
            self.queue.push_front(id);
        }
        self.peak_inflight = self.peak_inflight.max(self.inflight.len());
        for &(tenant, held) in &self.tenant_inflight {
            if held > 0 {
                let peak = tenant_slot(&mut self.peak_tenant_inflight, tenant);
                *peak = (*peak).max(held);
            }
        }
        self.breakdown.pcie_ns += t_in;

        // Every in-flight session takes one hop this round.
        for &id in &self.inflight {
            self.sessions[id].outcome.rounds_inflight += 1;
        }
        self.live_hops = 0;
        self.finished.clear();
        Some(t_in)
    }

    /// Hop stage: one hop per in-flight session in admission (slot)
    /// order, each searcher stepped where it lives and each hop written —
    /// and relabeled into the physical id space — in a record the engine
    /// keeps across rounds, so a hop allocates nothing. The hops read the
    /// deployment in place (a mutable one's live index rows): updates are
    /// applied only at the end of [`finish_round`](Self::finish_round),
    /// so every hop of a round sees the deployment exactly as the round
    /// boundary left it.
    fn step_hops(&mut self) {
        let deploy = &self.deploy;
        let graph = deploy.graph();
        for (slot, &id) in self.inflight.iter().enumerate() {
            let session = &mut self.sessions[id];
            let searcher = session
                .searcher
                .as_mut()
                .expect("running session has a searcher");
            if self.hops.len() == self.live_hops {
                self.hops.push((0, IterationTrace::default()));
            }
            let (hop_slot, hop) = &mut self.hops[self.live_hops];
            // Quantized deployments score DRAM-resident codes instead of
            // full-precision rows.
            let stepped = match deploy.codes() {
                Some(codes) => searcher.step_into(codes, graph, hop),
                None => searcher.step_into(deploy.dataset(), graph, hop),
            };
            if stepped {
                session.outcome.hops += 1;
                *hop_slot = slot as u32;
                deploy.prepared().relabel_hop_in_place(hop);
                self.live_hops += 1;
            }
            if !stepped || searcher.is_finished() {
                self.finished.push(id);
            }
        }
    }

    /// Second half of a scheduling round, after the hop stage: executes
    /// the merged round's LUN stage, advances the clock (`t_in` is what
    /// admission charged), issues the finishing quantized sessions' exact
    /// rerank, completes sessions and applies queued updates.
    /// Returns whether any work remains.
    fn finish_round(&mut self, t_in: Nanos) -> bool {
        // Borrowed out of `self` for the round; handed back below so the
        // records' buffers serve the next round.
        let hop_records = std::mem::take(&mut self.hops);
        let hops = &hop_records[..self.live_hops];
        let quantized = self.deploy.codes().is_some();

        // ---- Execute the merged round on the hardware model. Quantized
        // rounds never touch flash: every distance comes from the
        // DRAM-resident code table, so the round costs DRAM traffic and
        // embedded-core compute instead of NAND sensing — flash is paid
        // only by the exact rerank of the sessions that finish. ----
        let mut advance = t_in;
        if !hops.is_empty() {
            let round_exec = if quantized {
                self.quantized_round_ns(hops)
            } else {
                let round = execute_round(
                    self.config,
                    &self.deploy.prepared().luncsr,
                    &self.qpt,
                    hops.iter()
                        .map(|(slot, hop)| (*slot, hop.visited.as_slice())),
                    RoundSinks {
                        ecc: &mut self.ecc,
                        stats: &mut self.stats,
                        luns_touched: &mut self.luns_touched,
                    },
                    &mut self.round,
                );
                let overlap = self.config.scheduling.dynamic_allocating && self.rounds > 0;
                round.apply(&mut self.breakdown, &mut self.prev_shadow, overlap)
            };
            advance = round_exec.max(t_in);
            self.rounds += 1;
            // Feed the shed estimator: mean duration of a round.
            self.round_ns_total += advance;
        }
        self.now_ns += advance;
        self.hops = hop_records;

        // ---- The exact rerank of the quantized sessions whose traversal
        // ended: the round's only flash work, off the scheduler clock. ----
        if quantized && !self.finished.is_empty() {
            self.rerank_finished();
        }

        // ---- Complete sessions that terminated this round. A session
        // whose results land past its deadline — it finished its search in
        // the very round the deadline passed — is `Expired`, not
        // `Completed`: the deadline check at the round *start* cannot see
        // this round's clock advance, so completion re-checks it. ----
        let finished = std::mem::take(&mut self.finished);
        // Both lists are in slot order: one order-preserving pass drops
        // every finished session from the in-flight list.
        let mut done = finished.iter().peekable();
        self.inflight.retain(|id| done.next_if_eq(&id).is_none());
        debug_assert!(done.peek().is_none(), "finished sessions were in flight");
        for &id in &finished {
            // A quantized session's results leave the flash when its
            // exact rerank is over; the wait extends its completion tail
            // (overlapping subsequent rounds, like the sorting tail) and
            // counts against its deadline below.
            let ready_ns = if quantized {
                self.sessions[id].outcome.completed_ns
            } else {
                self.now_ns
            };
            self.breakdown.rerank_ns += ready_ns - self.now_ns;
            let done_ns = ready_ns + self.completion_tail_ns(self.sessions[id].k);
            let state = match self.sessions[id].outcome.deadline_ns {
                Some(d) if done_ns > d => SessionState::Expired,
                _ => SessionState::Completed,
            };
            self.finish_session(id, state, done_ns);
            // Feed the shed estimator's expected-hops prior: this session
            // ran its search to the end (even if it expired at the tail).
            self.finished_hops_total += self.sessions[id].outcome.hops as u64;
            self.finished_searches += 1;
        }
        self.finished = finished;
        // Keep no more spare sets than sessions still in flight: the free
        // list follows the current load down, and a drained engine (a
        // maintenance window, a compaction) holds none.
        self.spare_visited.truncate(self.inflight.len());

        // ---- Apply admitted updates, in admission order — last, so no
        // hop of this round saw any of them and the next round's hops see
        // all of them. ----
        for _ in 0..self.serve.max_updates_per_round {
            let Some(uid) = self.update_queue.pop_front() else {
                break;
            };
            self.apply_update(uid);
        }

        !self.inflight.is_empty()
            || !self.queue.is_empty()
            || !self.arrivals.is_empty()
            || !self.update_queue.is_empty()
            || !self.update_arrivals.is_empty()
    }

    /// Applies one update session: mutates the deployment, charges the
    /// flash write path (program latency, wear, stats) and advances the
    /// clock by the update's device occupancy.
    fn apply_update(&mut self, uid: UpdateId) {
        let s = &mut self.update_sessions[uid];
        s.outcome.admitted_ns = self.now_ns;
        let op = s.op.take().expect("queued update still has its op");
        let applied = match op {
            UpdateOp::Insert(vector) => self.deploy.insert(self.config, &vector).ok(),
            UpdateOp::Delete(id) => self.deploy.delete(self.config, id),
        };
        let o = &mut self.update_sessions[uid].outcome;
        match applied {
            Some(applied) => {
                self.now_ns += applied.duration_ns;
                self.breakdown.program_ns += applied.program_ns;
                self.breakdown.embedded_ns +=
                    applied.duration_ns.saturating_sub(applied.program_ns);
                self.stats.page_programs += applied.pages_programmed;
                o.state = SessionState::Completed;
                o.assigned = Some(applied.id);
                o.repaired = applied.repaired;
                o.pages_programmed = applied.pages_programmed;
            }
            None => {
                o.state = SessionState::Rejected;
            }
        }
        o.completed_ns = self.now_ns;
        self.last_completion_ns = self.last_completion_ns.max(self.now_ns);
    }

    /// Drives the scheduler until every session is terminal and returns
    /// the report.
    pub fn run_to_completion(&mut self) -> ServeReport {
        while self.step_round() {}
        self.report()
    }

    /// Compacts the deployment in place, charging the rewrite's
    /// erase/program time to the simulated clock and the report's
    /// breakdown. Returns `None` for query-only deployments.
    pub fn compact(&mut self) -> Option<crate::deploy::CompactionReport> {
        if !self.deploy.is_mutable() {
            return None;
        }
        let report = self.deploy.compact(self.config);
        self.now_ns += report.duration_ns;
        self.breakdown.program_ns += report.duration_ns;
        self.stats.page_programs += report.pages_programmed;
        self.stats.block_erases += report.blocks_erased;
        self.last_completion_ns = self.last_completion_ns.max(self.now_ns);
        Some(report)
    }

    /// Snapshot of the serving outcome so far (complete once
    /// [`run_to_completion`](Self::run_to_completion) or repeated
    /// [`step_round`](Self::step_round) calls have drained every session).
    pub fn report(&self) -> ServeReport {
        let outcomes = self.sessions.iter().map(|s| s.outcome.clone()).collect();
        let update_outcomes = self
            .update_sessions
            .iter()
            .map(|s| s.outcome.clone())
            .collect();
        ServeReport {
            outcomes,
            update_outcomes,
            updates: self.deploy.totals(),
            makespan_ns: self
                .now_ns
                .max(self.last_completion_ns)
                .saturating_sub(self.first_arrival_ns.unwrap_or(0)),
            rounds: self.rounds,
            peak_inflight: self.peak_inflight,
            peak_tenant_inflight: self.peak_tenant_inflight.clone(),
            breakdown: self.breakdown,
            stats: self.stats,
            lun_coverage: self.luns_touched.ratio(self.config.geometry.total_luns()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_anns::beam::{beam_search, VisitedSet};
    use ndsearch_anns::index::GraphAnnsIndex;
    use ndsearch_anns::trace::BatchTrace;
    use ndsearch_anns::vamana::{Vamana, VamanaParams};
    use ndsearch_vector::synthetic::DatasetSpec;

    struct Fixture {
        base: Dataset,
        queries: Dataset,
        graph: Csr,
        medoid: VectorId,
        config: NdsConfig,
    }

    fn fixture(n: usize, q: usize) -> Fixture {
        let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
        let index = Vamana::build(&base, VamanaParams::default());
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.ecc.hard_decision_failure_prob = 0.0;
        Fixture {
            base,
            queries,
            medoid: index.medoid(),
            graph: index.base_graph().clone(),
            config,
        }
    }

    fn stage(fx: &Fixture) -> Prepared {
        Prepared::stage(&fx.config, &fx.graph, &fx.base, &BatchTrace::default())
    }

    fn submit_all(engine: &mut ServeEngine<'_>, fx: &Fixture, arrival: impl Fn(usize) -> Nanos) {
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            engine.submit(QueryRequest::at(arrival(i), q.to_vec(), vec![fx.medoid]));
        }
    }

    #[test]
    fn concurrent_results_match_sequential_beam_search() {
        let fx = fixture(500, 24);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 8,
            ..ServeConfig::default()
        };
        let mut engine =
            ServeEngine::new(&fx.config, serve.clone(), &prepared, &fx.base, &fx.graph);
        submit_all(&mut engine, &fx, |_| 0);
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), fx.queries.len());

        let mut vs = VisitedSet::new(fx.base.len());
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            let seq = beam_search(
                &fx.base,
                &fx.graph,
                q,
                &[fx.medoid],
                serve.beam_width,
                DistanceKind::L2,
                &mut vs,
            );
            let mut want = seq.found;
            want.truncate(serve.k);
            assert_eq!(report.outcomes[i].results, want, "query {i} diverged");
        }
    }

    #[test]
    fn the_completion_tail_ships_the_query_s_own_top_k() {
        // The host link returns 8 B per top-k entry: a query asking for 4
        // of the engine's 10 ships 6 × 8 B less and lands 3 ns sooner
        // (80 B take ⌈5.2⌉ ns, 32 B ⌈2.1⌉), whether it completes or its
        // deadline cuts it off in flight.
        let fx = fixture(300, 1);
        let prepared = stage(&fx);
        for (deadline, state) in [
            (None, SessionState::Completed),
            (Some(1), SessionState::Expired),
        ] {
            let run = |k: Option<usize>| {
                let mut engine = ServeEngine::new(
                    &fx.config,
                    ServeConfig::default(),
                    &prepared,
                    &fx.base,
                    &fx.graph,
                );
                let mut req = QueryRequest::at(0, fx.queries.vector(0).to_vec(), vec![fx.medoid]);
                req.deadline_ns = deadline;
                if let Some(k) = k {
                    req = req.top_k(k);
                }
                engine.submit(req);
                engine.run_to_completion()
            };
            let (ten, four) = (run(None), run(Some(4)));
            assert_eq!(four.outcomes[0].state, state);
            assert_eq!(ten.outcomes[0].state, state);
            let (ten_k, four_k) = (&ten.outcomes[0].results, &four.outcomes[0].results);
            assert!(four_k.len() <= 4 && ten_k.starts_with(four_k));
            assert_eq!(ten.stats.pcie_bytes - four.stats.pcie_bytes, 6 * 8);
            assert_eq!(
                ten.outcomes[0].completed_ns - four.outcomes[0].completed_ns,
                3
            );
        }
    }

    #[test]
    fn serving_is_deterministic() {
        let mut fx = fixture(400, 16);
        // Keep ECC fault injection on: its counter-indexed streams must
        // draw the same decisions on every run.
        fx.config.ecc.hard_decision_failure_prob = 0.05;
        let prepared = stage(&fx);
        let run = || {
            let serve = ServeConfig {
                max_inflight: 4,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
            submit_all(&mut engine, &fx, |i| i as Nanos * 1_000);
            engine.run_to_completion()
        };
        let (first, second) = (run(), run());
        assert!(first.stats.ecc_soft_fallbacks > 0);
        assert_eq!(first, second);
        assert_eq!(first.latency(), second.latency());
    }

    #[test]
    fn round_robin_never_starves_a_session() {
        let fx = fixture(400, 16);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 4,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
        submit_all(&mut engine, &fx, |_| 0);
        let report = engine.run_to_completion();
        for o in &report.outcomes {
            assert_eq!(o.state, SessionState::Completed);
            // Every round a session spends in flight advances it one hop,
            // except at most one final drain round.
            assert!(
                o.rounds_inflight >= o.hops && o.rounds_inflight <= o.hops + 1,
                "session {} stalled: {} rounds for {} hops",
                o.id,
                o.rounds_inflight,
                o.hops
            );
            assert!(o.hops > 0);
        }
        // FIFO admission: same-arrival sessions admitted in submission order.
        let admitted: Vec<Nanos> = report.outcomes.iter().map(|o| o.admitted_ns).collect();
        assert!(admitted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.peak_inflight, 4);
    }

    #[test]
    fn queue_overflow_rejects_and_deadlines_expire() {
        let fx = fixture(400, 16);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 2,
            queue_capacity: 4,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
        submit_all(&mut engine, &fx, |_| 0);
        let report = engine.run_to_completion();
        assert_eq!(
            report.rejected(),
            12,
            "queue holds 4 of 16 same-instant arrivals"
        );
        assert_eq!(report.completed(), 4);
        for o in report
            .outcomes
            .iter()
            .filter(|o| o.state == SessionState::Rejected)
        {
            assert!(o.results.is_empty());
        }

        // A deadline in the past expires a session with partial results.
        let mut engine2 = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let mut req = QueryRequest::at(0, fx.queries.vector(0).to_vec(), vec![fx.medoid]);
        req.deadline_ns = Some(1);
        engine2.submit(req);
        let r2 = engine2.run_to_completion();
        assert_eq!(r2.expired(), 1);
    }

    #[test]
    fn qpt_budget_caps_inflight() {
        let fx = fixture(400, 8);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 64,
            // Room for exactly 2 QPT records.
            qpt_dram_budget_bytes: 2 * QueryPropertyTable::new(
                64,
                prepared.vector_bytes,
                RESULT_LIST_ENTRIES,
            )
            .record_bytes(),
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
        assert_eq!(engine.max_inflight(), 2);
        submit_all(&mut engine, &fx, |_| 0);
        let report = engine.run_to_completion();
        assert_eq!(report.peak_inflight, 2);
        assert_eq!(report.completed(), 8);
    }

    #[test]
    fn submit_poll_step_lifecycle() {
        let fx = fixture(400, 4);
        let prepared = stage(&fx);
        let mut engine = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let id = engine.submit(QueryRequest::at(
            5_000,
            fx.queries.vector(0).to_vec(),
            vec![fx.medoid],
        ));
        assert_eq!(engine.poll(id), SessionState::Pending);
        assert!(engine.step_round()); // fast-forwards to the arrival
        assert_eq!(engine.poll(id), SessionState::Running);
        while engine.step_round() {}
        assert_eq!(engine.poll(id), SessionState::Completed);
        let report = engine.report();
        assert_eq!(report.outcomes[id].results.len(), 10);
        // Makespan is measured from the first arrival, not from t=0: the
        // idle prefix before the query arrived must not dilute QPS.
        assert_eq!(report.makespan_ns, report.outcomes[0].completed_ns - 5_000);
        assert!(report.latency().p50_ns > 0);
        assert!(report.lun_coverage > 0.0);
    }

    fn mutable_engine(
        fx: &Fixture,
        serve: ServeConfig,
    ) -> (ServeEngine<'_>, ndsearch_vector::Dataset) {
        let index = Vamana::build(&fx.base, VamanaParams::default());
        let deploy = crate::deploy::Deployment::stage(&fx.config, Box::new(index), fx.base.clone());
        (
            ServeEngine::with_deployment(&fx.config, serve, deploy),
            fx.queries.clone(),
        )
    }

    #[test]
    fn mixed_query_update_serving_completes_and_charges_flash() {
        let mut fx = fixture(400, 16);
        // Headroom for the inserts.
        fx.config = NdsConfig::scaled_for(800, fx.base.stored_vector_bytes());
        fx.config.ecc.hard_decision_failure_prob = 0.0;
        let (mut engine, extra) = mutable_engine(
            &fx,
            ServeConfig {
                max_inflight: 4,
                ..ServeConfig::default()
            },
        );
        // Interleave 16 queries with 16 inserts and 4 deletes.
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            engine.submit(QueryRequest::at(
                i as Nanos * 1_000,
                q.to_vec(),
                vec![fx.medoid],
            ));
        }
        for (i, (_, v)) in extra.iter().enumerate() {
            engine.submit_update(UpdateRequest::insert_at(i as Nanos * 1_500, v.to_vec()));
        }
        for i in 0..4u32 {
            engine.submit_update(UpdateRequest::delete_at(20_000 + Nanos::from(i), i));
        }
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), 16);
        assert_eq!(report.updates_completed(), 20);
        assert_eq!(report.updates_rejected(), 0);
        assert!(report.update_qps() > 0.0);
        // The write path demonstrably charged flash program latency, wear
        // and stats.
        assert!(report.updates.inserts == 16 && report.updates.deletes == 4);
        assert!(report.updates.pages_programmed > 0, "no page programmed");
        assert!(report.stats.page_programs > 0);
        assert!(report.breakdown.program_ns > 0, "tPROG not charged");
        assert!(report.write_amplification() > 0.0);
        assert!(engine.deployment().wear().max_wear_ratio() > 0.0);
        // The deployment grew and the deletes tombstoned.
        assert_eq!(engine.deployment().dataset().len(), 416);
        assert_eq!(engine.deployment().live_count(), 412);
        // Inserted ids are reported in submission order.
        for (i, o) in report.update_outcomes.iter().take(16).enumerate() {
            assert_eq!(o.state, SessionState::Completed);
            assert_eq!(o.assigned, Some(400 + i as u32));
        }
    }

    #[test]
    fn deleted_vertices_never_surface_in_results() {
        let fx = fixture(400, 8);
        let (mut engine, _) = mutable_engine(&fx, ServeConfig::default());
        // Find the true top-1 of query 0, delete it, then serve the query.
        let mut vs = VisitedSet::new(fx.base.len());
        let top = beam_search(
            &fx.base,
            &fx.graph,
            fx.queries.vector(0),
            &[fx.medoid],
            64,
            DistanceKind::L2,
            &mut vs,
        )
        .found[0]
            .id;
        let del = engine.submit_update(UpdateRequest::delete_at(0, top));
        let q = engine.submit(QueryRequest::at(
            1_000_000,
            fx.queries.vector(0).to_vec(),
            vec![fx.medoid],
        ));
        let report = engine.run_to_completion();
        assert_eq!(report.update_outcomes[del].state, SessionState::Completed);
        assert_eq!(report.outcomes[q].state, SessionState::Completed);
        assert!(
            !report.outcomes[q].results.iter().any(|n| n.id == top),
            "tombstoned vertex leaked into results"
        );
        assert!(!report.outcomes[q].results.is_empty());
    }

    #[test]
    fn update_queue_overflow_rejects() {
        let fx = fixture(300, 1);
        let (mut engine, _) = mutable_engine(
            &fx,
            ServeConfig {
                update_queue_capacity: 2,
                max_updates_per_round: 1,
                ..ServeConfig::default()
            },
        );
        for _ in 0..6 {
            engine.submit_update(UpdateRequest::delete_at(0, 5));
        }
        let report = engine.run_to_completion();
        // Two fit the queue; the other four bounce. Of the two applied,
        // the first completes, the second is a duplicate delete.
        assert_eq!(report.updates_rejected(), 5);
        assert_eq!(report.updates_completed(), 1);
    }

    #[test]
    fn updates_on_immutable_deployment_are_rejected() {
        let fx = fixture(300, 1);
        let prepared = stage(&fx);
        let mut engine = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let id = engine.submit_update(UpdateRequest::delete_at(0, 3));
        let report = engine.run_to_completion();
        assert_eq!(report.update_outcomes[id].state, SessionState::Rejected);
        assert_eq!(report.updates_rejected(), 1);
        assert_eq!(report.updates.deletes, 0);
    }

    #[test]
    fn serving_compaction_charges_erases_and_keeps_results() {
        let mut fx = fixture(400, 8);
        fx.config = NdsConfig::scaled_for(800, fx.base.stored_vector_bytes());
        fx.config.ecc.hard_decision_failure_prob = 0.0;
        let (mut engine, extra) = mutable_engine(&fx, ServeConfig::default());
        for (_, v) in extra.iter().take(8) {
            engine.submit_update(UpdateRequest::insert_at(0, v.to_vec()));
        }
        engine.run_to_completion();
        let before = engine.deployment().prepared().luncsr.delta_vertices();
        assert!(before > 0);
        let compaction = engine.compact().expect("mutable deployment compacts");
        assert!(compaction.blocks_erased > 0);
        assert_eq!(engine.deployment().prepared().luncsr.delta_vertices(), 0);

        // Query results over the compacted deployment match the overlay.
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![fx.medoid]));
            let _ = i;
        }
        let report = engine.run_to_completion();
        assert!(report.stats.block_erases > 0);
        let mut vs = VisitedSet::new(engine.deployment().dataset().len());
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            let mut want = beam_search(
                engine.deployment().dataset(),
                engine.deployment().graph(),
                q,
                &[fx.medoid],
                ServeConfig::default().beam_width,
                DistanceKind::L2,
                &mut vs,
            )
            .found;
            want.truncate(ServeConfig::default().k);
            assert_eq!(report.outcomes[i].results, want, "query {i} diverged");
        }
    }

    // ---- Compressed-vector serving: the exact rerank on the device path.

    fn quantized_fixture(n: usize, q: usize) -> Fixture {
        let mut fx = fixture(n, q);
        fx.config.quantization = ndsearch_vector::quant::QuantSpec::Int8;
        fx
    }

    /// What a quantized session must return, computed with no engine: the
    /// beam over the code table run to exhaustion, then the exact rerank
    /// at `depth`. Returns the rerank candidates and the reranked list.
    fn sequential_rerank(
        engine: &ServeEngine<'_>,
        fx: &Fixture,
        query: &[f32],
        depth: usize,
    ) -> (Vec<VectorId>, Vec<Neighbor>) {
        let codes = engine.deployment().codes().expect("a quantized deployment");
        let mut searcher = BeamSearcher::new(
            fx.base.len(),
            query.to_vec(),
            vec![fx.medoid],
            engine.serve.beam_width,
            DistanceKind::L2,
        );
        while searcher.step(codes, &fx.graph).is_some() {}
        let mut ids = Vec::new();
        searcher.rerank(&fx.base, depth, &mut ids);
        (ids, searcher.found())
    }

    #[test]
    fn quantized_results_match_sequential_search_and_rerank() {
        let fx = quantized_fixture(500, 24);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 8,
            rerank_depth: 20,
            ..ServeConfig::default()
        };
        let mut engine =
            ServeEngine::new(&fx.config, serve.clone(), &prepared, &fx.base, &fx.graph);
        submit_all(&mut engine, &fx, |i| i as Nanos * 700);
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), fx.queries.len());
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            let (_, mut want) = sequential_rerank(&engine, &fx, q, serve.rerank_depth);
            want.truncate(serve.k);
            assert_eq!(report.outcomes[i].results, want, "query {i} diverged");
        }
        // Hops stayed in DRAM; the reranks went through SiN and ECC.
        assert_eq!(report.breakdown.nand_read_ns, 0);
        assert!(report.breakdown.rerank_ns > 0);
        assert!(report.stats.page_reads > 0 && report.stats.search_ops > 0);
        assert!(report.lun_coverage > 0.0);
    }

    #[test]
    fn sessions_finishing_together_share_their_rerank_pages() {
        let fx = quantized_fixture(500, 1);
        let prepared = stage(&fx);
        let run = |copies: usize| {
            let mut engine = ServeEngine::new(
                &fx.config,
                ServeConfig::default(),
                &prepared,
                &fx.base,
                &fx.graph,
            );
            for _ in 0..copies {
                engine.submit(QueryRequest::at(
                    0,
                    fx.queries.vector(0).to_vec(),
                    vec![fx.medoid],
                ));
            }
            let report = engine.run_to_completion();
            (engine, report)
        };
        let (engine, one) = run(1);
        let depth = ServeConfig::default().rerank_depth;
        let (ids, _) = sequential_rerank(&engine, &fx, fx.queries.vector(0), depth);
        let mut pages: Vec<u64> = ids
            .iter()
            .map(|&v| {
                prepared
                    .luncsr
                    .physical_addr(prepared.perm.new_of(v))
                    .page_key(&fx.config.geometry)
            })
            .collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(one.stats.page_reads, pages.len() as u64);

        // The same query twice, finishing in the same round: every page is
        // still sensed once, and the second session's candidates hit it.
        let (_, two) = run(2);
        assert_eq!(two.outcomes[0].results, two.outcomes[1].results);
        assert_eq!(two.stats.page_reads, one.stats.page_reads);
        assert!(two.stats.page_buffer_hits >= ids.len() as u64);
    }

    #[test]
    fn rerank_units_never_overlap_on_a_lun() {
        let mut fx = quantized_fixture(400, 24);
        let prepared = stage(&fx);
        let (base, graph) = (fx.base.clone(), fx.graph.clone());
        proptest::test_runner::run(
            proptest::test_runner::Config { cases: 12 },
            "rerank_units_never_overlap_on_a_lun",
            |rng| {
                use proptest::prelude::*;
                // Random finish schedules: arrival gaps from "all at once"
                // to "one at a time", few or many slots, shallow or deep
                // reranks, decodes that fail or not.
                fx.config.ecc.hard_decision_failure_prob = [0.0, 0.3][(0usize..2).generate(rng)];
                let serve = ServeConfig {
                    max_inflight: (1usize..24).generate(rng),
                    beam_width: (16usize..64).generate(rng),
                    rerank_depth: (1usize..48).generate(rng),
                    ..ServeConfig::default()
                };
                let gap = (0u64..40_000).generate(rng);
                let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &base, &graph);
                for (i, (_, q)) in fx.queries.iter().enumerate() {
                    let at = i as Nanos * gap + (0u64..=gap).generate(rng);
                    engine.submit(QueryRequest::at(at, q.to_vec(), vec![fx.medoid]));
                }
                let report = engine.run_to_completion();
                prop_assert_eq!(report.completed(), fx.queries.len());

                // Per LUN, in issue order: a unit starts when its LUN is
                // free of the one before it and not before it was issued.
                let mut free_at = vec![0; fx.config.geometry.total_luns() as usize];
                let mut last_issue = 0;
                prop_assert!(!engine.rerank_units.is_empty());
                for &(lun, issued, start, busy) in &engine.rerank_units {
                    prop_assert!(issued >= last_issue, "units are logged in issue order");
                    last_issue = issued;
                    let free = &mut free_at[lun as usize];
                    prop_assert_eq!(start, issued.max(*free), "LUN {} idled or overlapped", lun);
                    prop_assert!(busy > 0);
                    *free = start + busy;
                }
                prop_assert_eq!(&free_at, &engine.lun_free_at);
                // No session completes before its LUNs let it.
                let waited: Nanos = report.breakdown.rerank_ns;
                prop_assert!(waited >= engine.rerank_units.iter().map(|u| u.3).max().unwrap());
                Ok(())
            },
        );
    }

    #[test]
    fn a_cut_off_quantized_session_skips_the_rerank() {
        let fx = quantized_fixture(400, 2);
        let prepared = stage(&fx);
        let untouched = |engine: &ServeEngine<'_>, report: &ServeReport| {
            assert!(engine.rerank_units.is_empty());
            assert_eq!(report.stats.page_reads, 0);
            assert_eq!(report.breakdown.rerank_ns, 0);
            assert_eq!(report.lun_coverage, 0.0);
        };
        let request = |deadline| {
            QueryRequest::at(0, fx.queries.vector(0).to_vec(), vec![fx.medoid]).deadline(deadline)
        };

        // Expired mid-flight (the whole traversal is ~50 hops of ~0.3 µs):
        // best-so-far approximate results, no flash.
        let mut engine = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        engine.submit(request(5_000));
        let report = engine.run_to_completion();
        assert_eq!(report.outcomes[0].state, SessionState::Expired);
        assert!(report.outcomes[0].hops > 0 && !report.outcomes[0].results.is_empty());
        untouched(&engine, &report);

        // Shed in flight: after the first hop round the estimator sees
        // beam-width hops ahead and a deadline that cannot hold them.
        let serve = ServeConfig {
            slo: SloPolicy::ShedDoomed { min_slack_ns: 0 },
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
        engine.submit(request(8_000));
        let report = engine.run_to_completion();
        let o = &report.outcomes[0];
        assert!(o.shed && o.state == SessionState::Expired && o.hops > 0);
        untouched(&engine, &report);
    }

    #[test]
    fn empty_engine_reports_zero() {
        let fx = fixture(200, 1);
        let prepared = stage(&fx);
        let mut engine = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let report = engine.run_to_completion();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.qps(), 0.0);
        assert_eq!(report.makespan_ns, 0);
    }
}
