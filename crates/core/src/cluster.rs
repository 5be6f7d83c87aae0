//! Sharded multi-device serving: a scatter–gather cluster of SearSSDs,
//! with per-shard replication, failover and hedged routing.
//!
//! The paper evaluates one in-NAND accelerator; production DiskANN-family
//! deployments shard billion-point corpora across many SSDs and merge
//! per-shard top-k (Subramanya et al., NeurIPS'19; FreshDiskANN, Singh
//! et al., 2021). This module is that scale-out tier over the existing
//! single-device stack:
//!
//! * a [`ShardPlan`] (hash or
//!   balanced-size policy) splits the dataset into per-shard
//!   sub-datasets, each staged as one or more replica [`Deployment`]s —
//!   each replica its own copy of the shard's one index build, its own
//!   LUNCSR staging, FTL, ECC engine and wear model, i.e. its own
//!   simulated device, reading the shard's rows from one shared copy;
//! * [`ClusterEngine`] **scatters** every [`QueryRequest`] to all shards
//!   (one [`ServeEngine`] session on one replica per shard, seeded at
//!   that shard's own entry vertex in place of the request's `entries`)
//!   and drives all replica engines
//!   round-by-round: each round, every alive replica device takes one
//!   `step_round()`, the devices spread over
//!   [`exec_threads`](crate::config::NdsConfig::exec_threads) host
//!   threads ([`crate::exec`] — the repo's one host-side fan-out);
//! * per-shard top-k lists come back in shard-local ids, are translated
//!   to global ids through the plan, and are **gathered** by a
//!   deterministic stable merge — ascending `(distance, global id)`,
//!   exactly the order [`Neighbor`]'s `Ord` defines — truncated to `k`;
//! * [`UpdateRequest`]s route to their *owning* shard (deletes via the
//!   plan's assignment, inserts via the policy's routing rule) and fan
//!   out to **every alive replica** of that shard, so replicas stay
//!   bit-identical copies and online insert/delete keeps working under
//!   sharding and replication;
//! * [`ClusterReport`] carries one gathered [`QueryOutcome`] per query —
//!   the single-device record, filled from the copy of the session that
//!   answered for each shard (see its field docs for what admission,
//!   completion, rounds and hops mean for a gathered query) — plus
//!   per-shard breakdowns ([`ShardBreakdown`]: per-replica device
//!   reports, availability, failover and hedge counters) and the
//!   cluster's load-imbalance factor. Its roll-ups are the
//!   [`ServeReport`]'s, one body each in [`crate::report`], and like it
//!   the report holds simulated quantities only: the threads a run
//!   steps its devices on leave no trace in it.
//!
//! # Replication & failover
//!
//! [`ReplicationConfig`] stages `replicas` copies of every shard. Each
//! replica is a full independent device (same sub-dataset, a clone of
//! the shard's one index build, its own flash stack), so any replica can
//! answer any query for its shard. Queries route to one replica per
//! shard by [`ReplicaPolicy`]:
//!
//! * `RoundRobin` — cycle through alive replicas per shard;
//! * `Hedged { delay_ns }` — round-robin primary, plus a backup copy of
//!   the session fired on the *next* alive replica once the primary has
//!   been outstanding for `delay_ns` without finishing; the first
//!   completion wins the gather (the classic tail-at-scale hedge).
//!
//! A [`FailureSchedule`] degrades or kills replicas mid-run at simulated
//! timestamps: [`FailureKind::EccStorm`] ramps the device's
//! hard-decision LDPC failure probability (every read pays the
//! soft-decode penalty), and [`FailureKind::Kill`] drops the device: its
//! in-flight and queued sessions are **re-seeded on a surviving
//! replica** (counted in [`ShardBreakdown::failovers`]) and it receives
//! no further traffic. A shard whose replicas have all been killed
//! freezes its sessions (the cluster outcome stays non-terminal); events
//! scheduled after the last completion never fire.
//!
//! # Determinism and parity
//!
//! Replicas share **no** mutable state: each replica engine owns its
//! deployment, device model and simulated clock (twins read one shared
//! copy of their shard's rows, which an insert copies before writing),
//! so a round's
//! `step_round()` calls are independent — which thread takes which
//! device, and in what order, cannot change what any device computes.
//! Failure events and hedges fire at round boundaries on the calling
//! thread, in schedule/submission order, from simulated clocks only —
//! never from host time. The gather step is a pure sort by
//! `(distance, global id)`. Hence the cluster report is bit-identical at
//! any [`exec_threads`](crate::config::NdsConfig::exec_threads) *and*
//! invariant under the order shards are stepped in
//! ([`ClusterEngine::run_to_completion_ordered`]) — pinned by
//! `tests/exec_determinism.rs`, failure schedules included.
//!
//! Because replicas of a shard are identical deterministic devices, a
//! no-failure replicated cluster returns **element-identical** results
//! to the single-replica cluster under every policy (only timing
//! changes with load splitting) — pinned by `tests/cluster_parity.rs`.
//!
//! When every shard's search is exhaustive over its sub-corpus (beam
//! width at least the shard size on a connected shard graph), the merge
//! is *provably* lossless: `top_k(S) = top_k(∪ᵢ top_k(Sᵢ))` for any
//! partition `S = ∪ᵢ Sᵢ`, because each of the true top-k lives in
//! exactly one shard and survives that shard's exact top-k. The parity
//! proptest (`tests/cluster_parity.rs`) exercises exactly this regime —
//! sharded results element-identical to the unsharded engine across
//! shard counts and both policies, tombstones included. At production
//! beam widths per-shard search is approximate and the merged recall is
//! gated in `tests/end_to_end.rs` at the single-device thresholds.
//!
//! # Example
//!
//! ```
//! use ndsearch_core::cluster::{
//!     ClusterEngine, FailureSchedule, ReplicaPolicy, ReplicationConfig,
//! };
//! use ndsearch_core::config::NdsConfig;
//! use ndsearch_core::serve::{QueryRequest, ServeConfig};
//! use ndsearch_anns::index::MutableIndex;
//! use ndsearch_anns::vamana::{Vamana, VamanaParams};
//! use ndsearch_vector::shard::{ShardPlan, ShardPolicy};
//! use ndsearch_vector::synthetic::DatasetSpec;
//!
//! let (base, queries) = DatasetSpec::sift_scaled(300, 4).build_pair();
//! let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
//! let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 7);
//! // Two replicas per shard; kill shard 0's first replica mid-run.
//! let replication = ReplicationConfig::replicated(2)
//!     .with_policy(ReplicaPolicy::RoundRobin)
//!     .with_failures(FailureSchedule::new().kill(2_000_000, 0, 0));
//! let mut cluster = ClusterEngine::stage_replicated(
//!     &config,
//!     ServeConfig::default(),
//!     plan,
//!     replication,
//!     &base,
//!     |shard| {
//!         let index = Vamana::build(shard, VamanaParams::default());
//!         let entry = index.medoid();
//!         (Box::new(index) as Box<dyn MutableIndex>, entry)
//!     },
//! );
//! // No entries: each shard seeds the query at its own entry vertex.
//! for (_, q) in queries.iter() {
//!     cluster.submit(QueryRequest::at(0, q.to_vec(), Vec::new()));
//! }
//! let report = cluster.run_to_completion();
//! assert_eq!(report.completed(), 4);
//! assert!(report.availability() > 0.0 && report.availability() <= 1.0);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use ndsearch_anns::index::MutableIndex;
use ndsearch_flash::timing::Nanos;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::shard::ShardPlan;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::VectorId;

use crate::config::NdsConfig;
use crate::deploy::{Deployment, UpdateTotals};
use crate::serve::{
    QueryId, QueryOutcome, QueryRequest, ServeConfig, ServeEngine, ServeReport, SessionState,
    UpdateId, UpdateOp, UpdateOutcome, UpdateRequest,
};

/// Identifier of a cluster query session (dense, submission order).
pub type ClusterQueryId = usize;

/// Identifier of a cluster update session (dense, submission order; a
/// separate space from [`ClusterQueryId`]).
pub type ClusterUpdateId = usize;

/// How queries pick a replica within their shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPolicy {
    /// Cycle through alive replicas in index order, one per scattered
    /// session.
    RoundRobin,
    /// Round-robin primary plus a *hedge*: if the primary session is
    /// still unfinished `delay_ns` after its arrival, an identical
    /// backup session fires on the next alive replica and the first
    /// completion wins the gather. Bounds tail latency when one replica
    /// degrades (e.g. an ECC storm) at the cost of duplicated work.
    Hedged {
        /// How long the primary may run before the backup fires.
        delay_ns: Nanos,
    },
}

/// What a [`FailureEvent`] does to its target replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureKind {
    /// The device drops out entirely: it stops stepping, receives no
    /// further traffic, and its unfinished sessions are re-seeded on a
    /// surviving replica of the same shard (a *failover*).
    Kill,
    /// The device's hard-decision LDPC failure probability jumps to
    /// `failure_prob` (see
    /// [`EccEngine::set_hard_decision_failure_prob`](ndsearch_flash::ecc::EccEngine::set_hard_decision_failure_prob)):
    /// reads start paying the soft-decode penalty and the replica turns
    /// into a straggler without going down.
    EccStorm {
        /// New hard-decision failure probability, clamped to `[0, 1]`.
        failure_prob: f64,
    },
}

/// One scheduled degradation: at simulated time `at_ns`, `kind` happens
/// to replica `replica` of shard `shard`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Simulated timestamp the event fires at (checked against the
    /// target replica's clock at round boundaries).
    pub at_ns: Nanos,
    /// Target shard index.
    pub shard: usize,
    /// Target replica index within the shard.
    pub replica: usize,
    /// What happens.
    pub kind: FailureKind,
}

/// A deterministic script of mid-run failures (builder-style).
///
/// Events fire at round boundaries once the target replica's simulated
/// clock reaches `at_ns`, in schedule order — host time never enters,
/// so a run with a failure schedule is exactly as reproducible as one
/// without. Events targeting an already-dead replica, an empty shard,
/// or a time past the last completion never fire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

impl FailureSchedule {
    /// An empty schedule (no failures).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary event.
    #[must_use]
    pub fn push(mut self, event: FailureEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Adds a [`FailureKind::Kill`] of `shard`/`replica` at `at_ns`.
    #[must_use]
    pub fn kill(self, at_ns: Nanos, shard: usize, replica: usize) -> Self {
        self.push(FailureEvent {
            at_ns,
            shard,
            replica,
            kind: FailureKind::Kill,
        })
    }

    /// Adds a [`FailureKind::EccStorm`] on `shard`/`replica` at `at_ns`.
    #[must_use]
    pub fn ecc_storm(self, at_ns: Nanos, shard: usize, replica: usize, failure_prob: f64) -> Self {
        self.push(FailureEvent {
            at_ns,
            shard,
            replica,
            kind: FailureKind::EccStorm { failure_prob },
        })
    }

    /// The scheduled events, in schedule (= firing) order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Replication knobs for [`ClusterEngine::stage_replicated`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationConfig {
    /// Replicas per shard (≥ 1; 1 reproduces the unreplicated cluster).
    pub replicas: usize,
    /// How queries pick a replica.
    pub policy: ReplicaPolicy,
    /// Scripted mid-run degradations.
    pub failures: FailureSchedule,
}

impl Default for ReplicationConfig {
    /// One replica per shard, round-robin (degenerate: the single
    /// replica), no failures — the pre-replication cluster.
    fn default() -> Self {
        Self {
            replicas: 1,
            policy: ReplicaPolicy::RoundRobin,
            failures: FailureSchedule::new(),
        }
    }
}

impl ReplicationConfig {
    /// `replicas` copies of every shard, round-robin, no failures.
    pub fn replicated(replicas: usize) -> Self {
        Self {
            replicas,
            ..Self::default()
        }
    }

    /// Replaces the routing policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ReplicaPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the failure schedule.
    #[must_use]
    pub fn with_failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }
}

/// One replica's slice of a [`ShardBreakdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaBreakdown {
    /// Replica index within the shard.
    pub replica: usize,
    /// Whether the device was still up at the end of the run.
    pub alive: bool,
    /// When the device was killed (`None` if it survived).
    pub killed_ns: Option<Nanos>,
    /// The replica engine's full device report (the hops it executed are
    /// its outcomes' `hops`).
    pub report: ServeReport,
}

/// Per-shard slice of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBreakdown {
    /// Shard index in the plan.
    pub shard: usize,
    /// Vectors the shard currently owns.
    pub vertices: usize,
    /// Beam-search hops the shard executed, summed over replicas.
    pub hops: usize,
    /// Sessions re-seeded on a survivor after a replica was killed.
    pub failovers: usize,
    /// Hedge (backup) sessions fired on this shard.
    pub hedges: usize,
    /// Hedges that beat their primary to completion.
    pub hedge_wins: usize,
    /// Fraction of the run's span (first arrival → last completion) the
    /// shard's replicas were up, averaged over replicas: 1.0 with no
    /// kills, in `[0, 1]` otherwise (a replica killed at time `t`
    /// contributes `(clamp(t, first, last) − first) / span`, so a kill
    /// before the first arrival counts the replica as never up).
    pub availability: f64,
    /// Per-replica device reports.
    pub replicas: Vec<ReplicaBreakdown>,
}

/// Result of serving a stream of sessions on the cluster: simulated
/// quantities only, so two runs compare equal exactly when their merged
/// outcomes, update outcomes and every per-shard and per-replica
/// breakdown match bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// One gathered record per submitted cluster query, in submission
    /// order (results in global ids).
    pub outcomes: Vec<QueryOutcome>,
    /// One record per submitted cluster update, in submission order
    /// (`assigned` ids are global).
    pub update_outcomes: Vec<UpdateOutcome>,
    /// Per-shard breakdowns, one per staged shard.
    pub shards: Vec<ShardBreakdown>,
    /// Earliest arrival → latest completion across the whole cluster.
    pub makespan_ns: Nanos,
}

impl ClusterReport {
    crate::report::rollups!();

    /// Sessions re-seeded on a survivor after a kill, cluster-wide.
    pub fn failovers(&self) -> usize {
        self.shards.iter().map(|s| s.failovers).sum()
    }

    /// Hedge (backup) sessions fired, cluster-wide.
    pub fn hedges(&self) -> usize {
        self.shards.iter().map(|s| s.hedges).sum()
    }

    /// Hedges that beat their primary to completion, cluster-wide.
    pub fn hedge_wins(&self) -> usize {
        self.shards.iter().map(|s| s.hedge_wins).sum()
    }

    /// Fraction of fired hedges that won their race (0 if none fired).
    pub fn hedge_win_rate(&self) -> f64 {
        let fired = self.hedges();
        if fired == 0 {
            0.0
        } else {
            self.hedge_wins() as f64 / fired as f64
        }
    }

    /// Mean shard availability (1.0 with no kills; see
    /// [`ShardBreakdown::availability`]).
    pub fn availability(&self) -> f64 {
        if self.shards.is_empty() {
            return 1.0;
        }
        self.shards.iter().map(|s| s.availability).sum::<f64>() / self.shards.len() as f64
    }

    /// Write-path totals summed across **every replica device** of every
    /// shard — fleet-level flash wear, not logical update volume:
    /// updates fan out to all replicas, so R replicas program ~R× the
    /// pages of the unreplicated cluster for the same update stream.
    pub fn update_totals(&self) -> UpdateTotals {
        let mut total = UpdateTotals::default();
        for s in &self.shards {
            for r in &s.replicas {
                total.merge(&r.report.updates);
            }
        }
        total
    }

    /// Load-imbalance factor: the busiest shard's beam-search hop count
    /// over the mean (1.0 = perfectly balanced). Falls back to vertex
    /// counts when no search work ran; 0 without shards.
    pub fn load_imbalance(&self) -> f64 {
        let over = |f: fn(&ShardBreakdown) -> usize| -> f64 {
            let max = self.shards.iter().map(f).max().unwrap_or(0) as f64;
            let sum: usize = self.shards.iter().map(f).sum();
            let mean = sum as f64 / self.shards.len().max(1) as f64;
            if mean > 0.0 {
                max / mean
            } else {
                0.0
            }
        };
        if self.shards.is_empty() {
            return 0.0;
        }
        let by_hops = over(|s| s.hops);
        if by_hops > 0.0 {
            by_hops
        } else {
            over(|s| s.vertices)
        }
    }
}

/// One replica device of a shard: a full single-device serving stack
/// plus its local entry vertex and liveness. The engine is boxed so the
/// per-round hand-off to the [`crate::exec`] pool moves a pointer.
struct Replica<'a> {
    engine: Box<ServeEngine<'a>>,
    entry: VectorId,
    alive: bool,
    killed_ns: Option<Nanos>,
    /// [`ReplicaPolicy::Hedged`] only: `(fire time, scatter)` of every
    /// session whose primary copy runs here and whose hedge decision is
    /// pending, soonest first.
    hedges_due: BinaryHeap<Reverse<(Nanos, ClusterQueryId)>>,
}

impl Replica<'_> {
    /// Submits a copy of `req` arriving at `arrival_ns`, seeded at this
    /// replica's entry vertex — a scatter, a failover re-seed and a hedge
    /// all reach a device this way.
    fn submit(&mut self, req: &QueryRequest, arrival_ns: Nanos) -> QueryId {
        self.engine.submit(QueryRequest {
            entries: vec![self.entry],
            arrival_ns,
            ..req.clone()
        })
    }
}

/// One staged shard: its replica set plus routing state.
struct Shard<'a> {
    replicas: Vec<Replica<'a>>,
    /// Round-robin position (advances per routed primary).
    cursor: usize,
    failovers: usize,
    hedges: usize,
}

impl Shard<'_> {
    fn has_alive(&self) -> bool {
        self.replicas.iter().any(|r| r.alive)
    }

    /// The next alive replica cyclically after `r` (excluding `r`).
    fn next_alive_after(&self, r: usize) -> Option<usize> {
        let n = self.replicas.len();
        (1..n)
            .map(|i| (r + i) % n)
            .find(|&i| self.replicas[i].alive)
    }

    /// Picks the replica a new primary session routes to — the next alive
    /// one in round-robin order, under either policy — or `None` when
    /// every replica is dead.
    fn route_query(&mut self) -> Option<usize> {
        let replicas = &self.replicas;
        let mut alive = (0..replicas.len()).filter(|&r| replicas[r].alive);
        let turn = self.cursor.checked_rem(alive.clone().count())?;
        self.cursor += 1;
        alive.nth(turn)
    }
}

/// Where a cluster update went.
enum Route {
    /// Forwarded to `shard`, fanned out to every replica alive at
    /// submission (`locals` pairs replica index with that replica's
    /// update session id; `delete` carries the global id for translation
    /// back).
    Shard {
        shard: usize,
        locals: Vec<(usize, UpdateId)>,
        delete: Option<VectorId>,
    },
    /// Rejected at the cluster router (unroutable id or shard).
    Cluster { arrival_ns: Nanos },
}

/// One copy of a scattered session on one replica.
#[derive(Debug, Clone, Copy)]
struct ShardSession {
    replica: usize,
    query: QueryId,
}

/// A scattered query's state on one shard: the primary copy, an
/// optional hedge, and any copies abandoned by failovers.
struct ScatterShard {
    primary: ShardSession,
    hedge: Option<ShardSession>,
    /// The hedge decision was made: a hedge fired (or was deliberately
    /// skipped); never fire another — unless the hedge itself died, which
    /// clears this and re-arms the decision on the primary's replica.
    hedge_spent: bool,
    /// Copies left frozen on killed replicas (their partial hop work
    /// still counts toward the outcome).
    abandoned: Vec<ShardSession>,
}

/// One scattered query: the request (kept for re-seeding and hedging)
/// plus the per-shard session state.
struct Scatter {
    req: QueryRequest,
    sessions: Vec<Option<ScatterShard>>,
}

/// The scatter–gather cluster engine (see the [module docs](self)).
pub struct ClusterEngine<'a> {
    config: &'a NdsConfig,
    serve: ServeConfig,
    plan: ShardPlan,
    replication: ReplicationConfig,
    /// `None` for shards the plan left empty (possible under the hash
    /// policy on tiny datasets); they serve no traffic.
    shards: Vec<Option<Shard<'a>>>,
    queries: Vec<Scatter>,
    routes: Vec<Route>,
    /// Inserts routed to each shard but not yet resolved into the plan.
    inflight_inserts: Vec<usize>,
    /// Cluster update outcomes resolved so far (prefix of `routes`).
    resolved: Vec<UpdateOutcome>,
    /// Which failure-schedule events already fired.
    fired: Vec<bool>,
    /// Every hedge decision pending, made and visited.
    #[cfg(test)]
    hedge_log: HedgeLog,
}

/// What the hedged routing did, for the tests to hold against the
/// replica clocks. A round is the index of a hedge pass; an event logged
/// with round `k` happened before pass `k`.
#[cfg(test)]
#[derive(Debug, Default)]
struct HedgeLog {
    /// `(round, scatter, shard, replica)` per primary assignment: at
    /// submission and at every failover.
    primaries: Vec<(usize, ClusterQueryId, usize, usize)>,
    /// `(round, scatter, shard)` per hedge that died with its replica.
    dead_hedges: Vec<(usize, ClusterQueryId, usize)>,
    /// One record per hedge pass.
    rounds: Vec<HedgeRound>,
}

#[cfg(test)]
#[derive(Debug, Default)]
struct HedgeRound {
    /// `(shard, replica, clock)` of every alive replica.
    clocks: Vec<(usize, usize, Nanos)>,
    /// `(scatter, shard, replica)` of every heap entry looked at.
    visited: Vec<(ClusterQueryId, usize, usize)>,
    /// `(scatter, shard, primary replica, fired)` per decision, in
    /// decision order.
    decided: Vec<(ClusterQueryId, usize, usize, bool)>,
}

impl<'a> ClusterEngine<'a> {
    /// Stages a cluster: splits `dataset` per the plan and, for every
    /// non-empty shard, builds the shard's index once via `build` — which
    /// returns it and its entry vertex in shard-local ids (e.g. the
    /// Vamana medoid or HNSW entry point) — and stages
    /// `replication.replicas` replica devices from it, each its own
    /// [`Deployment`] (own flash stack) over a clone of the index
    /// ([`MutableIndex::boxed_clone`]). Replicas of a shard thus start as
    /// bit-identical copies, and share one copy of the shard's rows until
    /// an insert writes to them. [`ReplicationConfig::default`] stages one
    /// replica per shard and no failures.
    ///
    /// Every replica serves with the same `config` (homogeneous devices)
    /// and the same `serve` admission/search knobs.
    ///
    /// # Panics
    /// Panics if the plan's base length differs from the dataset length,
    /// the dataset is empty, `replication.replicas` is 0, or the failure
    /// schedule references a shard/replica outside the staged ranges (or
    /// an [`FailureKind::EccStorm`] probability outside `[0, 1]`).
    pub fn stage_replicated(
        config: &'a NdsConfig,
        serve: ServeConfig,
        plan: ShardPlan,
        replication: ReplicationConfig,
        dataset: &Dataset,
        build: impl Fn(&Dataset) -> (Box<dyn MutableIndex>, VectorId),
    ) -> Self {
        assert!(!dataset.is_empty(), "cluster needs at least one vector");
        assert!(
            replication.replicas >= 1,
            "every shard needs at least one replica"
        );
        let num_shards = plan.num_shards();
        for ev in replication.failures.events() {
            assert!(
                ev.shard < num_shards,
                "failure event targets shard {} of {num_shards}",
                ev.shard
            );
            assert!(
                ev.replica < replication.replicas,
                "failure event targets replica {} of {}",
                ev.replica,
                replication.replicas
            );
            if let FailureKind::EccStorm { failure_prob } = ev.kind {
                assert!(
                    (0.0..=1.0).contains(&failure_prob),
                    "ECC storm probability {failure_prob} outside [0, 1]"
                );
            }
        }
        let shards = plan
            .extract(dataset)
            .into_iter()
            .map(|shard_ds| {
                if shard_ds.is_empty() {
                    return None;
                }
                let (index, entry) = build(&shard_ds);
                let shard_ds = Arc::new(shard_ds);
                let mut indexes: Vec<Box<dyn MutableIndex>> = (1..replication.replicas)
                    .map(|_| index.boxed_clone())
                    .collect();
                indexes.insert(0, index);
                let replicas = indexes
                    .into_iter()
                    .map(|index| {
                        let deploy = Deployment::stage(config, index, Arc::clone(&shard_ds));
                        Replica {
                            engine: Box::new(ServeEngine::with_deployment(
                                config,
                                serve.clone(),
                                deploy,
                            )),
                            entry,
                            alive: true,
                            killed_ns: None,
                            hedges_due: BinaryHeap::new(),
                        }
                    })
                    .collect();
                Some(Shard {
                    replicas,
                    cursor: 0,
                    failovers: 0,
                    hedges: 0,
                })
            })
            .collect();
        let fired = vec![false; replication.failures.events().len()];
        Self {
            config,
            serve,
            plan,
            replication,
            shards,
            queries: Vec::new(),
            routes: Vec::new(),
            inflight_inserts: vec![0; num_shards],
            resolved: Vec::new(),
            fired,
            #[cfg(test)]
            hedge_log: HedgeLog::default(),
        }
    }

    /// The id plan (ground truth of global ↔ shard-local mapping,
    /// including resolved online inserts).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards in the plan (staged or empty).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// A replica's serving engine; `None` for empty shards or
    /// out-of-range replica indices.
    #[cfg(test)]
    pub(crate) fn replica_engine(&self, shard: usize, replica: usize) -> Option<&ServeEngine<'a>> {
        self.shards[shard]
            .as_ref()
            .and_then(|s| s.replicas.get(replica))
            .map(|r| &*r.engine)
    }

    /// Scatters one query session to every staged shard — on the next
    /// alive replica in round-robin order — and returns the cluster id.
    /// Each shard's copy (and every hedge or failover copy) is seeded at
    /// that shard's own entry vertex, overwriting `req.entries`, and
    /// keeps the request's deadline and tenant; `req.k` bounds the merged list. Shards whose
    /// replicas are all dead are skipped (the cluster outcome then never
    /// completes, mirroring a real partial outage).
    pub fn submit(&mut self, req: QueryRequest) -> ClusterQueryId {
        let id = self.queries.len();
        let policy = self.replication.policy;
        let sessions: Vec<Option<ScatterShard>> = self
            .shards
            .iter_mut()
            .map(|slot| {
                let shard = slot.as_mut()?;
                let replica = shard.route_query()?;
                let query = shard.replicas[replica].submit(&req, req.arrival_ns);
                Some(ScatterShard {
                    primary: ShardSession { replica, query },
                    hedge: None,
                    hedge_spent: false,
                    abandoned: Vec::new(),
                })
            })
            .collect();
        if let ReplicaPolicy::Hedged { delay_ns } = policy {
            let fire_at = req.arrival_ns.saturating_add(delay_ns);
            for (s, session) in sessions.iter().enumerate() {
                let Some(sc) = session else { continue };
                let shard = self.shards[s].as_mut().expect("session on staged shard");
                let r = sc.primary.replica;
                shard.replicas[r].hedges_due.push(Reverse((fire_at, id)));
                #[cfg(test)]
                self.hedge_log
                    .primaries
                    .push((self.hedge_log.rounds.len(), id, s, r));
            }
        }
        self.queries.push(Scatter { req, sessions });
        id
    }

    /// Routes one update to its owning shard — fanned out to every alive
    /// replica so copies stay identical — and returns the cluster id.
    /// Deletes carry **global** ids and must reference a vector the plan
    /// already maps (run the cluster to completion to resolve pending
    /// inserts first); inserts are placed by the plan's policy. Updates
    /// that cannot be routed — an out-of-range delete, or a route to an
    /// empty or fully-dead shard — are rejected at the cluster router.
    pub fn submit_update(&mut self, req: UpdateRequest) -> ClusterUpdateId {
        let id = self.routes.len();
        let route = match &req.op {
            UpdateOp::Delete(g) => {
                if (*g as usize) < self.plan.len() {
                    let shard = self.plan.shard_of(*g);
                    let local = self.plan.local_of(*g);
                    Some((shard, UpdateOp::Delete(local), Some(*g)))
                } else {
                    None
                }
            }
            UpdateOp::Insert(v) => {
                // Route only among shards that can still accept writes: a
                // plan can leave a shard empty (no engine) and a failure
                // schedule can kill a whole replica set; the policy must
                // skip both rather than reject inserts forever.
                let live: Vec<bool> = self
                    .shards
                    .iter()
                    .map(|s| s.as_ref().is_some_and(Shard::has_alive))
                    .collect();
                self.plan
                    .route_insert(&self.inflight_inserts, &live)
                    .map(|shard| (shard, UpdateOp::Insert(v.clone()), None))
            }
        };
        let route = match route {
            Some((shard, op, delete))
                if self.shards[shard].as_ref().is_some_and(Shard::has_alive) =>
            {
                if delete.is_none() {
                    self.inflight_inserts[shard] += 1;
                }
                let replicas = &mut self.shards[shard].as_mut().expect("checked").replicas;
                let locals = replicas
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, r)| r.alive)
                    .map(|(ri, r)| {
                        let local = r.engine.submit_update(UpdateRequest {
                            op: op.clone(),
                            arrival_ns: req.arrival_ns,
                        });
                        (ri, local)
                    })
                    .collect();
                Route::Shard {
                    shard,
                    locals,
                    delete,
                }
            }
            _ => Route::Cluster {
                arrival_ns: req.arrival_ns,
            },
        };
        self.routes.push(route);
        id
    }

    /// Drives every shard to completion, stepping shards in index order
    /// each round, and returns the gathered report.
    pub fn run_to_completion(&mut self) -> ClusterReport {
        let order: Vec<usize> = (0..self.shards.len()).collect();
        self.run_to_completion_ordered(&order)
    }

    /// [`run_to_completion`](Self::run_to_completion) stepping shards in
    /// the given order each round. Shards share no state, and failure
    /// events and hedges fire at round boundaries in fixed
    /// schedule/submission order, so the report is **invariant** under
    /// the order (pinned by `tests/exec_determinism.rs`); the knob
    /// exists to prove exactly that.
    ///
    /// Each round, every alive replica engine takes one
    /// [`step_round`](ServeEngine::step_round). This is the repo's one
    /// host-side fan-out: the replica devices travel by value through a
    /// [`crate::exec::Pool`] of
    /// [`exec_threads`](NdsConfig::exec_threads) threads (the calling
    /// thread included) and come back in step order.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..num_shards()`.
    pub fn run_to_completion_ordered(&mut self, order: &[usize]) -> ClusterReport {
        let mut seen = vec![false; self.shards.len()];
        for &s in order {
            assert!(s < seen.len() && !seen[s], "order must be a permutation");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "order must cover every shard");

        crate::exec::with_pool(
            self.config.exec_threads,
            |mut rep: Replica<'a>| {
                let more = rep.alive && rep.engine.step_round();
                (rep, more)
            },
            |pool| loop {
                // Failure events fire at the round boundary, before the
                // round they degrade (an event at t=0 hits a device that
                // has served nothing).
                let mut more = self.fire_due_failures();

                // Every shard lends the pool its replica devices, in step
                // order, and takes them back in the same order.
                let mut devices = Vec::new();
                for &s in order {
                    if let Some(shard) = self.shards[s].as_mut() {
                        devices.append(&mut shard.replicas);
                    }
                }
                let mut stepped = pool.run(devices).into_iter();
                for &s in order {
                    if let Some(shard) = self.shards[s].as_mut() {
                        for (rep, rep_more) in stepped.by_ref().take(self.replication.replicas) {
                            shard.replicas.push(rep);
                            more |= rep_more;
                        }
                    }
                }

                more |= self.fire_hedges();
                if !more {
                    break;
                }
            },
        );
        self.report()
    }

    /// Compacts every **alive** replica of every staged shard in place
    /// (dead devices are skipped; surviving twins stay identical because
    /// compaction is deterministic), charging each device's rewrite to
    /// its simulated clock. Returns the per-device reports in
    /// `(shard, replica)` order; empty for query-only deployments.
    ///
    /// Call between traffic phases (after a
    /// [`run_to_completion`](Self::run_to_completion) drain) — the
    /// production-day maintenance window.
    pub fn compact_all(&mut self) -> Vec<crate::deploy::CompactionReport> {
        let mut reports = Vec::new();
        for shard in self.shards.iter_mut().flatten() {
            for rep in shard.replicas.iter_mut().filter(|r| r.alive) {
                if let Some(report) = rep.engine.compact() {
                    reports.push(report);
                }
            }
        }
        reports
    }

    /// Fires every not-yet-fired failure event whose target replica's
    /// simulated clock has reached the event time. Returns whether new
    /// work was created (failover re-seeds).
    fn fire_due_failures(&mut self) -> bool {
        let mut new_work = false;
        for ei in 0..self.fired.len() {
            if self.fired[ei] {
                continue;
            }
            let ev = self.replication.failures.events()[ei];
            let due = match self.shards[ev.shard].as_ref() {
                // Empty shard: nothing to degrade, retire the event.
                None => {
                    self.fired[ei] = true;
                    continue;
                }
                Some(shard) => {
                    let rep = &shard.replicas[ev.replica];
                    if !rep.alive {
                        // Already dead: the event can never bite.
                        self.fired[ei] = true;
                        continue;
                    }
                    rep.engine.now_ns() >= ev.at_ns
                }
            };
            if !due {
                continue;
            }
            self.fired[ei] = true;
            new_work |= self.apply_failure(ev);
        }
        new_work
    }

    fn apply_failure(&mut self, ev: FailureEvent) -> bool {
        match ev.kind {
            FailureKind::Kill => self.kill_replica(ev.shard, ev.replica, ev.at_ns),
            FailureKind::EccStorm { failure_prob } => {
                let rep = self.replica_mut(ev.shard, ev.replica);
                rep.engine.inject_ecc_failure_prob(failure_prob);
                false
            }
        }
    }

    fn replica_mut(&mut self, shard: usize, replica: usize) -> &mut Replica<'a> {
        &mut self.shards[shard]
            .as_mut()
            .expect("failure event on staged shard")
            .replicas[replica]
    }

    /// Kills `replica` of `shard` at `at_ns`: the device stops stepping,
    /// and every unfinished session routed to it is re-seeded on the
    /// next alive replica (arriving at the kill time — the failover
    /// detection latency is the round granularity). With no survivor the
    /// sessions stay frozen on the dead device. A session whose hedge
    /// decision is pending after this — its primary moved, or its hedge
    /// died with the device — is re-armed on its primary's replica.
    fn kill_replica(&mut self, s: usize, r: usize, at_ns: Nanos) -> bool {
        let shard = self.shards[s].as_mut().expect("kill on staged shard");
        shard.replicas[r].alive = false;
        shard.replicas[r].killed_ns = Some(at_ns);
        let survivor = shard.next_alive_after(r);
        let hedge_delay = match self.replication.policy {
            ReplicaPolicy::Hedged { delay_ns } => Some(delay_ns),
            _ => None,
        };
        let mut new_work = false;
        for (id, scatter) in self.queries.iter_mut().enumerate() {
            let Some(sc) = scatter.sessions[s].as_mut() else {
                continue;
            };
            let mut rearm = false;
            if let Some(h) = sc.hedge {
                if h.replica == r && !shard.replicas[r].engine.poll(h.query).is_terminal() {
                    // The backup died mid-race: drop it, so a fresh hedge
                    // may fire on a survivor later.
                    sc.abandoned.push(h);
                    sc.hedge = None;
                    sc.hedge_spent = false;
                    rearm = true;
                    #[cfg(test)]
                    self.hedge_log
                        .dead_hedges
                        .push((self.hedge_log.rounds.len(), id, s));
                }
            }
            if sc.primary.replica == r
                && !shard.replicas[r]
                    .engine
                    .poll(sc.primary.query)
                    .is_terminal()
            {
                let Some(surv) = survivor else { continue };
                // A session that had not even arrived yet keeps its
                // original arrival time on the survivor.
                let arrival_ns = at_ns.max(scatter.req.arrival_ns);
                let query = shard.replicas[surv].submit(&scatter.req, arrival_ns);
                let old = std::mem::replace(
                    &mut sc.primary,
                    ShardSession {
                        replica: surv,
                        query,
                    },
                );
                sc.abandoned.push(old);
                shard.failovers += 1;
                new_work = true;
                rearm = true;
                #[cfg(test)]
                self.hedge_log
                    .primaries
                    .push((self.hedge_log.rounds.len(), id, s, surv));
            }
            if let Some(delay_ns) = hedge_delay.filter(|_| rearm && !sc.hedge_spent) {
                let fire_at = scatter.req.arrival_ns.saturating_add(delay_ns);
                let p = sc.primary.replica;
                shard.replicas[p].hedges_due.push(Reverse((fire_at, id)));
            }
        }
        new_work
    }

    /// Fires due hedges (policy [`ReplicaPolicy::Hedged`]): every
    /// scattered session whose primary has been outstanding for the
    /// hedge delay gets its one hedge decision — an identical backup on
    /// the next alive replica, unless the primary already finished or
    /// has no alive twin. Runs after the round's stepping, so a decision
    /// depends only on simulated clocks.
    ///
    /// Each alive replica pops the entries of its heap whose fire time
    /// its own clock has reached. The due `(scatter, shard)` pairs are
    /// decided in ascending order — submission order, shards in index
    /// order — so a backup engine sees its hedges in the same order
    /// whichever heap they came from. A dead replica's heap is never
    /// visited: its sessions either failed over (and were re-armed on the
    /// survivor) or are frozen with the whole shard. So an alive heap
    /// holds exactly the pending decisions of the primaries on its
    /// replica: an entry is pushed when a decision becomes pending and
    /// popped when it is made, and a primary leaves a replica only when
    /// the replica dies.
    fn fire_hedges(&mut self) -> bool {
        let ReplicaPolicy::Hedged { delay_ns } = self.replication.policy else {
            return false;
        };
        #[cfg(test)]
        {
            let mut round = HedgeRound::default();
            for (s, slot) in self.shards.iter().enumerate() {
                let replicas = slot.iter().flat_map(|shard| &shard.replicas);
                for (r, rep) in replicas.enumerate().filter(|(_, rep)| rep.alive) {
                    round.clocks.push((s, r, rep.engine.now_ns()));
                }
            }
            self.hedge_log.rounds.push(round);
        }
        let mut due = Vec::new();
        for (s, slot) in self.shards.iter_mut().enumerate() {
            let Some(shard) = slot else { continue };
            for (r, rep) in shard.replicas.iter_mut().enumerate() {
                if !rep.alive {
                    continue;
                }
                let now = rep.engine.now_ns();
                while let Some(&Reverse((fire_at, id))) = rep.hedges_due.peek() {
                    #[cfg(test)]
                    self.hedge_log
                        .rounds
                        .last_mut()
                        .expect("pushed above")
                        .visited
                        .push((id, s, r));
                    if fire_at > now {
                        break;
                    }
                    rep.hedges_due.pop();
                    debug_assert!(
                        self.queries[id].sessions[s]
                            .as_ref()
                            .is_some_and(|sc| sc.primary.replica == r && !sc.hedge_spent),
                        "scatter {id}'s entry on replica {r} of shard {s} is no pending decision"
                    );
                    due.push((id, s));
                }
            }
        }
        due.sort_unstable();

        let mut new_work = false;
        for (id, s) in due {
            let scatter = &mut self.queries[id];
            let sc = scatter.sessions[s].as_mut().expect("due session exists");
            let shard = self.shards[s].as_mut().expect("session on staged shard");
            // Whatever happens below, this session's one hedge decision
            // is made.
            sc.hedge_spent = true;
            let backup = if shard.replicas[sc.primary.replica]
                .engine
                .poll(sc.primary.query)
                .is_terminal()
            {
                // Finished inside the delay: no hedge ever needed.
                None
            } else {
                shard.next_alive_after(sc.primary.replica)
            };
            #[cfg(test)]
            self.hedge_log
                .rounds
                .last_mut()
                .expect("pushed above")
                .decided
                .push((id, s, sc.primary.replica, backup.is_some()));
            let Some(backup) = backup else { continue };
            let arrival_ns = scatter.req.arrival_ns.saturating_add(delay_ns);
            let query = shard.replicas[backup].submit(&scatter.req, arrival_ns);
            sc.hedge = Some(ShardSession {
                replica: backup,
                query,
            });
            shard.hedges += 1;
            new_work = true;
        }
        new_work
    }

    /// Resolves terminal update sessions (in cluster submission order)
    /// into cluster outcomes, extending the plan with the global id of
    /// every completed insert. Stops at the first still-running update
    /// so global ids are always assigned in submission order.
    ///
    /// The *reference replica* — the lowest-index replica still alive
    /// among those the update fanned out to — supplies the outcome; an
    /// update resolves once every alive copy is terminal (replicas are
    /// deterministic twins, so copies agree on state and assigned slot).
    /// If every copy's replica died, the first terminal copy resolves
    /// it, and with none the update is reported rejected (lost with the
    /// devices).
    fn resolve_updates(&mut self, reports: &[Option<Vec<ServeReport>>]) {
        while self.resolved.len() < self.routes.len() {
            let id = self.resolved.len();
            let outcome = match &self.routes[id] {
                Route::Cluster { arrival_ns } => UpdateOutcome::rejected(id, *arrival_ns),
                Route::Shard {
                    shard,
                    locals,
                    delete,
                } => {
                    let shard_state = self.shards[*shard]
                        .as_ref()
                        .expect("routed to staged shard");
                    let reps = reports[*shard].as_ref().expect("routed to staged shard");
                    let outcome_of = |ri: usize, l: UpdateId| &reps[ri].update_outcomes[l];
                    let alive: Vec<(usize, UpdateId)> = locals
                        .iter()
                        .copied()
                        .filter(|&(ri, _)| shard_state.replicas[ri].alive)
                        .collect();
                    let picked = if alive.is_empty() {
                        // Lost with its devices: any copy that reached a
                        // terminal state before the kill still counts.
                        locals
                            .iter()
                            .copied()
                            .find(|&(ri, l)| outcome_of(ri, l).state.is_terminal())
                    } else {
                        if !alive
                            .iter()
                            .all(|&(ri, l)| outcome_of(ri, l).state.is_terminal())
                        {
                            break; // still pending on an alive replica
                        }
                        debug_assert!(
                            alive.iter().all(|&(ri, l)| {
                                let o = outcome_of(ri, l);
                                let first = outcome_of(alive[0].0, alive[0].1);
                                o.state == first.state && o.assigned == first.assigned
                            }),
                            "replica copies of update {id} diverged"
                        );
                        Some(alive[0])
                    };
                    let Some((ri, l)) = picked else {
                        // Every copy died non-terminal.
                        let o = outcome_of(locals[0].0, locals[0].1);
                        if delete.is_none() {
                            self.inflight_inserts[*shard] -= 1;
                        }
                        self.resolved
                            .push(UpdateOutcome::rejected(id, o.arrival_ns));
                        continue;
                    };
                    let o = outcome_of(ri, l);
                    let assigned = match (o.state, delete) {
                        (SessionState::Completed, Some(g)) => Some(*g),
                        (SessionState::Completed, None) => {
                            self.inflight_inserts[*shard] -= 1;
                            // Bind the *shard-reported* local slot: the
                            // shard applies updates in arrival order,
                            // which need not match cluster submission
                            // order, so the slot cannot be inferred.
                            let local = o.assigned.expect("completed insert reports its local id");
                            Some(self.plan.push_at(*shard, local))
                        }
                        (_, None) => {
                            self.inflight_inserts[*shard] -= 1;
                            None
                        }
                        _ => None,
                    };
                    UpdateOutcome {
                        id,
                        assigned,
                        ..o.clone()
                    }
                }
            };
            self.resolved.push(outcome);
        }
    }

    /// Gathers the cluster report: resolves updates, picks each shard's
    /// winning session copy (primary vs hedge — earliest completion),
    /// translates every result list into global ids, and stable-merges
    /// each query's lists by `(distance, global id)`.
    ///
    /// Meaningful once [`run_to_completion`](Self::run_to_completion)
    /// has drained every session (a mid-stream snapshot only covers the
    /// resolved prefix of updates).
    ///
    /// # Panics
    /// Panics if a result references an insert that is not yet resolved
    /// (only possible mid-stream).
    pub fn report(&mut self) -> ClusterReport {
        let reports: Vec<Option<Vec<ServeReport>>> = self
            .shards
            .iter()
            .map(|slot| {
                slot.as_ref()
                    .map(|shard| shard.replicas.iter().map(|r| r.engine.report()).collect())
            })
            .collect();
        self.resolve_updates(&reports);

        let default_k = self.serve.k;
        let mut hedge_wins = vec![0usize; self.shards.len()];
        let outcomes: Vec<QueryOutcome> = self
            .queries
            .iter()
            .enumerate()
            .map(|(id, scatter)| {
                let req = &scatter.req;
                let mut gathered = QueryOutcome {
                    id,
                    state: SessionState::Pending,
                    arrival_ns: req.arrival_ns,
                    admitted_ns: 0,
                    completed_ns: 0,
                    hops: 0,
                    rounds_inflight: 0,
                    results: Vec::new(),
                    tenant: req.tenant,
                    deadline_ns: req.deadline_ns,
                    shed: false,
                };
                let mut states = Vec::new();
                for (s, session) in scatter.sessions.iter().enumerate() {
                    let Some(sc) = session else { continue };
                    let reps = reports[s].as_ref().expect("session on staged shard");
                    let outcome_of = |ss: &ShardSession| &reps[ss.replica].outcomes[ss.query];
                    let primary = outcome_of(&sc.primary);
                    let hedge = sc.hedge.as_ref().map(&outcome_of);
                    let (winner, hedge_won) = pick_winner(primary, hedge);
                    if hedge_won {
                        hedge_wins[s] += 1;
                    }
                    states.push(winner.state);
                    gathered.admitted_ns = gathered.admitted_ns.max(winner.admitted_ns);
                    gathered.completed_ns = gathered.completed_ns.max(winner.completed_ns);
                    gathered.rounds_inflight = gathered.rounds_inflight.max(winner.rounds_inflight);
                    gathered.shed |= winner.shed;
                    gathered.hops += primary.hops
                        + hedge.map_or(0, |o| o.hops)
                        + sc.abandoned
                            .iter()
                            .map(|a| outcome_of(a).hops)
                            .sum::<usize>();
                    gathered.results.extend(
                        winner
                            .results
                            .iter()
                            .map(|n| Neighbor::new(n.distance, self.plan.global_of(s, n.id))),
                    );
                }
                gathered.state = merge_states(&states);
                // The gather: a deterministic stable merge — Neighbor's
                // total order is (distance, id), ties broken by global id.
                gathered.results.sort_unstable();
                gathered.results.truncate(req.k.unwrap_or(default_k));
                gathered
            })
            .collect();

        let first_arrival = outcomes
            .iter()
            .map(|o| o.arrival_ns)
            .chain(self.resolved.iter().map(|o| o.arrival_ns))
            .min();
        let last_completion = outcomes
            .iter()
            .map(|o| o.completed_ns)
            .chain(self.resolved.iter().map(|o| o.completed_ns))
            .max()
            .unwrap_or(0);
        let first_arrival = first_arrival.unwrap_or(0);
        let makespan_ns = last_completion.saturating_sub(first_arrival);

        let shards: Vec<ShardBreakdown> = reports
            .into_iter()
            .enumerate()
            .filter_map(|(s, reps)| {
                let reps = reps?;
                let shard = self.shards[s].as_ref().expect("breakdown of staged shard");
                let replicas: Vec<ReplicaBreakdown> = reps
                    .into_iter()
                    .enumerate()
                    .map(|(ri, report)| ReplicaBreakdown {
                        replica: ri,
                        alive: shard.replicas[ri].alive,
                        killed_ns: shard.replicas[ri].killed_ns,
                        report,
                    })
                    .collect();
                let availability = if makespan_ns == 0 {
                    1.0
                } else {
                    replicas
                        .iter()
                        .map(|r| match r.killed_ns {
                            None => 1.0,
                            Some(t) => {
                                let up = t.clamp(first_arrival, last_completion) - first_arrival;
                                up as f64 / makespan_ns as f64
                            }
                        })
                        .sum::<f64>()
                        / replicas.len() as f64
                };
                Some(ShardBreakdown {
                    shard: s,
                    vertices: self.plan.shard_len(s),
                    hops: replicas
                        .iter()
                        .flat_map(|r| &r.report.outcomes)
                        .map(|o| o.hops)
                        .sum(),
                    failovers: shard.failovers,
                    hedges: shard.hedges,
                    hedge_wins: hedge_wins[s],
                    availability,
                    replicas,
                })
            })
            .collect();

        ClusterReport {
            outcomes,
            update_outcomes: self.resolved.clone(),
            shards,
            makespan_ns,
        }
    }
}

/// Picks the copy of a shard session that answers for its shard: a
/// completed hedge wins iff the primary did not complete or completed
/// later (ties go to the primary). Returns the winner and whether the
/// hedge won.
fn pick_winner<'o>(
    primary: &'o QueryOutcome,
    hedge: Option<&'o QueryOutcome>,
) -> (&'o QueryOutcome, bool) {
    let Some(hedge) = hedge else {
        return (primary, false);
    };
    match (
        primary.state == SessionState::Completed,
        hedge.state == SessionState::Completed,
    ) {
        (true, true) if hedge.completed_ns < primary.completed_ns => (hedge, true),
        (false, true) => (hedge, true),
        _ => (primary, false),
    }
}

/// Merges per-shard session states into the cluster-level state.
fn merge_states(states: &[SessionState]) -> SessionState {
    if states.is_empty() {
        return SessionState::Rejected;
    }
    if states.contains(&SessionState::Rejected) {
        return SessionState::Rejected;
    }
    if states.contains(&SessionState::Expired) {
        return SessionState::Expired;
    }
    if states.iter().all(|&s| s == SessionState::Completed) {
        return SessionState::Completed;
    }
    // Mixed non-terminal states: report the least-advanced stage.
    for s in [
        SessionState::Pending,
        SessionState::Queued,
        SessionState::Running,
    ] {
        if states.contains(&s) {
            return s;
        }
    }
    unreachable!("the probes above cover every SessionState variant")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_anns::vamana::{Vamana, VamanaParams};
    use ndsearch_vector::shard::ShardPolicy;
    use ndsearch_vector::synthetic::DatasetSpec;

    fn vamana_builder(ds: &Dataset) -> (Box<dyn MutableIndex>, VectorId) {
        let index = Vamana::build(ds, VamanaParams::default());
        let entry = index.medoid();
        (Box::new(index), entry)
    }

    /// A cluster of Vamana shards with the default serving knobs.
    fn stage_vamana<'a>(
        config: &'a NdsConfig,
        plan: ShardPlan,
        replication: ReplicationConfig,
        base: &Dataset,
    ) -> ClusterEngine<'a> {
        let serve = ServeConfig::default();
        ClusterEngine::stage_replicated(config, serve, plan, replication, base, vamana_builder)
    }

    fn fixture(n: usize, q: usize) -> (NdsConfig, Dataset, Dataset) {
        let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
        let mut config = NdsConfig::scaled_for(n * 2, base.stored_vector_bytes());
        config.ecc.hard_decision_failure_prob = 0.0;
        (config, base, queries)
    }

    #[test]
    fn cluster_serves_and_merges_globally() {
        let (config, base, queries) = fixture(400, 8);
        let plan = ShardPlan::partition(base.len(), 4, ShardPolicy::Hash, 11);
        let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(QueryRequest::at(i as Nanos * 500, q.to_vec(), Vec::new()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 8);
        assert_eq!(report.shards.len(), 4);
        for o in &report.outcomes {
            assert_eq!(o.results.len(), ServeConfig::default().k);
            // Global ids, sorted by (distance, id), no duplicates.
            assert!(o.results.iter().all(|n| (n.id as usize) < base.len()));
            assert!(o.results.windows(2).all(|w| w[0] < w[1]));
            assert!(o.hops > 0);
        }
        assert!(report.load_imbalance() >= 1.0);
        assert!(report.qps() > 0.0);
        assert!(report.latency().p50_ns > 0);
        // No replication: full availability, no failovers or hedges.
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.failovers(), 0);
        assert_eq!(report.hedges(), 0);
        for s in &report.shards {
            assert_eq!(s.replicas.len(), 1);
        }
    }

    #[test]
    fn non_finite_inserts_are_rejected_and_change_no_shard() {
        let (config, base, extra) = fixture(300, 3);
        let plan = ShardPlan::partition(base.len(), 3, ShardPolicy::BalancedSize, 0);
        let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
        let shards = |c: &ClusterEngine<'_>| -> Vec<_> {
            (0..3)
                .map(|s| {
                    let d = c.replica_engine(s, 0).unwrap().deployment();
                    let index = d.index().expect("a mutable deployment");
                    let rows: Vec<Vec<VectorId>> = (0..index.num_vertices() as VectorId)
                        .map(|v| index.live_neighbors(v).to_vec())
                        .collect();
                    let overlay = d.prepared().luncsr.num_vertices();
                    (d.dataset().clone(), rows, overlay, d.live_count())
                })
                .collect()
        };
        let before = shards(&cluster);
        let v = extra.vector(0);
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .map(|x| [&v[..3], &[x], &v[4..]].concat())
            .map(|row| cluster.submit_update(UpdateRequest::insert_at(0, row)));
        let report = cluster.run_to_completion();
        for u in bad {
            let o = &report.update_outcomes[u];
            assert_eq!((o.state, o.assigned), (SessionState::Rejected, None));
        }
        assert_eq!(report.updates_rejected(), 3);
        assert_eq!(cluster.plan().len(), 300);
        assert!(
            shards(&cluster) == before,
            "a rejected insert changed a shard"
        );
        // The next insert gets the next global id.
        let ok = cluster.submit_update(UpdateRequest::insert_at(10, v.to_vec()));
        let report = cluster.run_to_completion();
        assert_eq!(report.update_outcomes[ok].assigned, Some(300));
    }

    #[test]
    fn updates_route_to_owning_shards() {
        let (config, base, extra) = fixture(300, 30);
        let plan = ShardPlan::partition(base.len(), 3, ShardPolicy::BalancedSize, 0);
        let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
        // Deletes by global id; inserts routed by the balanced policy.
        let d0 = cluster.submit_update(UpdateRequest::delete_at(0, 5));
        let d1 = cluster.submit_update(UpdateRequest::delete_at(0, 250));
        let bad = cluster.submit_update(UpdateRequest::delete_at(0, 9_999));
        let mut ins = Vec::new();
        for (_, v) in extra.iter() {
            ins.push(cluster.submit_update(UpdateRequest::insert_at(10, v.to_vec())));
        }
        let report = cluster.run_to_completion();
        let state = |u: ClusterUpdateId| report.update_outcomes[u].state;
        assert_eq!(state(d0), SessionState::Completed);
        assert_eq!(state(d1), SessionState::Completed);
        assert_eq!(state(bad), SessionState::Rejected);
        assert_eq!(report.updates_completed(), 2 + extra.len());
        assert_eq!(report.updates_rejected(), 1);
        // Completed inserts got consecutive global ids in submission
        // order, and the plan now maps them.
        for (i, &u) in ins.iter().enumerate() {
            let o = &report.update_outcomes[u];
            assert_eq!(o.state, SessionState::Completed);
            assert_eq!(o.assigned, Some((300 + i) as VectorId));
            let g = o.assigned.unwrap();
            let s = cluster.plan().shard_of(g);
            assert_eq!(cluster.plan().global_of(s, cluster.plan().local_of(g)), g);
            // The owning shard's deployment actually grew.
            let deploy = cluster.replica_engine(s, 0).unwrap().deployment();
            assert!(deploy.dataset().len() > 100);
        }
        // Balanced routing kept shard sizes within one of each other.
        let sizes: Vec<usize> = (0..3).map(|s| cluster.plan().shard_len(s)).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "sizes {sizes:?}");
        // Deletes tombstoned on the owning shard.
        let s5 = cluster.plan().shard_of(5);
        assert!(cluster
            .replica_engine(s5, 0)
            .unwrap()
            .deployment()
            .is_deleted(cluster.plan().local_of(5)));
        // Flash write path charged somewhere.
        assert!(report.update_totals().pages_programmed > 0);
        assert!(report.update_totals().write_amplification() > 0.0);
    }

    #[test]
    fn single_shard_cluster_matches_unsharded_engine() {
        let (config, base, queries) = fixture(300, 6);
        let index = Vamana::build(&base, VamanaParams::default());
        let medoid = index.medoid();
        // Two tenants, and one deadline that cuts its query off after the
        // first round, so no roll-up below is 1.0 for want of data. Both
        // engines take the same requests.
        let request = |i: usize| {
            let at = i as Nanos * 1_000;
            let req = QueryRequest::at(at, queries.vector(i as VectorId).to_vec(), vec![medoid]);
            let req = req.tenant(i as u32 % 2);
            if i == 2 {
                req.deadline(at + 1)
            } else {
                req
            }
        };
        // Unsharded reference.
        let deploy = Deployment::stage(&config, Box::new(index), base.clone());
        let mut flat = ServeEngine::with_deployment(&config, ServeConfig::default(), deploy);
        for i in 0..queries.len() {
            flat.submit(request(i));
        }
        let flat_report = flat.run_to_completion();

        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
        for i in 0..queries.len() {
            cluster.submit(request(i));
        }
        let report = cluster.run_to_completion();
        // One shard holding everything is the unsharded engine, outcome
        // for outcome: same results, same admission, rounds and timing.
        assert_eq!(report.outcomes, flat_report.outcomes);
        assert_eq!(report.expired(), 1);
        assert_eq!(
            (report.completed(), report.rejected(), report.sheds()),
            (
                flat_report.completed(),
                flat_report.rejected(),
                flat_report.sheds()
            )
        );
        assert_eq!(report.expired(), flat_report.expired());
        assert_eq!(report.slo_attainment(), 0.0);
        assert_eq!(report.slo_attainment(), flat_report.slo_attainment());
        assert_eq!(report.tenant_summaries().len(), 2);
        assert_eq!(report.tenant_summaries(), flat_report.tenant_summaries());
        let (c, f) = (report.latency(), flat_report.latency());
        assert_eq!((c.p50_ns, c.p99_ns), (f.p50_ns, f.p99_ns));
    }

    #[test]
    fn malformed_queries_are_rejected_beside_valid_ones() {
        // A query one dimension short or long, with a NaN or infinite
        // component, or asking for the top 0 is rejected by every shard
        // and gathered `Rejected`; the run drains and the valid queries
        // are untouched.
        let (config, base, queries) = fixture(300, 6);
        let q = queries.vector(0);
        let request = |query: Vec<f32>| QueryRequest::at(0, query, Vec::new());
        let bad = [
            request(q[1..].to_vec()),
            request([q, &[0.5]].concat()),
            request([&q[..3], &[f32::NAN], &q[4..]].concat()),
            request([&q[1..], &[f32::NEG_INFINITY]].concat()),
            request(q.to_vec()).top_k(0),
        ];
        let run = |with_bad: bool| {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
            let (mut valid, mut rejected) = (Vec::new(), Vec::new());
            for (i, (_, v)) in queries.iter().enumerate() {
                let at = i as Nanos * 1_000;
                if let Some(req) = bad.get(i).filter(|_| with_bad) {
                    let req = QueryRequest {
                        arrival_ns: at,
                        ..req.clone()
                    };
                    rejected.push(cluster.submit(req));
                }
                valid.push(cluster.submit(QueryRequest::at(at, v.to_vec(), Vec::new())));
            }
            (cluster.run_to_completion(), valid, rejected)
        };
        let (clean, clean_ids, _) = run(false);
        let (mixed, ids, rejected) = run(true);
        assert_eq!(rejected.len(), bad.len());
        for &id in &rejected {
            let o = &mixed.outcomes[id];
            assert_eq!(o.state, SessionState::Rejected, "malformed query {id}");
            assert!(o.results.is_empty() && o.hops == 0);
            assert_eq!(
                (o.admitted_ns, o.completed_ns),
                (o.arrival_ns, o.arrival_ns)
            );
        }
        assert_eq!(mixed.completed(), queries.len());
        for (&c, &m) in clean_ids.iter().zip(&ids) {
            assert_eq!(mixed.outcomes[m].results, clean.outcomes[c].results);
            assert_eq!(
                mixed.outcomes[m].completed_ns,
                clean.outcomes[c].completed_ns
            );
        }
    }

    #[test]
    fn cluster_seeds_every_shard_at_its_own_entry() {
        // The caller's entries never reach a shard: with none, or with an
        // id past every shard's end, each shard starts at its own entry
        // vertex and the two runs are one run.
        let (config, base, queries) = fixture(300, 6);
        let run = |entries: Vec<VectorId>| {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
            for (i, (_, q)) in queries.iter().enumerate() {
                let at = i as Nanos * 1_000;
                cluster.submit(QueryRequest::at(at, q.to_vec(), entries.clone()));
            }
            cluster.run_to_completion()
        };
        let bare = run(Vec::new());
        assert_eq!(bare.completed(), queries.len());
        assert_eq!(bare, run(vec![base.len() as VectorId]));
    }

    #[test]
    fn out_of_order_arrivals_keep_global_ids_consistent() {
        // Shards apply updates in *arrival* order; the cluster assigns
        // global ids in *submission* order. A later-submitted insert
        // with an earlier arrival therefore lands in an earlier local
        // slot — the plan must bind each global id to the slot that
        // actually holds that insert's vector.
        let (config, base, extra) = fixture(200, 4);
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
        let va = extra.vector(0).to_vec();
        let vb = extra.vector(1).to_vec();
        let a = cluster.submit_update(UpdateRequest::insert_at(1_000_000, va.clone()));
        let b = cluster.submit_update(UpdateRequest::insert_at(0, vb.clone()));
        let report = cluster.run_to_completion();
        assert_eq!(report.updates_completed(), 2);
        let (ga, gb) = (
            report.update_outcomes[a].assigned.unwrap(),
            report.update_outcomes[b].assigned.unwrap(),
        );
        assert_eq!((ga, gb), (200, 201), "dense global ids, submission order");
        let dataset = cluster.replica_engine(0, 0).unwrap().deployment().dataset();
        let plan = cluster.plan();
        assert_eq!(
            dataset.vector(plan.local_of(ga)),
            &va[..],
            "global id A dereferences B's vector"
        );
        assert_eq!(dataset.vector(plan.local_of(gb)), &vb[..]);
    }

    #[test]
    fn hash_routing_survives_empty_shards() {
        // 12 vectors over 8 hash shards leaves some shards empty; insert
        // routing must probe past them instead of rejecting forever.
        let (config, _, extra) = fixture(200, 40);
        let small = {
            let mut ds = Dataset::new(extra.dim());
            ds.set_stored_vector_bytes(extra.stored_vector_bytes());
            for (_, v) in extra.iter().take(12) {
                ds.try_push(v).unwrap();
            }
            ds
        };
        let plan = ShardPlan::partition(small.len(), 8, ShardPolicy::Hash, 3);
        assert!(
            (0..8).any(|s| plan.shard_len(s) == 0),
            "fixture should leave at least one shard empty"
        );
        let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &small);
        for (_, v) in extra.iter() {
            cluster.submit_update(UpdateRequest::insert_at(0, v.to_vec()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.updates_completed(), 40, "inserts livelocked");
        assert_eq!(report.updates_rejected(), 0);
        assert_eq!(cluster.plan().len(), 52);
    }

    #[test]
    fn deadline_expiry_and_mixed_states_merge() {
        let (config, base, queries) = fixture(250, 1);
        let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
        let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
        let mut req = QueryRequest::at(0, queries.vector(0).to_vec(), Vec::new());
        req.deadline_ns = Some(1);
        let id = cluster.submit(req);
        let report = cluster.run_to_completion();
        assert_eq!(report.outcomes[id].state, SessionState::Expired);
        assert_eq!(report.expired(), 1);
    }

    #[test]
    fn replicated_cluster_matches_single_replica_results() {
        // Replicas are deterministic twins, so a no-failure replicated
        // cluster returns element-identical results under every policy —
        // only timing shifts with the load split.
        let (config, base, queries) = fixture(300, 8);
        let reference = {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let mut cluster = stage_vamana(&config, plan, ReplicationConfig::default(), &base);
            for (i, (_, q)) in queries.iter().enumerate() {
                cluster.submit(QueryRequest::at(i as Nanos * 2_000, q.to_vec(), Vec::new()));
            }
            cluster.run_to_completion()
        };
        for policy in [
            ReplicaPolicy::RoundRobin,
            ReplicaPolicy::Hedged { delay_ns: 50_000 },
        ] {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let replication = ReplicationConfig::replicated(2).with_policy(policy);
            let mut cluster = stage_vamana(&config, plan, replication, &base);
            for (i, (_, q)) in queries.iter().enumerate() {
                cluster.submit(QueryRequest::at(i as Nanos * 2_000, q.to_vec(), Vec::new()));
            }
            let report = cluster.run_to_completion();
            assert_eq!(report.completed(), 8, "{policy:?}");
            for (r, f) in report.outcomes.iter().zip(&reference.outcomes) {
                assert_eq!(r.results, f.results, "{policy:?} diverged from R=1");
            }
            assert_eq!(report.availability(), 1.0);
            assert_eq!(report.failovers(), 0);
        }
    }

    #[test]
    fn round_robin_spreads_sessions_across_replicas() {
        let (config, base, queries) = fixture(250, 8);
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let mut cluster = stage_vamana(&config, plan, ReplicationConfig::replicated(2), &base);
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(QueryRequest::at(i as Nanos * 2_000, q.to_vec(), Vec::new()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 8);
        let shard = &report.shards[0];
        assert_eq!(shard.replicas.len(), 2);
        for r in &shard.replicas {
            assert_eq!(
                r.report.outcomes.len(),
                4,
                "round robin must split 8 evenly"
            );
            assert!(r.report.outcomes.iter().any(|o| o.hops > 0));
        }
    }

    #[test]
    fn kill_fails_over_inflight_sessions_to_survivor() {
        let (config, base, queries) = fixture(300, 10);
        let make = |base: &Dataset| {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let replication = ReplicationConfig::replicated(2)
                .with_failures(FailureSchedule::new().kill(1, 0, 0));
            stage_vamana(&config, plan, replication, base)
        };
        let run = |mut cluster: ClusterEngine| {
            for (i, (_, q)) in queries.iter().enumerate() {
                cluster.submit(QueryRequest::at(i as Nanos * 1_000, q.to_vec(), Vec::new()));
            }
            cluster.run_to_completion()
        };
        let report = run(make(&base));
        // The kill fires at the first round boundary: every session the
        // dead replica had was re-seeded and the whole stream completed.
        assert_eq!(report.completed(), 10, "failover lost sessions");
        assert!(report.failovers() > 0, "kill must trigger failovers");
        let s0 = &report.shards[0];
        assert!(!s0.replicas[0].alive);
        assert_eq!(s0.replicas[0].killed_ns, Some(1));
        assert!(s0.replicas[1].alive);
        assert!(s0.availability < 1.0 && s0.availability > 0.0);
        assert_eq!(report.shards[1].availability, 1.0);
        assert!(report.availability() > 0.0 && report.availability() <= 1.0);
        // Bit-identical reruns, failure schedule included.
        assert_eq!(
            report,
            run(make(&base)),
            "failover run must be deterministic"
        );
    }

    #[test]
    fn availability_spans_first_arrival_to_last_completion() {
        // Traffic starts at 5 ms: the time before it is not uptime.
        let (config, base, queries) = fixture(250, 10);
        let first: Nanos = 5_000_000;
        let kill_at = first + 900_000;
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let replication = ReplicationConfig::replicated(2)
            .with_failures(FailureSchedule::new().kill(kill_at, 0, 0));
        let mut cluster = stage_vamana(&config, plan, replication, &base);
        for (i, (_, q)) in queries.iter().enumerate() {
            let arrival = first + i as Nanos * 200_000;
            cluster.submit(QueryRequest::at(arrival, q.to_vec(), Vec::new()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 10);
        assert_eq!(report.shards[0].replicas[0].killed_ns, Some(kill_at));
        let span = report.makespan_ns;
        assert!(kill_at - first < span, "the kill must land mid-span");
        let expected = ((kill_at - first) as f64 / span as f64 + 1.0) / 2.0;
        let got = report.shards[0].availability;
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn whole_shard_outage_freezes_its_sessions() {
        let (config, base, queries) = fixture(300, 4);
        let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
        let replication = ReplicationConfig::replicated(2)
            .with_failures(FailureSchedule::new().kill(1, 0, 0).kill(1, 0, 1));
        let mut cluster = stage_vamana(&config, plan, replication, &base);
        for (_, q) in queries.iter() {
            cluster.submit(QueryRequest::at(0, q.to_vec(), Vec::new()));
        }
        // Must terminate (dead devices stop stepping) without completing
        // any cluster query: shard 0 can never answer.
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 0);
        for o in &report.outcomes {
            assert!(!o.state.is_terminal(), "outage must leave queries pending");
        }
        assert!(report.shards[0].availability < 1.0);
        // New submissions skip the dead shard entirely (and keep the
        // cluster outcome non-terminal rather than panicking).
        let id = cluster.submit(QueryRequest::at(0, queries.vector(0).to_vec(), Vec::new()));
        assert!(!cluster.report().outcomes[id].state.is_terminal());
    }

    #[test]
    fn hedged_routing_duplicates_slow_sessions_and_wins() {
        let (config, base, queries) = fixture(300, 10);
        // Replica 0 of the only shard is hit by an ECC storm before it
        // serves anything; hedges fired on the healthy replica 1 should
        // win their races.
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let replication = ReplicationConfig::replicated(2)
            .with_policy(ReplicaPolicy::Hedged { delay_ns: 100_000 })
            .with_failures(FailureSchedule::new().ecc_storm(0, 0, 0, 0.95));
        let mut cluster = stage_vamana(&config, plan, replication, &base);
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(QueryRequest::at(i as Nanos * 1_000, q.to_vec(), Vec::new()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 10);
        assert!(report.hedges() > 0, "storm must trigger hedges");
        assert!(report.hedge_wins() > 0, "healthy replica must win races");
        assert!(report.hedge_win_rate() > 0.0 && report.hedge_win_rate() <= 1.0);
        assert_eq!(report.shards[0].hedge_wins, report.hedge_wins());
        // The storm replica actually paid soft-decode penalties.
        let stormed = &report.shards[0].replicas[0].report;
        assert!(stormed.stats.ecc_soft_fallbacks > 0);
    }

    #[test]
    fn hedge_decisions_come_when_their_primary_is_due() {
        // Three replicas a shard. Shard 0: replica 0 is stormed from the
        // start, so its primaries straggle and get hedged; replica 1 dies
        // mid-run, taking hedges (re-armed on their primaries) and
        // primaries (failed over to replica 2) with it. Shard 1 loses
        // replica 0, then the rest of its set: its sessions freeze with
        // their decisions pending.
        let (config, base, queries) = fixture(300, 24);
        let delay_ns = 100_000;
        let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
        let replication = ReplicationConfig::replicated(3)
            .with_policy(ReplicaPolicy::Hedged { delay_ns })
            .with_failures(
                FailureSchedule::new()
                    .ecc_storm(0, 0, 0, 0.95)
                    .kill(300_000, 0, 1)
                    .kill(200_000, 1, 0)
                    .kill(600_000, 1, 1)
                    .kill(600_000, 1, 2),
            );
        let mut cluster = stage_vamana(&config, plan, replication, &base);
        let arrival = |id: usize| id as Nanos * 20_000;
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(QueryRequest::at(arrival(i), q.to_vec(), Vec::new()));
        }
        let report = cluster.run_to_completion();
        let log = &cluster.hedge_log;
        let alive_clock = |round: usize, s: usize, r: usize| {
            log.rounds[round]
                .clocks
                .iter()
                .find(|c| (c.0, c.1) == (s, r))
                .map(|c| c.2)
        };

        // The hedge rule as a reference model over the logged primary
        // assignments and dead hedges: a session's decision is pending
        // from its submission until it is made, and again once its hedge
        // dies; it is made at the first pass where the session's current
        // primary is alive and its clock has reached arrival + delay —
        // never earlier or later — in ascending (scatter, shard) order.
        let mut pending: std::collections::BTreeMap<(usize, usize), (usize, bool)> =
            std::collections::BTreeMap::new();
        let mut primaries = log.primaries.iter().peekable();
        let mut dead_hedges = log.dead_hedges.iter().peekable();
        let mut decisions = std::collections::BTreeMap::<(usize, usize), Vec<usize>>::new();
        for (round, rec) in log.rounds.iter().enumerate() {
            while let Some(&(_, id, s, r)) = primaries.next_if(|p| p.0 == round) {
                pending.entry((id, s)).or_insert((r, true)).0 = r;
            }
            while let Some(&(_, id, s)) = dead_hedges.next_if(|d| d.0 == round) {
                pending.get_mut(&(id, s)).expect("hedged session").1 = true;
            }
            let want: Vec<(usize, usize, usize)> = pending
                .iter()
                .filter(|&(&(id, s), &(r, due))| {
                    due && alive_clock(round, s, r).is_some_and(|c| c >= arrival(id) + delay_ns)
                })
                .map(|(&(id, s), &(r, _))| (id, s, r))
                .collect();
            let got: Vec<(usize, usize, usize)> =
                rec.decided.iter().map(|d| (d.0, d.1, d.2)).collect();
            assert_eq!(got, want, "hedge pass {round}");
            for &(id, s, r) in &want {
                pending.get_mut(&(id, s)).expect("modelled").1 = false;
                decisions.entry((id, s)).or_default().push(r);
            }
            // No session whose primary is dead is ever looked at.
            for &(id, s, r) in &rec.visited {
                assert!(
                    alive_clock(round, s, r).is_some(),
                    "pass {round} looked at scatter {id} on dead replica {r} of shard {s}"
                );
            }
        }
        assert!(primaries.next().is_none() && dead_hedges.next().is_none());
        assert_eq!(
            pending.len(),
            2 * queries.len(),
            "every session was submitted"
        );
        let fired = log.rounds.iter().flat_map(|r| &r.decided).filter(|d| d.3);
        assert_eq!(fired.count(), report.hedges());

        // The scenario reached every path: hedges fired and skipped, a
        // failover moved a pending decision, a dead hedge re-armed one,
        // and shard 1's dead replicas strand theirs.
        assert!(report.hedges() > 0 && report.failovers() > 0);
        let made: usize = decisions.values().map(Vec::len).sum();
        assert!(made > report.hedges(), "no decision was skipped");
        let first_primary = |id, s| {
            log.primaries
                .iter()
                .find(|p| (p.1, p.2) == (id, s))
                .unwrap()
                .3
        };
        assert!(
            decisions
                .iter()
                .any(|(&(id, s), rs)| rs[0] != first_primary(id, s)),
            "no decision moved with a failover"
        );
        assert!(
            decisions.values().any(|rs| rs.len() > 1),
            "no dead hedge re-armed"
        );
        assert!(
            pending.values().any(|&(_, due)| due),
            "no decision stranded"
        );
        let shard1 = cluster.shards[1].as_ref().unwrap();
        assert!(shard1.replicas.iter().all(|r| !r.alive));
        assert!(shard1.replicas.iter().any(|r| !r.hedges_due.is_empty()));
    }

    #[test]
    fn twins_share_rows_until_an_insert_copies_them() {
        let (config, base, extra) = fixture(300, 12);
        let stage = || {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let replication = ReplicationConfig::replicated(2);
            stage_vamana(&config, plan, replication, &base)
        };
        let rows = |cluster: &ClusterEngine<'_>, s: usize, r: usize| {
            let engine = cluster.replica_engine(s, r).unwrap();
            std::ptr::from_ref(engine.deployment().dataset())
        };

        // Queries only: each shard's twins read one allocation.
        let mut cluster = stage();
        for (_, q) in extra.iter() {
            cluster.submit(QueryRequest::at(0, q.to_vec(), Vec::new()));
        }
        assert_eq!(cluster.run_to_completion().completed(), extra.len());
        for s in 0..2 {
            assert_eq!(rows(&cluster, s, 0), rows(&cluster, s, 1));
        }

        // Inserts: a write to shared rows copies them first, so each twin
        // ends with every insert exactly once and the twins stay equal.
        let mut cluster = stage();
        let ids: Vec<ClusterUpdateId> = extra
            .iter()
            .map(|(_, v)| cluster.submit_update(UpdateRequest::insert_at(0, v.to_vec())))
            .collect();
        let report = cluster.run_to_completion();
        assert_eq!(report.updates_completed(), extra.len());
        for s in 0..2 {
            assert_ne!(rows(&cluster, s, 0), rows(&cluster, s, 1));
            let twin = |r| cluster.replica_engine(s, r).unwrap().deployment().dataset();
            assert_eq!(twin(0), twin(1));
            assert_eq!(twin(0).len(), cluster.plan().shard_len(s));
        }
        for (i, &u) in ids.iter().enumerate() {
            let g = report.update_outcomes[u].assigned.unwrap();
            let s = cluster.plan().shard_of(g);
            let local = cluster.plan().local_of(g);
            for r in 0..2 {
                let dataset = cluster.replica_engine(s, r).unwrap().deployment().dataset();
                let copies = dataset
                    .iter()
                    .filter(|(_, row)| *row == extra.vector(i as VectorId))
                    .map(|(id, _)| id)
                    .collect::<Vec<_>>();
                assert_eq!(copies, vec![local], "insert {i} on replica {r}");
            }
        }
    }
}
