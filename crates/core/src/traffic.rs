//! Deterministic production-traffic scenarios for the serving stack.
//!
//! Every workload the earlier layers run is either closed-loop or uniform:
//! submit N queries, wait. Production traffic looks nothing like that —
//! arrivals are an open stream, queries concentrate on Zipfian hotspots,
//! several tenants with different rate/deadline/top-k profiles share the
//! device, and a fraction of the stream is writes. This module generates
//! such workloads *deterministically* from a seed, so a scenario can gate
//! CI bit-identically:
//!
//! * [`ArrivalModel`] — when events happen: closed-loop (all at once) or
//!   Poisson, which draws exponential inter-arrival gaps at a constant
//!   rate from a per-tenant [`Pcg32`] stream.
//! * [`QueryMix`] — what the events are: a [`ZipfSampler`] picks query
//!   hotspots over a query pool, each [`TenantProfile`] contributes a
//!   weighted sub-stream with its own deadline/top-k profile, and an
//!   `update_fraction` routes events through the engines' existing
//!   `submit_update` path (inserts from an ingest pool, deletes from a
//!   per-tenant partition of a caller-supplied id range).
//! * [`Scenario::generate`] — composes the two into a [`TrafficTrace`]:
//!   a time-sorted event list that can be replayed into any of the three
//!   engines ([`TrafficTrace::submit_serve`] for a single device,
//!   [`TrafficTrace::submit_cluster`] for the sharded and replicated
//!   tiers).
//!
//! # Determinism
//!
//! Each tenant's sub-stream is generated from its own [`Pcg32`] seeded by
//! `(scenario seed, tenant id)` — never by the tenant's *position* in the
//! profile list — and the merged trace is ordered by
//! `(arrival_ns, tenant id, per-tenant sequence)`. Two consequences, both
//! pinned by property tests: the same seed replays the identical trace,
//! and permuting the order of [`QueryMix::tenants`] does not change the
//! merged interleaving.
//!
//! # Example
//!
//! ```
//! use ndsearch_core::traffic::{ArrivalModel, QueryMix, Scenario, TenantProfile};
//!
//! let scenario = Scenario {
//!     arrivals: ArrivalModel::Poisson { rate_qps: 20_000.0 },
//!     mix: QueryMix {
//!         zipf_theta: 0.99,
//!         delete_fraction: 0.3,
//!         tenants: vec![
//!             TenantProfile::new(0).weight(3.0).deadline_ns(400_000),
//!             TenantProfile::new(1).k(4).update_fraction(0.2),
//!         ],
//!     },
//!     events: 200,
//!     start_ns: 0,
//!     seed: 7,
//! };
//! let trace = scenario.generate(64, 32, 0..16);
//! assert_eq!(trace.len(), 200);
//! assert!(trace.events.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
//! ```

use std::ops::Range;

use ndsearch_flash::timing::Nanos;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::rng::Pcg32;
use ndsearch_vector::VectorId;

use crate::cluster::ClusterEngine;
use crate::serve::{QueryId, QueryRequest, ServeEngine, UpdateId, UpdateRequest};

/// When events happen: the arrival process of a [`Scenario`].
///
/// Rates are in queries per *simulated* second; each tenant receives a
/// share of the total rate proportional to its [`TenantProfile::weight`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalModel {
    /// Every event arrives at the scenario start: the classic closed-loop
    /// "submit everything, drain" workload.
    ClosedLoop,
    /// Memoryless arrivals at a constant rate.
    Poisson {
        /// Mean total arrival rate, queries per simulated second.
        rate_qps: f64,
    },
}

impl ArrivalModel {
    /// `count` monotone arrival offsets (ns since scenario start) for a
    /// sub-stream carrying `share` of the model's total rate.
    ///
    /// Poisson draws exponential gaps at the constant rate; closed-loop
    /// returns all zeros.
    pub(crate) fn sample_arrivals(&self, count: usize, share: f64, rng: &mut Pcg32) -> Vec<Nanos> {
        let ArrivalModel::Poisson { rate_qps } = self else {
            return vec![0; count];
        };
        let rate_per_ns = (rate_qps * share).max(1e-12) * 1e-9;
        let mut out = Vec::with_capacity(count);
        let mut t: Nanos = 0;
        for _ in 0..count {
            let u = rng.next_f64();
            let gap = (-(1.0 - u).ln() / rate_per_ns).min(1e18);
            t = t.saturating_add((gap as Nanos).max(1));
            out.push(t);
        }
        out
    }
}

/// Zipfian sampler over ranks `0..n`: rank `i` is drawn with probability
/// proportional to `1 / (i + 1)^theta`. `theta = 0` is uniform; larger
/// `theta` concentrates the mass on low ranks (the "hot" queries).
///
/// Sampling is a binary search over a precomputed CDF — O(log n) per
/// draw, fully deterministic given the [`Pcg32`] stream.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Sampler over `n` ranks with skew `theta >= 0`. `n` must be > 0.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "ZipfSampler over an empty domain");
        assert!(theta >= 0.0, "negative Zipf theta");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Draw one rank in `0..len()`.
    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the domain is empty (never true — construction asserts).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// One tenant's traffic profile inside a [`QueryMix`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantProfile {
    /// Tenant id, carried on every generated event and on the resulting
    /// query outcomes. Must be unique within a [`QueryMix`]; the id — not
    /// the position in the profile list — seeds the tenant's RNG stream.
    pub id: u32,
    /// Share of the total event count and arrival rate (relative to the
    /// sum of all tenant weights). Must be positive.
    pub weight: f64,
    /// Relative deadline applied to every query of this tenant
    /// (`deadline = arrival + this`), or `None` for best-effort traffic.
    pub deadline_ns: Option<Nanos>,
    /// Per-query top-k override, or `None` for the engine default.
    pub k: Option<usize>,
    /// Fraction of this tenant's events routed through `submit_update`
    /// instead of the query path, in `[0, 1]`.
    pub update_fraction: f64,
}

impl TenantProfile {
    /// A best-effort tenant with weight 1 and no updates.
    pub fn new(id: u32) -> Self {
        Self {
            id,
            weight: 1.0,
            deadline_ns: None,
            k: None,
            update_fraction: 0.0,
        }
    }

    /// Set the rate/count weight.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Set the relative deadline.
    pub fn deadline_ns(mut self, deadline_ns: Nanos) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Set the per-query top-k override.
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Set the update fraction.
    pub fn update_fraction(mut self, f: f64) -> Self {
        self.update_fraction = f;
        self
    }
}

/// What the events are: query hotspot skew, tenant profiles and the
/// write mix of a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMix {
    /// Zipf skew of query-pool picks (`0` = uniform).
    pub zipf_theta: f64,
    /// Among update events, the fraction that are deletes (the rest are
    /// inserts). A delete whose tenant has exhausted its deletable-id
    /// partition degrades to an insert; with no ingest pool it degrades
    /// to a query, so the trace always carries exactly
    /// [`Scenario::events`] events.
    pub delete_fraction: f64,
    /// The tenants sharing the stream. Must be non-empty with unique ids.
    pub tenants: Vec<TenantProfile>,
}

impl QueryMix {
    /// A single best-effort tenant, uniform queries, no updates.
    pub fn single_tenant() -> Self {
        Self {
            zipf_theta: 0.0,
            delete_fraction: 0.0,
            tenants: vec![TenantProfile::new(0)],
        }
    }
}

/// The payload of one [`TrafficEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A search over query-pool row `pool_id`.
    Query {
        /// Row index into the query pool passed to `submit_*`.
        pool_id: VectorId,
        /// Per-query top-k override.
        k: Option<usize>,
        /// Absolute deadline (arrival + tenant relative deadline).
        deadline_ns: Option<Nanos>,
    },
    /// Ingest ingest-pool row `pool_id`.
    Insert {
        /// Row index into the ingest pool passed to `submit_*`.
        pool_id: VectorId,
    },
    /// Tombstone corpus id `id`.
    Delete {
        /// The corpus id to delete.
        id: VectorId,
    },
}

/// One timestamped event of a generated [`TrafficTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficEvent {
    /// Absolute simulated arrival time.
    pub arrival_ns: Nanos,
    /// The tenant that produced it.
    pub tenant: u32,
    /// What arrives.
    pub kind: EventKind,
}

/// A fully specified, seeded traffic scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The arrival process.
    pub arrivals: ArrivalModel,
    /// The query/tenant/update mix.
    pub mix: QueryMix,
    /// Total number of events across all tenants.
    pub events: usize,
    /// Absolute offset added to every arrival — lets several scenario
    /// phases tile one simulated day back to back.
    pub start_ns: Nanos,
    /// Seed for every RNG stream the generator uses.
    pub seed: u64,
}

impl Scenario {
    /// Generate the event trace.
    ///
    /// * `query_pool` — number of rows in the query pool the trace will
    ///   index (must be > 0 if any tenant emits queries);
    /// * `ingest_pool` — number of rows available for inserts (0 = no
    ///   ingest; insert events degrade to queries);
    /// * `deletable` — corpus ids eligible for deletion, partitioned
    ///   disjointly across tenants by stride so concurrent tenants never
    ///   race on the same id. Each id is deleted at most once.
    pub fn generate(
        &self,
        query_pool: usize,
        ingest_pool: usize,
        deletable: Range<VectorId>,
    ) -> TrafficTrace {
        assert!(!self.mix.tenants.is_empty(), "scenario with no tenants");
        assert!(query_pool > 0, "scenario with an empty query pool");

        // Canonical tenant order: ascending id. Generation depends only on
        // ids, so permuting `mix.tenants` cannot change the trace.
        let mut order: Vec<usize> = (0..self.mix.tenants.len()).collect();
        order.sort_unstable_by_key(|&i| self.mix.tenants[i].id);
        for w in order.windows(2) {
            assert_ne!(
                self.mix.tenants[w[0]].id, self.mix.tenants[w[1]].id,
                "duplicate tenant id"
            );
        }

        let total_weight: f64 = self.mix.tenants.iter().map(|t| t.weight.max(0.0)).sum();
        assert!(total_weight > 0.0, "tenant weights sum to zero");

        // Event counts proportional to weight; the remainder goes to the
        // lowest tenant ids.
        let mut counts: Vec<usize> = order
            .iter()
            .map(|&i| {
                let w = self.mix.tenants[i].weight.max(0.0);
                ((self.events as f64) * w / total_weight).floor() as usize
            })
            .collect();
        let mut assigned: usize = counts.iter().sum();
        let num_tenants = counts.len();
        let mut slot = 0;
        while assigned < self.events {
            counts[slot % num_tenants] += 1;
            assigned += 1;
            slot += 1;
        }

        let zipf = ZipfSampler::new(query_pool, self.mix.zipf_theta);
        let mut merged: Vec<(Nanos, u32, usize, EventKind)> = Vec::with_capacity(self.events);

        for (rank, (&ti, &count)) in order.iter().zip(counts.iter()).enumerate() {
            let tenant = &self.mix.tenants[ti];
            let mut rng = Pcg32::seed_from_u64(
                self.seed
                    .wrapping_add((tenant.id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let share = tenant.weight.max(0.0) / total_weight;
            let arrivals = self.arrivals.sample_arrivals(count, share, &mut rng);

            // This tenant's disjoint slice of the deletable range, in a
            // seeded random deletion order.
            let mut delete_pool: Vec<VectorId> =
                deletable.clone().skip(rank).step_by(num_tenants).collect();
            rng.shuffle(&mut delete_pool);

            for (seq, offset) in arrivals.into_iter().enumerate() {
                let arrival_ns = self.start_ns.saturating_add(offset);
                let is_update = tenant.update_fraction > 0.0 && rng.chance(tenant.update_fraction);
                let kind = if is_update {
                    let want_delete =
                        self.mix.delete_fraction > 0.0 && rng.chance(self.mix.delete_fraction);
                    match (want_delete, delete_pool.pop(), ingest_pool) {
                        (true, Some(id), _) => EventKind::Delete { id },
                        (_, _, 0) => self.query_kind(&zipf, tenant, arrival_ns, &mut rng),
                        (_, _, n) => EventKind::Insert {
                            pool_id: rng.index(n) as VectorId,
                        },
                    }
                } else {
                    self.query_kind(&zipf, tenant, arrival_ns, &mut rng)
                };
                merged.push((arrival_ns, tenant.id, seq, kind));
            }
        }

        // Arrival order, ties broken by (tenant id, per-tenant sequence):
        // deterministic and independent of tenant-list order.
        merged.sort_by_key(|&(arrival_ns, tenant, seq, _)| (arrival_ns, tenant, seq));
        TrafficTrace {
            events: merged
                .into_iter()
                .map(|(arrival_ns, tenant, _, kind)| TrafficEvent {
                    arrival_ns,
                    tenant,
                    kind,
                })
                .collect(),
        }
    }

    fn query_kind(
        &self,
        zipf: &ZipfSampler,
        tenant: &TenantProfile,
        arrival_ns: Nanos,
        rng: &mut Pcg32,
    ) -> EventKind {
        EventKind::Query {
            pool_id: zipf.sample(rng) as VectorId,
            k: tenant.k,
            deadline_ns: tenant.deadline_ns.map(|d| arrival_ns.saturating_add(d)),
        }
    }
}

/// What one trace event became when replayed into an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// A query session with this engine-assigned query id.
    Query(QueryId),
    /// An update session with this engine-assigned update id.
    Update(UpdateId),
}

/// A generated, time-sorted event stream — the output of
/// [`Scenario::generate`], replayable into any engine tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficTrace {
    /// Events sorted by `(arrival_ns, tenant id, per-tenant sequence)`.
    pub events: Vec<TrafficEvent>,
}

impl TrafficTrace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of query events.
    pub fn queries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Query { .. }))
            .count()
    }

    /// Number of insert + delete events.
    pub fn updates(&self) -> usize {
        self.len() - self.queries()
    }

    /// Simulated span from first to last arrival (0 if < 2 events).
    pub fn span_ns(&self) -> Nanos {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => b.arrival_ns - a.arrival_ns,
            _ => 0,
        }
    }

    /// Replay the trace into a single-device [`ServeEngine`].
    ///
    /// Queries read their vector from `query_pool` and start from
    /// `entries`; inserts read from `ingest_pool`. Returns what each
    /// event became, in trace order.
    pub fn submit_serve(
        &self,
        engine: &mut ServeEngine,
        query_pool: &Dataset,
        ingest_pool: &Dataset,
        entries: &[VectorId],
    ) -> Vec<Submitted> {
        self.replay(
            engine,
            query_pool,
            ingest_pool,
            |engine, req| {
                engine.submit(QueryRequest {
                    entries: entries.to_vec(),
                    ..req
                })
            },
            |engine, req| engine.submit_update(req),
        )
    }

    /// Replay the trace into a (possibly replicated) [`ClusterEngine`].
    ///
    /// Same contract as [`TrafficTrace::submit_serve`]; entry points are
    /// chosen per shard by the cluster itself.
    pub fn submit_cluster(
        &self,
        cluster: &mut ClusterEngine,
        query_pool: &Dataset,
        ingest_pool: &Dataset,
    ) -> Vec<Submitted> {
        self.replay(
            cluster,
            query_pool,
            ingest_pool,
            |cluster, req| cluster.submit(req),
            |cluster, req| cluster.submit_update(req),
        )
    }

    /// The one event → request lowering both replays share: a query
    /// event becomes an entry-less [`QueryRequest`] for `query` to
    /// submit, an insert or delete an [`UpdateRequest`] for `update`.
    fn replay<E: ?Sized>(
        &self,
        engine: &mut E,
        query_pool: &Dataset,
        ingest_pool: &Dataset,
        mut query: impl FnMut(&mut E, QueryRequest) -> QueryId,
        mut update: impl FnMut(&mut E, UpdateRequest) -> UpdateId,
    ) -> Vec<Submitted> {
        self.events
            .iter()
            .map(|e| match &e.kind {
                EventKind::Query {
                    pool_id,
                    k,
                    deadline_ns,
                } => Submitted::Query(query(
                    engine,
                    QueryRequest {
                        query: query_pool.vector(*pool_id).to_vec(),
                        entries: Vec::new(),
                        arrival_ns: e.arrival_ns,
                        deadline_ns: *deadline_ns,
                        tenant: e.tenant,
                        k: *k,
                    },
                )),
                EventKind::Insert { pool_id } => Submitted::Update(update(
                    engine,
                    UpdateRequest::insert_at(e.arrival_ns, ingest_pool.vector(*pool_id).to_vec()),
                )),
                EventKind::Delete { id } => {
                    Submitted::Update(update(engine, UpdateRequest::delete_at(e.arrival_ns, *id)))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(events: usize, seed: u64) -> Scenario {
        Scenario {
            arrivals: ArrivalModel::Poisson { rate_qps: 10_000.0 },
            mix: QueryMix::single_tenant(),
            events,
            start_ns: 0,
            seed,
        }
    }

    #[test]
    fn closed_loop_arrives_at_start() {
        let s = Scenario {
            arrivals: ArrivalModel::ClosedLoop,
            start_ns: 500,
            ..poisson(20, 1)
        };
        let t = s.generate(8, 0, 0..0);
        assert_eq!(t.len(), 20);
        assert!(t.events.iter().all(|e| e.arrival_ns == 500));
    }

    #[test]
    fn arrivals_are_monotone_and_replayable() {
        let s = poisson(300, 42);
        let a = s.generate(32, 0, 0..0);
        let b = s.generate(32, 0, 0..0);
        assert_eq!(a, b, "same seed must replay bit-identically");
        assert!(a
            .events
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(s.generate(32, 0, 0..0) != poisson(300, 43).generate(32, 0, 0..0));
    }

    #[test]
    fn zipf_skew_orders_frequencies() {
        let zipf = ZipfSampler::new(50, 1.2);
        let mut rng = Pcg32::seed_from_u64(9);
        let mut hist = [0usize; 50];
        for _ in 0..20_000 {
            hist[zipf.sample(&mut rng)] += 1;
        }
        assert!(hist[0] > hist[5] && hist[5] > hist[30]);
        // Uniform theta=0 spreads the mass.
        let flat = ZipfSampler::new(50, 0.0);
        let mut hist = [0usize; 50];
        for _ in 0..20_000 {
            hist[flat.sample(&mut rng)] += 1;
        }
        assert!(hist.iter().all(|&h| h > 200));
    }

    #[test]
    fn tenant_order_does_not_change_the_trace() {
        let a = TenantProfile::new(3).weight(2.0).deadline_ns(100_000);
        let b = TenantProfile::new(1).update_fraction(0.5);
        let mut s = poisson(200, 5);
        s.mix.delete_fraction = 0.5;
        s.mix.tenants = vec![a.clone(), b.clone()];
        let fwd = s.generate(16, 8, 0..40);
        s.mix.tenants = vec![b, a];
        assert_eq!(fwd, s.generate(16, 8, 0..40));
    }

    #[test]
    fn update_fraction_routes_events_and_deletes_are_unique() {
        let mut s = poisson(400, 11);
        s.mix.delete_fraction = 0.6;
        s.mix.tenants = vec![
            TenantProfile::new(0).update_fraction(0.5),
            TenantProfile::new(1).update_fraction(0.5),
        ];
        let t = s.generate(16, 8, 100..140);
        assert_eq!(t.len(), 400);
        assert!(t.updates() > 100, "half the stream should be updates");
        let mut deleted: Vec<VectorId> = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Delete { id } => Some(id),
                _ => None,
            })
            .collect();
        let n = deleted.len();
        assert!(n > 0);
        deleted.sort_unstable();
        deleted.dedup();
        assert_eq!(deleted.len(), n, "an id was deleted twice");
        assert!(deleted.iter().all(|&id| (100..140).contains(&id)));
    }
}
