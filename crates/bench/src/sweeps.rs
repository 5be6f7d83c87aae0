//! The beyond-the-paper sweeps as registry entries: the serving layer,
//! sharding, replication, SLO-aware scheduling, compressed-vector search
//! and the distance kernels. Each body builds its own corpus from
//! `scale.n` and serves it at `scale.k` (none replays a batch trace, so
//! none draws on [`Workloads`]). A body states what it measured and checks
//! nothing: every comparison a sweep shows is asserted by a tier-1 test.

use std::hint::black_box;
use std::time::Instant;

use ndsearch_anns::beam::{beam_search, VisitedSet};
use ndsearch_anns::index::{GraphAnnsIndex, MutableIndex};
use ndsearch_anns::trace::BatchTrace;
use ndsearch_anns::vamana::{Vamana, VamanaParams};
use ndsearch_core::cluster::{
    ClusterEngine, ClusterReport, FailureSchedule, ReplicaPolicy, ReplicationConfig,
};
use ndsearch_core::config::NdsConfig;
use ndsearch_core::deploy::Deployment;
use ndsearch_core::pipeline::Prepared;
use ndsearch_core::serve::{
    QueryRequest, ServeConfig, ServeEngine, ServeReport, SloPolicy, UpdateRequest,
};
use ndsearch_core::traffic::{ArrivalModel, QueryMix, Scenario, TenantProfile};
use ndsearch_flash::timing::Nanos;
use ndsearch_vector::distance::{l2_squared_scalar, l2_squared_unrolled, simd_enabled};
use ndsearch_vector::quant::QuantSpec;
use ndsearch_vector::recall::{ground_truth, recall_at_k};
use ndsearch_vector::rng::Pcg32;
use ndsearch_vector::shard::{ShardPlan, ShardPolicy};
use ndsearch_vector::synthetic::DatasetSpec;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{Dataset, DistanceKind, VectorId};

use crate::{f, Scale, Table, Workloads};

/// Seed of every cluster sweep's shard plan.
const PLAN_SEED: u64 = 0x5A4D;

/// `spec`'s base and query vectors, and a device sized for `capacity`
/// vectors whose LDPC hard decisions never fail.
fn corpus(spec: DatasetSpec, capacity: usize) -> (Dataset, Dataset, NdsConfig) {
    let (base, queries) = spec.build_pair();
    let config = device(capacity, base.stored_vector_bytes());
    (base, queries, config)
}

/// A device sized for `capacity` vectors of `vector_bytes` whose LDPC hard
/// decisions never fail.
fn device(capacity: usize, vector_bytes: usize) -> NdsConfig {
    let mut config = NdsConfig::scaled_for(capacity, vector_bytes);
    config.ecc.hard_decision_failure_prob = 0.0;
    config
}

/// A Vamana graph over `ds` and the medoid every search enters it at.
fn vamana(ds: &Dataset) -> (Vamana, VectorId) {
    let index = Vamana::build(ds, VamanaParams::default());
    let medoid = index.medoid();
    (index, medoid)
}

/// [`vamana`], boxed the way a cluster stages each shard.
fn shard(ds: &Dataset) -> (Box<dyn MutableIndex>, VectorId) {
    let (index, medoid) = vamana(ds);
    (Box::new(index), medoid)
}

/// Each result list's ids, in query order.
fn ids<'a>(results: impl Iterator<Item = &'a Vec<Neighbor>>) -> Vec<Vec<VectorId>> {
    results
        .map(|r| r.iter().map(|nb| nb.id).collect())
        .collect()
}

/// Nanoseconds as microseconds, one decimal.
fn us(ns: Nanos) -> String {
    f(ns as f64 / 1e3, 1)
}

/// Serving layer: N ∈ {1, 8, 64} concurrent queries (all at t=0) against
/// the sequential beam search; Poisson arrivals at ½, 1 and 2× the
/// saturated throughput against a bounded queue; mixed query+update
/// traffic on a mutable deployment, with pages programmed and write
/// amplification.
pub(crate) fn serving(_: &mut Workloads, scale: Scale) -> Vec<Table> {
    let k = scale.k;
    let (base, queries, config) = corpus(DatasetSpec::sift_scaled(scale.n, 64), scale.n);
    let (index, medoid) = vamana(&base);
    let graph = index.base_graph();
    let prepared = Prepared::stage(&config, graph, &base, &BatchTrace::default());
    let serve = ServeConfig {
        k,
        ..ServeConfig::default()
    };
    let slots = |max_inflight| ServeConfig {
        max_inflight,
        ..serve.clone()
    };
    let engine = |serve| ServeEngine::new(&config, serve, &prepared, &base, graph);
    let closed = |mut engine: ServeEngine, n: usize| {
        for (_, q) in queries.iter().take(n) {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![medoid]));
        }
        engine.run_to_completion()
    };

    // Sequential reference: each query beam-searched to completion alone.
    let mut vs = VisitedSet::new(base.len());
    let sequential: Vec<Vec<VectorId>> = queries
        .iter()
        .map(|(_, q)| {
            let found = beam_search(
                &base,
                graph,
                q,
                &[medoid],
                serve.beam_width,
                DistanceKind::L2,
                &mut vs,
            )
            .found;
            found.iter().take(k).map(|nb| nb.id).collect()
        })
        .collect();
    let gt = ground_truth(&base, &queries, k, DistanceKind::L2);

    let concurrency = [1usize, 8, 64].map(|n| {
        let report = closed(engine(slots(n)), n);
        let found = ids(report.outcomes.iter().map(|o| &o.results));
        let lat = report.latency();
        let parity = if found == sequential[..n] {
            "== sequential"
        } else {
            "DIFFERS"
        };
        vec![
            n.to_string(),
            report.rounds.to_string(),
            f(report.qps() / 1e3, 1),
            us(lat.p50_ns),
            us(lat.p99_ns),
            f(recall_at_k(&gt[..n], &found, k), 3),
            parity.to_string(),
        ]
    });
    let concurrency = Table::new(
        "Concurrency sweep (closed load, all queries at t=0)",
        [
            "N", "rounds", "kQPS", "p50 us", "p99 us", "recall", "parity",
        ],
        concurrency.into(),
    )
    .lines([format!(
        "sequential recall@{k} = {:.3} (every concurrent run returns identical top-k)",
        recall_at_k(&gt, &sequential, k)
    )]);

    let saturated_qps = closed(engine(slots(16)), queries.len()).qps();
    let offered = [0.5, 1.0, 2.0].map(|load: f64| {
        let offered = saturated_qps * load;
        let mut engine = engine(ServeConfig {
            queue_capacity: 8,
            ..slots(16)
        });
        // Exponential interarrivals, deterministic under the fixed seed.
        let mut rng = Pcg32::seed_from_u64(0xA221);
        let mut t: f64 = 0.0;
        for (_, q) in queries.iter() {
            t += -rng.next_f64().max(1e-12).ln() / offered * 1e9;
            engine.submit(QueryRequest::at(t as Nanos, q.to_vec(), vec![medoid]));
        }
        let report = engine.run_to_completion();
        let lat = report.latency();
        vec![
            f(load, 1),
            f(offered / 1e3, 1),
            f(report.qps() / 1e3, 1),
            us(lat.p50_ns),
            us(lat.p99_ns),
            report.rejected().to_string(),
        ]
    });
    let offered = Table::new(
        "Offered-load sweep (open loop, Poisson arrivals, 16 slots, queue 8)",
        [
            "load",
            "offered kQPS",
            "kQPS",
            "p50 us",
            "p99 us",
            "rejected",
        ],
        offered.into(),
    )
    .lines([
        "Below saturation the tail tracks the service time; past it,",
        "queueing dominates p99 and the bounded queue sheds load.",
    ]);

    // Inserts append through the FTL's page-program path and deletes
    // tombstone; update throughput and write amplification come out of
    // the same report as query QPS.
    let mut_config = device(2 * base.len(), base.stored_vector_bytes());
    let mixes = [("90/10", 58, 6), ("50/50", 32, 32), ("10/90", 6, 58)];
    let mixed = mixes.map(|(label, nq, nu): (&str, usize, usize)| {
        let deploy = Deployment::stage(&mut_config, Box::new(index.clone()), base.clone());
        let mut engine = ServeEngine::with_deployment(&mut_config, slots(16), deploy);
        for i in 0..nq {
            let q = queries.vector((i % queries.len()) as VectorId);
            let at = i as Nanos * 1_000;
            engine.submit(QueryRequest::at(at, q.to_vec(), vec![medoid]));
        }
        for i in 0..nu {
            let at = i as Nanos * 1_500;
            engine.submit_update(if i % 4 == 3 {
                UpdateRequest::delete_at(at, (i as VectorId * 13) % base.len() as VectorId)
            } else {
                let v = queries.vector((i % queries.len()) as VectorId);
                UpdateRequest::insert_at(at, v.to_vec())
            });
        }
        let report = engine.run_to_completion();
        vec![
            label.to_string(),
            format!("{nq}/{nu}"),
            f(report.qps() / 1e3, 1),
            f(report.update_qps() / 1e3, 1),
            report.updates.pages_programmed.to_string(),
            f(report.write_amplification(), 2),
            f(report.breakdown.program_ns as f64 / 1e6, 2),
        ]
    });
    let mixed = Table::new(
        "Mixed query+update serving (mutable deployment, 16 slots)",
        ["mix", "q/u", "kQPS", "kUPS", "pages", "W-amp", "prog ms"],
        mixed.into(),
    );
    vec![concurrency, offered, mixed]
}

/// Scatter–gather sharding: 1, 2, 4 and 8 shards under both partition
/// policies against the unsharded engine, then mixed query+update churn
/// on 4 shards, updates routed to their owners.
pub(crate) fn cluster(_: &mut Workloads, scale: Scale) -> Vec<Table> {
    const QUERIES: usize = 32;
    let (n, k) = (scale.n, scale.k);
    let (base, queries, config) = corpus(DatasetSpec::sift_scaled(n, QUERIES), 2 * n);
    let serve = ServeConfig {
        k,
        ..ServeConfig::default()
    };
    let gt = ground_truth(&base, &queries, k, DistanceKind::L2);
    let stage = |shards, policy| {
        let plan = ShardPlan::partition(n, shards, policy, PLAN_SEED);
        let replication = ReplicationConfig::default();
        ClusterEngine::stage_replicated(&config, serve.clone(), plan, replication, &base, shard)
    };
    let policies = [ShardPolicy::BalancedSize, ShardPolicy::Hash];

    let flat = {
        let (index, medoid) = vamana(&base);
        let deploy = Deployment::stage(&config, Box::new(index), base.clone());
        let mut engine = ServeEngine::with_deployment(&config, serve.clone(), deploy);
        for (_, q) in queries.iter() {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![medoid]));
        }
        engine.run_to_completion()
    };
    let flat_recall = recall_at_k(&gt, &ids(flat.outcomes.iter().map(|o| &o.results)), k);

    let mut rows = Vec::new();
    for policy in policies {
        for shards in [1, 2, 4, 8] {
            let mut cluster = stage(shards, policy);
            for (_, q) in queries.iter() {
                cluster.submit(QueryRequest::at(0, q.to_vec(), Vec::new()));
            }
            let report = cluster.run_to_completion();
            let found = ids(report.outcomes.iter().map(|o| &o.results));
            let lat = report.latency();
            rows.push(vec![
                shards.to_string(),
                policy.name().to_string(),
                f(report.qps() / 1e3, 1),
                us(lat.p50_ns),
                us(lat.p99_ns),
                f(recall_at_k(&gt, &found, k), 3),
                f(report.load_imbalance(), 2),
            ]);
        }
    }
    let sweep = Table::new(
        "Shard sweep (closed load, 32 queries at t=0, per-shard devices)",
        [
            "shards",
            "policy",
            "kQPS",
            "p50 us",
            "p99 us",
            "recall",
            "imbalance",
        ],
        rows,
    )
    .lines([
        format!(
            "unsharded reference: {:.1} kQPS, recall@{k} = {flat_recall:.3}",
            flat.qps() / 1e3
        ),
        "Every shard searches its sub-corpus with the full beam width,".into(),
        "so merged recall tracks (and often exceeds) the unsharded engine;".into(),
        "per-query latency is the slowest shard plus the gather merge.".into(),
    ]);

    // Enough inserts per shard to fill open flash pages at any base-size
    // alignment, so the write path demonstrably programs.
    let (nq, nu) = (QUERIES, 2 * QUERIES);
    let churn = policies.map(|policy| {
        let mut cluster = stage(4, policy);
        for (i, (_, q)) in queries.iter().take(nq).enumerate() {
            cluster.submit(QueryRequest::at(i as Nanos * 1_000, q.to_vec(), Vec::new()));
        }
        for i in 0..nu {
            let at = i as Nanos * 1_500;
            cluster.submit_update(if i % 4 == 3 {
                UpdateRequest::delete_at(at, (i as VectorId * 13) % n as VectorId)
            } else {
                let v = queries.vector((i % queries.len()) as VectorId);
                UpdateRequest::insert_at(at, v.to_vec())
            });
        }
        let report = cluster.run_to_completion();
        let totals = report.update_totals();
        let update_qps =
            report.updates_completed() as f64 / (report.makespan_ns.max(1) as f64 / 1e9);
        vec![
            policy.name().to_string(),
            format!("{nq}/{nu}"),
            f(report.qps() / 1e3, 1),
            f(update_qps / 1e3, 1),
            totals.pages_programmed.to_string(),
            f(totals.write_amplification(), 2),
            f(report.load_imbalance(), 2),
        ]
    });
    let churn = Table::new(
        "Mixed query+update churn (4 shards, updates routed to owners)",
        [
            "policy",
            "q/u",
            "kQPS",
            "kUPS",
            "pages",
            "W-amp",
            "imbalance",
        ],
        churn.into(),
    );
    vec![sweep, churn]
}

/// Replication: round-robin and hedged routing with replica 0 of each of
/// 2 shards under an ECC storm, against a healthy baseline; then a
/// mid-run device loss on 4 shards × 2 replicas. A low-load open
/// wave (one query per millisecond), so the straggler's service time, not
/// admission queueing, sets the tail: QPS is bounded by the arrival rate.
pub(crate) fn replica(_: &mut Workloads, scale: Scale) -> Vec<Table> {
    const QUERIES: usize = 32;
    const GAP_NS: Nanos = 1_000_000;
    let (n, k) = (scale.n, scale.k);
    let (base, queries, mut config) = corpus(DatasetSpec::sift_scaled(n, QUERIES), 2 * n);
    // A severe retention episode: each soft-decision fallback walks a
    // read-retry voltage ladder, not a single re-read, so the stormed
    // replica's reads cost several times a healthy read.
    config.ecc.t_soft_decode_ns = 40_000;
    let serve = ServeConfig {
        k,
        ..ServeConfig::default()
    };
    let gt = ground_truth(&base, &queries, k, DistanceKind::L2);
    let run = |shards, replication| {
        let plan = ShardPlan::partition(n, shards, ShardPolicy::BalancedSize, PLAN_SEED);
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            serve.clone(),
            plan,
            replication,
            &base,
            shard,
        );
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(QueryRequest::at(
                i as Nanos * GAP_NS,
                q.to_vec(),
                Vec::new(),
            ));
        }
        cluster.run_to_completion()
    };
    let recall = |report: &ClusterReport| {
        recall_at_k(&gt, &ids(report.outcomes.iter().map(|o| &o.results)), k)
    };

    let pair = || ReplicationConfig::replicated(2);
    let storm = (0..2).fold(FailureSchedule::new(), |sch, s| sch.ecc_storm(0, s, 0, 0.9));
    let stormed = |policy| pair().with_policy(policy).with_failures(storm.clone());
    let healthy = run(2, pair());
    // Hedge once a session is outstanding past half the healthy median: a
    // stormed primary pays the retry ladder on most reads, so its backup
    // finishes well ahead of it, while a healthy primary merely wastes
    // its backup and still wins.
    let delay_ns = (healthy.latency().p50_ns / 2).max(1);
    let cases = [
        ("round_robin", "none", healthy),
        (
            "round_robin",
            "storm",
            run(2, stormed(ReplicaPolicy::RoundRobin)),
        ),
        (
            "hedged",
            "storm",
            run(2, stormed(ReplicaPolicy::Hedged { delay_ns })),
        ),
    ];
    let routing = cases.map(|(policy, fault, report)| {
        let lat = report.latency();
        vec![
            policy.to_string(),
            fault.to_string(),
            f(report.qps() / 1e3, 1),
            us(lat.p50_ns),
            us(lat.p99_ns),
            f(recall(&report), 3),
            format!("{}/{}", report.hedge_wins(), report.hedges()),
        ]
    });
    let routing = Table::new(
        "Routing under a stormed replica (2 shards x 2 replicas, replica 0 degraded)",
        [
            "policy",
            "fault",
            "kQPS",
            "p50 us",
            "p99 us",
            "recall",
            "hedge w/f",
        ],
        routing.into(),
    )
    .lines([
        "Round-robin keeps sending every other query into the straggler;".into(),
        "hedging re-issues sessions that outlive half the healthy median".into(),
        format!(
            "(delay = {:.0} us) and takes the earlier completion.",
            delay_ns as f64 / 1e3
        ),
    ]);

    let kill_at = (QUERIES as Nanos / 4) * GAP_NS; // 25 % into the wave
    let lost = run(
        4,
        pair().with_failures(FailureSchedule::new().kill(kill_at, 0, 0)),
    );
    let failover = Table::new(
        "Mid-run device loss (4 shards x 2 replicas, shard 0 replica 0 killed)",
        [
            "kill at us",
            "completed",
            "failovers",
            "avail",
            "kQPS",
            "p99 us",
            "recall",
        ],
        vec![vec![
            f(kill_at as f64 / 1e3, 0),
            lost.completed().to_string(),
            lost.failovers().to_string(),
            f(lost.availability(), 3),
            f(lost.qps() / 1e3, 1),
            us(lost.latency().p99_ns),
            f(recall(&lost), 3),
        ]],
    )
    .lines([
        "Every session the dead replica held was re-seeded on its survivor",
        "at the kill timestamp; later arrivals route around the dead device.",
    ]);
    vec![routing, failover]
}

/// SLO-aware scheduling: `ShedDoomed` against `None` under a sustained 2×
/// overload, `TenantFair` against `None` with a hog tenant, and seeded
/// bursty and diurnal multi-tenant scenarios replayed end to end.
pub(crate) fn scenarios(_: &mut Workloads, scale: Scale) -> Vec<Table> {
    const QUERIES: usize = 24;
    const OVERLOAD_QUERIES: usize = 80;
    const SLOTS: usize = 4;
    let (n, k) = (scale.n, scale.k);
    let (base, queries, config) = corpus(DatasetSpec::sift_scaled(n, QUERIES), n);
    let (index, medoid) = vamana(&base);
    let prepared = Prepared::stage(&config, index.base_graph(), &base, &BatchTrace::default());
    let engine = |max_inflight, slo| {
        let serve = ServeConfig {
            k,
            max_inflight,
            slo,
            ..ServeConfig::default()
        };
        ServeEngine::new(&config, serve, &prepared, &base, index.base_graph())
    };
    let query = |i: usize| queries.vector((i % queries.len()) as VectorId).to_vec();

    // Calibration: one query, alone, no deadline.
    let mut solo = engine(ServeConfig::default().max_inflight, SloPolicy::None);
    solo.submit(QueryRequest::at(0, query(0), vec![medoid]));
    let unloaded = solo.run_to_completion().outcomes[0].latency_ns().max(1);

    // 8 arrivals per unloaded latency against 4 slots, deadlines at 4×.
    // Shedding keeps one unloaded latency of slack: with none, the
    // marginal survivor of both runs completes right at the deadline wall
    // and the on-time p99 cannot move.
    let gap = unloaded / (2 * SLOTS as Nanos);
    let shed = SloPolicy::ShedDoomed {
        min_slack_ns: unloaded,
    };
    let overload = [("none", SloPolicy::None), ("shed_doomed", shed)].map(|(name, slo)| {
        let mut engine = engine(SLOTS, slo);
        for i in 0..OVERLOAD_QUERIES {
            let arrival = i as Nanos * gap;
            let mut req = QueryRequest::at(arrival, query(i), vec![medoid]);
            req.deadline_ns = Some(arrival + 4 * unloaded);
            engine.submit(req);
        }
        let report = engine.run_to_completion();
        let lat = report.latency(); // over on-time completions
        vec![
            name.to_string(),
            report.completed().to_string(),
            report.sheds().to_string(),
            report.expired().to_string(),
            f(report.slo_attainment(), 3),
            us(lat.p50_ns),
            us(lat.p99_ns),
        ]
    });
    let overload = Table::new(
        "ShedDoomed under 2x overload (4 slots, deadline 4x, slack 1x unloaded)",
        [
            "policy", "on-time", "sheds", "expired", "attain", "p50 us", "p99 us",
        ],
        overload.into(),
    )
    .lines([
        format!(
            "Unloaded latency {:.0} us; arrivals every {:.0} us (2x the 4-slot",
            unloaded as f64 / 1e3,
            gap as f64 / 1e3
        ),
        "capacity). Without shedding, doomed sessions hold slots until their".into(),
        "deadlines pass; shedding evicts them early and the survivors win.".into(),
    ]);

    // Tenant 0 floods its whole batch at t=0, tenants 1 and 2 just after:
    // FIFO admission serves the hog's backlog first.
    let fair = SloPolicy::TenantFair {
        max_inflight_per_tenant: 2,
    };
    let fairness = [("none", SloPolicy::None), ("tenant_fair", fair)].map(|(name, slo)| {
        let mut engine = engine(6, slo);
        for tenant in 0..3u32 {
            for i in 0..QUERIES {
                let req = QueryRequest::at(tenant as Nanos, query(i), vec![medoid]);
                engine.submit(req.tenant(tenant));
            }
        }
        let report = engine.run_to_completion();
        let tenants = report.tenant_summaries();
        let p99s = tenants.iter().map(|t| us(t.latency.p99_ns));
        let row = [name.to_string(), f(report.tenant_p99_fairness(), 3)];
        row.into_iter().chain(p99s).collect::<Vec<_>>()
    });
    let fairness = Table::new(
        "TenantFair vs a hog tenant (3 tenants x 24 queries, 6 slots, cap 2)",
        ["policy", "max/mean", "t0 p99 us", "t1 p99 us", "t2 p99 us"],
        fairness.into(),
    )
    .lines([
        "The hog submits first and FIFO admission drains it before the",
        "interactive tenants; the per-tenant cap interleaves all three.",
    ]);

    let tenants = vec![
        TenantProfile::new(0).weight(2.0).deadline_ns(8 * unloaded),
        TenantProfile::new(1).update_fraction(0.3).k(k.min(5)),
    ];
    let bursty = ArrivalModel::Bursty {
        base_rate_qps: 1e9 / (4 * unloaded) as f64,
        spike_rate_qps: 1e9 / (unloaded / 4) as f64,
        spike_windows: vec![(10 * unloaded, 20 * unloaded)],
    };
    let diurnal = ArrivalModel::Diurnal {
        profile: vec![0.2, 1.0, 0.6, 0.05],
        period_ns: 200 * unloaded,
        peak_rate_qps: 1e9 / unloaded as f64,
    };
    let generated = [
        ("bursty", bursty, 0.99, 0.4, 0xB0),
        ("diurnal", diurnal, 0.6, 0.0, 0xD1),
    ];
    let generated = generated.map(|(name, arrivals, zipf_theta, delete_fraction, seed)| {
        let scenario = Scenario {
            arrivals,
            mix: QueryMix {
                zipf_theta,
                delete_fraction,
                tenants: tenants.clone(),
            },
            events: 120,
            start_ns: 0,
            seed,
        };
        let trace = scenario.generate(queries.len(), queries.len(), 0..(n / 10) as VectorId);
        let mut engine = engine(SLOTS, SloPolicy::ShedDoomed { min_slack_ns: 0 });
        trace.submit_serve(&mut engine, &queries, &queries, &[medoid]);
        let report = engine.run_to_completion();
        vec![
            name.to_string(),
            trace.queries().to_string(),
            trace.updates().to_string(),
            f(trace.span_ns() as f64 / 1e6, 1),
            f(report.slo_attainment(), 3),
            report.sheds().to_string(),
            us(report.latency().p99_ns),
        ]
    });
    let generated = Table::new(
        "Generated scenarios (Zipf hotspots, mixed updates, ShedDoomed)",
        [
            "scenario", "queries", "updates", "span ms", "attain", "sheds", "p99 us",
        ],
        generated.into(),
    );
    vec![overload, fairness, generated]
}

/// The recall every quantized configuration is judged at.
const RECALL_GATE: f64 = 0.85;

/// The DiskANN recipe on the SearSSD model: beam traversal scores int8
/// codes in SSD-internal DRAM and only the final `rerank_depth`
/// candidates pay flash reads for exact distances. Rerank depth against
/// the full-precision engine on a deep-1b-like corpus (f32 components, so
/// int8 is a 4× DRAM saving).
pub(crate) fn quant(_: &mut Workloads, scale: Scale) -> Vec<Table> {
    const QUERIES: usize = 32;
    let (n, k) = (scale.n, scale.k);
    let (base, queries, config) = corpus(DatasetSpec::deep_scaled(n, QUERIES), n);
    let (index, medoid) = vamana(&base);
    let graph = index.base_graph();
    let prepared = Prepared::stage(&config, graph, &base, &BatchTrace::default());
    let gt = ground_truth(&base, &queries, k, DistanceKind::L2);
    let full_bytes = base.stored_vector_bytes();
    let serve = |rerank_depth| ServeConfig {
        k,
        beam_width: 80,
        max_inflight: 16,
        rerank_depth,
        ..ServeConfig::default()
    };
    // Recall, code bytes per vector and DRAM share of full precision.
    let run = |quantization, rerank_depth| -> (ServeReport, f64, usize, f64) {
        let config = NdsConfig {
            quantization,
            ..config.clone()
        };
        let mut engine = ServeEngine::new(&config, serve(rerank_depth), &prepared, &base, graph);
        let codes = engine.deployment().codes();
        let code_bytes = codes.map_or(full_bytes, |c| c.code_bytes());
        let dram = codes.map_or(1.0, |c| {
            c.total_bytes() as f64 / (full_bytes * base.len()) as f64
        });
        for (_, q) in queries.iter() {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![medoid]));
        }
        let report = engine.run_to_completion();
        let recall = recall_at_k(&gt, &ids(report.outcomes.iter().map(|o| &o.results)), k);
        (report, recall, code_bytes, dram)
    };

    let (full, full_recall, ..) = run(QuantSpec::None, ServeConfig::default().rerank_depth);
    let mut rows = Vec::new();
    let mut best: Option<(f64, usize)> = None;
    for depth in [k, 32, 64] {
        let (report, recall, code_bytes, dram) = run(QuantSpec::Int8, depth);
        let qps = report.qps();
        if recall >= RECALL_GATE && best.is_none_or(|(b, _)| qps > b) {
            best = Some((qps, depth));
        }
        rows.push(vec![
            "int8".to_string(),
            depth.to_string(),
            f(recall, 3),
            f(qps / 1e3, 1),
            code_bytes.to_string(),
            f(dram, 2),
            f(report.breakdown.rerank_ns as f64 / 1e6, 2),
        ]);
    }
    let best = match best {
        Some((qps, depth)) => format!(
            "best gated config: int8 @ depth {depth} — {:.1} kQPS vs full-precision {:.1} kQPS",
            qps / 1e3,
            full.qps() / 1e3
        ),
        None => format!("no config clears recall {RECALL_GATE}"),
    };
    vec![Table::new(
        "Quantized serving sweep (closed load, 16 slots, beam 80)",
        ["spec", "depth", "recall", "kQPS", "B/vec", "DRAM x", "rerank ms"],
        rows,
    )
    .lines([
        format!(
            "full-precision baseline: recall@{k} = {full_recall:.3}, {:.1} kQPS, {full_bytes} B/vector",
            full.qps() / 1e3
        ),
        best,
    ])]
}

/// Distance-kernel tiers: the scalar reference, the portable unrolled
/// kernel and batched dispatch (AVX2/FMA when the host has it and
/// `NDSEARCH_NO_SIMD` is unset), host nanoseconds per scored point at
/// 64, 128 (sift), 256 and 960 (gist) dimensions. The one host-timed
/// entry; `perf_ledger`'s `vector.distance.ns_per_point` is the tracked
/// number.
pub(crate) fn kernels(_: &mut Workloads, _: Scale) -> Vec<Table> {
    let mut rng = Pcg32::seed_from_u64(0x5eed);
    let mut rows = Vec::new();
    for dim in [64, 128, 256, 960] {
        let q: Vec<f32> = (0..dim).map(|_| rng.next_f32()).collect();
        let points = (0..POINTS)
            .map(|_| (0..dim).map(|_| rng.next_f32()).collect())
            .collect();
        let ds = Dataset::from_rows(dim, points).expect("rows of one dimension");
        let ids: Vec<VectorId> = (0..POINTS as VectorId).collect();
        let per_pair = |kernel: fn(&[f32], &[f32]) -> f32| {
            ns_per_point(|| {
                let score = |&id| kernel(black_box(&q), black_box(ds.vector(id)));
                ids.iter().map(score).sum()
            })
        };
        let scalar = per_pair(l2_squared_scalar);
        let unrolled = per_pair(l2_squared_unrolled);
        let mut out = Vec::with_capacity(POINTS);
        let batched = ns_per_point(|| {
            DistanceKind::L2.eval_batch_ids(black_box(&q), &ds, &ids, &mut out);
            out.iter().sum()
        });
        rows.push(vec![
            dim.to_string(),
            f(scalar, 2),
            f(unrolled, 2),
            f(batched, 2),
            f(scalar / unrolled, 2),
            f(scalar / batched, 2),
        ]);
    }
    let title = format!(
        "L2 kernel tiers, ns per scored point ({POINTS}-point batches, simd={})",
        simd_enabled()
    );
    let headers = [
        "dim", "scalar", "unrolled", "batched", "x unroll", "x batch",
    ];
    vec![Table::new(title, headers, rows)]
}

/// Points each [`kernels`] pass scores against one query.
const POINTS: usize = 64;

/// Best of three timed runs of `pass` (one scoring pass over [`POINTS`]),
/// each sized from a pilot to fill about 20 ms, in ns per scored point.
fn ns_per_point(mut pass: impl FnMut() -> f32) -> f64 {
    let pilot = Instant::now();
    let mut sink = 0.0f32;
    for _ in 0..8 {
        sink += pass();
    }
    let pilot_ns = (pilot.elapsed().as_nanos() as f64 / 8.0).max(1.0);
    let iters = ((20e6 / pilot_ns).ceil() as usize).max(8);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            sink += pass();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / (iters * POINTS) as f64);
    }
    black_box(sink);
    best
}
