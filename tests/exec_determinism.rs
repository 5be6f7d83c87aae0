//! Property test: the data-parallel round executor is bit-identical at
//! any thread count.
//!
//! Over randomized datasets, scheduling toggles, ECC failure rates and
//! seeds, both the batch engine and the serving scheduler must produce
//! byte-for-byte the same report — latency breakdown, `FlashStats`,
//! speculation counters, per-query outcomes — at `exec_threads` ∈
//! {1, 2, 8}. `exec_threads = 1` is the exact legacy sequential path, so
//! this pins the parallel fan-out to the serial semantics.
//!
//! Uses the vendored proptest's deterministic runner directly (engine
//! runs are too heavy for the default 256-case count).

use proptest::prelude::*;
use proptest::test_runner::{Config, TestRng};

use ndsearch::anns::index::{GraphAnnsIndex, MutableIndex, SearchParams};
use ndsearch::anns::trace::BatchTrace;
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::cluster::{
    ClusterEngine, ClusterQueryRequest, FailureSchedule, ReplicaPolicy, ReplicationConfig,
};
use ndsearch::core::config::NdsConfig;
use ndsearch::core::deploy::Deployment;
use ndsearch::core::engine::NdsEngine;
use ndsearch::core::pipeline::Prepared;
use ndsearch::core::serve::{QueryRequest, ServeConfig, ServeEngine, UpdateRequest};
use ndsearch::flash::timing::Nanos;
use ndsearch::vector::quant::QuantSpec;
use ndsearch::vector::shard::{ShardPlan, ShardPolicy};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::{Dataset, VectorId};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn random_config(rng: &mut TestRng, n: usize, vector_bytes: usize) -> NdsConfig {
    let mut config = NdsConfig::scaled_for(n, vector_bytes);
    config.seed = (0u64..u64::MAX).generate(rng);
    config.ecc.seed = (0u64..u64::MAX).generate(rng);
    // Fault injection on in most cases: the counter-indexed ECC streams
    // are exactly the state that must not depend on worker scheduling.
    config.ecc.hard_decision_failure_prob = [0.0, 0.05, 0.3][(0usize..3).generate(rng)];
    config.scheduling.dynamic_allocating = any::<bool>().generate(rng);
    config.scheduling.speculative = any::<bool>().generate(rng);
    config.spec_budget_factor = (0.5f64..2.0).generate(rng);
    // Refresh is deliberately left off: it mutates a private LUNCSR copy
    // mid-run, so the engine forces the inline executor and the
    // thread-count comparison would be vacuous (engine-level tests cover
    // refresh determinism separately).
    config.refresh_read_threshold = 0;
    config
}

#[test]
fn engine_report_bit_identical_across_thread_counts() {
    proptest::test_runner::run(
        Config { cases: 4 },
        "engine_report_bit_identical_across_thread_counts",
        |rng| {
            let n = (250usize..450).generate(rng);
            let q = (4usize..12).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let index = Vamana::build(&base, VamanaParams::default());
            let out = index.search_batch(&base, &queries, &SearchParams::default());
            let mut config = random_config(rng, base.len(), base.stored_vector_bytes());
            config.max_batch_inflight = (2usize..64).generate(rng);
            let reports: Vec<_> = THREAD_COUNTS
                .iter()
                .map(|&threads| {
                    let mut c = config.clone();
                    c.exec_threads = threads;
                    let prepared = Prepared::stage(&c, index.base_graph(), &base, &out.trace);
                    NdsEngine::new(&c).run(&prepared)
                })
                .collect();
            prop_assert_eq!(
                &reports[0],
                &reports[1],
                "engine diverged between 1 and 2 threads"
            );
            prop_assert_eq!(
                &reports[0],
                &reports[2],
                "engine diverged between 1 and 8 threads"
            );
            Ok(())
        },
    );
}

/// Mixed query+update serving: updates mutate the deployment between
/// rounds while hop/LUN jobs read round-boundary snapshots, so the full
/// report — query outcomes, update outcomes, write-path totals — must be
/// bit-identical at `exec_threads` ∈ {1, 4}.
#[test]
fn mixed_update_serving_bit_identical_across_thread_counts() {
    proptest::test_runner::run(
        Config { cases: 3 },
        "mixed_update_serving_bit_identical_across_thread_counts",
        |rng| {
            let n = (250usize..400).generate(rng);
            let q = (4usize..10).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let index = Vamana::build(&base, VamanaParams::default());
            let medoid = index.medoid();
            // Headroom for the inserts.
            let mut config = random_config(rng, n * 2, base.stored_vector_bytes());
            config.refresh_read_threshold = 0;
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                max_updates_per_round: (1usize..4).generate(rng),
                ..ServeConfig::default()
            };
            let interarrival = (0u64..2_000).generate(rng);
            let n_inserts = (4usize..12).generate(rng);
            let n_deletes = (1usize..6).generate(rng);
            let reports: Vec<_> = [1usize, 4]
                .iter()
                .map(|&threads| {
                    let mut c = config.clone();
                    c.exec_threads = threads;
                    let deploy = Deployment::stage(&c, Box::new(index.clone()), base.clone());
                    let mut engine = ServeEngine::with_deployment(&c, serve.clone(), deploy);
                    for (i, (_, qv)) in queries.iter().enumerate() {
                        engine.submit(QueryRequest::at(
                            i as Nanos * interarrival,
                            qv.to_vec(),
                            vec![medoid],
                        ));
                    }
                    for i in 0..n_inserts {
                        engine.submit_update(UpdateRequest::insert_at(
                            i as Nanos * interarrival + 500,
                            queries.vector((i % queries.len()) as u32).to_vec(),
                        ));
                    }
                    for i in 0..n_deletes {
                        engine.submit_update(UpdateRequest::delete_at(
                            i as Nanos * interarrival + 900,
                            (i * 7) as u32 % n as u32,
                        ));
                    }
                    engine.run_to_completion()
                })
                .collect();
            prop_assert_eq!(
                &reports[0],
                &reports[1],
                "mixed serving diverged between 1 and 4 threads"
            );
            prop_assert!(reports[0].updates_completed() > 0);
            Ok(())
        },
    );
}

/// Compressed-vector serving (codes in DRAM + exact flash rerank) with
/// mixed updates: quantized round costs are derived from hop traces in
/// slot order and the rerank tail rescores through the same dispatched
/// kernels, so the full report — outcomes, rerank latency bucket,
/// page-read stats — must be bit-identical at `exec_threads` ∈ {1, 4}
/// for both code families.
#[test]
fn quantized_serving_bit_identical_across_thread_counts() {
    proptest::test_runner::run(
        Config { cases: 3 },
        "quantized_serving_bit_identical_across_thread_counts",
        |rng| {
            let n = (250usize..400).generate(rng);
            let q = (4usize..10).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let index = Vamana::build(&base, VamanaParams::default());
            let medoid = index.medoid();
            let mut config = random_config(rng, n * 2, base.stored_vector_bytes());
            config.refresh_read_threshold = 0;
            config.quantization = if any::<bool>().generate(rng) {
                QuantSpec::Int8
            } else {
                QuantSpec::Pq { m: 16, bits: 8 }
            };
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                rerank_depth: (8usize..48).generate(rng),
                max_updates_per_round: (1usize..4).generate(rng),
                ..ServeConfig::default()
            };
            let interarrival = (0u64..2_000).generate(rng);
            let n_inserts = (4usize..10).generate(rng);
            let reports: Vec<_> = [1usize, 4]
                .iter()
                .map(|&threads| {
                    let mut c = config.clone();
                    c.exec_threads = threads;
                    let deploy = Deployment::stage(&c, Box::new(index.clone()), base.clone());
                    let mut engine = ServeEngine::with_deployment(&c, serve.clone(), deploy);
                    for (i, (_, qv)) in queries.iter().enumerate() {
                        engine.submit(QueryRequest::at(
                            i as Nanos * interarrival,
                            qv.to_vec(),
                            vec![medoid],
                        ));
                    }
                    for i in 0..n_inserts {
                        engine.submit_update(UpdateRequest::insert_at(
                            i as Nanos * interarrival + 500,
                            queries.vector((i % queries.len()) as u32).to_vec(),
                        ));
                    }
                    engine.run_to_completion()
                })
                .collect();
            prop_assert_eq!(
                &reports[0],
                &reports[1],
                "quantized serving diverged between 1 and 4 threads"
            );
            prop_assert_eq!(reports[0].completed(), q);
            prop_assert!(
                reports[0].breakdown.rerank_ns > 0,
                "quantized completions must charge rerank flash reads"
            );
            prop_assert_eq!(
                reports[0].breakdown.nand_read_ns,
                0,
                "quantized traversal must not touch NAND"
            );
            Ok(())
        },
    );
}

/// Quantized cluster serving: each shard trains its own code table at
/// staging, so the merged report must be bit-identical at
/// `exec_threads` ∈ {1, 4} *and* invariant under shard step order — the
/// same contract as full-precision scatter–gather.
#[test]
fn quantized_cluster_bit_identical_across_thread_counts_and_shard_order() {
    proptest::test_runner::run(
        Config { cases: 2 },
        "quantized_cluster_bit_identical_across_thread_counts_and_shard_order",
        |rng| {
            let n = (200usize..320).generate(rng);
            let q = (4usize..9).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let mut config = random_config(rng, n * 2, base.stored_vector_bytes());
            config.refresh_read_threshold = 0;
            config.quantization = if any::<bool>().generate(rng) {
                QuantSpec::Int8
            } else {
                QuantSpec::Pq { m: 12, bits: 6 }
            };
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                rerank_depth: (8usize..32).generate(rng),
                max_updates_per_round: (1usize..4).generate(rng),
                ..ServeConfig::default()
            };
            let plan_seed = (0u64..u64::MAX).generate(rng);
            let interarrival = (0u64..2_000).generate(rng);
            let n_inserts = (3usize..8).generate(rng);
            let shards = 4usize;

            let builder = |ds: &Dataset| {
                let index = Vamana::build(ds, VamanaParams::default());
                let entry = index.medoid();
                (Box::new(index) as Box<dyn MutableIndex>, entry)
            };
            let run = |threads: usize, order: &[usize]| {
                let mut c = config.clone();
                c.exec_threads = threads;
                let plan = ShardPlan::partition(n, shards, ShardPolicy::BalancedSize, plan_seed);
                let mut cluster = ClusterEngine::stage(&c, serve.clone(), plan, &base, builder);
                for (i, (_, qv)) in queries.iter().enumerate() {
                    cluster.submit(ClusterQueryRequest::at(
                        i as Nanos * interarrival,
                        qv.to_vec(),
                    ));
                }
                for i in 0..n_inserts {
                    cluster.submit_update(UpdateRequest::insert_at(
                        i as Nanos * interarrival + 500,
                        queries.vector((i % queries.len()) as u32).to_vec(),
                    ));
                }
                cluster.run_to_completion_ordered(order)
            };
            let identity: Vec<usize> = (0..shards).collect();
            let reference = run(1, &identity);
            prop_assert_eq!(reference.completed(), q);
            prop_assert_eq!(
                &reference,
                &run(4, &identity),
                "quantized cluster diverged between 1 and 4 threads"
            );
            prop_assert_eq!(
                &reference,
                &run(1, &[3usize, 1, 0, 2]),
                "quantized cluster diverged under permuted shard order"
            );
            prop_assert_eq!(
                &reference,
                &run(4, &[2usize, 3, 0, 1]),
                "quantized cluster diverged under 4 threads + permuted order"
            );
            Ok(())
        },
    );
}

/// Sharded scatter–gather serving: every shard engine is bit-identical
/// at any thread count and shards share no state, so the full cluster
/// report — merged outcomes, update outcomes, every per-shard breakdown
/// (wall-clock fields excluded by `ServeReport`'s equality) — must be
/// bit-identical at `exec_threads` ∈ {1, 4} *and* invariant under the
/// order shards are stepped in.
#[test]
fn cluster_report_bit_identical_across_thread_counts_and_shard_order() {
    proptest::test_runner::run(
        Config { cases: 2 },
        "cluster_report_bit_identical_across_thread_counts_and_shard_order",
        |rng| {
            let n = (200usize..320).generate(rng);
            let q = (4usize..9).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let mut config = random_config(rng, n * 2, base.stored_vector_bytes());
            config.refresh_read_threshold = 0;
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                max_updates_per_round: (1usize..4).generate(rng),
                ..ServeConfig::default()
            };
            let policy = if any::<bool>().generate(rng) {
                ShardPolicy::Hash
            } else {
                ShardPolicy::BalancedSize
            };
            let plan_seed = (0u64..u64::MAX).generate(rng);
            let interarrival = (0u64..2_000).generate(rng);
            let n_inserts = (3usize..10).generate(rng);
            let n_deletes = (1usize..6).generate(rng);
            let shards = 4usize;

            let builder = |ds: &Dataset| {
                let index = Vamana::build(ds, VamanaParams::default());
                let entry = index.medoid();
                (Box::new(index) as Box<dyn MutableIndex>, entry)
            };
            let run = |threads: usize, order: &[usize]| {
                let mut c = config.clone();
                c.exec_threads = threads;
                let plan = ShardPlan::partition(n, shards, policy, plan_seed);
                let mut cluster = ClusterEngine::stage(&c, serve.clone(), plan, &base, builder);
                for (i, (_, qv)) in queries.iter().enumerate() {
                    cluster.submit(ClusterQueryRequest::at(
                        i as Nanos * interarrival,
                        qv.to_vec(),
                    ));
                }
                for i in 0..n_inserts {
                    cluster.submit_update(UpdateRequest::insert_at(
                        i as Nanos * interarrival + 500,
                        queries.vector((i % queries.len()) as u32).to_vec(),
                    ));
                }
                for i in 0..n_deletes {
                    cluster.submit_update(UpdateRequest::delete_at(
                        i as Nanos * interarrival + 900,
                        (i * 7) as VectorId % n as VectorId,
                    ));
                }
                cluster.run_to_completion_ordered(order)
            };
            let identity: Vec<usize> = (0..shards).collect();
            let reference = run(1, &identity);
            prop_assert!(reference.updates_completed() > 0);
            prop_assert_eq!(
                &reference,
                &run(4, &identity),
                "cluster diverged between 1 and 4 threads"
            );
            for order in [[3usize, 1, 0, 2], [2, 3, 0, 1]] {
                prop_assert_eq!(
                    &reference,
                    &run(1, &order),
                    "cluster diverged under shard step order {:?}",
                    order
                );
            }
            prop_assert_eq!(
                &reference,
                &run(4, &[1usize, 0, 3, 2]),
                "cluster diverged under 4 threads + permuted shard order"
            );
            Ok(())
        },
    );
}

/// Replicated serving under a failure schedule: failure events and
/// hedges fire at round boundaries from simulated clocks in fixed
/// schedule/submission order, so a mid-run replica kill plus an ECC
/// storm must reproduce the full cluster report — failover re-seeds,
/// hedge races, availability, per-replica breakdowns — bit-identically
/// at `exec_threads` ∈ {1, 4} and under permuted shard step orders.
#[test]
fn replicated_failover_bit_identical_across_thread_counts_and_shard_order() {
    proptest::test_runner::run(
        Config { cases: 2 },
        "replicated_failover_bit_identical_across_thread_counts_and_shard_order",
        |rng| {
            let n = (200usize..320).generate(rng);
            let q = (5usize..9).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let mut config = random_config(rng, n * 2, base.stored_vector_bytes());
            config.refresh_read_threshold = 0;
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                ..ServeConfig::default()
            };
            let plan_seed = (0u64..u64::MAX).generate(rng);
            let interarrival = (100u64..2_000).generate(rng);
            let shards = 4usize;
            let policy = if any::<bool>().generate(rng) {
                ReplicaPolicy::RoundRobin
            } else {
                ReplicaPolicy::Hedged {
                    delay_ns: (10_000u64..200_000).generate(rng),
                }
            };
            // Kill one replica almost immediately (so sessions are still
            // in flight and must fail over) and storm another mid-run.
            let kill_shard = (0usize..shards).generate(rng);
            let storm_at = (0u64..100_000).generate(rng);
            let failures = FailureSchedule::new().kill(1, kill_shard, 0).ecc_storm(
                storm_at,
                (kill_shard + 1) % shards,
                1,
                0.9,
            );
            let replication = ReplicationConfig::replicated(2)
                .with_policy(policy)
                .with_failures(failures);

            let builder = |ds: &Dataset| {
                let index = Vamana::build(ds, VamanaParams::default());
                let entry = index.medoid();
                (Box::new(index) as Box<dyn MutableIndex>, entry)
            };
            let run = |threads: usize, order: &[usize]| {
                let mut c = config.clone();
                c.exec_threads = threads;
                // BalancedSize never leaves a shard empty, so the killed
                // replica always had sessions to fail over.
                let plan = ShardPlan::partition(n, shards, ShardPolicy::BalancedSize, plan_seed);
                let mut cluster = ClusterEngine::stage_replicated(
                    &c,
                    serve.clone(),
                    plan,
                    replication.clone(),
                    &base,
                    builder,
                );
                for (i, (_, qv)) in queries.iter().enumerate() {
                    cluster.submit(ClusterQueryRequest::at(
                        i as Nanos * interarrival,
                        qv.to_vec(),
                    ));
                }
                cluster.run_to_completion_ordered(order)
            };
            let identity: Vec<usize> = (0..shards).collect();
            let reference = run(1, &identity);
            prop_assert_eq!(reference.completed(), q, "failover lost sessions");
            prop_assert!(reference.failovers() > 0, "kill at t=1 must fail over");
            prop_assert!(reference.availability() > 0.0 && reference.availability() <= 1.0);
            prop_assert_eq!(
                &reference,
                &run(4, &identity),
                "replicated cluster diverged between 1 and 4 threads"
            );
            prop_assert_eq!(
                &reference,
                &run(1, &[3usize, 1, 0, 2]),
                "replicated cluster diverged under permuted shard order"
            );
            prop_assert_eq!(
                &reference,
                &run(4, &[2usize, 3, 0, 1]),
                "replicated cluster diverged under 4 threads + permuted order"
            );
            Ok(())
        },
    );
}

/// Scenario-engine traffic over the cluster tier: a multi-tenant bursty
/// trace (Zipfian hotspots, deadlines, inserts and deletes) served under
/// `SloPolicy::TenantFair` must produce a bit-identical cluster report at
/// `exec_threads` ∈ {1, 4}. SLO admission skips and per-tenant in-flight
/// accounting run on simulated counters only, so thread count must not
/// leak into shedding, fairness or the merged outcomes.
#[test]
fn scenario_traffic_with_tenant_fairness_bit_identical_across_thread_counts() {
    use ndsearch::core::serve::SloPolicy;
    use ndsearch::core::traffic::{ArrivalModel, QueryMix, Scenario, TenantProfile};

    let (base, queries) = DatasetSpec::sift_scaled(300, 8).build_pair();
    let mut config = NdsConfig::scaled_for(600, base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    config.refresh_read_threshold = 0;
    let serve = ServeConfig {
        max_inflight: 4,
        beam_width: 32,
        slo: SloPolicy::TenantFair {
            max_inflight_per_tenant: 2,
        },
        ..ServeConfig::default()
    };
    let scenario = Scenario {
        arrivals: ArrivalModel::Bursty {
            base_rate_qps: 20_000.0,
            spike_rate_qps: 400_000.0,
            spike_windows: vec![(0, 200_000)],
        },
        mix: QueryMix {
            zipf_theta: 1.1,
            delete_fraction: 0.4,
            tenants: vec![
                TenantProfile::new(0).weight(2.0).deadline_ns(5_000_000),
                TenantProfile::new(1).update_fraction(0.5),
                TenantProfile::new(2).k(3),
            ],
        },
        events: 90,
        start_ns: 0,
        seed: 0x7EA,
    };
    let trace = scenario.generate(queries.len(), queries.len(), 0..40);
    assert!(trace.updates() > 0, "mix must exercise the update path");

    let builder = |ds: &Dataset| {
        let index = Vamana::build(ds, VamanaParams::default());
        let entry = index.medoid();
        (Box::new(index) as Box<dyn MutableIndex>, entry)
    };
    let run = |threads: usize| {
        let mut c = config.clone();
        c.exec_threads = threads;
        let plan = ShardPlan::partition(300, 4, ShardPolicy::BalancedSize, 0x5A);
        let mut cluster = ClusterEngine::stage(&c, serve.clone(), plan, &base, builder);
        trace.submit_cluster(&mut cluster, &queries, &queries);
        cluster.run_to_completion()
    };
    let reference = run(1);
    assert_eq!(reference.outcomes.len(), trace.queries());
    assert_eq!(reference.update_outcomes.len(), trace.updates());
    assert_eq!(
        reference,
        run(4),
        "scenario traffic diverged between 1 and 4 threads"
    );
}

#[test]
fn serving_report_bit_identical_across_thread_counts() {
    proptest::test_runner::run(
        Config { cases: 4 },
        "serving_report_bit_identical_across_thread_counts",
        |rng| {
            let n = (250usize..450).generate(rng);
            let q = (4usize..12).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let index = Vamana::build(&base, VamanaParams::default());
            let mut config = random_config(rng, base.len(), base.stored_vector_bytes());
            // The serving path never mutates the LUNCSR.
            config.refresh_read_threshold = 0;
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                ..ServeConfig::default()
            };
            let interarrival = (0u64..2_000).generate(rng);
            let prepared =
                Prepared::stage(&config, index.base_graph(), &base, &BatchTrace::default());
            let reports: Vec<_> = THREAD_COUNTS
                .iter()
                .map(|&threads| {
                    let mut c = config.clone();
                    c.exec_threads = threads;
                    let mut engine =
                        ServeEngine::new(&c, serve.clone(), &prepared, &base, index.base_graph());
                    for (i, (_, qv)) in queries.iter().enumerate() {
                        engine.submit(QueryRequest::at(
                            i as Nanos * interarrival,
                            qv.to_vec(),
                            vec![index.medoid()],
                        ));
                    }
                    engine.run_to_completion()
                })
                .collect();
            prop_assert_eq!(
                &reports[0],
                &reports[1],
                "serving diverged between 1 and 2 threads"
            );
            prop_assert_eq!(
                &reports[0],
                &reports[2],
                "serving diverged between 1 and 8 threads"
            );
            Ok(())
        },
    );
}

/// The pooled LUN stage ships one contiguous range of the round's task
/// arena per worker; the inline path walks the same arena unit by unit,
/// committing each ECC delta as it goes. Wide rounds (32 sessions in
/// flight, so both the hop stage and the LUN stage clear their fan-out
/// thresholds) under a mid-run ECC storm must give the inline report at
/// `exec_threads` ∈ {1, 2, 4}: uneven range cuts, per-plane failure
/// streams and the stable-LUN merge all included.
#[test]
fn arena_ranges_per_worker_match_the_inline_path_under_an_ecc_storm() {
    proptest::test_runner::run(
        Config { cases: 3 },
        "arena_ranges_per_worker_match_the_inline_path_under_an_ecc_storm",
        |rng| {
            let n = (350usize..500).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, 48).build_pair();
            let index = Vamana::build(&base, VamanaParams::default());
            let mut config = random_config(rng, base.len(), base.stored_vector_bytes());
            config.ecc.hard_decision_failure_prob = 0.01;
            let storm_prob = (0.3f64..0.95).generate(rng);
            let calm_rounds = (1usize..6).generate(rng);
            let serve = ServeConfig {
                max_inflight: 32,
                beam_width: (24usize..48).generate(rng),
                ..ServeConfig::default()
            };
            let prepared =
                Prepared::stage(&config, index.base_graph(), &base, &BatchTrace::default());
            let reports: Vec<_> = [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    let mut c = config.clone();
                    c.exec_threads = threads;
                    let mut engine =
                        ServeEngine::new(&c, serve.clone(), &prepared, &base, index.base_graph());
                    for (_, qv) in queries.iter() {
                        engine.submit(QueryRequest::at(0, qv.to_vec(), vec![index.medoid()]));
                    }
                    // A few calm rounds (single-stepping is always
                    // inline), then the storm hits and the pool takes over.
                    for _ in 0..calm_rounds {
                        engine.step_round();
                    }
                    engine.inject_ecc_failure_prob(storm_prob);
                    engine.run_to_completion()
                })
                .collect();
            prop_assert_eq!(reports[0].completed(), 48);
            prop_assert_eq!(reports[0].peak_inflight, 32);
            prop_assert!(
                reports[0].stats.ecc_soft_fallbacks > 100,
                "the storm must bite: {} soft fallbacks",
                reports[0].stats.ecc_soft_fallbacks
            );
            prop_assert_eq!(
                &reports[0],
                &reports[1],
                "pooled ranges diverged from inline at 2 threads"
            );
            prop_assert_eq!(
                &reports[0],
                &reports[2],
                "pooled ranges diverged from inline at 4 threads"
            );
            Ok(())
        },
    );
}
