//! Property test: a cluster run is bit-identical at any thread count.
//!
//! The repo has one host-side fan-out — `ClusterEngine` steps whole
//! replica devices on `exec_threads` threads (`core::exec`); a single
//! `ServeEngine` or `NdsEngine` runs inline and never reads the knob. So
//! over randomized datasets, scheduling toggles, ECC failure rates and
//! seeds, the full cluster report — merged outcomes, update outcomes,
//! every per-shard and per-replica breakdown — must be byte-for-byte the
//! same at `exec_threads` ∈ {1, 2, 3, 8} and under every shard step
//! order. Every case stages 4 shards × 2 replicas = 8 devices: 2 threads
//! take four each, 3 cut them 3 / 3 / 2, 8 take one each.
//!
//! Uses the vendored proptest's deterministic runner directly (engine
//! runs are too heavy for the default 256-case count).

use proptest::prelude::*;
use proptest::test_runner::{Config, TestRng};

use ndsearch::anns::index::MutableIndex;
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::cluster::{
    ClusterEngine, ClusterReport, FailureSchedule, ReplicaPolicy, ReplicationConfig,
};
use ndsearch::core::config::NdsConfig;
use ndsearch::core::serve::{QueryRequest, ServeConfig, ServeEngine, UpdateRequest};
use ndsearch::flash::timing::Nanos;
use ndsearch::vector::quant::QuantSpec;
use ndsearch::vector::shard::{ShardPlan, ShardPolicy};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::{Dataset, VectorId};

const SHARDS: usize = 4;
const REPLICAS: usize = 2;

/// A cluster run moves whole replica engines between threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ServeEngine<'static>>();
};

fn random_config(rng: &mut TestRng, n: usize, vector_bytes: usize) -> NdsConfig {
    let mut config = NdsConfig::scaled_for(n, vector_bytes);
    config.seed = (0u64..u64::MAX).generate(rng);
    config.ecc.seed = (0u64..u64::MAX).generate(rng);
    // Fault injection on in most cases: every device draws from its own
    // counter-indexed ECC streams, whichever thread steps it.
    config.ecc.hard_decision_failure_prob = [0.0, 0.05, 0.3][(0usize..3).generate(rng)];
    config.scheduling.dynamic_allocating = any::<bool>().generate(rng);
    config.scheduling.speculative = any::<bool>().generate(rng);
    config.spec_budget_factor = (0.5f64..2.0).generate(rng);
    config
}

fn vamana_builder(ds: &Dataset) -> (Box<dyn MutableIndex>, VectorId) {
    let index = Vamana::build(ds, VamanaParams::default());
    let entry = index.medoid();
    (Box::new(index), entry)
}

/// Submits every query, `interarrival` ns apart, and `n_inserts` online
/// inserts (query vectors again) interleaved 500 ns behind them.
fn submit_stream(
    cluster: &mut ClusterEngine<'_>,
    queries: &Dataset,
    interarrival: Nanos,
    n_inserts: usize,
) {
    for (i, (_, qv)) in queries.iter().enumerate() {
        cluster.submit(QueryRequest::at(
            i as Nanos * interarrival,
            qv.to_vec(),
            Vec::new(),
        ));
    }
    for i in 0..n_inserts {
        cluster.submit_update(UpdateRequest::insert_at(
            i as Nanos * interarrival + 500,
            queries.vector((i % queries.len()) as u32).to_vec(),
        ));
    }
}

/// Runs the cluster at every thread count and under permuted shard step
/// orders; every report must equal the 1-thread, index-order one, which
/// is returned.
fn same_at_every_thread_count_and_shard_order(
    run: impl Fn(usize, &[usize]) -> ClusterReport,
) -> Result<ClusterReport, TestCaseError> {
    let identity: Vec<usize> = (0..SHARDS).collect();
    let reference = run(1, &identity);
    for threads in [2usize, 3, 8] {
        let report = run(threads, &identity);
        prop_assert_eq!(
            &reference,
            &report,
            "cluster diverged between 1 and {} threads",
            threads
        );
        // The latency roll-up is simulated too: no host timing in it.
        prop_assert_eq!(reference.latency(), report.latency());
    }
    for (threads, order) in [
        (1usize, [3usize, 1, 0, 2]),
        (2, [2, 3, 0, 1]),
        (3, [1, 0, 3, 2]),
        (8, [3, 2, 1, 0]),
    ] {
        prop_assert_eq!(
            &reference,
            &run(threads, &order),
            "cluster diverged at {} threads under shard step order {:?}",
            threads,
            order
        );
    }
    Ok(reference)
}

/// Quantized cluster serving: each device trains its own code table at
/// staging, quantized round costs are derived from hop traces in slot
/// order, and the sessions finishing in a round rerank as one batch on
/// their device's own path — its arena, SiN units in LUN order, its ECC
/// failure streams and per-LUN occupancy clocks — so the merged report
/// (rerank latency bucket, page-read, page-hit and soft-decode stats
/// included) is the same on any number of threads, inserts (encoded
/// through each device's trained quantizer) in flight.
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
            config.quantization = QuantSpec::Int8;
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                rerank_depth: (8usize..32).generate(rng),
                max_updates_per_round: (1usize..4).generate(rng),
                ..ServeConfig::default()
            };
            let interarrival = (0u64..2_000).generate(rng);
            let n_inserts = (3usize..8).generate(rng);

            let reference = same_at_every_thread_count_and_shard_order(|threads, order| {
                let mut c = config.clone();
                c.exec_threads = threads;
                // `partition` ignores its seed: every plan is contiguous.
                let plan = ShardPlan::partition(n, SHARDS, ShardPolicy::BalancedSize, 0);
                let mut cluster = ClusterEngine::stage_replicated(
                    &c,
                    serve.clone(),
                    plan,
                    ReplicationConfig::replicated(REPLICAS),
                    &base,
                    vamana_builder,
                );
                submit_stream(&mut cluster, &queries, interarrival, n_inserts);
                cluster.run_to_completion_ordered(order)
            })?;
            prop_assert_eq!(reference.completed(), q);
            Ok(())
        },
    );
}

/// Sharded scatter–gather serving with online inserts and deletes fanned
/// out to both replicas of the owning shard, under round-robin or hedged
/// routing: replica devices share no state, so
/// which thread steps which device cannot show in the report.
#[test]
fn cluster_report_bit_identical_across_thread_counts_and_shard_order() {
    proptest::test_runner::run(
        Config { cases: 2 },
        "cluster_report_bit_identical_across_thread_counts_and_shard_order",
        |rng| {
            let n = (200usize..320).generate(rng);
            let q = (4usize..9).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let config = random_config(rng, n * 2, base.stored_vector_bytes());
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                max_updates_per_round: (1usize..4).generate(rng),
                ..ServeConfig::default()
            };
            let routing = if any::<bool>().generate(rng) {
                ReplicaPolicy::RoundRobin
            } else {
                ReplicaPolicy::Hedged {
                    delay_ns: (10_000u64..200_000).generate(rng),
                }
            };
            let interarrival = (0u64..2_000).generate(rng);
            let n_inserts = (3usize..10).generate(rng);
            let n_deletes = (1usize..6).generate(rng);

            let reference = same_at_every_thread_count_and_shard_order(|threads, order| {
                let mut c = config.clone();
                c.exec_threads = threads;
                // `partition` ignores its seed: every plan is contiguous.
                let plan = ShardPlan::partition(n, SHARDS, ShardPolicy::BalancedSize, 0);
                let mut cluster = ClusterEngine::stage_replicated(
                    &c,
                    serve.clone(),
                    plan,
                    ReplicationConfig::replicated(REPLICAS).with_policy(routing),
                    &base,
                    vamana_builder,
                );
                submit_stream(&mut cluster, &queries, interarrival, n_inserts);
                for i in 0..n_deletes {
                    cluster.submit_update(UpdateRequest::delete_at(
                        i as Nanos * interarrival + 900,
                        (i * 7) as VectorId % n as VectorId,
                    ));
                }
                cluster.run_to_completion_ordered(order)
            })?;
            prop_assert!(reference.updates_completed() > 0);
            Ok(())
        },
    );
}

/// Replicated serving with everything in flight at once: a replica killed
/// almost immediately (its sessions fail over), an ECC storm on another
/// device mid-run, hedged routing racing backups against the straggler,
/// and inserts fanned out to the surviving replicas. Failure events and
/// hedges fire at round boundaries on the calling thread, from simulated
/// clocks in fixed schedule/submission order, so the full cluster report
/// — failover re-seeds, hedge races, availability, per-replica
/// breakdowns — reproduces bit-identically.
#[test]
fn replicated_failover_bit_identical_across_thread_counts_and_shard_order() {
    proptest::test_runner::run(
        Config { cases: 3 },
        "replicated_failover_bit_identical_across_thread_counts_and_shard_order",
        |rng| {
            let n = (200usize..320).generate(rng);
            let q = (5usize..9).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let config = random_config(rng, n * 2, base.stored_vector_bytes());
            let serve = ServeConfig {
                max_inflight: (2usize..8).generate(rng),
                beam_width: (16usize..48).generate(rng),
                ..ServeConfig::default()
            };
            let interarrival = (100u64..2_000).generate(rng);
            let n_inserts = (2usize..6).generate(rng);
            let policy = if (0usize..3).generate(rng) == 0 {
                ReplicaPolicy::RoundRobin
            } else {
                ReplicaPolicy::Hedged {
                    delay_ns: (10_000u64..200_000).generate(rng),
                }
            };
            // Kill one replica almost immediately (so sessions are still
            // in flight and must fail over) and storm another mid-run.
            let kill_shard = (0usize..SHARDS).generate(rng);
            let storm_at = (0u64..100_000).generate(rng);
            let failures = FailureSchedule::new().kill(1, kill_shard, 0).ecc_storm(
                storm_at,
                (kill_shard + 1) % SHARDS,
                1,
                0.9,
            );
            let replication = ReplicationConfig::replicated(REPLICAS)
                .with_policy(policy)
                .with_failures(failures);

            let reference = same_at_every_thread_count_and_shard_order(|threads, order| {
                let mut c = config.clone();
                c.exec_threads = threads;
                // BalancedSize never leaves a shard empty, so the killed
                // replica always had sessions to fail over.
                // `partition` ignores its seed: every plan is contiguous.
                let plan = ShardPlan::partition(n, SHARDS, ShardPolicy::BalancedSize, 0);
                let mut cluster = ClusterEngine::stage_replicated(
                    &c,
                    serve.clone(),
                    plan,
                    replication.clone(),
                    &base,
                    vamana_builder,
                );
                submit_stream(&mut cluster, &queries, interarrival, n_inserts);
                cluster.run_to_completion_ordered(order)
            })?;
            prop_assert_eq!(reference.completed(), q, "failover lost sessions");
            prop_assert!(reference.failovers() > 0, "kill at t=1 must fail over");
            prop_assert!(reference.availability() > 0.0 && reference.availability() <= 1.0);
            prop_assert!(reference.updates_completed() > 0);
            Ok(())
        },
    );
}

/// Scenario-engine traffic over the cluster tier: a multi-tenant Poisson
/// trace (Zipfian hotspots, deadlines, inserts and deletes) served under
/// `SloPolicy::ShedDoomed`. The shed estimator runs on each device's
/// simulated counters only, so thread count must not leak into shedding
/// or the merged outcomes.
#[test]
fn scenario_traffic_with_shedding_bit_identical_across_thread_counts() {
    use ndsearch::core::serve::SloPolicy;
    use ndsearch::core::traffic::{ArrivalModel, QueryMix, Scenario, TenantProfile};

    let (base, queries) = DatasetSpec::sift_scaled(300, 8).build_pair();
    let mut config = NdsConfig::scaled_for(600, base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    let serve = ServeConfig {
        max_inflight: 4,
        beam_width: 32,
        slo: SloPolicy::ShedDoomed { min_slack_ns: 0 },
        ..ServeConfig::default()
    };
    let scenario = Scenario {
        arrivals: ArrivalModel::Poisson {
            rate_qps: 400_000.0,
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

    let run = |threads: usize| {
        let mut c = config.clone();
        c.exec_threads = threads;
        let plan = ShardPlan::partition(300, SHARDS, ShardPolicy::BalancedSize, 0x5A);
        let replication = ReplicationConfig::default();
        let mut cluster = ClusterEngine::stage_replicated(
            &c,
            serve.clone(),
            plan,
            replication,
            &base,
            vamana_builder,
        );
        trace.submit_cluster(&mut cluster, &queries, &queries);
        cluster.run_to_completion()
    };
    let reference = run(1);
    assert_eq!(reference.outcomes.len(), trace.queries());
    assert_eq!(reference.update_outcomes.len(), trace.updates());
    for threads in [2usize, 3, 8] {
        assert_eq!(
            reference,
            run(threads),
            "scenario traffic diverged between 1 and {threads} threads"
        );
    }
}
