//! Property test: sharded scatter–gather serving is element-identical to
//! the unsharded engine.
//!
//! The merge theorem `top_k(S) = top_k(∪ᵢ top_k(Sᵢ))` holds whenever
//! each shard contributes its *exact* top-k. The test pins the engines to
//! that regime by serving with a beam width at least the dataset size, so
//! both the unsharded search and every per-shard search are exhaustive
//! over their (connected) graphs — then asserts, over randomized
//! datasets, tombstone sets and seeds, that the cluster's merged top-k
//! equals the unsharded [`ServeEngine`]'s top-k *element-wise* (distances
//! and global ids) for every shard count in {1, 2, 4, 8}. Tombstones
//! are applied through each engine's own update path, so delete routing
//! and result filtering are under test too.

use proptest::prelude::*;
use proptest::test_runner::{Config, TestRng};

use ndsearch::anns::index::MutableIndex;
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::cluster::{ClusterEngine, ReplicaPolicy, ReplicationConfig};
use ndsearch::core::config::NdsConfig;
use ndsearch::core::deploy::Deployment;
use ndsearch::core::serve::{QueryRequest, ServeConfig, ServeEngine, UpdateRequest};
use ndsearch::vector::shard::{ShardPlan, ShardPolicy};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::{Dataset, VectorId};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn vamana_builder(ds: &Dataset) -> (Box<dyn MutableIndex>, VectorId) {
    let index = Vamana::build(ds, VamanaParams::default());
    let entry = index.medoid();
    (Box::new(index), entry)
}

#[test]
fn sharded_topk_is_element_identical_to_unsharded() {
    proptest::test_runner::run(
        Config { cases: 3 },
        "sharded_topk_is_element_identical_to_unsharded",
        |rng: &mut TestRng| {
            let n = (150usize..240).generate(rng);
            let q = (3usize..6).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let mut config = NdsConfig::scaled_for(n, base.stored_vector_bytes());
            config.ecc.hard_decision_failure_prob = 0.0;
            // Exhaustive regime: beam width ≥ n makes every search exact
            // over its (sub-)corpus, so parity is the merge theorem, not
            // luck.
            let serve = ServeConfig {
                beam_width: n,
                k: (4usize..12).generate(rng),
                ..ServeConfig::default()
            };
            let tombstones: Vec<VectorId> = {
                let count = (0usize..12).generate(rng);
                let mut ids: Vec<VectorId> = (0..count)
                    .map(|_| (0..n).generate(rng) as VectorId)
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            };

            // ---- Unsharded reference: mutable deployment, deletes
            // through the update path, then the queries. ----
            let index = Vamana::build(&base, VamanaParams::default());
            let medoid = index.medoid();
            let deploy = Deployment::stage(&config, Box::new(index), base.clone());
            let mut flat = ServeEngine::with_deployment(&config, serve.clone(), deploy);
            for &t in &tombstones {
                flat.submit_update(UpdateRequest::delete_at(0, t));
            }
            flat.run_to_completion();
            for (_, qv) in queries.iter() {
                flat.submit(QueryRequest::at(0, qv.to_vec(), vec![medoid]));
            }
            let flat_report = flat.run_to_completion();
            prop_assert_eq!(flat_report.completed(), q);

            for shards in SHARD_COUNTS {
                // `partition` ignores its seed: every plan is contiguous.
                let plan = ShardPlan::partition(n, shards, ShardPolicy::BalancedSize, 0);
                let mut cluster = ClusterEngine::stage_replicated(
                    &config,
                    serve.clone(),
                    plan,
                    ReplicationConfig::default(),
                    &base,
                    vamana_builder,
                );
                for &t in &tombstones {
                    cluster.submit_update(UpdateRequest::delete_at(0, t));
                }
                cluster.run_to_completion();
                for (_, qv) in queries.iter() {
                    cluster.submit(QueryRequest::at(0, qv.to_vec(), Vec::new()));
                }
                let report = cluster.run_to_completion();
                prop_assert_eq!(report.updates_completed(), tombstones.len());
                for (i, outcome) in report.outcomes.iter().enumerate() {
                    let want = &flat_report.outcomes[i].results;
                    prop_assert_eq!(
                        &outcome.results,
                        want,
                        "query {} diverged at {} shards \
                         (n = {}, k = {}, {} tombstones)",
                        i,
                        shards,
                        n,
                        serve.k,
                        tombstones.len()
                    );
                    // No tombstone may surface from any shard.
                    for t in &tombstones {
                        prop_assert!(!outcome.results.iter().any(|nb| nb.id == *t));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Replication parity: replicas of a shard are deterministic twins (same
/// sub-dataset, same build, same update fan-out), so in the exhaustive
/// regime a no-failure cluster with R ∈ {2, 3} replicas returns
/// element-identical top-k to the single-replica cluster under every
/// routing policy — tombstones applied through the replicated update
/// path included.
#[test]
fn replicated_topk_is_element_identical_to_single_replica() {
    proptest::test_runner::run(
        Config { cases: 2 },
        "replicated_topk_is_element_identical_to_single_replica",
        |rng: &mut TestRng| {
            let n = (150usize..240).generate(rng);
            let q = (3usize..6).generate(rng);
            let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
            let mut config = NdsConfig::scaled_for(n, base.stored_vector_bytes());
            config.ecc.hard_decision_failure_prob = 0.0;
            let serve = ServeConfig {
                beam_width: n,
                k: (4usize..12).generate(rng),
                ..ServeConfig::default()
            };
            let tombstones: Vec<VectorId> = {
                let count = (0usize..10).generate(rng);
                let mut ids: Vec<VectorId> = (0..count)
                    .map(|_| (0..n).generate(rng) as VectorId)
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            };
            let shards = 2usize;

            let run = |replication: ReplicationConfig| {
                // `partition` ignores its seed: every plan is contiguous.
                let plan = ShardPlan::partition(n, shards, ShardPolicy::BalancedSize, 0);
                let mut cluster = ClusterEngine::stage_replicated(
                    &config,
                    serve.clone(),
                    plan,
                    replication,
                    &base,
                    vamana_builder,
                );
                for &t in &tombstones {
                    cluster.submit_update(UpdateRequest::delete_at(0, t));
                }
                cluster.run_to_completion();
                for (_, qv) in queries.iter() {
                    cluster.submit(QueryRequest::at(0, qv.to_vec(), Vec::new()));
                }
                cluster.run_to_completion()
            };

            let reference = run(ReplicationConfig::default());
            prop_assert_eq!(reference.completed(), q);
            prop_assert_eq!(reference.updates_completed(), tombstones.len());
            for replicas in [2usize, 3] {
                for policy in [
                    ReplicaPolicy::RoundRobin,
                    ReplicaPolicy::Hedged { delay_ns: 25_000 },
                ] {
                    let report = run(ReplicationConfig::replicated(replicas).with_policy(policy));
                    prop_assert_eq!(report.updates_completed(), tombstones.len());
                    prop_assert_eq!(report.completed(), q);
                    prop_assert_eq!(report.failovers(), 0);
                    for (i, outcome) in report.outcomes.iter().enumerate() {
                        prop_assert_eq!(
                            &outcome.results,
                            &reference.outcomes[i].results,
                            "query {} diverged at R = {} / {:?} (n = {}, k = {}, \
                             {} tombstones)",
                            i,
                            replicas,
                            policy,
                            n,
                            serve.k,
                            tombstones.len()
                        );
                        for t in &tombstones {
                            prop_assert!(!outcome.results.iter().any(|nb| nb.id == *t));
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
