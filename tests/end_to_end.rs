//! End-to-end integration: every ANNS algorithm → traces → static
//! scheduling → NDSEARCH engine, with recall and report sanity checks —
//! plus the 4-shard scatter–gather cluster at the same recall gates.

use ndsearch::anns::hcnng::{Hcnng, HcnngParams};
use ndsearch::anns::hnsw::{Hnsw, HnswParams};
use ndsearch::anns::index::{GraphAnnsIndex, MutableIndex, SearchParams};
use ndsearch::anns::togg::{Togg, ToggParams};
use ndsearch::anns::trace::BatchTrace;
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::cluster::{ClusterEngine, ReplicationConfig};
use ndsearch::core::config::{NdsConfig, RESULT_LIST_ENTRIES};
use ndsearch::core::engine::NdsEngine;
use ndsearch::core::pipeline::Prepared;
use ndsearch::core::serve::{QueryRequest, ServeConfig, ServeEngine, SessionState, UpdateRequest};
use ndsearch::vector::recall::{exact_knn, ground_truth, recall_at_k};
use ndsearch::vector::shard::{ShardPlan, ShardPolicy};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::{Dataset, DistanceKind, QuantSpec, VectorId};

fn pipeline(index: &dyn GraphAnnsIndex, min_recall: f64) {
    let (base, queries) = DatasetSpec::sift_scaled(700, 24).build_pair();
    let params = SearchParams::new(10, 80, DistanceKind::L2);
    let out = index.search_batch(&base, &queries, &params);

    // Quality.
    let gt = ground_truth(&base, &queries, 10, DistanceKind::L2);
    let recall = recall_at_k(&gt, &out.id_lists(), 10);
    assert!(
        recall >= min_recall,
        "{}: recall {recall} below {min_recall}",
        index.algorithm()
    );

    // Architecture replay.
    let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    let prepared = Prepared::stage(&config, index.base_graph(), &base, &out.trace);
    let report = NdsEngine::new(&config).run(&prepared);
    assert_eq!(report.queries, 24);
    assert!(report.total_ns > 0);
    assert_eq!(report.trace_len, out.trace.total_visited());
    assert!(report.stats.page_reads > 0);
    assert!(report.breakdown.total_ns() == report.total_ns);
    assert!(report.lun_coverage > 0.0);
}

#[test]
fn hnsw_end_to_end() {
    let base = DatasetSpec::sift_scaled(700, 24).build();
    let index = Hnsw::build(&base, HnswParams::default());
    pipeline(&index, 0.85);
}

#[test]
fn diskann_end_to_end() {
    let base = DatasetSpec::sift_scaled(700, 24).build();
    let index = Vamana::build(&base, VamanaParams::default());
    pipeline(&index, 0.85);
}

#[test]
fn hcnng_end_to_end() {
    let base = DatasetSpec::sift_scaled(700, 24).build();
    let index = Hcnng::build(&base, HcnngParams::default());
    pipeline(&index, 0.75);
}

#[test]
fn togg_end_to_end() {
    let base = DatasetSpec::sift_scaled(700, 24).build();
    let index = Togg::build(&base, ToggParams::default());
    pipeline(&index, 0.80);
}

/// Compressed-vector serving gate at 4x the corpus of the pipelines
/// above (700 -> 2800): beam traversal scores DRAM-resident codes, only
/// the final `rerank_depth` candidates pay exact-distance flash reads,
/// and recall must clear the same bar as the full-precision gates.
fn quantized_pipeline(
    graph: &ndsearch::graph::Csr,
    entry: VectorId,
    base: &Dataset,
    min_recall: f64,
    label: &str,
) {
    let queries = DatasetSpec::sift_scaled(2800, 24).build_pair().1;
    let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    config.quantization = QuantSpec::Int8;
    let prepared = Prepared::stage(&config, graph, base, &BatchTrace::default());
    let serve = ServeConfig {
        k: 10,
        beam_width: 80,
        rerank_depth: 40,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&config, serve, &prepared, base, graph);
    let codes = engine
        .deployment()
        .codes()
        .expect("quantization staged a code table");
    assert_eq!(codes.len(), base.len());
    for (_, q) in queries.iter() {
        engine.submit(QueryRequest::at(0, q.to_vec(), vec![entry]));
    }
    let report = engine.run_to_completion();
    assert_eq!(
        report.completed(),
        queries.len(),
        "{label}: queries dropped"
    );
    let ids: Vec<Vec<VectorId>> = report
        .outcomes
        .iter()
        .map(|o| o.results.iter().map(|n| n.id).collect())
        .collect();
    let gt = ground_truth(base, &queries, 10, DistanceKind::L2);
    let recall = recall_at_k(&gt, &ids, 10);
    assert!(
        recall >= min_recall,
        "{label}: quantized+rerank recall {recall} below {min_recall} at n=2800"
    );
    // Traversal stayed in DRAM: flash reads come only from the exact
    // rerank of the final candidates.
    assert_eq!(
        report.breakdown.nand_read_ns, 0,
        "{label}: hops touched NAND"
    );
    assert!(
        report.breakdown.rerank_ns > 0,
        "{label}: rerank charged no flash time"
    );
    assert!(report.stats.page_reads > 0, "{label}: rerank read no pages");
    assert!(
        report.breakdown.dram_ns > 0,
        "{label}: code scoring charged no DRAM"
    );
}

#[test]
fn hnsw_quantized_end_to_end() {
    let base = DatasetSpec::sift_scaled(2800, 24).build();
    let index = Hnsw::build(&base, HnswParams::default());
    let entry = index.entry_point();
    quantized_pipeline(index.base_graph(), entry, &base, 0.85, "HNSW");
}

#[test]
fn vamana_quantized_end_to_end() {
    let base = DatasetSpec::sift_scaled(2800, 24).build();
    let index = Vamana::build(&base, VamanaParams::default());
    let entry = index.medoid();
    quantized_pipeline(index.base_graph(), entry, &base, 0.85, "Vamana");
    quantized_beats_full_precision(DatasetSpec::deep_scaled(700, 32));
}

/// The int8 rerank-depth gate on a deep-1b-like corpus (f32 rows, so
/// int8 is a 4× DRAM saving): every rerank depth keeps its codes under
/// half the full-precision bytes, and the fastest configuration clearing
/// recall 0.85 out-serves the full-precision engine.
fn quantized_beats_full_precision(corpus: DatasetSpec) {
    let (base, queries) = corpus.build_pair();
    let index = Vamana::build(&base, VamanaParams::default());
    let (graph, medoid) = (index.base_graph(), index.medoid());
    let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    let prepared = Prepared::stage(&config, graph, &base, &BatchTrace::default());
    let gt = ground_truth(&base, &queries, 10, DistanceKind::L2);
    let full_bytes = (base.stored_vector_bytes() * base.len()) as f64;
    // Sim-QPS, recall and code DRAM as a share of full precision.
    let run = |quantization, rerank_depth| {
        let config = NdsConfig {
            quantization,
            ..config.clone()
        };
        let serve = ServeConfig {
            k: 10,
            beam_width: 80,
            max_inflight: 16,
            rerank_depth,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&config, serve, &prepared, &base, graph);
        let dram = engine
            .deployment()
            .codes()
            .map_or(1.0, |c| c.total_bytes() as f64 / full_bytes);
        for (_, q) in queries.iter() {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![medoid]));
        }
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), queries.len());
        let ids: Vec<Vec<VectorId>> = report
            .outcomes
            .iter()
            .map(|o| o.results.iter().map(|n| n.id).collect())
            .collect();
        (report.qps(), recall_at_k(&gt, &ids, 10), dram)
    };
    let (full_qps, ..) = run(QuantSpec::None, 32);
    let mut best_gated_qps = 0.0f64;
    for depth in [10, 32, 64] {
        let (qps, recall, dram) = run(QuantSpec::Int8, depth);
        assert!(dram < 0.5, "int8 @ {depth}: code DRAM {dram:.2}x");
        if recall >= 0.85 {
            best_gated_qps = best_gated_qps.max(qps);
        }
    }
    assert!(
        best_gated_qps > full_qps,
        "best config at recall >= 0.85 serves {best_gated_qps:.0} QPS vs full precision {full_qps:.0}"
    );
}

/// Regression: QPT DRAM accounting must not silently revert to
/// full-precision record sizes after a deployment churns (inserts,
/// deletes, compaction) and a successor engine is staged from it. Int8
/// on deep-1b makes the gap unmistakable: 96-byte codes vs 384-byte
/// stored f32 rows, so a reverted table admits strictly fewer residents
/// under the same DRAM budget.
#[test]
fn churned_quantized_deployment_keeps_code_byte_qpt_accounting() {
    use ndsearch::core::deploy::Deployment;
    use ndsearch::core::qpt::QueryPropertyTable;

    let (base, extra) = DatasetSpec::deep_scaled(400, 24).build_pair();
    let index = Vamana::build(&base, VamanaParams::default());
    let medoid = index.medoid();
    let mut config = NdsConfig::scaled_for(800, base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    config.quantization = QuantSpec::Int8;
    let deploy = Deployment::stage(&config, Box::new(index), base.clone());
    let code_bytes = deploy.codes().expect("codes staged").code_bytes();
    assert_eq!(code_bytes, 96);

    // Budget sized in *code* records: a full-precision record is
    // 288 bytes larger, so the reverted accounting caps residency lower.
    let residents = 10usize;
    let quant_record = QueryPropertyTable::new(1, code_bytes, RESULT_LIST_ENTRIES);
    let full_record = QueryPropertyTable::new(1, base.stored_vector_bytes(), RESULT_LIST_ENTRIES);
    let budget = quant_record.record_bytes() * residents as u64;
    assert!(
        full_record.max_resident(budget) < residents,
        "gap too small to detect a revert"
    );
    let serve = ServeConfig {
        k: 10,
        beam_width: 48,
        max_inflight: 64,
        rerank_depth: 24,
        qpt_dram_budget_bytes: budget,
        ..ServeConfig::default()
    };

    // Churn: queries racing inserts and deletes, then compaction.
    let mut engine = ServeEngine::with_deployment(&config, serve.clone(), deploy);
    assert_eq!(engine.max_inflight(), residents, "pre-churn QPT accounting");
    for (i, (_, q)) in extra.iter().take(8).enumerate() {
        engine.submit(QueryRequest::at(i as u64 * 1_000, q.to_vec(), vec![medoid]));
    }
    for i in 0..12u32 {
        engine.submit_update(UpdateRequest::insert_at(
            u64::from(i) * 800,
            extra.vector(i % extra.len() as u32).to_vec(),
        ));
        engine.submit_update(UpdateRequest::delete_at(u64::from(i) * 900 + 50, i * 7));
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completed(), 8);
    assert!(report.updates_completed() > 0);
    let compaction = engine.compact().expect("mutable deployment compacts");
    assert!(compaction.blocks_erased > 0);

    // The churned deployment still carries one code per (grown) row...
    let deploy = engine.into_deployment();
    let codes = deploy.codes().expect("codes survive churn");
    assert_eq!(codes.len(), deploy.dataset().len());
    assert_eq!(codes.code_bytes(), code_bytes);

    // ...and a successor engine staged from it must derive QPT records
    // from code bytes, not the full-precision rows.
    let mut engine = ServeEngine::with_deployment(&config, serve, deploy);
    assert_eq!(
        engine.max_inflight(),
        residents,
        "post-churn QPT accounting reverted to full-precision records"
    );
    for (i, (_, q)) in extra.iter().take(8).enumerate() {
        engine.submit(QueryRequest::at(i as u64 * 1_000, q.to_vec(), vec![medoid]));
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completed(), 8);
    assert!(report.breakdown.rerank_ns > 0, "post-churn rerank inactive");
}

/// Serves the benchmark queries through a 4-shard scatter–gather cluster
/// and gates the merged recall at the same threshold as the single-device
/// pipeline above.
fn cluster_pipeline(
    build: impl Fn(&Dataset) -> (Box<dyn MutableIndex>, VectorId),
    min_recall: f64,
    label: &str,
) {
    let (base, queries) = DatasetSpec::sift_scaled(700, 24).build_pair();
    let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    let serve = ServeConfig {
        k: 10,
        beam_width: 80,
        ..ServeConfig::default()
    };
    let plan = ShardPlan::partition(base.len(), 4, ShardPolicy::BalancedSize, 0x5A);
    let replication = ReplicationConfig::default();
    let mut cluster =
        ClusterEngine::stage_replicated(&config, serve, plan, replication, &base, build);
    for (_, q) in queries.iter() {
        cluster.submit(QueryRequest::at(0, q.to_vec(), Vec::new()));
    }
    let report = cluster.run_to_completion();
    assert_eq!(
        report.completed(),
        queries.len(),
        "{label}: queries dropped"
    );

    let merged: Vec<Vec<VectorId>> = report
        .outcomes
        .iter()
        .map(|o| o.results.iter().map(|n| n.id).collect())
        .collect();
    let gt = ground_truth(&base, &queries, 10, DistanceKind::L2);
    let recall = recall_at_k(&gt, &merged, 10);
    assert!(
        recall >= min_recall,
        "{label}: 4-shard recall {recall} below {min_recall}"
    );

    // The cluster really fanned out: every shard served every query and
    // the balanced partition kept the load near-even.
    assert_eq!(report.shards.len(), 4);
    for s in &report.shards {
        let served: usize = s.replicas.iter().map(|r| r.report.completed()).sum();
        assert_eq!(served, queries.len());
        assert!(s.hops > 0);
        assert!(s.replicas.iter().any(|r| r.report.stats.page_reads > 0));
    }
    assert!(report.load_imbalance() >= 1.0);
    assert!(report.qps() > 0.0);
    assert!(report.latency().p99_ns >= report.latency().p50_ns);
}

#[test]
fn hnsw_cluster_end_to_end() {
    cluster_pipeline(
        |ds| {
            let index = Hnsw::build(ds, HnswParams::default());
            let entry = index.entry_point();
            (Box::new(index) as Box<dyn MutableIndex>, entry)
        },
        0.85,
        "HNSW",
    );
}

#[test]
fn vamana_cluster_end_to_end() {
    cluster_pipeline(
        |ds| {
            let index = Vamana::build(ds, VamanaParams::default());
            let entry = index.medoid();
            (Box::new(index) as Box<dyn MutableIndex>, entry)
        },
        0.85,
        "Vamana",
    );
}

/// Mixed query + update churn on a 4-shard cluster: ingest a tail of the
/// corpus and tombstone part of the head while queries are in flight,
/// then gate recall on the *live* set (inserted vectors present, deleted
/// vectors excluded) against exact search over it.
#[test]
fn cluster_churn_mixed_queries_and_updates() {
    const N_FULL: usize = 700;
    const N_BASE: usize = 600;
    let (full, queries) = DatasetSpec::sift_scaled(N_FULL, 20).build_pair();
    let mut base = Dataset::new(full.dim());
    for (_, v) in full.iter().take(N_BASE) {
        base.try_push(v).unwrap();
    }
    base.set_stored_vector_bytes(full.stored_vector_bytes());
    let mut config = NdsConfig::scaled_for(N_FULL * 2, full.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    let serve = ServeConfig {
        k: 10,
        beam_width: 80,
        ..ServeConfig::default()
    };
    let plan = ShardPlan::partition(N_BASE, 4, ShardPolicy::BalancedSize, 0x5A);
    let replication = ReplicationConfig::default();
    let mut cluster =
        ClusterEngine::stage_replicated(&config, serve, plan, replication, &base, |ds| {
            let index = Vamana::build(ds, VamanaParams::default());
            let entry = index.medoid();
            (Box::new(index) as Box<dyn MutableIndex>, entry)
        });

    // ---- Churn: ingest the tail, tombstone every 9th base vector,
    // queries interleaved throughout. ----
    let deleted: Vec<VectorId> = (0..N_BASE as VectorId).step_by(9).collect();
    for id in N_BASE..N_FULL {
        cluster.submit_update(UpdateRequest::insert_at(
            (id - N_BASE) as u64 * 1_000,
            full.vector(id as VectorId).to_vec(),
        ));
    }
    for (i, &d) in deleted.iter().enumerate() {
        cluster.submit_update(UpdateRequest::delete_at(i as u64 * 1_500, d));
    }
    for (i, (_, q)) in queries.iter().enumerate() {
        cluster.submit(QueryRequest::at(i as u64 * 2_000, q.to_vec(), Vec::new()));
    }
    let churn = cluster.run_to_completion();
    assert_eq!(
        churn.updates_completed(),
        (N_FULL - N_BASE) + deleted.len(),
        "updates dropped"
    );
    assert_eq!(churn.completed(), queries.len());
    // Flash writes charged, summed over every replica device.
    let updates: Vec<_> = churn
        .shards
        .iter()
        .flat_map(|s| &s.replicas)
        .map(|r| r.report.updates)
        .collect();
    assert!(updates.iter().map(|u| u.pages_programmed).sum::<u64>() > 0);
    let user: u64 = updates.iter().map(|u| u.user_bytes).sum();
    let flash: u64 = updates.iter().map(|u| u.flash_bytes).sum();
    assert!(
        user > 0 && flash > 0,
        "write amplification must be positive"
    );
    // Inserted ids extend the global space in submission order.
    assert_eq!(cluster.plan().len(), N_FULL);

    // ---- Post-churn wave: results must reflect the live set. ----
    for (_, q) in queries.iter() {
        cluster.submit(QueryRequest::at(0, q.to_vec(), Vec::new()));
    }
    let after = cluster.run_to_completion();
    let wave = &after.outcomes[queries.len()..];
    let gt: Vec<Vec<VectorId>> = queries
        .iter()
        .map(|(_, q)| {
            exact_knn(&full, q, full.len(), DistanceKind::L2)
                .into_iter()
                .filter(|n| !deleted.contains(&n.id))
                .take(10)
                .map(|n| n.id)
                .collect()
        })
        .collect();
    let mut hits = 0usize;
    for (o, want) in wave.iter().zip(&gt) {
        assert_eq!(o.state, SessionState::Completed);
        assert!(!o.results.is_empty());
        for n in &o.results {
            assert!(
                !deleted.contains(&n.id),
                "query {} surfaced tombstoned vertex {}",
                o.id,
                n.id
            );
            if want.contains(&n.id) {
                hits += 1;
            }
        }
    }
    let recall = hits as f64 / (wave.len() * 10) as f64;
    assert!(
        recall >= 0.80,
        "post-churn 4-shard recall {recall} below 0.80"
    );
}
