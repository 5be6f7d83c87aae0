//! Integration tests of the mutable-deployment serving path: online
//! inserts/deletes as update sessions, flash write-path charging, and the
//! churn-recall acceptance gate (live overlay within 0.02 of a
//! from-scratch rebuild at equal parameters).

use ndsearch::anns::index::{GraphAnnsIndex, SearchParams};
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::config::NdsConfig;
use ndsearch::core::deploy::Deployment;
use ndsearch::core::serve::{QueryRequest, ServeConfig, ServeEngine, SessionState, UpdateRequest};
use ndsearch::vector::recall::{ground_truth, recall_at_k};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::{Dataset, DistanceKind, VectorId};

const N_FULL: usize = 800;
const N_BASE: usize = 600;
const N_QUERIES: usize = 20;

struct Churn {
    full: Dataset,
    queries: Dataset,
    config: NdsConfig,
    medoid: VectorId,
}

fn churn_fixture() -> (Churn, Deployment) {
    let (full, queries) = DatasetSpec::sift_scaled(N_FULL, N_QUERIES).build_pair();
    let mut prefix = Dataset::new(full.dim());
    for (_, v) in full.iter().take(N_BASE) {
        prefix.try_push(v).unwrap();
    }
    prefix.set_stored_vector_bytes(full.stored_vector_bytes());
    let index = Vamana::build(&prefix, VamanaParams::default());
    let medoid = index.medoid();
    let mut config = NdsConfig::scaled_for(N_FULL, full.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    let deploy = Deployment::stage(&config, Box::new(index), prefix);
    (
        Churn {
            full,
            queries,
            config,
            medoid,
        },
        deploy,
    )
}

#[test]
fn insert_heavy_churn_keeps_recall_near_rebuild() {
    let (fx, deploy) = churn_fixture();
    let serve = ServeConfig::default();
    let mut engine = ServeEngine::with_deployment(&fx.config, serve.clone(), deploy);

    // ---- Churn: ingest the remaining vectors as update sessions. ----
    for id in N_BASE..N_FULL {
        engine.submit_update(UpdateRequest::insert_at(
            0,
            fx.full.vector(id as VectorId).to_vec(),
        ));
    }
    let ingest = engine.run_to_completion();
    assert_eq!(ingest.updates_completed(), N_FULL - N_BASE);
    assert!(ingest.updates.pages_programmed > 0, "no pages programmed");
    assert!(
        ingest.breakdown.program_ns > 0,
        "inserts must charge flash program latency"
    );
    assert!(
        ingest.stats.page_programs > 0,
        "inserts must reach the flash stats"
    );
    assert_eq!(engine.deployment().dataset().len(), N_FULL);
    assert_eq!(
        engine.deployment().prepared().luncsr.delta_vertices(),
        N_FULL - N_BASE
    );

    // ---- Serve the benchmark queries over the live overlay. ----
    for (_, q) in fx.queries.iter() {
        engine.submit(QueryRequest::at(0, q.to_vec(), vec![fx.medoid]));
    }
    let report = engine.run_to_completion();
    assert_eq!(report.completed(), N_QUERIES);
    let live_ids: Vec<Vec<VectorId>> = report
        .outcomes
        .iter()
        .map(|o| o.results.iter().map(|n| n.id).collect())
        .collect();

    // ---- From-scratch rebuild at equal parameters. ----
    let rebuilt = Vamana::build(&fx.full, VamanaParams::default());
    let params = SearchParams::new(serve.k, serve.beam_width, DistanceKind::L2);
    let rebuilt_out = rebuilt.search_batch(&fx.full, &fx.queries, &params);
    let gt = ground_truth(&fx.full, &fx.queries, serve.k, DistanceKind::L2);
    let r_live = recall_at_k(&gt, &live_ids, serve.k);
    let r_rebuilt = recall_at_k(&gt, &rebuilt_out.id_lists(), serve.k);
    assert!(
        r_live >= r_rebuilt - 0.02,
        "live-overlay recall {r_live} trails rebuild {r_rebuilt} by more than 0.02"
    );
}

#[test]
fn delete_heavy_churn_filters_results_and_compacts() {
    let (fx, deploy) = churn_fixture();
    let mut engine = ServeEngine::with_deployment(&fx.config, ServeConfig::default(), deploy);
    // Delete a third of the base while queries are in flight.
    for (i, (_, q)) in fx.queries.iter().enumerate() {
        engine.submit(QueryRequest::at(
            i as u64 * 2_000,
            q.to_vec(),
            vec![fx.medoid],
        ));
    }
    let deleted: Vec<VectorId> = (0..N_BASE as VectorId).step_by(3).collect();
    for (i, &d) in deleted.iter().enumerate() {
        engine.submit_update(UpdateRequest::delete_at(i as u64 * 1_000, d));
    }
    let report = engine.run_to_completion();
    assert_eq!(report.updates_completed(), deleted.len());
    for o in &report.outcomes {
        assert_eq!(o.state, SessionState::Completed);
    }
    // Once every delete is durable, no query may surface a tombstone —
    // even though tombstoned vertices still route searches.
    for (_, q) in fx.queries.iter() {
        engine.submit(QueryRequest::at(0, q.to_vec(), vec![fx.medoid]));
    }
    let after = engine.run_to_completion();
    for o in after.outcomes.iter().skip(report.outcomes.len()) {
        assert_eq!(o.state, SessionState::Completed);
        assert!(!o.results.is_empty());
        for n in &o.results {
            assert!(
                !deleted.contains(&n.id),
                "query {} surfaced tombstoned vertex {}",
                o.id,
                n.id
            );
        }
    }
    // Compaction erases the old footprint and rewrites the base; the
    // deletes stay in the index.
    let compaction = engine.compact().expect("mutable deployment");
    assert!(compaction.blocks_erased > 0);
    assert!(compaction.pages_programmed > 0);
    assert!(compaction.duration_ns > 0);
    let deploy = engine.deployment();
    assert!(deleted.iter().all(|&id| deploy.is_deleted(id)));
    assert_eq!(deploy.totals().deletes, deleted.len() as u64);
}

#[test]
fn update_latency_is_visible_in_makespan() {
    // The same closed query load, with and without a burst of inserts:
    // the mixed run must advance the simulated clock further (tPROG and
    // bookkeeping are charged), and the update outcomes must carry
    // non-decreasing completion times in admission order.
    let (fx, deploy) = churn_fixture();
    let queries_only = {
        let (fx2, deploy2) = churn_fixture();
        let mut engine = ServeEngine::with_deployment(&fx2.config, ServeConfig::default(), deploy2);
        for (_, q) in fx2.queries.iter() {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![fx2.medoid]));
        }
        engine.run_to_completion()
    };
    let mut engine = ServeEngine::with_deployment(&fx.config, ServeConfig::default(), deploy);
    for (_, q) in fx.queries.iter() {
        engine.submit(QueryRequest::at(0, q.to_vec(), vec![fx.medoid]));
    }
    for id in N_BASE..N_FULL {
        engine.submit_update(UpdateRequest::insert_at(
            0,
            fx.full.vector(id as VectorId).to_vec(),
        ));
    }
    let mixed = engine.run_to_completion();
    assert!(
        mixed.makespan_ns > queries_only.makespan_ns,
        "updates must occupy the device: {} !> {}",
        mixed.makespan_ns,
        queries_only.makespan_ns
    );
    let times: Vec<u64> = mixed
        .update_outcomes
        .iter()
        .map(|o| o.completed_ns)
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}
