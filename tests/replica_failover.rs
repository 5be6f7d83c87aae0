//! End-to-end replicated serving under failures: a 4-shard × 2-replica
//! cluster loses a device mid-run and must keep answering — every
//! in-flight and subsequent query completes on the survivor at the
//! single-device recall gate, bit-identically across reruns — and a
//! hedged cluster under an ECC storm must win its hedge races.

use ndsearch::anns::index::MutableIndex;
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::cluster::{ClusterEngine, FailureSchedule, ReplicaPolicy, ReplicationConfig};
use ndsearch::core::config::NdsConfig;
use ndsearch::core::serve::{QueryRequest, ServeConfig};
use ndsearch::flash::timing::Nanos;
use ndsearch::vector::recall::{ground_truth, recall_at_k};
use ndsearch::vector::shard::{ShardPlan, ShardPolicy};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::{Dataset, DistanceKind, VectorId};

fn vamana_builder(ds: &Dataset) -> (Box<dyn MutableIndex>, VectorId) {
    let index = Vamana::build(ds, VamanaParams::default());
    let entry = index.medoid();
    (Box::new(index), entry)
}

fn fixture() -> (NdsConfig, Dataset, Dataset) {
    let (base, queries) = DatasetSpec::sift_scaled(700, 24).build_pair();
    let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    (config, base, queries)
}

fn serve() -> ServeConfig {
    ServeConfig {
        k: 10,
        beam_width: 80,
        ..ServeConfig::default()
    }
}

fn assert_recall(base: &Dataset, queries: &Dataset, report: &ndsearch::core::ClusterReport) {
    let merged: Vec<Vec<VectorId>> = report
        .outcomes
        .iter()
        .map(|o| o.results.iter().map(|n| n.id).collect())
        .collect();
    let gt = ground_truth(base, queries, 10, DistanceKind::L2);
    let recall = recall_at_k(&gt, &merged, 10);
    assert!(
        recall >= 0.85,
        "degraded-cluster recall {recall} below 0.85"
    );
}

#[test]
fn replica_kill_mid_run_fails_over_without_losing_queries() {
    let (config, base, queries) = fixture();
    // Queries arrive over ~1.2 ms of simulated time; shard 0's replica 0
    // dies at 300 µs — after it has completed some sessions, while others
    // are in flight and yet more have not even arrived.
    let kill_at: Nanos = 300_000;
    let run = || {
        let plan = ShardPlan::partition(base.len(), 4, ShardPolicy::BalancedSize, 0x5A);
        let replication = ReplicationConfig::replicated(2)
            .with_failures(FailureSchedule::new().kill(kill_at, 0, 0));
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            serve(),
            plan,
            replication,
            &base,
            vamana_builder,
        );
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(QueryRequest::at(
                i as Nanos * 50_000,
                q.to_vec(),
                Vec::new(),
            ));
        }
        cluster.run_to_completion()
    };
    let report = run();

    // Nothing lost: every query — already in flight on the dead device or
    // arriving after the kill — completed on the survivor.
    assert_eq!(report.completed(), queries.len(), "failover lost queries");
    assert!(report.failovers() > 0, "mid-run kill must re-seed sessions");
    let s0 = &report.shards[0];
    assert!(!s0.replicas[0].alive);
    assert_eq!(s0.replicas[0].killed_ns, Some(kill_at));
    assert!(s0.replicas[1].alive);
    // The survivor served both its own share and the re-seeded sessions.
    assert!(s0.replicas[1].report.completed() > queries.len() / 2);
    assert!(s0.availability < 1.0 && s0.availability > 0.0);
    for s in &report.shards[1..] {
        assert_eq!(s.availability, 1.0);
    }
    assert!(report.availability() > 0.0 && report.availability() <= 1.0);

    // Quality survives the outage: merged top-k still at the gate.
    assert_recall(&base, &queries, &report);

    // And the whole degraded run replays bit-identically.
    assert_eq!(report, run(), "failover run must be deterministic");
}

#[test]
fn hedged_cluster_rides_out_an_ecc_storm() {
    let (config, base, queries) = fixture();
    // Every shard's replica 0 is stormed before serving anything; the
    // hedged router must fire backups on the healthy replica 1 and take
    // the earlier completion.
    let plan = ShardPlan::partition(base.len(), 4, ShardPolicy::BalancedSize, 0x5A);
    let storm = (0..4).fold(FailureSchedule::new(), |f, s| f.ecc_storm(0, s, 0, 0.9));
    let replication = ReplicationConfig::replicated(2)
        .with_policy(ReplicaPolicy::Hedged { delay_ns: 150_000 })
        .with_failures(storm);
    let mut cluster =
        ClusterEngine::stage_replicated(&config, serve(), plan, replication, &base, vamana_builder);
    for (i, (_, q)) in queries.iter().enumerate() {
        cluster.submit(QueryRequest::at(
            i as Nanos * 50_000,
            q.to_vec(),
            Vec::new(),
        ));
    }
    let report = cluster.run_to_completion();
    assert_eq!(report.completed(), queries.len());
    assert!(
        report.hedges() > 0,
        "storm must push sessions past the delay"
    );
    assert!(report.hedge_wins() > 0, "healthy replicas must win races");
    let rate = report.hedge_win_rate();
    assert!(rate > 0.0 && rate <= 1.0, "hedge win rate {rate}");
    assert_eq!(report.availability(), 1.0, "a storm degrades, not kills");
    assert_recall(&base, &queries, &report);

    // Hedged against round-robin routing: 32 queries a millisecond apart
    // on 2 shards × 2 replicas, replica 0 of each walking a 40 µs
    // read-retry ladder on 90 % of its reads. Hedging at half the healthy median must
    // cut the tail its round-robin twin leaves.
    let (base, queries) = DatasetSpec::sift_scaled(600, 32).build_pair();
    let mut config = NdsConfig::scaled_for(2 * base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    config.ecc.t_soft_decode_ns = 40_000;
    let run = |replication| {
        let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0x5A4D);
        let serve = ServeConfig::default();
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            serve,
            plan,
            replication,
            &base,
            vamana_builder,
        );
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(QueryRequest::at(
                i as Nanos * 1_000_000,
                q.to_vec(),
                Vec::new(),
            ));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), queries.len());
        report.latency()
    };
    let delay_ns = run(ReplicationConfig::replicated(2)).p50_ns / 2;
    let storm = (0..2).fold(FailureSchedule::new(), |f, s| f.ecc_storm(0, s, 0, 0.9));
    let stormed = |policy| {
        ReplicationConfig::replicated(2)
            .with_policy(policy)
            .with_failures(storm.clone())
    };
    let round_robin = run(stormed(ReplicaPolicy::RoundRobin)).p99_ns;
    let hedged = run(stormed(ReplicaPolicy::Hedged { delay_ns })).p99_ns;
    assert!(
        hedged < round_robin,
        "hedged p99 {hedged} ns must beat round-robin p99 {round_robin} ns"
    );
}

/// A storm must reach a quantized replica: its hops score DRAM-resident
/// codes, so the exact rerank's page loads are the only reads there are to
/// slow — each draws its LDPC decode from the device's failure stream.
#[test]
fn an_ecc_storm_slows_a_quantized_replica() {
    let (mut config, base, queries) = fixture();
    config.quantization = ndsearch::vector::QuantSpec::Int8;
    config.ecc.t_soft_decode_ns = 200_000;
    let run = |failures: FailureSchedule| {
        let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0x5A);
        let replication = ReplicationConfig::replicated(2).with_failures(failures);
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            serve(),
            plan,
            replication,
            &base,
            vamana_builder,
        );
        // Round-robin routing: both runs send each replica the same sessions.
        for round in 0..4 {
            for (i, (_, q)) in queries.iter().enumerate() {
                let at = (round * queries.len() + i) as Nanos * 20_000;
                cluster.submit(QueryRequest::at(at, q.to_vec(), Vec::new()));
            }
        }
        cluster.run_to_completion()
    };
    let calm = run(FailureSchedule::new());
    let stormy = run(FailureSchedule::new().ecc_storm(0, 0, 0, 0.9));
    assert_eq!(stormy.completed(), 4 * queries.len());

    let device = |report: &ndsearch::core::ClusterReport, replica: usize| {
        report.shards[0].replicas[replica].report.clone()
    };
    let (hit, twin) = (device(&stormy, 0), device(&calm, 0));
    assert!(hit.stats.ecc_soft_fallbacks > 0, "the storm drew no decode");
    assert_eq!(twin.stats.ecc_soft_fallbacks, 0);
    assert!(
        hit.latency().p99_ns > twin.latency().p99_ns + config.ecc.t_soft_decode_ns,
        "storm p99 {} against {} without it",
        hit.latency().p99_ns,
        twin.latency().p99_ns
    );
    // Same candidates, same pages, same answers: only the decodes moved.
    assert_eq!(hit.stats.page_reads, twin.stats.page_reads);
    let ids = |r: &ndsearch::serve::ServeReport| -> Vec<Vec<VectorId>> {
        r.outcomes
            .iter()
            .map(|o| o.results.iter().map(|n| n.id).collect())
            .collect()
    };
    assert_eq!(ids(&hit), ids(&twin));
    // And the replica beside it never notices.
    assert_eq!(device(&stormy, 1), device(&calm, 1));
}
