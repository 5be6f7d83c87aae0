//! Concurrency and offered-load sweep of the serving layer.
//!
//! Part 1 runs N ∈ {1, 8, 64} concurrent queries (all arriving at t=0),
//! verifies every query's top-k equals the sequential engine's answer, and
//! reports QPS plus p50/p99 latency. Part 2 sweeps offered load (Poisson
//! arrivals at fractions/multiples of the saturated throughput) against a
//! bounded admission queue, showing queueing delay and backpressure.
//! Part 3 serves mixed query+update traffic over a *mutable* deployment
//! (online inserts and tombstone deletes as update sessions), reporting
//! update throughput, flash pages programmed and write amplification. A
//! machine-readable `BENCH_serving.json` snapshot (QPS, p50/p99,
//! update-throughput fields) seeds the perf trajectory across PRs. (A
//! single engine runs on the calling thread; host threads are measured on
//! the cluster tier, by `perf_ledger`'s `core.exec.*` rows.)
//!
//! Scale knobs: `NDS_N` (base vectors), `NDS_K` (top-k), `NDS_BENCH_JSON`
//! (snapshot path, default `BENCH_serving.json`).

use ndsearch_anns::beam::{beam_search, VisitedSet};
use ndsearch_anns::index::GraphAnnsIndex;
use ndsearch_anns::trace::BatchTrace;
use ndsearch_anns::vamana::{Vamana, VamanaParams};
use ndsearch_bench::{env_usize, f, print_table};
use ndsearch_core::config::NdsConfig;
use ndsearch_core::pipeline::Prepared;
use ndsearch_core::serve::{QueryRequest, ServeConfig, ServeEngine, ServeReport, UpdateRequest};
use ndsearch_flash::timing::Nanos;
use ndsearch_vector::recall::{ground_truth, recall_at_k};
use ndsearch_vector::rng::Pcg32;
use ndsearch_vector::synthetic::DatasetSpec;
use ndsearch_vector::{DistanceKind, VectorId};

const MAX_CONCURRENT: usize = 64;

fn main() {
    let n = env_usize("NDS_N", 4000);
    let k = env_usize("NDS_K", 10);
    let (base, queries) = DatasetSpec::sift_scaled(n, MAX_CONCURRENT).build_pair();
    let index = Vamana::build(&base, VamanaParams::default());
    let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    let prepared = Prepared::stage(&config, index.base_graph(), &base, &BatchTrace::default());
    let serve_base = ServeConfig {
        k,
        ..ServeConfig::default()
    };

    // Sequential reference: each query beam-searched to completion alone.
    let mut vs = VisitedSet::new(base.len());
    let sequential: Vec<Vec<VectorId>> = queries
        .iter()
        .map(|(_, q)| {
            let mut found = beam_search(
                &base,
                index.base_graph(),
                q,
                &[index.medoid()],
                serve_base.beam_width,
                DistanceKind::L2,
                &mut vs,
            )
            .found;
            found.truncate(k);
            found.into_iter().map(|nb| nb.id).collect()
        })
        .collect();
    let gt = ground_truth(&base, &queries, k, DistanceKind::L2);
    let seq_recall = recall_at_k(&gt, &sequential, k);

    // ---- Part 1: concurrency sweep at closed load. ----
    let mut rows = Vec::new();
    let mut snapshot_closed: Vec<String> = Vec::new();
    for concurrency in [1usize, 8, 64] {
        let serve = ServeConfig {
            max_inflight: concurrency,
            ..serve_base.clone()
        };
        let mut engine = ServeEngine::new(&config, serve, &prepared, &base, index.base_graph());
        for (_, q) in queries.iter().take(concurrency) {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![index.medoid()]));
        }
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), concurrency);
        let ids: Vec<Vec<VectorId>> = report
            .outcomes
            .iter()
            .map(|o| o.results.iter().map(|nb| nb.id).collect())
            .collect();
        for (i, got) in ids.iter().enumerate() {
            assert_eq!(
                got, &sequential[i],
                "query {i} diverged from the sequential engine at N={concurrency}"
            );
        }
        let recall = recall_at_k(&gt[..concurrency], &ids, k);
        let lat = report.latency();
        snapshot_closed.push(format!(
            "{{\"concurrency\": {}, \"qps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"recall\": {:.3}}}",
            concurrency,
            report.qps(),
            lat.p50_ns as f64 / 1e3,
            lat.p99_ns as f64 / 1e3,
            recall
        ));
        rows.push(vec![
            concurrency.to_string(),
            report.rounds.to_string(),
            f(report.qps() / 1e3, 1),
            f(lat.p50_ns as f64 / 1e3, 1),
            f(lat.p99_ns as f64 / 1e3, 1),
            f(recall, 3),
            "== sequential".to_string(),
        ]);
        if concurrency == MAX_CONCURRENT {
            println!(
                "sequential recall@{k} = {:.3} (every concurrent run returns identical top-k)",
                seq_recall
            );
        }
    }
    print_table(
        "Concurrency sweep (closed load, all queries at t=0)",
        &[
            "N", "rounds", "kQPS", "p50 us", "p99 us", "recall", "parity",
        ],
        &rows,
    );

    // ---- Part 2: offered-load sweep (open loop, Poisson arrivals). ----
    let saturated_qps = {
        let serve = ServeConfig {
            max_inflight: 16,
            ..serve_base.clone()
        };
        let mut engine = ServeEngine::new(&config, serve, &prepared, &base, index.base_graph());
        for (_, q) in queries.iter() {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![index.medoid()]));
        }
        engine.run_to_completion().qps()
    };
    let mut rows = Vec::new();
    for load_factor in [0.5, 1.0, 2.0] {
        let offered = saturated_qps * load_factor;
        let report = run_open_loop(
            &config,
            &serve_base,
            &prepared,
            &base,
            index.base_graph(),
            &queries,
            index.medoid(),
            offered,
        );
        let lat = report.latency();
        rows.push(vec![
            f(load_factor, 1),
            f(offered / 1e3, 1),
            f(report.qps() / 1e3, 1),
            f(lat.p50_ns as f64 / 1e3, 1),
            f(lat.p99_ns as f64 / 1e3, 1),
            report.rejected().to_string(),
        ]);
    }
    print_table(
        "Offered-load sweep (open loop, Poisson arrivals, 16 slots, queue 8)",
        &[
            "load",
            "offered kQPS",
            "kQPS",
            "p50 us",
            "p99 us",
            "rejected",
        ],
        &rows,
    );
    println!("\nBelow saturation the tail tracks the service time; past it,");
    println!("queueing dominates p99 and the bounded queue sheds load.");

    // ---- Part 3: mixed query+update serving (mutable deployment). ----
    // Inserts append through the FTL's page-program path and deletes
    // tombstone; update throughput and write amplification come out of
    // the same report as query QPS.
    let mut mut_config = NdsConfig::scaled_for(base.len() * 2, base.stored_vector_bytes());
    mut_config.ecc.hard_decision_failure_prob = 0.0;
    let mut rows = Vec::new();
    let mut snapshot_mixed: Vec<String> = Vec::new();
    for (label, nq, nu) in [
        ("90/10", 58usize, 6usize),
        ("50/50", 32, 32),
        ("10/90", 6, 58),
    ] {
        let deploy = ndsearch_core::deploy::Deployment::stage(
            &mut_config,
            Box::new(index.clone()),
            base.clone(),
        );
        let serve = ServeConfig {
            max_inflight: 16,
            ..serve_base.clone()
        };
        let mut engine = ServeEngine::with_deployment(&mut_config, serve, deploy);
        for i in 0..nq {
            let q = queries.vector((i % queries.len()) as u32);
            engine.submit(QueryRequest::at(
                i as Nanos * 1_000,
                q.to_vec(),
                vec![index.medoid()],
            ));
        }
        for i in 0..nu {
            if i % 4 == 3 {
                engine.submit_update(UpdateRequest::delete_at(
                    i as Nanos * 1_500,
                    (i as u32 * 13) % base.len() as u32,
                ));
            } else {
                let v = queries.vector((i % queries.len()) as u32);
                engine.submit_update(UpdateRequest::insert_at(i as Nanos * 1_500, v.to_vec()));
            }
        }
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), nq, "mixed {label}: queries dropped");
        assert_eq!(
            report.updates_completed(),
            nu,
            "mixed {label}: updates dropped"
        );
        snapshot_mixed.push(format!(
            "{{\"mix\": \"{label}\", \"queries\": {nq}, \"updates\": {nu}, \
             \"qps\": {:.1}, \"update_qps\": {:.1}, \"pages_programmed\": {}, \
             \"blocks_erased\": {}, \"write_amplification\": {:.2}, \"program_ms\": {:.3}}}",
            report.qps(),
            report.update_qps(),
            report.updates.pages_programmed,
            report.updates.blocks_erased,
            report.write_amplification(),
            report.breakdown.program_ns as f64 / 1e6,
        ));
        rows.push(vec![
            label.to_string(),
            format!("{nq}/{nu}"),
            f(report.qps() / 1e3, 1),
            f(report.update_qps() / 1e3, 1),
            report.updates.pages_programmed.to_string(),
            f(report.write_amplification(), 2),
            f(report.breakdown.program_ns as f64 / 1e6, 2),
        ]);
    }
    print_table(
        "Mixed query+update serving (mutable deployment, 16 slots)",
        &["mix", "q/u", "kQPS", "kUPS", "pages", "W-amp", "prog ms"],
        &rows,
    );

    // ---- Machine-readable snapshot for the perf trajectory. ----
    let path = std::env::var("NDS_BENCH_JSON").unwrap_or_else(|_| "BENCH_serving.json".to_string());
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"n_base\": {n},\n  \"k\": {k},\n  \
         \"closed_load\": [\n    {closed}\n  ],\n  \
         \"mixed_serving\": [\n    {mixed}\n  ]\n}}\n",
        n = n,
        k = k,
        closed = snapshot_closed.join(",\n    "),
        mixed = snapshot_mixed.join(",\n    "),
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote bench snapshot to {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_open_loop(
    config: &NdsConfig,
    serve_base: &ServeConfig,
    prepared: &Prepared,
    base: &ndsearch_vector::Dataset,
    graph: &ndsearch_graph::Csr,
    queries: &ndsearch_vector::Dataset,
    medoid: VectorId,
    offered_qps: f64,
) -> ServeReport {
    let serve = ServeConfig {
        max_inflight: 16,
        queue_capacity: 8,
        ..serve_base.clone()
    };
    let mut engine = ServeEngine::new(config, serve, prepared, base, graph);
    // Exponential interarrivals, deterministic under the fixed seed.
    let mut rng = Pcg32::seed_from_u64(0xA221);
    let mut t: f64 = 0.0;
    for (_, q) in queries.iter() {
        let u = rng.next_f64().max(1e-12);
        t += -u.ln() / offered_qps * 1e9;
        engine.submit(QueryRequest::at(t as Nanos, q.to_vec(), vec![medoid]));
    }
    engine.run_to_completion()
}
