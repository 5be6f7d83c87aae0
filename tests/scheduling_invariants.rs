//! Integration invariants on the two-level scheduling: the Fig. 14/15/16
//! ablation shapes, determinism, refresh consistency under load, and the
//! serving layer's batch scheduler (determinism, recall parity with
//! sequential execution, fairness under a bounded in-flight cap).

use ndsearch::anns::beam::{beam_search, VisitedSet};
use ndsearch::anns::index::{GraphAnnsIndex, SearchParams};
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::config::{NdsConfig, SchedulingConfig};
use ndsearch::core::engine::NdsEngine;
use ndsearch::core::pipeline::Prepared;
use ndsearch::core::report::NdsReport;
use ndsearch::serve::{
    QueryRequest, ServeConfig, ServeEngine, ServeReport, SessionState, SloPolicy,
};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::DistanceKind;

struct Fixture {
    base: ndsearch::vector::Dataset,
    graph: ndsearch::graph::Csr,
    trace: ndsearch::anns::trace::BatchTrace,
    config: NdsConfig,
}

fn fixture() -> Fixture {
    let (base, queries) = DatasetSpec::deep_scaled(900, 96).build_pair();
    let index = Vamana::build(&base, VamanaParams::default());
    let out = index.search_batch(
        &base,
        &queries,
        &SearchParams::new(10, 64, DistanceKind::L2),
    );
    // The dense `tiny` geometry keeps several pages per plane at this
    // fixture size, which is the regime the scheduling techniques target
    // (a billion-vector corpus fills thousands of pages per plane).
    let mut config = NdsConfig {
        geometry: ndsearch::flash::geometry::FlashGeometry::tiny(),
        ..NdsConfig::default()
    };
    config.ecc.hard_decision_failure_prob = 0.0;
    Fixture {
        base,
        graph: index.base_graph().clone(),
        trace: out.trace,
        config,
    }
}

fn run(fx: &Fixture, sched: SchedulingConfig) -> NdsReport {
    let config = NdsConfig {
        scheduling: sched,
        ..fx.config.clone()
    };
    let prepared = Prepared::stage(&config, &fx.graph, &fx.base, &fx.trace);
    NdsEngine::new(&config).run(&prepared)
}

#[test]
fn ablation_ladder_is_monotone_in_throughput() {
    let fx = fixture();
    let mut last_qps = 0.0;
    for (label, sched) in SchedulingConfig::ablation_ladder() {
        let r = run(&fx, sched);
        let qps = r.qps();
        assert!(
            qps >= last_qps * 0.98, // tiny tolerance for modelling noise
            "{label} regressed: {qps} < {last_qps}"
        );
        last_qps = qps;
    }
}

#[test]
fn full_stack_gains_are_substantial() {
    let fx = fixture();
    let bare = run(&fx, SchedulingConfig::bare());
    let full = run(&fx, SchedulingConfig::full());
    let gain = full.qps() / bare.qps();
    assert!(
        gain > 1.5,
        "full stack should clearly beat Bare, gain = {gain}"
    );
}

#[test]
fn dynamic_allocating_cuts_page_reads() {
    let fx = fixture();
    let mut s = SchedulingConfig::full();
    s.speculative = false;
    s.dynamic_allocating = false;
    let without = run(&fx, s);
    s.dynamic_allocating = true;
    let with = run(&fx, s);
    assert!(with.stats.page_reads < without.stats.page_reads);
    assert!(with.stats.page_buffer_hits > 0);
}

#[test]
fn speculation_trades_pages_for_latency() {
    let fx = fixture();
    let mut s = SchedulingConfig::full();
    s.speculative = false;
    let without = run(&fx, s);
    s.speculative = true;
    let with = run(&fx, s);
    assert!(with.stats.page_reads > without.stats.page_reads);
    assert!(with.total_ns <= without.total_ns);
    let hit_rate = with.speculation.hit_rate();
    assert!(
        hit_rate > 0.05 && hit_rate < 0.95,
        "hit rate {hit_rate} should be partial (paper: over half miss)"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let fx = fixture();
    let a = run(&fx, SchedulingConfig::full());
    let b = run(&fx, SchedulingConfig::full());
    assert_eq!(a, b);
}

/// Builds a serving engine over the scheduling fixture and submits every
/// fixture query at `arrival(i)`.
fn serve_fixture_run(
    fx: &Fixture,
    queries: &ndsearch::vector::Dataset,
    medoid: u32,
    serve: ServeConfig,
    arrival: impl Fn(usize) -> u64,
) -> ndsearch::serve::ServeReport {
    let prepared = Prepared::stage(
        &fx.config,
        &fx.graph,
        &fx.base,
        &ndsearch::anns::trace::BatchTrace::default(),
    );
    let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
    for (i, (_, q)) in queries.iter().enumerate() {
        engine.submit(QueryRequest::at(arrival(i), q.to_vec(), vec![medoid]));
    }
    engine.run_to_completion()
}

fn serve_setup() -> (Fixture, ndsearch::vector::Dataset, u32) {
    let fx = fixture();
    let (_, queries) = DatasetSpec::deep_scaled(900, 24).build_pair();
    let index = Vamana::build(&fx.base, VamanaParams::default());
    (fx, queries, index.medoid())
}

#[test]
fn batch_scheduler_is_deterministic_under_fixed_seed() {
    let (fx, queries, medoid) = serve_setup();
    let run = || {
        serve_fixture_run(
            &fx,
            &queries,
            medoid,
            ServeConfig {
                max_inflight: 6,
                ..ServeConfig::default()
            },
            |i| i as u64 * 2_500,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed + same arrivals must replay identically");
    assert_eq!(a.completed(), queries.len());
}

#[test]
fn batch_scheduler_preserves_per_query_recall() {
    // Interleaving N queries must return exactly the ids a sequential
    // run-to-completion beam search returns for each of them.
    let (fx, queries, medoid) = serve_setup();
    let serve = ServeConfig {
        max_inflight: 8,
        ..ServeConfig::default()
    };
    let report = serve_fixture_run(&fx, &queries, medoid, serve.clone(), |_| 0);
    let mut vs = VisitedSet::new(fx.base.len());
    for (i, (_, q)) in queries.iter().enumerate() {
        let mut want = beam_search(
            &fx.base,
            &fx.graph,
            q,
            &[medoid],
            serve.beam_width,
            DistanceKind::L2,
            &mut vs,
        )
        .found;
        want.truncate(serve.k);
        assert_eq!(
            report.outcomes[i].results, want,
            "query {i}: concurrent serving changed the answer"
        );
    }
}

#[test]
fn batch_scheduler_is_fair_under_oversubscription() {
    // 24 queries over 4 slots: everyone completes, nobody sits in flight
    // without progressing (at most one drain round), admission is FIFO.
    let (fx, queries, medoid) = serve_setup();
    let report = serve_fixture_run(
        &fx,
        &queries,
        medoid,
        ServeConfig {
            max_inflight: 4,
            ..ServeConfig::default()
        },
        |_| 0,
    );
    assert_eq!(report.peak_inflight, 4);
    let mut last_admitted = 0;
    for o in &report.outcomes {
        assert_eq!(o.state, SessionState::Completed, "query {} starved", o.id);
        assert!(o.hops > 0);
        assert!(
            o.rounds_inflight <= o.hops + 1,
            "query {} occupied {} rounds for {} hops",
            o.id,
            o.rounds_inflight,
            o.hops
        );
        assert!(
            o.admitted_ns >= last_admitted,
            "admission must be FIFO for same-instant arrivals"
        );
        last_admitted = o.admitted_ns;
    }
    // Oversubscription costs queueing delay: the last-admitted query
    // waited, the first did not.
    assert_eq!(report.outcomes[0].queue_wait_ns(), 0);
    assert!(report.outcomes.last().unwrap().queue_wait_ns() > 0);
}

#[test]
fn deadline_boundary_is_exact_at_completion_and_expiry() {
    // Pinned deadline semantics: a session is `Completed` iff its
    // completion instant is <= its deadline, and a deadline at or before
    // the current round start expires immediately — `deadline == now`
    // does not buy an extra round. Regression test for two former edge
    // cases: expiry was only checked at round *start* with a strict
    // `d < now`, so a session finishing late inside a round was reported
    // `Completed` and a `deadline == now` session survived one round.
    let (fx, queries, medoid) = serve_setup();
    let q = queries.vector(0).to_vec();
    let run_with = |deadline: Option<u64>| {
        let prepared = Prepared::stage(
            &fx.config,
            &fx.graph,
            &fx.base,
            &ndsearch::anns::trace::BatchTrace::default(),
        );
        let mut engine = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let mut req = QueryRequest::at(1_000, q.clone(), vec![medoid]);
        req.deadline_ns = deadline;
        engine.submit(req);
        engine.run_to_completion()
    };
    let free = run_with(None);
    assert_eq!(free.outcomes[0].state, SessionState::Completed);
    let done = free.outcomes[0].completed_ns;
    assert!(done > 1_000);

    // Deadline exactly at the completion instant: still a completion.
    let exact = run_with(Some(done));
    assert_eq!(
        exact.outcomes[0].state,
        SessionState::Completed,
        "completing exactly at the deadline must count as met"
    );
    assert_eq!(exact.outcomes[0].completed_ns, done);

    // One nanosecond tighter: the final round now finishes past the
    // deadline, so the very same execution must be reported Expired.
    let late = run_with(Some(done - 1));
    assert_eq!(
        late.outcomes[0].state,
        SessionState::Expired,
        "finishing after the deadline must expire, even inside the final round"
    );

    // Deadline == arrival: expired at admission, before any hop runs.
    let instant = run_with(Some(1_000));
    assert_eq!(instant.outcomes[0].state, SessionState::Expired);
    assert_eq!(
        instant.outcomes[0].hops, 0,
        "deadline == now must not buy an extra round"
    );
}

#[test]
fn malformed_queries_are_rejected_beside_valid_ones() {
    // Every kind of malformed request — a dimension one short or one
    // long, a NaN or infinite component, no entry vertex, an entry at or
    // past the dataset's end, a top-k of 0 — is `Rejected` at its
    // arrival, the run drains, and the valid queries come back exactly
    // as in a run without the bad requests.
    let (fx, queries, medoid) = serve_setup();
    let prepared = Prepared::stage(
        &fx.config,
        &fx.graph,
        &fx.base,
        &ndsearch::anns::trace::BatchTrace::default(),
    );
    let q = queries.vector(0);
    let request = |query: Vec<f32>, entries| QueryRequest::at(0, query, entries);
    let bad = [
        request(q[1..].to_vec(), vec![medoid]),
        request([q, &[0.5]].concat(), vec![medoid]),
        request([&q[..3], &[f32::NAN], &q[4..]].concat(), vec![medoid]),
        request([&q[1..], &[f32::INFINITY]].concat(), vec![medoid]),
        request(q.to_vec(), vec![]),
        request(q.to_vec(), vec![1_000_000]),
        request(q.to_vec(), vec![medoid, fx.base.len() as u32]),
        request(q.to_vec(), vec![medoid]).top_k(0),
    ];
    let run = |with_bad: bool| {
        let serve = ServeConfig {
            max_inflight: 4,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
        let (mut valid, mut rejected) = (Vec::new(), Vec::new());
        for (i, (_, v)) in queries.iter().enumerate() {
            let at = i as u64 * 2_000;
            if let Some(req) = bad.get(i).filter(|_| with_bad) {
                let req = QueryRequest {
                    arrival_ns: at,
                    ..req.clone()
                };
                rejected.push(engine.submit(req));
            }
            valid.push(engine.submit(QueryRequest::at(at, v.to_vec(), vec![medoid])));
        }
        (engine.run_to_completion(), valid, rejected)
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
    assert_eq!(mixed.rejected(), bad.len());
    assert_eq!(mixed.completed(), queries.len());
    for (&c, &m) in clean_ids.iter().zip(&ids) {
        assert_eq!(mixed.outcomes[m].results, clean.outcomes[c].results);
        assert_eq!(
            mixed.outcomes[m].completed_ns,
            clean.outcomes[c].completed_ns
        );
    }
}

/// Builds a serving engine with the given SLO policy and submits every
/// query with a per-query tenant and deadline.
fn serve_slo_run(
    fx: &Fixture,
    queries: &ndsearch::vector::Dataset,
    medoid: u32,
    serve: ServeConfig,
    submit: impl Fn(usize) -> (u32, Option<u64>),
) -> ServeReport {
    let prepared = Prepared::stage(
        &fx.config,
        &fx.graph,
        &fx.base,
        &ndsearch::anns::trace::BatchTrace::default(),
    );
    let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
    for (i, (_, q)) in queries.iter().enumerate() {
        let (tenant, deadline) = submit(i);
        let mut req = QueryRequest::at(0, q.to_vec(), vec![medoid]).tenant(tenant);
        req.deadline_ns = deadline;
        engine.submit(req);
    }
    engine.run_to_completion()
}

#[test]
fn shed_doomed_never_sheds_a_meetable_query() {
    // The documented shed estimator (`remaining hops × observed per-hop
    // round cost`, optimistic before any observation) can only shed a
    // query whose estimated finish misses its deadline. With deadlines
    // far beyond any estimate, ShedDoomed must shed nothing and the run
    // must be bit-identical to SloPolicy::None — same admissions, same
    // rounds, same outcomes.
    let (fx, queries, medoid) = serve_setup();
    let run_with = |slo: SloPolicy| {
        serve_slo_run(
            &fx,
            &queries,
            medoid,
            ServeConfig {
                max_inflight: 4,
                slo,
                ..ServeConfig::default()
            },
            |_| (0, Some(1_000_000_000_000)),
        )
    };
    let unshed = run_with(SloPolicy::None);
    let shed = run_with(SloPolicy::ShedDoomed { min_slack_ns: 0 });
    assert_eq!(shed.sheds(), 0, "meetable deadlines must never shed");
    assert_eq!(shed, unshed, "a shed-free run must match SloPolicy::None");
    assert_eq!(shed.completed(), queries.len());
    assert_eq!(shed.slo_attainment(), 1.0);
}

#[test]
fn tenant_fair_cap_is_never_exceeded_and_everyone_completes() {
    // 24 same-instant queries submitted grouped by tenant (tenant 0
    // first): FIFO admission hands the head tenant every slot, TenantFair
    // must bound each tenant's in-flight share in every round while
    // keeping the global slots fully used and completing everything.
    let (fx, queries, medoid) = serve_setup();
    let run_with = |slo: SloPolicy| {
        serve_slo_run(
            &fx,
            &queries,
            medoid,
            ServeConfig {
                max_inflight: 6,
                slo,
                ..ServeConfig::default()
            },
            |i| (i as u32 / 8, None),
        )
    };
    let peak = |r: &ServeReport, t: u32| {
        r.peak_tenant_inflight
            .iter()
            .find(|&&(id, _)| id == t)
            .map_or(0, |&(_, p)| p)
    };
    let unfair = run_with(SloPolicy::None);
    assert!(
        peak(&unfair, 0) > 2,
        "FIFO admission should let the head tenant hog slots (peak {})",
        peak(&unfair, 0)
    );
    let fair = run_with(SloPolicy::TenantFair {
        max_inflight_per_tenant: 2,
    });
    for t in 0..3u32 {
        let p = peak(&fair, t);
        assert!(p <= 2, "tenant {t} exceeded the cap: peak {p}");
        assert!(p > 0, "tenant {t} starved");
    }
    assert_eq!(
        fair.peak_inflight, 6,
        "the cap must not strand global slots"
    );
    assert_eq!(fair.completed(), queries.len());
    for o in &fair.outcomes {
        assert_eq!(o.state, SessionState::Completed, "query {} starved", o.id);
    }

    // The `scenarios` sweep's hog layout at its CI smoke scale: 3 tenants
    // each submit all 24 queries, tenant 0 first, so FIFO admission drains
    // the hog before the others; the cap must even out the tenants' p99s.
    let (base, queries) = DatasetSpec::sift_scaled(600, 24).build_pair();
    let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    let index = Vamana::build(&base, VamanaParams::default());
    let graph = index.base_graph();
    let prepared = Prepared::stage(
        &config,
        graph,
        &base,
        &ndsearch::anns::trace::BatchTrace::default(),
    );
    let hog = |slo: SloPolicy| {
        let serve = ServeConfig {
            max_inflight: 6,
            slo,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&config, serve, &prepared, &base, graph);
        for tenant in 0..3u32 {
            for (_, q) in queries.iter() {
                let req = QueryRequest::at(tenant as u64, q.to_vec(), vec![index.medoid()]);
                engine.submit(req.tenant(tenant));
            }
        }
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), 3 * queries.len());
        report.tenant_p99_fairness()
    };
    let (unfair, fair) = (
        hog(SloPolicy::None),
        hog(SloPolicy::TenantFair {
            max_inflight_per_tenant: 2,
        }),
    );
    assert!(
        fair < unfair,
        "TenantFair must lower the max/mean tenant p99: {fair} vs {unfair}"
    );
}

#[test]
fn luncsr_stays_consistent_under_refresh_storm() {
    use ndsearch::flash::ftl::Ftl;
    use ndsearch::vector::rng::Pcg32;
    let fx = fixture();
    let prepared = Prepared::stage(&fx.config, &fx.graph, &fx.base, &fx.trace);
    let mut luncsr = prepared.luncsr.clone();
    let geom = *luncsr.mapping().geometry();
    let mut ftl = Ftl::new(geom, 99);
    let mut rng = Pcg32::seed_from_u64(17);
    for _ in 0..500 {
        let plane = rng.index(geom.total_planes() as usize) as u32;
        let block = rng.index(geom.blocks_per_plane as usize) as u32;
        for ev in ftl.refresh_block(plane, block) {
            luncsr.apply_refresh(&ev);
        }
    }
    assert!(luncsr.consistent_with_ftl(&ftl));
    // The engine can still replay traces against the refreshed layout.
    let refreshed = Prepared { luncsr, ..prepared };
    let r = NdsEngine::new(&fx.config).run(&refreshed);
    assert!(r.total_ns > 0);
}
