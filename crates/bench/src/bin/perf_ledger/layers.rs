//! Per-layer microbenchmarks of the traced run.
//!
//! Each host-time row is measured from outside the layer, on the
//! workload's own dataset, graph and queries, by calling the layer's
//! public function in a loop long enough to exceed `Sizes::micro_loop_ms`
//! (50 ms), and reporting the median of `Sizes::micro_repeats` (7) such
//! loops. Layers a workload never enters are not measured there (their
//! rows read 0).

use std::hint::black_box;
use std::time::{Duration, Instant};

use ndsearch_anns::beam::BeamSearcher;
use ndsearch_anns::index::{GraphAnnsIndex, MutableIndex};
use ndsearch_anns::trace::{BatchTrace, IterationTrace};
use ndsearch_core::alloc::{Allocator, LunWork};
use ndsearch_core::config::NdsConfig;
use ndsearch_core::deploy::Deployment;
use ndsearch_core::exec::with_pool;
use ndsearch_core::pipeline::Prepared;
use ndsearch_core::sin::process_lun_work;
use ndsearch_core::vgen::Vgenerator;
use ndsearch_flash::ecc::{EccConfig, EccEngine};
use ndsearch_graph::Csr;
use ndsearch_vector::quant::{QuantCodes, QuantSpec, ScoreSource};
use ndsearch_vector::{Dataset, DistanceKind, VectorId};

use crate::ledger::Ledger;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{generate_trace, scenario, Kind, Staged, BEAM_WIDTH, REFERENCE_RATE, SLOTS};

/// Pool queries the beam microbenchmark drives to exhaustion.
const BEAM_QUERIES: usize = 256;
/// Hard-decision failure probability of `core.sin.ns_per_unit_storm`.
const MICRO_STORM_PROB: f64 = 0.3;

/// Host cost of one unit of each layer's work, for the attribution of
/// serving host time to layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    pub hop_ns: f64,
    pub vgen_ns_per_triple: f64,
    pub alloc_ns_per_task: f64,
    pub sin_ns_per_task: f64,
    pub insert_us: f64,
    pub delete_us: f64,
}

/// How long and how often a microbenchmark loops.
#[derive(Debug, Clone, Copy)]
struct Budget {
    min_loop: Duration,
    repeats: usize,
}

impl Budget {
    /// Median over `repeats` loops of host ns per unit; `pass` performs
    /// one pass over a fixed work list and returns how many units it did.
    fn ns_per_unit(self, mut pass: impl FnMut() -> u64) -> f64 {
        let samples: Vec<f64> = (0..self.repeats)
            .map(|_| {
                let start = Instant::now();
                let mut units = 0u64;
                loop {
                    units += pass();
                    if start.elapsed() >= self.min_loop {
                        break;
                    }
                }
                start.elapsed().as_nanos() as f64 / units.max(1) as f64
            })
            .collect();
        median(&samples)
    }
}

/// One scheduling round's hops in the reordered id space: what
/// `ServeEngine` hands `execute_round`.
type RoundHops = Vec<(u32, IterationTrace)>;

/// Drives [`BEAM_QUERIES`] pool queries to exhaustion in lock-step
/// groups of [`SLOTS`] (one hop per live query per round, as the serving
/// scheduler does) and returns the rounds, plus `(hops, vectors fetched)`.
fn record_rounds<S: ScoreSource + ?Sized>(
    source: &S,
    graph: &Csr,
    queries: &Dataset,
    entry: VectorId,
    prepared: &Prepared,
) -> (Vec<RoundHops>, u64, u64) {
    let mut rounds = Vec::new();
    let (mut hops, mut fetched) = (0u64, 0u64);
    let ids: Vec<VectorId> = (0..queries.len().min(BEAM_QUERIES) as VectorId).collect();
    for group in ids.chunks(SLOTS) {
        let mut live: Vec<(u32, BeamSearcher)> = group
            .iter()
            .enumerate()
            .map(|(slot, &q)| {
                let searcher = BeamSearcher::new(
                    graph.num_vertices(),
                    queries.vector(q).to_vec(),
                    vec![entry],
                    BEAM_WIDTH,
                    DistanceKind::L2,
                );
                (slot as u32, searcher)
            })
            .collect();
        while !live.is_empty() {
            let mut round = RoundHops::new();
            live.retain_mut(|(slot, searcher)| match searcher.step(source, graph) {
                Some(hop) => {
                    hops += 1;
                    fetched += hop.visited.len() as u64;
                    round.push((*slot, prepared.relabel_hop(&hop)));
                    true
                }
                None => false,
            });
            if !round.is_empty() {
                rounds.push(round);
            }
        }
    }
    (rounds, hops, fetched)
}

/// Host ns per hop of driving the pool queries to exhaustion against
/// `source` (searcher construction included, as at admission).
fn beam_ns_per_hop<S: ScoreSource + ?Sized>(
    budget: Budget,
    source: &S,
    graph: &Csr,
    queries: &Dataset,
    entry: VectorId,
) -> f64 {
    let count = queries.len().min(BEAM_QUERIES) as VectorId;
    budget.ns_per_unit(|| {
        let mut hops = 0u64;
        for q in 0..count {
            let mut searcher = BeamSearcher::new(
                graph.num_vertices(),
                queries.vector(q).to_vec(),
                vec![entry],
                BEAM_WIDTH,
                DistanceKind::L2,
            );
            while let Some(hop) = searcher.step(source, graph) {
                black_box(&hop);
                hops += 1;
            }
        }
        hops
    })
}

/// What the beam and scoring microbenchmarks produce for one source.
struct Traversal {
    /// The recorded rounds every replay downstream consumes.
    rounds: Vec<RoundHops>,
    hops: u64,
    fetched: u64,
    hop_ns: f64,
    /// Host ns per scored point (row or code).
    score_ns: f64,
}

/// `anns::beam` and the scoring kernel against one score source,
/// statically dispatched as in the serving engine's hop jobs. Scoring
/// runs over real neighbour lists (`score_batch` is
/// `DistanceKind::eval_batch_ids` for rows and
/// `QuantCodes::eval_batch_ids` for codes).
fn traverse<S: ScoreSource + ?Sized>(
    budget: Budget,
    source: &S,
    graph: &Csr,
    pool: &Dataset,
    entry: VectorId,
    prepared: &Prepared,
    rec: &mut Recorder,
) -> Traversal {
    rec.open("anns.beam");
    let (rounds, hops, fetched) = record_rounds(source, graph, pool, entry, prepared);
    let hop_ns = beam_ns_per_hop(budget, source, graph, pool, entry);
    rec.close(&[("hops", hops), ("fetched", fetched)]);

    rec.open("vector.score");
    let lists: Vec<&[VectorId]> = (0..graph.num_vertices().min(1024) as VectorId)
        .map(|v| graph.neighbors(v))
        .collect();
    let points: u64 = lists.iter().map(|l| l.len() as u64).sum();
    let mut out = Vec::new();
    let score_ns = budget.ns_per_unit(|| {
        for (i, ids) in lists.iter().enumerate() {
            let q = pool.vector((i % pool.len()) as VectorId);
            source.score_batch(DistanceKind::L2, q, ids, &mut out);
            black_box(&out);
        }
        points
    });
    rec.close(&[("points", points)]);
    Traversal {
        rounds,
        hops,
        fetched,
        hop_ns,
        score_ns,
    }
}

/// `Pool::run` of [`SLOTS`] no-op jobs per round: pure dispatch cost.
fn dispatch_us_per_round(budget: Budget, threads: usize) -> f64 {
    // One pass is long enough by itself at the full budget (10 000
    // rounds); the tiny budget of the unit tests shortens it.
    let rounds: u64 = if budget.min_loop.is_zero() {
        100
    } else {
        10_000
    };
    with_pool(
        threads,
        |job: u64| job.wrapping_add(1),
        |pool| {
            budget.ns_per_unit(|| {
                for round in 0..rounds {
                    let jobs: Vec<u64> = (round..round + SLOTS as u64).collect();
                    black_box(pool.run(jobs));
                }
                rounds
            })
        },
    ) / 1e3
}

/// Runs every microbenchmark the workload's layers call for, writing the
/// per-layer rows into `ledger`, and returns the unit costs.
pub fn run(st: &Staged, rec: &mut Recorder, ledger: &mut Ledger) -> UnitCosts {
    let kind = st.kind;
    let (dataset, index) = st.micro_target();
    let graph = index.base_graph();
    let entry = index.medoid();
    let config = &st.configs[0];
    let mut costs = UnitCosts::default();
    let budget = Budget {
        min_loop: Duration::from_millis(st.sizes.micro_loop_ms),
        repeats: st.sizes.micro_repeats,
    };
    rec.open("microbench");

    // ---- core::pipeline: reorder + placement + LUNCSR of the layout
    // the replayed rounds below run against.
    let (prepared, stage_s) = rec.scope("core.pipeline", |_| {
        Prepared::stage(config, graph, dataset, &BatchTrace::default())
    });
    ledger.set("core.pipeline.stage_s", stage_s);

    // ---- anns::beam and vector::distance / vector::quant. Quantized
    // traversal scores DRAM-resident codes (trained here, as a deployment
    // does at staging); every other workload scores full-precision rows.
    let (traversal, hop_row, score_row) = if kind == Kind::ClosedInt8 {
        let train_start = Instant::now();
        let codes =
            QuantCodes::train(QuantSpec::Int8, dataset, config.seed).expect("int8 spec trains");
        ledger.set("vector.quant.train_s", train_start.elapsed().as_secs_f64());
        (
            traverse(budget, &codes, graph, &st.pool, entry, &prepared, rec),
            "anns.beam.ns_per_hop_int8",
            "vector.quant.ns_per_code",
        )
    } else {
        (
            traverse(budget, dataset, graph, &st.pool, entry, &prepared, rec),
            "anns.beam.ns_per_hop",
            "vector.distance.ns_per_point",
        )
    };
    let Traversal {
        rounds,
        hops,
        fetched,
        hop_ns,
        score_ns,
    } = traversal;
    let queries = st.pool.len().min(BEAM_QUERIES) as f64;
    ledger.set("anns.beam.hops_per_query", hops as f64 / queries);
    ledger.set(
        "anns.beam.fetched_per_hop",
        fetched as f64 / hops.max(1) as f64,
    );
    ledger.set(hop_row, hop_ns);
    ledger.set(score_row, score_ns);
    costs.hop_ns = hop_ns;

    // ---- core::vgen, core::alloc, core::sin, flash::ecc: the Allocating
    // and Searching stages replayed on the recorded hops. Quantized
    // rounds never enter them.
    if kind != Kind::ClosedInt8 {
        let luncsr = &prepared.luncsr;
        let timing = &config.timing;
        let entries: Vec<Vec<(u32, VectorId, &[VectorId])>> = rounds
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|(slot, hop)| (*slot, hop.entry, hop.visited.as_slice()))
                    .collect()
            })
            .collect();

        rec.open("core.vgen");
        let triples: Vec<Vec<(u32, VectorId, u32)>> = entries
            .iter()
            .map(|e| Vgenerator.run(luncsr, timing, e).triples)
            .collect();
        let tasks: u64 = triples.iter().map(|t| t.len() as u64).sum();
        costs.vgen_ns_per_triple = budget.ns_per_unit(|| {
            for e in &entries {
                black_box(Vgenerator.run(luncsr, timing, e));
            }
            tasks
        });
        ledger.set("core.vgen.ns_per_triple", costs.vgen_ns_per_triple);
        rec.close(&[("triples", tasks)]);

        rec.open("core.alloc");
        let work: Vec<Vec<LunWork>> = triples
            .iter()
            .map(|t| Allocator.dispatch(luncsr, timing, t, false).work)
            .collect();
        costs.alloc_ns_per_task = budget.ns_per_unit(|| {
            for t in &triples {
                black_box(Allocator.dispatch(luncsr, timing, t, false));
            }
            tasks
        });
        ledger.set("core.alloc.ns_per_task", costs.alloc_ns_per_task);
        rec.close(&[("tasks", tasks)]);

        rec.open("core.sin");
        let units: u64 = work.iter().map(|w| w.len() as u64).sum();
        let sin_pass = |config: &NdsConfig, ecc: &EccEngine| {
            budget.ns_per_unit(|| {
                for w in work.iter().flatten() {
                    black_box(process_lun_work(w, luncsr, config, ecc));
                }
                units
            })
        };
        let ecc = EccEngine::new(&config.geometry, config.ecc);
        let ns_per_unit_calm = sin_pass(config, &ecc);
        ledger.set("core.sin.ns_per_unit", ns_per_unit_calm);
        costs.sin_ns_per_task = ns_per_unit_calm * units as f64 / tasks.max(1) as f64;
        ledger.set("core.sin.ns_per_task", costs.sin_ns_per_task);
        let storm = EccEngine::new(
            &config.geometry,
            EccConfig {
                hard_decision_failure_prob: MICRO_STORM_PROB,
                ..config.ecc
            },
        );
        ledger.set("core.sin.ns_per_unit_storm", sin_pass(config, &storm));
        let (mut hits, mut loads) = (0u64, 0u64);
        for w in work.iter().flatten() {
            let report = process_lun_work(w, luncsr, config, &ecc).report;
            hits += report.page_hits;
            loads += report.page_loads;
        }
        ledger.set(
            "core.sin.page_hit_ratio",
            hits as f64 / (hits + loads).max(1) as f64,
        );
        rec.close(&[("lun_units", units), ("tasks", tasks)]);

        rec.open("flash.ecc");
        let planes = config.geometry.total_planes();
        const DECODES: u32 = 4_096;
        ledger.set(
            "flash.ecc.ns_per_decode",
            budget.ns_per_unit(|| {
                let mut pass = ecc.begin_lun_pass();
                for i in 0..DECODES {
                    black_box(pass.decode_page(i % planes));
                }
                black_box(pass.into_delta());
                u64::from(DECODES)
            }),
        );
        let mut pass = ecc.begin_lun_pass();
        for i in 0..DECODES {
            pass.decode_page(i % planes);
        }
        ledger.set(
            "flash.ecc.soft_fallback_ratio",
            pass.hard_failures() as f64 / f64::from(DECODES),
        );
        rec.close(&[("decodes", u64::from(DECODES))]);
    }

    // ---- core::exec: what a round's fan-out costs before any work.
    rec.open("core.exec");
    ledger.set(
        "core.exec.dispatch_us_per_round_1t",
        dispatch_us_per_round(budget, 1),
    );
    ledger.set(
        "core.exec.dispatch_us_per_round_2t",
        dispatch_us_per_round(budget, 2),
    );
    rec.close(&[]);

    // ---- core::traffic: generating a trial's event stream.
    if kind.open_loop() {
        rec.open("core.traffic");
        let sc = scenario(kind, &st.sizes, &st.seeds, REFERENCE_RATE);
        let ns = budget.ns_per_unit(|| {
            black_box(generate_trace(&sc, &st.sizes));
            st.sizes.events as u64
        });
        ledger.set("core.traffic.generate_us_per_event", ns / 1e3);
        rec.close(&[("events", st.sizes.events as u64)]);
    }

    // ---- anns::vamana insert, core::deploy insert/delete on a scratch
    // deployment (mixed_rw's write path).
    if kind == Kind::MixedRw {
        rec.open("core.deploy");
        let inserts = st.ingest.len().min(200);
        let mut scratch_index = index.clone();
        let mut scratch_base = dataset.clone();
        let start = Instant::now();
        for row in 0..inserts as VectorId {
            let id = scratch_base
                .try_push(st.ingest.vector(row))
                .expect("ingest rows share the corpus dimension");
            black_box(scratch_index.insert(&scratch_base, id));
        }
        ledger.set(
            "anns.vamana.insert_us",
            start.elapsed().as_secs_f64() * 1e6 / inserts.max(1) as f64,
        );

        let start = Instant::now();
        let mut deploy = Deployment::stage(config, Box::new(index.clone()), dataset.clone());
        ledger.set("core.deploy.stage_ms", start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        for row in 0..inserts as VectorId {
            black_box(deploy.insert(config, st.ingest.vector(row)).is_ok());
        }
        costs.insert_us = start.elapsed().as_secs_f64() * 1e6 / inserts.max(1) as f64;
        ledger.set("core.deploy.insert_us", costs.insert_us);
        let deletes = (dataset.len() / 2).min(2_000);
        let start = Instant::now();
        for id in 0..deletes as VectorId {
            black_box(deploy.delete(config, id));
        }
        costs.delete_us = start.elapsed().as_secs_f64() * 1e6 / deletes.max(1) as f64;
        ledger.set("core.deploy.delete_us", costs.delete_us);
        rec.close(&[("inserts", inserts as u64), ("deletes", deletes as u64)]);
    }

    rec.close(&[]);
    costs
}
