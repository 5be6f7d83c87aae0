//! The hot loops that promise not to allocate, held to it: the LUN unit of
//! the round data path (nothing in steady state), a beam hop of the serving
//! searcher over rows and over int8 codes (nothing once the hop record is
//! warm), a whole serving round that admits, completes and updates nothing
//! (nothing), one that completes sessions — the exact rerank of the int8
//! ones included — (their result lists), a serving round after an online
//! insert (bytes that do not grow with the dataset — the graph is not
//! re-snapshotted), the batch engine's round loop (a count that does not
//! grow with the rounds replayed) and Vamana construction (a count that does not grow
//! with the dataset; O(1) per online insert).
//!
//! A counting global allocator (per-thread counters of calls and of bytes
//! requested, so the harness's other threads do not interfere) wraps the
//! system one for this test binary only. After one warm-up pass — the per-thread unit scratch grows to the
//! largest unit once — evaluating every unit of a round again must not
//! touch the heap: page loads, multi-plane rows and per-plane maxima live
//! in the reused scratch, and the ECC pass and its delta hold their
//! per-plane counters inline.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ndsearch::anns::beam::BeamSearcher;
use ndsearch::anns::index::{GraphAnnsIndex, MutableIndex, SearchParams};
use ndsearch::anns::trace::IterationTrace;
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::alloc::Allocator;
use ndsearch::core::config::NdsConfig;
use ndsearch::core::deploy::Deployment;
use ndsearch::core::engine::NdsEngine;
use ndsearch::core::pipeline::Prepared;
use ndsearch::core::serve::{QueryRequest, ServeConfig, ServeEngine, UpdateRequest};
use ndsearch::core::sin::process_lun_work;
use ndsearch::flash::ecc::EccEngine;
use ndsearch::flash::geometry::FlashGeometry;
use ndsearch::graph::csr::Csr;
use ndsearch::graph::luncsr::LunCsr;
use ndsearch::graph::mapping::{PlacementPolicy, VertexMapping};
use ndsearch::vector::quant::{QuantCodes, QuantSpec, ScoreSource};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::{Dataset, DistanceKind};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// One more allocator call on this thread, asking for `bytes`.
fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is two thread-local counters
// with `const` initializers and no destructor, so touching them never
// allocates and `try_with` tolerates thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f` on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Bytes `f` asked the allocator for on this thread.
fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn lun_units_allocate_nothing_once_the_scratch_is_warm() {
    let geom = FlashGeometry::tiny();
    let n = 1024usize;
    let csr = Csr::from_adjacency(&vec![Vec::new(); n]).unwrap();
    let mapping = VertexMapping::place(geom, n, 128, PlacementPolicy::MultiPlaneAware);
    let luncsr = LunCsr::new(csr, mapping);
    // A serving-sized round: 64 queries, ~6 neighbors each, spread over
    // every LUN, several queries landing on the same pages.
    let triples: Vec<(u32, u32, u32)> = (0..400u32)
        .map(|i| {
            let v = (i * 37) % n as u32;
            (i % 64, v, luncsr.lun_of(v))
        })
        .collect();
    for dynamic in [true, false] {
        for prob in [0.0, 0.3] {
            let mut config = NdsConfig {
                geometry: geom,
                ..NdsConfig::default()
            };
            config.scheduling.dynamic_allocating = dynamic;
            config.ecc.hard_decision_failure_prob = prob;
            let ecc = EccEngine::new(&geom, config.ecc);
            let work = Allocator
                .dispatch(&luncsr, &config.timing, &triples, false)
                .work;
            assert_eq!(work.len(), geom.total_luns() as usize);
            let pass = || -> u64 {
                work.iter()
                    .map(|w| process_lun_work(w, &luncsr, &config, &ecc).report.busy_ns)
                    .sum()
            };
            let warm = pass();
            let (again, allocations) = allocations_in(pass);
            assert_eq!(warm, again);
            assert_eq!(
                allocations,
                0,
                "{} units allocated (dynamic {dynamic}, ECC p {prob})",
                work.len()
            );
        }
    }
}

#[test]
fn a_warm_beam_hop_allocates_nothing() {
    // The serving scheduler's hop: `step_into` a record it keeps. Scoring
    // rows reads them in place; scoring int8 codes decodes in registers.
    let (base, queries) = DatasetSpec::deep_scaled(2_000, 8).build_pair();
    let index = Vamana::build(&base, VamanaParams::default());
    let (graph, entry) = (index.base_graph(), index.medoid());
    let codes = QuantCodes::train(QuantSpec::Int8, &base, 1).unwrap();
    let sources: [(&str, &dyn ScoreSource); 2] = [("rows", &base), ("int8 codes", &codes)];
    let mut hop = IterationTrace::default();
    for (label, source) in sources {
        for (_, query) in queries.iter() {
            let mut searcher = BeamSearcher::new(
                base.len(),
                query.to_vec(),
                vec![entry],
                64,
                DistanceKind::L2,
            );
            // Warm-up: the seed hop and the entry's expansion (every
            // neighbor is new) grow the record and the score buffer to the
            // graph's degree.
            for _ in 0..2 {
                assert!(searcher.step_into(source, graph, &mut hop));
            }
            let (hops, allocations) = allocations_in(|| {
                let mut hops = 0;
                while searcher.step_into(source, graph, &mut hop) {
                    hops += 1;
                }
                hops
            });
            assert!(hops >= 10, "{label}: only {hops} warm hops");
            assert_eq!(allocations, 0, "{label}: {hops} warm hops allocated");
        }
    }
}

#[test]
fn a_warm_serving_round_allocates_nothing() {
    // A round that only hops — nothing admitted, completed or updated —
    // and one in which sessions finish (an int8 one reranks first), over a
    // mutable deployment (live index rows, flash rounds) and over
    // one searching int8 codes, with clean reads and under an ECC storm
    // (p = 0.9, as `cluster_4x2` storms a replica: soft-decode fallbacks
    // on nearly every page load). The same batch is served twice: the
    // first pass grows every engine buffer to what these queries need,
    // the second repeats its rounds exactly.
    let (base, queries) = DatasetSpec::sift_scaled(1_500, 16).build_pair();
    let index = Vamana::build(&base, VamanaParams::default());
    let entry = index.medoid();
    let runs = [QuantSpec::None, QuantSpec::Int8].map(|q| [(q, 0.0), (q, 0.9)]);
    for (quantization, prob) in runs.into_iter().flatten() {
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.ecc.hard_decision_failure_prob = prob;
        config.quantization = quantization;
        let deploy = Deployment::stage(&config, Box::new(index.clone()), base.clone());
        let mut engine = ServeEngine::with_deployment(&config, ServeConfig::default(), deploy);
        let (mut quiet_rounds, mut finishing_rounds) = (0, 0);
        for pass in 0..2 {
            let now = engine.now_ns();
            for (_, q) in queries.iter() {
                engine.submit(QueryRequest::at(now, q.to_vec(), vec![entry]));
            }
            // The admitting round seeds every searcher and the next one
            // expands the entry (every neighbor is new), which grows a new
            // searcher's score buffer to the graph's degree.
            for _ in 0..2 {
                assert!(engine.step_round());
            }
            loop {
                let outstanding = engine.outstanding();
                let (more, allocations) = allocations_in(|| engine.step_round());
                let finished = (outstanding - engine.outstanding()) as u64;
                if pass == 1 && finished == 0 {
                    quiet_rounds += 1;
                    assert_eq!(
                        allocations, 0,
                        "{quantization:?} at ECC p {prob}: a hop-only round allocated"
                    );
                } else if pass == 1 {
                    // A finishing session takes its result list with it and
                    // nothing else: an int8 one's rerank stages its
                    // candidates in the engine's own buffers.
                    finishing_rounds += 1;
                    assert_eq!(
                        allocations, finished,
                        "{quantization:?} at ECC p {prob}: a round finishing {finished} sessions"
                    );
                }
                if !more {
                    break;
                }
            }
        }
        assert!(
            quiet_rounds >= 10,
            "{quantization:?} at ECC p {prob}: only {quiet_rounds} hop-only rounds"
        );
        assert!(
            finishing_rounds >= 2,
            "{quantization:?} at ECC p {prob}: {finishing_rounds}"
        );
        let fallbacks = engine.report().stats.ecc_soft_fallbacks;
        assert_eq!(fallbacks > 0, prob > 0.0, "{quantization:?}: {fallbacks}");
    }
}

#[test]
fn the_batch_round_loop_allocates_nothing_per_round() {
    // The batch engine under the full scheduling stack (speculative
    // prefetch on), replaying one batch cut to R and to 2R iterations per
    // query: what a run allocates is its engine-wide buffers (each grown
    // to the batch's widest round), never something per round, so the
    // longer replay asks the allocator no more often.
    let (base, queries) = DatasetSpec::sift_scaled(1_500, 32).build_pair();
    let index = Vamana::build(&base, VamanaParams::default());
    let trace = index
        .search_batch(&base, &queries, &SearchParams::default())
        .trace;
    let shortest = trace.queries.iter().map(|q| q.iterations.len()).min();
    let r = 8;
    assert!(shortest >= Some(2 * r), "traces too short: {shortest:?}");
    let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    assert!(config.scheduling.speculative);
    let run_allocations = |rounds: usize| {
        let mut cut = trace.clone();
        for q in &mut cut.queries {
            q.iterations.truncate(rounds);
        }
        let prepared = Prepared::stage(&config, index.base_graph(), &base, &cut);
        let engine = NdsEngine::new(&config);
        let (report, allocations) = allocations_in(|| engine.run(&prepared));
        assert_eq!(report.iterations, rounds);
        assert!(
            report.speculation.hits > 0,
            "{rounds} rounds: no prefetch hit"
        );
        allocations
    };
    // Warm-up: the per-thread LUN-unit scratch grows to the widest unit.
    run_allocations(2 * r);
    let (short, long) = (run_allocations(r), run_allocations(2 * r));
    assert!(
        long <= short + 8,
        "allocations grew with rounds: {short} over {r}, {long} over {}",
        2 * r
    );
}

#[test]
fn a_round_after_an_insert_allocates_the_same_at_any_dataset_size() {
    // One insert is applied per round, so every round but the first
    // follows one. What such a round asks the allocator for is the next
    // insert's O(R) lists; the graph the hops read is the index's live
    // rows, so nothing dataset-sized is rebuilt (a CSR re-snapshot per
    // update round was 2 x 132 B x n: 1 MB more at the larger size here).
    let median_bytes = |n: usize| {
        let (base, extra) = DatasetSpec::sift_scaled(n, 48).build_pair();
        let index = Vamana::build(&base, VamanaParams::default());
        let mut config = NdsConfig::scaled_for(2 * n, base.stored_vector_bytes());
        config.ecc.hard_decision_failure_prob = 0.0;
        let serve = ServeConfig {
            max_updates_per_round: 1,
            ..ServeConfig::default()
        };
        let deploy = Deployment::stage(&config, Box::new(index), base);
        let mut engine = ServeEngine::with_deployment(&config, serve, deploy);
        for (_, v) in extra.iter() {
            engine.submit_update(UpdateRequest::insert_at(0, v.to_vec()));
        }
        assert!(engine.step_round(), "applies the first insert");
        let mut bytes = Vec::new();
        loop {
            let (more, round_bytes) = bytes_in(|| engine.step_round());
            bytes.push(round_bytes);
            if !more {
                break;
            }
        }
        assert_eq!(engine.deployment().dataset().len(), n + 48);
        bytes.sort_unstable();
        bytes[bytes.len() / 2]
    };
    let (small, large) = (median_bytes(500), median_bytes(4_000));
    assert!(
        small.abs_diff(large) <= 4096,
        "bytes per update round grew with n: {small} at 500, {large} at 4 000"
    );
}

#[test]
fn vamana_build_allocations_do_not_grow_with_the_dataset() {
    // The build owns one scratch (visited set, queues, pool, prune lists)
    // and one flat adjacency, so what it allocates is a handful of arrays
    // plus the doublings of the scratch — not several vectors per
    // vertex-pass, which at n = 2 000 was more than ten thousand.
    let count = |n: usize| {
        let ds = DatasetSpec::sift_scaled(n, 1).build();
        allocations_in(|| Vamana::build(&ds, VamanaParams::default())).1
    };
    let (small, large) = (count(500), count(2_000));
    assert!(small <= 64, "build at n = 500 allocated {small} times");
    assert!(
        large <= small + 8,
        "build allocations grew with n: {small} at 500, {large} at 2 000"
    );
}

#[test]
fn vamana_insert_allocates_o1_once_warm() {
    let all = DatasetSpec::sift_scaled(900, 1).build();
    let mut base = Dataset::new(all.dim());
    for (_, v) in all.iter().take(600) {
        base.try_push(v).unwrap();
    }
    let mut index = Vamana::build(&base, VamanaParams::default());
    let mut insert_next = |base: &mut Dataset| {
        let id = base.try_push(all.vector(base.len() as u32)).unwrap();
        allocations_in(|| index.insert(base, id)).1
    };
    // Warm-up: the scratch grows to the largest pool it will see.
    for _ in 0..100 {
        insert_next(&mut base);
    }
    // Then each insert allocates its `repaired` list, and now and then a
    // per-vertex array doubles.
    let counted = 200;
    let allocations: u64 = (0..counted).map(|_| insert_next(&mut base)).sum();
    assert!(
        allocations <= counted + 8,
        "{counted} warm inserts allocated {allocations} times"
    );
}
