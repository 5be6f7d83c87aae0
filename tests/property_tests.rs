//! Workspace-level property-based tests (proptest) on the core data
//! structures and invariants.

use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};

use ndsearch::anns::beam::{beam_search, Adjacency, BeamSearcher, VisitedSet};
use ndsearch::core::alloc::{LunWork, VertexTask};
use ndsearch::core::config::{NdsConfig, MAC_LANES, RESULT_ENTRY_BYTES};
use ndsearch::core::sin::{process_lun_work, LunOutcome, SinReport};
use ndsearch::core::traffic::{
    ArrivalModel, EventKind, QueryMix, Scenario, TenantProfile, ZipfSampler,
};
use ndsearch::flash::ecc::{EccConfig, EccEngine};
use ndsearch::flash::ftl::Ftl;
use ndsearch::flash::geometry::{FlashGeometry, PhysAddr};
use ndsearch::graph::csr::Csr;
use ndsearch::graph::luncsr::LunCsr;
use ndsearch::graph::mapping::{PlacementPolicy, VertexMapping};
use ndsearch::graph::reorder::{bandwidth, Permutation, ReorderMethod};
use ndsearch::vector::distance::{
    l2_squared, l2_squared_scalar, l2_squared_unrolled, DistanceKind,
};
use ndsearch::vector::quant::{Int8Quantizer, QuantCodes, QuantSpec, ScoreSource};
use ndsearch::vector::topk::{Neighbor, TopK};
use ndsearch::vector::Dataset;

/// The kernel-equivalence dims: every in-register shape (1..=8), the two
/// bench dims, and an odd length that exercises the 32-, 8- and scalar-tail
/// paths at once.
const KERNEL_DIMS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 64, 128, 257];

/// Distance in units-in-the-last-place between two same-sign finite floats.
fn ulp_diff(a: f32, b: f32) -> u64 {
    if a == b {
        return 0;
    }
    let ia = a.to_bits() as i64;
    let ib = b.to_bits() as i64;
    let ma = if ia < 0 { i32::MIN as i64 - ia } else { ia };
    let mb = if ib < 0 { i32::MIN as i64 - ib } else { ib };
    (ma - mb).unsigned_abs()
}

/// `core::sin::process_lun_work` as it was written before the round data
/// path went map-free: a `BTreeMap`/`BTreeSet` per question asked of the
/// unit. Kept here, test-only, as the oracle the flat implementation must
/// equal field for field.
fn process_lun_work_with_maps(
    work: &LunWork,
    luncsr: &LunCsr,
    config: &NdsConfig,
    ecc: &EccEngine,
) -> LunOutcome {
    let geom = &config.geometry;
    let timing = &config.timing;
    let dim_bytes = u64::from(luncsr.mapping().slot_bytes());
    let pages_per_plane = u64::from(geom.blocks_per_plane) * u64::from(geom.pages_per_block);
    let decompose = |page_key: u64| {
        let plane = (page_key / pages_per_plane) as u32;
        let within = page_key % pages_per_plane;
        let block = (within / u64::from(geom.pages_per_block)) as u32;
        let page = (within % u64::from(geom.pages_per_block)) as u32;
        (plane, block, page)
    };
    // Load events: (plane, block, page) with a multiplicity.
    let mut load_events: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
    if config.scheduling.dynamic_allocating {
        let distinct: BTreeSet<u64> = work.tasks.iter().map(|t| t.addr.page_key(geom)).collect();
        for page_key in distinct {
            *load_events.entry(decompose(page_key)).or_default() += 1;
        }
    } else {
        let mut buffered: BTreeMap<u32, u64> = BTreeMap::new(); // plane → page
        for t in &work.tasks {
            let page_key = t.addr.page_key(geom);
            let (plane, _, _) = decompose(page_key);
            if buffered.get(&plane) != Some(&page_key) {
                buffered.insert(plane, page_key);
                *load_events.entry(decompose(page_key)).or_default() += 1;
            }
        }
    }
    let accesses = work.tasks.len() as u64;
    let page_loads: u64 = load_events.values().sum();
    let page_hits = accesses.saturating_sub(page_loads);

    let mut plane_loads: BTreeMap<(u32, u32), BTreeMap<u32, u64>> = BTreeMap::new();
    for (&(plane, block, page), &count) in &load_events {
        *plane_loads
            .entry((block, page))
            .or_default()
            .entry(plane)
            .or_default() += count;
    }
    let mut sense_ops = 0u64;
    let mut merged_multi_plane = 0u64;
    for per_plane in plane_loads.values() {
        sense_ops += per_plane.values().copied().max().unwrap_or(0);
        if per_plane.len() > 1 {
            merged_multi_plane += 1;
        }
    }

    let sense_ns = sense_ops * timing.t_read_page_ns;
    let mut ecc_pass = ecc.begin_lun_pass();
    let mut plane_ecc: BTreeMap<u32, u64> = BTreeMap::new();
    let mut soft_fallbacks = 0u64;
    for (&(plane, _, _), &count) in &load_events {
        let before = ecc_pass.hard_failures();
        let mut t = 0;
        for _ in 0..count {
            t += ecc_pass.decode_page(plane);
        }
        soft_fallbacks += ecc_pass.hard_failures() - before;
        *plane_ecc.entry(plane).or_default() += t;
    }
    let ecc_ns = plane_ecc.values().copied().max().unwrap_or(0);
    let mut plane_distances: BTreeMap<u32, u64> = BTreeMap::new();
    let mut plane_vertices: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for t in &work.tasks {
        let (plane, _, _) = decompose(t.addr.page_key(geom));
        *plane_distances.entry(plane).or_default() += 1;
        plane_vertices.entry(plane).or_default().insert(t.vertex);
    }
    let distances = work.tasks.len() as u64;
    let lanes_per_plane = (u64::from(MAC_LANES) / u64::from(geom.planes_per_lun)).max(1);
    let compute_ns = plane_distances
        .iter()
        .map(|(plane, &d)| {
            let unique = plane_vertices.get(plane).map_or(0, |s| s.len() as u64);
            let stream = timing.page_buffer_stream_ns(unique * dim_bytes);
            let mac = timing.accel_cycles_ns(d * dim_bytes.max(1) / lanes_per_plane);
            stream.max(mac)
        })
        .max()
        .unwrap_or(0);

    let non_spec = work.tasks.iter().filter(|t| !t.speculative).count() as u64;
    let result_bytes = non_spec * u64::from(RESULT_ENTRY_BYTES);
    LunOutcome {
        lun: work.lun,
        report: SinReport {
            sense_ops,
            page_loads,
            multi_plane_ops: merged_multi_plane,
            page_hits,
            distances,
            busy_ns: sense_ns + ecc_ns + compute_ns,
            sense_ns,
            ecc_ns,
            compute_ns,
            result_bytes,
            soft_fallbacks,
        },
        ecc: ecc_pass.into_delta(),
    }
}

proptest! {
    // Random units against the map-based oracle. The small ranges make
    // the interesting shapes common: several queries on one vertex, the
    // same (block, page) row on both planes (a multi-plane sense),
    // repeated loads of one plane, speculative tasks mixed in — under both
    // page-buffer models, and at ECC failure probabilities 0 / 0.3 / 1
    // over failure streams whose cursors a warm-up pass has already moved.
    #[test]
    fn flat_lun_unit_equals_the_map_based_oracle(
        raw in proptest::collection::vec((0u32..6, 0u32..2, 0u32..6, 0u32..2), 0..48),
        speculative in proptest::collection::vec(any::<bool>(), 48),
        knobs in (any::<bool>(), 0u32..3, 0u32..8),
        warmup in proptest::collection::vec(0u32..16, 0..40),
    ) {
        let (dynamic, prob, lun) = knobs;
        let geom = FlashGeometry::tiny();
        let mut config = NdsConfig {
            geometry: geom,
            ..NdsConfig::default()
        };
        config.scheduling.dynamic_allocating = dynamic;
        config.ecc = EccConfig {
            hard_decision_failure_prob: [0.0, 0.3, 1.0][prob as usize],
            ..EccConfig::default()
        };
        let n = 64usize;
        let csr = Csr::from_adjacency(&vec![Vec::new(); n]).unwrap();
        let mapping = VertexMapping::place(geom, n, 128, PlacementPolicy::MultiPlaneAware);
        let luncsr = LunCsr::new(csr, mapping);

        let mut ecc = EccEngine::new(&geom, config.ecc);
        let mut pass = ecc.begin_lun_pass();
        for &plane in &warmup {
            pass.decode_page(plane);
        }
        ecc.apply(&pass.into_delta());

        let tasks: Vec<VertexTask> = raw
            .iter()
            .zip(&speculative)
            .map(|(&(query, plane_in_lun, row, slot), &speculative)| VertexTask {
                query,
                // Two vertices per page, so queries often share one.
                vertex: (plane_in_lun * 6 + row) * 2 + slot,
                addr: PhysAddr::checked(&geom, lun, plane_in_lun, row / 3, row % 3, slot * 128)
                    .unwrap(),
                speculative,
            })
            .collect();
        let work = LunWork { lun, tasks };
        let flat = process_lun_work(&work, &luncsr, &config, &ecc);
        let oracle = process_lun_work_with_maps(&work, &luncsr, &config, &ecc);
        prop_assert_eq!(&flat, &oracle);
        // A second evaluation on the same thread reuses the unit scratch:
        // nothing may carry over.
        prop_assert_eq!(process_lun_work(&work, &luncsr, &config, &ecc), oracle);
    }

    #[test]
    fn topk_matches_sort(
        v in proptest::collection::vec(0u32..10_000, 1..200),
        k in 1usize..20,
    ) {
        let mut top = TopK::new(k);
        for (i, &x) in v.iter().enumerate() {
            top.push(Neighbor::new(x as f32, i as u32));
        }
        let got: Vec<f32> = top.into_sorted_vec().iter().map(|n| n.distance).collect();
        let mut expected: Vec<f32> = v.iter().map(|&x| x as f32).collect();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        expected.truncate(k);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn l2_is_symmetric_and_nonnegative(
        a in proptest::collection::vec(-100.0f32..100.0, 8),
        b in proptest::collection::vec(-100.0f32..100.0, 8),
    ) {
        let d1 = l2_squared(&a, &b);
        let d2 = l2_squared(&b, &a);
        prop_assert!(d1 >= 0.0);
        prop_assert!((d1 - d2).abs() <= f32::EPSILON * d1.abs().max(1.0));
        prop_assert_eq!(l2_squared(&a, &a), 0.0);
    }

    // ---- Kernel-tier equivalence: scalar vs unrolled vs dispatched
    // (AVX2/FMA when available) must agree within 16 ulp on every dim
    // shape, including odd tails. L2 terms are squares (always positive),
    // so any input range is cancellation-free.
    #[test]
    fn l2_kernel_tiers_agree_within_16_ulp(
        raw_a in proptest::collection::vec(-100.0f32..100.0, 257),
        raw_b in proptest::collection::vec(-100.0f32..100.0, 257),
        di in 0usize..11,
    ) {
        let dim = KERNEL_DIMS[di];
        let (a, b) = (&raw_a[..dim], &raw_b[..dim]);
        let scalar = l2_squared_scalar(a, b);
        prop_assert!(ulp_diff(scalar, l2_squared_unrolled(a, b)) <= 16, "unrolled, dim {}", dim);
        prop_assert!(ulp_diff(scalar, l2_squared(a, b)) <= 16, "dispatched, dim {}", dim);
        // The public eval entry point uses the dispatched kernel verbatim.
        prop_assert_eq!(DistanceKind::L2.eval(a, b).to_bits(), l2_squared(a, b).to_bits());
    }

    // `eval_batch_ids` must match per-pair `eval` element-wise, bit for
    // bit.
    #[test]
    fn eval_batch_matches_eval_elementwise(
        flat in proptest::collection::vec(0.01f32..1.0, 257 * 5),
        q_raw in proptest::collection::vec(0.01f32..1.0, 257),
        di in 0usize..11,
    ) {
        let dim = KERNEL_DIMS[di];
        let q = &q_raw[..dim];
        let rows: Vec<&[f32]> = (0..5).map(|i| &flat[i * 257..i * 257 + dim]).collect();
        let ds = ndsearch::vector::Dataset::from_rows(
            dim,
            rows.iter().map(|r| r.to_vec()).collect(),
        ).unwrap();
        let ids: Vec<u32> = vec![4, 0, 2, 2, 1, 3];
        let mut by_id = Vec::new();
        DistanceKind::L2.eval_batch_ids(q, &ds, &ids, &mut by_id);
        prop_assert_eq!(by_id.len(), ids.len());
        for (&id, got) in ids.iter().zip(&by_id) {
            prop_assert_eq!(got.to_bits(), DistanceKind::L2.eval(q, ds.vector(id)).to_bits());
        }
    }

    #[test]
    fn permutation_round_trips(n in 1usize..200, seed in any::<u64>()) {
        let lists = vec![Vec::new(); n];
        let csr = Csr::from_adjacency(&lists).unwrap();
        let perm = ReorderMethod::RandomShuffle.permutation(&csr, seed);
        for v in 0..n as u32 {
            prop_assert_eq!(perm.old_of(perm.new_of(v)), v);
        }
    }

    #[test]
    fn relabel_preserves_edge_count(
        edges in proptest::collection::vec((0u32..50, 0u32..50), 0..150),
        seed in any::<u64>(),
    ) {
        let csr = Csr::from_edges(50, &edges, false).unwrap();
        let perm = ReorderMethod::RandomShuffle.permutation(&csr, seed);
        let relabeled = csr.relabel(&perm);
        prop_assert_eq!(relabeled.num_edges(), csr.num_edges());
        // Degree multiset is preserved.
        let mut d1: Vec<usize> = (0..50u32).map(|v| csr.degree(v)).collect();
        let mut d2: Vec<usize> = (0..50u32).map(|v| relabeled.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn degree_ascending_bfs_never_worse_than_shuffle(
        ring_extra in 2u32..20,
        seed in any::<u64>(),
    ) {
        let n = 120u32;
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            edges.push((i, (i + ring_extra) % n));
        }
        let g = Csr::from_edges(n as usize, &edges, true).unwrap();
        let shuffled = g.relabel(&ReorderMethod::RandomShuffle.permutation(&g, seed));
        let ours = shuffled.relabel(
            &ReorderMethod::DegreeAscendingBfs.permutation(&shuffled, 0),
        );
        prop_assert!(bandwidth(&ours) <= bandwidth(&shuffled) + 1e-9);
    }

    #[test]
    fn mapping_is_injective(
        n in 1usize..2000,
        bytes in 64usize..512,
        multiplane in any::<bool>(),
    ) {
        let geom = FlashGeometry::tiny();
        let capacity = geom.total_pages() as usize * (geom.page_bytes as usize / bytes);
        let n = n.min(capacity);
        let policy = if multiplane {
            PlacementPolicy::MultiPlaneAware
        } else {
            PlacementPolicy::Linear
        };
        let m = VertexMapping::place(geom, n, bytes, policy);
        let mut seen = std::collections::HashSet::new();
        for v in 0..n as u32 {
            let a = m.addr_identity(v);
            prop_assert!(seen.insert((a.lun, a.plane_in_lun, a.block, a.page, a.byte)));
        }
    }

    #[test]
    fn luncsr_survives_random_refreshes(
        ops in proptest::collection::vec((0u32..16, 0u32..4), 0..100),
    ) {
        let geom = FlashGeometry::tiny();
        let n = 300usize;
        let lists: Vec<Vec<u32>> = (0..n as u32).map(|v| vec![(v + 1) % n as u32]).collect();
        let csr = Csr::from_adjacency(&lists).unwrap();
        let mapping = VertexMapping::place(geom, n, 128, PlacementPolicy::MultiPlaneAware);
        let mut luncsr = LunCsr::new(csr, mapping);
        let mut ftl = Ftl::new(geom, 5);
        for (plane, block) in ops {
            for ev in ftl.refresh_block(plane, block) {
                luncsr.apply_refresh(&ev);
            }
        }
        prop_assert!(ftl.is_bijective());
        prop_assert!(luncsr.consistent_with_ftl(&ftl));
    }

    #[test]
    fn delta_overlay_compact_preserves_live_reachability(
        appends in proptest::collection::vec(proptest::collection::vec(0u32..10_000, 0..6), 1..40),
        patches in proptest::collection::vec((0u32..10_000, proptest::collection::vec(0u32..10_000, 0..6)), 0..20),
        tombstones in proptest::collection::vec(0u32..10_000, 0..25),
    ) {
        // Base: a 100-vertex ring staged as LUNCSR; then a random overlay
        // of appends, backlink patches and tombstones.
        let geom = FlashGeometry::tiny();
        let n0 = 100usize;
        let lists: Vec<Vec<u32>> = (0..n0 as u32).map(|v| vec![(v + 1) % n0 as u32]).collect();
        let csr = Csr::from_adjacency(&lists).unwrap();
        let mapping = VertexMapping::place(geom, n0, 128, PlacementPolicy::MultiPlaneAware);
        let mut lc = LunCsr::new(csr, mapping);
        for adj in appends {
            let n = lc.num_vertices() as u32;
            lc.append_vertex(adj.into_iter().map(|x| x % n).collect());
        }
        let n = lc.num_vertices() as u32;
        for (v, adj) in patches {
            lc.set_neighbors(v % n, adj.into_iter().map(|x| x % n).collect());
        }
        for t in tombstones {
            lc.tombstone(t % n);
        }
        let compacted = lc.compact();
        prop_assert_eq!(compacted.num_vertices(), lc.num_vertices());
        prop_assert_eq!(compacted.delta_vertices(), 0);
        // Every edge reachable through base+delta between live vertices is
        // identically reachable after compact(), and nothing else is.
        for v in 0..n {
            prop_assert_eq!(compacted.is_tombstoned(v), lc.is_tombstoned(v));
            if lc.is_tombstoned(v) {
                prop_assert!(compacted.neighbors(v).is_empty());
                continue;
            }
            let live: Vec<u32> = lc
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&nb| !lc.is_tombstoned(nb))
                .collect();
            prop_assert_eq!(compacted.neighbors(v), live.as_slice());
        }
        // Compaction is deterministic and idempotent on the live edge set.
        let twice = compacted.compact();
        for v in 0..n {
            prop_assert_eq!(twice.neighbors(v), compacted.neighbors(v));
        }
        // Fresh placement: addresses valid and unique.
        let mut seen = std::collections::HashSet::new();
        for v in 0..n {
            let a = compacted.physical_addr(v);
            prop_assert!(seen.insert((a.lun, a.plane_in_lun, a.block, a.page, a.byte)));
        }
    }

    #[test]
    fn zipf_skew_tracks_theta(
        n in 8usize..40,
        theta in 0.7f64..1.6,
        seed in any::<u64>(),
    ) {
        // Frequencies are rank-ordered, and raising theta concentrates
        // more mass on the hottest rank.
        let draws = 4_000usize;
        let hist = |theta: f64| {
            let z = ZipfSampler::new(n, theta);
            let mut rng = ndsearch::vector::rng::Pcg32::seed_from_u64(seed);
            let mut h = vec![0usize; n];
            for _ in 0..draws {
                h[z.sample(&mut rng)] += 1;
            }
            h
        };
        let lo = hist(theta);
        prop_assert_eq!(lo.iter().sum::<usize>(), draws);
        prop_assert!(lo[0] > lo[n - 1], "rank 0 ({}) not hotter than rank {} ({})", lo[0], n - 1, lo[n - 1]);
        let first_half: usize = lo[..n / 2].iter().sum();
        prop_assert!(first_half > draws - first_half, "mass not front-loaded");
        let hi = hist(theta + 0.6);
        prop_assert!(hi[0] > lo[0], "theta {} -> {} hot-rank mass fell: {} !> {}", theta, theta + 0.6, hi[0], lo[0]);
    }

    #[test]
    fn traffic_arrivals_are_monotone_for_every_model(
        model_pick in 0usize..3,
        rate in 500.0f64..50_000.0,
        events in 10usize..200,
        start in 0u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let arrivals = match model_pick {
            0 => ArrivalModel::Poisson { rate_qps: rate },
            1 => ArrivalModel::Bursty {
                base_rate_qps: rate,
                spike_rate_qps: rate * 20.0,
                spike_windows: vec![(500_000, 1_500_000)],
            },
            _ => ArrivalModel::Diurnal {
                profile: vec![1.0, 0.2, 0.05, 0.6],
                period_ns: 4_000_000,
                peak_rate_qps: rate,
            },
        };
        let s = Scenario {
            arrivals,
            mix: QueryMix {
                zipf_theta: 0.9,
                delete_fraction: 0.0,
                tenants: vec![TenantProfile::new(0), TenantProfile::new(7).weight(2.0)],
            },
            events,
            start_ns: start,
            seed,
        };
        let t = s.generate(16, 0, 0..0);
        prop_assert_eq!(t.len(), events);
        // Merged stream is non-decreasing; each tenant's sub-stream is
        // strictly increasing (open-loop gaps are at least 1 ns).
        prop_assert!(t.events.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        prop_assert!(t.events.iter().all(|e| e.arrival_ns > start));
        for tenant in [0u32, 7] {
            let times: Vec<u64> = t
                .events
                .iter()
                .filter(|e| e.tenant == tenant)
                .map(|e| e.arrival_ns)
                .collect();
            prop_assert!(!times.is_empty());
            prop_assert!(times.windows(2).all(|w| w[0] < w[1]),
                "tenant {} sub-stream not strictly monotone", tenant);
        }
    }

    #[test]
    fn traffic_replay_is_bit_identical(
        events in 1usize..150,
        theta in 0.0f64..1.5,
        update_fraction in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let s = Scenario {
            arrivals: ArrivalModel::Poisson { rate_qps: 5_000.0 },
            mix: QueryMix {
                zipf_theta: theta,
                delete_fraction: 0.5,
                tenants: vec![
                    TenantProfile::new(2).deadline_ns(50_000),
                    TenantProfile::new(5).update_fraction(update_fraction).k(4),
                ],
            },
            events,
            start_ns: 0,
            seed,
        };
        let a = s.generate(32, 8, 10..50);
        prop_assert_eq!(&a, &s.generate(32, 8, 10..50));
        // Deadlines and k ride the right tenants.
        for e in &a.events {
            if let EventKind::Query { k, deadline_ns, .. } = &e.kind {
                match e.tenant {
                    2 => {
                        prop_assert_eq!(*k, None);
                        prop_assert_eq!(*deadline_ns, Some(e.arrival_ns + 50_000));
                    }
                    _ => {
                        prop_assert_eq!(*k, Some(4));
                        prop_assert_eq!(*deadline_ns, None);
                    }
                }
            }
        }
    }

    #[test]
    fn traffic_trace_is_invariant_under_tenant_order(
        events in 1usize..150,
        seed in any::<u64>(),
        rot in 0usize..3,
    ) {
        let tenants = vec![
            TenantProfile::new(0).weight(3.0).deadline_ns(80_000),
            TenantProfile::new(3).update_fraction(0.4),
            TenantProfile::new(9).weight(0.5).k(2),
        ];
        let mut s = Scenario {
            arrivals: ArrivalModel::Poisson { rate_qps: 2_000.0 },
            mix: QueryMix {
                zipf_theta: 0.8,
                delete_fraction: 0.3,
                tenants: tenants.clone(),
            },
            events,
            start_ns: 0,
            seed,
        };
        let reference = s.generate(16, 4, 0..30);
        let mut permuted = tenants;
        permuted.rotate_left(rot);
        permuted.reverse();
        s.mix.tenants = permuted;
        prop_assert_eq!(reference, s.generate(16, 4, 0..30));
    }

    // ---- Compressed-vector codes: training and encoding are pure
    // functions of (rows, spec, seed), so a code table is bit-identical
    // across regeneration, and a row's code is invariant under the order
    // rows are assigned to shards or tenants.
    #[test]
    fn quant_codes_bit_identical_across_regeneration_and_row_order(
        flat in proptest::collection::vec(-50.0f32..50.0, 12 * 40),
        seed in any::<u64>(),
        use_pq in any::<bool>(),
        rot in 1usize..39,
    ) {
        let dim = 12;
        let rows: Vec<Vec<f32>> = flat.chunks(dim).map(|c| c.to_vec()).collect();
        let n = rows.len();
        let ds = Dataset::from_rows(dim, rows.clone()).unwrap();
        let spec = if use_pq {
            QuantSpec::Pq { m: 4, bits: 4 }
        } else {
            QuantSpec::Int8
        };
        let full = QuantCodes::train(spec, &ds, seed).unwrap();
        prop_assert_eq!(&full, &QuantCodes::train(spec, &ds, seed).unwrap());
        prop_assert_eq!(&full.repack(&ds), &full);
        // Encode a rotated copy through the same trained quantizer: each
        // row's code must match its code in the original table.
        let mut rotated = rows;
        rotated.rotate_left(rot);
        let repacked = full.repack(&Dataset::from_rows(dim, rotated).unwrap());
        for i in 0..n {
            prop_assert_eq!(
                repacked.code(i as u32),
                full.code(((i + rot) % n) as u32),
                "row {} code changed under rotation {}", i, rot
            );
        }
    }

    // Int8 reconstruction: per dimension the round-trip error is at most
    // half the trained quantization step (plus f32 rounding slack) for
    // in-range values — and training scans every row at this scale, so
    // all stored rows are in range.
    #[test]
    fn int8_reconstruction_error_is_bounded_by_half_step(
        flat in proptest::collection::vec(-80.0f32..80.0, 9 * 30),
        seed in any::<u64>(),
    ) {
        let dim = 9;
        let rows: Vec<Vec<f32>> = flat.chunks(dim).map(|c| c.to_vec()).collect();
        let ds = Dataset::from_rows(dim, rows).unwrap();
        let q = Int8Quantizer::train(&ds, seed);
        let mut code = Vec::new();
        let mut rec = vec![0.0f32; dim];
        for (_, row) in ds.iter() {
            code.clear();
            q.encode_into(row, &mut code);
            q.decode_into(&code, &mut rec);
            for (d, (&x, &r)) in row.iter().zip(&rec).enumerate() {
                let bound = q.scale()[d] * 0.5 * (1.0 + 1e-3) + 1e-4;
                prop_assert!(
                    (x - r).abs() <= bound,
                    "dim {}: |{} - {}| > {}", d, x, r, bound
                );
            }
        }
    }

    // Exhaustive regime: complete graph, beam width n, rerank depth n —
    // traversal over codes visits every vertex and the exact rerank
    // rescores all of them, so the reranked result list must equal the
    // full-precision brute-force ranking bit for bit, whatever the code
    // family got wrong during traversal.
    #[test]
    fn rerank_recovers_exact_topk_in_exhaustive_regime(
        flat in proptest::collection::vec(-10.0f32..10.0, 8 * 24),
        qv in proptest::collection::vec(-10.0f32..10.0, 8),
        seed in any::<u64>(),
        use_pq in any::<bool>(),
    ) {
        let (dim, n) = (8usize, 24usize);
        let rows: Vec<Vec<f32>> = flat.chunks(dim).map(|c| c.to_vec()).collect();
        let ds = Dataset::from_rows(dim, rows).unwrap();
        let spec = if use_pq {
            QuantSpec::Pq { m: 4, bits: 3 }
        } else {
            QuantSpec::Int8
        };
        let codes = QuantCodes::train(spec, &ds, seed).unwrap();
        let lists: Vec<Vec<u32>> = (0..n as u32)
            .map(|v| (0..n as u32).filter(|&u| u != v).collect())
            .collect();
        let graph = Csr::from_adjacency(&lists).unwrap();
        let mut searcher = BeamSearcher::new(n, qv.clone(), vec![0], n, DistanceKind::L2);
        while searcher.step(&codes, &graph).is_some() {}
        prop_assert!(searcher.is_finished());
        let mut ids = Vec::new();
        searcher.rerank(&ds, n, &mut ids);
        prop_assert_eq!(ids.len(), n, "exhaustive beam must retain every vertex");
        let got = searcher.found();
        // Brute force through the same kernels and the same total order.
        let all: Vec<u32> = (0..n as u32).collect();
        let mut exact = Vec::new();
        ScoreSource::score_batch(&ds, DistanceKind::L2, &qv, &all, &mut exact);
        let mut want: Vec<Neighbor> = exact
            .iter()
            .enumerate()
            .map(|(i, &d)| Neighbor::new(d, i as u32))
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, w.id);
            prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
        }
    }

    #[test]
    fn permutation_composition_is_associative(n in 1usize..60, s1 in any::<u64>(), s2 in any::<u64>()) {
        let csr = Csr::from_adjacency(&vec![Vec::new(); n]).unwrap();
        let p = ReorderMethod::RandomShuffle.permutation(&csr, s1);
        let q = ReorderMethod::RandomShuffle.permutation(&csr, s2);
        let ident = Permutation::identity(n);
        let via_ident = p.then(&ident).then(&q);
        let direct = p.then(&q);
        for v in 0..n as u32 {
            prop_assert_eq!(via_ident.new_of(v), direct.new_of(v));
        }
    }
}

// ---- Construction fast paths against the pre-fast-path bodies --------
//
// `Vamana::{build, insert}` and `Hnsw::{build, insert}` must produce the
// graphs, medoid/entry point and `repaired` lists of the bodies kept in
// `tests/oracle`, edge for edge. The datasets are built to tie: a quarter
// of the rows duplicate an earlier row and half the cases draw coordinates
// from a five-value grid, so equal distances with different ids — where a
// queue or a prune that orders or tests slightly differently shows — are
// everywhere. Running here puts both kernel tiers under the check (the
// `NDSEARCH_NO_SIMD` CI steps run this file).

mod oracle;

use oracle::{Oracle, OracleHnsw, OracleVamana};

use ndsearch::anns::hnsw::{Hnsw, HnswParams};
use ndsearch::anns::index::MutableIndex;
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::vector::rng::Pcg32;

fn tie_heavy_row(rng: &mut Pcg32, earlier: &Dataset, grid: bool) -> Vec<f32> {
    if !earlier.is_empty() && rng.chance(0.25) {
        return earlier.vector(rng.index(earlier.len()) as u32).to_vec();
    }
    (0..earlier.dim())
        .map(|_| {
            if grid {
                rng.index(5) as f32 - 2.0
            } else {
                rng.next_gaussian() as f32
            }
        })
        .collect()
}

fn tie_heavy_dataset(rng: &mut Pcg32, n: usize, dim: usize, grid: bool) -> Dataset {
    let mut ds = Dataset::new(dim);
    for _ in 0..n {
        let row = tie_heavy_row(rng, &ds, grid);
        ds.try_push(&row).unwrap();
    }
    ds
}

/// The oracle grids: three cells per (R-or-M, n) pair, whose `salt`
/// rotates the remaining knobs so each pair meets all three α and both
/// coordinate styles.
fn oracle_grid(sizes: [usize; 2]) -> Vec<(usize, usize, usize)> {
    let mut cells = Vec::new();
    for r in sizes {
        for n in [1, 2, r, r + 1, 300, 1000] {
            for k in 0..3 {
                cells.push((r, n, cells.len() / 3 + k));
            }
        }
    }
    cells
}

/// A searcher over `index`'s live rows — the graph a mutable deployment
/// serves — and one over its just-synced CSR, stepped side by side: the
/// same hop, the same `is_finished()` and the same best-so-far list bit
/// for bit after every step.
fn live_view_searches_as_the_synced_csr<S: ScoreSource + ?Sized>(
    source: &S,
    index: &dyn MutableIndex,
    query: &[f32],
    entries: &[u32],
    beam: usize,
    label: &str,
) {
    let csr = index.base_graph();
    let n = csr.num_vertices();
    assert_eq!(Adjacency::num_vertices(index), n, "{label}");
    let mut live = BeamSearcher::new(n, query.to_vec(), entries.to_vec(), beam, DistanceKind::L2);
    let mut synced = live.clone();
    loop {
        let (got, want) = (live.step(source, index), synced.step(source, csr));
        let hop = synced.hops();
        assert_eq!(got, want, "{label}: hop {hop}");
        assert_eq!(
            live.is_finished(),
            synced.is_finished(),
            "{label}: hop {hop}"
        );
        assert_eq!(
            bits(&live.found()),
            bits(&synced.found()),
            "{label}: hop {hop}"
        );
        if want.is_none() {
            break;
        }
    }
}

/// ≥ 200 interleaved inserts (70 %) and deletes on `fast` and `oracle`,
/// comparing every live row, the `repaired` list and the synced CSR after
/// every step (the first comparison checks the build), and every fifth
/// step a search over the live view against one over that CSR — from the
/// row inserted last, so it runs through the rows just repaired — scoring
/// rows and int8 codes.
fn churn_both(
    rng: &mut Pcg32,
    base: &mut Dataset,
    grid: bool,
    fast: &mut impl MutableIndex,
    oracle: &mut impl Oracle,
    label: &str,
) {
    for step in 0..=200 {
        for (v, row) in oracle.rows().iter().enumerate() {
            assert_eq!(
                fast.live_neighbors(v as u32),
                row.as_slice(),
                "{label}: live row {v} after {step} updates"
            );
        }
        fast.sync_base_graph();
        assert_eq!(
            fast.base_graph(),
            &Csr::from_adjacency(oracle.rows()).unwrap(),
            "{label}: synced CSR after {step} updates"
        );
        if step % 5 == 0 {
            // Its own stream: the update sequence stays what it was.
            let mut pick = Pcg32::seed_from_u64(step as u64);
            let query = base.vector(base.len() as u32 - 1).to_vec();
            let entries = [0, pick.index(base.len()) as u32];
            let beam = 1 + pick.index(40);
            let int8 = QuantCodes::train(QuantSpec::Int8, base, step as u64).unwrap();
            let sources: [(&str, &dyn ScoreSource); 2] = [("rows", &*base), ("int8", &int8)];
            for (name, source) in sources {
                let label = format!("{label}: {name}, beam {beam}, after {step} updates");
                live_view_searches_as_the_synced_csr(
                    source, &*fast, &query, &entries, beam, &label,
                );
            }
        }
        if rng.chance(0.7) {
            let row = tie_heavy_row(rng, base, grid);
            let id = base.try_push(&row).unwrap();
            let report = fast.insert(base, id);
            assert_eq!(report.id, id);
            assert_eq!(
                report.repaired,
                oracle.insert(base, id),
                "{label}: repaired list of insert {id} (update {step})"
            );
        } else {
            let id = rng.index(base.len()) as u32;
            assert_eq!(fast.delete(id), oracle.delete(id), "{label}: delete {id}");
        }
    }
}

#[test]
fn vamana_build_and_updates_equal_the_oracle() {
    let mut rng = Pcg32::seed_from_u64(0x5EED_0014);
    for (r, n, salt) in oracle_grid([4, 32]) {
        let alpha = [1.0f32, 1.2, 2.0][salt % 3];
        let grid = salt % 2 == 0;
        let label = format!("R {r}, n {n}, alpha {alpha}, grid {grid}");
        let mut base = tie_heavy_dataset(&mut rng, n, 6, grid);
        let params = VamanaParams {
            r,
            l_build: if n > 300 { 40 } else { 75 },
            alpha,
            seed: rng.next_u64(),
        };
        let mut fast = Vamana::build(&base, params);
        let mut oracle = OracleVamana::build(&base, params);
        assert_eq!(fast.medoid(), oracle.medoid, "{label}: medoid");
        churn_both(&mut rng, &mut base, grid, &mut fast, &mut oracle, &label);
    }
}

#[test]
fn hnsw_build_and_updates_equal_the_oracle() {
    let mut rng = Pcg32::seed_from_u64(0x5EED_0015);
    for (m, n, salt) in oracle_grid([2, 16]) {
        let grid = salt % 2 == 0;
        let label = format!("M {m}, n {n}, grid {grid}, salt {salt}");
        let mut base = tie_heavy_dataset(&mut rng, n, 6, grid);
        let params = HnswParams {
            m,
            ef_construction: if n > 300 { 40 } else { 100 },
            seed: rng.next_u64(),
        };
        let mut fast = Hnsw::build(&base, params);
        let mut oracle = OracleHnsw::build(&base, params);
        let same_hierarchy = |fast: &Hnsw, oracle: &OracleHnsw| {
            (fast.entry_point(), fast.num_upper_layers())
                == (oracle.entry, oracle.num_upper_layers())
        };
        assert!(same_hierarchy(&fast, &oracle), "{label}: built hierarchy");
        churn_both(&mut rng, &mut base, grid, &mut fast, &mut oracle, &label);
        assert!(
            same_hierarchy(&fast, &oracle),
            "{label}: hierarchy after churn"
        );
    }
}

// ---- Search kernel against the two-heap body -------------------------
//
// `anns::beam`'s sorted frontier must equal the two-heap formulation kept
// in `tests/oracle/beam.rs` hop for hop: same trace iterations, same
// `is_finished()` after every hop, same best-so-far list bit for bit —
// over random digraphs, rows and codes, beam widths
// 1..=80 and entry lists longer than the beam. Half the datasets repeat
// each row six times, so the full list's worst distance is shared by
// vertices inside and outside it: the case the frontier's tie stash
// exists for (without the stash this test fails on the first such
// dataset).

fn random_digraph(rng: &mut Pcg32, n: usize, max_degree: usize) -> Csr {
    let lists: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            (0..rng.index(max_degree + 1))
                .map(|_| rng.index(n) as u32)
                .collect()
        })
        .collect();
    Csr::from_adjacency(&lists).unwrap()
}

fn bits(found: &[Neighbor]) -> Vec<(u32, u32)> {
    found.iter().map(|n| (n.id, n.distance.to_bits())).collect()
}

/// Steps both kernels through one query side by side, then runs both to
/// completion in one call; returns the hops taken.
fn kernels_agree<S: ScoreSource + ?Sized>(
    source: &S,
    graph: &Csr,
    query: &[f32],
    entries: &[u32],
    beam: usize,
    label: &str,
) -> usize {
    let kind = DistanceKind::L2;
    let n = graph.num_vertices();
    let mut new = BeamSearcher::new(n, query.to_vec(), entries.to_vec(), beam, kind);
    let mut old = oracle::beam::BeamSearcher::new(n, query.to_vec(), entries.to_vec(), beam, kind);
    loop {
        let (got, want) = (new.step(source, graph), old.step(source, graph));
        let hop = old.hops();
        assert_eq!(got, want, "{label}: hop {hop}");
        assert_eq!(new.is_finished(), old.is_finished(), "{label}: hop {hop}");
        assert_eq!(bits(&new.found()), bits(&old.found()), "{label}: hop {hop}");
        if want.is_none() {
            break;
        }
    }
    assert_eq!(new.hops(), old.hops(), "{label}");

    // The rerank step of compressed-vector search, at a depth inside and
    // one beyond the list; `rerank` refills the id buffer it is handed.
    let (mut new_ids, mut old_ids) = (Vec::new(), Vec::new());
    for depth in [beam / 2, beam + 3] {
        let (mut new, mut old) = (new.clone(), old.clone());
        new.rerank(source, depth, &mut new_ids);
        old.rerank(source, depth, &mut old_ids);
        assert_eq!(new_ids, old_ids, "{label}");
        assert_eq!(bits(&new.found()), bits(&old.found()), "{label}: reranked");
    }

    let whole = beam_search(
        source,
        graph,
        query,
        entries,
        beam,
        kind,
        &mut VisitedSet::new(0),
    );
    let mut visited = old.into_visited();
    let want = oracle::beam::beam_search(source, graph, query, entries, beam, kind, &mut visited);
    assert_eq!(whole.trace, want.trace, "{label}: beam_search trace");
    assert_eq!(
        bits(&whole.found),
        bits(&want.found),
        "{label}: beam_search"
    );
    whole.trace.iterations.len()
}

#[test]
fn search_kernel_equals_the_two_heap_oracle_hop_by_hop() {
    let mut rng = Pcg32::seed_from_u64(0x5EED_0016);
    let mut hops = 0;
    for case in 0..240 {
        let grid = case % 2 == 0;
        let sixfold = case % 4 < 2;
        let n: usize = [1, 2, 7, 60, 400][case % 5];
        // Six copies of each row (ids interleaved), or a quarter
        // duplicates.
        let mut base =
            tie_heavy_dataset(&mut rng, if sixfold { n.div_ceil(6) } else { n }, 6, grid);
        if sixfold {
            let distinct = base.len();
            for i in distinct..n {
                let row = base.vector((i % distinct) as u32).to_vec();
                base.try_push(&row).unwrap();
            }
        }
        // A row no distance to which is a number; entered first in some
        // cases, so it is also met as an entry beyond the beam.
        let nan_row = (case % 6 == 5).then(|| {
            let id = rng.index(n);
            let mut flat = base.as_flat().to_vec();
            flat[id * 6 + rng.index(6)] = f32::NAN;
            base = Dataset::from_flat(6, flat);
            id as u32
        });
        let graph = random_digraph(&mut rng, n, 9);
        let int8 = QuantCodes::train(QuantSpec::Int8, &base, case as u64).unwrap();
        let pq = QuantCodes::train(QuantSpec::Pq { m: 3, bits: 4 }, &base, case as u64).unwrap();
        for _ in 0..6 {
            let widest = if rng.chance(0.5) { 6 } else { 80 };
            let beam = 1 + rng.index(widest);
            let mut entries: Vec<u32> =
                (0..1 + rng.index(5)).map(|_| rng.index(n) as u32).collect();
            if let Some(id) = nan_row.filter(|_| rng.chance(0.5)) {
                entries.insert(0, id);
            }
            let query = tie_heavy_row(&mut rng, &base, grid);
            let label = format!(
                "case {case}: n {n}, grid {grid}, sixfold {sixfold}, beam {beam}, entries {entries:?}"
            );
            hops += kernels_agree(&base, &graph, &query, &entries, beam, &label);
            if nan_row.is_none() {
                kernels_agree(
                    &int8,
                    &graph,
                    &query,
                    &entries,
                    beam,
                    &format!("{label}, int8"),
                );
                kernels_agree(&pq, &graph, &query, &entries, beam, &format!("{label}, pq"));
            }
        }
    }
    assert!(hops > 10_000, "only {hops} hops compared");
}
