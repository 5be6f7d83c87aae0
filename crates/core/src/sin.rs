//! SiN engines — LUN-level accelerators (Fig. 8).
//!
//! Each LUN accelerator owns a query queue, a Vaddr queue, an accelerator
//! controller issuing multi-plane read sequences, per-plane hard-decision
//! LDPC decoders, and MAC groups computing distances directly out of the
//! page buffers. The model replays one iteration's [`LunWork`]:
//!
//! * tasks targeting the same page share one page load when dynamic
//!   allocating is on (temporal locality, `pageLocBit`); without it, each
//!   query's accesses are served independently (the "w/o ds" baseline
//!   re-reads pages another query just had);
//! * page loads whose (block, page) addresses coincide across the LUN's
//!   planes merge into one multi-plane sense (whether that happens is
//!   decided by the *placement* policy — the `mp` knob);
//! * the MAC groups stream needed vectors out of the page buffer at the
//!   internal bandwidth and compute `dim` MACs per vector across the
//!   [`MAC_LANES`].

use std::cell::RefCell;

use ndsearch_flash::ecc::{EccDelta, EccEngine};
use ndsearch_flash::geometry::{LunId, PlaneId};
use ndsearch_flash::timing::Nanos;
use ndsearch_graph::luncsr::LunCsr;

use crate::alloc::{LunWork, VertexTask};
use crate::config::{NdsConfig, MAC_LANES, RESULT_ENTRY_BYTES};

/// Result of one LUN accelerator processing one iteration's work. Its
/// counts are the unit's flash-statistics increments: the engines fold
/// them into their `FlashStats` as each unit completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinReport {
    /// NAND sense operations issued (multi-plane groups).
    pub sense_ops: u64,
    /// Pages loaded from the array (each sense op loads 1..planes pages).
    pub page_loads: u64,
    /// Of the sense ops: multi-plane ones, merging one (block, page) row
    /// across two or more planes.
    pub multi_plane_ops: u64,
    /// Page loads avoided by sharing a resident page across tasks.
    pub page_hits: u64,
    /// Distance computations performed.
    pub distances: u64,
    /// Time the accelerator is busy.
    pub busy_ns: Nanos,
    /// Of which: NAND sensing.
    pub sense_ns: Nanos,
    /// Of which: ECC decoding (hard + injected soft fallbacks).
    pub ecc_ns: Nanos,
    /// Of which: page-buffer streaming + MAC compute.
    pub compute_ns: Nanos,
    /// Result bytes produced (distances + ids) for data-out.
    pub result_bytes: u64,
    /// Soft-decision LDPC fallbacks that paused the pipeline.
    pub soft_fallbacks: u64,
}

/// Everything one LUN accelerator's iteration produces, as a *delta*
/// against engine-wide state: the timing report, whose counts are the
/// unit's flash-statistics increments, and the ECC cursor advance. Pure
/// data — the caller folds outcomes in stable LUN order and commits the
/// deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LunOutcome {
    /// The LUN that executed the work.
    pub lun: LunId,
    /// Timing/counters of the accelerator run.
    pub report: SinReport,
    /// ECC cursor advance (apply to the engine-wide [`EccEngine`]).
    pub ecc: EccDelta,
}

/// Executes one iteration's work on one LUN accelerator.
///
/// Pure: reads only immutable state (`luncsr`, `config`, the ECC
/// engine's counter cursors) and returns every effect as a mergeable
/// [`LunOutcome`]; the caller commits it.
///
/// The engines evaluate slices of their round arena through the same
/// body; this is that body applied to an owned [`LunWork`].
pub fn process_lun_work(
    work: &LunWork,
    luncsr: &LunCsr,
    config: &NdsConfig,
    ecc: &EccEngine,
) -> LunOutcome {
    process_lun_tasks(work.lun, &work.tasks, luncsr, config, ecc)
}

/// Per-plane accumulator of one unit (a LUN has `planes_per_lun` of them,
/// so the list is scanned linearly).
#[derive(Debug, Clone, Copy)]
struct PlaneAcc {
    plane: PlaneId,
    /// The row (block, page) the plane's buffer holds in task order (only
    /// tracked without dynamic allocating).
    buffered: u64,
    loads: u64,
    distances: u64,
    unique_vertices: u64,
}

/// Reused working memory of [`process_lun_tasks`]. A unit is typically
/// two tasks, so fresh vectors per unit would cost more than the model
/// itself; one set per thread makes the steady state allocation-free
/// wherever an engine is stepped (a cluster run steps replica engines on
/// several threads) and through [`process_lun_work`] alike. Every call
/// clears it first: nothing carries over between units.
#[derive(Debug, Default)]
struct SinScratch {
    /// One `(row within the plane, plane)` key per page load.
    loads: Vec<(u64, PlaneId)>,
    /// `(plane, vertex)` of every task, deduplicated after sorting.
    vertices: Vec<(PlaneId, u32)>,
    planes: Vec<PlaneAcc>,
}

thread_local! {
    static SCRATCH: RefCell<SinScratch> = RefCell::new(SinScratch::default());
}

/// The SiN model over one LUN's task slice — linear scans over small
/// sorted scratch vectors. `tasks` must be in dispatch order: without
/// dynamic allocating the page-buffer model depends on it.
pub(crate) fn process_lun_tasks(
    lun: LunId,
    tasks: &[VertexTask],
    luncsr: &LunCsr,
    config: &NdsConfig,
    ecc: &EccEngine,
) -> LunOutcome {
    SCRATCH.with_borrow_mut(|scratch| process_with(scratch, lun, tasks, luncsr, config, ecc))
}

fn process_with(
    scratch: &mut SinScratch,
    lun: LunId,
    tasks: &[VertexTask],
    luncsr: &LunCsr,
    config: &NdsConfig,
    ecc: &EccEngine,
) -> LunOutcome {
    let geom = &config.geometry;
    let timing = &config.timing;
    let dim_bytes = u64::from(luncsr.mapping().slot_bytes());
    let dynamic = config.scheduling.dynamic_allocating;
    let SinScratch {
        loads,
        vertices,
        planes,
    } = scratch;
    loads.clear();
    vertices.clear();
    planes.clear();

    // 1. Page-load accounting, one pass over the tasks.
    //    With dynamic allocating the Dispatcher groups all tasks of a page
    //    together, so each needed page is sensed once per iteration. Without
    //    it, tasks arrive in query order and a plane's single page buffer
    //    only serves *consecutive* tasks on the same page — switching pages
    //    flushes the buffer, and a later query needing the old page pays a
    //    fresh sense (§VI-B1's "may be flushed and need to be read from the
    //    NAND arrays again by another query later").
    let mut non_speculative = 0u64;
    for t in tasks {
        let plane = t.addr.global_plane(geom);
        let row =
            u64::from(t.addr.block) * u64::from(geom.pages_per_block) + u64::from(t.addr.page);
        debug_assert!(plane < geom.total_planes());
        debug_assert!(t.addr.block < geom.blocks_per_plane && t.addr.page < geom.pages_per_block);
        let at = planes
            .iter()
            .position(|p| p.plane == plane)
            .unwrap_or_else(|| {
                planes.push(PlaneAcc {
                    plane,
                    buffered: u64::MAX,
                    loads: 0,
                    distances: 0,
                    unique_vertices: 0,
                });
                planes.len() - 1
            });
        let acc = &mut planes[at];
        acc.distances += 1;
        if dynamic {
            loads.push((row, plane));
        } else if acc.buffered != row {
            acc.buffered = row;
            loads.push((row, plane));
        }
        vertices.push((plane, t.vertex));
        non_speculative += u64::from(!t.speculative);
    }
    loads.sort_unstable();
    if dynamic {
        loads.dedup();
    }
    let accesses = tasks.len() as u64;
    let page_loads = loads.len() as u64;
    let page_hits = accesses.saturating_sub(page_loads);

    // 2. Multi-plane sense merging: load events whose (block, page) row
    //    addresses coincide across distinct planes of this LUN fire as one
    //    multi-plane sequence — a hardware capability independent of the
    //    scheduling. Repeated loads of the same plane serialize, so the
    //    sense rounds for one (block, page) address equal the busiest
    //    plane's load count. `loads` is sorted by (row, plane): each row is
    //    a run, each plane a sub-run of it.
    let mut sense_ops = 0u64;
    let mut merged_multi_plane = 0u64;
    let mut rest = loads.as_slice();
    while let Some(&(row, _)) = rest.first() {
        let row_len = rest.iter().take_while(|l| l.0 == row).count();
        let (mut run, tail) = rest.split_at(row_len);
        rest = tail;
        let (mut busiest, mut row_planes) = (0u64, 0u32);
        while let Some(&(_, plane)) = run.first() {
            let count = run.iter().take_while(|l| l.1 == plane).count();
            run = &run[count..];
            busiest = busiest.max(count as u64);
            row_planes += 1;
            planes
                .iter_mut()
                .find(|p| p.plane == plane)
                .expect("every load came from a task of the plane")
                .loads += count as u64;
        }
        sense_ops += busiest;
        merged_multi_plane += u64::from(row_planes > 1);
        debug_assert!(row_planes <= geom.planes_per_lun);
    }

    // Per plane: *unique* vectors streamed out of the page buffer — a
    // vector crosses the buffer once and the switch feeds it to the MAC
    // groups serving all queued queries (Fig. 8).
    vertices.sort_unstable();
    vertices.dedup();
    for &(plane, _) in vertices.iter() {
        planes
            .iter_mut()
            .find(|p| p.plane == plane)
            .expect("every vertex came from a task of the plane")
            .unique_vertices += 1;
    }

    // 3. Timing. The per-plane LDPC decoders, page-buffer read paths and
    //    MAC groups operate in parallel (Fig. 8: one hard-decision decoder
    //    and one MAC group pipeline per plane), so the LUN's ECC/compute
    //    time is the *busiest plane's*, while array senses serialize at the
    //    die (one multi-plane command sequence at a time). Each plane owns
    //    its counter-indexed failure stream, so a plane's decodes draw the
    //    same decisions whichever order the planes are visited in.
    let sense_ns = sense_ops * timing.t_read_page_ns;
    let lanes_per_plane = (u64::from(MAC_LANES) / u64::from(geom.planes_per_lun)).max(1);
    let mut ecc_pass = ecc.begin_lun_pass();
    let (mut ecc_ns, mut compute_ns): (Nanos, Nanos) = (0, 0);
    for acc in planes.iter() {
        let mut plane_ecc: Nanos = 0;
        for _ in 0..acc.loads {
            plane_ecc += ecc_pass.decode_page(acc.plane);
        }
        ecc_ns = ecc_ns.max(plane_ecc);
        let stream = timing.page_buffer_stream_ns(acc.unique_vertices * dim_bytes);
        let mac = timing.accel_cycles_ns(acc.distances * dim_bytes.max(1) / lanes_per_plane);
        compute_ns = compute_ns.max(stream.max(mac));
    }
    let soft_fallbacks = ecc_pass.hard_failures();
    let distances = accesses;
    let busy_ns = sense_ns + ecc_ns + compute_ns;

    let result_bytes = non_speculative * u64::from(RESULT_ENTRY_BYTES);
    LunOutcome {
        lun,
        report: SinReport {
            sense_ops,
            page_loads,
            multi_plane_ops: merged_multi_plane,
            page_hits,
            distances,
            busy_ns,
            sense_ns,
            ecc_ns,
            compute_ns,
            result_bytes,
            soft_fallbacks,
        },
        ecc: ecc_pass.into_delta(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{Allocator, VertexTask};
    use ndsearch_flash::ecc::EccConfig;
    use ndsearch_flash::geometry::FlashGeometry;
    use ndsearch_flash::timing::FlashTiming;
    use ndsearch_graph::csr::Csr;
    use ndsearch_graph::mapping::{PlacementPolicy, VertexMapping};
    use ndsearch_vector::VectorId;

    fn setup(policy: PlacementPolicy, dynamic: bool) -> (LunCsr, NdsConfig) {
        let n = 1024;
        let lists: Vec<Vec<VectorId>> = (0..n as u32).map(|_| Vec::new()).collect();
        let csr = Csr::from_adjacency(&lists).unwrap();
        let mapping = VertexMapping::place(FlashGeometry::tiny(), n, 128, policy);
        let luncsr = LunCsr::new(csr, mapping);
        let mut config = NdsConfig {
            geometry: FlashGeometry::tiny(),
            timing: FlashTiming::default(),
            ecc: EccConfig {
                hard_decision_failure_prob: 0.0,
                ..EccConfig::default()
            },
            ..NdsConfig::default()
        };
        config.scheduling.dynamic_allocating = dynamic;
        (luncsr, config)
    }

    fn work_for(luncsr: &LunCsr, config: &NdsConfig, tasks: &[(u32, VectorId)]) -> Vec<LunWork> {
        let triples: Vec<_> = tasks
            .iter()
            .map(|&(q, v)| (q, v, luncsr.lun_of(v)))
            .collect();
        Allocator
            .dispatch(luncsr, &config.timing, &triples, false)
            .work
    }

    #[test]
    fn shared_pages_load_once_with_dynamic_allocating() {
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        // Vertices 0..16 share one page (tiny geometry, 128 B slots).
        let tasks: Vec<(u32, VectorId)> = (0..8u32).map(|q| (q, q)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        assert_eq!(work.len(), 1);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let rep = process_lun_work(&work[0], &lc, &cfg, &ecc).report;
        assert_eq!(rep.page_loads, 1);
        assert_eq!(rep.page_hits, 7);
        assert_eq!(rep.distances, 8);
    }

    #[test]
    fn without_dynamic_allocating_interleaved_queries_reload() {
        // Vertices 0 and 256 sit on two different pages of the *same plane*
        // (tiny geometry: 16 page-slots stride between same-plane pages).
        // Interleaved queries flush each other's page buffer; the dynamic
        // allocator would group them and load each page once.
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, false);
        assert_eq!(lc.mapping().plane_of(0), lc.mapping().plane_of(256));
        assert_eq!(lc.lun_of(0), lc.lun_of(256));
        let tasks: Vec<(u32, VectorId)> = (0..8u32)
            .map(|q| (q, if q % 2 == 0 { 0 } else { 256 }))
            .collect();
        let work = work_for(&lc, &cfg, &tasks);
        assert_eq!(work.len(), 1);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let rep = process_lun_work(&work[0], &lc, &cfg, &ecc).report;
        assert_eq!(rep.page_loads, 8, "every task switches the page buffer");
        assert_eq!(rep.page_hits, 0);

        // With dynamic allocating the same tasks load each page once.
        let (lc2, cfg2) = setup(PlacementPolicy::MultiPlaneAware, true);
        let work2 = work_for(&lc2, &cfg2, &tasks);
        let ecc2 = EccEngine::new(&cfg2.geometry, cfg2.ecc);
        let rep2 = process_lun_work(&work2[0], &lc2, &cfg2, &ecc2).report;
        assert_eq!(rep2.page_loads, 2);
        assert_eq!(rep2.page_hits, 6);
    }

    #[test]
    fn without_dynamic_allocating_consecutive_tasks_still_share() {
        // Consecutive tasks on one page reuse the resident buffer even
        // without da (the stream-order reuse of a single page register).
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, false);
        let tasks: Vec<(u32, VectorId)> = (0..8u32).map(|q| (q, q)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let rep = process_lun_work(&work[0], &lc, &cfg, &ecc).report;
        assert_eq!(rep.page_loads, 1);
        assert_eq!(rep.page_hits, 7);
    }

    #[test]
    fn multiplane_placement_merges_senses() {
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        // Vertices 0..32 cover two pages in planes 0 and 1 of LUN 0 with
        // the same (block, page) address → one multi-plane sense.
        let tasks: Vec<(u32, VectorId)> = (0..32u32).map(|v| (0, v)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        assert_eq!(work.len(), 1);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let out = process_lun_work(&work[0], &lc, &cfg, &ecc);
        assert_eq!(out.report.page_loads, 2);
        assert_eq!(out.report.sense_ops, 1, "two planes, one multi-plane op");
        assert_eq!(out.report.multi_plane_ops, 1);
    }

    #[test]
    fn linear_placement_cannot_merge() {
        let (lc, cfg) = setup(PlacementPolicy::Linear, true);
        let tasks: Vec<(u32, VectorId)> = (0..32u32).map(|v| (0, v)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        let mut ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let (mut loads, mut senses, mut multi_plane) = (0, 0, 0);
        for w in &work {
            let out = process_lun_work(w, &lc, &cfg, &ecc);
            ecc.apply(&out.ecc);
            loads += out.report.page_loads;
            senses += out.report.sense_ops;
            multi_plane += out.report.multi_plane_ops;
        }
        assert_eq!(loads, 2);
        assert_eq!(
            senses, 2,
            "linear placement stripes consecutive pages to different LUNs \
             with no multi-plane alignment"
        );
        assert_eq!(multi_plane, 0);
    }

    #[test]
    fn ecc_failures_add_latency() {
        let (lc, mut cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        let tasks: Vec<(u32, VectorId)> = (0..64u32).map(|v| (0, v)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        let run = |cfg: &NdsConfig, work: &[LunWork]| {
            let mut ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
            work.iter()
                .map(|w| {
                    let out = process_lun_work(w, &lc, cfg, &ecc);
                    ecc.apply(&out.ecc);
                    out.report.busy_ns
                })
                .sum::<u64>()
        };
        let clean = run(&cfg, &work);
        cfg.ecc.hard_decision_failure_prob = 1.0;
        let dirty = run(&cfg, &work);
        assert!(dirty > clean, "soft fallbacks must slow the LUN down");
    }

    #[test]
    fn speculative_tasks_produce_no_result_bytes() {
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        let work = LunWork {
            lun: lc.lun_of(0),
            tasks: vec![VertexTask {
                query: 0,
                vertex: 0,
                addr: lc.physical_addr(0),
                speculative: true,
            }],
        };
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let out = process_lun_work(&work, &lc, &cfg, &ecc);
        assert_eq!(out.report.result_bytes, 0);
        assert_eq!(
            out.report.page_loads, 1,
            "speculative loads still cost pages"
        );
        assert_ne!(out.ecc, EccDelta::default(), "and are decoded");
    }

    #[test]
    fn outcome_is_a_pure_delta() {
        // Processing the same work twice against the same engine snapshot
        // yields identical outcomes — nothing engine-wide was mutated.
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        let tasks: Vec<(u32, VectorId)> = (0..32u32).map(|v| (v % 4, v)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let a = process_lun_work(&work[0], &lc, &cfg, &ecc);
        let b = process_lun_work(&work[0], &lc, &cfg, &ecc);
        assert_eq!(a, b);
    }
}
