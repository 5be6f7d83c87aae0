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
use ndsearch_flash::geometry::LunId;
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
    with_scratch(luncsr, config, |scratch| {
        process_lun_tasks(scratch, work.lun, &work.tasks, luncsr, config, ecc)
    })
}

/// Per-plane accumulator of one unit, indexed by plane within the LUN.
#[derive(Debug, Clone, Copy, Default)]
struct PlaneAcc {
    /// The row (block, page) the plane's buffer holds in task order (only
    /// tracked without dynamic allocating).
    buffered: Option<usize>,
    loads: u64,
    distances: u64,
    unique_vertices: u64,
}

/// Reused working memory of [`process_lun_tasks`]: counters that one pass
/// over a unit's tasks fills, so no unit sorts or allocates. A unit is
/// 1.5–2.6 tasks on the serving workloads and 57 on `paper_batch` (mostly
/// speculative), so [`with_scratch`] sizes it once per round, not per unit.
/// One per thread keeps the steady state allocation-free wherever an engine
/// is stepped (a cluster run steps replica engines on several threads);
/// no count carries over between units, only the keyed plane-time tables.
#[derive(Debug, Default)]
pub(crate) struct SinScratch {
    /// Per vertex, the last unit that streamed it. Each unit takes a fresh
    /// `epoch`, so a stamp left by any earlier unit — of this engine or of
    /// another engine's LUNCSR on the same thread — never reads as seen.
    seen: Vec<u32>,
    epoch: u32,
    /// Loads per page of one LUN at `row × planes_per_lun + plane in LUN`;
    /// every count is zero again when a unit ends.
    loads: Vec<u32>,
    /// The rows holding a non-zero count in `loads`.
    rows: Vec<usize>,
    planes: Vec<PlaneAcc>,
    times: PlaneTimes,
}

/// One plane's compute times by count, filled lazily from the same
/// [`FlashTiming`](ndsearch_flash::timing::FlashTiming) functions a unit
/// would call, so a unit looks its times up instead of dividing. The
/// tables hold for one key — the page-buffer read rate, the accelerator
/// clock, the slot bytes and the planes per LUN (which fix the MAC lanes
/// per plane, [`MAC_LANES`] being a constant) — which [`with_scratch`]
/// sets, emptying the tables when it changes.
#[derive(Debug, Default)]
struct PlaneTimes {
    /// `[read rate bits, clock bits, slot bytes, planes per LUN]`; all
    /// zero until first keyed, which no geometry (≥ 1 plane per LUN) is.
    key: [u64; 4],
    lanes_per_plane: u64,
    /// `stream[u]`: streaming `u` vectors out of the page buffer.
    stream: Vec<Nanos>,
    /// `mac[d]`: `d` distances on one plane's MAC lanes.
    mac: Vec<Nanos>,
}

impl PlaneTimes {
    fn key(luncsr: &LunCsr, config: &NdsConfig) -> [u64; 4] {
        let timing = &config.timing;
        [
            timing.page_buffer_read_ns_per_byte.to_bits(),
            timing.accel_clock_hz.to_bits(),
            u64::from(luncsr.mapping().slot_bytes()),
            u64::from(config.geometry.planes_per_lun),
        ]
    }

    /// Keys the tables to units of `luncsr` under `config`, emptying them
    /// if the key changed.
    fn rekey(&mut self, luncsr: &LunCsr, config: &NdsConfig) {
        let key = Self::key(luncsr, config);
        // Word by word in registers: an array comparison spills the new
        // key and reloads it wider, which stalls a per-unit caller.
        let changed = (key.iter().zip(&self.key)).fold(0, |bits, (a, b)| bits | (a ^ b));
        if changed != 0 {
            self.key = key;
            self.lanes_per_plane = (u64::from(MAC_LANES) / key[3]).max(1);
            self.stream.clear();
            self.mac.clear();
        }
    }

    /// The plane's streaming and MAC times for `unique` vectors and
    /// `distances` distances, growing either table to the count it lacks.
    fn lookup(&mut self, config: &NdsConfig, unique: u64, distances: u64) -> (Nanos, Nanos) {
        let timing = &config.timing;
        let (slot_bytes, lanes) = (self.key[2], self.lanes_per_plane);
        let stream = grow_to(&mut self.stream, unique, |u| {
            timing.page_buffer_stream_ns(u * slot_bytes)
        });
        let mac = grow_to(&mut self.mac, distances, |d| {
            timing.accel_cycles_ns(d * slot_bytes.max(1) / lanes)
        });
        (stream, mac)
    }
}

/// `table[count]`, first filling the table up to `count` with `time`.
fn grow_to(table: &mut Vec<Nanos>, count: u64, time: impl Fn(u64) -> Nanos) -> Nanos {
    let at = count as usize;
    if at >= table.len() {
        let from = table.len() as u64;
        table.extend((from..=count).map(time));
    }
    table[at]
}

thread_local! {
    static SCRATCH: RefCell<SinScratch> = RefCell::new(SinScratch::default());
}

/// Runs `f` on this thread's SiN scratch, sized for units of `luncsr`
/// under `config` — a stamp per vertex (grown geometrically, so an insert
/// per round rarely reallocates) and a counter per page of one LUN — and
/// with its plane-time tables keyed to them.
pub(crate) fn with_scratch<R>(
    luncsr: &LunCsr,
    config: &NdsConfig,
    f: impl FnOnce(&mut SinScratch) -> R,
) -> R {
    let geom = &config.geometry;
    let vertices = luncsr.num_vertices();
    let lun_pages = geom.planes_per_lun as usize
        * geom.blocks_per_plane as usize
        * geom.pages_per_block as usize;
    SCRATCH.with_borrow_mut(|s| {
        if s.seen.len() < vertices {
            s.seen = vec![0; vertices.max(2 * s.seen.len())];
        }
        if s.loads.len() < lun_pages {
            s.loads = vec![0; lun_pages];
        }
        s.planes
            .resize(geom.planes_per_lun as usize, PlaneAcc::default());
        s.times.rekey(luncsr, config);
        f(s)
    })
}

/// The SiN model over one LUN's task slice — one pass over the tasks into
/// stamped counters. `tasks` must be in dispatch order: without dynamic
/// allocating the page-buffer model depends on it. Every task of a vertex
/// carries the vertex's one address.
pub(crate) fn process_lun_tasks(
    scratch: &mut SinScratch,
    lun: LunId,
    tasks: &[VertexTask],
    luncsr: &LunCsr,
    config: &NdsConfig,
    ecc: &EccEngine,
) -> LunOutcome {
    let geom = &config.geometry;
    let dynamic = config.scheduling.dynamic_allocating;
    let per_row = geom.planes_per_lun as usize;
    let SinScratch {
        seen,
        epoch,
        loads,
        rows,
        planes,
        times,
    } = scratch;
    debug_assert_eq!(times.key, PlaneTimes::key(luncsr, config));
    *epoch = epoch.checked_add(1).unwrap_or_else(|| {
        seen.fill(0);
        1
    });
    let epoch = *epoch;
    planes.fill(PlaneAcc::default());

    // 1. Page-load accounting, one pass over the tasks.
    //    With dynamic allocating the Dispatcher groups all tasks of a page
    //    together, so each needed page is sensed once per iteration. Without
    //    it, tasks arrive in query order and a plane's single page buffer
    //    only serves *consecutive* tasks on the same page — switching pages
    //    flushes the buffer, and a later query needing the old page pays a
    //    fresh sense (§VI-B1's "may be flushed and need to be read from the
    //    NAND arrays again by another query later").
    //    Per plane, the same pass counts *unique* vectors streamed out of
    //    the page buffer — a vector crosses the buffer once and the switch
    //    feeds it to the MAC groups serving all queued queries (Fig. 8).
    let mut non_speculative = 0u64;
    for t in tasks {
        debug_assert_eq!(t.addr.lun, lun);
        debug_assert!(t.addr.block < geom.blocks_per_plane && t.addr.page < geom.pages_per_block);
        let plane = t.addr.plane_in_lun as usize;
        let row = t.addr.block as usize * geom.pages_per_block as usize + t.addr.page as usize;
        let acc = &mut planes[plane];
        acc.distances += 1;
        let stamp = &mut seen[t.vertex as usize];
        acc.unique_vertices += u64::from(*stamp != epoch);
        *stamp = epoch;
        let row_loads = &mut loads[row * per_row..][..per_row];
        let load = if dynamic {
            row_loads[plane] == 0
        } else {
            acc.buffered.replace(row) != Some(row)
        };
        if load {
            if row_loads.iter().all(|&c| c == 0) {
                rows.push(row);
            }
            row_loads[plane] += 1;
        }
        non_speculative += u64::from(!t.speculative);
    }

    // 2. Multi-plane sense merging: load events whose (block, page) row
    //    addresses coincide across distinct planes of this LUN fire as one
    //    multi-plane sequence — a hardware capability independent of the
    //    scheduling. Repeated loads of the same plane serialize, so the
    //    sense rounds for one (block, page) address equal the busiest
    //    plane's load count. Reading a row's counts zeroes them for the
    //    next unit.
    let (mut sense_ops, mut merged_multi_plane) = (0u64, 0u64);
    for row in rows.drain(..) {
        let (mut busiest, mut row_planes) = (0u32, 0u32);
        for (acc, count) in planes
            .iter_mut()
            .zip(&mut loads[row * per_row..][..per_row])
        {
            let count = std::mem::take(count);
            busiest = busiest.max(count);
            row_planes += u32::from(count > 0);
            acc.loads += u64::from(count);
        }
        sense_ops += u64::from(busiest);
        merged_multi_plane += u64::from(row_planes > 1);
    }
    let accesses = tasks.len() as u64;
    let page_loads: u64 = planes.iter().map(|acc| acc.loads).sum();
    let page_hits = accesses.saturating_sub(page_loads);

    // 3. Timing. The per-plane LDPC decoders, page-buffer read paths and
    //    MAC groups operate in parallel (Fig. 8: one hard-decision decoder
    //    and one MAC group pipeline per plane), so the LUN's ECC/compute
    //    time is the *busiest plane's*, while array senses serialize at the
    //    die (one multi-plane command sequence at a time). Each plane owns
    //    its counter-indexed failure stream, so a plane's decodes draw the
    //    same decisions whichever order the planes are visited in. An idle
    //    plane would add nothing and is skipped. A plane's streaming and
    //    MAC times are looked up by its counts.
    let sense_ns = sense_ops * config.timing.t_read_page_ns;
    let mut ecc_pass = ecc.begin_lun_pass();
    let (mut ecc_ns, mut compute_ns): (Nanos, Nanos) = (0, 0);
    let busy = (0..)
        .zip(planes.iter())
        .filter(|(_, acc)| acc.distances > 0);
    for (plane_in_lun, acc) in busy {
        let plane = geom.plane_of(lun, plane_in_lun);
        let mut plane_ecc: Nanos = 0;
        for _ in 0..acc.loads {
            plane_ecc += ecc_pass.decode_page(plane);
        }
        ecc_ns = ecc_ns.max(plane_ecc);
        let (stream, mac) = times.lookup(config, acc.unique_vertices, acc.distances);
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
    use ndsearch_flash::geometry::{FlashGeometry, PlaneId};
    use ndsearch_flash::timing::FlashTiming;
    use ndsearch_graph::csr::Csr;
    use ndsearch_graph::mapping::{PlacementPolicy, VertexMapping};
    use ndsearch_vector::VectorId;

    /// The sort-based body the stamped one replaced: page loads sorted by
    /// (row, plane) and walked run by run, `(plane, vertex)` pairs sorted
    /// and deduplicated. Kept as the oracle the stamped body must equal.
    fn sorted_oracle(
        work: &LunWork,
        luncsr: &LunCsr,
        config: &NdsConfig,
        ecc: &EccEngine,
    ) -> LunOutcome {
        let geom = &config.geometry;
        let timing = &config.timing;
        let dim_bytes = u64::from(luncsr.mapping().slot_bytes());
        let dynamic = config.scheduling.dynamic_allocating;
        // (plane, buffered row, loads, distances, unique vertices)
        let mut planes: Vec<(PlaneId, u64, u64, u64, u64)> = Vec::new();
        let mut loads: Vec<(u64, PlaneId)> = Vec::new();
        let mut vertices: Vec<(PlaneId, u32)> = Vec::new();
        let mut non_speculative = 0u64;
        for t in &work.tasks {
            let plane = t.addr.global_plane(geom);
            let row =
                u64::from(t.addr.block) * u64::from(geom.pages_per_block) + u64::from(t.addr.page);
            let at = planes.iter().position(|p| p.0 == plane).unwrap_or_else(|| {
                planes.push((plane, u64::MAX, 0, 0, 0));
                planes.len() - 1
            });
            let acc = &mut planes[at];
            acc.3 += 1;
            if dynamic {
                loads.push((row, plane));
            } else if acc.1 != row {
                acc.1 = row;
                loads.push((row, plane));
            }
            vertices.push((plane, t.vertex));
            non_speculative += u64::from(!t.speculative);
        }
        loads.sort_unstable();
        if dynamic {
            loads.dedup();
        }
        let accesses = work.tasks.len() as u64;
        let page_loads = loads.len() as u64;
        let (mut sense_ops, mut multi_plane_ops) = (0u64, 0u64);
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
                planes.iter_mut().find(|p| p.0 == plane).unwrap().2 += count as u64;
            }
            sense_ops += busiest;
            multi_plane_ops += u64::from(row_planes > 1);
        }
        vertices.sort_unstable();
        vertices.dedup();
        for &(plane, _) in &vertices {
            planes.iter_mut().find(|p| p.0 == plane).unwrap().4 += 1;
        }
        let sense_ns = sense_ops * timing.t_read_page_ns;
        let lanes_per_plane = (u64::from(MAC_LANES) / u64::from(geom.planes_per_lun)).max(1);
        let mut ecc_pass = ecc.begin_lun_pass();
        let (mut ecc_ns, mut compute_ns): (Nanos, Nanos) = (0, 0);
        for &(plane, _, plane_loads, distances, unique) in &planes {
            let mut plane_ecc: Nanos = 0;
            for _ in 0..plane_loads {
                plane_ecc += ecc_pass.decode_page(plane);
            }
            ecc_ns = ecc_ns.max(plane_ecc);
            let stream = timing.page_buffer_stream_ns(unique * dim_bytes);
            let mac = timing.accel_cycles_ns(distances * dim_bytes.max(1) / lanes_per_plane);
            compute_ns = compute_ns.max(stream.max(mac));
        }
        LunOutcome {
            lun: work.lun,
            report: SinReport {
                sense_ops,
                page_loads,
                multi_plane_ops,
                page_hits: accesses.saturating_sub(page_loads),
                distances: accesses,
                busy_ns: sense_ns + ecc_ns + compute_ns,
                sense_ns,
                ecc_ns,
                compute_ns,
                result_bytes: non_speculative * u64::from(RESULT_ENTRY_BYTES),
                soft_fallbacks: ecc_pass.hard_failures(),
            },
            ecc: ecc_pass.into_delta(),
        }
    }

    #[test]
    fn stamped_unit_equals_the_sorted_oracle() {
        // Two LUNCSRs of different vertex counts per (geometry, placement),
        // so one thread's scratch serves units of both, interleaved.
        let four_planes = FlashGeometry {
            planes_per_lun: 4,
            ..FlashGeometry::tiny()
        };
        let fixtures: Vec<[LunCsr; 2]> = [FlashGeometry::tiny(), four_planes]
            .into_iter()
            .flat_map(|geom| {
                [PlacementPolicy::Linear, PlacementPolicy::MultiPlaneAware].map(|policy| {
                    [1024, 3000].map(|n| {
                        let csr = Csr::from_adjacency(&vec![Vec::new(); n]).unwrap();
                        LunCsr::new(csr, VertexMapping::place(geom, n, 128, policy))
                    })
                })
            })
            .collect();
        let mut shapes = [0usize; 3];
        proptest::test_runner::run(
            proptest::test_runner::Config { cases: 256 },
            "stamped_unit_equals_the_sorted_oracle",
            |rng| {
                use proptest::prelude::*;
                let pair = &fixtures[(0..fixtures.len()).generate(rng)];
                let geom = *pair[0].mapping().geometry();
                let mut config = NdsConfig {
                    geometry: geom,
                    ecc: EccConfig {
                        hard_decision_failure_prob: [0.0, 0.3][(0usize..2).generate(rng)],
                        ..EccConfig::default()
                    },
                    ..NdsConfig::default()
                };
                config.scheduling.dynamic_allocating = any::<bool>().generate(rng);
                let mut ecc = EccEngine::new(&geom, config.ecc);
                for unit in 0..(2usize..6).generate(rng) {
                    let lc = &pair[unit % 2];
                    let lun = (0..geom.total_luns()).generate(rng);
                    let on_lun: Vec<VectorId> = (0..lc.num_vertices() as VectorId)
                        .filter(|&v| lc.lun_of(v) == lun)
                        .collect();
                    // A few vertices, each read by several queries.
                    let pool: Vec<VectorId> = (0..(1usize..12).generate(rng))
                        .map(|_| on_lun[(0..on_lun.len()).generate(rng)])
                        .collect();
                    let tasks = (0..(0usize..48).generate(rng))
                        .map(|_| {
                            let vertex = pool[(0..pool.len()).generate(rng)];
                            VertexTask {
                                query: (0u32..6).generate(rng),
                                vertex,
                                addr: lc.physical_addr(vertex),
                                speculative: any::<bool>().generate(rng),
                            }
                        })
                        .collect();
                    let work = LunWork { lun, tasks };
                    let oracle = sorted_oracle(&work, lc, &config, &ecc);
                    prop_assert_eq!(process_lun_work(&work, lc, &config, &ecc), oracle.clone());
                    ecc.apply(&oracle.ecc);
                    let rep = &oracle.report;
                    shapes[0] += usize::from(rep.multi_plane_ops > 0);
                    let mut pages: Vec<u64> =
                        work.tasks.iter().map(|t| t.addr.page_key(&geom)).collect();
                    pages.sort_unstable();
                    pages.dedup();
                    shapes[1] += usize::from(rep.page_loads > pages.len() as u64);
                    shapes[2] += usize::from(rep.soft_fallbacks > 0);
                }
                Ok(())
            },
        );
        // Multi-plane merges, pages re-sensed, soft fallbacks: all occur.
        assert!(shapes.iter().all(|&k| k > 0), "{shapes:?}");
    }

    #[test]
    fn plane_time_tables_follow_the_config_and_grow() {
        // Two setups that differ in every input of the tables — the
        // page-buffer read rate, the accelerator clock and the slot bytes
        // — alternate on one thread's scratch (a fresh thread, so the
        // tables start empty). Every unit is `len` tasks on one plane over
        // the same number of vertices in both setups, so the two read the
        // same table indices; lengths grow, and each setup also follows
        // itself with a longer unit, past what its table holds so far.
        std::thread::spawn(|| {
            let geom = FlashGeometry::tiny();
            let setups = [(128, 0.625, 800e6), (256, 0.9, 700e6)].map(|(slot, rate, clock)| {
                let n = 1024;
                let csr = Csr::from_adjacency(&vec![Vec::new(); n]).unwrap();
                let mapping = VertexMapping::place(geom, n, slot, PlacementPolicy::Linear);
                let config = NdsConfig {
                    geometry: geom,
                    timing: FlashTiming {
                        page_buffer_read_ns_per_byte: rate,
                        accel_clock_hz: clock,
                        ..FlashTiming::default()
                    },
                    ..NdsConfig::default()
                };
                (LunCsr::new(csr, mapping), config)
            });
            let unit = |(lc, _): &(LunCsr, NdsConfig), len: usize| {
                let pool: Vec<VectorId> = (0..lc.num_vertices() as VectorId)
                    .filter(|&v| lc.lun_of(v) == 0 && lc.mapping().plane_of(v) == 0)
                    .take(len.div_ceil(2).min(40))
                    .collect();
                let tasks = (0..len)
                    .map(|i| VertexTask {
                        query: i as u32,
                        vertex: pool[i % pool.len()],
                        addr: lc.physical_addr(pool[i % pool.len()]),
                        speculative: false,
                    })
                    .collect();
                LunWork { lun: 0, tasks }
            };
            let ecc = EccEngine::new(&geom, setups[0].1.ecc);
            for len in [1, 3, 9, 40, 150, 300] {
                let mut compute = [0; 2];
                for (which, len) in [(0, len), (1, len), (1, len + 7), (0, len + 7)] {
                    let setup = &setups[which];
                    let work = unit(setup, len);
                    let oracle = sorted_oracle(&work, &setup.0, &setup.1, &ecc);
                    assert_eq!(process_lun_work(&work, &setup.0, &setup.1, &ecc), oracle);
                    compute[which] = oracle.report.compute_ns;
                }
                // A table left from the other setup would answer wrong.
                assert_ne!(compute[0], compute[1], "len {len}");
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_plane_that_returns_to_a_row_senses_it_again() {
        // Without dynamic allocating, plane 0 loads row r, switches to r'
        // and returns to r; plane 1 loads r once. Row r senses at its
        // busiest plane's 2 loads, r' once: 4 loads, 3 senses, 1 of them
        // multi-plane, no page shared.
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, false);
        let m = lc.mapping();
        assert_eq!((m.plane_of(0), m.plane_of(256), m.plane_of(16)), (0, 0, 1));
        assert!([1, 16, 256].iter().all(|&v| lc.lun_of(v) == lc.lun_of(0)));
        assert_eq!((m.page_of(1), m.page_of(16)), (m.page_of(0), m.page_of(0)));
        assert_ne!(
            lc.physical_addr(0).page_key(&cfg.geometry),
            lc.physical_addr(256).page_key(&cfg.geometry)
        );
        let tasks = [0, 256, 1, 16]
            .into_iter()
            .zip(0..)
            .map(|(vertex, query)| VertexTask {
                query,
                vertex,
                addr: lc.physical_addr(vertex),
                speculative: false,
            })
            .collect();
        let work = LunWork {
            lun: lc.lun_of(0),
            tasks,
        };
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let rep = process_lun_work(&work, &lc, &cfg, &ecc).report;
        assert_eq!(
            (
                rep.page_loads,
                rep.sense_ops,
                rep.multi_plane_ops,
                rep.page_hits
            ),
            (4, 3, 1, 0)
        );
    }

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
