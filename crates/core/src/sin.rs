//! SiN engines — LUN-level accelerators (Fig. 8).
//!
//! Each LUN accelerator owns a query queue, a Vaddr queue, an accelerator
//! controller issuing multi-plane read sequences, per-plane hard-decision
//! LDPC decoders, and MAC groups computing distances directly out of the
//! page buffers. The model replays one round's tasks, every LUN's share
//! at once (`SinRound`):
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
use ndsearch_flash::geometry::{LunId, PhysAddr, PlaneId};
use ndsearch_flash::stats::FlashStats;
use ndsearch_flash::timing::Nanos;
use ndsearch_graph::luncsr::LunCsr;
use ndsearch_vector::VectorId;

use crate::alloc::LunWork;
use crate::config::{NdsConfig, MAC_LANES, RESULT_ENTRY_BYTES};

/// Result of one LUN accelerator processing one iteration's work. Its
/// counts are the LUN's flash-statistics increments.
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
/// LUN's flash-statistics increments, and the ECC cursor advance. Pure
/// data — the caller commits the delta.
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
/// [`LunOutcome`]; the caller commits it. The stage view of the engines'
/// round pass: the work goes through the same `SinRound`, its decodes
/// through an [`EccLunPass`](ndsearch_flash::ecc::EccLunPass).
pub fn process_lun_work(
    work: &LunWork,
    luncsr: &LunCsr,
    config: &NdsConfig,
    ecc: &EccEngine,
) -> LunOutcome {
    with_round(luncsr, config, |round| {
        for t in &work.tasks {
            debug_assert_eq!(t.addr.lun, work.lun);
            round.push_at(t.vertex, t.addr, t.speculative);
        }
        let (mut pass, mut report) = (ecc.begin_lun_pass(), SinReport::default());
        let decode = |plane, pages| {
            let failures = pass.hard_failures();
            let ns = (0..pages).map(|_| pass.decode_page(plane)).sum();
            (ns, pass.hard_failures() - failures)
        };
        round.finish(config, decode, |_, rep, _| report = *rep);
        LunOutcome {
            lun: work.lun,
            report,
            ecc: pass.into_delta(),
        }
    })
}

/// One plane's share of a round.
#[derive(Debug, Clone, Copy, Default)]
struct PlaneAcc {
    /// One past the row (block, page) the plane's buffer holds in
    /// dispatch order, 0 for none (only tracked without dynamic
    /// allocating).
    buffered: u32,
    loads: u32,
    distances: u32,
    unique_vertices: u32,
}

/// One LUN's share of a round.
#[derive(Debug, Clone, Copy, Default)]
struct LunAcc {
    sense_ops: u32,
    multi_plane_ops: u32,
    non_speculative: u32,
}

/// What [`SinRound::finish`] folds over every LUN of a round.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundFlash {
    /// The round's flash-statistics increments.
    pub stats: FlashStats,
    /// The slowest LUN (the first of equals in ascending LUN order).
    pub slowest: SinReport,
    /// The busiest channel's data-out.
    pub bus_ns: Nanos,
}

/// A round's flash work, accumulated task by task in dispatch order and
/// settled once by [`finish`](Self::finish). Every count lives in
/// per-plane, per-LUN and per-page counters that one pass over the tasks
/// fills, so nothing is sorted or grouped. A round leaves every counter
/// zero (or stamped by an older round), so one per thread serves every
/// engine stepped there; [`with_round`] sizes it once per round.
#[derive(Debug, Default)]
pub(crate) struct SinRound {
    /// Per vertex, the last round that streamed it. Each round takes a
    /// fresh `epoch`, so a stamp left by any earlier round — of this
    /// engine or of another engine's LUNCSR on the same thread — never
    /// reads as seen.
    seen: Vec<u32>,
    epoch: u32,
    /// Per page, at `global row × planes per LUN + plane in LUN` (the
    /// global row is `row in plane × LUNs + LUN`): the round that last
    /// loaded it in the high half, its loads in that round in the low
    /// half. Grown to the highest row a round reaches.
    pages: Vec<u64>,
    /// Per global plane and per LUN, zeroed again as a LUN finishes.
    planes: Vec<PlaneAcc>,
    luns: Vec<LunAcc>,
    /// One bit per LUN a task of the round went to.
    live: Vec<u64>,
    /// Per LUN, its channel, so `finish` divides nothing.
    channel_of: Vec<u32>,
    /// The round's geometry: LUNs, planes per LUN, pages per block.
    shape: [usize; 3],
    dynamic: bool,
    times: Times,
}

impl SinRound {
    /// Starts a round over `luncsr` under `config`.
    fn begin(&mut self, luncsr: &LunCsr, config: &NdsConfig) {
        let geom = &config.geometry;
        let vertices = luncsr.num_vertices();
        if self.seen.len() < vertices {
            self.seen = vec![0; vertices.max(2 * self.seen.len())];
        }
        let luns = geom.total_luns() as usize;
        self.shape = [
            luns,
            geom.planes_per_lun as usize,
            geom.pages_per_block as usize,
        ];
        self.dynamic = config.scheduling.dynamic_allocating;
        self.planes
            .resize(geom.total_planes() as usize, PlaneAcc::default());
        self.luns.resize(luns, LunAcc::default());
        self.live.resize(luns.div_ceil(64), 0);
        // LUNs and channels fix every LUN's channel, and the last LUN is
        // on the last channel.
        if self.channel_of.len() != luns || self.channel_of.last() != Some(&(geom.channels - 1)) {
            self.channel_of.clear();
            self.channel_of
                .extend((0..luns as LunId).map(|l| geom.lun_channel(l)));
        }
        self.times.rekey(luncsr, config);
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.seen.fill(0);
            self.pages.fill(0);
            1
        });
    }

    /// Dispatches one task: `vertex`'s vector, its physical address
    /// straight from LUNCSR. Returns the LUN it went to.
    pub fn push(&mut self, luncsr: &LunCsr, vertex: VectorId, speculative: bool) -> LunId {
        let addr = luncsr.physical_addr(vertex);
        debug_assert_eq!(addr.lun, luncsr.lun_of(vertex));
        self.push_at(vertex, addr, speculative);
        addr.lun
    }

    /// Dispatches one task at a resolved address. Every task of a vertex
    /// carries the vertex's one address.
    ///
    /// Without dynamic allocating a plane's page buffer serves only
    /// *consecutive* tasks on one page — switching pages flushes it, and a
    /// later query needing the old page pays a fresh sense (§VI-B1's "may
    /// be flushed and need to be read from the NAND arrays again by
    /// another query later") — so a plane's loads depend on its dispatch
    /// order. With it, the Dispatcher groups a page's tasks and each page
    /// is sensed once. A vertex's first task of the round adds one unique
    /// vector to its plane: a vector crosses the page buffer once and the
    /// switch feeds it to the MAC groups of every queued query (Fig. 8).
    #[inline]
    fn push_at(&mut self, vertex: VectorId, addr: PhysAddr, speculative: bool) {
        let [luns, per_lun, pages_per_block] = self.shape;
        let (lun, plane_in_lun) = (addr.lun as usize, addr.plane_in_lun as usize);
        debug_assert!(
            lun < luns && plane_in_lun < per_lun && (addr.page as usize) < pages_per_block
        );
        let row = (addr.block as usize * pages_per_block + addr.page as usize) * luns + lun;
        if (row + 1) * per_lun > self.pages.len() {
            let len = ((row + 1) * per_lun).next_power_of_two();
            self.pages.resize(len, 0);
        }
        self.live[lun / 64] |= 1 << (lun % 64);
        let lun_acc = &mut self.luns[lun];
        lun_acc.non_speculative += u32::from(!speculative);
        let acc = &mut self.planes[lun * per_lun + plane_in_lun];
        acc.distances += 1;
        let stamp = &mut self.seen[vertex as usize];
        acc.unique_vertices += u32::from(*stamp != self.epoch);
        *stamp = self.epoch;
        // A page an older round loaded has no loads in this one.
        let epoch = u64::from(self.epoch) << 32;
        let loads = |page: u64| {
            if page ^ epoch < 1 << 32 {
                page as u32
            } else {
                0
            }
        };
        let row_pages = &mut self.pages[row * per_lun..][..per_lun];
        let count = loads(row_pages[plane_in_lun]);
        let load = if self.dynamic {
            count == 0
        } else {
            std::mem::replace(&mut acc.buffered, row as u32 + 1) != row as u32 + 1
        };
        // Loads of one row on distinct planes fire as one multi-plane
        // sequence, and repeated loads of a plane serialize, so the row's
        // senses are its busiest plane's loads: a load that tops the row's
        // maximum adds a sense, one that brings a second plane into the
        // row a multi-plane merge. Counted without a branch on the load.
        let busiest = row_pages.iter().map(|&p| loads(p)).max().unwrap_or(0);
        let planes = row_pages.iter().filter(|&&p| loads(p) > 0).count();
        lun_acc.sense_ops += u32::from(load && count == busiest);
        lun_acc.multi_plane_ops += u32::from(load && count == 0 && planes == 1);
        row_pages[plane_in_lun] = epoch | u64::from(count + u32::from(load));
        acc.loads += u32::from(load);
    }

    /// Settles the round, LUN by LUN in ascending order: each plane's
    /// `decode(plane, page loads)` (its ECC latency and hard-decision
    /// failures, drawn from the plane's cursor), the LUN's report, and
    /// its channel time — sense commands in, results out — go to
    /// `each`; the round's statistics, slowest LUN and busiest channel
    /// come back. Leaves every counter zero for the next round.
    ///
    /// The per-plane LDPC decoders, page-buffer read paths and MAC groups
    /// operate in parallel (Fig. 8), so a LUN's ECC / compute time is its
    /// busiest plane's, while array senses serialize at the die. An idle
    /// plane adds nothing and is skipped.
    pub fn finish(
        &mut self,
        config: &NdsConfig,
        mut decode: impl FnMut(PlaneId, u64) -> (Nanos, u64),
        mut each: impl FnMut(LunId, &SinReport, Nanos),
    ) -> RoundFlash {
        let timing = &config.timing;
        let per_lun = self.shape[1];
        let (mut out, mut channel, mut channel_ns) = (RoundFlash::default(), u32::MAX, 0);
        for w in 0..self.live.len() {
            let mut bits = std::mem::take(&mut self.live[w]);
            while bits != 0 {
                let lun = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let acc = std::mem::take(&mut self.luns[lun]);
                let (mut loads, mut distances, mut soft_fallbacks) = (0, 0, 0);
                let (mut ecc_ns, mut compute_ns): (Nanos, Nanos) = (0, 0);
                let first = lun * per_lun;
                for (plane, p) in (first..).zip(&mut self.planes[first..first + per_lun]) {
                    let p = std::mem::take(p);
                    if p.distances == 0 {
                        continue;
                    }
                    let (ns, failures) = decode(plane as PlaneId, u64::from(p.loads));
                    ecc_ns = ecc_ns.max(ns);
                    soft_fallbacks += failures;
                    let (stream, mac) = self.times.lookup(config, p.unique_vertices, p.distances);
                    compute_ns = compute_ns.max(stream.max(mac));
                    loads += u64::from(p.loads);
                    distances += u64::from(p.distances);
                }
                let sense_ops = u64::from(acc.sense_ops);
                let sense_ns = sense_ops * timing.t_read_page_ns;
                let report = SinReport {
                    sense_ops,
                    page_loads: loads,
                    multi_plane_ops: u64::from(acc.multi_plane_ops),
                    page_hits: distances - loads,
                    distances,
                    busy_ns: sense_ns + ecc_ns + compute_ns,
                    sense_ns,
                    ecc_ns,
                    compute_ns,
                    result_bytes: u64::from(acc.non_speculative) * u64::from(RESULT_ENTRY_BYTES),
                    soft_fallbacks,
                };
                let ship_ns =
                    self.times.ship(config, acc.non_speculative) + sense_ops * timing.t_command_ns;
                // A channel's LUNs are contiguous ids, so its data-out
                // sums while the walk is inside it; as the sum only grows
                // there, the busiest channel's is the largest running sum.
                let same = std::mem::replace(&mut channel, self.channel_of[lun]) == channel;
                channel_ns = if same { channel_ns } else { 0 } + ship_ns;
                out.bus_ns = out.bus_ns.max(channel_ns);
                if report.busy_ns > out.slowest.busy_ns {
                    out.slowest = report;
                }
                let stats = &mut out.stats;
                stats.page_reads += report.page_loads;
                stats.search_ops += report.sense_ops;
                stats.page_buffer_hits += report.page_hits;
                stats.distance_evals += report.distances;
                stats.multi_plane_ops += report.multi_plane_ops;
                stats.ecc_soft_fallbacks += report.soft_fallbacks;
                stats.bus_bytes += report.result_bytes;
                each(lun as LunId, &report, ship_ns);
            }
        }
        out
    }

    /// One bit per LUN a task of the round went to so far.
    pub fn touched(&self) -> &[u64] {
        &self.live
    }
}

/// A plane's compute times and a LUN's data-out time by count, filled
/// lazily from the same [`FlashTiming`](ndsearch_flash::timing::FlashTiming)
/// functions a LUN would call, so a round looks its times up instead of
/// dividing. The tables hold for one key — the page-buffer read rate, the
/// accelerator clock, the channel bus rate, the slot bytes and the planes
/// per LUN (which fix the MAC lanes per plane, [`MAC_LANES`] being a
/// constant) — which [`with_round`] sets, emptying the tables when it
/// changes.
#[derive(Debug, Default)]
struct Times {
    /// `[read rate bits, clock bits, bus rate bits, slot bytes, planes
    /// per LUN]`; all zero until first keyed, which no geometry (≥ 1
    /// plane per LUN) is.
    key: [u64; 5],
    lanes_per_plane: u64,
    /// `stream[u]`: streaming `u` vectors out of the page buffer.
    stream: Vec<Nanos>,
    /// `mac[d]`: `d` distances on one plane's MAC lanes.
    mac: Vec<Nanos>,
    /// `ship[r]`: `r` result entries over the LUN's channel.
    ship: Vec<Nanos>,
}

impl Times {
    fn key(luncsr: &LunCsr, config: &NdsConfig) -> [u64; 5] {
        let timing = &config.timing;
        [
            timing.page_buffer_read_ns_per_byte.to_bits(),
            timing.accel_clock_hz.to_bits(),
            timing.channel_bus_bytes_per_s.to_bits(),
            u64::from(luncsr.mapping().slot_bytes()),
            u64::from(config.geometry.planes_per_lun),
        ]
    }

    /// Keys the tables to rounds of `luncsr` under `config`, emptying
    /// them if the key changed.
    fn rekey(&mut self, luncsr: &LunCsr, config: &NdsConfig) {
        let key = Self::key(luncsr, config);
        if key != self.key {
            self.key = key;
            self.lanes_per_plane = (u64::from(MAC_LANES) / key[4]).max(1);
            self.stream.clear();
            self.mac.clear();
            self.ship.clear();
        }
    }

    /// The plane's streaming and MAC times for `unique` vectors and
    /// `distances` distances, growing either table to the count it lacks.
    fn lookup(&mut self, config: &NdsConfig, unique: u32, distances: u32) -> (Nanos, Nanos) {
        let timing = &config.timing;
        let (slot_bytes, lanes) = (self.key[3], self.lanes_per_plane);
        let stream = grow_to(&mut self.stream, unique, |u| {
            timing.page_buffer_stream_ns(u * slot_bytes)
        });
        let mac = grow_to(&mut self.mac, distances, |d| {
            timing.accel_cycles_ns(d * slot_bytes.max(1) / lanes)
        });
        (stream, mac)
    }

    /// Channel time of `results` result entries.
    fn ship(&mut self, config: &NdsConfig, results: u32) -> Nanos {
        grow_to(&mut self.ship, results, |r| {
            config
                .timing
                .channel_transfer_ns(r * u64::from(RESULT_ENTRY_BYTES))
        })
    }
}

/// `table[count]`, first filling the table up to `count` with `time`.
fn grow_to(table: &mut Vec<Nanos>, count: u32, time: impl Fn(u64) -> Nanos) -> Nanos {
    let at = count as usize;
    if at >= table.len() {
        let from = table.len() as u64;
        table.extend((from..=u64::from(count)).map(time));
    }
    table[at]
}

thread_local! {
    static ROUND: RefCell<SinRound> = RefCell::new(SinRound::default());
}

/// Runs `f` on this thread's [`SinRound`], begun for a round over
/// `luncsr` under `config` — a stamp per vertex (grown geometrically, so
/// an insert per round rarely reallocates), counters per plane and per
/// LUN, and time tables keyed to them. `f` pushes the round's tasks and
/// finishes it.
pub(crate) fn with_round<R>(
    luncsr: &LunCsr,
    config: &NdsConfig,
    f: impl FnOnce(&mut SinRound) -> R,
) -> R {
    ROUND.with_borrow_mut(|round| {
        round.begin(luncsr, config);
        f(round)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{Allocator, VertexTask};
    use crate::engine::{execute_round, LunCoverage, RoundOutcome, RoundSinks};
    use crate::qpt::QueryPropertyTable;
    use crate::vgen::Vgenerator;
    use ndsearch_flash::ecc::EccConfig;
    use ndsearch_flash::geometry::FlashGeometry;
    use ndsearch_flash::timing::FlashTiming;
    use ndsearch_graph::csr::Csr;
    use ndsearch_graph::mapping::{PlacementPolicy, VertexMapping};

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

    /// One round the stage-by-stage way: `Vgenerator::run` and
    /// `Allocator::dispatch` cut per-LUN lists, `process_lun_work`
    /// evaluates each (held to the sorted oracle), and its delta, statistics, LUN, channel data-out
    /// and busy time are committed in ascending LUN order, as the engines
    /// did before the streaming pass. Returns each LUN's report and the
    /// round's outcome.
    fn dispatched_round(
        lc: &LunCsr,
        config: &NdsConfig,
        entries: &[Vec<VectorId>],
        speculative: bool,
        (ecc, stats, coverage): &mut (EccEngine, FlashStats, LunCoverage),
    ) -> (Vec<(LunId, SinReport)>, RoundOutcome) {
        let timing = &config.timing;
        let lists: Vec<(u32, VectorId, &[VectorId])> = (0..)
            .zip(entries)
            .map(|(q, e)| (q, 0, e.as_slice()))
            .collect();
        let vgen = Vgenerator.run(lc, timing, &lists);
        let alloc = Allocator.dispatch(lc, timing, &vgen.triples, speculative);
        let mut channels = vec![0; config.geometry.channels as usize];
        let (mut slowest, mut reports) = (SinReport::default(), Vec::new());
        let mut luns = vec![0; config.geometry.total_luns().div_ceil(64) as usize];
        for w in &alloc.work {
            let out = process_lun_work(w, lc, config, ecc);
            assert_eq!(out, sorted_oracle(w, lc, config, ecc), "LUN {}", w.lun);
            ecc.apply(&out.ecc);
            let rep = out.report;
            stats.page_reads += rep.page_loads;
            stats.search_ops += rep.sense_ops;
            stats.page_buffer_hits += rep.page_hits;
            stats.distance_evals += rep.distances;
            stats.multi_plane_ops += rep.multi_plane_ops;
            stats.ecc_soft_fallbacks += rep.soft_fallbacks;
            stats.bus_bytes += rep.result_bytes;
            luns[w.lun as usize / 64] |= 1 << (w.lun % 64);
            channels[config.geometry.lun_channel(w.lun) as usize] +=
                timing.channel_transfer_ns(rep.result_bytes) + rep.sense_ops * timing.t_command_ns;
            if rep.busy_ns > slowest.busy_ns {
                slowest = rep;
            }
            reports.push((w.lun, rep));
        }
        coverage.cover(&luns);
        let bus_ns = channels.into_iter().max().unwrap_or(0);
        let qpt = QueryPropertyTable::new(64, 512, 64);
        let tasks = vgen.triples.len() as u64;
        let dram_ns = timing.dram_transfer_ns(qpt.gather_traffic_bytes(entries.len(), tasks));
        let embedded_ns = entries.len() as u64 * timing.t_embedded_op_ns;
        let outcome = RoundOutcome {
            allocating_ns: vgen.latency_ns + alloc.latency_ns,
            searching_ns: slowest.busy_ns + bus_ns,
            gathering_ns: dram_ns + embedded_ns,
            bus_ns,
            dram_ns,
            embedded_ns,
            nand_read_ns: slowest.sense_ns,
            ecc_ns: slowest.ecc_ns,
            compute_ns: slowest.compute_ns,
        };
        (reports, outcome)
    }

    #[test]
    fn a_streamed_round_equals_dispatched_units() {
        // Random two-round runs — a main pass, then a speculative pass,
        // twice, so the ECC cursors carry over — three ways on one
        // thread's `SinRound`: (A) the engines' `execute_round` plus the
        // speculative pass, (B) the same tasks pushed and finished with
        // every LUN's report kept, and (O) `dispatched_round`. Rounds are
        // empty, sparse (one to three LUNs) or dense (every LUN) over a
        // few vertices per LUN, so pages and planes are revisited; 130
        // LUNs span three bitmap words, the last one partial.
        let wide = FlashGeometry {
            channels: 5,
            chips_per_channel: 13,
            blocks_per_plane: 1,
            pages_per_block: 2,
            ..FlashGeometry::tiny()
        };
        let four_planes = FlashGeometry {
            planes_per_lun: 4,
            ..FlashGeometry::tiny()
        };
        let fixtures: Vec<(LunCsr, Vec<Vec<VectorId>>)> = [
            (FlashGeometry::tiny(), 1024),
            (four_planes, 1024),
            (wide, 4_200),
        ]
        .into_iter()
        .flat_map(|(geom, n)| {
            [PlacementPolicy::Linear, PlacementPolicy::MultiPlaneAware].map(|policy| {
                let csr = Csr::from_adjacency(&vec![Vec::new(); n]).unwrap();
                let lc = LunCsr::new(csr, VertexMapping::place(geom, n, 128, policy));
                let mut by_lun = vec![Vec::new(); geom.total_luns() as usize];
                for v in 0..n as VectorId {
                    by_lun[lc.lun_of(v) as usize].push(v);
                }
                assert!(by_lun.iter().all(|l| !l.is_empty()));
                (lc, by_lun)
            })
        })
        .collect();
        let qpt = QueryPropertyTable::new(64, 512, 64);
        let mut shapes = [0usize; 6];
        proptest::test_runner::run(
            proptest::test_runner::Config { cases: 256 },
            "a_streamed_round_equals_dispatched_units",
            |rng| {
                use proptest::prelude::*;
                let (lc, by_lun) = &fixtures[(0..fixtures.len()).generate(rng)];
                let geom = *lc.mapping().geometry();
                let mut config = NdsConfig {
                    geometry: geom,
                    ..NdsConfig::default()
                };
                config.ecc.hard_decision_failure_prob = [0.0, 0.3, 0.9][(0usize..3).generate(rng)];
                config.scheduling.dynamic_allocating = any::<bool>().generate(rng);
                let fresh = || {
                    let ecc = EccEngine::new(&geom, config.ecc);
                    (ecc, FlashStats::new(), LunCoverage::default())
                };
                let (mut a, mut b, mut o) = (fresh(), fresh(), fresh());
                for _ in 0..2 {
                    // A few vertices per chosen LUN, read by several queries.
                    let kind = (0usize..3).generate(rng);
                    shapes[kind] += 1;
                    let luns: Vec<usize> = match kind {
                        0 => Vec::new(),
                        1 => (0..(1usize..4).generate(rng))
                            .map(|_| (0..by_lun.len()).generate(rng))
                            .collect(),
                        _ => (0..by_lun.len()).collect(),
                    };
                    let mut pool = Vec::new();
                    for &l in &luns {
                        let on = &by_lun[l];
                        for _ in 0..(1usize..6).generate(rng) {
                            pool.push(on[(0..on.len()).generate(rng)]);
                        }
                    }
                    let draw = |rng: &mut proptest::test_runner::TestRng| -> Vec<VectorId> {
                        let len = if pool.is_empty() {
                            0
                        } else {
                            (0..3 * pool.len() + 2).generate(rng)
                        };
                        (0..len)
                            .map(|_| pool[(0..pool.len()).generate(rng)])
                            .collect()
                    };
                    let queries = (1usize..7).generate(rng);
                    let main: Vec<Vec<VectorId>> = (0..queries).map(|_| draw(rng)).collect();
                    let spec = vec![draw(rng)];

                    // (O) and (A): the outcome, statistics and coverage.
                    let (mut want, outcome) = dispatched_round(lc, &config, &main, false, &mut o);
                    want.extend(dispatched_round(lc, &config, &spec, true, &mut o).0);
                    let (ecc, stats, luns_touched) = (&mut a.0, &mut a.1, &mut a.2);
                    let sinks = RoundSinks {
                        ecc,
                        stats,
                        luns_touched,
                    };
                    let lists = main.iter().map(Vec::as_slice);
                    prop_assert_eq!(execute_round(&config, lc, &qpt, lists, 0, sinks), outcome);
                    with_round(lc, &config, |round| {
                        spec[0].iter().for_each(|&v| _ = round.push(lc, v, true));
                        let (ecc, stats, luns_touched) = (&mut a.0, &mut a.1, &mut a.2);
                        RoundSinks {
                            ecc,
                            stats,
                            luns_touched,
                        }
                        .finish(round, &config, |_, _, _| {});
                    });

                    // (B): every LUN's report, main pass then speculative.
                    let mut got = Vec::new();
                    for (tasks, speculative) in [(main.concat(), false), (spec.concat(), true)] {
                        with_round(lc, &config, |round| {
                            tasks
                                .iter()
                                .for_each(|&v| _ = round.push(lc, v, speculative));
                            let (ecc, stats, luns_touched) = (&mut b.0, &mut b.1, &mut b.2);
                            let sinks = RoundSinks {
                                ecc,
                                stats,
                                luns_touched,
                            };
                            sinks.finish(round, &config, |lun, rep, _| got.push((lun, *rep)));
                        });
                    }
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!((&a.1, &a.2), (&o.1, &o.2));
                    prop_assert_eq!((&b.1, &b.2), (&o.1, &o.2));
                    shapes[3] += usize::from(want.iter().any(|r| r.1.multi_plane_ops > 0));
                    shapes[4] +=
                        usize::from(want.iter().any(|r| r.1.sense_ops > r.1.multi_plane_ops + 1));
                    shapes[5] += usize::from(o.1.ecc_soft_fallbacks > 0);
                }
                // Later decisions: every plane's next decodes agree.
                for plane in 0..geom.total_planes() {
                    let next = o.0.decode_pages(plane, 6);
                    prop_assert_eq!(a.0.decode_pages(plane, 6), next);
                    prop_assert_eq!(b.0.decode_pages(plane, 6), next);
                }
                Ok(())
            },
        );
        // Empty, sparse and dense rounds; multi-plane merges, repeated
        // senses and soft fallbacks: all occur.
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
