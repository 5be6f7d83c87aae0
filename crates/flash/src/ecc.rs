//! LDPC error correction model and fault injection (Fig. 18).
//!
//! §IV-C5: feature vectors must be corrected *before* entering the MAC
//! group, so each plane gets a hard-decision LDPC decoder between the page
//! buffer and the MACs. Soft-decision decoding stays on the FTL (embedded
//! cores) and is invoked only when hard decision fails, pausing the search
//! iteration and costing ~10 µs extra.
//!
//! §VII-B ("ECC and endurance"): raw bit error rates are generated per
//! plane following measured BER distributions with mean 1e-6, and
//! hard-decision failure probabilities of {1, 5, 10, 30} % are injected to
//! evaluate worst-case slowdown (1.23×–1.66× at 30 %). The two halves are
//! separate here as in the paper: [`plane_raw_bers`] draws the descriptive
//! Fig. 18(a) distribution, and the [`EccEngine`] injects failures from
//! the hard-decision probability alone — no decode reads a BER.

use crate::geometry::{FlashGeometry, PlaneId};
use crate::timing::{ceil_ns, Nanos};
use ndsearch_vector::rng::{Pcg32, SplitMix64};

/// Mean raw bit error rate of the Fig. 18(a) plane distribution (§VII-B).
const MEAN_RAW_BER: f64 = 1e-6;

/// Spread of the Fig. 18(a) lognormal plane distribution (σ of ln BER).
const BER_SIGMA: f64 = 0.6;

/// One raw BER per plane of `geom` (the Fig. 18(a) distribution): a
/// lognormal centred, in log space, on the paper's mean of 1e-6 with
/// σ 0.6, drawn in plane order from a [`Pcg32`] seeded with `seed`.
/// Descriptive only — fault injection never reads it.
pub fn plane_raw_bers(geom: &FlashGeometry, seed: u64) -> Vec<f64> {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mu = MEAN_RAW_BER.ln();
    (0..geom.total_planes())
        .map(|_| (mu + rng.next_gaussian() * BER_SIGMA).exp())
        .collect()
}

/// ECC model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccConfig {
    /// Probability that the in-SiN hard-decision decode of a page fails and
    /// must fall back to soft decision on the FTL (paper default 1 %).
    pub hard_decision_failure_prob: f64,
    /// Latency of in-plane hard-decision decode (pipelined with the page
    /// buffer stream; small).
    pub t_hard_decode_ns: Nanos,
    /// Extra latency of a soft-decision decode on the FTL (paper: ~10 µs),
    /// which also pauses the search iteration on that LUN.
    pub t_soft_decode_ns: Nanos,
    /// Seed of the failure-injection streams (and of the Fig. 18(a)
    /// BERs a caller draws with [`plane_raw_bers`]).
    pub seed: u64,
}

impl Default for EccConfig {
    fn default() -> Self {
        Self {
            hard_decision_failure_prob: 0.01,
            t_hard_decode_ns: 500,
            t_soft_decode_ns: 10_000,
            seed: 0xECC,
        }
    }
}

impl EccConfig {
    /// The paper's worst-case scenarios sweep (Fig. 18b): hard-decision
    /// failure probabilities of 30 %, 10 %, 5 % and 1 %.
    pub fn failure_sweep() -> [f64; 4] {
        [0.30, 0.10, 0.05, 0.01]
    }
}

/// Entries a [`PlaneCounts`] holds without touching the heap. A LUN pass
/// decodes on its own planes only, and no NAND part groups more than four
/// planes into a LUN, so the per-LUN hot path never spills.
const INLINE_PLANES: usize = 4;

/// `(plane, decode count)` pairs sorted by plane id: a fixed inline array
/// for up to [`INLINE_PLANES`] planes, a sorted heap vector beyond that
/// (a pass driven over many planes — tests, the ECC microbenchmark).
#[derive(Debug, Clone, Default)]
struct PlaneCounts {
    /// Live prefix of `inline`; unused once `spill` is non-empty.
    len: usize,
    inline: [(PlaneId, u64); INLINE_PLANES],
    spill: Vec<(PlaneId, u64)>,
}

impl PlaneCounts {
    fn as_slice(&self) -> &[(PlaneId, u64)] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// The counter of `plane`, inserted at zero (in plane order) when the
    /// plane is new.
    fn slot(&mut self, plane: PlaneId) -> &mut u64 {
        if self.spill.is_empty() {
            // Linear scan: at most INLINE_PLANES entries.
            let at = self.inline[..self.len]
                .iter()
                .position(|e| e.0 >= plane)
                .unwrap_or(self.len);
            if at < self.len && self.inline[at].0 == plane {
                return &mut self.inline[at].1;
            }
            if self.len < INLINE_PLANES {
                self.inline.copy_within(at..self.len, at + 1);
                self.inline[at] = (plane, 0);
                self.len += 1;
                return &mut self.inline[at].1;
            }
            self.spill.extend_from_slice(&self.inline);
        }
        let at = match self.spill.binary_search_by_key(&plane, |e| e.0) {
            Ok(at) => at,
            Err(at) => {
                self.spill.insert(at, (plane, 0));
                at
            }
        };
        &mut self.spill[at].1
    }
}

impl PartialEq for PlaneCounts {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PlaneCounts {}

/// Result of a [decoding pass](EccLunPass): how far it advanced each
/// plane's failure-stream cursor, produced *without* mutating the engine.
///
/// A pass returns its effects instead of committing them so that
/// `ndsearch_core::sin::process_lun_work` stays a pure stage view:
/// `perf_ledger`'s `core.sin.*` rows replay units against one untouched
/// engine, while the engines decode and commit in one step
/// ([`EccEngine::decode_pages`]). Apply it with [`EccEngine::apply`]; the
/// pass's decode and failure counts are the caller's to keep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EccDelta {
    /// `(plane, decode count)` pairs, sorted by plane id.
    plane_decodes: PlaneCounts,
}

/// A pure per-LUN decoding pass over a read-only [`EccEngine`] snapshot.
///
/// The pass indexes each plane's deterministic failure stream at
/// `engine counter + local counter`, so passes over *disjoint* planes
/// (each LUN owns its planes) draw the same decisions whichever order
/// they are committed in. Finish with
/// [`into_delta`](Self::into_delta) and fold the delta back via
/// [`EccEngine::apply`] before the next pass touches the same planes.
#[derive(Debug, Clone)]
pub struct EccLunPass<'a> {
    engine: &'a EccEngine,
    counts: PlaneCounts,
    hard_failures: u64,
}

impl EccLunPass<'_> {
    /// Simulates decoding one page read on `plane`. Returns the added ECC
    /// latency: hard decode always; plus a soft-decision invocation when
    /// the injected fault fires.
    ///
    /// # Panics
    /// Panics if the plane index is out of range for the engine's geometry.
    pub fn decode_page(&mut self, plane: PlaneId) -> Nanos {
        let base = self.engine.plane_decodes[plane as usize];
        let local = self.counts.slot(plane);
        let index = base + *local;
        *local += 1;
        if self.engine.fault_fires(plane, index) {
            self.hard_failures += 1;
            self.engine.config.t_hard_decode_ns + self.engine.config.t_soft_decode_ns
        } else {
            self.engine.config.t_hard_decode_ns
        }
    }

    /// Hard-decision failures this pass has injected so far.
    pub fn hard_failures(&self) -> u64 {
        self.hard_failures
    }

    /// Finishes the pass, yielding its mergeable delta.
    pub fn into_delta(self) -> EccDelta {
        EccDelta {
            plane_decodes: self.counts,
        }
    }
}

/// Deterministic fault injection: one failure-stream cursor per plane.
///
/// Fault injection is *counter-indexed*: whether the `n`-th decode of a
/// plane fails is a pure function of `(seed, plane, n)`, so a plane's
/// decisions do not depend on the order in which LUNs are processed, nor
/// on what other planes decoded before it.
#[derive(Debug, Clone)]
pub struct EccEngine {
    config: EccConfig,
    /// `⌈p · 2^53⌉` for the failure probability `p` in force: a decode
    /// fails when its hash's top 53 bits fall below it.
    fire_below: u64,
    /// Decodes committed per plane (the failure-stream cursor).
    plane_decodes: Vec<u64>,
}

impl EccEngine {
    /// Builds the engine with every plane's cursor at its first decode.
    pub fn new(geom: &FlashGeometry, config: EccConfig) -> Self {
        Self {
            config,
            fire_below: fire_below(config.hard_decision_failure_prob),
            plane_decodes: vec![0; geom.total_planes() as usize],
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &EccConfig {
        &self.config
    }

    /// Changes the injected hard-decision failure probability mid-run
    /// (clamped to `[0, 1]`) — the degradation trigger an ECC storm ramps.
    /// Determinism is preserved: fault injection is counter-indexed, so
    /// whether the `n`-th decode of a plane fails is still a pure function
    /// of `(seed, plane, n)` and the probability in force when that decode
    /// happens.
    pub fn set_hard_decision_failure_prob(&mut self, p: f64) {
        self.config.hard_decision_failure_prob = p.clamp(0.0, 1.0);
        self.fire_below = fire_below(self.config.hard_decision_failure_prob);
    }

    /// Whether the `index`-th decode on `plane` suffers a hard-decision
    /// failure — a pure hash of `(seed, plane, index)`: its top 53 bits `k`
    /// fire when `k · 2^-53 < p`, compared as `k < ⌈p · 2^53⌉`.
    fn fault_fires(&self, plane: PlaneId, index: u64) -> bool {
        let p = self.config.hard_decision_failure_prob;
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.draw(plane, index) < self.fire_below
    }

    /// The top 53 bits of the `(seed, plane, index)` hash.
    fn draw(&self, plane: PlaneId, index: u64) -> u64 {
        let mut mix = SplitMix64::new(
            self.config
                .seed
                .wrapping_add(u64::from(plane).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        mix.next_u64() >> 11
    }

    /// Decodes `pages` page reads on `plane` from its failure-stream
    /// cursor and commits them: the added ECC latency and the
    /// hard-decision failures among them. The same decisions an
    /// [`EccLunPass`] draws at that cursor.
    ///
    /// # Panics
    /// Panics if the plane index is out of range for the engine's geometry.
    #[inline]
    pub fn decode_pages(&mut self, plane: PlaneId, pages: u64) -> (Nanos, u64) {
        let cursor = self.plane_decodes[plane as usize];
        let failures = (cursor..cursor + pages)
            .map(|index| u64::from(self.fault_fires(plane, index)))
            .sum::<u64>();
        self.plane_decodes[plane as usize] = cursor + pages;
        let config = &self.config;
        (
            pages * config.t_hard_decode_ns + failures * config.t_soft_decode_ns,
            failures,
        )
    }

    /// Starts a pure decoding pass against the current counters (see
    /// [`EccLunPass`]).
    pub fn begin_lun_pass(&self) -> EccLunPass<'_> {
        EccLunPass {
            engine: self,
            counts: PlaneCounts::default(),
            hard_failures: 0,
        }
    }

    /// Commits a pass's delta, advancing the per-plane failure-stream
    /// cursors. Deltas over disjoint planes may be applied in any order
    /// and yield the same state.
    ///
    /// # Panics
    /// Panics if the delta names a plane outside the engine's geometry.
    pub fn apply(&mut self, delta: &EccDelta) {
        for &(plane, count) in delta.plane_decodes.as_slice() {
            self.plane_decodes[plane as usize] += count;
        }
    }
}

/// `⌈p · 2^53⌉`: scaling by a power of two is exact, and for an integer
/// `k`, `k · 2^-53 < p` exactly when `k < ⌈p · 2^53⌉`.
fn fire_below(p: f64) -> u64 {
    ceil_ns(p * (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;

    #[test]
    fn plane_bers_center_on_mean() {
        let geom = FlashGeometry::searssd_default();
        let bers = plane_raw_bers(&geom, EccConfig::default().seed);
        assert_eq!(bers.len(), 512);
        let log_mean = bers.iter().map(|b| b.ln()).sum::<f64>() / bers.len() as f64;
        let target = 1e-6f64.ln();
        assert!((log_mean - target).abs() < 0.15, "log mean {log_mean}");
        // There is spread (the Fig. 18a histogram is not a spike).
        let min = bers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = bers.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 3.0, "min {min}, max {max}");
    }

    #[test]
    fn fig18a_histogram_is_pinned() {
        // The seven Fig. 18(a) buckets of the default seed over SearSSD's
        // 512 planes, as `paper_figs fig18` prints them.
        let bers = plane_raw_bers(&FlashGeometry::searssd_default(), EccConfig::default().seed);
        let edges = [2.5e-7, 5e-7, 1e-6, 2e-6, 4e-6, 8e-6];
        let mut buckets = [0u32; 7];
        for ber in bers {
            buckets[edges.iter().take_while(|&&e| ber >= e).count()] += 1;
        }
        assert_eq!(buckets, [4, 67, 198, 184, 57, 2, 0]);
    }

    #[test]
    fn failure_injection_tracks_probability() {
        let geom = FlashGeometry::tiny();
        let mut cfg = EccConfig {
            hard_decision_failure_prob: 0.30,
            ..EccConfig::default()
        };
        cfg.seed = 7;
        let engine = EccEngine::new(&geom, cfg);
        let mut pass = engine.begin_lun_pass();
        for i in 0..20_000u32 {
            pass.decode_page(i % geom.total_planes());
        }
        let p = pass.hard_failures() as f64 / 20_000.0;
        assert!((p - 0.30).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn soft_decode_costs_more() {
        let geom = FlashGeometry::tiny();
        // Force failures.
        let cfg = EccConfig {
            hard_decision_failure_prob: 1.0,
            ..EccConfig::default()
        };
        let always = EccEngine::new(&geom, cfg);
        let cfg0 = EccConfig {
            hard_decision_failure_prob: 0.0,
            ..EccConfig::default()
        };
        let never = EccEngine::new(&geom, cfg0);
        assert!(
            always.begin_lun_pass().decode_page(0) > never.begin_lun_pass().decode_page(0) + 5_000
        );
    }

    #[test]
    fn determinism_per_seed() {
        let geom = FlashGeometry::tiny();
        let mk = || {
            let mut e = EccEngine::new(&geom, EccConfig::default());
            let mut out = Vec::new();
            for _ in 0..100 {
                let mut pass = e.begin_lun_pass();
                out.push(pass.decode_page(0));
                e.apply(&pass.into_delta());
            }
            out
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn split_passes_match_one_pass() {
        // Decoding a plane N times in one pass, or spread over several
        // applied passes, walks the same counter-indexed failure stream.
        let geom = FlashGeometry::tiny();
        let cfg = EccConfig {
            hard_decision_failure_prob: 0.4,
            ..EccConfig::default()
        };
        let one = {
            let mut e = EccEngine::new(&geom, cfg);
            let mut pass = e.begin_lun_pass();
            let lat: Vec<Nanos> = (0..64).map(|_| pass.decode_page(3)).collect();
            let failures = pass.hard_failures();
            e.apply(&pass.into_delta());
            (lat, failures)
        };
        let split = {
            let mut e = EccEngine::new(&geom, cfg);
            let (mut lat, mut failures) = (Vec::new(), 0);
            for chunk in [16usize, 1, 40, 7] {
                let mut pass = e.begin_lun_pass();
                for _ in 0..chunk {
                    lat.push(pass.decode_page(3));
                }
                failures += pass.hard_failures();
                e.apply(&pass.into_delta());
            }
            (lat, failures)
        };
        assert_eq!(one, split);
    }

    #[test]
    fn disjoint_plane_deltas_merge_in_any_order() {
        // Two passes over disjoint planes taken from the same snapshot —
        // the data-parallel round shape — commit to the same cursors
        // whichever delta is applied first: the next pass over all three
        // planes draws the same decisions.
        let geom = FlashGeometry::tiny();
        let cfg = EccConfig {
            hard_decision_failure_prob: 0.5,
            ..EccConfig::default()
        };
        let run = |order_ab: bool| {
            let mut e = EccEngine::new(&geom, cfg);
            let (da, db) = {
                let mut a = e.begin_lun_pass();
                let mut b = e.begin_lun_pass();
                for _ in 0..10 {
                    a.decode_page(0);
                    a.decode_page(1);
                    b.decode_page(2);
                }
                (a.into_delta(), b.into_delta())
            };
            if order_ab {
                e.apply(&da);
                e.apply(&db);
            } else {
                e.apply(&db);
                e.apply(&da);
            }
            let mut next = e.begin_lun_pass();
            let lat: Vec<Nanos> = (0..60).map(|i| next.decode_page(i % 3)).collect();
            (lat, next.hard_failures())
        };
        let (lat, failures) = run(true);
        assert_eq!((lat.clone(), failures), run(false));
        // Both orders moved the cursors: the next pass does not replay the
        // first pass's draws from the start of the streams.
        let fresh_engine = EccEngine::new(&geom, cfg);
        let mut fresh = fresh_engine.begin_lun_pass();
        let replay: Vec<Nanos> = (0..60).map(|i| fresh.decode_page(i % 3)).collect();
        assert_ne!(lat, replay);
    }

    #[test]
    fn plane_counts_match_a_map_inline_and_spilled() {
        // The inline/spilled counter table against the `BTreeMap` it
        // replaced: random plane sequences over 2 planes (inline), 4
        // (inline, full) and 16 (spilled), checked through the delta the
        // engine commits and through the failure stream each decode draws.
        let geom = FlashGeometry::tiny();
        let cfg = EccConfig {
            hard_decision_failure_prob: 0.3,
            ..EccConfig::default()
        };
        let mut rng = Pcg32::seed_from_u64(11);
        for span in [2u32, 4, 16] {
            let mut engine = EccEngine::new(&geom, cfg);
            for _ in 0..8 {
                let mut pass = engine.begin_lun_pass();
                let mut model = std::collections::BTreeMap::<PlaneId, u64>::new();
                let mut failures = 0u64;
                for _ in 0..rng.next_u32() % 40 {
                    let plane = geom.total_planes() - 1 - rng.next_u32() % span;
                    let local = model.entry(plane).or_insert(0);
                    let index = engine.plane_decodes[plane as usize] + *local;
                    *local += 1;
                    let fired = engine.fault_fires(plane, index);
                    failures += u64::from(fired);
                    let want = cfg.t_hard_decode_ns + u64::from(fired) * cfg.t_soft_decode_ns;
                    assert_eq!(pass.decode_page(plane), want);
                }
                assert_eq!(pass.hard_failures(), failures);
                let delta = pass.into_delta();
                let want: Vec<(PlaneId, u64)> = model.into_iter().collect();
                assert_eq!(delta.plane_decodes.as_slice(), want.as_slice());
                engine.apply(&delta);
            }
        }
    }

    #[test]
    fn integer_fault_rule_equals_the_float_rule() {
        // The rule as it was written: the draw scaled into [0, 1) and
        // compared with p in floating point. At random p, at p = k·2^-53
        // exactly and its two neighbours, at a subnormal p and at 0.9, the
        // integer threshold must decide every draw near it, and random
        // draws, as the float rule does — directly and through an engine's
        // decodes.
        use proptest::prelude::*;
        let float_rule = |k: u64, p: f64| (k as f64 * (1.0 / (1u64 << 53) as f64)) < p;
        let top = 1u64 << 53;
        let geom = FlashGeometry::tiny();
        proptest::test_runner::run(
            proptest::test_runner::Config { cases: 256 },
            "integer_fault_rule_equals_the_float_rule",
            |rng| {
                let k0 = (1u64..top - 1).generate(rng);
                let exact = k0 as f64 / top as f64;
                let subnormal = f64::from_bits((1u64..1 << 52).generate(rng));
                let ps = [
                    (0.0f64..1.0).generate(rng),
                    exact,
                    f64::from_bits(exact.to_bits() - 1),
                    f64::from_bits(exact.to_bits() + 1),
                    subnormal,
                    0.9,
                ];
                for p in ps {
                    let below = fire_below(p);
                    let near = [k0 - 1, k0, k0 + 1, below.saturating_sub(1), below];
                    let random = (0..8).map(|_| (0..top).generate(rng));
                    for k in near.into_iter().filter(|&k| k < top).chain(random) {
                        prop_assert_eq!(k < below, float_rule(k, p), "k {}, p {:e}", k, p);
                    }
                    let cfg = EccConfig {
                        hard_decision_failure_prob: p,
                        seed: any::<u64>().generate(rng),
                        ..EccConfig::default()
                    };
                    let engine = EccEngine::new(&geom, cfg);
                    for _ in 0..16 {
                        let plane = (0..geom.total_planes()).generate(rng);
                        let index = any::<u64>().generate(rng);
                        let want = float_rule(engine.draw(plane, index), p);
                        prop_assert_eq!(engine.fault_fires(plane, index), want);
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn committed_decodes_equal_a_pass_and_its_delta() {
        // `decode_pages` against `begin_lun_pass` + `decode_page` +
        // `apply`: the same latency, failures and cursors, run after run.
        let geom = FlashGeometry::tiny();
        let cfg = EccConfig {
            hard_decision_failure_prob: 0.3,
            ..EccConfig::default()
        };
        let (mut committed, mut passed) = (EccEngine::new(&geom, cfg), EccEngine::new(&geom, cfg));
        let mut rng = Pcg32::seed_from_u64(3);
        for _ in 0..64 {
            let (plane, pages) = (rng.next_u32() % 4, u64::from(rng.next_u32() % 9));
            let mut pass = passed.begin_lun_pass();
            let ns: Nanos = (0..pages).map(|_| pass.decode_page(plane)).sum();
            let failures = pass.hard_failures();
            passed.apply(&pass.into_delta());
            assert_eq!(committed.decode_pages(plane, pages), (ns, failures));
        }
        assert_eq!(committed.plane_decodes, passed.plane_decodes);
    }

    #[test]
    fn sweep_matches_paper_points() {
        assert_eq!(EccConfig::failure_sweep(), [0.30, 0.10, 0.05, 0.01]);
    }

    #[test]
    fn mid_run_failure_ramp_is_deterministic_and_bites() {
        // Raising the failure probability mid-run (an ECC storm) must (a)
        // replay bit-identically — the counter-indexed streams don't care
        // when the probability changed — and (b) actually raise the
        // observed failure ratio from that point on.
        let geom = FlashGeometry::tiny();
        let run = || {
            let mut e = EccEngine::new(
                &geom,
                EccConfig {
                    hard_decision_failure_prob: 0.01,
                    ..EccConfig::default()
                },
            );
            let mut latencies = Vec::new();
            let mut failures = [0; 2];
            for (phase, failed) in failures.iter_mut().enumerate() {
                if phase == 1 {
                    e.set_hard_decision_failure_prob(0.9);
                }
                let mut pass = e.begin_lun_pass();
                for i in 0..2_000u32 {
                    latencies.push(pass.decode_page(i % geom.total_planes()));
                }
                *failed = pass.hard_failures();
                e.apply(&pass.into_delta());
            }
            (latencies, failures)
        };
        let (lat_a, [before, storm_failures]) = run();
        let (lat_b, _) = run();
        assert_eq!(lat_a, lat_b, "storm replay diverged");
        assert!(
            storm_failures > 10 * before.max(1),
            "storm did not bite: {before} failures before, {storm_failures} during"
        );
    }

    #[test]
    fn failure_prob_setter_clamps() {
        let geom = FlashGeometry::tiny();
        let mut e = EccEngine::new(&geom, EccConfig::default());
        e.set_hard_decision_failure_prob(7.0);
        assert_eq!(e.config().hard_decision_failure_prob, 1.0);
        e.set_hard_decision_failure_prob(-3.0);
        assert_eq!(e.config().hard_decision_failure_prob, 0.0);
    }
}
