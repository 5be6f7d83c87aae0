//! Distance kernels.
//!
//! The `<SearchPage>` instruction carries a 2-bit "Distance" field
//! (Fig. 9b) whose encodings select Euclidean, angular or inner-product
//! distance. This model computes the Euclidean encoding only: squared L2.
//! The SiN cost model charges the same `dim` MACs per vector whichever
//! encoding the field holds, so no simulated number depends on it, and
//! every graph here is built with DiskANN's Euclidean Vamana/RobustPrune
//! recipe. [`DistanceKind`] is the software mirror of that field.
//!
//! # Kernel tiers
//!
//! Three implementations of the reduction coexist:
//!
//! - **scalar** ([`l2_squared_scalar`]): the original single-accumulator
//!   loop. Kept as the reference semantics for equivalence proptests and
//!   as the benchmark baseline.
//! - **unrolled** ([`l2_squared_unrolled`]): a portable 8-lane kernel with
//!   four independent accumulator groups (32 floats per iteration). The
//!   layout breaks the sequential float dependency chain so stable rustc
//!   auto-vectorizes it; no `unsafe`, no target features.
//! - **avx2** (`x86_64` only): explicit AVX2/FMA intrinsics behind
//!   `is_x86_feature_detected!`, same four-accumulator shape with
//!   `_mm256_fmadd_ps`.
//!
//! The unrolled and the avx2 tier are each *one* reduction (a private
//! `reduce_unrolled` / `x86::reduce`) instantiated per operand: a plain
//! f32 row, or an [`AffineRow`] — an int8 code decoded lane by lane as it
//! is loaded. Scoring a code therefore shares every accumulator and every
//! rounding with scoring a plain row and returns the bits of
//! decode-then-score without the decoded row ever existing.
//!
//! The public entry points ([`l2_squared`], [`DistanceKind::eval`], the
//! batched variants) dispatch **once per process**: the first call probes
//! the CPU and the `NDSEARCH_NO_SIMD` environment variable and caches the
//! decision, so every thread in a run uses the *same* kernel. That is what
//! keeps reports bit-identical across `exec_threads` settings — thread
//! count never changes which kernel scores a vector, only where it runs.
//! Setting `NDSEARCH_NO_SIMD=1` pins the portable unrolled kernel, which is
//! deterministic across x86-64 hosts (no FMA contraction); results differ
//! from the AVX2 path only by summation-order ulps, never structurally.
//!
//! # Length contract
//!
//! The batch entry points ([`DistanceKind::eval_batch_ids`],
//! [`DistanceKind::eval_batch_affine`]) and [`DistanceKind::eval`] validate
//! slice lengths. The raw kernels below them only `debug_assert!` equal
//! lengths: in release builds a mismatch yields an unspecified (but
//! memory-safe) value computed over the common prefix — they never read
//! out of bounds.

use crate::dataset::Dataset;
use crate::VectorId;
use std::sync::OnceLock;

/// The distance a MAC group computes: the Euclidean encoding of the
/// `<SearchPage>` Distance field, the only one modelled.
///
/// It stays a parameter type of the search and scoring entry points
/// (`SearchParams::distance`, `beam_search`, `ScoreSource::score_batch`,
/// `ground_truth`) because the frozen benchmark harness names it there; a
/// change that revises the harness can drop those parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceKind {
    /// Squared Euclidean distance (monotone in L2; the sqrt is never needed
    /// for ranking so hardware skips it).
    #[default]
    L2,
}

impl DistanceKind {
    /// Evaluates the distance between two equal-length vectors.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn eval(self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        l2_squared(a, b)
    }

    /// Convenience: distance between two dataset vectors.
    ///
    /// # Panics
    /// Panics if either id is out of bounds.
    pub fn eval_ids(self, ds: &Dataset, a: VectorId, b: VectorId) -> f32 {
        self.eval(ds.vector(a), ds.vector(b))
    }

    /// Batched scoring of dataset rows: clears `out` and appends the
    /// distance from `query` to `ds.vector(id)` for each id, in order.
    ///
    /// This is the beam-expansion hot path: a vertex's whole neighbor list
    /// is scored in one call, with the dimension check done once instead of
    /// per edge. Results match per-pair [`DistanceKind::eval`] bit-for-bit:
    /// the batch runs the same dispatched per-pair kernel.
    ///
    /// # Panics
    /// Panics if `query.len() != ds.dim()` or any id is out of bounds.
    pub fn eval_batch_ids(self, query: &[f32], ds: &Dataset, ids: &[VectorId], out: &mut Vec<f32>) {
        assert_eq!(query.len(), ds.dim(), "dimension mismatch");
        out.clear();
        out.extend(ids.iter().map(|&id| l2_squared(query, ds.vector(id))));
    }

    /// [`eval_batch_ids`](Self::eval_batch_ids) against rows held as affine
    /// int8 codes: clears `out` and appends the distance from `query` to
    /// each row, in order, decoding in registers. Every distance has the
    /// bits of [`DistanceKind::eval`] against the decoded row.
    ///
    /// # Panics
    /// Panics if a row's length differs from `query.len()`.
    pub fn eval_batch_affine<'a>(
        self,
        query: &[f32],
        rows: impl ExactSizeIterator<Item = AffineRow<'a>>,
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.reserve(rows.len());
        for row in rows {
            assert_eq!(row.len(), query.len(), "dimension mismatch");
            out.push(l2_squared_affine(query, row));
        }
    }
}

/// Whether the AVX2/FMA kernels are in force for this process.
///
/// Decided once on first use and cached: true iff the CPU reports AVX2+FMA
/// and `NDSEARCH_NO_SIMD` is unset/empty/`0` under the workspace-wide
/// [`crate::env::env_flag`] rule (trimmed, `"0"` means unset). Exposed so
/// a host-time measurement can record which kernel produced it.
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if crate::env::env_flag("NDSEARCH_NO_SIMD") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Squared Euclidean distance (dispatched kernel).
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: simd_enabled() verified avx2+fma via is_x86_feature_detected!.
        return unsafe { x86::reduce(a, b) };
    }
    l2_squared_unrolled(a, b)
}

/// Reference scalar squared-L2: the original single-accumulator loop.
///
/// Kept as the semantic baseline for the equivalence proptests; hot
/// paths use [`l2_squared`].
#[inline]
pub fn l2_squared_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// A row held as per-dimension affine int8 codes (`quant::Int8Quantizer`):
/// lane `i` decodes to `min[i] + scale[i] * code[i]` — a multiply, then an
/// add, each rounded, exactly what `Int8Quantizer::decode_into` stores.
/// Scoring one decodes in registers and feeds the lanes into the *same*
/// reduction as a plain row, so it returns the bits decode-then-score
/// would, without the decoded row ever existing.
#[derive(Debug, Clone, Copy)]
pub struct AffineRow<'a> {
    min: &'a [f32],
    scale: &'a [f32],
    code: &'a [u8],
}

impl<'a> AffineRow<'a> {
    /// A code under its quantizer's per-dimension `min` and `scale`.
    ///
    /// # Panics
    /// Panics if the three slices differ in length.
    pub fn new(min: &'a [f32], scale: &'a [f32], code: &'a [u8]) -> Self {
        assert!(
            min.len() == code.len() && scale.len() == code.len(),
            "dimension mismatch"
        );
        Self { min, scale, code }
    }
}

/// What a reduction reads an operand through: a plain row, or a code
/// decoded on the fly.
trait Lanes: Copy {
    fn len(self) -> usize;
    fn lane(self, i: usize) -> f32;
    /// Lanes `i..i + 8`.
    fn lanes(self, i: usize) -> [f32; 8];
}

impl Lanes for &[f32] {
    #[inline]
    fn len(self) -> usize {
        <[f32]>::len(self)
    }

    #[inline]
    fn lane(self, i: usize) -> f32 {
        self[i]
    }

    #[inline]
    fn lanes(self, i: usize) -> [f32; 8] {
        self[i..i + 8].try_into().expect("eight lanes")
    }
}

impl Lanes for AffineRow<'_> {
    #[inline]
    fn len(self) -> usize {
        self.code.len()
    }

    #[inline]
    fn lane(self, i: usize) -> f32 {
        self.min[i] + self.scale[i] * f32::from(self.code[i])
    }

    #[inline]
    fn lanes(self, i: usize) -> [f32; 8] {
        let (min, scale, code) = (
            &self.min[i..i + 8],
            &self.scale[i..i + 8],
            &self.code[i..i + 8],
        );
        std::array::from_fn(|l| min[l] + scale[l] * f32::from(code[l]))
    }
}

/// One MAC of squared-L2: `(x - y)²`, to be added to an accumulator.
#[inline]
fn squared_difference(x: f32, y: f32) -> f32 {
    let d = x - y;
    d * d
}

/// Folds the four 8-lane accumulator groups down to one f32 with a fixed
/// pairwise tree, so the reduction order is identical on every host.
#[inline]
fn reduce_groups(g0: [f32; 8], g1: [f32; 8], g2: [f32; 8], g3: [f32; 8]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for l in 0..8 {
        lanes[l] = (g0[l] + g1[l]) + (g2[l] + g3[l]);
    }
    let lo = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    let hi = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
    lo + hi
}

/// The portable squared-L2 reduction, against a plain row or a code: the
/// sum of `(a[i] - b[i])²` over the common prefix, 8 lanes × 4 independent
/// accumulator groups; no `unsafe`, no target features, no fused
/// multiply-add.
#[inline]
fn reduce_unrolled<B: Lanes>(a: &[f32], b: B) -> f32 {
    let n = a.len().min(b.len());
    let mut groups = [[0.0f32; 8]; 4];
    let mut i = 0;
    while i + 32 <= n {
        for (k, group) in groups.iter_mut().enumerate() {
            let (x, y) = (a.lanes(i + 8 * k), b.lanes(i + 8 * k));
            for l in 0..8 {
                group[l] += squared_difference(x[l], y[l]);
            }
        }
        i += 32;
    }
    while i + 8 <= n {
        let (x, y) = (a.lanes(i), b.lanes(i));
        for l in 0..8 {
            groups[0][l] += squared_difference(x[l], y[l]);
        }
        i += 8;
    }
    let mut tail = 0.0f32;
    while i < n {
        tail += squared_difference(a.lane(i), b.lane(i));
        i += 1;
    }
    let [g0, g1, g2, g3] = groups;
    reduce_groups(g0, g1, g2, g3) + tail
}

/// Portable unrolled squared-L2: 8 lanes × 4 independent accumulator
/// groups (32 floats per iteration), auto-vectorizable on stable Rust.
///
/// Length contract: `debug_assert!`s equal lengths; in release a mismatch
/// is memory-safe but computes over the common prefix only.
#[inline]
pub fn l2_squared_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    reduce_unrolled(a, b)
}

/// Squared Euclidean distance to a row held as codes (dispatched kernel):
/// the bits of [`l2_squared`] against the decoded row.
#[inline]
fn l2_squared_affine(a: &[f32], b: AffineRow<'_>) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: simd_enabled() verified avx2+fma via is_x86_feature_detected!.
        return unsafe { x86::reduce(a, b) };
    }
    reduce_unrolled(a, b)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2/FMA kernel, same 8-lane × 4-group shape as the portable
    //! unrolled reduction but with fused multiply-add (one rounding per MAC
    //! instead of two — this is the source of the ulp-level difference vs
    //! the portable path).
    #![deny(unsafe_op_in_unsafe_fn)]

    use super::{squared_difference, AffineRow, Lanes};
    use std::arch::x86_64::*;

    /// An operand the AVX2 reduction can load eight lanes of.
    pub trait Load8: Lanes {
        /// Lanes `i..i + 8`.
        ///
        /// # Safety
        /// The CPU must support AVX2 and `i + 8 <= self.len()`.
        unsafe fn load8(self, i: usize) -> __m256;
    }

    impl Load8 for &[f32] {
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load8(self, i: usize) -> __m256 {
            // SAFETY: the caller keeps `i + 8` within the slice.
            unsafe { _mm256_loadu_ps(self.as_ptr().add(i)) }
        }
    }

    impl Load8 for AffineRow<'_> {
        /// `min + scale * code` as a separate multiply and add, the two
        /// roundings of the scalar decode.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load8(self, i: usize) -> __m256 {
            // SAFETY: `new` made the three slices equally long and the
            // caller keeps `i + 8` within them; the 8-byte load reads
            // exactly codes `i..i + 8`.
            unsafe {
                let bytes = _mm_loadl_epi64(self.code.as_ptr().add(i).cast());
                let code = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
                let scaled = _mm256_mul_ps(_mm256_loadu_ps(self.scale.as_ptr().add(i)), code);
                _mm256_add_ps(_mm256_loadu_ps(self.min.as_ptr().add(i)), scaled)
            }
        }
    }

    /// Horizontal sum of four 8-lane accumulators (fixed tree order).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn reduce4(a0: __m256, a1: __m256, a2: __m256, a3: __m256) -> f32 {
        let s = _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
        let lo = _mm256_castps256_ps128(s);
        let hi = _mm256_extractf128_ps(s, 1);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let r = _mm_add_ss(d, _mm_shuffle_ps(d, d, 1));
        _mm_cvtss_f32(r)
    }

    /// The squared-L2 reduction, against a plain row or a code: `(x - y)²`
    /// fused into an accumulator eight lanes at a time (four accumulators
    /// over 32-lane blocks, the first alone over the 8-lane remainder),
    /// then the scalar tail added onto the reduced sum.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA (checked by `simd_enabled`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn reduce<B: Load8>(a: &[f32], b: B) -> f32 {
        let mac8 = |acc, x, y| {
            let d = _mm256_sub_ps(x, y);
            _mm256_fmadd_ps(d, d, acc)
        };
        let n = a.len().min(b.len());
        let mut acc = [_mm256_setzero_ps(); 4];
        let mut i = 0usize;
        // SAFETY: every load is of lanes `j..j + 8` with `j + 8 <= n`, and
        // `n` is within both operands.
        unsafe {
            while i + 32 <= n {
                for (k, acc) in acc.iter_mut().enumerate() {
                    let j = i + 8 * k;
                    *acc = mac8(*acc, a.load8(j), b.load8(j));
                }
                i += 32;
            }
            while i + 8 <= n {
                acc[0] = mac8(acc[0], a.load8(i), b.load8(i));
                i += 8;
            }
        }
        let mut sum = reduce4(acc[0], acc[1], acc[2], acc[3]);
        while i < n {
            sum += squared_difference(a.lane(i), b.lane(i));
            i += 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_matches_hand_math() {
        assert_eq!(l2_squared(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(DistanceKind::L2.eval(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn eval_ids_reads_dataset() {
        let ds = Dataset::from_rows(2, vec![vec![0.0, 0.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(DistanceKind::L2.eval_ids(&ds, 0, 1), 25.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn eval_rejects_mismatched_dims() {
        DistanceKind::L2.eval(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn eval_batch_rejects_mismatched_points() {
        let (min, scale, code) = ([0.0f32], [1.0f32], [1u8]);
        let row = AffineRow::new(&min, &scale, &code);
        DistanceKind::L2.eval_batch_affine(&[1.0, 2.0], [row].into_iter(), &mut Vec::new());
    }

    fn sample(dim: usize, seed: u32) -> Vec<f32> {
        // Deterministic LCG; values in [-1, 1).
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..dim)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn ulp_diff(a: f32, b: f32) -> u32 {
        if a == b {
            return 0;
        }
        let ia = a.to_bits() as i64;
        let ib = b.to_bits() as i64;
        // Map to a monotone integer line (works for same-sign finite floats).
        let ma = if ia < 0 { i32::MIN as i64 - ia } else { ia };
        let mb = if ib < 0 { i32::MIN as i64 - ib } else { ib };
        (ma - mb).unsigned_abs().min(u32::MAX as u64) as u32
    }

    #[test]
    fn kernel_tiers_agree_within_ulps() {
        for dim in [1usize, 7, 8, 31, 32, 33, 64, 127, 128, 257] {
            let a = sample(dim, 1 + dim as u32);
            let b = sample(dim, 1000 + dim as u32);
            assert!(
                ulp_diff(l2_squared_scalar(&a, &b), l2_squared_unrolled(&a, &b)) <= 16,
                "l2 dim {dim}"
            );
            assert!(
                ulp_diff(l2_squared_scalar(&a, &b), l2_squared(&a, &b)) <= 16,
                "l2 dispatch dim {dim}"
            );
        }
    }

    #[test]
    fn affine_kernels_match_the_plain_kernels_on_the_decoded_row_bitwise() {
        // Both tiers, whichever one this process dispatches to.
        for dim in [1usize, 7, 8, 9, 31, 32, 33, 40, 64, 96, 128, 257] {
            let (q, min, scale) = (sample(dim, 3), sample(dim, 4), sample(dim, 5));
            let code: Vec<u8> = (sample(dim, 6).iter())
                .map(|x| ((x + 1.0) * 127.5) as u8)
                .collect();
            let row = AffineRow::new(&min, &scale, &code);
            let decoded: Vec<f32> = (0..dim).map(|i| row.lane(i)).collect();
            let same = |got: f32, want: f32, what: &str| {
                assert_eq!(got.to_bits(), want.to_bits(), "{what}, dim {dim}");
            };
            same(
                reduce_unrolled(&q, row),
                l2_squared_unrolled(&q, &decoded),
                "unrolled",
            );
            same(
                l2_squared_affine(&q, row),
                l2_squared(&q, &decoded),
                "dispatched",
            );
            let mut out = Vec::new();
            DistanceKind::L2.eval_batch_affine(&q, [row, row].into_iter(), &mut out);
            assert_eq!(out.len(), 2);
            same(
                out[1],
                DistanceKind::L2.eval(&q, &decoded),
                "eval_batch_affine",
            );
        }
    }

    #[test]
    fn eval_batch_ids_matches_eval_bitwise() {
        let dim = 33;
        let rows: Vec<Vec<f32>> = (0..10).map(|i| sample(dim, 500 + i)).collect();
        let ds = Dataset::from_rows(dim, rows).unwrap();
        let q = sample(dim, 77);
        let ids: Vec<VectorId> = vec![3, 0, 9, 3, 5];
        let mut out = Vec::new();
        DistanceKind::L2.eval_batch_ids(&q, &ds, &ids, &mut out);
        assert_eq!(out.len(), ids.len());
        for (&id, got) in ids.iter().zip(&out) {
            assert_eq!(
                got.to_bits(),
                DistanceKind::L2.eval(&q, ds.vector(id)).to_bits()
            );
        }
    }
}
