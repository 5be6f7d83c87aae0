//! Compressed-vector codes scored in DRAM during traversal.
//!
//! The DiskANN recipe (Subramanya et al., NeurIPS'19): graph traversal
//! scores *compressed* codes held in SSD-internal DRAM, and only the
//! final candidates pay a flash read for exact full-precision distances.
//! This module supplies the two code families and the trained code table
//! the deployment tier keeps alongside the dataset:
//!
//! - [`Int8Quantizer`] — per-dimension min/max affine scalar
//!   quantization, 1 byte per dimension (4x smaller than f32 rows).
//! - [`PqQuantizer`] — product quantization, `m` subspaces with
//!   `2^bits`-entry codebooks trained by seeded k-means, 1 byte per
//!   subspace (up to `dim`x smaller).
//!
//! Both score a code as the f32 reconstruction it decodes to, through the
//! *same* dispatched distance kernels as full-precision rows, so quantized
//! traversal is bit-identical across thread counts, shard step orders
//! and regeneration for free. Int8 codes never materialize that
//! reconstruction: the kernels decode them lane by lane in registers
//! ([`crate::distance::AffineRow`]) and return the bits decode-then-score
//! would, at about the cost of scoring a full-precision row. The
//! [`ScoreSource`] trait is the seam the beam searcher is generic over:
//! `Dataset` implements it with the existing batched hot path,
//! [`QuantCodes`] implements it with decode-and-score, and traversal code
//! cannot tell them apart.

use crate::dataset::{Dataset, VectorId};
use crate::distance::{AffineRow, DistanceKind};
use crate::rng::Pcg32;

/// Cap on rows examined while training a quantizer. Datasets at or below
/// the cap are scanned in full (making the int8 reconstruction bound
/// global); larger ones train on a seeded uniform sample.
const TRAIN_SAMPLE_CAP: usize = 65_536;

/// K-means refinement passes for PQ codebooks.
const PQ_KMEANS_ITERS: usize = 8;

/// Which compressed-code family traversal scores in DRAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QuantSpec {
    /// No code table: traversal reads full-precision rows from flash.
    #[default]
    None,
    /// Per-dimension min/max affine int8 codes (1 byte per dimension).
    Int8,
    /// Product quantization: `m` subspaces x `bits`-bit codebooks
    /// (1 byte per subspace).
    Pq {
        /// Number of subspaces the dimensions are split into.
        m: usize,
        /// Codebook index width; `2^bits` centroids per subspace (1..=8).
        bits: u8,
    },
}

impl QuantSpec {
    /// Whether a code table exists under this spec.
    pub fn enabled(&self) -> bool {
        !matches!(self, QuantSpec::None)
    }

    /// Bytes of one vector's code under this spec (0 for `None`).
    pub fn code_bytes(&self, dim: usize) -> usize {
        match *self {
            QuantSpec::None => 0,
            QuantSpec::Int8 => dim,
            QuantSpec::Pq { m, .. } => m.min(dim),
        }
    }
}

/// Anything the beam searcher can score candidates against: the
/// full-precision [`Dataset`] (batched distance kernels) or a
/// [`QuantCodes`] table (decode-and-score from DRAM-resident codes).
pub trait ScoreSource {
    /// Number of scorable rows.
    fn len(&self) -> usize;

    /// Whether no rows are scorable.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `eval_batch_ids`-shaped scoring: clears `out` and pushes one
    /// distance per id, in id order.
    fn score_batch(
        &self,
        distance: DistanceKind,
        query: &[f32],
        ids: &[VectorId],
        out: &mut Vec<f32>,
    );
}

impl ScoreSource for Dataset {
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    fn score_batch(
        &self,
        distance: DistanceKind,
        query: &[f32],
        ids: &[VectorId],
        out: &mut Vec<f32>,
    ) {
        distance.eval_batch_ids(query, self, ids, out);
    }
}

/// Per-dimension min/max affine int8 quantizer.
///
/// Codes are `q = round((x - min_d) / scale_d)` clamped to `0..=255`
/// with `scale_d = (max_d - min_d) / 255`; decoding returns
/// `min_d + scale_d * q`. For values inside the trained `[min, max]`
/// range the reconstruction error is at most `scale_d / 2` per
/// dimension (plus f32 rounding); out-of-range values clamp.
#[derive(Debug, Clone, PartialEq)]
pub struct Int8Quantizer {
    min: Vec<f32>,
    scale: Vec<f32>,
}

impl Int8Quantizer {
    /// Trains per-dimension ranges from `dataset` — a full scan when the
    /// dataset is at most `TRAIN_SAMPLE_CAP` (65 536) rows, a seeded
    /// uniform sample otherwise. Training is a pure function of
    /// `(dataset, seed)`.
    pub fn train(dataset: &Dataset, seed: u64) -> Self {
        let dim = dataset.dim();
        let mut min = vec![f32::INFINITY; dim];
        let mut max = vec![f32::NEG_INFINITY; dim];
        for id in train_rows(dataset.len(), seed) {
            for (d, &x) in dataset.vector(id).iter().enumerate() {
                min[d] = min[d].min(x);
                max[d] = max[d].max(x);
            }
        }
        let scale: Vec<f32> = min
            .iter()
            .zip(&max)
            .map(|(&lo, &hi)| if hi > lo { (hi - lo) / 255.0 } else { 0.0 })
            .collect();
        for lo in &mut min {
            if !lo.is_finite() {
                *lo = 0.0; // empty training set: every code decodes to 0
            }
        }
        Self { min, scale }
    }

    /// Dimensionality the quantizer was trained for.
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Per-dimension quantization step; the reconstruction error bound is
    /// half of this per dimension for in-range values.
    pub fn scale(&self) -> &[f32] {
        &self.scale
    }

    /// Appends the code of `row` (one byte per dimension) to `out`.
    pub fn encode_into(&self, row: &[f32], out: &mut Vec<u8>) {
        assert_eq!(row.len(), self.dim(), "row dim mismatch");
        for (d, &x) in row.iter().enumerate() {
            let q = if self.scale[d] > 0.0 {
                ((x - self.min[d]) / self.scale[d])
                    .round()
                    .clamp(0.0, 255.0) as u8
            } else {
                0
            };
            out.push(q);
        }
    }

    /// Decodes `code` into `out` (len `dim`).
    pub fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        for (d, &q) in code.iter().enumerate() {
            out[d] = self.min[d] + self.scale[d] * f32::from(q);
        }
    }

    /// `code` as the row the fused decode-and-score kernels read: what
    /// [`decode_into`](Self::decode_into) would write, never materialized.
    pub fn row<'a>(&'a self, code: &'a [u8]) -> AffineRow<'a> {
        AffineRow::new(&self.min, &self.scale, code)
    }
}

/// Product quantizer: `m` subspaces, each with a `2^bits`-entry codebook
/// trained by seeded k-means (stable init, lowest-index tie-breaking), so
/// training and encoding are pure functions of `(dataset, spec, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PqQuantizer {
    dim: usize,
    /// Subspace boundaries: subspace `s` covers dims `bounds[s]..bounds[s+1]`.
    bounds: Vec<usize>,
    /// Per-subspace codebooks, each flat `k * sub_dim`.
    centroids: Vec<Vec<f32>>,
    k: usize,
}

impl PqQuantizer {
    /// Trains `m` codebooks of `2^bits` centroids each.
    ///
    /// # Panics
    /// Panics if `m == 0`, `m > dim`, or `bits` is outside `1..=8`.
    pub fn train(dataset: &Dataset, m: usize, bits: u8, seed: u64) -> Self {
        let dim = dataset.dim();
        assert!(m >= 1 && m <= dim, "m must be in 1..=dim");
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        let k = 1usize << bits;
        let bounds: Vec<usize> = (0..=m).map(|s| s * dim / m).collect();
        let rows = train_rows(dataset.len(), seed);
        let mut centroids = Vec::with_capacity(m);
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x9E37_79B9);
        for s in 0..m {
            let (lo, hi) = (bounds[s], bounds[s + 1]);
            let sub_dim = hi - lo;
            // Init: k seeded draws from the training rows (duplicates are
            // harmless; empty clusters keep their centroid).
            let mut cb = vec![0.0f32; k * sub_dim];
            if !rows.is_empty() {
                for c in 0..k {
                    let pick = rows[rng.index(rows.len())];
                    cb[c * sub_dim..(c + 1) * sub_dim]
                        .copy_from_slice(&dataset.vector(pick)[lo..hi]);
                }
                for _ in 0..PQ_KMEANS_ITERS {
                    let mut sums = vec![0.0f64; k * sub_dim];
                    let mut counts = vec![0u64; k];
                    for &id in &rows {
                        let sub = &dataset.vector(id)[lo..hi];
                        let c = nearest_centroid(&cb, sub);
                        counts[c] += 1;
                        for (acc, &x) in sums[c * sub_dim..(c + 1) * sub_dim].iter_mut().zip(sub) {
                            *acc += f64::from(x);
                        }
                    }
                    for c in 0..k {
                        if counts[c] == 0 {
                            continue; // keep the previous centroid
                        }
                        for d in 0..sub_dim {
                            cb[c * sub_dim + d] = (sums[c * sub_dim + d] / counts[c] as f64) as f32;
                        }
                    }
                }
            }
            centroids.push(cb);
        }
        Self {
            dim,
            bounds,
            centroids,
            k,
        }
    }

    /// Dimensionality the quantizer was trained for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of subspaces (= code bytes per vector).
    pub fn m(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Appends the code of `row` (one byte per subspace) to `out`.
    pub fn encode_into(&self, row: &[f32], out: &mut Vec<u8>) {
        assert_eq!(row.len(), self.dim, "row dim mismatch");
        for s in 0..self.m() {
            let sub = &row[self.bounds[s]..self.bounds[s + 1]];
            out.push(nearest_centroid(&self.centroids[s], sub) as u8);
        }
    }

    /// Decodes `code` into `out` (len `dim`).
    pub fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        for (s, &c) in code.iter().enumerate() {
            let (lo, hi) = (self.bounds[s], self.bounds[s + 1]);
            let sub_dim = hi - lo;
            let c = (c as usize).min(self.k - 1);
            out[lo..hi].copy_from_slice(&self.centroids[s][c * sub_dim..(c + 1) * sub_dim]);
        }
    }
}

/// Nearest centroid of a flat `k * sub_dim` codebook by squared L2, ties
/// broken toward the lowest index (strict `<` on a left-to-right scan).
fn nearest_centroid(codebook: &[f32], sub: &[f32]) -> usize {
    let sub_dim = sub.len();
    let k = codebook.len() / sub_dim.max(1);
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for c in 0..k {
        let cent = &codebook[c * sub_dim..(c + 1) * sub_dim];
        let mut d = 0.0f32;
        for (x, y) in sub.iter().zip(cent) {
            let t = x - y;
            d += t * t;
        }
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Training row ids: all of `0..n` when within [`TRAIN_SAMPLE_CAP`], else
/// a seeded uniform sample of the cap size (ascending, deduplicated by
/// construction order of the draw — duplicates are harmless for both
/// min/max scans and k-means).
fn train_rows(n: usize, seed: u64) -> Vec<VectorId> {
    if n <= TRAIN_SAMPLE_CAP {
        (0..n as VectorId).collect()
    } else {
        let mut rng = Pcg32::seed_from_u64(seed);
        (0..TRAIN_SAMPLE_CAP)
            .map(|_| rng.index(n) as VectorId)
            .collect()
    }
}

/// A trained quantizer of either family.
#[derive(Debug, Clone, PartialEq)]
pub enum Quantizer {
    /// Scalar int8 codes.
    Int8(Int8Quantizer),
    /// Product-quantized codes.
    Pq(PqQuantizer),
}

impl Quantizer {
    /// Trains the family `spec` selects; `None` for [`QuantSpec::None`].
    pub fn train(spec: QuantSpec, dataset: &Dataset, seed: u64) -> Option<Self> {
        match spec {
            QuantSpec::None => None,
            QuantSpec::Int8 => Some(Quantizer::Int8(Int8Quantizer::train(dataset, seed))),
            QuantSpec::Pq { m, bits } => Some(Quantizer::Pq(PqQuantizer::train(
                dataset,
                m.min(dataset.dim().max(1)),
                bits,
                seed,
            ))),
        }
    }

    /// Bytes of one vector's code.
    pub fn code_bytes(&self) -> usize {
        match self {
            Quantizer::Int8(q) => q.dim(),
            Quantizer::Pq(q) => q.m(),
        }
    }

    /// Dimensionality of decoded vectors.
    pub fn dim(&self) -> usize {
        match self {
            Quantizer::Int8(q) => q.dim(),
            Quantizer::Pq(q) => q.dim(),
        }
    }

    /// Appends the code of `row` to `out`.
    pub fn encode_into(&self, row: &[f32], out: &mut Vec<u8>) {
        match self {
            Quantizer::Int8(q) => q.encode_into(row, out),
            Quantizer::Pq(q) => q.encode_into(row, out),
        }
    }

    /// Decodes `code` into `out` (len `dim`).
    pub fn decode_into(&self, code: &[u8], out: &mut [f32]) {
        match self {
            Quantizer::Int8(q) => q.decode_into(code, out),
            Quantizer::Pq(q) => q.decode_into(code, out),
        }
    }
}

/// The DRAM-resident code table a quantized deployment holds alongside
/// its dataset: one fixed-width code per vector plus the trained
/// quantizer, appended through on inserts and re-packed on compaction.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantCodes {
    quantizer: Quantizer,
    codes: Vec<u8>,
    len: usize,
}

impl QuantCodes {
    /// Trains a quantizer per `spec` and encodes every row of `dataset`.
    /// Returns `None` for [`QuantSpec::None`].
    pub fn train(spec: QuantSpec, dataset: &Dataset, seed: u64) -> Option<Self> {
        let quantizer = Quantizer::train(spec, dataset, seed)?;
        let mut codes = Vec::with_capacity(dataset.len() * quantizer.code_bytes());
        for (_, row) in dataset.iter() {
            quantizer.encode_into(row, &mut codes);
        }
        Some(Self {
            quantizer,
            codes,
            len: dataset.len(),
        })
    }

    /// Number of encoded vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no codes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of one vector's code — the per-record DRAM footprint the
    /// query property table switches to under quantization.
    pub fn code_bytes(&self) -> usize {
        self.quantizer.code_bytes()
    }

    /// Total DRAM bytes the code table occupies.
    pub fn total_bytes(&self) -> u64 {
        self.codes.len() as u64
    }

    /// The trained quantizer.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The code of vector `id`.
    pub fn code(&self, id: VectorId) -> &[u8] {
        let cb = self.code_bytes();
        &self.codes[id as usize * cb..(id as usize + 1) * cb]
    }

    /// Encodes and appends `row` through the *same* trained quantizer
    /// (the FreshDiskANN insert path: new vectors get codes too).
    pub fn push(&mut self, row: &[f32]) {
        let quantizer = &self.quantizer;
        assert_eq!(row.len(), quantizer.dim(), "row dim mismatch");
        quantizer.encode_into(row, &mut self.codes);
        self.len += 1;
    }

    /// Re-packs the table from `dataset` with the already-trained
    /// quantizer (the compaction path). Re-encoding is a pure function of
    /// the rows, so a re-pack over unchanged rows is bit-identical.
    pub fn repack(&self, dataset: &Dataset) -> Self {
        let mut codes = Vec::with_capacity(dataset.len() * self.code_bytes());
        for (_, row) in dataset.iter() {
            self.quantizer.encode_into(row, &mut codes);
        }
        Self {
            quantizer: self.quantizer.clone(),
            codes,
            len: dataset.len(),
        }
    }

    /// Decodes vector `id` into `out` (len `dim`).
    pub fn decode_into(&self, id: VectorId, out: &mut [f32]) {
        self.quantizer.decode_into(self.code(id), out);
    }

    /// `eval_batch_ids`-shaped scoring against codes: clears `out` and pushes
    /// one distance per id, each the bits of [`DistanceKind::eval`] against
    /// the code's reconstruction. Int8 codes are decoded in registers
    /// inside the distance kernel (no buffer, no allocation); PQ codes are
    /// decoded to a scratch row first.
    pub fn eval_batch_ids(
        &self,
        distance: DistanceKind,
        query: &[f32],
        ids: &[VectorId],
        out: &mut Vec<f32>,
    ) {
        match &self.quantizer {
            Quantizer::Int8(q) => {
                let rows = ids.iter().map(|&id| q.row(self.code(id)));
                distance.eval_batch_affine(query, rows, out);
            }
            Quantizer::Pq(q) => {
                out.clear();
                out.reserve(ids.len());
                let mut scratch = vec![0.0f32; q.dim()];
                for &id in ids {
                    q.decode_into(self.code(id), &mut scratch);
                    out.push(distance.eval(query, &scratch));
                }
            }
        }
    }
}

impl ScoreSource for QuantCodes {
    fn len(&self) -> usize {
        QuantCodes::len(self)
    }

    fn score_batch(
        &self,
        distance: DistanceKind,
        query: &[f32],
        ids: &[VectorId],
        out: &mut Vec<f32>,
    ) {
        self.eval_batch_ids(distance, query, ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::DatasetSpec;

    fn fixture(n: usize) -> Dataset {
        DatasetSpec::sift_scaled(n, 1).build()
    }

    #[test]
    fn spec_code_bytes() {
        assert_eq!(QuantSpec::None.code_bytes(128), 0);
        assert!(!QuantSpec::None.enabled());
        assert_eq!(QuantSpec::Int8.code_bytes(128), 128);
        assert_eq!(QuantSpec::Pq { m: 16, bits: 8 }.code_bytes(128), 16);
        assert!(QuantSpec::Int8.enabled());
    }

    #[test]
    fn int8_round_trip_error_within_half_step() {
        let ds = fixture(300);
        let q = Int8Quantizer::train(&ds, 7);
        let mut code = Vec::new();
        let mut rec = vec![0.0f32; ds.dim()];
        for (_, row) in ds.iter() {
            code.clear();
            q.encode_into(row, &mut code);
            q.decode_into(&code, &mut rec);
            for (d, (&x, &r)) in row.iter().zip(&rec).enumerate() {
                let bound = q.scale()[d] * 0.5 + q.scale()[d] * 1e-3 + 1e-6;
                assert!((x - r).abs() <= bound, "dim {d}: |{x} - {r}| > {bound}");
            }
        }
    }

    #[test]
    fn int8_training_is_deterministic() {
        let ds = fixture(200);
        assert_eq!(Int8Quantizer::train(&ds, 3), Int8Quantizer::train(&ds, 3));
    }

    #[test]
    fn pq_trains_and_reconstructs_reasonably() {
        let ds = fixture(400);
        let pq = PqQuantizer::train(&ds, 16, 6, 11);
        assert_eq!(pq.m(), 16);
        let mut code = Vec::new();
        let mut rec = vec![0.0f32; ds.dim()];
        // PQ reconstruction must beat the trivial all-zeros baseline by a
        // wide margin on clustered data.
        let mut err = 0.0f64;
        let mut base = 0.0f64;
        for (_, row) in ds.iter() {
            code.clear();
            pq.encode_into(row, &mut code);
            assert_eq!(code.len(), 16);
            pq.decode_into(&code, &mut rec);
            for (&x, &r) in row.iter().zip(&rec) {
                err += f64::from((x - r) * (x - r));
                base += f64::from(x * x);
            }
        }
        assert!(err < base * 0.5, "PQ error {err} vs baseline {base}");
    }

    #[test]
    fn pq_uneven_subspaces_cover_every_dim() {
        // dim = 128 not divisible by m = 10: bounds must tile exactly.
        let ds = fixture(50);
        let pq = PqQuantizer::train(&ds, 10, 4, 0);
        let mut code = Vec::new();
        pq.encode_into(ds.vector(0), &mut code);
        let mut rec = vec![f32::NAN; ds.dim()];
        pq.decode_into(&code, &mut rec);
        assert!(rec.iter().all(|x| x.is_finite()), "uncovered dimension");
    }

    #[test]
    fn codes_push_matches_batch_encode() {
        // FreshDiskANN invariant: inserting row-by-row through the trained
        // quantizer yields the exact codes a bulk encode produces.
        let ds = fixture(120);
        let full = QuantCodes::train(QuantSpec::Int8, &ds, 5).unwrap();
        let head = Dataset::from_rows(ds.dim(), (0..100).map(|i| ds.vector(i).to_vec()).collect())
            .unwrap();
        let mut grown = full.repack(&head);
        for i in 100..120 {
            grown.push(ds.vector(i));
        }
        assert_eq!(grown, full);
        // Re-pack over unchanged rows is bit-identical (compaction path).
        assert_eq!(full.repack(&ds), full);
    }

    #[test]
    fn score_source_parity_between_dataset_and_codes() {
        let ds = fixture(80);
        let codes = QuantCodes::train(QuantSpec::Int8, &ds, 1).unwrap();
        let ids: Vec<VectorId> = vec![3, 0, 79, 41];
        let q = ds.vector(7);
        let mut exact = Vec::new();
        ScoreSource::score_batch(&ds, DistanceKind::L2, q, &ids, &mut exact);
        let mut approx = Vec::new();
        codes.score_batch(DistanceKind::L2, q, &ids, &mut approx);
        assert_eq!(exact.len(), approx.len());
        for (i, (&e, &a)) in exact.iter().zip(&approx).enumerate() {
            // Approximate but close on int8 codes.
            assert!(
                (e - a).abs() <= e.abs().max(1.0) * 0.05,
                "id {}: exact {e} vs code {a}",
                ids[i]
            );
        }
    }

    #[test]
    fn fused_scoring_has_the_bits_of_decode_then_eval() {
        // Every dimension class of the kernels (32-lane blocks, the 8-lane
        // remainder, the scalar tail), both code families — on whichever kernel tier this process dispatched to (CI runs the
        // suite under NDSEARCH_NO_SIMD=1 too).
        for dim in [1usize, 7, 8, 31, 32, 33, 64, 96, 128, 257] {
            let spec = DatasetSpec {
                dim,
                ..DatasetSpec::deep_scaled(60, 1)
            };
            let ds = spec.build();
            let ids: Vec<VectorId> = (0..ds.len() as VectorId).rev().collect();
            let mut rec = vec![0.0f32; dim];
            let mut scores = Vec::new();
            for spec in [QuantSpec::Int8, QuantSpec::Pq { m: 4, bits: 4 }] {
                let codes = QuantCodes::train(spec, &ds, dim as u64).unwrap();
                let q = ds.vector(5);
                codes.score_batch(DistanceKind::L2, q, &ids, &mut scores);
                assert_eq!(scores.len(), ids.len());
                for (&id, &got) in ids.iter().zip(&scores) {
                    codes.decode_into(id, &mut rec);
                    assert_eq!(
                        got.to_bits(),
                        DistanceKind::L2.eval(q, &rec).to_bits(),
                        "{spec:?}, dim {dim}, id {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_footprint_is_fraction_of_full_precision() {
        // deep-1b stores f32 components (96-d x 4 B), so int8 codes are a
        // 4x saving; sift-like u8 corpora need PQ for a DRAM win.
        let ds = DatasetSpec::deep_scaled(100, 1).build();
        let int8 = QuantCodes::train(QuantSpec::Int8, &ds, 0).unwrap();
        assert_eq!(int8.code_bytes() * 4, ds.stored_vector_bytes());
        let pq = QuantCodes::train(QuantSpec::Pq { m: 16, bits: 8 }, &ds, 0).unwrap();
        assert_eq!(pq.code_bytes(), 16);
        assert_eq!(pq.total_bytes(), 16 * 100);
        assert!(pq.total_bytes() * 2 < (ds.stored_vector_bytes() * ds.len()) as u64);
    }

    #[test]
    fn empty_dataset_trains_degenerate_table() {
        let ds = Dataset::new(8);
        let codes = QuantCodes::train(QuantSpec::Int8, &ds, 0).unwrap();
        assert!(codes.is_empty());
        assert_eq!(codes.code_bytes(), 8);
        assert!(QuantCodes::train(QuantSpec::None, &ds, 0).is_none());
    }
}
