//! Synthetic dataset generation and paper-benchmark presets.
//!
//! The paper evaluates on five real corpora. A cycle-level simulator cannot
//! hold a billion vectors, so each preset generates a *clustered Gaussian*
//! dataset with the same dimensionality and element width as the original,
//! at a configurable scaled vector count. Clustered generation (rather than
//! i.i.d. uniform) matters: graph-traversal ANNS locality effects — the
//! whole point of NDSEARCH's scheduling — only appear when the data has
//! nearest-neighbor structure.

use crate::dataset::Dataset;
use crate::rng::Pcg32;

/// Which paper benchmark a spec models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// glove-100: 100-d word embeddings (angular in the benchmark suite;
    /// scored by squared L2 here, like every corpus).
    Glove100,
    /// fashion-mnist: 784-d image pixels, Euclidean.
    FashionMnist,
    /// sift-1b: 128-d SIFT descriptors stored as u8, Euclidean.
    Sift1B,
    /// deep-1b: 96-d CNN descriptors, Euclidean (angular in some setups;
    /// scored by squared L2 here).
    Deep1B,
    /// spacev-1b: 100-d text descriptors stored as i8, Euclidean.
    SpaceV1B,
}

impl BenchmarkId {
    /// All five paper benchmarks in the order the paper tables list them.
    pub const ALL: [BenchmarkId; 5] = [
        BenchmarkId::Glove100,
        BenchmarkId::FashionMnist,
        BenchmarkId::Sift1B,
        BenchmarkId::Deep1B,
        BenchmarkId::SpaceV1B,
    ];

    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Glove100 => "glove-100",
            BenchmarkId::FashionMnist => "fashion-mnist",
            BenchmarkId::Sift1B => "sift-1b",
            BenchmarkId::Deep1B => "deep-1b",
            BenchmarkId::SpaceV1B => "spacev-1b",
        }
    }

    /// Whether the original corpus is billion scale (and therefore exceeds
    /// CPU/GPU memory in the paper's setup, forcing sharded execution).
    pub fn is_billion_scale(self) -> bool {
        matches!(
            self,
            BenchmarkId::Sift1B | BenchmarkId::Deep1B | BenchmarkId::SpaceV1B
        )
    }

    /// Original corpus cardinality (vectors), used to scale memory-footprint
    /// modelling for the CPU/GPU baselines.
    pub fn original_count(self) -> u64 {
        match self {
            BenchmarkId::Glove100 => 1_183_514,
            BenchmarkId::FashionMnist => 60_000,
            BenchmarkId::Sift1B | BenchmarkId::Deep1B | BenchmarkId::SpaceV1B => 1_000_000_000,
        }
    }

    /// Recall@10 the paper tunes each benchmark's graph to.
    pub fn paper_recall_target(self) -> f64 {
        match self {
            BenchmarkId::Glove100 => 0.95,
            BenchmarkId::FashionMnist => 0.95,
            BenchmarkId::Sift1B => 0.94,
            BenchmarkId::Deep1B => 0.93,
            BenchmarkId::SpaceV1B => 0.90,
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Specification for generating a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which benchmark this models (for reporting only).
    pub benchmark: BenchmarkId,
    /// Vector dimensionality (matches the original corpus).
    pub dim: usize,
    /// Number of base vectors to generate.
    pub n_base: usize,
    /// Number of query vectors to generate.
    pub n_query: usize,
    /// Number of Gaussian clusters.
    pub clusters: usize,
    /// Cluster center spread (stddev of center coordinates).
    pub center_spread: f64,
    /// Within-cluster stddev.
    pub cluster_stddev: f64,
    /// Fraction of points drawn from a broad background distribution
    /// spanning the clusters instead of from a single mode. Real corpora
    /// contain such in-between points; they matter in high dimension,
    /// where distance concentration would otherwise make pure
    /// Gaussian-ball mixtures metrically disjoint (no inter-cluster
    /// nearest-neighbor structure at all — unlike any real dataset).
    pub bridge_fraction: f64,
    /// Per-vector on-flash element width in bytes (1 for u8/i8 corpora,
    /// 4 for f32 corpora).
    pub element_bytes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Preset modelling glove-100 (100-d embeddings, angular in the
    /// benchmark suite; scored by squared L2 here).
    pub fn glove_scaled(n_base: usize, n_query: usize) -> Self {
        Self {
            benchmark: BenchmarkId::Glove100,
            dim: 100,
            n_base,
            n_query,
            clusters: cluster_count(n_base),
            center_spread: 3.0,
            cluster_stddev: 1.0,
            bridge_fraction: 0.05,
            element_bytes: 4,
            seed: 0x0006_C07E,
        }
    }

    /// Preset modelling fashion-mnist (784-d pixel images). Real
    /// fashion-mnist classes are internally diverse and overlap heavily in
    /// pixel space, so the preset uses many small, closely spaced modes
    /// (√n, like the other presets) rather than ten metrically disjoint
    /// balls — ten far-apart Gaussian balls in 784-d would have *no*
    /// inter-class nearest-neighbor structure at all, and degree-bounded
    /// proximity graphs (Vamana R=32 < class size) would disconnect along
    /// class boundaries, which the real corpus does not exhibit.
    pub fn fashion_mnist_scaled(n_base: usize, n_query: usize) -> Self {
        Self {
            benchmark: BenchmarkId::FashionMnist,
            dim: 784,
            n_base,
            n_query,
            clusters: cluster_count(n_base),
            center_spread: 0.8,
            cluster_stddev: 1.0,
            bridge_fraction: 0.20,
            element_bytes: 1,
            seed: 0xFA_51,
        }
    }

    /// Preset modelling sift-1b (128-d u8 SIFT descriptors).
    pub fn sift_scaled(n_base: usize, n_query: usize) -> Self {
        Self {
            benchmark: BenchmarkId::Sift1B,
            dim: 128,
            n_base,
            n_query,
            clusters: cluster_count(n_base),
            center_spread: 3.0,
            cluster_stddev: 1.0,
            bridge_fraction: 0.05,
            element_bytes: 1,
            seed: 0x51F7,
        }
    }

    /// Preset modelling deep-1b (96-d CNN descriptors).
    pub fn deep_scaled(n_base: usize, n_query: usize) -> Self {
        Self {
            benchmark: BenchmarkId::Deep1B,
            dim: 96,
            n_base,
            n_query,
            clusters: cluster_count(n_base),
            center_spread: 2.5,
            cluster_stddev: 1.0,
            bridge_fraction: 0.05,
            element_bytes: 4,
            seed: 0xDEE7,
        }
    }

    /// Preset modelling spacev-1b (100-d i8 text descriptors).
    pub fn spacev_scaled(n_base: usize, n_query: usize) -> Self {
        Self {
            benchmark: BenchmarkId::SpaceV1B,
            dim: 100,
            n_base,
            n_query,
            clusters: cluster_count(n_base),
            center_spread: 2.5,
            cluster_stddev: 1.1,
            bridge_fraction: 0.05,
            element_bytes: 1,
            seed: 0x0005_BACE,
        }
    }

    /// Preset by benchmark id, with a common scale.
    pub fn for_benchmark(benchmark: BenchmarkId, n_base: usize, n_query: usize) -> Self {
        match benchmark {
            BenchmarkId::Glove100 => Self::glove_scaled(n_base, n_query),
            BenchmarkId::FashionMnist => Self::fashion_mnist_scaled(n_base, n_query),
            BenchmarkId::Sift1B => Self::sift_scaled(n_base, n_query),
            BenchmarkId::Deep1B => Self::deep_scaled(n_base, n_query),
            BenchmarkId::SpaceV1B => Self::spacev_scaled(n_base, n_query),
        }
    }

    /// Generates the base dataset.
    pub fn build(&self) -> Dataset {
        self.generate(self.n_base, 0)
    }

    /// Generates the query set (statistically identical distribution, but a
    /// disjoint RNG stream so queries are not base vectors).
    pub fn build_queries(&self) -> Dataset {
        self.generate(self.n_query, 1)
    }

    /// Generates both at once.
    pub fn build_pair(&self) -> (Dataset, Dataset) {
        (self.build(), self.build_queries())
    }

    fn generate(&self, count: usize, stream: u64) -> Dataset {
        assert!(self.dim > 0, "dim must be positive");
        assert!(self.clusters > 0, "clusters must be positive");
        let mut center_rng = Pcg32::new(self.seed, 917);
        let centers: Vec<Vec<f32>> = (0..self.clusters)
            .map(|_| {
                (0..self.dim)
                    .map(|_| (center_rng.next_gaussian() * self.center_spread) as f32)
                    .collect()
            })
            .collect();
        let mut rng = Pcg32::new(self.seed, 1000 + stream);
        let mut data = Vec::with_capacity(count * self.dim);
        // Background (bridge) points interpolate between two random
        // cluster centers, landing in the in-between space that connects
        // modes in real corpora.
        let bridge_sigma = (self.cluster_stddev * self.cluster_stddev
            + self.center_spread * self.center_spread)
            .sqrt();
        for _ in 0..count {
            if rng.chance(self.bridge_fraction) {
                let a = &centers[rng.index(self.clusters)];
                let b = &centers[rng.index(self.clusters)];
                let t = rng.next_f32();
                for (&ma, &mb) in a.iter().zip(b.iter()) {
                    let mid = ma + t * (mb - ma);
                    data.push(mid + (rng.next_gaussian() * bridge_sigma * 0.3) as f32);
                }
            } else {
                let c = &centers[rng.index(self.clusters)];
                for &mu in c.iter() {
                    data.push(mu + (rng.next_gaussian() * self.cluster_stddev) as f32);
                }
            }
        }
        let mut ds = Dataset::from_flat(self.dim, data);
        ds.set_stored_vector_bytes(self.dim * self.element_bytes);
        ds
    }

    /// Bytes one *stored* vector occupies on flash for this preset.
    pub fn stored_vector_bytes(&self) -> usize {
        self.dim * self.element_bytes
    }

    /// Bytes the *original* (unscaled) corpus would occupy, feature vectors
    /// only. Drives the baselines' exceeds-memory decision.
    pub fn original_corpus_bytes(&self) -> u64 {
        self.benchmark.original_count() * self.stored_vector_bytes() as u64
    }
}

/// Heuristic cluster count: about sqrt(n), at least 8.
fn cluster_count(n_base: usize) -> usize {
    ((n_base as f64).sqrt() as usize).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l2_squared;

    #[test]
    fn presets_have_paper_dimensions() {
        assert_eq!(DatasetSpec::glove_scaled(10, 2).dim, 100);
        assert_eq!(DatasetSpec::fashion_mnist_scaled(10, 2).dim, 784);
        assert_eq!(DatasetSpec::sift_scaled(10, 2).dim, 128);
        assert_eq!(DatasetSpec::deep_scaled(10, 2).dim, 96);
        assert_eq!(DatasetSpec::spacev_scaled(10, 2).dim, 100);
    }

    #[test]
    fn build_is_deterministic() {
        let spec = DatasetSpec::sift_scaled(200, 10);
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a, b);
    }

    #[test]
    fn queries_differ_from_base() {
        let spec = DatasetSpec::deep_scaled(50, 50);
        let (base, queries) = spec.build_pair();
        assert_ne!(base.as_flat(), queries.as_flat());
        assert_eq!(queries.len(), 50);
    }

    #[test]
    fn clustering_produces_structure() {
        // Vectors should on average be much closer to their nearest neighbor
        // than to a random vector — the property graph ANNS relies on.
        let spec = DatasetSpec::sift_scaled(400, 1);
        let ds = spec.build();
        let mut rng = Pcg32::seed_from_u64(1);
        let mut nearest_sum = 0.0f64;
        let mut random_sum = 0.0f64;
        let probes = 40;
        for _ in 0..probes {
            let i = rng.index(ds.len()) as u32;
            let mut best = f32::INFINITY;
            for (j, v) in ds.iter() {
                if j != i {
                    best = best.min(l2_squared(ds.vector(i), v));
                }
            }
            let j = rng.index(ds.len()) as u32;
            nearest_sum += f64::from(best);
            random_sum += f64::from(l2_squared(ds.vector(i), ds.vector(j)).max(1e-9));
        }
        assert!(
            nearest_sum < random_sum * 0.8,
            "nearest {nearest_sum} vs random {random_sum}"
        );
    }

    #[test]
    fn element_bytes_flow_into_dataset() {
        let ds = DatasetSpec::sift_scaled(10, 1).build();
        assert_eq!(ds.stored_vector_bytes(), 128); // u8 × 128
        let ds = DatasetSpec::glove_scaled(10, 1).build();
        assert_eq!(ds.stored_vector_bytes(), 400); // f32 × 100
    }

    #[test]
    fn original_corpus_sizes_are_billion_scale() {
        let spec = DatasetSpec::sift_scaled(10, 1);
        assert_eq!(spec.original_corpus_bytes(), 128_000_000_000);
        assert!(BenchmarkId::Sift1B.is_billion_scale());
        assert!(!BenchmarkId::Glove100.is_billion_scale());
    }

    #[test]
    fn recall_targets_match_paper() {
        let targets: Vec<f64> = BenchmarkId::ALL
            .iter()
            .map(|b| b.paper_recall_target())
            .collect();
        assert_eq!(targets, vec![0.95, 0.95, 0.94, 0.93, 0.90]);
    }
}
