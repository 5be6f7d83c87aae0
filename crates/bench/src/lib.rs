//! The experiment harness behind `paper_figs`.
//!
//! The paper figures follow the paper's methodology (§VII-A): build the
//! dataset, construct the graph with the *real* algorithm, run the real
//! search to record memory traces, then replay the traces on each platform
//! model. [`Workloads`] is that pipeline, run once per (benchmark,
//! algorithm) and process; [`figures::FIGURES`] is the one registry of
//! bodies, each drawing from that cache; [`refs::PAPER_REFS`] holds the
//! paper's own numbers as data each figure is scored against; [`Table`]
//! is what a body returns and what gets printed.
//!
//! [`Scale`] is the only knob. The library never reads the environment:
//! `paper_figs`'s `main` fills a `Scale` from `NDS_N` / `NDS_BATCH` /
//! `NDS_K` through [`env_usize`], tests construct one directly.

pub mod figures;
pub mod refs;

use std::collections::HashMap;

use ndsearch_anns::hcnng::{Hcnng, HcnngParams};
use ndsearch_anns::hnsw::{Hnsw, HnswParams};
use ndsearch_anns::index::{AnnsAlgorithm, GraphAnnsIndex, SearchParams};
use ndsearch_anns::togg::{Togg, ToggParams};
use ndsearch_anns::trace::BatchTrace;
use ndsearch_anns::vamana::{Vamana, VamanaParams};
use ndsearch_baselines::{
    CpuPlatform, DeepStorePlatform, GpuPlatform, Platform, PlatformReport, Scenario,
    SmartSsdPlatform,
};
use ndsearch_core::config::{NdsConfig, SchedulingConfig};
use ndsearch_core::energy::PowerModel;
use ndsearch_core::pipeline::Prepared;
use ndsearch_core::{NdsEngine, NdsReport};
use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::recall::{ground_truth, recall_at_k};
use ndsearch_vector::synthetic::{BenchmarkId, DatasetSpec};
use ndsearch_vector::{DistanceKind, VectorId};

/// Reads an env-var scale knob: `default` when unset; a value that is
/// not a positive integer exits the process with status 2, naming the
/// variable and the value. Call it from a `main` only.
pub fn env_usize(name: &str, default: usize) -> usize {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, value.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// [`env_usize`] without the environment: `value` is the variable's
/// contents, `None` when it is unset.
fn parse_knob(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("{name}={v:?} is not a positive integer")),
    }
}

/// How large an experiment runs. Figures with a batch axis express it in
/// multiples of `batch`, so a small scale is small everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Base vectors per benchmark (`NDS_N`).
    pub n: usize,
    /// Queries per batch (`NDS_BATCH`).
    pub batch: usize,
    /// Top-k (`NDS_K`).
    pub k: usize,
}

impl Scale {
    /// The scale the paper figures are quoted at.
    pub const DEFAULT: Scale = Scale {
        n: 6000,
        batch: 2048,
        k: 10,
    };

    /// Base-vector count for `benchmark` (fashion-mnist's 784 dims make
    /// construction expensive, so it runs smaller).
    pub fn n_for(self, benchmark: BenchmarkId) -> usize {
        match benchmark {
            BenchmarkId::FashionMnist => self.n.min(2500),
            _ => self.n,
        }
    }

    /// `batch / divisor`, at least one query.
    pub fn batch_over(self, divisor: usize) -> usize {
        (self.batch / divisor).max(1)
    }

    /// A batch-size axis: `batch / d` for each divisor, then 1×, 2× and 4×
    /// the batch.
    pub fn batch_ladder(self, divisors: &[usize]) -> Vec<usize> {
        let below = divisors.iter().map(|&d| self.batch_over(d));
        below.chain([1, 2, 4].map(|m| self.batch * m)).collect()
    }
}

/// A fully built experiment input: dataset + graph + recorded traces.
#[derive(Clone, PartialEq)]
pub struct Workload {
    /// Which paper benchmark this models.
    pub benchmark: BenchmarkId,
    /// Which algorithm built the graph.
    pub algorithm: AnnsAlgorithm,
    /// Base vectors.
    pub base: Dataset,
    /// The base proximity graph.
    pub graph: Csr,
    /// Recorded batch trace.
    pub trace: BatchTrace,
    /// Achieved recall@k against brute force, on the first
    /// [`RECALL_SAMPLE`] queries.
    pub recall_at_10: f64,
    /// Architectural configuration scaled for this dataset.
    pub config: NdsConfig,
    /// Top-k the traces were recorded at.
    pub k: usize,
}

/// Queries recall is measured on (ground truth is O(n × q)).
pub const RECALL_SAMPLE: usize = 64;

/// What [`Workloads`] keeps per (benchmark, algorithm).
struct Built {
    base: Dataset,
    index: Box<dyn GraphAnnsIndex>,
    /// Traces of the longest query prefix searched so far.
    trace: BatchTrace,
    /// Brute-force and found ids of the first ≤ [`RECALL_SAMPLE`] queries.
    truth: Vec<Vec<VectorId>>,
    found: Vec<Vec<VectorId>>,
}

/// Builds each (benchmark, algorithm) graph once per process and hands out
/// [`Workload`]s at any batch size from it. Base vectors do not depend on
/// the query count and the query stream is sequential, so a smaller batch
/// is a prefix of a larger one: growing a batch searches only the new
/// suffix, and every batch replays exactly what a fresh build would.
pub struct Workloads {
    scale: Scale,
    built: HashMap<(BenchmarkId, AnnsAlgorithm), Built>,
}

impl Workloads {
    /// An empty cache at `scale` (`scale.batch` is not used: each
    /// [`get`](Self::get) names its batch).
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            built: HashMap::new(),
        }
    }

    /// Graphs built so far.
    pub fn builds(&self) -> usize {
        self.built.len()
    }

    /// The workload of `batch` queries: dataset → graph → batch search →
    /// traces → recall, reusing whatever earlier calls already built.
    pub fn get(
        &mut self,
        benchmark: BenchmarkId,
        algorithm: AnnsAlgorithm,
        batch: usize,
    ) -> Workload {
        let k = self.scale.k;
        let spec = DatasetSpec::for_benchmark(benchmark, self.scale.n_for(benchmark), batch);
        let built = self.built.entry((benchmark, algorithm)).or_insert_with(|| {
            let base = spec.build();
            let index: Box<dyn GraphAnnsIndex> = match algorithm {
                AnnsAlgorithm::Hnsw => Box::new(Hnsw::build(&base, HnswParams::default())),
                AnnsAlgorithm::DiskAnn => Box::new(Vamana::build(&base, VamanaParams::default())),
                AnnsAlgorithm::Hcnng => Box::new(Hcnng::build(&base, HcnngParams::default())),
                AnnsAlgorithm::Togg => Box::new(Togg::build(&base, ToggParams::default())),
            };
            Built {
                base,
                index,
                trace: BatchTrace::default(),
                truth: Vec::new(),
                found: Vec::new(),
            }
        });
        let have = built.trace.len();
        if batch > have {
            let queries = spec.build_queries();
            let dim = queries.dim();
            let fresh = &queries.as_flat()[have * dim..];
            let params = SearchParams::new(k, (k * 8).max(64), DistanceKind::L2);
            let out = built.index.search_batch(
                &built.base,
                &Dataset::from_flat(dim, fresh.to_vec()),
                &params,
            );
            let sample = RECALL_SAMPLE.saturating_sub(have).min(batch - have);
            let sample_q = Dataset::from_flat(dim, fresh[..sample * dim].to_vec());
            built
                .truth
                .extend(ground_truth(&built.base, &sample_q, k, DistanceKind::L2));
            built.found.extend(out.id_lists().into_iter().take(sample));
            built.trace.queries.extend(out.trace.queries);
        }
        let sample = batch.min(RECALL_SAMPLE);
        Workload {
            benchmark,
            algorithm,
            recall_at_10: recall_at_k(&built.truth[..sample], &built.found[..sample], k),
            config: NdsConfig::scaled_for(built.base.len(), built.base.stored_vector_bytes()),
            base: built.base.clone(),
            graph: built.index.base_graph().clone(),
            trace: BatchTrace {
                queries: built.trace.queries[..batch].to_vec(),
            },
            k,
        }
    }
}

/// Builds one workload of `scale.batch` queries from nothing.
pub fn build_workload(benchmark: BenchmarkId, algorithm: AnnsAlgorithm, scale: Scale) -> Workload {
    Workloads::new(scale).get(benchmark, algorithm, scale.batch)
}

impl Workload {
    /// The scenario view platforms replay.
    pub fn scenario(&self) -> Scenario<'_> {
        Scenario {
            benchmark: self.benchmark,
            base: &self.base,
            graph: &self.graph,
            trace: &self.trace,
            config: &self.config,
            k: self.k,
        }
    }

    /// Runs the NDSEARCH engine under `config`.
    pub fn run_config(&self, config: &NdsConfig) -> NdsReport {
        let prepared = Prepared::stage(config, &self.graph, &self.base, &self.trace);
        NdsEngine::new(config).run(&prepared)
    }

    /// Runs the NDSEARCH engine with the full scheduling stack.
    pub fn run_full(&self) -> NdsReport {
        self.run_config(&self.scheduled(SchedulingConfig::full()))
    }

    /// This workload's configuration under another scheduling stack.
    pub fn scheduled(&self, scheduling: SchedulingConfig) -> NdsConfig {
        NdsConfig {
            scheduling,
            ..self.config.clone()
        }
    }

    /// Replays all baseline platforms plus NDSEARCH (full scheduling stack,
    /// adapted to the common [`PlatformReport`] shape), in the paper's order.
    pub fn all_platform_reports(&self) -> Vec<PlatformReport> {
        let s = self.scenario();
        let r = self.run_full();
        let power = PowerModel::default();
        vec![
            CpuPlatform::paper_default().report(&s),
            GpuPlatform::paper_default().report(&s),
            SmartSsdPlatform::paper_default().report(&s),
            DeepStorePlatform::channel_level().report(&s),
            DeepStorePlatform::chip_level().report(&s),
            PlatformReport {
                name: "NDSEARCH".to_string(),
                queries: r.queries,
                total_ns: r.total_ns,
                io_ns: r.breakdown.pcie_ns,
                compute_ns: r.breakdown.nand_read_ns + r.breakdown.compute_ns,
                sort_ns: r.breakdown.bitonic_ns,
                io_bytes: r.stats.pcie_bytes,
                power_w: power.ndsearch_total_w() + power.ssd_device_w,
            },
        ]
    }
}

/// A column of a [`Table`]: its header and how a row item fills it.
/// Declared together, so header and cells cannot drift apart.
pub type Col<T> = (&'static str, fn(&T) -> String);

/// What a figure body returns: one titled table, plus free `label : value`
/// lines printed under it (a table without headers is a block of them).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Printed as `== title ==`.
    pub title: String,
    /// Column names.
    pub headers: Vec<String>,
    /// Data rows, one cell per header.
    pub rows: Vec<Vec<String>>,
    /// Lines printed verbatim after the rows.
    pub notes: Vec<String>,
}

impl Table {
    /// A table without notes. Panics on a ragged row or a non-finite
    /// numeric cell (a cell is numeric when it parses as a float, so a
    /// formatted NaN is caught): either is a bug in the figure.
    pub fn new<H: ToString>(
        title: impl Into<String>,
        headers: impl IntoIterator<Item = H>,
        rows: Vec<Vec<String>>,
    ) -> Self {
        let title = title.into();
        let headers: Vec<String> = headers.into_iter().map(|h| h.to_string()).collect();
        for row in &rows {
            assert_eq!(row.len(), headers.len(), "{title}: ragged row {row:?}");
            let finite = |c: &String| c.parse::<f64>().map_or(true, f64::is_finite);
            assert!(
                row.iter().all(finite),
                "{title}: non-finite cell in {row:?}"
            );
        }
        Self {
            title,
            headers,
            rows,
            notes: Vec::new(),
        }
    }

    /// A block of `label : value` lines under a title, no table.
    pub fn block(title: &str, width: usize, lines: &[(&str, String)]) -> Self {
        Self::new(title, Vec::<String>::new(), Vec::new()).notes(width, lines)
    }

    /// One row per item, one cell per column.
    pub fn of<T>(title: impl Into<String>, items: &[T], cols: &[Col<T>]) -> Self {
        let row = |item| cols.iter().map(|c| (c.1)(item)).collect();
        Self::new(
            title,
            cols.iter().map(|c| c.0),
            items.iter().map(row).collect(),
        )
    }

    /// Adds `label : value` lines under the table, labels padded to `width`.
    pub fn notes(mut self, width: usize, lines: &[(&str, String)]) -> Self {
        let line = |(label, value): &(&str, String)| format!("{label:<width$}: {value}");
        self.notes.extend(lines.iter().map(line));
        self
    }

    /// Adds lines under the table, printed verbatim.
    pub fn lines<S: Into<String>>(mut self, lines: impl IntoIterator<Item = S>) -> Self {
        self.notes.extend(lines.into_iter().map(Into::into));
        self
    }

    /// Prints the table, then its notes. Panics on a row whose length
    /// differs from the header's: [`Table::new`] refuses one, but the
    /// fields are public and a struct literal does not go through it.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        if !self.headers.is_empty() {
            let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
            for row in &self.rows {
                assert_eq!(
                    row.len(),
                    self.headers.len(),
                    "table `{}`: row {row:?} does not match headers {:?}",
                    self.title,
                    self.headers
                );
                for (w, cell) in widths.iter_mut().zip(row) {
                    *w = (*w).max(cell.len());
                }
            }
            let fmt_row = |cells: &[String]| {
                let cells: Vec<String> = cells
                    .iter()
                    .zip(&widths)
                    .map(|(c, w)| format!("{c:>w$}"))
                    .collect();
                cells.join("  ")
            };
            println!("{}", fmt_row(&self.headers));
            for row in &self.rows {
                println!("{}", fmt_row(row));
            }
        }
        for line in &self.notes {
            println!("{line}");
        }
    }
}

/// Formats a float with fixed precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale {
        n: 600,
        batch: 32,
        ..Scale::DEFAULT
    };

    #[test]
    fn workload_builds_and_replays() {
        let w = build_workload(BenchmarkId::Sift1B, AnnsAlgorithm::Hnsw, TINY);
        assert!(w.recall_at_10 > 0.7, "recall {}", w.recall_at_10);
        let reports = w.all_platform_reports();
        assert_eq!(reports.len(), 6);
        assert_eq!(reports[5].name, "NDSEARCH");
        for r in &reports {
            assert!(r.total_ns > 0, "{} has zero latency", r.name);
        }
    }

    /// Growing 8 → 32, shrinking back to 20 and crossing the recall sample
    /// (batch 100 > 64) all hand out what a from-scratch build would.
    #[test]
    fn cached_workload_equals_a_fresh_build() {
        let mut ws = Workloads::new(TINY);
        for batch in [8, 32, 20, 100] {
            let cached = ws.get(BenchmarkId::Deep1B, AnnsAlgorithm::DiskAnn, batch);
            let fresh = build_workload(
                BenchmarkId::Deep1B,
                AnnsAlgorithm::DiskAnn,
                Scale { batch, ..TINY },
            );
            assert!(cached == fresh, "batch {batch} differs from a fresh build");
            assert_eq!(cached.trace.len(), batch);
        }
        assert_eq!(ws.builds(), 1);
    }

    #[test]
    #[should_panic(expected = "does not match headers")]
    fn print_table_refuses_a_ragged_row() {
        let table = Table {
            title: "ragged".into(),
            headers: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2".into(), "3".into()]],
            notes: Vec::new(),
        };
        table.print();
    }

    #[test]
    fn a_scale_knob_is_its_value_or_the_default_and_garbage_is_an_error() {
        assert_eq!(parse_knob("NDS_N", None, 6000), Ok(6000));
        assert_eq!(parse_knob("NDS_N", Some("1500"), 6000), Ok(1500));
        for bad in ["6k", "-1", "", " 1500", "1e3", "0"] {
            let err = parse_knob("NDS_N", Some(bad), 6000).unwrap_err();
            assert_eq!(err, format!("NDS_N={bad:?} is not a positive integer"));
        }
    }

    #[test]
    #[should_panic(expected = "ragged row")]
    fn table_refuses_a_ragged_row() {
        Table::new("t", ["name", "x"], vec![vec!["a".into()]]);
    }

    #[test]
    #[should_panic(expected = "non-finite cell")]
    fn table_refuses_a_non_finite_cell() {
        Table::new("t", ["name", "x"], vec![vec!["-".into(), f(f64::NAN, 2)]]);
    }
}
