//! Simulation reports: latency breakdown, statistics, throughput, and the
//! order statistics (p50/p99) the serving layer reports per query.

use ndsearch_flash::stats::FlashStats;
use ndsearch_flash::timing::Nanos;

use crate::speculative::SpeculationStats;

/// Order statistics over a set of latency samples — the shape a serving
/// benchmark reports (mean / p50 / p95 / p99 / max), computed with the
/// nearest-rank method.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (50th percentile, nearest rank).
    pub p50_ns: Nanos,
    /// 95th percentile.
    pub p95_ns: Nanos,
    /// 99th percentile.
    pub p99_ns: Nanos,
    /// Worst sample.
    pub max_ns: Nanos,
    /// Host wall-clock seconds the simulator spent producing the run the
    /// samples came from (0 when not measured; filled by
    /// [`crate::serve::ServeReport::latency`] and
    /// [`crate::cluster::ClusterReport::latency`]). Wall-clock time is a
    /// host measurement, not a simulation result: it varies run to run,
    /// so every report type excludes it from equality, and in a cluster
    /// it is meaningful only at the *cluster* level — replica engines
    /// step side by side on the run's threads, so per-replica wall times
    /// do not add up to the run's and per-replica reports carry 0 here.
    pub wall_s: f64,
    /// Wall-clock simulation throughput: simulated nanoseconds advanced
    /// per host second (0 when not measured; same host-measurement
    /// caveats as `wall_s`).
    pub sim_ns_per_wall_s: f64,
}

impl LatencySummary {
    /// Summarizes `samples` (order irrelevant; an empty slice yields the
    /// all-zero summary). The wall-clock fields stay 0 — only a caller
    /// that actually timed the run can fill them.
    pub fn from_samples(samples: &[Nanos]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let pct = |p: f64| -> Nanos {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            sorted[rank.min(sorted.len()) - 1]
        };
        LatencySummary {
            count: sorted.len(),
            mean_ns: sorted.iter().map(|&x| x as f64).sum::<f64>() / sorted.len() as f64,
            p50_ns: pct(50.0),
            p95_ns: pct(95.0),
            p99_ns: pct(99.0),
            max_ns: *sorted.last().unwrap(),
            wall_s: 0.0,
            sim_ns_per_wall_s: 0.0,
        }
    }
}

/// One query's contribution to the per-tenant roll-up — the neutral shape
/// both [`crate::serve::ServeReport`] and [`crate::cluster::ClusterReport`]
/// lower their outcomes into before calling [`summarize_tenants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSample {
    /// Tenant id of the query.
    pub tenant: u32,
    /// Whether the query completed on time.
    pub completed: bool,
    /// Whether it expired (deadline passed mid-flight or in queue).
    pub expired: bool,
    /// Whether it was rejected (queue overflow or shed at admission).
    pub rejected: bool,
    /// Whether an [`crate::serve::SloPolicy::ShedDoomed`] decision caused
    /// the terminal state.
    pub shed: bool,
    /// Whether the query carried a deadline (counts toward attainment).
    pub has_deadline: bool,
    /// End-to-end latency; meaningful only when `completed`.
    pub latency_ns: Nanos,
}

/// Per-tenant serving roll-up: outcome counts, SLO attainment and the
/// completed-query [`LatencySummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantSummary {
    /// Tenant id.
    pub tenant: u32,
    /// Queries this tenant submitted (terminal outcomes observed).
    pub submitted: usize,
    /// Queries completed on time.
    pub completed: usize,
    /// Queries that expired past their deadline.
    pub expired: usize,
    /// Queries rejected at admission (overflow or shed).
    pub rejected: usize,
    /// Queries terminated by a shed decision (subset of
    /// `expired + rejected`).
    pub shed: usize,
    /// Queries that carried a deadline.
    pub deadline_total: usize,
    /// Deadline-carrying queries that completed on time.
    pub deadline_met: usize,
    /// Latency order statistics over this tenant's completed queries.
    pub latency: LatencySummary,
}

impl TenantSummary {
    /// Fraction of this tenant's deadline-carrying queries that completed
    /// on time; `1.0` when the tenant ran only best-effort traffic.
    pub fn slo_attainment(&self) -> f64 {
        if self.deadline_total == 0 {
            1.0
        } else {
            self.deadline_met as f64 / self.deadline_total as f64
        }
    }
}

/// Groups `samples` by tenant id (ascending) and rolls each group up into
/// a [`TenantSummary`].
pub fn summarize_tenants(samples: &[TenantSample]) -> Vec<TenantSummary> {
    let mut by_tenant: std::collections::BTreeMap<u32, (TenantSummary, Vec<Nanos>)> =
        std::collections::BTreeMap::new();
    for s in samples {
        let (summary, lats) = by_tenant.entry(s.tenant).or_insert_with(|| {
            (
                TenantSummary {
                    tenant: s.tenant,
                    ..TenantSummary::default()
                },
                Vec::new(),
            )
        });
        summary.submitted += 1;
        summary.completed += usize::from(s.completed);
        summary.expired += usize::from(s.expired);
        summary.rejected += usize::from(s.rejected);
        summary.shed += usize::from(s.shed);
        summary.deadline_total += usize::from(s.has_deadline);
        summary.deadline_met += usize::from(s.has_deadline && s.completed);
        if s.completed {
            lats.push(s.latency_ns);
        }
    }
    by_tenant
        .into_values()
        .map(|(mut summary, lats)| {
            summary.latency = LatencySummary::from_samples(&lats);
            summary
        })
        .collect()
}

/// Fairness of a per-tenant roll-up: max over mean of the per-tenant p99
/// latencies, over tenants with at least one completion. `1.0` is perfectly
/// fair (every tenant sees the same tail); large values mean one tenant's
/// tail dominates. Returns `1.0` with fewer than two contributing tenants.
pub fn tenant_p99_fairness(summaries: &[TenantSummary]) -> f64 {
    let p99s: Vec<f64> = summaries
        .iter()
        .filter(|t| t.latency.count > 0)
        .map(|t| t.latency.p99_ns as f64)
        .collect();
    if p99s.len() < 2 {
        return 1.0;
    }
    let mean = p99s.iter().sum::<f64>() / p99s.len() as f64;
    if mean == 0.0 {
        return 1.0;
    }
    p99s.iter().cloned().fold(0.0, f64::max) / mean
}

/// Where the execution time went (the categories of Fig. 17).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// NAND array sensing on the critical path.
    pub nand_read_ns: Nanos,
    /// In-LUN ECC decode (incl. soft-decision fallbacks).
    pub ecc_ns: Nanos,
    /// Page-buffer streaming + MAC compute.
    pub compute_ns: Nanos,
    /// SSD internal DRAM traffic (LUNCSR fetches, QPT updates).
    pub dram_ns: Nanos,
    /// Embedded-core bookkeeping (FTL upkeep, QPT logic).
    pub embedded_ns: Nanos,
    /// Non-overlapped Allocating-stage time (dynamic scheduling overhead).
    pub allocating_ns: Nanos,
    /// Channel-bus data-out of computed distances.
    pub bus_ns: Nanos,
    /// Bitonic sorting on the FPGA.
    pub bitonic_ns: Nanos,
    /// PCIe I/O (queries in, result lists to FPGA, top-k out).
    pub pcie_ns: Nanos,
    /// Flash program/erase time charged by the online-update write path
    /// (page programs for inserts, block erases for compaction).
    pub program_ns: Nanos,
    /// Exact rerank of compressed-vector search: summed over sessions,
    /// the time from the end of a session's traversal to the moment the
    /// last LUN unit holding one of its rerank candidates has shipped its
    /// results. The units' sensing, decoding and compute are not also
    /// added to the buckets above (zero unless
    /// [`crate::config::NdsConfig::quantization`] is enabled).
    pub rerank_ns: Nanos,
}

impl LatencyBreakdown {
    /// Sum of all buckets.
    pub fn total_ns(&self) -> Nanos {
        self.nand_read_ns
            + self.ecc_ns
            + self.compute_ns
            + self.dram_ns
            + self.embedded_ns
            + self.allocating_ns
            + self.bus_ns
            + self.bitonic_ns
            + self.pcie_ns
            + self.program_ns
            + self.rerank_ns
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        self.nand_read_ns += other.nand_read_ns;
        self.ecc_ns += other.ecc_ns;
        self.compute_ns += other.compute_ns;
        self.dram_ns += other.dram_ns;
        self.embedded_ns += other.embedded_ns;
        self.allocating_ns += other.allocating_ns;
        self.bus_ns += other.bus_ns;
        self.bitonic_ns += other.bitonic_ns;
        self.pcie_ns += other.pcie_ns;
        self.program_ns += other.program_ns;
        self.rerank_ns += other.rerank_ns;
    }

    /// `(label, fraction)` rows for the Fig. 17 stacked bar.
    pub fn fractions(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_ns().max(1) as f64;
        vec![
            ("NAND read", self.nand_read_ns as f64 / total),
            ("ECC", self.ecc_ns as f64 / total),
            ("In-LUN compute", self.compute_ns as f64 / total),
            ("DRAM access", self.dram_ns as f64 / total),
            ("Embedded cores", self.embedded_ns as f64 / total),
            ("Allocating", self.allocating_ns as f64 / total),
            ("Channel bus", self.bus_ns as f64 / total),
            ("Bitonic (FPGA)", self.bitonic_ns as f64 / total),
            ("SSD I/O (PCIe)", self.pcie_ns as f64 / total),
            ("Flash program/erase", self.program_ns as f64 / total),
            ("Flash rerank", self.rerank_ns as f64 / total),
        ]
    }
}

/// Full result of simulating one batch on NDSEARCH.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NdsReport {
    /// Batch size simulated.
    pub queries: usize,
    /// Total visited vertices (trace length).
    pub trace_len: u64,
    /// End-to-end latency of the batch.
    pub total_ns: Nanos,
    /// Where the time went.
    pub breakdown: LatencyBreakdown,
    /// Flash access statistics.
    pub stats: FlashStats,
    /// Speculative-searching accounting.
    pub speculation: SpeculationStats,
    /// Distinct LUNs touched / total LUNs (Fig. 4b).
    pub lun_coverage: f64,
    /// Search iterations executed (engine rounds).
    pub iterations: usize,
    /// Sub-batches the batch was split into (resource cap, Fig. 19).
    pub sub_batches: usize,
    /// Online block-level refreshes performed by the FTL during the run
    /// (0 unless `refresh_read_threshold` is enabled).
    pub refreshes: u64,
}

impl NdsReport {
    /// Throughput in queries per second.
    pub fn qps(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.queries as f64 / (self.total_ns as f64 / 1e9)
        }
    }

    /// Page accesses per visited vertex (the page access ratio of Fig. 14).
    pub fn page_access_ratio(&self) -> f64 {
        self.stats.page_access_ratio(self.trace_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_fractions() {
        let b = LatencyBreakdown {
            nand_read_ns: 60,
            dram_ns: 20,
            pcie_ns: 20,
            ..LatencyBreakdown::default()
        };
        assert_eq!(b.total_ns(), 100);
        let f = b.fractions();
        assert!((f[0].1 - 0.6).abs() < 1e-12);
        let sum: f64 = f.iter().map(|(_, x)| x).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyBreakdown {
            nand_read_ns: 5,
            ..LatencyBreakdown::default()
        };
        a.merge(&LatencyBreakdown {
            nand_read_ns: 7,
            bitonic_ns: 3,
            ..LatencyBreakdown::default()
        });
        assert_eq!(a.nand_read_ns, 12);
        assert_eq!(a.bitonic_ns, 3);
    }

    #[test]
    fn latency_summary_percentiles_are_nearest_rank() {
        let samples: Vec<Nanos> = (1..=100).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
        // Order must not matter.
        let mut rev = samples.clone();
        rev.reverse();
        assert_eq!(LatencySummary::from_samples(&rev), s);
        // Degenerate cases.
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
        let one = LatencySummary::from_samples(&[7]);
        assert_eq!(one.p50_ns, 7);
        assert_eq!(one.p99_ns, 7);
    }

    #[test]
    fn tenant_rollup_counts_and_fairness() {
        let mk = |tenant: u32, completed: bool, latency_ns: Nanos, shed: bool| TenantSample {
            tenant,
            completed,
            expired: !completed && !shed,
            rejected: shed,
            shed,
            has_deadline: true,
            latency_ns,
        };
        let samples = vec![
            mk(1, true, 100, false),
            mk(1, true, 300, false),
            mk(1, false, 0, true),
            mk(0, true, 100, false),
        ];
        let ts = summarize_tenants(&samples);
        assert_eq!(ts.len(), 2);
        assert_eq!((ts[0].tenant, ts[1].tenant), (0, 1), "ascending tenant id");
        assert_eq!(ts[1].submitted, 3);
        assert_eq!(ts[1].completed, 2);
        assert_eq!(ts[1].shed, 1);
        assert_eq!(ts[1].deadline_total, 3);
        assert_eq!(ts[1].deadline_met, 2);
        assert!((ts[1].slo_attainment() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ts[1].latency.count, 2);
        assert_eq!(ts[0].slo_attainment(), 1.0);
        // p99s are 100 (tenant 0) and 300 (tenant 1): max/mean = 1.5.
        assert!((tenant_p99_fairness(&ts) - 1.5).abs() < 1e-12);
        assert_eq!(tenant_p99_fairness(&ts[..1]), 1.0);
        assert_eq!(tenant_p99_fairness(&[]), 1.0);
    }

    #[test]
    fn qps_math() {
        let r = NdsReport {
            queries: 1000,
            total_ns: 1_000_000_000,
            ..NdsReport::default()
        };
        assert!((r.qps() - 1000.0).abs() < 1e-9);
        assert_eq!(NdsReport::default().qps(), 0.0);
    }
}
