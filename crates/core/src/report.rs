//! Simulation reports: latency breakdown, statistics, throughput, and the
//! order statistics (p50/p99) the serving layer reports per query.
//!
//! Both serving reports — [`ServeReport`](crate::serve::ServeReport) for
//! one device and [`ClusterReport`](crate::cluster::ClusterReport) for a
//! scatter–gather cluster — hold one [`QueryOutcome`] per query and one
//! [`UpdateOutcome`] per update, and derive their roll-ups (counts, QPS,
//! latency order statistics, SLO attainment, per-tenant summaries) from
//! those records with the one set of bodies in this module.
//!
//! Every quantity here is on the simulated clock or counts simulated
//! work; none is a host measurement, so equal configurations give `==`
//! reports. How long the simulator takes on the host is the `perf_ledger`
//! benchmark's business (`host_us_per_op`).

use std::collections::BTreeMap;

use ndsearch_flash::stats::FlashStats;
use ndsearch_flash::timing::Nanos;

use crate::serve::{QueryOutcome, SessionState, UpdateOutcome};
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
}

impl LatencySummary {
    /// Summarizes `samples` (order irrelevant; an empty slice yields the
    /// all-zero summary).
    pub(crate) fn from_samples(samples: &[Nanos]) -> Self {
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
        }
    }
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

/// How many of the query `outcomes` are in `state`.
pub(crate) fn queries_in(outcomes: &[QueryOutcome], state: SessionState) -> usize {
    outcomes.iter().filter(|o| o.state == state).count()
}

/// How many of the update `outcomes` are in `state`.
pub(crate) fn updates_in(outcomes: &[UpdateOutcome], state: SessionState) -> usize {
    outcomes.iter().filter(|o| o.state == state).count()
}

/// `count` per second of `makespan_ns` (0 over an empty makespan).
pub(crate) fn per_second(count: usize, makespan_ns: Nanos) -> f64 {
    if makespan_ns == 0 {
        0.0
    } else {
        count as f64 / (makespan_ns as f64 / 1e9)
    }
}

/// Latency order statistics over the completed `outcomes`.
pub(crate) fn latency(outcomes: &[QueryOutcome]) -> LatencySummary {
    let samples: Vec<Nanos> = outcomes
        .iter()
        .filter(|o| o.state == SessionState::Completed)
        .map(QueryOutcome::latency_ns)
        .collect();
    LatencySummary::from_samples(&samples)
}

/// The fraction of the deadline-carrying `outcomes` that completed on
/// time; `1.0` when none carried a deadline. Best-effort queries count
/// neither way.
pub(crate) fn slo_attainment(outcomes: &[QueryOutcome]) -> f64 {
    let with_deadline = outcomes.iter().filter(|o| o.deadline_ns.is_some());
    let (total, met) = with_deadline.fold((0usize, 0usize), |(total, met), o| {
        (total + 1, met + usize::from(o.on_time()))
    });
    if total == 0 {
        1.0
    } else {
        met as f64 / total as f64
    }
}

/// Groups `outcomes` by tenant id (ascending) and rolls each group up
/// into a [`TenantSummary`].
pub(crate) fn summarize_tenants(outcomes: &[QueryOutcome]) -> Vec<TenantSummary> {
    let mut by_tenant: BTreeMap<u32, (TenantSummary, Vec<Nanos>)> = BTreeMap::new();
    for o in outcomes {
        let (summary, lats) = by_tenant.entry(o.tenant).or_insert_with(|| {
            let summary = TenantSummary {
                tenant: o.tenant,
                ..TenantSummary::default()
            };
            (summary, Vec::new())
        });
        let completed = o.state == SessionState::Completed;
        let has_deadline = o.deadline_ns.is_some();
        summary.submitted += 1;
        summary.completed += usize::from(completed);
        summary.expired += usize::from(o.state == SessionState::Expired);
        summary.rejected += usize::from(o.state == SessionState::Rejected);
        summary.shed += usize::from(o.shed);
        summary.deadline_total += usize::from(has_deadline);
        summary.deadline_met += usize::from(has_deadline && completed);
        if completed {
            lats.push(o.latency_ns());
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

/// Expands, inside the `impl` of a report with `outcomes`,
/// `update_outcomes` and `makespan_ns` fields, to the roll-ups
/// over those records: inherent methods, so a caller needs no trait in
/// scope, each a call to its one body in this module.
macro_rules! rollups {
    () => {
        /// Queries that completed (a gathered query: on every shard).
        pub fn completed(&self) -> usize {
            crate::report::queries_in(&self.outcomes, crate::serve::SessionState::Completed)
        }

        /// Queries rejected: queue overflow, a malformed request or a
        /// shed before admission (a gathered query: on any shard).
        pub fn rejected(&self) -> usize {
            crate::report::queries_in(&self.outcomes, crate::serve::SessionState::Rejected)
        }

        /// Queries cut off at their deadline or shed in flight (a
        /// gathered query: on any shard).
        pub fn expired(&self) -> usize {
            crate::report::queries_in(&self.outcomes, crate::serve::SessionState::Expired)
        }

        /// Goodput: completed queries per second of makespan.
        pub fn qps(&self) -> f64 {
            crate::report::per_second(self.completed(), self.makespan_ns)
        }

        /// Latency order statistics over completed queries.
        pub fn latency(&self) -> crate::report::LatencySummary {
            crate::report::latency(&self.outcomes)
        }

        /// Updates applied to completion.
        pub fn updates_completed(&self) -> usize {
            let completed = crate::serve::SessionState::Completed;
            crate::report::updates_in(&self.update_outcomes, completed)
        }

        /// Updates rejected (routing, backpressure, shape mismatch, a
        /// missing vertex or an immutable deployment).
        pub fn updates_rejected(&self) -> usize {
            let rejected = crate::serve::SessionState::Rejected;
            crate::report::updates_in(&self.update_outcomes, rejected)
        }

        /// Queries terminated by a
        /// [`SloPolicy::ShedDoomed`](crate::serve::SloPolicy::ShedDoomed)
        /// decision.
        pub fn sheds(&self) -> usize {
            self.outcomes.iter().filter(|o| o.shed).count()
        }

        /// SLO attainment: the fraction of deadline-carrying queries
        /// that completed on time; `1.0` when none carried a deadline.
        pub fn slo_attainment(&self) -> f64 {
            crate::report::slo_attainment(&self.outcomes)
        }

        /// Per-tenant roll-ups (counts, attainment, latency), ascending
        /// by tenant id.
        pub fn tenant_summaries(&self) -> Vec<crate::report::TenantSummary> {
            crate::report::summarize_tenants(&self.outcomes)
        }

        /// Fairness metric: max over mean of the per-tenant p99 latencies
        /// (see [`tenant_p99_fairness`](crate::report::tenant_p99_fairness)).
        pub fn tenant_p99_fairness(&self) -> f64 {
            crate::report::tenant_p99_fairness(&self.tenant_summaries())
        }
    };
}
pub(crate) use rollups;

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
        let mk =
            |tenant: u32, state: SessionState, latency_ns: Nanos, deadline: bool| QueryOutcome {
                id: 0,
                state,
                arrival_ns: 1_000,
                admitted_ns: 1_000,
                completed_ns: 1_000 + latency_ns,
                hops: 0,
                rounds_inflight: 0,
                results: Vec::new(),
                tenant,
                deadline_ns: deadline.then_some(5_000),
                shed: false,
            };
        let shed = QueryOutcome {
            shed: true,
            ..mk(1, SessionState::Rejected, 0, true)
        };
        let outcomes = vec![
            mk(1, SessionState::Completed, 100, true),
            mk(1, SessionState::Completed, 300, true),
            shed,
            mk(0, SessionState::Completed, 100, true),
            // Best effort: its expiry is no SLO miss.
            mk(0, SessionState::Expired, 9_000, false),
        ];
        let count = |state| queries_in(&outcomes, state);
        assert_eq!(count(SessionState::Completed), 3);
        assert_eq!(
            (count(SessionState::Rejected), count(SessionState::Expired)),
            (1, 1)
        );
        assert!((slo_attainment(&outcomes) - 3.0 / 4.0).abs() < 1e-12);
        assert_eq!(slo_attainment(&outcomes[4..]), 1.0);
        assert!((per_second(3, 2_000_000_000) - 1.5).abs() < 1e-12);
        assert_eq!(per_second(3, 0), 0.0);
        assert_eq!(latency(&outcomes).p99_ns, 300);
        let ts = summarize_tenants(&outcomes);
        assert_eq!(ts.len(), 2);
        assert_eq!((ts[0].tenant, ts[1].tenant), (0, 1), "ascending tenant id");
        assert_eq!(ts[1].submitted, 3);
        assert_eq!(ts[1].completed, 2);
        assert_eq!((ts[1].shed, ts[1].rejected), (1, 1));
        assert_eq!(ts[1].deadline_total, 3);
        assert_eq!(ts[1].deadline_met, 2);
        assert!((ts[1].slo_attainment() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ts[1].latency.count, 2);
        assert_eq!(
            (ts[0].submitted, ts[0].expired, ts[0].deadline_total),
            (2, 1, 1)
        );
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
