//! From a trial's reports to the ledger's simulated-clock numbers, and
//! the correctness checks every run makes before it prints anything.

use ndsearch_anns::beam::{beam_search, VisitedSet};
use ndsearch_anns::index::GraphAnnsIndex;
use ndsearch_core::report::LatencyBreakdown;
use ndsearch_core::serve::SessionState;
use ndsearch_core::traffic::{EventKind, Submitted};
use ndsearch_flash::stats::FlashStats;
use ndsearch_vector::recall::recall_single;
use ndsearch_vector::{ground_truth, DistanceKind, VectorId};

use crate::stats::{highest_supported_percentile, percentile_sorted};
use crate::workloads::{Body, Kind, Outcome, Staged, Trial, BEAM_WIDTH, K};

/// Exact top-`K` of every pool query over the base vectors.
pub fn pool_ground_truth(st: &Staged) -> Vec<Vec<VectorId>> {
    ground_truth(&st.base, &st.pool, K, DistanceKind::L2)
}

/// What one trial did, on the simulated clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimSummary {
    pub sent: usize,
    pub completed: usize,
    pub rejected: usize,
    pub expired: usize,
    pub sheds: usize,
    pub updates_sent: usize,
    pub updates_completed: usize,
    pub updates_rejected: usize,
    pub qps: f64,
    pub update_qps: f64,
    pub makespan_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Latency samples behind the percentiles (completed queries).
    pub samples: usize,
    /// Highest percentile (tenths of a percent) with at least ten
    /// samples beyond it.
    pub supported_percentile: usize,
    pub queue_wait_p99_ns: u64,
    pub recall: f64,
    pub hops: u64,
    pub breakdown: LatencyBreakdown,
    pub flash: FlashStats,
    pub lun_coverage: f64,
}

impl SimSummary {
    pub fn operations(&self) -> usize {
        self.sent + self.updates_sent
    }

    pub fn failed(&self) -> usize {
        self.rejected + self.expired + self.updates_rejected
    }

    /// Queries completed (by their deadline) over queries sent: 1 unless
    /// the trial rejected or expired one.
    pub fn slo_attainment(&self) -> f64 {
        self.completed as f64 / self.sent.max(1) as f64
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.operations().max(1) as f64
    }
}

fn ids(results: &[ndsearch_vector::topk::Neighbor]) -> Vec<VectorId> {
    results.iter().map(|nb| nb.id).collect()
}

/// `(query id, pool row, k)` of every query event, in trace order.
fn query_events(st: &Staged, submitted: &[Submitted]) -> Vec<(usize, VectorId, usize)> {
    st.trace
        .events
        .iter()
        .zip(submitted)
        .filter_map(|(event, sub)| match (&event.kind, sub) {
            (EventKind::Query { pool_id, k, .. }, Submitted::Query(id)) => {
                Some((*id, *pool_id, k.unwrap_or(K)))
            }
            _ => None,
        })
        .collect()
}

/// Summarizes a trial. `truth` is [`pool_ground_truth`].
pub fn summarize(st: &Staged, trial: &Trial, truth: &[Vec<VectorId>]) -> SimSummary {
    let mut latencies: Vec<u64> = Vec::new();
    let mut waits: Vec<u64> = Vec::new();
    let mut recall_sum = 0.0;
    let mut recall_n = 0usize;
    let mut score = |pool_id: VectorId, found: &[VectorId], k: usize| {
        recall_sum += recall_single(&truth[pool_id as usize], found, k);
        recall_n += 1;
    };
    let mut s = match &trial.outcome {
        Outcome::Serve(r) => {
            for (qid, pool_id, k) in query_events(st, &trial.submitted) {
                let o = &r.outcomes[qid];
                if o.state == SessionState::Completed {
                    latencies.push(if st.kind.closed_loop() {
                        o.completed_ns - o.admitted_ns
                    } else {
                        o.latency_ns()
                    });
                    waits.push(o.queue_wait_ns());
                    score(pool_id, &ids(&o.results), k);
                }
            }
            // The device buckets of mixed_rw include the closing
            // compaction; everything else is read before it.
            let device = trial.compaction.as_ref().map_or(r, |c| &c.after);
            SimSummary {
                sent: r.outcomes.len(),
                completed: r.completed(),
                rejected: r.rejected(),
                expired: r.expired(),
                sheds: r.sheds(),
                updates_sent: r.update_outcomes.len(),
                updates_completed: r.updates_completed(),
                updates_rejected: r.updates_rejected(),
                qps: r.qps(),
                update_qps: r.update_qps(),
                makespan_ns: r.makespan_ns,
                hops: r.outcomes.iter().map(|o| o.hops as u64).sum(),
                breakdown: device.breakdown,
                flash: device.stats,
                lun_coverage: device.lun_coverage,
                ..SimSummary::default()
            }
        }
        Outcome::Cluster(r) => {
            for (qid, pool_id, k) in query_events(st, &trial.submitted) {
                let o = &r.outcomes[qid];
                if o.state == SessionState::Completed {
                    latencies.push(o.latency_ns());
                    score(pool_id, &ids(&o.results), k);
                }
            }
            let mut breakdown = LatencyBreakdown::default();
            let mut flash = FlashStats::new();
            let mut coverage = 0.0;
            let mut devices = 0usize;
            for replica in r.shards.iter().flat_map(|s| &s.replicas) {
                breakdown.merge(&replica.report.breakdown);
                flash.merge(&replica.report.stats);
                coverage += replica.report.lun_coverage;
                devices += 1;
            }
            SimSummary {
                sent: r.outcomes.len(),
                completed: r.completed(),
                rejected: r.rejected(),
                expired: r.expired(),
                sheds: r.sheds(),
                updates_sent: r.update_outcomes.len(),
                updates_completed: r.updates_completed(),
                updates_rejected: r.updates_rejected(),
                qps: r.qps(),
                makespan_ns: r.makespan_ns,
                hops: r.shards.iter().map(|s| s.hops as u64).sum(),
                breakdown,
                flash,
                lun_coverage: coverage / devices.max(1) as f64,
                ..SimSummary::default()
            }
        }
        Outcome::Batch(r) => {
            let Body::Batch {
                found, prepared, ..
            } = &st.body
            else {
                unreachable!("a batch outcome comes from the batch workload");
            };
            for (i, found) in found.iter().enumerate() {
                score(i as VectorId, found, K);
            }
            // A batch completes as one unit: every query's latency is
            // the batch makespan.
            latencies = vec![r.total_ns; r.queries];
            SimSummary {
                sent: r.queries,
                completed: r.queries,
                qps: r.qps(),
                makespan_ns: r.total_ns,
                hops: prepared.trace.queries.iter().map(|q| q.len() as u64).sum(),
                breakdown: r.breakdown,
                flash: r.stats,
                lun_coverage: r.lun_coverage,
                ..SimSummary::default()
            }
        }
    };
    latencies.sort_unstable();
    waits.sort_unstable();
    s.samples = latencies.len();
    s.supported_percentile = highest_supported_percentile(latencies.len());
    s.p50_ns = percentile_sorted(&latencies, 500);
    s.p99_ns = percentile_sorted(&latencies, 990);
    s.queue_wait_p99_ns = percentile_sorted(&waits, 990);
    s.recall = if recall_n == 0 {
        0.0
    } else {
        recall_sum / recall_n as f64
    };
    s
}

/// Collects failed correctness checks; the run is `correct` iff none.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks on one trial's outputs: accounting closure, the recall floor,
/// `closed_fp32` parity with the sequential search, and the `mixed_rw`
/// probe. A rejected or expired request is an outcome the engine accounts
/// for, not a wrong output: it lowers `slo_attainment` and is counted in
/// the result line's `failed`, and the run stays correct.
pub fn check_trial(st: &Staged, trial: &Trial, sim: &SimSummary, checks: &mut Checks) {
    let name = st.kind.name();
    checks.require(sim.sent == sim.completed + sim.rejected + sim.expired, || {
        format!(
            "{name}: query accounting does not close: sent {} != completed {} + rejected {} + expired {}",
            sim.sent, sim.completed, sim.rejected, sim.expired
        )
    });
    checks.require(
        sim.updates_sent == sim.updates_completed + sim.updates_rejected,
        || {
            format!(
                "{name}: update accounting does not close: sent {} != completed {} + rejected {}",
                sim.updates_sent, sim.updates_completed, sim.updates_rejected
            )
        },
    );
    checks.require(sim.operations() == trial.ops, || {
        format!(
            "{name}: {} operations reported for {} submitted",
            sim.operations(),
            trial.ops
        )
    });
    // mixed_rw's trace recall is taken while the corpus mutates under
    // it; its floor applies to the probe after the trace drains.
    if st.kind != Kind::MixedRw {
        checks.require(sim.recall >= st.kind.recall_floor(), || {
            format!(
                "{name}: recall {:.4} below the floor {}",
                sim.recall,
                st.kind.recall_floor()
            )
        });
    }
    if let Some(probe) = &trial.probe {
        checks.require(probe.completed == probe.queries, || {
            format!(
                "{name}: probe completed {} of {}",
                probe.completed, probe.queries
            )
        });
        checks.require(probe.recall >= st.kind.recall_floor(), || {
            format!(
                "{name}: probe recall {:.4} below the floor {}",
                probe.recall,
                st.kind.recall_floor()
            )
        });
        checks.require(probe.tombstoned_results == 0, || {
            format!(
                "{name}: {} probe results name a tombstoned vertex",
                probe.tombstoned_results
            )
        });
    }
    if st.kind == Kind::ClosedFp32 {
        check_sequential_parity(st, trial, checks);
    }
}

/// `closed_fp32`: every query's top-k equals a sequential `beam_search`
/// of the same query (interleaving changes when a hop runs, never what
/// it finds).
fn check_sequential_parity(st: &Staged, trial: &Trial, checks: &mut Checks) {
    let (Body::Serve { index, .. }, Outcome::Serve(report)) = (&st.body, &trial.outcome) else {
        return;
    };
    let mut visited = VisitedSet::new(st.base.len());
    let sequential: Vec<Vec<VectorId>> = st
        .pool
        .iter()
        .map(|(_, q)| {
            let mut found = beam_search(
                &st.base,
                index.base_graph(),
                q,
                &[index.medoid()],
                BEAM_WIDTH,
                DistanceKind::L2,
                &mut visited,
            )
            .found;
            found.truncate(K);
            ids(&found)
        })
        .collect();
    let diverged = query_events(st, &trial.submitted)
        .into_iter()
        .filter(|&(qid, pool_id, _)| {
            ids(&report.outcomes[qid].results) != sequential[pool_id as usize]
        })
        .count();
    checks.require(diverged == 0, || {
        format!("closed_fp32: {diverged} queries diverged from the sequential beam_search")
    });
}

/// Every repeated trial — at either thread count — must reproduce the
/// first one's simulated outputs exactly.
pub fn check_same_outputs(
    kind: Kind,
    first: &Trial,
    other: &Trial,
    threads: usize,
    checks: &mut Checks,
) {
    let same = first.outcome == other.outcome
        && first.compaction.as_ref().map(|c| (&c.report, &c.after))
            == other.compaction.as_ref().map(|c| (&c.report, &c.after));
    checks.require(same, || {
        format!(
            "{}: a trial at exec_threads = {threads} produced a different report than the first trial",
            kind.name()
        )
    });
}
