//! The ledger's vocabulary: every workload and metric name, with unit,
//! direction, bound and — for per-layer metrics — the end-to-end metric
//! and workload each one is expected to move. `BENCHMARK.json` at the
//! repository root is written by hand from these tables (a unit test
//! keeps the two equal); later changes claim gains against these names.

/// Which clock a metric is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated device time and counts: deterministic for a fixed seed,
    /// so two commits compare exactly.
    Sim,
    /// Host wall-clock (or host memory): noisy, reported as a median.
    Host,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: a set of inputs the benchmark runs.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub why: &'static str,
    /// Load shape and sizes, for `--list` and the README.
    pub load: &'static str,
}

/// An end-to-end metric: what a user of the system would see. Reported by
/// every workload's untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// `BENCHMARK.json` bound, for the harness that gates pull requests:
    /// the share of the parent's median by which the metric may worsen
    /// over runs of *different* seeds. It has to be at least three times
    /// the spread over ten seeds (different datasets and graphs; for host
    /// metrics also minutes of host drift between runs), so it is far
    /// wider than a change deserves. Measured spreads are in the README.
    pub bound: f64,
    /// What `--compare` holds two result sets of the *same* seeds to, as
    /// a share of the baseline: simulated metrics repeat exactly for a
    /// seed, so this is the tight gate a change is judged by.
    pub same_seed: f64,
    pub definition: &'static str,
}

/// A metric of a single layer, reported by the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The module (or modelled SearSSD component) it measures.
    pub layer: &'static str,
    /// Workloads that exercise the layer; elsewhere the layer is idle
    /// and the metric reads 0. Empty = every workload.
    pub on: &'static [&'static str],
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "closed_fp32",
        why: "closed loop, 64 slots, full-precision rows read from NAND every hop: the paper's data path (beam hop, distance, alloc, sin, ecc); quant, writes, cluster and queueing idle",
        load: "n=8000 sift-like 128-d, Vamana, k=10, beam 64; 3000 uniform queries from a 1000-query pool backlogged at t=0, 64 slots, no deadlines",
    },
    WorkloadSpec {
        name: "closed_int8",
        why: "same load with int8 codes in DRAM and exact rerank (depth 32): hops score codes and never touch sin/ecc, so a per-hop flash optimisation must move closed_fp32 and not this",
        load: "as closed_fp32 with QuantSpec::Int8, rerank_depth 32",
    },
    WorkloadSpec {
        name: "open_zipf",
        why: "open loop, Poisson arrivals, Zipf 0.99 hot queries, two tenants, 20 ms deadline: the only workload with queueing, partly-empty rounds and shared entry-zone pages; attainment is taken past the knee",
        load: "n=8000; 4000 events at the reference rate 12000/s (throughput, latency, host cost) and once more at the overload rate 24000/s (slo_attainment), Zipf 0.99 over a 1000-query pool, tenants 0/1 weight 3:1 with k 10/4, 20 ms deadline, 64 slots, queue 256; traced run adds the rate ladder 8000..24000/s",
    },
    WorkloadSpec {
        name: "mixed_rw",
        why: "open loop with 30 % updates on a mutable deployment, then a compaction: the write path (Vamana insert, RobustPrune repair, FTL program/erase) beside reads, so a read gain that taxes writes shows",
        load: "n=8000; Poisson 4000 ev/s, 3000 events, 30 % updates (70 % insert / 30 % delete), 4000-row ingest pool, one compact(), then a 256-query recall probe",
    },
    WorkloadSpec {
        name: "cluster_4x2",
        why: "4 shards x 2 replicas, hedged routing, an ECC storm on one replica and a mid-run kill: scatter-gather, failover and the shared exec pool; each query waits for its slowest shard",
        load: "n=8000 split BalancedSize into 4 shards x 2 replicas, Hedged{4 ms}; Poisson 3000 q/s, 1000 queries; healthy devices fail no hard decode, ECC storm p=0.9 with 200 us soft decodes on shard 0 replica 0 from t=0, shard 1 replica 0 killed at mid-span",
    },
    WorkloadSpec {
        name: "paper_batch",
        why: "one closed batch of 1024 recorded traces replayed by NdsEngine under the full scheduling stack: the only path through core::engine, vgen, speculative search and the ablation ladder",
        load: "n=8000; 1024 queries searched with search_batch to record traces, staged by Prepared::stage, replayed by NdsEngine::run under SchedulingConfig::full()",
    },
];

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        clock: Clock::Host,
        bound: 0.25,
        same_seed: 0.10,
        definition: "dataset generation + index build(s) + quantizer training + Prepared/Deployment/ClusterEngine staging before the first timed trial; median of 3 set-ups (ground truth is not in it: bench.ground_truth_s)",
    },
    EndToEnd {
        name: "sim_qps",
        unit: "1/s",
        better: Better::Higher,
        clock: Clock::Sim,
        bound: 0.25,
        same_seed: 0.01,
        definition: "completed queries / simulated makespan (ServeReport::qps, ClusterReport::qps, NdsReport::qps)",
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "ms",
        better: Better::Lower,
        clock: Clock::Sim,
        bound: 0.25,
        same_seed: 0.01,
        definition: "median simulated latency of completed queries: arrival->completion on open loops, admission->completion on closed loops; the batch makespan on paper_batch (a batch completes as one unit)",
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "ms",
        better: Better::Lower,
        clock: Clock::Sim,
        bound: 0.25,
        same_seed: 0.01,
        definition: "same at p99 (every workload completes >= 1000 queries per trial, so >= 10 samples lie beyond it)",
    },
    EndToEnd {
        name: "recall_at_10",
        unit: "ratio",
        better: Better::Higher,
        clock: Clock::Sim,
        bound: 0.02,
        same_seed: 0.005,
        definition: "recall of returned ids against brute force (vector::recall), each query at its own k (10; 4 for tenant 1 of open_zipf)",
    },
    EndToEnd {
        name: "slo_attainment",
        unit: "ratio",
        better: Better::Higher,
        clock: Clock::Sim,
        bound: 0.20,
        same_seed: 0.005,
        definition: "queries Completed (i.e. by their deadline) / queries sent; rejected, expired and shed queries are misses. open_zipf takes it at the overload rate 24000/s, past the knee; the other workloads set no deadline, so it reads 1 there unless a query is rejected",
    },
    EndToEnd {
        name: "host_us_per_op",
        unit: "us",
        better: Better::Lower,
        clock: Clock::Host,
        bound: 0.25,
        same_seed: 0.10,
        definition: "wall-clock of one trial (submit every request + run to completion, exec_threads = 1) / operations submitted; median over the trials that fit in --seconds (at least 9)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        clock: Clock::Host,
        bound: 0.10,
        same_seed: 0.10,
        definition: "VmHWM from /proc/self/status at the end of the untraced run",
    },
];

const ALL: &[&str] = &[];
const FP32: &[&str] = &[
    "closed_fp32",
    "open_zipf",
    "mixed_rw",
    "cluster_4x2",
    "paper_batch",
];
const INT8: &[&str] = &["closed_int8"];
const SERVING: &[&str] = &[
    "closed_fp32",
    "closed_int8",
    "open_zipf",
    "mixed_rw",
    "cluster_4x2",
];
const STEPPED: &[&str] = &["closed_fp32", "closed_int8", "open_zipf", "mixed_rw"];
const OPEN: &[&str] = &["open_zipf", "mixed_rw", "cluster_4x2"];
const ZIPF: &[&str] = &["open_zipf"];
const MIXED: &[&str] = &["mixed_rw"];
const CLUSTER: &[&str] = &["cluster_4x2"];
const BATCH: &[&str] = &["paper_batch"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    on: &'static [&'static str],
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        on,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // ---- Workload-specific end-to-end numbers. They are what a user
    // sees, but each exists on one workload only (or is 0 by design),
    // and an end-to-end metric of BENCHMARK.json must be reported, and
    // non-zero, on every workload — so they are carried here.
    layer("failed_share", "ratio", Lower, "end-to-end", SERVING, "itself: (queries rejected + expired + updates rejected) / operations attempted; on open_zipf at the overload rate, like slo_attainment"),
    layer("max_rate_in_slo_qps", "1/s", Higher, "end-to-end", ZIPF, "itself: highest ladder rate with p99 <= 10 ms, attainment >= 0.99 and an empty queue at the last arrival"),
    layer("sim_update_qps", "1/s", Higher, "end-to-end", MIXED, "itself: completed updates / simulated makespan"),
    layer("write_amplification", "ratio", Lower, "end-to-end", MIXED, "itself: flash bytes programmed / user bytes inserted, closing compaction included"),
    layer("bench.ground_truth_s", "s", Lower, "bench", ALL, "none (brute-force ground truth, kept out of setup_s)"),
    // ---- vector
    layer("vector.synthetic.build_s", "s", Lower, "vector::synthetic", ALL, "setup_s (small share)"),
    layer("vector.distance.ns_per_point", "ns", Lower, "vector::distance", FP32, "host_us_per_op on fp32 workloads; none on closed_int8"),
    layer("vector.quant.ns_per_code", "ns", Lower, "vector::quant", INT8, "host_us_per_op on closed_int8 only"),
    layer("vector.quant.train_s", "s", Lower, "vector::quant", INT8, "setup_s on closed_int8 only"),
    // ---- anns
    layer("anns.vamana.build_s", "s", Lower, "anns::vamana", ALL, "setup_s everywhere (most of it)"),
    layer("anns.vamana.build_us_per_vector", "us", Lower, "anns::vamana", ALL, "setup_s everywhere"),
    layer("anns.vamana.insert_us", "us", Lower, "anns::vamana", MIXED, "host_us_per_op on mixed_rw"),
    layer("anns.beam.ns_per_hop", "ns", Lower, "anns::beam", FP32, "host_us_per_op on fp32 workloads"),
    layer("anns.beam.ns_per_hop_int8", "ns", Lower, "anns::beam", INT8, "host_us_per_op on closed_int8"),
    layer("anns.beam.hops_per_query", "count", Lower, "anns::beam", ALL, "sim_qps, sim_p50_ms everywhere (rounds per query = hops)"),
    layer("anns.beam.fetched_per_hop", "count", Lower, "anns::beam", ALL, "sim_qps, sim_p50_ms everywhere"),
    layer("anns.trace.search_batch_s", "s", Lower, "anns::trace", BATCH, "setup_s on paper_batch"),
    // ---- core: staging and the per-round pipeline
    layer("core.pipeline.stage_s", "s", Lower, "core::pipeline", ALL, "setup_s"),
    layer("core.vgen.ns_per_triple", "ns", Lower, "core::vgen", FP32, "host_us_per_op on fp32 workloads and paper_batch"),
    layer("core.alloc.ns_per_task", "ns", Lower, "core::alloc", FP32, "host_us_per_op on fp32 workloads and paper_batch"),
    layer("core.sin.ns_per_unit", "ns", Lower, "core::sin", FP32, "host_us_per_op on closed_fp32, open_zipf, paper_batch; none on closed_int8"),
    layer("core.sin.ns_per_task", "ns", Lower, "core::sin", FP32, "host_us_per_op on fp32 workloads"),
    layer("core.sin.ns_per_unit_storm", "ns", Lower, "core::sin", FP32, "host_us_per_op on cluster_4x2 (stormed replica)"),
    layer("core.sin.page_hit_ratio", "ratio", Higher, "core::sin", FP32, "sim_qps, sim_p99_ms on open_zipf (shared entry-zone pages)"),
    layer("flash.ecc.ns_per_decode", "ns", Lower, "flash::ecc", FP32, "host_us_per_op on fp32 workloads"),
    layer("flash.ecc.soft_fallback_ratio", "ratio", Lower, "flash::ecc", FP32, "sim_p99_ms on cluster_4x2 (storm)"),
    layer("core.exec.dispatch_us_per_round_1t", "us", Lower, "core::exec", ALL, "host_us_per_op"),
    layer("core.exec.dispatch_us_per_round_2t", "us", Lower, "core::exec", ALL, "core.exec.host_us_per_op_2t everywhere: dispatch x rounds / ops is the floor of (2t - 1t)"),
    // host_us_per_op at exec_threads = 2 (= nproc on the reference host).
    // Demoted from the end-to-end list: with three runnable threads on two
    // cores it does not repeat within 10 % (two cluster_4x2 trials of one
    // run: 3.6 and 6.1 ms/op), and a wider bound would gate nothing.
    layer("core.exec.host_us_per_op_2t", "us", Lower, "core::exec", ALL, "itself: host_us_per_op with the round executor's pool at 2 threads (ROADMAP item 2's target)"),
    // ---- core::serve
    layer("core.serve.rounds", "count", Lower, "core::serve", SERVING, "sim_qps, host_us_per_op (scheduling rounds stepped; the `round` spans)"),
    layer("core.serve.hop_rounds", "count", Lower, "core::serve", SERVING, "sim_qps (ServeReport::rounds: rounds that executed at least one hop)"),
    layer("core.serve.host_us_per_round_p50", "us", Lower, "core::serve", STEPPED, "host_us_per_op"),
    layer("core.serve.host_us_per_round_p99", "us", Lower, "core::serve", STEPPED, "host_us_per_op"),
    layer("core.serve.sim_us_per_round", "us", Lower, "core::serve", SERVING, "sim_qps, sim_p50_ms"),
    layer("core.serve.hops_per_round", "count", Higher, "core::serve", SERVING, "sim_qps (round occupancy)"),
    layer("core.serve.submit_ns_per_req", "ns", Lower, "core::serve", SERVING, "host_us_per_op (small)"),
    layer("core.serve.report_ms", "ms", Lower, "core::serve", SERVING, "host_us_per_op (small)"),
    layer("core.serve.peak_inflight", "count", Higher, "core::serve", SERVING, "sim_qps"),
    layer("core.serve.queue_wait_p99_ms", "ms", Lower, "core::serve", SERVING, "sim_p99_ms on open_zipf; ~0 elsewhere"),
    layer("core.serve.rejected", "count", Lower, "core::serve", SERVING, "slo_attainment"),
    layer("core.serve.expired", "count", Lower, "core::serve", SERVING, "slo_attainment"),
    layer("core.serve.sheds", "count", Lower, "core::serve", SERVING, "slo_attainment"),
    layer("core.serve.tenant_p99_fairness", "ratio", Lower, "core::serve", SERVING, "sim_p99_ms on open_zipf"),
    layer("core.serve.shed_attainment_gain", "ratio", Higher, "core::serve", ZIPF, "slo_attainment on open_zipf (ShedDoomed{2 ms} minus None at 24000/s)"),
    layer("core.serve.unattributed_share", "ratio", Lower, "core::serve", ALL, "host_us_per_op: 1 - sum(layer count x layer unit cost) / serving host time"),
    // ---- core::traffic
    layer("core.traffic.generate_us_per_event", "us", Lower, "core::traffic", OPEN, "setup_s (small)"),
    layer("core.traffic.submit_us_per_event", "us", Lower, "core::traffic", OPEN, "host_us_per_op on the open-loop workloads (small)"),
    // ---- core::deploy / flash::ftl
    layer("core.deploy.stage_ms", "ms", Lower, "core::deploy", &["mixed_rw", "cluster_4x2"], "setup_s on mixed_rw, cluster_4x2"),
    layer("core.deploy.insert_us", "us", Lower, "core::deploy", MIXED, "host_us_per_op, sim_update_qps on mixed_rw"),
    layer("core.deploy.delete_us", "us", Lower, "core::deploy", MIXED, "host_us_per_op on mixed_rw"),
    layer("core.deploy.compact_ms", "ms", Lower, "core::deploy", MIXED, "none end to end (compaction is outside the timed trial)"),
    layer("core.deploy.compact_sim_ms", "ms", Lower, "core::deploy", MIXED, "write_amplification, sim_update_qps on mixed_rw"),
    layer("core.deploy.update_p99_ms", "ms", Lower, "core::deploy", MIXED, "sim_update_qps on mixed_rw"),
    // ---- core::cluster
    layer("core.cluster.stage_s", "s", Lower, "core::cluster", CLUSTER, "setup_s on cluster_4x2"),
    layer("core.cluster.overhead_x", "ratio", Lower, "core::cluster", CLUSTER, "host_us_per_op on cluster_4x2 (cluster us/query over 4 x one standalone shard engine)"),
    layer("core.cluster.failovers", "count", Lower, "core::cluster", CLUSTER, "sim_p99_ms on cluster_4x2"),
    layer("core.cluster.hedges", "count", Lower, "core::cluster", CLUSTER, "sim_p99_ms, host_us_per_op on cluster_4x2"),
    layer("core.cluster.hedge_win_rate", "ratio", Higher, "core::cluster", CLUSTER, "sim_p99_ms on cluster_4x2"),
    layer("core.cluster.load_imbalance", "ratio", Lower, "core::cluster", CLUSTER, "sim_qps on cluster_4x2"),
    layer("core.cluster.availability", "ratio", Higher, "core::cluster", CLUSTER, "slo_attainment on cluster_4x2"),
    layer("core.cluster.report_ms", "ms", Lower, "core::cluster", CLUSTER, "host_us_per_op on cluster_4x2 (small)"),
    // ---- core::engine / core::speculative / baselines
    layer("core.engine.run_ms", "ms", Lower, "core::engine", BATCH, "host_us_per_op on paper_batch"),
    layer("core.engine.sim_qps_bare", "1/s", Higher, "core::engine", BATCH, "sim_qps on paper_batch (ablation ladder, Fig. 16)"),
    layer("core.engine.sim_qps_re", "1/s", Higher, "core::engine", BATCH, "sim_qps on paper_batch"),
    layer("core.engine.sim_qps_re_mp", "1/s", Higher, "core::engine", BATCH, "sim_qps on paper_batch"),
    layer("core.engine.sim_qps_re_mp_da", "1/s", Higher, "core::engine", BATCH, "sim_qps on paper_batch"),
    layer("core.engine.full_over_bare_x", "ratio", Higher, "core::engine", BATCH, "sim_qps on paper_batch"),
    layer("core.engine.page_access_ratio", "ratio", Lower, "core::engine", BATCH, "sim_qps on paper_batch (Fig. 14)"),
    layer("core.speculative.hit_rate", "ratio", Higher, "core::speculative", BATCH, "sim_qps on paper_batch (Fig. 15)"),
    layer("baselines.cpu_sim_qps", "1/s", Higher, "baselines", BATCH, "none (reference platform, Fig. 13)"),
    layer("baselines.dscp_sim_qps", "1/s", Higher, "baselines", BATCH, "none (reference platform, Fig. 13)"),
    layer("core.engine.speedup_vs_cpu_x", "ratio", Higher, "core::engine", BATCH, "sim_qps on paper_batch (unvalidated model: no error figure)"),
    // ---- dev.*: the modelled SearSSD components (Fig. 17 buckets as
    // shares of the bucket sum, and flash counters).
    layer("dev.nand_share", "ratio", Lower, "dev", ALL, "sim_qps, sim_p50_ms, sim_p99_ms on closed_fp32, open_zipf, paper_batch; exactly 0 on closed_int8"),
    layer("dev.ecc_share", "ratio", Lower, "dev", ALL, "as dev.nand_share"),
    layer("dev.compute_share", "ratio", Lower, "dev", ALL, "as dev.nand_share"),
    layer("dev.dram_share", "ratio", Lower, "dev", ALL, "sim_qps on closed_int8"),
    layer("dev.embedded_share", "ratio", Lower, "dev", ALL, "sim_qps"),
    layer("dev.allocating_share", "ratio", Lower, "dev", ALL, "sim_qps"),
    layer("dev.bus_share", "ratio", Lower, "dev", ALL, "sim_qps on fp32 workloads"),
    layer("dev.bitonic_share", "ratio", Lower, "dev", ALL, "sim_p50_ms (completion tail)"),
    layer("dev.pcie_share", "ratio", Lower, "dev", ALL, "sim_p50_ms (completion tail)"),
    layer("dev.program_share", "ratio", Lower, "dev", ALL, "sim_update_qps on mixed_rw"),
    layer("dev.rerank_share", "ratio", Lower, "dev", ALL, "sim_qps, sim_p50_ms on closed_int8 (carries the flash time there)"),
    layer("dev.page_reads_per_query", "count", Lower, "dev", ALL, "sim_qps"),
    layer("dev.page_buffer_hit_ratio", "ratio", Higher, "dev", ALL, "sim_qps on open_zipf"),
    layer("dev.multi_plane_ratio", "ratio", Higher, "dev", ALL, "sim_qps"),
    layer("dev.distance_evals_per_query", "count", Lower, "dev", ALL, "sim_qps"),
    layer("dev.ecc_soft_fallbacks", "count", Lower, "dev", ALL, "sim_p99_ms on cluster_4x2"),
    layer("dev.lun_coverage", "ratio", Higher, "dev", ALL, "sim_qps"),
    layer("dev.bus_bytes_per_query", "B", Lower, "dev", ALL, "sim_qps"),
    layer("dev.pcie_bytes_per_query", "B", Lower, "dev", ALL, "sim_p50_ms"),
    layer("dev.page_programs", "count", Lower, "dev", ALL, "write_amplification on mixed_rw"),
    layer("dev.block_erases", "count", Lower, "dev", ALL, "write_amplification on mixed_rw"),
    // ---- the cost of looking
    layer("trace.spans", "count", Lower, "trace", ALL, "none"),
    layer("trace.overhead_share", "ratio", Lower, "trace", ALL, "none (traced trial host time over the untraced median, minus 1)"),
];

pub const RUN_SECONDS: u64 = 8;

/// The names a run reports, in order: the per-layer list for a traced
/// run, the end-to-end list otherwise.
pub fn metric_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// Whether per-layer metric `m` is measured on `workload` (else idle: 0).
pub fn measured_on(m: &PerLayer, workload: &str) -> bool {
    m.on.is_empty() || m.on.contains(&workload)
}

/// `--list`: every workload and metric with unit, direction, bound and
/// the workloads it is reported on.
pub fn print_list() {
    println!("workloads ({}):", WORKLOADS.len());
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.load);
        println!("  {:<12}   why: {}", "", w.why);
    }
    println!(
        "\nend-to-end metrics ({}; untraced run, every workload):",
        END_TO_END.len()
    );
    for m in &END_TO_END {
        println!(
            "  {:<20} {:<6} {:<6} clock {:<4} bound {:>4.0} % across seeds, {:.1} % for --compare on the same seeds",
            m.name,
            m.unit,
            m.better.label(),
            m.clock.label(),
            m.bound * 100.0,
            m.same_seed * 100.0
        );
        println!("  {:<20}   {}", "", m.definition);
    }
    println!(
        "\nper-layer metrics ({}; traced run, no bound; 0 where the layer is idle):",
        PER_LAYER.len()
    );
    for m in PER_LAYER {
        let on = if m.on.is_empty() {
            "all".to_string()
        } else {
            m.on.join(",")
        };
        println!(
            "  {:<38} {:<6} {:<6} layer {:<18} on {}",
            m.name,
            m.unit,
            m.better.label(),
            m.layer,
            on
        );
        println!("  {:<38}   moves: {}", "", m.moves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload {}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                valid_name(m.name) && valid_unit(m.unit),
                "metric {}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in PER_LAYER {
            assert!(
                valid_name(m.name) && valid_unit(m.unit),
                "metric {}",
                m.name
            );
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            for w in m.on {
                assert!(
                    WORKLOADS.iter().any(|known| known.name == *w),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// The `BENCHMARK.json` document these tables define.
    fn benchmark_json() -> Value {
        let strs =
            |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
        Value::obj([
            (
                "command",
                strs(&[
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--bin",
                    "perf_ledger",
                    "--",
                ]),
            ),
            ("paths", strs(&["crates/bench/src/bin/perf_ledger"])),
            ("run_seconds", Value::Num(RUN_SECONDS as f64)),
            (
                "workloads",
                Value::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Value::obj([
                                ("name", Value::Str(w.name.to_string())),
                                ("why", Value::Str(w.why.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Arr(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            Value::obj([
                                ("name", Value::Str(m.name.to_string())),
                                ("unit", Value::Str(m.unit.to_string())),
                                ("better", Value::Str(m.better.label().to_string())),
                                ("bound", Value::Num(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Arr(
                    PER_LAYER
                        .iter()
                        .map(|m| {
                            Value::obj([
                                ("name", Value::Str(m.name.to_string())),
                                ("unit", Value::Str(m.unit.to_string())),
                                ("better", Value::Str(m.better.label().to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// `BENCHMARK.json` names exactly what the binary emits.
    #[test]
    fn benchmark_json_at_the_root_matches_the_spec() {
        let text = include_str!("../../../../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let on_disk = crate::json::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json and spec.rs disagree: edit the one that is behind"
        );
        let keys: Vec<&str> = on_disk
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
