//! One benchmark run: the untraced run that produces every end-to-end
//! metric, and the separate traced run that produces the per-layer
//! ledger and the span file.

use std::time::{Duration, Instant};

use ndsearch_anns::index::GraphAnnsIndex;
use ndsearch_baselines::{CpuPlatform, DeepStorePlatform, Platform};
use ndsearch_core::config::{NdsConfig, SchedulingConfig};
use ndsearch_core::deploy::Deployment;
use ndsearch_core::engine::NdsEngine;
use ndsearch_core::pipeline::Prepared;
use ndsearch_core::serve::{ServeEngine, ServeReport, SessionState, SloPolicy};
use ndsearch_vector::synthetic::BenchmarkId;

use crate::json::Value;
use crate::layers::{self, UnitCosts};
use crate::ledger::Ledger;
use crate::measure::{
    check_same_outputs, check_trial, pool_ground_truth, summarize, Checks, SimSummary,
};
use crate::spans::Recorder;
use crate::spec::{self, PER_LAYER};
use crate::stats::{median, percentile_sorted};
use crate::workloads::{
    cluster_hop_rounds, drive_serve, run_at_rate, run_trial, setup, Body, Kind, Outcome, Sizes,
    Staged, Trial, K, OVERLOAD_RATE, RATE_LADDER, SLO_ATTAINMENT, SLO_P99_NS,
};

/// Traced run: untraced reference trials at one thread, then traced
/// ones, then untraced ones at two threads.
const REFERENCE_TRIALS: usize = 3;
const TRACED_TRIALS: usize = 2;
const TWO_THREAD_TRIALS: usize = 2;
const SHED_SLACK_NS: u64 = 2_000_000;

pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans (JSONL).
    pub spans: Option<String>,
    pub sizes: Sizes,
}

/// Everything a run reports.
pub struct RunOutput {
    pub kind: Kind,
    pub seed: u64,
    pub trace: bool,
    pub ledger: Ledger,
    pub checks: Checks,
    /// Operations attempted / failed over the timed trials.
    pub attempted: u64,
    pub failed: u64,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.checks.ok()
    }

    fn metric_names(&self) -> Vec<&'static str> {
        spec::metric_names(self.trace)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                self.ledger
                    .metrics_json(self.metric_names().into_iter(), false),
            ),
        ])
    }

    /// The record `--out` appends and `--compare` reads: the result line
    /// plus what identifies the run and the samples behind each median.
    pub fn record_json(&self) -> Value {
        Value::obj([
            ("workload", Value::Str(self.kind.name().to_string())),
            ("seed", Value::Str(self.seed.to_string())),
            ("trace", Value::Bool(self.trace)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                self.ledger
                    .metrics_json(self.metric_names().into_iter(), true),
            ),
        ])
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn phase(name: &str, attempted: usize, failed: usize) {
    println!(
        "phase {name}: attempted {attempted} succeeded {} failed {failed}",
        attempted - failed
    );
}

pub fn run(opts: &Options) -> RunOutput {
    println!(
        "perf_ledger: workload {} seed {} seconds {} trace {} (host threads available: {})",
        opts.kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    };
    println!(
        "\n{} metrics (simulated-clock rows repeat exactly for a fixed seed; host rows are medians):",
        if opts.trace { "per-layer" } else { "end-to-end" },
    );
    out.ledger.print(out.metric_names().into_iter());
    for failure in &out.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    out
}

/// Every metric the run must print is present and finite; end-to-end
/// metrics are also never 0.
fn check_ledger(out_names: &[&'static str], ledger: &Ledger, nonzero: bool, checks: &mut Checks) {
    for name in out_names {
        match ledger.get(name) {
            None => checks.require(false, || format!("metric {name} was not measured")),
            Some(e) => {
                checks.require(e.value.is_finite(), || {
                    format!("metric {name} is not finite")
                });
                if nonzero {
                    checks.require(e.value != 0.0, || format!("end-to-end metric {name} is 0"));
                }
            }
        }
    }
}

fn run_untraced(opts: &Options) -> RunOutput {
    let mut rec = Recorder::new(false);
    let mut ledger = Ledger::default();
    let mut checks = Checks::default();

    // Set up several times (the median is `setup_s`); measure on the last.
    let mut setup_s = Vec::new();
    let mut staged: Option<Staged> = None;
    for _ in 0..opts.sizes.setups.max(1) {
        drop(staged.take());
        let st = setup(opts.kind, opts.sizes, opts.seed, &mut rec);
        setup_s.push(st.times.total_s);
        staged = Some(st);
    }
    let st = staged.expect("at least one set-up ran");
    ledger.set_samples("setup_s", &setup_s);
    let truth = pool_ground_truth(&st);

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut host_us: Vec<f64> = Vec::new();
    let mut first: Option<(Trial, SimSummary)> = None;
    while host_us.len() < opts.sizes.min_trials.max(1) || start.elapsed() < budget {
        let trial = run_trial(&st, 1, &mut rec, first.is_none());
        host_us.push(trial.host_s * 1e6 / trial.ops as f64);
        match &first {
            None => {
                let sim = summarize(&st, &trial, &truth);
                check_trial(&st, &trial, &sim, &mut checks);
                first = Some((trial, sim));
            }
            Some((reference, _)) => {
                check_same_outputs(opts.kind, reference, &trial, 1, &mut checks)
            }
        }
    }
    let (trial, sim) = first.expect("at least one trial ran");

    // Thread count never changes a report: one more trial with the round
    // executor's pool at two threads. Its host time is not an end-to-end
    // number (the traced run reports `core.exec.host_us_per_op_2t`).
    let two_threads = run_trial(&st, 2, &mut rec, false);
    check_same_outputs(opts.kind, &trial, &two_threads, 2, &mut checks);

    let trials = host_us.len() + 1;
    let attempted = (trials * sim.operations()) as u64;
    let failed = (trials * sim.failed()) as u64;
    phase("trials", attempted as usize, failed as usize);
    if let Some(probe) = &trial.probe {
        phase("probe", probe.queries, probe.queries - probe.completed);
    }
    println!(
        "trials: {} at exec_threads=1 and 1 at exec_threads=2 (reports identical), {} operations each; latency over {} completed queries (highest percentile with >= 10 samples beyond it: p{})",
        host_us.len(),
        trial.ops,
        sim.samples,
        sim.supported_percentile as f64 / 10.0
    );
    if opts.kind.open_loop() {
        println!("arrivals are pre-stamped on the simulated clock: generator lateness is 0 by construction");
    }

    // Below the knee every deadline is met, so `open_zipf` takes its
    // attainment past it: one more drain of the same scenario at the
    // overload rate (deterministic, so once is enough). Those misses are
    // the measurement, not failed operations of the timed trials.
    let attainment = if opts.kind == Kind::OpenZipf {
        let report = run_at_rate(&st, OVERLOAD_RATE, SloPolicy::None);
        phase(
            &format!("overload@{OVERLOAD_RATE} (deadline misses, counted by slo_attainment)"),
            report.outcomes.len(),
            report.rejected() + report.expired(),
        );
        rung_summary(&report, OVERLOAD_RATE, &mut checks).0
    } else {
        sim.slo_attainment()
    };

    ledger.set("sim_qps", sim.qps);
    ledger.set("sim_p50_ms", sim.p50_ns as f64 / 1e6);
    ledger.set("sim_p99_ms", sim.p99_ns as f64 / 1e6);
    ledger.set(
        "recall_at_10",
        trial.probe.as_ref().map_or(sim.recall, |p| p.recall),
    );
    ledger.set("slo_attainment", attainment);
    ledger.set_samples("host_us_per_op", &host_us);
    ledger.set("peak_rss_mb", peak_rss_mib());

    check_ledger(&spec::metric_names(false), &ledger, true, &mut checks);
    RunOutput {
        kind: opts.kind,
        seed: opts.seed,
        trace: false,
        ledger,
        checks,
        attempted,
        failed,
    }
}

fn share(part: u64, total: u64) -> f64 {
    part as f64 / total.max(1) as f64
}

/// `dev.*`: the modelled SearSSD components, from report fields.
fn device_rows(sim: &SimSummary, ledger: &mut Ledger) {
    let b = &sim.breakdown;
    let total = b.total_ns();
    for (name, ns) in [
        ("dev.nand_share", b.nand_read_ns),
        ("dev.ecc_share", b.ecc_ns),
        ("dev.compute_share", b.compute_ns),
        ("dev.dram_share", b.dram_ns),
        ("dev.embedded_share", b.embedded_ns),
        ("dev.allocating_share", b.allocating_ns),
        ("dev.bus_share", b.bus_ns),
        ("dev.bitonic_share", b.bitonic_ns),
        ("dev.pcie_share", b.pcie_ns),
        ("dev.program_share", b.program_ns),
        ("dev.rerank_share", b.rerank_ns),
    ] {
        ledger.set(name, share(ns, total));
    }
    let f = &sim.flash;
    let queries = sim.completed.max(1) as f64;
    ledger.set("dev.page_reads_per_query", f.page_reads as f64 / queries);
    ledger.set(
        "dev.page_buffer_hit_ratio",
        share(f.page_buffer_hits, f.page_buffer_hits + f.page_reads),
    );
    ledger.set(
        "dev.multi_plane_ratio",
        share(f.multi_plane_ops, f.search_ops),
    );
    ledger.set(
        "dev.distance_evals_per_query",
        f.distance_evals as f64 / queries,
    );
    ledger.set("dev.ecc_soft_fallbacks", f.ecc_soft_fallbacks as f64);
    ledger.set("dev.lun_coverage", sim.lun_coverage);
    ledger.set("dev.bus_bytes_per_query", f.bus_bytes as f64 / queries);
    ledger.set("dev.pcie_bytes_per_query", f.pcie_bytes as f64 / queries);
    ledger.set("dev.page_programs", f.page_programs as f64);
    ledger.set("dev.block_erases", f.block_erases as f64);
}

/// `core.serve.*` (and the cluster's view of the same counters).
fn serve_rows(
    st: &Staged,
    reference: &Trial,
    traced: &Trial,
    sim: &SimSummary,
    ledger: &mut Ledger,
) {
    let detail = traced.detail.as_ref().expect("traced trials carry detail");
    let (hop_rounds, device_ns, peak_inflight, fairness) = match &reference.outcome {
        Outcome::Serve(r) => (
            r.rounds,
            r.makespan_ns,
            r.peak_inflight,
            r.tenant_p99_fairness(),
        ),
        Outcome::Cluster(r) => {
            let devices = || r.shards.iter().flat_map(|s| &s.replicas);
            (
                cluster_hop_rounds(r),
                devices().map(|d| d.report.makespan_ns).sum(),
                devices().map(|d| d.report.peak_inflight).max().unwrap_or(0),
                r.tenant_p99_fairness(),
            )
        }
        Outcome::Batch(_) => return,
    };
    // Where the round loop can be stepped, a round is one `step_round()`
    // call (one `round` span); the cluster drains inside one call, so its
    // rounds are the devices' hop-executing rounds.
    let rounds = if detail.round_ns.is_empty() {
        hop_rounds
    } else {
        detail.round_ns.len() as u64
    };
    ledger.set("core.serve.rounds", rounds as f64);
    ledger.set("core.serve.hop_rounds", hop_rounds as f64);
    if !detail.round_ns.is_empty() {
        let mut sorted = detail.round_ns.clone();
        sorted.sort_unstable();
        ledger.set(
            "core.serve.host_us_per_round_p50",
            percentile_sorted(&sorted, 500) as f64 / 1e3,
        );
        ledger.set(
            "core.serve.host_us_per_round_p99",
            percentile_sorted(&sorted, 990) as f64 / 1e3,
        );
    }
    ledger.set(
        "core.serve.sim_us_per_round",
        device_ns as f64 / 1e3 / hop_rounds.max(1) as f64,
    );
    ledger.set(
        "core.serve.hops_per_round",
        sim.hops as f64 / hop_rounds.max(1) as f64,
    );
    ledger.set(
        "core.serve.submit_ns_per_req",
        detail.submit_s * 1e9 / traced.ops.max(1) as f64,
    );
    ledger.set("core.serve.report_ms", detail.report_s * 1e3);
    ledger.set("core.serve.peak_inflight", peak_inflight as f64);
    ledger.set(
        "core.serve.queue_wait_p99_ms",
        sim.queue_wait_p99_ns as f64 / 1e6,
    );
    ledger.set("core.serve.rejected", sim.rejected as f64);
    ledger.set("core.serve.expired", sim.expired as f64);
    ledger.set("core.serve.sheds", sim.sheds as f64);
    ledger.set("core.serve.tenant_p99_fairness", fairness);
    if st.kind.open_loop() {
        ledger.set(
            "core.traffic.submit_us_per_event",
            detail.submit_s * 1e6 / traced.ops.max(1) as f64,
        );
    }
}

/// Share of the serving host time no measured layer accounts for:
/// 1 − Σ(layer count × layer unit cost) ÷ host time of one trial.
fn unattributed_share(
    sim: &SimSummary,
    costs: &UnitCosts,
    ledger: &Ledger,
    trial: &Trial,
    host_s: f64,
) -> f64 {
    let tasks = sim.flash.distance_evals as f64;
    // The batch engine replays recorded traces: no live beam hops.
    let hops = if matches!(trial.outcome, Outcome::Batch(_)) {
        0.0
    } else {
        sim.hops as f64
    };
    let (inserts, deletes) = match &trial.outcome {
        Outcome::Serve(r) => (r.updates.inserts as f64, r.updates.deletes as f64),
        _ => (0.0, 0.0),
    };
    let attributed_ns = hops * costs.hop_ns
        + tasks * (costs.vgen_ns_per_triple + costs.alloc_ns_per_task + costs.sin_ns_per_task)
        + trial.ops as f64 * ledger.value("core.serve.submit_ns_per_req")
        + ledger.value("core.serve.report_ms") * 1e6
        + inserts * costs.insert_us * 1e3
        + deletes * costs.delete_us * 1e3;
    1.0 - attributed_ns / (host_s * 1e9).max(1.0)
}

/// Attainment, p99 and drain time of one ladder rung (whose query
/// accounting must close like a trial's).
fn rung_summary(report: &ServeReport, rate: f64, checks: &mut Checks) -> (f64, u64, u64) {
    let sent = report.outcomes.len();
    checks.require(
        sent == report.completed() + report.rejected() + report.expired(),
        || {
            format!(
                "open_zipf at {rate}/s: query accounting does not close: sent {sent} != completed {} + rejected {} + expired {}",
                report.completed(),
                report.rejected(),
                report.expired()
            )
        },
    );
    let attainment = report.completed() as f64 / sent.max(1) as f64;
    let first = report
        .outcomes
        .iter()
        .map(|o| o.arrival_ns)
        .min()
        .unwrap_or(0);
    let last = report
        .outcomes
        .iter()
        .map(|o| o.arrival_ns)
        .max()
        .unwrap_or(0);
    // What was in the system at the last arrival must drain within the
    // latency limit, or a backlog was growing.
    let drain_ns = (first + report.makespan_ns).saturating_sub(last);
    (attainment, report.latency().p99_ns, drain_ns)
}

/// `open_zipf`: the fixed rate ladder and the shedding comparison.
fn ladder_rows(st: &Staged, ledger: &mut Ledger, checks: &mut Checks, rec: &mut Recorder) {
    rec.open("ladder");
    let mut max_rate = 0.0;
    let mut overload_attainment = 0.0;
    for rate in RATE_LADDER {
        rec.open("rung");
        let report = run_at_rate(st, rate, SloPolicy::None);
        rec.close(&[("rate_qps", rate as u64), ("hop_rounds", report.rounds)]);
        let (attainment, p99_ns, drain_ns) = rung_summary(&report, rate, checks);
        let in_slo = p99_ns <= SLO_P99_NS && attainment >= SLO_ATTAINMENT && drain_ns <= SLO_P99_NS;
        println!(
            "ladder {rate:>6} q/s: p99 {:.3} ms, attainment {attainment:.4}, drain after last arrival {:.3} ms, {} rounds -> {}",
            p99_ns as f64 / 1e6,
            drain_ns as f64 / 1e6,
            report.rounds,
            if in_slo { "in SLO" } else { "out of SLO" }
        );
        phase(
            &format!("ladder@{rate}"),
            report.outcomes.len(),
            report.rejected() + report.expired(),
        );
        if in_slo {
            max_rate = rate;
        }
        if rate == OVERLOAD_RATE {
            overload_attainment = attainment;
        }
    }
    ledger.set("max_rate_in_slo_qps", max_rate);
    // As the untraced run's `slo_attainment`: taken past the knee.
    ledger.set("failed_share", 1.0 - overload_attainment);
    rec.open("shed");
    let shed = run_at_rate(
        st,
        OVERLOAD_RATE,
        SloPolicy::ShedDoomed {
            min_slack_ns: SHED_SLACK_NS,
        },
    );
    rec.close(&[("sheds", shed.sheds() as u64)]);
    ledger.set(
        "core.serve.shed_attainment_gain",
        rung_summary(&shed, OVERLOAD_RATE, checks).0 - overload_attainment,
    );
    rec.close(&[]);
}

/// `mixed_rw`: the write path's own numbers.
fn update_rows(trial: &Trial, sim: &SimSummary, ledger: &mut Ledger) {
    let (Outcome::Serve(report), Some(compaction)) = (&trial.outcome, &trial.compaction) else {
        return;
    };
    ledger.set("sim_update_qps", sim.update_qps);
    ledger.set(
        "write_amplification",
        compaction.after.write_amplification(),
    );
    ledger.set("core.deploy.compact_ms", compaction.host_s * 1e3);
    ledger.set(
        "core.deploy.compact_sim_ms",
        compaction.report.duration_ns as f64 / 1e6,
    );
    let mut update_ns: Vec<u64> = report
        .update_outcomes
        .iter()
        .filter(|u| u.state == SessionState::Completed)
        .map(|u| u.latency_ns())
        .collect();
    update_ns.sort_unstable();
    ledger.set(
        "core.deploy.update_p99_ms",
        percentile_sorted(&update_ns, 990) as f64 / 1e6,
    );
}

/// `cluster_4x2`: routing, failover and the cost over one standalone
/// shard engine.
fn cluster_rows(
    st: &Staged,
    reference: &Trial,
    traced: &Trial,
    cluster_us_per_query: f64,
    ledger: &mut Ledger,
    rec: &mut Recorder,
) {
    let (Outcome::Cluster(report), Body::Cluster { shards, .. }) = (&reference.outcome, &st.body)
    else {
        return;
    };
    ledger.set("core.cluster.stage_s", reference.stage_s);
    ledger.set("core.cluster.failovers", report.failovers() as f64);
    ledger.set("core.cluster.hedges", report.hedges() as f64);
    ledger.set("core.cluster.hedge_win_rate", report.hedge_win_rate());
    ledger.set("core.cluster.load_imbalance", report.load_imbalance());
    ledger.set("core.cluster.availability", report.availability());
    if let Some(detail) = &traced.detail {
        ledger.set("core.cluster.report_ms", detail.report_s * 1e3);
    }

    // One standalone engine over shard 0's data, same queries.
    rec.open("standalone_shard");
    let (shard, index) = &shards[0];
    let config = &st.configs[0];
    let stage_start = Instant::now();
    let deploy = Deployment::stage(config, Box::new(index.clone()), shard.clone());
    ledger.set(
        "core.deploy.stage_ms",
        stage_start.elapsed().as_secs_f64() * 1e3,
    );
    let mut engine = ServeEngine::with_deployment(config, st.serve.clone(), deploy);
    let mut off = Recorder::new(false);
    let (host_s, standalone, _, _) =
        drive_serve(&mut engine, st, &st.trace, index.medoid(), &mut off);
    rec.close(&[("hop_rounds", standalone.rounds)]);
    let standalone_us = host_s * 1e6 / st.trace.len().max(1) as f64;
    ledger.set(
        "core.cluster.overhead_x",
        cluster_us_per_query / (shards.len() as f64 * standalone_us),
    );
}

/// `paper_batch`: the ablation ladder (Fig. 16), speculation and the
/// reference platforms (Fig. 13).
fn batch_rows(
    st: &Staged,
    reference: &Trial,
    run_ms: f64,
    ledger: &mut Ledger,
    rec: &mut Recorder,
) {
    let (
        Outcome::Batch(full),
        Body::Batch {
            index, raw_trace, ..
        },
    ) = (&reference.outcome, &st.body)
    else {
        return;
    };
    ledger.set("anns.trace.search_batch_s", st.times.search_batch_s);
    ledger.set("core.engine.run_ms", run_ms);
    ledger.set("core.engine.page_access_ratio", full.page_access_ratio());
    ledger.set("core.speculative.hit_rate", full.speculation.hit_rate());

    rec.open("ablation_ladder");
    let rungs = [
        "core.engine.sim_qps_bare",
        "core.engine.sim_qps_re",
        "core.engine.sim_qps_re_mp",
        "core.engine.sim_qps_re_mp_da",
    ];
    let mut bare_qps = 0.0;
    for (name, (label, scheduling)) in rungs.iter().zip(SchedulingConfig::ablation_ladder()) {
        rec.open("rung");
        let config = NdsConfig {
            scheduling,
            ..st.configs[0].clone()
        };
        let restaged = Prepared::restage(&config, index.base_graph(), &st.base, raw_trace);
        let report = NdsEngine::new(&config).run(&restaged);
        rec.close(&[("iterations", report.iterations as u64)]);
        println!("ablation {label:<10} {:.1} sim-QPS", report.qps());
        ledger.set(name, report.qps());
        if *name == "core.engine.sim_qps_bare" {
            bare_qps = report.qps();
        }
    }
    rec.close(&[]);
    ledger.set(
        "core.engine.full_over_bare_x",
        full.qps() / bare_qps.max(1e-9),
    );

    let scenario = ndsearch_baselines::Scenario {
        benchmark: BenchmarkId::Sift1B,
        base: &st.base,
        graph: index.base_graph(),
        trace: raw_trace,
        config: &st.configs[0],
        k: K,
    };
    let cpu = CpuPlatform::paper_default().report(&scenario).qps();
    ledger.set("baselines.cpu_sim_qps", cpu);
    ledger.set(
        "baselines.dscp_sim_qps",
        DeepStorePlatform::chip_level().report(&scenario).qps(),
    );
    ledger.set("core.engine.speedup_vs_cpu_x", full.qps() / cpu.max(1e-9));
}

fn run_traced(opts: &Options) -> RunOutput {
    let mut rec = Recorder::new(true);
    let mut ledger = Ledger::default();
    let mut checks = Checks::default();
    rec.open("run");

    let st = setup(opts.kind, opts.sizes, opts.seed, &mut rec);
    let (truth, ground_truth_s) = rec.scope("ground_truth", |_| pool_ground_truth(&st));
    ledger.set("bench.ground_truth_s", ground_truth_s);
    ledger.set("vector.synthetic.build_s", st.times.dataset_s);
    ledger.set("anns.vamana.build_s", st.times.index_build_s);
    ledger.set(
        "anns.vamana.build_us_per_vector",
        st.times.index_build_s * 1e6 / st.sizes.n as f64,
    );

    // Untraced reference trials (the host time tracing is compared with
    // and layers are attributed against) alternate with traced ones, so
    // warm-up and host drift hit both alike.
    let mut off = Recorder::new(false);
    let mut reference: Vec<Trial> = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    for i in 0..REFERENCE_TRIALS.max(TRACED_TRIALS) {
        if i < REFERENCE_TRIALS {
            // One span for the whole untraced trial, so its time is not
            // booked as the run's own.
            rec.open("reference_trial");
            reference.push(run_trial(&st, 1, &mut off, i == 0));
            rec.close(&[]);
        }
        if i < TRACED_TRIALS {
            rec.set_trial(i as u32 + 1);
            rec.open("trial");
            let trial = run_trial(&st, 1, &mut rec, false);
            rec.close(&[("operations", trial.ops as u64)]);
            rec.set_trial(0);
            traced.push(trial);
        }
    }
    let reference_host_s = median(&reference.iter().map(|t| t.host_s).collect::<Vec<_>>());
    let sim = summarize(&st, &reference[0], &truth);
    check_trial(&st, &reference[0], &sim, &mut checks);
    for trial in reference[1..].iter().chain(&traced) {
        check_same_outputs(opts.kind, &reference[0], trial, 1, &mut checks);
    }
    phase(
        "reference trials",
        REFERENCE_TRIALS * sim.operations(),
        REFERENCE_TRIALS * sim.failed(),
    );
    phase(
        "traced trials",
        TRACED_TRIALS * sim.operations(),
        TRACED_TRIALS * sim.failed(),
    );
    let traced_host_s = median(&traced.iter().map(|t| t.host_s).collect::<Vec<_>>());

    // The same trial with the round executor's pool at two threads: its
    // cost, and that thread count never changes a report.
    let two_threads: Vec<f64> = (0..TWO_THREAD_TRIALS)
        .map(|_| {
            rec.open("two_thread_trial");
            let trial = run_trial(&st, 2, &mut off, false);
            rec.close(&[]);
            check_same_outputs(opts.kind, &reference[0], &trial, 2, &mut checks);
            trial.host_s * 1e6 / trial.ops.max(1) as f64
        })
        .collect();
    ledger.set_samples("core.exec.host_us_per_op_2t", &two_threads);
    phase(
        "2-thread trials",
        TWO_THREAD_TRIALS * sim.operations(),
        TWO_THREAD_TRIALS * sim.failed(),
    );
    // One `round` span per `step_round()` call: every traced trial's id
    // carries as many as the first one stepped (`core.serve.rounds`).
    let stepped = |t: &Trial| t.detail.as_ref().map_or(0, |d| d.round_ns.len());
    for (i, trial) in traced.iter().enumerate() {
        let spans = rec.count_named("round", i as u32 + 1);
        checks.require(
            spans == stepped(trial) && spans == stepped(&traced[0]),
            || {
                format!(
                    "traced trial {}: {spans} round spans for {} rounds stepped ({} in the first traced trial)",
                    i + 1,
                    stepped(trial),
                    stepped(&traced[0])
                )
            },
        );
    }

    ledger.set("failed_share", sim.failed_share());
    device_rows(&sim, &mut ledger);
    serve_rows(&st, &reference[0], &traced[0], &sim, &mut ledger);
    update_rows(&reference[0], &sim, &mut ledger);
    let us_per_op = reference_host_s * 1e6 / reference[0].ops.max(1) as f64;
    cluster_rows(
        &st,
        &reference[0],
        &traced[0],
        us_per_op,
        &mut ledger,
        &mut rec,
    );
    batch_rows(
        &st,
        &reference[0],
        reference_host_s * 1e3,
        &mut ledger,
        &mut rec,
    );
    if opts.kind == Kind::OpenZipf {
        ladder_rows(&st, &mut ledger, &mut checks, &mut rec);
    }

    let costs = layers::run(&st, &mut rec, &mut ledger);
    ledger.set(
        "core.serve.unattributed_share",
        unattributed_share(&sim, &costs, &ledger, &reference[0], reference_host_s),
    );
    rec.close(&[]);
    ledger.set("trace.spans", rec.spans().len() as f64);
    ledger.set(
        "trace.overhead_share",
        traced_host_s / reference_host_s.max(1e-12) - 1.0,
    );

    // Rows the workload's layers own must have been measured; the rest
    // are idle here and read 0.
    for m in PER_LAYER {
        if ledger.get(m.name).is_none() {
            checks.require(!spec::measured_on(m, opts.kind.name()), || {
                format!(
                    "per-layer metric {} was not measured on {}",
                    m.name,
                    opts.kind.name()
                )
            });
            ledger.set(m.name, 0.0);
        }
    }
    check_ledger(&spec::metric_names(true), &ledger, false, &mut checks);

    if let Some(path) = &opts.spans {
        match std::fs::write(path, rec.to_jsonl()) {
            Ok(()) => println!("wrote {} spans to {path}", rec.spans().len()),
            Err(e) => checks.require(false, || format!("cannot write spans to {path}: {e}")),
        }
    }
    let trials = REFERENCE_TRIALS + TRACED_TRIALS + TWO_THREAD_TRIALS;
    RunOutput {
        kind: opts.kind,
        seed: opts.seed,
        trace: true,
        ledger,
        checks,
        attempted: (trials * sim.operations()) as u64,
        failed: (trials * sim.failed()) as u64,
    }
}
