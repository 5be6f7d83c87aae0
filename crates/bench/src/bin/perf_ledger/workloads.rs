//! Seed → inputs → staged system → trials, for the six workloads.
//!
//! Everything a workload runs on is derived from `--seed` here (dataset,
//! Vamana parameters, traffic scenario, shard plan, `NdsConfig` and ECC
//! seeds); the engines only ever receive generated inputs, through their
//! public functions.

use std::time::Instant;

use ndsearch_anns::index::{GraphAnnsIndex, MutableIndex, SearchParams};
use ndsearch_anns::trace::BatchTrace;
use ndsearch_anns::vamana::{Vamana, VamanaParams};
use ndsearch_core::cluster::{
    ClusterEngine, ClusterReport, FailureSchedule, ReplicaPolicy, ReplicationConfig,
};
use ndsearch_core::config::NdsConfig;
use ndsearch_core::deploy::{CompactionReport, Deployment};
use ndsearch_core::engine::NdsEngine;
use ndsearch_core::pipeline::Prepared;
use ndsearch_core::report::NdsReport;
use ndsearch_core::serve::{QueryRequest, ServeConfig, ServeEngine, ServeReport, SloPolicy};
use ndsearch_core::traffic::{
    ArrivalModel, QueryMix, Scenario, Submitted, TenantProfile, TrafficTrace,
};
use ndsearch_flash::timing::Nanos;
use ndsearch_vector::quant::QuantSpec;
use ndsearch_vector::rng::SplitMix64;
use ndsearch_vector::shard::{ShardPlan, ShardPolicy};
use ndsearch_vector::synthetic::DatasetSpec;
use ndsearch_vector::topk::{Neighbor, TopK};
use ndsearch_vector::{Dataset, DistanceKind, VectorId};

use crate::spans::Recorder;

/// Top-k every workload asks for (tenant 1 of `open_zipf` asks for 4).
pub const K: usize = 10;
pub const BEAM_WIDTH: usize = 64;
pub const SLOTS: usize = 64;
/// Relative deadline of `open_zipf` queries.
pub const DEADLINE_NS: Nanos = 20_000_000;
/// `open_zipf`: the rate throughput, latency and host cost are taken at
/// (below the knee, which is between 18 000 and 20 000/s today).
pub const REFERENCE_RATE: f64 = 12_000.0;
/// `open_zipf`: the fixed ladder of the traced run.
pub const RATE_LADDER: [f64; 6] = [8_000.0, 12_000.0, 16_000.0, 18_000.0, 20_000.0, 24_000.0];
/// `open_zipf`: the rate `slo_attainment` and `failed_share` are taken at
/// (past the knee, so deadlines are missed and the number can move).
pub const OVERLOAD_RATE: f64 = 24_000.0;
/// The latency limit `max_rate_in_slo_qps` holds the ladder to.
pub const SLO_P99_NS: Nanos = 10_000_000;
pub const SLO_ATTAINMENT: f64 = 0.99;
const SHARDS: usize = 4;
const REPLICAS: usize = 2;
const HEDGE_DELAY_NS: Nanos = 4_000_000;
const STORM_PROB: f64 = 0.9;
/// `cluster_4x2`: healthy devices never fail a hard decode and a
/// soft-decision fallback walks a long read-retry ladder (a severe
/// retention episode, as in `replica_sweep`), so only the stormed replica
/// is slow — slow enough (about 3x) that its sessions outlive the hedge
/// delay and their backups on the healthy twin win.
const STORM_SOFT_DECODE_NS: Nanos = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ClosedFp32,
    ClosedInt8,
    OpenZipf,
    MixedRw,
    Cluster4x2,
    PaperBatch,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::ClosedFp32,
        Kind::ClosedInt8,
        Kind::OpenZipf,
        Kind::MixedRw,
        Kind::Cluster4x2,
        Kind::PaperBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ClosedFp32 => "closed_fp32",
            Kind::ClosedInt8 => "closed_int8",
            Kind::OpenZipf => "open_zipf",
            Kind::MixedRw => "mixed_rw",
            Kind::Cluster4x2 => "cluster_4x2",
            Kind::PaperBatch => "paper_batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop workloads time a query from admission (a closed-loop
    /// client "sends" when its slot frees); open loops from arrival.
    pub fn closed_loop(self) -> bool {
        matches!(self, Kind::ClosedFp32 | Kind::ClosedInt8)
    }

    /// Open-loop workloads replay arrivals pre-stamped on the simulated
    /// clock by `core::traffic`.
    pub fn open_loop(self) -> bool {
        matches!(self, Kind::OpenZipf | Kind::MixedRw | Kind::Cluster4x2)
    }

    /// The recall floor the run is rejected below.
    pub fn recall_floor(self) -> f64 {
        match self {
            Kind::MixedRw => 0.85,
            _ => 0.95,
        }
    }
}

/// How big a workload is. `full` is what the benchmark measures; `tiny`
/// keeps the unit tests under a few seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Base vectors.
    pub n: usize,
    /// Query-pool rows.
    pub pool: usize,
    /// Events (or batch queries) per trial.
    pub events: usize,
    /// Ingest-pool rows (`mixed_rw`).
    pub ingest: usize,
    /// Probe-batch queries after the trace drains (`mixed_rw`).
    pub probe: usize,
    /// Set-ups per untraced run (`setup_s` is their median).
    pub setups: usize,
    /// Trials run even when `--seconds` is already spent.
    pub min_trials: usize,
    /// Microbenchmarks: shortest timed loop, in ms, and loops per row.
    pub micro_loop_ms: u64,
    pub micro_repeats: usize,
}

impl Sizes {
    pub fn full(kind: Kind) -> Sizes {
        let base = Sizes {
            n: 8_000,
            pool: 1_000,
            events: 3_000,
            ingest: 0,
            probe: 0,
            setups: 3,
            min_trials: 9,
            micro_loop_ms: 50,
            micro_repeats: 7,
        };
        match kind {
            Kind::ClosedFp32 | Kind::ClosedInt8 => base,
            Kind::OpenZipf => Sizes {
                events: 4_000,
                ..base
            },
            Kind::MixedRw => Sizes {
                ingest: 4_000,
                probe: 256,
                ..base
            },
            // 1 000 completions: exactly ten samples beyond p99, and nine
            // trials (about 1.5 ms of host time per query) fit a run.
            Kind::Cluster4x2 => Sizes {
                events: 1_000,
                ..base
            },
            Kind::PaperBatch => Sizes {
                pool: 1_024,
                events: 1_024,
                ..base
            },
        }
    }

    #[cfg(test)]
    pub fn tiny(kind: Kind) -> Sizes {
        let base = Sizes {
            n: 96,
            pool: 12,
            events: 32,
            ingest: 0,
            probe: 0,
            setups: 1,
            min_trials: 2,
            micro_loop_ms: 0,
            micro_repeats: 1,
        };
        match kind {
            Kind::MixedRw => Sizes {
                ingest: 24,
                probe: 8,
                ..base
            },
            Kind::PaperBatch => Sizes {
                pool: 16,
                events: 16,
                ..base
            },
            _ => base,
        }
    }
}

/// Independent seed streams expanded from the one `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub dataset: u64,
    pub vamana: u64,
    pub traffic: u64,
    pub shard_plan: u64,
    pub config: u64,
    pub ecc: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let mut mix = SplitMix64::new(seed);
        Seeds {
            dataset: mix.next_u64(),
            vamana: mix.next_u64(),
            traffic: mix.next_u64(),
            shard_plan: mix.next_u64(),
            config: mix.next_u64(),
            ecc: mix.next_u64(),
        }
    }
}

/// Host seconds of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub index_build_s: f64,
    pub traffic_s: f64,
    /// `search_batch` trace recording (`paper_batch`).
    pub search_batch_s: f64,
    /// `Prepared::stage` / `Deployment::stage` / `stage_replicated`,
    /// including the first engine's construction (and with it the
    /// quantizer training of `closed_int8`).
    pub stage_s: f64,
    pub total_s: f64,
}

/// What differs between the workload families once staged.
pub enum Body {
    /// `closed_fp32`, `closed_int8`, `open_zipf`: query-only engine over
    /// a staged layout.
    Serve { index: Vamana, prepared: Prepared },
    /// `mixed_rw`: a mutable deployment is staged per trial.
    Mixed { index: Vamana },
    /// `cluster_4x2`: per-shard datasets and indexes, cloned into every
    /// replica at staging.
    Cluster {
        plan: ShardPlan,
        shards: Vec<(Dataset, Vamana)>,
        replication: ReplicationConfig,
    },
    /// `paper_batch`: recorded traces staged for the batch engine.
    Batch {
        index: Vamana,
        prepared: Prepared,
        /// The recorded traces in construction order (what the ablation
        /// ladder restages and the reference platforms replay).
        raw_trace: BatchTrace,
        found: Vec<Vec<VectorId>>,
    },
}

/// A workload's inputs, built from the seed and staged.
pub struct Staged {
    pub kind: Kind,
    pub sizes: Sizes,
    pub seeds: Seeds,
    pub base: Dataset,
    pub pool: Dataset,
    /// Rows `mixed_rw` inserts (same distribution as `base`, disjoint
    /// from it and from the query pool); empty elsewhere.
    pub ingest: Dataset,
    /// `[exec_threads = 1, exec_threads = 2]`, otherwise identical.
    pub configs: [NdsConfig; 2],
    pub serve: ServeConfig,
    /// The event stream of one trial (empty for `paper_batch`).
    pub trace: TrafficTrace,
    pub body: Body,
    pub times: SetupTimes,
}

impl Staged {
    /// The dataset and index the per-layer microbenchmarks run on: the
    /// workload's own, which for the cluster is shard 0's.
    pub fn micro_target(&self) -> (&Dataset, &Vamana) {
        match &self.body {
            Body::Serve { index, .. } | Body::Mixed { index } | Body::Batch { index, .. } => {
                (&self.base, index)
            }
            Body::Cluster { shards, .. } => (&shards[0].0, &shards[0].1),
        }
    }
}

fn dataset_spec(sizes: &Sizes, seeds: &Seeds) -> DatasetSpec {
    DatasetSpec {
        seed: seeds.dataset,
        ..DatasetSpec::sift_scaled(sizes.n + sizes.ingest, sizes.pool)
    }
}

fn rows(src: &Dataset, from: usize, to: usize) -> Dataset {
    let dim = src.dim();
    let mut out = Dataset::from_flat(dim, src.as_flat()[from * dim..to * dim].to_vec());
    out.set_stored_vector_bytes(src.stored_vector_bytes());
    out
}

fn device_config(vectors: usize, base: &Dataset, seeds: &Seeds, kind: Kind) -> [NdsConfig; 2] {
    let mut config = NdsConfig::scaled_for(vectors, base.stored_vector_bytes());
    config.seed = seeds.config;
    config.ecc.seed = seeds.ecc;
    if kind == Kind::ClosedInt8 {
        config.quantization = QuantSpec::Int8;
    }
    if kind == Kind::Cluster4x2 {
        config.ecc.hard_decision_failure_prob = 0.0;
        config.ecc.t_soft_decode_ns = STORM_SOFT_DECODE_NS;
    }
    let one = NdsConfig {
        exec_threads: 1,
        ..config.clone()
    };
    let two = NdsConfig {
        exec_threads: 2,
        ..config
    };
    [one, two]
}

fn serve_config(kind: Kind, events: usize) -> ServeConfig {
    let base = ServeConfig {
        k: K,
        beam_width: BEAM_WIDTH,
        max_inflight: SLOTS,
        slo: SloPolicy::None,
        rerank_depth: 32,
        ..ServeConfig::default()
    };
    match kind {
        // The whole trial is backlogged at t = 0: the queue must hold it.
        Kind::ClosedFp32 | Kind::ClosedInt8 => ServeConfig {
            queue_capacity: events,
            ..base
        },
        Kind::OpenZipf => ServeConfig {
            queue_capacity: 256,
            ..base
        },
        _ => base,
    }
}

/// The traffic scenario of one trial. `rate` overrides the arrival rate
/// of `open_zipf` (the ladder); other workloads ignore it.
pub fn scenario(kind: Kind, sizes: &Sizes, seeds: &Seeds, rate: f64) -> Scenario {
    let (arrivals, mix) = match kind {
        Kind::ClosedFp32 | Kind::ClosedInt8 | Kind::PaperBatch => {
            (ArrivalModel::ClosedLoop, QueryMix::single_tenant())
        }
        Kind::OpenZipf => (
            ArrivalModel::Poisson { rate_qps: rate },
            QueryMix {
                zipf_theta: 0.99,
                delete_fraction: 0.0,
                tenants: vec![
                    TenantProfile::new(0)
                        .weight(3.0)
                        .k(K)
                        .deadline_ns(DEADLINE_NS),
                    TenantProfile::new(1)
                        .weight(1.0)
                        .k(4)
                        .deadline_ns(DEADLINE_NS),
                ],
            },
        ),
        Kind::MixedRw => (
            ArrivalModel::Poisson { rate_qps: 4_000.0 },
            QueryMix {
                zipf_theta: 0.0,
                delete_fraction: 0.3,
                tenants: vec![TenantProfile::new(0).update_fraction(0.3)],
            },
        ),
        Kind::Cluster4x2 => (
            ArrivalModel::Poisson { rate_qps: 3_000.0 },
            QueryMix::single_tenant(),
        ),
    };
    Scenario {
        arrivals,
        mix,
        events: sizes.events,
        start_ns: 0,
        seed: seeds.traffic,
    }
}

/// Generates the event stream of `scenario` against the workload's pools
/// (deletable ids = the first half of the corpus).
pub fn generate_trace(scenario: &Scenario, sizes: &Sizes) -> TrafficTrace {
    scenario.generate(sizes.pool, sizes.ingest, 0..(sizes.n / 2) as VectorId)
}

fn build_index(base: &Dataset, seeds: &Seeds) -> Vamana {
    Vamana::build(
        base,
        VamanaParams {
            seed: seeds.vamana,
            ..VamanaParams::default()
        },
    )
}

/// Builds and stages a workload from its seed, timing each stage (and
/// recording `setup → {dataset, index_build, traffic, stage}` spans when
/// the recorder is on).
pub fn setup(kind: Kind, sizes: Sizes, seed: u64, rec: &mut Recorder) -> Staged {
    let seeds = Seeds::derive(seed);
    let mut times = SetupTimes::default();
    let (mut staged, total_s) = rec.scope("setup", |rec| {
        let ((base, pool, ingest), dataset_s) = rec.scope("dataset", |_| {
            let (all, pool) = dataset_spec(&sizes, &seeds).build_pair();
            let base = rows(&all, 0, sizes.n);
            let ingest = rows(&all, sizes.n, sizes.n + sizes.ingest);
            (base, pool, ingest)
        });
        times.dataset_s = dataset_s;

        let serve = serve_config(kind, sizes.events);
        let (trace, traffic_s) = rec.scope("traffic", |_| {
            if kind == Kind::PaperBatch {
                TrafficTrace { events: Vec::new() }
            } else {
                generate_trace(&scenario(kind, &sizes, &seeds, REFERENCE_RATE), &sizes)
            }
        });
        times.traffic_s = traffic_s;

        let (configs, body) = match kind {
            Kind::ClosedFp32 | Kind::ClosedInt8 | Kind::OpenZipf => {
                let configs = device_config(sizes.n, &base, &seeds, kind);
                let (index, build_s) = rec.scope("index_build", |_| build_index(&base, &seeds));
                times.index_build_s = build_s;
                let (prepared, stage_s) = rec.scope("stage", |_| {
                    let prepared = Prepared::stage(
                        &configs[0],
                        index.base_graph(),
                        &base,
                        &BatchTrace::default(),
                    );
                    // The first engine: clones the layout and, under
                    // quantization, trains the code table.
                    drop(ServeEngine::new(
                        &configs[0],
                        serve.clone(),
                        &prepared,
                        &base,
                        index.base_graph(),
                    ));
                    prepared
                });
                times.stage_s = stage_s;
                (configs, Body::Serve { index, prepared })
            }
            Kind::MixedRw => {
                // Room for every insert of the trace on top of the corpus.
                let configs = device_config(sizes.n + sizes.events, &base, &seeds, kind);
                let (index, build_s) = rec.scope("index_build", |_| build_index(&base, &seeds));
                times.index_build_s = build_s;
                let ((), stage_s) = rec.scope("stage", |_| {
                    drop(mixed_engine(&configs[0], &serve, &index, &base));
                });
                times.stage_s = stage_s;
                (configs, Body::Mixed { index })
            }
            Kind::Cluster4x2 => {
                let configs = device_config(sizes.n.div_ceil(SHARDS), &base, &seeds, kind);
                let plan = ShardPlan::partition(
                    sizes.n,
                    SHARDS,
                    ShardPolicy::BalancedSize,
                    seeds.shard_plan,
                );
                let (shards, build_s) = rec.scope("index_build", |_| {
                    plan.extract(&base)
                        .into_iter()
                        .map(|ds| {
                            let index = build_index(&ds, &seeds);
                            (ds, index)
                        })
                        .collect::<Vec<_>>()
                });
                times.index_build_s = build_s;
                let mid_span = trace.span_ns() / 2;
                let replication = ReplicationConfig::replicated(REPLICAS)
                    .with_policy(ReplicaPolicy::Hedged {
                        delay_ns: HEDGE_DELAY_NS,
                    })
                    .with_failures(
                        FailureSchedule::new()
                            .ecc_storm(0, 0, 0, STORM_PROB)
                            .kill(mid_span, 1, 0),
                    );
                let ((), stage_s) = rec.scope("stage", |_| {
                    drop(cluster_engine(
                        &configs[0],
                        &serve,
                        &plan,
                        &replication,
                        &base,
                        &shards,
                    ));
                });
                times.stage_s = stage_s;
                (
                    configs,
                    Body::Cluster {
                        plan,
                        shards,
                        replication,
                    },
                )
            }
            Kind::PaperBatch => {
                let configs = device_config(sizes.n, &base, &seeds, kind);
                let (index, build_s) = rec.scope("index_build", |_| build_index(&base, &seeds));
                times.index_build_s = build_s;
                let (out, search_s) = rec.scope("search_batch", |_| {
                    index.search_batch(
                        &base,
                        &pool,
                        &SearchParams::new(K, BEAM_WIDTH, DistanceKind::L2),
                    )
                });
                times.search_batch_s = search_s;
                let found = out.id_lists();
                let (prepared, stage_s) = rec.scope("stage", |_| {
                    Prepared::stage(&configs[0], index.base_graph(), &base, &out.trace)
                });
                times.stage_s = stage_s;
                (
                    configs,
                    Body::Batch {
                        index,
                        prepared,
                        raw_trace: out.trace,
                        found,
                    },
                )
            }
        };
        Staged {
            kind,
            sizes,
            seeds,
            base,
            pool,
            ingest,
            configs,
            serve,
            trace,
            body,
            times,
        }
    });
    staged.times.total_s = total_s;
    staged
}

fn mixed_engine<'a>(
    config: &'a NdsConfig,
    serve: &ServeConfig,
    index: &Vamana,
    base: &Dataset,
) -> ServeEngine<'a> {
    let deploy = Deployment::stage(config, Box::new(index.clone()), base.clone());
    ServeEngine::with_deployment(config, serve.clone(), deploy)
}

fn cluster_engine<'a>(
    config: &'a NdsConfig,
    serve: &ServeConfig,
    plan: &ShardPlan,
    replication: &ReplicationConfig,
    base: &Dataset,
    shards: &[(Dataset, Vamana)],
) -> ClusterEngine<'a> {
    ClusterEngine::stage_replicated(
        config,
        serve.clone(),
        plan.clone(),
        replication.clone(),
        base,
        |ds| {
            // Index construction is part of set-up, not of a trial: hand
            // every replica a clone of its shard's prebuilt index.
            let (_, index) = shards
                .iter()
                .find(|(shard, _)| shard.len() == ds.len() && shard.vector(0) == ds.vector(0))
                .expect("staging asked for a dataset that is not one of the plan's shards");
            let entry = index.medoid();
            (Box::new(index.clone()) as Box<dyn MutableIndex>, entry)
        },
    )
}

/// What one trial produced on the simulated side.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Serve(ServeReport),
    Cluster(ClusterReport),
    Batch(NdsReport),
}

/// Per-round host timings of a traced trial.
#[derive(Debug, Clone, Default)]
pub struct TraceDetail {
    /// Host ns of each `step_round()` call (empty where the round loop
    /// cannot be stepped from outside: cluster and batch).
    pub round_ns: Vec<u64>,
    pub submit_s: f64,
    pub report_s: f64,
}

/// The recall probe `mixed_rw` runs after its trace drains.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    pub queries: usize,
    pub completed: usize,
    pub recall: f64,
    /// Probe results that named a tombstoned vertex (must be 0).
    pub tombstoned_results: usize,
}

/// The closing compaction of `mixed_rw`.
#[derive(Debug, Clone, PartialEq)]
pub struct Compaction {
    pub host_s: f64,
    pub report: CompactionReport,
    /// The engine's report after the compaction (write amplification and
    /// the device buckets include it).
    pub after: ServeReport,
}

pub struct Trial {
    /// Host seconds of the timed region: submit every request + run to
    /// completion.
    pub host_s: f64,
    pub ops: usize,
    pub outcome: Outcome,
    /// What each trace event became (query id / update id), in trace
    /// order; empty for `paper_batch`.
    pub submitted: Vec<Submitted>,
    /// Host seconds spent staging this trial's engine (untimed).
    pub stage_s: f64,
    pub detail: Option<TraceDetail>,
    pub compaction: Option<Compaction>,
    pub probe: Option<Probe>,
}

/// Runs one trial at `configs[threads - 1]`. With the recorder on, the
/// serving engines are single-stepped (`step_round()`, the public inline
/// path, bit-identical to `run_to_completion`) under one span per round.
pub fn run_trial(st: &Staged, threads: usize, rec: &mut Recorder, probe: bool) -> Trial {
    let config = &st.configs[threads - 1];
    match &st.body {
        Body::Serve { index, prepared } => {
            let stage_start = Instant::now();
            let mut engine = ServeEngine::new(
                config,
                st.serve.clone(),
                prepared,
                &st.base,
                index.base_graph(),
            );
            let stage_s = stage_start.elapsed().as_secs_f64();
            let (host_s, report, submitted, detail) =
                drive_serve(&mut engine, st, &st.trace, index.medoid(), rec);
            Trial {
                host_s,
                ops: st.trace.len(),
                outcome: Outcome::Serve(report),
                submitted,
                stage_s,
                detail,
                compaction: None,
                probe: None,
            }
        }
        Body::Mixed { index } => {
            let stage_start = Instant::now();
            let mut engine = mixed_engine(config, &st.serve, index, &st.base);
            let stage_s = stage_start.elapsed().as_secs_f64();
            let (host_s, report, submitted, detail) =
                drive_serve(&mut engine, st, &st.trace, index.medoid(), rec);
            let compact_start = Instant::now();
            rec.open("compact");
            let compaction = engine
                .compact()
                .expect("mixed_rw serves a mutable deployment");
            rec.close(&[("pages_programmed", compaction.pages_programmed)]);
            let compaction = Compaction {
                host_s: compact_start.elapsed().as_secs_f64(),
                report: compaction,
                after: engine.report(),
            };
            let probe =
                probe.then(|| run_probe(&mut engine, st, index.medoid(), report.outcomes.len()));
            Trial {
                host_s,
                ops: st.trace.len(),
                outcome: Outcome::Serve(report),
                submitted,
                stage_s,
                detail,
                compaction: Some(compaction),
                probe,
            }
        }
        Body::Cluster {
            plan,
            shards,
            replication,
        } => {
            let stage_start = Instant::now();
            let mut cluster =
                cluster_engine(config, &st.serve, plan, replication, &st.base, shards);
            let stage_s = stage_start.elapsed().as_secs_f64();
            let start = Instant::now();
            rec.open("submit");
            let submitted = st.trace.submit_cluster(&mut cluster, &st.pool, &st.ingest);
            rec.close(&[("requests", submitted.len() as u64)]);
            let submit_s = start.elapsed().as_secs_f64();
            // The cluster's round loop cannot be stepped from outside:
            // one `drain` span covers it.
            rec.open("drain");
            let report = cluster.run_to_completion();
            rec.close(&[("hop_rounds", cluster_hop_rounds(&report))]);
            let host_s = start.elapsed().as_secs_f64();
            let report_start = Instant::now();
            rec.open("report");
            let again = cluster.report();
            rec.close(&[]);
            let report_s = report_start.elapsed().as_secs_f64();
            debug_assert!(again == report);
            Trial {
                host_s,
                ops: st.trace.len(),
                outcome: Outcome::Cluster(report),
                submitted,
                stage_s,
                detail: rec.enabled().then_some(TraceDetail {
                    round_ns: Vec::new(),
                    submit_s,
                    report_s,
                }),
                compaction: None,
                probe: None,
            }
        }
        Body::Batch { prepared, .. } => {
            let start = Instant::now();
            rec.open("drain");
            let report = NdsEngine::new(config).run(prepared);
            rec.close(&[("iterations", report.iterations as u64)]);
            let host_s = start.elapsed().as_secs_f64();
            Trial {
                host_s,
                ops: st.sizes.events,
                outcome: Outcome::Batch(report),
                submitted: Vec::new(),
                stage_s: 0.0,
                detail: rec.enabled().then(TraceDetail::default),
                compaction: None,
                probe: None,
            }
        }
    }
}

/// Hop-executing rounds summed over every replica device.
pub fn cluster_hop_rounds(report: &ClusterReport) -> u64 {
    report
        .shards
        .iter()
        .flat_map(|s| &s.replicas)
        .map(|r| r.report.rounds)
        .sum()
}

/// Submits `trace` and drains the engine; returns the timed host seconds
/// (submit + run), the report, the submission map and — when the recorder
/// is on — the per-round host timings.
pub fn drive_serve(
    engine: &mut ServeEngine<'_>,
    st: &Staged,
    trace: &TrafficTrace,
    entry: VectorId,
    rec: &mut Recorder,
) -> (f64, ServeReport, Vec<Submitted>, Option<TraceDetail>) {
    let start = Instant::now();
    if !rec.enabled() {
        let submitted = trace.submit_serve(engine, &st.pool, &st.ingest, &[entry]);
        let report = engine.run_to_completion();
        return (start.elapsed().as_secs_f64(), report, submitted, None);
    }
    rec.open("submit");
    let submitted = trace.submit_serve(engine, &st.pool, &st.ingest, &[entry]);
    rec.close(&[("requests", submitted.len() as u64)]);
    let submit_s = start.elapsed().as_secs_f64();
    let mut round_ns = Vec::new();
    loop {
        let before_ns = engine.now_ns();
        let round_start = Instant::now();
        rec.open("round");
        let more = engine.step_round();
        let elapsed = round_start.elapsed();
        rec.close(&[("sim_ns", engine.now_ns() - before_ns)]);
        round_ns.push(elapsed.as_nanos() as u64);
        if !more {
            break;
        }
    }
    let report_start = Instant::now();
    rec.open("report");
    let report = engine.report();
    rec.close(&[
        ("sessions", report.outcomes.len() as u64),
        ("hop_rounds", report.rounds),
        (
            "hops",
            report.outcomes.iter().map(|o| o.hops as u64).sum::<u64>(),
        ),
    ]);
    let report_s = report_start.elapsed().as_secs_f64();
    let detail = TraceDetail {
        round_ns,
        submit_s,
        report_s,
    };
    (
        start.elapsed().as_secs_f64(),
        report,
        submitted,
        Some(detail),
    )
}

/// Brute-force top-`k` of every query over the live (non-tombstoned)
/// rows of `dataset`.
fn live_ground_truth(
    dataset: &Dataset,
    is_deleted: impl Fn(VectorId) -> bool,
    queries: &Dataset,
    k: usize,
) -> Vec<Vec<VectorId>> {
    queries
        .iter()
        .map(|(_, q)| {
            let mut top = TopK::new(k);
            for (id, v) in dataset.iter() {
                if !is_deleted(id) {
                    top.push(Neighbor::new(DistanceKind::L2.eval(q, v), id));
                }
            }
            top.into_sorted_vec().iter().map(|n| n.id).collect()
        })
        .collect()
}

/// After the trace has drained (and compacted): a batch of pool queries
/// against the mutated deployment, scored against brute force over the
/// live vectors. `first` is the id the probe's first query will get.
fn run_probe(engine: &mut ServeEngine<'_>, st: &Staged, entry: VectorId, first: usize) -> Probe {
    let now = engine.now_ns();
    let queries = rows(&st.pool, 0, st.sizes.probe.min(st.pool.len()));
    for (_, q) in queries.iter() {
        engine.submit(QueryRequest::at(now, q.to_vec(), vec![entry]));
    }
    let report = engine.run_to_completion();
    let outcomes = &report.outcomes[first..];
    let deploy = engine.deployment();
    let truth = live_ground_truth(deploy.dataset(), |id| deploy.is_deleted(id), &queries, K);
    let found: Vec<Vec<VectorId>> = outcomes
        .iter()
        .map(|o| o.results.iter().map(|nb| nb.id).collect())
        .collect();
    Probe {
        queries: queries.len(),
        completed: outcomes
            .iter()
            .filter(|o| o.state == ndsearch_core::serve::SessionState::Completed)
            .count(),
        recall: ndsearch_vector::recall_at_k(&truth, &found, K),
        tombstoned_results: found
            .iter()
            .flatten()
            .filter(|&&id| deploy.is_deleted(id))
            .count(),
    }
}

/// One rung of the `open_zipf` rate ladder: a fresh engine serving the
/// same scenario at `rate` under `slo`.
pub fn run_at_rate(st: &Staged, rate: f64, slo: SloPolicy) -> ServeReport {
    let Body::Serve { index, prepared } = &st.body else {
        panic!("the rate ladder runs on a query-only serving workload");
    };
    let trace = generate_trace(&scenario(st.kind, &st.sizes, &st.seeds, rate), &st.sizes);
    let serve = ServeConfig {
        slo,
        ..st.serve.clone()
    };
    let mut engine = ServeEngine::new(
        &st.configs[0],
        serve,
        prepared,
        &st.base,
        index.base_graph(),
    );
    trace.submit_serve(&mut engine, &st.pool, &st.ingest, &[index.medoid()]);
    engine.run_to_completion()
}
