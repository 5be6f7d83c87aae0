//! The paper's evaluation (Figs. 1–2, 4, 6, 13–21, Table I) and the one
//! ablation this repository adds to it (the speculation budget, extending
//! Fig. 15) as one registry: each entry is an id, a title, the one-line
//! description README prints, and a body that returns tables drawn from
//! the shared [`Workloads`] cache. What the paper itself reports for a
//! figure lives in [`PAPER_REFS`](crate::refs::PAPER_REFS), not here.

use std::collections::HashSet;

use ndsearch_anns::index::AnnsAlgorithm;
use ndsearch_anns::trace::BatchTrace;
use ndsearch_baselines::{
    CpuPlatform, DeepStorePlatform, GpuPlatform, Platform, PlatformReport, SmartSsdPlatform,
};
use ndsearch_core::area::AreaModel;
use ndsearch_core::config::{NdsConfig, SchedulingConfig};
use ndsearch_core::energy::{searssd_components, PowerModel};
use ndsearch_core::pipeline::Prepared;
use ndsearch_core::report::LatencyBreakdown;
use ndsearch_core::{NdsEngine, NdsReport};
use ndsearch_flash::ecc::{plane_raw_bers, EccConfig};
use ndsearch_flash::{FlashGeometry, FlashTiming};
use ndsearch_graph::legacy::LegacyLayout;
use ndsearch_graph::mapping::PlacementPolicy;
use ndsearch_graph::reorder::{Permutation, ReorderMethod};
use ndsearch_vector::synthetic::BenchmarkId;

use crate::refs::scoreboard;
use crate::{f, Col, Scale, Table, Workload, Workloads};

/// One figure or table of the evaluation.
pub struct Figure {
    /// What `paper_figs <id>` selects.
    pub id: &'static str,
    /// The paper's name for it.
    pub title: &'static str,
    /// One line on what it shows (README's figure map).
    pub about: &'static str,
    /// Renders it at a scale.
    pub body: fn(&mut Workloads, Scale) -> Vec<Table>,
}

impl Figure {
    /// The body's tables, then the paper / ours / in-band table for the
    /// quantities the paper states for this figure.
    pub fn render(&self, ws: &mut Workloads, scale: Scale) -> Vec<Table> {
        let mut tables = (self.body)(ws, scale);
        let scored = scoreboard(self.id, &tables);
        tables.extend(scored);
        tables
    }
}

const fn figure(
    id: &'static str,
    title: &'static str,
    about: &'static str,
    body: fn(&mut Workloads, Scale) -> Vec<Table>,
) -> Figure {
    Figure {
        id,
        title,
        about,
        body,
    }
}

/// Every entry `paper_figs` can render: the paper's, in its order, then
/// the speculation ablation.
#[rustfmt::skip]
pub const FIGURES: [Figure; 15] = [
    figure("fig01", "Fig. 1", "SSD I/O read share of CPU time on the billion-scale sets", fig01),
    figure("fig02", "Fig. 2", "PCIe utilization against batch; the bandwidth roofline", fig02),
    figure("fig04", "Fig. 4", "page and LUN access pattern before any scheduling", fig04),
    figure("fig06", "Fig. 6", "page bytes wasted by the legacy interleaved layout", fig06),
    figure("fig13", "Fig. 13", "throughput and speedup over CPU of all six platforms", fig13),
    figure("fig14", "Fig. 14", "static scheduling: reordering against none and random BFS", fig14),
    figure("fig15", "Fig. 15", "dynamic scheduling: allocating and speculative searching", fig15),
    figure("fig16", "Fig. 16", "ablation ladder Bare, re, +mp, +da, +sp on spacev-1b", fig16),
    figure("fig17", "Fig. 17", "execution-time breakdown of NDSEARCH itself", fig17),
    figure("fig18", "Fig. 18", "plane raw BER; latency against LDPC hard-decision failures", fig18),
    figure("fig19", "Fig. 19", "speedup over DS-cp from 1/8 to 4 times the batch", fig19),
    figure("fig20", "Fig. 20", "energy efficiency (QPS/W) of all six platforms", fig20),
    figure("fig21", "Fig. 21", "HCNNG and TOGG on sift-1b, with the terabyte-DRAM CPU-T", fig21),
    figure("table1", "Table I", "SearSSD logic power and area; budget; storage density", table1),
    figure("ablation_speculation", "beyond the paper", "speculation budget: hits against wasted page reads", ablation_speculation),
];

/// The two algorithms every headline figure runs.
const ALGOS: [AnnsAlgorithm; 2] = [AnnsAlgorithm::Hnsw, AnnsAlgorithm::DiskAnn];

/// One table per algorithm of [`ALGOS`], its rows the `items_of` each of
/// the five datasets' workloads at `scale.batch`.
fn per_algo<T>(
    ws: &mut Workloads,
    scale: Scale,
    title: impl Fn(AnnsAlgorithm) -> String,
    items_of: impl Fn(&Workload) -> Vec<T>,
    cols: &[Col<T>],
) -> Vec<Table> {
    let mut table_of = |algo| {
        let mut items = Vec::new();
        for bench in BenchmarkId::ALL {
            items.extend(items_of(&ws.get(bench, algo, scale.batch)));
        }
        Table::of(title(algo), &items, cols)
    };
    ALGOS.map(&mut table_of).into()
}

/// One platform's replay of a workload, beside what its row is normalized to.
struct Replay {
    bench: BenchmarkId,
    recall: f64,
    report: PlatformReport,
    cpu_qps: f64,
    nds_qps_per_watt: f64,
}

/// All six platforms on `w`.
fn replays(w: &Workload) -> Vec<Replay> {
    let reports = w.all_platform_reports();
    let cpu_qps = reports[0].qps();
    let nds_qps_per_watt = reports.last().expect("ndsearch present").qps_per_watt();
    let replay = |report| Replay {
        bench: w.benchmark,
        recall: w.recall_at_10,
        report,
        cpu_qps,
        nds_qps_per_watt,
    };
    reports.into_iter().map(replay).collect()
}

/// One NDSEARCH run of a sweep over configurations, beside the sweep's
/// first run.
struct Run {
    bench: BenchmarkId,
    label: String,
    r: NdsReport,
    first: NdsReport,
}

impl Run {
    fn speedup_over_first(&self) -> f64 {
        self.first.total_ns as f64 / self.r.total_ns as f64
    }
}

/// Runs `w` under each labelled configuration in turn.
fn runs<L: ToString>(w: &Workload, configs: impl IntoIterator<Item = (L, NdsConfig)>) -> Vec<Run> {
    let mut out: Vec<Run> = Vec::new();
    for (label, config) in configs {
        let r = w.run_config(&config);
        out.push(Run {
            bench: w.benchmark,
            label: label.to_string(),
            first: out
                .first()
                .map_or_else(|| r.clone(), |run| run.first.clone()),
            r,
        });
    }
    out
}

/// A throughput bar chart as rows: name, kQPS, speedup over the first bar
/// (the CPU).
fn bars(title: String, name: &str, bars: &[(String, f64)]) -> Table {
    let row =
        |(name, qps): &(String, f64)| vec![name.clone(), f(qps / 1e3, 2), f(qps / bars[0].1, 2)];
    let headers = [name, "kQPS", "speedup vs CPU"];
    Table::new(title, headers, bars.iter().map(row).collect())
}

/// SSD I/O read share on the CPU baseline at half and full batch.
fn fig01(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let datasets = BenchmarkId::ALL
        .into_iter()
        .filter(|b| b.is_billion_scale());
    let mut table_of = |algo| {
        let mut items = Vec::new();
        for bench in datasets.clone() {
            for batch in [scale.batch_over(2), scale.batch] {
                let w = ws.get(bench, algo, batch);
                let io = CpuPlatform::paper_default()
                    .report(&w.scenario())
                    .io_fraction();
                items.push((bench, batch, io, w.recall_at_10));
            }
        }
        Table::of(
            format!("Fig. 1 ({algo} on CPU): execution time breakdown"),
            &items,
            &[
                ("dataset", |x| x.0.to_string()),
                ("batch", |x| x.1.to_string()),
                ("SSD I/O read %", |x| f(100.0 * x.2, 1)),
                ("compute+sort %", |x| f(100.0 * (1.0 - x.2), 1)),
                ("recall@10", |x| f(x.3, 3)),
            ],
        )
    };
    ALGOS.map(&mut table_of).into()
}

/// (a) host-link utilization over batch/128 … batch×4 on HNSW/sift;
/// (b) internal against host bandwidth, and the NDSEARCH speedup it buys.
fn fig02(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let cpu = CpuPlatform::paper_default();
    let mut on_cpu = |bench, batch| {
        let w = ws.get(bench, AnnsAlgorithm::Hnsw, batch);
        (cpu.report(&w.scenario()), w)
    };
    let batches = scale.batch_ladder(&[128, 32, 8, 2]);
    let by_batch: Vec<_> = batches
        .into_iter()
        .map(|batch| {
            let (r, _) = on_cpu(BenchmarkId::Sift1B, batch);
            (batch, r.link_utilization(cpu.pcie_bytes_per_s))
        })
        .collect();
    let utilization = Table::of(
        "Fig. 2a (HNSW on sift-1b, CPU): PCIe bandwidth utilization vs batch",
        &by_batch,
        &[
            ("batch", |x| x.0.to_string()),
            ("utilization %", |x| f(100.0 * x.1, 1)),
        ],
    );

    let internal =
        FlashTiming::default().internal_bandwidth_bytes_per_s(&FlashGeometry::searssd_default());
    let gbps = |x: f64, unit| format!("{x:>8.1} {unit}");
    let roofline = Table::block(
        "Fig. 2b: roofline lifting",
        33,
        &[
            ("SSD I/O (PCIe 3.0 x16) bandwidth", gbps(15.4, "GB/s")),
            ("SearSSD internal bandwidth", gbps(internal / 1e9, "GB/s")),
            ("lift", gbps(internal / 15.4e9, "x")),
        ],
    );

    let by_dataset = BenchmarkId::ALL.map(|bench| {
        let (cpu_r, w) = on_cpu(bench, scale.batch);
        let nds = w.run_full();
        (bench, cpu_r.qps(), nds.qps())
    });
    let speedup = Table::of(
        "Fig. 2b: HNSW speedup of NDSEARCH over CPU",
        &by_dataset,
        &[
            ("dataset", |x| x.0.to_string()),
            ("CPU kQPS", |x| f(x.1 / 1e3, 2)),
            ("NDSEARCH kQPS", |x| f(x.2 / 1e3, 2)),
            ("speedup x", |x| f(x.2 / x.1, 1)),
        ],
    );
    vec![utilization, roofline, speedup]
}

/// The search phase on the Bare machine: (a) pages touched and useful
/// bytes per page for 10 sampled queries; (b) share of all LUNs touched by
/// each tenth of the batch.
fn fig04(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let w = ws.get(BenchmarkId::Sift1B, AnnsAlgorithm::Hnsw, scale.batch);
    let config = w.scheduled(SchedulingConfig::bare());
    let prepared = Prepared::stage(&config, &w.graph, &w.base, &w.trace);
    let geom = &config.geometry;

    let step = (w.trace.len() / 10).max(1);
    let sampled = w.trace.queries.iter().step_by(step).take(10).enumerate();
    let per_query: Vec<_> = sampled
        .map(|(qi, q)| {
            let visited = q.visited_sequence().count();
            let pages: HashSet<_> = q
                .visited_sequence()
                .map(|v| prepared.luncsr.physical_addr(v).page_key(geom))
                .collect();
            let useful = (visited * prepared.vector_bytes) as f64
                / (pages.len() as f64 * f64::from(geom.page_bytes));
            (qi, visited, pages.len(), useful)
        })
        .collect();
    let pages = Table::of(
        "Fig. 4a: per-query page access pattern (construction order)",
        &per_query,
        &[
            ("query", |x| format!("q{}", x.0)),
            ("trace len", |x| x.1.to_string()),
            ("pages", |x| x.2.to_string()),
            ("pages/trace", |x| f(x.2 as f64 / x.1.max(1) as f64, 3)),
            ("useful bytes %", |x| f(100.0 * x.3.min(1.0), 1)),
        ],
    );

    let identity = Permutation::identity(w.graph.num_vertices());
    let tenth = (w.trace.len() / 10).max(1);
    let per_tenth: Vec<_> = (w.trace.queries.chunks(tenth).take(10).enumerate())
        .map(|(b, queries)| {
            let sub = BatchTrace {
                queries: queries.to_vec(),
            };
            let sub_prepared = Prepared {
                trace: sub.relabel(&identity),
                ..prepared.clone()
            };
            let coverage = NdsEngine::new(&config).run(&sub_prepared).lun_coverage;
            (b, queries.len(), coverage)
        })
        .collect();
    let luns = Table::of(
        "Fig. 4b: LUN coverage per batch (construction order)",
        &per_tenth,
        &[
            ("batch", |x| format!("batch {}", x.0)),
            ("queries", |x| x.1.to_string()),
            ("LUNs touched %", |x| f(100.0 * x.2, 1)),
        ],
    );
    vec![pages, luns]
}

/// Legacy layout overhead at the paper's example and three page shapes.
fn fig06(_: &mut Workloads, _: Scale) -> Vec<Table> {
    let paged = |vector_bytes| LegacyLayout {
        vector_bytes,
        page_bytes: 16 * 1024,
        ..LegacyLayout::paper_example()
    };
    let layouts = [
        (
            "paper example (128 B vec, 4 KiB page)",
            LegacyLayout::paper_example(),
        ),
        ("sift-style (128 B vec, 16 KiB page)", paged(128)),
        ("deep-style (384 B vec, 16 KiB page)", paged(384)),
        ("glove-style (400 B vec, 16 KiB page)", paged(400)),
    ];
    vec![Table::of(
        "Fig. 6: legacy interleaved layout overhead per page read",
        &layouts,
        &[
            ("configuration", |x| x.0.to_string()),
            ("slice B", |x| x.1.slice_bytes().to_string()),
            ("slices/page", |x| x.1.slices_per_page().to_string()),
            ("wasted nbr %", |x| f(100.0 * x.1.wasted_fraction(), 1)),
            ("nbr area %", |x| f(100.0 * x.1.neighbor_fraction(), 1)),
            ("pad waste % (deg 24)", |x| {
                f(100.0 * x.1.padding_waste(24.0), 1)
            }),
        ],
    )]
}

/// Throughput of all six platforms, normalized to CPU.
fn fig13(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let batch = scale.batch;
    per_algo(
        ws,
        scale,
        |algo| format!("Fig. 13 ({algo}, batch {batch}): throughput & speedup vs CPU"),
        replays,
        &[
            ("dataset", |x| x.bench.to_string()),
            ("platform", |x| x.report.name.clone()),
            ("kQPS", |x| f(x.report.qps() / 1e3, 2)),
            ("speedup vs CPU", |x| f(x.report.qps() / x.cpu_qps, 2)),
            ("recall@10", |x| f(x.recall, 3)),
        ],
    )
}

/// The three reorderings, each with multi-plane placement and dynamic
/// allocating on and speculation off.
fn fig14(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let settings = [
        ("w/o re", ReorderMethod::Identity),
        ("ran bfs", ReorderMethod::RandomBfs),
        ("ours", ReorderMethod::DegreeAscendingBfs),
    ];
    let items_of = |w: &Workload| {
        let config = |(label, reorder)| {
            let sched = SchedulingConfig {
                reorder,
                placement: PlacementPolicy::MultiPlaneAware,
                dynamic_allocating: true,
                speculative: false,
            };
            (label, w.scheduled(sched))
        };
        runs(w, settings.map(config))
    };
    per_algo(
        ws,
        scale,
        |algo| format!("Fig. 14 ({algo}): static scheduling"),
        items_of,
        &[
            ("dataset", |x| x.bench.to_string()),
            ("setting", |x| x.label.clone()),
            ("page access ratio", |x| f(x.r.page_access_ratio(), 4)),
            ("speedup vs w/o re", |x| f(x.speedup_over_first(), 3)),
        ],
    )
}

/// Static scheduling on; dynamic allocating (da) and speculative searching
/// (sp) switched on in turn.
fn fig15(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let settings = [
        ("w/o ds", false, false),
        ("da", true, false),
        ("da+sp", true, true),
    ];
    let items_of = |w: &Workload| {
        let config = |(label, dynamic_allocating, speculative)| {
            let sched = SchedulingConfig {
                dynamic_allocating,
                speculative,
                ..SchedulingConfig::full()
            };
            (label, w.scheduled(sched))
        };
        runs(w, settings.map(config))
    };
    per_algo(
        ws,
        scale,
        |algo| format!("Fig. 15 ({algo}): dynamic scheduling"),
        items_of,
        &[
            ("dataset", |x| x.bench.to_string()),
            ("setting", |x| x.label.clone()),
            ("norm. page accesses", |x| {
                f(
                    x.r.stats.page_reads as f64 / x.first.stats.page_reads.max(1) as f64,
                    3,
                )
            }),
            ("speedup vs w/o ds", |x| f(x.speedup_over_first(), 2)),
            ("spec hit %", |x| match x.label.as_str() {
                "da+sp" => f(100.0 * x.r.speculation.hit_rate(), 1),
                _ => "-".to_string(),
            }),
        ],
    )
}

/// The scheduling ladder on spacev-1b under CPU, GPU and DS-cp reference
/// bars.
fn fig16(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let mut table_of = |algo| {
        let w = ws.get(BenchmarkId::SpaceV1B, algo, scale.batch);
        let s = w.scenario();
        let mut rungs = vec![
            (
                "CPU".to_string(),
                CpuPlatform::paper_default().report(&s).qps(),
            ),
            (
                "GPU".to_string(),
                GpuPlatform::paper_default().report(&s).qps(),
            ),
            (
                "DS-cp".to_string(),
                DeepStorePlatform::chip_level().report(&s).qps(),
            ),
        ];
        let ladder = SchedulingConfig::ablation_ladder();
        let ladder = runs(
            &w,
            ladder.into_iter().map(|(l, sched)| (l, w.scheduled(sched))),
        );
        rungs.extend(ladder.iter().map(|run| (run.label.clone(), run.r.qps())));
        // The ladder runs Bare first and the full stack last.
        let gain = rungs.last().expect("ladder ran").1 / ladder[0].r.qps().max(1e-9);
        bars(
            format!("Fig. 16 ({algo} on spacev-1b): ablation"),
            "configuration",
            &rungs,
        )
        .notes(0, &[("full-stack gain over Bare", format!("{gain:.2}x"))])
    };
    ALGOS.map(&mut table_of).into()
}

/// Where a full-stack batch's time goes, one column per
/// `LatencyBreakdown::fractions` bucket.
fn fig17(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let buckets = LatencyBreakdown::default().fractions();
    let shares = buckets.iter().map(|(label, _)| format!("{label} %"));
    let headers: Vec<String> = std::iter::once("dataset".to_string())
        .chain(shares)
        .collect();
    let mut table_of = |algo| {
        let row = |bench: BenchmarkId| {
            let w = ws.get(bench, algo, scale.batch);
            let r = w.run_full();
            let shares = r.breakdown.fractions();
            let shares = shares.iter().map(|(_, share)| f(100.0 * share, 1));
            std::iter::once(bench.to_string()).chain(shares).collect()
        };
        Table::new(
            format!("Fig. 17 ({algo}): NDSEARCH execution-time breakdown"),
            &headers,
            BenchmarkId::ALL.map(row).into(),
        )
    };
    ALGOS.map(&mut table_of).into()
}

/// (a) raw-BER histogram of SearSSD's 512 planes; (b) HNSW latency with
/// the hard-decision failure probability forced to each point of
/// [`EccConfig::failure_sweep`] (30 / 10 / 5 / 1 %), normalized to the
/// 1 % default.
fn fig18(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let raw_bers = plane_raw_bers(&FlashGeometry::searssd_default(), EccConfig::default().seed);
    let edges = [2.5e-7, 5e-7, 1e-6, 2e-6, 4e-6, 8e-6];
    let mut buckets = [
        "<2.5e-7", "<5e-7", "<1e-6", "<2e-6", "<4e-6", "<8e-6", ">=8e-6",
    ]
    .map(|label| (label, 0u32));
    for ber in raw_bers {
        buckets[edges.iter().take_while(|&&e| ber >= e).count()].1 += 1;
    }
    let bers = Table::of(
        "Fig. 18a: plane-level raw BER distribution (512 planes)",
        &buckets,
        &[
            ("raw BER bucket", |x| x.0.to_string()),
            ("#planes", |x| x.1.to_string()),
        ],
    );

    let sweep = EccConfig::failure_sweep();
    let row = |bench: BenchmarkId| {
        let w = ws.get(bench, AnnsAlgorithm::Hnsw, scale.batch);
        let total_ns = |hard_decision_failure_prob| {
            let ecc = EccConfig {
                hard_decision_failure_prob,
                ..EccConfig::default()
            };
            let config = NdsConfig {
                ecc,
                ..w.scheduled(SchedulingConfig::full())
            };
            w.run_config(&config).total_ns as f64
        };
        let base = total_ns(EccConfig::default().hard_decision_failure_prob);
        let slowdowns = sweep.map(|p| f(total_ns(p) / base, 3));
        std::iter::once(bench.to_string())
            .chain(slowdowns)
            .collect()
    };
    let headers = sweep.map(|p| format!("{}%", (p * 100.0).round()));
    let latency = Table::new(
        "Fig. 18b: normalized HNSW latency vs hard-decision failure prob",
        std::iter::once("dataset".to_string()).chain(headers),
        BenchmarkId::ALL.map(row).into(),
    );
    vec![bers, latency]
}

/// NDSEARCH over DS-cp at batch/8 … batch×4: LUN parallelism is starved
/// at the small end, and past the resource cap batches split into
/// sub-batches.
fn fig19(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let batches = scale.batch_ladder(&[8, 4, 2]);
    let headers =
        std::iter::once("dataset".to_string()).chain(batches.iter().map(usize::to_string));
    let headers: Vec<String> = headers.collect();
    let mut table_of = |algo| {
        let row = |bench: BenchmarkId| {
            let speedups = batches.iter().map(|&batch| {
                let w = ws.get(bench, algo, batch);
                let dscp = DeepStorePlatform::chip_level().report(&w.scenario());
                f(w.run_config(&w.config).qps() / dscp.qps(), 2)
            });
            std::iter::once(bench.to_string()).chain(speedups).collect()
        };
        Table::new(
            format!("Fig. 19 ({algo}): NDSEARCH speedup over DS-cp vs batch size"),
            &headers,
            BenchmarkId::ALL.map(row).into(),
        )
    };
    ALGOS.map(&mut table_of).into()
}

/// QPS per wall-plug watt of all six platforms.
fn fig20(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    per_algo(
        ws,
        scale,
        |algo| format!("Fig. 20 ({algo}): energy efficiency"),
        replays,
        &[
            ("dataset", |x| x.bench.to_string()),
            ("platform", |x| x.report.name.clone()),
            ("power W", |x| f(x.report.power_w, 1)),
            ("QPS/W", |x| f(x.report.qps_per_watt(), 2)),
            ("NDSEARCH advantage x", |x| {
                f(x.nds_qps_per_watt / x.report.qps_per_watt().max(1e-12), 1)
            }),
        ],
    )
}

/// The direction-optimized algorithms on sift-1b.
fn fig21(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let mut table_of = |algo| {
        let w = ws.get(BenchmarkId::Sift1B, algo, scale.batch);
        let s = w.scenario();
        let nds = w.run_full();
        let platforms = [
            ("CPU", CpuPlatform::paper_default().report(&s).qps()),
            ("CPU-T", CpuPlatform::terabyte_dram().report(&s).qps()),
            (
                "SmartSSD",
                SmartSsdPlatform::paper_default().report(&s).qps(),
            ),
            ("DS-cp", DeepStorePlatform::chip_level().report(&s).qps()),
            ("NDSEARCH", nds.qps()),
        ]
        .map(|(name, qps)| (name.to_string(), qps));
        let title = format!("Fig. 21 ({algo} on sift-1b): throughput & speedup");
        bars(title, "platform", &platforms).lines([format!("recall@10 = {:.3}", w.recall_at_10)])
    };
    [AnnsAlgorithm::Hcnng, AnnsAlgorithm::Togg]
        .map(&mut table_of)
        .into()
}

/// Table I, the §VII-B power-budget and storage-density arithmetic, and
/// the logic area of the compared accelerators.
fn table1(_: &mut Workloads, _: Scale) -> Vec<Table> {
    let components = searssd_components();
    let power = PowerModel::default();
    let total_p: f64 = components.iter().map(|c| c.power_w).sum();
    let total_a: f64 = components.iter().map(|c| c.area_mm2).sum();
    let within = if power.within_budget() { "yes" } else { "NO" };
    let breakdown = Table::of(
        "Table I: power and area breakdown of SearSSD",
        &components,
        &[
            ("component", |c| c.name.to_string()),
            ("config", |c| c.config.to_string()),
            ("num", |c| match c.count {
                0 => "-".to_string(),
                count => count.to_string(),
            }),
            ("power W", |c| f(c.power_w, 2)),
            ("area mm^2", |c| f(c.area_mm2, 2)),
        ],
    )
    .notes(
        25,
        &[
            (
                "SearSSD logic total",
                format!("{total_p:.2} W, {total_a:.2} mm^2"),
            ),
            ("FPGA bitonic kernel", format!("{:.2} W", 7.5)),
            (
                "NDSEARCH total",
                format!("{:.2} W", power.ndsearch_total_w()),
            ),
            ("within ~55 W PCIe budget", within.to_string()),
        ],
    );

    let area = AreaModel::searssd_default();
    let density = Table::block(
        "Storage density (§VII-B)",
        25,
        &[
            (
                "base V-NAND density",
                format!("{:.2} Gb/mm^2", area.base_density_gb_per_mm2),
            ),
            (
                "effective with SiN logic",
                format!("{:.2} Gb/mm^2", area.effective_density()),
            ),
            (
                "degradation",
                format!("{:.1} %", 100.0 * area.density_degradation()),
            ),
        ],
    );

    let areas = Table::of(
        "Accelerator logic area comparison",
        &AreaModel::baseline_areas_mm2(),
        &[
            ("design", |x| x.0.to_string()),
            ("area mm^2", |x| f(x.1, 1)),
        ],
    );
    vec![breakdown, density, areas]
}

/// Sweeps how many second-order neighbors the Pref Unit fetches per
/// iteration, as a multiple of the entry degree (the paper fixes 1×), on
/// HNSW/sift at half the batch.
fn ablation_speculation(ws: &mut Workloads, scale: Scale) -> Vec<Table> {
    let w = ws.get(
        BenchmarkId::Sift1B,
        AnnsAlgorithm::Hnsw,
        scale.batch_over(2),
    );
    let config = |spec_budget_factor: f64| {
        let mut config = NdsConfig {
            spec_budget_factor,
            ..w.scheduled(SchedulingConfig::full())
        };
        config.scheduling.speculative = spec_budget_factor != 0.0;
        let label = match spec_budget_factor {
            0.0 => "off".to_string(),
            factor => format!("{factor}x degree"),
        };
        (label, config)
    };
    vec![Table::of(
        "Speculation-budget ablation (HNSW on sift-1b)",
        &runs(&w, [0.0, 0.25, 0.5, 1.0, 2.0, 4.0].map(config)),
        &[
            ("budget", |x| x.label.clone()),
            ("kQPS", |x| f(x.r.qps() / 1e3, 2)),
            ("speedup vs off", |x| f(x.speedup_over_first(), 3)),
            ("hit %", |x| f(100.0 * x.r.speculation.hit_rate(), 1)),
            ("page reads", |x| x.r.stats.page_reads.to_string()),
        ],
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::PAPER_REFS;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    const TINY: Scale = Scale {
        n: 400,
        batch: 16,
        k: 10,
    };

    /// Reference rows in band at `TINY`, as `fig/row`. A toy-scale drift
    /// detector, not a fidelity claim: when a model change moves a row
    /// across its band, update the list and say so in the PR.
    const IN_BAND_AT_TINY: &[&str] = &[
        "fig13/DS-cp / DS-c",
        "fig13/NDSEARCH / DS-cp, billion-scale max",
        "fig13/NDSEARCH / GPU, billion-scale max",
        "fig06/page bytes wasted on neighbor ids, paper's example",
        "fig14/page access ratio left by reordering, min (paper: cut by up to 38 %)",
        "fig14/reordering speedup, max",
        "fig15/da speedup, max",
        "fig15/page accesses left by da, min (paper: cut by up to 73 %)",
        "fig15/sp speedup on top of da, max",
        "fig16/Bare / CPU",
        "fig16/re+mp (no da) / DS-cp",
        "fig17/bitonic (FPGA) share, max",
        "fig20/QPS/W over DS-cp, max",
        "fig20/QPS/W over GPU, max",
        "table1/NDSEARCH total power",
        "table1/SearSSD logic area",
        "table1/SearSSD logic power",
        "table1/storage density with SiN logic",
    ];

    /// Every figure rendered once, in registry order from one cache, and
    /// the graphs that took.
    fn rendered() -> &'static (Vec<Vec<Table>>, usize) {
        static RENDERED: OnceLock<(Vec<Vec<Table>>, usize)> = OnceLock::new();
        RENDERED.get_or_init(|| {
            let mut ws = Workloads::new(TINY);
            let tables = FIGURES
                .iter()
                .map(|fig| fig.render(&mut ws, TINY))
                .collect();
            (tables, ws.builds())
        })
    }

    /// `render` already refused ragged tables, non-finite cells and
    /// unresolved references; what is left is that every figure printed
    /// something and the registry is what README says it is, both ways:
    /// a row for every entry, and no row for an entry that is gone.
    #[test]
    fn every_registry_entry_renders() {
        let readme = include_str!("../../../README.md");
        let ids: BTreeSet<&str> = FIGURES.iter().map(|fig| fig.id).collect();
        assert_eq!(ids.len(), FIGURES.len(), "figure ids must be unique");
        for (fig, tables) in FIGURES.iter().zip(&rendered().0) {
            assert!(tables.iter().any(|t| !t.rows.is_empty()), "{}", fig.id);
            let line = format!("| `{}` | {} | {} |", fig.id, fig.title, fig.about);
            assert!(readme.contains(&line), "README lacks: {line}");
        }
        let rows: Vec<&str> = (readme.lines())
            .skip_while(|l| *l != "| id | paper artifact | what it shows |")
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .collect();
        for row in &rows {
            let id = row.split('`').nth(1).unwrap_or(row);
            assert!(ids.contains(id), "README lists `{id}`, which FIGURES lacks");
        }
        assert_eq!(rows.len(), FIGURES.len(), "one README row per entry");
    }

    /// `render` resolved every reference or failed; this reads the verdicts
    /// back off the `paper vs ours` tables it appended.
    #[test]
    fn paper_refs_resolve_and_the_in_band_set_is_pinned() {
        let mut names = BTreeSet::new();
        let mut in_band = BTreeSet::new();
        for (fig, tables) in FIGURES.iter().zip(&rendered().0) {
            let scored = tables.iter().filter(|t| t.title.ends_with("paper vs ours"));
            for row in scored.flat_map(|t| &t.rows) {
                let name = format!("{}/{}", fig.id, row[0]);
                if row[4] == "yes" {
                    in_band.insert(name.clone());
                }
                assert!(names.insert(name), "duplicate reference row");
            }
        }
        assert_eq!(names.len(), PAPER_REFS.len(), "a reference names no figure");
        let pinned: BTreeSet<String> = IN_BAND_AT_TINY.iter().map(|s| s.to_string()).collect();
        let left: Vec<_> = pinned.difference(&in_band).collect();
        let entered: Vec<_> = in_band.difference(&pinned).collect();
        assert!(
            left.is_empty() && entered.is_empty(),
            "left the paper's band: {left:?}; entered it: {entered:?}"
        );
    }

    #[test]
    fn all_figures_together_build_each_graph_once() {
        // 5 datasets × {HNSW, DiskANN}, plus HCNNG and TOGG on sift-1b.
        assert_eq!(rendered().1, 12);
    }
}
