//! Cheap, assertable versions of the qualitative shapes in the paper's
//! remaining figures (ECC sweep, LUN coverage, batch behaviour, Table I).

use ndsearch::anns::hnsw::{Hnsw, HnswParams};
use ndsearch::anns::index::{GraphAnnsIndex, SearchParams};
use ndsearch::core::config::{NdsConfig, SchedulingConfig};
use ndsearch::core::engine::NdsEngine;
use ndsearch::core::pipeline::Prepared;
use ndsearch::flash::ecc::EccConfig;
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::DistanceKind;

struct Fixture {
    base: ndsearch::vector::Dataset,
    graph: ndsearch::graph::Csr,
    trace: ndsearch::anns::trace::BatchTrace,
    config: NdsConfig,
}

fn fixture(batch: usize) -> Fixture {
    let (base, queries) = DatasetSpec::sift_scaled(2500, batch).build_pair();
    let index = Hnsw::build(&base, HnswParams::default());
    let out = index.search_batch(
        &base,
        &queries,
        &SearchParams::new(10, 64, DistanceKind::L2),
    );
    let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    Fixture {
        base,
        graph: index.base_graph().clone(),
        trace: out.trace,
        config,
    }
}

fn run(fx: &Fixture, config: &NdsConfig) -> ndsearch::core::report::NdsReport {
    let prepared = Prepared::stage(config, &fx.graph, &fx.base, &fx.trace);
    NdsEngine::new(config).run(&prepared)
}

/// Fig. 18(b): more hard-decision LDPC failures → monotonically more
/// latency; the 1 % default is within a few percent of fault-free.
#[test]
fn ecc_failure_sweep_is_monotone() {
    let fx = fixture(128);
    let latency = |p: f64| {
        let config = NdsConfig {
            ecc: EccConfig {
                hard_decision_failure_prob: p,
                ..EccConfig::default()
            },
            ..fx.config.clone()
        };
        run(&fx, &config).total_ns
    };
    let l0 = latency(0.0);
    let l1 = latency(0.01);
    let l5 = latency(0.05);
    let l10 = latency(0.10);
    let l30 = latency(0.30);
    assert!(l1 <= l5 && l5 <= l10 && l10 <= l30, "{l1} {l5} {l10} {l30}");
    let default_overhead = l1 as f64 / l0 as f64;
    assert!(
        default_overhead < 1.20,
        "1% failures should be cheap: {default_overhead}"
    );
    let worst = l30 as f64 / l1 as f64;
    assert!(
        (1.02..=2.5).contains(&worst),
        "30% failure slowdown {worst} should be visible but bounded (paper: 1.23-1.66x)"
    );
}

/// Fig. 4(b): with the construction-order layout, a large batch touches
/// most LUNs (the paper measures >82 %).
#[test]
fn batch_touches_most_luns() {
    let fx = fixture(256);
    let config = NdsConfig {
        scheduling: SchedulingConfig::bare(),
        ..fx.config.clone()
    };
    let r = run(&fx, &config);
    assert!(
        r.lun_coverage > 0.5,
        "LUN coverage {} should be high for a 256-query batch",
        r.lun_coverage
    );
}

/// Fig. 19: batches past the resource cap split into sub-batches and
/// throughput per batch stops improving.
#[test]
fn oversized_batches_split() {
    let fx = fixture(96);
    let mut config = fx.config.clone();
    config.max_batch_inflight = 32;
    let r = run(&fx, &config);
    assert_eq!(r.sub_batches, 3);
    config.max_batch_inflight = 4096;
    let single = run(&fx, &config);
    assert_eq!(single.sub_batches, 1);
    assert!(single.total_ns <= r.total_ns, "splitting must not be free");
}

/// Fig. 17: the breakdown buckets cover the whole critical path and NAND
/// read is a leading component under the full scheduling stack.
#[test]
fn breakdown_is_complete_and_nand_led() {
    let fx = fixture(256);
    let r = run(&fx, &fx.config);
    assert_eq!(r.breakdown.total_ns(), r.total_ns);
    let fractions = r.breakdown.fractions();
    let nand = fractions
        .iter()
        .find(|(l, _)| *l == "NAND read")
        .map(|(_, f)| *f)
        .expect("bucket exists");
    assert!(
        nand > 0.10,
        "NAND read fraction {nand} should be significant"
    );
    let pcie = fractions
        .iter()
        .find(|(l, _)| *l == "SSD I/O (PCIe)")
        .map(|(_, f)| *f)
        .unwrap();
    assert!(
        pcie < 0.25,
        "PCIe fraction {pcie} must be small (paper ~6%)"
    );
}

/// Table I / §VII-B: power budget and storage density arithmetic.
#[test]
fn table1_budget_and_density() {
    use ndsearch::core::area::AreaModel;
    use ndsearch::core::energy::PowerModel;
    let p = PowerModel::default();
    assert!((p.ndsearch_total_w() - 26.32).abs() < 0.01);
    assert!(p.within_budget());
    let a = AreaModel::searssd_default();
    assert!((a.effective_density() - 5.64).abs() < 0.05);
}
