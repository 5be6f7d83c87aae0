//! The paper's own numbers as data: one [`PaperRef`] per quantity the
//! evaluation section states, with the band it states and how the same
//! quantity is read off the tables our figure prints.
//!
//! How a sentence becomes a band: a range ("24–38 %") is entered as is; a
//! one-sided claim ("> 82 %", "≤ 12 %") gets the natural bound on the open
//! side; "up to x" is the largest value over the paper's rows, so ours is
//! the largest over the same rows and must sit in `[1, x]` for a speedup
//! (NDSEARCH still has to win) or `[0, x]` for a reduction; "≈ x" is
//! `x ± 10 %`; a Table I constant is `[x, x]`. Ours is read from printed
//! cells and so carries their rounding.

use ndsearch_vector::synthetic::BenchmarkId;

use crate::{f, Table};

/// One quantity the paper reports.
pub struct PaperRef {
    /// Registry id of the figure it belongs to.
    pub fig: &'static str,
    /// What is measured; unique within the figure.
    pub row: &'static str,
    /// Lower end of the paper's band.
    pub lo: f64,
    /// Upper end of the paper's band.
    pub hi: f64,
    /// Unit of `lo`, `hi` and ours.
    pub unit: &'static str,
    /// Smallest and largest of our values for it, read off the figure's
    /// tables (NaN when the tables do not hold it).
    pub ours: fn(&[Table]) -> (f64, f64),
}

const INF: f64 = f64::INFINITY;

/// Every reference, in figure order.
#[rustfmt::skip]
pub const PAPER_REFS: &[PaperRef] = &[
    PaperRef { fig: "fig01", row: "SSD I/O read share of CPU time", lo: 61.0, hi: 75.0, unit: "%",
        ours: |t| span(cells(t, "SSD I/O read %", any)) },
    PaperRef { fig: "fig02", row: "PCIe utilization once saturated", lo: 74.7, hi: 91.3, unit: "%",
        ours: |t| max(cells(t, "utilization %", any)) },
    PaperRef { fig: "fig02", row: "NDSEARCH / CPU, billion-scale max", lo: 1.0, hi: 31.7, unit: "x",
        ours: |t| max(cells(t, "speedup x", billion)) },
    PaperRef { fig: "fig04", row: "LUNs touched per batch", lo: 82.0, hi: 100.0, unit: "%",
        ours: |t| min(cells(t, "LUNs touched %", any)) },
    PaperRef { fig: "fig06", row: "page bytes wasted on neighbor ids, paper's example", lo: 46.9, hi: 100.0, unit: "%",
        ours: |t| min(cells(t, "wasted nbr %", |r| has(r, "paper example (128 B vec, 4 KiB page)"))) },
    PaperRef { fig: "fig13", row: "NDSEARCH / CPU, billion-scale max", lo: 1.0, hi: 31.7, unit: "x",
        ours: |t| max(versus(t, "speedup vs CPU", "NDSEARCH", "CPU", billion)) },
    PaperRef { fig: "fig13", row: "NDSEARCH / GPU, billion-scale max", lo: 1.0, hi: 14.6, unit: "x",
        ours: |t| max(versus(t, "speedup vs CPU", "NDSEARCH", "GPU", billion)) },
    PaperRef { fig: "fig13", row: "NDSEARCH / SmartSSD, billion-scale max", lo: 1.0, hi: 7.4, unit: "x",
        ours: |t| max(versus(t, "speedup vs CPU", "NDSEARCH", "SmartSSD", billion)) },
    PaperRef { fig: "fig13", row: "NDSEARCH / DS-cp, billion-scale max", lo: 1.0, hi: 2.9, unit: "x",
        ours: |t| max(versus(t, "speedup vs CPU", "NDSEARCH", "DS-cp", billion)) },
    PaperRef { fig: "fig13", row: "NDSEARCH / CPU, small sets max", lo: 1.0, hi: 5.06, unit: "x",
        ours: |t| max(versus(t, "speedup vs CPU", "NDSEARCH", "CPU", |r| !billion(r))) },
    PaperRef { fig: "fig13", row: "NDSEARCH / GPU, small sets max", lo: 1.0, hi: 2.12, unit: "x",
        ours: |t| max(versus(t, "speedup vs CPU", "NDSEARCH", "GPU", |r| !billion(r))) },
    PaperRef { fig: "fig13", row: "DS-cp / DS-c", lo: 1.0, hi: INF, unit: "x",
        ours: |t| span(versus(t, "speedup vs CPU", "DS-cp", "DS-c", any)) },
    PaperRef { fig: "fig14", row: "page access ratio left by reordering, min (paper: cut by up to 38 %)", lo: 0.62, hi: 1.0, unit: "ratio",
        ours: |t| min(versus(t, "page access ratio", "ours", "w/o re", any)) },
    PaperRef { fig: "fig14", row: "reordering speedup, max", lo: 1.0, hi: 1.17, unit: "x",
        ours: |t| max(cells(t, "speedup vs w/o re", |r| has(r, "ours"))) },
    PaperRef { fig: "fig15", row: "page accesses left by da, min (paper: cut by up to 73 %)", lo: 0.27, hi: 1.0, unit: "ratio",
        ours: |t| min(cells(t, "norm. page accesses", |r| has(r, "da"))) },
    PaperRef { fig: "fig15", row: "da speedup, max", lo: 1.0, hi: 2.67, unit: "x",
        ours: |t| max(cells(t, "speedup vs w/o ds", |r| has(r, "da"))) },
    PaperRef { fig: "fig15", row: "sp speedup on top of da, max", lo: 1.0, hi: 1.27, unit: "x",
        ours: |t| max(versus(t, "speedup vs w/o ds", "da+sp", "da", any)) },
    PaperRef { fig: "fig16", row: "Bare / CPU", lo: 4.0, hi: INF, unit: "x",
        ours: |t| span(cells(t, "speedup vs CPU", |r| has(r, "Bare"))) },
    PaperRef { fig: "fig16", row: "re+mp (no da) / DS-cp", lo: 1.0, hi: INF, unit: "x",
        ours: |t| span(versus(t, "speedup vs CPU", "re+mp", "DS-cp", any)) },
    PaperRef { fig: "fig16", row: "full stack / Bare", lo: 3.69, hi: 4.51, unit: "x",
        ours: |t| span(noted(t, "full-stack gain over Bare", 0)) },
    PaperRef { fig: "fig17", row: "NAND read share, billion-scale", lo: 24.0, hi: 38.0, unit: "%",
        ours: |t| span(cells(t, "NAND read %", billion)) },
    PaperRef { fig: "fig17", row: "SSD I/O (PCIe) share, billion-scale", lo: 5.4, hi: 6.6, unit: "%",
        ours: |t| span(cells(t, "SSD I/O (PCIe) %", billion)) },
    PaperRef { fig: "fig17", row: "bitonic (FPGA) share, max", lo: 0.0, hi: 12.0, unit: "%",
        ours: |t| max(cells(t, "Bitonic (FPGA) %", any)) },
    PaperRef { fig: "fig17", row: "DRAM + embedded cores share, billion-scale", lo: 20.0, hi: 35.0, unit: "%",
        ours: |t| span(zip(cells(t, "DRAM access %", billion), cells(t, "Embedded cores %", billion), |d, e| d + e)) },
    PaperRef { fig: "fig18", row: "slowdown at 30 % hard-decision failures", lo: 1.23, hi: 1.66, unit: "x",
        ours: |t| span(cells(t, "30%", any)) },
    PaperRef { fig: "fig19", row: "batch at which the speedup over DS-cp peaks", lo: 2048.0, hi: 4096.0, unit: "queries",
        ours: |t| span(peak_columns(t)) },
    PaperRef { fig: "fig20", row: "QPS/W over CPU, max", lo: 1.0, hi: 178.68, unit: "x",
        ours: |t| max(cells(t, "NDSEARCH advantage x", |r| has(r, "CPU"))) },
    PaperRef { fig: "fig20", row: "QPS/W over GPU, max", lo: 1.0, hi: 120.87, unit: "x",
        ours: |t| max(cells(t, "NDSEARCH advantage x", |r| has(r, "GPU"))) },
    PaperRef { fig: "fig20", row: "QPS/W over SmartSSD, max", lo: 1.0, hi: 30.06, unit: "x",
        ours: |t| max(cells(t, "NDSEARCH advantage x", |r| has(r, "SmartSSD"))) },
    PaperRef { fig: "fig20", row: "QPS/W over DS-cp, max", lo: 1.0, hi: 3.48, unit: "x",
        ours: |t| max(cells(t, "NDSEARCH advantage x", |r| has(r, "DS-cp"))) },
    PaperRef { fig: "fig21", row: "CPU-T / CPU", lo: 4.77, hi: 5.83, unit: "x",
        ours: |t| span(cells(t, "speedup vs CPU", |r| has(r, "CPU-T"))) },
    PaperRef { fig: "table1", row: "SearSSD logic power", lo: 18.82, hi: 18.82, unit: "W",
        ours: |t| span(noted(t, "SearSSD logic total", 0)) },
    PaperRef { fig: "table1", row: "SearSSD logic area", lo: 43.09, hi: 43.09, unit: "mm^2",
        ours: |t| span(noted(t, "SearSSD logic total", 1)) },
    PaperRef { fig: "table1", row: "NDSEARCH total power", lo: 26.32, hi: 26.32, unit: "W",
        ours: |t| span(noted(t, "NDSEARCH total", 0)) },
    PaperRef { fig: "table1", row: "storage density with SiN logic", lo: 5.64, hi: 5.64, unit: "Gb/mm^2",
        ours: |t| span(noted(t, "effective with SiN logic", 0)) },
];

type Row = [String];

fn any(_: &Row) -> bool {
    true
}

fn has(row: &Row, cell: &str) -> bool {
    row.iter().any(|c| c == cell)
}

fn billion(row: &Row) -> bool {
    BenchmarkId::ALL
        .iter()
        .any(|b| b.is_billion_scale() && has(row, b.name()))
}

/// Column `col` of the rows `keep` accepts, over every table that has it.
fn cells(tables: &[Table], col: &str, keep: impl Fn(&Row) -> bool) -> Vec<f64> {
    let mut out = Vec::new();
    for table in tables {
        let Some(c) = table.headers.iter().position(|h| h == col) else {
            continue;
        };
        let kept = table.rows.iter().filter(|row| keep(row));
        out.extend(kept.map(|row| row[c].parse().unwrap_or(f64::NAN)));
    }
    out
}

/// `f` over two selections that must pair up row for row.
fn zip(a: Vec<f64>, b: Vec<f64>, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    if a.len() != b.len() {
        return vec![f64::NAN];
    }
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

/// Column `col` of the rows labelled `num` over the rows labelled `den`.
fn versus(
    tables: &[Table],
    col: &str,
    num: &str,
    den: &str,
    keep: impl Fn(&Row) -> bool,
) -> Vec<f64> {
    zip(
        cells(tables, col, |r| has(r, num) && keep(r)),
        cells(tables, col, |r| has(r, den) && keep(r)),
        |n, d| n / d,
    )
}

/// The `nth` number on each note line starting with `label`.
fn noted(tables: &[Table], label: &str, nth: usize) -> Vec<f64> {
    let lines = tables.iter().flat_map(|t| &t.notes);
    lines
        .filter_map(|line| line.strip_prefix(label))
        .map(|rest| {
            let mut numbers = rest
                .split_whitespace()
                .filter_map(|tok| tok.trim_end_matches('x').parse().ok());
            numbers.nth(nth).unwrap_or(f64::NAN)
        })
        .collect()
}

/// Per row with numeric columns, the numeric header of the column holding
/// the row's largest value (the first one on a tie).
fn peak_columns(tables: &[Table]) -> Vec<f64> {
    let mut out = Vec::new();
    for table in tables {
        for row in &table.rows {
            let mut peak = (f64::NAN, f64::NEG_INFINITY);
            for (header, cell) in table.headers.iter().zip(row) {
                if let (Ok(h), Ok(v)) = (header.parse::<f64>(), cell.parse::<f64>()) {
                    if v > peak.1 {
                        peak = (h, v);
                    }
                }
            }
            if !peak.0.is_nan() {
                out.push(peak.0);
            }
        }
    }
    out
}

/// `(min, max)`; NaN if the selection is empty or holds a NaN.
fn span(values: Vec<f64>) -> (f64, f64) {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return (f64::NAN, f64::NAN);
    }
    let lo = values.iter().copied().fold(INF, f64::min);
    let hi = values.iter().copied().fold(-INF, f64::max);
    (lo, hi)
}

fn max(values: Vec<f64>) -> (f64, f64) {
    let (_, hi) = span(values);
    (hi, hi)
}

fn min(values: Vec<f64>) -> (f64, f64) {
    let (lo, _) = span(values);
    (lo, lo)
}

/// The paper / ours / in-band table printed under figure `fig`, if the
/// paper states anything for it. Panics naming a reference the figure's
/// `tables` do not resolve: the figure and `PAPER_REFS` have drifted apart.
pub fn scoreboard(fig: &str, tables: &[Table]) -> Option<Table> {
    let range = |lo: String, hi: String| {
        if lo == hi {
            lo
        } else {
            format!("{lo}..{hi}")
        }
    };
    let row = |p: &PaperRef| {
        let (lo, hi) = (p.ours)(tables);
        assert!(
            lo.is_finite() && hi.is_finite(),
            "{fig}: `{}` did not resolve",
            p.row
        );
        let in_band = p.lo <= lo && hi <= p.hi;
        vec![
            p.row.to_string(),
            range(p.lo.to_string(), p.hi.to_string()),
            range(f(lo, 2), f(hi, 2)),
            p.unit.to_string(),
            if in_band { "yes" } else { "NO" }.to_string(),
        ]
    };
    let rows: Vec<_> = PAPER_REFS
        .iter()
        .filter(|p| p.fig == fig)
        .map(row)
        .collect();
    let headers = ["quantity", "paper", "ours", "unit", "in band"];
    (!rows.is_empty()).then(|| Table::new(format!("{fig}: paper vs ours"), headers, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "fig01: `SSD I/O read share of CPU time` did not resolve")]
    fn a_reference_the_tables_do_not_hold_is_refused() {
        scoreboard("fig01", &[Table::new("not Fig. 1", ["x"], Vec::new())]);
    }

    #[test]
    fn ours_is_read_off_cells_and_notes() {
        let row = |name: &str, x: f64| vec!["sift-1b".to_string(), name.to_string(), f(x, 2)];
        let rows = vec![row("NDSEARCH", 30.0), row("GPU", 2.5), row("CPU", 1.0)];
        let table = Table::new("t", ["dataset", "platform", "speedup vs CPU"], rows)
            .notes(0, &[("full-stack gain over Bare", "11.51x".to_string())]);
        let tables = [table];
        assert_eq!(
            versus(&tables, "speedup vs CPU", "NDSEARCH", "GPU", billion),
            [12.0]
        );
        assert_eq!(cells(&tables, "speedup vs CPU", |r| has(r, "CPU")), [1.0]);
        assert_eq!(noted(&tables, "full-stack gain over Bare", 0), [11.51]);
        assert!(span(cells(&tables, "no such column", any)).0.is_nan());
    }
}
