//! `--compare <a> <b>`: applies each end-to-end metric's same-seed
//! bound per workload to two result files written with `--out`.
//!
//! A file holds one JSON record per line, one per run. Runs are paired by
//! (workload, seed): simulated numbers of different seeds are different
//! inputs, not two measurements of one thing. Each pair gives one change,
//! as a share of that seed's baseline. Verdicts follow the rule for
//! landing a change: `regressed` when the median change is worse than the
//! bound; `unresolved` when the spread of the changes (over seeds; over
//! the trials of the two runs when there is one seed) is wider than the
//! bound, unless every one of them reads better; `ok` otherwise.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};

/// One untraced run read back from a result file.
struct Record {
    workload: String,
    seed: String,
    /// `(metric, value, samples behind it)`.
    metrics: Vec<(String, f64, Vec<f64>)>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("{path}:{}: no \"{key}\"", i + 1))
        };
        if field("trace")? == &Value::Bool(true) {
            continue; // per-layer records carry no bounds
        }
        let metrics = field("metrics")?
            .as_obj()
            .ok_or_else(|| format!("{path}:{}: \"metrics\" is not an object", i + 1))?
            .iter()
            .filter_map(|(name, m)| {
                let value = m.get("value")?.as_f64()?;
                let samples = m
                    .get("samples")
                    .and_then(Value::as_arr)
                    .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default();
                Some((name.clone(), value, samples))
            })
            .collect();
        records.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_str().unwrap_or_default().to_string(),
            metrics,
        });
    }
    Ok(records)
}

/// `metric` on `workload`, per seed: the value (median over that seed's
/// runs) and the trial samples behind it (pooled over those runs).
fn by_seed(records: &[Record], workload: &str, metric: &str) -> BTreeMap<String, (f64, Vec<f64>)> {
    let mut runs: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for r in records.iter().filter(|r| r.workload == workload) {
        if let Some((_, value, samples)) = r.metrics.iter().find(|(name, _, _)| name == metric) {
            let slot = runs.entry(r.seed.clone()).or_default();
            slot.0.push(*value);
            slot.1.extend(samples);
        }
    }
    runs.into_iter()
        .map(|(seed, (values, samples))| (seed, (median(&values), samples)))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// The two runs of one seed: each side's value and the trial samples
/// behind it (none for simulated values).
pub struct Pair<'a> {
    pub base: (f64, &'a [f64]),
    pub cand: (f64, &'a [f64]),
}

/// Judges one (workload, metric) from the runs of the two files, paired
/// by seed.
pub fn judge(metric: &EndToEnd, pairs: &[Pair]) -> Verdict {
    // How much worse `x` is than baseline `b`, as a share of `b`.
    let worse_by = |b: f64, x: f64| {
        let share = (x - b) / b.abs().max(f64::MIN_POSITIVE);
        match metric.better {
            Better::Lower => share,
            Better::Higher => -share,
        }
    };
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    let worse: Vec<f64> = pairs.iter().map(|p| worse_by(p.base.0, p.cand.0)).collect();
    // What the verdict has to see through: the spread over seeds, or with
    // one seed the spread over the trials of its two runs.
    let (spread, all_better) = match pairs {
        [one] => {
            let trials = |samples: &[f64]| -> Vec<f64> {
                samples.iter().map(|&x| worse_by(one.base.0, x)).collect()
            };
            let (b, c) = (trials(one.base.1), trials(one.cand.1));
            let worst = c.iter().cloned().fold(f64::MIN, f64::max);
            let best_base = b.iter().cloned().fold(f64::MAX, f64::min);
            (iqr(&b).max(iqr(&c)), worst < best_base)
        }
        _ => (iqr(&worse), worse.iter().all(|&w| w < 0.0)),
    };
    if spread > metric.same_seed {
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if median(&worse) > metric.same_seed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (workload, metric); `Ok(true)` if any regressed.
pub fn compare(base_path: &str, cand_path: &str) -> Result<bool, String> {
    let (base, cand) = (load(base_path)?, load(cand_path)?);
    println!(
        "{:<12} {:<18} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "baseline", "candidate", "change"
    );
    let mut regressed = false;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (base_runs, cand_runs) = (
                by_seed(&base, w.name, m.name),
                by_seed(&cand, w.name, m.name),
            );
            if base_runs.is_empty() && cand_runs.is_empty() {
                continue;
            }
            let medians = |runs: &BTreeMap<String, (f64, Vec<f64>)>| {
                median(&runs.values().map(|(v, _)| *v).collect::<Vec<_>>())
            };
            let (b, c) = (medians(&base_runs), medians(&cand_runs));
            let change = if b != 0.0 {
                (c - b) / b.abs() * 100.0
            } else {
                0.0
            };
            let verdict = if !base_runs.keys().eq(cand_runs.keys()) {
                "unresolved (the two files hold different seeds)".to_string()
            } else {
                let pairs: Vec<Pair> = base_runs
                    .values()
                    .zip(cand_runs.values())
                    .map(|((b, bs), (c, cs))| Pair {
                        base: (*b, bs),
                        cand: (*c, cs),
                    })
                    .collect();
                let judged = judge(m, &pairs);
                match judged {
                    Verdict::Ok if pairs.iter().all(|p| p.base.0 == p.cand.0) => {
                        "ok (exact)".to_string()
                    }
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Unresolved => "unresolved (spread wider than the bound)".to_string(),
                    Verdict::Regressed => {
                        regressed = true;
                        "regressed".to_string()
                    }
                }
            };
            println!(
                "{:<12} {:<18} {:>16.6} {:>16.6} {:>+8.2}%  {verdict}",
                w.name, m.name, b, c, change
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    /// One seed: two runs with these trial samples.
    fn one_seed(metric: &EndToEnd, base: &[f64], cand: &[f64]) -> Verdict {
        judge(
            metric,
            &[Pair {
                base: (median(base), base),
                cand: (median(cand), cand),
            }],
        )
    }

    /// Several seeds: `(baseline, candidate)` values, no samples.
    fn seeds(metric: &EndToEnd, values: &[(f64, f64)]) -> Verdict {
        let pairs: Vec<Pair> = values
            .iter()
            .map(|&(b, c)| Pair {
                base: (b, &[]),
                cand: (c, &[]),
            })
            .collect();
        judge(metric, &pairs)
    }

    #[test]
    fn exact_simulated_values_pass_and_small_shifts_regress() {
        let qps = metric("sim_qps");
        assert_eq!(one_seed(qps, &[1000.0], &[1000.0]), Verdict::Ok);
        assert_eq!(one_seed(qps, &[1000.0], &[995.0]), Verdict::Ok); // within 1 %
        assert_eq!(one_seed(qps, &[1000.0], &[980.0]), Verdict::Regressed);
        assert_eq!(one_seed(qps, &[1000.0], &[1200.0]), Verdict::Ok); // better
        assert_eq!(seeds(qps, &[(1000.0, 980.0)]), Verdict::Regressed);
        let recall = metric("recall_at_10");
        assert_eq!(one_seed(recall, &[0.98], &[0.976]), Verdict::Ok);
        assert_eq!(one_seed(recall, &[0.98], &[0.97]), Verdict::Regressed);
    }

    #[test]
    fn seeds_are_paired_so_seed_to_seed_spread_does_not_hide_exact_equality() {
        let qps = metric("sim_qps");
        // Three seeds whose values differ by 10 % among themselves.
        let same = [(1000.0, 1000.0), (1100.0, 1100.0), (900.0, 900.0)];
        assert_eq!(seeds(qps, &same), Verdict::Ok);
        let two_percent_down = [(1000.0, 980.0), (1100.0, 1078.0), (900.0, 882.0)];
        assert_eq!(seeds(qps, &two_percent_down), Verdict::Regressed);
        let host = metric("host_us_per_op");
        let mixed = [
            (100.0, 130.0),
            (100.0, 95.0),
            (100.0, 112.0),
            (100.0, 101.0),
        ];
        assert_eq!(seeds(host, &mixed), Verdict::Unresolved);
        let all_better = [(100.0, 70.0), (100.0, 95.0), (100.0, 80.0), (100.0, 99.0)];
        assert_eq!(seeds(host, &all_better), Verdict::Ok);
        let recall = metric("recall_at_10");
        assert_eq!(
            seeds(recall, &[(0.98, 0.97), (0.99, 0.98)]),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_host_spread_is_unresolved_unless_every_trial_is_better() {
        let host = metric("host_us_per_op");
        let noisy = [100.0, 120.0, 140.0, 160.0, 180.0];
        assert_eq!(
            one_seed(host, &noisy, &[150.0, 150.0, 150.0]),
            Verdict::Unresolved
        );
        // Every candidate trial beats every baseline trial.
        assert_eq!(one_seed(host, &noisy, &[80.0, 85.0, 90.0]), Verdict::Ok);
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(one_seed(host, &steady, &[104.0, 105.0, 103.0]), Verdict::Ok);
        assert_eq!(
            one_seed(host, &steady, &[115.0, 116.0, 114.0]),
            Verdict::Regressed
        );
    }
}
