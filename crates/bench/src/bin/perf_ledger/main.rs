//! `perf_ledger`: the repository's one performance benchmark.
//!
//! Six named workloads, measured on two clocks — simulated device time
//! (`sim_*`, `dev.*`: deterministic for a fixed seed) and host wall-clock
//! (`host_*`, `setup_s`, `peak_rss_mb`, per-layer timings: medians of
//! repeated trials) — with a per-layer ledger and span trace from a
//! separate traced run. See the README next to this file.
//!
//! ```text
//! perf_ledger --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//!             [--spans <path>] [--out <path>]
//! perf_ledger --list
//! perf_ledger --compare <baseline.jsonl> <candidate.jsonl>
//! ```
//!
//! The last line of standard output of a run is one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod json;
mod layers;
mod ledger;
mod measure;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

use workloads::{Kind, Sizes};

const USAGE: &str = "usage:
  perf_ledger --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--spans <path>] [--out <path>]
  perf_ledger --list
  perf_ledger --compare <baseline.jsonl> <candidate.jsonl>";

enum Command {
    Run {
        options: run::Options,
        out: Option<String>,
    },
    List,
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut spans = None;
    let mut out = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--list" => return Ok(Command::List),
            "--compare" => {
                let a = value(&mut i, flag)?;
                let b = value(&mut i, flag)?;
                return Ok(Command::Compare(a, b));
            }
            "--workload" => {
                let name = value(&mut i, flag)?;
                workload = Some(Kind::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let text = value(&mut i, flag)?;
                seed = Some(
                    text.parse::<u64>()
                        .map_err(|_| format!("--seed {text:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                let text = value(&mut i, flag)?;
                seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=3600.0).contains(s))
                    .ok_or_else(|| format!("--seconds {text:?} is not a number in 0..=3600"))?;
            }
            "--trace" => {
                trace = match value(&mut i, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--spans" => spans = Some(value(&mut i, flag)?),
            "--out" => out = Some(value(&mut i, flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let kind = workload.ok_or("--workload is required")?;
    if spans.is_some() && !trace {
        return Err("--spans needs --trace 1 (spans come from the traced run)".to_string());
    }
    Ok(Command::Run {
        options: run::Options {
            kind,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            spans,
            sizes: Sizes::full(kind),
        },
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("perf_ledger: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::List => {
            spec::print_list();
            ExitCode::SUCCESS
        }
        Command::Compare(base, cand) => match compare::compare(&base, &cand) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(message) => {
                eprintln!("perf_ledger: {message}");
                ExitCode::from(2)
            }
        },
        Command::Run { options, out } => {
            let output = run::run(&options);
            let mut correct = output.correct();
            if let Some(path) = &out {
                let appended = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{}", output.record_json().render()));
                if let Err(e) = appended {
                    eprintln!("perf_ledger: cannot append to {path}: {e}");
                    correct = false;
                }
            }
            println!("{}", output.result_json().render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, Options};
    use crate::spec::{END_TO_END, PER_LAYER};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cmd = parse_args(&args(&[
            "--workload",
            "open_zipf",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        let Command::Run { options, out } = cmd else {
            panic!("expected a run");
        };
        assert_eq!(options.kind, Kind::OpenZipf);
        assert_eq!(
            (options.seed, options.seconds, options.trace),
            (7, 10.0, true)
        );
        assert!(out.is_none() && options.spans.is_none());
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "open_zipf"],
            &["--seed", "1"],
            &["--workload", "open_zipf", "--seed", "-1"],
            &["--workload", "open_zipf", "--seed", "1", "--trace", "yes"],
            &["--workload", "open_zipf", "--seed", "1", "--spans", "x"],
            &["--workload", "open_zipf", "--seed", "1", "--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    fn tiny(kind: Kind, seed: u64, trace: bool) -> run::RunOutput {
        run(&Options {
            kind,
            seed,
            seconds: 0.0,
            trace,
            spans: None,
            sizes: Sizes::tiny(kind),
        })
    }

    /// The names the binary emits are the names of the spec (and so of
    /// `BENCHMARK.json`), on every workload, in both modes.
    #[test]
    fn every_workload_emits_exactly_the_spec_names() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let out = tiny(kind, 11, trace);
                let result = out.result_json();
                let keys: Vec<&str> = result
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let emitted: Vec<&str> = result
                    .get("metrics")
                    .and_then(json::Value::as_obj)
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(
                    emitted,
                    spec::metric_names(trace),
                    "{} trace={trace}",
                    kind.name()
                );
                assert!(out.attempted >= 1);
                // Tiny inputs are below the recall floors by design; every
                // other check must hold.
                for failure in &out.checks.failures {
                    assert!(failure.contains("recall"), "{}: {failure}", kind.name());
                }
            }
        }
    }

    /// Same seed ⇒ identical `sim_*` and `dev.*` values; another seed ⇒
    /// another trace.
    #[test]
    fn simulated_numbers_repeat_for_a_seed_and_differ_across_seeds() {
        let sim = |out: &run::RunOutput| -> Vec<(&'static str, f64)> {
            let names = END_TO_END
                .iter()
                .filter(|m| m.clock == spec::Clock::Sim)
                .map(|m| m.name)
                .chain(
                    PER_LAYER
                        .iter()
                        .map(|m| m.name)
                        .filter(|n| n.starts_with("dev.")),
                );
            names
                .filter_map(|n| out.ledger.get(n).map(|e| (n, e.value)))
                .collect()
        };
        for (kind, trace) in [
            (Kind::OpenZipf, false),
            (Kind::MixedRw, true),
            (Kind::Cluster4x2, false),
        ] {
            let a = sim(&tiny(kind, 5, trace));
            assert!(a.len() >= 5, "{}: {a:?}", kind.name());
            assert_eq!(a, sim(&tiny(kind, 5, trace)), "{}", kind.name());
            assert_ne!(
                a,
                sim(&tiny(kind, 6, trace)),
                "{}: seeds 5 and 6 gave one trace",
                kind.name()
            );
        }
    }
}
