//! Renders the paper's figures and tables, each followed by the paper's
//! own numbers against ours.
//!
//! `paper_figs fig16`, `paper_figs fig13 table1`, `paper_figs --all`,
//! `paper_figs --list`. Scale: `NDS_N` (base vectors, default 6000),
//! `NDS_BATCH` (queries per batch, 2048), `NDS_K` (top-k, 10); a value
//! that is not a positive integer exits with status 2. Every
//! (benchmark, algorithm) graph is built once however many figures use it.
//! Panics (so exits non-zero) on a ragged table, a non-finite cell or a
//! paper reference the figure's tables do not resolve.

use std::process::ExitCode;

use ndsearch_bench::figures::{Figure, FIGURES};
use ndsearch_bench::{env_usize, Scale, Workloads};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        for fig in &FIGURES {
            println!("{:<22}{:<20}{}", fig.id, fig.title, fig.about);
        }
        return ExitCode::SUCCESS;
    }
    let selected: Option<Vec<&Figure>> = if args == ["--all"] {
        Some(FIGURES.iter().collect())
    } else {
        let by_id = |id: &String| FIGURES.iter().find(|fig| fig.id == id);
        args.iter().map(by_id).collect()
    };
    let Some(selected) = selected.filter(|figs| !figs.is_empty()) else {
        eprintln!("usage: paper_figs <figure id>... | --all | --list");
        return ExitCode::from(2);
    };

    let scale = Scale {
        n: env_usize("NDS_N", Scale::DEFAULT.n),
        batch: env_usize("NDS_BATCH", Scale::DEFAULT.batch),
        k: env_usize("NDS_K", Scale::DEFAULT.k),
    };
    let mut ws = Workloads::new(scale);
    for fig in selected {
        fig.render(&mut ws, scale).iter().for_each(|t| t.print());
    }
    println!("\n{} graphs built", ws.builds());
    ExitCode::SUCCESS
}
