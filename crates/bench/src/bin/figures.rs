//! Regenerates the data series of every figure in the paper's evaluation
//! section.
//!
//! ```text
//! cargo run -p rds-bench --release --bin figures -- [--fig 5|6|7|8|9|summary|all]
//!     [--full] [--ns 10,20,30] [--queries 100] [--seed 2012]
//! ```
//!
//! Defaults run a laptop-scale sweep; `--full` switches to the paper's
//! scale (N up to 100, 1000 queries per point — hours of runtime).
//! Figure 10 (the parallel algorithm of Section V) is not reproduced; see
//! EXPERIMENTS.md.

use rds_bench::figures::{self, FigureParams};
use rds_bench::report::{to_json, Table};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: figures [--fig 5|6|7|8|9|summary|all] [--full] [--json] \
         [--ns 10,20,..] [--queries K] [--seed S]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut params = FigureParams::default();
    let mut which = "all".to_string();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => match args.next() {
                Some(v) => which = v,
                None => return usage(),
            },
            "--full" => params = FigureParams::paper_scale(),
            "--json" => json = true,
            "--ns" => match args.next().map(|v| {
                v.split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
            }) {
                Some(Ok(ns)) if !ns.is_empty() => params.ns = ns,
                _ => return usage(),
            },
            "--queries" => match args.next().and_then(|v| v.parse().ok()) {
                Some(q) => params.queries = q,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => params.seed = s,
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if !json {
        println!(
            "# integrated max-flow retrieval — figure regeneration\n\
             # ns={:?} queries={} seed={}\n",
            params.ns, params.queries, params.seed
        );
    }

    let generate = |name: &str| -> Option<Vec<Table>> {
        match name {
            "5" => Some(figures::fig5(&params)),
            "6" => Some(figures::fig6(&params)),
            "7" => Some(figures::fig7(&params)),
            "8" => Some(figures::fig8(&params)),
            "9" => Some(figures::fig9(&params)),
            "summary" => Some(figures::summary(&params)),
            other => {
                eprintln!("unknown figure: {other}");
                None
            }
        }
    };

    let names: Vec<&str> = if which == "all" {
        vec!["5", "6", "7", "8", "9", "summary"]
    } else {
        vec![which.as_str()]
    };
    let mut all_tables = Vec::new();
    for name in names {
        match generate(name) {
            Some(tables) if json => all_tables.extend(tables),
            Some(tables) => {
                for t in &tables {
                    println!("{}", t.render());
                }
            }
            None => return ExitCode::FAILURE,
        }
    }
    if json {
        println!("{}", to_json(&all_tables));
    }
    ExitCode::SUCCESS
}
