//! Regenerates the data series of every figure in the paper's evaluation
//! section.
//!
//! ```text
//! cargo run -p rds-bench --release --bin figures -- [--fig 5|6|7|8|9|summary|all]
//!     [--full] [--ns 10,20,30] [--queries 100]
//! ```
//!
//! Defaults run a laptop-scale sweep; `--full` switches to the paper's
//! scale (N up to 100, 1000 queries per point — hours of runtime), and
//! `--ns`/`--queries` override either scale.
//! Figure 10 (the parallel algorithm of Section V) is not reproduced; see
//! EXPERIMENTS.md.

use rds_bench::figures::{self, FigureParams};
use rds_bench::rig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (mut which, mut full, mut ns, mut queries) = ("all".to_string(), false, Vec::new(), 0usize);
    rig::parse(
        "figures",
        &mut [
            ("--fig", &mut which),
            ("--full", &mut full),
            ("--ns", &mut ns),
            ("--queries", &mut queries),
        ],
    );
    let mut params = if full {
        FigureParams::paper_scale()
    } else {
        FigureParams::default()
    };
    if !ns.is_empty() {
        params.ns = ns;
    }
    if queries > 0 {
        params.queries = queries;
    }

    println!(
        "# integrated max-flow retrieval — figure regeneration\n\
         # ns={:?} queries={} seed={}\n",
        params.ns, params.queries, params.seed
    );

    let names: Vec<&str> = if which == "all" {
        vec!["5", "6", "7", "8", "9", "summary"]
    } else {
        vec![which.as_str()]
    };
    for name in names {
        let tables = match name {
            "5" => figures::fig5(&params),
            "6" => figures::fig6(&params),
            "7" => figures::fig7(&params),
            "8" => figures::fig8(&params),
            "9" => figures::fig9(&params),
            "summary" => figures::summary(&params),
            other => {
                eprintln!("unknown figure: {other}");
                return ExitCode::FAILURE;
            }
        };
        for t in &tables {
            println!("{}", t.render());
        }
    }
    ExitCode::SUCCESS
}
