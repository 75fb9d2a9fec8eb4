//! Response-time study: the effect of experiment parameters on the
//! *optimal response time* itself (the paper §VI-F defers this analysis to
//! its technical-report companion \[12\]; this binary reproduces the study
//! on our substrate).
//!
//! For every experiment of Table IV and every allocation scheme, prints
//! the mean optimal response time per query type and load.
//!
//! ```text
//! cargo run --release -p rds-bench --bin response_times -- [--n 16] [--queries 50]
//! ```

use rds_bench::harness::{Scheme, Workload};
use rds_bench::report::Table;
use rds_bench::rig;
use rds_core::pr::PushRelabelBinary;
use rds_core::solver::RetrievalSolver;
use rds_decluster::load::{Load, QueryKind};
use rds_storage::experiments::ExperimentId;
use rds_storage::time::Micros;

/// The workload seed of every cell.
const SEED: u64 = 2012;

fn mean_response_ms(
    exp: ExperimentId,
    scheme: Scheme,
    kind: QueryKind,
    load: Load,
    n: usize,
    queries: usize,
    seed: u64,
) -> f64 {
    let w = Workload::build(exp, scheme, kind, load, n, queries, seed);
    let solver = PushRelabelBinary;
    let total: Micros = w
        .instances
        .iter()
        .map(|inst| solver.solve(inst).expect("feasible instance").response_time)
        .sum();
    total.as_millis_f64() / queries as f64
}

fn main() {
    let (mut n, mut queries) = (16usize, 50usize);
    rig::parse(
        "response_times",
        &mut [("--n", &mut n), ("--queries", &mut queries)],
    );

    println!(
        "# mean optimal response time (ms), N={n} per site ({} disks), {queries} queries per cell\n",
        2 * n
    );
    let cells = [
        (QueryKind::Range, Load::Load1, "Range L1"),
        (QueryKind::Range, Load::Load3, "Range L3"),
        (QueryKind::Arbitrary, Load::Load1, "Arb L1"),
        (QueryKind::Arbitrary, Load::Load2, "Arb L2"),
        (QueryKind::Arbitrary, Load::Load3, "Arb L3"),
    ];
    for exp in ExperimentId::ALL {
        let mut t = Table::new(
            format!(
                "Experiment {} — mean optimal response time (ms)",
                exp.number()
            ),
            &[
                "Scheme", "Range L1", "Range L3", "Arb L1", "Arb L2", "Arb L3",
            ],
        );
        for scheme in Scheme::ALL {
            let mut row = vec![scheme.label().to_string()];
            for &(kind, load, _) in &cells {
                let ms = mean_response_ms(exp, scheme, kind, load, n, queries, SEED);
                row.push(format!("{ms:.2}"));
            }
            t.push_row(row);
        }
        println!("{}", t.render());
    }
    println!(
        "Reading guide: Exp 2/3 (one SSD site) cut response times roughly in\n\
         half versus all-HDD retrieval for balanced loads; Exp 5's random\n\
         delays and initial loads add a near-constant offset; structured\n\
         allocations win on range queries, RDA stays competitive on\n\
         arbitrary queries."
    );
}
