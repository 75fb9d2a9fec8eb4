//! Timing benches, one group per paper figure (`cargo bench --bench figures`).
//!
//! Each group benchmarks the same solver pairing as its figure on a fixed
//! mid-size workload (the `figures` binary does the full sweeps; these
//! benches exist for coarse regression tracking). Plain `main()` harness:
//! the workspace builds offline, without criterion.

use rds_bench::harness::{Scheme, Workload};
use rds_core::blackbox::BlackBoxPushRelabel;
use rds_core::ff::{FordFulkersonBasic, FordFulkersonIncremental};
use rds_core::pr::{PushRelabelBinary, PushRelabelIncremental};
use rds_core::solver::RetrievalSolver;
use rds_decluster::load::{Load, QueryKind};
use rds_storage::experiments::ExperimentId;
use std::time::Instant;

const N: usize = 16;
const QUERIES: usize = 5;
const SEED: u64 = 2012;
const SAMPLES: usize = 10;

fn solve_all(solver: &dyn RetrievalSolver, w: &Workload) -> u64 {
    w.instances
        .iter()
        .map(|inst| {
            solver
                .solve(inst)
                .expect("bench instance is feasible")
                .response_time
                .as_micros()
        })
        .sum()
}

/// Times `SAMPLES` runs of each solver on `w` and prints the best run.
fn bench_pair(group: &str, w: &Workload, solvers: &[(&str, &dyn RetrievalSolver)]) {
    println!("{group}");
    for (label, solver) in solvers {
        let mut best = f64::INFINITY;
        let mut checksum = 0u64;
        for _ in 0..SAMPLES {
            let start = Instant::now();
            checksum = checksum.wrapping_add(solve_all(*solver, w));
            let dt = start.elapsed().as_secs_f64() * 1e3;
            best = best.min(dt);
        }
        println!("  {label:<24} {best:>9.3} ms   (checksum {checksum})");
    }
}

fn workload(id: ExperimentId, scheme: Scheme, kind: QueryKind) -> Workload {
    Workload::build(id, scheme, kind, Load::Load1, N, QUERIES, SEED)
}

fn main() {
    // Figure 5: basic problem, RDA — Algorithm 1 vs Algorithm 6.
    let w = workload(ExperimentId::Exp1, Scheme::Rda, QueryKind::Range);
    bench_pair(
        "fig5_ff_vs_pr_basic",
        &w,
        &[
            ("ford-fulkerson", &FordFulkersonBasic),
            ("push-relabel", &PushRelabelBinary),
        ],
    );

    // Figure 6: generalized problem, Orthogonal — Algorithm 2 vs Algorithm 6.
    let w = workload(ExperimentId::Exp5, Scheme::Orthogonal, QueryKind::Arbitrary);
    bench_pair(
        "fig6_ff_vs_pr_generalized",
        &w,
        &[
            ("ford-fulkerson", &FordFulkersonIncremental),
            ("push-relabel", &PushRelabelBinary),
        ],
    );

    // Figure 7: basic problem — black box vs integrated push-relabel.
    let w = workload(ExperimentId::Exp1, Scheme::Orthogonal, QueryKind::Range);
    bench_pair(
        "fig7_bb_vs_int_basic",
        &w,
        &[
            ("black-box", &BlackBoxPushRelabel),
            ("integrated", &PushRelabelBinary),
        ],
    );

    // Figure 8: Experiment 3 — black box vs integrated per scheme (RDA shown).
    let w = workload(ExperimentId::Exp3, Scheme::Rda, QueryKind::Arbitrary);
    bench_pair(
        "fig8_bb_vs_int_exp3",
        &w,
        &[
            ("black-box", &BlackBoxPushRelabel),
            ("integrated", &PushRelabelBinary),
        ],
    );

    // Figure 9: Experiment 5 — black box vs integrated (the headline ratio).
    let w = workload(ExperimentId::Exp5, Scheme::Rda, QueryKind::Arbitrary);
    bench_pair(
        "fig9_bb_vs_int_exp5",
        &w,
        &[
            ("black-box", &BlackBoxPushRelabel),
            ("integrated", &PushRelabelBinary),
            ("integrated-incremental", &PushRelabelIncremental),
        ],
    );
}
