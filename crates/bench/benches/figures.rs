//! Timing benches, one group per paper figure (`cargo bench --bench figures`).
//!
//! Each group benchmarks the same solver pairing as its figure on a fixed
//! mid-size workload (the `figures` binary does the full sweeps; these
//! benches exist for coarse regression tracking). Plain `main()` harness:
//! the workspace builds offline, without criterion. Each group's solvers
//! alternate round by round; the record prints each one's median
//! [q1, q3] milliseconds per pass over the workload.

use rds_bench::harness::{Scheme, Workload};
use rds_bench::rig::{self, Record};
use rds_core::blackbox::BlackBoxPushRelabel;
use rds_core::ff::{FordFulkersonBasic, FordFulkersonIncremental};
use rds_core::pr::{PushRelabelBinary, PushRelabelIncremental};
use rds_core::solver::RetrievalSolver;
use rds_decluster::load::{Load, QueryKind};
use rds_storage::experiments::ExperimentId;

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

/// Times `SAMPLES` alternated rounds of each solver on `w`, as one nested
/// object of per-solver milliseconds. Every pass must sum to the same
/// response time: the solvers agree on every optimum.
fn group(w: &Workload, solvers: &[(&str, &dyn RetrievalSolver)]) -> Record {
    let want = solve_all(solvers[0].1, w);
    let rounds = rig::alternate(SAMPLES, solvers.len(), |i| {
        rig::timed(|| assert_eq!(solve_all(solvers[i].1, w), want))
    });
    let mut group = Record::default();
    for (i, (label, _)) in solvers.iter().enumerate() {
        group = group.stat(&format!("{label}_ms"), rounds.ms(i), 3);
    }
    group
}

fn workload(id: ExperimentId, scheme: Scheme, kind: QueryKind) -> Workload {
    Workload::build(id, scheme, kind, Load::Load1, N, QUERIES, SEED)
}

fn main() {
    // Figure 5: basic problem, RDA — Algorithm 1 vs Algorithm 6.
    let fig5 = group(
        &workload(ExperimentId::Exp1, Scheme::Rda, QueryKind::Range),
        &[
            ("ford-fulkerson", &FordFulkersonBasic),
            ("push-relabel", &PushRelabelBinary),
        ],
    );
    // Figure 6: generalized problem, Orthogonal — Algorithm 2 vs Algorithm 6.
    let fig6 = group(
        &workload(ExperimentId::Exp5, Scheme::Orthogonal, QueryKind::Arbitrary),
        &[
            ("ford-fulkerson", &FordFulkersonIncremental),
            ("push-relabel", &PushRelabelBinary),
        ],
    );
    // Figure 7: basic problem — black box vs integrated push-relabel.
    let fig7 = group(
        &workload(ExperimentId::Exp1, Scheme::Orthogonal, QueryKind::Range),
        &[
            ("black-box", &BlackBoxPushRelabel),
            ("integrated", &PushRelabelBinary),
        ],
    );
    // Figure 8: Experiment 3 — black box vs integrated per scheme (RDA shown).
    let fig8 = group(
        &workload(ExperimentId::Exp3, Scheme::Rda, QueryKind::Arbitrary),
        &[
            ("black-box", &BlackBoxPushRelabel),
            ("integrated", &PushRelabelBinary),
        ],
    );
    // Figure 9: Experiment 5 — black box vs integrated (the headline ratio).
    let fig9 = group(
        &workload(ExperimentId::Exp5, Scheme::Rda, QueryKind::Arbitrary),
        &[
            ("black-box", &BlackBoxPushRelabel),
            ("integrated", &PushRelabelBinary),
            ("integrated-incremental", &PushRelabelIncremental),
        ],
    );
    Record::new("figures", SAMPLES)
        .object("fig5_ff_vs_pr_basic", fig5)
        .object("fig6_ff_vs_pr_generalized", fig6)
        .object("fig7_bb_vs_int_basic", fig7)
        .object("fig8_bb_vs_int_exp3", fig8)
        .object("fig9_bb_vs_int_exp5", fig9)
        .print();
}
