//! One entry point per paper figure (5-9), each regenerating the same
//! series the paper plots. Figure 10 (the parallel algorithm of Section
//! V) is not reproduced; see EXPERIMENTS.md.
//!
//! Every figure compares solver *execution times*; all solvers are also
//! cross-checked to report the same total optimal response time per
//! workload (the validation the paper performs over its 1000-query runs,
//! §VI-F) — a mismatch panics.

use crate::harness::{measure, Scheme, Workload};
use crate::report::{fmt_ms, fmt_ratio, Table};
use rds_core::blackbox::BlackBoxPushRelabel;
use rds_core::ff::{FordFulkersonBasic, FordFulkersonIncremental};
use rds_core::pr::PushRelabelBinary;
use rds_core::solver::RetrievalSolver;
use rds_decluster::load::{Load, QueryKind};
use rds_storage::experiments::ExperimentId;

/// Scale parameters for a figure run.
#[derive(Clone, Debug)]
pub struct FigureParams {
    /// Grid dimensions to sweep (paper: 10..=100 step 10).
    pub ns: Vec<usize>,
    /// Queries per workload point (paper: 1000).
    pub queries: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for FigureParams {
    /// Laptop-scale defaults: same shapes, smaller sweeps.
    fn default() -> Self {
        FigureParams {
            ns: vec![10, 20, 30, 40],
            queries: 20,
            seed: 2012,
        }
    }
}

impl FigureParams {
    /// Full paper-scale parameters (long-running).
    pub fn paper_scale() -> Self {
        FigureParams {
            ns: (10..=100).step_by(10).collect(),
            queries: 1000,
            seed: 2012,
        }
    }
}

fn subplot_label(kind: QueryKind, load: Load) -> String {
    let k = match kind {
        QueryKind::Range => "Range",
        QueryKind::Arbitrary => "Arbitrary",
    };
    let l = match load {
        Load::Load1 => "Load 1",
        Load::Load2 => "Load 2",
        Load::Load3 => "Load 3",
    };
    format!("{k}, {l}")
}

/// Runs two solvers over one workload, asserting they find the same total
/// optimal response time, and returns their average runtimes (ms).
fn duel(a: &dyn RetrievalSolver, b: &dyn RetrievalSolver, workload: &Workload) -> (f64, f64) {
    let ma = measure(a, workload);
    let mb = measure(b, workload);
    assert_eq!(
        ma.total_response,
        mb.total_response,
        "{} and {} disagree on optimal response time",
        a.name(),
        b.name()
    );
    (ma.avg_runtime_ms, mb.avg_runtime_ms)
}

/// Figure 5 — Experiment 1 (basic problem), RDA: Ford-Fulkerson
/// (Algorithm 1) vs push-relabel (Algorithm 6) execution time.
pub fn fig5(p: &FigureParams) -> Vec<Table> {
    let subplots = [
        (QueryKind::Range, Load::Load1),
        (QueryKind::Arbitrary, Load::Load2),
        (QueryKind::Range, Load::Load3),
    ];
    subplots
        .iter()
        .enumerate()
        .map(|(i, &(kind, load))| {
            let mut t = Table::new(
                format!(
                    "Figure 5({}) — Exp 1, RDA, {} — avg runtime per query (ms)",
                    ['a', 'b', 'c'][i],
                    subplot_label(kind, load)
                ),
                &["N", "Ford-Fulkerson", "Push-relabel", "FF/PR"],
            );
            for &n in &p.ns {
                let w = Workload::build(
                    ExperimentId::Exp1,
                    Scheme::Rda,
                    kind,
                    load,
                    n,
                    p.queries,
                    p.seed ^ (n as u64),
                );
                let (ff, pr) = duel(&FordFulkersonBasic, &PushRelabelBinary, &w);
                t.push_row(vec![
                    n.to_string(),
                    fmt_ms(ff),
                    fmt_ms(pr),
                    fmt_ratio(ff / pr),
                ]);
            }
            t
        })
        .collect()
}

/// Figure 6 — Experiment 5 (generalized problem), Orthogonal: integrated
/// Ford-Fulkerson (Algorithm 2) vs push-relabel (Algorithm 6).
pub fn fig6(p: &FigureParams) -> Vec<Table> {
    let subplots = [
        (QueryKind::Arbitrary, Load::Load1),
        (QueryKind::Range, Load::Load2),
        (QueryKind::Arbitrary, Load::Load3),
    ];
    subplots
        .iter()
        .enumerate()
        .map(|(i, &(kind, load))| {
            let mut t = Table::new(
                format!(
                    "Figure 6({}) — Exp 5, Orthogonal, {} — avg runtime per query (ms)",
                    ['a', 'b', 'c'][i],
                    subplot_label(kind, load)
                ),
                &["N", "Ford-Fulkerson", "Push-relabel", "FF/PR"],
            );
            for &n in &p.ns {
                let w = Workload::build(
                    ExperimentId::Exp5,
                    Scheme::Orthogonal,
                    kind,
                    load,
                    n,
                    p.queries,
                    p.seed ^ (n as u64),
                );
                let (ff, pr) = duel(&FordFulkersonIncremental, &PushRelabelBinary, &w);
                t.push_row(vec![
                    n.to_string(),
                    fmt_ms(ff),
                    fmt_ms(pr),
                    fmt_ratio(ff / pr),
                ]);
            }
            t
        })
        .collect()
}

/// Black-box / integrated runtime-ratio sweep over every scheme, used by
/// Figures 7 and 9.
fn bb_int_ratio_table(
    title: String,
    exp: ExperimentId,
    kind: QueryKind,
    load: Load,
    p: &FigureParams,
) -> Table {
    let mut t = Table::new(title, &["N", "RDA", "Dependent", "Orthogonal"]);
    for &n in &p.ns {
        let mut row = vec![n.to_string()];
        for scheme in Scheme::ALL {
            let w = Workload::build(exp, scheme, kind, load, n, p.queries, p.seed ^ (n as u64));
            let (bb, int) = duel(&BlackBoxPushRelabel, &PushRelabelBinary, &w);
            row.push(fmt_ratio(bb / int));
        }
        t.push_row(row);
    }
    t
}

/// Figure 7 — Experiment 1: black-box / integrated push-relabel runtime
/// ratio per allocation scheme.
pub fn fig7(p: &FigureParams) -> Vec<Table> {
    let subplots = [
        (QueryKind::Range, Load::Load1),
        (QueryKind::Arbitrary, Load::Load2),
        (QueryKind::Range, Load::Load3),
    ];
    subplots
        .iter()
        .enumerate()
        .map(|(i, &(kind, load))| {
            bb_int_ratio_table(
                format!(
                    "Figure 7({}) — Exp 1, {} — black box / integrated runtime ratio",
                    ['a', 'b', 'c'][i],
                    subplot_label(kind, load)
                ),
                ExperimentId::Exp1,
                kind,
                load,
                p,
            )
        })
        .collect()
}

/// Figure 8 — Experiment 3, Arbitrary queries, Load 1: (a) black-box
/// runtime, (b) integrated runtime, (c) their ratio, per allocation scheme.
pub fn fig8(p: &FigureParams) -> Vec<Table> {
    let mut bb_t = Table::new(
        "Figure 8(a) — Exp 3, Arbitrary, Load 1 — black box runtime (ms)",
        &["N", "RDA", "Dependent", "Orthogonal"],
    );
    let mut int_t = Table::new(
        "Figure 8(b) — Exp 3, Arbitrary, Load 1 — integrated runtime (ms)",
        &["N", "RDA", "Dependent", "Orthogonal"],
    );
    let mut ratio_t = Table::new(
        "Figure 8(c) — Exp 3, Arbitrary, Load 1 — runtime ratio (bb/int)",
        &["N", "RDA", "Dependent", "Orthogonal"],
    );
    for &n in &p.ns {
        let mut bb_row = vec![n.to_string()];
        let mut int_row = vec![n.to_string()];
        let mut ratio_row = vec![n.to_string()];
        for scheme in Scheme::ALL {
            let w = Workload::build(
                ExperimentId::Exp3,
                scheme,
                QueryKind::Arbitrary,
                Load::Load1,
                n,
                p.queries,
                p.seed ^ (n as u64),
            );
            let (bb, int) = duel(&BlackBoxPushRelabel, &PushRelabelBinary, &w);
            bb_row.push(fmt_ms(bb));
            int_row.push(fmt_ms(int));
            ratio_row.push(fmt_ratio(bb / int));
        }
        bb_t.push_row(bb_row);
        int_t.push_row(int_row);
        ratio_t.push_row(ratio_row);
    }
    vec![bb_t, int_t, ratio_t]
}

/// Figure 9 — Experiment 5: black-box / integrated runtime ratio per
/// scheme, one subplot per load (arbitrary queries).
pub fn fig9(p: &FigureParams) -> Vec<Table> {
    [Load::Load1, Load::Load2, Load::Load3]
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            bb_int_ratio_table(
                format!(
                    "Figure 9({}) — Exp 5, {} — black box / integrated runtime ratio",
                    ['a', 'b', 'c'][i],
                    subplot_label(QueryKind::Arbitrary, load)
                ),
                ExperimentId::Exp5,
                QueryKind::Arbitrary,
                load,
                p,
            )
        })
        .collect()
}

/// Headline summary: the paper's abstract-level speed-up numbers on
/// Experiment 5 (integrated vs black box).
pub fn summary(p: &FigureParams) -> Vec<Table> {
    let mut t = Table::new(
        "Summary — Exp 5, Arbitrary Load 1, Orthogonal — speed-ups vs black box",
        &["N", "BB (ms)", "INT (ms)", "BB/INT"],
    );
    for &n in &p.ns {
        let w = Workload::build(
            ExperimentId::Exp5,
            Scheme::Orthogonal,
            QueryKind::Arbitrary,
            Load::Load1,
            n,
            p.queries,
            p.seed ^ (n as u64),
        );
        let (bb, int) = duel(&BlackBoxPushRelabel, &PushRelabelBinary, &w);
        t.push_row(vec![
            n.to_string(),
            fmt_ms(bb),
            fmt_ms(int),
            fmt_ratio(bb / int),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigureParams {
        FigureParams {
            ns: vec![5],
            queries: 3,
            seed: 1,
        }
    }

    #[test]
    fn fig5_produces_three_subplots() {
        let tables = fig5(&tiny());
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].rows.len(), 1);
        assert!(tables[0].title.contains("Exp 1"));
    }

    #[test]
    fn fig6_runs() {
        assert_eq!(fig6(&tiny()).len(), 3);
    }

    #[test]
    fn fig7_has_scheme_columns() {
        let t = fig7(&tiny());
        assert_eq!(t[0].columns.len(), 4);
    }

    #[test]
    fn fig8_produces_bb_int_ratio() {
        let t = fig8(&tiny());
        assert_eq!(t.len(), 3);
        assert!(t[2].title.contains("ratio"));
    }

    #[test]
    fn fig9_runs() {
        assert_eq!(fig9(&tiny()).len(), 3);
    }

    #[test]
    fn summary_runs() {
        let t = summary(&tiny());
        assert_eq!(t[0].rows.len(), 1);
    }
}
