//! Parallel integrated retrieval (paper Section V).
//!
//! The paper parallelizes the push/relabel operations inside Algorithm 6
//! using the asynchronous method of Hong & He (TPDS 2011); the driver —
//! binary capacity scaling, flow conservation, final incremental phase —
//! is unchanged. Accordingly, this solver reuses `crate::pr`'s shared
//! binary-scaling driver with the
//! [`rds_flow::parallel::ParallelPushRelabel`] engine, which runs Hong &
//! He's discharge rule (lowest-neighbour pushes, rounds of exact global
//! relabeling) on one worker. Figure 10 compares it against the FIFO
//! engine of [`crate::pr::PushRelabelBinary`].

use crate::error::SolveError;
use crate::network::RetrievalInstance;
use crate::pr::{binary_scaling_integrated, outcome_with_budget, warm_integrated};
use crate::schedule::{RetrievalOutcome, SolveStats};
use crate::solver::RetrievalSolver;
use crate::workspace::{on_graph, ArmedBudget, Workspace};

/// Algorithm 6 over the Hong & He discharge (paper Section V).
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelPushRelabelBinary;

impl RetrievalSolver for ParallelPushRelabelBinary {
    fn name(&self) -> &'static str {
        "PR-binary-parallel"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.tracer.note_solver(self.name(), false);
        let budget = ArmedBudget::start(ws.armed_budget());
        ws.begin(inst)?;
        ws.ensure_parallel(inst.graph.num_vertices());
        let mut stats = SolveStats::default();
        let result = on_graph!(ws, |g| {
            match binary_scaling_integrated(
                &mut ws.parallel,
                inst,
                &mut *g,
                &mut stats,
                &mut ws.stored_excess,
                &mut ws.tracer,
                budget,
            ) {
                Ok(bailed) => outcome_with_budget(inst, &*g, stats, bailed, &mut ws.tracer),
                Err(e) => Err(e),
            }
        });
        ws.complete();
        result
    }

    fn supports_delta(&self) -> bool {
        true
    }

    fn resume_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.tracer.note_solver(self.name(), true);
        let budget = ArmedBudget::start(ws.armed_budget());
        let mut stats = SolveStats::default();
        if !ws.begin_warm_parallel(inst)? {
            return Err(SolveError::DeltaUnsupported {
                solver: self.name(),
            });
        }
        let result = on_graph!(ws, |g| {
            match warm_integrated(
                &mut ws.parallel,
                inst,
                &mut *g,
                &mut stats,
                &mut ws.stored_excess,
                &ws.warm_changed,
                &mut ws.tracer,
                true,
                budget,
            ) {
                Ok(bailed) => outcome_with_budget(inst, &*g, stats, bailed, &mut ws.tracer),
                Err(e) => Err(e),
            }
        });
        ws.complete();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pr::PushRelabelBinary;
    use crate::spec::{SolverKind, SolverSpec};
    use crate::verify::{assert_outcome_valid, oracle_optimal_response};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_decluster::rda::RandomDuplicateAllocation;
    use rds_storage::experiments::{experiment, paper_example, ExperimentId};

    #[test]
    fn parallel_matches_sequential_on_paper_example() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        for (r, c) in [(3usize, 2usize), (7, 7), (5, 2)] {
            let q = RangeQuery::new(0, 0, r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
            let par = ParallelPushRelabelBinary.solve(&inst).unwrap();
            let seq = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(par.response_time, seq.response_time, "query {r}x{c}");
            assert_outcome_valid(&inst, &par);
        }
    }

    #[test]
    fn thread_counts_agree() {
        let system = experiment(ExperimentId::Exp5, 6, 9);
        let alloc = RandomDuplicateAllocation::two_site(6, 9);
        let q = RangeQuery::new(1, 1, 5, 4);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(6));
        let want = oracle_optimal_response(&inst);
        let reference = ParallelPushRelabelBinary.solve(&inst).unwrap();
        for threads in [0usize, 1, 2, 4] {
            let outcome = SolverSpec::new(SolverKind::ParallelPushRelabelBinary)
                .parallelism(threads)
                .solve(&inst)
                .unwrap();
            assert_eq!(outcome.response_time, want, "parallelism {threads}");
            assert_eq!(
                outcome.schedule.assignments(),
                reference.schedule.assignments(),
                "parallelism {threads}"
            );
            assert_outcome_valid(&inst, &outcome);
        }
    }

    #[test]
    fn repeated_runs_are_deterministic_in_value() {
        // Every run — fresh or through one reused workspace — returns the
        // same bucket→disk assignment at the sequential optimum.
        let system = experiment(ExperimentId::Exp5, 8, 21);
        let alloc = OrthogonalAllocation::new(8, Placement::PerSite);
        let q = RangeQuery::new(2, 3, 6, 6);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(8));
        let want = PushRelabelBinary.solve(&inst).unwrap().response_time;
        let first = ParallelPushRelabelBinary.solve(&inst).unwrap();
        let mut ws = Workspace::new();
        for run in 0..5 {
            let got = if run % 2 == 0 {
                ParallelPushRelabelBinary.solve(&inst).unwrap()
            } else {
                ParallelPushRelabelBinary.solve_in(&inst, &mut ws).unwrap()
            };
            assert_eq!(got.response_time, want);
            assert_eq!(
                got.schedule.assignments(),
                first.schedule.assignments(),
                "run {run}"
            );
            assert_outcome_valid(&inst, &got);
        }
    }

    #[test]
    fn empty_query() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        let outcome = ParallelPushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 0);
    }
}
