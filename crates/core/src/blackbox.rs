//! Black-box baselines — the prior art the paper compares against.
//!
//! The generalized retrieval algorithm of \[12\] drives the same binary
//! capacity scaling as Algorithm 6 but treats maximum flow as a **black
//! box**: every probe and every increment step recomputes the flow from
//! zero, discarding all previously computed flow values. \[18\]'s solver is
//! the Ford-Fulkerson equivalent.
//!
//! Both baselines run the one budget search of [`crate::pr`] (`search`)
//! and are nothing but its `Probe`: a max-flow from zero, with the same
//! graph, bounds, cost model and increment logic as the integrated
//! solvers. Execution time comparisons therefore isolate exactly the
//! paper's claimed effect: flow conservation.

use crate::error::SolveError;
use crate::network::RetrievalInstance;
use crate::pr::{relabel_pass, search, Probe};
use crate::schedule::RetrievalOutcome;
use crate::solver::RetrievalSolver;
use crate::workspace::{Solve, SolveBody, Workspace};
use rds_flow::ford_fulkerson::ford_fulkerson;
use rds_flow::graph::ArenaIndex;
use rds_storage::time::Micros;

/// The push-relabel black-box baseline of \[12\] (binary capacity scaling,
/// LEDA-style from-scratch max-flow per run).
#[derive(Clone, Copy, Debug, Default)]
pub struct BlackBoxPushRelabel;

impl RetrievalSolver for BlackBoxPushRelabel {
    fn name(&self) -> &'static str {
        "BB-PR"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.run(self, inst, false)
    }
}

impl SolveBody for BlackBoxPushRelabel {
    fn body<W: ArenaIndex>(&self, s: &mut Solve<'_, W>) -> Result<Option<Micros>, SolveError> {
        search::<Self, W>(s, true)
    }
}

impl Probe for BlackBoxPushRelabel {
    fn max_flow<W: ArenaIndex>(s: &mut Solve<'_, W>) -> i64 {
        relabel_pass(s, true)
    }
}

/// A Ford-Fulkerson black-box baseline in the style of \[18\]: the same
/// binary-scaling search with a from-scratch augmenting-path max-flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlackBoxFordFulkerson;

impl RetrievalSolver for BlackBoxFordFulkerson {
    fn name(&self) -> &'static str {
        "BB-FF"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.run(self, inst, false)
    }
}

impl SolveBody for BlackBoxFordFulkerson {
    fn body<W: ArenaIndex>(&self, s: &mut Solve<'_, W>) -> Result<Option<Micros>, SolveError> {
        search::<Self, W>(s, true)
    }
}

impl Probe for BlackBoxFordFulkerson {
    fn max_flow<W: ArenaIndex>(s: &mut Solve<'_, W>) -> i64 {
        s.stats.maxflow_calls += 1;
        s.g.zero_flows();
        ford_fulkerson(s.g, s.inst.source(), s.inst.sink())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pr::PushRelabelBinary;
    use crate::verify::{assert_outcome_valid, oracle_optimal_response};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_decluster::rda::RandomDuplicateAllocation;
    use rds_storage::experiments::{experiment, paper_example, ExperimentId};

    #[test]
    fn blackbox_matches_integrated_on_paper_example() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        for (r, c) in [(3usize, 2usize), (7, 7), (2, 5)] {
            let q = RangeQuery::new(0, 0, r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
            let bb = BlackBoxPushRelabel.solve(&inst).unwrap();
            let int = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(bb.response_time, int.response_time, "query {r}x{c}");
            assert_outcome_valid(&inst, &bb);
        }
    }

    #[test]
    fn blackbox_ff_agrees_too() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q = RangeQuery::new(2, 3, 4, 4);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
        let a = BlackBoxFordFulkerson.solve(&inst).unwrap();
        let b = BlackBoxPushRelabel.solve(&inst).unwrap();
        assert_eq!(a.response_time, b.response_time);
        assert_eq!(a.response_time, oracle_optimal_response(&inst));
    }

    #[test]
    fn blackbox_performs_more_maxflow_work() {
        // The integrated algorithm replaces from-scratch max-flow calls
        // with resumes; the black box must call max-flow at least once per
        // probe and per increment.
        let system = experiment(ExperimentId::Exp5, 8, 5);
        let alloc = RandomDuplicateAllocation::two_site(8, 5);
        let q = RangeQuery::new(0, 0, 8, 8);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(8));
        let bb = BlackBoxPushRelabel.solve(&inst).unwrap();
        assert_eq!(
            bb.stats.maxflow_calls,
            bb.stats.probes + bb.stats.increments
        );
        let int = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(int.stats.maxflow_calls, 0);
        assert_eq!(bb.response_time, int.response_time);
    }

    #[test]
    fn random_instances_agree_with_oracle() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(77);
        for case in 0..6 {
            let n = rng.gen_range(3..7);
            let system = experiment(ExperimentId::Exp4, n, rng.gen_u64());
            let alloc = OrthogonalAllocation::new(n, Placement::PerSite);
            let q = RangeQuery::new(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1..=n),
                rng.gen_range(1..=n),
            );
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
            let bb = BlackBoxPushRelabel.solve(&inst).unwrap();
            assert_eq!(
                bb.response_time,
                oracle_optimal_response(&inst),
                "case {case}"
            );
        }
    }

    #[test]
    fn empty_query() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        assert_eq!(BlackBoxPushRelabel.solve(&inst).unwrap().flow_value, 0);
        assert_eq!(BlackBoxFordFulkerson.solve(&inst).unwrap().flow_value, 0);
    }
}
