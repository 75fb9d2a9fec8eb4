//! Black-box baselines — the prior art the paper compares against.
//!
//! The generalized retrieval algorithm of \[12\] drives the same binary
//! capacity scaling as Algorithm 6 but treats maximum flow as a **black
//! box**: every probe and every increment step recomputes the flow from
//! zero, discarding all previously computed flow values. \[18\]'s solver is
//! the Ford-Fulkerson equivalent.
//!
//! These baselines are deliberately implemented with the *same* graph,
//! cost model and increment logic as the integrated solvers, so execution
//! time comparisons isolate exactly the paper's claimed effect: flow
//! conservation.

use crate::error::SolveError;
use crate::increment::MinCostIncrementer;
use crate::network::RetrievalInstance;
use crate::obs::trace::{TraceEvent, Tracer};
use crate::pr::{budget_work, outcome_with_budget};
use crate::schedule::{RetrievalOutcome, SolveStats};
use crate::solver::RetrievalSolver;
use crate::workspace::{on_graph, ArmedBudget, Workspace};
use rds_flow::ford_fulkerson::ford_fulkerson;
use rds_flow::graph::{ArenaIndex, FlowGraph};
use rds_storage::time::Micros;

/// Runs the binary capacity-scaling driver with a from-scratch max-flow at
/// every probe and every increment.
///
/// Returns `Ok(None)` at the exact optimum, or `Ok(Some(lower_bound))`
/// when the [`ArmedBudget`] expired and the search was finalized at the
/// feasible upper bound instead (one extra from-scratch solve).
fn blackbox_binary<W: ArenaIndex, F>(
    inst: &RetrievalInstance,
    g: &mut FlowGraph<W>,
    stats: &mut SolveStats,
    tracer: &mut Tracer,
    budget: ArmedBudget,
    mut fresh_max_flow: F,
) -> Result<Option<Micros>, SolveError>
where
    F: FnMut(&mut FlowGraph<W>, &mut SolveStats, &mut Tracer) -> i64,
{
    let q = inst.query_size() as i64;
    if q == 0 {
        return Ok(None);
    }
    // Same warm-started bounds as the integrated driver, so comparisons
    // still isolate flow conservation alone.
    let (mut t_min, mut t_max, min_speed) = inst.tightened_bounds(&mut Vec::new());

    // `t_max` stays feasible throughout the search, so the bail-out can
    // always finalize there with one more from-scratch solve.
    #[allow(clippy::too_many_arguments)]
    fn bail<W: ArenaIndex, F>(
        inst: &RetrievalInstance,
        g: &mut FlowGraph<W>,
        stats: &mut SolveStats,
        tracer: &mut Tracer,
        fresh_max_flow: &mut F,
        q: i64,
        t_lo: Micros,
        t_hi: Micros,
    ) -> Result<Option<Micros>, SolveError>
    where
        F: FnMut(&mut FlowGraph<W>, &mut SolveStats, &mut Tracer) -> i64,
    {
        inst.set_caps_for_budget(g, t_hi);
        let flow = fresh_max_flow(g, stats, tracer);
        if flow != q {
            return Err(SolveError::Infeasible {
                bucket: None,
                delivered: flow,
                required: q,
            });
        }
        Ok(Some(t_lo))
    }

    while t_max - t_min >= min_speed {
        if budget.expired(budget_work(stats)) {
            return bail(inst, g, stats, tracer, &mut fresh_max_flow, q, t_min, t_max);
        }
        let t_mid = t_min.midpoint(t_max);
        inst.set_caps_for_budget(g, t_mid);
        tracer.emit(TraceEvent::ProbeStart { budget: t_mid });
        let flow = fresh_max_flow(g, stats, tracer);
        stats.probes += 1;
        tracer.emit(TraceEvent::ProbeEnd {
            budget: t_mid,
            feasible: flow == q,
        });
        if flow != q {
            t_min = t_mid;
        } else {
            t_max = t_mid;
        }
    }

    inst.set_caps_for_budget(g, t_min);
    let mut inc = MinCostIncrementer::new(inst);
    let mut delivered = 0;
    loop {
        // Incremented capacities never exceed `capacity_within(t_max)`, so
        // finalizing at the feasible bound is still a pure capacity raise.
        if budget.expired(budget_work(stats)) {
            return bail(inst, g, stats, tracer, &mut fresh_max_flow, q, t_min, t_max);
        }
        let raised = inc.increment(inst, g);
        stats.increments += 1;
        tracer.emit(TraceEvent::CapacityIncrement {
            edges: raised as u32,
        });
        if raised == 0 {
            return Err(SolveError::Infeasible {
                bucket: None,
                delivered,
                required: q,
            });
        }
        delivered = fresh_max_flow(g, stats, tracer);
        if delivered == q {
            return Ok(None);
        }
    }
}

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
        let budget = ArmedBudget::start(ws.armed_budget());
        ws.begin(inst, self.name())?;
        let mut stats = SolveStats::default();
        let (s, t) = (inst.source(), inst.sink());
        let result = on_graph!(ws, |g| {
            let engine = &mut ws.engine;
            match blackbox_binary(
                inst,
                &mut *g,
                &mut stats,
                &mut ws.tracer,
                budget,
                |g, stats, tracer| {
                    stats.maxflow_calls += 1;
                    let (pushes_before, relabels_before) = engine.op_counts();
                    let flow = engine.max_flow(g, s, t);
                    let (pushes, relabels) = engine.op_counts();
                    let (pushes, relabels) = (pushes - pushes_before, relabels - relabels_before);
                    stats.pushes += pushes;
                    stats.relabels += relabels;
                    tracer.emit(TraceEvent::RelabelPass { pushes, relabels });
                    flow
                },
            ) {
                Ok(bailed) => outcome_with_budget(inst, &*g, stats, bailed, &mut ws.tracer),
                Err(e) => Err(e),
            }
        });
        ws.complete();
        result
    }
}

/// A Ford-Fulkerson black-box baseline in the style of \[18\]: the same
/// binary-scaling driver with a from-scratch augmenting-path max-flow.
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
        let budget = ArmedBudget::start(ws.armed_budget());
        ws.begin(inst, self.name())?;
        let mut stats = SolveStats::default();
        let (s, t) = (inst.source(), inst.sink());
        let result = on_graph!(ws, |g| {
            match blackbox_binary(
                inst,
                &mut *g,
                &mut stats,
                &mut ws.tracer,
                budget,
                |g, stats, _tracer| {
                    stats.maxflow_calls += 1;
                    g.zero_flows();
                    ford_fulkerson(g, s, t)
                },
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
