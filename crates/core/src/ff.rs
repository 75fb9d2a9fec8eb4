//! Ford-Fulkerson based integrated retrieval (paper Algorithms 1-3).
//!
//! Both solvers route one unit of flow per bucket with a residual DFS from
//! the bucket's vertex to the sink (the source is excluded from the search,
//! matching the paper's pre-assigned source flows). When no augmenting path
//! exists, disk-edge capacities are raised:
//!
//! * [`FordFulkersonBasic`] (Algorithm 1) — basic problem only: capacities
//!   start at `⌈|Q|/N⌉` and are incremented *all together*.
//! * [`FordFulkersonIncremental`] (Algorithms 2+3) — generalized problem:
//!   capacities start at 0 and only the minimum-next-cost edges are
//!   incremented ([`crate::increment::MinCostIncrementer`]).
//!
//! The residual-graph representation makes the paper's explicit
//! `reverse_edge` / `fixReversedEdges` bookkeeping unnecessary: augmenting
//! along a path that traverses a reverse edge *is* the re-decision of a
//! previously assigned bucket.

use crate::error::SolveError;
use crate::increment::MinCostIncrementer;
use crate::network::RetrievalInstance;
use crate::obs::trace::TraceEvent;
use crate::schedule::RetrievalOutcome;
use crate::solver::RetrievalSolver;
use crate::workspace::{Solve, SolveBody, Workspace};
use rds_flow::graph::ArenaIndex;
use rds_storage::time::Micros;

/// Algorithm 1: integrated Ford-Fulkerson for the **basic** retrieval
/// problem (homogeneous unloaded disks).
#[derive(Clone, Copy, Debug, Default)]
pub struct FordFulkersonBasic;

impl RetrievalSolver for FordFulkersonBasic {
    fn name(&self) -> &'static str {
        "FF-basic"
    }

    /// Returns [`SolveError::UnsupportedSystem`] if the system is not
    /// homogeneous and unloaded — Algorithm 1's uniform capacity
    /// increments are only optimal in that setting; use
    /// [`FordFulkersonIncremental`] otherwise.
    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        let homogeneous = inst.disks.windows(2).all(|w| w[0] == w[1])
            && inst
                .disks
                .first()
                .map(|d| d.overhead() == Micros::ZERO)
                .unwrap_or(true);
        if !homogeneous {
            return Err(SolveError::UnsupportedSystem {
                reason: "FordFulkersonBasic requires homogeneous unloaded disks",
            });
        }
        ws.run(self, inst, false)
    }
}

impl SolveBody for FordFulkersonBasic {
    fn body<W: ArenaIndex>(&self, s: &mut Solve<'_, W>) -> Result<Option<Micros>, SolveError> {
        augment_all(s, None)
    }
}

/// Algorithms 2+3: integrated Ford-Fulkerson for the **generalized**
/// retrieval problem.
#[derive(Clone, Copy, Debug, Default)]
pub struct FordFulkersonIncremental;

impl RetrievalSolver for FordFulkersonIncremental {
    fn name(&self) -> &'static str {
        "FF-incremental"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.run(self, inst, false)
    }
}

impl SolveBody for FordFulkersonIncremental {
    fn body<W: ArenaIndex>(&self, s: &mut Solve<'_, W>) -> Result<Option<Micros>, SolveError> {
        augment_all(s, Some(MinCostIncrementer::new(s.inst)))
    }
}

/// The augment loop of Algorithms 1 and 2+3: routes each bucket's unit
/// with a residual DFS from the bucket to the sink, raising disk-edge
/// capacities whenever no path exists. Algorithm 1 (`min_cost` absent)
/// starts every disk edge at `⌈|Q|/N⌉` and raises them all together;
/// Algorithm 2 starts them at zero — no closed-form lower bound exists
/// for heterogeneous disks — and raises the minimum-next-cost edges
/// (Algorithm 3).
///
/// Anytime mode: once the budget expires, every disk-edge capacity is
/// raised to what the greedy feasible upper bound `t_max` admits (never
/// lowering one), after which every remaining augment succeeds without
/// further increments; `t_min` is the lower bound the gap is reported
/// against.
fn augment_all<W: ArenaIndex>(
    s: &mut Solve<'_, W>,
    mut min_cost: Option<MinCostIncrementer>,
) -> Result<Option<Micros>, SolveError> {
    let inst = s.inst;
    let q = inst.query_size();
    if q == 0 {
        return Ok(None);
    }
    if min_cost.is_none() {
        // Algorithm 1 lines 1-2: the theoretical lower bound (the
        // paper's 6-bucket example on 7 disks uses capacity 1).
        let lower = q.div_ceil(inst.num_disks()) as i64;
        for &e in &inst.disk_edges {
            s.g.set_cap(e, lower);
        }
    }
    let (source, sink) = (inst.source(), inst.sink());
    let mut bailed = None;
    for i in 0..q {
        // The source edge of bucket i is pre-assigned flow 1.
        s.g.push(inst.bucket_edges[i], 1);
        let from = inst.bucket_vertex(i);
        loop {
            if bailed.is_none() && s.expired() {
                let (t_min, t_max, _) = inst.tightened_bounds(s.excess);
                for (j, &e) in inst.disk_edges.iter().enumerate() {
                    let cap = inst.disks[j].capacity_within(t_max) as i64;
                    if cap > s.g.cap(e) {
                        s.g.set_cap(e, cap);
                    }
                }
                bailed = Some(t_min);
            }
            s.stats.dfs_calls += 1;
            if s.dfs.dfs_augment_avoiding(s.g, from, sink, Some(source)) > 0 {
                s.tracer.emit(TraceEvent::Augment { bucket: i as u32 });
                break;
            }
            let raised = match &mut min_cost {
                // Algorithm 2 line 6: only the minimum-cost edge(s).
                Some(inc) => inc.increment(inst, s.g),
                // Algorithm 1 lines 5-8: every disk edge by one.
                None => {
                    for &e in &inst.disk_edges {
                        s.g.set_cap(e, s.g.cap(e) + 1);
                    }
                    inst.disk_edges.len()
                }
            };
            s.stats.increments += 1;
            s.tracer.emit(TraceEvent::CapacityIncrement {
                edges: raised as u32,
            });
            if raised == 0 {
                return Err(SolveError::Infeasible {
                    bucket: None,
                    delivered: i as i64,
                    required: q as i64,
                });
            }
        }
    }
    debug_assert_eq!(s.g.net_inflow(sink) as usize, q);
    Ok(bailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{assert_outcome_valid, oracle_optimal_response};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::experiments::paper_example;
    use rds_storage::model::SystemConfig;
    use rds_storage::specs::CHEETAH;
    use rds_storage::time::Micros;

    fn basic_instance() -> RetrievalInstance {
        let system = SystemConfig::homogeneous(CHEETAH, 7);
        let alloc = OrthogonalAllocation::new(7, Placement::SingleSite);
        let q1 = RangeQuery::new(0, 0, 3, 2);
        RetrievalInstance::build(&system, &alloc, &q1.buckets(7))
    }

    #[test]
    fn basic_solves_paper_q1_in_one_access_per_disk() {
        // q1 has 6 buckets on 7 disks with replication: optimal is one
        // bucket per disk, 6.1 ms.
        let inst = basic_instance();
        let outcome = FordFulkersonBasic.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 6);
        assert_eq!(outcome.response_time, Micros::from_tenths_ms(61));
        assert_outcome_valid(&inst, &outcome);
    }

    #[test]
    fn incremental_matches_basic_on_basic_problem() {
        let inst = basic_instance();
        let a = FordFulkersonBasic.solve(&inst).unwrap();
        let b = FordFulkersonIncremental.solve(&inst).unwrap();
        assert_eq!(a.response_time, b.response_time);
        assert_outcome_valid(&inst, &b);
    }

    #[test]
    fn incremental_solves_generalized_paper_example() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q1 = RangeQuery::new(0, 0, 3, 2);
        let inst = RetrievalInstance::build(&system, &alloc, &q1.buckets(7));
        let outcome = FordFulkersonIncremental.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 6);
        assert_outcome_valid(&inst, &outcome);
        assert_eq!(outcome.response_time, oracle_optimal_response(&inst));
    }

    #[test]
    fn incremental_is_optimal_on_random_instances() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(31);
        for _ in 0..10 {
            let n = rng.gen_range(3..8);
            let system = rds_storage::experiments::experiment(
                rds_storage::experiments::ExperimentId::Exp5,
                n,
                rng.gen_u64(),
            );
            let alloc = OrthogonalAllocation::new(n, Placement::PerSite);
            let r = rng.gen_range(1..=n);
            let c = rng.gen_range(1..=n);
            let q = RangeQuery::new(rng.gen_range(0..n), rng.gen_range(0..n), r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
            let outcome = FordFulkersonIncremental.solve(&inst).unwrap();
            assert_outcome_valid(&inst, &outcome);
            assert_eq!(
                outcome.response_time,
                oracle_optimal_response(&inst),
                "n={n} q={:?}",
                q
            );
        }
    }

    #[test]
    fn empty_query_is_trivial() {
        let system = SystemConfig::homogeneous(CHEETAH, 4);
        let alloc = OrthogonalAllocation::new(4, Placement::SingleSite);
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        let a = FordFulkersonBasic.solve(&inst).unwrap();
        let b = FordFulkersonIncremental.solve(&inst).unwrap();
        assert_eq!(a.flow_value, 0);
        assert_eq!(b.response_time, Micros::ZERO);
    }

    #[test]
    fn basic_rejects_heterogeneous_system() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q1 = RangeQuery::new(0, 0, 2, 2);
        let inst = RetrievalInstance::build(&system, &alloc, &q1.buckets(7));
        match FordFulkersonBasic.solve(&inst) {
            Err(SolveError::UnsupportedSystem { reason }) => {
                assert!(reason.contains("homogeneous"));
            }
            other => panic!("expected UnsupportedSystem, got {other:?}"),
        }
    }

    #[test]
    fn worst_case_all_buckets_on_one_disk() {
        // Degenerate allocation: every bucket only on disk 0 → the disk
        // serves everything; increments scale O(|Q|).
        use rds_decluster::allocation::{ReplicaSource, Replicas};
        struct OneDisk;
        impl ReplicaSource for OneDisk {
            fn grid_size(&self) -> usize {
                4
            }
            fn num_disks(&self) -> usize {
                4
            }
            fn replicas(&self, _b: rds_decluster::query::Bucket) -> Replicas {
                Replicas::from_slice(&[0])
            }
        }
        let system = SystemConfig::homogeneous(CHEETAH, 4);
        let q = RangeQuery::new(0, 0, 2, 2);
        let inst = RetrievalInstance::build(&system, &OneDisk, &q.buckets(4));
        let outcome = FordFulkersonIncremental.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 4);
        // All four buckets from disk 0: 4 * 6.1ms.
        assert_eq!(outcome.response_time, Micros::from_tenths_ms(244));
        assert_outcome_valid(&inst, &outcome);
    }
}
