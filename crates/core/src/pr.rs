//! Push-relabel based integrated retrieval (paper Algorithms 5 and 6),
//! and the one budget search every binary-scaling solver runs.
//!
//! * [`PushRelabelIncremental`] — Algorithm 5 run standalone from zero
//!   capacities: alternate `IncrementMinCost` with a flow-conserving
//!   push-relabel resume until the sink receives `|Q|` units.
//! * [`PushRelabelBinary`] — Algorithm 6: first a binary search over the
//!   response-time budget narrows `[t_min, t_max)` below the fastest
//!   disk's per-bucket cost, **conserving flows across probes** (storing
//!   the flow state of failed probes, restoring it after successful ones);
//!   then the incremental phase of Algorithm 5 finds the exact optimum.
//!
//! The search (`search`, then `incremental`) is written once, generic over
//! a `Probe`: how a probe sets the disk capacities, takes its max-flow and
//! keeps or rolls back the flow. Algorithm 6 resumes the conserved
//! preflow (`Conserve`), its warm resume retargets a delta-patched flow
//! in place (`Retarget`), and the black-box baselines of
//! [`crate::blackbox`] recompute every max-flow from zero. Flow
//! conservation is the only thing in which they differ.

use crate::error::SolveError;
use crate::increment::MinCostIncrementer;
use crate::network::RetrievalInstance;
use crate::obs::trace::TraceEvent;
use crate::schedule::RetrievalOutcome;
use crate::solver::RetrievalSolver;
use crate::workspace::{Solve, SolveBody, Workspace};
use rds_flow::graph::ArenaIndex;
use rds_flow::incremental::{cancel_path, retarget_capacity};
use rds_storage::time::Micros;

/// Algorithm 5 standalone: integrated incremental push-relabel from zero
/// capacities.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushRelabelIncremental;

impl RetrievalSolver for PushRelabelIncremental {
    fn name(&self) -> &'static str {
        "PR-incremental"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.run(self, inst, false)
    }

    fn supports_delta(&self) -> bool {
        true
    }

    fn resume_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.run(self, inst, true)
    }
}

impl SolveBody for PushRelabelIncremental {
    fn body<W: ArenaIndex>(&self, s: &mut Solve<'_, W>) -> Result<Option<Micros>, SolveError> {
        if s.warm {
            resume_warm(s, false)
        } else {
            incremental::<Conserve, W>(s, None)
        }
    }
}

/// Algorithm 6: binary capacity scaling with flow conservation — the
/// paper's headline sequential algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushRelabelBinary;

impl RetrievalSolver for PushRelabelBinary {
    fn name(&self) -> &'static str {
        "PR-binary"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.run(self, inst, false)
    }

    fn supports_delta(&self) -> bool {
        true
    }

    fn resume_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        ws.run(self, inst, true)
    }
}

impl SolveBody for PushRelabelBinary {
    fn body<W: ArenaIndex>(&self, s: &mut Solve<'_, W>) -> Result<Option<Micros>, SolveError> {
        if s.warm {
            resume_warm(s, true)
        } else {
            search::<Conserve, W>(s, true)
        }
    }
}

/// How one probe of the budget search works. Every method but
/// `max_flow` defaults to what a probe that conserves no flow does.
pub(crate) trait Probe {
    /// Sets every disk-edge capacity to what budget `t` admits.
    fn set_caps<W: ArenaIndex>(s: &mut Solve<'_, W>, t: Micros) {
        s.inst.set_caps_for_budget(s.g, t);
    }

    /// Takes the maximum flow at the current capacities; returns its
    /// value.
    fn max_flow<W: ArenaIndex>(s: &mut Solve<'_, W>) -> i64;

    /// The flow value the graph is known to carry: what the incremental
    /// phase starts from.
    fn flow<W: ArenaIndex>(_s: &Solve<'_, W>) -> i64 {
        0
    }

    /// Keeps the flow of an infeasible probe (and, before the first
    /// probe, the starting flow) for the probes that follow.
    fn keep<W: ArenaIndex>(_s: &mut Solve<'_, W>) {}

    /// Returns from a feasible probe to the last kept flow.
    fn roll_back<W: ArenaIndex>(_s: &mut Solve<'_, W>) {}
}

/// Cold Algorithm 6: each probe resumes the conserved preflow. The
/// `StoreFlows` state is the graph's flow checkpoint plus the excess
/// snapshot in the workspace's `stored_excess` buffer, one slice copy
/// each way.
struct Conserve;

impl Probe for Conserve {
    fn max_flow<W: ArenaIndex>(s: &mut Solve<'_, W>) -> i64 {
        relabel_pass(s, false)
    }

    fn flow<W: ArenaIndex>(s: &Solve<'_, W>) -> i64 {
        s.engine.excess(s.inst.sink())
    }

    fn keep<W: ArenaIndex>(s: &mut Solve<'_, W>) {
        s.g.checkpoint_flows();
        s.engine.excess_snapshot_into(s.g.num_vertices(), s.excess);
    }

    fn roll_back<W: ArenaIndex>(s: &mut Solve<'_, W>) {
        s.g.rollback_flows();
        s.engine.restore_excess(s.excess);
    }
}

/// Warm Algorithm 6: each probe *retargets* the disk capacities of the
/// delta-patched flow in place, draining the flow a lower capacity
/// orphans into disk excess that the next resume re-routes. Push-relabel
/// needs only a valid preflow, so nothing is stored or rolled back.
struct Retarget;

impl Probe for Retarget {
    fn set_caps<W: ArenaIndex>(s: &mut Solve<'_, W>, t: Micros) {
        for (j, &e) in s.inst.disk_edges.iter().enumerate() {
            let cap = s.inst.disks[j].capacity_within(t) as i64;
            retarget_capacity(s.engine, s.g, e, cap);
        }
    }

    fn max_flow<W: ArenaIndex>(s: &mut Solve<'_, W>) -> i64 {
        relabel_pass(s, false)
    }

    fn flow<W: ArenaIndex>(s: &Solve<'_, W>) -> i64 {
        s.engine.excess(s.inst.sink())
    }
}

/// One push-relabel pass with its work attributed: a flow-conserving
/// resume, or (`from_scratch`) a max-flow from zero. The engine's
/// cumulative operation counters are differenced around the call, folded
/// into the stats and emitted as a [`TraceEvent::RelabelPass`].
pub(crate) fn relabel_pass<W: ArenaIndex>(s: &mut Solve<'_, W>, from_scratch: bool) -> i64 {
    let (source, sink) = (s.inst.source(), s.inst.sink());
    let (pushes_before, relabels_before) = s.engine.op_counts();
    let flow = if from_scratch {
        s.stats.maxflow_calls += 1;
        s.engine.max_flow(s.g, source, sink)
    } else {
        s.stats.resume_calls += 1;
        s.engine.resume(s.g, source, sink)
    };
    let (pushes, relabels) = s.engine.op_counts();
    let (pushes, relabels) = (pushes - pushes_before, relabels - relabels_before);
    s.stats.pushes += pushes;
    s.stats.relabels += relabels;
    s.tracer.emit(TraceEvent::RelabelPass { pushes, relabels });
    flow
}

/// The budget search of Algorithm 6 (lines 1-42), with `binary` false
/// only its landing and incremental phase: bounds, then binary-search
/// probes over `[t_min, t_max)` until the range is narrower than the
/// fastest disk's per-bucket cost, then the incremental phase from the
/// capacities at `t_min`.
///
/// Anytime mode: when the armed budget expires at a probe boundary, the
/// search finishes at the feasible `t_max` instead. The live flow then
/// fits every budget from the last infeasible probe up (a retargeting
/// probe drains whatever does not fit `t_max`), so raising the capacities
/// to `t_max` and taking one more max-flow completes it. Returns
/// `Ok(Some(t_min))` for such a bail-out, `Ok(None)` at the exact
/// optimum.
pub(crate) fn search<P: Probe, W: ArenaIndex>(
    s: &mut Solve<'_, W>,
    binary: bool,
) -> Result<Option<Micros>, SolveError> {
    let q = s.inst.query_size() as i64;
    if q == 0 {
        return Ok(None);
    }
    let (mut t_min, mut t_max, min_speed) = s.inst.tightened_bounds(s.excess);
    // `StoreFlows` of the starting state: a failed probe is never rolled
    // back past it.
    P::keep(s);
    while binary && t_max - t_min >= min_speed {
        if s.expired() {
            return finish::<P, W>(s, t_min, t_max);
        }
        let t_mid = t_min.midpoint(t_max);
        P::set_caps(s, t_mid);
        s.tracer.emit(TraceEvent::ProbeStart { budget: t_mid });
        let flow = P::max_flow(s);
        s.stats.probes += 1;
        s.tracer.emit(TraceEvent::ProbeEnd {
            budget: t_mid,
            feasible: flow == q,
        });
        if flow != q {
            // No solution at t_mid (lines 30-33): keep the state just
            // computed — it stays feasible for all larger budgets.
            P::keep(s);
            t_min = t_mid;
        } else {
            // Solution found but possibly not optimal (lines 34-37):
            // shrink from above and roll back to the last failed state so
            // the smaller capacities of later probes are respected.
            P::roll_back(s);
            t_max = t_mid;
        }
    }
    // Lines 38-42: fix the capacities at t_min and finish with the
    // incremental phase.
    P::set_caps(s, t_min);
    incremental::<P, W>(s, Some((t_min, t_max)))
}

/// The incremental phase (Algorithm 5): alternate `IncrementMinCost` and
/// a max-flow until the flow reaches `|Q|`. A probe that conserves no
/// flow starts from none, so its first step raises capacities before any
/// max-flow.
///
/// When the budget expires mid-phase, the search finishes at the feasible
/// bound `t_max` of `bounds`, or of the greedy bounds computed then when
/// the caller had none. Capacities only ever *rise* on this path — the
/// incremental capacities never exceed `capacity_within(t*)` and
/// `t* ≤ t_max` — so the live flow stays valid.
fn incremental<P: Probe, W: ArenaIndex>(
    s: &mut Solve<'_, W>,
    bounds: Option<(Micros, Micros)>,
) -> Result<Option<Micros>, SolveError> {
    let q = s.inst.query_size() as i64;
    let mut inc = MinCostIncrementer::new(s.inst);
    let mut flow = P::flow(s);
    while flow != q {
        if s.expired() {
            let (t_min, t_max) = match bounds {
                Some(bounds) => bounds,
                None => {
                    let (t_min, t_max, _) = s.inst.tightened_bounds(s.excess);
                    (t_min, t_max)
                }
            };
            return finish::<P, W>(s, t_min, t_max);
        }
        let raised = inc.increment(s.inst, s.g);
        s.stats.increments += 1;
        s.tracer.emit(TraceEvent::CapacityIncrement {
            edges: raised as u32,
        });
        if raised == 0 {
            return Err(SolveError::Infeasible {
                bucket: None,
                delivered: flow,
                required: q,
            });
        }
        flow = P::max_flow(s);
    }
    Ok(None)
}

/// The anytime bail-out: raises the capacities to the known-feasible
/// `t_max` and takes one more max-flow, which must retrieve every bucket.
/// Returns `t_min` as the lower bound the gap is reported against.
fn finish<P: Probe, W: ArenaIndex>(
    s: &mut Solve<'_, W>,
    t_min: Micros,
    t_max: Micros,
) -> Result<Option<Micros>, SolveError> {
    P::set_caps(s, t_max);
    let flow = P::max_flow(s);
    let q = s.inst.query_size() as i64;
    if flow != q {
        return Err(SolveError::Infeasible {
            bucket: None,
            delivered: flow,
            required: q,
        });
    }
    Ok(Some(t_min))
}

/// Algorithm 5 or 6 re-run from the staged warm flow instead of from
/// zero: cancels the stale unit of every bucket slot whose identity
/// changed in the patch, then searches with retargeting probes. Each
/// stale unit still rides a `source → bucket → disk → sink` path whose
/// replica arc the patch capped to zero; unwinding the path through the
/// residual graph returns the unit from the sink to the source, where the
/// resume re-routes it through the slot's new replica arcs.
fn resume_warm<W: ArenaIndex>(
    s: &mut Solve<'_, W>,
    binary: bool,
) -> Result<Option<Micros>, SolveError> {
    let (inst, g) = (s.inst, &mut *s.g);
    let mut cancelled = 0;
    for &i in s.changed {
        let sb = inst.bucket_edges[i];
        if g.flow(sb) <= 0 {
            continue;
        }
        let b = inst.bucket_vertex(i);
        let mut path = None;
        for k in 0..g.out_edges(b).len() {
            let e = g.out_edges(b)[k] as usize;
            if e.is_multiple_of(2) && g.flow(e) > 0 {
                let j = inst.disk_of_vertex(g.target(e));
                path = Some([sb, e, inst.disk_edges[j]]);
                break;
            }
        }
        if let Some(p) = path {
            cancel_path(s.engine, g, &p, 1);
            cancelled += 1;
        }
    }
    s.tracer.emit(TraceEvent::DeltaPatch {
        changed: s.changed.len() as u32,
        cancelled,
    });
    search::<Retarget, W>(s, binary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ff::FordFulkersonIncremental;
    use crate::verify::{assert_outcome_valid, oracle_optimal_response};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::periodic::DependentPeriodicAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_decluster::rda::RandomDuplicateAllocation;
    use rds_storage::experiments::{experiment, paper_example, ExperimentId};
    use rds_storage::model::SystemConfig;
    use rds_storage::specs::CHEETAH;
    use rds_storage::time::Micros;

    #[test]
    fn binary_solves_paper_q1_basic() {
        let system = SystemConfig::homogeneous(CHEETAH, 7);
        let alloc = OrthogonalAllocation::new(7, Placement::SingleSite);
        let q1 = RangeQuery::new(0, 0, 3, 2);
        let inst = RetrievalInstance::build(&system, &alloc, &q1.buckets(7));
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 6);
        assert_eq!(outcome.response_time, Micros::from_tenths_ms(61));
        assert_outcome_valid(&inst, &outcome);
    }

    #[test]
    fn incremental_and_binary_agree_on_paper_example() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        for (r, c) in [(3usize, 2usize), (7, 7), (1, 1), (4, 6)] {
            let q = RangeQuery::new(1, 2, r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
            let a = PushRelabelIncremental.solve(&inst).unwrap();
            let b = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(a.response_time, b.response_time, "query {r}x{c}");
            assert_outcome_valid(&inst, &a);
            assert_outcome_valid(&inst, &b);
            assert_eq!(b.response_time, oracle_optimal_response(&inst));
        }
    }

    #[test]
    fn binary_uses_fewer_increments_than_incremental() {
        // The whole point of the binary phase: capacity values are brought
        // near the optimum in O(log |Q|) probes instead of O(c|Q|)
        // single-step increments.
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q = RangeQuery::new(0, 0, 7, 7);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
        let a = PushRelabelIncremental.solve(&inst).unwrap();
        let b = PushRelabelBinary.solve(&inst).unwrap();
        assert!(
            b.stats.increments < a.stats.increments,
            "binary {} vs incremental {}",
            b.stats.increments,
            a.stats.increments
        );
    }

    #[test]
    fn agrees_with_ford_fulkerson_across_experiments() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(17);
        for id in ExperimentId::ALL {
            let n = rng.gen_range(4..9);
            let system = experiment(id, n, rng.gen_u64());
            let alloc = RandomDuplicateAllocation::two_site(n, rng.gen_u64());
            let r = rng.gen_range(1..=n);
            let c = rng.gen_range(1..=n);
            let q = RangeQuery::new(rng.gen_range(0..n), rng.gen_range(0..n), r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
            let ff = FordFulkersonIncremental.solve(&inst).unwrap();
            let pr = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(
                ff.response_time, pr.response_time,
                "experiment {:?} n={n}",
                id
            );
            assert_outcome_valid(&inst, &pr);
        }
    }

    #[test]
    fn optimal_on_random_exp5_instances() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(23);
        for case in 0..8 {
            let n = rng.gen_range(3..8);
            let system = experiment(ExperimentId::Exp5, n, rng.gen_u64());
            let alloc = DependentPeriodicAllocation::new(n, Placement::PerSite);
            let r = rng.gen_range(1..=n);
            let c = rng.gen_range(1..=n);
            let q = RangeQuery::new(rng.gen_range(0..n), rng.gen_range(0..n), r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
            let outcome = PushRelabelBinary.solve(&inst).unwrap();
            assert_outcome_valid(&inst, &outcome);
            assert_eq!(
                outcome.response_time,
                oracle_optimal_response(&inst),
                "case {case} n={n}"
            );
        }
    }

    #[test]
    fn empty_query() {
        let system = SystemConfig::homogeneous(CHEETAH, 4);
        let alloc = OrthogonalAllocation::new(4, Placement::SingleSite);
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 0);
        assert_eq!(outcome.response_time, Micros::ZERO);
    }

    #[test]
    fn single_bucket_query_picks_fastest_replica() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q = RangeQuery::new(0, 0, 1, 1);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 1);
        // The best replica is whichever of the two copies has the lower
        // single-bucket completion time; both candidates are 11.3ms
        // (site 1 raptor) or 7.1/14.2ms (site 2).
        let (b, d) = outcome.schedule.assignments()[0];
        assert_eq!(b, rds_decluster::query::Bucket::new(0, 0));
        assert_eq!(outcome.response_time, inst.disks[d].completion_time(1));
        assert_eq!(outcome.response_time, oracle_optimal_response(&inst));
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        // One workspace threaded through differently-shaped queries and
        // both algorithms must reproduce the fresh-workspace results.
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let mut ws = Workspace::new();
        for (r, c) in [(7usize, 7usize), (1, 1), (3, 2), (5, 4)] {
            let q = RangeQuery::new(0, 0, r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
            let reused = PushRelabelBinary.solve_in(&inst, &mut ws).unwrap();
            let fresh = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(reused.response_time, fresh.response_time, "{r}x{c}");
            let reused = PushRelabelIncremental.solve_in(&inst, &mut ws).unwrap();
            assert_eq!(reused.response_time, fresh.response_time, "{r}x{c}");
        }
        assert_eq!(ws.solves(), 8);
    }

    #[test]
    fn probes_scale_logarithmically() {
        let system = experiment(ExperimentId::Exp5, 10, 3);
        let alloc = OrthogonalAllocation::new(10, Placement::PerSite);
        let q = RangeQuery::new(0, 0, 10, 10);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(10));
        let outcome = PushRelabelBinary.solve(&inst).unwrap();
        // The budget range spans ~|Q| * C_max / min_speed values; probes
        // are its base-2 log — generously under 64.
        assert!(outcome.stats.probes < 64, "{} probes", outcome.stats.probes);
        assert_outcome_valid(&inst, &outcome);
    }
}
