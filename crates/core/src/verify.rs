//! Independent verification oracles for retrieval outcomes.
//!
//! The paper validates its algorithms by checking that all of them report
//! the same total optimal response time over 1000 queries; this module
//! provides the machinery for the same check plus a slower but independent
//! optimum oracle (linear scan of candidate budgets with a Dinic max-flow,
//! sharing no code with the solvers under test).

use crate::fault::HealthMap;
use crate::network::RetrievalInstance;
use crate::schedule::RetrievalOutcome;
use crate::session::SessionOutcome;
use rds_decluster::allocation::ReplicaSource;
use rds_decluster::query::Bucket;
use rds_flow::dinic::Dinic;
use rds_storage::model::SystemConfig;
use rds_storage::time::Micros;

/// Computes the optimal response time by brute force: every achievable
/// response time is `D_j + X_j + k·C_j` for some disk `j` and bucket count
/// `k ≤ in_degree(j)`; scan the candidates in increasing order and return
/// the first admitting a complete flow (checked with Dinic).
///
/// Exponentially simpler than the solvers — use in tests only.
pub fn oracle_optimal_response(inst: &RetrievalInstance) -> Micros {
    let q = inst.query_size() as i64;
    if q == 0 {
        return Micros::ZERO;
    }
    let mut candidates: Vec<Micros> = inst
        .disks
        .iter()
        .enumerate()
        .flat_map(|(j, d)| (1..=inst.replicas_per_disk[j]).map(move |k| d.completion_time(k)))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();

    let mut dinic = Dinic::new();
    for t in candidates {
        let mut g = inst.graph.clone();
        inst.set_caps_for_budget(&mut g, t);
        if dinic.max_flow(&mut g, inst.source(), inst.sink()) == q {
            return t;
        }
    }
    panic!("retrieval instance is infeasible");
}

/// Asserts the structural validity of an outcome:
///
/// * every requested bucket is scheduled exactly once, in order;
/// * every assignment uses a disk that actually stores the bucket
///   (an edge `bucket → disk` exists in the instance network);
/// * the reported response time equals the schedule's recomputed response
///   time, and the flow value equals the query size.
pub fn assert_outcome_valid(inst: &RetrievalInstance, outcome: &RetrievalOutcome) {
    assert_eq!(
        outcome.schedule.len(),
        inst.query_size(),
        "schedule must cover the whole query"
    );
    assert_eq!(outcome.flow_value as usize, inst.query_size());
    for (i, &(bucket, disk)) in outcome.schedule.assignments().iter().enumerate() {
        assert_eq!(bucket, inst.buckets[i], "assignment order must match query");
        let bv = inst.bucket_vertex(i);
        let dv = inst.disk_vertex(disk);
        let stored = inst
            .graph
            .out_edges(bv)
            .iter()
            .any(|&e| e % 2 == 0 && inst.graph.target(e as usize) == dv);
        assert!(
            stored,
            "bucket {bucket} scheduled on non-replica disk {disk}"
        );
    }
    assert_eq!(
        outcome.response_time,
        outcome.schedule.response_time(&inst.disks),
        "reported response time must match the schedule"
    );
}

/// Asserts the validity of a best-effort
/// ([`RetrievalSession::submit_degraded`](crate::session::RetrievalSession::submit_degraded))
/// outcome produced under `health` for the request `requested`:
///
/// * served and unservable buckets partition the request, in order;
/// * every unservable bucket truly has all replicas offline, and every
///   served bucket has at least one live replica;
/// * no served bucket is assigned to an offline disk;
/// * the embedded outcome passes [`assert_outcome_valid`] against the
///   instance rebuilt from the servable subset under the same health —
///   which presents the system's own initial loads, so `partial` must
///   come from a submit that found every disk idle (e.g. a session's
///   first).
pub fn assert_partial_outcome_valid<A: ReplicaSource + ?Sized>(
    system: &SystemConfig,
    alloc: &A,
    health: &HealthMap,
    requested: &[Bucket],
    partial: &SessionOutcome,
) {
    let served: Vec<Bucket> = partial
        .outcome
        .schedule
        .assignments()
        .iter()
        .map(|&(b, _)| b)
        .collect();
    let mut merged = Vec::with_capacity(requested.len());
    let (mut si, mut ui) = (0, 0);
    for &b in requested {
        if si < served.len() && served[si] == b {
            si += 1;
        } else if ui < partial.unservable.len() && partial.unservable[ui] == b {
            ui += 1;
        } else {
            panic!("bucket {b} neither served nor reported unservable");
        }
        merged.push(b);
    }
    assert_eq!(si, served.len(), "schedule serves buckets never requested");
    assert_eq!(
        ui,
        partial.unservable.len(),
        "unservable list contains buckets never requested"
    );

    for &b in &partial.unservable {
        let live = alloc.replicas(b).iter().any(|d| !health.is_offline(d));
        assert!(
            !live,
            "bucket {b} reported unservable but has a live replica"
        );
    }
    for &(b, d) in partial.outcome.schedule.assignments() {
        assert!(
            !health.is_offline(d),
            "bucket {b} scheduled on offline disk {d}"
        );
    }

    let inst = RetrievalInstance::build_with_health(system, alloc, &served, health)
        .expect("served buckets all have live replicas");
    assert_outcome_valid(&inst, &partial.outcome);
}

/// Asserts that `outcome` is valid **and** optimal per the oracle.
pub fn assert_outcome_optimal(inst: &RetrievalInstance, outcome: &RetrievalOutcome) {
    assert_outcome_valid(inst, outcome);
    assert_eq!(
        outcome.response_time,
        oracle_optimal_response(inst),
        "outcome is feasible but not optimal"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Schedule, SolveStats};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Bucket, Query, RangeQuery};
    use rds_storage::experiments::paper_example;
    use rds_storage::model::SystemConfig;
    use rds_storage::specs::CHEETAH;

    fn instance() -> RetrievalInstance {
        let system = SystemConfig::homogeneous(CHEETAH, 7);
        let alloc = OrthogonalAllocation::new(7, Placement::SingleSite);
        let q1 = RangeQuery::new(0, 0, 3, 2);
        RetrievalInstance::build(&system, &alloc, &q1.buckets(7))
    }

    #[test]
    fn oracle_on_basic_q1_is_one_access() {
        let inst = instance();
        assert_eq!(oracle_optimal_response(&inst), Micros::from_tenths_ms(61));
    }

    #[test]
    fn oracle_on_generalized_example() {
        // Single bucket [0,0]: copies on a site-1 raptor (8.3+3 = 11.3ms)
        // and some site-2 disk (6.1+1 = 7.1ms or 13.2+1 = 14.2ms).
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let q = RangeQuery::new(0, 0, 1, 1);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
        let t = oracle_optimal_response(&inst);
        assert!(
            t == Micros::from_tenths_ms(71)
                || t == Micros::from_tenths_ms(113)
                || t == Micros::from_tenths_ms(142),
            "unexpected oracle optimum {t}"
        );
    }

    #[test]
    fn oracle_empty_query_is_zero() {
        let system = SystemConfig::homogeneous(CHEETAH, 3);
        let alloc = OrthogonalAllocation::new(3, Placement::SingleSite);
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        assert_eq!(oracle_optimal_response(&inst), Micros::ZERO);
    }

    #[test]
    #[should_panic(expected = "schedule must cover")]
    fn incomplete_schedule_rejected() {
        let inst = instance();
        let outcome = RetrievalOutcome {
            schedule: Schedule::new(vec![]),
            response_time: Micros::ZERO,
            flow_value: 0,
            stats: SolveStats::default(),
        };
        assert_outcome_valid(&inst, &outcome);
    }

    #[test]
    #[should_panic(expected = "non-replica disk")]
    fn wrong_disk_rejected() {
        let inst = instance();
        // Assign every bucket to a disk that is *not* among its replicas:
        // find one per bucket.
        let assignments: Vec<(Bucket, usize)> = inst
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let bv = inst.bucket_vertex(i);
                let replica_disks: Vec<usize> = inst
                    .graph
                    .out_edges(bv)
                    .iter()
                    .filter(|&&e| e % 2 == 0)
                    .map(|&e| inst.disk_of_vertex(inst.graph.target(e as usize)))
                    .collect();
                let bad = (0..inst.num_disks())
                    .find(|d| !replica_disks.contains(d))
                    .expect("some non-replica disk exists");
                (b, bad)
            })
            .collect();
        let schedule = Schedule::new(assignments);
        let rt = schedule.response_time(&inst.disks);
        let outcome = RetrievalOutcome {
            flow_value: schedule.len() as u64,
            schedule,
            response_time: rt,
            stats: SolveStats::default(),
        };
        assert_outcome_valid(&inst, &outcome);
    }
}
