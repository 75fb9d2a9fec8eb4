//! Cross-algorithm agreement: the paper's own validation methodology.
//!
//! §VI-F: "For every experiment we performed, we compared the total
//! optimal response time values of these 1000 queries for each algorithm
//! we tested and found out that the results are matching." This suite
//! performs the same check across every solver pairing, experiment,
//! allocation scheme, query type and load — plus an independent optimum
//! oracle on the smaller instances.

use rds_util::SplitMix64;
use replicated_retrieval::core::blackbox::{BlackBoxFordFulkerson, BlackBoxPushRelabel};
use replicated_retrieval::core::ff::FordFulkersonIncremental;
use replicated_retrieval::core::pr::{PushRelabelBinary, PushRelabelIncremental};
use replicated_retrieval::core::verify::{assert_outcome_valid, oracle_optimal_response};
use replicated_retrieval::prelude::*;

fn solvers() -> Vec<Box<dyn RetrievalSolver>> {
    vec![
        Box::new(FordFulkersonIncremental),
        Box::new(PushRelabelIncremental),
        Box::new(PushRelabelBinary),
        Box::new(BlackBoxPushRelabel),
        Box::new(BlackBoxFordFulkerson),
    ]
}

fn build_alloc(scheme: usize, n: usize, seed: u64) -> ReplicaMap {
    match scheme {
        0 => ReplicaMap::build(&RandomDuplicateAllocation::two_site(n, seed)),
        1 => ReplicaMap::build(&DependentPeriodicAllocation::new(n, Placement::PerSite)),
        _ => ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite)),
    }
}

/// Every solver returns the same optimal response time, which matches the
/// independent oracle.
#[test]
fn all_solvers_agree_and_match_oracle_on_small_instances() {
    let mut rng = SplitMix64::seed_from_u64(11);
    let solvers = solvers();
    for case in 0..12 {
        let exp = ExperimentId::ALL[case % 5];
        let n = rng.gen_range(3..7);
        let system = experiment(exp, n, rng.gen_u64());
        let alloc = build_alloc(case % 3, n, rng.gen_u64());
        let q = RangeQuery::new(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(1..=n),
            rng.gen_range(1..=n),
        );
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
        let want = oracle_optimal_response(&inst);
        for solver in &solvers {
            let outcome = solver.solve(&inst).unwrap();
            assert_outcome_valid(&inst, &outcome);
            assert_eq!(
                outcome.response_time,
                want,
                "solver {} on case {case} ({exp:?}, n={n}, q={:?})",
                solver.name(),
                q
            );
        }
    }
}

/// Larger instances: solvers agree with each other (oracle too slow).
#[test]
fn solvers_agree_on_medium_instances_across_loads() {
    let mut rng = SplitMix64::seed_from_u64(99);
    let solvers = solvers();
    for (kind, load) in [
        (QueryKind::Range, Load::Load1),
        (QueryKind::Arbitrary, Load::Load2),
        (QueryKind::Arbitrary, Load::Load3),
    ] {
        let n = 12;
        let system = experiment(ExperimentId::Exp5, n, rng.gen_u64());
        let alloc = build_alloc(rng.gen_range(0..3), n, rng.gen_u64());
        let mut gen = QueryGenerator::new(n, kind, load, rng.gen_u64());
        for _ in 0..4 {
            let q = gen.next_query();
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
            let reference = solvers[0].solve(&inst).unwrap().response_time;
            for solver in &solvers[1..] {
                assert_eq!(
                    solver.solve(&inst).unwrap().response_time,
                    reference,
                    "{} vs {} ({kind:?}, {load:?})",
                    solver.name(),
                    solvers[0].name()
                );
            }
        }
    }
}

/// The basic problem (Experiment 1) through the generalized solvers and
/// the basic Ford-Fulkerson all coincide.
#[test]
fn basic_problem_agreement_includes_algorithm_1() {
    use replicated_retrieval::core::ff::FordFulkersonBasic;
    let mut rng = SplitMix64::seed_from_u64(5);
    for _ in 0..6 {
        let n = rng.gen_range(3..8);
        let system = experiment(ExperimentId::Exp1, n, rng.gen_u64());
        let alloc = build_alloc(rng.gen_range(0..3), n, rng.gen_u64());
        let q = RangeQuery::new(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(1..=n),
            rng.gen_range(1..=n),
        );
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
        let basic = FordFulkersonBasic.solve(&inst).unwrap();
        let binary = PushRelabelBinary.solve(&inst).unwrap();
        assert_eq!(basic.response_time, binary.response_time);
        assert_outcome_valid(&inst, &basic);
    }
}

/// Cross-query delta-solving never costs optimality: for every
/// [`SolverKind`], a warm-start session that patches Q_i → Q_{i+1}
/// stays optimal at every step, per the independent oracle evaluated on
/// the loaded system the session presented the solver with. (Optimal
/// schedules are not unique, so a patched and a fresh network may leave
/// different loads behind — per-step optimality is the invariant that
/// must survive.) Kinds whose solver cannot resume report
/// `DeltaUnsupported` and transparently fall back to a full solve on the
/// patched network — never a wrong answer.
#[test]
fn warm_delta_sessions_stay_optimal_per_step_for_every_kind() {
    use replicated_retrieval::storage::model::Disk;

    let mut rng = SplitMix64::seed_from_u64(0xD317A);
    let n = 8;
    for kind in SolverKind::ALL {
        // FF-basic handles only the pristine uniform problem: give it the
        // uniform experiment and arrival gaps long enough that the load
        // feedback has always drained to zero.
        let (exp, gap) = if kind == SolverKind::FordFulkersonBasic {
            (ExperimentId::Exp1, Micros::from_millis(60_000))
        } else {
            (ExperimentId::Exp5, Micros::from_millis(2))
        };
        let system = experiment(exp, n, rng.gen_u64());
        let alloc = build_alloc(rng.gen_range(0..3), n, rng.gen_u64());
        let policy = ReusePolicy {
            warm_start: true,
            cache_capacity: 0,
        };
        let mut warm =
            RetrievalSession::with_reuse(&system, &alloc, SolverSpec::new(kind).build(), policy);
        let mut arrival = Micros::ZERO;
        for step in 0..6usize {
            // Slide a fixed 3x4 window one row per query: equal sizes and
            // a 2/3 bucket overlap, exactly the shape the patch targets.
            let q = RangeQuery::new(step % (n - 2), 0, 3, 4).buckets(n);
            // Reconstruct, through the public API, the loaded system the
            // session is about to solve against.
            let loaded: Vec<Disk> = (0..system.num_disks())
                .map(|j| Disk {
                    initial_load: system.disk(j).initial_load
                        + (warm.current_load(j) + warm.now()).saturating_sub(arrival),
                    ..*system.disk(j)
                })
                .collect();
            let loaded_system = SystemConfig::new(vec![Site {
                name: "loaded".into(),
                disks: loaded,
            }]);
            let want =
                oracle_optimal_response(&RetrievalInstance::build(&loaded_system, &alloc, &q));
            let w = warm.submit(arrival, &q).unwrap();
            assert_eq!(w.outcome.response_time, want, "{} step {step}", kind.name());
            arrival += gap;
        }
        let counters = warm.reuse_counters();
        assert!(
            counters.delta_patches + counters.delta_fallbacks >= 1,
            "{}: warm session never attempted a delta",
            kind.name()
        );
        if kind.supports_delta() {
            assert_eq!(counters.delta_fallbacks, 0, "{}", kind.name());
        } else {
            assert_eq!(counters.delta_patches, 0, "{}", kind.name());
        }
    }
}

/// Sum over a batch (the paper's exact validation quantity).
#[test]
fn total_response_over_query_batch_matches() {
    let n = 10;
    let system = experiment(ExperimentId::Exp4, n, 3);
    let alloc = ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite));
    let mut gen = QueryGenerator::new(n, QueryKind::Arbitrary, Load::Load1, 17);
    let queries: Vec<_> = (0..10).map(|_| gen.next_query()).collect();

    let total = |solver: &dyn RetrievalSolver| -> Micros {
        queries
            .iter()
            .map(|q| {
                let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
                solver.solve(&inst).unwrap().response_time
            })
            .sum()
    };

    let reference = total(&PushRelabelBinary);
    assert!(reference > Micros::ZERO);
    assert_eq!(total(&BlackBoxPushRelabel), reference);
    assert_eq!(total(&FordFulkersonIncremental), reference);
}
