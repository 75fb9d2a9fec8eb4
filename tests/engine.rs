//! Session and engine behaviour over the paper's heterogeneous Table II
//! system (14 disks, two sites, mixed specs, per-disk delays and loads):
//! every generalized solver must agree through `solve_in`, and the batch
//! engine must be deterministic in its shard count.

use replicated_retrieval::core::blackbox::{BlackBoxFordFulkerson, BlackBoxPushRelabel};
use replicated_retrieval::core::ff::FordFulkersonIncremental;
use replicated_retrieval::core::pr::{PushRelabelBinary, PushRelabelIncremental};
use replicated_retrieval::prelude::*;

fn generalized_solvers() -> Vec<Box<dyn RetrievalSolver + Sync>> {
    vec![
        Box::new(PushRelabelBinary),
        Box::new(PushRelabelIncremental),
        Box::new(FordFulkersonIncremental),
        Box::new(BlackBoxPushRelabel),
        Box::new(BlackBoxFordFulkerson),
    ]
}

/// One shared workspace, every solver, several queries on the Table II
/// system: identical optimal response times across the board.
#[test]
fn all_solvers_agree_through_solve_in_on_table_ii() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let solvers = generalized_solvers();
    let mut ws = Workspace::new();
    for (r, c) in [(3usize, 2usize), (7, 7), (1, 1), (5, 3), (2, 6)] {
        let q = RangeQuery::new(1, 0, r, c);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
        let reference = solvers[0].solve_in(&inst, &mut ws).unwrap().response_time;
        for solver in &solvers[1..] {
            let got = solver.solve_in(&inst, &mut ws).unwrap().response_time;
            assert_eq!(got, reference, "{} on {r}x{c}", solver.name());
        }
    }
    // 5 solvers x 5 queries, all through the one workspace.
    assert_eq!(ws.solves(), 25);
}

/// A session run with each solver on the Table II system: every
/// submission is optimal for the loaded system the session presented it
/// with. (The *traces* may differ between solvers — optimal schedules are
/// not unique, so the load left behind is not — but optimality per step
/// must hold for all of them.)
#[test]
fn sessions_stay_optimal_per_step_on_table_ii() {
    use replicated_retrieval::core::verify::oracle_optimal_response;
    use replicated_retrieval::storage::model::Disk;

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let queries: Vec<(Micros, Vec<Bucket>)> =
        [(0u64, (3, 2)), (2, (2, 2)), (2, (7, 7)), (9, (1, 4))]
            .iter()
            .map(|&(ms, (r, c))| {
                (
                    Micros::from_millis(ms),
                    RangeQuery::new(0, 0, r, c).buckets(7),
                )
            })
            .collect();

    for solver in generalized_solvers() {
        let mut session = RetrievalSession::new(&system, &alloc, solver);
        for (arrival, buckets) in &queries {
            // Reconstruct, through the public API, the loaded system the
            // session is about to solve against: busy_until[j] is
            // current_load(j) + now, so the load at `arrival` is the
            // amount of it that has not yet drained.
            let loaded: Vec<Disk> = (0..system.num_disks())
                .map(|j| Disk {
                    initial_load: system.disk(j).initial_load
                        + (session.current_load(j) + session.now()).saturating_sub(*arrival),
                    ..*system.disk(j)
                })
                .collect();
            let loaded_system = SystemConfig::new(vec![Site {
                name: "loaded".into(),
                disks: loaded,
            }]);
            let want =
                oracle_optimal_response(&RetrievalInstance::build(&loaded_system, &alloc, buckets));
            let out = session.submit(*arrival, buckets).unwrap();
            assert_eq!(out.outcome.response_time, want);
        }
    }
}

/// Engine output over Table II — response times, completions and full
/// bucket→disk assignments — is bit-identical for any shard count under
/// every generalized solver kind, and matches a plain single-stream
/// session where streams coincide.
#[test]
fn engine_is_deterministic_across_shard_counts_on_table_ii() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let mut queries = Vec::new();
    for k in 0..5u64 {
        for s in 0..7usize {
            let q = RangeQuery::new(s % 7, (k as usize) % 7, 1 + s % 3, 1 + (k as usize) % 4);
            queries.push(BatchQuery {
                stream: s,
                arrival: Micros::from_millis(k),
                buckets: q.buckets(7),
            });
        }
    }
    let run = |kind: SolverKind, shards: usize| -> Vec<(Micros, Micros, Schedule)> {
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(SolverSpec::new(kind))
            .shards(shards)
            .build();
        engine
            .submit_batch(&queries)
            .into_iter()
            .map(|r| {
                let o = r.unwrap();
                (o.outcome.response_time, o.completion, o.outcome.schedule)
            })
            .collect()
    };
    for kind in SolverKind::ALL {
        if kind == SolverKind::FordFulkersonBasic {
            continue; // Table II is heterogeneous: not a generalized solver
        }
        let baseline = run(kind, 1);
        for shards in [2usize, 3, 5, 16] {
            assert_eq!(
                run(kind, shards),
                baseline,
                "{} on {shards} shards",
                kind.name()
            );
        }

        // Stream 0's sub-trace matches a standalone session fed the same
        // queries.
        let mut session = RetrievalSession::new(&system, &alloc, SolverSpec::new(kind).build());
        for (q, (rt, completion, schedule)) in
            queries.iter().zip(&baseline).filter(|(q, _)| q.stream == 0)
        {
            let out = session.submit(q.arrival, &q.buckets).unwrap();
            assert_eq!(out.outcome.response_time, *rt, "{}", kind.name());
            assert_eq!(out.completion, *completion, "{}", kind.name());
            assert_eq!(&out.outcome.schedule, schedule, "{}", kind.name());
        }
    }
}

/// Malformed input through the public API returns errors, never panics.
#[test]
fn malformed_input_is_an_error_not_a_panic() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let b = RangeQuery::new(0, 0, 1, 1).buckets(7);

    // Non-monotone arrivals on one stream.
    let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2);
    let mk = |ms: u64| BatchQuery {
        stream: 0,
        arrival: Micros::from_millis(ms),
        buckets: b.clone(),
    };
    let results = engine.submit_batch(&[mk(10), mk(3)]);
    assert!(results[0].is_ok());
    assert!(matches!(
        results[1],
        Err(EngineError::Session(
            SessionError::NonMonotoneArrival { .. }
        ))
    ));

    // FF-basic's precondition violation (heterogeneous Table II system).
    let err = FordFulkersonBasic
        .solve(&RetrievalInstance::build(&system, &alloc, &b))
        .unwrap_err();
    assert!(matches!(err, SolveError::UnsupportedSystem { .. }));
}
