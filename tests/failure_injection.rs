//! Degenerate and adversarial instances: the solvers must stay correct at
//! the edges of the model.

use replicated_retrieval::core::blackbox::{BlackBoxFordFulkerson, BlackBoxPushRelabel};
use replicated_retrieval::core::ff::FordFulkersonIncremental;
use replicated_retrieval::core::pr::{PushRelabelBinary, PushRelabelIncremental};
use replicated_retrieval::core::verify::{
    assert_outcome_valid, assert_partial_outcome_valid, oracle_optimal_response,
};
use replicated_retrieval::decluster::allocation::Replicas;
use replicated_retrieval::prelude::*;
use replicated_retrieval::storage::specs;

/// Every generalized solver (FF-basic is exercised separately — it only
/// accepts homogeneous unloaded instances).
fn generalized_solvers() -> Vec<Box<dyn RetrievalSolver>> {
    vec![
        Box::new(PushRelabelBinary),
        Box::new(PushRelabelIncremental),
        Box::new(FordFulkersonIncremental),
        Box::new(BlackBoxPushRelabel),
        Box::new(BlackBoxFordFulkerson),
    ]
}

/// Single-replica allocation forcing every bucket onto one disk: the
/// worst case the paper's complexity analysis cites (O(|Q|) increments).
struct AllOnOneDisk {
    n: usize,
}

impl ReplicaSource for AllOnOneDisk {
    fn grid_size(&self) -> usize {
        self.n
    }
    fn num_disks(&self) -> usize {
        self.n
    }
    fn replicas(&self, _b: Bucket) -> Replicas {
        Replicas::from_slice(&[0])
    }
}

#[test]
fn all_buckets_on_a_single_disk() {
    let n = 5;
    let system = SystemConfig::homogeneous(specs::CHEETAH, n);
    let q = RangeQuery::new(0, 0, n, n); // all 25 buckets
    let inst = RetrievalInstance::build(&system, &AllOnOneDisk { n }, &q.buckets(n));
    for solver in [
        &PushRelabelBinary as &dyn RetrievalSolver,
        &PushRelabelIncremental,
        &FordFulkersonIncremental,
        &BlackBoxPushRelabel,
    ] {
        let outcome = solver.solve(&inst).unwrap();
        assert_outcome_valid(&inst, &outcome);
        // 25 buckets serially from one cheetah: 25 * 6.1ms.
        assert_eq!(
            outcome.response_time,
            Micros::from_tenths_ms(61) * 25,
            "{}",
            solver.name()
        );
    }
}

#[test]
fn single_disk_system() {
    let system = SystemConfig::homogeneous(specs::VERTEX, 1);
    struct One;
    impl ReplicaSource for One {
        fn grid_size(&self) -> usize {
            1
        }
        fn num_disks(&self) -> usize {
            1
        }
        fn replicas(&self, _b: Bucket) -> Replicas {
            Replicas::from_slice(&[0])
        }
    }
    let inst = RetrievalInstance::build(&system, &One, &[Bucket::new(0, 0)]);
    let outcome = PushRelabelBinary.solve(&inst).unwrap();
    assert_eq!(outcome.response_time, Micros::from_tenths_ms(5));
}

#[test]
fn extreme_initial_load_shifts_schedule() {
    // Two disks, both hold every bucket; one is super fast but massively
    // loaded — the optimum splits or avoids it.
    struct Both;
    impl ReplicaSource for Both {
        fn grid_size(&self) -> usize {
            2
        }
        fn num_disks(&self) -> usize {
            2
        }
        fn replicas(&self, _b: Bucket) -> Replicas {
            Replicas::from_slice(&[0, 1])
        }
    }
    let system = SystemConfig::builder()
        .site("s")
        // 0.2ms per bucket, but massively loaded.
        .disk_with(specs::X25_E, Micros::ZERO, Micros::from_millis(60))
        .disk(specs::BARRACUDA) // 13.2ms per bucket
        .build();
    let q = RangeQuery::new(0, 0, 2, 2); // 4 buckets
    let inst = RetrievalInstance::build(&system, &Both, &q.buckets(2));
    let outcome = PushRelabelBinary.solve(&inst).unwrap();
    assert_eq!(outcome.response_time, oracle_optimal_response(&inst));
    // All 4 on the barracuda: 52.8ms; all 4 on the loaded SSD: 60.8ms;
    // optimal splits 3 (39.6) / 1 (60.2)... no: 60.2 > 52.8. Best is all
    // on the barracuda.
    assert_eq!(outcome.response_time, Micros::from_tenths_ms(528));
}

#[test]
fn zero_cost_is_rejected_by_model() {
    // The model requires positive per-bucket cost (division by C); all
    // shipped specs are positive.
    for spec in specs::ALL_DISKS {
        assert!(spec.access_time > Micros::ZERO);
    }
}

#[test]
fn empty_query_across_all_solvers() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let inst = RetrievalInstance::build(&system, &alloc, &[]);
    for solver in [
        &PushRelabelBinary as &dyn RetrievalSolver,
        &PushRelabelIncremental,
        &FordFulkersonIncremental,
        &BlackBoxPushRelabel,
    ] {
        let outcome = solver.solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 0, "{}", solver.name());
        assert_eq!(outcome.response_time, Micros::ZERO);
    }
}

#[test]
fn full_grid_query_on_every_experiment() {
    for id in ExperimentId::ALL {
        let n = 5;
        let system = experiment(id, n, 9);
        let alloc = ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite));
        let q = RangeQuery::new(0, 0, n, n);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(n));
        let a = PushRelabelBinary.solve(&inst).unwrap();
        let b = FordFulkersonIncremental.solve(&inst).unwrap();
        assert_eq!(a.response_time, b.response_time, "{id:?}");
        assert_outcome_valid(&inst, &a);
    }
}

#[test]
fn duplicate_buckets_in_query_are_distinct_vertices() {
    // The network builder takes the bucket list as-is; a caller passing
    // the same bucket twice retrieves it twice (two units of flow).
    let system = SystemConfig::homogeneous(specs::CHEETAH, 4);
    let alloc = OrthogonalAllocation::new(4, Placement::SingleSite);
    let b = Bucket::new(1, 1);
    let inst = RetrievalInstance::build(&system, &alloc, &[b, b]);
    let outcome = PushRelabelBinary.solve(&inst).unwrap();
    assert_eq!(outcome.flow_value, 2);
    assert_outcome_valid(&inst, &outcome);
}

#[test]
fn offline_replicas_reroute_for_every_solver() {
    // Take one replica disk of a single-bucket query offline: every
    // solver must route to the surviving replica and stay optimal for
    // the pruned instance.
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let buckets = RangeQuery::new(2, 3, 2, 2).buckets(7);
    let dead = alloc.replicas(buckets[0]).iter().next().unwrap();
    let health = HealthMap::with_offline(&[dead]);
    let inst = RetrievalInstance::build_with_health(&system, &alloc, &buckets, &health).unwrap();
    let want = oracle_optimal_response(&inst);
    for solver in generalized_solvers() {
        let outcome = solver.solve(&inst).unwrap();
        assert_outcome_valid(&inst, &outcome);
        assert_eq!(outcome.response_time, want, "{}", solver.name());
        assert!(
            outcome
                .schedule
                .assignments()
                .iter()
                .all(|&(_, d)| d != dead),
            "{} used the offline disk",
            solver.name()
        );
    }
}

#[test]
fn all_replicas_down_is_typed_infeasibility_for_every_solver() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let buckets = RangeQuery::new(0, 0, 1, 1).buckets(7);
    let dead: Vec<usize> = alloc.replicas(buckets[0]).iter().collect();
    let health = HealthMap::with_offline(&dead);

    // Building the instance reports the dead bucket...
    let err = RetrievalInstance::build_with_health(&system, &alloc, &buckets, &health).unwrap_err();
    assert_eq!(err.bucket, buckets[0]);

    // ...and a strict session submit surfaces it as SolveError::Infeasible
    // for every solver, without poisoning the session.
    for solver in generalized_solvers() {
        let mut state = SessionState::new(system.num_disks());
        let mut ws = Workspace::new();
        let err = state
            .submit_with_health(
                &system,
                &alloc,
                solver.as_ref(),
                &mut ws,
                Micros::ZERO,
                &buckets,
                &health,
            )
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Solve(SolveError::Infeasible {
                bucket: Some(buckets[0]),
                delivered: 0,
                required: 1,
            }),
            "{}",
            solver.name()
        );
        // The session stays usable: the same query under full health.
        let ok = state
            .submit_with(
                &system,
                &alloc,
                solver.as_ref(),
                &mut ws,
                Micros::ZERO,
                &buckets,
            )
            .unwrap();
        assert_eq!(ok.outcome.flow_value, 1);
    }
}

#[test]
fn degraded_submit_serves_the_survivors_for_every_solver() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let buckets = RangeQuery::new(0, 0, 2, 3).buckets(7);
    // Kill every replica of one bucket, one replica of another.
    let mut dead: Vec<usize> = alloc.replicas(buckets[1]).iter().collect();
    dead.push(alloc.replicas(buckets[4]).iter().next().unwrap());
    let health = HealthMap::with_offline(&dead);

    for solver in generalized_solvers() {
        let partial = RetrievalSession::new(&system, &alloc, solver.as_ref())
            .submit_degraded(Micros::ZERO, &buckets, &health)
            .unwrap();
        assert_partial_outcome_valid(&system, &alloc, &health, &buckets, &partial);
        assert!(!partial.is_complete(), "{}", solver.name());
        assert!(partial.unservable.contains(&buckets[1]));
        assert_eq!(
            partial.outcome.schedule.len() + partial.unservable.len(),
            buckets.len()
        );
    }
}

#[test]
fn degraded_disk_breaks_ff_basic_homogeneity() {
    // A Degraded health entry inflates one disk's cost, so FF-basic's
    // homogeneous-system precondition fails — as UnsupportedSystem, not a
    // wrong schedule.
    let system = SystemConfig::homogeneous(specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    let buckets = RangeQuery::new(0, 0, 1, 3).buckets(5);
    let mut health = HealthMap::all_healthy();
    health.set(2, DiskHealth::Degraded { load_factor: 250 });
    let inst = RetrievalInstance::build_with_health(&system, &alloc, &buckets, &health).unwrap();
    assert!(matches!(
        FordFulkersonBasic.solve(&inst),
        Err(SolveError::UnsupportedSystem { .. })
    ));
    // The generalized solvers absorb the degradation and stay optimal.
    let want = oracle_optimal_response(&inst);
    for solver in generalized_solvers() {
        assert_eq!(
            solver.solve(&inst).unwrap().response_time,
            want,
            "{}",
            solver.name()
        );
    }
}

#[test]
fn huge_network_delay_dominates() {
    // A site so distant that even its SSDs lose to local HDDs.
    let far_delay = Micros::from_millis(1_000);
    let system = SystemConfig::builder()
        .site("local")
        .disks(specs::BARRACUDA, 3)
        .site("far")
        .disk_with(specs::X25_E, far_delay, Micros::ZERO)
        .disk_with(specs::X25_E, far_delay, Micros::ZERO)
        .disk_with(specs::X25_E, far_delay, Micros::ZERO)
        .build();
    let alloc = ReplicaMap::build(&DependentPeriodicAllocation::new(3, Placement::PerSite));
    let q = RangeQuery::new(0, 0, 3, 3);
    let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(3));
    let outcome = PushRelabelBinary.solve(&inst).unwrap();
    assert_eq!(outcome.response_time, oracle_optimal_response(&inst));
    let counts = outcome.schedule.per_disk_counts(6);
    let far_total: u64 = counts[3..].iter().sum();
    assert_eq!(far_total, 0, "distant site must be unused");
}

/// Buckets off the 7×7 Table II grid: past the last column, past the
/// last row, and past both.
const OFF_GRID: [(u32, u32); 3] = [(0, 7), (7, 0), (9, 9)];

/// Whether `err` is the typed infeasibility that names bucket `b`.
fn infeasible_at(err: &SolveError, b: Bucket) -> bool {
    matches!(err, SolveError::Infeasible { bucket: Some(x), .. } if *x == b)
}

/// Whether an engine-level failure wraps [`infeasible_at`].
fn engine_infeasible_at(err: &EngineError, b: Bucket) -> bool {
    matches!(err, EngineError::Session(SessionError::Solve(e)) if infeasible_at(e, b))
}

/// Runs every off-grid bucket, behind two on-grid ones, through the
/// instance builders, the session (strict and best-effort),
/// `submit_batch` and `Engine::serve`, with all disks
/// up and with disk 0 offline. Every path reports the off-grid bucket as
/// typed infeasibility, never a schedule, a panic or a failed shard.
fn off_grid_paths<A: ReplicaSource + Sync>(alloc: &A) {
    let system = paper_example();
    let valid = vec![Bucket::new(0, 0), Bucket::new(1, 1), Bucket::new(2, 2)];
    for offline in [None, Some(0usize)] {
        let health = HealthMap::with_offline(offline.as_slice());
        for (row, col) in OFF_GRID {
            let off = Bucket::new(row, col);
            let query = vec![Bucket::new(0, 0), Bucket::new(1, 1), off];
            let case = format!("bucket {off}, offline {offline:?}");

            let err =
                RetrievalInstance::build_with_health(&system, alloc, &query, &health).unwrap_err();
            assert_eq!(err.bucket, off, "build: {case}");
            let mut inst =
                RetrievalInstance::build_with_health(&system, alloc, &valid, &health).unwrap();
            let err = inst
                .patch_buckets(alloc, &query, &health, &mut Vec::new())
                .unwrap_err();
            assert_eq!(err.bucket, off, "patch: {case}");

            let mut state = SessionState::new(system.num_disks());
            let mut ws = Workspace::new();
            for best_effort in [false, true] {
                let submit = if best_effort {
                    SessionState::submit_degraded_with::<A, PushRelabelBinary>
                } else {
                    SessionState::submit_with_health::<A, PushRelabelBinary>
                };
                let err = submit(
                    &mut state,
                    &system,
                    alloc,
                    &PushRelabelBinary,
                    &mut ws,
                    Micros::ZERO,
                    &query,
                    &health,
                )
                .unwrap_err();
                assert!(
                    matches!(&err, SessionError::Solve(e) if infeasible_at(e, off)),
                    "session (best effort {best_effort}): {case}: {err:?}"
                );
            }
            // The session stays usable.
            let ok = state
                .submit_with_health(
                    &system,
                    alloc,
                    &PushRelabelBinary,
                    &mut ws,
                    Micros::ZERO,
                    &valid,
                    &health,
                )
                .unwrap();
            assert_eq!(ok.outcome.flow_value, 3, "{case}");

            // One stream submits the off-grid query between two valid
            // ones; a second stream runs valid queries alongside.
            let batch: Vec<BatchQuery> = [(0, 0, &valid), (0, 1, &query), (0, 2, &valid)]
                .into_iter()
                .chain([(1, 0, &valid), (1, 1, &valid)])
                .map(|(stream, t, buckets)| BatchQuery {
                    stream,
                    arrival: Micros::from_millis(t),
                    buckets: buckets.clone(),
                })
                .collect();
            let engine = || {
                let engine = Engine::new(&system, alloc, PushRelabelBinary, 2);
                match offline {
                    Some(_) => engine
                        .with_fault_injector(FaultInjector::pinned(&health))
                        .with_degraded_mode(true),
                    None => engine,
                }
            };
            let results = engine().submit_batch(&batch);
            for (i, r) in results.iter().enumerate() {
                match r {
                    Err(e) if i == 1 => {
                        assert!(engine_infeasible_at(e, off), "submit_batch: {case}: {e:?}")
                    }
                    Ok(o) if i != 1 => assert_eq!(o.outcome.flow_value, 3, "{case}"),
                    other => panic!("submit_batch item {i}: {case}: {other:?}"),
                }
            }

            let report = engine().serve(ServeConfig::default().virtual_time(), |h| {
                batch
                    .iter()
                    .map(|q| {
                        let req =
                            QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival);
                        h.submit(req).unwrap()
                    })
                    .collect::<Vec<Ticket>>()
            });
            assert_eq!(report.unclaimed.len(), batch.len(), "{case}");
            for r in &report.unclaimed {
                let i = report.output.iter().position(|&t| t == r.ticket).unwrap();
                match &r.result {
                    Err(e) if i == 1 => {
                        assert!(engine_infeasible_at(e, off), "serve: {case}: {e:?}")
                    }
                    Ok(o) if i != 1 => assert_eq!(o.outcome.flow_value, 3, "{case}"),
                    other => panic!("serve item {i}: {case}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn off_grid_buckets_are_typed_infeasibility_on_every_path() {
    // The dense Table II replica table, and the allocation that computes
    // replicas arithmetically.
    off_grid_paths(&ReplicaMap::build(&OrthogonalAllocation::paper_7x7()));
    off_grid_paths(&OrthogonalAllocation::paper_7x7());
}
