//! Width-equivalence property suite for the monomorphized CSR arena.
//!
//! The residual arena stores capacities and flows as either `i32`
//! ([`ArenaLayout::Compact`]) or `i64` ([`ArenaLayout::Wide`]); the
//! adjacency layout, traversal order, and every solver decision must be
//! independent of that storage width. These tests force both widths over
//! the same randomized workloads — cold solves under random
//! [`HealthMap`]s, warm-start/delta session streams, and the serving
//! loop's span timelines — and require bit-identical schedules, solve
//! statistics, and span digests.

use rds_util::SplitMix64;
use replicated_retrieval::core::spec::{ArenaLayout, SolverKind, SolverSpec};
use replicated_retrieval::prelude::*;

fn arb_system(n: usize, seed: u64) -> SystemConfig {
    experiment(ExperimentId::ALL[(seed % 5) as usize], n, seed)
}

fn arb_alloc(n: usize, seed: u64) -> ReplicaMap {
    match seed % 3 {
        0 => ReplicaMap::build(&RandomDuplicateAllocation::two_site(n, seed)),
        1 => ReplicaMap::build(&DependentPeriodicAllocation::new(n, Placement::PerSite)),
        _ => ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite)),
    }
}

/// A random per-disk health map: mostly healthy, with occasional degraded
/// and offline disks. When `offline_only` is set (FF-basic requires the
/// surviving system to stay uniform) degraded states are not generated.
fn arb_health(n: usize, rng: &mut SplitMix64, offline_only: bool) -> HealthMap {
    let mut map = HealthMap::all_healthy();
    // At most one offline disk keeps the replicated instances feasible
    // in the common case; infeasible cases are still compared.
    let offline_budget = 1usize;
    let mut offline = 0usize;
    for j in 0..n {
        match rng.gen_range(0..8u64) {
            0 if offline < offline_budget => {
                map.set(j, DiskHealth::Offline);
                offline += 1;
            }
            1 if !offline_only => {
                let load_factor = 100 + rng.gen_range(1..200u64) as u32;
                map.set(j, DiskHealth::Degraded { load_factor });
            }
            _ => {}
        }
    }
    map
}

/// Asserts the two outcomes are bit-identical apart from the stamped
/// arena layout, which differs by construction.
fn assert_stats_match(kind: SolverKind, compact: &SolveStats, wide: &SolveStats) {
    assert_eq!(
        compact.arena_layout,
        ArenaLayout::Compact,
        "{}: compact run stamped the wrong layout",
        kind.name()
    );
    assert_eq!(
        wide.arena_layout,
        ArenaLayout::Wide,
        "{}: wide run stamped the wrong layout",
        kind.name()
    );
    let mut normalized = *compact;
    normalized.arena_layout = wide.arena_layout;
    assert_eq!(
        normalized,
        *wide,
        "{}: op counts diverge between arena widths",
        kind.name()
    );
}

/// Compact and wide arenas produce bit-identical schedules and solve
/// statistics for every solver kind across 200 random instances, each
/// solved under a random health map.
#[test]
fn compact_and_wide_agree_on_random_instances_under_random_health() {
    let mut rng = SplitMix64::seed_from_u64(0x31D7);
    let mut compared = 0usize;
    for _ in 0..200 {
        let n = rng.gen_range(3..7usize);
        let seed = rng.gen_range(0..1000u64);
        let r = rng.gen_range(1..5usize).min(n);
        let c = rng.gen_range(1..5usize).min(n);
        let row = rng.gen_range(0..n);
        let col = rng.gen_range(0..n);
        let q = RangeQuery::new(row.min(n - r), col.min(n - c), r, c);
        let buckets = q.buckets(n);
        let system = arb_system(n, seed);
        let alloc = arb_alloc(n, seed.wrapping_add(3));
        // FF-basic supports only the pristine uniform problem: give it an
        // Exp1 system and an offline-only health map (pruning offline
        // disks keeps the survivors uniform; degradation would not).
        let basic_system = experiment(ExperimentId::Exp1, n, seed);
        let health = arb_health(n, &mut rng, false);
        let basic_health = arb_health(n, &mut rng, true);

        for kind in SolverKind::ALL {
            let (system, health) = if kind == SolverKind::FordFulkersonBasic {
                (&basic_system, &basic_health)
            } else {
                (&system, &health)
            };
            let solver = SolverSpec::new(kind);
            let mut compact = RetrievalSession::from_spec(
                system,
                &alloc,
                &solver.arena_layout(ArenaLayout::Compact),
            );
            let mut wide = RetrievalSession::from_spec(
                system,
                &alloc,
                &solver.arena_layout(ArenaLayout::Wide),
            );
            let a = compact.submit_with_health(Micros::ZERO, &buckets, health);
            let b = wide.submit_with_health(Micros::ZERO, &buckets, health);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.outcome.schedule,
                        b.outcome.schedule,
                        "{}: schedules diverge between arena widths",
                        kind.name()
                    );
                    assert_eq!(a.outcome.response_time, b.outcome.response_time);
                    assert_eq!(a.outcome.flow_value, b.outcome.flow_value);
                    assert_eq!(a.completion, b.completion);
                    assert_stats_match(kind, &a.outcome.stats, &b.outcome.stats);
                    compared += 1;
                }
                (a, b) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{}: widths disagree on failure",
                    kind.name()
                ),
            }
        }
    }
    // The one-offline-disk budget keeps the vast majority of cases
    // feasible; make sure the property actually ran on solved outcomes.
    assert!(compared >= 1000, "only {compared} feasible comparisons");
}

/// Warm-start/delta session streams are width-invariant: overlapping
/// sliding-window queries (with a health change mid-stream) produce the
/// same schedules, completions, statistics, and reuse decisions on both
/// arena widths.
#[test]
fn warm_sessions_agree_across_widths() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let windows = [
        RangeQuery::new(0, 0, 4, 3),
        RangeQuery::new(1, 0, 4, 3),
        RangeQuery::new(2, 1, 4, 3),
        RangeQuery::new(3, 1, 4, 3),
        RangeQuery::new(3, 2, 4, 3),
    ];
    let degraded = {
        let mut h = HealthMap::all_healthy();
        h.set(2, DiskHealth::Degraded { load_factor: 150 });
        h
    };
    for kind in [
        SolverKind::PushRelabelIncremental,
        SolverKind::PushRelabelBinary,
        SolverKind::FordFulkersonIncremental,
    ] {
        let solver = SolverSpec::new(kind).reuse(ReusePolicy {
            warm_start: true,
            cache_capacity: 0,
        });
        let mut compact = RetrievalSession::from_spec(
            &system,
            &alloc,
            &solver.arena_layout(ArenaLayout::Compact),
        );
        let mut wide =
            RetrievalSession::from_spec(&system, &alloc, &solver.arena_layout(ArenaLayout::Wide));
        for (i, q) in windows.iter().enumerate() {
            // A health change mid-stream forces the rebuild path once,
            // exercising both the delta and the rebuild transitions.
            let health = if i == 3 {
                degraded.clone()
            } else {
                HealthMap::all_healthy()
            };
            let arrival = Micros::from_millis(10 * i as u64);
            let a = compact
                .submit_with_health(arrival, &q.buckets(7), &health)
                .unwrap();
            let b = wide
                .submit_with_health(arrival, &q.buckets(7), &health)
                .unwrap();
            assert_eq!(
                a.outcome.schedule,
                b.outcome.schedule,
                "{} window {i}",
                kind.name()
            );
            assert_eq!(a.completion, b.completion, "{} window {i}", kind.name());
            assert_stats_match(kind, &a.outcome.stats, &b.outcome.stats);
        }
        assert_eq!(
            compact.reuse_counters(),
            wide.reuse_counters(),
            "{}: reuse decisions diverge between arena widths",
            kind.name()
        );
    }
}

/// The serving loop's span timelines — phase kinds and their
/// deterministic attributes, folded into [`QuerySpan::phase_digest`] —
/// are identical on both arena widths under the virtual clock.
#[test]
fn serve_span_digests_agree_across_widths() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let queries: Vec<BatchQuery> = (0..24)
        .map(|k| BatchQuery {
            stream: k % 6,
            arrival: Micros::from_millis((k / 6) as u64 * 3),
            buckets: RangeQuery::new(k % 5, (k + 1) % 5, 1 + k % 2, 2).buckets(7),
        })
        .collect();
    let kind = SolverKind::PushRelabelBinary;
    let mut digests: Option<std::collections::BTreeMap<u64, u64>> = None;
    for layout in [ArenaLayout::Compact, ArenaLayout::Wide] {
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(SolverSpec::new(kind).arena_layout(layout))
            .shards(2)
            .build();
        engine.serve(ServeConfig::default().virtual_time(), |h| {
            for q in &queries {
                h.submit(QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival))
                    .unwrap();
            }
        });
        let pm = engine.postmortem();
        assert_eq!(pm.spans.len(), 24, "{}: {layout:?}", kind.name());
        let got: std::collections::BTreeMap<u64, u64> = pm
            .spans
            .iter()
            .map(|s| (s.id.0, s.phase_digest()))
            .collect();
        match &digests {
            None => digests = Some(got),
            Some(want) => assert_eq!(
                &got,
                want,
                "{}: span digests diverge between arena widths",
                kind.name()
            ),
        }
    }
}

/// Two disks: a glacial one that drives the solve's upper response-time
/// bound `t_max` sky-high, and a fast one (X25-E-like 200µs — keeping
/// `min_speed` at the paper's scale so the binary search always makes
/// progress) that converts that budget into more than `i32::MAX / 2`
/// retrievable blocks as the stream's loads grow.
fn morph_system() -> SystemConfig {
    use replicated_retrieval::storage::specs::{DiskKind, DiskSpec};
    const SLOW: DiskSpec = DiskSpec {
        producer: "test",
        model: "glacial",
        kind: DiskKind::Hdd,
        rpm: Some(1),
        access_time: Micros::from_micros(100_000_000_000),
    };
    const FAST: DiskSpec = DiskSpec {
        producer: "test",
        model: "instant",
        kind: DiskKind::Ssd,
        rpm: None,
        access_time: Micros::from_micros(200),
    };
    SystemConfig::builder()
        .site("a")
        .disk(SLOW)
        .disk(FAST)
        .build()
}

/// Bucket (0,0) lives only on the glacial disk 0 (so serving it charges
/// that disk with ~4·10⁸ µs of load); every other bucket is replicated
/// on both disks.
struct MorphAlloc;

impl ReplicaSource for MorphAlloc {
    fn grid_size(&self) -> usize {
        2
    }
    fn num_disks(&self) -> usize {
        2
    }
    fn replicas(&self, b: Bucket) -> Replicas {
        if b.row == 0 && b.col == 0 {
            Replicas::from_slice(&[0])
        } else {
            Replicas::from_slice(&[0, 1])
        }
    }
}

/// Regression: a stream that grows past the `i32` capacity bound
/// mid-session. Query 1 fits the compact arena but charges the glacial
/// disk with enough load that query 2's capacity bound overflows `i32`.
/// Under a forced `Compact` layout the submit fails with the typed
/// [`SolveError::ArenaOverflow`] — no panic, no wrapped capacities — and
/// the session stays fully usable; under `Auto` the selector
/// transparently widens for exactly that query and re-narrows after.
#[test]
fn stream_morphing_across_the_i32_bound() {
    let system = morph_system();
    let alloc = MorphAlloc;
    let q1 = RangeQuery::new(0, 0, 2, 1).buckets(2); // (0,0) pins disk 0
    let q2 = RangeQuery::new(0, 1, 2, 1).buckets(2); // both dual-homed
    let q3 = RangeQuery::new(1, 1, 1, 1).buckets(2); // small again
    let solver = SolverSpec::new(SolverKind::PushRelabelBinary).reuse(ReusePolicy {
        warm_start: true,
        cache_capacity: 0,
    });

    // Forced compact: the overflowing query fails typed, mid-stream.
    let mut compact =
        RetrievalSession::from_spec(&system, &alloc, &solver.arena_layout(ArenaLayout::Compact));
    let a = compact.submit(Micros::ZERO, &q1).unwrap();
    assert_eq!(a.outcome.stats.arena_layout, ArenaLayout::Compact);
    let err = compact.submit(Micros::from_millis(10), &q2).unwrap_err();
    assert!(
        matches!(
            err,
            SessionError::Solve(SolveError::ArenaOverflow { width: "i32", .. })
        ),
        "expected a typed arena overflow, got {err:?}"
    );
    // The failure is clean: the same session keeps serving queries that
    // fit the forced width.
    let c = compact.submit(Micros::from_millis(20), &q3).unwrap();
    assert_eq!(c.outcome.stats.arena_layout, ArenaLayout::Compact);
    assert_eq!(c.outcome.schedule.len(), 1);

    // Auto: the same stream transparently widens for the oversized query
    // and re-narrows once the next instance fits again.
    let mut auto = RetrievalSession::from_spec(&system, &alloc, &solver);
    let a = auto.submit(Micros::ZERO, &q1).unwrap();
    assert_eq!(a.outcome.stats.arena_layout, ArenaLayout::Compact);
    let b = auto.submit(Micros::from_millis(10), &q2).unwrap();
    assert_eq!(b.outcome.stats.arena_layout, ArenaLayout::Wide);
    assert_eq!(b.outcome.schedule.len(), 2);
    let c = auto.submit(Micros::from_millis(20), &q3).unwrap();
    assert_eq!(c.outcome.stats.arena_layout, ArenaLayout::Compact);
}

/// The automatic width selector sits exactly on the documented boundary:
/// instances whose peak edge capacity fits in the compact guard band get
/// the `i32` arena, anything larger transparently widens — and a forced
/// compact layout on an oversized instance fails with a typed error
/// rather than overflowing.
#[test]
fn auto_width_selection_is_observable_in_stats() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let inst = RetrievalInstance::build(&system, &alloc, &RangeQuery::new(0, 0, 4, 4).buckets(7));
    // Paper-sized capacities are far below the i32 guard band.
    let auto = SolverSpec::new(SolverKind::PushRelabelBinary)
        .solve(&inst)
        .unwrap();
    assert_eq!(auto.stats.arena_layout, ArenaLayout::Compact);
    let wide = SolverSpec::new(SolverKind::PushRelabelBinary)
        .arena_layout(ArenaLayout::Wide)
        .solve(&inst)
        .unwrap();
    assert_eq!(wide.stats.arena_layout, ArenaLayout::Wide);
    assert_eq!(auto.response_time, wide.response_time);
    assert_eq!(auto.schedule, wide.schedule);
}
