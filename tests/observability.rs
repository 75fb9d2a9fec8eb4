//! Observability: trace events must reconcile exactly with the solver's
//! own `SolveStats`, event counts must be invariant to the engine's shard
//! count, and metrics snapshots must carry every value into both export
//! formats.

use replicated_retrieval::core::blackbox::{BlackBoxFordFulkerson, BlackBoxPushRelabel};
use replicated_retrieval::core::ff::{FordFulkersonBasic, FordFulkersonIncremental};
use replicated_retrieval::core::pr::{PushRelabelBinary, PushRelabelIncremental};
use replicated_retrieval::prelude::*;
use replicated_retrieval::storage::specs;

fn traced_solve(
    solver: &(dyn RetrievalSolver + Sync),
    inst: &RetrievalInstance,
) -> (RetrievalOutcome, Workspace) {
    let mut ws = Workspace::new();
    ws.install_recorder(1 << 14);
    let outcome = solver.solve_in(inst, &mut ws).unwrap();
    (outcome, ws)
}

fn table_ii_instance(r: usize, c: usize) -> RetrievalInstance {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let q = RangeQuery::new(1, 0, r, c);
    RetrievalInstance::build(&system, &alloc, &q.buckets(7))
}

/// Every solver: one `SolveStart` per solve, `ProbeStart` == `ProbeEnd`
/// == `stats.probes`, `CapacityIncrement` == `stats.increments`.
#[test]
fn events_reconcile_with_solve_stats_for_every_solver() {
    let solvers: Vec<Box<dyn RetrievalSolver + Sync>> = vec![
        Box::new(PushRelabelBinary),
        Box::new(PushRelabelIncremental),
        Box::new(FordFulkersonIncremental),
        Box::new(BlackBoxPushRelabel),
        Box::new(BlackBoxFordFulkerson),
    ];
    let inst = table_ii_instance(5, 4);
    for solver in &solvers {
        let (outcome, ws) = traced_solve(solver.as_ref(), &inst);
        let rec = ws.recorder().expect("recorder installed");
        let count = |kind: EventKind| ws.trace_counts()[kind as usize];
        assert_eq!(rec.dropped(), 0, "{}: ring too small", solver.name());
        assert_eq!(count(EventKind::SolveStart), 1, "{}", solver.name());
        assert_eq!(
            count(EventKind::ProbeStart),
            outcome.stats.probes,
            "{}: ProbeStart vs probes",
            solver.name()
        );
        assert_eq!(
            count(EventKind::ProbeEnd),
            count(EventKind::ProbeStart),
            "{}: unbalanced probe spans",
            solver.name()
        );
        assert_eq!(
            count(EventKind::CapacityIncrement),
            outcome.stats.increments,
            "{}: CapacityIncrement vs increments",
            solver.name()
        );
    }
}

/// Push-relabel solvers: one `RelabelPass` per engine run, and the event
/// payloads sum to exactly the pushes/relabels reported in `SolveStats`.
#[test]
fn relabel_pass_events_sum_to_stats_pushes_and_relabels() {
    let inst = table_ii_instance(7, 7);
    for solver in [
        &PushRelabelBinary as &(dyn RetrievalSolver + Sync),
        &PushRelabelIncremental,
    ] {
        let (outcome, ws) = traced_solve(solver, &inst);
        let rec = ws.recorder().unwrap();
        assert_eq!(
            ws.trace_counts()[EventKind::RelabelPass as usize],
            outcome.stats.resume_calls,
            "{}: one RelabelPass per resume",
            solver.name()
        );
        let (mut pushes, mut relabels) = (0u64, 0u64);
        for e in rec.events() {
            if let TraceEvent::RelabelPass {
                pushes: p,
                relabels: r,
            } = e
            {
                pushes += p;
                relabels += r;
            }
        }
        assert_eq!(pushes, outcome.stats.pushes, "{}", solver.name());
        assert_eq!(relabels, outcome.stats.relabels, "{}", solver.name());
        assert!(pushes > 0, "{}: no push work recorded", solver.name());
    }

    // The black-box PR baseline attributes work per from-scratch max-flow
    // call instead.
    let (outcome, ws) = traced_solve(&BlackBoxPushRelabel, &inst);
    assert_eq!(
        ws.trace_counts()[EventKind::RelabelPass as usize],
        outcome.stats.maxflow_calls
    );
    assert!(outcome.stats.pushes > 0);
}

/// Ford-Fulkerson solvers: exactly one `Augment` per requested bucket —
/// each bucket's unit of flow is routed by one successful DFS.
#[test]
fn ff_emits_one_augment_per_bucket() {
    let inst = table_ii_instance(4, 6);
    for solver in [
        &FordFulkersonIncremental as &(dyn RetrievalSolver + Sync),
        &BlackBoxFordFulkerson,
    ] {
        let (outcome, ws) = traced_solve(solver, &inst);
        let augments = ws.trace_counts()[EventKind::Augment as usize];
        match solver.name() {
            "FF-incremental" => {
                assert_eq!(augments, inst.query_size() as u64);
                assert!(outcome.stats.dfs_calls >= augments);
            }
            // The black box re-runs a self-contained max-flow that does
            // not emit per-bucket events.
            _ => assert_eq!(augments, 0),
        }
    }

    let system = SystemConfig::homogeneous(specs::CHEETAH, 7);
    let alloc = OrthogonalAllocation::new(7, Placement::SingleSite);
    let q = RangeQuery::new(0, 0, 3, 2);
    let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
    let (_, ws) = traced_solve(&FordFulkersonBasic, &inst);
    assert_eq!(
        ws.trace_counts()[EventKind::Augment as usize],
        inst.query_size() as u64
    );
}

/// The ring recorder receives the whole event stream, in order, with
/// `SolveStart` first.
#[test]
fn recorder_receives_the_event_stream() {
    let mut ws = Workspace::new();
    ws.install_recorder(1 << 12);
    let inst = table_ii_instance(3, 2);
    let outcome = PushRelabelBinary.solve_in(&inst, &mut ws).unwrap();
    let recorder = ws.recorder().unwrap();
    assert_eq!(recorder.dropped(), 0, "the ring holds the whole solve");
    let events = recorder.events();
    assert!(matches!(
        events[0],
        TraceEvent::SolveStart { query_size: 6, .. }
    ));
    let probe_starts = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ProbeStart { .. }))
        .count() as u64;
    assert_eq!(probe_starts, outcome.stats.probes);
    // Disabling removes the ring.
    ws.disable_tracing();
    let _ = PushRelabelBinary.solve_in(&inst, &mut ws).unwrap();
    assert!(ws.recorder().is_none());
}

fn chaos_batch() -> (SystemConfig, OrthogonalAllocation, Vec<BatchQuery>) {
    let system = SystemConfig::homogeneous(specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    let mut queries = Vec::new();
    for k in 0..6usize {
        for s in 0..7usize {
            let q = RangeQuery::new(s % 5, k % 5, 1 + (s + k) % 3, 1 + s % 3);
            queries.push(BatchQuery {
                stream: s,
                arrival: Micros::from_millis((k * 2) as u64),
                buckets: q.buckets(5),
            });
        }
    }
    (system, alloc, queries)
}

/// Trace-event totals are a pure function of the batch, not of how the
/// engine shards it — `ShardBatch` (one per shard per batch) is the only
/// kind allowed to differ, and it differs exactly by the shard count.
#[test]
fn event_counts_are_identical_across_shard_counts() {
    let (system, alloc, queries) = chaos_batch();
    let injector = FaultInjector::random_outages(
        42,
        5,
        0.4,
        Micros::from_millis(3),
        Some(Micros::from_millis(4)),
    );
    let run = |shards: usize| {
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(SolverSpec::new(SolverKind::PushRelabelBinary))
            .shards(shards)
            .build()
            .with_fault_injector(injector.clone())
            .with_retry_policy(RetryPolicy {
                max_retries: 3,
                backoff: Micros::from_millis(1),
            })
            .with_degraded_mode(true);
        let _ = engine.submit_batch(&queries);
        engine.trace_counts()
    };
    let baseline = run(1);
    assert_eq!(baseline[EventKind::SolveStart as usize], {
        let s = baseline[EventKind::SolveStart as usize];
        assert!(
            s >= queries.len() as u64,
            "every query solves at least once"
        );
        s
    });
    assert_eq!(baseline[EventKind::ShardBatch as usize], 1);
    for shards in [2usize, 3, 5] {
        let got = run(shards);
        for kind in EventKind::ALL {
            if kind == EventKind::ShardBatch {
                assert_eq!(got[kind as usize], shards as u64, "{shards} shards");
            } else {
                assert_eq!(
                    got[kind as usize], baseline[kind as usize],
                    "{:?} with {shards} shards",
                    kind
                );
            }
        }
    }
}

/// Retry and degraded events reconcile with the engine's counters, and a
/// health flip is observed exactly once per affected stream.
#[test]
fn engine_fault_events_reconcile_with_stats() {
    let (system, alloc, queries) = chaos_batch();
    let injector = FaultInjector::random_outages(
        7,
        5,
        0.4,
        Micros::from_millis(3),
        Some(Micros::from_millis(4)),
    );
    let mut engine = Engine::builder(&system, &alloc)
        .solver_spec(SolverSpec::new(SolverKind::PushRelabelBinary))
        .shards(2)
        .build()
        .with_fault_injector(injector)
        .with_retry_policy(RetryPolicy {
            max_retries: 3,
            backoff: Micros::from_millis(1),
        })
        .with_degraded_mode(true);
    let _ = engine.submit_batch(&queries);
    let counts = engine.trace_counts();
    assert_eq!(
        counts[EventKind::RetryScheduled as usize],
        engine.stats().retries
    );
    assert_eq!(
        counts[EventKind::DegradedServe as usize],
        engine.stats().degraded_solves
    );
    // The outage and the recovery are both health transitions; every
    // stream that submits across them sees each at most once.
    assert!(counts[EventKind::HealthTransition as usize] > 0);
    assert!(counts[EventKind::HealthTransition as usize] <= 2 * 7);
}

/// `metrics_snapshot()` exposes p50/p95/p99, and both export formats
/// carry every value of its registry.
#[test]
fn metrics_snapshot_quantiles_and_exports() {
    let (system, alloc, queries) = chaos_batch();
    let mut engine = Engine::builder(&system, &alloc)
        .solver_spec(SolverSpec::new(SolverKind::PushRelabelBinary))
        .shards(2)
        .build();
    let results = engine.submit_batch(&queries);
    assert!(results.iter().all(Result::is_ok));

    let snap = engine.metrics_snapshot();
    assert_eq!(snap.stats.queries, queries.len() as u64);
    assert_eq!(snap.shards, 2);
    assert_eq!(snap.solve_latency_us.count, queries.len() as u64);
    assert!(snap.solve_latency_us.p50 > 0);
    assert!(snap.solve_latency_us.p95 >= snap.solve_latency_us.p50);
    assert!(snap.solve_latency_us.p99 >= snap.solve_latency_us.p95);
    assert!(snap.probes_per_solve.p50 > 0);
    assert!(snap.turnaround_us.p99 >= snap.turnaround_us.p50);
    // Quantile summaries derive from the histograms in the same snapshot.
    assert_eq!(
        snap.solve_latency_us,
        snap.histograms.solve_latency_us.summary()
    );

    let reg = snap.to_registry();
    assert_eq!(reg.counter("rds_queries_total"), Some(42));
    assert_eq!(reg.gauge("rds_shards"), Some(2));
    assert_eq!(
        reg.histogram("rds_solve_latency_us").unwrap().count(),
        queries.len() as u64
    );
    assert_eq!(
        reg.counter("rds_trace_solve_start_total"),
        Some(snap.trace_counts[EventKind::SolveStart as usize])
    );

    // Timings rule out pinned text: check instead that every counter,
    // gauge and histogram count and sum appears with its value in both
    // exports.
    assert_exported(&reg, &snap.to_prometheus(), &snap.to_json());
}

/// Asserts that every counter, every gauge and every histogram's count
/// and sum in `reg` appears with its value in `prom` and `json`.
fn assert_exported(reg: &MetricsRegistry, prom: &str, json: &str) {
    let lines: Vec<&str> = prom.lines().collect();
    let has_line =
        |line: String| assert!(lines.contains(&line.as_str()), "Prometheus lacks {line}");
    let has_json = |key: &str, value: String| {
        let entry = format!(
            "\"{}\":{value}",
            key.replace('\\', "\\\\").replace('"', "\\\"")
        );
        assert!(
            [',', '}']
                .iter()
                .any(|end| json.contains(&format!("{entry}{end}"))),
            "JSON lacks {entry}"
        );
    };
    for (key, v) in reg.counters() {
        has_line(format!("{key} {v}"));
        has_json(key, v.to_string());
    }
    for (key, v) in reg.gauges() {
        has_line(format!("{key} {v}"));
        has_json(key, v.to_string());
    }
    for (name, h) in reg.histograms() {
        has_line(format!("{name}_count {}", h.count()));
        has_line(format!("{name}_sum {}", h.sum()));
        has_json(
            name,
            format!("{{\"count\":{},\"sum\":{}", h.count(), h.sum()),
        );
    }
}

/// Regression: quantile estimates are clamped to the observed sample
/// range, so a lone sample reports itself — not its bucket's upper
/// bound — at every quantile, including through the engine's latency
/// summaries.
#[test]
fn quantiles_clamp_to_observed_samples() {
    let mut h = Histogram::new();
    h.record(100); // bucket [64,128): the bound 127 must not leak out
    let s = h.summary();
    assert_eq!((s.p50, s.p95, s.p99), (100, 100, 100));
    assert_eq!(s.mean, 100);

    // Engine path: a single-query batch leaves one sample in the solve
    // latency histogram, so all its quantiles coincide with that sample.
    let system = SystemConfig::homogeneous(specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
    let results = engine.submit_batch(&[BatchQuery {
        stream: 0,
        arrival: Micros::ZERO,
        buckets: RangeQuery::new(0, 0, 2, 2).buckets(5),
    }]);
    assert!(results[0].is_ok());
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.solve_latency_us.count, 1);
    assert_eq!(snap.solve_latency_us.p50, snap.solve_latency_us.p99);
    assert_eq!(
        snap.histograms.solve_latency_us.min_sample(),
        Some(snap.solve_latency_us.p50)
    );
}

fn reuse_batch() -> (SystemConfig, OrthogonalAllocation, Vec<BatchQuery>) {
    let system = SystemConfig::homogeneous(specs::CHEETAH, 5);
    let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
    let mut queries = Vec::new();
    for (k, &col) in [0usize, 1, 0, 2, 1, 0].iter().enumerate() {
        for s in 0..4usize {
            // Per stream: a fixed-size window sliding over a repeating
            // column cycle, with arrivals spaced far enough apart that
            // loads drain — revisited positions hit the schedule cache,
            // new positions delta-patch the previous flow.
            queries.push(BatchQuery {
                stream: s,
                arrival: Micros::from_millis(k as u64 * 60_000),
                buckets: RangeQuery::new(s % 4, col, 2, 2).buckets(5),
            });
        }
    }
    (system, alloc, queries)
}

/// A warm engine (delta solving + schedule cache) returns the same
/// outcomes as a cold one, and its results, reuse counters and
/// `CacheHit`/`DeltaPatch` event counts are invariant to the shard count.
#[test]
fn warm_engine_reuse_is_shard_invariant() {
    let (system, alloc, queries) = reuse_batch();
    let run = |shards: usize| {
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary).reuse(ReusePolicy {
                    warm_start: true,
                    cache_capacity: 4,
                }),
            )
            .shards(shards)
            .build();
        let outcomes: Vec<(Micros, Micros)> = engine
            .submit_batch(&queries)
            .into_iter()
            .map(|r| {
                let o = r.unwrap();
                (o.outcome.response_time, o.completion)
            })
            .collect();
        (outcomes, engine.trace_counts(), engine.stats().reuse)
    };
    let (outcomes, counts, reuse) = run(1);
    // Column cycle 0,1,0,2,1,0 per stream: three first-visits (miss),
    // three revisits (hit), and the two first-visits after a solve are
    // delta patches — times four streams.
    assert_eq!(reuse.cache_hits, 12);
    assert_eq!(reuse.cache_misses, 12);
    assert_eq!(reuse.delta_patches, 8);
    assert_eq!(reuse.delta_fallbacks, 0);
    assert_eq!(counts[EventKind::CacheHit as usize], reuse.cache_hits);
    assert_eq!(counts[EventKind::DeltaPatch as usize], reuse.delta_patches);
    for shards in [2usize, 3, 4] {
        let (o, c, r) = run(shards);
        assert_eq!(o, outcomes, "{shards} shards");
        assert_eq!(r, reuse, "{shards} shards");
        for kind in [
            EventKind::CacheHit,
            EventKind::DeltaPatch,
            EventKind::SolveStart,
        ] {
            assert_eq!(
                c[kind as usize], counts[kind as usize],
                "{kind:?}, {shards} shards"
            );
        }
    }
    // A cold engine over the same batch agrees on every outcome and
    // reports zero reuse.
    let mut cold = Engine::new(&system, &alloc, PushRelabelBinary, 2);
    let cold_outcomes: Vec<(Micros, Micros)> = cold
        .submit_batch(&queries)
        .into_iter()
        .map(|r| {
            let o = r.unwrap();
            (o.outcome.response_time, o.completion)
        })
        .collect();
    assert_eq!(cold_outcomes, outcomes);
    assert_eq!(cold.stats().reuse, ReuseCounters::default());
}

/// An engine without any ring recorder still measures histograms.
#[test]
fn untraced_engine_has_histograms_but_no_events() {
    let (system, alloc, queries) = chaos_batch();
    let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2);
    let _ = engine.submit_batch(&queries);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.solve_latency_us.count, queries.len() as u64);
    assert!(snap.probes_per_solve.p99 > 0);
}

/// One event path: under the virtual-clock serving loop every span-visible
/// event a tracer emits lands on exactly one retained span, so the phases
/// of each such kind, summed over the postmortem, equal the engine's trace
/// count for it — for the solver phases and the session's rebuild,
/// delta-patch and delta-fallback decisions alike. PR-binary delta-patches
/// its warm flow; FF-incremental declines every delta and falls back. A
/// mid-run outage drives a retry (bucket recovered at a backoff probe) and
/// a degraded serve (bucket lost for good).
#[test]
fn span_phases_agree_with_trace_counts_kind_by_kind() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    // Two streams of 2x2 windows, one a second apart so loads drain and a
    // revisited window hits the schedule cache; same-size moves delta-patch.
    let cols = [0usize, 1, 0, 2, 1, 0, 3, 3, 2, 4, 0, 1];
    let queries: Vec<BatchQuery> = (0..2usize)
        .flat_map(|s| {
            cols.iter().enumerate().map(move |(k, &col)| BatchQuery {
                stream: s,
                arrival: Micros::from_millis(k as u64 * 1_000),
                buckets: RangeQuery::new(3 * s, col, 2, 2).buckets(7),
            })
        })
        .collect();
    assert!(
        queries.len() <= 32,
        "the default head sample keeps every span"
    );
    // Stream 0's query at 6 s loses bucket (0, 3) until 6.2 s: its second
    // backoff probe sees the recovery and retries. Stream 1's query at 9 s
    // loses bucket (3, 4) for good and is served degraded.
    let mut injector = FaultInjector::new();
    for ((row, col), down, up) in [((0, 3), 5_500, Some(6_200)), ((3, 4), 8_500, None)] {
        for disk in alloc.replicas(Bucket::new(row, col)).iter() {
            injector.schedule(Micros::from_millis(down), disk, DiskHealth::Offline);
            if let Some(up) = up {
                injector.schedule(Micros::from_millis(up), disk, DiskHealth::Healthy);
            }
        }
    }
    let span_kinds = [
        EventKind::SolveStart,
        EventKind::ProbeEnd,
        EventKind::RetryScheduled,
        EventKind::HealthTransition,
        EventKind::DegradedServe,
        EventKind::DeltaPatch,
        EventKind::CacheHit,
        EventKind::RefinePass,
        EventKind::BudgetExpired,
        EventKind::PlaneCheckout,
        EventKind::Rebuild,
        EventKind::DeltaFallback,
    ];
    let mut seen = [0u64; EventKind::COUNT];
    for kind in [
        SolverKind::PushRelabelBinary,
        SolverKind::FordFulkersonIncremental,
    ] {
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(SolverSpec::new(kind).reuse(ReusePolicy::warm()))
            .build()
            .with_fault_injector(injector.clone())
            .with_retry_policy(RetryPolicy {
                max_retries: 2,
                backoff: Micros::from_millis(150),
            })
            .with_degraded_mode(true);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            for q in &queries {
                h.submit(QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival))
                    .unwrap();
            }
        });
        assert_eq!(report.stats.completed, queries.len() as u64);
        let pm = engine.postmortem();
        assert_eq!(pm.spans.len(), queries.len(), "{kind:?}: every span kept");
        assert_eq!(pm.stats.dropped_phases, 0, "{kind:?}: no phase dropped");
        let counts = engine.trace_counts();
        let phases = |k: EventKind| {
            pm.spans
                .iter()
                .flat_map(|s| s.phases())
                .filter(|p| p.kind == k)
                .count() as u64
        };
        for k in span_kinds {
            assert_eq!(phases(k), counts[k as usize], "{kind:?}: {k:?}");
        }
        // Lifecycle marks are written onto spans, never emitted.
        assert_eq!(phases(EventKind::Admitted), queries.len() as u64);
        for k in [
            EventKind::Admitted,
            EventKind::Coalesced,
            EventKind::Reply,
            EventKind::Failed,
            EventKind::Rejected,
        ] {
            assert_eq!(counts[k as usize], 0, "{kind:?}: {k:?}");
        }
        assert_eq!(
            counts[EventKind::RetryScheduled as usize],
            engine.stats().retries
        );
        for (s, c) in seen.iter_mut().zip(counts) {
            *s += c;
        }
    }
    for k in [
        EventKind::Rebuild,
        EventKind::DeltaPatch,
        EventKind::DeltaFallback,
        EventKind::CacheHit,
        EventKind::RetryScheduled,
        EventKind::DegradedServe,
    ] {
        assert!(seen[k as usize] > 0, "the runs never produced {k:?}");
    }
}
