//! One [`SolverSpec`] configures every entry point alike: a per-stream
//! `RetrievalSession`, `Engine::submit_batch` and the virtual-clock
//! `Engine::serve` return the same per-query result for every
//! combination of objective, budget, arena width and reuse policy.

use replicated_retrieval::prelude::*;

/// What one query produced: response time, completion and schedule, or
/// the typed error.
type Reply = Result<(Micros, Micros, Schedule), EngineError>;

fn reply(result: Result<SessionOutcome, EngineError>) -> Reply {
    result.map(|o| (o.outcome.response_time, o.completion, o.outcome.schedule))
}

/// Two streams of overlapping Table II range queries. Stream 0 slides a
/// 3×2 window one column at a time (the delta-patch path), then repeats
/// its first window after every disk has drained (the schedule-cache
/// path). Stream 1 alternates two 2×3 windows and asks once for a bucket
/// off the 7×7 grid (a typed infeasibility).
fn workload() -> Vec<BatchQuery> {
    let off_grid = vec![Bucket::new(1, 1), Bucket::new(0, 7)];
    let mut queries = Vec::new();
    for (k, ms) in [0u64, 2, 4, 6].into_iter().enumerate() {
        queries.push(BatchQuery {
            stream: 0,
            arrival: Micros::from_millis(ms),
            buckets: RangeQuery::new(1, k, 3, 2).buckets(7),
        });
        let buckets = match k {
            2 => off_grid.clone(),
            _ => RangeQuery::new(k % 2, 2, 2, 3).buckets(7),
        };
        queries.push(BatchQuery {
            stream: 1,
            arrival: Micros::from_millis(ms + 1),
            buckets,
        });
    }
    queries.push(BatchQuery {
        stream: 0,
        arrival: Micros::from_millis(500),
        buckets: RangeQuery::new(1, 0, 3, 2).buckets(7),
    });
    queries
}

/// One spec per objective × budget × arena width × reuse policy.
fn specs() -> Vec<SolverSpec> {
    let mut specs = Vec::new();
    for objective in [
        ScheduleObjective::FirstFeasible,
        ScheduleObjective::MinMaxLoad,
    ] {
        for budget in [
            SolveBudget::unlimited(),
            SolveBudget::default().with_max_probes(1),
        ] {
            for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
                for reuse in [ReusePolicy::default(), ReusePolicy::warm()] {
                    specs.push(
                        SolverSpec::new(SolverKind::PushRelabelBinary)
                            .objective(objective)
                            .budget(budget)
                            .arena_layout(layout)
                            .reuse(reuse),
                    );
                }
            }
        }
    }
    specs
}

#[test]
fn one_spec_gives_the_same_results_on_every_entry_point() {
    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let queries = workload();
    let mut expired = false;
    let mut reused = false;

    for spec in specs() {
        let case = format!("{spec:?}");

        // One session per stream.
        let mut sessions: Vec<_> = (0..2)
            .map(|_| RetrievalSession::from_spec(&system, &alloc, &spec))
            .collect();
        let by_session: Vec<Reply> = queries
            .iter()
            .map(|q| {
                reply(
                    sessions[q.stream]
                        .submit(q.arrival, &q.buckets)
                        .map_err(EngineError::from),
                )
            })
            .collect();
        assert_eq!(
            by_session.iter().filter(|r| r.is_err()).count(),
            1,
            "{case}: only the off-grid query fails"
        );

        // One batch through an engine built from the spec (one shard, so
        // both streams share its workspace).
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(spec)
            .shards(1)
            .build();
        let by_batch: Vec<Reply> = engine
            .submit_batch(&queries)
            .into_iter()
            .map(reply)
            .collect();
        assert_eq!(by_batch, by_session, "{case}: submit_batch");
        let stats = engine.stats();
        expired |= stats.solve_stats.budget_expirations > 0;
        reused |= stats.reuse.delta_patches > 0 && stats.reuse.cache_hits > 0;

        // The virtual-clock serving loop, one stream per shard.
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(spec)
            .shards(2)
            .build();
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            queries
                .iter()
                .map(|q| {
                    h.submit(QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival))
                        .expect("admitted")
                })
                .collect::<Vec<Ticket>>()
        });
        let mut by_ticket: std::collections::HashMap<Ticket, Reply> = report
            .unclaimed
            .into_iter()
            .map(|r| (r.ticket, reply(r.result)))
            .collect();
        let by_serve: Vec<Reply> = report
            .output
            .iter()
            .map(|t| by_ticket.remove(t).expect("every ticket resolves"))
            .collect();
        assert_eq!(by_serve, by_session, "{case}: serve");
    }
    // The matrix reaches the paths it claims to compare.
    assert!(expired, "no spec's budget ever expired");
    assert!(reused, "no warm spec both patched and hit its cache");
}
