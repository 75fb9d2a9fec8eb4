//! Repeated-query throughput: reusable workspaces + in-place instance
//! rebuilds (the `Engine` path) versus the naive clone-per-solve loop that
//! rebuilds the loaded system, the retrieval network and every solver
//! buffer from scratch for each query.
//!
//! Both sides run the *same* queries through the *same* solver and produce
//! identical outcomes; only the allocation strategy differs, so the ratio
//! isolates what the workspace/engine machinery buys. The arms alternate
//! round by round (ABBA); every round re-verifies that both sides produce
//! bit-identical response times.
//!
//! ```text
//! cargo run --release -p rds-bench --bin engine_speedup -- [--queries 1000] [--streams 4] [--repeat 10]
//! ```

use rds_bench::harness::ClonePerSolve;
use rds_bench::rig::{self, Record};
use rds_core::engine::{BatchQuery, Engine};
use rds_core::pr::PushRelabelBinary;
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Query, RangeQuery};
use rds_storage::experiments::paper_example;
use rds_storage::time::Micros;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `total` queries dealt round-robin over `streams`, one step (1 ms)
/// apart per stream. A small rotating set of hot query shapes per
/// stream: repeats are common (hot queries re-issued as their results
/// expire), occasionally the shape changes.
fn build_queries(streams: usize, total: usize) -> Vec<BatchQuery> {
    (0..total)
        .map(|k| {
            let (s, step) = (k % streams, k / streams);
            let shape = (step / 8) % 4;
            let (r, c) = [(3, 2), (3, 2), (2, 4), (1, 3)][shape];
            BatchQuery {
                stream: s,
                arrival: Micros::from_millis(step as u64),
                buckets: RangeQuery::new(s % 7, shape % 7, r, c).buckets(7),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let (mut total, mut streams, mut repeat) = (1000usize, 4usize, 10usize);
    rig::parse(
        "engine_speedup",
        &mut [
            ("--queries", &mut total),
            ("--streams", &mut streams),
            ("--repeat", &mut repeat),
        ],
    );
    let streams = streams.max(1);

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let queries = build_queries(streams, total);

    // One timed pass and its response times. Arm 0: one clone-per-solve
    // stream per engine stream. Arm 1: a fresh single-shard engine (cached
    // instance patched or rebuilt in place, one persistent workspace).
    // Neither side's teardown is timed.
    let run = |arm: usize| -> (Duration, Vec<Micros>) {
        let started = Instant::now();
        if arm == 0 {
            let mut sessions: Vec<ClonePerSolve> = (0..streams)
                .map(|_| ClonePerSolve::new(&system, &alloc))
                .collect();
            let times = queries
                .iter()
                .map(|q| sessions[q.stream].submit(q.arrival, &q.buckets))
                .collect();
            (started.elapsed(), times)
        } else {
            let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
            let results = engine.submit_batch(&queries);
            let elapsed = started.elapsed();
            let times = results
                .into_iter()
                .map(|r| r.expect("feasible").outcome.response_time)
                .collect();
            (elapsed, times)
        }
    };

    // Warm both sides once (first-touch allocations, branch history)
    // before any timed round, and pin the golden response times.
    let golden = run(0).1;
    assert_eq!(golden, run(1).1, "engine and clone-per-solve disagree");
    let rounds = rig::alternate(repeat, 2, |arm| {
        let (elapsed, times) = run(arm);
        assert_eq!(times, golden, "round outcomes drifted");
        elapsed
    });

    Record::new("engine_speedup", repeat)
        .note(
            "clone_per_solve: fresh loaded system, network and workspace a query; engine: 1 shard",
        )
        .int("queries", total as u64)
        .int("streams", streams as u64)
        .stat("clone_per_solve_ms", rounds.ms(0), 3)
        .stat("engine_ms", rounds.ms(1), 3)
        .stat("speedup", rounds.ratio(0, 1), 3)
        .stat("queries_per_sec", rounds.per_sec(1, total), 1)
        .write()
}
