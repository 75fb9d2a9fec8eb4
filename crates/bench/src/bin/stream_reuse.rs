//! Cross-query flow reuse: a warm engine (delta-patching + schedule
//! cache) versus a cold engine that rebuilds the retrieval network for
//! every query, on an 80%-overlap sliding range-query stream over the
//! paper's Table II system.
//!
//! Each stream snakes a fixed 2x5 window over the 7x7 grid: column moves
//! keep 8 of 10 buckets (80% overlap, the delta-patch case) and the
//! window periodically revisits earlier positions after the disks have
//! drained (the schedule-cache case). Both engines run the identical
//! batch; the cold engine rebuilds its shard's one network per query, so
//! the ratio isolates what cross-query reuse buys. The two engines
//! alternate round by round (ABBA) and `speedup` is the per-round paired
//! ratio's median.
//!
//! ```text
//! cargo run --release -p rds-bench --bin stream_reuse -- [--queries 2000] [--streams 4] [--repeat 10]
//! ```
//!
//! Writes `results/stream_reuse.txt` and `BENCH_stream_reuse.json`
//! (ops/s, cache hit rate, p95 solve latency).

use rds_bench::harness::with_backlog;
use rds_bench::rig::{self, Record, Stat};
use rds_core::engine::{BatchQuery, Engine, MetricsSnapshot};
use rds_core::network::RetrievalInstance;
use rds_core::pr::PushRelabelBinary;
use rds_core::session::{RetrievalSession, ReusePolicy};
use rds_core::spec::{SolverKind, SolverSpec};
use rds_core::verify::oracle_optimal_response;
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Bucket, Query, RangeQuery};
use rds_storage::experiments::paper_example;
use rds_storage::model::SystemConfig;
use rds_storage::time::Micros;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Arrival spacing per stream: long enough for Table II disks to drain,
/// so revisited window positions present identical loads and can hit the
/// schedule cache.
const GAP: Micros = Micros::from_millis(100);

/// Snake a 2x5 window over the 7x7 grid: three columns per row band,
/// 80% bucket overlap on every column move.
fn window_at(step: usize) -> RangeQuery {
    let cols = [0usize, 1, 2, 1]; // forth and back: each move slides by 1
    let row = (step / cols.len()) % 6;
    RangeQuery::new(row, cols[step % cols.len()], 2, 5)
}

/// `total` queries dealt round-robin over `streams`, one `GAP` apart per
/// stream; stream `s` runs the snake `s` steps ahead.
fn build_queries(streams: usize, total: usize) -> Vec<BatchQuery> {
    (0..total)
        .map(|k| {
            let (s, step) = (k % streams, k / streams);
            BatchQuery {
                stream: s,
                arrival: Micros(GAP.0 * step as u64),
                buckets: window_at(step + s).buckets(7),
            }
        })
        .collect()
}

/// Per-step optimality check of the warm path against the independent
/// oracle, on the loaded system the session presented the solver with —
/// the same delta/cache machinery the engine runs per shard.
fn verify_warm_stream(system: &SystemConfig, alloc: &OrthogonalAllocation, steps: usize) {
    let mut session =
        RetrievalSession::with_reuse(system, alloc, PushRelabelBinary, ReusePolicy::warm());
    for step in 0..steps {
        let arrival = Micros(GAP.0 * step as u64);
        let buckets: Vec<Bucket> = window_at(step).buckets(7);
        let loaded_system = with_backlog(system, |j| {
            (session.current_load(j) + session.now()).saturating_sub(arrival)
        });
        let want =
            oracle_optimal_response(&RetrievalInstance::build(&loaded_system, alloc, &buckets));
        let got = session
            .submit(arrival, &buckets)
            .expect("feasible")
            .outcome
            .response_time;
        assert_eq!(got, want, "warm path lost optimality at step {step}");
    }
    let counters = session.reuse_counters();
    assert!(
        counters.delta_patches > 0,
        "stream never exercised the delta path"
    );
}

/// One timed pass of a fresh engine over the batch, reuse on or off.
fn run_engine(
    system: &SystemConfig,
    alloc: &OrthogonalAllocation,
    queries: &[BatchQuery],
    warm: bool,
) -> (Duration, MetricsSnapshot) {
    let started = Instant::now();
    let mut spec = SolverSpec::new(SolverKind::PushRelabelBinary);
    if warm {
        spec = spec.reuse(ReusePolicy {
            warm_start: true,
            cache_capacity: 32,
        });
    }
    let mut engine = Engine::builder(system, alloc).solver_spec(spec).build();
    let results = engine.submit_batch(queries);
    let elapsed = started.elapsed();
    assert!(results.iter().all(Result::is_ok), "infeasible query");
    (elapsed, engine.metrics_snapshot())
}

fn main() -> ExitCode {
    let (mut total, mut streams, mut repeat) = (2000usize, 4usize, 10usize);
    rig::parse(
        "stream_reuse",
        &mut [
            ("--queries", &mut total),
            ("--streams", &mut streams),
            ("--repeat", &mut repeat),
        ],
    );
    let (total, streams) = (total.max(1), streams.max(1));

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let queries = build_queries(streams, total);

    // Correctness first: the warm path must stay optimal per step.
    verify_warm_stream(&system, &alloc, (total / streams).clamp(4, 48));

    // Arm 0 rebuilds per query, arm 1 runs warm. Reuse counters repeat
    // exactly from round to round; p95 solve latency is kept per round.
    let mut p95 = [Vec::new(), Vec::new()];
    let mut reuse = None;
    let rounds = rig::alternate(repeat, 2, |arm| {
        let (elapsed, snap) = run_engine(&system, &alloc, &queries, arm == 1);
        p95[arm].push(snap.solve_latency_us.p95 as f64);
        if arm == 1 {
            let got = snap.stats.reuse;
            assert_eq!(*reuse.get_or_insert(got), got, "reuse counters drifted");
        }
        elapsed
    });
    let reuse = reuse.expect("the warm arm ran");
    let (hits, misses) = (reuse.cache_hits, reuse.cache_misses);

    Record::new("stream_reuse", repeat)
        .note("2x5 windows snaking the grid, 80% overlap a move; warm: warm start + 32-entry cache")
        .int("queries", total as u64)
        .int("streams", streams as u64)
        .int("overlap_pct", 80)
        .stat("rebuild_ops_per_sec", rounds.per_sec(0, total), 1)
        .stat("warm_ops_per_sec", rounds.per_sec(1, total), 1)
        .stat("speedup", rounds.ratio(0, 1), 3)
        .num(
            "cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            4,
        )
        .int("cache_hits", hits)
        .int("cache_misses", misses)
        .int("delta_patches", reuse.delta_patches)
        .stat(
            "p95_solve_latency_us_rebuild",
            Stat::of(p95[0].iter().copied()),
            0,
        )
        .stat(
            "p95_solve_latency_us_warm",
            Stat::of(p95[1].iter().copied()),
            0,
        )
        .write()
}
