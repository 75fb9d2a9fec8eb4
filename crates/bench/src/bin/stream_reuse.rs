//! Cross-query flow reuse: a warm engine (delta-patching + schedule
//! cache) versus a cold engine that rebuilds the retrieval network for
//! every query, on an 80%-overlap sliding range-query stream over the
//! paper's Table II system.
//!
//! Each stream snakes a fixed 2x5 window over the 7x7 grid: column moves
//! keep 8 of 10 buckets (80% overlap, the delta-patch case) and the
//! window periodically revisits earlier positions after the disks have
//! drained (the schedule-cache case). Both engines run the identical
//! batch; the cold engine's instance cache still rebuilds per query, so
//! the ratio isolates what cross-query reuse buys.
//!
//! ```text
//! cargo run --release -p rds-bench --bin stream_reuse -- [--queries 2000] [--streams 4] [--repeat 5]
//! ```
//!
//! Writes `results/stream_reuse.txt` (human-readable) and
//! `BENCH_stream_reuse.json` (machine-readable: ops/s, cache hit rate,
//! p95 solve latency).

use rds_core::engine::{BatchQuery, Engine};
use rds_core::network::RetrievalInstance;
use rds_core::pr::PushRelabelBinary;
use rds_core::session::{RetrievalSession, ReusePolicy};
use rds_core::spec::{SolverKind, SolverSpec};
use rds_core::verify::oracle_optimal_response;
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Bucket, Query, RangeQuery};
use rds_storage::experiments::paper_example;
use rds_storage::model::{Disk, Site, SystemConfig};
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

fn build_queries(streams: usize, total: usize) -> Vec<BatchQuery> {
    let mut queries = Vec::with_capacity(total);
    let mut k = 0usize;
    while queries.len() < total {
        for s in 0..streams {
            if queries.len() == total {
                break;
            }
            let step = k / streams;
            queries.push(BatchQuery {
                stream: s,
                arrival: Micros(GAP.0 * step as u64),
                buckets: window_at(step + s).buckets(7),
            });
            k += 1;
        }
    }
    queries
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
        let loaded: Vec<Disk> = (0..system.num_disks())
            .map(|j| Disk {
                initial_load: system.disk(j).initial_load
                    + (session.current_load(j) + session.now()).saturating_sub(arrival),
                ..*system.disk(j)
            })
            .collect();
        let loaded_system = SystemConfig::new(vec![Site {
            name: "loaded".into(),
            disks: loaded,
        }]);
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

struct Run {
    elapsed: Duration,
    p95_solve_us: u64,
    cache_hits: u64,
    cache_misses: u64,
    delta_patches: u64,
}

fn run_engine(
    system: &SystemConfig,
    alloc: &OrthogonalAllocation,
    queries: &[BatchQuery],
    warm: bool,
) -> Run {
    let started = Instant::now();
    let mut spec = SolverSpec::new(SolverKind::PushRelabelBinary);
    if warm {
        spec = spec.reuse(ReusePolicy {
            warm_start: true,
            cache_capacity: 32,
        });
    }
    let builder = Engine::builder(system, alloc).solver_spec(spec);
    let mut engine = builder.build();
    let results = engine.submit_batch(queries);
    let elapsed = started.elapsed();
    assert!(results.iter().all(Result::is_ok), "infeasible query");
    let snap = engine.metrics_snapshot();
    Run {
        elapsed,
        p95_solve_us: snap.solve_latency_us.p95,
        cache_hits: snap.stats.reuse.cache_hits,
        cache_misses: snap.stats.reuse.cache_misses,
        delta_patches: snap.stats.reuse.delta_patches,
    }
}

fn main() -> ExitCode {
    let mut total = 2000usize;
    let mut streams = 4usize;
    let mut repeat = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().and_then(|v| v.parse::<u64>().ok());
        match (arg.as_str(), value) {
            ("--queries", Some(v)) => total = (v as usize).max(1),
            ("--streams", Some(v)) => streams = (v as usize).max(1),
            ("--repeat", Some(v)) => repeat = (v as usize).max(1),
            _ => {
                eprintln!("usage: stream_reuse [--queries K] [--streams S] [--repeat R]");
                return ExitCode::FAILURE;
            }
        }
    }

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let queries = build_queries(streams, total);

    // Correctness first: the warm path must stay optimal per step.
    verify_warm_stream(&system, &alloc, (total / streams).clamp(4, 48));

    let mut cold = run_engine(&system, &alloc, &queries, false);
    let mut warm = run_engine(&system, &alloc, &queries, true);
    for _ in 1..repeat {
        let c = run_engine(&system, &alloc, &queries, false);
        if c.elapsed < cold.elapsed {
            cold = c;
        }
        let w = run_engine(&system, &alloc, &queries, true);
        if w.elapsed < warm.elapsed {
            warm = w;
        }
    }

    let cold_ops = total as f64 / cold.elapsed.as_secs_f64();
    let warm_ops = total as f64 / warm.elapsed.as_secs_f64();
    let speedup = warm_ops / cold_ops;
    let lookups = warm.cache_hits + warm.cache_misses;
    let hit_rate = if lookups > 0 {
        warm.cache_hits as f64 / lookups as f64
    } else {
        0.0
    };

    let report = format!(
        "# stream_reuse — {total} queries, {streams} streams, paper Table II system (14 disks)\n\
         #\n\
         # 2x5 windows snaking over the 7x7 grid: 80% bucket overlap per column\n\
         # move, positions revisited after disk drain. Identical batch both sides;\n\
         # warm-path optimality verified per step against the oracle.\n\
         #\n\
         # rebuild: Engine, reuse off — instance rebuilt per query.\n\
         # warm:    SolverSpec::new(..).reuse(ReusePolicy {{ warm_start: true, cache_capacity: 32 }})\n\
         #\n\
         # best of {repeat} runs:\n\
         rebuild_ms         {cold_ms:.3}\n\
         warm_ms            {warm_ms:.3}\n\
         speedup            {speedup:.2}x\n\
         rebuild_ops_per_s  {cold_ops:.0}\n\
         warm_ops_per_s     {warm_ops:.0}\n\
         cache_hit_rate     {hit_rate:.3}\n\
         delta_patches      {patches}\n\
         p95_solve_us_rebuild {cold_p95}\n\
         p95_solve_us_warm    {warm_p95}\n",
        cold_ms = cold.elapsed.as_secs_f64() * 1e3,
        warm_ms = warm.elapsed.as_secs_f64() * 1e3,
        patches = warm.delta_patches,
        cold_p95 = cold.p95_solve_us,
        warm_p95 = warm.p95_solve_us,
    );
    print!("{report}");

    let json = format!(
        "{{\n  \"bench\": \"stream_reuse\",\n  \"queries\": {total},\n  \"streams\": {streams},\n  \"repeat\": {repeat},\n  \"overlap_pct\": 80,\n  \"rebuild_ops_per_sec\": {cold_ops:.1},\n  \"warm_ops_per_sec\": {warm_ops:.1},\n  \"speedup\": {speedup:.3},\n  \"cache_hit_rate\": {hit_rate:.4},\n  \"cache_hits\": {hits},\n  \"cache_misses\": {misses},\n  \"delta_patches\": {patches},\n  \"p95_solve_latency_us_rebuild\": {cold_p95},\n  \"p95_solve_latency_us_warm\": {warm_p95}\n}}\n",
        hits = warm.cache_hits,
        misses = warm.cache_misses,
        patches = warm.delta_patches,
        cold_p95 = cold.p95_solve_us,
        warm_p95 = warm.p95_solve_us,
    );

    let write = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/stream_reuse.txt", &report))
        .and_then(|()| std::fs::write("BENCH_stream_reuse.json", &json));
    if let Err(e) = write {
        eprintln!("could not write stream_reuse outputs: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote results/stream_reuse.txt and BENCH_stream_reuse.json");
    ExitCode::SUCCESS
}
