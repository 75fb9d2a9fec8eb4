//! Online serving under load: sustained throughput and tail latency of
//! [`Engine::serve`] at 0.5x and 2x of the engine's measured solve
//! capacity, on the paper's Table II system.
//!
//! The capacity baseline comes from a batch run of the same query mix.
//! Both phases are open loops paced by absolute deadlines. The low-load
//! phase offers half that rate, so *any* shedding there is a regression
//! (the CI gate asserts `shed_rate == 0`). The overload phase offers
//! twice the capacity against a small bounded queue: admission control
//! sheds the excess and the queue bound caps waiting, keeping the tail
//! flat (the CI gate asserts `p99 <= 5 * p50` turnaround).
//!
//! ```text
//! cargo run --release -p rds-bench --bin serve_overload -- [--queries 3000]
//! ```
//!
//! Writes `results/serve_overload.txt` and `BENCH_serve_overload.json`.

use rds_bench::harness::sliding_window;
use rds_bench::rig::{self, Record};
use rds_core::engine::{BatchQuery, Engine};
use rds_core::obs::metrics::Histogram;
use rds_core::pr::PushRelabelBinary;
use rds_core::serve::{PriorityClass, QueryRequest, ServeConfig};
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_storage::experiments::paper_example;
use rds_storage::model::SystemConfig;
use rds_storage::time::Micros;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const STREAMS: usize = 8;
const SHARDS: usize = 2;

fn request_at(k: usize) -> QueryRequest {
    let mut req = QueryRequest::new(k % STREAMS, sliding_window(k, 2));
    if k.is_multiple_of(3) {
        req = req.class(PriorityClass::Batch);
    }
    req
}

/// Solve capacity in queries/sec: the same mix pushed through
/// `submit_batch`, no queueing in the way.
fn measure_capacity(system: &SystemConfig, alloc: &OrthogonalAllocation, queries: usize) -> f64 {
    let mut engine = Engine::new(system, alloc, PushRelabelBinary, SHARDS);
    let batch: Vec<BatchQuery> = (0..queries)
        .map(|k| BatchQuery {
            stream: k % STREAMS,
            arrival: Micros::ZERO,
            buckets: sliding_window(k, 2),
        })
        .collect();
    let started = Instant::now();
    let results = engine.submit_batch(&batch);
    let elapsed = started.elapsed();
    assert!(results.iter().all(Result::is_ok), "infeasible query in mix");
    queries as f64 / elapsed.as_secs_f64()
}

/// One open-loop phase at `target_qps`, paced by absolute deadlines,
/// against a queue of `queue` slots with the batch-class shed watermark
/// at half. Submissions never wait for responses, so sustained overload
/// exercises QueueFull and batch-class shedding while the queue bound
/// caps turnaround. Returns the phase as a nested object of the record.
fn run_phase(
    system: &SystemConfig,
    alloc: &OrthogonalAllocation,
    queries: usize,
    target_qps: f64,
    queue: usize,
) -> Record {
    let mut engine = Engine::new(system, alloc, PushRelabelBinary, SHARDS);
    let interarrival = Duration::from_secs_f64(1.0 / target_qps);
    let config = ServeConfig::default()
        .queue_capacity(queue)
        .shed_watermark(queue / 2);
    let report = engine.serve(config, |h| {
        let start = Instant::now();
        for k in 0..queries {
            let due = start + interarrival.mul_f64(k as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let _ = h.submit(request_at(k));
        }
    });
    let stats = report.stats;
    let mut all = Histogram::default();
    for class in PriorityClass::ALL {
        all.merge(&stats.classes[class as usize].turnaround_us);
    }
    Record::default()
        .num("target_qps", target_qps, 1)
        .num("completed_qps", stats.completed_per_sec(), 1)
        .int("submitted", stats.submitted)
        .int("completed", stats.completed)
        .int("rejected_queue_full", stats.rejected_queue_full)
        .int("rejected_shed", stats.rejected_shed)
        .num("shed_rate", stats.shed_rate(), 6)
        .int("max_queue_depth", stats.max_queue_depth)
        .int("p50_us", all.quantile(0.50))
        .int("p99_us", all.quantile(0.99))
        .int("p999_us", all.quantile(0.999))
}

fn main() -> ExitCode {
    let mut queries = 3000usize;
    rig::parse("serve_overload", &mut [("--queries", &mut queries)]);
    let queries = queries.max(16);

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();

    let capacity = measure_capacity(&system, &alloc, queries);
    // Cap the paced phases so the whole bench stays CI-sized regardless
    // of the machine's measured capacity.
    let low_count = queries.min((capacity * 0.5 * 4.0) as usize).max(64);
    let over_count = queries.min((capacity * 2.0 * 4.0) as usize).max(64);
    let low = run_phase(&system, &alloc, low_count, capacity * 0.5, 64);
    let over = run_phase(&system, &alloc, over_count, capacity * 2.0, 32);

    Record::new("serve_overload", 1)
        .note("open loops; low at 0.5x capacity, no shedding allowed; overload at 2x")
        .int("queries", queries as u64)
        .int("shards", SHARDS as u64)
        .int("streams", STREAMS as u64)
        .num("capacity_qps", capacity, 1)
        .object("low", low)
        .object("overload", over)
        .write()
}
