//! Fault sweep: response-time degradation versus the fraction of failed
//! disks.
//!
//! For each failure fraction, a seeded [`FaultInjector`] takes a uniform
//! random sample of disks offline at time zero and a fixed query batch is
//! replayed through the degraded-mode [`Engine`]. Replication absorbs
//! small outages by rerouting to surviving replicas (at a response-time
//! cost — fewer disks share the same work); once both replicas of a
//! bucket are gone the engine serves the retrievable subset and reports
//! the rest, which the sweep records as dropped buckets.
//!
//! ```text
//! cargo run --release -p rds-bench --bin fault_sweep
//! ```

use rds_bench::rig::{self, Record};
use rds_core::engine::{BatchQuery, Engine};
use rds_core::fault::FaultInjector;
use rds_core::pr::PushRelabelBinary;
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Query, RangeQuery};
use rds_storage::experiments::paper_example;
use rds_storage::time::Micros;
use rds_util::SplitMix64;
use std::process::ExitCode;

const GRID: usize = 7;
const QUERIES: usize = 400;
const STREAMS: usize = 6;
/// Outage seeds per sweep point.
const SEEDS: u64 = 10;
/// Sweep points past zero, up to half the disks failed.
const STEPS: usize = 10;

fn build_queries(seed: u64, total: usize, streams: usize) -> Vec<BatchQuery> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(total);
    let mut t = 0u64;
    for _ in 0..total {
        t += rng.gen_range(500..3_000u64);
        let q = RangeQuery::new(
            rng.gen_range(0..GRID),
            rng.gen_range(0..GRID),
            rng.gen_range(1..4usize),
            rng.gen_range(1..4usize),
        );
        queries.push(BatchQuery {
            stream: rng.gen_range(0..streams),
            arrival: Micros::from_micros(t),
            buckets: q.buckets(GRID),
        });
    }
    queries
}

fn main() -> ExitCode {
    rig::parse("fault_sweep", &mut []);

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let n = system.num_disks();
    let queries = build_queries(0x5EED, QUERIES, STREAMS);

    let mut points = Vec::with_capacity(STEPS + 1);
    let mut baseline = None;
    for step in 0..=STEPS {
        let fraction = 0.5 * step as f64 / STEPS as f64;
        let mut sum_response = Micros::ZERO;
        let (mut complete, mut degraded, mut dropped, mut infeasible) = (0u64, 0u64, 0u64, 0u64);
        let mut disks_down = 0usize;
        for seed in 0..SEEDS {
            let injector =
                FaultInjector::random_outages(0xD15C ^ seed, n, fraction, Micros::ZERO, None);
            disks_down = injector.events().len();
            let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1)
                .with_fault_injector(injector)
                .with_degraded_mode(true);
            for r in engine.submit_batch(&queries) {
                match r {
                    Ok(o) if o.is_complete() => {
                        complete += 1;
                        sum_response += o.outcome.response_time;
                    }
                    Ok(o) => {
                        degraded += 1;
                        dropped += o.unservable.len() as u64;
                    }
                    Err(_) => infeasible += 1,
                }
            }
        }
        // Mean response over fully-served queries, across seeds (null in
        // the record if none was).
        let mean_ms = sum_response.as_micros() as f64 / complete as f64 / 1_000.0;
        let baseline = *baseline.get_or_insert(mean_ms);
        points.push(
            Record::default()
                .num("fraction", fraction, 2)
                .int("disks_down", disks_down as u64)
                .num("mean_complete_ms", mean_ms, 3)
                .num("degradation", mean_ms / baseline, 3)
                .int("complete", complete)
                .int("degraded", degraded)
                .int("dropped", dropped)
                .int("infeasible", infeasible),
        );
    }

    Record::new("fault_sweep", 1)
        .note(
            "complete: every bucket served (mean over these); degraded: best effort; dropped: lost",
        )
        .int("disks", n as u64)
        .int("queries", QUERIES as u64)
        .int("seeds", SEEDS)
        .rows("points", points)
        .write()
}
