//! Span-channel overhead: serve throughput with query spans recorded
//! ([`ServeConfig::record_spans`] on, the default) versus the identical
//! workload with the span channel off, on the paper's Table II system.
//!
//! Both phases run the deterministic virtual clock, so the workers drain
//! as fast as the solver allows and wall time measures solve + span
//! cost with no pacing in the way. Each of `--repeat` rounds runs both
//! phases on fresh engines, alternating which goes first (ABBA);
//! `overhead` is the median of the per-round paired on/off ratio minus
//! one, and the CI gate asserts it stays within 5%. The two runs must
//! also produce bit-identical response times — spans are observation
//! only.
//!
//! ```text
//! cargo run --release -p rds-bench --bin span_overhead -- [--queries 2000] [--repeat 10]
//! ```
//!
//! Writes `results/span_overhead.txt` and `BENCH_span_overhead.json`.

use rds_bench::harness::sliding_window;
use rds_bench::rig::{self, Record};
use rds_core::engine::Engine;
use rds_core::pr::PushRelabelBinary;
use rds_core::serve::{QueryRequest, ServeConfig};
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_storage::time::Micros;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const STREAMS: usize = 8;
const SHARDS: usize = 2;

/// One measured round: a fresh engine serves the whole mix on the
/// virtual clock; returns wall time and the per-ticket response times.
fn run_round(
    system: &rds_storage::model::SystemConfig,
    alloc: &OrthogonalAllocation,
    queries: usize,
    spans: bool,
) -> (Duration, Vec<Micros>) {
    let mut engine = Engine::new(system, alloc, PushRelabelBinary, SHARDS);
    let config = ServeConfig::default()
        .virtual_time()
        .queue_capacity(queries.max(1))
        .record_spans(spans);
    let started = Instant::now();
    let report = engine.serve(config, |h| {
        for k in 0..queries {
            h.submit(
                QueryRequest::new(k % STREAMS, sliding_window(k, 3))
                    .arriving_at(Micros::from_millis((k / STREAMS) as u64)),
            )
            .expect("bounded mix never rejects");
        }
    });
    let elapsed = started.elapsed();
    assert_eq!(report.stats.completed as usize, queries);
    assert_eq!(report.stats.errors, 0);
    let mut replies = report.unclaimed;
    replies.sort_by_key(|r| r.ticket);
    let times = replies.iter().map(|r| match &r.result {
        Ok(out) => out.outcome.response_time,
        Err(e) => panic!("infeasible query in mix: {e:?}"),
    });
    (elapsed, times.collect())
}

fn main() -> ExitCode {
    let (mut queries, mut repeat) = (2000usize, 10usize);
    rig::parse(
        "span_overhead",
        &mut [("--queries", &mut queries), ("--repeat", &mut repeat)],
    );
    let queries = queries.max(16);

    let system = rds_storage::experiments::paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();

    // Arm 0 spans off, arm 1 spans on.
    let mut reference: Option<Vec<Micros>> = None;
    let rounds = rig::alternate(repeat, 2, |arm| {
        let (elapsed, times) = run_round(&system, &alloc, queries, arm == 1);
        let want = reference.get_or_insert_with(|| times.clone());
        assert_eq!(&times, want, "span recording must not change solve results");
        elapsed
    });

    Record::new("span_overhead", repeat)
        .note("off: record_spans(false); on: spans, phase marks and the flight recorder")
        .int("queries", queries as u64)
        .int("shards", SHARDS as u64)
        .int("streams", STREAMS as u64)
        .stat("spans_off_qps", rounds.per_sec(0, queries), 1)
        .stat("spans_on_qps", rounds.per_sec(1, queries), 1)
        .stat("overhead", rounds.overhead(1, 0), 4)
        .write()
}
