//! Probe timelines for every solver on a Table-II-style workload.
//!
//! Replays a mix of the paper's range queries against the Table II system
//! (14 heterogeneous disks, two sites) with a trace recorder installed,
//! then reports per solver:
//!
//! * the probe timeline of one representative query — each feasibility
//!   probe's budget and verdict, showing how the integrated binary-scaling
//!   solvers converge in `O(log)` probes while the incremental solvers
//!   walk capacities upward without probing at all;
//! * trace-event counts of one pass over the workload, as the difference
//!   of the workspace's always-on counts across the pass (every traced
//!   pass must count the same);
//! * solve-latency quantiles from the `log2` metrics histograms;
//! * the wall-clock cost of the ring recorder: traced passes (recorder
//!   installed) alternate with untraced ones round by round, and
//!   `overhead` is the per-round paired ratio's median minus one.
//!
//! ```text
//! cargo run --release -p rds-bench --bin probe_timeline -- [--rounds 40] [--repeat 10]
//! ```

use rds_bench::rig::{self, Record};
use rds_core::network::RetrievalInstance;
use rds_core::obs::metrics::Histogram;
use rds_core::obs::trace::{EventKind, TraceEvent};
use rds_core::solver::RetrievalSolver;
use rds_core::workspace::Workspace;
use rds_core::{blackbox, ff, pr};
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Bucket, Query, RangeQuery};
use rds_storage::experiments::paper_example;
use rds_storage::model::SystemConfig;
use std::process::ExitCode;
use std::time::Instant;

/// A rotating mix of Table-III-style range queries over the 7x7 grid.
fn workload(rounds: usize) -> Vec<Vec<Bucket>> {
    let shapes = [(3usize, 2usize), (2, 4), (1, 3), (4, 4), (7, 7), (2, 2)];
    let mut queries = Vec::with_capacity(rounds * shapes.len());
    for k in 0..rounds {
        for (i, &(r, c)) in shapes.iter().enumerate() {
            let q = RangeQuery::new((k + i) % 7, (k * 3 + i) % 7, r, c);
            queries.push(q.buckets(7));
        }
    }
    queries
}

/// One solver's row of the record: `repeat` rounds of one traced and
/// one untraced pass over `queries`, then the showcase query's timeline.
fn run_solver(
    solver: &dyn RetrievalSolver,
    system: &SystemConfig,
    alloc: &OrthogonalAllocation,
    queries: &[Vec<Bucket>],
    showcase: &[Bucket],
    repeat: usize,
) -> Record {
    let mut traced = Workspace::new();
    traced.install_recorder(1 << 16);
    let mut untraced = Workspace::new();
    let mut latency_us = Histogram::new();
    let mut probes = Histogram::new();
    let mut counts: Option<[u64; EventKind::COUNT]> = None;
    let rounds = rig::alternate(repeat, 2, |arm| {
        if arm == 1 {
            let started = Instant::now();
            for buckets in queries {
                let inst = RetrievalInstance::build(system, alloc, buckets);
                let outcome = solver.solve_in(&inst, &mut untraced).expect("feasible");
                std::hint::black_box(outcome.response_time);
            }
            return started.elapsed();
        }
        traced.recorder_mut().expect("recorder installed").clear();
        let before = *traced.trace_counts();
        let started = Instant::now();
        for buckets in queries {
            let q_started = Instant::now();
            let inst = RetrievalInstance::build(system, alloc, buckets);
            let outcome = solver.solve_in(&inst, &mut traced).expect("feasible");
            latency_us.record(q_started.elapsed().as_micros() as u64);
            probes.record(outcome.stats.probes);
        }
        let elapsed = started.elapsed();
        let rec = traced.recorder().expect("recorder installed");
        assert_eq!(
            rec.dropped(),
            0,
            "{}: recorder ring too small",
            solver.name()
        );
        let pass: [u64; EventKind::COUNT] =
            std::array::from_fn(|i| traced.trace_counts()[i] - before[i]);
        assert_eq!(*counts.get_or_insert(pass), pass, "event counts drifted");
        elapsed
    });
    let counts = counts.expect("a traced pass ran");

    // The showcase query's probe timeline, from a fresh recorder.
    traced.recorder_mut().expect("recorder installed").clear();
    let inst = RetrievalInstance::build(system, alloc, showcase);
    let _ = solver.solve_in(&inst, &mut traced).expect("feasible");
    // budget:verdict per probe, `?` until its end event arrives.
    let mut steps: Vec<String> = Vec::new();
    for e in traced.recorder().expect("recorder installed").events() {
        match e {
            TraceEvent::ProbeStart { budget } => steps.push(format!("{budget}:?")),
            TraceEvent::ProbeEnd { budget, feasible } => {
                let done = format!("{budget}:{}", if feasible { "y" } else { "n" });
                match steps.last_mut() {
                    Some(last) if *last == format!("{budget}:?") => *last = done,
                    _ => steps.push(done),
                }
            }
            _ => {}
        }
    }
    let timeline = if steps.is_empty() {
        "(none: capacities raised incrementally, no explicit probes)".to_string()
    } else {
        steps.join(" ")
    };

    let (lat, probes) = (latency_us.summary(), probes.summary());
    let count = |kind: EventKind| counts[kind as usize];
    Record::default()
        .text("solver", solver.name())
        .int("solves", count(EventKind::SolveStart))
        .int("probes", count(EventKind::ProbeStart))
        .int("increments", count(EventKind::CapacityIncrement))
        .int("relabel_passes", count(EventKind::RelabelPass))
        .int("augments", count(EventKind::Augment))
        .int("probes_p50", probes.p50)
        .int("probes_p95", probes.p95)
        .int("probes_p99", probes.p99)
        .int("latency_us_p50", lat.p50)
        .int("latency_us_p95", lat.p95)
        .int("latency_us_p99", lat.p99)
        .int("latency_samples", lat.count)
        .stat("traced_ms", rounds.ms(0), 3)
        .stat("untraced_ms", rounds.ms(1), 3)
        .stat("overhead", rounds.overhead(0, 1), 4)
        .text("timeline_7x7", &timeline)
}

fn main() -> ExitCode {
    let (mut rounds, mut repeat) = (40usize, 10usize);
    rig::parse(
        "probe_timeline",
        &mut [("--rounds", &mut rounds), ("--repeat", &mut repeat)],
    );
    let rounds = rounds.max(1);

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();
    let queries = workload(rounds);
    // The paper's full-grid query: 49 buckets, the widest binary search.
    let showcase = RangeQuery::new(0, 0, 7, 7).buckets(7);

    let solvers: [&dyn RetrievalSolver; 5] = [
        &pr::PushRelabelBinary,
        &pr::PushRelabelIncremental,
        &ff::FordFulkersonIncremental,
        &blackbox::BlackBoxPushRelabel,
        &blackbox::BlackBoxFordFulkerson,
    ];
    let rows = solvers
        .iter()
        .map(|s| run_solver(*s, &system, &alloc, &queries, &showcase, repeat))
        .collect();
    Record::new("probe_timeline", repeat)
        .note("event counts per pass; timeline_7x7: probes of the 49-bucket query, budget:verdict")
        .int("queries", queries.len() as u64)
        .int("rounds", rounds as u64)
        .rows("solvers", rows)
        .write()
}
