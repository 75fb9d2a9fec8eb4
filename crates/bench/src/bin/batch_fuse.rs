//! Fused coalesced-batch drain versus independent steady-state solves:
//! what the epoch-shared topology plane + lane free list buy when a
//! serve window drains 8 same-epoch queries at once.
//!
//! Both sides run the identical workload on the paper's Table II system:
//! 8 streams, each sitting on one of a hot pair of overlapping 5x5
//! windows (25 buckets, the heaviest Table II rung) for 8 batches and
//! then hopping to the other, re-issued every batch as hot queries are
//! in steady state.
//!
//! * `independent`: 8 independent steady-state solves per batch — per
//!   query, clone the loaded system, rebuild the retrieval network and
//!   every arena buffer from scratch, solve cold (the cost the serve
//!   loop would pay if coalesced queries shared nothing).
//! * `fused`: `SolverSpec::batch_fuse(true)` + the recommended reuse
//!   preset, cache trimmed to one entry — the batch drains as one fused
//!   group set: per stream group, a capacity plane is checked out of
//!   the lane free list against the Arc-shared topology epoch (no
//!   rebuild, no re-finalize, no topology copy); steady-state re-issues
//!   replay the cached schedule, window hops delta-resume the previous
//!   flow on a freshly checked-out plane.
//!
//! The two timed arms alternate round by round (ABBA) like
//! `engine_speedup`, and `fused_speedup_8` is the per-round paired
//! ratio's median. Per arena width,
//! the fused schedules must be bit-identical to the unfused warm drain
//! and the fused response times bit-identical to the independent side
//! (warm and cold may pick different, equally optimal schedules), and
//! the fused side's steady-state arena allocation events must stay flat
//! (the plane free list recycles, never grows).
//!
//! ```text
//! cargo run --release -p rds-bench --bin batch_fuse -- [--batches 200] [--repeat 10]
//! ```
//!
//! Writes `results/batch_fuse.txt` and `BENCH_batch_fuse.json`.

use rds_bench::harness::ClonePerSolve;
use rds_bench::rig::{self, Record};
use rds_core::engine::{BatchQuery, Engine};
use rds_core::session::ReusePolicy;
use rds_core::spec::{ArenaLayout, SolverKind, SolverSpec};
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Bucket, Query, RangeQuery};
use rds_storage::experiments::paper_example;
use rds_storage::model::SystemConfig;
use rds_storage::time::Micros;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const STREAMS: usize = 8;
/// Warm-up batches before the timed region: one full hop cycle, so both
/// hot windows have solved once (lanes checked out, arenas at high
/// water, warm flows captured) before anything is timed.
const WARMUP: usize = 16;

/// Stream `s`'s hot pair: two overlapping 5x5 windows on the 7x7 grid,
/// one column apart. The stream sits on one window for 8 batches (the
/// steady state: hot queries re-issued as results expire) then hops to
/// the other — same query size, so the hop stays on the delta/patch
/// path rather than forcing a rebuild.
fn hot_pair(s: usize, round: usize) -> Vec<Bucket> {
    RangeQuery::new(s % 3, (round / 8) % 2, 5, 5).buckets(7)
}

/// The 8-query coalesced batch of one round: one hot query per stream,
/// all sharing an arrival (one serve-window drain). Rounds are spaced
/// far enough apart for every disk to drain, so all sides see identical
/// loads each round even where their (equally optimal) schedules placed
/// blocks on different replicas the round before.
fn round_batch(round: usize) -> Vec<BatchQuery> {
    (0..STREAMS)
        .map(|s| BatchQuery {
            stream: s,
            arrival: Micros::from_millis(500 * round as u64),
            buckets: hot_pair(s, round),
        })
        .collect()
}

/// Which configuration a pass runs.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    /// 8 independent steady-state solves per batch: per query, clone the
    /// loaded system, rebuild the network, solve in a fresh workspace.
    Independent,
    /// Reuse on, serial drain: the fused side's exact semantics, unfused.
    WarmSerial,
    /// Reuse on + `batch_fuse(true)`: the fused drain under test.
    Fused,
}

#[derive(Default)]
struct SideRun {
    /// Wall time of the timed batches.
    elapsed: Duration,
    /// Digest over every response time + completion in batch order —
    /// identical across all three sides (the optimum is the optimum).
    rt_digest: u64,
    /// Digest additionally covering every schedule assignment — the
    /// fused-vs-unfused bit-identity witness (warm and cold paths may
    /// pick different, equally optimal schedules).
    schedule_digest: u64,
    /// Arena allocation events across the timed region (0 = steady).
    allocs: u64,
    /// Fused drains observed (0 on the unfused sides).
    fused_batches: u64,
}

/// One measured pass: a fresh side runs `WARMUP + batches` rounds; only
/// the post-warm-up rounds are timed and digested.
fn run_side(
    system: &SystemConfig,
    alloc: &OrthogonalAllocation,
    layout: ArenaLayout,
    side: Side,
    batches: usize,
) -> SideRun {
    if side == Side::Independent {
        // Nothing shared, nothing warmed: every query pays the full
        // rebuild. The warm-up rounds still run so both sides digest the
        // same timed region.
        let mut streams: Vec<ClonePerSolve> = (0..STREAMS)
            .map(|_| ClonePerSolve::new(system, alloc))
            .collect();
        for round in 0..WARMUP {
            for q in round_batch(round) {
                streams[q.stream].submit(q.arrival, &q.buckets);
            }
        }
        let mut rt = std::collections::hash_map::DefaultHasher::new();
        let started = Instant::now();
        for round in WARMUP..WARMUP + batches {
            for q in round_batch(round) {
                let response = streams[q.stream].submit(q.arrival, &q.buckets);
                response.hash(&mut rt);
                (q.arrival + response).hash(&mut rt);
            }
        }
        return SideRun {
            elapsed: started.elapsed(),
            rt_digest: rt.finish(),
            ..SideRun::default()
        };
    }

    // The serving ladder both reuse sides run: warm start plus a
    // single-entry schedule cache — steady-state re-issues replay the
    // cached schedule, window hops miss and delta-resume on a plane.
    let mut spec = SolverSpec::new(SolverKind::PushRelabelBinary)
        .arena_layout(layout)
        .reuse(ReusePolicy {
            warm_start: true,
            cache_capacity: 1,
        });
    if side == Side::Fused {
        spec = spec.batch_fuse(true).parallelism(2);
    }
    let mut engine = Engine::builder(system, alloc).solver_spec(spec).build();
    for round in 0..WARMUP {
        let results = engine.submit_batch(&round_batch(round));
        assert!(
            results.iter().all(|r| r.is_ok()),
            "warm-up must be feasible"
        );
    }
    let before = engine.arena_allocation_events();
    let mut rt = std::collections::hash_map::DefaultHasher::new();
    let mut sched = std::collections::hash_map::DefaultHasher::new();
    let started = Instant::now();
    for round in WARMUP..WARMUP + batches {
        let results = engine.submit_batch(&round_batch(round));
        for r in results {
            let out = r.expect("feasible hot pair");
            out.outcome.response_time.hash(&mut rt);
            out.completion.hash(&mut rt);
            out.outcome.response_time.hash(&mut sched);
            for &(b, d) in out.outcome.schedule.assignments() {
                (b, d).hash(&mut sched);
            }
        }
    }
    let elapsed = started.elapsed();
    SideRun {
        elapsed,
        rt_digest: rt.finish(),
        schedule_digest: sched.finish(),
        allocs: engine.arena_allocation_events() - before,
        fused_batches: engine.stats().fused_batches,
    }
}

fn main() -> ExitCode {
    let (mut batches, mut repeat) = (200usize, 10usize);
    rig::parse(
        "batch_fuse",
        &mut [("--batches", &mut batches), ("--repeat", &mut repeat)],
    );
    let batches = batches.max(1);

    let system = paper_example();
    let alloc = OrthogonalAllocation::paper_7x7();

    // Bit-identity gate, both arena widths: the fused drain must return
    // the exact schedules of the unfused warm drain, and the same
    // response times as the independent cold side (warm and cold may
    // pick different — equally optimal — schedules).
    for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
        let independent = run_side(&system, &alloc, layout, Side::Independent, 8);
        let warm = run_side(&system, &alloc, layout, Side::WarmSerial, 8);
        let fused = run_side(&system, &alloc, layout, Side::Fused, 8);
        assert_eq!(
            fused.schedule_digest, warm.schedule_digest,
            "{layout:?}: fused drain changed a schedule"
        );
        assert_eq!(
            fused.rt_digest, independent.rt_digest,
            "{layout:?}: fused drain changed a response time"
        );
    }

    // Arm 0 independent, arm 1 fused, on the wide rung.
    let mut golden: Option<u64> = None;
    let mut plane_allocs = 0u64;
    let rounds = rig::alternate(repeat, 2, |arm| {
        let side = [Side::Independent, Side::Fused][arm];
        let run = run_side(&system, &alloc, ArenaLayout::Wide, side, batches);
        let want = *golden.get_or_insert(run.rt_digest);
        assert_eq!(run.rt_digest, want, "round digest drifted");
        if side == Side::Fused {
            assert!(
                run.fused_batches >= (WARMUP + batches) as u64,
                "every coalesced batch must take the fused drain"
            );
            plane_allocs = plane_allocs.max(run.allocs);
        }
        run.elapsed
    });

    Record::new("batch_fuse", repeat)
        .note("independent: clone-per-solve, nothing shared; fused: batch_fuse(true) + warm reuse")
        .int("batch", STREAMS as u64)
        .int("batches", batches as u64)
        .stat("independent_ms", rounds.ms(0), 3)
        .stat("fused_ms", rounds.ms(1), 3)
        .stat("fused_speedup_8", rounds.ratio(0, 1), 3)
        .stat("fused_qps", rounds.per_sec(1, STREAMS * batches), 1)
        .flag("digest_match_wide", true)
        .flag("digest_match_compact", true)
        .int("steady_state_plane_allocs", plane_allocs)
        .write()
}
