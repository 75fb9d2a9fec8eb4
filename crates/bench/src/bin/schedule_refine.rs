//! Schedule refinement: load variance and overhead at the fixed optimum.
//!
//! The binary search pins the optimal response time `t*`; any max flow
//! within budget `t*` is "the answer". This bench measures what the
//! min-cost refinement pass (`ScheduleObjective::MinMaxLoad`) buys on the
//! paper's Table II system (14 heterogeneous disks, 7x7 orthogonal
//! allocation): the first feasible flow tends to pile buckets onto a few
//! fast disks that have spare capacity at `t*`, while the refined flow
//! spreads them — at a bit-identical response time, which every query
//! asserts.
//!
//! Reported (and gated in CI at the Table II rung):
//!
//! * `variance_reduction` — mean per-disk load variance of the first
//!   feasible schedules over the refined ones (higher = flatter load);
//! * `refine_overhead` — extra wall-clock of objective-enabled solves
//!   over plain solves, as a fraction of the plain solve time: the
//!   median of the per-round paired ratio minus one, the two arms
//!   alternating round by round.
//!
//! ```text
//! cargo run --release -p rds-bench --bin schedule_refine -- [--repeat 10]
//! ```
//!
//! Writes `results/schedule_refine.txt` and `BENCH_schedule_refine.json`.

use rds_bench::harness::with_backlog;
use rds_bench::rig::{self, Record};
use rds_core::network::RetrievalInstance;
use rds_core::spec::{ScheduleObjective, SolverKind, SolverSpec};
use rds_decluster::allocation::{Placement, ReplicaMap, ReplicaSource};
use rds_decluster::orthogonal::OrthogonalAllocation;
use rds_decluster::query::{Bucket, Query, RangeQuery};
use rds_storage::experiments::{experiment, paper_example, ExperimentId};
use rds_storage::model::SystemConfig;
use rds_storage::time::Micros;
use rds_util::SplitMix64;
use std::process::ExitCode;
use std::time::Duration;

/// Passes over the rung's queries per timed sample.
const ROUNDS: usize = 25;

/// One benchmark rung: a system, an allocation and a query list.
struct Rung {
    name: &'static str,
    system: SystemConfig,
    alloc: ReplicaMap,
    queries: Vec<Vec<Bucket>>,
}

/// The paper's Table II system under load: both replicas of bucket
/// (0, 0) carry a 25 ms backlog, and every query window contains that
/// bucket. The straggler pins `t*` well above the other disks' single-
/// bucket completions, so they all have spare capacity at `t*` — the
/// freedom the first feasible flow spends piling buckets onto a few
/// disks and the refiner spends flattening them.
///
/// (The unloaded Table II system has no such freedom: at its `t*` every
/// disk capacity is tight, so plain and refined schedules coincide and
/// the variance ratio is identically 1.)
fn table2_rung() -> Rung {
    let base = paper_example();
    let orth = OrthogonalAllocation::paper_7x7();
    let hot: Vec<usize> = orth.replicas(Bucket::new(0, 0)).iter().collect();
    let system = with_backlog(&base, |j| {
        Micros::from_millis(if hot.contains(&j) { 25 } else { 0 })
    });
    let alloc = ReplicaMap::build(&orth);
    let mut queries = Vec::new();
    for rows in 2..5usize {
        for cols in 4..7usize {
            queries.push(RangeQuery::new(0, 0, rows, cols).buckets(7));
        }
    }
    Rung {
        name: "table2_7x7_loaded",
        system,
        alloc,
        queries,
    }
}

/// A scaled heterogeneous rung (ungated, for context): Experiment 5
/// system on 12 disks, random 3x6 windows.
fn scaled_rung() -> Rung {
    let n = 12usize;
    let system = experiment(ExperimentId::Exp5, n, 0x5EF1);
    let alloc = ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite));
    let mut rng = SplitMix64::seed_from_u64(0x5EF2);
    let mut queries = Vec::new();
    for _ in 0..24usize {
        let q = RangeQuery::new(rng.gen_range(0..n), rng.gen_range(0..n), 3, 6);
        queries.push(q.buckets(n));
    }
    Rung {
        name: "exp5_12",
        system,
        alloc,
        queries,
    }
}

/// One timed sample: wall time per pass of solving every query of the
/// rung `rounds` times with `spec`, verifying each response time against
/// `want` (the plain optimum) when given.
fn time_sample(rung: &Rung, spec: &SolverSpec, want: Option<&[Micros]>, rounds: usize) -> Duration {
    let started = std::time::Instant::now();
    for _ in 0..rounds {
        for (i, buckets) in rung.queries.iter().enumerate() {
            let inst = RetrievalInstance::build(&rung.system, &rung.alloc, buckets);
            let outcome = spec.solve(&inst).expect("feasible instance");
            if let Some(want) = want {
                assert_eq!(
                    outcome.response_time, want[i],
                    "refined query {i} of {} lost the optimum",
                    rung.name
                );
            }
            std::hint::black_box(outcome.response_time);
        }
    }
    started.elapsed() / rounds as u32
}

/// Measures one rung, as one row of the record: its variance pass and
/// `repeat` alternated rounds of plain and refined solves.
fn run_rung(rung: &Rung, repeat: usize) -> Record {
    let plain_spec = SolverSpec::new(SolverKind::PushRelabelBinary);
    let refined_spec =
        SolverSpec::new(SolverKind::PushRelabelBinary).objective(ScheduleObjective::MinMaxLoad);

    // Correctness + variance pass: every refined schedule must keep the
    // plain optimum bit-for-bit; variances are averaged over the queries.
    let mut optima = Vec::with_capacity(rung.queries.len());
    let mut variance_before = 0.0;
    let mut variance_after = 0.0;
    let mut refine_cycles = 0u64;
    for buckets in &rung.queries {
        let inst = RetrievalInstance::build(&rung.system, &rung.alloc, buckets);
        let plain = plain_spec.solve(&inst).expect("feasible instance");
        let refined = refined_spec.solve(&inst).expect("feasible instance");
        assert_eq!(refined.response_time, plain.response_time);
        assert_eq!(refined.flow_value, plain.flow_value);
        variance_before += plain.schedule.load_variance(&inst.disks);
        variance_after += refined.schedule.load_variance(&inst.disks);
        refine_cycles += refined.stats.refine_cycles;
        optima.push(plain.response_time);
    }
    variance_before /= rung.queries.len() as f64;
    variance_after /= rung.queries.len() as f64;

    // Warm caches, allocator and branch predictors before timing.
    time_sample(rung, &plain_spec, None, 1);
    time_sample(rung, &refined_spec, Some(&optima), 1);
    // Arm 0 plain, arm 1 refined, alternating per round so CPU frequency
    // drift (boost decay, thermal throttling, VM steal) hits both alike.
    let rounds = rig::alternate(repeat, 2, |arm| match arm {
        0 => time_sample(rung, &plain_spec, None, ROUNDS),
        _ => time_sample(rung, &refined_spec, Some(&optima), ROUNDS),
    });
    Record::default()
        .text("rung", rung.name)
        .int("queries", rung.queries.len() as u64)
        .num("variance_before", variance_before, 4)
        .num("variance_after", variance_after, 4)
        .num("variance_reduction", variance_before / variance_after, 3)
        .stat("plain_ms", rounds.ms(0), 4)
        .stat("refined_ms", rounds.ms(1), 4)
        .stat("refine_overhead", rounds.overhead(1, 0), 4)
        .int("refine_cycles", refine_cycles)
}

fn main() -> ExitCode {
    let mut repeat = 10usize;
    rig::parse("schedule_refine", &mut [("--repeat", &mut repeat)]);

    let rows: Vec<Record> = [table2_rung(), scaled_rung()]
        .iter()
        .map(|r| run_rung(r, repeat))
        .collect();
    // The gates read the Table II rung's keys at the top level.
    let gated = [
        "variance_before",
        "variance_after",
        "variance_reduction",
        "refine_overhead",
    ];
    Record::new("schedule_refine", repeat)
        .note("refined: MinMaxLoad; variance: ms^2, mean over a rung's queries; 25 passes a sample")
        .int("rounds", ROUNDS as u64)
        .copy(&rows[0], &gated)
        .flag("responses_equal", true)
        .rows("rungs", rows)
        .write()
}
