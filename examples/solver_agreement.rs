//! Integrated vs black-box retrieval on one workload.
//!
//! Runs the same Experiment-5-style workload through the integrated
//! solver (Algorithm 6 over FIFO push-relabel) and the black-box baseline,
//! reporting wall-clock time and verifying that both return the same
//! optimal response times.
//!
//! ```text
//! cargo run --release --example solver_agreement
//! ```

use replicated_retrieval::prelude::*;
use std::time::Instant;

fn main() {
    let n = 30; // 30 disks per site, 60 total; 900-bucket grid
    let seed = 42;
    let queries = 10;

    let system = experiment(ExperimentId::Exp5, n, seed);
    let alloc = ReplicaMap::build(&OrthogonalAllocation::new(n, Placement::PerSite));
    let mut gen = QueryGenerator::new(n, QueryKind::Arbitrary, Load::Load1, seed);

    let instances: Vec<RetrievalInstance> = (0..queries)
        .map(|_| {
            let q = gen.next_query();
            RetrievalInstance::build(&system, &alloc, &q.buckets(n))
        })
        .collect();
    let mean_q: usize = instances.iter().map(|i| i.query_size()).sum::<usize>() / instances.len();
    println!(
        "{queries} arbitrary Load-1 queries on {} disks (mean |Q| = {mean_q})\n",
        system.num_disks()
    );

    let solvers: Vec<(String, Box<dyn RetrievalSolver>)> = vec![
        ("black-box PR [12]".into(), Box::new(BlackBoxPushRelabel)),
        ("integrated PR (Alg 6)".into(), Box::new(PushRelabelBinary)),
    ];

    let mut reference: Option<Micros> = None;
    println!(
        "{:<24} {:>14} {:>20}",
        "solver", "total (ms)", "sum response time"
    );
    for (label, solver) in &solvers {
        let start = Instant::now();
        let total_response: Micros = instances
            .iter()
            .map(|inst| solver.solve(inst).expect("feasible instance").response_time)
            .sum();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "{label:<24} {elapsed:>14.2} {:>20}",
            total_response.to_string()
        );
        match reference {
            None => reference = Some(total_response),
            Some(r) => assert_eq!(
                r, total_response,
                "{label} disagrees with the reference optimum"
            ),
        }
    }
    println!("\nall solvers agree on the optimal response times ✓");
}
