//! Ablation benches on the max-flow substrate itself
//! (`cargo bench --bench flow_engines`).
//!
//! Two load-bearing design choices from DESIGN.md each get a bench:
//!
//! * engines — push-relabel vs Ford-Fulkerson vs Dinic on retrieval
//!   networks (why push-relabel is the right engine, §IV);
//! * conservation — `resume` after a capacity increment vs a from-scratch
//!   recomputation (the paper's core claim isolated at the engine level).
//!
//! Plain `main()` harness: the workspace builds offline, without criterion.

use rds_bench::harness::{Scheme, Workload};
use rds_core::network::RetrievalInstance;
use rds_decluster::load::{Load, QueryKind};
use rds_flow::dinic::Dinic;
use rds_flow::ford_fulkerson::ford_fulkerson;
use rds_flow::push_relabel::PushRelabel;
use rds_storage::experiments::ExperimentId;
use rds_storage::time::Micros;
use std::time::Instant;

const SEED: u64 = 7;
const SAMPLES: usize = 20;

/// A mid-size retrieval network with capacities set to a feasible budget.
fn instance() -> (RetrievalInstance, Micros) {
    let w = Workload::build(
        ExperimentId::Exp5,
        Scheme::Orthogonal,
        QueryKind::Arbitrary,
        Load::Load1,
        20,
        1,
        SEED,
    );
    let inst = w.instances.into_iter().next().unwrap();
    let (_, t_max, _) = inst.budget_bounds();
    (inst, t_max)
}

/// Times `SAMPLES` runs of `f` and prints the best one.
fn bench(label: &str, mut f: impl FnMut() -> i64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0i64;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        checksum = checksum.wrapping_add(f());
        let dt = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(dt);
    }
    println!("  {label:<24} {best:>9.3} ms   (checksum {checksum})");
}

fn engines() {
    let (inst, budget) = instance();
    let (s, t) = (inst.source(), inst.sink());
    println!("engine_comparison");

    {
        let mut graph = inst.graph.clone();
        inst.set_caps_for_budget(&mut graph, budget);
        let mut pr = PushRelabel::new();
        bench("push-relabel", || pr.max_flow(&mut graph, s, t));
    }
    {
        let mut graph = inst.graph.clone();
        inst.set_caps_for_budget(&mut graph, budget);
        bench("ford-fulkerson", || {
            graph.zero_flows();
            ford_fulkerson(&mut graph, s, t)
        });
    }
    {
        let mut graph = inst.graph.clone();
        inst.set_caps_for_budget(&mut graph, budget);
        let mut dinic = Dinic::new();
        bench("dinic", || {
            graph.zero_flows();
            dinic.max_flow(&mut graph, s, t)
        });
    }
}

/// The integrated claim at engine level: after one capacity increment, a
/// conserving resume vs a from-scratch recomputation.
fn conservation() {
    let (inst, _) = instance();
    let (t_min, t_max, _) = inst.budget_bounds();
    let near_optimal = t_min.midpoint(t_max);
    let (s, t) = (inst.source(), inst.sink());
    println!("flow_conservation");

    {
        let mut graph = inst.graph.clone();
        inst.set_caps_for_budget(&mut graph, near_optimal);
        let mut pr = PushRelabel::new();
        pr.max_flow(&mut graph, s, t);
        bench("resume", || {
            // Raise every disk cap by one and resume on the existing flow.
            for &e in &inst.disk_edges {
                graph.set_cap(e, graph.cap(e) + 1);
            }
            pr.resume(&mut graph, s, t)
        });
    }
    {
        let mut graph = inst.graph.clone();
        inst.set_caps_for_budget(&mut graph, near_optimal);
        let mut pr = PushRelabel::new();
        bench("from-scratch", || {
            for &e in &inst.disk_edges {
                graph.set_cap(e, graph.cap(e) + 1);
            }
            pr.max_flow(&mut graph, s, t)
        });
    }
}

fn main() {
    engines();
    conservation();
}
