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
//! Plain `main()` harness: the workspace builds offline, without
//! criterion. Each group's arms alternate round by round; the record
//! prints each arm's median [q1, q3] milliseconds.

use rds_bench::harness::{Scheme, Workload};
use rds_bench::rig::{self, Record};
use rds_core::network::RetrievalInstance;
use rds_decluster::load::{Load, QueryKind};
use rds_flow::dinic::Dinic;
use rds_flow::ford_fulkerson::ford_fulkerson;
use rds_flow::push_relabel::PushRelabel;
use rds_storage::experiments::ExperimentId;
use rds_storage::time::Micros;

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

/// Times the group's arms (`SAMPLES` alternated rounds) as one nested
/// object of per-arm milliseconds.
fn group(labels: &[&str], mut arm: impl FnMut(usize) -> i64) -> Record {
    let rounds = rig::alternate(SAMPLES, labels.len(), |i| {
        rig::timed(|| {
            std::hint::black_box(arm(i));
        })
    });
    let mut group = Record::default();
    for (i, label) in labels.iter().enumerate() {
        group = group.stat(&format!("{label}_ms"), rounds.ms(i), 5);
    }
    group
}

fn engines() -> Record {
    let (inst, budget) = instance();
    let (s, t) = (inst.source(), inst.sink());
    let mut graphs = [(); 3].map(|()| {
        let mut graph = inst.graph.clone();
        inst.set_caps_for_budget(&mut graph, budget);
        graph
    });
    let (mut pr, mut dinic) = (PushRelabel::new(), Dinic::new());
    group(&["push-relabel", "ford-fulkerson", "dinic"], |i| {
        let graph = &mut graphs[i];
        match i {
            0 => pr.max_flow(graph, s, t),
            1 => {
                graph.zero_flows();
                ford_fulkerson(graph, s, t)
            }
            _ => {
                graph.zero_flows();
                dinic.max_flow(graph, s, t)
            }
        }
    })
}

/// The integrated claim at engine level: after one capacity increment, a
/// conserving resume vs a from-scratch recomputation.
fn conservation() -> Record {
    let (inst, _) = instance();
    let (t_min, t_max, _) = inst.budget_bounds();
    let near_optimal = t_min.midpoint(t_max);
    let (s, t) = (inst.source(), inst.sink());
    let mut graphs = [(); 2].map(|()| {
        let mut graph = inst.graph.clone();
        inst.set_caps_for_budget(&mut graph, near_optimal);
        graph
    });
    let mut solvers = [PushRelabel::new(), PushRelabel::new()];
    solvers[0].max_flow(&mut graphs[0], s, t);
    group(&["resume", "from-scratch"], |i| {
        // Raise every disk cap by one, then resume on the existing flow
        // (arm 0) or recompute from scratch (arm 1).
        let graph = &mut graphs[i];
        for &e in &inst.disk_edges {
            graph.set_cap(e, graph.cap(e) + 1);
        }
        match i {
            0 => solvers[0].resume(graph, s, t),
            _ => solvers[1].max_flow(graph, s, t),
        }
    })
}

fn main() {
    Record::new("flow_engines", SAMPLES)
        .object("engine_comparison", engines())
        .object("flow_conservation", conservation())
        .print();
}
