//! Model test of the arena's edge-id API.
//!
//! The arena stores every slot at an adjacency position and maps edge ids
//! to positions and back; callers only ever see ids. This suite drives
//! seeded random sequences of id-level calls — `add_edge` (direct and
//! through an appender), `finalize`, appends after `finalize`, `set_cap`,
//! `push`, `store_flows`/`restore_flows`, `try_restore_flows`,
//! `checkpoint_flows`/`rollback_flows`, `copy_from`, `try_copy_from`,
//! `checkout_plane_from`, `reset`, `add_vertex` and solver runs — against
//! a naive id-indexed reference, and after every step compares every
//! `cap`, `flow`, `residual`, `target`, `source`, `net_inflow`,
//! `forward_in_degree` and `forward_out_degree` read, plus the insertion
//! order of `out_edges`. Run in the debug profile, the solver steps also
//! exercise the position accessors' debug assertions.

use rds_flow::graph::{ArenaIndex, EdgeId, FlowGraph};
use rds_flow::push_relabel::PushRelabel;
use rds_flow::validate::validate_flow;
use rds_flow::{dinic, ford_fulkerson};
use rds_util::SplitMix64;

/// The reference: plain vectors indexed by edge id.
#[derive(Clone, Debug, Default)]
struct Model {
    n: usize,
    target: Vec<usize>,
    cap: Vec<i64>,
    flow: Vec<i64>,
}

impl Model {
    fn reset(&mut self, n: usize) {
        *self = Model {
            n,
            ..Model::default()
        };
    }

    fn add_edge(&mut self, u: usize, v: usize, cap: i64) -> EdgeId {
        let e = self.target.len();
        self.target.extend([v, u]);
        self.cap.extend([cap, 0]);
        self.flow.extend([0, 0]);
        e
    }

    fn slots(&self) -> usize {
        self.target.len()
    }

    fn source(&self, e: EdgeId) -> usize {
        self.target[e ^ 1]
    }

    fn push(&mut self, e: EdgeId, delta: i64) {
        self.flow[e] += delta;
        self.flow[e ^ 1] -= delta;
    }

    /// Maximum s-t flow value by Edmonds-Karp over the reference arrays,
    /// from a zero flow.
    fn max_flow_value(&self, s: usize, t: usize) -> i64 {
        let mut flow = vec![0i64; self.slots()];
        let mut total = 0;
        loop {
            let mut parent = vec![usize::MAX; self.n];
            let mut seen = vec![false; self.n];
            seen[s] = true;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for (e, &f) in flow.iter().enumerate() {
                    let w = self.target[e];
                    if self.source(e) == u && !seen[w] && self.cap[e] - f > 0 {
                        seen[w] = true;
                        parent[w] = e;
                        queue.push_back(w);
                    }
                }
            }
            if !seen[t] {
                return total;
            }
            let mut bottleneck = i64::MAX;
            let mut v = t;
            while v != s {
                let e = parent[v];
                bottleneck = bottleneck.min(self.cap[e] - flow[e]);
                v = self.source(e);
            }
            let mut v = t;
            while v != s {
                let e = parent[v];
                flow[e] += bottleneck;
                flow[e ^ 1] -= bottleneck;
                v = self.source(e);
            }
            total += bottleneck;
        }
    }
}

/// Every id-level read of `g` agrees with the reference.
fn check<W: ArenaIndex>(g: &FlowGraph<W>, m: &Model, step: &str) {
    assert_eq!(g.num_vertices(), m.n, "{step}: vertex count");
    assert_eq!(g.num_edge_slots(), m.slots(), "{step}: slot count");
    for e in 0..m.slots() {
        assert_eq!(g.cap(e), m.cap[e], "{step}: cap({e})");
        assert_eq!(g.flow(e), m.flow[e], "{step}: flow({e})");
        assert_eq!(g.residual(e), m.cap[e] - m.flow[e], "{step}: residual({e})");
        assert_eq!(g.target(e), m.target[e], "{step}: target({e})");
        assert_eq!(g.source(e), m.source(e), "{step}: source({e})");
    }
    for v in 0..m.n {
        let inflow: i64 = (0..m.slots())
            .filter(|&e| m.target[e] == v)
            .map(|e| m.flow[e])
            .sum();
        assert_eq!(g.net_inflow(v), inflow, "{step}: net_inflow({v})");
        let forward = (0..m.slots()).step_by(2);
        let in_degree = forward.clone().filter(|&e| m.target[e] == v).count();
        let out_degree = forward.filter(|&e| m.source(e) == v).count();
        assert_eq!(g.forward_in_degree(v), in_degree, "{step}: in_degree({v})");
        assert_eq!(
            g.forward_out_degree(v),
            out_degree,
            "{step}: out_degree({v})"
        );
        if g.is_finalized() {
            let owned: Vec<u32> = (0..m.slots())
                .filter(|&e| m.source(e) == v)
                .map(|e| e as u32)
                .collect();
            assert_eq!(g.out_edges(v), owned.as_slice(), "{step}: out_edges({v})");
        }
    }
    assert_eq!(g.store_flows(), m.flow, "{step}: store_flows");
}

/// A solver run on a finalized copy: the flow it leaves is valid under
/// the reference capacities and its value is the reference maximum.
fn check_solver(g: &FlowGraph, m: &Model, rng: &mut SplitMix64) {
    if m.n < 2 {
        return;
    }
    let (s, t) = (0, m.n - 1);
    let want = m.max_flow_value(s, t);
    let mut h: FlowGraph = FlowGraph::new(0);
    h.copy_from(g);
    let got = match rng.gen_range(0..4u32) {
        0 => PushRelabel::new().max_flow(&mut h, s, t),
        1 => dinic::max_flow(&mut h, s, t),
        2 => {
            h.zero_flows();
            ford_fulkerson::ford_fulkerson(&mut h, s, t)
        }
        _ => {
            h.zero_flows();
            ford_fulkerson::edmonds_karp(&mut h, s, t)
        }
    };
    assert_eq!(got, want, "solver disagrees with the reference maximum");
    validate_flow(&h, s, t).expect("solver left an invalid flow");
    for e in 0..m.slots() {
        assert_eq!(h.cap(e), m.cap[e], "a solve changed cap({e})");
    }
}

#[test]
fn id_api_matches_the_reference_model() {
    let mut rng = SplitMix64::seed_from_u64(0xA2E4A);
    for case in 0..150 {
        let n = rng.gen_range(2..9usize);
        let mut g: FlowGraph = FlowGraph::new(n);
        let mut m = Model::default();
        m.reset(n);
        let mut other: FlowGraph = FlowGraph::new(1);
        let mut snapshot: Option<(Vec<i64>, Vec<i64>)> = None;
        let mut checkpoint: Option<Vec<i64>> = None;
        // A checked-out graph and the reference state it must keep while
        // `g` mutates its own copy of the plane.
        let mut shared: Option<(FlowGraph<i32>, Model)> = None;
        for op in 0..70 {
            let step = format!("case {case} op {op}");
            let slots = m.slots();
            match rng.gen_range(0..16u32) {
                0..=2 => {
                    let (u, v) = (rng.gen_range(0..m.n), rng.gen_range(0..m.n));
                    let c = rng.gen_range(0..20i64);
                    assert_eq!(g.add_edge(u, v, c), m.add_edge(u, v, c), "{step}");
                    checkpoint = None;
                }
                3 => {
                    let mut app = g.appender();
                    for _ in 0..rng.gen_range(1..5usize) {
                        let (u, v) = (rng.gen_range(0..m.n), rng.gen_range(0..m.n));
                        let c = rng.gen_range(0..20i64);
                        assert_eq!(app.add_edge(u, v, c), m.add_edge(u, v, c), "{step}");
                    }
                    checkpoint = None;
                }
                4 => {
                    if !g.is_finalized() {
                        checkpoint = None;
                    }
                    g.finalize();
                }
                5 if slots > 0 => {
                    // Forward slots only: reverse slots keep capacity 0,
                    // which the solvers of the final step rely on.
                    let e = rng.gen_range(0..slots) & !1;
                    let c = rng.gen_range(0..25i64);
                    g.set_cap(e, c);
                    m.cap[e] = c;
                }
                6 if slots > 0 => {
                    let e = rng.gen_range(0..slots);
                    let r = m.cap[e] - m.flow[e];
                    if r > 0 {
                        let delta = rng.gen_range(1..r + 1);
                        g.push(e, delta);
                        m.push(e, delta);
                    }
                }
                7 => snapshot = Some((g.store_flows(), m.flow.clone())),
                8 => match &snapshot {
                    Some((snap, flows)) if snap.len() == slots => {
                        if rng.gen_range(0..2u32) == 0 {
                            g.restore_flows(snap);
                        } else {
                            g.try_restore_flows(snap).expect("i64 always fits");
                        }
                        m.flow = flows.clone();
                    }
                    _ => {}
                },
                9 => {
                    g.checkpoint_flows();
                    checkpoint = Some(m.flow.clone());
                }
                10 => {
                    if let Some(flows) = &checkpoint {
                        g.rollback_flows();
                        m.flow = flows.clone();
                    }
                }
                11 => {
                    other.copy_from(&g);
                    std::mem::swap(&mut g, &mut other);
                    checkpoint = None;
                }
                12 => {
                    let mut compact = FlowGraph::<i32>::new(0);
                    compact.try_copy_from(&g).expect("small values fit i32");
                    check(&compact, &m, &format!("{step} (i32 copy)"));
                    let mut wide: FlowGraph = FlowGraph::new(3);
                    wide.try_copy_from(&compact).expect("widening is lossless");
                    g = wide;
                    checkpoint = None;
                }
                13 if g.is_finalized() => {
                    let mut compact = FlowGraph::<i32>::new(0);
                    compact
                        .checkout_plane_from(&g)
                        .expect("small values fit i32");
                    assert!(compact.shares_topology_with(&g), "{step}");
                    shared = Some((compact, m.clone()));
                }
                14 => {
                    if rng.gen_range(0..3u32) == 0 {
                        let n = rng.gen_range(2..9usize);
                        g.reset(n);
                        m.reset(n);
                        checkpoint = None;
                    } else {
                        assert_eq!(g.add_vertex(), m.n, "{step}");
                        m.n += 1;
                    }
                }
                _ => {
                    g.finalize();
                    checkpoint = None;
                    check_solver(&g, &m, &mut rng);
                }
            }
            check(&g, &m, &step);
            if let Some((compact, reference)) = &shared {
                check(compact, reference, &format!("{step} (checked-out plane)"));
            }
        }
    }
}
