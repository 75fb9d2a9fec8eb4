//! Randomized cross-validation over flow networks: every engine computes
//! the same maximum flow, final flows are valid, decompositions account
//! for the full value, and resume-after-capacity-increase matches a fresh
//! solve. Deterministic: all instances are drawn from a seeded SplitMix64.

use rds_flow::decompose::{decompose, path_value};
use rds_flow::dinic;
use rds_flow::ford_fulkerson::{edmonds_karp, ford_fulkerson};
use rds_flow::graph::FlowGraph;
use rds_flow::push_relabel::PushRelabel;
use rds_flow::validate::validate_flow;
use rds_util::SplitMix64;

/// A random directed graph described by a seedable edge list.
#[derive(Clone, Debug)]
struct RandomNet {
    n: usize,
    edges: Vec<(usize, usize, i64)>,
}

fn random_net(rng: &mut SplitMix64) -> RandomNet {
    let n = rng.gen_range(3..16usize);
    let m = rng.gen_range(1..60usize);
    let edges = (0..m)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..30i64),
            )
        })
        .filter(|&(u, v, _)| u != v)
        .collect();
    RandomNet { n, edges }
}

fn build(net: &RandomNet) -> FlowGraph {
    let mut g = FlowGraph::new(net.n);
    for &(u, v, c) in &net.edges {
        g.add_edge(u, v, c);
    }
    g
}

/// Every engine agrees with Dinic.
#[test]
fn engines_agree() {
    let mut rng = SplitMix64::seed_from_u64(0xF10);
    for _ in 0..48 {
        let net = random_net(&mut rng);
        let (s, t) = (0, net.n - 1);
        let mut g = build(&net);
        let want = dinic::max_flow(&mut g, s, t);

        let mut g = build(&net);
        assert_eq!(ford_fulkerson(&mut g, s, t), want);
        assert_eq!(validate_flow(&g, s, t), Ok(()));

        let mut g = build(&net);
        assert_eq!(edmonds_karp(&mut g, s, t), want);

        let mut g = build(&net);
        assert_eq!(PushRelabel::new().max_flow(&mut g, s, t), want);
        assert_eq!(validate_flow(&g, s, t), Ok(()));
    }
}

/// Path decomposition accounts for exactly the flow value.
#[test]
fn decomposition_accounts_for_value() {
    let mut rng = SplitMix64::seed_from_u64(0xDEC);
    for _ in 0..48 {
        let net = random_net(&mut rng);
        let (s, t) = (0, net.n - 1);
        let mut g = build(&net);
        let value = PushRelabel::new().max_flow(&mut g, s, t);
        let d = decompose(&g, s, t);
        assert_eq!(path_value(&d), value);
    }
}

/// Raising one capacity and resuming equals a fresh solve.
#[test]
fn resume_matches_fresh_after_increase() {
    let mut rng = SplitMix64::seed_from_u64(0x1AC);
    for _ in 0..48 {
        let net = random_net(&mut rng);
        if net.edges.is_empty() {
            continue;
        }
        let which = rng.gen_range(0..1000usize);
        let extra = rng.gen_range(1..10i64);
        let (s, t) = (0, net.n - 1);
        let mut g = build(&net);
        let mut pr = PushRelabel::new();
        pr.max_flow(&mut g, s, t);
        let e = 2 * (which % net.edges.len());
        g.set_cap(e, g.cap(e) + extra);
        let resumed = pr.resume(&mut g, s, t);

        let mut fresh = build(&net);
        fresh.set_cap(e, fresh.cap(e) + extra);
        let want = dinic::max_flow(&mut fresh, s, t);
        assert_eq!(resumed, want);
        assert_eq!(validate_flow(&g, s, t), Ok(()));
    }
}

/// Max flow equals min cut capacity over the sink-unreachable set
/// (weak duality check via the residual reachability of the final flow).
#[test]
fn max_flow_matches_residual_cut() {
    let mut rng = SplitMix64::seed_from_u64(0xC07);
    for _ in 0..48 {
        let net = random_net(&mut rng);
        let (s, t) = (0, net.n - 1);
        let mut g = build(&net);
        let value = PushRelabel::new().max_flow(&mut g, s, t);
        // Vertices reachable from s in the residual graph.
        let mut seen = vec![false; net.n];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            for &e in g.out_edges(v) {
                let e = e as usize;
                let w = g.target(e);
                if g.residual(e) > 0 && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        assert!(!seen[t], "sink reachable: flow not maximum");
        // Cut capacity across (seen, unseen) equals the flow value.
        let cut: i64 = g
            .forward_edges()
            .filter(|&e| seen[g.source(e)] && !seen[g.target(e)])
            .map(|e| g.cap(e))
            .sum();
        assert_eq!(cut, value);
        // And the min_cut module extracts the same cut.
        let mc = rds_flow::min_cut::min_cut(&g, s, t);
        assert_eq!(mc.capacity, value);
        assert_eq!(mc.source_side, seen);
        for &e in &mc.edges {
            assert_eq!(g.residual(e), 0, "cut edges must be saturated");
        }
    }
}
