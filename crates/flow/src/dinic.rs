//! Dinic's blocking-flow maximum-flow algorithm.
//!
//! Used throughout the workspace as an *independent oracle*: every other
//! max-flow implementation (Ford-Fulkerson, sequential push-relabel,
//! parallel push-relabel) is cross-validated against Dinic on randomized
//! networks. Dinic is also a practical fallback solver in its own right.

use crate::graph::{ArenaIndex, FlowGraph, VertexId};

/// Reusable Dinic solver state (level graph + current-arc pointers).
#[derive(Clone, Debug, Default)]
pub struct Dinic {
    level: Vec<i32>,
    iter: Vec<usize>,
    queue: Vec<u32>,
}

impl Dinic {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes a maximum flow from `s` to `t` on top of whatever flow is
    /// already present in `g` (existing flow is conserved). Returns the net
    /// inflow at `t` after completion.
    pub fn max_flow<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        s: VertexId,
        t: VertexId,
    ) -> i64 {
        assert_ne!(s, t, "source and sink must differ");
        g.finalize();
        let n = g.num_vertices();
        self.level.resize(n, -1);
        self.iter.resize(n, 0);
        loop {
            if !self.build_levels(g, s, t) {
                break;
            }
            self.iter.iter_mut().for_each(|i| *i = 0);
            while self.block(g, s, t, i64::MAX) > 0 {}
        }
        g.net_inflow(t)
    }

    /// BFS over the residual graph assigning levels; returns true if `t` is
    /// reachable.
    fn build_levels<W: ArenaIndex>(&mut self, g: &FlowGraph<W>, s: VertexId, t: VertexId) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            let (lo, hi) = g.adj_bounds(v);
            for pos in lo..hi {
                let w = g.target_at(pos);
                if self.level[w] < 0 && g.residual_at(pos) > 0 {
                    self.level[w] = self.level[v] + 1;
                    self.queue.push(w as u32);
                }
            }
        }
        self.level[t] >= 0
    }

    /// DFS pushing up to `limit` units along level-increasing edges.
    fn block<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        v: VertexId,
        t: VertexId,
        limit: i64,
    ) -> i64 {
        if v == t {
            return limit;
        }
        let (lo, hi) = g.adj_bounds(v);
        while lo + (self.iter[v] as u32) < hi {
            let pos = lo + self.iter[v] as u32;
            let w = g.target_at(pos);
            let residual = g.residual_at(pos);
            if residual > 0 && self.level[w] == self.level[v] + 1 {
                let pushed = self.block(g, w, t, limit.min(residual));
                if pushed > 0 {
                    g.push_at(pos, pushed);
                    return pushed;
                }
            }
            self.iter[v] += 1;
        }
        // Dead end: prune this vertex for the rest of the phase.
        self.level[v] = -1;
        0
    }
}

/// Convenience wrapper running [`Dinic`] from a zero flow.
pub fn max_flow<W: ArenaIndex>(g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
    g.zero_flows();
    Dinic::new().max_flow(g, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ford_fulkerson::ford_fulkerson;

    fn clrs() -> (FlowGraph, VertexId, VertexId) {
        let mut g: FlowGraph = FlowGraph::new(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 3, 12);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 4, 14);
        g.add_edge(3, 2, 9);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 3, 7);
        g.add_edge(4, 5, 4);
        (g, 0, 5)
    }

    #[test]
    fn clrs_max_flow() {
        let (mut g, s, t) = clrs();
        assert_eq!(max_flow(&mut g, s, t), 23);
    }

    #[test]
    fn agrees_with_ford_fulkerson_on_random_graphs() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.gen_range(4..20);
            let m = rng.gen_range(n..4 * n);
            let mut g: FlowGraph = FlowGraph::new(n);
            for _ in 0..m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u, v, rng.gen_range(0..20));
                }
            }
            let mut g2 = g.clone();
            let d = max_flow(&mut g, 0, n - 1);
            let f = ford_fulkerson(&mut g2, 0, n - 1);
            assert_eq!(d, f);
        }
    }

    #[test]
    fn resumes_on_existing_flow() {
        let (mut g, s, t) = clrs();
        g.push(0, 5); // partial flow s -> v1
        g.push(4, 5); // v1 -> v3
        g.push(12, 5); // v3 -> t
        assert_eq!(Dinic::new().max_flow(&mut g, s, t), 23);
    }

    #[test]
    fn zero_capacity_network() {
        let mut g: FlowGraph = FlowGraph::new(2);
        g.add_edge(0, 1, 0);
        assert_eq!(max_flow(&mut g, 0, 1), 0);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g: FlowGraph = FlowGraph::new(2);
        g.add_edge(0, 1, 3);
        g.add_edge(0, 1, 4);
        assert_eq!(max_flow(&mut g, 0, 1), 7);
    }
}
