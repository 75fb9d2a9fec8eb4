//! Augmenting-path maximum flow: Ford-Fulkerson (DFS) and Edmonds-Karp
//! (BFS).
//!
//! The DFS variant mirrors the `DFS(G, v, t, caps, flow, path)` primitive of
//! the paper's Algorithms 1 and 2: it searches the *residual* graph for a
//! path between two arbitrary vertices and, on success, augments one unit
//! (or the bottleneck) of flow along it. Unlike the paper's pseudocode we do
//! not physically reverse edges — the paired-edge residual representation
//! makes `reverse_edge`/`fixReversedEdges` unnecessary while computing the
//! identical augmentations.

use crate::graph::{ArenaIndex, EdgeId, FlowGraph, VertexId};

/// Reusable state for augmenting-path searches.
///
/// Keeping the scratch buffers in a struct avoids reallocating the `visited`
/// and `path` vectors for every augmentation, which matters because the
/// retrieval algorithms perform `O(|Q|)` searches per query.
#[derive(Clone, Debug, Default)]
pub struct AugmentingPath {
    visited: Vec<u32>,
    /// Generation counter: `visited[v] == generation` means v was seen in
    /// the current search. Avoids clearing the vector between searches.
    generation: u32,
    path: Vec<EdgeId>,
    stack: Vec<(VertexId, usize)>,
    /// BFS scratch: parent edge per vertex and an indexed queue, reused so
    /// Edmonds-Karp searches allocate nothing after warm-up.
    parent: Vec<EdgeId>,
    queue: Vec<u32>,
}

impl AugmentingPath {
    /// Creates an empty search state.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.generation = 1;
        }
    }

    /// Depth-first search for a residual path `from -> to`.
    ///
    /// Returns the edges of a residual path if one exists. The path is not
    /// yet augmented; call [`AugmentingPath::augment`] or use
    /// [`AugmentingPath::dfs_augment`].
    pub fn dfs<W: ArenaIndex>(
        &mut self,
        g: &FlowGraph<W>,
        from: VertexId,
        to: VertexId,
    ) -> Option<&[EdgeId]> {
        self.dfs_avoiding(g, from, to, None)
    }

    /// Like [`AugmentingPath::dfs`] but never enters `blocked`.
    ///
    /// The paper's per-bucket search (Algorithms 1 and 2) runs from a
    /// bucket vertex to the sink with the *source excluded*: the residual
    /// reverse edges into the source would otherwise let the search
    /// "unroute" the current bucket and route a different one instead.
    pub fn dfs_avoiding<W: ArenaIndex>(
        &mut self,
        g: &FlowGraph<W>,
        from: VertexId,
        to: VertexId,
        blocked: Option<VertexId>,
    ) -> Option<&[EdgeId]> {
        assert!(g.is_finalized(), "dfs on stale topology: call finalize()");
        self.begin(g.num_vertices());
        self.path.clear();
        self.stack.clear();
        if from == to {
            return Some(&self.path);
        }
        if let Some(b) = blocked {
            self.visited[b] = self.generation;
        }
        self.visited[from] = self.generation;
        self.stack.push((from, 0));
        while let Some(&mut (v, ref mut idx)) = self.stack.last_mut() {
            let (lo, hi) = g.adj_bounds(v);
            let mut advanced = false;
            while lo as usize + *idx < hi as usize {
                let pos = lo + *idx as u32;
                *idx += 1;
                let w = g.target_at(pos);
                if g.residual_at(pos) > 0 && self.visited[w] != self.generation {
                    self.visited[w] = self.generation;
                    self.path.push(g.edge_at(pos));
                    if w == to {
                        return Some(&self.path);
                    }
                    self.stack.push((w, 0));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                self.stack.pop();
                self.path.pop();
            }
        }
        None
    }

    /// Breadth-first (shortest) residual path `from -> to`, as used by the
    /// Edmonds-Karp variant.
    pub fn bfs<W: ArenaIndex>(
        &mut self,
        g: &FlowGraph<W>,
        from: VertexId,
        to: VertexId,
    ) -> Option<Vec<EdgeId>> {
        assert!(g.is_finalized(), "bfs on stale topology: call finalize()");
        self.begin(g.num_vertices());
        let n = g.num_vertices();
        self.parent.clear();
        self.parent.resize(n, usize::MAX);
        self.queue.clear();
        self.visited[from] = self.generation;
        self.queue.push(from as u32);
        let mut head = 0;
        while head < self.queue.len() {
            let v = self.queue[head] as usize;
            head += 1;
            let (lo, hi) = g.adj_bounds(v);
            for pos in lo..hi {
                let w = g.target_at(pos);
                if g.residual_at(pos) > 0 && self.visited[w] != self.generation {
                    self.visited[w] = self.generation;
                    self.parent[w] = g.edge_at(pos);
                    if w == to {
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let pe = self.parent[cur];
                            path.push(pe);
                            cur = g.source(pe);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    self.queue.push(w as u32);
                }
            }
        }
        None
    }

    /// Augments flow along `path` by the bottleneck residual capacity and
    /// returns the amount pushed.
    pub fn augment<W: ArenaIndex>(g: &mut FlowGraph<W>, path: &[EdgeId]) -> i64 {
        let bottleneck = path.iter().map(|&e| g.residual(e)).min().unwrap_or(0);
        if bottleneck > 0 {
            for &e in path {
                g.push(e, bottleneck);
            }
        }
        bottleneck
    }

    /// Augments flow along `path` by exactly `amount` units.
    ///
    /// The retrieval algorithms always push a single unit per bucket, so the
    /// bottleneck is known to be at least 1.
    pub fn augment_by<W: ArenaIndex>(g: &mut FlowGraph<W>, path: &[EdgeId], amount: i64) {
        for &e in path {
            g.push(e, amount);
        }
    }

    /// One DFS search-and-augment step: finds a residual path and pushes the
    /// bottleneck along it. Returns the amount pushed (0 if no path).
    pub fn dfs_augment<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        from: VertexId,
        to: VertexId,
    ) -> i64 {
        self.dfs_augment_avoiding(g, from, to, None)
    }

    /// Search-and-augment variant of [`AugmentingPath::dfs_avoiding`].
    pub fn dfs_augment_avoiding<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        from: VertexId,
        to: VertexId,
        blocked: Option<VertexId>,
    ) -> i64 {
        g.finalize();
        if self.dfs_avoiding(g, from, to, blocked).is_some() {
            let path = std::mem::take(&mut self.path);
            let pushed = Self::augment(g, &path);
            self.path = path;
            pushed
        } else {
            0
        }
    }
}

/// Maximum flow via repeated DFS augmentation (Ford-Fulkerson).
///
/// Flow already present in `g` is conserved: the function only adds
/// augmenting paths on top of it, so it can be used in integrated mode.
/// Returns the *total* net inflow at `t` after augmentation.
pub fn ford_fulkerson<W: ArenaIndex>(g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
    g.finalize();
    let mut search = AugmentingPath::new();
    while search.dfs_augment(g, s, t) > 0 {}
    g.net_inflow(t)
}

/// Maximum flow via repeated shortest-path augmentation (Edmonds-Karp).
pub fn edmonds_karp<W: ArenaIndex>(g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
    g.finalize();
    let mut search = AugmentingPath::new();
    while let Some(path) = search.bfs(g, s, t) {
        let pushed = AugmentingPath::augment(g, &path);
        if pushed == 0 {
            break;
        }
    }
    g.net_inflow(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic CLRS example network, max flow 23.
    fn clrs() -> (FlowGraph, VertexId, VertexId) {
        let mut g: FlowGraph = FlowGraph::new(6);
        let (s, v1, v2, v3, v4, t) = (0, 1, 2, 3, 4, 5);
        g.add_edge(s, v1, 16);
        g.add_edge(s, v2, 13);
        g.add_edge(v1, v3, 12);
        g.add_edge(v2, v1, 4);
        g.add_edge(v2, v4, 14);
        g.add_edge(v3, v2, 9);
        g.add_edge(v3, t, 20);
        g.add_edge(v4, v3, 7);
        g.add_edge(v4, t, 4);
        g.finalize();
        (g, s, t)
    }

    #[test]
    fn clrs_max_flow_dfs() {
        let (mut g, s, t) = clrs();
        assert_eq!(ford_fulkerson(&mut g, s, t), 23);
    }

    #[test]
    fn clrs_max_flow_bfs() {
        let (mut g, s, t) = clrs();
        assert_eq!(edmonds_karp(&mut g, s, t), 23);
    }

    #[test]
    fn disconnected_has_zero_flow() {
        let mut g: FlowGraph = FlowGraph::new(3);
        g.add_edge(0, 1, 5);
        assert_eq!(ford_fulkerson(&mut g, 0, 2), 0);
    }

    #[test]
    fn conserves_existing_flow() {
        let (mut g, s, t) = clrs();
        // Pre-push 4 units along s -> v2 -> v4 -> t.
        g.push(2, 4);
        g.push(8, 4);
        g.push(16, 4);
        assert_eq!(ford_fulkerson(&mut g, s, t), 23);
    }

    #[test]
    fn dfs_uses_residual_back_edges() {
        // s -> a -> t with cap 1, s -> b, b -> a forces rerouting.
        let mut g: FlowGraph = FlowGraph::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        g.add_edge(s, a, 1);
        g.add_edge(a, t, 1);
        g.add_edge(s, b, 1);
        g.add_edge(b, t, 1);
        g.add_edge(a, b, 1);
        assert_eq!(ford_fulkerson(&mut g, s, t), 2);
    }

    #[test]
    fn path_between_intermediate_vertices() {
        let (g, _, _) = clrs();
        let mut search = AugmentingPath::new();
        // v1 -> t exists through v3.
        assert!(search.dfs(&g, 1, 5).is_some());
        // t has no outgoing residual edges initially.
        assert!(search.dfs(&g, 5, 0).is_none());
    }

    #[test]
    fn augment_returns_bottleneck() {
        let (mut g, s, t) = clrs();
        let mut search = AugmentingPath::new();
        let path: Vec<_> = search.bfs(&g, s, t).unwrap();
        let pushed = AugmentingPath::augment(&mut g, &path);
        assert!(pushed > 0);
        assert_eq!(g.net_inflow(t), pushed);
    }

    #[test]
    fn dfs_avoiding_blocks_vertex() {
        // s -> a -> t; a path from a to t through s is blocked.
        let mut g: FlowGraph = FlowGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 1);
        g.finalize();
        g.push(0, 1); // saturate s -> a, creating residual a -> s
        let mut search = AugmentingPath::new();
        // Unblocked: a -> s -> t exists via the residual back edge.
        assert!(search.dfs_avoiding(&g, 1, 2, None).is_some());
        // Blocking s removes the only route.
        assert!(search.dfs_avoiding(&g, 1, 2, Some(0)).is_none());
    }

    #[test]
    fn generation_counter_survives_many_searches() {
        let (mut g, s, t) = clrs();
        let mut search = AugmentingPath::new();
        for _ in 0..10_000 {
            let _ = search.dfs(&g, s, t);
        }
        assert_eq!(ford_fulkerson(&mut g, s, t), 23);
    }
}
