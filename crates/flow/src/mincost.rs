//! Minimum-cost flow on the residual arena.
//!
//! Two algorithms over the same [`FlowGraph`] — no new graph types, the
//! CSR residual arena of `graph.rs` is the only substrate:
//!
//! * [`min_cost_max_flow`] — successive shortest paths with vertex
//!   potentials (Dijkstra over reduced costs). Classic min-cost max-flow
//!   for *static* per-edge costs; used in this workspace as the oracle
//!   that cross-checks the refiner.
//! * [`CycleCanceler`] — negative-cycle canceling against *marginal*
//!   costs. It takes a graph that already carries a feasible flow and
//!   repeatedly cancels one unit around a cost-negative residual cycle
//!   until none remains. Because cycles carry no s-t excess, the flow
//!   value is invariant — only *which* arcs carry the flow changes.
//!
//! Costs are supplied through the [`ArcCost`] trait as the marginal cost
//! of the *k*-th unit on a forward edge. Constant marginals give ordinary
//! linear arc costs; marginals non-decreasing in `k` model piecewise
//! convex congestion penalties (e.g. a per-disk load penalty that grows
//! with every additional bucket), for which one-unit cancellation is
//! exactly what makes the refiner terminate at a global optimum.

use crate::graph::{ArenaIndex, EdgeId, FlowGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-unit arc costs, queried at the margin.
///
/// `marginal(e, k)` is the cost of sending the `k`-th unit (1-based)
/// along *forward* edge `e` (an even [`EdgeId`]). Implementations must be
/// non-decreasing in `k` for the same edge — that convexity is what lets
/// [`CycleCanceler`] price the residual network one unit at a time.
pub trait ArcCost {
    /// Cost of the `k`-th unit on forward edge `e`; `k >= 1`.
    fn marginal(&self, e: EdgeId, k: i64) -> i64;
}

/// Affine marginal costs indexed by forward edge slot:
/// `marginal(e, k) = base[e] + slope[e] * (k - 1)`.
///
/// `slope[e] == 0` everywhere degenerates to plain linear arc costs;
/// `slope[e] > 0` makes edge `e` convex (each extra unit costs more).
/// Entries at odd slots are ignored.
#[derive(Clone, Copy, Debug)]
pub struct AffineCosts<'a> {
    /// Cost of the first unit on each forward edge slot.
    pub base: &'a [i64],
    /// Increase per additional unit on each forward edge slot; must be
    /// non-negative.
    pub slope: &'a [i64],
}

impl ArcCost for AffineCosts<'_> {
    #[inline]
    fn marginal(&self, e: EdgeId, k: i64) -> i64 {
        debug_assert!(e.is_multiple_of(2) && k >= 1);
        debug_assert!(self.slope[e] >= 0, "convexity requires slope >= 0");
        self.base[e] + self.slope[e] * (k - 1)
    }
}

/// Constant per-unit costs indexed by forward edge slot (odd slots
/// ignored) — the static-cost special case used by
/// [`min_cost_max_flow`].
#[derive(Clone, Copy, Debug)]
pub struct LinearCosts<'a>(pub &'a [i64]);

impl ArcCost for LinearCosts<'_> {
    #[inline]
    fn marginal(&self, e: EdgeId, _k: i64) -> i64 {
        debug_assert!(e.is_multiple_of(2));
        self.0[e]
    }
}

/// Marginal cost of pushing one more unit through residual slot `e`.
///
/// A forward slot prices its next unit; a reverse slot *refunds* the most
/// recently sent unit of its partner — the standard residual-cost rule,
/// evaluated at the margin so convex costs price correctly.
#[inline]
fn slot_cost<W: ArenaIndex, C: ArcCost>(g: &FlowGraph<W>, costs: &C, e: EdgeId) -> i64 {
    if e.is_multiple_of(2) {
        costs.marginal(e, g.flow(e) + 1)
    } else {
        -costs.marginal(e ^ 1, g.flow(e ^ 1))
    }
}

/// Cost of the `delta`-th unit canceled around `cycle`: forward slots
/// price their `flow + delta`-th unit, reverse slots refund their
/// partner's `flow − delta + 1`-th. Non-decreasing in `delta` for
/// convex marginals.
fn cycle_unit_cost<W: ArenaIndex, C: ArcCost>(
    g: &FlowGraph<W>,
    costs: &C,
    cycle: &[EdgeId],
    delta: i64,
) -> i64 {
    cycle
        .iter()
        .map(|&e| {
            if e.is_multiple_of(2) {
                costs.marginal(e, g.flow(e) + delta)
            } else {
                -costs.marginal(e ^ 1, g.flow(e ^ 1) - delta + 1)
            }
        })
        .sum()
}

/// Total cost of the flow currently stored in `g`: each forward edge
/// contributes `sum_{k=1..flow(e)} marginal(e, k)`.
pub fn flow_cost<W: ArenaIndex, C: ArcCost>(g: &FlowGraph<W>, costs: &C) -> i64 {
    let mut total = 0;
    for e in g.forward_edges() {
        let f = g.flow(e);
        for k in 1..=f {
            total += costs.marginal(e, k);
        }
    }
    total
}

/// What one [`CycleCanceler::refine`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Negative cycles canceled.
    pub cycles: u64,
    /// Unit-arc moves: units canceled times cycle length, summed over
    /// all cycles.
    pub moved: u64,
    /// Cycle searches run (Bellman-Ford sweeps), including the final
    /// one that proves no negative cycle remains.
    pub searches: u64,
}

/// Negative-cycle canceling refiner with reusable scratch buffers.
///
/// Operates in place on a graph that already holds a feasible flow:
/// each round runs a level-synchronous Bellman-Ford from a virtual
/// super-source (all distances start at zero, so every vertex is a
/// root) over the residual arcs priced by [`ArcCost`] marginals — after
/// the first full edge scan, each level only relaxes the out-edges of
/// the vertices whose distance changed in the previous level, so a
/// converged (cycle-free) check costs little more than one edge scan.
/// A surviving relaxation after `n+1` levels proves a negative cycle;
/// it is extracted from the predecessor chain and canceled by the
/// largest unit count for which every unit still has strictly negative
/// marginal cost around the cycle. Under convex ([`ArcCost`]) marginals
/// that per-unit cost is non-decreasing in the units moved, so stopping
/// at the break-even point loses nothing and each canceled unit is a
/// strict improvement.
///
/// The scratch vectors grow to the largest instance seen and are reused
/// across calls, so steady-state refinement allocates nothing.
#[derive(Debug, Default)]
pub struct CycleCanceler {
    dist: Vec<i64>,
    parent: Vec<u32>,
    cycle: Vec<EdgeId>,
    stamp: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
    sources: Vec<(i64, u32)>,
    closers: Vec<(i64, u32)>,
    round: u32,
}

impl CycleCanceler {
    /// A canceler with empty scratch.
    pub fn new() -> CycleCanceler {
        CycleCanceler::default()
    }

    /// Cancels negative residual cycles until none remains or `max_cycles`
    /// have been canceled (a safety valve against mis-specified,
    /// non-convex cost functions). The stored flow stays feasible and its
    /// s-t value is unchanged.
    pub fn refine<W: ArenaIndex, C: ArcCost>(
        &mut self,
        g: &mut FlowGraph<W>,
        costs: &C,
        max_cycles: u64,
    ) -> RefineStats {
        let mut stats = RefineStats::default();
        while stats.cycles < max_cycles && self.cancel_one(g, costs, &mut stats) {}
        stats
    }

    /// Like [`refine`](CycleCanceler::refine), but exploits a structural
    /// promise: **every arc with a nonzero marginal cost is incident to
    /// `hub`**. Then every cost-negative residual cycle passes through
    /// `hub`, and every arc of the residual graph that touches neither
    /// endpoint of `hub` costs zero — so shortest distances from `hub`
    /// collapse to "cheapest first hop that reaches you": sort the
    /// hub's out-arcs by cost and grow one zero-cost BFS per arc in
    /// that order, settling each vertex at first touch. No Bellman-Ford
    /// levels, no re-relaxation. Each search then closes cycles through
    /// the arcs back into `hub`, most negative first; after each
    /// cancellation the remaining candidate cycles are re-priced
    /// against the updated flows (a short path walk) and canceled while
    /// still negative, so one search typically cancels many cycles.
    ///
    /// The promise is the caller's to keep; it is debug-asserted on
    /// every interior arc the search crosses. Retrieval networks
    /// satisfy it with `hub` = sink (costs live only on disk→sink
    /// arcs).
    pub fn refine_via_hub<W: ArenaIndex, C: ArcCost>(
        &mut self,
        g: &mut FlowGraph<W>,
        costs: &C,
        hub: VertexId,
        max_cycles: u64,
    ) -> RefineStats {
        g.finalize();
        let mut stats = RefineStats::default();
        while stats.cycles < max_cycles
            && self.cancel_via_hub(g, costs, hub, &mut stats, max_cycles)
        {}
        stats
    }

    /// One hub search: shortest distances from `hub` (cheapest-first-hop
    /// BFS, valid because interior arcs cost zero under the hub
    /// promise), then cancel the negative cycles the closing arcs
    /// expose. Returns `false` when no negative cycle through `hub`
    /// remains.
    fn cancel_via_hub<W: ArenaIndex, C: ArcCost>(
        &mut self,
        g: &mut FlowGraph<W>,
        costs: &C,
        hub: VertexId,
        stats: &mut RefineStats,
        max_cycles: u64,
    ) -> bool {
        let n = g.num_vertices();
        stats.searches += 1;

        // Cheapest opening and closing prices over the hub's residual
        // arcs. Under the hub promise any negative cycle decomposes
        // into hub-to-hub segments — a first hop, zero-cost interior
        // arcs, a closing arc — each costing at least
        // `min_open + min_close`, so a non-negative sum proves
        // cycle-optimality right here: one scan of the hub's adjacency,
        // no arrays touched, no BFS. That scan is the entire
        // steady-state cost of re-verifying an already-optimal flow.
        let mut min_open = i64::MAX;
        let mut min_close = i64::MAX;
        let (hub_lo, hub_hi) = g.adj_bounds(hub);
        for pos in hub_lo..hub_hi {
            let e = g.edge_at(pos);
            if g.residual_at(pos) > 0 {
                min_open = min_open.min(slot_cost(g, costs, e));
            }
            if g.residual_at(g.mate_at(pos)) > 0 {
                min_close = min_close.min(slot_cost(g, costs, e ^ 1));
            }
        }
        if min_open == i64::MAX || min_close == i64::MAX || min_open + min_close >= 0 {
            return false;
        }

        self.dist.clear();
        self.dist.resize(n, i64::MAX);
        self.parent.clear();
        self.parent.resize(n, u32::MAX);
        self.dist[hub] = 0;

        // First hops worth exploring: a hop of cost `c` can only open a
        // negative segment if `c + min_close < 0`.
        self.sources.clear();
        for pos in hub_lo..hub_hi {
            if g.residual_at(pos) > 0 {
                let e = g.edge_at(pos);
                let c = slot_cost(g, costs, e);
                if c + min_close < 0 {
                    self.sources.push((c, e as u32));
                }
            }
        }

        // First hops, cheapest first. Interior arcs all cost zero, so a
        // vertex's shortest distance from `hub` is the cost of the
        // cheapest first hop from which it is residually reachable —
        // grow one zero-cost BFS per first hop in ascending cost order
        // and settle every vertex at first touch (the Dijkstra argument
        // with zero-weight interior arcs).
        self.sources.sort_unstable();
        let mut si = 0;
        while si < self.sources.len() {
            let (c, first) = self.sources[si];
            si += 1;
            let v0 = g.target(first as EdgeId);
            if self.dist[v0] != i64::MAX {
                continue;
            }
            self.dist[v0] = c;
            self.parent[v0] = first;
            self.frontier.clear();
            self.frontier.push(v0 as u32);
            let mut i = 0;
            while i < self.frontier.len() {
                let u = self.frontier[i] as usize;
                i += 1;
                let (lo, hi) = g.adj_bounds(u);
                for pos in lo..hi {
                    let v = g.target_at(pos);
                    if v == hub || g.residual_at(pos) <= 0 || self.dist[v] != i64::MAX {
                        continue;
                    }
                    let e = g.edge_at(pos);
                    debug_assert_eq!(
                        slot_cost(g, costs, e),
                        0,
                        "refine_via_hub: nonzero cost on an arc not incident to the hub"
                    );
                    self.dist[v] = c;
                    self.parent[v] = e as u32;
                    self.frontier.push(v as u32);
                }
            }
        }

        // Closing arcs: residual arcs into the hub, i.e. the partners of
        // the hub's out-slots. A negative closing sum is a negative
        // cycle: hub →(tree path)→ u →(arc)→ hub.
        self.closers.clear();
        for pos in hub_lo..hub_hi {
            // The partner of the hub's slot at `pos` runs from that
            // slot's target back into the hub.
            let u = g.target_at(pos);
            if g.residual_at(g.mate_at(pos)) <= 0 || self.dist[u] == i64::MAX {
                continue;
            }
            let p = g.edge_at(pos) ^ 1;
            let total = self.dist[u] + slot_cost(g, costs, p);
            if total < 0 {
                self.closers.push((total, p as u32));
            }
        }
        if self.closers.is_empty() {
            return false;
        }
        self.closers.sort_unstable();

        // Sweep the candidates, re-pricing each cycle against the
        // *current* flows (earlier cancellations this search may have
        // moved them): a candidate is canceled only while its first
        // unit is still strictly negative and every arc still has
        // residual. Sweeps repeat until a sweep cancels nothing —
        // path walks are a few arcs, far cheaper than another search.
        let mut canceled = false;
        loop {
            let mut progress = false;
            for ci in 0..self.closers.len() {
                let p = self.closers[ci].1 as EdgeId;
                if stats.cycles >= max_cycles {
                    return canceled;
                }
                self.cycle.clear();
                self.cycle.push(p);
                let mut v = g.source(p);
                let mut broken = false;
                while v != hub {
                    let e = self.parent[v];
                    if e == u32::MAX {
                        broken = true;
                        break;
                    }
                    self.cycle.push(e as EdgeId);
                    v = g.source(e as EdgeId);
                }
                if broken
                    || self.cycle.iter().any(|&e| g.residual(e) <= 0)
                    || cycle_unit_cost(g, costs, &self.cycle, 1) >= 0
                {
                    continue;
                }
                self.cancel_extracted(g, costs, stats);
                progress = true;
                canceled = true;
            }
            if !progress {
                return canceled;
            }
        }
    }

    /// Finds one negative cycle and cancels as many units around it as
    /// stay strictly improving. Returns `false` when the flow is
    /// already cycle-optimal.
    fn cancel_one<W: ArenaIndex, C: ArcCost>(
        &mut self,
        g: &mut FlowGraph<W>,
        costs: &C,
        stats: &mut RefineStats,
    ) -> bool {
        let n = g.num_vertices();
        let m = g.num_edge_slots();
        stats.searches += 1;
        self.dist.clear();
        self.dist.resize(n, 0);
        self.parent.clear();
        self.parent.resize(n, u32::MAX);
        self.stamp.clear();
        self.stamp.resize(n, 0);

        // Level-synchronous Bellman-Ford with an implicit super-source:
        // dist starts at 0 everywhere, so a cycle anywhere in the
        // residual graph is found. Level 0 scans every residual arc;
        // each later level relaxes only the out-edges of the previous
        // level's frontier — the same relaxations the classic all-edges
        // rounds would perform, without rescanning settled regions.
        // n+1 levels cover the virtual source hop; a relaxation
        // surviving into the final level proves a negative cycle.
        self.round += 1;
        self.next.clear();
        for e in 0..m {
            if g.residual(e) <= 0 {
                continue;
            }
            let u = g.source(e);
            let v = g.target(e);
            let nd = self.dist[u] + slot_cost(g, costs, e);
            if nd < self.dist[v] {
                self.dist[v] = nd;
                self.parent[v] = e as u32;
                if self.stamp[v] != self.round {
                    self.stamp[v] = self.round;
                    self.next.push(v as u32);
                }
            }
        }
        for _level in 1..=n {
            if self.next.is_empty() {
                return false;
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.clear();
            self.round += 1;
            let mut i = 0;
            while i < self.frontier.len() {
                let u = self.frontier[i] as usize;
                i += 1;
                for &slot in g.out_edges(u) {
                    let e = slot as EdgeId;
                    if g.residual(e) <= 0 {
                        continue;
                    }
                    let v = g.target(e);
                    let nd = self.dist[u] + slot_cost(g, costs, e);
                    if nd < self.dist[v] {
                        self.dist[v] = nd;
                        self.parent[v] = e as u32;
                        if self.stamp[v] != self.round {
                            self.stamp[v] = self.round;
                            self.next.push(v as u32);
                        }
                    }
                }
            }
        }
        let Some(&w) = self.next.last() else {
            return false;
        };
        let witness = w as usize;

        // Walk the predecessor chain from the witness until a vertex
        // repeats — that vertex closes a cycle in the parent graph, and
        // any such cycle has negative total (marginal) cost.
        self.round += 1;
        let mut cur = witness;
        loop {
            if self.parent[cur] == u32::MAX {
                return false;
            }
            if self.stamp[cur] == self.round {
                break;
            }
            self.stamp[cur] = self.round;
            cur = g.source(self.parent[cur] as EdgeId);
        }
        self.cycle.clear();
        let start = cur;
        loop {
            let e = self.parent[cur] as EdgeId;
            self.cycle.push(e);
            cur = g.source(e);
            if cur == start {
                break;
            }
        }
        self.cancel_extracted(g, costs, stats);
        true
    }

    /// Cancels the cycle currently in `self.cycle` by the break-even
    /// unit count: the u-th unit around the cycle costs
    /// Σ marginal(e, flow+u) − Σ marginal(partner, flow−u+1),
    /// non-decreasing in u under convex marginals — so grow u while the
    /// next unit is still strictly negative (the first is, by the
    /// negative-cycle guarantee) and the residual bottleneck allows it.
    fn cancel_extracted<W: ArenaIndex, C: ArcCost>(
        &mut self,
        g: &mut FlowGraph<W>,
        costs: &C,
        stats: &mut RefineStats,
    ) {
        let mut bottleneck = i64::MAX;
        for &e in &self.cycle {
            bottleneck = bottleneck.min(g.residual(e));
        }
        debug_assert!(
            cycle_unit_cost(g, costs, &self.cycle, 1) < 0,
            "extracted cycle must be negative"
        );
        let mut delta = 1i64;
        while delta < bottleneck && cycle_unit_cost(g, costs, &self.cycle, delta + 1) < 0 {
            delta += 1;
        }
        for &e in &self.cycle {
            g.push(e, delta);
        }
        stats.cycles += 1;
        stats.moved += self.cycle.len() as u64 * delta as u64;
    }
}

/// Result of [`min_cost_max_flow`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinCostFlow {
    /// Maximum flow value reached.
    pub flow: i64,
    /// Total cost of that flow under the supplied linear costs.
    pub cost: i64,
}

/// Successive shortest paths with vertex potentials: computes a maximum
/// s-t flow of minimum total cost under static per-unit costs (`costs`
/// indexed by forward edge slot, non-negative; odd slots ignored).
///
/// Each iteration runs Dijkstra over reduced costs
/// `cost(e) + pot(u) - pot(v)` — non-negative by the potential invariant
/// — then augments along the shortest path by its bottleneck residual.
/// The graph must be finalized; existing flow is zeroed first.
pub fn min_cost_max_flow<W: ArenaIndex>(
    g: &mut FlowGraph<W>,
    s: VertexId,
    t: VertexId,
    costs: &[i64],
) -> MinCostFlow {
    g.zero_flows();
    let n = g.num_vertices();
    let lin = LinearCosts(costs);
    let mut pot = vec![0i64; n];
    let mut dist = vec![i64::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
    let mut out = MinCostFlow::default();

    loop {
        dist.iter_mut().for_each(|d| *d = i64::MAX);
        parent.iter_mut().for_each(|p| *p = u32::MAX);
        dist[s] = 0;
        heap.clear();
        heap.push(Reverse((0, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &slot in g.out_edges(u) {
                let e = slot as EdgeId;
                if g.residual(e) <= 0 {
                    continue;
                }
                let v = g.target(e);
                let rc = slot_cost(g, &lin, e) + pot[u] - pot[v];
                debug_assert!(rc >= 0, "reduced cost must be non-negative");
                let nd = d + rc;
                if nd < dist[v] {
                    dist[v] = nd;
                    parent[v] = e as u32;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        if dist[t] == i64::MAX {
            return out;
        }
        for v in 0..n {
            if dist[v] < i64::MAX {
                pot[v] += dist[v];
            }
        }
        let mut bottleneck = i64::MAX;
        let mut v = t;
        while v != s {
            let e = parent[v] as EdgeId;
            bottleneck = bottleneck.min(g.residual(e));
            v = g.source(e);
        }
        let mut v = t;
        while v != s {
            let e = parent[v] as EdgeId;
            out.cost += bottleneck * slot_cost(g, &lin, e);
            g.push(e, bottleneck);
            v = g.source(e);
        }
        out.flow += bottleneck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push_relabel::PushRelabel;
    use crate::validate::validate_flow;

    /// s -> {a, b} -> t with unequal path costs; SSP must route along
    /// the cheap path first.
    fn diamond(cap: i64) -> (FlowGraph, Vec<i64>) {
        let mut g: FlowGraph = FlowGraph::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        let sa = g.add_edge(s, a, cap);
        let sb = g.add_edge(s, b, cap);
        let at = g.add_edge(a, t, cap);
        let bt = g.add_edge(b, t, cap);
        g.finalize();
        let mut costs = vec![0i64; g.num_edge_slots()];
        costs[sa] = 1;
        costs[sb] = 4;
        costs[at] = 1;
        costs[bt] = 4;
        (g, costs)
    }

    #[test]
    fn ssp_finds_min_cost_max_flow() {
        let (mut g, costs) = diamond(2);
        let r = min_cost_max_flow(&mut g, 0, 3, &costs);
        assert_eq!(r.flow, 4);
        // 2 units at cost 2 each + 2 units at cost 8 each.
        assert_eq!(r.cost, 20);
        assert_eq!(flow_cost(&g, &LinearCosts(&costs)), 20);
        validate_flow(&g, 0, 3).unwrap();
    }

    #[test]
    fn canceler_matches_ssp_on_linear_costs() {
        // Max-flow first (cost-oblivious), then cancel cycles: total cost
        // must land exactly on the SSP optimum.
        let (mut g, costs) = diamond(3);
        let mut pr = PushRelabel::new();
        assert_eq!(pr.max_flow(&mut g, 0, 3), 6);
        let lin = LinearCosts(&costs);
        let mut canceler = CycleCanceler::new();
        canceler.refine(&mut g, &lin, u64::MAX);
        let refined = flow_cost(&g, &lin);

        let (mut g2, costs2) = diamond(3);
        let oracle = min_cost_max_flow(&mut g2, 0, 3, &costs2);
        assert_eq!(refined, oracle.cost);
        validate_flow(&g, 0, 3).unwrap();
    }

    #[test]
    fn canceler_balances_convex_parallel_arcs() {
        // Two identical convex arcs a->t; start with all 4 units on one.
        let mut g: FlowGraph = FlowGraph::new(3);
        let (s, a, t) = (0, 1, 2);
        let sa = g.add_edge(s, a, 4);
        let e1 = g.add_edge(a, t, 4);
        let e2 = g.add_edge(a, t, 4);
        g.finalize();
        g.push(sa, 4);
        g.push(e1, 4);
        let mut base = vec![0i64; g.num_edge_slots()];
        let mut slope = vec![0i64; g.num_edge_slots()];
        base[e1] = 1;
        base[e2] = 1;
        slope[e1] = 1;
        slope[e2] = 1;
        let costs = AffineCosts {
            base: &base,
            slope: &slope,
        };
        let before = flow_cost(&g, &costs);
        let mut canceler = CycleCanceler::new();
        let stats = canceler.refine(&mut g, &costs, u64::MAX);
        // 1+2+3+4 = 10 on one arc vs 2*(1+2) = 6 split evenly; both
        // improving units move in one cancellation (break-even delta).
        assert_eq!(before, 10);
        assert_eq!(flow_cost(&g, &costs), 6);
        assert_eq!(g.flow(e1), 2);
        assert_eq!(g.flow(e2), 2);
        assert_eq!(stats.cycles, 1);
        assert_eq!(stats.moved, 4);
        validate_flow(&g, s, t).unwrap();
        assert_eq!(g.net_inflow(t), 4);
    }

    #[test]
    fn hub_refiner_matches_generic_refiner() {
        // Convex costs only on the arcs into t: the hub promise holds
        // with hub = t, and the hub refiner must land on the same
        // optimal cost as the generic canceler from the same start.
        let build = || {
            let mut g: FlowGraph = FlowGraph::new(4);
            let (s, a, b, t) = (0, 1, 2, 3);
            g.add_edge(s, a, 5);
            g.add_edge(s, b, 5);
            let at = g.add_edge(a, t, 5);
            let bt = g.add_edge(b, t, 5);
            let ab = g.add_edge(a, b, 5);
            g.finalize();
            let mut base = vec![0i64; g.num_edge_slots()];
            let mut slope = vec![0i64; g.num_edge_slots()];
            base[at] = 1;
            slope[at] = 3;
            base[bt] = 2;
            slope[bt] = 1;
            let _ = ab;
            (g, base, slope)
        };
        let (mut g1, base1, slope1) = build();
        let mut pr = PushRelabel::new();
        let flow = pr.max_flow(&mut g1, 0, 3);
        let (mut g2, ..) = build();
        g2.restore_flows(&g1.store_flows());

        let c1 = AffineCosts {
            base: &base1,
            slope: &slope1,
        };
        let mut generic = CycleCanceler::new();
        generic.refine(&mut g1, &c1, u64::MAX);
        let mut hubbed = CycleCanceler::new();
        hubbed.refine_via_hub(&mut g2, &c1, 3, u64::MAX);
        assert_eq!(flow_cost(&g2, &c1), flow_cost(&g1, &c1));
        validate_flow(&g2, 0, 3).unwrap();
        assert_eq!(g2.net_inflow(3), flow);
        // Re-running finds nothing: the hub refiner reached the optimum.
        let again = hubbed.refine_via_hub(&mut g2, &c1, 3, u64::MAX);
        assert_eq!((again.cycles, again.moved, again.searches), (0, 0, 1));
    }

    #[test]
    fn canceler_is_idempotent_at_optimum() {
        let (mut g, costs) = diamond(2);
        min_cost_max_flow(&mut g, 0, 3, &costs);
        let lin = LinearCosts(&costs);
        let mut canceler = CycleCanceler::new();
        let stats = canceler.refine(&mut g, &lin, u64::MAX);
        assert_eq!((stats.cycles, stats.moved), (0, 0));
        assert_eq!(stats.searches, 1);
    }

    #[test]
    fn max_cycles_bounds_the_work() {
        let (mut g, costs) = diamond(3);
        let mut pr = PushRelabel::new();
        pr.max_flow(&mut g, 0, 3);
        let mut canceler = CycleCanceler::new();
        let stats = canceler.refine(&mut g, &LinearCosts(&costs), 0);
        assert_eq!(stats.cycles, 0);
        validate_flow(&g, 0, 3).unwrap();
    }
}
