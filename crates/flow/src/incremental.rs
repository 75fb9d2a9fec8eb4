//! The incremental max-flow interface shared by the sequential and parallel
//! push-relabel solvers.
//!
//! The paper's integrated retrieval algorithms (Algorithms 5 and 6) are
//! drivers around a max-flow engine that can **conserve flow between runs**
//! while edge capacities grow. This trait captures exactly the operations
//! those drivers need, so the drivers in `rds-core` are generic over the
//! engine and the sequential/parallel variants share one implementation.

use crate::graph::{ArenaIndex, EdgeId, FlowGraph, VertexId};

/// A max-flow engine whose state (excesses, and the flow stored in the
/// graph) survives between runs.
///
/// Generic over the arena width `W` so one engine type serves both the
/// compact and the wide layout; excesses stay `i64` regardless (they are
/// sums over edge flows and belong to the engine, not the arena).
pub trait IncrementalMaxFlow<W: ArenaIndex = i64> {
    /// Computes a maximum flow from scratch (zeroing any existing flow).
    /// Returns the flow value.
    fn max_flow(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64;

    /// Re-runs the engine **conserving** the flow currently in `g` and the
    /// engine's accumulated excesses. Callers must only have *increased*
    /// capacities since the previous run (or restored a compatible flow
    /// snapshot). Returns the new flow value.
    fn resume(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64;

    /// Accumulated excess at `v`; `excess(t)` is the current flow value.
    fn excess(&self, v: VertexId) -> i64;

    /// Overrides the excess at `v` (used when restoring flow snapshots).
    fn set_excess(&mut self, v: VertexId, x: i64);

    /// Snapshot of the excesses of vertices `0..n`, paired with
    /// `FlowGraph::checkpoint_flows` by drivers that roll state back
    /// (`StoreFlows`/`RestoreFlows` of the paper's Algorithm 6). Engines
    /// that leave excess trapped at stranded vertices (the parallel
    /// phase-1 engine) rely on the full vector being restored, not just
    /// the sink's entry.
    fn excess_snapshot(&self, n: usize) -> Vec<i64> {
        (0..n).map(|v| self.excess(v)).collect()
    }

    /// Writes the excesses of vertices `0..n` into `buf`, reusing its
    /// allocation — the allocation-free counterpart of
    /// [`IncrementalMaxFlow::excess_snapshot`] for drivers that snapshot
    /// on every failed probe.
    fn excess_snapshot_into(&self, n: usize, buf: &mut Vec<i64>);

    /// Restores a snapshot taken with
    /// [`IncrementalMaxFlow::excess_snapshot`].
    fn restore_excess(&mut self, snap: &[i64]);

    /// Cumulative `(pushes, relabels)` performed by this engine since
    /// construction. Monotonically non-decreasing across runs, so drivers
    /// attribute work to a phase by differencing before/after. Engines
    /// without operation counters return `(0, 0)`.
    fn op_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Zeroes the excesses of vertices `0..n`, preparing a reused engine
    /// for an unrelated problem that starts from a zero-flow graph via
    /// [`IncrementalMaxFlow::resume`]. Without this, excess left at the
    /// sink by the previous solve would be double-counted.
    fn reset_excess(&mut self, n: usize) {
        for v in 0..n {
            self.set_excess(v, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Residual-network surgery
//
// Delta drivers patch a warm graph from one problem instance to the next
// instead of rebuilding it. The primitives below keep the (flow, excess)
// pair a valid preflow at every step, so a subsequent
// [`IncrementalMaxFlow::resume`] — which re-queues every vertex holding
// excess — legally redistributes whatever the surgery displaced.
// ---------------------------------------------------------------------------

/// Appends a forward arc `u -> v` with the given capacity. Topology is
/// append-only, so "adding a node" to a warm network means attaching fresh
/// arcs to an existing vertex slot; the counterpart of removal is
/// cap-zeroing (see [`cancel_path`] + [`FlowGraph::set_cap`]).
pub fn attach_arc<W: ArenaIndex>(
    g: &mut FlowGraph<W>,
    u: VertexId,
    v: VertexId,
    cap: i64,
) -> EdgeId {
    g.add_edge(u, v, cap)
}

/// Retargets `e`'s capacity to `new_cap` (up or down) while a flow is
/// loaded. If the current flow exceeds the new capacity, the overflow is
/// cancelled off the edge and left as excess on the edge's source vertex —
/// a valid preflow for the next `resume`, which drains it forward or back
/// to the source. Returns the amount drained.
pub fn retarget_capacity<W: ArenaIndex, E: IncrementalMaxFlow<W> + ?Sized>(
    engine: &mut E,
    g: &mut FlowGraph<W>,
    e: EdgeId,
    new_cap: i64,
) -> i64 {
    let drained = (g.flow(e) - new_cap).max(0);
    if drained > 0 {
        let u = g.target(e ^ 1);
        let v = g.target(e);
        g.push(e ^ 1, drained);
        engine.set_excess(u, engine.excess(u) + drained);
        engine.set_excess(v, engine.excess(v) - drained);
    }
    g.set_cap(e, new_cap);
    drained
}

/// Cancels `delta` units of flow along a chain of consecutive forward
/// edges (each edge's target is the next edge's source). Interior vertices
/// lose one inflow and one outflow, so only the chain's endpoints change
/// excess: the first vertex gains `delta`, the last loses `delta`. For a
/// full source→sink chain this is exactly "send the unit back to the
/// source": the sink's excess (the flow value) drops by `delta`.
pub fn cancel_path<W: ArenaIndex, E: IncrementalMaxFlow<W> + ?Sized>(
    engine: &mut E,
    g: &mut FlowGraph<W>,
    path: &[EdgeId],
    delta: i64,
) {
    if delta <= 0 || path.is_empty() {
        return;
    }
    for &e in path {
        debug_assert!(g.flow(e) >= delta, "cancel_path exceeds flow on edge {e}");
        g.push(e ^ 1, delta);
    }
    let first = g.target(path[0] ^ 1);
    let last = g.target(path[path.len() - 1]);
    engine.set_excess(first, engine.excess(first) + delta);
    engine.set_excess(last, engine.excess(last) - delta);
}

/// Detaches vertex `v` from a loaded network: every unit of flow routed
/// through `v` is cancelled back along its own path to `s` and forward to
/// `t`, then the capacities of `v`'s forward out-arcs are zeroed so no new
/// flow can route through it. Returns `(units cancelled, arcs zeroed)`.
///
/// Requires the loaded flow to be acyclic (true for layered retrieval
/// networks); path discovery follows flow-carrying arcs greedily.
pub fn detach_vertex<W: ArenaIndex, E: IncrementalMaxFlow<W> + ?Sized>(
    engine: &mut E,
    g: &mut FlowGraph<W>,
    v: VertexId,
    s: VertexId,
    t: VertexId,
) -> (i64, usize) {
    g.finalize();
    let mut cancelled = 0;
    // Cancel throughput one unit-path at a time. Each iteration strictly
    // reduces the flow mass through `v`, so this terminates.
    while let Some(first) = flow_arc_out(g, v) {
        let mut path = vec![first];
        // Forward to t.
        let mut u = g.target(first);
        while u != t {
            let e = flow_arc_out(g, u).expect("flow conservation: interior vertex must forward");
            path.push(e);
            u = g.target(e);
        }
        // Backward to s. `flow_arc_in` returns the odd reverse slot; its
        // pair `e ^ 1` is the inbound forward edge and the odd slot's own
        // target is the feeding vertex.
        let mut u = v;
        while u != s {
            let e = flow_arc_in(g, u).expect("flow conservation: interior vertex must be fed");
            path.insert(0, e ^ 1);
            u = g.target(e);
        }
        let delta = path.iter().map(|&e| g.flow(e)).min().unwrap_or(0).max(1);
        cancel_path(engine, g, &path, delta);
        cancelled += delta;
    }
    let mut zeroed = 0;
    for idx in 0..g.out_edges(v).len() {
        let e = g.out_edges(v)[idx] as EdgeId;
        if e.is_multiple_of(2) && g.cap(e) > 0 {
            g.set_cap(e, 0);
            zeroed += 1;
        }
    }
    (cancelled, zeroed)
}

fn flow_arc_out<W: ArenaIndex>(g: &FlowGraph<W>, v: VertexId) -> Option<EdgeId> {
    g.out_edges(v)
        .iter()
        .map(|&e| e as EdgeId)
        .find(|&e| e % 2 == 0 && g.flow(e) > 0)
}

fn flow_arc_in<W: ArenaIndex>(g: &FlowGraph<W>, v: VertexId) -> Option<EdgeId> {
    // An odd slot out of `v` with positive flow on its pair is an inbound
    // forward edge currently feeding `v`.
    g.out_edges(v)
        .iter()
        .map(|&e| e as EdgeId)
        .find(|&e| e % 2 == 1 && g.flow(e ^ 1) > 0)
}

impl<W: ArenaIndex> IncrementalMaxFlow<W> for crate::push_relabel::PushRelabel {
    fn max_flow(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        crate::push_relabel::PushRelabel::max_flow(self, g, s, t)
    }

    fn resume(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        crate::push_relabel::PushRelabel::resume(self, g, s, t)
    }

    fn excess(&self, v: VertexId) -> i64 {
        crate::push_relabel::PushRelabel::excess(self, v)
    }

    fn set_excess(&mut self, v: VertexId, x: i64) {
        crate::push_relabel::PushRelabel::set_excess(self, v, x)
    }

    fn excess_snapshot_into(&self, n: usize, buf: &mut Vec<i64>) {
        crate::push_relabel::PushRelabel::excess_snapshot_into(self, n, buf)
    }

    fn restore_excess(&mut self, snap: &[i64]) {
        crate::push_relabel::PushRelabel::restore_excess(self, snap)
    }

    fn op_counts(&self) -> (u64, u64) {
        (self.stats.pushes, self.stats.relabels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ParallelPushRelabel;
    use crate::push_relabel::PushRelabel;

    fn generic_roundtrip<E: IncrementalMaxFlow>(mut engine: E) {
        let mut g: FlowGraph = FlowGraph::new(3);
        let e0 = g.add_edge(0, 1, 2);
        g.add_edge(1, 2, 10);
        assert_eq!(engine.max_flow(&mut g, 0, 2), 2);
        assert_eq!(engine.excess(2), 2);
        g.set_cap(e0, 5);
        assert_eq!(engine.resume(&mut g, 0, 2), 5);
        let mut buf = Vec::new();
        engine.excess_snapshot_into(3, &mut buf);
        assert_eq!(buf, engine.excess_snapshot(3));
        engine.set_excess(2, 0);
        assert_eq!(engine.excess(2), 0);
        // A reset engine solves a fresh zero-flow problem via resume as if
        // it were new.
        engine.reset_excess(3);
        g.zero_flows();
        assert_eq!(engine.resume(&mut g, 0, 2), 5);
    }

    #[test]
    fn sequential_implements_trait() {
        generic_roundtrip(PushRelabel::new());
    }

    #[test]
    fn parallel_implements_trait() {
        generic_roundtrip(ParallelPushRelabel::new());
    }

    /// A small layered network shaped like a retrieval instance:
    /// s -> {1,2} -> {3,4} -> t, unit arcs on the first two layers and
    /// adjustable sink-side capacities.
    fn layered() -> (FlowGraph, Vec<EdgeId>, Vec<EdgeId>) {
        let mut g: FlowGraph = FlowGraph::new(6);
        let src = vec![g.add_edge(0, 1, 1), g.add_edge(0, 2, 1)];
        g.add_edge(1, 3, 1);
        g.add_edge(1, 4, 1);
        g.add_edge(2, 4, 1);
        let sink = vec![g.add_edge(3, 5, 2), g.add_edge(4, 5, 2)];
        (g, src, sink)
    }

    fn surgery_retarget_resolves_overflow<E: IncrementalMaxFlow>(mut engine: E) {
        let (mut g, _src, sink) = layered();
        assert_eq!(engine.max_flow(&mut g, 0, 5), 2);
        // Both units could be on disk 4; force them apart by capping it.
        let drained = super::retarget_capacity(&mut engine, &mut g, sink[1], 1);
        assert!(drained <= 1);
        assert_eq!(engine.resume(&mut g, 0, 5), 2, "still feasible at cap 1");
        assert!(g.flow(sink[0]) <= 2 && g.flow(sink[1]) <= 1);
        // Cap below total supply: one unit must return to the source.
        super::retarget_capacity(&mut engine, &mut g, sink[0], 0);
        super::retarget_capacity(&mut engine, &mut g, sink[1], 1);
        assert_eq!(engine.resume(&mut g, 0, 5), 1);
        crate::validate::assert_valid_flow(&g, 0, 5);
    }

    #[test]
    fn retarget_capacity_sequential() {
        surgery_retarget_resolves_overflow(PushRelabel::new());
    }

    #[test]
    fn retarget_capacity_parallel() {
        surgery_retarget_resolves_overflow(ParallelPushRelabel::new());
    }

    fn surgery_detach_matches_fresh<E: IncrementalMaxFlow>(mut engine: E) {
        let (mut g, src, _sink) = layered();
        assert_eq!(engine.max_flow(&mut g, 0, 5), 2);
        // Remove "bucket" 1 (and its supply arc): only bucket 2 remains.
        let (cancelled, zeroed) = super::detach_vertex(&mut engine, &mut g, 1, 0, 5);
        assert_eq!(cancelled, 1);
        assert_eq!(zeroed, 2);
        g.set_cap(src[0], 0);
        assert_eq!(engine.excess(5), 1, "sink excess tracks the cancelled unit");
        assert_eq!(engine.resume(&mut g, 0, 5), 1);
        crate::validate::assert_valid_flow(&g, 0, 5);
        assert_eq!(g.flow(src[0]), 0);
    }

    #[test]
    fn detach_vertex_sequential() {
        surgery_detach_matches_fresh(PushRelabel::new());
    }

    #[test]
    fn detach_vertex_parallel() {
        surgery_detach_matches_fresh(ParallelPushRelabel::new());
    }

    #[test]
    fn cancel_path_moves_excess_to_endpoints() {
        let mut engine = PushRelabel::new();
        let mut g: FlowGraph = FlowGraph::new(4);
        let a = g.add_edge(0, 1, 3);
        let b = g.add_edge(1, 2, 3);
        let c = g.add_edge(2, 3, 3);
        assert_eq!(engine.max_flow(&mut g, 0, 3), 3);
        super::cancel_path(&mut engine, &mut g, &[a, b, c], 2);
        assert_eq!(g.flow(b), 1);
        assert_eq!(engine.excess(3), 1);
        assert_eq!(engine.excess(1), 0);
        assert_eq!(engine.excess(2), 0);
        // The cancelled capacity is still there: resume re-routes it.
        assert_eq!(engine.resume(&mut g, 0, 3), 3);
    }

    #[test]
    fn attach_arc_extends_a_warm_network() {
        let mut engine = PushRelabel::new();
        let mut g: FlowGraph = FlowGraph::new(4);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 3, 1);
        assert_eq!(engine.max_flow(&mut g, 0, 3), 1);
        // New replica arc through vertex 2.
        super::attach_arc(&mut g, 1, 2, 1);
        super::attach_arc(&mut g, 2, 3, 1);
        assert_eq!(engine.resume(&mut g, 0, 3), 2);
    }
}
