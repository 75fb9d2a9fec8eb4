//! Residual-network surgery on a loaded flow.
//!
//! Delta drivers patch a warm graph from one problem instance to the next
//! instead of rebuilding it. The primitives below keep the (flow, excess)
//! pair of a [`PushRelabel`] engine a valid preflow at every step, so a
//! subsequent [`PushRelabel::resume`] — which re-queues every vertex
//! holding excess — legally redistributes whatever the surgery displaced.
//! Topology is append-only: a new arc is [`FlowGraph::add_edge`], and the
//! counterpart of removal is cap-zeroing (see [`cancel_path`] +
//! [`FlowGraph::set_cap`]).

use crate::graph::{ArenaIndex, EdgeId, FlowGraph};
use crate::push_relabel::PushRelabel;

/// Retargets `e`'s capacity to `new_cap` (up or down) while a flow is
/// loaded. If the current flow exceeds the new capacity, the overflow is
/// cancelled off the edge and left as excess on the edge's source vertex —
/// a valid preflow for the next `resume`, which drains it forward or back
/// to the source. Returns the amount drained.
pub fn retarget_capacity<W: ArenaIndex>(
    engine: &mut PushRelabel,
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
pub fn cancel_path<W: ArenaIndex>(
    engine: &mut PushRelabel,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retarget_capacity_resolves_overflow() {
        // A small layered network shaped like a retrieval instance:
        // s -> {1,2} -> {3,4} -> t, unit arcs on the first two layers and
        // adjustable sink-side capacities.
        let mut g: FlowGraph = FlowGraph::new(6);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 1);
        g.add_edge(1, 3, 1);
        g.add_edge(1, 4, 1);
        g.add_edge(2, 4, 1);
        let sink = [g.add_edge(3, 5, 2), g.add_edge(4, 5, 2)];
        let mut engine = PushRelabel::new();
        assert_eq!(engine.max_flow(&mut g, 0, 5), 2);
        // Both units could be on disk 4; force them apart by capping it.
        let drained = retarget_capacity(&mut engine, &mut g, sink[1], 1);
        assert!(drained <= 1);
        assert_eq!(engine.resume(&mut g, 0, 5), 2, "still feasible at cap 1");
        assert!(g.flow(sink[0]) <= 2 && g.flow(sink[1]) <= 1);
        // Cap below total supply: one unit must return to the source.
        retarget_capacity(&mut engine, &mut g, sink[0], 0);
        retarget_capacity(&mut engine, &mut g, sink[1], 1);
        assert_eq!(engine.resume(&mut g, 0, 5), 1);
        crate::validate::assert_valid_flow(&g, 0, 5);
    }

    #[test]
    fn cancel_path_moves_excess_to_endpoints() {
        let mut engine = PushRelabel::new();
        let mut g: FlowGraph = FlowGraph::new(4);
        let a = g.add_edge(0, 1, 3);
        let b = g.add_edge(1, 2, 3);
        let c = g.add_edge(2, 3, 3);
        assert_eq!(engine.max_flow(&mut g, 0, 3), 3);
        cancel_path(&mut engine, &mut g, &[a, b, c], 2);
        assert_eq!(g.flow(b), 1);
        assert_eq!(engine.excess(3), 1);
        assert_eq!(engine.excess(1), 0);
        assert_eq!(engine.excess(2), 0);
        // The cancelled capacity is still there: resume re-routes it.
        assert_eq!(engine.resume(&mut g, 0, 3), 3);
    }

    #[test]
    fn add_edge_extends_a_warm_network() {
        let mut engine = PushRelabel::new();
        let mut g: FlowGraph = FlowGraph::new(4);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 3, 1);
        assert_eq!(engine.max_flow(&mut g, 0, 3), 1);
        // New replica arc through vertex 2.
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        assert_eq!(engine.resume(&mut g, 0, 3), 2);
    }
}
