//! # rds-flow
//!
//! A self-contained maximum-flow substrate, built from scratch as a
//! replacement for the LEDA graph library used by the original paper
//! (Altiparmak & Tosun, ICPP 2012).
//!
//! The crate provides:
//!
//! * [`graph::FlowGraph`] — a compact residual-graph arena with paired
//!   forward/reverse edges and mutable capacities, designed so that flow
//!   state can be conserved while capacities change between solver runs
//!   (the *integrated* usage pattern at the heart of the paper). Slots
//!   are stored by adjacency position, so the solvers below walk each
//!   vertex's arcs in memory order; edge ids remain the public handle.
//! * [`ford_fulkerson`] — DFS- and BFS-based augmenting-path maximum flow
//!   (Ford-Fulkerson / Edmonds-Karp).
//! * [`dinic`] — Dinic's blocking-flow algorithm, used in this workspace as
//!   an independent cross-validation oracle.
//! * [`push_relabel`] — FIFO push-relabel (Goldberg-Tarjan) with the
//!   global-relabeling ("exact height") and gap heuristics of
//!   Cherkassky-Goldberg, plus a `resume` entry point that conserves
//!   previously computed flows after capacity increases.
//! * [`incremental`] — residual-network surgery on a loaded flow
//!   (capacity retargeting, path cancellation) for warm delta solves.
//! * [`pool`] — the [`WorkerPool`] fused batch drains run on.
//! * [`mincost`] — minimum-cost flow on the same residual arena:
//!   successive shortest paths with potentials, plus a negative-cycle
//!   canceling refiner that rebalances an existing flow under linear or
//!   convex marginal arc costs without changing its value.
//! * [`validate`] — flow validation helpers shared by tests and property
//!   tests.
//!
//! All algorithms operate on the same [`graph::FlowGraph`] so results are
//! directly comparable.
//!
//! ## Example
//!
//! ```
//! use rds_flow::graph::FlowGraph;
//! use rds_flow::push_relabel::PushRelabel;
//!
//! // A diamond: s -> a -> t and s -> b -> t, all capacity 1.
//! let mut g: FlowGraph = FlowGraph::new(4);
//! let (s, a, b, t) = (0, 1, 2, 3);
//! g.add_edge(s, a, 1);
//! g.add_edge(s, b, 1);
//! g.add_edge(a, t, 1);
//! g.add_edge(b, t, 1);
//!
//! let mut pr = PushRelabel::new();
//! assert_eq!(pr.max_flow(&mut g, s, t), 2);
//! ```

pub mod decompose;
pub mod dinic;
pub mod ford_fulkerson;
pub mod graph;
pub mod incremental;
pub mod min_cut;
pub mod mincost;
pub mod pool;
pub mod push_relabel;
pub mod validate;

pub use graph::{ArenaIndex, EdgeId, FlowGraph, VertexId, WidthOverflow};
pub use mincost::{ArcCost, CycleCanceler, RefineStats};
pub use pool::WorkerPool;
