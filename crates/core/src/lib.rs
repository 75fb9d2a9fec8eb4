//! # rds-core
//!
//! The paper's contribution: **integrated maximum-flow algorithms for the
//! generalized optimal response time retrieval problem** (Altiparmak &
//! Tosun, ICPP 2012).
//!
//! Given a query (a set of buckets), a replicated declustering (which disks
//! hold each bucket) and a storage system (per-disk cost `C_j`, network
//! delay `D_j`, initial load `X_j`), the solvers compute a retrieval
//! schedule — one replica disk per bucket — minimizing the completion time
//! of the slowest disk.
//!
//! | Paper algorithm | Type |
//! |---|---|
//! | Algorithm 1 | [`ff::FordFulkersonBasic`] — basic problem, integrated FF |
//! | Algorithm 2 + 3 | [`ff::FordFulkersonIncremental`] — generalized, integrated FF |
//! | Algorithm 4 | `rds_flow::push_relabel::PushRelabel` — FIFO push-relabel engine |
//! | Algorithm 5 | [`pr::PushRelabelIncremental`] — integrated incremental PR |
//! | Algorithm 6 | [`pr::PushRelabelBinary`] — binary capacity scaling + flow conservation |
//! | Baseline \[12\] | [`blackbox::BlackBoxPushRelabel`] — binary scaling, from-scratch max-flow |
//! | Baseline \[18\] | [`blackbox::BlackBoxFordFulkerson`] — from-scratch FF per probe |
//!
//! All solvers implement [`solver::RetrievalSolver`] and return identical
//! optimal response times (they differ only in execution time), which the
//! test suite verifies extensively. Section V's parallel Algorithm 6 (Hong
//! & He's discharge on many threads) is not part of this crate: on a
//! 2-core host it ran slower than the FIFO engine (EXPERIMENTS.md,
//! Figure 10).
//!
//! Solvers are fallible (`Result<RetrievalOutcome, SolveError>`) and run
//! inside a reusable [`workspace::Workspace`] via
//! [`solver::RetrievalSolver::solve_in`]; the `solve` convenience wrapper
//! allocates a throwaway workspace. For many queries, use a
//! [`session::RetrievalSession`] (one stream with load feedback) or the
//! sharded batch [`engine::Engine`].
//!
//! One [`spec::SolverSpec`] carries the whole solve policy — solver kind,
//! cross-query reuse, schedule objective, anytime budget, arena width,
//! SLOs and fused drains — and both take it whole:
//! [`session::RetrievalSession::from_spec`] and
//! [`engine::EngineBuilder::solver_spec`]. The engine's fault handling
//! (`with_fault_injector`, `with_retry_policy`, `with_degraded_mode`) is
//! set on the built engine, because a fault schedule changes between
//! runs. Every workspace counts its trace events by kind; a ring
//! recorder of recent events is opt-in
//! ([`workspace::Workspace::install_recorder`]). [`prelude`] imports the
//! common surface in one line.
//!
//! ## Example
//!
//! ```
//! use rds_core::network::RetrievalInstance;
//! use rds_core::pr::PushRelabelBinary;
//! use rds_core::solver::RetrievalSolver;
//! use rds_decluster::orthogonal::OrthogonalAllocation;
//! use rds_decluster::query::{Query, RangeQuery};
//! use rds_storage::experiments::paper_example;
//!
//! let system = paper_example();                 // Table II, 14 disks
//! let alloc = OrthogonalAllocation::paper_7x7();
//! let q1 = RangeQuery::new(0, 0, 3, 2);         // the paper's q1
//!
//! let inst = RetrievalInstance::build(&system, &alloc, &q1.buckets(7));
//! let outcome = PushRelabelBinary::default().solve(&inst).unwrap();
//! assert_eq!(outcome.schedule.len(), 6);
//! ```

pub mod blackbox;
pub mod engine;
pub mod error;
pub mod fault;
pub mod ff;
pub mod increment;
pub mod network;
pub mod obs;
pub mod pr;
pub mod prelude;
pub(crate) mod refine;
pub mod schedule;
pub mod serve;
pub mod session;
pub mod solver;
pub mod spec;
pub mod verify;
pub mod workspace;
