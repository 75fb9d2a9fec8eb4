//! # replicated-retrieval
//!
//! Facade crate for the reproduction of *"Integrated Maximum Flow Algorithm
//! for Optimal Response Time Retrieval of Replicated Data"* (Altiparmak &
//! Tosun, ICPP 2012).
//!
//! The workspace is organized as four library crates, re-exported here for
//! convenience:
//!
//! * [`flow`] — general maximum-flow substrate (residual graphs,
//!   Ford-Fulkerson, Dinic, FIFO push-relabel, min-cost refinement).
//! * [`storage`] — storage-system model: disks, sites, network delays,
//!   initial loads, fixed-point time arithmetic and the experiment
//!   configurations of the paper's Table IV.
//! * [`decluster`] — replicated declustering schemes (RDA, dependent
//!   periodic, orthogonal), query types and query-load generators.
//! * [`core`] — the paper's contribution: retrieval flow networks and the
//!   integrated / black-box retrieval algorithms (Algorithms 1–6).
//!
//! ## Quickstart
//!
//! ```
//! use replicated_retrieval::prelude::*;
//!
//! // 7x7 grid declustered over 7 disks per site, two sites (paper Fig. 2).
//! let alloc = OrthogonalAllocation::paper_7x7();
//! let system = paper_example();
//! let query = RangeQuery::new(0, 0, 3, 2); // the paper's q1
//! let buckets = query.buckets(7);
//!
//! let instance = RetrievalInstance::build(&system, &alloc, &buckets);
//! let outcome = PushRelabelBinary::default().solve(&instance).unwrap();
//! assert_eq!(outcome.schedule.len(), buckets.len());
//! ```
//!
//! For many queries, reuse allocations with a [`core::workspace::Workspace`]
//! (via [`core::solver::RetrievalSolver::solve_in`]), a
//! [`core::session::RetrievalSession`], or the sharded batch
//! [`core::engine::Engine`]:
//!
//! ```
//! use replicated_retrieval::prelude::*;
//!
//! let alloc = OrthogonalAllocation::paper_7x7();
//! let system = paper_example();
//! let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2);
//! let queries: Vec<BatchQuery> = (0..4)
//!     .map(|s| BatchQuery {
//!         stream: s,
//!         arrival: Micros::ZERO,
//!         buckets: RangeQuery::new(0, 0, 3, 2).buckets(7),
//!     })
//!     .collect();
//! let results = engine.submit_batch(&queries);
//! assert!(results.iter().all(|r| r.is_ok()));
//! assert_eq!(engine.stats().queries, 4);
//! ```

pub use rds_core as core;
pub use rds_decluster as decluster;
pub use rds_flow as flow;
pub use rds_storage as storage;

/// Commonly used items, re-exported in one place.
pub mod prelude {
    pub use rds_core::prelude::*;
    pub use rds_decluster::{
        allocation::{Allocation, Placement, ReplicaMap, ReplicaSource, Replicas},
        load::{GeneratedQuery, Load, QueryGenerator, QueryKind},
        orthogonal::OrthogonalAllocation,
        periodic::DependentPeriodicAllocation,
        query::{ArbitraryQuery, Bucket, Query, RangeQuery},
        rda::RandomDuplicateAllocation,
        threshold::{ThresholdAllocation, ThresholdOrthogonalAllocation},
    };
    pub use rds_flow::graph::FlowGraph;
    pub use rds_storage::{
        experiments::{experiment, paper_example, ExperimentId},
        model::{Disk, Site, SystemConfig, SystemConfigBuilder},
        specs::DiskSpec,
        time::Micros,
    };
}
