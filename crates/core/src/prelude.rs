//! One-stop import for the common surface of `rds-core` — the crate's
//! only re-export list (the `replicated-retrieval` facade re-exports it
//! whole).
//!
//! ```
//! use rds_core::prelude::*;
//! use rds_decluster::orthogonal::OrthogonalAllocation;
//! use rds_decluster::query::{Query, RangeQuery};
//! use rds_storage::experiments::paper_example;
//!
//! let system = paper_example();
//! let alloc = OrthogonalAllocation::paper_7x7();
//! let inst = RetrievalInstance::build(&system, &alloc, &RangeQuery::new(0, 0, 3, 2).buckets(7));
//! let outcome = SolverSpec::new(SolverKind::PushRelabelBinary)
//!     .build()
//!     .solve(&inst)
//!     .unwrap();
//! assert_eq!(outcome.schedule.len(), 6);
//! ```

pub use crate::blackbox::{BlackBoxFordFulkerson, BlackBoxPushRelabel};
pub use crate::engine::{
    BatchQuery, Engine, EngineBuilder, EngineMetrics, EngineStats, MetricsSnapshot, RetryPolicy,
};
pub use crate::error::{EngineError, SessionError, SolveError};
pub use crate::fault::{DiskHealth, FaultEvent, FaultInjector, HealthMap};
pub use crate::ff::{FordFulkersonBasic, FordFulkersonIncremental};
pub use crate::network::{RetrievalInstance, UnavailableBucket};
pub use crate::obs::metrics::{Histogram, LatencySummary, MetricsRegistry};
pub use crate::obs::recorder::{FlightRecorder, FlightRecorderConfig, Postmortem, RecorderStats};
pub use crate::obs::slo::{ClassSloReport, SloPolicy, SloReport, SloTarget};
pub use crate::obs::span::{PhaseRecord, QuerySpan, RejectReason, SpanId, SpanOutcome};
pub use crate::obs::trace::{EventKind, Recorder, TraceEvent, Tracer};
pub use crate::pr::{PushRelabelBinary, PushRelabelIncremental};
pub use crate::schedule::{RetrievalOutcome, Schedule, SolveStats};
pub use crate::serve::{
    PriorityClass, QueryRequest, Rejected, ServeClock, ServeConfig, ServeHandle, ServeReport,
    ServeResponse, ServeStats, Ticket,
};
pub use crate::session::{
    RetrievalSession, ReuseCounters, ReusePolicy, SessionOutcome, SessionState,
};
pub use crate::solver::RetrievalSolver;
pub use crate::spec::{
    AnySolver, ArenaLayout, ScheduleObjective, SolveBudget, SolverKind, SolverSpec,
};
pub use crate::workspace::{PoisonedWorkspace, Workspace};
