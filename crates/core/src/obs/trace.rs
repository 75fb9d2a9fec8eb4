//! Typed solver-phase event tracing.
//!
//! Every [`crate::workspace::Workspace`] carries a [`Tracer`]; the solver
//! drivers, [`crate::session::SessionState`] and the batch
//! [`crate::engine::Engine`] emit [`TraceEvent`]s through it at the
//! phase boundaries the paper's algorithms define: binary-search probes
//! (Algorithm 6 lines 12–37), augmenting-path searches (Algorithms 1–3),
//! push-relabel resumes (Algorithms 4–6), `IncrementMinCost` steps
//! (Algorithm 3), plus the serving-layer transitions (retries, health
//! changes, shard batches, the session's rebuild and delta-fallback
//! decisions).
//!
//! Events are small `Copy` values. Emission goes through exactly one
//! call — [`Tracer::emit`] — which counts the event by [`EventKind`],
//! forwards it to the span channel (one `Option` branch while no
//! [`QuerySpan`] is armed) and to the ring [`Recorder`] (one more
//! `Option` branch while none is installed). Counting is always on; the
//! ring is an opt-in event history. See the overhead contract in
//! [`crate::obs`].

use crate::obs::span::{QuerySpan, SpanCollector};
use rds_storage::time::Micros;

/// One solver-phase event.
///
/// Marked `#[non_exhaustive]`: more phases may be added, so consumers
/// must tolerate unknown variants (match with a `_` arm).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A solve began in some workspace (`query_size` buckets requested).
    /// Emitted by the workspace's solve prologue
    /// (`crate::workspace::Workspace::begin`), so every solver produces
    /// exactly one per solve.
    SolveStart {
        /// Number of buckets in the query.
        query_size: u32,
        /// Name of the solver front-end that runs the solve.
        solver: &'static str,
        /// Whether the solve resumes a warm delta-patched flow.
        delta: bool,
    },
    /// A binary-search probe of the budget range began (Algorithm 6 /
    /// black-box scaling).
    ProbeStart {
        /// The response-time budget `t_mid` being probed.
        budget: Micros,
    },
    /// The probe finished: `feasible` says whether the full flow fit the
    /// budget (infeasible probes raise `t_min`, feasible ones lower
    /// `t_max`).
    ProbeEnd {
        /// The probed budget.
        budget: Micros,
        /// Whether the probe delivered the full `|Q|` units.
        feasible: bool,
    },
    /// A successful augmenting-path search routed one unit of flow
    /// (Ford-Fulkerson solvers).
    Augment {
        /// Index of the bucket whose unit was routed, in query order.
        bucket: u32,
    },
    /// One flow-conserving push-relabel resume completed, with the
    /// push/relabel operation deltas it performed.
    RelabelPass {
        /// Push operations in this resume.
        pushes: u64,
        /// Relabel operations in this resume.
        relabels: u64,
    },
    /// One `IncrementMinCost` step raised disk-edge capacities.
    CapacityIncrement {
        /// Number of disk edges whose capacity rose (0 = exhausted).
        edges: u32,
    },
    /// The engine scheduled a replanning re-solve for an infeasible query
    /// after observing a health change at a backoff probe.
    RetryScheduled {
        /// Which retry attempt this is (1-based).
        attempt: u32,
        /// The simulated-time health probe that triggered it.
        probe: Micros,
    },
    /// The health map observed by a stream changed since its previous
    /// query (disks failed, degraded or recovered).
    HealthTransition {
        /// Order-independent digest of the new map
        /// ([`crate::fault::HealthMap::fingerprint`]).
        fingerprint: u64,
    },
    /// A best-effort degraded solve served a subset of the query.
    DegradedServe {
        /// Buckets retrieved.
        served: u32,
        /// Buckets dropped (every replica offline).
        dropped: u32,
    },
    /// One shard finished its slice of an engine batch.
    ShardBatch {
        /// Shard index.
        shard: u32,
        /// Queries the shard processed in this batch.
        queries: u32,
    },
    /// A warm workspace was delta-patched from the stream's previous
    /// query instead of rebuilt: `changed` bucket slots swapped identity
    /// and `cancelled` stale flow units were unwound through the residual
    /// network before the resume.
    DeltaPatch {
        /// Bucket slots whose identity changed in the patch.
        changed: u32,
        /// Stale flow units cancelled back to the source.
        cancelled: u32,
    },
    /// A query was answered from the stream's schedule cache without any
    /// solver work.
    CacheHit {
        /// Fingerprint of the cache key (query ⊕ health ⊕ load state).
        fingerprint: u64,
    },
    /// A min-cost refinement pass rebalanced the solved flow at the fixed
    /// optimal response time (see
    /// [`ScheduleObjective`](crate::spec::ScheduleObjective)).
    RefinePass {
        /// Negative residual cycles canceled.
        cycles: u32,
        /// Residual arcs flow was pushed along while canceling.
        moved: u32,
    },
    /// An anytime [`SolveBudget`](crate::spec::SolveBudget) expired
    /// mid-solve; the solver finalized the best feasible schedule known
    /// instead of continuing to the exact optimum.
    BudgetExpired {
        /// Response time of the schedule actually served.
        achieved: Micros,
        /// Tightest known lower bound on the optimal response time at
        /// expiry (`achieved - lower_bound` bounds the optimality gap).
        lower_bound: Micros,
    },
    /// A plane-sharing workspace staged a solve by checking out the
    /// instance's immutable CSR topology plane (Arc-shared) plus a fresh
    /// capacity/flow plane, instead of deep-copying the whole arena.
    /// Emitted only when plane sharing is enabled (the fused batch path).
    PlaneCheckout {
        /// True when the workspace already held this epoch's topology
        /// plane (steady state: the checkout copied only cap/flow values).
        shared: bool,
    },
    /// A stream's network was rebuilt in place: every cold cache miss
    /// (the workspace's network), and a warm-start stream's own network
    /// when neither a repeat of its previous bucket set nor a delta
    /// patch applied.
    Rebuild {
        /// Buckets in the rebuilt network.
        buckets: u32,
    },
    /// A warm delta resume fell back to a cold solve.
    DeltaFallback {
        /// True when the solver declined the resume, false when the
        /// instance patch itself failed.
        solver_declined: bool,
    },
}

/// Coarse classification of [`TraceEvent`]s, used for per-kind counting
/// and as the kind of every [`PhaseRecord`](crate::obs::span::PhaseRecord)
/// on a query span.
///
/// The last five kinds are the serving loop's drain lifecycle marks. They
/// have no [`TraceEvent`]: the drain writes them straight onto spans and
/// no tracer ever counts them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum EventKind {
    /// [`TraceEvent::SolveStart`]
    SolveStart = 0,
    /// [`TraceEvent::ProbeStart`]
    ProbeStart,
    /// [`TraceEvent::ProbeEnd`]
    ProbeEnd,
    /// [`TraceEvent::Augment`]
    Augment,
    /// [`TraceEvent::RelabelPass`]
    RelabelPass,
    /// [`TraceEvent::CapacityIncrement`]
    CapacityIncrement,
    /// [`TraceEvent::RetryScheduled`]
    RetryScheduled,
    /// [`TraceEvent::HealthTransition`]
    HealthTransition,
    /// [`TraceEvent::DegradedServe`]
    DegradedServe,
    /// [`TraceEvent::ShardBatch`]
    ShardBatch,
    /// [`TraceEvent::DeltaPatch`]
    DeltaPatch,
    /// [`TraceEvent::CacheHit`]
    CacheHit,
    /// [`TraceEvent::RefinePass`]
    RefinePass,
    /// [`TraceEvent::BudgetExpired`]
    BudgetExpired,
    /// [`TraceEvent::PlaneCheckout`]. Plane residency depends on shard
    /// count and the fused-vs-serial drain path, so the phase is left out
    /// of [`QuerySpan::phase_digest`].
    PlaneCheckout,
    /// [`TraceEvent::Rebuild`]
    Rebuild,
    /// [`TraceEvent::DeltaFallback`]
    DeltaFallback,
    /// Admission accepted the submission (`a` = arrival µs, `b` = class).
    Admitted,
    /// The shard worker drained the query from its queue (`a` = queries
    /// coalesced in the same drain, `b` = queue wait µs). Wall-clock
    /// shaped: left out of [`QuerySpan::phase_digest`].
    Coalesced,
    /// The response was sent (`a` = 1 when the deadline was missed).
    Reply,
    /// The solve failed with a typed error or a contained panic.
    Failed,
    /// The submission was rejected at admission (`a` = reason index).
    Rejected,
}

impl EventKind {
    /// Number of kinds (size of a per-kind counter array).
    pub const COUNT: usize = 22;

    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::SolveStart,
        EventKind::ProbeStart,
        EventKind::ProbeEnd,
        EventKind::Augment,
        EventKind::RelabelPass,
        EventKind::CapacityIncrement,
        EventKind::RetryScheduled,
        EventKind::HealthTransition,
        EventKind::DegradedServe,
        EventKind::ShardBatch,
        EventKind::DeltaPatch,
        EventKind::CacheHit,
        EventKind::RefinePass,
        EventKind::BudgetExpired,
        EventKind::PlaneCheckout,
        EventKind::Rebuild,
        EventKind::DeltaFallback,
        EventKind::Admitted,
        EventKind::Coalesced,
        EventKind::Reply,
        EventKind::Failed,
        EventKind::Rejected,
    ];

    /// Stable snake_case name (used in reports and Prometheus labels).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SolveStart => "solve_start",
            EventKind::ProbeStart => "probe_start",
            EventKind::ProbeEnd => "probe_end",
            EventKind::Augment => "augment",
            EventKind::RelabelPass => "relabel_pass",
            EventKind::CapacityIncrement => "capacity_increment",
            EventKind::RetryScheduled => "retry_scheduled",
            EventKind::HealthTransition => "health_transition",
            EventKind::DegradedServe => "degraded_serve",
            EventKind::ShardBatch => "shard_batch",
            EventKind::DeltaPatch => "delta_patch",
            EventKind::CacheHit => "cache_hit",
            EventKind::RefinePass => "refine_pass",
            EventKind::BudgetExpired => "budget_expired",
            EventKind::PlaneCheckout => "plane_checkout",
            EventKind::Rebuild => "rebuild",
            EventKind::DeltaFallback => "delta_fallback",
            EventKind::Admitted => "admitted",
            EventKind::Coalesced => "coalesced",
            EventKind::Reply => "reply",
            EventKind::Failed => "failed",
            EventKind::Rejected => "rejected",
        }
    }

    /// Which of a phase's two attribute slots are deterministic —
    /// reproducible across shard counts under
    /// [`ServeClock::Virtual`](crate::serve::ServeClock::Virtual) — and
    /// therefore folded into [`QuerySpan::phase_digest`]. Wall-clock
    /// shaped attributes (queue wait, coalesced batch size, retry probe
    /// instants, plane residency) are left out.
    pub fn digest_mask(self) -> (bool, bool) {
        match self {
            EventKind::Coalesced | EventKind::PlaneCheckout => (false, false),
            EventKind::RetryScheduled => (true, false),
            _ => (true, true),
        }
    }
}

impl TraceEvent {
    /// The kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::SolveStart { .. } => EventKind::SolveStart,
            TraceEvent::ProbeStart { .. } => EventKind::ProbeStart,
            TraceEvent::ProbeEnd { .. } => EventKind::ProbeEnd,
            TraceEvent::Augment { .. } => EventKind::Augment,
            TraceEvent::RelabelPass { .. } => EventKind::RelabelPass,
            TraceEvent::CapacityIncrement { .. } => EventKind::CapacityIncrement,
            TraceEvent::RetryScheduled { .. } => EventKind::RetryScheduled,
            TraceEvent::HealthTransition { .. } => EventKind::HealthTransition,
            TraceEvent::DegradedServe { .. } => EventKind::DegradedServe,
            TraceEvent::ShardBatch { .. } => EventKind::ShardBatch,
            TraceEvent::DeltaPatch { .. } => EventKind::DeltaPatch,
            TraceEvent::CacheHit { .. } => EventKind::CacheHit,
            TraceEvent::RefinePass { .. } => EventKind::RefinePass,
            TraceEvent::BudgetExpired { .. } => EventKind::BudgetExpired,
            TraceEvent::PlaneCheckout { .. } => EventKind::PlaneCheckout,
            TraceEvent::Rebuild { .. } => EventKind::Rebuild,
            TraceEvent::DeltaFallback { .. } => EventKind::DeltaFallback,
        }
    }
}

/// Fixed-capacity ring buffer of trace events: keeps the most recent
/// `capacity` events. Exact per-kind totals live in the [`Tracer`]
/// ([`Tracer::counts`]), not here.
///
/// Never allocates after construction — when the ring is full the oldest
/// event is overwritten and [`Recorder::dropped`] grows, so long solves
/// cannot blow up memory.
#[derive(Clone, Debug)]
pub struct Recorder {
    ring: Vec<TraceEvent>,
    /// Ring capacity (fixed at construction).
    cap: usize,
    /// Index of the next write (wraps).
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Recorder {
        let cap = capacity.max(1);
        Recorder {
            ring: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Retains one event in the ring, overwriting the oldest event once
    /// the ring is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.ring.len() < self.cap {
            self.ring.push(event);
        } else {
            self.ring[self.head] = event;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.ring.len() < self.cap {
            return self.ring.clone();
        }
        let mut out = Vec::with_capacity(self.cap);
        for i in 0..self.cap {
            out.push(self.ring[(self.head + i) % self.cap]);
        }
        out
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forgets retained events (capacity is kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// The per-workspace emission point.
///
/// Every tracer keeps exact per-kind counts of everything it emits and
/// carries the span channel — the [`SpanCollector`] the serving loop uses
/// to capture per-query timelines — plus, once
/// [`Tracer::install_recorder`] runs, a ring [`Recorder`] holding the
/// recent event history. While no span is armed and no recorder is
/// installed, an emit costs one counter increment and two `Option`
/// branches (the path the `engine_speedup` and `span_overhead` benches
/// guard).
#[derive(Debug, Default)]
pub struct Tracer {
    /// Exact totals per [`EventKind`] of every event emitted.
    counts: [u64; EventKind::COUNT],
    /// The ring recorder, when installed.
    recorder: Option<Recorder>,
    /// The span channel (see [`crate::obs::span`]).
    spans: SpanCollector,
}

impl Tracer {
    /// Emits one event. The hot-path call: inline, one counter increment,
    /// one span-channel branch while no span is armed, one recorder branch
    /// while none is installed.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        self.counts[event.kind() as usize] += 1;
        self.spans.observe(&event);
        if let Some(r) = &mut self.recorder {
            r.record(event);
        }
    }

    /// Arms `span` as the active query span: subsequent coarse emits
    /// append phases to it until [`Tracer::disarm_span`]. Called by the
    /// serving loop around each query.
    #[inline]
    pub(crate) fn arm_span(&mut self, span: QuerySpan) {
        self.spans.arm(span);
    }

    /// Removes and returns the active span (also safe after a contained
    /// solver panic — the collector survives unwinding).
    #[inline]
    pub(crate) fn disarm_span(&mut self) -> Option<QuerySpan> {
        self.spans.disarm()
    }

    /// Exact totals of every event emitted, indexed by
    /// `EventKind as usize`. The drain lifecycle kinds stay zero.
    pub fn counts(&self) -> &[u64; EventKind::COUNT] {
        &self.counts
    }

    /// Installs a ring [`Recorder`] of `capacity` events, replacing any
    /// existing one.
    pub fn install_recorder(&mut self, capacity: usize) {
        self.recorder = Some(Recorder::new(capacity));
    }

    /// Removes the recorder (further emits are still counted and reach
    /// the span channel).
    pub fn disable(&mut self) {
        self.recorder = None;
    }

    /// The installed ring recorder, if any.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    /// Mutable access to the installed ring recorder.
    pub fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.recorder.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u32) -> TraceEvent {
        TraceEvent::Augment { bucket: i }
    }

    #[test]
    fn recorder_retains_the_latest_events_in_order() {
        let mut r = Recorder::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.record(ev(i));
        }
        r.record(TraceEvent::ProbeStart {
            budget: Micros::from_millis(1),
        });
        // Capacity 3: the last three survive, in order.
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.events(),
            vec![
                ev(3),
                ev(4),
                TraceEvent::ProbeStart {
                    budget: Micros::from_millis(1)
                }
            ]
        );
        assert_eq!(r.dropped(), 3);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn recorder_under_capacity_keeps_everything() {
        let mut r = Recorder::new(8);
        for i in 0..4 {
            r.record(ev(i));
        }
        assert_eq!(r.events(), vec![ev(0), ev(1), ev(2), ev(3)]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn every_event_maps_to_its_kind() {
        let events = [
            TraceEvent::SolveStart {
                query_size: 1,
                solver: "PR-binary",
                delta: false,
            },
            TraceEvent::ProbeStart {
                budget: Micros::ZERO,
            },
            TraceEvent::ProbeEnd {
                budget: Micros::ZERO,
                feasible: true,
            },
            TraceEvent::Augment { bucket: 0 },
            TraceEvent::RelabelPass {
                pushes: 0,
                relabels: 0,
            },
            TraceEvent::CapacityIncrement { edges: 0 },
            TraceEvent::RetryScheduled {
                attempt: 1,
                probe: Micros::ZERO,
            },
            TraceEvent::HealthTransition { fingerprint: 0 },
            TraceEvent::DegradedServe {
                served: 0,
                dropped: 0,
            },
            TraceEvent::ShardBatch {
                shard: 0,
                queries: 0,
            },
            TraceEvent::DeltaPatch {
                changed: 0,
                cancelled: 0,
            },
            TraceEvent::CacheHit { fingerprint: 0 },
            TraceEvent::RefinePass {
                cycles: 0,
                moved: 0,
            },
            TraceEvent::BudgetExpired {
                achieved: Micros::ZERO,
                lower_bound: Micros::ZERO,
            },
            TraceEvent::PlaneCheckout { shared: true },
            TraceEvent::Rebuild { buckets: 0 },
            TraceEvent::DeltaFallback {
                solver_declined: true,
            },
        ];
        for (e, k) in events.iter().zip(EventKind::ALL) {
            assert_eq!(e.kind(), k);
        }
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn tracer_counts_every_emit_and_routes_to_the_installed_recorder() {
        let mut t = Tracer::default();
        assert!(t.recorder().is_none());
        t.emit(ev(0)); // counted, retained nowhere
        t.install_recorder(2);
        for i in 1..4 {
            t.emit(ev(i));
        }
        t.emit(TraceEvent::CapacityIncrement { edges: 3 });
        assert_eq!(
            t.recorder().unwrap().events(),
            vec![ev(3), TraceEvent::CapacityIncrement { edges: 3 }]
        );
        t.recorder_mut().unwrap().clear();
        assert!(t.recorder().unwrap().is_empty());
        t.disable();
        t.emit(ev(4));
        assert!(t.recorder().is_none());
        // Exact totals survive ring overwrites, clears and removal.
        assert_eq!(t.counts()[EventKind::Augment as usize], 5);
        assert_eq!(t.counts()[EventKind::CapacityIncrement as usize], 1);
        assert_eq!(t.counts().iter().sum::<u64>(), 6);
    }
}
