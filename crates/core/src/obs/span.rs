//! Per-query causal timelines.
//!
//! A [`QuerySpan`] is minted when a submission enters
//! [`Engine::serve`](crate::engine::Engine::serve) admission and follows
//! the query through the shard queue, batch-window coalescing, the
//! cache/delta/rebuild reuse decision, every solver probe, refinement and
//! the reply (or the rejection), recording one [`PhaseRecord`] per
//! boundary. Spans answer the question aggregate histograms cannot:
//! *why* did this particular query miss its deadline — queue wait,
//! coalescing delay, a cold solve, or a refine pass?
//!
//! A phase is a [`TraceEvent`] seen by a span: its [`EventKind`] and two
//! attribute slots. Spans are captured by the always-compiled span
//! channel inside [`Tracer`](crate::obs::trace::Tracer): the solvers and
//! the session emit their ordinary [`TraceEvent`]s, and the channel
//! records the coarse ones (solve starts, probe ends, cache hits,
//! rebuilds, delta patches and fallbacks, refine passes, budget expiry,
//! faults) on the active span. Hot per-operation events (augments,
//! relabel passes, capacity increments) and probe starts are
//! deliberately **not** recorded — their aggregate counts already live
//! in [`SolveStats`](crate::schedule::SolveStats) — so arming a span
//! costs a handful of phase pushes per solve, not per operation. Only
//! the serving loop's lifecycle marks (admission, coalescing, reply,
//! failure, rejection) are written onto spans directly.
//!
//! Phase storage is a bounded, pre-allocated `Vec` recycled by the
//! [`FlightRecorder`](crate::obs::recorder::FlightRecorder): in steady
//! state no span ever allocates. Spans only *observe* — solve results
//! are bit-identical with the span channel armed or disarmed.

use crate::obs::trace::{EventKind, TraceEvent};
use rds_storage::time::Micros;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Identity of one span: the serve [`Ticket`](crate::serve::Ticket)
/// number for admitted submissions, `0` for rejection spans (which never
/// received a ticket).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// Why a submission was rejected at admission.
///
/// Mirrors the payload-carrying [`Rejected`](crate::serve::Rejected)
/// enum as plain label data for spans and per-class metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum RejectReason {
    /// [`Rejected::QueueFull`](crate::serve::Rejected::QueueFull)
    QueueFull = 0,
    /// [`Rejected::DeadlineUnmeetable`](crate::serve::Rejected::DeadlineUnmeetable)
    DeadlineUnmeetable,
    /// [`Rejected::ShedLowPriority`](crate::serve::Rejected::ShedLowPriority)
    ShedLowPriority,
    /// [`Rejected::ShuttingDown`](crate::serve::Rejected::ShuttingDown)
    ShuttingDown,
}

impl RejectReason {
    /// Number of reasons (size of a per-reason counter array).
    pub const COUNT: usize = 4;

    /// Every reason, in discriminant order.
    pub const ALL: [RejectReason; RejectReason::COUNT] = [
        RejectReason::QueueFull,
        RejectReason::DeadlineUnmeetable,
        RejectReason::ShedLowPriority,
        RejectReason::ShuttingDown,
    ];

    /// Stable snake_case name (used as the `reason` metrics label).
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineUnmeetable => "deadline_unmeetable",
            RejectReason::ShedLowPriority => "shed_low_priority",
            RejectReason::ShuttingDown => "shutting_down",
        }
    }
}

/// One recorded phase boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseRecord {
    /// What happened.
    pub kind: EventKind,
    /// Wall-clock offset from span arming, in microseconds. Diagnostic
    /// only — never part of the deterministic digest.
    pub t_us: u64,
    /// First attribute slot (meaning per [`EventKind`]: the event's
    /// first field).
    pub a: u64,
    /// Second attribute slot.
    pub b: u64,
}

/// Terminal state of a span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SpanOutcome {
    /// Still being served (only visible in a snapshot taken mid-run).
    #[default]
    InFlight,
    /// Resolved with a schedule (possibly degraded or past deadline —
    /// see the span flags).
    Resolved,
    /// Failed with a typed error or a contained shard panic.
    Failed,
    /// Rejected at admission.
    Rejected(RejectReason),
}

impl SpanOutcome {
    /// Stable name for exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::InFlight => "in_flight",
            SpanOutcome::Resolved => "resolved",
            SpanOutcome::Failed => "failed",
            SpanOutcome::Rejected(_) => "rejected",
        }
    }

    fn digest_code(self) -> u64 {
        match self {
            SpanOutcome::InFlight => 0,
            SpanOutcome::Resolved => 1,
            SpanOutcome::Failed => 2,
            SpanOutcome::Rejected(r) => 3 + r as u64,
        }
    }
}

/// The complete causal timeline of one serve submission.
///
/// Storage is bounded: the phase buffer is pre-allocated by the
/// [`FlightRecorder`](crate::obs::recorder::FlightRecorder) and never
/// grows — past capacity, further phases are counted in
/// [`QuerySpan::dropped_phases`] instead of recorded.
#[derive(Clone, Debug, Default)]
pub struct QuerySpan {
    /// Serve ticket (0 for rejection spans).
    pub id: SpanId,
    /// Submitting stream.
    pub stream: usize,
    /// Shard that served the query (0 for rejection spans).
    pub shard: usize,
    /// [`PriorityClass`](crate::serve::PriorityClass) index.
    pub class: usize,
    /// Submission arrival time.
    pub arrival: Micros,
    /// Schedule completion time ([`Micros::ZERO`] unless resolved).
    pub completion: Micros,
    /// Wall time spent queued before the shard worker picked the query
    /// up (0 under the virtual clock).
    pub queued_us: u64,
    /// End-to-end turnaround (wall under the real clock, simulated under
    /// the virtual clock).
    pub turnaround_us: u64,
    /// Name of the solver front-end that ran, from the last
    /// [`TraceEvent::SolveStart`] ("" for cache hits and rejections).
    pub solver: &'static str,
    /// Whether the solve was a warm delta resume.
    pub delta: bool,
    /// Terminal state.
    pub outcome: SpanOutcome,
    /// Achieved-vs-optimal gap when the anytime budget expired.
    pub anytime_gap: Micros,
    /// Whether the anytime budget expired mid-solve.
    pub budget_expired: bool,
    /// Whether the serve was degraded (buckets dropped).
    pub degraded: bool,
    /// Whether the reply missed the submission's deadline.
    pub deadline_missed: bool,
    /// Phases that did not fit the bounded buffer.
    pub dropped_phases: u32,
    phases: Vec<PhaseRecord>,
}

impl QuerySpan {
    /// A span whose phase buffer holds up to `max_phases` records.
    pub fn with_capacity(max_phases: usize) -> QuerySpan {
        QuerySpan {
            phases: Vec::with_capacity(max_phases),
            ..QuerySpan::default()
        }
    }

    /// The recorded phases, in order.
    pub fn phases(&self) -> &[PhaseRecord] {
        &self.phases
    }

    /// Records one phase; counts it as dropped when the bounded buffer
    /// is full (never reallocates).
    pub(crate) fn record(&mut self, kind: EventKind, t_us: u64, a: u64, b: u64) {
        if self.phases.len() < self.phases.capacity() {
            self.phases.push(PhaseRecord { kind, t_us, a, b });
        } else {
            self.dropped_phases += 1;
        }
    }

    /// Clears everything except the phase buffer's allocation, readying
    /// the span shell for recycling.
    pub(crate) fn reset(&mut self) {
        let mut phases = std::mem::take(&mut self.phases);
        phases.clear();
        *self = QuerySpan {
            phases,
            ..QuerySpan::default()
        };
    }

    /// True when this span should survive head-sampling: a deadline
    /// miss, an expired anytime budget, a degraded serve, a failure or a
    /// rejection all keep the full timeline for postmortems.
    pub fn is_triggered(&self) -> bool {
        self.deadline_missed
            || self.budget_expired
            || self.degraded
            || matches!(self.outcome, SpanOutcome::Failed | SpanOutcome::Rejected(_))
    }

    /// Order-independent-of-wall-clock digest of the timeline: folds the
    /// phase kinds, their deterministic attributes
    /// ([`EventKind::digest_mask`]) and the span's deterministic fields.
    /// Under [`ServeClock::Virtual`](crate::serve::ServeClock::Virtual)
    /// the same submissions produce the same digests regardless of shard
    /// count.
    pub fn phase_digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.stream.hash(&mut h);
        self.class.hash(&mut h);
        self.arrival.hash(&mut h);
        self.completion.hash(&mut h);
        self.solver.hash(&mut h);
        self.delta.hash(&mut h);
        self.outcome.digest_code().hash(&mut h);
        self.anytime_gap.hash(&mut h);
        (self.budget_expired, self.degraded, self.deadline_missed).hash(&mut h);
        for p in &self.phases {
            let (use_a, use_b) = p.kind.digest_mask();
            // Fully masked kinds are skipped outright: not only their
            // attributes but their *presence* is shaped by the drain path
            // (a fused drain records a PlaneCheckout, a serial one does
            // not), so hashing the kind would leak shard count.
            if !use_a && !use_b {
                continue;
            }
            (p.kind as usize).hash(&mut h);
            if use_a {
                p.a.hash(&mut h);
            }
            if use_b {
                p.b.hash(&mut h);
            }
        }
        h.finish()
    }
}

/// The always-compiled span channel inside
/// [`Tracer`](crate::obs::trace::Tracer).
///
/// Holds at most one active span (each shard worker serves one query at
/// a time). While disarmed, observing an event is a single `Option`
/// branch; while armed, the bridged kinds cost one `Instant::now()` and
/// one bounded push each.
#[derive(Debug, Default)]
pub struct SpanCollector {
    active: Option<QuerySpan>,
    epoch: Option<Instant>,
}

impl SpanCollector {
    /// Installs `span` as the active span; subsequent observed events
    /// append phases to it. Phase timestamps are relative to this call.
    pub(crate) fn arm(&mut self, span: QuerySpan) {
        self.epoch = Some(Instant::now());
        self.active = Some(span);
    }

    /// Removes and returns the active span, if any.
    pub(crate) fn disarm(&mut self) -> Option<QuerySpan> {
        self.epoch = None;
        self.active.take()
    }

    /// Records one coarse [`TraceEvent`] on the active span. Hot
    /// per-operation events (augments, relabel passes, capacity
    /// increments), probe starts and shard batches are ignored — their
    /// aggregate counts live in [`SolveStats`](crate::schedule::SolveStats)
    /// and the tracer's per-kind counts.
    #[inline]
    pub(crate) fn observe(&mut self, event: &TraceEvent) {
        let Some(span) = self.active.as_mut() else {
            return;
        };
        let (a, b) = match *event {
            TraceEvent::SolveStart {
                query_size,
                solver,
                delta,
            } => {
                span.solver = solver;
                span.delta = delta;
                (query_size as u64, delta as u64)
            }
            TraceEvent::ProbeEnd { budget, feasible } => (budget.0, feasible as u64),
            TraceEvent::CacheHit { fingerprint } => (fingerprint, 0),
            TraceEvent::DeltaPatch { changed, cancelled } => (changed as u64, cancelled as u64),
            TraceEvent::RefinePass { cycles, moved } => (cycles as u64, moved as u64),
            TraceEvent::BudgetExpired {
                achieved,
                lower_bound,
            } => {
                span.budget_expired = true;
                span.anytime_gap = achieved - lower_bound;
                (achieved.0, lower_bound.0)
            }
            TraceEvent::DegradedServe { served, dropped } => {
                span.degraded = true;
                (served as u64, dropped as u64)
            }
            TraceEvent::RetryScheduled { attempt, probe } => (attempt as u64, probe.0),
            TraceEvent::HealthTransition { fingerprint } => (fingerprint, 0),
            TraceEvent::PlaneCheckout { shared } => (shared as u64, 0),
            TraceEvent::Rebuild { buckets } => (buckets as u64, 0),
            TraceEvent::DeltaFallback { solver_declined } => (solver_declined as u64, 0),
            TraceEvent::ProbeStart { .. }
            | TraceEvent::Augment { .. }
            | TraceEvent::RelabelPass { .. }
            | TraceEvent::CapacityIncrement { .. }
            | TraceEvent::ShardBatch { .. } => return,
        };
        let t = self.epoch.map_or(0, |e| e.elapsed().as_micros() as u64);
        span.record(event.kind(), t, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_phase_buffer_drops_instead_of_growing() {
        let mut span = QuerySpan::with_capacity(2);
        let cap = span.phases.capacity();
        for i in 0..5 {
            span.record(EventKind::ProbeEnd, i, i, 0);
        }
        assert_eq!(span.phases().len(), cap);
        assert_eq!(span.dropped_phases as usize, 5 - cap);
        span.reset();
        assert!(span.phases().is_empty());
        assert_eq!(span.phases.capacity(), cap);
        assert_eq!(span.dropped_phases, 0);
    }

    #[test]
    fn digest_ignores_wall_clock_but_not_attributes() {
        let mut a = QuerySpan::with_capacity(8);
        let mut b = QuerySpan::with_capacity(8);
        a.record(EventKind::ProbeEnd, 10, 100, 1);
        b.record(EventKind::ProbeEnd, 9999, 100, 1); // same attrs, different wall time
        a.record(EventKind::Coalesced, 0, 4, 55);
        b.record(EventKind::Coalesced, 1, 7, 99); // coalesce attrs are wall-shaped
        assert_eq!(a.phase_digest(), b.phase_digest());
        b.record(EventKind::ProbeEnd, 0, 200, 0);
        assert_ne!(a.phase_digest(), b.phase_digest());
    }

    #[test]
    fn collector_bridges_coarse_events_only() {
        let mut c = SpanCollector::default();
        c.observe(&TraceEvent::CacheHit { fingerprint: 1 }); // disarmed: no-op
        c.arm(QuerySpan::with_capacity(8));
        c.observe(&TraceEvent::SolveStart {
            query_size: 6,
            solver: "PR-binary",
            delta: true,
        });
        c.observe(&TraceEvent::Augment { bucket: 0 }); // hot: not bridged
        c.observe(&TraceEvent::ProbeEnd {
            budget: Micros(500),
            feasible: true,
        });
        c.observe(&TraceEvent::BudgetExpired {
            achieved: Micros(700),
            lower_bound: Micros(600),
        });
        let span = c.disarm().unwrap();
        assert!(c.disarm().is_none());
        let kinds: Vec<EventKind> = span.phases().iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SolveStart,
                EventKind::ProbeEnd,
                EventKind::BudgetExpired,
            ]
        );
        assert!(span.budget_expired);
        assert_eq!(span.anytime_gap, Micros(100));
        assert_eq!(span.solver, "PR-binary");
        assert!(span.delta);
        assert!(span.is_triggered());
    }

    #[test]
    fn every_reject_reason_has_a_name() {
        for r in RejectReason::ALL {
            assert!(!r.name().is_empty());
            assert_eq!(SpanOutcome::Rejected(r).name(), "rejected");
        }
    }
}
