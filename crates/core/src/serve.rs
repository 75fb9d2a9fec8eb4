//! Online serving loop: admission control, deadlines, backpressure.
//!
//! [`Engine::serve`] turns the batch engine into a long-running scheduler:
//! one worker per shard takes coalesced batches off a bounded submission
//! queue, while the caller submits [`QueryRequest`]s through a
//! [`ServeHandle`] and receives [`ServeResponse`]s asynchronously. Each
//! batch goes through the shard drain of [`crate::engine`] — the same
//! prepare → execute → finish path [`Engine::submit_batch`] takes, with
//! a channel send as the reply. Consecutive same-stream queries ride the
//! warm-start/delta path; with [`SolverSpec::batch_fuse`](crate::spec::SolverSpec::batch_fuse)
//! distinct streams of one batch run concurrently on pool lanes.
//!
//! A one-group drain replies as each item finishes, so a deep batch adds
//! no service time to its first items; a fused drain replies in drain
//! order once its lanes are done. A solver panic — even one whose
//! payload panics again on drop — resolves its ticket with
//! [`EngineError::ShardFailed`]; every admitted ticket resolves exactly
//! once.
//!
//! ## Admission and backpressure
//!
//! Admission is synchronous and typed: [`ServeHandle::submit`] either
//! returns a [`Ticket`] — a promise that exactly one response will carry
//! it — or a [`Rejected`] explaining why the request was turned away
//! *before* it consumed queue space:
//!
//! * [`Rejected::QueueFull`] — the stream's shard queue is at
//!   [`ServeConfig::queue_capacity`].
//! * [`Rejected::DeadlineUnmeetable`] — the SLA deadline already passed at
//!   admission time.
//! * [`Rejected::ShedLowPriority`] — the queue crossed
//!   [`ServeConfig::shed_watermark`] and the request's
//!   [`PriorityClass`] is sheddable ([`PriorityClass::Batch`]).
//! * [`Rejected::ShuttingDown`] — the loop is draining.
//!
//! ## Deadlines and anytime solves
//!
//! A request may carry an absolute SLA deadline on the serve clock. On the
//! real clock the drain tightens the engine's
//! [`SolveBudget`](crate::spec::SolveBudget) to the time remaining as the
//! request's solve starts, so an
//! overrunning solve is finalized early at the best feasible bound (the
//! achieved-vs-optimal gap lands in
//! [`SolveStats::anytime_gap`](crate::schedule::SolveStats::anytime_gap))
//! instead of blocking past the deadline.
//!
//! ## Determinism
//!
//! With [`ServeClock::Virtual`] the loop never reads wall time: arrivals
//! come from the request, fault probes use the simulated clock, and
//! budgets act on probe counts only — so, as with
//! [`Engine::submit_batch`], results are identical for every shard count.
//! [`ServeClock::Real`] trades that for liveness: arrivals, deadline
//! enforcement and fault probes all use the wall clock, so mid-flight
//! health transitions trigger replanning.

use crate::engine::{BatchQuery, DrainCtx, Engine, ProbeClock, Replies, Shard};
use crate::error::EngineError;
use crate::obs::metrics::{Histogram, LatencySummary, MetricsRegistry};
use crate::obs::recorder::{FlightRecorder, RecorderStats};
use crate::obs::slo::{SloPolicy, SloReport, SloTrackerSet};
use crate::obs::span::{RejectReason, SpanId, SpanOutcome};
use crate::obs::trace::EventKind;
use crate::schedule::SolveStats;
use crate::session::SessionOutcome;
use crate::solver::RetrievalSolver;
use rds_decluster::allocation::ReplicaSource;
use rds_decluster::query::Bucket;
use rds_storage::time::Micros;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Scheduling class of a request: who gets shed first under overload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Latency-sensitive; never shed.
    Interactive,
    /// The default class; never shed.
    #[default]
    Standard,
    /// Throughput work; shed first when the queue crosses the watermark.
    Batch,
}

impl PriorityClass {
    /// Number of classes (array dimension for per-class stats).
    pub const COUNT: usize = 3;

    /// Every class, in shed order (last is shed first).
    pub const ALL: [PriorityClass; PriorityClass::COUNT] = [
        PriorityClass::Interactive,
        PriorityClass::Standard,
        PriorityClass::Batch,
    ];

    /// Stable lowercase name (metric label).
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Batch => "batch",
        }
    }

    /// Whether overload shedding may reject this class.
    pub fn sheddable(self) -> bool {
        matches!(self, PriorityClass::Batch)
    }
}

/// One query submitted to the serving loop: the batch fields plus a
/// priority class and an optional SLA deadline.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Stream (independent session) identifier; pins the request to shard
    /// `stream % num_shards`.
    pub stream: usize,
    /// The requested buckets.
    pub buckets: Vec<Bucket>,
    /// Scheduling class (default [`PriorityClass::Standard`]).
    pub class: PriorityClass,
    /// Absolute deadline on the serve clock. Requests past it are
    /// rejected at admission; on the real clock the solve budget is
    /// tightened to the time remaining.
    pub deadline: Option<Micros>,
    /// Arrival time. Authoritative under [`ServeClock::Virtual`]
    /// (monotone non-decreasing per stream, as in
    /// [`Engine::submit_batch`]); overwritten with the admission wall
    /// time under [`ServeClock::Real`].
    pub arrival: Micros,
}

impl QueryRequest {
    /// A standard-class request with no deadline, arriving at time zero.
    pub fn new(stream: usize, buckets: Vec<Bucket>) -> QueryRequest {
        QueryRequest {
            stream,
            buckets,
            class: PriorityClass::default(),
            deadline: None,
            arrival: Micros::ZERO,
        }
    }

    /// Sets the priority class.
    pub fn class(mut self, class: PriorityClass) -> QueryRequest {
        self.class = class;
        self
    }

    /// Sets the absolute SLA deadline.
    pub fn deadline(mut self, deadline: Micros) -> QueryRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the (virtual-clock) arrival time.
    pub fn arriving_at(mut self, arrival: Micros) -> QueryRequest {
        self.arrival = arrival;
        self
    }
}

/// Typed admission rejection: why a request never entered the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rejected {
    /// The shard queue is at capacity.
    QueueFull {
        /// The full shard.
        shard: usize,
        /// Its depth at rejection.
        depth: usize,
    },
    /// The deadline already passed at admission time.
    DeadlineUnmeetable {
        /// The requested deadline.
        deadline: Micros,
        /// The serve clock when the request was admitted.
        now: Micros,
    },
    /// Overload shedding turned away a sheddable class.
    ShedLowPriority {
        /// The shed request's class.
        class: PriorityClass,
        /// Queue depth that tripped the watermark.
        depth: usize,
    },
    /// The loop is draining; no new work is admitted.
    ShuttingDown,
}

impl Rejected {
    /// The flat [`RejectReason`] of this rejection (metric label, span
    /// attribute) — the detail payload is dropped.
    pub fn reason(&self) -> RejectReason {
        match self {
            Rejected::QueueFull { .. } => RejectReason::QueueFull,
            Rejected::DeadlineUnmeetable { .. } => RejectReason::DeadlineUnmeetable,
            Rejected::ShedLowPriority { .. } => RejectReason::ShedLowPriority,
            Rejected::ShuttingDown => RejectReason::ShuttingDown,
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { shard, depth } => {
                write!(f, "shard {shard} queue full at depth {depth}")
            }
            Rejected::DeadlineUnmeetable { deadline, now } => write!(
                f,
                "deadline {}us already passed at {}us",
                deadline.as_micros(),
                now.as_micros()
            ),
            Rejected::ShedLowPriority { class, depth } => {
                write!(f, "{} request shed at depth {depth}", class.name())
            }
            Rejected::ShuttingDown => write!(f, "serving loop is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Receipt for one admitted request; its response carries the same value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// One resolved request.
#[derive(Debug)]
#[non_exhaustive]
pub struct ServeResponse {
    /// The admission receipt this response settles.
    pub ticket: Ticket,
    /// The request's stream.
    pub stream: usize,
    /// The request's priority class.
    pub class: PriorityClass,
    /// The schedule (possibly degraded/partial), or why the admitted
    /// request produced none (infeasible, solver rejection, contained
    /// panic).
    pub result: Result<SessionOutcome, EngineError>,
    /// Time the request spent queued, on the serve clock (always zero
    /// under [`ServeClock::Virtual`]).
    pub queued: Micros,
    /// Whether the request finished past its deadline.
    pub deadline_missed: bool,
}

/// Which clock drives arrivals, deadlines and fault probes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeClock {
    /// Wall clock (epoch = serve start). Mid-flight health transitions
    /// are observed; deadline budgets are enforced in wall time.
    #[default]
    Real,
    /// Simulated time from request arrivals. Fully deterministic: results
    /// are identical for every shard count, as in batch mode.
    Virtual,
}

/// Knobs of one serving run.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Maximum queued requests per shard before [`Rejected::QueueFull`]
    /// (0 serves as 1).
    pub queue_capacity: usize,
    /// Queue depth at which sheddable classes get
    /// [`Rejected::ShedLowPriority`]; `None` disables shedding.
    pub shed_watermark: Option<usize>,
    /// How long a worker waits for more arrivals before draining a
    /// non-full queue, to coalesce same-stream requests onto the
    /// warm-start/delta path (and widen fused drains). `None` drains
    /// immediately. Under [`ServeClock::Virtual`] the duration itself is
    /// meaningless — any window instead coalesces deterministically
    /// until the batch reaches [`ServeConfig::batch_max`] or admission
    /// closes, so batch composition is reproducible for any shard count.
    /// Virtual callers must therefore not block on
    /// [`ServeHandle::recv`] before either submitting `batch_max`
    /// requests to a shard or returning from the serve closure.
    pub batch_window: Option<Duration>,
    /// Maximum requests drained per wakeup (0 serves as 1).
    pub batch_max: usize,
    /// The serve clock (default [`ServeClock::Real`]).
    pub clock: ServeClock,
    /// Whether served requests get query spans recorded into the shard
    /// flight recorders (default `true`). Turning this off removes the
    /// span channel from the hot path entirely — the baseline the
    /// `span_overhead` bench measures against. Solve results are
    /// bit-identical either way.
    pub record_spans: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 1024,
            shed_watermark: None,
            batch_window: None,
            batch_max: 64,
            clock: ServeClock::default(),
            record_spans: true,
        }
    }
}

impl ServeConfig {
    /// Sets the per-shard queue capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Enables overload shedding above `depth` queued requests.
    pub fn shed_watermark(mut self, depth: usize) -> ServeConfig {
        self.shed_watermark = Some(depth);
        self
    }

    /// Sets the coalescing window (see [`ServeConfig::batch_window`] for
    /// the deterministic virtual-clock semantics).
    pub fn batch_window(mut self, window: Duration) -> ServeConfig {
        self.batch_window = Some(window);
        self
    }

    /// Sets the per-wakeup drain limit.
    pub fn batch_max(mut self, max: usize) -> ServeConfig {
        self.batch_max = max;
        self
    }

    /// Selects the serve clock.
    pub fn clock(mut self, clock: ServeClock) -> ServeConfig {
        self.clock = clock;
        self
    }

    /// Enables or disables query-span recording (default on).
    pub fn record_spans(mut self, on: bool) -> ServeConfig {
        self.record_spans = on;
        self
    }

    /// Shorthand for the deterministic simulated clock.
    pub fn virtual_time(self) -> ServeConfig {
        self.clock(ServeClock::Virtual)
    }
}

/// The serve clock: a wall epoch plus the high-water arrival mark that
/// stands in for "now" under virtual time.
struct ClockState {
    mode: ServeClock,
    epoch: Instant,
    virtual_now: AtomicU64,
}

impl ClockState {
    fn new(mode: ServeClock) -> ClockState {
        ClockState {
            mode,
            epoch: Instant::now(),
            virtual_now: AtomicU64::new(0),
        }
    }

    fn now(&self) -> Micros {
        match self.mode {
            ServeClock::Real => Micros::from_micros(self.epoch.elapsed().as_micros() as u64),
            ServeClock::Virtual => Micros::from_micros(self.virtual_now.load(Ordering::Relaxed)),
        }
    }

    fn observe_arrival(&self, arrival: Micros) {
        self.virtual_now
            .fetch_max(arrival.as_micros(), Ordering::Relaxed);
    }
}

/// What a served reply needs beyond the query itself.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Admission {
    pub(crate) ticket: Ticket,
    pub(crate) class: PriorityClass,
    pub(crate) deadline: Option<Micros>,
    pub(crate) enqueued: Instant,
}

/// One admitted request waiting in a shard queue.
struct Admitted {
    query: BatchQuery,
    admission: Admission,
}

struct QueueState {
    items: VecDeque<Admitted>,
    open: bool,
    /// High-water arrival mark (real clock): keeps per-shard admission
    /// arrivals monotone even if the wall clock reads race.
    last_arrival: Micros,
}

struct ShardQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl ShardQueue {
    fn new() -> ShardQueue {
        ShardQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                open: true,
                last_arrival: Micros::ZERO,
            }),
            cv: Condvar::new(),
        }
    }
}

#[derive(Default)]
struct AdmissionCounters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_shed: AtomicU64,
    rejected_shutdown: AtomicU64,
    max_queue_depth: AtomicU64,
    /// Rejections by `[reason][class]`, indexed like [`RejectReason::ALL`]
    /// × [`PriorityClass::ALL`] — the source of the labeled
    /// `rds_serve_rejected_total{class,reason}` counter.
    rejected_by: [[AtomicU64; PriorityClass::COUNT]; RejectReason::COUNT],
}

/// State shared between the handle (producer side) and the workers.
struct Shared {
    queues: Vec<ShardQueue>,
    clock: ClockState,
    capacity: usize,
    shed_watermark: Option<usize>,
    record_spans: bool,
    counters: AdmissionCounters,
    tickets: AtomicU64,
    /// Spans of rejected submissions plus their availability-SLO tracker.
    /// Rejections never reach a shard, so they get their own recorder;
    /// admission is already serialized per shard, and a rejection is off
    /// the hot serving path, so one extra mutex is fine here.
    rejlog: Mutex<(FlightRecorder, SloTrackerSet)>,
}

impl Shared {
    /// Accounts one admission rejection: the per-(reason, class) counter,
    /// a rejection span in the flight recorder, and an availability-SLO
    /// event.
    fn note_rejection(
        &self,
        reason: RejectReason,
        class: PriorityClass,
        stream: usize,
        arrival: Micros,
    ) {
        self.counters.rejected_by[reason as usize][class as usize].fetch_add(1, Ordering::Relaxed);
        let mut log = self.rejlog.lock().expect("rejection log mutex");
        let (recorder, slo) = &mut *log;
        let mut span = recorder.checkout();
        // A rejection never received a ticket: `SpanId(0)`, as documented,
        // so no export can show it under an admitted request's ticket.
        span.id = SpanId(0);
        span.stream = stream;
        span.shard = stream % self.queues.len();
        span.class = class as usize;
        span.arrival = arrival;
        span.completion = arrival;
        span.outcome = SpanOutcome::Rejected(reason);
        span.record(EventKind::Admitted, 0, arrival.as_micros(), class as u64);
        span.record(EventKind::Rejected, 0, reason as u64, 0);
        recorder.retire(span);
        slo.record_unavailable(class, arrival.max(self.clock.now()));
    }
}

/// The producer side of a serving run: submit requests, receive
/// responses, read the clock. Shareable across caller threads (`&self`
/// everywhere).
pub struct ServeHandle {
    shared: Arc<Shared>,
    responses: Mutex<mpsc::Receiver<ServeResponse>>,
}

impl ServeHandle {
    /// Synchronous admission: a [`Ticket`] promising exactly one
    /// [`ServeResponse`], or a typed [`Rejected`].
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, Rejected> {
        let s = &*self.shared;
        s.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let shard = req.stream % s.queues.len();
        let q = &s.queues[shard];
        let mut st = q.state.lock().expect("queue mutex");
        if !st.open {
            s.counters.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            let arrival = match s.clock.mode {
                ServeClock::Virtual => req.arrival,
                ServeClock::Real => s.clock.now(),
            };
            s.note_rejection(RejectReason::ShuttingDown, req.class, req.stream, arrival);
            return Err(Rejected::ShuttingDown);
        }
        let arrival = match s.clock.mode {
            ServeClock::Virtual => req.arrival,
            ServeClock::Real => s.clock.now().max(st.last_arrival),
        };
        if let Some(deadline) = req.deadline {
            if deadline < arrival {
                s.counters.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                s.note_rejection(
                    RejectReason::DeadlineUnmeetable,
                    req.class,
                    req.stream,
                    arrival,
                );
                return Err(Rejected::DeadlineUnmeetable {
                    deadline,
                    now: arrival,
                });
            }
        }
        let depth = st.items.len();
        if depth >= s.capacity {
            s.counters
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            s.note_rejection(RejectReason::QueueFull, req.class, req.stream, arrival);
            return Err(Rejected::QueueFull { shard, depth });
        }
        if req.class.sheddable() && s.shed_watermark.is_some_and(|w| depth >= w) {
            s.counters.rejected_shed.fetch_add(1, Ordering::Relaxed);
            s.note_rejection(
                RejectReason::ShedLowPriority,
                req.class,
                req.stream,
                arrival,
            );
            return Err(Rejected::ShedLowPriority {
                class: req.class,
                depth,
            });
        }
        if s.clock.mode == ServeClock::Virtual {
            s.clock.observe_arrival(arrival);
        } else {
            st.last_arrival = arrival;
        }
        let ticket = Ticket(s.tickets.fetch_add(1, Ordering::Relaxed) + 1);
        st.items.push_back(Admitted {
            query: BatchQuery {
                stream: req.stream,
                arrival,
                buckets: req.buckets,
            },
            admission: Admission {
                ticket,
                class: req.class,
                deadline: req.deadline,
                enqueued: Instant::now(),
            },
        });
        s.counters
            .max_queue_depth
            .fetch_max(st.items.len() as u64, Ordering::Relaxed);
        s.counters.admitted.fetch_add(1, Ordering::Relaxed);
        drop(st);
        q.cv.notify_one();
        Ok(ticket)
    }

    /// Blocks for the next response. `None` once the loop has shut down
    /// and every admitted request's response was claimed.
    pub fn recv(&self) -> Option<ServeResponse> {
        self.responses.lock().expect("receiver mutex").recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<ServeResponse> {
        self.responses
            .lock()
            .expect("receiver mutex")
            .try_recv()
            .ok()
    }

    /// The current serve-clock reading (virtual: latest arrival seen).
    pub fn now(&self) -> Micros {
        self.shared.clock.now()
    }

    /// Current depth of `shard`'s queue.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.shared.queues[shard]
            .state
            .lock()
            .expect("queue mutex")
            .items
            .len()
    }

    /// Closes admission on every queue; workers drain what was already
    /// admitted and exit. Called automatically when the serve closure
    /// returns; calling it early (e.g. from a producer thread) is safe
    /// and idempotent.
    pub fn shutdown(&self) {
        for q in &self.shared.queues {
            q.state.lock().expect("queue mutex").open = false;
            q.cv.notify_all();
        }
    }
}

/// Per-class latency and completion accounting.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ClassServeStats {
    /// Requests of this class that resolved (schedule or typed error).
    pub completed: u64,
    /// Responses of this class that finished past their deadline.
    pub deadline_misses: u64,
    /// Queue-wait time per request, µs (all zero under virtual time).
    pub queue_wait_us: Histogram,
    /// Admission→resolution time per request, µs.
    pub turnaround_us: Histogram,
}

impl ClassServeStats {
    fn merge(&mut self, other: &ClassServeStats) {
        self.completed += other.completed;
        self.deadline_misses += other.deadline_misses;
        self.queue_wait_us.merge(&other.queue_wait_us);
        self.turnaround_us.merge(&other.turnaround_us);
    }
}

/// The serve-only part of a shard's drain tally during one run.
#[derive(Debug)]
pub(crate) struct ServeTally {
    pub(crate) classes: [ClassServeStats; PriorityClass::COUNT],
    pub(crate) deadline_misses: u64,
    pub(crate) slo: SloTrackerSet,
}

impl ServeTally {
    fn new(slo: SloPolicy) -> ServeTally {
        ServeTally {
            classes: Default::default(),
            deadline_misses: 0,
            slo: SloTrackerSet::new(slo),
        }
    }

    pub(crate) fn merge(&mut self, other: &ServeTally) {
        for (into, from) in self.classes.iter_mut().zip(&other.classes) {
            into.merge(from);
        }
        self.deadline_misses += other.deadline_misses;
        self.slo.merge(&other.slo);
    }
}

/// Everything one serving run measured.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ServeStats {
    /// Submission attempts (admitted + rejected).
    pub submitted: u64,
    /// Requests that entered a queue (each resolves exactly once).
    pub admitted: u64,
    /// Responses produced.
    pub completed: u64,
    /// [`Rejected::QueueFull`] admissions.
    pub rejected_queue_full: u64,
    /// [`Rejected::DeadlineUnmeetable`] admissions.
    pub rejected_deadline: u64,
    /// [`Rejected::ShedLowPriority`] admissions.
    pub rejected_shed: u64,
    /// [`Rejected::ShuttingDown`] admissions.
    pub rejected_shutdown: u64,
    /// Responses that resolved with an error.
    pub errors: u64,
    /// Contained solver panics.
    pub panics: u64,
    /// Responses that finished past their deadline.
    pub deadline_misses: u64,
    /// Highest queue depth observed across shards.
    pub max_queue_depth: u64,
    /// Wall time of the whole serving run.
    pub elapsed: Duration,
    /// Per-class accounting, indexed like [`PriorityClass::ALL`].
    pub classes: [ClassServeStats; PriorityClass::COUNT],
    /// Solver work summed over every served request.
    pub solve_stats: SolveStats,
    /// Rejections by `[reason][class]`, indexed like [`RejectReason::ALL`]
    /// × [`PriorityClass::ALL`].
    pub rejected_by: [[u64; PriorityClass::COUNT]; RejectReason::COUNT],
    /// Error-budget burn report for the run's
    /// [`SloPolicy`] (responses and
    /// rejections both count).
    pub slo: SloReport,
    /// Flight-recorder retention accounting merged over every shard plus
    /// the rejection recorder.
    pub recorder: RecorderStats,
}

impl ServeStats {
    /// Total rejections of any kind.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_deadline
            + self.rejected_shed
            + self.rejected_shutdown
    }

    /// Fraction of submissions turned away by load shedding or a full
    /// queue (0.0 when nothing was submitted).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        (self.rejected_queue_full + self.rejected_shed) as f64 / self.submitted as f64
    }

    /// Responses per second of run wall time.
    pub fn completed_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Turnaround quantile summary of one class.
    pub fn class_latency(&self, class: PriorityClass) -> LatencySummary {
        self.classes[class as usize].turnaround_us.summary()
    }

    /// Exports the run as `rds_serve_*` metrics: admission counters, the
    /// queue-depth high-water gauge, and per-class latency histograms.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("rds_serve_submitted_total", self.submitted);
        reg.inc_counter("rds_serve_admitted_total", self.admitted);
        reg.inc_counter("rds_serve_completed_total", self.completed);
        reg.inc_counter(
            "rds_serve_rejected_queue_full_total",
            self.rejected_queue_full,
        );
        reg.inc_counter("rds_serve_rejected_deadline_total", self.rejected_deadline);
        reg.inc_counter("rds_serve_rejected_shed_total", self.rejected_shed);
        reg.inc_counter("rds_serve_rejected_shutdown_total", self.rejected_shutdown);
        reg.inc_counter("rds_serve_errors_total", self.errors);
        reg.inc_counter("rds_serve_panics_total", self.panics);
        reg.inc_counter("rds_serve_deadline_misses_total", self.deadline_misses);
        reg.inc_counter(
            "rds_serve_budget_expirations_total",
            self.solve_stats.budget_expirations,
        );
        reg.set_gauge("rds_serve_max_queue_depth", self.max_queue_depth as i64);
        reg.set_help(
            "rds_serve_rejected_total",
            "Admission rejections by reason and priority class",
        );
        for (r, reason) in RejectReason::ALL.iter().enumerate() {
            for (ci, class) in PriorityClass::ALL.iter().enumerate() {
                let n = self.rejected_by[r][ci];
                if n > 0 {
                    reg.inc_counter_labeled(
                        "rds_serve_rejected_total",
                        &[("class", class.name()), ("reason", reason.name())],
                        n,
                    );
                }
            }
        }
        reg.set_help(
            "rds_slo_latency_burn_milli",
            "Latency error-budget burn rate x1000 (1000 = burning exactly the budget)",
        );
        reg.set_help(
            "rds_slo_availability_burn_milli",
            "Availability error-budget burn rate x1000",
        );
        for (ci, class) in PriorityClass::ALL.iter().enumerate() {
            let c = &self.slo.classes[ci];
            if !c.enabled {
                continue;
            }
            let l = [("class", class.name())];
            reg.inc_counter_labeled("rds_slo_latency_events_total", &l, c.latency_events);
            reg.inc_counter_labeled("rds_slo_latency_violations_total", &l, c.latency_violations);
            reg.inc_counter_labeled(
                "rds_slo_availability_events_total",
                &l,
                c.availability_events,
            );
            reg.inc_counter_labeled(
                "rds_slo_availability_violations_total",
                &l,
                c.availability_violations,
            );
            for (window, lat, avail) in [
                (
                    "fast",
                    c.latency_burn_fast_milli,
                    c.availability_burn_fast_milli,
                ),
                (
                    "slow",
                    c.latency_burn_slow_milli,
                    c.availability_burn_slow_milli,
                ),
            ] {
                let lw = [("class", class.name()), ("window", window)];
                reg.set_gauge_labeled("rds_slo_latency_burn_milli", &lw, lat as i64);
                reg.set_gauge_labeled("rds_slo_availability_burn_milli", &lw, avail as i64);
            }
        }
        reg.inc_counter("rds_flight_retained_total", self.recorder.retained);
        reg.inc_counter("rds_flight_evicted_total", self.recorder.evicted);
        reg.inc_counter("rds_flight_recycled_total", self.recorder.recycled);
        reg.inc_counter(
            "rds_flight_dropped_phases_total",
            self.recorder.dropped_phases,
        );
        reg.inc_counter(
            "rds_flight_allocation_events_total",
            self.recorder.allocation_events,
        );
        for class in PriorityClass::ALL {
            let c = &self.classes[class as usize];
            reg.inc_counter(
                &format!("rds_serve_{}_completed_total", class.name()),
                c.completed,
            );
            reg.inc_counter(
                &format!("rds_serve_{}_deadline_misses_total", class.name()),
                c.deadline_misses,
            );
            *reg.histogram_mut(&format!("rds_serve_{}_queue_wait_us", class.name())) =
                c.queue_wait_us.clone();
            *reg.histogram_mut(&format!("rds_serve_{}_turnaround_us", class.name())) =
                c.turnaround_us.clone();
        }
        reg
    }
}

/// What [`Engine::serve`] returns: the closure's output, the run's
/// stats, and any responses the closure never claimed.
#[derive(Debug)]
#[non_exhaustive]
pub struct ServeReport<R> {
    /// The serve closure's return value.
    pub output: R,
    /// Everything the run measured.
    pub stats: ServeStats,
    /// Responses produced but not claimed via [`ServeHandle::recv`],
    /// in completion order. Together with the claimed ones, every
    /// admitted ticket appears exactly once.
    pub unclaimed: Vec<ServeResponse>,
}

impl<'a, A: ReplicaSource + Sync, S: RetrievalSolver + Sync> Engine<'a, A, S> {
    /// Runs the online serving loop: one worker per shard drains a
    /// bounded queue while `f` runs on the calling thread with a
    /// [`ServeHandle`] to submit requests and claim responses. When `f`
    /// returns, admission closes, the workers drain everything already
    /// admitted, and the run's [`ServeStats`] (plus any unclaimed
    /// responses) are returned — every admitted ticket resolves exactly
    /// once, even across solver panics.
    ///
    /// ```
    /// use rds_core::engine::Engine;
    /// use rds_core::pr::PushRelabelBinary;
    /// use rds_core::serve::{QueryRequest, ServeConfig};
    /// use rds_decluster::orthogonal::OrthogonalAllocation;
    /// use rds_decluster::query::{Query, RangeQuery};
    /// use rds_storage::experiments::paper_example;
    ///
    /// let system = paper_example();
    /// let alloc = OrthogonalAllocation::paper_7x7();
    /// let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2);
    /// let report = engine.serve(ServeConfig::default(), |handle| {
    ///     let buckets = RangeQuery::new(0, 0, 2, 3).buckets(7);
    ///     handle.submit(QueryRequest::new(0, buckets)).unwrap()
    /// });
    /// assert_eq!(report.stats.admitted, 1);
    /// assert_eq!(report.stats.completed, 1);
    /// let response = &report.unclaimed[0];
    /// assert_eq!(response.ticket, report.output);
    /// assert!(response.result.is_ok());
    /// ```
    pub fn serve<R>(
        &mut self,
        config: ServeConfig,
        f: impl FnOnce(&ServeHandle) -> R,
    ) -> ServeReport<R> {
        // The one place zeros are clamped (the fields are public): a zero
        // `batch_max` would drain nothing on every wakeup, forever, and a
        // zero capacity would admit nothing.
        let config = ServeConfig {
            queue_capacity: config.queue_capacity.max(1),
            batch_max: config.batch_max.max(1),
            ..config
        };
        let started = Instant::now();
        let num_shards = self.shards.len();
        let shared = Arc::new(Shared {
            queues: (0..num_shards).map(|_| ShardQueue::new()).collect(),
            clock: ClockState::new(config.clock),
            capacity: config.queue_capacity,
            shed_watermark: config.shed_watermark,
            record_spans: config.record_spans,
            counters: AdmissionCounters::default(),
            tickets: AtomicU64::new(0),
            // The engine's rejection recorder moves into the run (so its
            // configuration and already-retained spans carry over) and is
            // restored in the epilogue below.
            rejlog: Mutex::new((
                std::mem::take(&mut self.rejections),
                SloTrackerSet::new(self.spec.slo),
            )),
        });
        let (tx, rx) = mpsc::channel();
        let handle = ServeHandle {
            shared: Arc::clone(&shared),
            responses: Mutex::new(rx),
        };
        let clock = match config.clock {
            ServeClock::Real => ProbeClock::Wall(shared.clock.epoch),
            ServeClock::Virtual => ProbeClock::Arrival,
        };
        for shard in &mut self.shards {
            shard.tally.serve = Some(Box::new(ServeTally::new(self.spec.slo)));
        }

        let (ctx, shards) = self.split(clock);
        let output = std::thread::scope(|scope| {
            let ctx = &ctx;
            let config = &config;
            let shared = &*shared;
            for shard in shards.iter_mut() {
                let tx = tx.clone();
                scope.spawn(move || serve_worker(shard, ctx, shared, config, tx));
            }
            drop(tx);
            let output = f(&handle);
            handle.shutdown();
            output
        });

        // Every sender is gone, so this drains exactly the responses the
        // closure never claimed.
        let mut unclaimed = Vec::new();
        while let Some(r) = handle.try_recv() {
            unclaimed.push(r);
        }

        let elapsed = started.elapsed();
        let run = self.absorb_tallies(elapsed);
        let serve = *run.serve.expect("every shard carried a serve tally");
        let c = &shared.counters;
        let mut stats = ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: run.stats.queries,
            rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: c.rejected_deadline.load(Ordering::Relaxed),
            rejected_shed: c.rejected_shed.load(Ordering::Relaxed),
            rejected_shutdown: c.rejected_shutdown.load(Ordering::Relaxed),
            errors: run.stats.errors,
            panics: run.stats.shard_failures,
            deadline_misses: serve.deadline_misses,
            max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
            elapsed,
            classes: serve.classes,
            solve_stats: run.stats.solve_stats,
            ..ServeStats::default()
        };
        for (r, row) in c.rejected_by.iter().enumerate() {
            for (ci, cell) in row.iter().enumerate() {
                stats.rejected_by[r][ci] = cell.load(Ordering::Relaxed);
            }
        }
        // Reclaim the rejection log: the recorder returns to the engine
        // (for `Engine::postmortem`), the rejection SLO tracker merges
        // into the run's report.
        let mut slo = serve.slo;
        {
            let (rej_recorder, rej_slo) =
                std::mem::take(&mut *shared.rejlog.lock().expect("rejection log mutex"));
            slo.merge(&rej_slo);
            self.rejections = rej_recorder;
        }
        stats.slo = slo.report();
        for shard in &self.shards {
            stats.recorder.merge(&shard.recorder.stats());
        }
        stats.recorder.merge(&self.rejections.stats());

        ServeReport {
            output,
            stats,
            unclaimed,
        }
    }
}

/// One shard's serving loop: wait for work, take a coalesced batch FIFO
/// and drain it; every admitted item resolves exactly once.
fn serve_worker<A: ReplicaSource + ?Sized + Sync, S: RetrievalSolver + ?Sized + Sync>(
    shard: &mut Shard,
    ctx: &DrainCtx<'_, A, S>,
    shared: &Shared,
    config: &ServeConfig,
    tx: mpsc::Sender<ServeResponse>,
) {
    let queue = &shared.queues[shard.index];
    let mut queries: Vec<BatchQuery> = Vec::new();
    let mut admissions: Vec<Admission> = Vec::new();
    loop {
        {
            let mut st = queue.state.lock().expect("queue mutex");
            while st.items.is_empty() {
                if !st.open {
                    return;
                }
                st = queue.cv.wait(st).expect("queue mutex");
            }
            // Coalescing window: give closely-spaced arrivals one chance
            // to land in the same drain, so consecutive same-stream
            // queries ride the warm-start/delta path (and fused drains
            // see wider batches).
            match (config.batch_window, shared.clock.mode) {
                (Some(window), ServeClock::Real) => {
                    if st.items.len() < config.batch_max && st.open {
                        let (back, _) = queue.cv.wait_timeout(st, window).expect("queue mutex");
                        st = back;
                    }
                }
                (Some(_), ServeClock::Virtual) => {
                    // Virtual time has no "window elapsed" signal, so the
                    // window coalesces up to the only two deterministic
                    // boundaries: the batch filling to `batch_max`, or
                    // admission closing. This makes batch composition —
                    // and therefore fused-drain digests — reproducible
                    // for any shard count.
                    while st.items.len() < config.batch_max && st.open {
                        st = queue.cv.wait(st).expect("queue mutex");
                    }
                }
                (None, _) => {}
            }
            let take = st.items.len().min(config.batch_max);
            for item in st.items.drain(..take) {
                queries.push(item.query);
                admissions.push(item.admission);
            }
        }
        shard.drain(
            ctx,
            &queries,
            &mut Replies::Channel {
                tx: &tx,
                admissions: &admissions,
                record_spans: shared.record_spans,
            },
        );
        queries.clear();
        admissions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RetryPolicy;
    use crate::fault::{DiskHealth, FaultInjector};
    use crate::pr::PushRelabelBinary;
    use crate::spec::{SolveBudget, SolverKind, SolverSpec};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::model::SystemConfig;
    use rds_storage::specs::CHEETAH;
    use std::collections::HashSet;

    fn setup() -> (SystemConfig, OrthogonalAllocation) {
        (
            SystemConfig::homogeneous(CHEETAH, 5),
            OrthogonalAllocation::new(5, Placement::SingleSite),
        )
    }

    #[test]
    fn every_admitted_ticket_resolves_exactly_once() {
        let (system, alloc) = setup();
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            let mut tickets = HashSet::new();
            for k in 0..20u64 {
                let q = RangeQuery::new((k % 5) as usize, 0, 1, 2).buckets(5);
                let req = QueryRequest::new((k % 4) as usize, q)
                    .arriving_at(Micros::from_millis(k / 4 * 2));
                tickets.insert(h.submit(req).unwrap());
            }
            tickets
        });
        assert_eq!(report.stats.admitted, 20);
        assert_eq!(report.stats.completed, 20);
        assert_eq!(report.stats.errors, 0);
        let resolved: HashSet<Ticket> = report.unclaimed.iter().map(|r| r.ticket).collect();
        assert_eq!(resolved, report.output);
        assert_eq!(report.unclaimed.len(), 20, "no duplicate resolutions");
    }

    #[test]
    fn virtual_serving_matches_submit_batch() {
        let (system, alloc) = setup();
        let queries: Vec<BatchQuery> = (0..12)
            .map(|k| BatchQuery {
                stream: k % 3,
                arrival: Micros::from_millis((k / 3) as u64 * 2),
                buckets: RangeQuery::new(k % 5, (k + 1) % 5, 1 + k % 2, 2).buckets(5),
            })
            .collect();
        let mut batch_engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        let want: Vec<Micros> = batch_engine
            .submit_batch(&queries)
            .into_iter()
            .map(|r| r.unwrap().outcome.response_time)
            .collect();
        for shards in [1usize, 2, 4] {
            let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, shards);
            let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
                queries
                    .iter()
                    .map(|q| {
                        h.submit(
                            QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival),
                        )
                        .unwrap()
                    })
                    .collect::<Vec<_>>()
            });
            let mut by_ticket: Vec<(Ticket, Micros)> = report
                .unclaimed
                .iter()
                .map(|r| (r.ticket, r.result.as_ref().unwrap().outcome.response_time))
                .collect();
            by_ticket.sort();
            let got: Vec<Micros> = by_ticket.into_iter().map(|(_, t)| t).collect();
            assert_eq!(got, want, "{shards} shards");
        }
    }

    #[test]
    fn queue_full_and_shutdown_rejections_are_typed() {
        let (system, alloc) = setup();
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        let buckets = RangeQuery::new(0, 0, 1, 1).buckets(5);
        // Submit from a producer thread while the single worker is held
        // idle only by queue pressure — capacity 1 forces QueueFull once
        // at least one item is waiting. To make it deterministic, close
        // admission first and observe ShuttingDown.
        let report = engine.serve(
            ServeConfig::default().virtual_time().queue_capacity(1),
            |h| {
                h.shutdown();
                let err = h.submit(QueryRequest::new(0, buckets.clone())).unwrap_err();
                assert_eq!(err, Rejected::ShuttingDown);
            },
        );
        assert_eq!(report.stats.rejected_shutdown, 1);
        assert_eq!(report.stats.admitted, 0);
        assert_eq!(report.stats.completed, 0);
    }

    #[test]
    fn past_deadline_rejected_at_admission() {
        let (system, alloc) = setup();
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        let buckets = RangeQuery::new(0, 0, 1, 1).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            let err = h
                .submit(
                    QueryRequest::new(0, buckets.clone())
                        .arriving_at(Micros::from_millis(10))
                        .deadline(Micros::from_millis(5)),
                )
                .unwrap_err();
            assert_eq!(
                err,
                Rejected::DeadlineUnmeetable {
                    deadline: Micros::from_millis(5),
                    now: Micros::from_millis(10),
                }
            );
        });
        assert_eq!(report.stats.rejected_deadline, 1);
    }

    #[test]
    fn batch_class_is_shed_above_the_watermark() {
        let (system, alloc) = setup();
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        let buckets = RangeQuery::new(0, 0, 1, 1).buckets(5);
        // Watermark 0: every Batch request sheds, other classes sail.
        let report = engine.serve(
            ServeConfig::default().virtual_time().shed_watermark(0),
            |h| {
                let shed = h
                    .submit(QueryRequest::new(0, buckets.clone()).class(PriorityClass::Batch))
                    .unwrap_err();
                assert!(matches!(shed, Rejected::ShedLowPriority { .. }));
                h.submit(QueryRequest::new(0, buckets.clone()).class(PriorityClass::Interactive))
                    .unwrap();
            },
        );
        assert_eq!(report.stats.rejected_shed, 1);
        assert_eq!(report.stats.completed, 1);
        let interactive = &report.stats.classes[PriorityClass::Interactive as usize];
        assert_eq!(interactive.completed, 1);
    }

    #[test]
    fn coalesced_same_stream_requests_hit_the_delta_path() {
        let (system, alloc) = setup();
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(SolverSpec::new(SolverKind::PushRelabelBinary).reuse(
                crate::session::ReusePolicy {
                    warm_start: true,
                    cache_capacity: 0,
                },
            ))
            .build();
        let q1 = RangeQuery::new(0, 0, 2, 3).buckets(5);
        let q2 = RangeQuery::new(0, 1, 2, 3).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            h.submit(QueryRequest::new(0, q1.clone())).unwrap();
            h.submit(QueryRequest::new(0, q2.clone()).arriving_at(Micros::from_millis(40)))
                .unwrap();
        });
        assert_eq!(report.stats.completed, 2);
        assert!(
            engine.stats().reuse.delta_patches >= 1,
            "same-stream coalescing should warm-start"
        );
    }

    #[test]
    fn deadline_budget_forces_anytime_but_stays_feasible() {
        let (system, alloc) = setup();
        // Probe budget 0 through the engine: every solve bails to its
        // feasible upper bound immediately.
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary)
                    .budget(SolveBudget::default().with_max_probes(0)),
            )
            .shards(2)
            .build();
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            for s in 0..4usize {
                let q = RangeQuery::new(s, 0, 2, 3).buckets(5);
                h.submit(QueryRequest::new(s, q)).unwrap();
            }
        });
        assert_eq!(report.stats.completed, 4);
        assert_eq!(report.stats.errors, 0);
        assert_eq!(report.stats.solve_stats.budget_expirations, 4);
        for r in &report.unclaimed {
            let out = r.result.as_ref().unwrap();
            assert_eq!(out.outcome.flow_value as usize, 6);
        }
    }

    #[test]
    fn panicking_solver_resolves_with_typed_failure() {
        #[derive(Clone, Copy)]
        struct AlwaysPanics;
        impl RetrievalSolver for AlwaysPanics {
            fn name(&self) -> &'static str {
                "always-panics"
            }
            fn solve_in(
                &self,
                _inst: &crate::network::RetrievalInstance,
                _ws: &mut crate::workspace::Workspace,
            ) -> Result<crate::schedule::RetrievalOutcome, crate::error::SolveError> {
                panic!("injected bug");
            }
        }
        let (system, alloc) = setup();
        let mut engine = Engine::new(&system, &alloc, AlwaysPanics, 1);
        let buckets = RangeQuery::new(0, 0, 1, 1).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            h.submit(QueryRequest::new(0, buckets.clone())).unwrap()
        });
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.panics, 1);
        assert_eq!(
            report.unclaimed[0].result.as_ref().unwrap_err(),
            &EngineError::ShardFailed { shard: 0 }
        );
    }

    #[test]
    fn real_clock_sees_midflight_recovery() {
        let (system, alloc) = setup();
        let buckets = RangeQuery::new(0, 1, 1, 1).buckets(5);
        let replicas: Vec<usize> = alloc.replicas(buckets[0]).iter().collect();
        // Every replica is down from t=0 and recovers at t=5ms real time.
        // The batch engine (simulated probes at arrival+backoff) with a
        // 1ms backoff x3 would give up at 3ms; the serving loop's real
        // clock keeps probing wall time and sees the recovery.
        let mut injector = FaultInjector::new();
        for &d in &replicas {
            injector.schedule(Micros::ZERO, d, DiskHealth::Offline);
            injector.schedule(Micros::from_millis(5), d, DiskHealth::Healthy);
        }
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1)
            .with_fault_injector(injector)
            .with_retry_policy(RetryPolicy {
                max_retries: 30,
                backoff: Micros::from_millis(1),
            });
        let report = engine.serve(ServeConfig::default(), |h| {
            h.submit(QueryRequest::new(0, buckets.clone())).unwrap()
        });
        assert_eq!(report.stats.completed, 1);
        assert!(
            report.unclaimed[0].result.is_ok(),
            "real-clock replanning should observe the recovery: {:?}",
            report.unclaimed[0].result
        );
        assert!(engine.stats().retries >= 1);
    }

    #[test]
    fn serve_metrics_registry_has_admission_counters() {
        let (system, alloc) = setup();
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        let buckets = RangeQuery::new(0, 0, 1, 2).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            h.submit(QueryRequest::new(0, buckets.clone())).unwrap();
        });
        let reg = report.stats.to_registry();
        assert_eq!(reg.counter("rds_serve_admitted_total"), Some(1));
        assert_eq!(reg.counter("rds_serve_completed_total"), Some(1));
        assert_eq!(reg.gauge("rds_serve_max_queue_depth"), Some(1));
        let text = reg.to_prometheus();
        assert!(text.contains("rds_serve_standard_turnaround_us"));
    }

    #[test]
    fn span_timelines_are_shard_count_invariant() {
        let (system, alloc) = setup();
        let queries: Vec<BatchQuery> = (0..24)
            .map(|k| BatchQuery {
                stream: k % 6,
                arrival: Micros::from_millis((k / 6) as u64 * 3),
                buckets: RangeQuery::new(k % 5, (k + 1) % 5, 1 + k % 2, 2).buckets(5),
            })
            .collect();
        let mut want: Option<std::collections::BTreeMap<u64, u64>> = None;
        for shards in [1usize, 2, 4] {
            let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, shards);
            engine.serve(ServeConfig::default().virtual_time(), |h| {
                for q in &queries {
                    h.submit(QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival))
                        .unwrap();
                }
            });
            let pm = engine.postmortem();
            assert_eq!(pm.spans.len(), 24, "{shards} shards retain every span");
            let digests: std::collections::BTreeMap<u64, u64> = pm
                .spans
                .iter()
                .map(|s| (s.id.0, s.phase_digest()))
                .collect();
            assert_eq!(digests.len(), 24, "{shards} shards: one span per ticket");
            match &want {
                None => want = Some(digests),
                Some(w) => assert_eq!(&digests, w, "{shards} shards"),
            }
        }
    }

    #[test]
    fn fused_serving_matches_serial_across_shard_counts() {
        let (system, alloc) = setup();
        let queries: Vec<BatchQuery> = (0..24)
            .map(|k| BatchQuery {
                stream: k % 6,
                arrival: Micros::from_millis((k / 6) as u64 * 3),
                buckets: RangeQuery::new(k % 5, (k + 1) % 5, 1 + k % 2, 2).buckets(5),
            })
            .collect();
        let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
            .reuse(crate::session::ReusePolicy::warm());
        let config = || {
            ServeConfig::default()
                .virtual_time()
                .batch_window(Duration::from_millis(5))
                .batch_max(8)
        };
        // The serial single-shard run pins the goldens: per-ticket
        // schedules and span digests. Every fused shard count must
        // reproduce both bit-for-bit.
        type Golden = (Vec<(Ticket, Micros)>, std::collections::BTreeMap<u64, u64>);
        let mut want: Option<Golden> = None;
        for (fuse, shards) in [(false, 1usize), (true, 1), (true, 2), (true, 4)] {
            let mut engine = Engine::builder(&system, &alloc)
                .solver_spec(if fuse {
                    spec.batch_fuse(true).parallelism(3)
                } else {
                    spec
                })
                .shards(shards)
                .build();
            let report = engine.serve(config(), |h| {
                for q in &queries {
                    h.submit(QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival))
                        .unwrap();
                }
            });
            assert_eq!(report.stats.completed, 24, "fuse={fuse} {shards} shards");
            let mut times: Vec<(Ticket, Micros)> = report
                .unclaimed
                .iter()
                .map(|r| (r.ticket, r.result.as_ref().unwrap().outcome.response_time))
                .collect();
            times.sort();
            let pm = engine.postmortem();
            let digests: std::collections::BTreeMap<u64, u64> = pm
                .spans
                .iter()
                .map(|s| (s.id.0, s.phase_digest()))
                .collect();
            assert_eq!(digests.len(), 24, "fuse={fuse} {shards} shards");
            if fuse {
                assert!(
                    engine.stats().fused_batches >= 1,
                    "{shards} shards: fused drain engaged"
                );
            }
            match &want {
                None => want = Some((times, digests)),
                Some((wt, wd)) => {
                    assert_eq!(&times, wt, "fuse={fuse} {shards} shards: schedules");
                    assert_eq!(&digests, wd, "fuse={fuse} {shards} shards: timelines");
                }
            }
        }
    }

    #[test]
    fn virtual_batch_window_coalesces_deterministically() {
        let (system, alloc) = setup();
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        let report = engine.serve(
            ServeConfig::default()
                .virtual_time()
                .batch_window(Duration::from_millis(50))
                .batch_max(4),
            |h| {
                for k in 0..10usize {
                    let q = RangeQuery::new(k % 5, 0, 1, 2).buckets(5);
                    h.submit(
                        QueryRequest::new(k % 2, q).arriving_at(Micros::from_millis(k as u64)),
                    )
                    .unwrap();
                }
            },
        );
        assert_eq!(report.stats.completed, 10);
        // Under the virtual clock the window coalesces to deterministic
        // boundaries — the batch fills to batch_max or admission closes —
        // so 10 submissions with batch_max 4 always drain as [4, 4, 2],
        // independent of scheduler timing.
        let pm = engine.postmortem();
        let mut sizes: Vec<u64> = pm
            .spans
            .iter()
            .filter_map(|s| {
                s.phases()
                    .iter()
                    .find(|p| p.kind == EventKind::Coalesced)
                    .map(|p| p.a)
            })
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 4, 4, 4, 4, 4, 4, 4, 4]);
    }

    #[test]
    fn recorder_steady_state_is_allocation_free() {
        let (system, alloc) = setup();
        // healthy_head 0 recycles every healthy span straight back to the
        // free list, so after the first checkout per shard the recorder
        // must never allocate another shell.
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(SolverSpec::new(SolverKind::PushRelabelBinary))
            .shards(2)
            .build();
        for shard in &mut engine.shards {
            shard.recorder = FlightRecorder::new(crate::obs::recorder::FlightRecorderConfig {
                capacity: 8,
                healthy_head: 0,
                max_phases: 32,
            });
        }
        let buckets = |k: usize| RangeQuery::new(k % 5, 0, 1, 2).buckets(5);
        let r1 = engine.serve(ServeConfig::default().virtual_time(), |h| {
            for k in 0..16usize {
                h.submit(
                    QueryRequest::new(k % 4, buckets(k))
                        .arriving_at(Micros::from_millis((k / 4) as u64)),
                )
                .unwrap();
            }
        });
        assert_eq!(r1.stats.completed, 16);
        let first = r1.stats.recorder.allocation_events;
        assert_eq!(first, 2, "one span shell per busy shard");
        let r2 = engine.serve(ServeConfig::default().virtual_time(), |h| {
            for k in 0..16usize {
                h.submit(
                    QueryRequest::new(k % 4, buckets(k))
                        .arriving_at(Micros::from_millis(10 + (k / 4) as u64)),
                )
                .unwrap();
            }
        });
        assert_eq!(r2.stats.completed, 16);
        assert_eq!(
            r2.stats.recorder.allocation_events, first,
            "steady state allocates no span shells"
        );
    }

    #[test]
    fn deadline_miss_is_retrievable_via_postmortem_and_exports() {
        let (system, alloc) = setup();
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        let buckets = RangeQuery::new(0, 0, 2, 3).buckets(5);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            // A 1us deadline admits (it has not passed at arrival) but any
            // real schedule completes later, so the span is triggered.
            h.submit(
                QueryRequest::new(0, buckets.clone())
                    .class(PriorityClass::Interactive)
                    .deadline(Micros::from_micros(1)),
            )
            .unwrap();
            h.shutdown();
            let err = h.submit(QueryRequest::new(1, buckets.clone())).unwrap_err();
            assert_eq!(err, Rejected::ShuttingDown);
        });
        assert_eq!(report.stats.deadline_misses, 1);
        assert_eq!(
            report.stats.rejected_by[RejectReason::ShuttingDown as usize]
                [PriorityClass::Standard as usize],
            1
        );

        let pm = engine.postmortem();
        assert!(
            pm.spans
                .iter()
                .any(|s| s.deadline_missed && s.is_triggered()),
            "deadline miss must survive retention"
        );
        assert_eq!(pm.rejections.len(), 1);
        assert!(matches!(
            pm.rejections[0].outcome,
            SpanOutcome::Rejected(RejectReason::ShuttingDown)
        ));
        // The rejected submission was the second one, but it never got a
        // ticket: its span is exported as ticket 0, not as ticket 2.
        assert_eq!(pm.rejections[0].id, SpanId(0));
        let trace = pm.to_chrome_trace();
        // One complete event per retained span, one instant per phase.
        assert_eq!(
            trace.matches("\"ph\": \"X\"").count(),
            pm.all_spans().count()
        );
        assert_eq!(
            trace.matches("\"ph\": \"i\"").count(),
            pm.all_spans().map(|s| s.phases().len()).sum::<usize>()
        );
        let statusz = pm.to_statusz();
        assert!(statusz.contains("DEADLINE-MISSED"));
        assert!(statusz.contains("span ticket=0 stream=1 shard=0 class=standard outcome=rejected"));

        // SLO burn metrics and the labeled rejection counter reach both
        // exposition formats with their values.
        let reg = report.stats.to_registry();
        assert_eq!(
            reg.counter_labeled(
                "rds_serve_rejected_total",
                &[("class", "standard"), ("reason", "shutting_down")],
            ),
            Some(1)
        );
        let prom = reg.to_prometheus();
        assert!(prom.contains("rds_slo_latency_burn_milli"));
        let json = reg.to_json();
        assert!(json.contains("rds_slo_latency_burn_milli"));
        crate::obs::metrics::assert_exported(&reg, &prom, &json);
    }
}
