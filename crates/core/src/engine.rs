//! Sharded retrieval engine and its one per-query execution path.
//!
//! An [`Engine`] serves many independent query streams — think one stream
//! per client or per tenant — over a single storage system and
//! allocation. Each stream is a full [`SessionState`] with its own disk
//! load feedback; streams are partitioned across shards by
//! `stream % num_shards`, each shard owning one [`Workspace`] and the
//! states of its streams.
//!
//! ## One drain
//!
//! Every query runs through one function, the shard *drain*. Both
//! front-ends feed it:
//!
//! * [`Engine::submit_batch`] routes a batch to its shards and drains
//!   each shard's queries — on the calling thread for one shard, on
//!   scoped threads for more. A batch is an online stream whose arrivals
//!   are all known before the first drain, so it needs no admission.
//! * [`Engine::serve`](crate::serve) drains each coalesced batch a shard
//!   worker takes off its queue.
//!
//! A drain runs its items as one group on the shard workspace. With
//! [`SolverSpec::batch_fuse`] and at least two streams in the drain, it
//! runs one group per stream instead, concurrently on recycled lanes of
//! the shared worker pool (only distinct streams are independent; one
//! stream's queries are load-coupled and stay in order). Every item
//! goes through the same three steps:
//!
//! 1. **prepare** (serial, on the shard) checks out the item's query span
//!    shell from the shard's flight recorder;
//! 2. **execute** (on the shard workspace or a lane) reads the queue wait,
//!    arms the deadline-aware budget and solves under the engine's only
//!    unwind guard;
//! 3. **finish** (serial, in drain order) is the only place that counts
//!    the item, retires its span, charges the SLO and delivers the reply —
//!    a result slot for `submit_batch`, a channel send for `serve`.
//!
//! A one-group drain finishes each item as soon as it executes; a fused
//! drain finishes its items in drain order once every lane is done.
//!
//! Because a stream lives wholly inside one shard and every drain keeps
//! each stream's queries in input order, results are deterministic: the
//! same batch produces the same outcomes for any shard count, one
//! included, and either drain shape. Cross-stream interactions don't
//! exist by construction — streams model *independent* sessions, the
//! unit of parallelism the paper's multi-query discussion permits.
//!
//! ## Fault tolerance
//!
//! Three layers keep a batch useful when hardware misbehaves:
//!
//! * **Fault awareness** — an optional [`FaultInjector`] (or any
//!   time-varying health source) makes every query plan around the
//!   [`HealthMap`] in force at its arrival: offline replicas are pruned,
//!   degraded disks carry inflated cost.
//! * **Replanning** — a query that is infeasible under the current health
//!   (some bucket lost every replica) is retried under the health at
//!   deterministic simulated-time backoff probes
//!   ([`RetryPolicy`]); if the engine is in degraded mode it finally
//!   falls back to a best-effort solve that serves the retrievable subset
//!   and reports the rest in [`SessionOutcome::unservable`].
//! * **Containment** — execute is the single containment point: a panic
//!   (a solver bug, a poisoned allocation) is confined to the query that
//!   hit it, even when the panic payload's own `Drop` panics again. The
//!   query reports [`EngineError::ShardFailed`], the panicking stream's
//!   state is discarded (its virtual clock restarts), the workspace's
//!   poison flag is cleared, and every other query is answered unharmed.

use crate::error::{EngineError, SessionError, SolveError};
use crate::fault::{FaultInjector, HealthMap};
use crate::obs::metrics::{Histogram, LatencySummary, MetricsRegistry};
use crate::obs::recorder::{FlightRecorder, Postmortem, RecorderStats};
use crate::obs::span::{QuerySpan, SpanId, SpanOutcome};
use crate::obs::trace::{EventKind, TraceEvent};
use crate::schedule::SolveStats;
use crate::serve::{Admission, ServeResponse, ServeTally};
use crate::session::{ReuseCounters, SessionOutcome, SessionState};
use crate::solver::RetrievalSolver;
use crate::spec::{AnySolver, SolverKind, SolverSpec};
use crate::workspace::Workspace;
use rds_decluster::allocation::ReplicaSource;
use rds_decluster::query::Bucket;
use rds_flow::WorkerPool;
use rds_storage::model::SystemConfig;
use rds_storage::time::Micros;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One query of a batch: which stream it belongs to, when it arrives,
/// and what it asks for.
#[derive(Clone, Debug)]
pub struct BatchQuery {
    /// Stream (independent session) identifier. Arrivals must be monotone
    /// non-decreasing *within* a stream; streams don't constrain each
    /// other.
    pub stream: usize,
    /// Arrival time on the stream's virtual clock.
    pub arrival: Micros,
    /// The requested buckets.
    pub buckets: Vec<Bucket>,
}

/// How the engine replans queries that are infeasible under the current
/// disk health: up to `max_retries` re-solves, probing the health map at
/// `arrival + backoff`, `arrival + 2·backoff`, … on the simulated clock.
/// A retry only re-solves when the probed health actually changed, so
/// retries are free while an outage persists. The stream's virtual clock
/// never advances past the query's arrival — later queries are unaffected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-solve attempts per query (0 disables replanning).
    pub max_retries: u32,
    /// Simulated-time spacing between health probes.
    pub backoff: Micros,
}

impl Default for RetryPolicy {
    /// No retries; `backoff` of 1 ms is only used if `max_retries` is
    /// raised.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Micros::from_millis(1),
        }
    }
}

/// Time source for fault probes, queue waits and deadline budgets.
///
/// Batch runs and the virtual-clock serving loop probe the fault schedule
/// on the *simulated* clock (the query's arrival plus deterministic
/// backoff steps), so results never depend on wall time. The real-clock
/// serving loop ([`Engine::serve`](crate::serve)) instead reads the wall
/// clock, so a disk that recovers *while a query is in flight* is
/// observed by the retry loop.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ProbeClock {
    /// Time is wherever the query's arrival says it is; backoff never
    /// waits.
    Arrival,
    /// Wall time since the serve epoch; backoff sleeps, capped at the
    /// query's deadline.
    Wall(Instant),
}

impl ProbeClock {
    /// Wall time since the epoch, or `None` on simulated time.
    fn wall_now(self) -> Option<Micros> {
        match self {
            ProbeClock::Arrival => None,
            ProbeClock::Wall(epoch) => {
                Some(Micros::from_micros(epoch.elapsed().as_micros() as u64))
            }
        }
    }

    /// The current time as seen by a query that arrived at `arrival`.
    fn now(self, arrival: Micros) -> Micros {
        self.wall_now().unwrap_or(arrival)
    }

    /// Blocks until `t`, but never past `deadline` (wall clock only).
    fn wait_until(self, t: Micros, deadline: Option<Micros>) {
        if let Some(now) = self.wall_now() {
            let cap = deadline.map_or(t, |d| t.min(d));
            if cap > now {
                std::thread::sleep(Duration::from_micros((cap - now).as_micros()));
            }
        }
    }
}

/// Aggregate counters across everything an [`Engine`] has processed.
#[must_use]
#[derive(Clone, Copy, Debug, Default)]
#[non_exhaustive]
pub struct EngineStats {
    /// Queries submitted (successful or not).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Runs processed: one per [`Engine::submit_batch`] call and one per
    /// [`Engine::serve`] run.
    pub batches: u64,
    /// Wall-clock time of those runs: each `submit_batch` call from entry
    /// to return, and each `serve` run whole, including the time its
    /// closure spends submitting and receiving.
    pub elapsed: Duration,
    /// Solver work counters summed over all successful queries.
    pub solve_stats: SolveStats,
    /// Solves that ran in the engine's reused workspaces, shard and fused
    /// lane alike: the [`EventKind::SolveStart`] total of
    /// [`Engine::trace_counts`]. A staging that fails (a forced compact
    /// arena the instance does not fit) runs no solve and is not counted.
    pub workspace_solves: u64,
    /// Re-solves triggered by infeasibility under a changed health map.
    pub retries: u64,
    /// Queries answered by the best-effort degraded path (some buckets
    /// dropped).
    pub degraded_solves: u64,
    /// Buckets dropped as unservable across all degraded solves.
    pub dropped_buckets: u64,
    /// Queries lost to a contained panic ([`EngineError::ShardFailed`]).
    pub shard_failures: u64,
    /// Batches (per shard) that took the fused drain path: multiple
    /// distinct-stream groups solved concurrently on detached lanes
    /// sharing the worker pool (see [`SolverSpec::batch_fuse`]).
    pub fused_batches: u64,
    /// Queries solved on a fused lane (subset of `queries`).
    pub fused_queries: u64,
    /// Cross-query reuse effectiveness (schedule-cache hits, delta
    /// patches, fallbacks), summed over every live stream.
    pub reuse: ReuseCounters,
}

impl EngineStats {
    /// Queries over the accumulated [`elapsed`](Self::elapsed) wall time
    /// of every `submit_batch` call and `serve` run.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.queries as f64 / secs
        } else {
            0.0
        }
    }

    /// Adds the per-query counters of a shard tally.
    fn add_counts(&mut self, other: &EngineStats) {
        self.queries += other.queries;
        self.errors += other.errors;
        self.retries += other.retries;
        self.degraded_solves += other.degraded_solves;
        self.dropped_buckets += other.dropped_buckets;
        self.shard_failures += other.shard_failures;
        self.fused_batches += other.fused_batches;
        self.fused_queries += other.fused_queries;
        self.solve_stats.accumulate(&other.solve_stats);
    }
}
/// A point-in-time snapshot of an [`Engine`]'s observability state:
/// aggregate counters, quantile summaries of the latency histograms, the
/// histograms themselves, and per-kind trace-event totals.
///
/// Produced by [`Engine::metrics_snapshot`]; plain owned data. Use
/// [`MetricsSnapshot::to_registry`] (or the `to_prometheus`/`to_json`
/// shorthands) to export it.
#[must_use]
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct MetricsSnapshot {
    /// Aggregate counters (queries, errors, retries, …).
    pub stats: EngineStats,
    /// Number of shards.
    pub shards: usize,
    /// p50/p95/p99 of per-query wall-clock solve time (µs).
    pub solve_latency_us: LatencySummary,
    /// p50/p95/p99 of binary-search probes per successful solve.
    pub probes_per_solve: LatencySummary,
    /// p50/p95/p99 of simulated queue→completion time (µs).
    pub turnaround_us: LatencySummary,
    /// The underlying histograms.
    pub histograms: EngineMetrics,
    /// Trace-event totals by [`EventKind`] ([`Engine::trace_counts`]).
    pub trace_counts: [u64; EventKind::COUNT],
}

impl MetricsSnapshot {
    /// Assembles the snapshot into a named [`MetricsRegistry`] (metric
    /// names are prefixed `rds_`), ready for Prometheus or JSON export.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc_counter("rds_queries_total", self.stats.queries);
        reg.inc_counter("rds_errors_total", self.stats.errors);
        reg.inc_counter("rds_batches_total", self.stats.batches);
        reg.inc_counter("rds_retries_total", self.stats.retries);
        reg.inc_counter("rds_degraded_solves_total", self.stats.degraded_solves);
        reg.inc_counter("rds_dropped_buckets_total", self.stats.dropped_buckets);
        reg.inc_counter("rds_shard_failures_total", self.stats.shard_failures);
        reg.inc_counter("rds_fuse_batches_total", self.stats.fused_batches);
        reg.inc_counter("rds_fuse_queries_total", self.stats.fused_queries);
        reg.inc_counter("rds_workspace_solves_total", self.stats.workspace_solves);
        reg.inc_counter("rds_cache_hits_total", self.stats.reuse.cache_hits);
        reg.inc_counter("rds_cache_misses_total", self.stats.reuse.cache_misses);
        reg.inc_counter(
            "rds_cache_evictions_total",
            self.stats.reuse.cache_evictions,
        );
        reg.inc_counter("rds_delta_patches_total", self.stats.reuse.delta_patches);
        reg.inc_counter(
            "rds_delta_fallbacks_total",
            self.stats.reuse.delta_fallbacks,
        );
        reg.inc_counter(
            "rds_elapsed_us_total",
            self.stats.elapsed.as_micros() as u64,
        );
        reg.inc_counter("rds_solver_probes_total", self.stats.solve_stats.probes);
        reg.inc_counter(
            "rds_solver_resume_calls_total",
            self.stats.solve_stats.resume_calls,
        );
        reg.inc_counter(
            "rds_solver_maxflow_calls_total",
            self.stats.solve_stats.maxflow_calls,
        );
        reg.inc_counter(
            "rds_solver_increments_total",
            self.stats.solve_stats.increments,
        );
        reg.inc_counter(
            "rds_solver_dfs_calls_total",
            self.stats.solve_stats.dfs_calls,
        );
        reg.inc_counter("rds_solver_pushes_total", self.stats.solve_stats.pushes);
        reg.inc_counter("rds_solver_relabels_total", self.stats.solve_stats.relabels);
        reg.inc_counter(
            "rds_refine_passes_total",
            self.stats.solve_stats.refine_passes,
        );
        reg.inc_counter(
            "rds_refine_cycles_total",
            self.stats.solve_stats.refine_cycles,
        );
        reg.inc_counter(
            "rds_refine_moved_units_total",
            self.stats.solve_stats.refine_moved,
        );
        reg.set_gauge("rds_shards", self.shards as i64);
        // The arena width the solvers last ran under ("auto" until the
        // first successful solve).
        reg.set_gauge_labeled(
            "rds_arena_layout",
            &[("layout", self.stats.solve_stats.arena_layout.name())],
            1,
        );
        for kind in EventKind::ALL {
            let count = self.trace_counts[kind as usize];
            if count > 0 {
                reg.inc_counter(&format!("rds_trace_{}_total", kind.name()), count);
            }
        }
        *reg.histogram_mut("rds_solve_latency_us") = self.histograms.solve_latency_us.clone();
        *reg.histogram_mut("rds_probes_per_solve") = self.histograms.probes_per_solve.clone();
        *reg.histogram_mut("rds_turnaround_us") = self.histograms.turnaround_us.clone();
        reg
    }

    /// Prometheus text exposition of [`MetricsSnapshot::to_registry`].
    pub fn to_prometheus(&self) -> String {
        self.to_registry().to_prometheus()
    }

    /// JSON rendering of [`MetricsSnapshot::to_registry`].
    pub fn to_json(&self) -> String {
        self.to_registry().to_json()
    }
}

/// The latency histograms an [`Engine`] maintains across batches, merged
/// from per-shard recordings after each batch (shards record into private
/// copies, so the hot path never contends).
#[must_use]
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct EngineMetrics {
    /// Wall-clock time spent solving each query (including retries and
    /// the degraded fallback), in microseconds.
    pub solve_latency_us: Histogram,
    /// Binary-search probes per successful solve.
    pub probes_per_solve: Histogram,
    /// Simulated queue→completion time per successful query
    /// (`completion - arrival`), in microseconds.
    pub turnaround_us: Histogram,
}

impl EngineMetrics {
    fn merge(&mut self, other: &EngineMetrics) {
        self.solve_latency_us.merge(&other.solve_latency_us);
        self.probes_per_solve.merge(&other.probes_per_solve);
        self.turnaround_us.merge(&other.turnaround_us);
    }
}

/// What a shard's drains counted since the last epilogue. Only
/// [`Shard::finish`] writes it (and a fused drain its two fused counts);
/// [`Engine::absorb_tallies`] folds it into the engine counters, and the
/// serving loop also into its run's [`ServeStats`](crate::serve::ServeStats).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Per-query engine counters (`batches`, `elapsed`,
    /// `workspace_solves` and `reuse` are set by the epilogue instead).
    pub(crate) stats: EngineStats,
    pub(crate) metrics: EngineMetrics,
    /// Present while a serve run lasts (batches leave it out, so their
    /// epilogue stays cheap).
    pub(crate) serve: Option<Box<ServeTally>>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.stats.add_counts(&other.stats);
        self.metrics.merge(&other.metrics);
        match (&mut self.serve, other.serve) {
            (Some(into), Some(from)) => into.merge(&from),
            (into, from) => *into = into.take().or(from),
        }
    }
}

/// One worker's slice of the engine: a reusable workspace plus the states
/// of the streams this shard owns.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    /// This shard's index (`stream % num_shards`).
    pub(crate) index: usize,
    pub(crate) workspace: Workspace,
    /// Stream states; `None` after a contained panic discarded one (the
    /// stream restarts fresh on its next query).
    pub(crate) states: HashMap<usize, Option<SessionState>>,
    /// Scratch health map, refreshed per query from the fault schedule.
    health: HealthMap,
    /// Finished [`crate::obs::span::QuerySpan`]s from the serving loop
    /// (always-on, bounded; see [`FlightRecorder`]). Batch runs leave it
    /// empty — spans are only armed by [`Engine::serve`](crate::serve).
    pub(crate) recorder: FlightRecorder,
    /// Recycled solve lanes for the fused drain path — a free list of
    /// detached workspaces with plane sharing enabled, checked out one
    /// per distinct-stream group and returned after the drain. Steady
    /// state never allocates a new lane once the list has grown to the
    /// batch's group count.
    pub(crate) lanes: Vec<FusedLane>,
    pub(crate) tally: Tally,
}

/// One detached solve lane of the fused batch path: a private
/// [`Workspace`] (plane sharing on, so it checks out the instance's
/// topology plane instead of deep-copying the arena) and a private
/// health scratch map.
#[derive(Debug, Default)]
pub(crate) struct FusedLane {
    pub(crate) workspace: Workspace,
    pub(crate) health: HealthMap,
}

/// Read-only context shared by every shard for the duration of one
/// `submit_batch` or `serve` call.
pub(crate) struct DrainCtx<'c, A: ?Sized, S: ?Sized> {
    pub(crate) system: &'c SystemConfig,
    pub(crate) alloc: &'c A,
    pub(crate) solver: &'c S,
    pub(crate) injector: Option<&'c FaultInjector>,
    pub(crate) retry: RetryPolicy,
    pub(crate) degraded: bool,
    /// The engine's solve policy. Its budget is armed before every solve
    /// (tightened to the deadline under the wall clock).
    pub(crate) spec: &'c SolverSpec,
    /// The pool fused drains run their groups on; `None` unless
    /// [`SolverSpec::batch_fuse`] is on.
    pub(crate) fuse: Option<&'c WorkerPool>,
    pub(crate) clock: ProbeClock,
}

/// Where a drain delivers each item's reply.
pub(crate) enum Replies<'r> {
    /// `submit_batch`: results are pushed in item order.
    Slots(&'r mut Vec<Result<SessionOutcome, EngineError>>),
    /// The serving loop: one channel send per item, settling the
    /// admission at the item's position.
    Channel {
        tx: &'r mpsc::Sender<ServeResponse>,
        admissions: &'r [Admission],
        record_spans: bool,
    },
}

impl<'r> Replies<'r> {
    fn admissions(&self) -> &'r [Admission] {
        match self {
            Replies::Slots(_) => &[],
            Replies::Channel { admissions, .. } => admissions,
        }
    }

    fn record_spans(&self) -> bool {
        matches!(
            self,
            Replies::Channel {
                record_spans: true,
                ..
            }
        )
    }
}

/// One drained item as the three steps see it.
#[derive(Clone, Copy)]
struct Item<'q> {
    shard: usize,
    query: &'q BatchQuery,
    /// The admission a served item settles (`None` in a batch).
    admission: Option<&'q Admission>,
    /// Size of the drain the item belongs to.
    batch_len: usize,
}

/// Replanning work one query did.
#[derive(Clone, Copy, Debug, Default)]
struct Replans {
    retries: u64,
    degraded_solves: u64,
    dropped_buckets: u64,
}

/// What execute hands to finish: everything finish needs, so lanes
/// carry no tally.
struct Executed {
    result: Result<SessionOutcome, EngineError>,
    panicked: bool,
    solve_us: u64,
    queued: Micros,
    replans: Replans,
    span: Option<QuerySpan>,
}

impl Shard {
    /// Drains `items` in order, delivering one reply per item to
    /// `replies`. With a fuse pool in `ctx` and at least two streams in
    /// the drain, the streams run concurrently on pool lanes; otherwise
    /// the items run as one group on the shard workspace, each finished
    /// as soon as it executes.
    pub(crate) fn drain<A, S, Q>(
        &mut self,
        ctx: &DrainCtx<'_, A, S>,
        items: &[Q],
        replies: &mut Replies<'_>,
    ) where
        A: ReplicaSource + Sync + ?Sized,
        S: RetrievalSolver + Sync + ?Sized,
        Q: Borrow<BatchQuery> + Sync,
    {
        self.workspace.tracer.emit(TraceEvent::ShardBatch {
            shard: self.index as u32,
            queries: items.len() as u32,
        });
        if let Some(pool) = ctx.fuse {
            // Group positions by stream: discovery order across groups,
            // drain order within one.
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            let mut group_at: Vec<usize> = Vec::with_capacity(items.len());
            let mut group_of: HashMap<usize, usize> = HashMap::new();
            for (pos, item) in items.iter().enumerate() {
                let stream = item.borrow().stream;
                let g = *group_of.entry(stream).or_insert_with(|| {
                    groups.push((stream, Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(pos);
                group_at.push(g);
            }
            if groups.len() >= 2 {
                return self.drain_fused(ctx, pool, items, &groups, &group_at, replies);
            }
        }
        let admissions = replies.admissions();
        let record = replies.record_spans();
        for (pos, q) in items.iter().enumerate() {
            let item = Item {
                shard: self.index,
                query: q.borrow(),
                admission: admissions.get(pos),
                batch_len: items.len(),
            };
            let span = record.then(|| self.prepare(item));
            let state = self.states.entry(item.query.stream).or_default();
            let done = execute(
                ctx,
                item,
                &mut self.workspace,
                &mut self.health,
                state,
                span,
            );
            self.finish(ctx, item, done, replies);
        }
    }

    /// The fused drain shape: each stream group (`groups`: stream and
    /// positions; `group_at`: group of each position) runs serially on
    /// its own checked-out [`FusedLane`], the groups run as one task
    /// batch on `pool`, and items finish in drain order afterwards — so
    /// the replies are bit-identical to a one-group drain.
    fn drain_fused<A, S, Q>(
        &mut self,
        ctx: &DrainCtx<'_, A, S>,
        pool: &WorkerPool,
        items: &[Q],
        groups: &[(usize, Vec<usize>)],
        group_at: &[usize],
        replies: &mut Replies<'_>,
    ) where
        A: ReplicaSource + Sync + ?Sized,
        S: RetrievalSolver + Sync + ?Sized,
        Q: Borrow<BatchQuery> + Sync,
    {
        let admissions = replies.admissions();
        let record = replies.record_spans();
        let shard = self.index;
        let item = move |pos: usize| Item {
            shard,
            query: items[pos].borrow(),
            admission: admissions.get(pos),
            batch_len: items.len(),
        };
        self.tally.stats.fused_batches += 1;
        self.tally.stats.fused_queries += items.len() as u64;
        let spans: Vec<Vec<QuerySpan>> = groups
            .iter()
            .map(|(_, group)| {
                if record {
                    group.iter().map(|&pos| self.prepare(item(pos))).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        self.ensure_lanes(groups.len());
        // Each stream's state moves onto its lane for the drain.
        let mut states: Vec<Option<SessionState>> = groups
            .iter()
            .map(|(stream, _)| self.states.remove(stream).flatten())
            .collect();
        let mut done: Vec<Vec<Executed>> = groups
            .iter()
            .map(|(_, group)| Vec::with_capacity(group.len()))
            .collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = self.lanes[..groups.len()]
            .iter_mut()
            .zip(&mut states)
            .zip(spans)
            .zip(&mut done)
            .zip(groups)
            .map(|((((lane, state), spans), done), (_, group))| {
                Box::new(move || {
                    let FusedLane { workspace, health } = lane;
                    let mut spans = spans.into_iter();
                    for &pos in group {
                        let span = spans.next();
                        done.push(execute(ctx, item(pos), workspace, health, state, span));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_tasks(tasks);

        for ((stream, _), state) in groups.iter().zip(states) {
            self.states.insert(*stream, state);
        }
        // A group's items executed in drain order, so the next item of
        // each position's group is that position's.
        let mut done: Vec<_> = done.into_iter().map(Vec::into_iter).collect();
        for (pos, &g) in group_at.iter().enumerate() {
            let executed = done[g].next().expect("every item ran on its group's lane");
            self.finish(ctx, item(pos), executed, replies);
        }
    }

    /// Prepare: checks out a served item's span shell from the shard's
    /// flight recorder (only runs that record spans prepare one).
    fn prepare(&mut self, item: Item<'_>) -> QuerySpan {
        let a = item
            .admission
            .expect("spans are recorded only for served items");
        let mut span = self.recorder.checkout();
        span.id = SpanId(a.ticket.0);
        span.stream = item.query.stream;
        span.shard = item.shard;
        span.class = a.class as usize;
        span.arrival = item.query.arrival;
        span.record(
            EventKind::Admitted,
            0,
            item.query.arrival.as_micros(),
            a.class as u64,
        );
        span
    }

    /// Finish: the one place that counts an item, retires its span,
    /// charges the SLO and delivers its reply.
    fn finish<A: ?Sized, S: ?Sized>(
        &mut self,
        ctx: &DrainCtx<'_, A, S>,
        item: Item<'_>,
        done: Executed,
        replies: &mut Replies<'_>,
    ) {
        let t = &mut self.tally;
        t.stats.queries += 1;
        t.stats.retries += done.replans.retries;
        t.stats.degraded_solves += done.replans.degraded_solves;
        t.stats.dropped_buckets += done.replans.dropped_buckets;
        t.stats.shard_failures += done.panicked as u64;
        t.metrics.solve_latency_us.record(done.solve_us);
        match &done.result {
            Ok(out) => {
                t.stats.solve_stats.accumulate(&out.outcome.stats);
                t.metrics.probes_per_solve.record(out.outcome.stats.probes);
                t.metrics
                    .turnaround_us
                    .record((out.completion - out.arrival).as_micros());
            }
            Err(_) => t.stats.errors += 1,
        }
        let tx = match replies {
            Replies::Slots(out) => {
                out.push(done.result);
                return;
            }
            Replies::Channel { tx, .. } => *tx,
        };
        let a = item
            .admission
            .expect("every served item carries its admission");

        // Simulated time stamps completions from the outcome; the wall
        // clock reads once here.
        let wall_now = ctx.clock.wall_now();
        let deadline_missed = match (&done.result, a.deadline) {
            (Ok(out), Some(d)) => wall_now.unwrap_or(out.completion) > d,
            _ => false,
        };
        let turnaround = match (&done.result, wall_now) {
            (_, Some(_)) => Micros::from_micros(a.enqueued.elapsed().as_micros() as u64),
            (Ok(out), None) => out.completion.saturating_sub(out.arrival),
            (Err(_), None) => Micros::ZERO,
        };
        let completion = match &done.result {
            Ok(out) => out.completion,
            Err(_) => wall_now.unwrap_or(item.query.arrival),
        };
        // The recorder decides retention (triggered spans always kept,
        // healthy ones head-sampled).
        if let Some(mut span) = done.span {
            span.turnaround_us = turnaround.as_micros();
            span.deadline_missed = deadline_missed;
            span.completion = completion;
            match &done.result {
                Ok(_) => {
                    span.outcome = SpanOutcome::Resolved;
                    span.record(EventKind::Reply, done.solve_us, deadline_missed as u64, 0);
                }
                Err(_) => {
                    span.outcome = SpanOutcome::Failed;
                    span.record(EventKind::Failed, done.solve_us, done.panicked as u64, 0);
                }
            }
            self.recorder.retire(span);
        }
        let serve = t
            .serve
            .as_deref_mut()
            .expect("a serve run gives every shard a serve tally");
        let slo_now = wall_now.unwrap_or(completion);
        match &done.result {
            Ok(_) => serve.slo.record_response(a.class, slo_now, turnaround),
            Err(_) => serve.slo.record_unavailable(a.class, slo_now),
        }
        let cs = &mut serve.classes[a.class as usize];
        cs.completed += 1;
        cs.queue_wait_us.record(done.queued.as_micros());
        cs.turnaround_us.record(turnaround.as_micros());
        if deadline_missed {
            cs.deadline_misses += 1;
            serve.deadline_misses += 1;
        }
        // The receiver lives in the ServeHandle, which outlives the
        // workers, so a send failure is unreachable; ignoring it keeps the
        // drain unstoppable.
        let _ = tx.send(ServeResponse {
            ticket: a.ticket,
            stream: item.query.stream,
            class: a.class,
            result: done.result,
            queued: done.queued,
            deadline_missed,
        });
    }

    /// Grows the lane free list to `n`. Lanes inherit the shard's arena
    /// layout and run with plane sharing on.
    fn ensure_lanes(&mut self, n: usize) {
        while self.lanes.len() < n {
            let mut lane = FusedLane::default();
            lane.workspace
                .set_arena_layout(self.workspace.arena_layout());
            lane.workspace.set_plane_sharing(true);
            self.lanes.push(lane);
        }
    }
}

/// The engine's only unwind guard: execute runs each solve, and drops
/// each panic payload, under it.
fn guard<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    catch_unwind(AssertUnwindSafe(f))
}

/// Execute: solves one item for `state` on the given workspace and
/// health scratch — the shard's own or a fused lane's — under the single
/// containment point. Queue wait and the deadline budget are read here,
/// as the item's own solve starts.
fn execute<A: ReplicaSource + ?Sized, S: RetrievalSolver + ?Sized>(
    ctx: &DrainCtx<'_, A, S>,
    item: Item<'_>,
    workspace: &mut Workspace,
    health: &mut HealthMap,
    state: &mut Option<SessionState>,
    span: Option<QuerySpan>,
) -> Executed {
    let q = item.query;
    let deadline = item.admission.and_then(|a| a.deadline);
    // On the wall clock a solve may use at most the time left until its
    // SLA deadline (on top of the engine budget). Simulated time defines
    // queue wait as zero and keeps the engine budget, so results stay
    // deterministic.
    let mut budget = ctx.spec.budget;
    let mut queued = Micros::ZERO;
    if let (ProbeClock::Wall(_), Some(a)) = (ctx.clock, item.admission) {
        queued = Micros::from_micros(a.enqueued.elapsed().as_micros() as u64);
        if let Some(d) = deadline {
            let now = ctx.clock.now(q.arrival);
            let remaining = Duration::from_micros(d.saturating_sub(now).as_micros());
            budget.wall_clock = Some(budget.wall_clock.map_or(remaining, |b| b.min(remaining)));
        }
    }
    workspace.arm_budget(budget);
    // The armed span collects the solve's bridged trace events (probes,
    // cache hits, delta patches, budget expiry, …) on its timeline.
    if let Some(mut span) = span {
        span.queued_us = queued.as_micros();
        span.record(
            EventKind::Coalesced,
            0,
            item.batch_len as u64,
            queued.as_micros(),
        );
        workspace.tracer.arm_span(span);
    }

    let mut replans = Replans::default();
    let started = Instant::now();
    let caught = guard(|| {
        let st =
            state.get_or_insert_with(|| SessionState::from_spec(ctx.system.num_disks(), ctx.spec));
        run_one_core(ctx, q, st, workspace, health, deadline, &mut replans)
    });
    let solve_us = started.elapsed().as_micros() as u64;
    // The item is done with the network it staged: a fused lane hands its
    // topology plane back, so the network's next rebuild or patch writes
    // in place.
    workspace.release_plane();
    let (result, panicked) = match caught {
        Ok(result) => (result, false),
        Err(payload) => {
            // A payload whose own `Drop` panics would unwind out of the
            // drain: drop it under the guard too, and leak whatever that
            // second panic carries.
            if let Err(second) = guard(move || drop(payload)) {
                std::mem::forget(second);
            }
            // The poisoned stream restarts fresh on its next query; the
            // workspace is reclaimed; drain-mates proceed.
            *state = None;
            let _ = workspace.take_poisoned();
            (Err(EngineError::ShardFailed { shard: item.shard }), true)
        }
    };
    Executed {
        result,
        panicked,
        solve_us,
        queued,
        replans,
        span: workspace.tracer.disarm_span(),
    }
}

/// Solves one query under the health in force at its arrival, with
/// bounded replanning and an optional degraded fallback. `ctx.clock`
/// decides *when* the fault schedule is probed: simulated time is
/// deterministic, the wall clock sees mid-flight health transitions.
fn run_one_core<A: ReplicaSource + ?Sized, S: RetrievalSolver + ?Sized>(
    ctx: &DrainCtx<'_, A, S>,
    q: &BatchQuery,
    state: &mut SessionState,
    workspace: &mut Workspace,
    health: &mut HealthMap,
    deadline: Option<Micros>,
    replans: &mut Replans,
) -> Result<SessionOutcome, EngineError> {
    if let Some(inj) = ctx.injector {
        // On a real clock a query observed later than it arrived sees
        // the *current* health, not the health at arrival.
        inj.health_at(ctx.clock.now(q.arrival).max(q.arrival), health);
    } else {
        health.reset();
    }
    // One HealthTransition per change *as observed by this stream* —
    // streams are pinned to shards, so the event count is identical
    // for every shard count.
    let fp = health.fingerprint();
    if fp != state.observed_health_fp {
        state.observed_health_fp = fp;
        workspace
            .tracer
            .emit(TraceEvent::HealthTransition { fingerprint: fp });
    }

    let mut result = state.submit_with_health(
        ctx.system, ctx.alloc, ctx.solver, workspace, q.arrival, &q.buckets, health,
    );

    // Replan: probe the fault schedule at deterministic backoff steps
    // and re-solve whenever the health actually changed. Only
    // infeasibility is retryable — it is the one error a recovered
    // disk can cure.
    if let Some(inj) = ctx.injector {
        let mut attempt = 0u32;
        while attempt < ctx.retry.max_retries && is_infeasible(&result) {
            attempt += 1;
            // Probe at the scheduled backoff step or the current real
            // time, whichever is later. Simulated time never waits and
            // reports `arrival`; the wall clock sleeps out the backoff
            // (capped by the query deadline) and sees mid-flight
            // recoveries.
            let target = q.arrival + ctx.retry.backoff * attempt as u64;
            ctx.clock.wait_until(target, deadline);
            let probe = target.max(ctx.clock.now(q.arrival));
            let before = health.fingerprint();
            inj.health_at(probe, health);
            if health.fingerprint() == before {
                continue;
            }
            replans.retries += 1;
            state.observed_health_fp = health.fingerprint();
            workspace
                .tracer
                .emit(TraceEvent::RetryScheduled { attempt, probe });
            result = state.submit_with_health(
                ctx.system, ctx.alloc, ctx.solver, workspace, q.arrival, &q.buckets, health,
            );
        }
    }

    // Last resort in degraded mode: serve what still has a replica.
    if ctx.degraded && is_infeasible(&result) {
        result = state.submit_degraded_with(
            ctx.system, ctx.alloc, ctx.solver, workspace, q.arrival, &q.buckets, health,
        );
        if let Ok(o) = &result {
            replans.degraded_solves += 1;
            replans.dropped_buckets += o.unservable.len() as u64;
        }
    }

    result.map_err(EngineError::from)
}

fn is_infeasible(result: &Result<SessionOutcome, SessionError>) -> bool {
    matches!(
        result,
        Err(SessionError::Solve(SolveError::Infeasible { .. }))
    )
}

/// A front-end that shards independent query streams across worker
/// threads, each with a persistent [`Workspace`] and per-stream
/// [`SessionState`]s.
pub struct Engine<'a, A: ReplicaSource + Sync, S: RetrievalSolver + Sync> {
    pub(crate) system: &'a SystemConfig,
    pub(crate) alloc: &'a A,
    pub(crate) solver: S,
    pub(crate) shards: Vec<Shard>,
    pub(crate) stats: EngineStats,
    pub(crate) metrics: EngineMetrics,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) retry: RetryPolicy,
    pub(crate) degraded: bool,
    /// The solve policy: every stream's reuse and objective, the budget,
    /// and the SLOs the serving loop tracks. An engine around a
    /// caller-supplied solver ([`Engine::new`]) runs the default policy.
    pub(crate) spec: SolverSpec,
    /// Spans of submissions the serving loop *rejected* at admission
    /// (they never reach a shard, so they get their own recorder).
    pub(crate) rejections: FlightRecorder,
    /// The worker pool fused drains run their stream groups on: `Some`
    /// exactly when drains fuse (see [`SolverSpec::batch_fuse`]).
    pub(crate) pool: Option<WorkerPool>,
}
/// Step-by-step construction of an [`Engine`] around a [`SolverSpec`] —
/// the unified alternative to threading a concrete solver type through
/// [`Engine::new`]:
///
/// ```
/// use rds_core::engine::Engine;
/// use rds_core::session::ReusePolicy;
/// use rds_core::spec::{ScheduleObjective, SolverKind, SolverSpec};
/// use rds_decluster::orthogonal::OrthogonalAllocation;
/// use rds_storage::experiments::paper_example;
///
/// let system = paper_example();
/// let alloc = OrthogonalAllocation::paper_7x7();
/// let engine = Engine::builder(&system, &alloc)
///     .solver_spec(
///         SolverSpec::new(SolverKind::PushRelabelBinary)
///             .objective(ScheduleObjective::MinMaxLoad)
///             .reuse(ReusePolicy::warm()),
///     )
///     .shards(2)
///     .build();
/// assert_eq!(engine.num_shards(), 2);
/// ```
#[must_use]
pub struct EngineBuilder<'a, A: ReplicaSource + Sync> {
    system: &'a SystemConfig,
    alloc: &'a A,
    spec: SolverSpec,
    shards: usize,
}

impl<'a, A: ReplicaSource + Sync> EngineBuilder<'a, A> {
    /// Sets the [`SolverSpec`]: the kind and the whole solve policy
    /// (default: [`SolverKind::PushRelabelBinary`] under
    /// [`SolverSpec::new`]'s policy).
    pub fn solver_spec(mut self, spec: SolverSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Number of shard workers (minimum 1; default 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Materializes the engine. Fault handling (injector, retries,
    /// degraded mode) is set on the built engine, by
    /// [`Engine::with_fault_injector`], [`Engine::with_retry_policy`] and
    /// [`Engine::with_degraded_mode`].
    ///
    /// With [`SolverSpec::batch_fuse`] this creates **one** [`WorkerPool`]
    /// sized from [`SolverSpec::parallelism`], shared by every shard, so
    /// fused drains schedule their stream groups across the same worker
    /// threads instead of spawning per drain.
    pub fn build(self) -> Engine<'a, A, AnySolver> {
        let pool = self.spec.batch_fuse.then(|| {
            let threads = if self.spec.parallelism == 0 {
                2
            } else {
                self.spec.parallelism
            };
            WorkerPool::new(threads)
        });
        let mut engine = Engine::new(self.system, self.alloc, self.spec.build(), self.shards);
        engine.spec = self.spec;
        for shard in &mut engine.shards {
            shard.workspace.set_arena_layout(self.spec.arena_layout);
        }
        engine.pool = pool;
        engine
    }
}

impl<'a, A: ReplicaSource + Sync> Engine<'a, A, AnySolver> {
    /// Starts building an engine whose solver is chosen by
    /// [`SolverKind`] instead of a concrete type parameter.
    pub fn builder(system: &'a SystemConfig, alloc: &'a A) -> EngineBuilder<'a, A> {
        EngineBuilder {
            system,
            alloc,
            spec: SolverSpec::new(SolverKind::PushRelabelBinary),
            shards: 1,
        }
    }
}

impl<'a, A: ReplicaSource + Sync, S: RetrievalSolver + Sync> Engine<'a, A, S> {
    /// Creates an engine with `num_shards` workers (minimum 1). Shard
    /// count only affects wall-clock time, never results.
    pub fn new(system: &'a SystemConfig, alloc: &'a A, solver: S, num_shards: usize) -> Self {
        Engine {
            system,
            alloc,
            solver,
            shards: (0..num_shards.max(1))
                .map(|index| Shard {
                    index,
                    ..Shard::default()
                })
                .collect(),
            stats: EngineStats::default(),
            metrics: EngineMetrics::default(),
            injector: None,
            retry: RetryPolicy::default(),
            degraded: false,
            spec: SolverSpec::new(SolverKind::PushRelabelBinary),
            rejections: FlightRecorder::default(),
            pool: None,
        }
    }

    /// Installs a fault schedule: every query plans around the health in
    /// force at its arrival. Health is a pure function of the schedule
    /// and the query's arrival time, so results stay deterministic for
    /// any shard count.
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sets the replanning policy for infeasible queries (see
    /// [`RetryPolicy`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables degraded mode: queries that stay infeasible after
    /// replanning are answered best-effort, serving every bucket with a
    /// live replica and listing the rest in
    /// [`SessionOutcome::unservable`], instead of failing outright.
    pub fn with_degraded_mode(mut self, degraded: bool) -> Self {
        self.degraded = degraded;
        self
    }

    /// Snapshots the flight recorders for after-the-fact debugging: every
    /// retained [`crate::obs::span::QuerySpan`] across all shards (shard
    /// order, oldest first within a shard), the spans of rejected
    /// submissions, and merged retention statistics.
    ///
    /// Spans are recorded only by the serving loop
    /// ([`Engine::serve`](crate::serve)); after batch-only use the
    /// snapshot is empty. Render with
    /// [`Postmortem::to_chrome_trace`] or [`Postmortem::to_statusz`].
    pub fn postmortem(&self) -> Postmortem {
        let mut stats = RecorderStats::default();
        let mut spans = Vec::new();
        for shard in &self.shards {
            spans.extend(shard.recorder.spans().cloned());
            stats.merge(&shard.recorder.stats());
        }
        stats.merge(&self.rejections.stats());
        Postmortem {
            spans,
            rejections: self.rejections.spans().cloned().collect(),
            stats,
        }
    }

    /// Number of shards (worker threads used per batch).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Aggregate statistics over every batch processed so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Arena allocation events summed over every network the engine
    /// holds — each shard workspace and fused lane with its cold streams'
    /// network, and each warm stream's own — monotone over the engine's
    /// lifetime unless a contained panic discards a network and its count.
    /// Flat between two observations means the solves in between —
    /// including fused drains checking topology planes out of the
    /// streams' networks — reused existing buffers end to end.
    pub fn arena_allocation_events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let workspaces = std::iter::once(&s.workspace)
                    .chain(s.lanes.iter().map(|l| &l.workspace))
                    .map(Workspace::arena_allocation_events);
                let streams = s
                    .states
                    .values()
                    .flatten()
                    .filter_map(SessionState::network)
                    .map(|n| n.graph.arena().allocation_events());
                workspaces.chain(streams).sum::<u64>()
            })
            .sum()
    }

    /// The engine's latency histograms, merged over every batch and shard
    /// processed so far.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Per-kind [`TraceEvent`] totals summed over every shard workspace
    /// and fused lane, indexed by `EventKind as usize` — exact and always
    /// counted, monotone over the engine's lifetime.
    pub fn trace_counts(&self) -> [u64; EventKind::COUNT] {
        let mut totals = [0u64; EventKind::COUNT];
        let workspaces = self.shards.iter().flat_map(|s| {
            std::iter::once(&s.workspace).chain(s.lanes.iter().map(|l| &l.workspace))
        });
        for ws in workspaces {
            for (t, &c) in totals.iter_mut().zip(ws.trace_counts()) {
                *t += c;
            }
        }
        totals
    }

    /// A point-in-time snapshot of everything the engine measures:
    /// counters, p50/p95/p99 latency summaries and trace-event totals —
    /// plain data, exportable as Prometheus text or JSON.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stats: self.stats,
            shards: self.shards.len(),
            solve_latency_us: self.metrics.solve_latency_us.summary(),
            probes_per_solve: self.metrics.probes_per_solve.summary(),
            turnaround_us: self.metrics.turnaround_us.summary(),
            histograms: self.metrics.clone(),
            trace_counts: self.trace_counts(),
        }
    }

    /// Splits the engine into the read-only context every drain shares
    /// and the shards the drains mutate.
    pub(crate) fn split(&mut self, clock: ProbeClock) -> (DrainCtx<'_, A, S>, &mut [Shard]) {
        let ctx = DrainCtx {
            system: self.system,
            alloc: self.alloc,
            solver: &self.solver,
            injector: self.injector.as_ref(),
            retry: self.retry,
            degraded: self.degraded,
            spec: &self.spec,
            fuse: self.pool.as_ref(),
            clock,
        };
        (ctx, &mut self.shards)
    }

    /// The stats epilogue of `submit_batch` and `serve`: folds every
    /// shard's tally into the engine counters and returns their sum.
    pub(crate) fn absorb_tallies(&mut self, elapsed: Duration) -> Tally {
        let mut run = Tally::default();
        for shard in &mut self.shards {
            run.merge(std::mem::take(&mut shard.tally));
        }
        self.stats.add_counts(&run.stats);
        self.metrics.merge(&run.metrics);
        self.stats.batches += 1;
        self.stats.elapsed += elapsed;
        self.stats.workspace_solves = self.trace_counts()[EventKind::SolveStart as usize];
        let mut reuse = ReuseCounters::default();
        for state in self.shards.iter().flat_map(|s| s.states.values().flatten()) {
            reuse.merge(&state.reuse_counters());
        }
        self.stats.reuse = reuse;
        run
    }

    /// Processes a batch of queries and returns one result per query, in
    /// input order. Per-query failures — non-monotone arrival on a
    /// stream, solver rejection, infeasibility under the current health,
    /// even a panic inside a solver — are reported in place; they never
    /// abort the rest of the batch, and results from healthy streams are
    /// always returned.
    pub fn submit_batch(
        &mut self,
        queries: &[BatchQuery],
    ) -> Vec<Result<SessionOutcome, EngineError>> {
        let started = Instant::now();
        let num_shards = self.shards.len();
        // Route each query to its stream's home shard, preserving input
        // order within the shard; each shard replies in that order.
        let mut by_shard: Vec<Vec<&BatchQuery>> = vec![Vec::new(); num_shards];
        for q in queries {
            by_shard[q.stream % num_shards].push(q);
        }
        let mut replies: Vec<Vec<Result<SessionOutcome, EngineError>>> = by_shard
            .iter()
            .map(|items| Vec::with_capacity(items.len()))
            .collect();
        let (ctx, shards) = self.split(ProbeClock::Arrival);
        if let [shard] = shards {
            shard.drain(&ctx, &by_shard[0][..], &mut Replies::Slots(&mut replies[0]));
        } else {
            let ctx = &ctx;
            std::thread::scope(|scope| {
                for ((shard, items), out) in shards.iter_mut().zip(&by_shard).zip(&mut replies) {
                    scope.spawn(move || shard.drain(ctx, &items[..], &mut Replies::Slots(out)));
                }
            });
        }
        let mut replies: Vec<_> = replies.into_iter().map(Vec::into_iter).collect();
        let results = queries
            .iter()
            .map(|q| {
                replies[q.stream % num_shards]
                    .next()
                    .expect("one reply per routed query")
            })
            .collect();
        self.absorb_tallies(started.elapsed());
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SolveError;
    use crate::fault::DiskHealth;
    use crate::network::RetrievalInstance;
    use crate::pr::PushRelabelBinary;
    use crate::schedule::RetrievalOutcome;
    use crate::session::ReusePolicy;
    use crate::spec::ArenaLayout;
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::specs::CHEETAH;

    fn batch(streams: usize, per_stream: usize) -> Vec<BatchQuery> {
        let mut queries = Vec::new();
        for k in 0..per_stream {
            for s in 0..streams {
                let q = RangeQuery::new(s % 5, k % 5, 1 + (s + k) % 3, 1 + s % 3);
                queries.push(BatchQuery {
                    stream: s,
                    arrival: Micros::from_millis((k * 2) as u64),
                    buckets: q.buckets(5),
                });
            }
        }
        queries
    }

    #[test]
    fn batch_results_are_independent_of_shard_count() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let queries = batch(6, 4);
        let baseline: Vec<_> = {
            let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
            engine
                .submit_batch(&queries)
                .into_iter()
                .map(|r| r.map(|o| (o.outcome.response_time, o.completion)))
                .collect()
        };
        for shards in [2usize, 3, 8] {
            let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, shards);
            let got: Vec<_> = engine
                .submit_batch(&queries)
                .into_iter()
                .map(|r| r.map(|o| (o.outcome.response_time, o.completion)))
                .collect();
            assert_eq!(got, baseline, "{shards} shards");
        }
    }

    #[test]
    fn streams_keep_independent_load_state_across_batches() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2);
        let full = RangeQuery::new(0, 0, 1, 5).buckets(5);
        let q = |stream| BatchQuery {
            stream,
            arrival: Micros::ZERO,
            buckets: full.clone(),
        };
        // Stream 0 submits twice (second queues behind the first); stream
        // 1 once. A second batch continues where the first left off.
        let r1 = engine.submit_batch(&[q(0), q(1), q(0)]);
        let t = Micros::from_tenths_ms(61);
        assert_eq!(r1[0].as_ref().unwrap().outcome.response_time, t);
        assert_eq!(r1[1].as_ref().unwrap().outcome.response_time, t);
        assert_eq!(r1[2].as_ref().unwrap().outcome.response_time, t * 2);
        let r2 = engine.submit_batch(&[q(1)]);
        assert_eq!(r2[0].as_ref().unwrap().outcome.response_time, t * 2);
    }

    #[test]
    fn per_query_errors_do_not_abort_the_batch() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2);
        let b = RangeQuery::new(0, 0, 1, 1).buckets(5);
        let mk = |stream, ms| BatchQuery {
            stream,
            arrival: Micros::from_millis(ms),
            buckets: b.clone(),
        };
        // Stream 0 goes back in time on its second query; stream 1 is fine.
        let results = engine.submit_batch(&[mk(0, 10), mk(0, 5), mk(1, 0), mk(0, 10)]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(EngineError::Session(
                SessionError::NonMonotoneArrival { .. }
            ))
        ));
        assert!(results[2].is_ok());
        // The stream survived its bad query.
        assert!(results[3].is_ok());
        assert_eq!(engine.stats().queries, 4);
        assert_eq!(engine.stats().errors, 1);
        assert_eq!(engine.stats().batches, 1);
    }

    #[test]
    fn stats_accumulate_solver_work() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1);
        let queries = batch(3, 3);
        let results = engine.submit_batch(&queries);
        let want: u64 = results
            .iter()
            .map(|r| r.as_ref().unwrap().outcome.stats.resume_calls)
            .sum();
        assert_eq!(engine.stats().solve_stats.resume_calls, want);
        assert_eq!(engine.stats().workspace_solves, 9);
        assert!(engine.stats().queries_per_sec() > 0.0);
    }

    #[test]
    fn fused_lane_solves_count_as_workspace_solves() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(SolverSpec::new(SolverKind::PushRelabelBinary).batch_fuse(true))
            .build();
        let results = engine.submit_batch(&batch(8, 1));
        assert!(results.iter().all(|r| r.is_ok()));
        assert!(engine.stats().fused_queries > 0, "lanes solved the batch");
        let started = engine.trace_counts()[EventKind::SolveStart as usize];
        assert_eq!((engine.stats().workspace_solves, started), (8, 8));
    }

    /// Cold streams keep no network of their own: the workspace that
    /// solves them, shard or fused lane, rebuilds its one network on every
    /// miss, so once the workspaces have seen every window, never-seen
    /// cold streams cost no arena allocation. Warm streams keep theirs,
    /// whose edge ids their delta patches rely on.
    #[test]
    fn cold_streams_rebuild_into_their_workspace_network() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        // Stream `s`'s `k`-th query: nine in a row visit every 3x3 window.
        let query = |s: usize, k: usize| BatchQuery {
            stream: s,
            arrival: Micros::from_millis(k as u64),
            buckets: RangeQuery::new((s + k) % 3, (s + k) / 3 % 3, 3, 3).buckets(5),
        };
        let held = |e: &Engine<'_, OrthogonalAllocation, AnySolver>| {
            e.shards
                .iter()
                .flat_map(|s| s.states.values().flatten())
                .filter(|s| s.network().is_some())
                .count()
        };
        for fuse in [false, true] {
            for reuse in [ReusePolicy::default(), ReusePolicy::warm()] {
                let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
                    .reuse(reuse)
                    .batch_fuse(fuse);
                let mut engine = Engine::builder(&system, &alloc)
                    .solver_spec(spec)
                    .shards(2)
                    .build();
                let warm_up: Vec<_> = (0..9)
                    .flat_map(|k| (0..16).map(move |s| query(s, k)))
                    .collect();
                assert!(engine.submit_batch(&warm_up).iter().all(Result::is_ok));
                if reuse.warm_start {
                    assert_eq!(held(&engine), 16, "fuse={fuse}: warm streams keep theirs");
                    continue;
                }
                assert_eq!(
                    held(&engine),
                    0,
                    "fuse={fuse}: a cold stream kept a network"
                );
                let before = engine.arena_allocation_events();
                for b in 0..16 {
                    let fresh: Vec<_> = (0..16).map(|i| query(16 * (b + 1) + i, 0)).collect();
                    assert!(engine.submit_batch(&fresh).iter().all(Result::is_ok));
                }
                assert_eq!(held(&engine), 0);
                assert_eq!(
                    engine.arena_allocation_events(),
                    before,
                    "fuse={fuse}: 256 new cold streams allocated arena memory"
                );
            }
        }
    }

    /// A solver that panics whenever the query contains a poison bucket —
    /// simulates a latent solver bug for containment tests.
    #[derive(Clone, Copy)]
    struct PanicOnBucket(rds_decluster::query::Bucket);

    impl RetrievalSolver for PanicOnBucket {
        fn name(&self) -> &'static str {
            "panic-on-bucket"
        }
        fn solve_in(
            &self,
            inst: &RetrievalInstance,
            ws: &mut Workspace,
        ) -> Result<RetrievalOutcome, SolveError> {
            assert!(!inst.buckets.contains(&self.0), "injected solver bug");
            PushRelabelBinary.solve_in(inst, ws)
        }
    }

    #[test]
    fn panic_is_contained_to_the_poisoned_query() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let poison = RangeQuery::new(3, 3, 1, 1).buckets(5)[0];
        for shards in [1usize, 2, 4] {
            let mut engine = Engine::new(&system, &alloc, PanicOnBucket(poison), shards);
            let good = RangeQuery::new(0, 0, 1, 2).buckets(5);
            let bad = RangeQuery::new(3, 3, 1, 1).buckets(5);
            let mk = |stream, ms, buckets: &Vec<_>| BatchQuery {
                stream,
                arrival: Micros::from_millis(ms),
                buckets: buckets.clone(),
            };
            let results = engine.submit_batch(&[
                mk(0, 0, &good),
                mk(1, 0, &bad),
                mk(2, 0, &good),
                mk(1, 5, &good),
            ]);
            assert!(results[0].is_ok(), "{shards} shards");
            assert_eq!(
                results[1].as_ref().unwrap_err(),
                &EngineError::ShardFailed { shard: 1 % shards }
            );
            assert!(results[2].is_ok());
            // The poisoned stream restarts cleanly on its next query.
            assert!(results[3].is_ok());
            assert_eq!(engine.stats().shard_failures, 1);
            assert_eq!(engine.stats().errors, 1);
        }
    }

    #[test]
    fn failed_spans_flag_contained_panics_only() {
        use crate::serve::{QueryRequest, ServeConfig, Ticket};
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let poison = RangeQuery::new(3, 3, 1, 1).buckets(5)[0];
        let mut engine = Engine::new(&system, &alloc, PanicOnBucket(poison), 1);
        let report = engine.serve(ServeConfig::default().virtual_time(), |h| {
            let panicked = h.submit(QueryRequest::new(0, vec![poison])).unwrap();
            // A bucket off the 5x5 grid has no replica: a typed failure.
            let off_grid = vec![Bucket::new(9, 9)];
            let typed = h.submit(QueryRequest::new(1, off_grid)).unwrap();
            (panicked, typed)
        });
        assert_eq!((report.stats.errors, report.stats.panics), (2, 1));
        let (panicked, typed) = report.output;
        let postmortem = engine.postmortem();
        let statusz = postmortem.to_statusz();
        for (ticket, panic) in [(panicked, true), (typed, false)] {
            let span = postmortem
                .spans
                .iter()
                .find(|s| s.id.0 == ticket.0)
                .expect("failed spans are retained");
            let failed = span
                .phases()
                .iter()
                .find(|p| p.kind == EventKind::Failed)
                .expect("a failed phase");
            assert_eq!(failed.a, panic as u64, "{ticket:?}");
            let Ticket(t) = ticket;
            let block = statusz
                .split("\n\n")
                .find(|b| b.starts_with(&format!("span ticket={t} ")))
                .expect("span in statusz");
            assert!(block.contains(&format!("panic={panic}")), "{block}");
        }
    }

    /// Canonical comparison key for fused-vs-serial equivalence: the
    /// full schedule (bucket→disk assignments), response time and
    /// completion — bit-identical means all of these match.
    #[allow(clippy::type_complexity)]
    fn outcome_key(
        r: &Result<SessionOutcome, EngineError>,
    ) -> Result<(Micros, Micros, Vec<(Bucket, usize)>), EngineError> {
        r.as_ref()
            .map(|o| {
                (
                    o.outcome.response_time,
                    o.completion,
                    o.outcome.schedule.assignments().to_vec(),
                )
            })
            .map_err(|e| *e)
    }

    #[test]
    fn fused_batches_are_bit_identical_to_serial() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let queries = batch(6, 4);
        for layout in [ArenaLayout::Wide, ArenaLayout::Compact] {
            let spec = SolverSpec::new(SolverKind::PushRelabelBinary)
                .reuse(ReusePolicy::warm())
                .arena_layout(layout);
            let baseline: Vec<_> = {
                let mut engine = Engine::builder(&system, &alloc).solver_spec(spec).build();
                let got = engine.submit_batch(&queries);
                assert_eq!(engine.stats().fused_batches, 0);
                got.iter().map(outcome_key).collect()
            };
            for shards in [1usize, 2, 4] {
                let mut engine = Engine::builder(&system, &alloc)
                    .solver_spec(spec.batch_fuse(true).parallelism(3))
                    .shards(shards)
                    .build();
                let got: Vec<_> = engine
                    .submit_batch(&queries)
                    .iter()
                    .map(outcome_key)
                    .collect();
                assert_eq!(got, baseline, "{layout:?} {shards} shards");
                assert!(engine.stats().fused_batches >= 1, "fused path engaged");
                // Shards that own a single stream group fall back to the
                // serial path, so the fused count is a (non-empty) subset.
                let fused = engine.stats().fused_queries;
                assert!(fused >= 1 && fused <= queries.len() as u64);
                // A second batch recycles the lane free list.
                let again: Vec<_> = engine
                    .submit_batch(&queries)
                    .iter()
                    .map(outcome_key)
                    .collect();
                let n: usize = engine.shards.iter().map(|s| s.lanes.len()).sum();
                assert!(n >= 2, "lanes retained for recycling");
                drop(again);
            }
        }
    }

    #[test]
    fn fused_single_stream_falls_back_to_serial() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let queries = batch(1, 4); // one stream: nothing to fuse
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(SolverSpec::new(SolverKind::PushRelabelBinary).batch_fuse(true))
            .build();
        let results = engine.submit_batch(&queries);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(engine.stats().fused_batches, 0);
        assert_eq!(engine.stats().fused_queries, 0);
    }

    #[test]
    fn fused_panic_containment_matches_serial() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let poison = RangeQuery::new(3, 3, 1, 1).buckets(5)[0];
        let good = RangeQuery::new(0, 0, 1, 2).buckets(5);
        let bad = RangeQuery::new(3, 3, 1, 1).buckets(5);
        let mk = |stream, ms, buckets: &Vec<_>| BatchQuery {
            stream,
            arrival: Micros::from_millis(ms),
            buckets: buckets.clone(),
        };
        let mut engine = Engine::new(&system, &alloc, PanicOnBucket(poison), 1);
        engine.pool = Some(rds_flow::WorkerPool::new(2));
        let results = engine.submit_batch(&[
            mk(0, 0, &good),
            mk(1, 0, &bad),
            mk(2, 0, &good),
            mk(1, 5, &good),
        ]);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &EngineError::ShardFailed { shard: 0 }
        );
        assert!(results[2].is_ok());
        // The poisoned stream restarts cleanly on its next query (same
        // lane, same fused drain).
        assert!(results[3].is_ok());
        assert_eq!(engine.stats().shard_failures, 1);
        assert_eq!(engine.stats().fused_batches, 1);
    }

    /// A panic payload whose own `Drop` panics again.
    struct Bomb;

    impl Drop for Bomb {
        fn drop(&mut self) {
            panic!("panic payload dropped");
        }
    }

    /// Panics with a [`Bomb`] payload on the poison bucket.
    #[derive(Clone, Copy)]
    struct BombOnBucket(rds_decluster::query::Bucket);

    impl RetrievalSolver for BombOnBucket {
        fn name(&self) -> &'static str {
            "bomb-on-bucket"
        }
        fn solve_in(
            &self,
            inst: &RetrievalInstance,
            ws: &mut Workspace,
        ) -> Result<RetrievalOutcome, SolveError> {
            if inst.buckets.contains(&self.0) {
                std::panic::panic_any(Bomb);
            }
            PushRelabelBinary.solve_in(inst, ws)
        }
    }

    #[test]
    fn a_payload_that_panics_on_drop_is_contained_on_every_path() {
        use crate::serve::{QueryRequest, ServeConfig, Ticket};
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let poison = RangeQuery::new(3, 3, 1, 1).buckets(5)[0];
        let good = RangeQuery::new(0, 0, 1, 2).buckets(5);
        let bad = RangeQuery::new(3, 3, 1, 1).buckets(5);
        let queries: Vec<BatchQuery> = [(0, 0, &good), (1, 0, &bad), (2, 0, &good), (1, 5, &good)]
            .into_iter()
            .map(|(stream, ms, buckets)| BatchQuery {
                stream,
                arrival: Micros::from_millis(ms),
                buckets: buckets.clone(),
            })
            .collect();
        let engine = |shards: usize, fused: bool| {
            let mut engine = Engine::new(&system, &alloc, BombOnBucket(poison), shards);
            if fused {
                engine.pool = Some(WorkerPool::new(2));
            }
            engine
        };

        for shards in [1usize, 2] {
            let mut e = engine(shards, false);
            let results = e.submit_batch(&queries);
            let failed: Vec<bool> = results.iter().map(Result::is_err).collect();
            assert_eq!(
                failed,
                [false, true, false, false],
                "batch, {shards} shards"
            );
            assert_eq!(
                results[1].as_ref().unwrap_err(),
                &EngineError::ShardFailed { shard: 1 % shards }
            );
            assert_eq!(e.stats().shard_failures, 1);
        }

        for (shards, fused) in [(1usize, false), (2, false), (1, true)] {
            let mut e = engine(shards, fused);
            let mut config = ServeConfig::default().virtual_time();
            if fused {
                config = config.batch_window(Duration::from_millis(1)).batch_max(4);
            }
            let report = e.serve(config, |h| {
                queries
                    .iter()
                    .map(|q| {
                        h.submit(
                            QueryRequest::new(q.stream, q.buckets.clone()).arriving_at(q.arrival),
                        )
                        .unwrap()
                    })
                    .collect::<Vec<Ticket>>()
            });
            let tag = format!("serve, {shards} shards, fused {fused}");
            assert_eq!(report.stats.admitted, 4, "{tag}");
            assert_eq!(report.stats.completed, 4, "{tag}");
            assert_eq!(report.stats.panics, 1, "{tag}");
            assert_eq!(report.stats.errors, 1, "{tag}");
            for r in &report.unclaimed {
                let poisoned = r.ticket == report.output[1];
                match &r.result {
                    Err(EngineError::ShardFailed { .. }) => {
                        assert!(poisoned, "{tag}")
                    }
                    other => assert!(!poisoned && other.is_ok(), "{tag}: {other:?}"),
                }
            }
            if fused {
                assert_eq!(e.stats().fused_batches, 1, "{tag}");
            }
        }
    }

    #[test]
    fn fused_trace_counts_include_lane_plane_checkouts() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let queries = batch(4, 2);
        let mut engine = Engine::builder(&system, &alloc)
            .solver_spec(
                SolverSpec::new(SolverKind::PushRelabelBinary)
                    .reuse(ReusePolicy::warm())
                    .batch_fuse(true),
            )
            .build();
        let results = engine.submit_batch(&queries);
        assert!(results.iter().all(|r| r.is_ok()));
        let counts = engine.trace_counts();
        assert!(
            counts[EventKind::PlaneCheckout as usize] > 0,
            "lane checkouts are counted"
        );
        let reg = engine.metrics_snapshot().to_registry();
        assert!(engine.stats().fused_batches >= 1);
        assert!(reg.to_prometheus().contains("rds_fuse_batches_total"));
    }

    #[test]
    fn offline_disks_reroute_and_infeasible_is_typed() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let b = RangeQuery::new(0, 1, 1, 1).buckets(5);
        // Find the two replica disks of that single bucket.
        let replicas: Vec<usize> = alloc.replicas(b[0]).iter().collect();
        assert!(replicas.len() >= 2);

        // One replica down: the query reroutes to the survivor.
        let injector = FaultInjector::pinned(&HealthMap::with_offline(&replicas[..1]));
        let mut engine =
            Engine::new(&system, &alloc, PushRelabelBinary, 2).with_fault_injector(injector);
        let q = BatchQuery {
            stream: 0,
            arrival: Micros::ZERO,
            buckets: b.clone(),
        };
        let results = engine.submit_batch(std::slice::from_ref(&q));
        let out = results[0].as_ref().unwrap();
        let (_, disk) = out.outcome.schedule.assignments()[0];
        assert!(!replicas[..1].contains(&disk));

        // All replicas down: typed infeasibility naming the bucket.
        let injector = FaultInjector::pinned(&HealthMap::with_offline(&replicas));
        let mut engine =
            Engine::new(&system, &alloc, PushRelabelBinary, 2).with_fault_injector(injector);
        let results = engine.submit_batch(std::slice::from_ref(&q));
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &EngineError::Session(SessionError::Solve(SolveError::Infeasible {
                bucket: Some(b[0]),
                delivered: 0,
                required: 1,
            }))
        );
    }

    #[test]
    fn retry_replans_after_recovery() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let b = RangeQuery::new(0, 1, 1, 1).buckets(5);
        let replicas: Vec<usize> = alloc.replicas(b[0]).iter().collect();

        // Both replicas go down at t=0 and recover at t=3ms; the query
        // arrives at t=1ms. With backoff 1ms and 3 retries, the probe at
        // t=3ms sees the recovery and the re-solve succeeds.
        let mut injector = FaultInjector::new();
        for &d in &replicas {
            injector.schedule(Micros::ZERO, d, DiskHealth::Offline);
            injector.schedule(Micros::from_millis(3), d, DiskHealth::Healthy);
        }
        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 1)
            .with_fault_injector(injector)
            .with_retry_policy(RetryPolicy {
                max_retries: 3,
                backoff: Micros::from_millis(1),
            });
        let q = BatchQuery {
            stream: 0,
            arrival: Micros::from_millis(1),
            buckets: b.clone(),
        };
        let results = engine.submit_batch(std::slice::from_ref(&q));
        assert!(results[0].is_ok(), "recovered replica should serve");
        assert_eq!(engine.stats().retries, 1);
        assert_eq!(engine.stats().errors, 0);
    }

    #[test]
    fn degraded_mode_serves_the_retrievable_subset() {
        let system = SystemConfig::homogeneous(CHEETAH, 5);
        let alloc = OrthogonalAllocation::new(5, Placement::SingleSite);
        let buckets = RangeQuery::new(0, 0, 1, 5).buckets(5);
        // Kill every replica of exactly one bucket.
        let victim = buckets[2];
        let dead: Vec<usize> = alloc.replicas(victim).iter().collect();
        let injector = FaultInjector::pinned(&HealthMap::with_offline(&dead));

        let mut engine = Engine::new(&system, &alloc, PushRelabelBinary, 2)
            .with_fault_injector(injector)
            .with_degraded_mode(true);
        let q = BatchQuery {
            stream: 0,
            arrival: Micros::ZERO,
            buckets: buckets.clone(),
        };
        let results = engine.submit_batch(std::slice::from_ref(&q));
        let out = results[0].as_ref().unwrap();
        assert!(!out.is_complete());
        assert!(out.unservable.contains(&victim));
        assert_eq!(
            out.outcome.schedule.len() + out.unservable.len(),
            buckets.len()
        );
        assert_eq!(engine.stats().degraded_solves, 1);
        assert!(engine.stats().dropped_buckets >= 1);
        assert_eq!(engine.stats().errors, 0);
    }
}
