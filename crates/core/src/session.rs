//! Multi-query sessions with initial-load feedback.
//!
//! The paper motivates the `X_j` term as load left by *previous queries*:
//! "initial loads of the disks from the previous queries can also be
//! calculated easily since it is based on how the previous queries are
//! scheduled" (§II-A). This module closes that loop: a
//! [`RetrievalSession`] tracks each disk's busy-until time, derives the
//! `X_j` of every incoming query from the schedules of the queries before
//! it, solves, and charges the resulting work back to the disks.
//!
//! Time is virtual: the caller supplies each query's arrival time
//! (monotone non-decreasing), so sessions are deterministic and
//! simulation-friendly.
//!
//! Internally the session keeps one [`Workspace`]. A stream that resumes
//! warm flows ([`ReusePolicy::warm_start`]) also keeps a
//! [`RetrievalInstance`] of its own, patched or rebuilt in place per
//! submit, because a delta patch aligns the stored flow with that
//! network's edge ids. Every other stream keeps only its backlog, clock
//! and schedule cache: each cache miss rebuilds the workspace's one
//! network in place ([`RetrievalInstance::rebuild_in`]) and solves it
//! there. Either way steady-state submits allocate nothing. The
//! bookkeeping lives in [`SessionState`], a plain owned value, so the
//! batch [`crate::engine::Engine`] can hold many sessions and move them
//! across worker threads, while its shards and fused lanes each hold one
//! network for all their cold streams.

use crate::error::{SessionError, SolveError};
use crate::fault::{self, HealthMap};
use crate::network::{self, RetrievalInstance};
use crate::obs::trace::TraceEvent;
use crate::schedule::{RetrievalOutcome, SolveStats};
use crate::solver::RetrievalSolver;
use crate::spec::{AnySolver, ScheduleObjective, SolverSpec};
use crate::workspace::{on_graph, Workspace};
use rds_decluster::allocation::ReplicaSource;
use rds_decluster::query::Bucket;
use rds_storage::model::SystemConfig;
use rds_storage::time::Micros;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Cross-query reuse knobs for one stream: warm-start delta solving and
/// the per-stream schedule cache, carried by [`SolverSpec::reuse`]. The
/// default disables both — sessions then behave exactly as before this
/// feature existed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReusePolicy {
    /// Patch the previous query's flow to the next query (cancel stale
    /// units, retarget capacities) instead of solving from scratch, when
    /// the consecutive queries are compatible (same query size, same
    /// health). Solvers without delta support transparently fall back to
    /// a full rebuild per query. A warm-start stream keeps a network of
    /// its own for the patches; a cold one rebuilds its workspace's.
    pub warm_start: bool,
    /// Entries in the per-stream schedule cache keyed by (query, health,
    /// load) fingerprints; `0` disables the cache.
    pub cache_capacity: usize,
}

impl ReusePolicy {
    /// The recommended reuse preset: warm start on, an 8-entry cache.
    pub fn warm() -> ReusePolicy {
        ReusePolicy {
            warm_start: true,
            cache_capacity: 8,
        }
    }

    /// Whether any reuse mechanism is on.
    pub fn enabled(&self) -> bool {
        self.warm_start || self.cache_capacity > 0
    }
}

/// Effectiveness counters for one stream's reuse machinery, surfaced
/// aggregated by [`crate::engine::EngineStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseCounters {
    /// Submits answered straight from the schedule cache.
    pub cache_hits: u64,
    /// Submits that consulted the cache and missed.
    pub cache_misses: u64,
    /// Cache entries displaced by capacity pressure.
    pub cache_evictions: u64,
    /// Submits solved by delta-patching the previous flow.
    pub delta_patches: u64,
    /// Delta attempts the solver declined ([`SolveError::DeltaUnsupported`]),
    /// transparently re-solved from scratch.
    pub delta_fallbacks: u64,
}

impl ReuseCounters {
    /// Adds `other` into `self` (engine aggregation across streams).
    pub fn merge(&mut self, other: &ReuseCounters) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.delta_patches += other.delta_patches;
        self.delta_fallbacks += other.delta_fallbacks;
    }
}

/// Flow/excess snapshot of a stream's previous solve, staged into the
/// workspace for `resume_in`.
#[derive(Clone, Debug, Default)]
struct WarmFlow {
    flows: Vec<i64>,
    excess: Vec<i64>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CacheKey {
    query_fp: u64,
    health_fp: u64,
    load_fp: u64,
}

/// Tiny LRU of recent solve outcomes. Linear scan — capacities are
/// single-digit, so a map would cost more than it saves.
#[derive(Clone, Debug, Default)]
struct ScheduleCache {
    entries: Vec<(CacheKey, RetrievalOutcome)>,
}

impl ScheduleCache {
    /// Looks up `key`, refreshing its LRU position on a hit.
    fn get(&mut self, key: &CacheKey) -> Option<RetrievalOutcome> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let outcome = entry.1.clone();
        self.entries.push(entry);
        Some(outcome)
    }

    fn insert(
        &mut self,
        key: CacheKey,
        outcome: RetrievalOutcome,
        capacity: usize,
        evictions: &mut u64,
    ) {
        if capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let _ = self.entries.remove(pos);
        } else if self.entries.len() >= capacity {
            let _ = self.entries.remove(0);
            *evictions += 1;
        }
        self.entries.push((key, outcome));
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The outcome of one session query, with absolute-time bookkeeping.
#[must_use]
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The solver outcome (relative response time, schedule, stats). On a
    /// degraded submit this covers the servable subset only.
    pub outcome: RetrievalOutcome,
    /// Arrival time of the query.
    pub arrival: Micros,
    /// Absolute completion time (`arrival + response_time`).
    pub completion: Micros,
    /// Buckets dropped because every replica was offline. Always empty
    /// outside [`SessionState::submit_degraded_with`].
    pub unservable: Vec<Bucket>,
}

impl SessionOutcome {
    /// True when every requested bucket was retrieved.
    pub fn is_complete(&self) -> bool {
        self.unservable.is_empty()
    }
}

/// The owned, thread-movable bookkeeping of one query stream: disk
/// busy-until times, virtual clock, schedule cache and, for a warm-start
/// stream, its retrieval network.
///
/// [`RetrievalSession`] wraps one of these with its system/allocation
/// references for the common single-stream case;
/// [`crate::engine::Engine`] keeps one per stream and drives them with
/// [`SessionState::submit_with`] on whichever shard owns the stream.
#[derive(Clone, Debug, Default)]
pub struct SessionState {
    /// Absolute time at which each disk finishes its outstanding work.
    busy_until: Vec<Micros>,
    /// Arrival time of the most recent query.
    now: Micros,
    /// Completed queries.
    served: u64,
    /// A warm-start stream's network, patched or rebuilt in place across
    /// submits. A cold stream keeps none: each of its misses rebuilds the
    /// network of the [`Workspace`] that solves it.
    instance: Option<RetrievalInstance>,
    /// Fingerprint of the [`HealthMap`] a warm-start stream's network was
    /// built under — topology reuse requires it to match, since offline
    /// disks change which replica edges exist.
    health_fp: u64,
    /// Fingerprint of the health this stream last *observed*, for
    /// [`crate::obs::trace::TraceEvent::HealthTransition`] emission by the
    /// engine. Tracked per stream (not per shard) so transition counts
    /// are independent of how streams are sharded.
    pub(crate) observed_health_fp: u64,
    /// Scratch: buckets with a live replica (degraded submits).
    servable_buf: Vec<Bucket>,
    /// Scratch: buckets with no live replica (degraded submits).
    unservable_buf: Vec<Bucket>,
    /// Cross-query reuse knobs ([`SolverSpec::reuse`]; default: all off).
    reuse: ReusePolicy,
    /// Which response-time-optimal schedule to return
    /// ([`SolverSpec::objective`]; default: the first feasible one, no
    /// refinement).
    objective: ScheduleObjective,
    /// Reuse effectiveness counters.
    counters: ReuseCounters,
    /// Flow snapshot of the previous solve, if still loadable into the
    /// cached instance (invalidated by any rebuild).
    warm: Option<WarmFlow>,
    /// Recent solve outcomes keyed by (query, health, load) fingerprints.
    cache: ScheduleCache,
    /// Scratch: slots patched by the last `patch_buckets`.
    changed_scratch: Vec<usize>,
}

impl SessionState {
    /// Fresh state: all disks idle, clock at zero.
    pub fn new(num_disks: usize) -> SessionState {
        SessionState {
            busy_until: vec![Micros::ZERO; num_disks],
            now: Micros::ZERO,
            served: 0,
            instance: None,
            health_fp: HealthMap::HEALTHY_FINGERPRINT,
            observed_health_fp: HealthMap::HEALTHY_FINGERPRINT,
            servable_buf: Vec::new(),
            unservable_buf: Vec::new(),
            reuse: ReusePolicy::default(),
            objective: ScheduleObjective::default(),
            counters: ReuseCounters::default(),
            warm: None,
            cache: ScheduleCache::default(),
            changed_scratch: Vec::new(),
        }
    }

    /// Fresh state under `spec`'s reuse policy and schedule objective
    /// (the spec's budget and arena width belong to the workspace the
    /// caller solves in).
    pub fn from_spec(num_disks: usize, spec: &SolverSpec) -> SessionState {
        SessionState {
            reuse: spec.reuse,
            objective: spec.objective,
            ..SessionState::new(num_disks)
        }
    }

    /// Reuse effectiveness counters accumulated so far.
    pub fn reuse_counters(&self) -> ReuseCounters {
        self.counters
    }

    /// Number of queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.served
    }

    /// Current virtual time (arrival of the latest query).
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The initial load `X_j` disk `j` would present to a query arriving
    /// now: the remaining busy time, 0 if idle.
    pub fn current_load(&self, j: usize) -> Micros {
        self.busy_until[j].saturating_sub(self.now)
    }

    /// The network this stream keeps: a warm-start stream's, once built;
    /// always `None` for a cold stream, whose network is its workspace's.
    pub(crate) fn network(&self) -> Option<&RetrievalInstance> {
        self.instance.as_ref()
    }

    /// Submits a query arriving at `arrival` (must be ≥ the previous
    /// arrival), solves it with per-disk initial loads derived from the
    /// outstanding work, and charges the schedule back to the disks.
    ///
    /// `system` and `alloc` must be the same on every call for the load
    /// feedback to be meaningful (the [`RetrievalSession`] wrapper
    /// guarantees this).
    pub fn submit_with<A: ReplicaSource + ?Sized, S: RetrievalSolver + ?Sized>(
        &mut self,
        system: &SystemConfig,
        alloc: &A,
        solver: &S,
        ws: &mut Workspace,
        arrival: Micros,
        buckets: &[Bucket],
    ) -> Result<SessionOutcome, SessionError> {
        self.submit_faulted(
            system,
            alloc,
            solver,
            ws,
            arrival,
            buckets,
            &HealthMap::all_healthy(),
            false,
        )
    }

    /// Like [`SessionState::submit_with`], but plans around the faults in
    /// `health`: offline disks are pruned from the network and degraded
    /// disks carry inflated cost and load. **Strict**: if any requested
    /// bucket has every replica offline, fails with
    /// [`SolveError::Infeasible`] naming that bucket, and no disk is
    /// charged.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_with_health<A: ReplicaSource + ?Sized, S: RetrievalSolver + ?Sized>(
        &mut self,
        system: &SystemConfig,
        alloc: &A,
        solver: &S,
        ws: &mut Workspace,
        arrival: Micros,
        buckets: &[Bucket],
        health: &HealthMap,
    ) -> Result<SessionOutcome, SessionError> {
        self.submit_faulted(system, alloc, solver, ws, arrival, buckets, health, false)
    }

    /// Best-effort variant of [`SessionState::submit_with_health`]:
    /// buckets whose replicas are all offline are dropped into
    /// [`SessionOutcome::unservable`] and the remainder is scheduled
    /// optimally, instead of failing the whole query.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_degraded_with<A: ReplicaSource + ?Sized, S: RetrievalSolver + ?Sized>(
        &mut self,
        system: &SystemConfig,
        alloc: &A,
        solver: &S,
        ws: &mut Workspace,
        arrival: Micros,
        buckets: &[Bucket],
        health: &HealthMap,
    ) -> Result<SessionOutcome, SessionError> {
        self.submit_faulted(system, alloc, solver, ws, arrival, buckets, health, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_faulted<A: ReplicaSource + ?Sized, S: RetrievalSolver + ?Sized>(
        &mut self,
        system: &SystemConfig,
        alloc: &A,
        solver: &S,
        ws: &mut Workspace,
        arrival: Micros,
        buckets: &[Bucket],
        health: &HealthMap,
        best_effort: bool,
    ) -> Result<SessionOutcome, SessionError> {
        if arrival < self.now {
            return Err(SessionError::NonMonotoneArrival {
                arrival,
                now: self.now,
            });
        }
        self.now = arrival;
        // A bucket off the allocation's grid has no replica: reject it
        // before any lookup indexes the allocation with it.
        network::check_on_grid(alloc, buckets)
            .map_err(|u| SessionError::Solve(u.infeasible(buckets.len())))?;

        // Partition out buckets that lost every replica. With no offline
        // disks this is skipped entirely — the healthy path copies
        // nothing.
        let target: &[Bucket] = if health.any_offline() {
            fault::partition_by_health(
                alloc,
                buckets,
                health,
                &mut self.servable_buf,
                &mut self.unservable_buf,
            );
            if !self.unservable_buf.is_empty() && !best_effort {
                return Err(SessionError::Solve(SolveError::Infeasible {
                    bucket: Some(self.unservable_buf[0]),
                    delivered: self.servable_buf.len() as i64,
                    required: buckets.len() as i64,
                }));
            }
            &self.servable_buf
        } else {
            self.unservable_buf.clear();
            buckets
        };

        let fp = health.fingerprint();

        // Schedule cache: the outcome is fully determined by the target
        // buckets, the health map and the effective per-disk loads, all
        // hashable without touching any network. A hit skips the network
        // update and the solve, but still charges the disks.
        let cache_key = (self.reuse.cache_capacity > 0).then(|| CacheKey {
            query_fp: hash_of(&target),
            health_fp: fp,
            load_fp: {
                let mut h = DefaultHasher::new();
                for (j, busy) in self.busy_until.iter().enumerate() {
                    let base = health.apply(j, system.disk(j));
                    (base.initial_load + busy.saturating_sub(arrival)).hash(&mut h);
                }
                h.finish()
            },
        });
        if let Some(key) = cache_key {
            if let Some(outcome) = self.cache.get(&key) {
                self.counters.cache_hits += 1;
                ws.tracer.emit(TraceEvent::CacheHit {
                    fingerprint: key.query_fp,
                });
                return Ok(self.charge(system, health, arrival, outcome, ws));
            }
            self.counters.cache_misses += 1;
        }

        // A warm-start stream solves its own network, so that a delta patch
        // can align the stored flow with its edge ids; every other stream
        // rebuilds the one network of the workspace that solves it. The
        // network is moved out for the solve and back afterwards.
        let warm_start = self.reuse.warm_start;
        let mut network = if warm_start {
            self.instance.take()
        } else {
            ws.network.take()
        };
        let solved = 'solve: {
            // Bring the network up to date. A cold stream rebuilds it on
            // every miss. A warm stream's own network takes the cheapest of
            // three paths: the bucket set repeats under the same health
            // (topology already right, only loads changed); the previous
            // flow is warm and the new query is patch-compatible (delta
            // surgery on the live network); otherwise a rebuild in place.
            let topo_ok = warm_start
                && self.health_fp == fp
                && network
                    .as_ref()
                    .is_some_and(|inst| inst.num_disks() == system.num_disks());
            let same_buckets =
                topo_ok && network.as_ref().is_some_and(|inst| inst.buckets == target);
            let mut delta_ready = false;
            if topo_ok && self.warm.is_some() {
                if same_buckets {
                    self.changed_scratch.clear();
                    delta_ready = true;
                } else if network
                    .as_ref()
                    .is_some_and(|i| i.query_size() == target.len() && !i.needs_compaction())
                {
                    let inst = network.as_mut().expect("topo_ok");
                    match inst.patch_buckets(alloc, target, health, &mut self.changed_scratch) {
                        Ok(()) => delta_ready = true,
                        Err(_) => {
                            // A new bucket lost every replica mid-patch; the
                            // instance is unspecified. Fall through to a full
                            // rebuild, which reports the infeasibility.
                            ws.tracer.emit(TraceEvent::DeltaFallback {
                                solver_declined: false,
                            });
                            network = None;
                            self.warm = None;
                        }
                    }
                }
            }
            if !same_buckets && !delta_ready {
                ws.tracer.emit(TraceEvent::Rebuild {
                    buckets: target.len() as u32,
                });
                let rebuilt = match network.as_mut() {
                    Some(inst) => inst.rebuild_with_health(system, alloc, target, health),
                    None => RetrievalInstance::build_with_health(system, alloc, target, health)
                        .map(|inst| network = Some(inst)),
                };
                // `partition_by_health` already removed every dead bucket, so
                // a rebuild can only fail if a bucket has no replica at all —
                // surface that as infeasibility rather than panicking.
                if let Err(u) = rebuilt {
                    network = None;
                    self.warm = None;
                    break 'solve Err(SessionError::Solve(u.infeasible(buckets.len())));
                }
                self.health_fp = fp;
                // Edge ids changed under the rebuild; the captured flow no
                // longer maps onto the graph.
                self.warm = None;
            }
            let inst = network.as_mut().expect("network built above");
            // Degraded disks present their inflated configured load; the busy
            // backlog from earlier queries is added unscaled (it is already
            // measured in wall time).
            for (j, d) in inst.disks.iter_mut().enumerate() {
                let base = health.apply(j, system.disk(j));
                d.initial_load = base.initial_load + self.busy_until[j].saturating_sub(arrival);
            }

            let solved = if delta_ready {
                let warm = self.warm.as_ref().expect("delta_ready implies warm");
                ws.stage_warm(&warm.flows, &warm.excess, &self.changed_scratch);
                match solver.resume_in(inst, ws) {
                    Ok(outcome) => {
                        self.counters.delta_patches += 1;
                        Ok(outcome)
                    }
                    Err(SolveError::DeltaUnsupported { .. }) => {
                        // The declared fallback: the patched instance is a
                        // valid cold instance (dead arcs carry zero capacity),
                        // so re-solve it from scratch.
                        self.counters.delta_fallbacks += 1;
                        ws.tracer.emit(TraceEvent::DeltaFallback {
                            solver_declined: true,
                        });
                        solver.solve_in(inst, ws)
                    }
                    Err(e) => Err(e),
                }
            } else {
                solver.solve_in(inst, ws)
            };
            // Refine before the warm capture and the cache insert, so the
            // flow snapshot seeding the next delta solve and any replayed
            // cache entry both carry the refined, load-balanced flow.
            let outcome = solved.and_then(|mut outcome| {
                crate::refine::refine_in(self.objective, inst, ws, &mut outcome)?;
                Ok(outcome)
            });
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(e) => {
                    // The workspace graph no longer matches any captured flow.
                    self.warm = None;
                    break 'solve Err(e.into());
                }
            };
            if warm_start {
                // Capture the completed flow for the next submit. Every
                // solver leaves its final flow in the workspace graph; the
                // excess of a complete flow is zero everywhere but the sink.
                let warm = self.warm.get_or_insert_with(WarmFlow::default);
                // The snapshot is width-erased (`Vec<i64>`), so it survives the
                // workspace switching arena widths between submits.
                let vertices = on_graph!(ws, |g| {
                    g.store_flows_into(&mut warm.flows);
                    g.num_vertices()
                });
                warm.excess.clear();
                warm.excess.resize(vertices, 0);
                warm.excess[inst.sink()] = outcome.flow_value as i64;
            }
            Ok(outcome)
        };
        if warm_start {
            self.instance = network;
        } else {
            ws.network = network;
        }
        let outcome = solved?;
        if let Some(key) = cache_key {
            // Stats are zeroed so a hit is byte-identical no matter how
            // often the entry is replayed.
            let mut cached = outcome.clone();
            cached.stats = SolveStats::default();
            self.cache.insert(
                key,
                cached,
                self.reuse.cache_capacity,
                &mut self.counters.cache_evictions,
            );
        }
        Ok(self.charge(system, health, arrival, outcome, ws))
    }

    /// Charges a solved (or cache-replayed) outcome back to the disks and
    /// wraps it with absolute-time bookkeeping. The effective disk
    /// parameters are recomputed from the system and health so the cache
    /// hit path needs no instance.
    fn charge(
        &mut self,
        system: &SystemConfig,
        health: &HealthMap,
        arrival: Micros,
        outcome: RetrievalOutcome,
        ws: &mut Workspace,
    ) -> SessionOutcome {
        let counts = outcome.schedule.per_disk_counts(self.busy_until.len());
        for (j, &k) in counts.iter().enumerate() {
            if k > 0 {
                let mut disk = health.apply(j, system.disk(j));
                disk.initial_load += self.busy_until[j].saturating_sub(arrival);
                let completion = arrival + disk.completion_time(k);
                self.busy_until[j] = self.busy_until[j].max(completion);
            }
        }
        self.served += 1;
        if !self.unservable_buf.is_empty() {
            ws.tracer.emit(TraceEvent::DegradedServe {
                served: outcome.schedule.len() as u32,
                dropped: self.unservable_buf.len() as u32,
            });
        }
        SessionOutcome {
            completion: arrival + outcome.response_time,
            outcome,
            arrival,
            unservable: self.unservable_buf.clone(),
        }
    }
}

/// A stateful retrieval session over one storage system and allocation.
pub struct RetrievalSession<'a, A: ReplicaSource, S: RetrievalSolver> {
    system: &'a SystemConfig,
    alloc: &'a A,
    solver: S,
    state: SessionState,
    workspace: Workspace,
}

impl<'a, A: ReplicaSource> RetrievalSession<'a, A, AnySolver> {
    /// Opens a session that solves with `spec`'s kind under its whole
    /// policy: reuse, schedule objective, anytime budget and arena width.
    /// All disks start idle.
    ///
    /// ```
    /// use rds_core::session::RetrievalSession;
    /// use rds_core::spec::{ScheduleObjective, SolverKind, SolverSpec};
    /// use rds_decluster::orthogonal::OrthogonalAllocation;
    /// use rds_decluster::query::{Query, RangeQuery};
    /// use rds_storage::experiments::paper_example;
    /// use rds_storage::time::Micros;
    ///
    /// let system = paper_example();
    /// let alloc = OrthogonalAllocation::paper_7x7();
    /// // Refined schedules keep the optimal response time but balance
    /// // per-disk load.
    /// let spec =
    ///     SolverSpec::new(SolverKind::PushRelabelBinary).objective(ScheduleObjective::MinTotalLoad);
    /// let mut session = RetrievalSession::from_spec(&system, &alloc, &spec);
    /// let out = session.submit(Micros::ZERO, &RangeQuery::new(0, 0, 3, 2).buckets(7)).unwrap();
    /// assert_eq!(out.outcome.schedule.len(), 6);
    /// ```
    pub fn from_spec(system: &'a SystemConfig, alloc: &'a A, spec: &SolverSpec) -> Self {
        RetrievalSession {
            state: SessionState::from_spec(system.num_disks(), spec),
            workspace: spec.workspace(),
            system,
            alloc,
            solver: spec.build(),
        }
    }
}

impl<'a, A: ReplicaSource, S: RetrievalSolver> RetrievalSession<'a, A, S> {
    /// Opens a session around a caller-supplied solver, under the default
    /// policy (no reuse, first feasible schedule, unlimited budget, auto
    /// arena width); all disks start idle.
    pub fn new(system: &'a SystemConfig, alloc: &'a A, solver: S) -> Self {
        RetrievalSession {
            state: SessionState::new(system.num_disks()),
            workspace: Workspace::new(),
            system,
            alloc,
            solver,
        }
    }

    /// Opens a session around a caller-supplied solver with cross-query
    /// reuse configured: warm-start delta solving and/or a per-stream
    /// schedule cache. [`RetrievalSession::from_spec`] sets the whole
    /// solve policy instead.
    ///
    /// ```
    /// use rds_core::pr::PushRelabelBinary;
    /// use rds_core::session::{ReusePolicy, RetrievalSession};
    /// use rds_decluster::orthogonal::OrthogonalAllocation;
    /// use rds_decluster::query::{Query, RangeQuery};
    /// use rds_storage::experiments::paper_example;
    /// use rds_storage::time::Micros;
    ///
    /// let system = paper_example();
    /// let alloc = OrthogonalAllocation::paper_7x7();
    /// let mut session =
    ///     RetrievalSession::with_reuse(&system, &alloc, PushRelabelBinary, ReusePolicy::warm());
    /// // Two overlapping range queries of equal size: the second is
    /// // delta-solved by patching the first one's flow.
    /// let q1 = RangeQuery::new(0, 0, 2, 3).buckets(7);
    /// let q2 = RangeQuery::new(0, 1, 2, 3).buckets(7);
    /// session.submit(Micros::ZERO, &q1).unwrap();
    /// session.submit(Micros::from_millis(50), &q2).unwrap();
    /// assert_eq!(session.reuse_counters().delta_patches, 1);
    /// ```
    pub fn with_reuse(
        system: &'a SystemConfig,
        alloc: &'a A,
        solver: S,
        reuse: ReusePolicy,
    ) -> Self {
        RetrievalSession {
            state: SessionState {
                reuse,
                ..SessionState::new(system.num_disks())
            },
            workspace: Workspace::new(),
            system,
            alloc,
            solver,
        }
    }

    /// Reuse effectiveness counters accumulated so far.
    pub fn reuse_counters(&self) -> ReuseCounters {
        self.state.reuse_counters()
    }

    /// Number of queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.state.queries_served()
    }

    /// Current virtual time (arrival of the latest query).
    pub fn now(&self) -> Micros {
        self.state.now()
    }

    /// The initial load `X_j` disk `j` would present to a query arriving
    /// now: the remaining busy time, 0 if idle.
    pub fn current_load(&self, j: usize) -> Micros {
        self.state.current_load(j)
    }

    /// Submits a query arriving at `arrival` (must be ≥ the previous
    /// arrival), solves it with per-disk initial loads derived from the
    /// outstanding work, and charges the schedule back to the disks.
    ///
    /// Returns [`SessionError::NonMonotoneArrival`] if `arrival` precedes
    /// the previous query's arrival, and [`SessionError::Solve`] if the
    /// solver rejects the instance; neither poisons the session.
    pub fn submit(
        &mut self,
        arrival: Micros,
        buckets: &[Bucket],
    ) -> Result<SessionOutcome, SessionError> {
        self.state.submit_with(
            self.system,
            self.alloc,
            &self.solver,
            &mut self.workspace,
            arrival,
            buckets,
        )
    }

    /// Strict fault-aware submit: plans around `health` (offline replicas
    /// pruned, degraded disks slowed) and fails with
    /// [`SolveError::Infeasible`] if any bucket lost every replica. See
    /// [`SessionState::submit_with_health`].
    pub fn submit_with_health(
        &mut self,
        arrival: Micros,
        buckets: &[Bucket],
        health: &HealthMap,
    ) -> Result<SessionOutcome, SessionError> {
        self.state.submit_with_health(
            self.system,
            self.alloc,
            &self.solver,
            &mut self.workspace,
            arrival,
            buckets,
            health,
        )
    }

    /// Best-effort fault-aware submit: unservable buckets are reported in
    /// [`SessionOutcome::unservable`] instead of failing the query. See
    /// [`SessionState::submit_degraded_with`].
    pub fn submit_degraded(
        &mut self,
        arrival: Micros,
        buckets: &[Bucket],
        health: &HealthMap,
    ) -> Result<SessionOutcome, SessionError> {
        self.state.submit_degraded_with(
            self.system,
            self.alloc,
            &self.solver,
            &mut self.workspace,
            arrival,
            buckets,
            health,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SolveError;
    use crate::ff::FordFulkersonBasic;
    use crate::pr::PushRelabelBinary;
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::specs::CHEETAH;

    fn setup() -> (SystemConfig, OrthogonalAllocation) {
        (
            SystemConfig::homogeneous(CHEETAH, 5),
            OrthogonalAllocation::new(5, Placement::SingleSite),
        )
    }

    #[test]
    fn delta_patch_past_compact_bound_fails_typed_with_clean_workspace() {
        use crate::spec::ArenaLayout;
        use crate::workspace::Workspace;

        let (system, alloc) = setup();
        let spec =
            SolverSpec::new(crate::spec::SolverKind::PushRelabelBinary).reuse(ReusePolicy::warm());
        let mut state = SessionState::from_spec(5, &spec);
        let mut ws = Workspace::new();
        ws.set_arena_layout(ArenaLayout::Compact);
        let q1 = RangeQuery::new(0, 0, 2, 3).buckets(5);
        // Same query size, different buckets: the next submit takes the
        // patch_buckets delta path, not a rebuild.
        let q2 = RangeQuery::new(0, 1, 2, 3).buckets(5);
        let _ = state
            .submit_with(
                &system,
                &alloc,
                &PushRelabelBinary,
                &mut ws,
                Micros::ZERO,
                &q1,
            )
            .unwrap();
        assert_eq!(ws.layout_used(), ArenaLayout::Compact);
        assert!(state.warm.is_some(), "warm flow captured");

        // A backlog pile-up on one disk drives the next solve's t_max sky
        // high, and an idle disk converts that budget into more blocks
        // than the compact guard band admits: the patched, warm-started
        // solve must fail with the typed overflow, not wrap or panic.
        state.busy_until[0] = Micros::from_micros(20_000_000_000_000);
        let err = state
            .submit_with(
                &system,
                &alloc,
                &PushRelabelBinary,
                &mut ws,
                Micros::ZERO,
                &q2,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::Solve(SolveError::ArenaOverflow { width: "i32", .. })
            ),
            "expected typed ArenaOverflow, got {err:?}"
        );
        // Typed failure, not poison: the workspace reports clean.
        assert_eq!(ws.take_poisoned(), Ok(()));
        // The stale warm snapshot was dropped with the failed solve.
        assert!(state.warm.is_none(), "warm flow dropped on overflow");

        // Widening recovers the stream in place, overload and all.
        ws.set_arena_layout(ArenaLayout::Wide);
        let out = state
            .submit_with(
                &system,
                &alloc,
                &PushRelabelBinary,
                &mut ws,
                Micros::ZERO,
                &q2,
            )
            .unwrap();
        assert_eq!(ws.layout_used(), ArenaLayout::Wide);
        assert_eq!(out.outcome.flow_value, q2.len() as u64);
    }

    #[test]
    fn first_query_sees_idle_disks() {
        let (system, alloc) = setup();
        let mut session = RetrievalSession::new(&system, &alloc, PushRelabelBinary);
        for j in 0..5 {
            assert_eq!(session.current_load(j), Micros::ZERO);
        }
        let q = RangeQuery::new(0, 0, 1, 5);
        let out = session.submit(Micros::ZERO, &q.buckets(5)).unwrap();
        assert_eq!(out.outcome.flow_value, 5);
        // 5 buckets over 5 idle cheetahs: one each, 6.1ms.
        assert_eq!(out.outcome.response_time, Micros::from_tenths_ms(61));
        assert_eq!(session.queries_served(), 1);
    }

    #[test]
    fn back_to_back_queries_queue_behind_each_other() {
        let (system, alloc) = setup();
        let mut session = RetrievalSession::new(&system, &alloc, PushRelabelBinary);
        let q = RangeQuery::new(0, 0, 1, 5);
        let first = session.submit(Micros::ZERO, &q.buckets(5)).unwrap();
        // Same query immediately again: every disk still busy 6.1ms, so
        // the second response is 6.1 (wait) + 6.1 (work).
        let second = session.submit(Micros::ZERO, &q.buckets(5)).unwrap();
        assert_eq!(
            second.outcome.response_time,
            first.outcome.response_time * 2
        );
    }

    #[test]
    fn loads_drain_over_time() {
        let (system, alloc) = setup();
        let mut session = RetrievalSession::new(&system, &alloc, PushRelabelBinary);
        let q = RangeQuery::new(0, 0, 1, 5);
        let _ = session.submit(Micros::ZERO, &q.buckets(5)).unwrap();
        // Arrive after the disks are idle again: no queueing.
        let late = session
            .submit(Micros::from_millis(50), &q.buckets(5))
            .unwrap();
        assert_eq!(late.outcome.response_time, Micros::from_tenths_ms(61));
        for j in 0..5 {
            // busy_until = 50ms + 6.1ms.
            assert_eq!(session.current_load(j), Micros::from_tenths_ms(61));
        }
    }

    #[test]
    fn partial_overlap_steers_to_idle_disks() {
        let (system, alloc) = setup();
        let mut session = RetrievalSession::new(&system, &alloc, PushRelabelBinary);
        // Load only the disk serving bucket (0,1), via a 1-bucket query.
        // (Column 0 buckets have identical copies under the single-site
        // lattice pair, so use column 1 where the replicas differ.)
        let single = RangeQuery::new(0, 1, 1, 1);
        let first = session.submit(Micros::ZERO, &single.buckets(5)).unwrap();
        let (_, loaded_disk) = first.outcome.schedule.assignments()[0];
        assert!(session.current_load(loaded_disk) > Micros::ZERO);

        // The same bucket again: the optimal schedule should use the
        // *other* replica (idle) rather than queue behind the first.
        let second = session.submit(Micros::ZERO, &single.buckets(5)).unwrap();
        let (_, second_disk) = second.outcome.schedule.assignments()[0];
        assert_ne!(second_disk, loaded_disk);
        assert_eq!(second.outcome.response_time, Micros::from_tenths_ms(61));
    }

    #[test]
    fn time_travel_rejected_without_poisoning() {
        let (system, alloc) = setup();
        let mut session = RetrievalSession::new(&system, &alloc, PushRelabelBinary);
        let q = RangeQuery::new(0, 0, 1, 1);
        let _ = session
            .submit(Micros::from_millis(10), &q.buckets(5))
            .unwrap();
        let err = session
            .submit(Micros::from_millis(5), &q.buckets(5))
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::NonMonotoneArrival {
                arrival: Micros::from_millis(5),
                now: Micros::from_millis(10),
            }
        );
        // The failed submit left the session usable.
        assert_eq!(session.queries_served(), 1);
        let ok = session.submit(Micros::from_millis(10), &q.buckets(5));
        assert!(ok.is_ok());
    }

    #[test]
    fn solver_rejection_surfaces_as_session_error() {
        // FF-basic refuses loaded disks, so the *second* submit of a
        // session (disks now loaded) must fail with UnsupportedSystem —
        // through the Result, not a panic.
        let (system, alloc) = setup();
        let mut session = RetrievalSession::new(&system, &alloc, FordFulkersonBasic);
        let q = RangeQuery::new(0, 0, 1, 5);
        let _ = session.submit(Micros::ZERO, &q.buckets(5)).unwrap();
        let err = session.submit(Micros::ZERO, &q.buckets(5)).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Solve(SolveError::UnsupportedSystem { .. })
        ));
        assert_eq!(session.queries_served(), 1);
    }

    #[test]
    fn completion_is_arrival_plus_response() {
        let (system, alloc) = setup();
        let mut session = RetrievalSession::new(&system, &alloc, PushRelabelBinary);
        let q = RangeQuery::new(1, 1, 2, 2);
        let arrival = Micros::from_millis(7);
        let out = session.submit(arrival, &q.buckets(5)).unwrap();
        assert_eq!(out.completion, arrival + out.outcome.response_time);
        assert_eq!(out.arrival, arrival);
    }

    #[test]
    fn repeated_bucket_sets_match_a_fresh_session() {
        // Alternate two bucket sets; results must match a fresh session
        // fed the same sequence. A cold session rebuilds its workspace's
        // network on every submit; a warm one keeps its own, so a repeat
        // reuses its topology and a same-size change delta-patches it.
        let (system, alloc) = setup();
        let qa = RangeQuery::new(0, 0, 1, 5).buckets(5);
        let qb = RangeQuery::new(1, 0, 2, 2).buckets(5);
        let query = |i: usize| if i.is_multiple_of(3) { &qb } else { &qa };
        for reuse in [ReusePolicy::default(), ReusePolicy::warm()] {
            let mut reused =
                RetrievalSession::with_reuse(&system, &alloc, PushRelabelBinary, reuse);
            let mut t = Micros::ZERO;
            let mut results = Vec::new();
            for i in 0..8 {
                results.push(reused.submit(t, query(i)).unwrap().outcome.response_time);
                t += Micros::from_millis(2);
            }
            assert_eq!(reused.state.network().is_some(), reuse.warm_start);
            assert_eq!(reused.workspace.network.is_some(), !reuse.warm_start);
            // Replay each query into a brand-new session at the same loads.
            let mut t = Micros::ZERO;
            let mut fresh = RetrievalSession::new(&system, &alloc, PushRelabelBinary);
            for (i, want) in results.iter().enumerate() {
                let got = fresh.submit(t, query(i)).unwrap().outcome.response_time;
                assert_eq!(got, *want, "{reuse:?}: query {i}");
                t += Micros::from_millis(2);
            }
        }
    }
}
