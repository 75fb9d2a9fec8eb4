//! Reusable solver scratch state.
//!
//! Every solve needs a mutable copy of the instance's flow network plus
//! engine state (excess arrays, DFS stacks, flow/excess snapshots for the
//! `StoreFlows`/`RestoreFlows` rollbacks of Algorithm 6). A [`Workspace`]
//! owns all of it and survives across solves, so a caller issuing many
//! queries — a [`crate::session::RetrievalSession`] or the batch
//! [`crate::engine::Engine`] — pays the allocations once instead of per
//! query. [`crate::solver::RetrievalSolver::solve_in`] threads a workspace
//! through every solver; the `solve` convenience wrapper spins up a fresh
//! one per call.
//!
//! A workspace is not tied to a solver or an instance: the same one can
//! serve different algorithms and differently-shaped queries back to
//! back. Buffers only ever grow.
//!
//! A workspace also owns the one network of every cold stream it solves
//! (a stream without warm start; see [`crate::session::SessionState`]):
//! each cold miss rebuilds that network in place, then stages it like any
//! instance. Streams that resume warm flows keep their own network, since
//! the stored flow is aligned with that network's edge ids.

use crate::error::SolveError;
use crate::network::RetrievalInstance;
use crate::obs::trace::{EventKind, TraceEvent, Tracer};
use crate::schedule::{RetrievalOutcome, SolveStats};
use crate::solver::RetrievalSolver;
use crate::spec::{ArenaLayout, SolveBudget};
use rds_flow::ford_fulkerson::AugmentingPath;
use rds_flow::graph::{ArenaIndex, FlowGraph};
use rds_flow::push_relabel::PushRelabel;
use rds_storage::time::Micros;
use std::time::Instant;

/// Which arena the workspace's *last* [`Workspace::begin`] staged into —
/// the resolved (never `Auto`) side of [`ArenaLayout`]. The solve
/// protocol ([`Workspace::run`]) dispatches on this via [`on_graph!`];
/// both arms are monomorphized, so the hot path never sees a width
/// branch inside a discharge loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ActiveWidth {
    /// The `i64` arena ([`Workspace::graph`]).
    Wide,
    /// The `i32` arena ([`Workspace::graph32`]).
    Compact,
}

/// Runs `$body` against the workspace's active graph, binding `$g` to
/// `&mut $ws.graph` (wide) or `&mut $ws.graph32` (compact). The borrow
/// is field-precise, so the body may still use the workspace's *other*
/// fields (`$ws.engine`, `$ws.tracer`, `$ws.refine`, ...) — only
/// whole-`$ws` method calls are off-limits inside the body.
macro_rules! on_graph {
    ($ws:expr, |$g:ident| $body:expr) => {
        match $ws.active {
            $crate::workspace::ActiveWidth::Wide => {
                let $g = &mut $ws.graph;
                $body
            }
            $crate::workspace::ActiveWidth::Compact => {
                let $g = &mut $ws.graph32;
                $body
            }
        }
    };
}
pub(crate) use on_graph;

/// Largest value the automatic width selector allows into the compact
/// (`i32`) arena. Half of `i32::MAX`: one spare bit absorbs any
/// transient the solver applies on top of a disk's peak capacity
/// (capacity retargeting rounds up, refinement pushes flow around at
/// the fixed value), so a bound that passes this check can never
/// overflow an `i32` cell mid-solve.
pub(crate) const COMPACT_CAP_LIMIT: i64 = (i32::MAX as i64) / 2;

/// Whether a per-edge capacity bound fits the compact arena under the
/// automatic selector's safety margin.
#[inline]
pub(crate) fn compact_capacity_fits(bound: i64) -> bool {
    bound <= COMPACT_CAP_LIMIT
}

/// The largest capacity any edge of `inst` can carry during a solve,
/// with the edge slot that attains it: the maximum of the instance
/// graph's static capacities and every disk's capacity at the solve's
/// upper response-time bound `t_max` (capacities are only ever set to
/// `capacity_within(t)` for probes `t <= t_max`). Flow magnitudes are
/// bounded by capacities, so this one number decides the arena width.
pub(crate) fn peak_edge_capacity(inst: &RetrievalInstance) -> (i64, usize) {
    let (_, t_max, _) = inst.budget_bounds();
    let mut bound = 0i64;
    let mut edge = 0usize;
    for e in inst.graph.forward_edges() {
        let c = inst.graph.cap(e);
        if c > bound {
            bound = c;
            edge = e;
        }
    }
    for (j, &e) in inst.disk_edges.iter().enumerate() {
        let c = inst.disks[j].capacity_within(t_max) as i64;
        if c > bound {
            bound = c;
            edge = e;
        }
    }
    (bound, edge)
}

/// Reusable buffers and engine state shared by all solvers.
#[derive(Debug)]
pub struct Workspace {
    /// The network of the cold streams solved here, rebuilt in place by
    /// each one's cache miss; `None` until the first.
    pub(crate) network: Option<RetrievalInstance>,
    /// Scratch copy of the instance's flow network (wide layout).
    pub(crate) graph: FlowGraph,
    /// Compact (`i32`) scratch copy, staged instead of [`Workspace::graph`]
    /// when the width selector picks [`ArenaLayout::Compact`].
    pub(crate) graph32: FlowGraph<i32>,
    /// Which of the two graphs the last [`Workspace::begin`] staged.
    pub(crate) active: ActiveWidth,
    /// The caller-requested layout policy ([`ArenaLayout::Auto`] by
    /// default).
    requested: ArenaLayout,
    /// When set, staging checks out the instance's immutable CSR
    /// topology plane (Arc-shared, copy-on-write) instead of deep-copying
    /// it — only the per-query capacity/flow plane is copied. Enabled by
    /// the fused batch path ([`SolverSpec::batch_fuse`]
    /// (crate::spec::SolverSpec::batch_fuse)); off by default so the
    /// rebuild-per-query paths keep their zero-steady-state-allocation
    /// contract without COW detaches. A fused lane hands the plane back
    /// when its item finishes ([`Workspace::release_plane`]), so the
    /// network it belongs to is private again for its next rebuild or
    /// patch.
    plane_sharing: bool,
    /// Push-relabel engine (Algorithm 4) with its height, queue and
    /// excess arrays.
    engine: PushRelabel,
    /// Reusable DFS state for the Ford-Fulkerson solvers.
    search: AugmentingPath,
    /// Excess half of the `StoreFlows` snapshot (Algorithm 6 line 31);
    /// the flow half is the active graph's own flow checkpoint.
    stored_excess: Vec<i64>,
    /// Solver-phase event tracer: counts every emit by kind and feeds the
    /// span channel and, once installed, the ring recorder. See
    /// [`crate::obs::trace`].
    pub(crate) tracer: Tracer,
    /// Warm flow state staged by a delta-capable caller (see
    /// [`Workspace::stage_warm`]), consumed by the next
    /// [`crate::solver::RetrievalSolver::resume_in`].
    pub(crate) warm_flows: Vec<i64>,
    /// Excess vector paired with `warm_flows`.
    pub(crate) warm_excess: Vec<i64>,
    /// Bucket slots whose identity changed since the warm flow was
    /// captured; their stale flow units are cancelled before resuming.
    warm_changed: Vec<usize>,
    /// Whether warm state is currently staged.
    warm_staged: bool,
    /// Min-cost refinement scratch (cycle canceler + cost vectors); see
    /// [`crate::refine`].
    pub(crate) refine: crate::refine::RefineScratch,
    /// Anytime budget applied to every solve run in this workspace (see
    /// [`Workspace::arm_budget`]); unlimited by default.
    budget: SolveBudget,
    /// Set while a solve is in flight; a solve that unwinds (panics) never
    /// clears it, marking the scratch state as suspect. See
    /// [`Workspace::take_poisoned`].
    poisoned: bool,
    /// Per-width high-water instance size staged so far (index 0 wide,
    /// index 1 compact). Once an instance fits both marks of its width,
    /// copying it into that scratch graph must not grow any arena
    /// buffer — [`Workspace::stage_graph`] debug-asserts it.
    hw_vertices: [usize; 2],
    hw_edge_slots: [usize; 2],
}

/// Error returned by [`Workspace::take_poisoned`] when a previous solve
/// unwound mid-flight and left the scratch state unspecified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoisonedWorkspace;

impl std::fmt::Display for PoisonedWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workspace poisoned: a previous solve panicked mid-flight; scratch state was reset"
        )
    }
}

impl std::error::Error for PoisonedWorkspace {}

impl Default for Workspace {
    fn default() -> Workspace {
        Workspace::new()
    }
}

impl Workspace {
    /// Creates an empty workspace; all buffers grow on first use.
    pub fn new() -> Workspace {
        Workspace {
            network: None,
            graph: FlowGraph::default(),
            graph32: FlowGraph::default(),
            active: ActiveWidth::Wide,
            requested: ArenaLayout::Auto,
            plane_sharing: false,
            engine: PushRelabel::new(),
            search: AugmentingPath::new(),
            stored_excess: Vec::new(),
            tracer: Tracer::default(),
            warm_flows: Vec::new(),
            warm_excess: Vec::new(),
            warm_changed: Vec::new(),
            warm_staged: false,
            refine: crate::refine::RefineScratch::default(),
            budget: SolveBudget::UNLIMITED,
            poisoned: false,
            hw_vertices: [0; 2],
            hw_edge_slots: [0; 2],
        }
    }

    /// Sets the arena width policy applied by every subsequent solve
    /// (`Workspace::begin`). The default is [`ArenaLayout::Auto`].
    pub fn set_arena_layout(&mut self, layout: ArenaLayout) {
        self.requested = layout;
    }

    /// The arena width policy set by [`Workspace::set_arena_layout`].
    pub(crate) fn arena_layout(&self) -> ArenaLayout {
        self.requested
    }

    /// Enables or disables epoch-shared topology-plane checkout for every
    /// subsequent solve (see the `plane_sharing` field). The first staged
    /// solve after enabling Arc-shares the instance's topology; further
    /// solves of the same epoch copy only cap/flow values. Only the
    /// engine's fused lanes turn it on.
    pub(crate) fn set_plane_sharing(&mut self, on: bool) {
        self.plane_sharing = on;
    }

    /// Allocation events across both scratch arenas (wide + compact) and
    /// the cold streams' network, monotone over the workspace's lifetime
    /// unless a solve panics, which drops the network and its count.
    /// Flat between two observations means every solve in between reused
    /// existing buffers — the steady-state contract benches pin.
    pub fn arena_allocation_events(&self) -> u64 {
        self.graph.arena().allocation_events()
            + self.graph32.arena().allocation_events()
            + self
                .network
                .as_ref()
                .map_or(0, |n| n.graph.arena().allocation_events())
    }

    /// Drops the scratch graphs' shares of the topology plane the last
    /// staging checked out (see the `plane_sharing` field), so the
    /// network it belongs to can be rebuilt or patched in place instead of
    /// detaching a copy. Allocation-free in steady state; a no-op without
    /// plane sharing. The staged graph is empty afterwards.
    pub(crate) fn release_plane(&mut self) {
        if self.plane_sharing {
            self.graph.release_plane();
            self.graph32.release_plane();
        }
    }

    /// The width the last solve actually ran in — [`ArenaLayout::Compact`]
    /// or [`ArenaLayout::Wide`], never `Auto`. Wide before the first solve.
    pub fn layout_used(&self) -> ArenaLayout {
        match self.active {
            ActiveWidth::Wide => ArenaLayout::Wide,
            ActiveWidth::Compact => ArenaLayout::Compact,
        }
    }

    /// Resolves the layout policy against one instance. The instance's
    /// capacity bound is computed at most once per staging: it picks the
    /// width under `Auto` and guards a forced `Compact`.
    fn select_width(&mut self, inst: &RetrievalInstance) -> Result<(), SolveError> {
        if self.requested == ArenaLayout::Wide {
            self.active = ActiveWidth::Wide;
            return Ok(());
        }
        let (bound, edge) = peak_edge_capacity(inst);
        let fits = compact_capacity_fits(bound);
        self.active = if fits || self.requested == ArenaLayout::Compact {
            ActiveWidth::Compact
        } else {
            ActiveWidth::Wide
        };
        if fits || self.active == ActiveWidth::Wide {
            return Ok(());
        }
        // Only a forced Compact gets here (Auto widened); it surfaces the
        // typed error instead of wrapping.
        Err(SolveError::ArenaOverflow {
            edge,
            value: bound,
            width: "i32",
        })
    }

    /// Copies `inst`'s network into the scratch graph of the selected
    /// width. Under a forced [`ArenaLayout::Compact`] this fails with
    /// [`SolveError::ArenaOverflow`] when the instance's capacity bound
    /// (or any static capacity) exceeds the narrow width; under `Auto`
    /// the selector has already widened instead.
    ///
    /// In debug builds, asserts the steady-state contract of the CSR
    /// arena: an instance no larger than any previously staged one *of
    /// the same width* (by vertex and edge-slot count — arena buffers
    /// never shrink, so those two marks bound every buffer length) must
    /// copy in with **zero** graph allocations.
    fn stage_graph(&mut self, inst: &RetrievalInstance) -> Result<(), SolveError> {
        self.select_width(inst)?;
        let wi = match self.active {
            ActiveWidth::Wide => 0,
            ActiveWidth::Compact => 1,
        };
        #[cfg(debug_assertions)]
        let (fits, events_before) = (
            inst.graph.num_vertices() <= self.hw_vertices[wi]
                && inst.graph.num_edge_slots() <= self.hw_edge_slots[wi],
            match self.active {
                ActiveWidth::Wide => self.graph.arena().allocation_events(),
                ActiveWidth::Compact => self.graph32.arena().allocation_events(),
            },
        );
        if self.plane_sharing && inst.graph.is_finalized() {
            // Epoch-shared checkout: Arc-share the instance's immutable
            // topology plane, copy only the per-query cap/flow plane. A
            // compact checkout validates every value fits `i32` before
            // writing anything, so the typed overflow below leaves the
            // scratch graph's previous plane intact.
            let shared = match self.active {
                ActiveWidth::Wide => {
                    let hit = self.graph.shares_topology_with(&inst.graph);
                    self.graph.checkout_plane_from(&inst.graph)?;
                    hit
                }
                ActiveWidth::Compact => {
                    let hit = self.graph32.shares_topology_with(&inst.graph);
                    self.graph32.checkout_plane_from(&inst.graph)?;
                    hit
                }
            };
            self.tracer.emit(TraceEvent::PlaneCheckout { shared });
        } else {
            match self.active {
                ActiveWidth::Wide => self.graph.copy_from(&inst.graph),
                ActiveWidth::Compact => self.graph32.try_copy_from(&inst.graph)?,
            }
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            !fits
                || events_before
                    == match self.active {
                        ActiveWidth::Wide => self.graph.arena().allocation_events(),
                        ActiveWidth::Compact => self.graph32.arena().allocation_events(),
                    },
            "steady-state solve allocated graph memory: instance fits the \
             high-water size ({} vertices / {} edge slots) but copy_from \
             grew an arena buffer",
            self.hw_vertices[wi],
            self.hw_edge_slots[wi],
        );
        self.hw_vertices[wi] = self.hw_vertices[wi].max(inst.graph.num_vertices());
        self.hw_edge_slots[wi] = self.hw_edge_slots[wi].max(inst.graph.num_edge_slots());
        Ok(())
    }

    /// Exact per-kind totals of every [`TraceEvent`] emitted in this
    /// workspace, indexed by `EventKind as usize` — always counted, with
    /// or without a recorder.
    pub fn trace_counts(&self) -> &[u64; EventKind::COUNT] {
        self.tracer.counts()
    }

    /// Installs a ring-buffer [`crate::obs::trace::Recorder`] with the
    /// given capacity; subsequent solves emit [`TraceEvent`]s into it.
    pub fn install_recorder(&mut self, capacity: usize) {
        self.tracer.install_recorder(capacity);
    }

    /// Removes the recorder; emits are still counted.
    pub fn disable_tracing(&mut self) {
        self.tracer.disable();
    }

    /// The ring-buffer recorder installed via
    /// [`Workspace::install_recorder`], if any.
    pub fn recorder(&self) -> Option<&crate::obs::trace::Recorder> {
        self.tracer.recorder()
    }

    /// Mutable access to the installed ring-buffer recorder, e.g. to
    /// `clear()` it between solves.
    pub fn recorder_mut(&mut self) -> Option<&mut crate::obs::trace::Recorder> {
        self.tracer.recorder_mut()
    }

    /// Number of solves that ran in this workspace: its
    /// [`TraceEvent::SolveStart`] count. A staging that fails (a forced
    /// compact arena the instance does not fit) runs no solve and is not
    /// counted.
    pub fn solves(&self) -> u64 {
        self.tracer.counts()[EventKind::SolveStart as usize]
    }

    /// Sets the anytime [`SolveBudget`] applied to every subsequent solve
    /// in this workspace (until re-armed). Wall-clock limits start
    /// counting at each solve's entry, not at arming time.
    pub fn arm_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    /// The currently armed budget.
    pub fn armed_budget(&self) -> SolveBudget {
        self.budget
    }
}

/// A [`SolveBudget`] materialized at solve entry: the wall-clock limit
/// becomes an absolute deadline, the probe limit a work ceiling. The
/// solve protocol arms one per solve, and solver bodies poll it through
/// [`Solve::expired`] at probe-scale boundaries.
///
/// When the budget is unlimited, `expired` never reads a clock — an
/// unbudgeted solve is bit-identical (and branch-for-branch equal) to
/// pre-budget behaviour.
#[derive(Clone, Copy, Debug)]
struct ArmedBudget {
    deadline: Option<Instant>,
    max_work: Option<u64>,
}

impl ArmedBudget {
    /// Arms `budget` now: wall-clock limits anchor to the current instant.
    fn start(budget: SolveBudget) -> ArmedBudget {
        ArmedBudget {
            deadline: budget.wall_clock.map(|d| Instant::now() + d),
            max_work: budget.max_probes,
        }
    }

    /// True when `work` probe-scale steps exhaust the budget or the
    /// wall-clock deadline has passed. The clock is read only when a
    /// deadline exists.
    #[inline]
    fn expired(&self, work: u64) -> bool {
        if let Some(limit) = self.max_work {
            if work >= limit {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }
}

impl Workspace {
    /// Whether the last solve unwound without completing.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Checks and clears the poison flag. A workspace is poisoned when a
    /// solve panicked mid-flight (detected by the [`crate::engine::Engine`]
    /// shard containment, or by any caller using `catch_unwind`): the
    /// scratch graph and engine state are then unspecified. `Err` reports
    /// the condition; in both cases the workspace is safe to reuse
    /// afterwards, because every solve re-initializes the scratch state —
    /// only staged warm state is discarded here.
    pub fn take_poisoned(&mut self) -> Result<(), PoisonedWorkspace> {
        self.warm_staged = false;
        if std::mem::take(&mut self.poisoned) {
            Err(PoisonedWorkspace)
        } else {
            Ok(())
        }
    }

    /// Stages warm state for the next [`crate::solver::RetrievalSolver::resume_in`]:
    /// the flow/excess snapshot captured after the previous solve of this
    /// stream, plus the bucket slots whose identity changed since then.
    pub(crate) fn stage_warm(&mut self, flows: &[i64], excess: &[i64], changed: &[usize]) {
        flows.clone_into(&mut self.warm_flows);
        excess.clone_into(&mut self.warm_excess);
        changed.clone_into(&mut self.warm_changed);
        self.warm_staged = true;
    }

    /// Discards any staged warm state (e.g. after a fallback to a cold
    /// solve).
    pub(crate) fn clear_warm_stage(&mut self) {
        self.warm_staged = false;
    }

    /// Prepares the workspace for one solve of `inst` by `solver`: selects
    /// the arena width and copies the instance's network into that
    /// scratch graph (reusing its buffers). Cold, it clears the engine
    /// excess left by the previous solve; `warm`, it loads the staged warm
    /// flow into the graph and the staged excesses into the engine. Then
    /// it emits [`TraceEvent::SolveStart`].
    ///
    /// Fails with [`SolveError::DeltaUnsupported`] when `warm` finds no
    /// warm state staged (leaving the workspace untouched), and with
    /// [`SolveError::ArenaOverflow`] when the instance, or the warm flow of
    /// a stream that outgrew the narrow width, does not fit a forced
    /// [`ArenaLayout::Compact`] (warm state is dropped; the caller decides
    /// whether to re-solve cold).
    pub(crate) fn begin(
        &mut self,
        inst: &RetrievalInstance,
        solver: &'static str,
        warm: bool,
    ) -> Result<(), SolveError> {
        if warm && !self.warm_staged {
            return Err(SolveError::DeltaUnsupported { solver });
        }
        self.warm_staged = false;
        // Poisoned across the staging so a panic leaves the flag set; a
        // clean typed failure (e.g. `ArenaOverflow` on a stream that grew
        // past the compact bound) unsets it again — nothing was left
        // half-staged, the next begin re-initializes everything.
        self.poisoned = true;
        let mut staged = self.stage_graph(inst);
        if warm && staged.is_ok() {
            // The patch may have appended fresh replica arcs; they carry
            // no warm flow.
            staged = self.restore_warm_flows();
        }
        if let Err(e) = staged {
            self.poisoned = false;
            return Err(e);
        }
        self.engine.reset_excess(inst.graph.num_vertices());
        if warm {
            for (v, &x) in self.warm_excess.iter().enumerate() {
                if x != 0 {
                    self.engine.set_excess(v, x);
                }
            }
        }
        self.tracer.emit(TraceEvent::SolveStart {
            query_size: inst.query_size() as u32,
            solver,
            delta: warm,
        });
        Ok(())
    }

    /// Restores the staged warm flow snapshot into the active scratch
    /// graph. A compact restore is checked: a warm flow that no longer
    /// fits `i32` (the stream grew past the compact bound mid-session)
    /// fails typed instead of wrapping — under `Auto` the width selector
    /// has already widened, so this only fires under a forced Compact.
    fn restore_warm_flows(&mut self) -> Result<(), SolveError> {
        match self.active {
            ActiveWidth::Wide => {
                self.warm_flows.resize(self.graph.num_edge_slots(), 0);
                self.graph.restore_flows(&self.warm_flows);
            }
            ActiveWidth::Compact => {
                self.warm_flows.resize(self.graph32.num_edge_slots(), 0);
                self.graph32.try_restore_flows(&self.warm_flows)?;
            }
        }
        Ok(())
    }

    /// The solve protocol behind every solver's `solve_in` and
    /// `resume_in`: arms the budget, stages `inst` cold or (`warm`) from
    /// the staged warm flow ([`Workspace::begin`]), runs `solver`'s body
    /// in the active arena width, and reads the outcome off the flow it
    /// leaves. When the body bailed out on the expired budget, the outcome
    /// carries the anytime gap and a [`TraceEvent::BudgetExpired`] is
    /// emitted.
    pub(crate) fn run<S: SolveBody>(
        &mut self,
        solver: &S,
        inst: &RetrievalInstance,
        warm: bool,
    ) -> Result<RetrievalOutcome, SolveError> {
        let budget = ArmedBudget::start(self.budget);
        self.begin(inst, solver.name(), warm)?;
        let result = on_graph!(self, |g| {
            let mut s = Solve {
                inst,
                g,
                engine: &mut self.engine,
                dfs: &mut self.search,
                excess: &mut self.stored_excess,
                changed: &self.warm_changed,
                warm,
                tracer: &mut self.tracer,
                budget,
                stats: SolveStats::default(),
            };
            solver.body(&mut s).and_then(|bailed| s.outcome(bailed))
        });
        // An orderly finish, success or clean error: the scratch state is
        // sound again.
        self.poisoned = false;
        result
    }
}

/// A solver's width-generic body, run by [`Workspace::run`] between
/// staging and the outcome.
pub(crate) trait SolveBody: RetrievalSolver {
    /// Solves the staged instance, leaving a flow that retrieves every
    /// bucket. Returns `Ok(None)` at the exact optimum, or
    /// `Ok(Some(lower_bound))` when the armed budget expired and the body
    /// finished at a known-feasible budget instead.
    fn body<W: ArenaIndex>(&self, s: &mut Solve<'_, W>) -> Result<Option<Micros>, SolveError>;
}

/// The staged parts of a workspace that one solve body works on, borrowed
/// field by field so a body can hand the graph, the engine and the tracer
/// to different helpers.
pub(crate) struct Solve<'a, W: ArenaIndex> {
    /// The instance being solved.
    pub(crate) inst: &'a RetrievalInstance,
    /// The staged scratch graph of the active width.
    pub(crate) g: &'a mut FlowGraph<W>,
    /// Push-relabel engine, its excesses cleared or warm-restored.
    pub(crate) engine: &'a mut PushRelabel,
    /// DFS state of the Ford-Fulkerson solvers.
    pub(crate) dfs: &'a mut AugmentingPath,
    /// Scratch of the greedy bounds, then the excess half of Algorithm
    /// 6's `StoreFlows` snapshot.
    pub(crate) excess: &'a mut Vec<i64>,
    /// Bucket slots whose identity changed since the warm flow was
    /// captured (read by warm resumes only).
    pub(crate) changed: &'a [usize],
    /// Whether the solve resumes a staged warm flow.
    pub(crate) warm: bool,
    /// The workspace's event tracer.
    pub(crate) tracer: &'a mut Tracer,
    budget: ArmedBudget,
    /// Work counters of this solve.
    pub(crate) stats: SolveStats,
}

impl<W: ArenaIndex> Solve<'_, W> {
    /// Whether the armed budget is spent. Binary-search probes, capacity
    /// increments and augmenting-path searches all count as one
    /// probe-scale step.
    #[inline]
    pub(crate) fn expired(&self) -> bool {
        let s = &self.stats;
        self.budget.expired(s.probes + s.increments + s.dfs_calls)
    }

    /// Reads the outcome off the finished flow. A bail-out
    /// (`bailed = Some(lower_bound)`) records the gap between the achieved
    /// response time and that lower bound and emits
    /// [`TraceEvent::BudgetExpired`]. The flow retrieves every bucket in
    /// both cases: bail-outs finish at a known-feasible budget, never with
    /// a partial flow.
    fn outcome(self, bailed: Option<Micros>) -> Result<RetrievalOutcome, SolveError> {
        let mut outcome = RetrievalOutcome::try_from_flow(self.inst, self.g, self.stats)?;
        if let Some(lower) = bailed {
            outcome.stats.budget_expirations = 1;
            outcome.stats.anytime_gap = outcome.response_time.saturating_sub(lower);
            self.tracer.emit(TraceEvent::BudgetExpired {
                achieved: outcome.response_time,
                lower_bound: lower,
            });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_storage::model::SystemConfig;
    use rds_storage::specs::CHEETAH;

    fn small_instance() -> RetrievalInstance {
        let system = SystemConfig::homogeneous(CHEETAH, 4);
        let alloc = OrthogonalAllocation::new(4, Placement::SingleSite);
        let q = RangeQuery::new(0, 0, 2, 2);
        RetrievalInstance::build(&system, &alloc, &q.buckets(4))
    }

    #[test]
    fn begin_copies_instance_graph_and_counts() {
        let inst = small_instance();
        let mut ws = Workspace::new();
        ws.set_arena_layout(ArenaLayout::Wide);
        assert_eq!(ws.solves(), 0);
        ws.begin(&inst, "test", false).unwrap();
        assert_eq!(ws.solves(), 1);
        assert_eq!(ws.layout_used(), ArenaLayout::Wide);
        assert_eq!(ws.graph.num_vertices(), inst.graph.num_vertices());
        assert_eq!(ws.graph.num_edges(), inst.graph.num_edges());
        // A second begin reuses the same buffers without issue.
        ws.begin(&inst, "test", false).unwrap();
        assert_eq!(ws.solves(), 2);
        assert_eq!(ws.graph.num_edges(), inst.graph.num_edges());
    }

    #[test]
    fn auto_layout_picks_compact_for_small_instances() {
        let inst = small_instance();
        let mut ws = Workspace::new();
        ws.begin(&inst, "test", false).unwrap();
        assert_eq!(ws.layout_used(), ArenaLayout::Compact);
        assert_eq!(ws.graph32.num_vertices(), inst.graph.num_vertices());
        assert_eq!(ws.graph32.num_edges(), inst.graph.num_edges());
        // The wide graph was never staged.
        assert_eq!(ws.graph.num_vertices(), 0);
    }

    #[test]
    fn width_selector_boundary() {
        assert!(compact_capacity_fits(COMPACT_CAP_LIMIT));
        assert!(!compact_capacity_fits(COMPACT_CAP_LIMIT + 1));
        assert!(!compact_capacity_fits(i32::MAX as i64));
        assert!(!compact_capacity_fits(i64::MAX));
        assert!(compact_capacity_fits(0));
    }

    #[test]
    fn peak_capacity_covers_static_caps_and_budget_bound() {
        let inst = small_instance();
        let (bound, edge) = peak_edge_capacity(&inst);
        assert!(bound >= 1, "source/bucket edges carry at least unit caps");
        assert!(edge < inst.graph.num_edge_slots());
        let (_, t_max, _) = inst.budget_bounds();
        let disk_peak = inst
            .disks
            .iter()
            .map(|d| d.capacity_within(t_max) as i64)
            .max()
            .unwrap();
        assert!(bound >= disk_peak);
    }

    #[test]
    fn steady_state_begin_performs_zero_graph_allocations() {
        let system = SystemConfig::homogeneous(CHEETAH, 6);
        let alloc = OrthogonalAllocation::new(6, Placement::SingleSite);
        let big = RangeQuery::new(0, 0, 3, 3);
        let small = RangeQuery::new(1, 1, 2, 2);
        let big_inst = RetrievalInstance::build(&system, &alloc, &big.buckets(6));
        let small_inst = RetrievalInstance::build(&system, &alloc, &small.buckets(6));
        let mut ws = Workspace::new();
        ws.set_arena_layout(ArenaLayout::Wide);
        ws.begin(&big_inst, "test", false).unwrap();
        let events = ws.graph.arena().allocation_events();
        // Same-size and smaller instances must reuse the arena byte-for-byte
        // (stage_graph debug-asserts this too; the explicit check keeps the
        // contract pinned in release builds).
        for _ in 0..5 {
            ws.begin(&big_inst, "test", false).unwrap();
            ws.begin(&small_inst, "test", false).unwrap();
        }
        assert_eq!(
            ws.graph.arena().allocation_events(),
            events,
            "steady-state begin grew an arena buffer"
        );
        // The compact arena honours the same contract independently.
        ws.set_arena_layout(ArenaLayout::Compact);
        ws.begin(&big_inst, "test", false).unwrap();
        let events32 = ws.graph32.arena().allocation_events();
        for _ in 0..5 {
            ws.begin(&big_inst, "test", false).unwrap();
            ws.begin(&small_inst, "test", false).unwrap();
        }
        assert_eq!(ws.graph32.arena().allocation_events(), events32);
    }

    #[test]
    fn plane_sharing_checkout_shares_topology_and_stays_allocation_free() {
        let inst = small_instance();
        let mut ws = Workspace::new();
        ws.set_arena_layout(ArenaLayout::Wide);
        assert!(!ws.plane_sharing);
        ws.set_plane_sharing(true);
        ws.begin(&inst, "test", false).unwrap();
        assert!(ws.graph.shares_topology_with(&inst.graph));
        assert_eq!(ws.graph.num_edges(), inst.graph.num_edges());
        let events = ws.graph.arena().allocation_events();
        for _ in 0..6 {
            ws.begin(&inst, "test", false).unwrap();
        }
        assert!(ws.graph.shares_topology_with(&inst.graph));
        assert_eq!(
            ws.graph.arena().allocation_events(),
            events,
            "steady-state plane checkout grew an arena buffer"
        );
        // The compact arena checks out the same wide plane (the plane is
        // width-free) and narrows only cap/flow.
        ws.set_arena_layout(ArenaLayout::Compact);
        ws.begin(&inst, "test", false).unwrap();
        assert!(ws.graph32.shares_topology_with(&inst.graph));
        let events32 = ws.graph32.arena().allocation_events();
        for _ in 0..6 {
            ws.begin(&inst, "test", false).unwrap();
        }
        assert_eq!(ws.graph32.arena().allocation_events(), events32);
    }

    #[test]
    fn plane_sharing_forced_compact_overflow_stays_typed() {
        let inst = oversized_instance();
        let mut ws = Workspace::new();
        ws.set_arena_layout(ArenaLayout::Compact);
        ws.set_plane_sharing(true);
        let err = ws.begin(&inst, "test", false).unwrap_err();
        assert!(matches!(
            err,
            SolveError::ArenaOverflow { width: "i32", .. }
        ));
        assert_eq!(ws.take_poisoned(), Ok(()));
        // And a fitting instance checks out cleanly afterwards.
        ws.begin(&small_instance(), "test", false).unwrap();
        assert_eq!(ws.layout_used(), ArenaLayout::Compact);
    }

    /// An instance whose capacity bound exceeds the compact guard band: a
    /// very slow disk drives `t_max` up, and a 1µs disk converts that
    /// budget into more than `COMPACT_CAP_LIMIT` retrievable blocks.
    fn oversized_instance() -> RetrievalInstance {
        use rds_storage::specs::{DiskKind, DiskSpec};
        use rds_storage::time::Micros;
        const SLOW: DiskSpec = DiskSpec {
            producer: "test",
            model: "glacial",
            kind: DiskKind::Hdd,
            rpm: Some(1),
            access_time: Micros::from_micros(800_000_000),
        };
        const FAST: DiskSpec = DiskSpec {
            producer: "test",
            model: "instant",
            kind: DiskKind::Ssd,
            rpm: None,
            access_time: Micros::from_micros(1),
        };
        let system = SystemConfig::builder()
            .site("a")
            .disk(SLOW)
            .disk(FAST)
            .build();
        let alloc = OrthogonalAllocation::new(2, Placement::SingleSite);
        let q = RangeQuery::new(0, 0, 2, 1);
        RetrievalInstance::build(&system, &alloc, &q.buckets(2))
    }

    #[test]
    fn forced_compact_overflow_is_typed_and_does_not_poison() {
        let inst = oversized_instance();
        let (bound, _) = peak_edge_capacity(&inst);
        assert!(
            !compact_capacity_fits(bound),
            "test instance must exceed the compact bound, got {bound}"
        );
        let mut ws = Workspace::new();
        ws.set_arena_layout(ArenaLayout::Compact);
        let err = ws.begin(&inst, "test", false).unwrap_err();
        assert!(
            matches!(err, SolveError::ArenaOverflow { width: "i32", .. }),
            "expected ArenaOverflow, got {err:?}"
        );
        // A clean typed failure is not a panic: the workspace must not
        // report itself poisoned, and stays fully usable.
        assert_eq!(ws.take_poisoned(), Ok(()));
        ws.begin(&small_instance(), "test", false).unwrap();
        assert_eq!(ws.layout_used(), ArenaLayout::Compact);
    }

    #[test]
    fn auto_layout_widens_instead_of_overflowing() {
        let inst = oversized_instance();
        let mut ws = Workspace::new();
        ws.begin(&inst, "test", false).unwrap();
        assert_eq!(ws.layout_used(), ArenaLayout::Wide);
        // And re-narrows when the next instance fits again.
        ws.begin(&small_instance(), "test", false).unwrap();
        assert_eq!(ws.layout_used(), ArenaLayout::Compact);
    }

    #[test]
    fn begin_warm_overflow_drops_warm_state_cleanly() {
        let inst = oversized_instance();
        let mut ws = Workspace::new();
        ws.set_arena_layout(ArenaLayout::Compact);
        // Stage warm state as a prior solve of the stream would have.
        let flows = vec![0i64; inst.graph.num_edge_slots()];
        let excess = vec![0i64; inst.graph.num_vertices()];
        ws.stage_warm(&flows, &excess, &[]);
        let err = ws.begin(&inst, "test", true).unwrap_err();
        assert!(matches!(err, SolveError::ArenaOverflow { .. }));
        assert_eq!(ws.take_poisoned(), Ok(()));
        // The warm stage was consumed; a retry reports "no warm state"
        // instead of failing again.
        assert!(matches!(
            ws.begin(&inst, "test", true),
            Err(SolveError::DeltaUnsupported { .. })
        ));
    }
}
