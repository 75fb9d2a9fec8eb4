//! Push-relabel with the discharge rule of Hong & He, *"An Asynchronous
//! Multithreaded Algorithm for the Maximum Network Flow Problem with
//! Nonblocking Global Relabeling Heuristic"* (IEEE TPDS 2011) — the
//! method the paper adopts for its parallel integrated algorithm
//! (Section V) — run by one worker, plus the [`WorkerPool`] that fused
//! batch drains schedule whole solves on.
//!
//! The discharge differs from the FIFO Goldberg–Tarjan engine in
//! [`crate::push_relabel`]:
//!
//! * an active vertex pushes to its *lowest* residual neighbour whenever
//!   it stands above it (`h(u) > h(v̂)`, not exact equality), and
//!   otherwise relabels to one above that neighbour;
//! * work proceeds in rounds: an exact global relabel (reverse BFS from
//!   the sink) seeds every active vertex, and a round ends when no vertex
//!   is active or its relabel budget runs out;
//! * height `n` is the phase-1 boundary: a vertex lifted there can no
//!   longer reach the sink, and once the rounds end its excess is drained
//!   back to the source by cancelling the inflow that carried it.
//!
//! Active vertices are discharged in FIFO order, so every run is
//! deterministic.

use crate::graph::{ArenaIndex, EdgeId, FlowGraph, VertexId};
use crate::incremental::IncrementalMaxFlow;
use crate::push_relabel::PushRelabel;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Hong & He push-relabel with the same incremental (`resume`) interface
/// as the sequential [`PushRelabel`].
#[derive(Debug, Default)]
pub struct ParallelPushRelabel {
    excess: Vec<i64>,
    fixup: PushRelabel,
    /// Statistics from the most recent run.
    pub last_run: ParallelRunStats,
    /// Pushes across all runs (discharge rounds + fixup), for
    /// [`IncrementalMaxFlow::op_counts`].
    total_pushes: u64,
    /// Relabels across all runs.
    total_relabels: u64,
    /// Heights, queued flags, the FIFO work ring and the global-relabel
    /// BFS queue. Kept on the solver so repeated `resume` calls are
    /// allocation-free.
    height: Vec<u32>,
    queued: Vec<bool>,
    ring: VecDeque<u32>,
    bfs: Vec<u32>,
}

/// Telemetry from one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelRunStats {
    /// Pushes performed by the discharge rounds.
    pub parallel_pushes: u64,
    /// Relabels performed by the discharge rounds.
    pub parallel_relabels: u64,
    /// Pushes the sequential fixup pass had to perform (0 unless a round
    /// stalled).
    pub fixup_pushes: u64,
}

/// Returns trapped excess to the source by cancelling the flow that
/// carried it in (the standard preflow-to-flow conversion, specialized to
/// direct cancellation walks). Every unit of excess strictly reduces total
/// flow mass, so the worklist terminates; cycles of flow are irrelevant
/// because only *incoming* flow of excess vertices is cancelled.
fn drain_trapped_excess<W: ArenaIndex>(
    g: &mut FlowGraph<W>,
    excess: &mut [i64],
    s: VertexId,
    t: VertexId,
) {
    let n = g.num_vertices();
    let mut worklist: Vec<VertexId> = (0..n)
        .filter(|&v| v != s && v != t && excess[v] > 0)
        .collect();
    while let Some(v) = worklist.pop() {
        while excess[v] > 0 {
            // Find an edge currently carrying flow into v: an odd (reverse)
            // slot out of v with positive residual, whose pair is the
            // forward edge (w -> v).
            let mut cancelled = false;
            for i in 0..g.out_edges(v).len() {
                let e = g.out_edges(v)[i] as EdgeId;
                if e % 2 == 1 && g.residual(e) > 0 {
                    let w = g.target(e);
                    let delta = excess[v].min(g.residual(e));
                    g.push(e, delta);
                    excess[v] -= delta;
                    if w == t {
                        excess[w] += delta; // cancelled a t-outflow
                    } else if w != s {
                        if excess[w] == 0 {
                            worklist.push(w);
                        }
                        excess[w] += delta;
                    }
                    cancelled = true;
                    break;
                }
            }
            assert!(
                cancelled,
                "vertex {v} holds excess but has no incoming flow to cancel"
            );
        }
    }
}

/// One claimable slot of a task batch: taken (and run) by exactly one
/// participant.
type TaskSlot = Mutex<Option<Box<dyn FnOnce() + Send>>>;

/// A one-shot batch of independent closures, claimed by an atomic cursor.
///
/// Task closures are lifetime-erased to `'static` by the dispatcher
/// ([`WorkerPool::run_tasks`]); soundness rests on the dispatcher blocking
/// until every task has been claimed, executed and dropped before it
/// returns — no borrow outlives the call that erased it.
struct TaskBatch {
    tasks: Vec<TaskSlot>,
    /// Next unclaimed task index. `fetch_add` claiming means each task runs
    /// exactly once, on whichever participant (worker or caller) gets there
    /// first.
    next: AtomicUsize,
    /// Panic payloads caught from tasks, re-raised on the dispatching
    /// thread once the batch drains (first payload wins).
    panics: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

impl std::fmt::Debug for TaskBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskBatch")
            .field("tasks", &self.tasks.len())
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl TaskBatch {
    /// Claims and runs tasks until the cursor passes the end. Task panics
    /// are caught and stashed so one poisoned query cannot take down a
    /// worker thread (mirroring the engine's per-query containment).
    fn run_worker(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks.len() {
                break;
            }
            let task = self.tasks[i].lock().unwrap().take();
            if let Some(task) = task {
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    self.panics.lock().unwrap().push(payload);
                }
            }
        }
    }
}

/// Persistent worker threads, parked between task batches.
///
/// The pool is cheaply cloneable — clones share the same threads — so one
/// pool created at engine build time serves every fused batch drain for
/// the engine's lifetime: no per-drain thread spawns. Batches from
/// concurrent callers are serialized by a dispatch lock; each batch
/// schedules whole independent solves across the threads
/// ([`WorkerPool::run_tasks`]).
///
/// The threads exit when the last clone is dropped.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    shared: Arc<PoolShared>,
    threads: usize,
    /// The host exposes a single hardware thread: a task-batch dispatch
    /// can only time-slice against the caller, so batches run inline.
    solo_host: bool,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

#[derive(Debug)]
struct PoolShared {
    /// Serializes `run_tasks` callers: one batch in flight at a time.
    dispatch: Mutex<()>,
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

#[derive(Debug)]
struct PoolState {
    batch: Option<Arc<TaskBatch>>,
    seq: u64,
    running: usize,
    shutdown: bool,
}

impl WorkerPool {
    /// Spawns `threads` workers (minimum 1).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            dispatch: Mutex::new(()),
            state: Mutex::new(PoolState {
                batch: None,
                seq: 0,
                running: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut last_seq = 0;
                    loop {
                        let batch = {
                            let mut st = shared.state.lock().unwrap();
                            loop {
                                if st.shutdown {
                                    return;
                                }
                                if st.seq != last_seq {
                                    if let Some(batch) = st.batch.clone() {
                                        last_seq = st.seq;
                                        break batch;
                                    }
                                }
                                st = shared.start.wait(st).unwrap();
                            }
                        };
                        batch.run_worker();
                        let mut st = shared.state.lock().unwrap();
                        st.running -= 1;
                        if st.running == 0 {
                            shared.done.notify_all();
                        }
                    }
                })
            })
            .collect();
        let solo_host = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        WorkerPool {
            inner: Arc::new(PoolInner {
                shared,
                threads,
                solo_host,
                handles: Mutex::new(handles),
            }),
        }
    }

    /// Number of worker threads in this pool.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Runs a batch of independent closures across the pool's workers, with
    /// the calling thread participating in the claiming loop. Blocks until
    /// every task has run; if any task panicked, the first panic payload is
    /// re-raised on the caller *after* the batch fully drains (the
    /// remaining tasks still run — one poisoned solve does not starve its
    /// batchmates).
    ///
    /// Tasks may borrow from the caller's stack (`'env`): the lifetime is
    /// erased internally, which is sound because this call does not return
    /// until every closure has been executed and dropped.
    ///
    /// Deadlock rule: a task must not dispatch onto the *same* pool (the
    /// dispatch lock is held for the whole batch).
    pub fn run_tasks<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        match tasks.len() {
            0 => return,
            1 => {
                // One task gains nothing from the handshake: run inline
                // (panics propagate naturally).
                let task = tasks.into_iter().next().expect("len checked");
                task();
                return;
            }
            _ => {}
        }
        if self.inner.solo_host {
            // One hardware thread: waking parked workers just to contend
            // with the caller is pure handshake loss. Drain the batch on
            // the caller with identical semantics — every task runs, the
            // first panic is re-raised after the drain.
            let mut first_panic = None;
            for task in tasks {
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            return;
        }
        let erased: Vec<TaskSlot> = tasks
            .into_iter()
            .map(|t| {
                // SAFETY: only the lifetime bound changes. The batch is
                // fully drained (every closure executed and dropped)
                // before this function returns — see `dispatch` — so no
                // erased borrow outlives `'env`.
                let t: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(t) };
                Mutex::new(Some(t))
            })
            .collect();
        let batch = Arc::new(TaskBatch {
            tasks: erased,
            next: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
        });
        self.dispatch(&batch);
        let payload = batch.panics.lock().unwrap().drain(..).next();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Hands `batch` to the parked workers, joins the claiming loop on the
    /// dispatching thread — the caller is an extra worker, not an idle
    /// spectator — and blocks until every worker reports done.
    fn dispatch(&self, batch: &Arc<TaskBatch>) {
        let shared = &self.inner.shared;
        let _dispatch = shared.dispatch.lock().unwrap();
        {
            let mut st = shared.state.lock().unwrap();
            st.batch = Some(Arc::clone(batch));
            st.seq += 1;
            st.running = self.inner.threads;
        }
        shared.start.notify_all();
        batch.run_worker();
        let mut st = shared.state.lock().unwrap();
        while st.running > 0 {
            st = shared.done.wait(st).unwrap();
        }
        st.batch = None;
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl ParallelPushRelabel {
    /// Creates a solver; all scratch grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.excess.len() < n {
            self.excess.resize(n, 0);
        }
    }

    fn run<W: ArenaIndex>(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        g.finalize();
        let n = g.num_vertices();
        self.ensure(n);

        // Saturate residual source edges (same init as the sequential
        // resume, Algorithm 5 lines 4-10) and cancel flow into the source
        // (circulation through s would otherwise pin capacity and break
        // label validity — see the sequential engine for the argument).
        let (lo, hi) = g.adj_bounds(s);
        for pos in lo..hi {
            let delta = g.residual_at(pos);
            if delta > 0 {
                let v = g.target_at(pos);
                g.push_at(pos, delta);
                self.excess[v] += delta;
            }
        }
        self.excess[s] = 0;

        if self.discharge_rounds(g, s, t) {
            // Defensive fallback: finish with the (two-phase) sequential
            // engine rather than risk a silently suboptimal schedule.
            for v in 0..n {
                self.fixup.set_excess(v, self.excess[v]);
            }
            let before = self.fixup.stats.pushes;
            let relabels_before = self.fixup.stats.relabels;
            let val = self.fixup.resume(g, s, t);
            self.last_run.fixup_pushes = self.fixup.stats.pushes - before;
            self.total_pushes += self.last_run.fixup_pushes;
            self.total_relabels += self.fixup.stats.relabels - relabels_before;
            for v in 0..n {
                self.excess[v] = self.fixup.excess(v);
            }
            return val;
        }

        // Drain excess stranded at the phase-1 boundary back toward the
        // source by cancelling the inflow that carried it, leaving a valid
        // *flow* (conservation holds everywhere except s and t). The walks
        // follow existing flow edges directly — no height bookkeeping — so
        // this is linear in the stranded mass.
        drain_trapped_excess(g, &mut self.excess, s, t);
        self.excess[t]
    }

    /// The discharge rounds, on plain arrays walking the graph's own CSR
    /// arena. Records [`ParallelPushRelabel::last_run`] and returns whether
    /// a round stalled (made neither a push nor a relabel — cannot happen,
    /// since a queued vertex always does one or the other, but the caller
    /// guards against silently looping forever).
    fn discharge_rounds<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        s: VertexId,
        t: VertexId,
    ) -> bool {
        let n = g.num_vertices();
        let height_cap = n as u32;
        const UNSEEN: u32 = u32::MAX;
        self.height.clear();
        self.height.resize(n, 0);
        self.queued.clear();
        self.queued.resize(n, false);
        self.ring.clear();
        let (mut pushes, mut relabels) = (0u64, 0u64);
        // The round budget plays the role of periodic global relabeling:
        // it stops vertices from climbing one level at a time once the
        // capacity they were aiming for is gone.
        let round_budget = n.max(64) as u64;
        let mut stalled = false;
        loop {
            // A vertex must hold excess for the relabeling BFS to count
            // anything, so when every unit has reached `t` (or returned to
            // `s`) the final BFS is skipped outright: it would find zero.
            // Heights are scratch state, dead once the loop exits.
            let any_excess = (0..n).any(|v| v != s && v != t && self.excess[v] > 0);
            if !any_excess {
                break;
            }
            // Global relabel: exact residual distances to `t` by reverse
            // BFS, vertices that cannot reach `t` (and the source) parked
            // at the phase-1 boundary height `n`.
            self.height[..n].fill(UNSEEN);
            self.height[t] = 0;
            self.bfs.clear();
            self.bfs.push(t as u32);
            let mut head = 0;
            while head < self.bfs.len() {
                let w = self.bfs[head] as usize;
                head += 1;
                let dw = self.height[w];
                let (lo, hi) = g.adj_bounds(w);
                for pos in lo..hi {
                    let u = g.target_at(pos);
                    if self.height[u] == UNSEEN && g.residual_at(g.mate_at(pos)) > 0 && u != s {
                        self.height[u] = dw + 1;
                        self.bfs.push(u as u32);
                    }
                }
            }
            let mut reachable_excess = 0usize;
            for v in 0..n {
                if self.height[v] == UNSEEN || v == s {
                    self.height[v] = height_cap;
                } else if v != s && v != t && self.excess[v] > 0 {
                    reachable_excess += 1;
                }
            }
            if reachable_excess == 0 {
                break;
            }
            let relabel_limit = relabels + round_budget;
            for v in 0..n {
                if v != s && v != t && self.excess[v] > 0 && self.height[v] < height_cap {
                    self.queued[v] = true;
                    self.ring.push_back(v as u32);
                }
            }
            let (pushes_before, relabels_before) = (pushes, relabels);
            while let Some(v) = self.ring.pop_front() {
                let v = v as usize;
                // Discharge `v` fully (lowest residual neighbour rule).
                // Only `v` itself mutates its height and (net) excess while
                // it is being discharged, so both are carried in locals and
                // the adjacency bounds are computed once.
                let (lo, hi) = g.adj_bounds(v);
                let mut ev = self.excess[v];
                let mut hv = self.height[v];
                loop {
                    if ev <= 0 || relabels >= relabel_limit {
                        break;
                    }
                    // Lowest residual neighbour: the first strict minimum
                    // in position (= slot) order. The height test runs
                    // first, so cap/flow are read only for slots that would
                    // improve the minimum; the conjunction commutes, so the
                    // selected slot is the same either way.
                    let mut best_pos = u32::MAX;
                    let mut best_h = u32::MAX;
                    for pos in lo..hi {
                        let h = self.height[g.target_at(pos)];
                        if h < best_h && g.residual_at(pos) > 0 {
                            best_h = h;
                            best_pos = pos;
                        }
                    }
                    if best_pos == u32::MAX {
                        break; // stranded; the drain pass handles it
                    }
                    if hv > best_h {
                        let delta = ev.min(g.residual_at(best_pos));
                        let w = g.target_at(best_pos);
                        g.push_at(best_pos, delta);
                        ev -= delta;
                        self.excess[v] -= delta;
                        self.excess[w] += delta;
                        pushes += 1;
                        if w != s && w != t && self.height[w] < height_cap && !self.queued[w] {
                            self.queued[w] = true;
                            self.ring.push_back(w as u32);
                        }
                    } else {
                        // Relabel. A vertex lifted to the phase-1 boundary
                        // can no longer reach the sink this round; its
                        // excess is drained back after the rounds end.
                        hv = best_h + 1;
                        self.height[v] = hv;
                        relabels += 1;
                        if hv >= height_cap {
                            break;
                        }
                    }
                }
                self.queued[v] = false;
                if self.excess[v] > 0 && self.height[v] < height_cap && relabels < relabel_limit {
                    self.queued[v] = true;
                    self.ring.push_back(v as u32);
                }
            }
            if pushes == pushes_before && relabels == relabels_before {
                stalled = true;
                break;
            }
        }
        self.excess[s] = 0;

        self.last_run = ParallelRunStats {
            parallel_pushes: pushes,
            parallel_relabels: relabels,
            fixup_pushes: 0,
        };
        self.total_pushes += pushes;
        self.total_relabels += relabels;
        stalled
    }

    /// Computes a maximum flow from scratch (zeroing any existing flow).
    pub fn max_flow<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        s: VertexId,
        t: VertexId,
    ) -> i64 {
        assert_ne!(s, t, "source and sink must differ");
        g.zero_flows();
        self.ensure(g.num_vertices());
        self.excess.iter_mut().for_each(|e| *e = 0);
        self.run(g, s, t)
    }

    /// Re-runs the engine conserving the flow currently in `g`.
    pub fn resume<W: ArenaIndex>(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        assert_ne!(s, t, "source and sink must differ");
        self.ensure(g.num_vertices());
        self.run(g, s, t)
    }

    /// Accumulated excess at `v`.
    pub fn excess(&self, v: VertexId) -> i64 {
        self.excess.get(v).copied().unwrap_or(0)
    }

    /// Overrides the excess at `v`.
    pub fn set_excess(&mut self, v: VertexId, x: i64) {
        self.ensure(v + 1);
        self.excess[v] = x;
    }

    /// Zeroes the excesses of vertices `0..n` (see
    /// [`IncrementalMaxFlow::reset_excess`]).
    pub fn reset_excess(&mut self, n: usize) {
        self.ensure(n);
        self.excess[..n].iter_mut().for_each(|e| *e = 0);
    }

    /// Cumulative `(pushes, relabels)` across all runs.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.total_pushes, self.total_relabels)
    }
}

impl<W: ArenaIndex> IncrementalMaxFlow<W> for ParallelPushRelabel {
    fn max_flow(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        ParallelPushRelabel::max_flow(self, g, s, t)
    }

    fn resume(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        ParallelPushRelabel::resume(self, g, s, t)
    }

    fn excess(&self, v: VertexId) -> i64 {
        ParallelPushRelabel::excess(self, v)
    }

    fn set_excess(&mut self, v: VertexId, x: i64) {
        ParallelPushRelabel::set_excess(self, v, x)
    }

    fn excess_snapshot_into(&self, n: usize, buf: &mut Vec<i64>) {
        crate::push_relabel::copy_excess(&self.excess, n, buf);
    }

    fn restore_excess(&mut self, snap: &[i64]) {
        self.ensure(snap.len());
        self.excess[..snap.len()].copy_from_slice(snap);
    }

    fn op_counts(&self) -> (u64, u64) {
        ParallelPushRelabel::op_counts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic;
    use crate::validate::assert_valid_flow;

    fn clrs() -> (FlowGraph, VertexId, VertexId) {
        let mut g: FlowGraph = FlowGraph::new(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 3, 12);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 4, 14);
        g.add_edge(3, 2, 9);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 3, 7);
        g.add_edge(4, 5, 4);
        (g, 0, 5)
    }

    #[test]
    fn clrs_single_thread() {
        let (mut g, s, t) = clrs();
        assert_eq!(ParallelPushRelabel::new().max_flow(&mut g, s, t), 23);
        assert_valid_flow(&g, s, t);
    }

    #[test]
    fn clrs_compact_width() {
        let mut g: FlowGraph<i32> = FlowGraph::new(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 3, 12);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 4, 14);
        g.add_edge(3, 2, 9);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 3, 7);
        g.add_edge(4, 5, 4);
        assert_eq!(ParallelPushRelabel::new().max_flow(&mut g, 0, 5), 23);
        assert_valid_flow(&g, 0, 5);
    }

    #[test]
    fn agrees_with_dinic_on_random_graphs() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(2024);
        for case in 0..40 {
            let n = rng.gen_range(4..20);
            let m = rng.gen_range(n..5 * n);
            let mut g: FlowGraph = FlowGraph::new(n);
            for _ in 0..m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u, v, rng.gen_range(0..30));
                }
            }
            let mut oracle = g.clone();
            let want = dinic::max_flow(&mut oracle, 0, n - 1);
            let got = ParallelPushRelabel::new().max_flow(&mut g, 0, n - 1);
            assert_eq!(got, want, "case {case}");
            assert_valid_flow(&g, 0, n - 1);
        }
    }

    #[test]
    fn resume_after_capacity_increase() {
        let mut g: FlowGraph = FlowGraph::new(4);
        g.add_edge(0, 1, 10);
        let bottleneck = g.add_edge(1, 2, 3);
        g.add_edge(2, 3, 10);
        let mut pr = ParallelPushRelabel::new();
        assert_eq!(pr.max_flow(&mut g, 0, 3), 3);
        g.set_cap(bottleneck, 8);
        assert_eq!(pr.resume(&mut g, 0, 3), 8);
        assert_valid_flow(&g, 0, 3);
    }

    #[test]
    fn repeated_resume_matches_sequential() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(5);
        let n = 14;
        let mut g: FlowGraph = FlowGraph::new(n);
        let mut sink_edges = Vec::new();
        for v in 1..n - 1 {
            g.add_edge(0, v, rng.gen_range(1..4));
            sink_edges.push(g.add_edge(v, n - 1, 0));
        }
        for _ in 0..25 {
            let u = rng.gen_range(1..n - 1);
            let v = rng.gen_range(1..n - 1);
            if u != v {
                g.add_edge(u, v, rng.gen_range(0..3));
            }
        }
        let mut pr = ParallelPushRelabel::new();
        pr.max_flow(&mut g, 0, n - 1);
        for _ in 0..12 {
            let e = sink_edges[rng.gen_range(0..sink_edges.len())];
            g.set_cap(e, g.cap(e) + 1);
            let got = pr.resume(&mut g, 0, n - 1);
            let mut oracle = g.clone();
            let want = dinic::max_flow(&mut oracle, 0, n - 1);
            assert_eq!(got, want);
            assert_valid_flow(&g, 0, n - 1);
        }
    }

    #[test]
    fn topology_rebuild_on_new_graph_shape() {
        let mut pr = ParallelPushRelabel::new();
        let mut g1: FlowGraph = FlowGraph::new(3);
        g1.add_edge(0, 1, 4);
        g1.add_edge(1, 2, 4);
        assert_eq!(pr.max_flow(&mut g1, 0, 2), 4);
        // Different topology through the same engine.
        let mut g2: FlowGraph = FlowGraph::new(5);
        g2.add_edge(0, 1, 2);
        g2.add_edge(0, 2, 2);
        g2.add_edge(1, 3, 2);
        g2.add_edge(2, 3, 2);
        g2.add_edge(3, 4, 3);
        assert_eq!(pr.max_flow(&mut g2, 0, 4), 3);
    }

    #[test]
    fn run_tasks_executes_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let mut out = [0u64; 16];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot = (i as u64 + 1) * 10) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_tasks(tasks);
        }
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64 + 1) * 10, "task {i}");
        }
    }

    #[test]
    fn run_tasks_single_task_runs_inline() {
        let pool = WorkerPool::new(2);
        let mut hit = false;
        pool.run_tasks(vec![
            Box::new(|| hit = true) as Box<dyn FnOnce() + Send + '_>
        ]);
        assert!(hit);
        pool.run_tasks(Vec::new()); // empty batch is a no-op
    }

    #[test]
    fn run_tasks_panic_is_reraised_and_batchmates_still_run() {
        let pool = WorkerPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    let done = Arc::clone(&done);
                    Box::new(move || {
                        if i == 3 {
                            panic!("task 3 poisoned");
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool.run_tasks(tasks);
        }));
        assert!(result.is_err(), "panic must re-raise on the dispatcher");
        // The batch drains fully before the re-raise.
        assert_eq!(done.load(Ordering::SeqCst), 7);
        // The pool survives: fresh batches still run.
        let mut again = 0usize;
        pool.run_tasks(
            (0..4)
                .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
                .collect(),
        );
        pool.run_tasks(vec![Box::new(|| again = 1) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(again, 1);
    }

    #[test]
    fn stats_recorded() {
        let (mut g, s, t) = clrs();
        let mut pr = ParallelPushRelabel::new();
        pr.max_flow(&mut g, s, t);
        assert!(pr.last_run.parallel_pushes > 0);
    }
}
